import random
from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings, strategies as st

from pbound import bounds, branching
from pbound.bounds import (
    AxisPoint,
    BoundsError,
    _axis_root_count,
    _linear_rows,
    axis_multiplicity_bound,
    axis_singular_points,
    invariant_line_bound,
    line_transform,
    p_at_axis,
)
from pbound.branching import DEFAULT_CAPS, Caps, Reason, multiplicity_at
from pbound.exact import QQ_TOWER, UniPoly, _primitive_int_coeffs, adjoin_root
from pbound.polyode import BiPoly, OdeError, OdeSystem, bipoly_str, make_system, transform_point
from pbound.sysparse import multiplicity_report, parse_system
from test_dynamic_evaluation import AXIS_QUARTIC
from test_lotka import TRIPLE_POINTS


def bp(entries):
    return BiPoly({(Q(ze), we): Q(c) for (ze, we), c in entries.items()})


def lv_system(a, b, c):
    return make_system(
        bp({(1, 1): b, (0, 2): 1, (0, 1): -a}),
        bp({(2, 0): 1, (1, 1): c, (1, 0): -1}),
    )


def saddle_line_system():
    """zdot = z w, wdot = (w-1)^2 - z with strict invariant line w + z - 1."""
    return make_system(
        bp({(0, 2): 1, (0, 1): -2, (0, 0): 1, (1, 0): -1}),
        bp({(1, 1): 1}),
    )


# ---------------------------------------------------------------------------
# axis points
# ---------------------------------------------------------------------------

def test_axis_points_lv():
    points, k = axis_singular_points(lv_system(Q(-1), Q(0), Q(0)))
    labels = [(kind, value) for kind, value, _ in points]
    assert labels[0] == ("inf", None)
    assert {v for kind, v in labels[1:]} == {Q(0), Q(-1)}
    assert k == 2


def test_axis_points_irrational():
    # P(0, w) = w^2 - 2
    sys = make_system(bp({(0, 2): 1, (0, 0): -2}), bp({(1, 0): 1}))
    points, k = axis_singular_points(sys)
    assert k == 2
    kinds = [kind for kind, _, _ in points]
    assert kinds == ["inf", "irrational"]
    assert points[1][2] == 2  # conjugate pair weight


# Derandomized and without an example database, so every run draws the
# same examples.
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.lists(
        st.tuples(
            st.lists(st.fractions(-4, 4, max_denominator=3), min_size=1, max_size=2),
            st.fractions(-3, 3, max_denominator=3).filter(lambda c: c != 0),
            st.integers(1, 2),
        ),
        min_size=1,
        max_size=2,
    ),
    st.booleans(),
)
def test_axis_k_is_the_degree_of_the_squarefree_part(factors, z_term):
    # P(0, w) = prod f^m with non-monic f of degree <= 2: at most 8, the
    # factor cap
    p0 = UniPoly([Q(1)], var="w")
    for low, lead, mult in factors:
        for _ in range(mult):
            p0 = p0 * UniPoly(low + [lead], var="w")
    terms = {(0, j): c for j, c in enumerate(p0.coeffs)}
    if z_term:
        terms[(1, 1)] = terms.get((1, 1), 0) + 3
    sys = make_system(BiPoly(terms), bp({(1, 0): 1}))
    points, k = axis_singular_points(sys)
    assert k == sum(f.degree() for f, _ in p_at_axis(sys).squarefree_decomposition())
    assert k == sum(weight for kind, _, weight in points if kind != "inf")


@pytest.mark.parametrize(
    "roots, rest, power, capped",
    [
        ([], [2, 0, 0, 0, 0, 0, 0, 0, 0, 1], 1, True),  # w^9 + 2: no rational root
        ([(1, 2), (Q(-1, 2), 1)], [2, 0, 0, 0, 0, 0, 0, 0, 0, 1], 1, True),  # and a double root 1
        ([(-1, 1)], [2, 0, 0, 0, 0, 0, 0, 0, 0, 1], 1, True),
        ([(1, 1)], [1, 1, 1, 1, 1, 1, 1, 1, 1], 1, False),  # w^9 - 1: the rest is at the cap
        ([(2, 3)], [5, 0, 0, 0, 0, 1], 1, False),  # degree 8 with a triple root 2
        ([], [2, 0, 1, 0, 0, 0, 0, 0, 0, 1], 2, True),  # squared: 9 distinct roots of degree 18
    ],
    ids=["no-rational-root", "double-root", "one-root", "w^9-1", "at-the-cap", "not-squarefree"],
)
def test_axis_points_above_the_factor_cap(roots, rest, power, capped):
    # rational roots are split off first (exact.root_policy); a rest still
    # above the cap is one "factor-cap" entry, weighted by its distinct roots,
    # and k is the degree of P(0, w)'s squarefree part either way
    p0 = UniPoly([1], var="w")
    for _ in range(power):
        p0 = p0 * UniPoly(rest, var="w")
    for root, mult in roots:
        for _ in range(mult):
            p0 = p0 * UniPoly([-Q(root), 1], var="w")
    terms = {(0, j): c for j, c in enumerate(p0.coeffs)}
    terms[(1, 0)] = 1
    sys = make_system(BiPoly(terms), bp({(1, 0): 1}))
    points, k = axis_singular_points(sys)
    assert k == sum(f.degree() for f, _ in p0.squarefree_decomposition())
    assert k == sum(weight for kind, _, weight in points if kind != "inf")
    assert sorted(v for kind, v, _ in points if kind == "rational") == sorted({Q(r) for r, _ in roots})
    assert ("factor-cap" in [kind for kind, _, _ in points]) == capped
    bound = axis_multiplicity_bound(sys)
    if capped:
        entry = bound.points[-1]
        assert (entry.mul.status, entry.mul.lower_bound, entry.mul.diagnostics) == ("capped", 0, ("factor-cap",))
        assert entry.reasons == (Reason("capped", "bound", entry.label),)
        # a lower bound, unless a critical point blocks the sum
        assert bound.sum_bound is None and (bound.sum_lower_bound is None) == (bound.blocked_by is not None)


def test_axis_points_no_roots():
    sys = make_system(bp({(0, 0): 5}), bp({(1, 0): 1}))
    points, k = axis_singular_points(sys)
    assert k == 0
    assert [kind for kind, _, _ in points] == ["inf"]


def test_axis_requires_z_divisibility():
    sys = make_system(bp({(0, 1): 1}), bp({(0, 0): 1}))
    with pytest.raises(BoundsError, match="axis form"):
        axis_singular_points(sys)


def test_axis_rejects_vanishing_p():
    sys = OdeSystem(bp({(1, 1): 1}), bp({(1, 0): 1, (2, 0): 1}))
    with pytest.raises(BoundsError, match="vanishes identically"):
        axis_singular_points(sys)


@pytest.fixture(scope="module")
def sp():
    return pytest.importorskip("sympy")


def oracle_summands(sp, p0, tower_cap):
    """The axis summands but (0, inf) that sympy's factor_list of P(0, w)
    gives, as sorted (label, weight, status, diagnostics), and k.

    Above the factor cap 8 the rational roots are split off, and a rest
    still above it is one capped entry of its distinct roots; a factor of
    degree above ``tower_cap`` is capped; any other summand is counted."""
    w = sp.symbols("w")
    poly = sp.Poly(sp.Add(*[sp.Rational(c.numerator, c.denominator) * w**i for i, c in enumerate(p0.coeffs)]), w)
    _, factors = sp.factor_list(poly.as_expr(), w, domain="QQ")
    factors = [(sp.Poly(g, w, domain="QQ").monic(), m) for g, m in factors]
    linear = [(g, m) for g, m in factors if g.degree() == 1]
    rest = [(g, m) for g, m in factors if g.degree() > 1]
    out = [(str(Q(str(-g.all_coeffs()[1]))), 1, "finite", ()) for g, _ in linear]
    uni = lambda g: UniPoly([Q(str(c)) for c in reversed(g.all_coeffs())], var="w")
    if p0.degree() > 8 and sum(g.degree() * m for g, m in rest) > 8:
        whole = sp.Poly(sp.Mul(*[g.as_expr() ** m for g, m in rest]), w)
        out.append(("root of %s" % uni(whole), sum(g.degree() for g, _ in rest), "capped", ("factor-cap",)))
    else:
        for g, _ in rest:
            capped = g.degree() > tower_cap
            out.append(("root of %s" % uni(g), g.degree(), "capped" if capped else "finite", ("tower-cap",) * capped))
    return sorted(out), sum(weight for _, weight, _, _ in out)


AXIS_FACTORS = [[-2, 0, 1], [1, 0, 1], [2, 1, 3], [-2, 0, 0, 1], [1, 1, 0, 1], [5, -3, 0, 2]]
AXIS_RESTS = [None, [2] + [0] * 8 + [1], [-1] + [0] * 8 + [1]]  # w^9 + 2, w^9 - 1


# Derandomized and without an example database, so every run draws the
# same examples.
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.sampled_from([Q(0), Q(1), Q(-2), Q(1, 2)]), max_size=3, unique=True),
    st.lists(st.sampled_from(AXIS_FACTORS), max_size=2, unique_by=str),
    st.sampled_from(AXIS_RESTS),
    st.sampled_from([DEFAULT_CAPS, Caps(tower=2)]),
)
def test_axis_summands_follow_the_one_root_policy(sp, roots, factors, rest, caps):
    # P(0, w) with rational roots, irreducible quadratics and cubics and a
    # rest above the factor cap: which summands exist, what they weigh and
    # which a cap stops is exact.root_policy's decision, the same as
    # sympy's factors with the bound's caps.  zdot = z p0'(w), wdot = p0(w)
    # + z makes each simple root a 1:1 Jordan node, counted 0 off its
    # linear part, so every summand no cap stops is finite
    assume(roots or factors or rest)
    p0 = UniPoly([1], var="w")
    for coeffs in [[-root, 1] for root in roots] + factors + [rest] * (rest is not None):
        p0 = p0 * UniPoly(coeffs, var="w")
    terms = {(0, j): c for j, c in enumerate(p0.coeffs)}
    terms[(1, 0)] = 1
    zdot = BiPoly({(1, j): c for j, c in enumerate(p0.derivative().coeffs)})
    report = axis_multiplicity_bound(make_system(BiPoly(terms), zdot), caps)
    got = sorted((p.label, p.weight, p.mul.status, p.mul.diagnostics) for p in report.points[1:])
    want, k = oracle_summands(sp, p0, caps.tower)
    assert got == want
    assert report.k == k
    assert report.points[0].label == "inf"


def test_the_bound_extends_no_leaf(monkeypatch):
    # summands print no branches, so the trees the bound runs itself extend
    # no leaf past its prefix, whatever caps.terms is; the counter sees the
    # terms that multiplicity_at adds at the same caps
    added = []
    real = branching.extend_leaf

    def counted(leaf, n_terms):
        out = real(leaf, n_terms)
        added.append(len(out) - len(leaf.terms))
        return out

    monkeypatch.setattr(branching, "extend_leaf", counted)
    systems = [
        "dw/dz = ((w^2 - 2*z^2)^2 + z^7) / z^5",
        "dw/dz = ((w^2 - 2)^2 + z^2*w) / z^3",
        "dw/dz = (w^2 + z*w - 2) / (z)",
        "dw/dz = (z^2*w + 2*z*w^2 + z^2 + 3*w) / (-4*z^3 + z^2)",
    ]
    for text in systems:
        axis_multiplicity_bound(parse_system(text)[0], DEFAULT_CAPS)
    assert added and sum(added) == 0
    multiplicity_at(parse_system(systems[0])[0], ("point", Q(0), Q(0)), DEFAULT_CAPS)
    assert sum(added) > 0


# ---------------------------------------------------------------------------
# the sum and product bounds
# ---------------------------------------------------------------------------

def test_lv_bound_b_five():
    # all three axis points have multiplicity zero at (-1, 5, 0)
    sys = lv_system(Q(-1), Q(5), Q(0))
    report = axis_multiplicity_bound(sys)
    assert report.sum_bound == 0
    assert report.m_axis == 2 and report.k == 2
    assert report.product_bound == 6
    muls = {p.label: p.mul.count for p in report.points}
    assert muls == {"inf": 0, "0": 0, "-1": 0}
    # the product bound never exceeds m_axis * (deg_w P(0,w) + 1)
    deg_axis_poly = max(we for (ze, we) in sys.P.terms if ze == 0)
    assert report.product_bound <= report.m_axis * (deg_axis_poly + 1)


def test_lv_bound_b_zero_blocked():
    # at (-1, 0, 0) the point (0, -1) is algebraic critical: no finite bound
    report = axis_multiplicity_bound(lv_system(Q(-1), Q(0), Q(0)))
    assert report.sum_bound is None
    assert report.product_bound is None
    assert report.blocked_by is not None
    assert report.blocked_by.label == "-1"
    assert report.blocked_by.mul.status == "critical"


def test_lv_bound_critical_at_infinity():
    report = axis_multiplicity_bound(lv_system(Q(-1), Q(1), Q(-2)))
    assert report.blocked_by is not None
    assert report.blocked_by.label == "inf"


def test_capped_multiplicities_downgrade_sum_bound():
    from pbound.branching import Caps

    report = axis_multiplicity_bound(lv_system(Q(-1), Q(5), Q(0)), Caps(depth=0))
    assert report.sum_bound is None
    assert report.product_bound is None
    assert report.sum_lower_bound is not None
    assert any("inconclusive" in n for n in report.notes)


def test_saddle_fixture_sum_bound_nonvacuous():
    sys = saddle_line_system()
    report = axis_multiplicity_bound(sys)
    # axis roots: w = 1 double root of (w-1)^2, so k = 1
    assert report.k == 1
    muls = {p.label: p.mul.count for p in report.points}
    assert muls == {"inf": 0, "1": 1}
    assert report.sum_bound == 1
    assert report.product_bound == 2 * (1 + 1)
    # the strict certificate w + z - 1 has w-degree 1 <= 1: the bound is tight


def test_algebraic_axis_point_weighted():
    # dw/dz = (w^2 - 2)/ (z * 1): axis roots +-sqrt(2)
    sys = make_system(bp({(0, 2): 1, (0, 0): -2}), bp({(1, 0): 1}))
    report = axis_multiplicity_bound(sys)
    entry = [p for p in report.points if p.label.startswith("root of")][0]
    assert entry.weight == 2
    assert entry.mul.status == "finite"
    assert report.sum_bound == 0 + entry.weight * entry.mul.count


# ---------------------------------------------------------------------------
# line transform and the M(M+1) bound
# ---------------------------------------------------------------------------

def test_line_transform_lv_z_axis_is_identity_shape():
    sys = lv_system(Q(-1), Q(5), Q(0))
    transformed, swapped = line_transform(sys, (1, 0, 0))
    assert not swapped
    # dw/dz = w(bz + w - a) / (z (z + cw - 1)): same system back
    assert transformed.P.terms == sys.P.terms
    assert transformed.Q.terms == sys.Q.terms


def test_line_transform_w_axis_swaps():
    sys = lv_system(Q(-1), Q(5), Q(0))
    transformed, swapped = line_transform(sys, (0, 1, 0))
    assert swapped
    assert all(ze >= 1 for (ze, _) in transformed.Q.terms)


def test_line_transform_rejects_non_invariant():
    sys = lv_system(Q(-1), Q(5), Q(0))
    with pytest.raises(BoundsError, match="not invariant"):
        line_transform(sys, (1, 1, -5))


def test_lv_line_bound_six():
    report = invariant_line_bound(lv_system(Q(-1), Q(5), Q(0)), (1, 0, 0))
    assert report.line_bound == 6
    assert report.m_plain == 2


def test_lv_line_bound_blocked_at_b_zero():
    report = invariant_line_bound(lv_system(Q(-1), Q(0), Q(0)), (1, 0, 0))
    assert report.line_bound is None
    assert report.blocked_by is not None


def test_degree_one_system_line_bound_two():
    # zdot = z, wdot = z + w: invariant line z = 0, no critical axis point
    sys = make_system(bp({(0, 1): 1, (1, 0): 1}), bp({(1, 0): 1}))
    report = invariant_line_bound(sys, (1, 0, 0))
    assert report.line_bound == 2


def test_line_bound_scale_invariant():
    sys = lv_system(Q(-1), Q(5), Q(0))
    r1 = invariant_line_bound(sys, (1, 0, 0))
    r2 = invariant_line_bound(sys, (7, 0, 0))
    assert r1.to_report() == r2.to_report()


def test_saddle_line_bound():
    sys = saddle_line_system()
    report = invariant_line_bound(sys, (1, 0, 0))
    assert report.line_bound == 2 * 3
    # strict certificate has total degree 1 <= 6


def test_line_transform_preserves_darboux_property():
    from pbound.darboux import DarbouxCertificate, verify_darboux

    sys = saddle_line_system()
    # carry the sloped invariant line w + z - 1 onto the axis; the other
    # invariant polynomial z maps to (zbar - wbar + 1) and stays invariant
    transformed, swapped = line_transform(sys, (1, 1, -1))
    assert not swapped
    image_of_z = bp({(1, 0): 1, (0, 1): -1, (0, 0): 1})
    cert = verify_darboux(transformed, image_of_z)
    assert isinstance(cert, DarbouxCertificate)
    # total degree of the original equals the w-degree of the image
    assert image_of_z.w_degree() == 1


def test_certificate_axis_restriction_divides_root_product():
    # for an axis-form system, f(0, w) of any certificate is a product of
    # (w - a_i) powers over the axis roots, up to a constant
    from pbound.darboux import verify_darboux
    from pbound.exact import UniPoly, factor_univariate
    from fractions import Fraction

    sys = saddle_line_system()
    f = bp({(0, 1): 1, (1, 0): 1, (0, 0): -1})  # w + z - 1
    cert = verify_darboux(sys, f)
    f0 = [Fraction(0)] * (f.w_degree() + 1)
    for (ze, we), c in f.terms.items():
        if ze == 0:
            f0[we] = c
    restriction = UniPoly(f0, var="w")
    roots = {Fraction(1)}  # axis roots of (w-1)^2
    for fac in factor_univariate(restriction):
        assert fac.poly.degree() == 1
        assert -fac.poly.coeffs[0] in roots


# ---------------------------------------------------------------------------
# the linear-part rule at irrational axis roots
# ---------------------------------------------------------------------------

def _census_style(rng):
    """A random axis-form pair P, z q0 in the style of the benchmark census,
    with deg P <= 4 and deg q0 <= 3."""
    def poly(degree, shift):
        return BiPoly({(i + shift, j): rng.randint(-4, 4)
                       for i in range(degree + 1) for j in range(degree + 1 - i) if rng.random() < 0.55})
    return poly(4, 0), poly(3, 1)


def _small_corpus(rng):
    """A random system of the exhaustive small corpus: P of total degree <= 2
    and Q = z (a + b z + c w), coefficients in {-1, 0, 1}, with P(0, w) an
    irreducible quadratic."""
    c = lambda: rng.choice((-1, 0, 1))
    sign = rng.choice((-1, 1))
    p00, p01 = rng.choice([(1, 0), (1, 1), (1, -1), (-1, 1), (-1, -1)])
    p = BiPoly({(0, 2): sign, (0, 1): sign * p01, (0, 0): sign * p00, (1, 0): c(), (2, 0): c(), (1, 1): c()})
    return p, BiPoly({(1, 0): c(), (2, 0): c(), (1, 1): c()})


def _irrational_classes(pairs):
    """(system, certified factor) for every irrational axis class of the
    coprime pairs."""
    out = []
    for p, q in pairs:
        try:
            sys = make_system(p, q)
            points, _ = axis_singular_points(sys)
        except (OdeError, BoundsError):
            continue
        out.extend((sys, f) for kind, f, _ in points if kind == "irrational")
    return out


def test_linear_part_rule_matches_the_engine_at_irrational_axis_roots():
    # every class the rule decides gets the summand the branch tree over
    # Q(theta) gives, on derandomized census-style systems (deg P <= 4,
    # deg q0 <= 3) and on a sample of the small corpus
    rng = random.Random(36)
    pairs = [_census_style(rng) for _ in range(800)] + [_small_corpus(rng) for _ in range(600)]
    decided = {0: 0, 1: 0}
    for sys, f in _irrational_classes(pairs):
        rule = _axis_root_count(_linear_rows(sys), _primitive_int_coeffs(f), DEFAULT_CAPS)
        if rule is None:
            continue
        tower, theta = adjoin_root(QQ_TOWER, f, DEFAULT_CAPS.tower)
        engine = multiplicity_at(sys.map_tower(tower), ("point", Q(0), theta), DEFAULT_CAPS)
        label = "root of %s" % f
        assert AxisPoint(label, f.degree(), rule).to_report() == AxisPoint(label, f.degree(), engine).to_report()
        decided[rule.count] += 1
    assert decided[0] >= 20 and decided[1] >= 900


def test_linear_part_rule_on_a_factor_with_a_non_unit_integer_lead():
    # census system: w^2 - 1/2*w + 2 is 2w^2 - w + 4 on Z[w], so the
    # pseudo-remainders are scaled by powers of 2
    sys, _ = parse_system("dw/dz = (2*w^3 - w^2 - z*w + 4*z^2 + 4*w) / (z*w + 4*z)")
    ((f,),) = [(f,) for kind, f, _ in axis_singular_points(sys)[0] if kind == "irrational"]
    assert str(f) == "w^2 - 1/2*w + 2"
    rule = _axis_root_count(_linear_rows(sys), _primitive_int_coeffs(f), DEFAULT_CAPS)
    tower, theta = adjoin_root(QQ_TOWER, f, DEFAULT_CAPS.tower)
    engine = multiplicity_at(sys.map_tower(tower), ("point", Q(0), theta), DEFAULT_CAPS)
    assert (rule.status, rule.count) == ("finite", 1)
    label = "root of %s" % f
    assert AxisPoint(label, 2, rule).to_report() == AxisPoint(label, 2, engine).to_report()


def _summand(system, label, caps=DEFAULT_CAPS):
    sys, _ = parse_system(system)
    return next(s for s in axis_multiplicity_bound(sys, caps).summands() if s["point"] == label)


@pytest.fixture
def adjoined(monkeypatch):
    """The minimal polynomials that the bound adjoins a root of."""
    calls = []

    def spy(tower, m, *args):
        calls.append(str(m))
        return adjoin_root(tower, m, *args)

    monkeypatch.setattr(bounds, "adjoin_root", spy)
    return calls


def test_linear_part_rule_counts_the_transverse_separatrix(adjoined):
    summand = _summand("dw/dz = (w^3 + z*w - 2) / (z*w + z)", "root of w^3 - 2")
    assert (summand["status"], summand["mul"]) == ("finite", 1)
    assert adjoined == []


def test_linear_part_rule_never_counts_the_constant_solution(adjoined):
    # P(z, theta) = 0 at the roots of w^2 - 3: the separatrix is w = theta
    summand = _summand(AXIS_QUARTIC, "root of w^2 - 3")
    assert (summand["status"], summand["mul"]) == ("finite", 0)
    assert adjoined == []


def _rule_off(patch):
    """Switch the linear-part rule off in the bound and in
    ``multiplicity_at``, so that the branch tree decides every point."""
    for module in (bounds, branching):
        patch.setattr(module, "_linear_part_count", lambda *args: None)


def _engine_summand(monkeypatch, system, label, caps=DEFAULT_CAPS):
    """The summand the branch tree gives, with the linear-part rule off."""
    with monkeypatch.context() as patch:
        _rule_off(patch)
        return _summand(system, label, caps)


@pytest.mark.parametrize(
    "system, status, decided",
    [
        # rho = 2w / w = 2 is in Q+: the engine finds the point critical
        ("dw/dz = (w^2 - 2 + z) / (z*w)", "critical", False),
        # a double root of P(0, w): mu_w = 0, a saddle-node
        ("dw/dz = ((w^2 - 2)^2 + z) / (z)", "finite", True),
        # Q_1(theta) = 0: a saddle-node
        ("dw/dz = (w^2 - 2 + 2*z) / (z*(w^2 - 2) + z^2)", "finite", True),
    ],
)
def test_linear_part_rule_leaves_the_other_classes_to_the_engine(monkeypatch, adjoined, system, status, decided):
    # the saddle-nodes are counted off the linear part, with the summand
    # that the branch tree over Q(theta) gives
    summand = _summand(system, "root of w^2 - 2")
    assert adjoined == ([] if decided else ["w^2 - 2"])
    assert summand["status"] == status
    assert summand == _engine_summand(monkeypatch, system, "root of w^2 - 2")


def test_linear_part_rule_keeps_the_depth_cap():
    # the engine takes one tree step at the point, which depth=0 caps
    summand = _summand("dw/dz = (w^3 + z*w - 2) / (z*w + z)", "root of w^3 - 2", Caps(depth=0))
    assert (summand["status"], summand["mul_lower_bound"]) == ("capped", 0)


# ---------------------------------------------------------------------------
# the linear-part rule and the regular-point count against the branch tree
# ---------------------------------------------------------------------------

RULE_CAPS = (
    DEFAULT_CAPS, Caps(depth=0), Caps(depth=1), Caps(depth=2), Caps(depth=3), Caps(ram=1), Caps(factor=0)
)

# The tree caps where the linear part sees no cap: the transverse separatrix
# is the line w = theta + (theta + 1/2) z at the roots of w^2 + 1/4 (a
# census system), w = z + theta at the roots of w^2 - 2 and w = z at 0, so
# the tree stops on an exact leaf at depth 1.  At 0 in the last two systems
# Q vanishes on the first step w = -z (mu_z = 0), so the tree takes a
# second step, which in the last one ends on the exact solution
# w = -z + z^2, at depth 2.
PINNED_RULE_SYSTEMS = (
    "dw/dz = (4*w^2 + 2*z + 1) / (4*z*w + 2*z)",
    "dz/dt = -z; dw/dt = -z + (w - z)*((w - z)^2 - 2)",
    "dw/dz = (-w + 2*z) / (z)",
    "dw/dz = (w + z + z^2*w) / (z*(w + z))",
    "dw/dz = (w + z - z^2 + (w + z)*(2*z^2 - z)) / (z*(w + z))",
)


def _corpus_pair(rng):
    """A random system of the exhaustive small corpus: P of total degree
    <= 2 and Q = z (a + b z + c w), coefficients in {-1, 0, 1}."""
    c = lambda: rng.choice((-1, 0, 1))
    p = BiPoly({(i, j): c() for i in range(3) for j in range(3 - i)})
    return p, BiPoly({(1, 0): c(), (2, 0): c(), (1, 1): c()})


# factors of P(0, w) for planted nodes, as ascending int lists: the roots
# 1, -1/2 and 0, and the irrational classes of w^2 - 2, w^2 + w - 1 and
# w^2 + 1
NODE_FACTORS = ([-1, 1], [1, 2], [0, 1], [-2, 0, 1], [-1, 1, 1], [1, 0, 1])


def _w_poly(coeffs):
    return BiPoly({(0, j): c for j, c in enumerate(coeffs) if c})


def _planted_node(rng, f, ratio, jordan):
    """A node of eigenvalue ratio mu_w / mu_z = ``ratio`` at the roots theta
    of f: P = ratio f A + z B and Q = z (f' A + f D + z E), so that mu_z =
    f'(theta) A and mu_w = ratio f'(theta) A.  P_1(theta) = B(0, theta) is
    a nonzero constant for a Jordan node and 0 for a radial one."""
    c = lambda: rng.choice((-2, -1, 1, 2))
    a = c()
    fw = _w_poly(f)
    tail = BiPoly({(i, j): c() for i in range(1, 3) for j in range(2) if rng.random() < 0.5})
    b = (BiPoly.const(c()) if jordan else fw.scale(c())) + tail
    e = BiPoly({(i, j): c() for i in range(2) for j in range(2) if rng.random() < 0.5})
    p = fw.scale(ratio * a) + b.shift_z(1)
    q = (fw.diff_w().scale(a) + fw * _w_poly([c(), c()]) + e.shift_z(1)).shift_z(1)
    return p, q


def _planted_pairs():
    """Three draws of each node kind, Jordan, radial and ratio 2, at the
    roots of each factor of ``NODE_FACTORS``."""
    rng = random.Random(45)
    kinds = ((1, True), (1, False), (2, True))
    return [_planted_node(rng, f, ratio, jordan) for f in NODE_FACTORS for ratio, jordan in kinds for _ in range(3)]


def _rule_systems():
    """The pinned systems and the coprime axis-form systems of derandomized
    census-style and small-corpus draws and of planted nodes whose axis is
    isolated."""
    rng = random.Random(38)
    pairs = [_census_style(rng) for _ in range(150)] + [_corpus_pair(rng) for _ in range(150)] + _planted_pairs()
    out = [parse_system(text)[0] for text in PINNED_RULE_SYSTEMS]
    for p, q in pairs:
        try:
            sys = make_system(p, q)
            axis_singular_points(sys)
        except (OdeError, BoundsError):
            continue
        out.append(sys)
    return out


def _irrational_classes_by_kind(sys):
    """The irrational classes with exactly one eigenvalue zero ("saddle-node
    class") and the 1:1 Jordan ones ("Jordan class"), from mu_z = Q_1 mod f,
    mu_w = P_0' mod f and P_1 mod f over Q, as the primitive int lists of
    their factors f."""
    q1, p1 = (UniPoly([side.coeff(1, j) for j in range(side.w_degree() + 1)], var="w") for side in (sys.Q, sys.P))
    dp0 = p_at_axis(sys).derivative()
    out = {}
    for kind, f, _ in axis_singular_points(sys)[0]:
        if kind != "irrational":
            continue
        across, along = not (q1 % f).is_zero(), not (dp0 % f).is_zero()
        if across != along:
            out[tuple(_primitive_int_coeffs(f))] = "saddle-node class"
        elif across and ((q1 - dp0) % f).is_zero() and not (p1 % f).is_zero():
            out[tuple(_primitive_int_coeffs(f))] = "Jordan class"
    return out


def test_linear_part_rule_matches_the_branch_tree(monkeypatch):
    # every bound report is the one the branch tree gives at every point, at
    # default caps, at depth 0-3, at ram=1 and at factor=0; the rule
    # decides points of every kind: 0, other rational roots, infinity, and
    # saddle-node and 1:1 Jordan classes of irrational roots
    decisions = []
    real_rule = bounds._axis_root_count

    def rule(rows, f, caps):
        res = real_rule(rows, f, caps)
        if res is not None:
            decisions.append((rows, tuple(f)))
        return res

    decided = {"0": 0, "rational": 0, "inf": 0, "saddle-node class": 0, "Jordan class": 0}
    for sys in _rule_systems():
        classes = _irrational_classes_by_kind(sys)
        rows = _linear_rows(sys)
        for caps in RULE_CAPS:
            decisions.clear()
            with monkeypatch.context() as patch:
                patch.setattr(bounds, "_axis_root_count", rule)
                report = axis_multiplicity_bound(sys, caps)
            with monkeypatch.context() as patch:
                _rule_off(patch)
                assert report.to_report() == axis_multiplicity_bound(sys, caps).to_report()
            for on, f in decisions:
                # (0, inf) is the root w = 0 of the inverted system
                if on != rows:
                    decided["inf"] += 1
                elif f == (0, 1):
                    decided["0"] += 1
                elif len(f) == 2:
                    decided["rational"] += 1
                elif f in classes:
                    decided[classes[f]] += 1
    assert min(decided.values()) >= 20, decided


def _rule_points(sys):
    """(0, 0), (0, inf) and every rational root of P(0, w) on the axis."""
    points = [("point", Q(0), Q(0)), ("inf", Q(0))]
    for kind, value, _ in axis_singular_points(sys)[0]:
        if kind == "rational" and value != 0:
            points.append(("point", Q(0), value))
    return points


def _linear_part_kind(p0, mu_z, mu_w, p_z, on_solution, *rest):
    """Which case of the rule a decided point is, from its arguments."""
    if any(p0):
        return "regular"
    return "Jordan node" if mu_z == mu_w else "reduced, on the constant solution"


def test_linear_part_rule_in_multiplicity_at_matches_the_branch_tree(monkeypatch):
    # multiplicity_at answers count 0 off the linear part at the moved
    # origin with the report the branch tree gives, at (0, 0), (0, inf) and
    # the rational roots of every rule system, at every caps setting of
    # RULE_CAPS, and runs no tree there; each case is decided
    decided = {"regular": 0, "reduced, on the constant solution": 0, "Jordan node": 0}
    real_rule, real_expand = branching._linear_part_count, branching.expand_branches
    last, trees = [], []

    def rule(*args):
        res = real_rule(*args)
        last.append(None if res is None else _linear_part_kind(*args))
        return res

    def expand(*args):
        trees.append(args)
        return real_expand(*args)

    for sys in _rule_systems():
        for point in _rule_points(sys):
            for caps in RULE_CAPS:
                last.clear()
                trees.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(branching, "_linear_part_count", rule)
                    patch.setattr(branching, "expand_branches", expand)
                    got = multiplicity_report(multiplicity_at(sys, point, caps))
                with monkeypatch.context() as patch:
                    _rule_off(patch)
                    assert got == multiplicity_report(multiplicity_at(sys, point, caps)), (sys, point, caps)
                if last and last[0] is not None:
                    assert got["mul"] == 0 and not trees
                    decided[last[0]] += 1
    assert min(decided.values()) >= 20, decided


@pytest.mark.parametrize(
    "system, status, mul",
    [
        # a 1:1 Jordan node: its only separatrix is the axis
        ("dz/dt = z; dw/dt = w + z", "finite", 0),
        ("dz/dt = -3*z; dw/dt = -3*w + 5*z", "finite", 0),
        # its radial twin is dicritical, and a ratio-2 node has the
        # separatrices w = c z^2 + ...: the tree gives the witness
        ("dz/dt = z; dw/dt = w", "critical", None),
        ("dz/dt = z; dw/dt = 2*w + z", "critical", None),
    ],
)
def test_linear_part_rule_at_nodes(monkeypatch, system, status, mul):
    sys, _ = parse_system(system)
    trees = []
    real_expand = branching.expand_branches
    monkeypatch.setattr(branching, "expand_branches", lambda *args: trees.append(args) or real_expand(*args))
    res = multiplicity_at(sys, ("point", Q(0), Q(0)))
    assert (res.status, res.count) == (status, mul)
    assert bool(trees) == (status == "critical")
    if status == "critical":
        assert res.witness is not None


def _fresh_known(sys, caps):
    """The known map of the bound, from fresh ``multiplicity_at`` calls at
    "0", "inf" and every rational root of P(0, w)."""
    known = {"0": multiplicity_at(sys, ("point", Q(0), Q(0)), caps), "inf": multiplicity_at(sys, ("inf", Q(0)), caps)}
    for kind, value, _ in axis_singular_points(sys)[0]:
        if kind == "rational":
            known[str(value)] = multiplicity_at(sys, ("point", Q(0), value), caps)
    return known


def test_bound_takes_the_given_multiplicities():
    # the bound with the multiplicities that analyze and lv --triple pass
    # is the bound that computes every point itself
    for sys in _rule_systems():
        for caps in RULE_CAPS:
            want = axis_multiplicity_bound(sys, caps).to_report()
            assert axis_multiplicity_bound(sys, caps, _fresh_known(sys, caps)).to_report() == want


def test_bound_takes_the_given_multiplicities_on_the_lv_points():
    for params in TRIPLE_POINTS:
        sys = lv_system(*(Q(x) for x in params.split(",")))
        known = _fresh_known(sys, DEFAULT_CAPS)
        assert set(known) == {"inf", "0", params.split(",")[0]}
        assert axis_multiplicity_bound(sys, known=known).to_report() == axis_multiplicity_bound(sys).to_report()


# points of the axis z = 0, (0, infinity) and a point off the axis
REGULAR_TEST_POINTS = (
    ("point", Q(0), Q(0)),
    ("inf", Q(0)),
    ("point", Q(0), Q(1)),
    ("point", Q(0), Q(-1, 2)),
    ("point", Q(1), Q(0)),
)


def test_regular_axis_point_count_matches_the_branch_tree(monkeypatch):
    # multiplicity_at skips the tree at a regular point of an invariant axis
    # and reports what the tree reports, on the systems above, on systems
    # whose Q has no factor z and on 1/w, where z does not divide Q
    rng = random.Random(19)
    systems = _rule_systems()[:120] + [parse_system("dw/dz = (1) / (w)")[0]]
    for _ in range(60):
        p, q = _corpus_pair(rng)
        q = q + BiPoly({(0, 1): rng.choice((-1, 1)), (0, 0): rng.choice((-1, 0, 1))})
        try:
            systems.append(make_system(p, q))
        except OdeError:
            continue
    skipped = 0
    for sys in systems:
        for caps in (DEFAULT_CAPS, Caps(depth=0), Caps(depth=1)):
            for point in REGULAR_TEST_POINTS:
                got = multiplicity_report(multiplicity_at(sys, point, caps))
                with monkeypatch.context() as patch:
                    _rule_off(patch)
                    assert got == multiplicity_report(multiplicity_at(sys, point, caps)), (sys, point, caps)
                moved = transform_point(sys, point)
                skipped += moved.P.coeff(0, 0) != 0 and branching._origin_count(moved, caps) is not None
    assert skipped >= 200


def test_regular_point_count_needs_the_factor_z():
    # z does not divide Q = w: two branches w = +-(2 z)^(1/2)
    sys, _ = parse_system("dw/dz = (1) / (w)")
    res = multiplicity_at(sys, ("point", Q(0), Q(0)))
    assert (res.status, res.count) == ("finite", 2)


def test_regular_point_count_keeps_the_depth_cap():
    sys, _ = parse_system("dw/dz = (w + 1) / (z)")
    res = multiplicity_at(sys, ("point", Q(0), Q(0)), Caps(depth=0))
    assert (res.status, res.lower_bound) == ("capped", 0)
    res = multiplicity_at(sys, ("point", Q(0), Q(0)))
    assert (res.status, res.count, res.branches) == ("finite", 0, ())


@pytest.mark.parametrize(
    "system, label, caps, status, mul",
    [
        # an exact transverse line at depth 1: the tree caps it at depth=1
        ("dz/dt = -z; dw/dt = -z + (w - z)*((w - z)^2 - 2)", "root of w^2 - 2", Caps(depth=1), "capped", 1),
        ("dz/dt = -z; dw/dt = -z + (w - z)*((w - z)^2 - 2)", "root of w^2 - 2", Caps(depth=2), "finite", 1),
        ("dw/dz = (-w + 2*z) / (z)", "0", Caps(depth=1), "capped", 1),
        ("dw/dz = (-w + 2*z) / (z)", "0", Caps(depth=2), "finite", 1),
        # mu_z = 0 with one generic closure: depth 2 + deg_w Q = 3 decides
        ("dw/dz = (w + z + z^2*w) / (z*(w + z))", "0", Caps(depth=1), "capped", 0),
        ("dw/dz = (w + z + z^2*w) / (z*(w + z))", "0", Caps(depth=3), "finite", 1),
        ("dw/dz = (w + z - z^2 + (w + z)*(2*z^2 - z)) / (z*(w + z))", "0", Caps(depth=2), "capped", 1),
        ("dw/dz = (w + z - z^2 + (w + z)*(2*z^2 - z)) / (z*(w + z))", "0", Caps(depth=3), "finite", 1),
    ],
)
def test_linear_part_rule_depth_guard(monkeypatch, system, label, caps, status, mul):
    summand = _summand(system, label, caps)
    assert (summand["status"], summand.get("mul", summand.get("mul_lower_bound"))) == (status, mul)
    assert summand == _engine_summand(monkeypatch, system, label, caps)
