import itertools
import math
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings, strategies as st

from pbound import cli, darboux, exact
from pbound.darboux import (
    DarbouxCertificate,
    DarbouxError,
    NotDarboux,
    detect_invariant_lines,
    extactic_determinant,
    invariant_core,
    search_darboux,
    strictness_check,
    derive_along,
    verify_darboux,
)
from pbound.exact import QQ_TOWER, UniPoly, adjoin_root, packed_det
from pbound.polyode import (
    BiPoly,
    OdeError,
    OdeSystem,
    _primitive_int,
    bipoly_divexact,
    bipoly_str,
    biv_gcd,
    make_system,
)


def bp(entries):
    return BiPoly({(Q(ze), we): Q(c) for (ze, we), c in entries.items()})


def lv_system(a, b, c):
    """zdot = z(z + c w - 1), wdot = w(b z + w - a); stored as dw/dz = P/Q."""
    return make_system(
        bp({(1, 1): b, (0, 2): 1, (0, 1): -a}),
        bp({(2, 0): 1, (1, 1): c, (1, 0): -1}),
    )


def saddle_line_system():
    """zdot = z w, wdot = (w - 1)^2 - z; the line w + z - 1 is invariant."""
    return make_system(
        bp({(0, 2): 1, (0, 1): -2, (0, 0): 1, (1, 0): -1}),
        bp({(1, 1): 1}),
    )


LINE = bp({(0, 1): 1, (1, 0): 1, (0, 0): -1})  # w + z - 1


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def test_lv_strict_line_certificate():
    sys = lv_system(Q(-1), Q(0), Q(0))
    f = bp({(0, 0): 1, (1, 0): -1, (0, 1): 1})  # 1 - z + w
    cert = verify_darboux(sys, f)
    assert isinstance(cert, DarbouxCertificate)
    assert cert.cofactor.terms == bp({(1, 0): 1, (0, 1): 1}).terms  # z + w
    assert cert.strict


def test_lv_axis_certificates():
    sys = lv_system(Q(-1), Q(3), Q(2))
    z = bp({(1, 0): 1})
    cert = verify_darboux(sys, z)
    # zdot = z (z + c w - 1): cofactor z + c w - 1
    assert cert.cofactor.terms == bp({(1, 0): 1, (0, 1): 2, (0, 0): -1}).terms
    assert not cert.strict

    z2 = bp({(2, 0): 1})
    cert2 = verify_darboux(sys, z2)
    assert cert2.cofactor.terms == (cert.cofactor * bp({(0, 0): 2})).terms


def test_not_darboux_returns_witness():
    sys = lv_system(Q(-1), Q(0), Q(0))
    bad = bp({(1, 0): 1, (0, 1): 1, (0, 0): -5})  # z + w = 5
    res = verify_darboux(sys, bad)
    assert isinstance(res, NotDarboux)
    # the remainder of X(f) modulo f in (w, z) lex order: X(f) at w = 5 - z
    assert bipoly_str(res.remainder) == "2*z^2 - 12*z + 30"


def test_constant_candidate_rejected():
    sys = lv_system(Q(-1), Q(0), Q(0))
    with pytest.raises(DarbouxError, match="constant"):
        verify_darboux(sys, bp({(0, 0): 3}))


def test_multiplicativity_of_cofactors():
    sys = lv_system(Q(-1), Q(2), Q(3))
    f = bp({(1, 0): 1})
    g = bp({(0, 1): 1})
    cf = verify_darboux(sys, f)
    cg = verify_darboux(sys, g)
    cfg = verify_darboux(sys, f * g)
    assert cfg.cofactor.terms == (cf.cofactor + cg.cofactor).terms


def test_saddle_line_fixture():
    sys = saddle_line_system()
    cert = verify_darboux(sys, LINE)
    assert isinstance(cert, DarbouxCertificate)
    # cofactor w - 1
    assert cert.cofactor.terms == bp({(0, 1): 1, (0, 0): -1}).terms
    assert cert.strict


# ---------------------------------------------------------------------------
# strictness
# ---------------------------------------------------------------------------

def test_strictness_basic():
    strict, off = strictness_check(bp({(0, 0): 1, (1, 0): -1, (0, 1): 1}))
    assert strict and off == ()

    strict, off = strictness_check(bp({(1, 0): 1}) * bp({(0, 0): 1, (1, 0): -1, (0, 1): 1}))
    assert not strict and "z" in off

    strict, off = strictness_check(bp({(0, 1): 1, (0, 0): -5}))
    assert not strict


def test_strictness_complex_component():
    # (z^2 + 1) * (w - z): the conjugate line pair z = +-i is a constant component
    f = bp({(2, 0): 1, (0, 0): 1}) * bp({(0, 1): 1, (1, 0): -1})
    strict, off = strictness_check(f)
    assert not strict
    assert any("z-factor" in o for o in off)


@pytest.mark.parametrize(
    "f, offenders",
    [
        # one w-row: the content is that row as it stands, not made monic
        (bp({(1, 1): Q(2, 3), (0, 1): Q(4, 3)}), ("w", "z-factor 2/3*z + 4/3")),
        (bp({(2, 0): Q(-1, 2), (0, 0): 3}), ("z-factor -1/2*z^2 + 3",)),
        # several rows: the monic gcd, with its rational coefficients
        (bp({(0, 0): 3, (1, 0): 2}) * bp({(0, 1): 1, (1, 0): 1}), ("z-factor z + 3/2",)),
        (bp({(0, 1): Q(4, 5), (0, 0): Q(2, 7)}) * bp({(2, 0): 1, (0, 2): 1, (0, 1): -1}), ("w-factor w + 5/14",)),
    ],
    ids=["one-row", "univariate", "monic-gcd", "monic-gcd-in-w"],
)
def test_strictness_offenders_keep_their_normalization(f, offenders):
    assert strictness_check(f) == (False, offenders)


def test_strictness_refuses_tower_coefficients():
    # sqrt 2 z w + 1 has two rows in each variable: the content would need a
    # gcd over the tower, which is refused by name
    tower, root = adjoin_root(QQ_TOWER, UniPoly([Q(-2), Q(0), Q(1)]))
    f = BiPoly({(1, 1): root, (0, 0): tower.one()}, tower=tower)
    with pytest.raises(DarbouxError, match="requires rational coefficients"):
        strictness_check(f)


# ---------------------------------------------------------------------------
# irreducibility
# ---------------------------------------------------------------------------

def hamiltonian(f):
    """zdot = -f_w, wdot = f_z: f is a first integral, so Darboux with cofactor 0."""
    return OdeSystem(f.diff_z(), f.diff_w().scale(Q(-1)))


def test_univariate_cubic_in_z_certified_irreducible():
    # z^3 + 2 has no rational root, so it is irreducible over Q
    f = bp({(3, 0): 1, (0, 0): 2})
    cert = verify_darboux(make_system(bp({(0, 1): 1}), f), f)
    assert isinstance(cert, DarbouxCertificate)
    assert cert.offending == ("z-factor z^3 + 2",)
    assert cert.irreducible and cert.certified


def test_univariate_cubic_in_w_certified_irreducible():
    f = bp({(0, 3): 1, (0, 0): 2})
    cert = verify_darboux(make_system(f, bp({(1, 0): 1})), f)
    assert isinstance(cert, DarbouxCertificate)
    assert cert.offending == ("w-factor w^3 + 2",)
    assert cert.irreducible and cert.certified


@pytest.mark.parametrize(
    "f",
    [
        bp({(2, 0): 2, (0, 1): 1, (1, 0): -4, (0, 0): 2}),  # 2 z^2 + w - 4 z + 2
        bp({(1, 2): 1, (0, 3): 1, (0, 0): 1}),  # z w^2 + w^3 + 1
    ],
)
def test_bivariate_of_degree_one_in_a_variable_certified_irreducible(f):
    # no offender: f is primitive in that variable, so by Gauss's lemma a
    # factor of degree 0 in it is a constant
    cert = verify_darboux(hamiltonian(f), f)
    assert isinstance(cert, DarbouxCertificate)
    assert cert.offending == ()
    assert cert.irreducible and cert.certified


def test_bivariate_with_axis_parallel_component_certified_reducible():
    # (z^2 + 1)(w - z): the offender z^2 + 1 is a proper factor
    f = bp({(2, 0): 1, (0, 0): 1}) * bp({(0, 1): 1, (1, 0): -1})
    cert = verify_darboux(hamiltonian(f), f)
    assert isinstance(cert, DarbouxCertificate)
    assert cert.offending == ("z-factor z^2 + 1",)
    assert not cert.irreducible and cert.certified


# ---------------------------------------------------------------------------
# line detection
# ---------------------------------------------------------------------------

def test_detect_lines_lv_generic():
    det = detect_invariant_lines(lv_system(Q(-1), Q(5), Q(0)))
    found = {bipoly_str(c.f) for c in det.lines}
    # c = 0 makes zdot = z(z-1), so z = 1 is invariant besides the axes
    assert found == {"z", "w", "z - 1"}
    assert not det.dicritical
    assert all(not c.strict for c in det.lines)


def test_detect_lines_lv_special():
    det = detect_invariant_lines(lv_system(Q(-1), Q(0), Q(0)))
    found = {bipoly_str(c.f) for c in det.lines}
    # all five invariant lines, including the non-strict z = 1 and w = -1
    assert found == {"z", "w", "z - 1", "w + 1", "w - z + 1"}


def test_detect_lines_complex_pair():
    # zdot = 1 + z^2, wdot = 1: lines z = +-i as a conjugate family
    sys = make_system(bp({(0, 0): 1}), bp({(2, 0): 1, (0, 0): 1}))
    det = detect_invariant_lines(sys)
    assert det.lines == []
    assert len(det.families) == 1
    fam = det.families[0]
    assert fam.kind == "z" and fam.degree == 2


def test_detect_lines_conjugate_families_name_their_variable():
    # zdot = z^2 - 2, wdot = w^2 - 3: z = +-sqrt(2) and w = +-sqrt(3)
    sys = make_system(bp({(0, 2): 1, (0, 0): -3}), bp({(2, 0): 1, (0, 0): -2}))
    axis = [f.to_report() for f in detect_invariant_lines(sys).families if f.kind != "sloped"]
    assert axis == [
        {"kind": "z", "defining_polynomial": "z^2 - 2", "conjugates": 2},
        {"kind": "w", "defining_polynomial": "w^2 - 3", "conjugates": 2},
    ]


def test_detect_lines_saddle_fixture():
    det = detect_invariant_lines(saddle_line_system())
    found = {bipoly_str(c.f) for c in det.lines}
    # w = 1 is NOT invariant: wdot there is -z
    assert found == {"z", "w + z - 1"}


def test_detect_dicritical_family_of_lines():
    # zdot = z, wdot = w: every line through the origin is invariant
    sys = make_system(bp({(0, 1): 1}), bp({(1, 0): 1}))
    det = detect_invariant_lines(sys)
    assert det.dicritical


def test_detect_lines_saddle_through_the_origin():
    # zdot = w, wdot = z: w - z and w + z are invariant, with cofactors -1, 1
    sys = make_system(bp({(1, 0): 1}), bp({(0, 1): 1}))
    det = detect_invariant_lines(sys)
    assert [(bipoly_str(c.f), bipoly_str(c.cofactor)) for c in det.lines] == [("w + z", "1"), ("w - z", "-1")]
    assert det.families == [] and not det.dicritical
    out = search_darboux(sys, 1)
    assert {bipoly_str(c.f) for c in out.certificates} == {"w + z", "w - z"}
    assert not out.partial


def test_detect_lines_irrational_slopes_are_one_family():
    # zdot = w, wdot = 2 z: the lines w = +-sqrt(2) z
    det = detect_invariant_lines(make_system(bp({(1, 0): 2}), bp({(0, 1): 1})))
    assert det.lines == []
    assert [f.to_report() for f in det.families] == [
        {
            "kind": "sloped",
            "defining_polynomial": "t0^2 - 2",
            "conjugates": 2,
            "tower": [{"generator": "t0", "minpoly": "t0^2 - 2", "presumed_irreducible": False}],
        }
    ]


def test_detect_lines_horizontal_family_reported_once():
    # zdot = 1, wdot = w^2 - 2: the lines w = +-sqrt(2) come from B's content
    # alone, not again as slope-0 sloped lines
    det = detect_invariant_lines(make_system(bp({(0, 2): 1, (0, 0): -2}), bp({(0, 0): 1})))
    assert [f.to_report() for f in det.families] == [
        {"kind": "w", "defining_polynomial": "w^2 - 2", "conjugates": 2}
    ]


def counted_line_detection(monkeypatch):
    """Route both bindings of detect_invariant_lines, the CLI's and the
    search's, through one counter; returns the list of calls."""
    real = darboux.detect_invariant_lines
    calls = []

    def counted(sys):
        calls.append(sys)
        return real(sys)

    monkeypatch.setattr(cli, "detect_invariant_lines", counted)
    monkeypatch.setattr(darboux, "detect_invariant_lines", counted)
    return calls


def test_analyze_detects_invariant_lines_once(monkeypatch, capsys):
    calls = counted_line_detection(monkeypatch)
    argv = ["analyze", "--system", "dw/dz = (w^2 - 2*w + 1 - z) / (z*w)", "--max-degree", "2", "--json"]
    assert cli.main(argv) == 0
    assert len(calls) == 1
    assert "w + z - 1" in capsys.readouterr().out


def test_bare_search_detects_invariant_lines(monkeypatch):
    calls = counted_line_detection(monkeypatch)
    sys = saddle_line_system()
    out = search_darboux(sys, 2)
    assert len(calls) == 1
    # a given detection is used as it is, with the same outcome
    passed = search_darboux(sys, 2, darboux.detect_invariant_lines(sys))
    assert len(calls) == 2
    assert passed.to_report() == out.to_report()


def test_unsplit_invariant_factor_makes_the_search_partial():
    # the core w^2 - 2 z^2 does not split over Q and may hide degree-1 factors
    out = search_darboux(make_system(bp({(1, 0): 2}), bp({(0, 1): 1})), 1)
    assert out.certificates == []
    assert out.partial
    assert out.notes == ("degree 1: unsplit invariant factor of degree 2",)


SMALL_RATIONALS = st.builds(Q, st.integers(-3, 3), st.integers(1, 3))


def small_polys(degree):
    monomials = [(i, d - i) for d in range(degree + 1) for i in range(d + 1)]
    return st.dictionaries(st.sampled_from(monomials), st.integers(-3, 3).filter(bool), min_size=1, max_size=4).map(bp)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(SMALL_RATIONALS, SMALL_RATIONALS, small_polys(2), small_polys(1))
def test_detect_lines_finds_a_planted_line(s, r, a, c):
    # zdot = A, wdot = s A + (w - s z - r) C leaves w - s z - r invariant:
    # X(w - s z - r) = (w - s z - r) C
    line = bp({(0, 1): 1, (1, 0): -s, (0, 0): -r})
    sys = OdeSystem(a.scale(s) + line * c, a)
    assert any(darboux._normalize_biv(cert.f) == line for cert in detect_invariant_lines(sys).lines)


# ---------------------------------------------------------------------------
# extactic search
# ---------------------------------------------------------------------------

def test_extactic_degree_one_lv():
    sys = lv_system(Q(-1), Q(0), Q(0))
    e = extactic_determinant(sys, 1)
    # E1 = 2 z w (z-1) (w+1) (w-z+1)
    expected = (
        bp({(1, 0): 2})
        * bp({(0, 1): 1})
        * bp({(1, 0): 1, (0, 0): -1})
        * bp({(0, 1): 1, (0, 0): 1})
        * bp({(0, 1): 1, (1, 0): -1, (0, 0): 1})
    )
    # determinant sign depends on basis order; the factor content matters
    assert e.terms == expected.terms or e.terms == (-expected).terms


def test_search_lv_strict_line_found():
    out = search_darboux(lv_system(Q(-1), Q(0), Q(0)), 1)
    found = {bipoly_str(c.f) for c in out.certificates}
    assert "w - z + 1" in found
    assert {"z", "w"} <= found
    strict = [c for c in out.certificates if c.strict]
    assert len(strict) == 1
    assert bipoly_str(strict[0].cofactor) in ("z + w", "w + z")


def test_search_lv_no_strict_when_b_five():
    out = search_darboux(lv_system(Q(-1), Q(5), Q(0)), 1)
    assert [c for c in out.certificates if c.strict] == []


def test_search_degree_zero_empty():
    out = search_darboux(lv_system(Q(-1), Q(0), Q(0)), 0)
    assert out.certificates == []


def test_search_degree_two_dicritical_flag_lv_special():
    # at (-1, 0, 0) the conic family ((w+1)((1-C)z+C) - z) forces E2 = 0
    out = search_darboux(lv_system(Q(-1), Q(0), Q(0)), 2)
    assert 2 in out.dicritical_degrees


def test_search_saddle_fixture_degree_two():
    out = search_darboux(saddle_line_system(), 2)
    found = {bipoly_str(c.f) for c in out.certificates}
    assert "w + z - 1" in found
    assert "z" in found


def test_extactic_conic_member_lv_special():
    # the degree-2 family member (w+1)(2-z) - z is genuinely invariant
    sys = lv_system(Q(-1), Q(0), Q(0))
    conic = bp({(1, 1): -1, (0, 1): 2, (1, 0): -2, (0, 0): 2})
    cert = verify_darboux(sys, conic)
    assert isinstance(cert, DarbouxCertificate)
    assert cert.strict


# ---------------------------------------------------------------------------
# packed-integer extactic determinant against references
# ---------------------------------------------------------------------------

# Derandomized and without an example database, so every run draws the
# same examples.
DET_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None)
rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def quadratic_systems(draw):
    """zdot = Q, wdot = P with random rational terms of total degree <= 2."""
    monomials = [(i, d - i) for d in range(3) for i in range(d + 1)]

    def poly():
        keys = draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=4, unique=True))
        return BiPoly({(Q(i), j): draw(rationals) for i, j in keys})

    P, Q_ = poly(), poly()
    if P.is_zero() and Q_.is_zero():
        Q_ = bp({(0, 0): 1})
    return OdeSystem(P, Q_)


def extactic_matrix(sys, n):
    """Rows X^i(monomial basis of degree <= n), as in extactic_determinant."""
    basis = [bp({(i, total - i): 1}) for total in range(n + 1) for i in range(total + 1)]
    rows = [basis]
    for _ in range(len(basis) - 1):
        rows.append([derive_along(sys, g) for g in rows[-1]])
    return rows


def bipoly_bareiss(mat):
    """Fraction-free Bareiss over Q[z, w] with BiPoly products and exact
    division, pivoting on the first nonzero entry below."""
    m = [row[:] for row in mat]
    n, sign, prev = len(m), 1, bp({(0, 0): 1})
    if n == 0:
        return prev
    for k in range(n - 1):
        if m[k][k].is_zero():
            swap = next((i for i in range(k + 1, n) if not m[i][k].is_zero()), None)
            if swap is None:
                return BiPoly.zero()
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                quotient = bipoly_divexact(m[k][k] * m[i][j] - m[i][k] * m[k][j], prev)
                assert quotient is not None
                m[i][j] = quotient
        prev = m[k][k]
    return m[n - 1][n - 1] if sign > 0 else -m[n - 1][n - 1]


def bipoly_bareiss_reference(sys, n):
    """E_n by Bareiss over Q[z, w] on the full matrix, row 0 included."""
    return bipoly_bareiss(extactic_matrix(sys, n))


@DET_SETTINGS
@given(quadratic_systems(), st.sampled_from([1, 2]))
def test_extactic_matches_bipoly_bareiss(sys, n):
    assert extactic_determinant(sys, n).terms == bipoly_bareiss_reference(sys, n).terms


def test_extactic_matches_bipoly_bareiss_with_negative_digits():
    # every sign and denominator at once: E_2 of a dense system
    sys = OdeSystem(
        bp({(0, 0): Q(-7, 2), (1, 0): Q(3, 4), (0, 1): -5, (2, 0): Q(-1, 3), (1, 1): 2, (0, 2): Q(-9, 4)}),
        bp({(0, 0): Q(5, 3), (1, 0): -4, (0, 1): Q(1, 2), (2, 0): 3, (1, 1): Q(-5, 4), (0, 2): -1}),
    )
    e = extactic_determinant(sys, 2)
    assert not e.is_zero()
    assert any(c < 0 for c in e.terms.values())
    assert any(c.denominator != 1 for c in e.terms.values())
    assert e.terms == bipoly_bareiss_reference(sys, 2).terms


# ---------------------------------------------------------------------------
# the packing: z-stride by assignment, digit width by Hadamard
# ---------------------------------------------------------------------------

def brute_assignment(degrees):
    """max over permutations of the summed degrees, zero entries (None) excluded."""
    n = len(degrees)
    sums = [
        sum(degrees[i][p[i]] for i in range(n))
        for p in itertools.permutations(range(n))
        if all(degrees[i][p[i]] is not None for i in range(n))
    ]
    return max(sums, default=0)


degree_matrices = st.integers(1, 6).flatmap(
    lambda n: st.lists(
        st.lists(st.one_of(st.none(), st.integers(0, 30)), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(degree_matrices)
@example([[5, None], [None, 1]])  # the row maxima 5 + 1 are reached
@example([[9, 0], [8, 1]])  # they are not: both sit in column 0
@example([[3, None], [4, None]])  # no permutation avoids a zero entry
def test_assignment_z_degree_is_the_largest_over_permutations(degrees):
    assert exact._assignment_z_degree(degrees) == brute_assignment(degrees)


def as_bipoly_matrix(mat):
    return [[bp(g) for g in row] for row in mat]


term_dicts = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 2)), st.integers(-40, 40).filter(bool), max_size=3
)
term_matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(term_dicts, min_size=n, max_size=n), min_size=n, max_size=n)
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(term_matrices)
def test_packed_det_matches_bipoly_bareiss(mat):
    # zero entries, negative digits and singular matrices all turn up here
    assert packed_det(mat) == bipoly_bareiss(as_bipoly_matrix(mat)).terms


Z1, W1 = {(1, 0): 1}, {(0, 1): 1}


@pytest.mark.parametrize(
    "mat, want",
    [
        ([[{(0, 0): -7}]], {(0, 0): -7}),  # 1x1, one negative digit
        ([[{(2, 1): 5, (0, 0): -3}]], {(2, 1): 5, (0, 0): -3}),  # 1x1 on the stride
        ([[{}]], {}),  # 1x1 zero
        # z^2 - 1: the low digit borrows, and so reaches the top digit 1
        ([[Z1, {(0, 0): 1}], [{(0, 0): 1}, Z1]], {(2, 0): 1, (0, 0): -1}),
        # 1 - z^2: the top digit is itself negative
        ([[{(0, 0): 1}, Z1], [Z1, {(0, 0): 1}]], {(2, 0): -1, (0, 0): 1}),
        ([[{}, Z1], [W1, {(0, 0): 1}]], {(1, 1): -1}),  # a zero pivot, swapped
        ([[Z1, W1], [{(1, 0): 2}, {(0, 1): 2}]], {}),  # singular
        # the z-stride 3 puts z^2 w next to w^2: no fold
        ([[{(2, 0): 1}, W1], [{(0, 1): -1}, {(0, 1): 1}]], {(2, 1): 1, (0, 2): 1}),
    ],
    ids=["neg", "stride", "zero", "borrow-into-top", "negative-top", "swap", "singular", "stride-3"],
)
def test_packed_det_edge_cases(mat, want):
    assert packed_det(mat) == want
    assert bipoly_bareiss(as_bipoly_matrix(mat)).terms == want


def test_extactic_reaching_the_z_stride_matches_bipoly_bareiss(monkeypatch):
    # E_2 of LV(-1,5,0) has z-degree 19, one below its stride: a stride one
    # smaller folds z^19 w^c onto w^(c+1)
    sys = lv_system(Q(-1), Q(5), Q(0))
    real, strides = exact._assignment_z_degree, []

    def spy(degrees):
        strides.append(1 + real(degrees))
        return strides[-1] - 1

    monkeypatch.setattr(exact, "_assignment_z_degree", spy)
    e = extactic_determinant(sys, 2)
    assert strides == [20] and e.z_degree() == 19
    assert e.terms == bipoly_bareiss_reference(sys, 2).terms


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize(
    "sys",
    [
        OdeSystem(bp({(0, 1): 6, (1, 1): -12, (2, 0): 18}), bp({(1, 0): 6, (0, 2): -6, (0, 0): 12})),
        OdeSystem(bp({(0, 1): Q(2, 3), (1, 0): Q(-4, 3), (0, 2): Q(2, 3)}), bp({(1, 1): Q(2, 3), (0, 0): 2})),
    ],
    ids=["6X", "2/3"],
)
def test_extactic_matches_bipoly_bareiss_on_fields_with_content(sys, n):
    # the lcm-scaled field has a content above 1 (6 and 2); the packed
    # determinant is that of the content-free field, divided by s^(k(k-1)/2)
    coeffs = [*sys.P.terms.values(), *sys.Q.terms.values()]
    d = math.lcm(*[c.denominator for c in coeffs])
    assert math.gcd(*[c.numerator * (d // c.denominator) for c in coeffs]) > 1
    assert extactic_determinant(sys, n).terms == bipoly_bareiss_reference(sys, n).terms


@pytest.mark.parametrize(
    "sys, certificates, dicritical, core",
    [
        (
            lv_system(Q(-1), Q(0), Q(0)),
            [("w", "w + 1"), ("w + 1", "w"), ("w - z + 1", "w + z"), ("z", "z - 1"), ("z - 1", "z")],
            (2,),
            "z*w^2 - z^2*w - w^2 + 3*z*w - z^2 - 2*w + 2*z - 1",
        ),
        (
            lv_system(Q(-2), Q(0), Q(1, 2)),
            [("w", "w + 2"), ("w + 2", "w"), ("w - 2*z + 2", "w + z"), ("z", "1/2*w + z - 1"),
             ("2*z^2 + w - 4*z + 2", "w + 2*z")],
            (),
            "w^2 - 2*z*w + 4*w - 4*z + 4",
        ),
    ],
    ids=["lv(-1,0,0)", "lv(-2,0,1/2)"],
)
def test_search_on_lv_points_keeps_its_certificates(sys, certificates, dicritical, core):
    # recorded on the lcm-scaled integer field; the content-free one agrees
    out = search_darboux(sys, 2)
    assert [(bipoly_str(c.f), bipoly_str(c.cofactor)) for c in out.certificates] == certificates
    assert out.dicritical_degrees == dicritical and not out.partial
    e = darboux._peel_axes(_primitive_int(extactic_determinant(sys, 1)))
    assert bipoly_str(invariant_core(sys, e)) == core


@pytest.mark.parametrize(
    "sys",
    [lv_system(Q(-3, 2), Q(5), Q(1, 3)), lv_system(Q(-2), Q(0), Q(1, 2))],
    ids=["lv(-3/2,5,1/3)", "lv(-2,0,1/2)"],
)
def test_extactic_with_fraction_coefficients_matches_bipoly_bareiss(sys):
    # s != 1: the packed determinant is det M' and is divided by s^15
    assert any(c.denominator != 1 for c in [*sys.P.terms.values(), *sys.Q.terms.values()])
    assert extactic_determinant(sys, 2).terms == bipoly_bareiss_reference(sys, 2).terms


# ---------------------------------------------------------------------------
# peeling E_n: z and w by exponents, the known lines by division
# ---------------------------------------------------------------------------

Z, W = bp({(1, 0): 1}), bp({(0, 1): 1})


def peel_reference(e, certs):
    """Repeated exact division by the known factors, then by z and by w."""
    e = _primitive_int(e)
    for known in [_primitive_int(c.f) for c in certs] + [Z, W]:
        while e.total_degree() > 0 and (quotient := bipoly_divexact(e, known)) is not None:
            e = quotient
    return e


def spy_search(monkeypatch):
    """(residuals passed to invariant_core, monomial flags of the divisors
    passed to bipoly_divexact) during a search."""
    cores, monomial = [], []
    real_core, real_div = darboux.invariant_core, darboux.bipoly_divexact

    def core(sys, e):
        cores.append(e)
        return real_core(sys, e)

    def div(a, b):
        monomial.append(len(b.terms) == 1)
        return real_div(a, b)

    monkeypatch.setattr(darboux, "invariant_core", core)
    monkeypatch.setattr(darboux, "bipoly_divexact", div)
    return cores, monomial


@pytest.mark.parametrize("a", range(4))
@pytest.mark.parametrize("b", range(4))
def test_search_peels_planted_axis_powers_as_repeated_division(monkeypatch, a, b):
    # the saddle's lines are z and w + z - 1; E_2, the first determinant the
    # search builds, is replaced by -3/7 z^a w^b (w + z - 1)^2 (z^2 + 3 z w +
    # w^2 + 2)
    sys = saddle_line_system()
    detection = detect_invariant_lines(sys)
    assert sorted(bipoly_str(c.f) for c in detection.lines) == ["w + z - 1", "z"]
    rest = bp({(2, 0): 1, (1, 1): 3, (0, 2): 1, (0, 0): 2})
    planted = (bp({(a, b): 1}) * LINE * LINE * rest).scale(Q(-3, 7))
    monkeypatch.setattr(darboux, "extactic_determinant", lambda sys, n: planted)
    cores, monomial = spy_search(monkeypatch)
    search_darboux(sys, 2, detection)
    want = peel_reference(planted, detection.lines)
    assert want.terms == _primitive_int(rest).terms
    assert [e.terms for e in cores] == [want.terms]
    assert monomial and not any(monomial)


@pytest.mark.parametrize(
    "sys",
    [lv_system(Q(-1), Q(5), Q(0)), lv_system(Q(-3, 2), Q(5), Q(1, 3)), saddle_line_system()],
    ids=["lv(-1,5,0)", "lv(-3/2,5,1/3)", "saddle"],
)
def test_search_peels_e_n_as_repeated_division(monkeypatch, sys):
    detection = detect_invariant_lines(sys)
    # E_2 is the first determinant the search builds
    want = peel_reference(extactic_determinant(sys, 2), detection.lines)
    want = [want.terms] if 0 < want.total_degree() <= darboux.CORE_DEGREE_CAP else []
    cores, monomial = spy_search(monkeypatch)
    search_darboux(sys, 2, detection)
    assert [e.terms for e in cores] == want
    assert not any(monomial)


def invariant_core_reference(sys, e):
    """The invariant core by stable gcds on monic polynomials over Q, with
    the field X itself."""
    g = darboux._normalize_biv(e)
    while g.total_degree() > 0:
        nxt = biv_gcd(g, derive_along(sys, g))
        if nxt.total_degree() == g.total_degree():
            return nxt
        g = nxt
    return g


@st.composite
def planted_line_systems(draw):
    """zdot = A, wdot = s A + (w - s z - r) C, with the invariant line
    w - s z - r of test_detect_lines_finds_a_planted_line."""
    s, r = draw(SMALL_RATIONALS), draw(SMALL_RATIONALS)
    a, c = draw(small_polys(2)), draw(small_polys(1))
    return OdeSystem(a.scale(s) + bp({(0, 1): 1, (1, 0): -s, (0, 0): -r}) * c, a)


@DET_SETTINGS
@given(st.one_of(quadratic_systems(), planted_line_systems()), st.sampled_from([1, 2]))
@example(lv_system(Q(-1), Q(5), Q(0)), 2)
@example(lv_system(Q(-2), Q(0), Q(1, 2)), 2)
@example(saddle_line_system(), 2)
def test_invariant_core_matches_the_monic_reference(sys, n):
    # the search's input: E_n without its factors z and w, up to the cap
    e = extactic_determinant(sys, n)
    for axis in (bp({(1, 0): 1}), bp({(0, 1): 1})):
        while e.total_degree() > 0 and (quotient := bipoly_divexact(e, axis)) is not None:
            e = quotient
    if e.total_degree() > darboux.CORE_DEGREE_CAP:
        return
    assert invariant_core(sys, e).terms == invariant_core_reference(sys, e).terms


@pytest.fixture(scope="module")
def sp():
    return pytest.importorskip("sympy")


def sympy_expr(sp, p):
    z, w = sp.symbols("z w")
    return sum(sp.Rational(c.numerator, c.denominator) * z ** int(ze) * w**we for (ze, we), c in p.terms.items())


def sympy_extactic(sp, sys, n):
    """E_n by sympy's own derivatives and Matrix.det."""
    z, w = sp.symbols("z w")
    zdot, wdot = sympy_expr(sp, sys.Q), sympy_expr(sp, sys.P)
    rows = [[z**i * w ** (total - i) for total in range(n + 1) for i in range(total + 1)]]
    for _ in range(len(rows[0]) - 1):
        rows.append([sp.expand(zdot * sp.diff(f, z) + wdot * sp.diff(f, w)) for f in rows[-1]])
    det = sp.Poly(sp.Matrix(rows).det(method="berkowitz"), z, w)
    return {(Q(ze), we): Q(int(c.p), int(c.q)) for (ze, we), c in det.terms() if c}


@DET_SETTINGS
@given(quadratic_systems())
@example(OdeSystem(bp({(0, 1): Q(3, 2), (0, 0): 2}), bp({(1, 1): Q(14, 3)})))  # w-degrees 1 and 1
@example(OdeSystem(bp({(0, 2): 1, (1, 0): -3}), bp({(1, 1): 2, (0, 0): Q(1, 2)})))  # 2 and 1
def test_resultant_r_matches_sympy_resultant(sp, sys):
    # Res_w(P, Q) as a polynomial in z; both sides put P's rows first in the
    # Sylvester matrix, so the signs agree and the test compares exactly
    got = darboux._resultant_r(sys.P, sys.Q)
    if got is None:
        # a zero polynomial, or nothing to eliminate
        assert sys.P.is_zero() or sys.Q.is_zero() or sys.P.w_degree() == sys.Q.w_degree() == 0
        return
    z, w = sp.symbols("z w")
    want = sp.Poly(sp.resultant(sympy_expr(sp, sys.P), sympy_expr(sp, sys.Q), w), z, domain="QQ")
    assert {i: c for i, c in enumerate(got.coeffs) if c} == {
        int(e[0]): Q(int(c.p), int(c.q)) for e, c in want.terms() if c
    }


@DET_SETTINGS
@given(quadratic_systems())
def test_extactic_degree_one_matches_sympy(sp, sys):
    assert extactic_determinant(sys, 1).terms == sympy_extactic(sp, sys, 1)


def test_extactic_inexact_division_raises(monkeypatch):
    # a perturbed numerator no longer divides: the remainder must be caught
    # (E_1's 2x2 minor divides by 1 only, so degree 2 is the first that can tell)
    real = exact._int_divexact
    monkeypatch.setattr(exact, "_int_divexact", lambda a, b: real(a + 1, b))
    with pytest.raises(DarbouxError, match="inexact division"):
        extactic_determinant(lv_system(Q(-1), Q(5), Q(0)), 2)


def test_extactic_rejects_tower_coefficients():
    tower, root = adjoin_root(QQ_TOWER, UniPoly([Q(-2), Q(0), Q(1)]))
    sys = OdeSystem(
        BiPoly({(Q(0), 1): root}, tower=tower),
        BiPoly({(Q(1), 0): tower.one()}, tower=tower),
        tower=tower,
    )
    with pytest.raises(DarbouxError):
        extactic_determinant(sys, 1)
    with pytest.raises(DarbouxError, match="rational coefficients"):
        invariant_core(sys, bp({(1, 1): 1, (0, 0): 1}))


def test_extactic_rejects_ramified_exponents():
    # z^(1/2) w + 1 over z, on the scale n = 2
    sys = OdeSystem(BiPoly({(1, 1): Q(1), (0, 0): Q(1)}), bp({(2, 0): 1}), n=2)
    with pytest.raises(OdeError):
        extactic_determinant(sys, 1)


# ---------------------------------------------------------------------------
# an identically zero extactic determinant stays zero one degree up
# ---------------------------------------------------------------------------

RADIAL = OdeSystem(bp({(0, 1): 1}), bp({(1, 0): 1}))  # zdot = z, wdot = w
CENTER = OdeSystem(bp({(1, 0): 1}), bp({(0, 1): -1}))  # zdot = -w, wdot = z
CUBIC_ENERGY = OdeSystem(bp({(2, 0): 1, (1, 0): -1}), bp({(0, 1): 1}))  # zdot = w, wdot = z^2 - z


@pytest.mark.parametrize(
    "sys, n",
    [(RADIAL, 1), (CENTER, 2), (lv_system(Q(-1), Q(0), Q(0)), 2)],
    ids=["radial", "center", "lv(-1,0,0)"],
)
def test_extactic_zero_stays_zero_one_degree_up(sys, n):
    assert extactic_determinant(sys, n).is_zero()
    assert extactic_determinant(sys, n + 1).is_zero()


def test_search_lv_special_degree_three_dicritical():
    out = search_darboux(lv_system(Q(-1), Q(0), Q(0)), 3)
    assert out.dicritical_degrees == (2, 3)


def test_extactic_first_zero_at_the_first_integral_degree():
    # w^2/2 - z^3/3 + z^2/2 is a first integral: E_3 == 0 but E_2 != 0
    assert not extactic_determinant(CUBIC_ENERGY, 2).is_zero()
    assert extactic_determinant(CUBIC_ENERGY, 3).is_zero()
    assert search_darboux(CUBIC_ENERGY, 3).dicritical_degrees == (3,)


FACTOR_MONOMIALS = {
    "z": [(i, 0) for i in range(4)],
    "w": [(0, j) for j in range(4)],
    "zw": [(i, d - i) for d in range(4) for i in range(d + 1)],
}


def factors(kind):
    """Random integer polynomials of degree <= 3 in z alone, w alone or both."""
    terms = st.dictionaries(
        st.sampled_from(FACTOR_MONOMIALS[kind]), st.integers(-3, 3).filter(bool), min_size=1, max_size=5
    )
    return terms.map(bp).filter(lambda p: (p.z_degree() > 0) + (p.w_degree() > 0) == len(kind))


@st.composite
def factored_polys(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(FACTOR_MONOMIALS)), min_size=1, max_size=2))
    f = bp({(0, 0): 1})
    for kind in kinds:
        f = f * draw(factors(kind))
    return f


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(factored_polys())
def test_certificates_match_sympy_factor_list(sp, f):
    cert = verify_darboux(hamiltonian(f), f)
    assert isinstance(cert, DarbouxCertificate)
    _, facs = sp.factor_list(sympy_expr(sp, f))
    # strict exactly when no irreducible factor over Q lies in one variable
    assert cert.strict == all(len(g.free_symbols) == 2 for g, _ in facs)
    if not cert.strict and f.z_degree() > 0 and f.w_degree() > 0:
        assert cert.certified  # an offender is a proper factor
    if cert.certified:
        assert cert.irreducible == (len(facs) == 1 and facs[0][1] == 1)


# ---------------------------------------------------------------------------
# sloped lines against sympy
# ---------------------------------------------------------------------------

def sympy_sloped_lines(sp, sys):
    """The pairs (s, r), s != 0, with (P - s Q)(z, s z + r) = 0 identically
    in z, solved by sympy: the lines w = s z + r that zdot = Q, wdot = P
    leave invariant, horizontal ones aside."""
    z, w, s, r = sp.symbols("z w s r")
    cond = sp.expand((sympy_expr(sp, sys.P) - s * sympy_expr(sp, sys.Q)).subs(w, s * z + r))
    sols = sp.solve(sp.Poly(cond, z).coeffs(), [s, r], dict=True)
    return [(sol[s], sol[r]) for sol in sols if sol[s] != 0]


W2_MINUS_2Z2_PLUS_3 = bp({(0, 2): 1, (2, 0): -2, (0, 0): 3})

SLOPED_LINE_SYSTEMS = {
    # the saddle's rational line w = 1 - z, certified
    "rational-line": saddle_line_system(),
    # dw/dz = (w - z)^2 - 1: the lines w = z +- sqrt 2, a rational slope
    # whose intercept, a root of r^2 - 2, is adjoined over Q
    "rational-slope": make_system(bp({(0, 2): 1, (1, 1): -2, (2, 0): 1, (0, 0): -1}), bp({(0, 0): 1})),
    # the lines w = +-sqrt 2 (z + 1) of w^2 - 2 (z + 1)^2: an irrational
    # slope with its intercept in Q(s)
    "irrational-slope": hamiltonian(bp({(0, 2): 1, (2, 0): -2, (1, 0): -4, (0, 0): -2})),
    # the four lines w = s z + r, s^2 = 2, r^2 = 3, whose product is
    # (w^2 - 2 z^2 + 3)^2 - 12 w^2: an irrational slope whose intercept
    # adjoins a second level above Q(s)
    "two-levels": hamiltonian(W2_MINUS_2Z2_PLUS_3 * W2_MINUS_2Z2_PLUS_3 + bp({(0, 2): -12})),
}


@pytest.mark.parametrize("name", sorted(SLOPED_LINE_SYSTEMS))
def test_sloped_lines_match_sympy(sp, name):
    sys = SLOPED_LINE_SYSTEMS[name]
    det = detect_invariant_lines(sys)
    z, w, x = sp.symbols("z w x")
    zdot, wdot = sympy_expr(sp, sys.Q), sympy_expr(sp, sys.P)
    sloped = []
    for cert in det.lines:
        f = sympy_expr(sp, cert.f)
        assert sp.expand(zdot * sp.diff(f, z) + wdot * sp.diff(f, w) - sympy_expr(sp, cert.cofactor) * f) == 0
        a, b, c = (cert.f.coeff(1, 0), cert.f.coeff(0, 1), cert.f.coeff(0, 0))
        if a and b:
            sloped.append((-a / b, -c / b))
    want = sympy_sloped_lines(sp, sys)
    rational = sorted((Q(int(s.p), int(s.q)), Q(int(r.p), int(r.q))) for s, r in want if s.is_rational and r.is_rational)
    assert sorted(sloped) == rational
    # the irrational lines fall into Galois orbits, one family each
    orbits = {}
    for s, r in want:
        if not (s.is_rational and r.is_rational):
            key = sp.minimal_polynomial(s + 5 * r, x)
            orbits[key] = orbits.get(key, 0) + 1
    families = [f.degree for f in det.families if f.kind == "sloped"]
    assert sorted(families) == sorted(orbits.values())
    assert not det.dicritical


def test_sloped_line_family_over_a_rational_slope():
    det = detect_invariant_lines(SLOPED_LINE_SYSTEMS["rational-slope"])
    assert det.lines == []
    assert [f.to_report() for f in det.families] == [
        {
            "kind": "sloped",
            "defining_polynomial": "t0^2 - 2",
            "conjugates": 2,
            "tower": [{"generator": "t0", "minpoly": "t0^2 - 2", "presumed_irreducible": False}],
        }
    ]
