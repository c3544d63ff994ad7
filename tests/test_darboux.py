from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings, strategies as st

from pbound import darboux
from pbound.darboux import (
    DarbouxCertificate,
    DarbouxError,
    NotDarboux,
    detect_invariant_lines,
    extactic_determinant,
    search_darboux,
    strictness_check,
    derive_along,
    verify_darboux,
)
from pbound.exact import QQ_TOWER, UniPoly, adjoin_root, bareiss_det
from pbound.polyode import BiPoly, OdeError, OdeSystem, bipoly_divexact, bipoly_str, make_system


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
    # the w-pseudo-remainder of X(f) by f, as `NotDarboux.to_report` gives it
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
        {"kind": "sloped", "defining_polynomial": "t0^2 - 2", "conjugates": 2}
    ]


def test_detect_lines_horizontal_family_reported_once():
    # zdot = 1, wdot = w^2 - 2: the lines w = +-sqrt(2) come from B's content
    # alone, not again as slope-0 sloped lines
    det = detect_invariant_lines(make_system(bp({(0, 2): 1, (0, 0): -2}), bp({(0, 0): 1})))
    assert [f.to_report() for f in det.families] == [
        {"kind": "w", "defining_polynomial": "w^2 - 2", "conjugates": 2}
    ]


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


def bipoly_bareiss_reference(sys, n):
    """Bareiss over Q[z, w] with BiPoly products and exact division."""

    def div(a, b):
        out = bipoly_divexact(a, b)
        assert out is not None
        return out

    return bareiss_det(extactic_matrix(sys, n), div, BiPoly.zero(), bp({(0, 0): 1}))


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
    # (the first two pivots are 1, so degree 2 is the first that can tell)
    real = darboux.bareiss_det

    def skewed(mat, divexact, zero, one):
        return real(mat, lambda a, b: divexact(a + 1, b), zero, one)

    monkeypatch.setattr(darboux, "bareiss_det", skewed)
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
