import math
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from pbound.exact import QQ_TOWER, UniPoly, adjoin_root
from pbound.polyode import (
    BiPoly,
    OdeError,
    OdeSystem,
    PuiseuxBranch,
    bipoly_divexact,
    bipoly_str,
    biv_gcd,
    coeff_profile,
    invert_at_infinity,
    make_system,
    residual_valuation,
    shear_point,
    substitute_branch,
    transform_point,
    translate_point,
)


def bp(entries):
    return BiPoly({(Q(ze), we): Q(c) for (ze, we), c in entries.items()})


def example45(mu):
    """(z + w^2) w' = z^2 + mu w."""
    P = bp({(2, 0): 1, (0, 1): mu})
    Q_ = bp({(1, 0): 1, (0, 2): 1})
    return make_system(P, Q_)


def lv_system(a, b, c):
    """dw/dz = w(bz + w - a) / (z(z + cw - 1))."""
    P = bp({(1, 1): b, (0, 2): 1, (0, 1): -a})
    Q_ = bp({(2, 0): 1, (1, 1): c, (1, 0): -1})
    return make_system(P, Q_)


# ---------------------------------------------------------------------------
# BiPoly basics
# ---------------------------------------------------------------------------

def test_bipoly_arithmetic():
    p = bp({(1, 0): 1, (0, 1): 2})
    q = bp({(0, 1): -2, (0, 0): 3})
    assert (p + q).terms == bp({(1, 0): 1, (0, 0): 3}).terms
    assert (p * q).coeff(1, 1) == Q(-2)
    assert (p * q).coeff(0, 2) == Q(-4)


def test_bipoly_str_and_ram():
    p = BiPoly({(Q(5, 2), 0): Q(2), (Q(0), 1): Q(-1)})
    assert p.ram == 2
    assert bipoly_str(p) == "2*z^(5/2) - w"
    # other key types are converted and zero coefficients dropped
    p = BiPoly({("5/2", 0): Q(2), (0, Q(1)): Q(-1), (1, 3): Q(0)}, ram=3)
    assert p.ram == 6
    assert p.terms == {(Q(5, 2), 0): Q(2), (Q(0), 1): Q(-1)}
    # integral z-exponents are ints, ramified ones Fractions
    assert {ze: type(ze) for ze, _ in p.terms} == {Q(5, 2): Q, 0: int}
    assert all(type(we) is int for _, we in p.terms)


def test_biv_gcd_detects_common_factor():
    f = bp({(1, 0): 1, (0, 1): 1})  # z + w
    a = f * bp({(1, 0): 1})
    b = f * bp({(0, 1): 1, (0, 0): 1})
    g = biv_gcd(a, b)
    assert g.total_degree() == 1
    assert bipoly_divexact(a, g) is not None


def test_bipoly_divexact():
    f = bp({(1, 1): 1, (0, 0): 1})  # zw + 1
    g = bp({(0, 1): 1, (1, 0): 1})  # w + z
    prod = f * g
    assert bipoly_divexact(prod, f).terms == g.terms
    assert bipoly_divexact(prod + bp({(0, 0): 1}), f) is None


def test_make_system_rejects_common_factor():
    with pytest.raises(OdeError, match="common factor"):
        make_system(bp({(1, 0): 1, (1, 1): 1}), bp({(1, 0): 2}))


# ---------------------------------------------------------------------------
# coefficient profiles
# ---------------------------------------------------------------------------

def test_profile_example45_mu0():
    sys = example45(0)
    prof = coeff_profile(sys)
    assert prof.p[0] == (Q(2), Q(1))
    assert 1 not in prof.p  # P1 absent at mu = 0
    assert prof.q[0] == (Q(1), Q(1))
    assert prof.q[2] == (Q(0), Q(1))


def test_profile_lv_origin():
    sys = lv_system(Q(-1), Q(0), Q(0))
    prof = coeff_profile(sys)
    assert prof.p[1] == (Q(0), Q(1))
    assert prof.p[2] == (Q(0), Q(1))
    assert prof.q[0] == (Q(1), Q(-1))
    assert 1 not in prof.q


def test_profile_trivial():
    sys = make_system(bp({(0, 1): 1}), bp({(0, 0): 1}))
    prof = coeff_profile(sys)
    assert prof.p[1] == (Q(0), Q(1))
    assert prof.q[0] == (Q(0), Q(1))


# ---------------------------------------------------------------------------
# point transforms
# ---------------------------------------------------------------------------

def test_lv_at_infinity():
    sys = lv_system(Q(-1), Q(2), Q(3))
    inf = invert_at_infinity(sys)
    a, b, c = Q(-1), Q(2), Q(3)
    # Pbar = -w(b z w + 1 - a w), Qbar = z(z w + c - w)
    expected_P = bp({(1, 2): -b, (0, 1): -1, (0, 2): a})
    expected_Q = bp({(2, 1): 1, (1, 0): c, (1, 1): -1})
    assert inf.P.terms == expected_P.terms
    assert inf.Q.terms == expected_Q.terms


def test_translate_lv_to_upper_point():
    a, b, c = Q(-1), Q(5), Q(0)
    sys = lv_system(a, b, c)
    moved = translate_point(sys, Q(0), a)
    prof = coeff_profile(moved)
    assert prof.p[0] == (Q(1), a * b)
    assert prof.q[0][1] == c * a - 1


def test_identity_shear():
    sys = lv_system(Q(-1), Q(0), Q(0))
    sheared = shear_point(sys, 1, 0, 1)
    assert sheared.P.terms == sys.P.terms
    assert sheared.Q.terms == sys.Q.terms


def test_degenerate_shear_rejected():
    sys = lv_system(Q(-1), Q(0), Q(0))
    with pytest.raises(OdeError, match="degenerate shear"):
        shear_point(sys, 0, 1, 1)


def test_double_inversion_preserves_branch_data():
    sys = lv_system(Q(-1), Q(2), Q(3))
    twice = invert_at_infinity(invert_at_infinity(sys))
    # same rational function: P*Q' == P'*Q
    assert (sys.P * twice.Q).terms == (twice.P * sys.Q).terms


# ---------------------------------------------------------------------------
# branch substitution
# ---------------------------------------------------------------------------

def test_substitute_branch_example45_mu0():
    sys = example45(0)
    rem = substitute_branch(sys, Q(2), Q(1, 2))
    # paper-normalized form is a constant multiple; leading ratio must match
    # numerator ~ 2 z^5, denominator ~ -8 z, i.e. ratio -z^4/4
    prof = coeff_profile(rem)
    k0, p0 = prof.p[0]
    l0, q0 = prof.q[0]
    assert k0 - l0 == Q(4)
    assert p0 / q0 == Q(-1, 4)
    # remainder linear z-order: k1 = 3 at mu = 0 (so closure applies upstream)
    assert prof.p[1][0] == Q(3)


def test_substitute_branch_example45_ramified():
    mu = Q(-4)
    sys = example45(mu)
    tower, theta = adjoin_root(QQ_TOWER, UniPoly([Q(9), Q(0), Q(1)]))
    tsys = sys.map_tower(tower)
    rem = substitute_branch(tsys, Q(1, 2), theta)
    prof = coeff_profile(rem)
    l0, q0 = prof.q[0]
    k0, p0 = prof.p[0]
    # denominator leading term 2 mu z^(3/2) in the shift-normalized scale:
    # leading ratio p0/q0 and offsets match the hand-derived remainder
    assert k0 - l0 == Q(1)
    assert (p0 / q0) == Q(1, 2 * mu)
    k1, p1 = prof.p[1]
    assert k1 - l0 == Q(-1)
    assert p1 / q0 == (1 - mu) / (2 * mu)
    assert rem.ram == 2


def test_substitute_branch_rejects_non_acceptable():
    sys = make_system(bp({(0, 1): 1}), bp({(0, 0): 1}))  # P = w, Q = 1
    with pytest.raises(OdeError, match="not an acceptable pair"):
        substitute_branch(sys, Q(1), Q(1))


def test_transform_dispatch():
    sys = lv_system(Q(-1), Q(0), Q(0))
    assert transform_point(sys, ("point", Q(0), Q(0))).P.terms == sys.P.terms
    # at b = c = 0 the full monomial content wbar^2 cancels
    inf = transform_point(sys, ("inf", Q(0)))
    assert inf.P.terms == bp({(0, 1): -1, (0, 0): -1}).terms
    assert inf.Q.terms == bp({(2, 0): 1, (1, 0): -1}).terms


# ---------------------------------------------------------------------------
# residual oracle
# ---------------------------------------------------------------------------

def test_residual_exact_invariant_line():
    # w = -1 + z solves the LV system at (a,b,c) = (-1,0,0): 1 - z + w invariant
    sys = lv_system(Q(-1), Q(0), Q(0))
    branch = PuiseuxBranch(
        terms=((Q(1), Q(1)),), ram=1, base=("point", Q(0), Q(-1))
    )
    moved = translate_point(sys, Q(0), Q(-1))
    assert residual_valuation(moved, branch) is None


def test_residual_valuation_grows():
    sys = example45(0)
    one_term = PuiseuxBranch(terms=((Q(2), Q(1, 2)),), ram=1, base=("point", 0, 0))
    two_terms = PuiseuxBranch(
        terms=((Q(2), Q(1, 2)), (Q(5), Q(-1, 20))), ram=1, base=("point", 0, 0)
    )
    v1 = residual_valuation(sys, one_term)
    v2 = residual_valuation(sys, two_terms)
    assert v1 == Q(5)
    assert v2 is not None and v2 >= Q(8)


def test_residual_regular_point():
    # dw/dz = z / 1 at the origin: branch w = z^2/2 solves to high order
    sys = make_system(bp({(1, 0): 1}), bp({(0, 0): 1}))
    branch = PuiseuxBranch(terms=((Q(2), Q(1, 2)),), ram=1, base=("point", 0, 0))
    assert residual_valuation(sys, branch) is None

    wrong = PuiseuxBranch(terms=((Q(1), Q(1)),), ram=1, base=("point", 0, 0))
    assert residual_valuation(sys, wrong) == Q(0)


# ---------------------------------------------------------------------------
# substitution kernels against term-by-term references
# ---------------------------------------------------------------------------

# Derandomized and without an example database, so every run draws the
# same examples.
KERNEL_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
SQRT2_TOWER, SQRT2 = adjoin_root(QQ_TOWER, UniPoly([Q(-2), Q(0), Q(1)]))
rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def sqrt2_values(draw):
    a, b = draw(rationals), draw(rationals)
    return SQRT2_TOWER.from_fraction(a) + SQRT2_TOWER.from_fraction(b) * SQRT2


@st.composite
def bipolys(draw, rams, z_range, max_w, min_terms=0, max_terms=6, coeffs=rationals, tower=None):
    """Sum of c z^(n/ram) w^k over distinct (n, k) with n in z_range, k <= max_w."""
    ram = draw(st.sampled_from(rams))
    keys = draw(
        st.lists(
            st.tuples(st.integers(*z_range), st.integers(0, max_w)),
            min_size=min_terms,
            max_size=max_terms,
            unique=True,
        )
    )
    return BiPoly({(Q(n, ram), k): draw(coeffs) for n, k in keys}, tower=tower)


def ramified_polys(coeffs=rationals, tower=None):
    return bipolys((1, 2, 3), (0, 6), 6, coeffs=coeffs, tower=tower)


def series_polys(coeffs=rationals, tower=None):
    """Monomial or multi-term series in z alone, positive exponents."""
    return bipolys((1, 2, 3), (1, 6), 0, min_terms=1, max_terms=3, coeffs=coeffs, tower=tower)


def binomial_reference(poly, series, with_remainder):
    """sum c z^e (s + w)^k, or sum c z^e s^k, by plain BiPoly products."""
    tower = poly.tower or series.tower
    base = series + BiPoly.var_w(tower) if with_remainder else series
    out = BiPoly.zero(tower)
    for (ze, we), c in poly.terms.items():
        term = BiPoly.monomial(c, ze, 0, tower=tower)
        for _ in range(we):
            term = term * base
        out = out + term
    return out


def assert_same_poly(got, want):
    assert got.terms == want.terms
    assert got.ram == want.ram


@KERNEL_SETTINGS
@given(ramified_polys(), series_polys(), st.booleans())
def test_subst_w_series_matches_binomial_reference(poly, series, with_remainder):
    got = poly.subst_w_series(series, with_remainder=with_remainder)
    assert_same_poly(got, binomial_reference(poly, series, with_remainder))


@KERNEL_SETTINGS
@given(
    ramified_polys(sqrt2_values(), SQRT2_TOWER),
    series_polys(sqrt2_values(), SQRT2_TOWER),
    st.booleans(),
)
def test_subst_w_series_over_sqrt2_tower(poly, series, with_remainder):
    got = poly.subst_w_series(series, with_remainder=with_remainder)
    assert got.tower == SQRT2_TOWER
    assert_same_poly(got, binomial_reference(poly, series, with_remainder))


def test_subst_w_series_ram_ignores_the_input_declaration():
    # a declared ram that no exponent uses does not survive the substitution;
    # the series' exponents set it
    poly = BiPoly({(Q(1), 2): Q(1)}, ram=3)
    got = poly.subst_w_series(BiPoly({(Q(1, 2), 0): Q(1)}), with_remainder=True)
    assert got.ram == 2
    assert got.terms == {(Q(2), 0): Q(1), (Q(3, 2), 1): Q(2), (Q(1), 2): Q(1)}


@KERNEL_SETTINGS
@given(
    bipolys((1,), (0, 4), 4),
    bipolys((1,), (0, 1), 1, max_terms=3),
    bipolys((1,), (0, 1), 1, max_terms=3),
)
def test_subst_affine_matches_power_reference(poly, z_expr, w_expr):
    want = BiPoly.zero()
    for (ze, we), c in poly.terms.items():
        term = BiPoly.const(c)
        for _ in range(int(ze)):
            term = term * z_expr
        for _ in range(we):
            term = term * w_expr
        want = want + term
    assert_same_poly(poly.subst_affine(z_expr, w_expr), want)


def assert_keys_normalized(p, *rams):
    """Integral z-exponents are ints and ramified ones Fractions; ram is a
    multiple of the key denominators and divides the lcm of ``rams``."""
    assert all(
        type(ze) is int or (type(ze) is Q and ze.denominator > 1) for ze, _ in p.terms
    ), p.terms
    assert all(type(we) is int for _, we in p.terms)
    assert p.ram % math.lcm(*(ze.denominator for ze, _ in p.terms)) == 0
    assert math.lcm(*rams) % p.ram == 0


@KERNEL_SETTINGS
@given(
    ramified_polys(),
    ramified_polys(),
    series_polys(),
    rationals,
    st.fractions(min_value=-2, max_value=2, max_denominator=4),
    st.booleans(),
)
def test_operations_keep_integral_keys_int(a, b, series, c, delta, with_remainder):
    for p in (a, b, series):
        assert_keys_normalized(p, p.ram)
    assert_keys_normalized(a + b, a.ram, b.ram)
    assert_keys_normalized(a - b, a.ram, b.ram)
    assert_keys_normalized(a * b, a.ram, b.ram)
    assert_keys_normalized(a.scale(c), a.ram)
    assert_keys_normalized(a.diff_z(), a.ram)
    assert_keys_normalized(a.shift_z(delta), a.ram, delta.denominator)
    assert_keys_normalized(a.subst_w_series(series, with_remainder), a.ram, series.ram)


@KERNEL_SETTINGS
@given(
    bipolys((1,), (0, 3), 3),
    bipolys((1, 2), (0, 2), 1, max_terms=3),
    bipolys((1, 2), (0, 2), 1, max_terms=3),
)
def test_subst_affine_keeps_integral_keys_int(poly, z_expr, w_expr):
    assert_keys_normalized(poly.subst_affine(z_expr, w_expr), z_expr.ram, w_expr.ram)


# ---------------------------------------------------------------------------
# bivariate gcd and exact division against sympy
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sp():
    return pytest.importorskip("sympy")


def to_sympy(sp, p):
    """A plain BiPoly as a sympy Poly in (w, z) over QQ, so that sympy's lex
    order and monic normalization match pbound's (w, z) leading term."""
    w, z = sp.symbols("w z")
    data = {(we, int(ze)): sp.Rational(c.numerator, c.denominator) for (ze, we), c in p.terms.items()}
    return sp.Poly.from_dict(data, w, z, domain="QQ")


def from_sympy(poly):
    return BiPoly({(Q(ze), we): Q(int(c.p), int(c.q)) for (we, ze), c in poly.terms() if c})


def sympy_gcd(sp, a, b):
    g = sp.gcd(to_sympy(sp, a), to_sympy(sp, b))
    return from_sympy(g.monic() if not g.is_zero else g)


def sympy_divexact(sp, num, den):
    q, r = sp.div(to_sympy(sp, num), to_sympy(sp, den))
    return from_sympy(q) if r.is_zero else None


def lex_below(p, bound):
    """The terms of p below the (w, z) leading term of bound."""
    top = max((we, ze) for (ze, we) in bound.terms)
    return BiPoly({k: c for k, c in p.terms.items() if (k[1], k[0]) < top})


plain_polys = bipolys((1,), (0, 2), 2, max_terms=4)
nonzero_plain = bipolys((1,), (0, 2), 2, min_terms=1, max_terms=4).filter(lambda p: not p.is_zero())


@KERNEL_SETTINGS
@given(nonzero_plain, plain_polys, plain_polys)
def test_biv_gcd_matches_sympy_on_shared_factors(sp, f, g, h):
    a, b = f * g, f * h
    assert biv_gcd(a, b).terms == sympy_gcd(sp, a, b).terms


@KERNEL_SETTINGS
@given(plain_polys, plain_polys)
def test_biv_gcd_matches_sympy_on_random_pairs(sp, a, b):
    assert biv_gcd(a, b).terms == sympy_gcd(sp, a, b).terms


@pytest.mark.parametrize(
    "a, b",
    [
        # content-only common factor z - 3
        (bp({(1, 1): 1, (1, 0): 1, (0, 1): -3, (0, 0): -3}), bp({(1, 1): 1, (0, 1): -3})),
        # (z w - w + 1)(w + 2) and (z w - w + 1)(w + 3): the common factor is
        # constant in w at z = 1, a root of both w-leading coefficients
        (
            bp({(1, 1): 1, (0, 1): -1, (0, 0): 1}) * bp({(0, 1): 1, (0, 0): 2}),
            bp({(1, 1): 1, (0, 1): -1, (0, 0): 1}) * bp({(0, 1): 1, (0, 0): 3}),
        ),
        # a pure z-polynomial against a polynomial with that content
        (bp({(2, 0): 1, (0, 0): -1}), bp({(1, 2): 1, (0, 2): 1, (1, 0): 1, (0, 0): 1})),
    ],
)
def test_biv_gcd_matches_sympy_on_examples(sp, a, b):
    assert biv_gcd(a, b).terms == sympy_gcd(sp, a, b).terms


def count_prs_steps(monkeypatch):
    import pbound.polyode as polyode

    calls = []
    original = polyode._wpoly_prem_controlled

    def counted(num, den):
        calls.append(1)
        return original(num, den)

    monkeypatch.setattr(polyode, "_wpoly_prem_controlled", counted)
    return calls


def test_biv_gcd_falls_back_to_prs_when_every_point_shares_a_factor(monkeypatch):
    # b(z0, w) = w at each admissible z0 = 1, -1, 2, so the certificate fails
    # and the PRS must prove a and b coprime
    calls = count_prs_steps(monkeypatch)
    a = bp({(0, 1): 1})
    b = a + bp({(0, 0): 1}) * bp({(1, 0): 1, (0, 0): -1}) * bp({(1, 0): 1, (0, 0): 1}) * bp(
        {(1, 0): 1, (0, 0): -2}
    )
    assert biv_gcd(a, b).terms == bp({(0, 0): 1}).terms
    assert calls


def test_biv_gcd_coprime_certificate_skips_prs(monkeypatch):
    calls = count_prs_steps(monkeypatch)
    a = bp({(0, 1): 1, (1, 0): 1})  # w + z
    b = bp({(0, 1): 1, (1, 0): -1})  # w - z
    assert biv_gcd(a, b).terms == bp({(0, 0): 1}).terms
    assert not calls


@KERNEL_SETTINGS
@given(nonzero_plain, plain_polys)
def test_bipoly_divexact_matches_sympy_on_products(sp, f, g):
    num = f * g
    got = bipoly_divexact(num, f)
    assert got is not None
    assert got.terms == sympy_divexact(sp, num, f).terms


@KERNEL_SETTINGS
@given(nonzero_plain, plain_polys, plain_polys)
def test_bipoly_divexact_matches_sympy_on_perturbed_products(sp, f, g, r):
    num = f * g
    # a remainder below the leading term keeps that term divisible
    num = num + (lex_below(r, num) if not num.is_zero() else r)
    want = sympy_divexact(sp, num, f)
    got = bipoly_divexact(num, f)
    if want is None:
        assert got is None
    else:
        assert got is not None and got.terms == want.terms


def test_bipoly_divexact_rejects_ramified_and_zero_divisors():
    half = BiPoly({(Q(1, 2), 0): Q(1)})
    w = bp({(0, 1): 1})
    with pytest.raises(OdeError):
        bipoly_divexact(half, w)
    with pytest.raises(OdeError):
        bipoly_divexact(w, half)
    with pytest.raises(ZeroDivisionError):
        bipoly_divexact(w, BiPoly.zero())


sqrt2_plain = bipolys((1,), (0, 2), 2, max_terms=4, coeffs=sqrt2_values(), tower=SQRT2_TOWER)


@KERNEL_SETTINGS
@given(sqrt2_plain.filter(lambda p: not p.is_zero()), sqrt2_plain)
def test_bipoly_divexact_over_sqrt2_multiplies_back(f, g):
    num = f * g
    got = bipoly_divexact(num, f)
    assert got is not None
    assert (got * f).terms == num.terms
    perturbed = num + BiPoly.const(SQRT2, tower=SQRT2_TOWER)
    got = bipoly_divexact(perturbed, f)
    if f.total_degree() > 0:
        assert got is None
    else:
        assert (got * f).terms == perturbed.terms


# ---------------------------------------------------------------------------
# translation along the axis against the affine substitution
# ---------------------------------------------------------------------------

plain_polys = bipolys(
    (1,), (0, 3), 3, min_terms=1, coeffs=st.one_of(st.integers(-4, 4), rationals)
).filter(lambda p: not p.is_zero())


def coefficients(sys):
    return list(sys.P.terms.values()) + list(sys.Q.terms.values())


@KERNEL_SETTINGS
@given(
    plain_polys,
    plain_polys,
    st.sampled_from([0, Q(0)]),
    st.one_of(st.integers(-3, 3), rationals),
    st.booleans(),
)
def test_translate_point_on_the_axis_matches_subst_affine(P, Q_, z0, w0, over_tower):
    sys = OdeSystem(P, Q_)
    if over_tower:
        # theta = sqrt 2 and its rational shifts, in Q(theta)
        sys = sys.map_tower(SQRT2_TOWER)
        w0 = SQRT2 + w0
    tower = sys.tower
    z_expr = BiPoly.var_z(tower)
    w_expr = BiPoly({(0, 1): 1, (0, 0): w0}) if tower is None else BiPoly(
        {(0, 1): tower.one(), (0, 0): w0}, tower=tower
    )
    got = translate_point(sys, z0, w0)
    assert got.tower == tower
    assert_same_poly(got.P, sys.P.subst_affine(z_expr, w_expr))
    assert_same_poly(got.Q, sys.Q.subst_affine(z_expr, w_expr))
    assert not any(isinstance(c, float) for c in coefficients(got))


def test_scale_and_negation_skip_no_vanishing_coefficient():
    # (x^2 - 2)(x^2 - 3) has no rational root, so it is adjoined presumed,
    # and theta^2 - 2, theta^2 - 3 are zero divisors with product 0
    t, theta = adjoin_root(QQ_TOWER, UniPoly([Q(6), Q(0), Q(-5), Q(0), Q(1)]))
    assert t.levels[0].presumed
    a, b = theta * theta - 2, theta * theta - 3
    p = BiPoly({(0, 0): a, (1, 0): t.one(), (0, 1): Q(3)}, tower=t)
    scaled = p.scale(b)
    assert scaled.terms == {(1, 0): b, (0, 1): 3 * b}
    assert p.scale(Q(0)).is_zero() and p.scale(t.zero()).is_zero()
    assert p.scale(2).terms == {k: 2 * c for k, c in p.terms.items()}
    assert (-p).terms == {k: -c for k, c in p.terms.items()}
    assert p.map_tower(t).terms == p.terms
