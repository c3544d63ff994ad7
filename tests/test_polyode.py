import math
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings, strategies as st

from pbound import exact, polyode
from pbound.exact import QQ_TOWER, ExtElem, Level, Tower, UniPoly, adjoin_root, field_one
from pbound.polyode import (
    BiPoly,
    OdeError,
    OdeSystem,
    _normalize_biv,
    _primitive_int,
    affine_map,
    bipoly_divexact,
    bipoly_divmod,
    bipoly_str,
    biv_gcd,
    coeff_profile,
    invert_at_infinity,
    make_system,
    substitute_branch,
    transform_point,
    translate_point,
)
from puiseux_oracle import eval_w_series, residual_valuation, substitute_checked


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
    # a BiPoly has no ramification: a ramified exponent lives on the
    # integer scale of its system, and the key prints as the integer it is
    p = BiPoly({(5, 0): Q(2), (Q(0), 1): Q(-1)})
    assert not hasattr(p, "ram")
    assert bipoly_str(p) == "2*z^5 - w"
    # integral Fraction keys become ints and zero coefficients are dropped
    p = BiPoly({(Q(5), 0): Q(2), (0, Q(1)): Q(-1), (1, 3): Q(0)})
    assert p.terms == {(5, 0): Q(2), (0, 1): Q(-1)}
    assert all(type(ze) is int and type(we) is int for ze, we in p.terms)


@pytest.mark.parametrize("key", [(Q(5, 2), 0), ("5/2", 0), ("2", 0), (1.0, 0), (0, Q(1, 2))])
def test_bipoly_refuses_non_integral_exponents(key):
    with pytest.raises(OdeError, match="is not an integer"):
        BiPoly({key: Q(1)})
    # while an integral Fraction is taken as the int it equals
    ((ze, we),) = BiPoly({(Q(3), Q(6, 3)): Q(1)}).terms
    assert (ze, we) == (3, 2) and type(ze) is int and type(we) is int


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
    prof = coeff_profile(sys.P.terms, sys.Q.terms, sys.n)
    assert prof.p[0] == (Q(2), Q(1))
    assert 1 not in prof.p  # P1 absent at mu = 0
    assert prof.q[0] == (Q(1), Q(1))
    assert prof.q[2] == (Q(0), Q(1))


def test_profile_lv_origin():
    sys = lv_system(Q(-1), Q(0), Q(0))
    prof = coeff_profile(sys.P.terms, sys.Q.terms, sys.n)
    assert prof.p[1] == (Q(0), Q(1))
    assert prof.p[2] == (Q(0), Q(1))
    assert prof.q[0] == (Q(1), Q(-1))
    assert 1 not in prof.q


def test_profile_trivial():
    sys = make_system(bp({(0, 1): 1}), bp({(0, 0): 1}))
    prof = coeff_profile(sys.P.terms, sys.Q.terms, sys.n)
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
    prof = coeff_profile(moved.P.terms, moved.Q.terms, moved.n)
    assert prof.p[0] == (Q(1), a * b)
    assert prof.q[0][1] == c * a - 1


def test_identity_shear():
    sys = lv_system(Q(-1), Q(0), Q(0))
    sheared = affine_map(sys, ((1, 0), (0, 1)), (0, 0))
    assert sheared.P.terms == sys.P.terms
    assert sheared.Q.terms == sys.Q.terms


def test_degenerate_shear_rejected():
    sys = lv_system(Q(-1), Q(0), Q(0))
    # W = 0 (w - w0) + z, Z = z: the shear of a = 0 has no inverse
    with pytest.raises(OdeError, match="singular affine map"):
        affine_map(sys, ((1, 0), (1, 0)), (0, 0))


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
    prof = coeff_profile(rem.P.terms, rem.Q.terms, rem.n)
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
    prof = coeff_profile(rem.P.terms, rem.Q.terms, rem.n)
    l0, q0 = prof.q[0]
    k0, p0 = prof.p[0]
    # denominator leading term 2 mu z^(3/2) in the shift-normalized scale:
    # leading ratio p0/q0 and offsets match the hand-derived remainder, whose
    # exponents lie on the scale n = 2
    assert rem.n == 2
    assert Q(k0 - l0, rem.n) == Q(1)
    assert (p0 / q0) == Q(1, 2 * mu)
    k1, p1 = prof.p[1]
    assert Q(k1 - l0, rem.n) == Q(-1)
    assert p1 / q0 == (1 - mu) / (2 * mu)


def test_substitute_branch_rejects_non_acceptable():
    sys = make_system(bp({(0, 1): 1}), bp({(0, 0): 1}))  # P = w, Q = 1
    with pytest.raises(ValueError, match="not an acceptable pair"):
        substitute_checked(sys, Q(1), Q(1))


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
    moved = translate_point(sys, Q(0), Q(-1))
    assert residual_valuation(moved, ((Q(1), Q(1)),)) is None


def test_residual_valuation_grows():
    sys = example45(0)
    one_term = ((Q(2), Q(1, 2)),)
    two_terms = ((Q(2), Q(1, 2)), (Q(5), Q(-1, 20)))
    v1 = residual_valuation(sys, one_term)
    v2 = residual_valuation(sys, two_terms)
    assert v1 == Q(5)
    assert v2 is not None and v2 >= Q(8)


def test_residual_regular_point():
    # dw/dz = z / 1 at the origin: branch w = z^2/2 solves to high order
    sys = make_system(bp({(1, 0): 1}), bp({(0, 0): 1}))
    assert residual_valuation(sys, ((Q(2), Q(1, 2)),)) is None
    assert residual_valuation(sys, ((Q(1), Q(1)),)) == Q(0)


def test_residual_valuation_on_a_ramified_remainder():
    # the remainder for w1 after w = s + w1 has the residual of s + w1 in
    # the original system, times the common z-power that normalization
    # takes out; here s = 3i z^(1/2) at mu = -4, so the remainder lies on
    # the scale n = 2
    tower, theta = adjoin_root(QQ_TOWER, UniPoly([Q(9), Q(0), Q(1)]))
    sys = example45(Q(-4)).map_tower(tower)
    head = ((Q(1, 2), theta),)
    raw = sys.translate_w(theta, Q(1, 2))
    rem = substitute_branch(sys, Q(1, 2), theta)
    assert rem.n == raw.n == 2
    low = Q(min(s for s, _ in [*raw.P.terms, *raw.Q.terms]), raw.n)
    for tail in [((Q(2), tower.from_fraction(Q(-1, 21))),), ((Q(2), tower.one()),), ((Q(3, 2), theta),)]:
        assert residual_valuation(rem, tail) == residual_valuation(sys, head + tail) - low


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
def bipolys(draw, z_range, max_w, min_terms=0, max_terms=6, coeffs=rationals, tower=None):
    """Sum of c z^s w^k over distinct (s, k) with s in z_range, k <= max_w;
    the keys are given as Fractions, which the constructor turns into ints.
    On a system of scale n, z^s stands for z^(s/n)."""
    keys = draw(
        st.lists(
            st.tuples(st.integers(*z_range), st.integers(0, max_w)),
            min_size=min_terms,
            max_size=max_terms,
            unique=True,
        )
    )
    return BiPoly({(Q(s), k): draw(coeffs) for s, k in keys}, tower=tower)


# the scales of ramified systems: z-exponents in (1/n)Z
SCALES = st.sampled_from((1, 2, 3))


def ramified_polys(coeffs=rationals, tower=None):
    return bipolys((0, 6), 6, coeffs=coeffs, tower=tower)


def series_polys(coeffs=rationals, tower=None):
    """Monomial or multi-term series in z alone, positive exponents."""
    return bipolys((1, 6), 0, min_terms=1, max_terms=3, coeffs=coeffs, tower=tower)


def power_reference(poly, series):
    """sum c z^e s^k, by plain BiPoly products."""
    tower = poly.tower or series.tower
    out = BiPoly.zero(tower)
    for (ze, we), c in poly.terms.items():
        term = BiPoly.monomial(c, ze, 0, tower=tower)
        for _ in range(we):
            term = term * series
        out = out + term
    return out


def shift_reference(sys, alpha, lam):
    """The general series shift that ``translate_w`` replaced, for
    s = alpha z^lam: the powers of s, the binomial expansion
    (s + w)^k = sum_j C(k, j) s^(k-j) w^j of each w-power, and
    P1 - s' Q1, all in BiPoly arithmetic on the scale m = lcm(n, q) of
    lam = p/q, where s = alpha z^(m lam / m) and s' = alpha lam
    z^((m lam - m) / m).  Returns P1, Q1 and m."""
    tower = sys.tower
    m = math.lcm(sys.n, lam.denominator)
    k = m // sys.n
    series = BiPoly({(lam * m, 0): alpha}, tower=tower)
    pows = [BiPoly.const(field_one(tower), tower=tower)]
    for _ in range(max(sys.P.w_degree(), sys.Q.w_degree(), 0)):
        pows.append(pows[-1] * series)

    def shifted(poly):
        out = BiPoly.zero(tower)
        for (ze, we), c in poly.terms.items():
            expansion = BiPoly.zero(tower)
            for j in range(we + 1):
                w_j = BiPoly.monomial(field_one(tower) * math.comb(we, j), 0, j, tower=tower)
                expansion = expansion + pows[we - j] * w_j
            out = out + BiPoly.monomial(c, ze * k, 0, tower=tower) * expansion
        return out

    P1, Q1 = shifted(sys.P), shifted(sys.Q)
    if lam:
        P1 = P1 - BiPoly({(lam * m - m, 0): alpha * lam}, tower=tower) * Q1
    return P1, Q1, m


def assert_same_poly(got, want):
    assert got.terms == want.terms
    assert all(type(ze) is int and type(we) is int for ze, we in got.terms)


LAMS = st.sampled_from([Q(0), Q(1), Q(2), Q(1, 2), Q(3, 2), Q(1, 3)])
nonzero_rationals = rationals.filter(lambda c: c != 0)


def shift_systems(coeffs=rationals, tower=None):
    """OdeSystems on ramified P and Q, of scale 1, 2 or 3, with at least one
    term each."""
    coeffs = coeffs.filter(lambda c: not exact.f_is_zero(c))
    side = bipolys((0, 6), 4, min_terms=1, max_terms=5, coeffs=coeffs, tower=tower)
    return st.builds(lambda P, Q_, n: OdeSystem(P, Q_, tower, n), side, side, SCALES)


def assert_kernel_matches_reference(sys, alpha, lam):
    out = sys.translate_w(alpha, lam)
    P1, Q1, m = shift_reference(sys, alpha, lam)
    assert_same_poly(out.P, P1)
    assert_same_poly(out.Q, Q1)
    assert out.n == m
    assert out.tower is sys.tower
    return out


@KERNEL_SETTINGS
@given(shift_systems(), nonzero_rationals, LAMS)
def test_translate_w_matches_series_shift_reference(sys, alpha, lam):
    assert_kernel_matches_reference(sys, alpha, lam)


@KERNEL_SETTINGS
@given(
    shift_systems(sqrt2_values(), SQRT2_TOWER),
    sqrt2_values().filter(lambda c: not c.is_zero()),
    LAMS,
)
def test_translate_w_over_sqrt2_tower(sys, alpha, lam):
    out = assert_kernel_matches_reference(sys, alpha, lam)
    assert out.P.tower == out.Q.tower == SQRT2_TOWER


# Q[t]/(t^2 - 1), built directly, as no level of ``adjoin_root`` is: t - 1
# and t + 1 are zero divisors, so products of nonzero coefficients can
# vanish, and the kernel drops them.
PRESUMED_TOWER = Tower((Level(name="t0", minpoly=(Q(-1), Q(0), Q(1)), degree=2),))


@st.composite
def presumed_values(draw):
    """a + b t with b = +-1: never zero, a zero divisor when a = +-b."""
    a, b = draw(st.sampled_from([Q(-1), Q(0), Q(1), Q(2)])), draw(st.sampled_from([Q(-1), Q(1)]))
    return PRESUMED_TOWER.from_fraction(a) + PRESUMED_TOWER.from_fraction(b) * PRESUMED_TOWER.generator(0)


@KERNEL_SETTINGS
@given(
    shift_systems(presumed_values(), PRESUMED_TOWER),
    presumed_values(),
    LAMS,
)
def test_translate_w_over_presumed_tower(sys, alpha, lam):
    out = assert_kernel_matches_reference(sys, alpha, lam)
    assert not any(c.is_zero() for side in (out.P, out.Q) for c in side.terms.values())


def test_translate_w_drops_products_of_zero_divisors():
    # (t - 1)(t + 1) = 0 over the ring: Q = (t + 1) w shifted by
    # w -> (t - 1) + w1 loses its constant term
    t = PRESUMED_TOWER.generator(0)
    one = PRESUMED_TOWER.one()
    sys = OdeSystem(
        BiPoly({(0, 0): one}, tower=PRESUMED_TOWER),
        BiPoly({(0, 1): t + one}, tower=PRESUMED_TOWER),
        tower=PRESUMED_TOWER,
    )
    out = sys.translate_w(t - one, 0)
    assert list(out.Q.terms) == [(0, 1)]
    assert_same_poly(out.Q, shift_reference(sys, t - one, Q(0))[1])


def assert_canonical_coefficients(poly):
    """Every rational coefficient, or coordinate of a tower coefficient, is
    an int when it is integral and a Fraction otherwise."""
    leaves = []
    for c in poly.terms.values():
        exact._flatten(c.tower.levels, c.rep, leaves) if isinstance(c, ExtElem) else leaves.append(c)
    assert all(type(v) is int or type(v) is Q and v.denominator > 1 for v in leaves)


# alpha = a / b with b in [10^6, 10^9]: the integer kernel scales every
# factor by a power of b, and translate_w divides once at the end
large_denominators = st.builds(Q, st.integers(-(10 ** 12), 10 ** 12).filter(bool), st.integers(10 ** 6, 10 ** 9))


@KERNEL_SETTINGS
@given(shift_systems(), large_denominators, LAMS)
def test_translate_w_with_large_denominators(sys, alpha, lam):
    out = assert_kernel_matches_reference(sys, alpha, lam)
    assert_canonical_coefficients(out.P)
    assert_canonical_coefficients(out.Q)


# a root of 3 w^2 + 2 w - 2: the monic modulus w^2 + 2/3 w - 2/3 is not
# integral, so each reduction in the kernel multiplies by the table's
# denominator 3
NONINTEGRAL_TOWER, NONINTEGRAL = adjoin_root(QQ_TOWER, UniPoly([Q(-2, 3), Q(2, 3), Q(1)]))
# Q(sqrt 2)(y) with y^2 = sqrt 2, its top level certified by its norm: two levels, which
# the kernel shifts in exact arithmetic
TWO_LEVEL_TOWER, FOURTH_ROOT = adjoin_root(
    SQRT2_TOWER, UniPoly([-SQRT2, SQRT2_TOWER.zero(), SQRT2_TOWER.one()], tower=SQRT2_TOWER)
)


@st.composite
def linear_values(draw, tower, gen):
    """a + b gen for rationals a and b, as an element of ``tower``."""
    a, b = draw(rationals), draw(rationals)
    return tower.from_fraction(a) + tower.from_fraction(b) * gen


def test_kernel_towers_cover_a_reduction_denominator_and_two_levels():
    assert NONINTEGRAL_TOWER.levels[0].reduction[1] == 3
    assert len(TWO_LEVEL_TOWER.levels) == 2


@KERNEL_SETTINGS
@given(
    shift_systems(linear_values(NONINTEGRAL_TOWER, NONINTEGRAL), NONINTEGRAL_TOWER),
    linear_values(NONINTEGRAL_TOWER, NONINTEGRAL).filter(lambda c: not c.is_zero()),
    LAMS,
)
def test_translate_w_over_a_nonintegral_modulus(sys, alpha, lam):
    out = assert_kernel_matches_reference(sys, alpha, lam)
    assert_canonical_coefficients(out.P)
    assert_canonical_coefficients(out.Q)


@KERNEL_SETTINGS
@given(
    shift_systems(linear_values(TWO_LEVEL_TOWER, FOURTH_ROOT), TWO_LEVEL_TOWER),
    linear_values(TWO_LEVEL_TOWER, FOURTH_ROOT).filter(lambda c: not c.is_zero()),
    LAMS,
)
def test_translate_w_over_a_two_level_tower(sys, alpha, lam):
    out = assert_kernel_matches_reference(sys, alpha, lam)
    assert out.P.tower == out.Q.tower == TWO_LEVEL_TOWER


def test_translate_w_rescales_only_when_q_does_not_divide_n():
    # z w^2 on the scale n = 2 is the key (2, 2); lam = 1/2 keeps the scale
    shifted = {(4, 0): Q(1), (3, 1): Q(2), (2, 2): Q(1)}
    out = OdeSystem(BiPoly({(2, 2): Q(1)}), BiPoly.zero(), n=2).translate_w(Q(1), Q(1, 2))
    assert out.n == 2 and out.P.terms == shifted
    # on the scale n = 3 the same lam rescales every key to n = 6
    out = OdeSystem(BiPoly.zero(), BiPoly({(3, 2): Q(1)}), n=3).translate_w(Q(1), Q(1, 2))
    assert out.n == 6 and out.Q.terms == {(3 * s, j): c for (s, j), c in shifted.items()}
    # P1 = -1/2 z^(-1/2) Q1
    assert out.P.terms == {(s - 3, j): -c / 2 for (s, j), c in out.Q.terms.items()}
    # the scale is the lcm of the step denominators, whatever exponents
    # survive: lam = 1 keeps n = 3 on z^(3/3)
    assert OdeSystem(BiPoly({(3, 0): Q(1)}), BiPoly.zero(), n=3).translate_w(Q(1), Q(1)).n == 3


@KERNEL_SETTINGS
@given(ramified_polys(), series_polys())
def test_eval_w_series_matches_power_reference(poly, series):
    # the residual oracle's substitution, on the integer exponents of z = t^N
    assert_same_poly(eval_w_series(poly, series), power_reference(poly, series))


@KERNEL_SETTINGS
@given(ramified_polys(sqrt2_values(), SQRT2_TOWER), series_polys(sqrt2_values(), SQRT2_TOWER))
def test_eval_w_series_over_sqrt2_tower(poly, series):
    got = eval_w_series(poly, series)
    assert got.tower == SQRT2_TOWER
    assert_same_poly(got, power_reference(poly, series))


def affine_reference(sys, m, at):
    """The system in (Z, W) = m (z - z0, w - w0) by plain BiPoly products:
    z and w as polynomials in (Z, W) from the adjugate of m, each power by
    repeated multiplication, and then m (Q, P)."""
    tower = sys.tower
    (a, b), (c, d) = m
    inv = Q(1) / (a * d - b * c)
    one = field_one(tower)
    Z, W = BiPoly.monomial(one, 1, 0, tower), BiPoly.monomial(one, 0, 1, tower)
    z = BiPoly.const(at[0], tower=tower) + (Z.scale(d) - W.scale(b)).scale(inv)
    w = BiPoly.const(at[1], tower=tower) + (W.scale(a) - Z.scale(c)).scale(inv)

    def substituted(poly):
        out = BiPoly.zero(tower)
        for (ze, we), coeff in poly.terms.items():
            term = BiPoly.const(coeff, tower=tower)
            for _ in range(ze):
                term = term * z
            for _ in range(we):
                term = term * w
            out = out + term
        return out

    Qs, Ps = substituted(sys.Q), substituted(sys.P)
    return OdeSystem(Qs.scale(c) + Ps.scale(d), Qs.scale(a) + Ps.scale(b), tower=tower)


def inverse(m):
    (a, b), (c, d) = m
    inv = Q(1) / (a * d - b * c)
    return ((d * inv, -b * inv), (-c * inv, a * inv))


def invertible(entries):
    return st.tuples(st.tuples(entries, entries), st.tuples(entries, entries)).filter(
        lambda m: m[0][0] * m[1][1] - m[0][1] * m[1][0] != 0
    )


def affine_systems(coeffs=rationals, tower=None):
    side = bipolys((0, 3), 3, min_terms=1, max_terms=5, coeffs=coeffs, tower=tower).filter(
        lambda p: not p.is_zero()
    )
    return st.builds(lambda P, Q_: OdeSystem(P, Q_, tower=tower), side, side)


AFFINE_ENTRIES = st.one_of(st.sampled_from([0, 1, -1]), rationals)


def assert_same_system(got, want):
    assert_same_poly(got.P, want.P)
    assert_same_poly(got.Q, want.Q)
    assert got.tower == want.tower


@KERNEL_SETTINGS
@given(affine_systems(), invertible(AFFINE_ENTRIES), st.tuples(rationals, rationals))
def test_affine_map_matches_power_reference(sys, m, at):
    got = affine_map(sys, m, at)
    assert_same_system(got, affine_reference(sys, m, at))
    # integer exponents in, int keys on the scale 1 out
    assert got.n == 1
    for side in (got.P, got.Q):
        assert all(type(ze) is int and type(we) is int for ze, we in side.terms)


@KERNEL_SETTINGS
@given(
    affine_systems(sqrt2_values(), SQRT2_TOWER),
    invertible(st.one_of(AFFINE_ENTRIES, sqrt2_values())),
    st.tuples(sqrt2_values(), sqrt2_values()),
)
def test_affine_map_over_sqrt2_tower(sys, m, at):
    got = affine_map(sys, m, at)
    assert got.tower == SQRT2_TOWER
    assert_same_system(got, affine_reference(sys, m, at))


def round_trip(sys, m, at):
    """affine_map by m at p, then by m^-1 at -m p, which undoes it."""
    (a, b), (c, d) = m
    back = (-(a * at[0] + b * at[1]), -(c * at[0] + d * at[1]))
    return affine_map(affine_map(sys, m, at), inverse(m), back)


@KERNEL_SETTINGS
@given(affine_systems(), invertible(AFFINE_ENTRIES), st.tuples(rationals, rationals))
def test_affine_map_round_trip(sys, m, at):
    assert_same_system(round_trip(sys, m, at), sys)


@KERNEL_SETTINGS
@given(
    affine_systems(sqrt2_values(), SQRT2_TOWER),
    invertible(st.one_of(AFFINE_ENTRIES, sqrt2_values())),
    st.tuples(sqrt2_values(), sqrt2_values()),
)
def test_affine_map_round_trip_over_sqrt2_tower(sys, m, at):
    assert_same_system(round_trip(sys, m, at), sys)


def invert_reference(sys, z0):
    """``invert_at_infinity`` as it was: the inverted sides, then the common
    monomial removed, each through ``BiPoly``."""
    tower = sys.tower
    if not exact.f_is_zero(z0):
        sys = translate_point(sys, z0, 0)
    D = max(sys.P.w_degree(), sys.Q.w_degree())
    Pb = BiPoly({(ze, D - we + 2): -c for (ze, we), c in sys.P.terms.items()}, tower=tower)
    Qb = BiPoly({(ze, D - we): c for (ze, we), c in sys.Q.terms.items()}, tower=tower)
    dz = min(min((ze for (ze, _) in Pb.terms), default=0), min((ze for (ze, _) in Qb.terms), default=0))
    dw = min(min((we for (_, we) in Pb.terms), default=0), min((we for (_, we) in Qb.terms), default=0))
    if dz or dw:
        Pb = BiPoly({(ze - dz, we - dw): c for (ze, we), c in Pb.terms.items()}, tower=tower)
        Qb = BiPoly({(ze - dz, we - dw): c for (ze, we), c in Qb.terms.items()}, tower=tower)
    return OdeSystem(Pb, Qb, tower=tower)


def inversion_systems(coeffs=rationals, tower=None):
    """affine_systems, and the same with P = 0."""
    return st.one_of(
        affine_systems(coeffs, tower),
        affine_systems(coeffs, tower).map(lambda s: OdeSystem(BiPoly({}, tower), s.Q, tower=tower)),
    )


@KERNEL_SETTINGS
@given(inversion_systems(), st.one_of(st.just(Q(0)), rationals))
def test_invert_at_infinity_matches_the_reference(sys, z0):
    got = invert_at_infinity(sys, z0)
    assert_same_system(got, invert_reference(sys, z0))
    assert got.P.tower is got.Q.tower is sys.tower


@KERNEL_SETTINGS
@given(inversion_systems(sqrt2_values(), SQRT2_TOWER), st.one_of(st.just(Q(0)), sqrt2_values()))
def test_invert_at_infinity_over_sqrt2_tower(sys, z0):
    assert_same_system(invert_at_infinity(sys, z0), invert_reference(sys, z0))


@pytest.mark.parametrize("m", [((0, 0), (0, 0)), ((1, 2), (2, 4)), ((Q(1, 2), 1), (1, 2))])
def test_affine_map_rejects_a_singular_matrix(m):
    sys = lv_system(Q(-1), Q(5), Q(0))
    with pytest.raises(OdeError, match="singular affine map"):
        affine_map(sys, m, (1, 1))


def assert_keys_int(p):
    assert all(type(ze) is int and type(we) is int for ze, we in p.terms), p.terms


@KERNEL_SETTINGS
@given(
    ramified_polys(),
    ramified_polys(),
    series_polys(),
    rationals,
    st.integers(-2, 2),
    nonzero_rationals,
    LAMS,
    SCALES,
)
def test_operations_keep_integral_keys_int(a, b, series, c, delta, alpha, lam, n):
    for p in (a, b, series, a + b, a - b, a * b, a.scale(c), a.diff_z(), a.shift_z(delta)):
        assert_keys_int(p)
    assert_keys_int(eval_w_series(a, series))
    if not (a.is_zero() and b.is_zero()):
        out = OdeSystem(a, b, n=n).translate_w(alpha, lam)
        assert out.n == math.lcm(n, lam.denominator)
        assert_keys_int(out.P)
        assert_keys_int(out.Q)


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
    data = {(we, ze): sp.Rational(c.numerator, c.denominator) for (ze, we), c in p.terms.items()}
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


plain_polys = bipolys((0, 2), 2, max_terms=4)
nonzero_plain = bipolys((0, 2), 2, min_terms=1, max_terms=4).filter(lambda p: not p.is_zero())


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


@KERNEL_SETTINGS
@given(nonzero_plain, plain_polys, plain_polys)
def test_biv_gcd_with_failing_heuristic_matches_sympy(sp, f, g, h):
    # GCDHEU fails everywhere: the point certificate and the content gcds
    # over Q run the integer PRS instead
    a, b = f * g, f * h
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "_heuristic_int_gcd", lambda a, b: None)
        got = biv_gcd(a, b)
    assert got.terms == sympy_gcd(sp, a, b).terms


def count_prs_steps(monkeypatch):
    calls = []
    original = exact._prs_remainder

    def counted(num, den):
        calls.append(1)
        return original(num, den)

    monkeypatch.setattr(exact, "_prs_remainder", counted)
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


def forbid(monkeypatch, module, name):
    def refuse(*args):
        raise AssertionError("%s ran" % name)

    monkeypatch.setattr(module, name, refuse)


def test_biv_gcd_common_factor_in_z_alone_is_the_content(sp, monkeypatch):
    # gcd(a(z0, w), b(z0, w)) = 1 at z0 = 1, but z - 3 divides every a(z, w0)
    # and b(z, w0): the w-side fails and the content gives the gcd
    calls = count_prs_steps(monkeypatch)
    f = bp({(1, 0): 1, (0, 0): -3})
    a = f * bp({(0, 1): 1, (1, 0): 1})
    b = f * bp({(0, 2): 1, (0, 0): 1})
    assert biv_gcd(a, b).terms == sympy_gcd(sp, a, b).terms == f.terms
    assert not calls


def test_biv_gcd_w_side_alone_certifies_nothing(sp, monkeypatch):
    # the common factor w + 1 is constant in z, so every a(z, w0), b(z, w0)
    # are coprime but every a(z0, w), b(z0, w) share w + 1: the PRS decides
    calls = count_prs_steps(monkeypatch)
    f = bp({(0, 1): 1, (0, 0): 1})
    a = f * bp({(1, 0): 1, (0, 1): 1})
    b = f * bp({(1, 0): 1, (0, 1): -1, (0, 0): 2})
    assert biv_gcd(a, b).terms == sympy_gcd(sp, a, b).terms == f.terms
    assert calls


def test_biv_gcd_skips_points_where_a_w_leading_coefficient_vanishes(sp):
    # F = (z^2 - 1) w + 1 is 1 at z0 = 1 and -1, where a(z0, w) = w + 2 and
    # b(z0, w) = w + 3 are coprime; those points must not certify
    f = bp({(2, 1): 1, (0, 1): -1, (0, 0): 1})
    a = f * bp({(0, 1): 1, (0, 0): 2})
    b = f * bp({(0, 1): 1, (0, 0): 3})
    got = biv_gcd(a, b)
    assert got.terms == sympy_gcd(sp, a, b).terms
    assert got.w_degree() == 1 and got.z_degree() == 2


@pytest.mark.parametrize(
    "a, b",
    [
        (bp({(1, 0): Q(1, 2), (0, 1): Q(2, 3)}), bp({(0, 2): Q(3, 4), (1, 0): Q(-1, 5)})),
        (
            bp({(1, 0): Q(1, 2), (0, 1): Q(1, 3), (0, 0): 1}) * bp({(1, 0): 1, (0, 1): Q(-2, 5)}),
            bp({(1, 0): Q(1, 2), (0, 1): Q(1, 3), (0, 0): 1}) * bp({(0, 2): 1, (0, 0): Q(3, 7)}),
        ),
        (bp({(1, 1): Q(1, 6), (0, 0): Q(5, 4)}) * bp({(1, 0): Q(2, 3), (0, 0): 1}), bp({(1, 0): 2, (0, 0): 3})),
    ],
    ids=["coprime", "shared", "content"],
)
def test_biv_gcd_fraction_coefficients_match_sympy(sp, a, b):
    assert biv_gcd(a, b).terms == sympy_gcd(sp, a, b).terms


def test_biv_gcd_census_pair_certified_at_two_points(sp, monkeypatch):
    # P(0, 1) = 0, so P(z, 1) and z*q0(z, 1) share z: the w-side moves on to
    # w0 = -1, and neither the PRS nor the content in Q[z] is needed
    P = bp({(3, 0): -1, (0, 3): 2, (2, 0): -4, (1, 1): -4, (0, 1): 3, (0, 0): -5})
    Q_ = bp({(2, 1): 2, (1, 2): -4, (1, 1): 1})
    assert sympy_gcd(sp, P, Q_).terms == {(0, 0): 1}
    forbid(monkeypatch, exact, "_prs_remainder")
    forbid(monkeypatch, polyode, "_rows_content")
    assert biv_gcd(P, Q_).terms == {(0, 0): 1}
    assert make_system(P, Q_).P is P


z_polys = bipolys((0, 2), 0, min_terms=1, max_terms=3).filter(lambda p: not p.is_zero())


@KERNEL_SETTINGS
@given(z_polys, nonzero_plain, nonzero_plain, nonzero_plain)
def test_integer_prs_matches_sympy(sp, c, f, g, h):
    # with both point certificates failing, every pair runs the primitive
    # PRS on Z[z][w] rows, and the common factor c f has the part c in z
    # alone, which only the contents carry
    a, b = c * f * g, c * f * h
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polyode, "_constant_gcd_at_a_point", lambda ia, ib, var: False)
        got = biv_gcd(a, b)
    assert got.terms == sympy_gcd(sp, a, b).terms
    assert all(type(v) is int for v in got.terms.values() if Q(v).denominator == 1), got.terms


def test_biv_gcd_refuses_tower_coefficients():
    a = BiPoly({(0, 1): SQRT2, (1, 0): SQRT2_TOWER.one()}, tower=SQRT2_TOWER)
    b = bp({(0, 1): 1, (0, 0): -1})
    for x, y in ((a, b), (b, a), (a, BiPoly.zero())):
        with pytest.raises(OdeError, match="requires rational coefficients"):
            biv_gcd(x, y)


def test_make_system_names_the_shared_factor():
    f = bp({(1, 0): 1, (0, 1): 1})
    with pytest.raises(OdeError, match=r"^P and Q share the common factor w \+ z$"):
        make_system(f, f * f)


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
    # a ramified exponent cannot reach the division: no BiPoly holds one
    with pytest.raises(OdeError):
        BiPoly({(Q(1, 2), 0): Q(1)})
    w = bp({(0, 1): 1})
    with pytest.raises(ZeroDivisionError):
        bipoly_divexact(w, BiPoly.zero())


sqrt2_plain = bipolys((0, 2), 2, max_terms=4, coeffs=sqrt2_values(), tower=SQRT2_TOWER)


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


int_polys = bipolys((0, 2), 2, min_terms=1, max_terms=4, coeffs=st.integers(-4, 4)).filter(
    lambda p: not p.is_zero()
)


@KERNEL_SETTINGS
@given(int_polys, int_polys, st.integers(2, 6))
def test_bipoly_divexact_keeps_exact_integer_quotients_integral(f, g, k):
    f = _primitive_int(f)
    num = f * g
    # Gauss's lemma: an exact quotient by a primitive divisor lies in Z[z, w]
    got = bipoly_divexact(num, f)
    assert (got * f).terms == num.terms
    assert all(type(c) is int for c in got.terms.values())
    # a non-primitive divisor still gives its Fraction quotient g / k
    got = bipoly_divexact(num, f.scale(k))
    assert (got * f.scale(k)).terms == num.terms
    assert got.terms == {key: Q(c, k) for key, c in g.terms.items()}
    # an inexact division still returns None
    if f.total_degree() > 0:
        assert bipoly_divexact(num + BiPoly.const(1), f) is None


def test_bipoly_divexact_by_a_non_primitive_divisor():
    z = BiPoly({(1, 0): 1})
    got = bipoly_divexact(z, z.scale(2))
    assert got.terms == {(0, 0): Q(1, 2)} and type(got.terms[(0, 0)]) is Q
    assert bipoly_divexact(z.scale(3), z.scale(2)).terms == {(0, 0): Q(3, 2)}
    assert bipoly_divexact(z.scale(4), z.scale(2)).terms == {(0, 0): 2}


@st.composite
def lex_divisors(draw):
    """Divisors of the three shapes the lex division meets: w-degree 0, a
    constant leading coefficient in w, and one that is a polynomial in z."""
    shape = draw(st.sampled_from(["z-only", "constant-lead", "z-lead"]))
    coeff = st.integers(-3, 3)
    lead_w_degree = 0 if shape == "z-only" else draw(st.integers(1, 2))
    rows = [draw(st.lists(coeff, max_size=3)) for _ in range(lead_w_degree)]
    if shape == "constant-lead":
        rows.append([draw(coeff.filter(bool))])
    else:
        rows.append(draw(st.lists(coeff, min_size=2, max_size=3).filter(lambda row: row[-1])))
    return bp({(i, j): c for j, row in enumerate(rows) for i, c in enumerate(row)})


LEX_SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None)
LEX_NUMERATORS = st.dictionaries(
    st.sampled_from([(i, d - i) for d in range(5) for i in range(d + 1)]),
    st.builds(Q, st.integers(-3, 3).filter(bool), st.integers(1, 3)),
    max_size=6,
).map(bp)
Z_W_MINUS_1 = bp({(1, 1): 1, (0, 0): -1})


@LEX_SETTINGS
@given(LEX_NUMERATORS, lex_divisors())
@example(bp({(0, 1): 1}), Z_W_MINUS_1)
@example(bp({(2, 2): 3, (0, 2): 1, (1, 0): -2}), Z_W_MINUS_1)
def test_bipoly_divmod_remainder_matches_sympy_reduced(sp, num, den):
    w, z = sp.symbols("w z")
    _, want = sp.reduced(to_sympy(sp, num).as_expr(), [to_sympy(sp, den).as_expr()], w, z, order="lex")
    assert sp.expand(to_sympy(sp, bipoly_divmod(num, den)[1]).as_expr() - want) == 0


@LEX_SETTINGS
@given(LEX_NUMERATORS, lex_divisors())
@example(Z_W_MINUS_1 * bp({(0, 1): 1, (1, 0): 2}), Z_W_MINUS_1)
@example(bp({(0, 1): Q(4, 3), (1, 0): 3}), bp({(0, 1): Q(2, 3), (0, 0): 1}))  # remainder -2 from 4/3 * 3/2
def test_bipoly_divmod_is_reduced_and_congruent(num, den):
    # num - r = q den, and no term of r is divisible by den's leading term
    quotient, r = bipoly_divmod(num, den)
    q = bipoly_divexact(num - r, den)
    assert q is not None and num - r == q * den
    assert quotient == q
    dw = den.w_degree()
    dz = max(ze for (ze, we) in den.terms if we == dw)
    assert not any(we >= dw and ze >= dz for (ze, we) in r.terms)
    # an integral rational coefficient is an int, as everywhere in BiPoly
    assert all(type(c) is int or c.denominator != 1 for c in r.terms.values())
    assert r.is_zero() == (bipoly_divexact(num, den) is not None)


@KERNEL_SETTINGS
@given(nonzero_plain)
def test_primitive_int_has_a_positive_leading_term(p):
    got = _primitive_int(p)
    assert all(type(c) is int for c in got.terms.values())
    assert math.gcd(*got.terms.values()) == 1
    # a multiple of p with a positive leading term, normalizing as p does
    lead = max(p.terms, key=lambda k: (k[1], k[0]))
    assert got.terms[lead] > 0
    assert got.scale(Q(p.terms[lead]) / got.terms[lead]).terms == p.terms
    assert _normalize_biv(got).terms == _normalize_biv(p).terms


# ---------------------------------------------------------------------------
# translation along the axis against the affine map
# ---------------------------------------------------------------------------

plain_polys = bipolys(
    (0, 3), 3, min_terms=1, coeffs=st.one_of(st.integers(-4, 4), rationals)
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
def test_translate_point_on_the_axis_matches_affine_map(P, Q_, z0, w0, over_tower):
    sys = OdeSystem(P, Q_)
    if over_tower:
        # theta = sqrt 2 and its rational shifts, in Q(theta)
        sys = sys.map_tower(SQRT2_TOWER)
        w0 = SQRT2 + w0
    got = translate_point(sys, z0, w0)
    assert got.tower == sys.tower
    assert_same_system(got, affine_map(sys, ((1, 0), (0, 1)), (0, w0)))
    assert not any(isinstance(c, float) for c in coefficients(got))


def fully_lifted(sys, tower):
    """The system with every coefficient coerced into ``tower``."""
    def lift(p):
        return BiPoly._from_clean({k: tower.coerce(c) for k, c in p.terms.items()}, tower)

    return OdeSystem(lift(sys.P), lift(sys.Q), tower, sys.n)


# y^2 = sqrt 2 over Q(sqrt 2)
Y_TOWER, Y = adjoin_root(SQRT2_TOWER, UniPoly([-SQRT2, SQRT2_TOWER.zero(), SQRT2_TOWER.one()], tower=SQRT2_TOWER))


@KERNEL_SETTINGS
@given(plain_polys, plain_polys, st.one_of(st.integers(-3, 3), rationals), st.booleans())
def test_map_tower_keeps_rationals_until_the_first_shift(P, Q_, c, two_levels):
    sys = OdeSystem(P, Q_)
    tower, theta = (Y_TOWER, Y) if two_levels else (SQRT2_TOWER, SQRT2)
    if two_levels:
        # a system over Q(sqrt 2) with a tower coefficient, into Q(sqrt 2)(y)
        sys = OdeSystem(P + BiPoly({(0, 1): SQRT2 + 1}), Q_, SQRT2_TOWER)
    lifted = sys.map_tower(tower)
    assert lifted.tower == lifted.P.tower == lifted.Q.tower == tower
    for side, lifted_side in ((sys.P, lifted.P), (sys.Q, lifted.Q)):
        assert lifted_side.terms.keys() == side.terms.keys()
        for k, v in lifted_side.terms.items():
            if isinstance(side.terms[k], ExtElem):
                assert v.tower == tower and v == tower.coerce(side.terms[k])
            else:
                assert v is side.terms[k]
    full = fully_lifted(sys, tower)
    w0 = theta + c
    got, want = translate_point(lifted, 0, w0), translate_point(full, 0, w0)
    assert got.tower == want.tower == tower
    for side, ref in ((got.P, want.P), (got.Q, want.Q)):
        assert side.terms == ref.terms
        assert all(isinstance(v, ExtElem) and v.tower == tower for v in side.terms.values())
        assert {k: v.rep for k, v in side.terms.items()} == {k: v.rep for k, v in ref.terms.items()}


def test_scale_and_negation_skip_no_vanishing_coefficient():
    # every level is certified, so Q(theta) is a field: a nonzero scale
    # keeps every term, (theta - 1)(theta + 1) = 1 included
    t, theta = adjoin_root(QQ_TOWER, UniPoly([Q(-2), Q(0), Q(1)]))
    a, b = theta - 1, theta + 1
    p = BiPoly({(0, 0): a, (1, 0): t.one(), (0, 1): Q(3)}, tower=t)
    scaled = p.scale(b)
    assert scaled.terms == {(0, 0): 1, (1, 0): b, (0, 1): 3 * b}
    assert p.scale(Q(0)).is_zero() and p.scale(t.zero()).is_zero()
    assert p.scale(2).terms == {k: 2 * c for k, c in p.terms.items()}
    assert (-p).terms == {k: -c for k, c in p.terms.items()}
    assert p.map_tower(t).terms == p.terms
