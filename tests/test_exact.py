import itertools
import math
import random
import time

from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings, strategies as st

from pbound import exact
from pbound.polyode import coeff_profile
from pbound.exact import (
    ExactError,
    ExtElem,
    Level,
    QQ_TOWER,
    Tower,
    UniPoly,
    _mod_divmod,
    _primitive_int_coeffs,
    adjoin_root,
    factor_roots,
    factor_univariate,
    in_q_minus,
    in_q_plus,
    sort_key,
)


def poly(*ascending):
    return UniPoly([Q(c) for c in ascending])


# ---------------------------------------------------------------------------
# rationals
# ---------------------------------------------------------------------------

def horner(p, x):
    """p(x) by Horner's rule, for a rational or a tower element x."""
    acc = x.tower.zero() if isinstance(x, ExtElem) else 0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def test_q_membership():
    assert in_q_plus(Q(3, 2))
    assert not in_q_plus(Q(0))
    assert not in_q_plus(Q(-1))
    assert in_q_minus(Q(-1, 7))
    assert not in_q_minus(Q(0))


def test_q_membership_on_tower_elements():
    t, i = adjoin_root(QQ_TOWER, poly(1, 0, 1))  # i^2 = -1
    assert not in_q_plus(i)
    assert in_q_plus(t.from_fraction(Q(5)))
    assert not in_q_plus(i * i)  # equals -1


# ---------------------------------------------------------------------------
# univariate polynomials over Q
# ---------------------------------------------------------------------------

def test_divmod_roundtrip():
    f = poly(2, 0, -3, 1)  # x^3 - 3x^2 + 2
    g = poly(-1, 1)
    q, r = f.divmod(g)
    assert (q * g + r).coeffs == f.coeffs


def squarefree_part(p):
    """The product of the Yun factors of ``UniPoly.squarefree_decomposition``."""
    out = poly(1)
    for f, _ in p.squarefree_decomposition():
        out = out * f
    return out


def rational_roots_with_multiplicities(p, cap=8):
    """(root, multiplicity) of every linear factor of ``factor_univariate``."""
    return sorted((-f.poly.coeffs[0], f.multiplicity) for f in factor_univariate(p, cap) if f.poly.degree() == 1)


def test_squarefree_and_rational_roots_factored_input():
    # w * (w + 1)
    p = poly(0, 1, 1)
    assert rational_roots_with_multiplicities(p) == [(Q(-1), 1), (Q(0), 1)]
    assert squarefree_part(p).degree() == 2


def test_squarefree_and_rational_roots_power():
    # (w - 2)^3
    p = poly(-8, 12, -6, 1)
    assert rational_roots_with_multiplicities(p) == [(Q(2), 3)]
    assert squarefree_part(p).coeffs == poly(-2, 1).coeffs


def test_squarefree_irrational():
    p = poly(-2, 0, 1)  # w^2 - 2
    assert rational_roots_with_multiplicities(p) == []
    assert squarefree_part(p).degree() == 2


def test_zero_polynomial_rejected():
    for reject in (UniPoly.squarefree_decomposition, factor_univariate):
        with pytest.raises(ExactError, match="zero polynomial"):
            reject(UniPoly([]))


def test_rational_roots_match_bruteforce():
    # the roots of factor_univariate's linear factors
    rng = random.Random(7)
    for _ in range(40):
        deg = rng.randint(1, 5)
        coeffs = [Q(rng.randint(-6, 6)) for _ in range(deg)] + [Q(rng.choice([1, 2, 3, -1]))]
        p = UniPoly(coeffs)
        found = {r for r, _ in rational_roots_with_multiplicities(p)}
        brute = {
            Q(n, d)
            for n in range(-30, 31)
            for d in range(1, 7)
            if horner(p, Q(n, d)) == 0
        }
        assert brute <= found
        for r in found:
            assert horner(p, r) == 0


def test_factor_cyclotomic_split():
    factors = factor_univariate(poly(-1, 0, 0, 1))  # w^3 - 1
    polys = sorted(f.poly.coeffs for f in factors)
    assert polys == [poly(-1, 1).coeffs, poly(1, 1, 1).coeffs]
    assert all(f.certified for f in factors)


def test_factor_irreducible_quadratic():
    factors = factor_univariate(poly(-2, 0, 1))
    assert len(factors) == 1
    assert factors[0].multiplicity == 1
    assert factors[0].certified


def test_factor_edge_polynomial_linear():
    # (2 - mu)*a - 1 at mu = 0, i.e. 2a - 1: linear factor a - 1/2
    factors = factor_univariate(poly(-1, 2))
    assert len(factors) == 1
    assert factors[0].poly.coeffs == (Q(-1, 2), Q(1))


def test_rational_root_factors_have_int_coefficients():
    # x^3 + x - 2 = (x - 1)(x^2 + x + 2): the factor split off by its
    # rational root follows the canonical-int rule as the others do
    factors = factor_univariate(poly(-2, 1, 0, 1))
    assert [f.poly.coeffs for f in factors] == [(-1, 1), (2, 1, 1)]
    assert all(type(c) is int for f in factors for c in f.poly.coeffs)
    # so making it monic again hands back the polynomial itself
    assert factors[0].poly.monic() is factors[0].poly


def test_factor_remultiplies():
    rng = random.Random(11)
    for _ in range(25):
        deg = rng.randint(1, 6)
        coeffs = [Q(rng.randint(-4, 4)) for _ in range(deg)] + [Q(1)]
        p = UniPoly(coeffs)
        factors = factor_univariate(p)
        prod = UniPoly([Q(1)])
        for f in factors:
            for _ in range(f.multiplicity):
                prod = prod * f.poly
        # equal up to the (rational) leading constant
        lead = p.leading() / prod.leading()
        assert prod.scale(lead).coeffs == p.coeffs


def test_factor_quartic_biquadratic():
    # (x^2-3)(x^2-5) has no rational roots; must still split
    p = poly(15, 0, -8, 0, 1)
    factors = factor_univariate(p)
    assert sorted(f.poly.coeffs for f in factors) == [
        poly(-5, 0, 1).coeffs,
        poly(-3, 0, 1).coeffs,
    ]


def counted(monkeypatch, name):
    """The argument tuples of every call to ``exact.<name>`` from now on."""
    calls = []
    inner = getattr(exact, name)

    def counting(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(exact, name, counting)
    return calls


def test_modular_irreducibility_certifies(monkeypatch):
    # x^4 + 2 (Eisenstein): the degree patterns alone certify it
    lifts = counted(monkeypatch, "_hensel_lift")
    assert exact._zassenhaus([2, 0, 0, 0, 1]) == [([2, 0, 0, 0, 1], True)]
    assert lifts == []


@pytest.mark.parametrize("coeffs", [(9, 0, 0, 0, 1), (1, 0, 0, 0, 1)], ids=["x^4 + 9", "x^4 + 1"])
def test_full_kronecker_search_certifies_irreducibility(coeffs, monkeypatch):
    # both split mod every prime, so no degree pattern certifies them; the
    # full recombination of their modular factors finds no factor, as the
    # full Kronecker search it replaced found none
    lifts = counted(monkeypatch, "_hensel_lift")
    assert exact._zassenhaus(list(coeffs)) == [(list(coeffs), True)]
    assert len(lifts) == 1
    assert ref_kronecker_split(list(coeffs)) == (None, True)
    (f,) = factor_univariate(poly(*coeffs))
    assert f.certified and f.poly.certified_irreducible
    # a recombination stopped by its effort cap certifies nothing
    monkeypatch.setattr(exact, "RECOMBINATION_EFFORT", 0)
    assert exact._zassenhaus(list(coeffs)) == [(list(coeffs), False)]
    (f,) = factor_univariate(poly(*coeffs))
    assert not f.certified and not f.poly.certified_irreducible


def test_kronecker_split_tells_a_factor_from_a_skipped_degree():
    assert exact._zassenhaus([15, 0, -8, 0, 1]) == [([-3, 0, 1], True), ([-5, 0, 1], True)]
    # (x^4 + 4x^3 - 2x^2 - x + 3)(3x^4 + 3x^3 + 2x^2 - 3x + 3): the degree-4
    # candidates of the Kronecker search exceed its effort, which left the
    # product uncertified; Zassenhaus splits it
    ints = [9, -12, 3, 25, -7, -4, 8, 15, 3]
    assert ref_kronecker_split(ints) == (None, False)
    assert exact._zassenhaus(ints) == [([3, -1, -2, 4, 1], True), ([3, -3, 2, 3, 3], True)]
    assert [f.certified for f in factor_univariate(UniPoly(ints))] == [True, True]


@pytest.mark.parametrize("ints", [
    [2, 0, 0, 0, 1],
    [9, 0, 0, 0, 1],
    [15, 0, -8, 0, 1],
    [9, -12, 3, 25, -7, -4, 8, 15, 3],
    [7 * 11, 0, 0, 0, 0, 1],  # lead coprime to all, 7 and 11 not squarefree
    [1, 1, 0, 0, 0, 0, 0, 0, 1],
], ids=str)
def test_zassenhaus_takes_one_ddf_per_prime(ints, monkeypatch):
    # the pattern test and the choice of the lifting prime share the
    # distinct-degree factorizations
    ddfs = counted(monkeypatch, "_mod_ddf")
    exact._zassenhaus(ints)
    primes = [p for _, p in ddfs]
    assert len(primes) == len(set(primes))
    assert set(primes) <= set(exact._CERT_PRIMES)


def test_mod_divmod_roundtrip():
    # q * b + r == a over F_p with deg r < deg b, both trimmed
    rng = random.Random(5)
    for p in (2, 7, 101):
        for _ in range(40):
            a = [rng.randrange(p) for _ in range(rng.randrange(0, 9))]
            b = [rng.randrange(p) for _ in range(rng.randrange(0, 5))] + [rng.randrange(1, p)]
            q, r = _mod_divmod(a, b, p)
            prod = [0] * max(len(q) + len(b) - 1, len(a), 1)
            for i, x in enumerate(q):
                for j, y in enumerate(b):
                    prod[i + j] += x * y
            for i, x in enumerate(r):
                prod[i] += x
            assert [c % p for c in prod] == a + [0] * (len(prod) - len(a))
            assert len(r) < len(b) and (not r or r[-1]) and (not q or q[-1])


def test_factor_cap():
    with pytest.raises(ExactError, match="factor cap exceeded"):
        factor_univariate(poly(*([1] * 10)), cap=8)


# ---------------------------------------------------------------------------
# towers
# ---------------------------------------------------------------------------

def test_adjoin_sqrt_minus_one():
    t, theta = adjoin_root(QQ_TOWER, poly(1, 0, 1))
    assert (theta * theta) == Q(-1)
    assert not theta.is_rational()
    assert t.degree() == 2


def test_adjoin_half_integer_branch_case():
    # x^2 + 9 (the minimal polynomial arising at mu = -4)
    t, theta = adjoin_root(QQ_TOWER, poly(9, 0, 1))
    assert (theta * theta).as_fraction() == Q(-9)


def test_adjoin_rejects_rational_roots():
    with pytest.raises(ExactError, match="not certified irreducible"):
        adjoin_root(QQ_TOWER, poly(-4, 0, 1))


def certified_level(*ascending):
    """Q(t0) for the root of an irreducible polynomial over Q, certified."""
    (f,) = factor_univariate(poly(*ascending))
    return adjoin_root(QQ_TOWER, f.poly)


def quadratic_over(tower, c1, c0):
    return UniPoly([tower.coerce(c0), tower.coerce(c1), tower.one()], tower=tower)


def test_adjoin_certifies_a_quadratic_of_nonsquare_discriminant_norm():
    # every level is certified by Trager's norm over the tower below
    tower, t0 = certified_level(-2, 0, 1)
    # x^2 - t0/8: its norm x^4 - 1/32 is irreducible over Q
    top, _ = adjoin_root(tower, quadratic_over(tower, 0, -t0 * Q(1, 8)))
    assert len(top.levels) == 2
    # x^2 - 3 over Q(t0), t0^2 = 2: the norm (x^2 - 3)^2 is not squarefree,
    # that of its shift (x - t0)^2 - 3 is x^4 - 10 x^2 + 1, irreducible
    assert exact._norm(exact._taylor_shift(quadratic_over(tower, 0, -3), -t0)).coeffs == (1, 0, -10, 0, 1)
    top, _ = adjoin_root(tower, quadratic_over(tower, 0, -3))
    assert len(top.levels) == 2
    # a cubic over K, and a quadratic over the two levels
    top, _ = adjoin_root(tower, UniPoly([-t0, 0, 0, tower.one()], tower=tower))
    third, _ = adjoin_root(top, quadratic_over(top, 0, -top.coerce(t0)))
    assert [lv.degree for lv in third.levels] == [2, 3, 2]


@pytest.mark.parametrize(
    "modulus, square",
    [
        # 3 + 2 t0 = (1 + t0)^2 over t0^2 = 2, of norm 1
        ((-2, 0, 1), lambda t: 3 + 2 * t),
        # over t0^3 = 2 the charpoly's constant term is -N: it pins the sign
        ((-2, 0, 0, 1), lambda t: (1 + t) * (1 + t)),
    ],
    ids=["t0^2 - 2", "t0^3 - 2"],
)
def test_adjoin_never_certifies_a_quadratic_with_a_root_in_k(modulus, square):
    tower, t0 = certified_level(*modulus)
    with pytest.raises(ExactError, match="not certified irreducible"):
        adjoin_root(tower, quadratic_over(tower, 0, -square(t0)))


K_MODULI = [(-2, 0, 1), (1, 1, 1), (-2, 0, 0, 1), (1, -1, 0, 1), (2, 0, 0, 0, 1)]
k_coords = st.lists(st.integers(-3, 3), min_size=4, max_size=4)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(K_MODULI), k_coords, k_coords)
def test_adjoin_never_certifies_a_quadratic_with_roots_in_k(modulus, r, s):
    # (x - r)(x - s) for r, s in K: its discriminant (r - s)^2 is a square
    tower, t0 = certified_level(*modulus)
    r, s = (sum(c * t0**i for i, c in enumerate(v[: len(modulus) - 1])) + tower.zero() for v in (r, s))
    m = quadratic_over(tower, -(r + s), r * s)
    assume(not all(exact.is_rational_value(c) for c in m.coeffs))
    with pytest.raises(ExactError):
        adjoin_root(tower, m)


def test_adjoin_requires_monic():
    with pytest.raises(ExactError, match="monic"):
        adjoin_root(QQ_TOWER, poly(1, 0, 2))


def test_tower_cap():
    with pytest.raises(ExactError, match="tower cap exceeded"):
        adjoin_root(QQ_TOWER, poly(2, 0, 0, 0, 1), cap=3)


def test_try_invert_gaussian():
    t, i = adjoin_root(QQ_TOWER, poly(1, 0, 1))
    inv = i.inverse()
    assert inv == -i
    assert (i * inv) == Q(1)


def test_try_invert_splits_reducible_modulus():
    # the reducible x^2 - 1 is never adjoined, so no zero divisor is ever
    # inverted: factor_roots splits it into x + 1 and x - 1 first.  On the
    # ring Q[x]/(x^2 - 1), built directly, the zero divisor x - 1 has no
    # inverse
    with pytest.raises(ExactError):
        adjoin_root(QQ_TOWER, poly(-1, 0, 1))
    assert [(r.value, r.note) for r in factor_roots(poly(-1, 0, 1))] == [(1, "rational"), (-1, "rational")]
    x = Tower((Level(name="t0", minpoly=(-1, 0, 1), degree=2),)).generator(0)
    with pytest.raises(ZeroDivisionError):
        (x - 1).inverse()


def test_invert_in_sqrt_minus_nine():
    t, theta = adjoin_root(QQ_TOWER, poly(9, 0, 1))
    e = theta + 1
    inv = e.inverse()
    assert (e * inv) == Q(1)
    assert inv == (theta - 1) * Q(-1, 10)


def test_division_by_zero():
    t, theta = adjoin_root(QQ_TOWER, poly(9, 0, 1))
    with pytest.raises(ZeroDivisionError):
        t.zero().inverse()


def test_field_axioms_randomized():
    rng = random.Random(3)
    t, theta = adjoin_root(QQ_TOWER, poly(-2, 0, 1))  # sqrt(2)
    t2, rho = adjoin_root(t, UniPoly([theta, t.zero() + 0, t.one()], tower=t))  # rho^2 = -sqrt2
    elems = []
    for _ in range(6):
        e = t2.from_fraction(Q(rng.randint(-3, 3)))
        e = e + rng.randint(-2, 2) * t2.coerce(rho)
        elems.append(e)
    for a in elems:
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
            for c in elems:
                assert (a + b) * c == a * c + b * c
                assert (a * b) * c == a * (b * c)
        if not a.is_zero():
            assert a * a.inverse() == Q(1)


def test_rational_embedding_identity():
    t, theta = adjoin_root(QQ_TOWER, poly(1, 0, 1))
    for q in (Q(0), Q(5, 3), Q(-7, 2)):
        e = t.from_fraction(q)
        assert e.is_rational()
        assert e.as_fraction() == q
    assert not (theta + Q(1, 2)).is_rational()


def test_sort_key_deterministic():
    t, theta = adjoin_root(QQ_TOWER, poly(1, 0, 1))
    ks = sorted([sort_key(theta), sort_key(Q(2)), sort_key(theta + 1)])
    assert ks == sorted([sort_key(theta), sort_key(Q(2)), sort_key(theta + 1)])


def test_str_round_shapes():
    t, theta = adjoin_root(QQ_TOWER, poly(9, 0, 1))
    assert str(theta) == "t0"
    assert str(theta * 2 + 1) == "1 + 2*t0"


# ---------------------------------------------------------------------------
# number-field products and the regularity test
# ---------------------------------------------------------------------------

# Derandomized and without an example database, so every run draws the
# same examples.
FIELD_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@pytest.fixture(scope="module")
def sp():
    return pytest.importorskip("sympy")


def rational_level(name, low):
    """The level Q[x]/(x^d + low[d-1] x^(d-1) + ... + low[0]), built
    directly: nothing checks that the modulus is irreducible, and the
    products tested need no field."""
    return Level(name=name, minpoly=tuple(low) + (Q(1),), degree=len(low))


def sympy_expr(sp, coeffs, var):
    return sum(sp.Rational(c.numerator, c.denominator) * var**i for i, c in enumerate(coeffs))


def value_charpoly(e):
    """The characteristic polynomial in y of e over Q: the norm of y - e."""
    return exact._norm(UniPoly([-e, e.tower.one()], var="y", tower=e.tower))


def sympy_coeffs(sp, expr, var, d):
    coeffs = [Q(int(c.p), int(c.q)) for c in reversed(sp.Poly(expr, var, domain="QQ").all_coeffs())]
    return coeffs + [Q(0)] * (d - len(coeffs))


@FIELD_SETTINGS
@given(st.integers(1, 5).flatmap(
    lambda d: st.tuples(*[st.lists(fractions, min_size=d, max_size=d)] * 3)
))
def test_rational_level_product_matches_sympy_rem(sp, data):
    low, a, b = data
    d = len(low)
    t = Tower((rational_level("t0", low),))
    got = (ExtElem(t, tuple(a)) * ExtElem(t, tuple(b))).rep
    x = sp.Symbol("x")
    m = sympy_expr(sp, list(low) + [Q(1)], x)
    want = sp.rem(sympy_expr(sp, a, x) * sympy_expr(sp, b, x), m, x)
    assert list(got) == sympy_coeffs(sp, want, x, d)
    # an integral coordinate is an int, any other a Fraction
    assert all(type(c) is (int if c.denominator == 1 else Q) for c in got)


@FIELD_SETTINGS
@given(
    st.lists(fractions, min_size=2, max_size=2),
    st.lists(st.lists(fractions, min_size=2, max_size=2), min_size=2, max_size=2),
    st.lists(st.lists(fractions, min_size=2, max_size=2), min_size=6, max_size=6),
)
def test_two_level_product_matches_sympy_reduction(sp, low0, low1, entries):
    # an element of Q(x)(y) with deg x = 2, deg y = 3 is three pairs over Q(x)
    lv0 = rational_level("x", low0)
    lv1 = Level(name="y", minpoly=tuple(tuple(c) for c in low1) + ((Q(-1, 2), Q(3)), (Q(1), Q(0))), degree=3)
    t = Tower((lv0, lv1))
    a, b = tuple(map(tuple, entries[:3])), tuple(map(tuple, entries[3:]))
    got = (ExtElem(t, a) * ExtElem(t, b)).rep
    x, y = sp.symbols("x y")

    def expr(rep):
        return sum(sympy_expr(sp, c, x) * y**j for j, c in enumerate(rep))

    m0 = sympy_expr(sp, list(low0) + [Q(1)], x)
    m1 = expr(lv1.minpoly)
    # {m1, m0} is a lex (y > x) Groebner basis: its leading terms y^3 and
    # x^2 are coprime, so the remainder is the unique reduced form
    _, want = sp.reduced(sp.expand(expr(a) * expr(b)), [m1, m0], y, x, order="lex")
    want = sp.Poly(want, y, x, domain="QQ")
    assert got == tuple(
        tuple(Q(int(c.p), int(c.q)) for c in (want.coeff_monomial(y**j * x**i) for i in range(2)))
        for j in range(3)
    )


@FIELD_SETTINGS
@given(st.integers(2, 4).flatmap(
    lambda d: st.tuples(st.lists(fractions, min_size=d, max_size=d), st.lists(fractions, min_size=d, max_size=d))
), st.booleans())
def test_value_charpoly_matches_sympy_resultant(sp, data, rational):
    # the characteristic polynomial of e is the norm of y - e, which is
    # Res_x(m(x), y - e(x)) for the monic modulus m; a rational element
    # gives (y - e0)^d.  The norm is a resultant over Q, so the modulus
    # need not be irreducible.
    low, coords = data
    if rational:
        coords = coords[:1] + [Q(0)] * (len(coords) - 1)
    t = Tower((rational_level("x", low),))
    e = ExtElem(t, tuple(int(c) if c.denominator == 1 else c for c in coords))
    x, y = sp.symbols("x y")
    want = sp.resultant(sympy_expr(sp, list(low) + [Q(1)], x), y - sympy_expr(sp, coords, x), x)
    assert list(value_charpoly(e).coeffs) == sympy_coeffs(sp, want, y, 0)



# ---------------------------------------------------------------------------
# Trager's norm: resultants by Euclid against sympy and Gaussian elimination
# ---------------------------------------------------------------------------

def root_2_tower(levels):
    """Q(2^(1/2), 2^(1/4), ...) with ``levels`` levels, t0^2 = 2 and
    t_k^2 = t_(k-1), each certified on adjoining."""
    tower, root = certified_level(-2, 0, 1)
    for _ in range(levels - 1):
        tower, root = adjoin_root(tower, quadratic_over(tower, 0, -root))
    return tower


TOWERS = {n: root_2_tower(n) for n in (1, 2, 3)}
SQRT2 = TOWERS[1]


def poly_over(tower, coords):
    """A UniPoly in x over the one-level ``tower`` from coordinate pairs
    (a, b) meaning a + b t0."""
    return UniPoly([ExtElem(tower, tuple(exact._canon(Q(c)) for c in pair)) for pair in coords], tower=tower)


def sympy_res_x(sp, f, g, x):
    """Res(f, g) by sympy's ``resultant`` with the operands ordered by
    degree, Res(f, g) = (-1)^(deg f deg g) Res(g, f): for deg f < deg g it
    gives Res(g, f) instead (sympy 1.14: -1 on x + 1 and x^3 + 2, whose
    Sylvester determinant is 1)."""
    m, n = sp.degree(f, x), sp.degree(g, x)
    if m >= n:
        return sp.resultant(f, g, x)
    return (-1) ** (m * n) * sp.resultant(g, f, x)


polys_over_q = st.lists(fractions, max_size=5)
polys_over_sqrt2 = st.lists(st.tuples(fractions, fractions), max_size=4)


@FIELD_SETTINGS
@given(polys_over_q.filter(any), polys_over_q)
def test_field_resultant_matches_sympy_over_q(sp, f, g):
    x = sp.Symbol("x")
    want = sympy_res_x(sp, sympy_expr(sp, f, x), sympy_expr(sp, g, x), x)
    assert exact._field_resultant(UniPoly(f), UniPoly(g)) == Q(int(want.p), int(want.q))


@FIELD_SETTINGS
@given(polys_over_sqrt2.filter(lambda f: any(map(any, f))), polys_over_sqrt2)
def test_field_resultant_matches_sympy_over_sqrt2(sp, f, g):
    # the resultant is a polynomial in the coefficients, so it commutes
    # with sending the symbol s to t0: reduce sympy's mod s^2 - 2
    x, r2 = sp.symbols("x s")

    def expr(coords):
        return sum(sympy_expr(sp, pair, r2) * x**i for i, pair in enumerate(coords))

    want = sp.rem(sp.expand(sympy_res_x(sp, expr(f), expr(g), x)), r2**2 - 2, r2)
    got = exact._field_resultant(poly_over(SQRT2, f), poly_over(SQRT2, g))
    assert SQRT2.coerce(got).rep == tuple(sympy_coeffs(sp, want, r2, 2))


@pytest.mark.parametrize("f, g, want", [
    ([1, 0, 1], [], 0),  # g = 0
    ([1, 0, 1], [3], 9),  # a constant g: 3^deg f
    ([1, 1, 0, 1], [0, 1], -1),  # odd x odd: the sign flips
    ([1, 1, 0, 1], [-2, 0, 0, 1], -29),
    ([-2, 0, 0, 1], [1, 1, 0, 1], 29),
    ([1, 1, 0, 1], [-2, 0, 1], -17),
    ([-2, 0, 1], [1, 1, 0, 1], -17),  # deg f < deg g
    ([1, 1], [2, 0, 0, 1], 1),  # (x^3 + 2)(-1)
    ([-1, 0, 1], [1, 1], 0),  # a common factor x + 1
])
def test_field_resultant_edge_cases(f, g, want):
    assert exact._field_resultant(UniPoly(f), UniPoly(g)) == want


def ref_field_det(rows):
    """The determinant of a square matrix over Q or over a tower by
    Gaussian elimination."""
    m = [list(row) for row in rows]
    det = 1
    for k in range(len(m)):
        pivot = next((i for i in range(k, len(m)) if not exact.f_is_zero(m[i][k])), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det = det * m[k][k]
        inv = exact.f_inv(m[k][k])
        for row in m[k + 1:]:
            f = row[k] * inv
            for j in range(k + 1, len(m)):
                row[j] = row[j] - f * m[k][j]
    return det


def ref_norm(h, base):
    """N_{K/K'}(h) by its definition: its value at x is the determinant of
    multiplication by h(x) on K over K' = ``base``, whose columns are the
    coordinates of h(x) t^j, and the values are interpolated by Lagrange."""
    tower = h.tower
    d = tower.levels[-1].degree
    t = tower.generator(len(base.levels))
    over = None if base.is_trivial() else base
    nodes = list(range(h.degree() * d + 1))
    out = UniPoly([], var=h.var, tower=over)
    for x in nodes:
        a = tower.zero()
        for c in reversed(h.coeffs):
            a = a * x + c
        cols = []
        for _ in range(d):
            cols.append([c if over is None else ExtElem(over, c) for c in a.rep])
            a = a * t
        basis = UniPoly([exact.field_one(over)], var=h.var, tower=over)
        for y in nodes:
            if y != x:
                basis = basis * UniPoly([Q(-y, x - y), Q(1, x - y)], var=h.var)
        out = out + basis * ref_field_det(cols)
    return out


@pytest.mark.parametrize("levels", sorted(TOWERS))
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(degree=st.integers(1, 2), data=st.data())
def test_norm_matches_gaussian_elimination(levels, degree, data):
    # the norm over the tower below the top level, as a resultant with the
    # top modulus, against the determinant of multiplication
    tower = TOWERS[levels]
    base = Tower(tower.levels[:-1])
    size = tower.degree()
    gens = [tower.generator(i) for i in range(levels)]
    basis = [tower.one()]
    for g, lv in zip(gens, tower.levels):
        basis = [b * g**k for k in range(lv.degree) for b in basis]
    coeffs = []
    for _ in range(degree):
        drawn = data.draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
        coeffs.append(sum((c * b for c, b in zip(drawn, basis)), tower.zero()))
    h = UniPoly(coeffs + [tower.one()], tower=tower)
    assert exact._norm(h) == ref_norm(h, base)


def test_value_charpoly_at_degree_16_needs_no_stride():
    # the Sylvester matrix is 31 x 31 with entries in Q[y] only: packed
    # without an assignment search (2^31 column subsets), it takes
    # milliseconds
    rng = random.Random(16)
    low = [Q(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(16)]
    t = Tower((rational_level("x", low),))
    coords = [Q(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(16)]
    e = ExtElem(t, tuple(int(c) if c.denominator == 1 else c for c in coords))
    modulus = {(0, k): c for k, c in enumerate(t.levels[0].minpoly) if c}
    shifted = {(0, k): -c for k, c in enumerate(e.rep) if c}
    shifted[(1, 0)] = 1
    start = time.perf_counter()
    charpoly = exact._sylvester_resultant(modulus, shifted, "y")
    assert time.perf_counter() - start < 1.0
    assert charpoly.degree() == 16 and charpoly.coeffs[-1] == 1
    assert horner(charpoly, e).is_zero()  # Cayley-Hamilton
    assert value_charpoly(e) == charpoly


# ---------------------------------------------------------------------------
# the Sylvester resultant on the packed determinant
# ---------------------------------------------------------------------------

def in_s(*ascending):
    return UniPoly([Q(c) for c in ascending], var="s")


def sr_terms(rows):
    """Rows in s by ascending power of r as a term dict {(s-exponent, r-exponent): c}."""
    return {(i, j): c for j, p in enumerate(rows) for i, c in enumerate(p.coeffs) if c}


def sympy_resultant(sp, a, b):
    """Res_r(a, b) by sympy, as canonical coefficients ascending in s."""
    s, r = sp.symbols("s r")

    def expr(rows):
        return sum(sympy_expr(sp, p.coeffs, s) * r**j for j, p in enumerate(rows))

    want = sp.resultant(expr(a), expr(b), r)
    coeffs = sympy_coeffs(sp, want, s, 0) if want != 0 else []
    return [c.numerator if c.denominator == 1 else c for c in coeffs]


@pytest.mark.parametrize(
    "a, b",
    [
        # la = 210 for a, lb = 36 for b: the scale la^2 lb^2
        ([in_s(Q(1, 6), 1), in_s(0, Q(-5, 7)), in_s(Q(2, 5))], [in_s(3, Q(1, 4)), in_s(Q(-7, 9)), in_s(1, 0, 2)]),
        # degrees 3 and 1: la^1 lb^3
        ([in_s(Q(1, 2)), in_s(0, 1), in_s(), in_s(Q(-3, 8))], [in_s(Q(5, 3), Q(1, 3)), in_s(2)]),
        # m = 0: a constant in r gives a0^n, scaled by la^2 only
        ([in_s(Q(1, 3), 0, Q(2, 5))], [in_s(1), in_s(Q(1, 7), 1), in_s(4)]),
        # integral inputs stay ints
        ([in_s(-2, 1), in_s(1)], [in_s(0, 3), in_s(5, -1), in_s(1)]),
    ],
    ids=["2x2-mixed-denominators", "3x1", "m=0", "integral"],
)
def test_sylvester_resultant_matches_sympy(sp, a, b):
    got = exact._sylvester_resultant(sr_terms(a), sr_terms(b), "s")
    assert got.var == "s"
    assert list(got.coeffs) == sympy_resultant(sp, a, b)
    assert all(type(c) is int or c.denominator != 1 for c in got.coeffs)


def test_sylvester_resultant_of_a_common_factor_is_zero(sp):
    # (r - s/2)(r + 1/3) and (r - s/2)(2 r - 5/4) share the root r = s/2
    a = [in_s(0, Q(-1, 6)), in_s(Q(1, 3), Q(-1, 2)), in_s(1)]
    b = [in_s(0, Q(5, 8)), in_s(Q(-5, 4), -1), in_s(2)]
    assert exact._sylvester_resultant(sr_terms(a), sr_terms(b), "s").is_zero()
    assert sympy_resultant(sp, a, b) == []


def certified(p):
    p.certified_irreducible = True
    return p


def count_inverses(monkeypatch):
    calls = []
    inner = exact._inv

    def counting(levels, a):
        calls.append(len(levels))
        return inner(levels, a)

    monkeypatch.setattr(exact, "_inv", counting)
    return calls


def test_ensure_regular_computes_no_inverse_over_a_certified_field(monkeypatch):
    # every level is certified, flagged or not, so a nonzero coefficient is
    # a unit: reading a profile's leading entries inverts nothing
    t, theta = adjoin_root(QQ_TOWER, certified(poly(-2, 0, 1)))
    t2, rho = adjoin_root(QQ_TOWER, poly(-2, 0, 1))
    calls = count_inverses(monkeypatch)
    for x in (theta, rho):
        terms = {(1, 0): x + 1, (3, 0): x, (0, 1): x * 2}
        assert coeff_profile(terms, terms).p == {0: (1, x + 1), 1: (0, x * 2)}
    assert calls == []


def test_ensure_regular_splits_on_zero_divisor_modulo_presumed_product():
    # (x^2 - 2)(x^2 - 3) has no rational root, but it is not adjoined: its
    # factors are, and theta^2 - 2 is zero at one root and a unit at the other
    with pytest.raises(ExactError):
        adjoin_root(QQ_TOWER, poly(6, 0, -5, 0, 1))
    roots = factor_roots(poly(6, 0, -5, 0, 1))
    assert [r.value.tower.levels[0].minpoly for r in roots] == [(-3, 0, 1), (-2, 0, 1)]
    assert [(r.value * r.value - 2).is_zero() for r in roots] == [False, True]


def test_adjoin_certified_polynomial_over_an_extension_is_presumed():
    # x^2 - 2 is irreducible over Q but splits over Q(sqrt 2): its flag,
    # set over Q, does not certify it there, and the norm finds the split
    t, theta = adjoin_root(QQ_TOWER, certified(poly(-2, 0, 1)))
    with pytest.raises(ExactError, match="not certified irreducible"):
        adjoin_root(t, certified(poly(-2, 0, 1)))
    with pytest.raises(ExactError, match="not certified irreducible"):
        adjoin_root(t, UniPoly([t.from_fraction(Q(-2)), t.zero(), t.one()], tower=t))


# ---------------------------------------------------------------------------
# rational operands: componentwise arithmetic against the generic reduction
# ---------------------------------------------------------------------------

def ref_zero(levels):
    return Q(0) if not levels else tuple(ref_zero(levels[:-1]) for _ in range(levels[-1].degree))


def ref_const(levels, q):
    """q embedded in the tower: q in the constant slot, zeros elsewhere."""
    if not levels:
        return Q(q)
    return (ref_const(levels[:-1], q),) + ref_zero(levels)[1:]


def ref_add(levels, a, b):
    return a + b if not levels else tuple(ref_add(levels[:-1], x, y) for x, y in zip(a, b))


def ref_neg(levels, a):
    return -a if not levels else tuple(ref_neg(levels[:-1], x) for x in a)


def ref_mul(levels, a, b):
    """Schoolbook product of nested representations, then the top modulus
    reduces the high powers one by one."""
    if not levels:
        return a * b
    sub, level = levels[:-1], levels[-1]
    d = level.degree
    prod = [ref_zero(sub)] * (2 * d - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = ref_add(sub, prod[i + j], ref_mul(sub, x, y))
    for i in range(2 * d - 2, d - 1, -1):
        top = prod[i]
        for j in range(d):
            prod[i - d + j] = ref_add(sub, prod[i - d + j], ref_neg(sub, ref_mul(sub, top, level.minpoly[j])))
    return tuple(prod[:d])


def oracle_towers():
    """Q(sqrt 2), Q(cbrt 2) and Q(sqrt 2)(y), y^2 = sqrt 2, the last level
    certified by its norm y^4 - 2."""
    sqrt2, theta = adjoin_root(QQ_TOWER, poly(-2, 0, 1))
    cbrt2, _ = adjoin_root(QQ_TOWER, poly(-2, 0, 0, 1))
    two_level, _ = adjoin_root(sqrt2, UniPoly([-theta, sqrt2.zero(), sqrt2.one()], tower=sqrt2))
    return {"sqrt2": sqrt2, "cbrt2": cbrt2, "two-level": two_level}


ORACLE_TOWERS = oracle_towers()
rationals = st.one_of(st.integers(-6, 6), fractions)


def random_rep(draw, levels):
    if not levels:
        return draw(fractions)
    return tuple(random_rep(draw, levels[:-1]) for _ in range(levels[-1].degree))


def flat_leaves(rep):
    return [rep] if not isinstance(rep, tuple) else [v for c in rep for v in flat_leaves(c)]


@FIELD_SETTINGS
@given(st.sampled_from(sorted(ORACLE_TOWERS)), st.data())
def test_rational_operand_arithmetic_matches_generic_reduction(name, data):
    t = ORACLE_TOWERS[name]
    levels = t.levels
    x = ExtElem(t, random_rep(data.draw, levels))
    q = data.draw(rationals)
    qrep = ref_const(levels, q)
    cases = {
        "x*q": (x * q, ref_mul(levels, x.rep, qrep)),
        "q*x": (q * x, ref_mul(levels, qrep, x.rep)),
        "x+q": (x + q, ref_add(levels, x.rep, qrep)),
        "q+x": (q + x, ref_add(levels, qrep, x.rep)),
        "x-q": (x - q, ref_add(levels, x.rep, ref_neg(levels, qrep))),
        "q-x": (q - x, ref_add(levels, qrep, ref_neg(levels, x.rep))),
    }
    # an operand of the tower whose non-constant components vanish: a
    # rational, or over the two-level tower an element of the level below
    low = ref_const(levels[:-1], q) if len(levels) == 1 else random_rep(data.draw, levels[:-1])
    y = ExtElem(t, (low,) + ref_zero(levels)[1:])
    cases["x*y"] = (x * y, ref_mul(levels, x.rep, y.rep))
    cases["y*x"] = (y * x, ref_mul(levels, y.rep, x.rep))
    for label, (got, want) in cases.items():
        assert got.tower == t, label
        assert got.rep == want, label
        assert all(type(v) in (int, Q) for v in flat_leaves(got.rep)), label


# ---------------------------------------------------------------------------
# tower arithmetic against a Fraction-only reference
# ---------------------------------------------------------------------------

def fraction_rep(rep):
    """The same element with every rational coordinate a Fraction."""
    return Q(rep) if not isinstance(rep, tuple) else tuple(fraction_rep(c) for c in rep)


def fraction_levels(levels):
    return tuple(Level(name=lv.name, minpoly=fraction_rep(lv.minpoly), degree=lv.degree) for lv in levels)


def canonical_rep(rep):
    """Integral coordinates as ints, the others as Fractions."""
    if isinstance(rep, tuple):
        return tuple(canonical_rep(c) for c in rep)
    return rep.numerator if rep.denominator == 1 else rep


def assert_canonical(rep):
    for v in flat_leaves(rep):
        assert type(v) in (int, Q), v
        assert type(v) is (int if v.denominator == 1 else Q), v


class RefSplit(Exception):
    def __init__(self, level, g, h):
        super().__init__(level)
        self.level, self.g, self.h = level, g, h


def ref_is_zero(levels, a):
    return a == 0 if not levels else all(ref_is_zero(levels[:-1], c) for c in a)


def ref_sub(levels, a, b):
    return ref_add(levels, a, ref_neg(levels, b))


def ref_reduce(levels, coeffs):
    """A coefficient list modulo the top modulus, highest power first."""
    sub, level = levels[:-1], levels[-1]
    d = level.degree
    work = list(coeffs) + [ref_zero(sub)] * max(d - len(coeffs), 0)
    for i in range(len(work) - 1, d - 1, -1):
        for j in range(d):
            work[i - d + j] = ref_sub(sub, work[i - d + j], ref_mul(sub, work[i], level.minpoly[j]))
    return tuple(work[:d])


def ref_polydeg(sub, coeffs):
    return max((i for i, c in enumerate(coeffs) if not ref_is_zero(sub, c)), default=-1)


def ref_polydivmod(sub, num, den):
    dd = ref_polydeg(sub, den)
    lead_inv = ref_inv(sub, den[dd])
    rem = list(num)
    dn = ref_polydeg(sub, rem)
    quot = [ref_zero(sub)] * max(dn - dd + 1, 0)
    while dn >= dd:
        c = ref_mul(sub, rem[dn], lead_inv)
        quot[dn - dd] = c
        for j in range(dd + 1):
            rem[dn - dd + j] = ref_sub(sub, rem[dn - dd + j], ref_mul(sub, c, den[j]))
        dn = ref_polydeg(sub, rem)
    return quot, rem


def ref_inv(levels, a):
    """Extended Euclid between the modulus and a at every level, rational
    elements included; raises RefSplit with the monic factors g, h of a
    modulus that a zero divisor splits."""
    if not levels:
        return Q(1) / a
    if ref_is_zero(levels, a):
        raise ZeroDivisionError
    sub, level = levels[:-1], levels[-1]
    r0, r1 = list(level.minpoly), list(a)
    t0, t1 = [ref_zero(sub)], [ref_const(sub, 1)]
    while ref_polydeg(sub, r1) >= 0:
        q, r = ref_polydivmod(sub, r0, r1)
        prod = [ref_zero(sub)] * (len(q) + len(t1) - 1)
        for i, x in enumerate(q):
            for j, y in enumerate(t1):
                prod[i + j] = ref_add(sub, prod[i + j], ref_mul(sub, x, y))
        n = max(len(t0), len(prod))
        t0 = t0 + [ref_zero(sub)] * (n - len(t0))
        prod = prod + [ref_zero(sub)] * (n - len(prod))
        r0, r1 = r1, r
        t0, t1 = t1, [ref_sub(sub, v, w) for v, w in zip(t0, prod)]
    g_deg = ref_polydeg(sub, r0)
    if g_deg == 0:
        c_inv = ref_inv(sub, r0[0])
        return ref_reduce(levels, [ref_mul(sub, c, c_inv) for c in t0])
    lead_inv = ref_inv(sub, r0[g_deg])
    g = [ref_mul(sub, c, lead_inv) for c in r0[: g_deg + 1]]
    h, _ = ref_polydivmod(sub, list(level.minpoly), g)
    raise RefSplit(len(levels) - 1, tuple(g), tuple(h))


ARITH_TOWERS = dict(
    ORACLE_TOWERS,
    # a root of 3 w^2 + 2 w + 2: the reduction table has denominator 3
    nonintegral=adjoin_root(QQ_TOWER, poly(Q(2, 3), Q(2, 3), 1))[0],
)


def draw_element(draw, t):
    """A canonical element of t; every third one is rational."""
    rep = canonical_rep(random_rep(draw, t.levels))
    if draw(st.integers(0, 2)) == 0:
        rep = canonical_rep(ref_const(t.levels, flat_leaves(rep)[0]))
    return ExtElem(t, rep)


def test_arithmetic_oracle_towers_cover_a_reduction_denominator():
    assert ARITH_TOWERS["nonintegral"].levels[0].reduction[1] == 3
    assert ARITH_TOWERS["sqrt2"].levels[0].reduction[1] == 1


@FIELD_SETTINGS
@given(st.sampled_from(sorted(ARITH_TOWERS)), st.data())
def test_tower_arithmetic_matches_fraction_reference(name, data):
    t = ARITH_TOWERS[name]
    levels = fraction_levels(t.levels)
    x, y = draw_element(data.draw, t), draw_element(data.draw, t)
    q = data.draw(rationals)
    fx, fy, fq = fraction_rep(x.rep), fraction_rep(y.rep), ref_const(levels, q)
    cases = {
        "x+y": (x + y, ref_add(levels, fx, fy)),
        "x-y": (x - y, ref_sub(levels, fx, fy)),
        "-x": (-x, ref_neg(levels, fx)),
        "x*y": (x * y, ref_mul(levels, fx, fy)),
        "x+q": (x + q, ref_add(levels, fx, fq)),
        "q-x": (q - x, ref_sub(levels, fq, fx)),
        "x*q": (x * q, ref_mul(levels, fx, fq)),
    }
    if not ref_is_zero(levels, fx):
        inv = ref_inv(levels, fx)
        cases["1/x"] = (x.inverse(), inv)
        cases["q/x"] = (q / x, ref_mul(levels, fq, inv))
        cases["x*x^-1"] = (x * x.inverse(), ref_const(levels, 1))
    else:
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    if q != 0:
        cases["x/q"] = (x / q, ref_mul(levels, fx, ref_const(levels, 1 / Q(q))))
    for label, (got, want) in cases.items():
        assert all(type(v) is Q for v in flat_leaves(want)), label
        assert got.tower == t, label
        assert got.rep == want, label
        assert_canonical(got.rep)


def test_tower_constructors_give_int_coordinates():
    for t in ARITH_TOWERS.values():
        for e in (t.zero(), t.one(), t.from_fraction(Q(6, 3)), t.from_fraction(Q(1, 2)), t.generator(0)):
            assert_canonical(e.rep)
        for lv in t.levels:
            assert_canonical(lv.minpoly)
    assert ARITH_TOWERS["sqrt2"].from_fraction(Q(4, 2)).rep == (2, 0)
    assert type(ARITH_TOWERS["sqrt2"].from_fraction(Q(4, 2)).as_fraction()) is Q


# ---------------------------------------------------------------------------
# the inverse at a level over Q: Cramer's rule on Z against extended Euclid
# ---------------------------------------------------------------------------

def level_over_q(low):
    """The level Q[x]/(x^d + ... + low[0]) with canonical coordinates, as
    ``adjoin_root`` builds it, but built directly: its modulus may be
    reducible, and the ring then has zero divisors."""
    return Level(name="t0", minpoly=canonical_rep(tuple(low) + (Q(1),)), degree=len(low))


def euclid_inverse(level, a):
    """The test-local extended Euclid ``ref_inv`` on Fraction coordinates,
    made canonical; raises RefSplit for a zero divisor."""
    return canonical_rep(ref_inv(fraction_levels((level,)), fraction_rep(a)))


def ref_polymul(a, b):
    out = [Q(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


monic_factors = st.integers(1, 2).flatmap(lambda d: st.lists(fractions, min_size=d, max_size=d)).map(
    lambda low: low + [Q(1)]
)


@FIELD_SETTINGS
@given(st.integers(2, 4).flatmap(
    lambda d: st.tuples(st.lists(fractions, min_size=d, max_size=d), st.lists(fractions, min_size=d, max_size=d))
))
def test_inverse_at_a_level_over_q_matches_euclid(data):
    low, coords = data
    level = level_over_q(low)
    a = canonical_rep(tuple(coords))
    if not any(coords):
        with pytest.raises(ZeroDivisionError):
            exact._inv((level,), a)
        return
    try:
        want = euclid_inverse(level, a)
    except RefSplit:
        # a zero divisor of a reducible modulus has no inverse
        with pytest.raises(ZeroDivisionError):
            exact._inv((level,), a)
        return
    got = exact._inv((level,), a)
    assert got == want
    assert_canonical(got)


@FIELD_SETTINGS
@given(monic_factors, monic_factors, st.lists(fractions, min_size=4, max_size=4))
def test_zero_divisor_of_a_product_level_splits_as_euclid_does(f, g, u):
    # m = f g is reducible, so f u mod m is a zero divisor unless it is 0
    m = ref_polymul(f, g)
    level = level_over_q(m[:-1])
    t = Tower((level,))
    a = ref_reduce(fraction_levels((level,)), ref_polymul(f, u[: level.degree]))
    if not any(a):
        return
    with pytest.raises(RefSplit) as want:
        euclid_inverse(level, a)
    with pytest.raises(ZeroDivisionError):
        ExtElem(t, canonical_rep(a)).inverse()
    # factor_univariate, which decides what is adjoined, splits m into the
    # irreducible factors of the two parts that the Euclid split it into
    parts = [f.poly for part in (want.value.g, want.value.h) for f in factor_univariate(UniPoly(list(part)))]
    assert sorted(set(p.coeffs for p in parts)) == sorted(f.poly.coeffs for f in factor_univariate(UniPoly(m)))


def test_zero_divisor_modulo_a_presumed_product_raises_the_factors():
    # (x^2 - 2)(x^2 - 3) has no rational root, but adjoin_root refuses it;
    # on its ring, built directly, a zero divisor has no inverse, and the
    # Euclid's split of the modulus is the factorization that adjoins
    with pytest.raises(ExactError, match="not certified irreducible"):
        adjoin_root(QQ_TOWER, poly(6, 0, -5, 0, 1))
    level = level_over_q([6, 0, -5, 0])
    theta = Tower((level,)).generator(0)
    assert [f.poly.coeffs for f in factor_univariate(poly(6, 0, -5, 0, 1))] == [(-3, 0, 1), (-2, 0, 1)]
    for e, factors in [(theta * theta - 2, ((-2, 0, 1), (-3, 0, 1))), (theta * theta - 3, ((-3, 0, 1), (-2, 0, 1)))]:
        with pytest.raises(ZeroDivisionError):
            e.inverse()
        with pytest.raises(RefSplit) as ref:
            euclid_inverse(level, e.rep)
        assert (ref.value.g, ref.value.h) == factors
    # a unit of the same ring is inverted exactly
    e = theta * theta * theta + theta - 1
    assert e * e.inverse() == 1


def test_euclid_runs_only_for_zero_divisors_and_above_the_first_level(monkeypatch):
    calls = []
    inner = exact._euclid_inverse

    def counting(levels, a):
        calls.append(len(levels) - 1)
        return inner(levels, a)

    monkeypatch.setattr(exact, "_euclid_inverse", counting)
    for name in ("sqrt2", "cbrt2", "nonintegral"):
        x = ARITH_TOWERS[name].generator(0)
        for e in (x, x + 1, x * Q(2, 3) - Q(1, 5)):
            assert e * e.inverse() == 1
    assert calls == []
    # a zero divisor of a ring level built directly fails in Cramer's rule
    theta = Tower((level_over_q([6, 0, -5, 0]),)).generator(0)
    with pytest.raises(ZeroDivisionError):
        (theta * theta - 2).inverse()
    assert calls == []
    y = ARITH_TOWERS["two-level"].generator(1)
    assert y * y.inverse() == 1
    assert calls and set(calls) == {1}


def test_lower_level_split_inside_the_euclid_carries_the_whole_tower():
    # level 0 is Q(i), i^2 = -1, and level 1 adjoins y^2 = i, certified by
    # its norm y^4 + 1; the Euclid at level 1 inverts t0 - 1 of level 0 on
    # the way, and its result lies in the whole tower, as the reference's
    t, x = adjoin_root(QQ_TOWER, poly(1, 0, 1))
    t2, y = adjoin_root(t, UniPoly([-x, t.zero(), t.one()], tower=t))
    e = (t2.generator(0) - 1) * y + 1
    got = e.inverse()
    assert got.tower == t2
    assert fraction_rep(got.rep) == ref_inv(fraction_levels(t2.levels), fraction_rep(e.rep))
    assert e * got == 1


def test_presumed_second_level_splits_at_its_own_level():
    # y^2 - 2 over Q(sqrt 2) factors as (y - t0)(y + t0): it is not
    # adjoined, and factor_roots finds its roots in Q(sqrt 2) itself, the
    # factors that the reference Euclid splits the ring Q(sqrt 2)[y]/(y^2 -
    # 2), built directly, into at its own level
    sqrt2 = ORACLE_TOWERS["sqrt2"]
    m = UniPoly([sqrt2.from_fraction(-2), sqrt2.zero(), sqrt2.one()], tower=sqrt2)
    with pytest.raises(ExactError, match="not certified irreducible"):
        adjoin_root(sqrt2, m)
    t0 = sqrt2.generator(0)
    assert [(r.value, r.note) for r in factor_roots(m, sqrt2)] == [(t0, "tower-linear"), (-t0, "tower-linear")]
    ring = Tower(sqrt2.levels + (Level(name="t1", minpoly=((-2, 0), (0, 0), (1, 0)), degree=2),))
    e = ring.generator(1) - ring.generator(0)
    with pytest.raises(RefSplit) as want:
        ref_inv(fraction_levels(ring.levels), fraction_rep(e.rep))
    assert (want.value.level, want.value.g, want.value.h) == (1, ((0, -1), (1, 0)), ((0, 1), (1, 0)))


# ---------------------------------------------------------------------------
# Yun over Q against a rational Yun
# ---------------------------------------------------------------------------

def ref_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def ref_monic(p):
    return [c / p[-1] for c in p]


def ref_divmod(a, b):
    a = ref_trim(list(a))
    q = [Q(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        c = a[-1] / b[-1]
        k = len(a) - len(b)
        q[k] = c
        for j, v in enumerate(b):
            a[k + j] -= c * v
        ref_trim(a)
    return ref_trim(q), a


def ref_gcd(a, b):
    while b:
        a, b = b, ref_divmod(a, b)[1]
    return ref_monic(a)


def ref_derivative(p):
    return ref_trim([i * c for i, c in enumerate(p)][1:])


def ref_poly_sub(a, b):
    n = max(len(a), len(b))
    return ref_trim([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)])


def rational_yun(p):
    """Yun's algorithm on monic Fraction polynomials with Euclid's gcd."""
    p = ref_monic(ref_trim([Q(c) for c in p]))
    if len(p) < 2:
        return []
    dp = ref_derivative(p)
    g = ref_gcd(p, dp)
    c = ref_divmod(p, g)[0]
    d = ref_poly_sub(ref_divmod(dp, g)[0], ref_derivative(c))
    out = []
    i = 1
    while len(c) > 1:
        h = ref_gcd(c, d)
        if len(h) > 1:
            out.append((h, i))
        c = ref_divmod(c, h)[0]
        d = ref_poly_sub(ref_divmod(d, h)[0], ref_derivative(c))
        i += 1
    return out


nonzero_fractions = fractions.filter(lambda c: c != 0)
squarefree_parts = st.tuples(
    st.integers(1, 3).flatmap(lambda d: st.lists(fractions, min_size=d, max_size=d)),
    nonzero_fractions,
    st.integers(1, 3),
)


@FIELD_SETTINGS
@given(st.lists(squarefree_parts, min_size=1, max_size=3), nonzero_fractions)
def test_yun_over_q_matches_a_rational_yun(parts, scale):
    # scale * prod f^m, each f non-monic with Fraction coefficients
    p = [scale]
    for low, lead, mult in parts:
        for _ in range(mult):
            p = ref_polymul(p, low + [lead])
    want = rational_yun(p)
    for coeffs in (p, canonical_rep(tuple(p))):
        got = UniPoly(coeffs).squarefree_decomposition()
        assert [(list(f.coeffs), m) for f, m in got] == want
        for f, _ in got:
            assert_canonical(f.coeffs)
            assert f.leading() == 1
    # the factors' powers make up the monic input
    prod = [Q(1)]
    for f, m in want:
        for _ in range(m):
            prod = ref_polymul(prod, f)
    assert prod == ref_monic(p)


def test_rational_inverse_and_monic_keep_integral_coefficients_int():
    assert [(type(x), x) for x in (exact.f_inv(1), exact.f_inv(-1), exact.f_inv(Q(1, 3)))] == [
        (int, 1),
        (int, -1),
        (int, 3),
    ]
    assert exact.f_inv(2) == Q(1, 2) and type(exact.f_inv(-2)) is Q
    got = list(UniPoly([2, 0, 1]).monic().coeffs)
    assert got == [2, 0, 1] and all(type(c) is int for c in got)
    assert list(UniPoly([1, 0, 2]).monic().coeffs) == [Q(1, 2), 0, 1]


def types_and_values(p):
    return [(type(c), c) for c in p.coeffs]


def test_scale_monic_and_gcd_keep_integral_products_int():
    assert types_and_values(UniPoly([1, 0, 2]).monic()) == [(Q, Q(1, 2)), (int, 0), (int, 1)]
    assert types_and_values(UniPoly([4, 2, 2]).monic()) == [(int, 2), (int, 1), (int, 1)]
    assert types_and_values(UniPoly([Q(3, 2), Q(1, 2)]).scale(2)) == [(int, 3), (int, 1)]
    # gcd over Q: monic, integral coefficients as ints, the rest as Fractions
    a = UniPoly([2, 3, 1])  # (x + 1)(x + 2)
    assert types_and_values(a.gcd(UniPoly([3, 3]))) == [(int, 1), (int, 1)]
    assert types_and_values(a.gcd(UniPoly([Q(1, 2), 1]) * UniPoly([1, 1]))) == [(int, 1), (int, 1)]
    assert types_and_values(UniPoly([1, 0, 2]).gcd(UniPoly([3, 0, 6]))) == [(Q, Q(1, 2)), (int, 0), (int, 1)]
    assert types_and_values(a.gcd(UniPoly([5, 1]))) == [(int, 1)]


def test_monic_returns_an_already_monic_polynomial_itself():
    p = UniPoly([3, 0, 1])
    assert p.monic() is p
    # an integral Fraction is made an int, so that is a new polynomial
    q = UniPoly([Q(3), 0, 1])
    assert q.monic() is not q and types_and_values(q.monic()) == [(int, 3), (int, 0), (int, 1)]


# ---------------------------------------------------------------------------
# factoring over Q against sympy's factor_list
# ---------------------------------------------------------------------------

# factors of degree 1-4 with small integer coefficients, monic or not; a
# product keeps at most DEFAULT_FACTOR_CAP in degree
small_factors = st.integers(1, 4).flatmap(
    lambda d: st.tuples(st.lists(st.integers(-4, 4), min_size=d, max_size=d), st.sampled_from([1, 1, 2, 3, -2]))
).map(lambda t: t[0] + [t[1]])


@st.composite
def factored_unipolys(draw):
    p = [draw(st.sampled_from([Q(1), Q(-3, 2), Q(5, 4)]))]
    for _ in range(draw(st.integers(1, 4))):
        f = draw(small_factors)
        for _ in range(draw(st.integers(1, 3))):
            if len(p) + len(f) - 2 > exact.DEFAULT_FACTOR_CAP:
                break
            p = ref_polymul(p, [Q(c) for c in f])
    return UniPoly(p)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(factored_unipolys())
def test_factor_univariate_matches_sympy_factor_list(sp, p):
    x = sp.symbols("x")
    _, want = sp.factor_list(sympy_expr(sp, p.coeffs, x), x, domain="QQ")
    want = sorted(
        (sympy_coeffs(sp, sp.Poly(g, x, domain="QQ").monic().as_expr(), x, 0), m) for g, m in want
    )
    got = factor_univariate(p)
    assert sorted((list(f.poly.coeffs), f.multiplicity) for f in got) == want
    for f in got:
        assert f.poly.leading() == 1
        # _Expander and adjoin_root read the certification off the factor
        assert f.poly.certified_irreducible == (f.certified and f.poly.degree() >= 2)
    assert not p.certified_irreducible


@pytest.mark.parametrize(
    "coeffs", [(-2, 1), (-2, 0, 1), (-2, 0, 0, 1), (2, 0, 0, 0, 1), (1, 0, 0, 0, 1), (15, 0, -8, 0, 1)], ids=str
)
@pytest.mark.parametrize("flag", [False, True])
def test_factor_univariate_leaves_the_flag_of_its_input(coeffs, flag):
    # monic and squarefree: the identity shortcut hands p itself to the factorer
    p = UniPoly(coeffs)
    p.certified_irreducible = flag
    factors = factor_univariate(p)
    assert p.certified_irreducible is flag
    for f in factors:
        if f.poly is p:
            assert f.poly.degree() == 1 or not f.certified


# ---------------------------------------------------------------------------
# factoring over a tower by Trager's norm against sympy
# ---------------------------------------------------------------------------

def quadratic_tower(*ds):
    """Q(sqrt d0)(sqrt d1)...: each level t_k^2 - d_k, adjoined by
    ``adjoin_root``, which certifies it."""
    tower = QQ_TOWER
    for d in ds:
        tower, _ = adjoin_root(tower, UniPoly([tower.from_fraction(-d), tower.zero(), tower.one()], tower=tower))
    return tower


TRAGER_TOWERS = {"sqrt%d" % d: quadratic_tower(d) for d in (2, 3, 5, -1, -2)}
TRAGER_TOWERS["sqrt2-sqrt3"] = quadratic_tower(2, 3)


def level_roots(sp, levels):
    """sqrt(d_k) for each level t_k^2 - d_k of ``levels``."""
    return [sp.sqrt(-exact._rational_value(levels[:k], lv.minpoly[0])) for k, lv in enumerate(levels)]


def sympy_value(sp, levels, rep):
    """A coordinate tuple over ``levels`` as a sympy number."""
    if not levels:
        return sp.Rational(rep.numerator, rep.denominator)
    root = level_roots(sp, levels)[-1]
    return sum(sympy_value(sp, levels[:-1], c) * root**i for i, c in enumerate(rep))


@st.composite
def tower_polys(draw):
    """A tower and a monic squarefree polynomial of degree 2 to 4 over it,
    a product of factors of degree 1 or 2 with coordinates in -2..2."""
    tower = TRAGER_TOWERS[draw(st.sampled_from(sorted(TRAGER_TOWERS)))]
    gens = [tower.generator(k) for k in range(len(tower.levels))]
    basis = [tower.one()] + gens + ([gens[0] * gens[1]] if len(gens) == 2 else [])

    def element():
        return sum((b * draw(st.integers(-2, 2)) for b in basis), tower.zero())

    p = UniPoly([tower.one()], tower=tower)
    while p.degree() < 2:
        for _ in range(draw(st.integers(1, 2))):
            low = [element() for _ in range(draw(st.integers(1, 2)))]
            if p.degree() + len(low) <= 4:
                p = p * UniPoly(low + [tower.one()], tower=tower)
    assume(p.gcd(p.derivative()).degree() == 0)
    return tower, p


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(tower_polys())
def test_tower_factor_degrees_match_sympy_factor_list(sp, drawn):
    tower, p = drawn
    factors = exact.split_tower(tower, p, exact.DEFAULT_TOWER_CAP)
    assert all(certified for _, certified in factors)
    product = UniPoly([tower.one()], tower=tower)
    for f, _ in factors:
        assert f.leading() == 1
        product = product * f
    assert product == p
    x = sp.Symbol("x")
    expr = sum(sympy_value(sp, tower.levels, tower.coerce(c).rep) * x**i for i, c in enumerate(p.coeffs))
    _, want = sp.factor_list(sp.expand(expr), x, extension=level_roots(sp, tower.levels))
    assert sorted(f.degree() for f, _ in factors) == sorted(sp.degree(g, x) for g, m in want for _ in range(m))
    # the roots factor_roots gives: a level adjoined for each factor of
    # degree >= 2, which adjoin_root refuses for p itself unless it is one
    roots = factor_roots(p, tower)
    assert sorted(r.factor.degree() for r in roots) == sorted(f.degree() for f, _ in factors)
    assert all(r.note == ("tower-linear" if r.factor.degree() == 1 else "adjoined") for r in roots)
    if len(factors) > 1:
        with pytest.raises(ExactError, match="not certified irreducible"):
            adjoin_root(tower, p)


# ---------------------------------------------------------------------------
# factoring on Z[x] against the Fraction path it replaced, kept here as it
# was: Yun, rational roots and splitting on monic Fraction UniPolys
# ---------------------------------------------------------------------------

def ref_squarefree_decomposition(self):
    """``UniPoly.squarefree_decomposition`` over Q, as it was."""
    p = self.monic()
    if p.degree() == 0:
        return []
    if p.degree() == 1:
        return [(p, 1)]
    dp = p.derivative()
    g = p.gcd(dp)
    if g.degree() == 0:
        return [(p, 1)]
    out = []
    c = p.exact_div(g)
    d = dp.exact_div(g) - c.derivative()
    i = 1
    while c.degree() > 0:
        h = c.gcd(d)
        if h.degree() > 0:
            out.append((h.monic(), i))
        c_next = c.exact_div(h) if h.degree() > 0 else c
        d = (d.exact_div(h) if h.degree() > 0 else d) - c_next.derivative()
        c = c_next
        i += 1
    return out


def ref_int_divisors(n):
    """The positive divisors of n, ascending, by trial division."""
    n = abs(n)
    small = [i for i in range(1, math.isqrt(n) + 1) if n % i == 0]
    return sorted(set(small + [n // i for i in small]))


def ref_rational_roots(p):
    """``rational_roots``, as it was: the rational root theorem's
    candidates, the divisors of the constant term over those of the lead."""
    ints = exact._primitive_int_coeffs(p)
    roots = []
    k = 0
    while ints and ints[0] == 0:
        ints = ints[1:]
        k += 1
    if k:
        roots.append(Q(0))
    if len(ints) <= 1:
        return roots
    a0, an = ints[0], ints[-1]
    seen = set()
    for num in ref_int_divisors(a0):
        for den in ref_int_divisors(an):
            for s in (1, -1):
                cand = Q(s * num, den)
                if cand in seen:
                    continue
                seen.add(cand)
                acc = 0
                den_pow = 1
                for c in reversed(ints):
                    acc = acc * s * num + c * den_pow
                    den_pow *= den
                if acc == 0:
                    roots.append(cand)
    roots.sort()
    return roots


def ref_flagged(f):
    g = UniPoly(f.coeffs, var=f.var, tower=f.tower)
    g.certified_irreducible = True
    return g


def ref_factor_squarefree(p):
    """``_factor_squarefree``, as it was: the Fraction divmod loop."""
    if p.degree() == 0:
        return []
    if p.degree() == 1:
        return [(p, True)]
    pieces = []
    rest = p
    for r in ref_rational_roots(rest):
        lin = UniPoly([exact._canon(-r), 1], var=p.var)
        while True:
            q, rem = rest.divmod(lin)
            if rem.is_zero():
                pieces.append((lin, True))
                rest = q
            else:
                break
    # the rest of degree >= 4 is split and certified by Zassenhaus on both
    # paths, which test_tower_factor_degrees_match_sympy_factor_list and
    # test_factor_univariate_matches_sympy_factor_list check against sympy
    f = rest.monic()
    if f.degree() == 1:
        pieces.append((f, True))
    elif 2 <= f.degree() <= 3:
        pieces.append((ref_flagged(f), True))
    elif f.degree() >= 4:
        for g, certified in exact._zassenhaus(exact._primitive_int_coeffs(f)):
            g = UniPoly([Q(c) for c in g], var=p.var).monic()
            pieces.append((ref_flagged(g), True) if certified else (g, False))
    return pieces


def ref_kronecker_split(ints):
    """The Kronecker search that ``factor_univariate`` ran before Zassenhaus,
    as it was.  Search a nontrivial factor of a squarefree primitive integer polynomial
    by divisor interpolation.  Returns (integer coefficient list, True) for a
    factor found, else (None, full): ``full`` when every candidate of each
    degree 2 to n/2 was tested, and False when a degree was skipped, for
    ``REF_KRONECKER_EFFORT`` or for want of d + 1 nonzero values at |x| <= 40.

    A full search that finds nothing certifies irreducibility when ints has
    no rational root: a reducible ints then has a primitive factor g in Z[x]
    of degree 2 to n/2, each g(x_i) divides ints(x_i), and g is the
    interpolant of those d + 1 values, one of the candidates tested."""
    n = len(ints) - 1
    full = True
    for d in range(2, n // 2 + 1):
        points = []
        x = 0
        while len(points) < d + 1 and abs(x) <= 40:
            v = exact._int_eval(ints, x)
            if v != 0:
                points.append((x, v))
            x = -x + (1 if x <= 0 else 0)
        if len(points) < d + 1:
            return None, False
        divisor_lists = []
        total = 1
        for _, v in points:
            divs = ref_int_divisors(v)
            divs = [s * t for t in divs for s in (1, -1)]
            divisor_lists.append(divs)
            total *= len(divs)
            if total > REF_KRONECKER_EFFORT:
                break
        if total > REF_KRONECKER_EFFORT:
            full = False
            continue

        # the Lagrange basis of the points over one common denominator
        basis = []
        for xi, _ in points:
            num, den = [1], 1
            for xj, _ in points:
                if xj != xi:
                    num = exact._int_poly_mul(num, [-xj, 1])
                    den *= xi - xj
            basis.append((num, den))
        common = math.lcm(*(den for _, den in basis))
        basis = [[c * (common // den) for c in num] for num, den in basis]
        for values in itertools.product(*divisor_lists):
            coeffs = [sum(v * row[k] for v, row in zip(values, basis)) for k in range(d + 1)]
            if any(c % common for c in coeffs):
                continue
            gi = [c // common for c in coeffs]
            while gi and gi[-1] == 0:
                gi.pop()
            if len(gi) - 1 < 1 or len(gi) - 1 >= n:
                continue
            # ints is primitive: by Gauss's lemma gi divides it over Q iff
            # its primitive part divides it in Z[x]
            if exact._int_poly_divexact(ints, exact._int_primitive(gi)) is not None:
                return gi, True
    return None, full


REF_KRONECKER_EFFORT = 20000


def ref_factor_univariate(p):
    """``factor_univariate``, as it was."""
    out = []
    for sf, mult in ref_squarefree_decomposition(p):
        for piece, certified in ref_factor_squarefree(sf):
            out.append(exact.Factor(piece, mult, certified))
    out.sort(key=lambda f: (f.poly.degree(), [exact.as_fraction(c) for c in f.poly.coeffs]))
    return out


# irreducible quartics: Eisenstein, and three that split mod every prime
QUARTICS = [[2, 0, 0, 0, 1], [9, 0, 0, 0, 1], [1, 0, 0, 0, 1], [1, 0, -10, 0, 1]]
small_int_factors = st.integers(1, 3).flatmap(
    lambda d: st.tuples(st.lists(st.integers(-5, 5), min_size=d, max_size=d), st.sampled_from([1, 1, 2, 3, -2]))
).map(lambda t: t[0] + [t[1]])


def times_power(p, f, mult):
    """p times f^m for the largest m <= mult that keeps degree <= 8, and m."""
    m = 0
    while m < mult and len(p) + len(f) - 2 <= 8:
        p = ref_polymul(p, f)
        m += 1
    return p, m


@st.composite
def z_x_products(draw):
    """(ascending coefficients, big): a scaled product of degree <= 8 of
    small factors, x and irreducible quartics, each to a power <= 3, and
    of at most one root a / b with b up to 10^6 to the power ``big``."""
    p = [draw(st.sampled_from([1, -1, 2, -3, Q(-3, 2), Q(5, 4)]))]
    big = 0
    if draw(st.booleans()):
        root = [-draw(st.integers(-(10**6), 10**6)), draw(st.integers(1, 10**6))]
        p, big = times_power(p, root, draw(st.integers(1, 3)))
    for _ in range(draw(st.integers(1, 4))):
        f = draw(st.one_of(small_int_factors, st.just([0, 1]), st.sampled_from(QUARTICS)))
        p, _ = times_power(p, f, draw(st.integers(1, 3)))
    return p, big


def typed(p):
    return [(type(c), c) for c in p.coeffs]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(z_x_products(), st.booleans())
def test_factoring_on_z_x_matches_the_fraction_path(drawn, as_fractions):
    coeffs, big = drawn
    if as_fractions:
        coeffs = [Q(c) for c in coeffs]
    p = UniPoly(coeffs)
    got, want = factor_univariate(p), ref_factor_univariate(p)
    assert [(typed(f.poly), f.multiplicity, f.certified, f.poly.certified_irreducible) for f in got] == [
        (typed(f.poly), f.multiplicity, f.certified, f.poly.certified_irreducible) for f in want
    ]
    got = [(typed(f), m) for f, m in p.squarefree_decomposition()]
    assert got == [(typed(f), m) for f, m in ref_squarefree_decomposition(p)]
    # the old divisor search on a big root's power takes seconds: its
    # squarefree part has the same roots
    ref_input = p if big <= 1 else squarefree_part(p)
    assert [r for r, _ in rational_roots_with_multiplicities(p)] == ref_rational_roots(ref_input)


def sympy_rational_roots(sp, ints):
    """{root: multiplicity} of the rational roots of an int list, by sympy."""
    x = sp.symbols("x")
    roots = sp.roots(sp.Poly(list(reversed(ints)), x), filter="Q")
    return {Q(int(r.p), int(r.q)): m for r, m in roots.items()}


@pytest.mark.parametrize(
    "ints",
    [
        # (241193 x + 536445)(999983 x - 123457)(x - 4)
        exact._int_poly_mul(exact._int_poly_mul([536445, 241193], [-123457, 999983]), [-4, 1]),
        # 3 x^2 + c0 with a 40-digit c0: no rational root, and no divisor of
        # c0 is listed (trial division to its square root never ends)
        [10**39 + 7, 0, 3],
        # (3 x - (10^40 + 1))^2 (7 x + 2) (x^2 + 10^40 + 3)
        exact._int_poly_mul(
            exact._int_poly_mul([-(10**40 + 1), 3], [-(10**40 + 1), 3]),
            exact._int_poly_mul([2, 7], [10**40 + 3, 0, 1]),
        ),
        # 10^40 x^3 - 1: the root 10^(-40/3) is not rational
        [-1, 0, 0, 10**40],
    ],
    ids=["three-roots", "no-root", "double-40-digit-root", "big-lead"],
)
def test_rational_roots_of_large_coefficients_match_sympy(ints):
    sp = pytest.importorskip("sympy")
    start = time.perf_counter()
    got = dict(rational_roots_with_multiplicities(UniPoly(ints)))
    assert time.perf_counter() - start < 1
    assert got == sympy_rational_roots(sp, ints)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.tuples(st.integers(-(10**25), 10**25), st.integers(1, 10**6), st.integers(1, 2)), max_size=3),
    st.lists(st.integers(-(10**12), 10**12), min_size=1, max_size=4).filter(lambda c: c[-1]),
)
def test_rational_roots_of_planted_products_match_sympy(planted, rest):
    # products of (b x - a)^m with big a and b and a random rest: every
    # planted root is found, with its multiplicity, and nothing else
    sp = pytest.importorskip("sympy")
    ints = rest
    for a, b, m in planted:
        for _ in range(m):
            ints = exact._int_poly_mul(ints, [-a, b])
    assume(len(ints) > 1)
    assert dict(rational_roots_with_multiplicities(UniPoly(ints), cap=len(ints))) == sympy_rational_roots(sp, ints)


def test_factor_roots_split_rational_roots_before_the_factor_cap():
    # (x - 1)^2 (2 x + 1) (x^8 + 3), degree 11: the roots 1 (twice) and
    # -1/2 come first; the rest x^8 + 3 (Eisenstein at 3) is adjoined at the
    # default cap 8 and is one factor-cap entry at cap 4
    rest = poly(3, 0, 0, 0, 0, 0, 0, 0, 1)
    p = poly(1, -2, 1) * poly(1, 2) * rest
    linear = [(Q(1), 2, "rational", "x - 1"), (Q(-1, 2), 1, "rational", "x + 1/2")]
    roots = factor_roots(p)
    assert [(r.value, r.multiplicity, r.note, str(r.factor)) for r in roots[:2]] == linear
    assert [(r.note, r.factor) for r in roots[2:]] == [("adjoined", rest)]
    roots = factor_roots(p, factor_cap=4)
    assert [(r.value, r.multiplicity, r.note, str(r.factor)) for r in roots[:2]] == linear
    assert [(r.value, r.note, r.factor) for r in roots[2:]] == [(None, "factor-cap", rest.scale(Q(2)))]
    # without a rational root the entry is the polynomial as given
    assert factor_roots(rest.scale(Q(-1)), factor_cap=4) == [exact.Root(None, 1, "factor-cap", rest.scale(Q(-1)))]


def test_rational_roots_need_a_prime_past_the_certification_primes(monkeypatch):
    # prod (x - i) for i = 1 .. 33 has a double root mod every prime of
    # _CERT_PRIMES (33 roots in at most 31 residues), so the roots are
    # found mod 37
    tried = []
    real = exact._primes

    def spy():
        for p in real():
            tried.append(p)
            yield p

    monkeypatch.setattr(exact, "_primes", spy)
    ints = [1]
    for i in range(1, 34):
        ints = exact._int_poly_mul(ints, [-i, 1])
    assert [r for r, _ in rational_roots_with_multiplicities(UniPoly(ints), cap=33)] == list(range(1, 34))
    assert tried == list(exact._CERT_PRIMES) + [37]


@FIELD_SETTINGS
@given(
    st.lists(st.integers(-20, 20), max_size=7),
    st.lists(st.integers(-9, 9), min_size=1, max_size=3),
    st.integers(1, 6),
)
def test_int_pseudo_remainder_is_a_positive_multiple_of_the_remainder(g, low, lead):
    f = low + [lead]
    got = exact._int_poly_prem(g, f)
    want = UniPoly(g) % UniPoly(f)
    assert len(got) == len(want.coeffs)
    if got:
        scale = Q(got[-1]) / want.leading()
        assert scale > 0 and [scale * c for c in want.coeffs] == got


# ---------------------------------------------------------------------------
# gcd over Q when GCDHEU fails: the primitive PRS against sympy
# ---------------------------------------------------------------------------

small_unipolys = st.lists(fractions, max_size=4).map(UniPoly)


@FIELD_SETTINGS
@given(small_unipolys, small_unipolys, small_unipolys)
def test_rational_gcd_prs_fallback_matches_sympy(sp, f, g, h):
    a, b = f * g, f * h
    x = sp.symbols("x")
    want = sp.Poly(sp.gcd(sympy_expr(sp, a.coeffs, x), sympy_expr(sp, b.coeffs, x)), x, domain="QQ")
    calls = []

    def failing(*ints):
        calls.append(ints)
        return None

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "_heuristic_int_gcd", failing)
        got = a.gcd(b)
    if want.is_zero:
        assert got.is_zero()
        return
    assert list(got.coeffs) == sympy_coeffs(sp, want.monic().as_expr(), x, 0)
    assert bool(calls) == (not a.is_zero() and not b.is_zero())


# ---------------------------------------------------------------------------
# inverses of rational elements and zero divisors
# ---------------------------------------------------------------------------

def count_euclid(monkeypatch):
    calls = []
    inner = exact._euclid_inverse

    def counting(levels, a):
        calls.append(len(levels) - 1)
        return inner(levels, a)

    monkeypatch.setattr(exact, "_euclid_inverse", counting)
    return calls


@pytest.mark.parametrize("over_a_ring", [False, True])
def test_rational_element_inverts_to_embedded_rational_inverse(monkeypatch, over_a_ring):
    if over_a_ring:
        # (x^2 - 2)(x^2 - 3), built directly: not a field
        t = Tower((level_over_q([6, 0, -5, 0]),))
    else:
        t, _ = adjoin_root(QQ_TOWER, certified(poly(-2, 0, 1)))
    calls = count_euclid(monkeypatch)
    for q in (Q(3, 4), Q(-2), 5, Q(1, 7)):
        got = t.from_fraction(q).inverse()
        assert got == t.from_fraction(1 / Q(q))
        assert got.rep == t.from_fraction(1 / Q(q)).rep
        assert_canonical(got.rep)
    assert calls == []
    with pytest.raises(ZeroDivisionError):
        t.zero().inverse()
    assert calls == []


def test_rational_element_of_two_level_tower_inverts_without_euclid(monkeypatch):
    t = ARITH_TOWERS["two-level"]
    calls = count_euclid(monkeypatch)
    assert t.from_fraction(Q(-3, 2)).inverse().rep == ((Q(-2, 3), 0), (0, 0))
    with pytest.raises(ZeroDivisionError):
        t.zero().inverse()
    assert calls == []


def test_zero_divisor_over_presumed_tower_splits_like_reference_euclid():
    # the ring of (x^2 - 2)(x^2 - 3), built directly: each zero divisor has
    # no inverse, and the reference Euclid splits the modulus into the
    # factors of factor_univariate, which adjoins those instead
    t = Tower((level_over_q([6, 0, -5, 0]),))
    theta = t.generator(0)
    levels = fraction_levels(t.levels)
    factors = {f.poly.coeffs for f in factor_univariate(poly(6, 0, -5, 0, 1))}
    for e in (theta * theta - 2, theta * theta * 3 - 9, theta * theta * theta - theta * 2):
        with pytest.raises(RefSplit) as want:
            ref_inv(levels, fraction_rep(e.rep))
        with pytest.raises(ZeroDivisionError):
            e.inverse()
        assert want.value.level == 0
        assert {want.value.g, want.value.h} == factors


# ---------------------------------------------------------------------------
# powers of a tower element
# ---------------------------------------------------------------------------

@FIELD_SETTINGS
@given(st.sampled_from((1, 2, 3)), st.data())
def test_pow_matches_repeated_products(levels, data):
    t = TOWERS[levels]
    x = ExtElem(t, random_rep(data.draw, t.levels))
    assume(not x.is_zero())
    want = t.one()
    for n in range(7):
        assert (x**n).rep == want.rep
        want = want * x
    inverse = x.inverse()
    for n in range(1, 4):
        assert (x**-n).rep == (inverse**n).rep
        assert (x**-n * x**n).rep == t.one().rep


def test_square_is_one_tower_product(monkeypatch):
    t = TOWERS[2]
    x = t.generator(1) + t.generator(0) + 1
    calls = []
    real = exact._mul
    # the products of the top level; each reduces through the levels below
    monkeypatch.setattr(
        exact, "_mul", lambda levels, a, b: calls.append(len(levels)) or real(levels, a, b)
    )
    x**2
    assert calls.count(2) == 1
    calls.clear()
    x**5  # squarings of x and x^2, and the product by x for the last bit
    assert calls.count(2) == 3


# ---------------------------------------------------------------------------
# fraction-free elimination: rank, pivots, determinant and kernel
# ---------------------------------------------------------------------------

def echelon_matrices():
    """Derandomized integer matrices: full rank, rank-deficient (a row a
    combination of two others), with a zero column, 0 x n and 1 x 1."""
    rng = random.Random(26)
    out = [[], [[0]], [[7]], [[-3, 0, 5]], [[0, 0], [0, 0]]]
    for _ in range(60):
        n, width = rng.randint(1, 5), rng.randint(1, 6)
        rows = [[rng.choice((0, 0, 1, -1, 2, -3, 5, 12)) for _ in range(width)] for _ in range(n)]
        if n >= 3 and rng.random() < 0.5:
            rows[-1] = [3 * a - 2 * b for a, b in zip(rows[0], rows[1])]
        if rng.random() < 0.3:
            j = rng.randrange(width)
            for row in rows:
                row[j] = 0
        out.append(rows)
    return out


ECHELON_MATRICES = echelon_matrices()


@pytest.mark.parametrize("rows", ECHELON_MATRICES)
def test_int_echelon_matches_sympy(sp, rows):
    width = len(rows[0]) if rows else 4
    got = exact.int_echelon(rows, width)
    matrix = sp.Matrix(rows) if rows else sp.zeros(0, width)
    assert got.rank == matrix.rank()
    assert got.pivots == tuple(sorted(got.pivots)) and len(got.pivots) == got.rank
    if rows:
        # the pivot columns are those of the reduced row echelon form
        assert got.pivots == matrix.rref()[1]
    want = matrix.nullspace()
    assert len(got.kernel) == len(want) == width - got.rank
    for v in got.kernel:
        assert math.gcd(*v) == 1
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)
    if got.kernel:
        assert sp.Matrix(got.kernel).rank() == len(got.kernel)
    if len(rows) == width:
        assert got.det == matrix.det() == exact.bareiss_det(rows)
    else:
        assert got.det is None


def test_int_echelon_with_a_zero_column_and_no_rows():
    got = exact.int_echelon([[0, 2, 4], [0, 1, 2]])
    assert (got.rank, got.pivots, got.det) == (1, (1,), None)
    assert got.kernel == [[1, 0, 0], [0, -2, 1]]
    got = exact.int_echelon([], 3)
    assert (got.rank, got.pivots, got.det) == (0, (), None)
    assert got.kernel == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert exact.int_echelon([], 0).det == exact.bareiss_det([]) == 1


def test_bareiss_det_keeps_the_first_nonzero_pivot():
    # column 0 is zero in row 0: row 1 is the first nonzero entry below, a
    # swap, and every quotient goes through _int_divexact
    assert exact.bareiss_det([[0, 1, 2], [3, 4, 5], [6, 7, 9]]) == -3
    assert exact.bareiss_det([[0, 0], [0, 5]]) == 0
