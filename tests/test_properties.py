"""Seeded randomized properties tying the modules together."""

import random

from fractions import Fraction as Q

from pbound.branching import Caps, multiplicity_at
from pbound.polyode import (
    BiPoly,
    OdeError,
    affine_map,
    coeff_profile,
    invert_at_infinity,
    make_system,
    translate_point,
)
from pbound.newton import lower_hull, nonzero_char_poly, support_points
from pbound.exact import factor_univariate, as_fraction
from puiseux_oracle import substitute_checked

FAST_CAPS = Caps(depth=12, ram=16, tower=8, terms=4)


def random_bipoly(rng, max_deg, density=0.55, zero_ok=False):
    terms = {}
    for i in range(max_deg + 1):
        for j in range(max_deg + 1 - i):
            if rng.random() < density:
                c = rng.randint(-4, 4)
                if c:
                    terms[(Q(i), j)] = Q(c)
    p = BiPoly(terms)
    if p.is_zero() and not zero_ok:
        return random_bipoly(rng, max_deg, density, zero_ok)
    return p


def random_system(rng, max_deg=3):
    while True:
        P = random_bipoly(rng, max_deg)
        Qd = random_bipoly(rng, max_deg)
        try:
            return make_system(P, Qd)
        except OdeError:
            continue


# ---------------------------------------------------------------------------
# multiplicity is bounded by max(deg_w P, deg_w Q + 1) whenever it is finite
# ---------------------------------------------------------------------------

def test_finite_multiplicity_width_bound_seeded():
    rng = random.Random(20260801)
    finite_seen = 0
    processed = 0
    while processed < 100:
        sys = random_system(rng, 3)
        processed += 1
        res = multiplicity_at(sys, ("point", Q(0), Q(0)), FAST_CAPS)
        if res.status != "finite":
            continue
        finite_seen += 1
        n_w, m_w = sys.P.w_degree(), sys.Q.w_degree()
        assert res.count <= max(n_w, m_w + 1), (
            "width bound violated for %s / %s: %d > max(%d, %d)"
            % (sys.P, sys.Q, res.count, n_w, m_w + 1)
        )
    assert finite_seen >= 40  # the property must actually be exercised


# ---------------------------------------------------------------------------
# shear correspondence: Mul(point) = Mul(sheared origin) + correction
# ---------------------------------------------------------------------------

def _shear_correction(original, sheared, b) -> int:
    """Count difference induced by the shear W = a(w-w0) + b(z-z0).

    With b != 0 the solution mapping onto W == 0 is non-constant upstream
    (+1), while the constant solution w == w0, when it exists, maps to a
    non-constant one downstream (-1).  Both solutions exist exactly when the
    respective numerator vanishes along the axis."""
    if b == 0:
        return 0
    sheared_axis = all(we >= 1 for (_, we) in sheared.P.terms)
    original_axis = all(we >= 1 for (_, we) in original.P.terms)
    return (1 if sheared_axis else 0) - (1 if original_axis else 0)


def test_shear_property_seeded():
    rng = random.Random(4047)
    checked = 0
    exercised_plus_one = 0
    while checked < 50:
        with_line = rng.random() < 0.4
        a = Q(rng.choice([1, -1, 2, 3, -2]))
        b = Q(rng.choice([0, 1, -1, 2]))
        c = Q(rng.choice([1, -1, 2, -3]))
        if with_line:
            # build a system with the invariant line a w + b z = 0 through the
            # origin: zdot = Q0, wdot = (-b/a) Q0 + (a w + b z) H
            if b == 0:
                b = Q(1)
            Q0 = random_bipoly(rng, 2)
            H = random_bipoly(rng, 1, zero_ok=True)
            line = BiPoly({(Q(0), 1): a, (Q(1), 0): b})
            P = Q0.scale(-b / a) + line * H
            if P.is_zero():
                continue
            try:
                sys = make_system(P, Q0)
            except OdeError:
                continue
        else:
            sys = random_system(rng, 2)
        original = multiplicity_at(sys, ("point", Q(0), Q(0)), FAST_CAPS)
        try:
            sheared = affine_map(sys, ((c, 0), (b, a)), (0, 0))
        except OdeError:
            continue
        moved = multiplicity_at(sheared, ("point", Q(0), Q(0)), FAST_CAPS)
        if "capped" in (original.status, moved.status):
            continue
        checked += 1
        if original.status == "critical" or moved.status == "critical":
            assert original.status == moved.status == "critical"
            continue
        correction = _shear_correction(sys, sheared, b)
        exercised_plus_one += abs(correction)
        assert original.count == moved.count + correction, (
            "shear mismatch for %s / %s under (a,b,c)=(%s,%s,%s): %d vs %d + %d"
            % (sys.P, sys.Q, a, b, c, original.count, moved.count, correction)
        )
    assert exercised_plus_one >= 3  # the +1 branch must actually fire


# ---------------------------------------------------------------------------
# multiplicity at infinity bounded by the axis-form degree
# ---------------------------------------------------------------------------

def test_mul_at_infinity_bounded_seeded():
    rng = random.Random(91)
    finite_seen = 0
    processed = 0
    while processed < 50:
        P = random_bipoly(rng, 3)
        Q0 = random_bipoly(rng, 2)
        Qd = Q0.shift_z(1)
        try:
            sys = make_system(P, Qd)
        except OdeError:
            continue
        processed += 1
        m = int(max(P.total_degree(), Qd.total_degree()))
        res = multiplicity_at(sys, ("inf", Q(0)), FAST_CAPS)
        if res.status != "finite":
            continue
        finite_seen += 1
        assert res.count <= m, "Mul(0,inf) = %d > M = %d for %s / %s" % (
            res.count,
            m,
            P,
            Qd,
        )
    assert finite_seen >= 20


# ---------------------------------------------------------------------------
# transforms and diagrams on random systems
# ---------------------------------------------------------------------------

def test_double_infinity_inversion_random():
    rng = random.Random(7)
    for _ in range(20):
        sys = random_system(rng, 3)
        twice = invert_at_infinity(invert_at_infinity(sys))
        assert (sys.P * twice.Q).terms == (twice.P * sys.Q).terms


def test_translated_profile_matches_root_test():
    # translating to (0, a) gives k0 = 0 exactly when a is not a root of
    # P(0, w): the point is singular iff k0 >= 1 (or absent)
    rng = random.Random(13)
    for _ in range(25):
        sys = random_system(rng, 2)
        for a in (Q(0), Q(1), Q(-1), Q(2)):
            moved = translate_point(sys, Q(0), a)
            prof = coeff_profile(moved.P.terms, moved.Q.terms, moved.n)
            p_of_a = sum(
                (c * a**we for (ze, we), c in sys.P.terms.items() if ze == 0),
                Q(0),
            )
            k0 = prof.p.get(0, (None,))[0]
            assert (k0 == 0) == (p_of_a != 0)


def test_edge_roots_are_acceptable_pairs():
    rng = random.Random(23)
    for _ in range(25):
        sys = random_system(rng, 3)
        prof = coeff_profile(sys.P.terms, sys.Q.terms, sys.n)
        diagram = lower_hull(support_points(prof), prof)
        for edge in diagram.edges:
            if not edge.admissible:
                continue
            phi = nonzero_char_poly(edge)
            if phi.degree() < 1:
                continue
            for fac in factor_univariate(phi):
                if fac.poly.degree() != 1:
                    continue
                alpha = -as_fraction(fac.poly.coeffs[0]) / as_fraction(fac.poly.coeffs[1])
                if alpha == 0:
                    continue
                # must not raise: every char-poly root is an acceptable pair
                substitute_checked(sys, edge.lam, alpha)


def test_width_bound_random_diagrams():
    rng = random.Random(37)
    for _ in range(40):
        sys = random_system(rng, 3)
        prof = coeff_profile(sys.P.terms, sys.Q.terms, sys.n)
        diagram = lower_hull(support_points(prof), prof)
        width = sum(e.width for e in diagram.edges if e.admissible)
        n_w, m_w = sys.P.w_degree(), sys.Q.w_degree()
        assert width <= max(m_w + 1, n_w)
