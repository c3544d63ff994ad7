"""Acceptance suite: one test per exit criterion, exact tolerances.

Each criterion prints one line; `pytest -v` shows the pass/fail verdict per
criterion.  Criterion 3 asserts the computed multiplicity triple
(0, critical, 0) at Lotka-Volterra parameters (a, b, c) = (-1, 0, 0), and that
the critical middle point blocks the finite sum and product bounds.  An older
fixture recorded (0, 1, 0) with sum bound 1 there, which is wrong: the system
dw/dz = w(w+1)/(z(z-1)) has the rational first integral
H = z w/((z-1)(w+1)), so its invariant curves form the pencil
z w - K (z-1)(w+1), and every member passes through (0, -1).  The explicit
one-parameter family w = -1 + z/((1-C) z + C) (C != 0) leaves (0, -1) with
leading coefficient 1/C, so Mul(0, -1) is infinite; the test checks the
family against the equation in plain rational arithmetic.
"""

import random
import time

from fractions import Fraction as Q

import pytest

from pbound.bounds import axis_multiplicity_bound, invariant_line_bound
from pbound.branching import Caps, expand_branches, extend_leaf, multiplicity_at
from pbound.darboux import search_darboux
from pbound.exact import as_fraction
from pbound.lotka import LvParams, classify, lv_equation, lv_multiplicity_triple
from pbound.polyode import (
    BiPoly,
    OdeError,
    bipoly_str,
    affine_map,
    make_system,
)
from puiseux_oracle import residual_valuation

FAST_CAPS = Caps(depth=12, ram=16, tower=8, terms=4)


def bp(entries):
    return BiPoly({(Q(ze), we): Q(c) for (ze, we), c in entries.items()})


def example45(mu):
    return make_system(bp({(2, 0): 1, (0, 1): mu}), bp({(1, 0): 1, (0, 2): 1}))


def lv_sys(a, b, c):
    return lv_equation(LvParams(Q(a), Q(b), Q(c)))


def saddle_line_system():
    return make_system(
        bp({(0, 2): 1, (0, 1): -2, (0, 0): 1, (1, 0): -1}),
        bp({(1, 1): 1}),
    )


def random_bipoly(rng, max_deg, density=0.55):
    terms = {}
    for i in range(max_deg + 1):
        for j in range(max_deg + 1 - i):
            if rng.random() < density:
                coeff = rng.randint(-4, 4)
                if coeff:
                    terms[(Q(i), j)] = Q(coeff)
    p = BiPoly(terms)
    return p if not p.is_zero() else random_bipoly(rng, max_deg, density)


def random_system(rng, max_deg=3):
    while True:
        try:
            return make_system(random_bipoly(rng, max_deg), random_bipoly(rng, max_deg))
        except OdeError:
            continue


# ---------------------------------------------------------------------------
# 1. the worked example at mu = 0: three branches with frozen prefixes
# ---------------------------------------------------------------------------

def test_criterion_1_mu_zero_three_branches():
    t0 = time.time()
    res = multiplicity_at(example45(0), ("point", Q(0), Q(0)))
    elapsed = time.time() - t0
    assert res.status == "finite" and res.count == 3
    branches = sorted(res.branches, key=lambda b: b.terms[0][0])
    ramified, plain = branches
    theta = ramified.terms[0][1]
    assert ramified.terms[0][0] == Q(1, 2)
    assert (theta * theta) == Q(-1)
    assert ramified.terms[1][0] == Q(2)
    assert ramified.terms[1][1] == theta.tower.from_fraction(Q(-1))
    assert ramified.conj_degree == 2
    assert plain.terms[0] == (Q(2), Q(1, 2))
    assert plain.terms[1] == (Q(5), Q(-1, 20))
    assert plain.conj_degree == 1
    assert elapsed < 1.0, "took %.3fs" % elapsed
    print("ACCEPTANCE 1: PASS (mul 3, prefixes exact, %.3fs)" % elapsed)


# ---------------------------------------------------------------------------
# 2. the criticality table over mu
# ---------------------------------------------------------------------------

def test_criterion_2_criticality_table():
    at = lambda mu: multiplicity_at(example45(Q(mu)), ("point", Q(0), Q(0)))

    r = at(Q(3, 2))
    assert r.status == "critical" and r.witness.depth == 0
    assert r.witness.lam_star == Q(3, 2)

    for mu in (Q(3), Q(7, 2)):
        r = at(mu)
        assert r.status == "critical" and r.witness.depth == 1
        assert r.witness.lam_star == mu

    r = at(Q(17, 2))
    assert r.status == "critical"
    assert r.witness.kind == "resonance"
    assert r.witness.lam_star == Q(17, 2)
    assert r.witness.depth >= 3  # resolved after stepping past exponents 5, 8

    r = at(Q(-4))
    assert r.status == "finite" and r.count == 3
    pair = [b for b in r.branches if b.conj_degree == 2]
    assert len(pair) == 1
    theta = pair[0].terms[0][1]
    assert (theta * theta) == Q(-9)

    # mu = 5: outcome frozen from the independent coefficient-solve oracle
    # below: the z^2-branch admits no continuation, two branches survive
    r = at(Q(5))
    assert r.status == "finite" and r.count == 2
    dead = [b for b in r.branches if b.status == "non-algebraic"]
    assert len(dead) == 1 and "resonance-order-hit" in dead[0].flags
    print("ACCEPTANCE 2: PASS (criticality table exact)")


def test_criterion_2_mu_five_oracle():
    # independent oracle: the order-5 blocking coefficient does not depend on
    # the candidate continuation coefficient, so no continuation exists
    sys = example45(Q(5))
    vals = set()
    for c in (Q(-3), Q(-1), Q(0), Q(1, 2), Q(1), Q(7)):
        terms = ((Q(2), Q(-1, 3)),) if c == 0 else ((Q(2), Q(-1, 3)), (Q(5), c))
        vals.add(residual_valuation(sys, terms))
    assert vals == {Q(5)}
    print("ACCEPTANCE 2 (oracle): PASS (mu=5 inconsistency is c-independent)")


# ---------------------------------------------------------------------------
# 3. the reproduction at (-1, 0, 0): the strict curve, the triple
#    (0, critical, 0) and the blocked bounds (see module docstring)
# ---------------------------------------------------------------------------

def test_criterion_3_strict_curve_parts():
    out = classify(LvParams(Q(-1), Q(0), Q(0)))
    assert out.verdict == "strict-curve"
    assert bipoly_str(out.curve.f) == "w - z + 1"
    assert bipoly_str(out.curve.cofactor) in ("z + w", "w + z")
    assert out.curve.strict

    negative = classify(LvParams(Q(-1), Q(5), Q(0)))
    assert negative.verdict == "no-strict-curve"
    search = search_darboux(lv_sys(-1, 5, 0), 1)
    assert [c for c in search.certificates if c.strict] == []
    print("ACCEPTANCE 3 (curve + negative case): PASS")


def _eval_bipoly(poly, z, w):
    """Value of a plain rational BiPoly at rational (z, w), from its terms."""
    total = Q(0)
    for (ze, we), coeff in poly.terms.items():
        assert ze.denominator == 1
        total += coeff * z ** int(ze) * w ** we
    return total


def _lv_family(C):
    """w_C = -1 + z/((1-C) z + C) and its derivative C/((1-C) z + C)^2."""
    den = lambda z: (1 - C) * z + C
    return (lambda z: -1 + z / den(z)), (lambda z: C / den(z) ** 2), den


def test_criterion_3_multiplicity_triple_as_recorded():
    params = LvParams(Q(-1), Q(0), Q(0))
    sys = lv_equation(params)
    at_inf, at_a, at_zero = lv_multiplicity_triple(params)
    assert at_inf.status == "finite" and at_inf.count == 0
    assert at_zero.status == "finite" and at_zero.count == 0
    assert at_a.status == "critical", "Mul(0, -1) reported %r" % at_a.status
    assert at_a.witness.lam_star == 1

    report = axis_multiplicity_bound(sys)
    assert report.sum_bound is None and report.product_bound is None
    assert report.blocked_by is not None and report.blocked_by.label == "-1"
    assert report.blocked_by.mul.status == "critical"
    assert "a critical axis point blocks the finite bounds" in report.notes

    # Independent of the branch engine: each w_C solves Q w' - P = 0.  With
    # D = (1-C) z + C, the residual times D^E is a polynomial in z of degree
    # at most max z-exponent + E, so vanishing at more points proves it zero.
    w_deg = lambda p: max(we for (_, we) in p.terms)
    z_deg = max(int(ze) for p in (sys.P, sys.Q) for (ze, _) in p.terms)
    cleared_degree = z_deg + max(w_deg(sys.P), w_deg(sys.Q) + 2)
    for C in (Q(1), Q(2), Q(-3), Q(1, 2)):
        w, dw, den = _lv_family(C)
        samples = [z for z in (Q(n, 3) for n in range(-12, 13)) if den(z) != 0]
        assert len(samples) > cleared_degree
        for z in samples:
            residual = _eval_bipoly(sys.Q, z, w(z)) * dw(z) - _eval_bipoly(sys.P, z, w(z))
            assert residual == 0, "w_C fails at C = %s, z = %s" % (C, z)
        # every member leaves (0, -1), with leading coefficient 1/C
        assert w(Q(0)) == -1 and dw(Q(0)) == 1 / C

    # the certified strict curve w - z + 1 is the C = 1 member
    curve = classify(params).curve.f
    assert bipoly_str(curve) == "w - z + 1"
    w1, _, _ = _lv_family(Q(1))
    assert all(_eval_bipoly(curve, z, w1(z)) == 0 for z in (Q(-2), Q(0), Q(5, 7)))
    print("ACCEPTANCE 3 (triple): PASS (0, critical, 0), bounds blocked, family verified")


# ---------------------------------------------------------------------------
# 4. finite multiplicity never exceeds max(deg_w P, deg_w Q + 1)
# ---------------------------------------------------------------------------

def test_criterion_4_width_bound_seeded():
    rng = random.Random(20260801)
    finite_seen = 0
    for _ in range(100):
        sys = random_system(rng, 3)
        res = multiplicity_at(sys, ("point", Q(0), Q(0)), FAST_CAPS)
        if res.status != "finite":
            continue
        finite_seen += 1
        n_w, m_w = sys.P.w_degree(), sys.Q.w_degree()
        assert res.count <= max(n_w, m_w + 1)
    assert finite_seen >= 40
    print("ACCEPTANCE 4: PASS (%d finite runs, zero violations)" % finite_seen)


# ---------------------------------------------------------------------------
# 5. shear correspondence with the axis correction
# ---------------------------------------------------------------------------

def test_criterion_5_shear_property_seeded():
    rng = random.Random(4047)
    checked = 0
    corrections = 0
    while checked < 50:
        with_line = rng.random() < 0.4
        a = Q(rng.choice([1, -1, 2, 3, -2]))
        b = Q(rng.choice([0, 1, -1, 2]))
        c = Q(rng.choice([1, -1, 2, -3]))
        if with_line:
            if b == 0:
                b = Q(1)
            q0 = random_bipoly(rng, 2)
            h = random_bipoly(rng, 1)
            line = BiPoly({(Q(0), 1): a, (Q(1), 0): b})
            p = q0.scale(-b / a) + line * h
            if p.is_zero():
                continue
            try:
                sys = make_system(p, q0)
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
        if "critical" in (original.status, moved.status):
            assert original.status == moved.status == "critical"
            continue
        plus = 1 if b != 0 and all(we >= 1 for (_, we) in sheared.P.terms) else 0
        minus = 1 if b != 0 and all(we >= 1 for (_, we) in sys.P.terms) else 0
        corrections += abs(plus - minus)
        assert original.count == moved.count + plus - minus
    assert corrections >= 3
    print("ACCEPTANCE 5: PASS (50 sheared cases, corrections exercised %d times)" % corrections)


# ---------------------------------------------------------------------------
# 6. the residual oracle on every counted branch
# ---------------------------------------------------------------------------

def _assert_residual_growth(sys, tree):
    for leaf in tree.leaves:
        if not leaf.counted or not leaf.terms:
            continue
        terms = extend_leaf(leaf, 8)
        work = sys if leaf.tower is None else sys.map_tower(leaf.tower)
        prev = None
        for t in range(3, 9):
            cut = terms[: min(t, len(terms))]
            val = residual_valuation(work, cut)
            if prev is not None and val is not None and t <= len(terms):
                assert prev is None or val > prev, (
                    "residual valuation stalled: %s then %s" % (prev, val)
                )
            prev = val
            if val is None:
                break


def test_criterion_6_residual_oracle():
    fixtures = [
        example45(0),
        example45(Q(-4)),
        example45(Q(5)),
        saddle_line_system(),
        lv_sys(-1, 5, 0),
    ]
    rng = random.Random(60)
    for _ in range(15):
        fixtures.append(random_system(rng, 2))
    checked = 0
    for sys in fixtures:
        tree = expand_branches(sys, Caps(depth=12, ram=16, tower=8, terms=8))
        if tree.critical is not None:
            continue
        _assert_residual_growth(sys, tree)
        checked += sum(1 for leaf in tree.leaves if leaf.counted)
    assert checked >= 8
    print("ACCEPTANCE 6: PASS (%d counted branches, residual strictly increasing)" % checked)


# ---------------------------------------------------------------------------
# 7. degree bounds on the fixture set
# ---------------------------------------------------------------------------

def test_criterion_7_bounds():
    # invariant-line bound on the Lotka-Volterra system with line z = 0
    line_report = invariant_line_bound(lv_sys(-1, 5, 0), (1, 0, 0))
    assert line_report.line_bound == 6  # M (M+1) with M = 2

    # product bound M(k+1) on the axis form: M = 2, k = 2
    axis_report = axis_multiplicity_bound(lv_sys(-1, 5, 0))
    assert axis_report.m_axis == 2 and axis_report.k == 2
    assert axis_report.product_bound == 6

    # every fixture with a strict certificate respects all reported bounds
    fixture_systems = [
        (saddle_line_system(), (1, 0, 0)),
        (lv_sys(-1, 0, 0), (1, 0, 0)),
        (lv_sys(-2, 0, Q(1, 2)), (1, 0, 0)),
    ]
    non_vacuous = 0
    for sys, line in fixture_systems:
        search = search_darboux(sys, 2)
        strict = [c for c in search.certificates if c.strict]
        if not strict:
            continue
        axis = None
        try:
            axis = axis_multiplicity_bound(sys)
        except Exception:
            axis = None
        try:
            line_rep = invariant_line_bound(sys, line)
        except Exception:
            line_rep = None
        for cert in strict:
            if axis is not None and axis.sum_bound is not None:
                assert cert.w_degree() <= axis.sum_bound
                non_vacuous += 1
            if axis is not None and axis.product_bound is not None:
                assert cert.w_degree() <= axis.product_bound
            if line_rep is not None and line_rep.line_bound is not None:
                assert cert.degree() <= line_rep.line_bound
                non_vacuous += 1
    assert non_vacuous >= 1
    print("ACCEPTANCE 7: PASS (line bound 6, product bound 6, certificates within bounds)")


# ---------------------------------------------------------------------------
# 8. multiplicity at infinity bounded by the axis degree
# ---------------------------------------------------------------------------

def test_criterion_8_infinity_bound_seeded():
    rng = random.Random(91)
    finite_seen = 0
    processed = 0
    while processed < 50:
        p = random_bipoly(rng, 3)
        q0 = random_bipoly(rng, 2)
        qd = q0.shift_z(1)
        try:
            sys = make_system(p, qd)
        except OdeError:
            continue
        processed += 1
        m = int(max(p.total_degree(), qd.total_degree()))
        res = multiplicity_at(sys, ("inf", Q(0)), FAST_CAPS)
        if res.status != "finite":
            continue
        finite_seen += 1
        assert res.count <= m
    assert finite_seen >= 20
    print("ACCEPTANCE 8: PASS (%d finite runs at infinity, zero violations)" % finite_seen)
