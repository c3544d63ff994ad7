import math
from dataclasses import replace
from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings, strategies as st

import pbound.branching as branching
from pbound.branching import (
    DEFAULT_CAPS,
    Caps,
    _Expander,
    _fold_step,
    _newton,
    closure_check,
    expand_branches,
    extend_leaf,
    multiplicity_at,
    resolve_resonance,
)
from pbound.exact import QQ_TOWER, TowerSplitError, UniPoly, adjoin_root, rational_roots, sort_key
from pbound.newton import first_critical, nonzero_char_poly, vertex_critical_check
from pbound.polyode import (
    BiPoly,
    CoeffProfile,
    OdeError,
    OdeSystem,
    coeff_profile,
    make_system,
    substitute_branch,
    transform_point,
    translate_point,
)
from puiseux_oracle import pair_acceptable, ramification, residual_valuation


def bp(entries):
    return BiPoly({(Q(ze), we): Q(c) for (ze, we), c in entries.items()})


def example45(mu):
    """(z + w^2) w' = z^2 + mu w."""
    return make_system(bp({(2, 0): 1, (0, 1): mu}), bp({(1, 0): 1, (0, 2): 1}))


def lv_system(a, b, c):
    return make_system(
        bp({(1, 1): b, (0, 2): 1, (0, 1): -a}),
        bp({(2, 0): 1, (1, 1): c, (1, 0): -1}),
    )


# ---------------------------------------------------------------------------
# the worked example, mu = 0: three branches
# ---------------------------------------------------------------------------

def test_example45_mu0_multiplicity_three():
    res = multiplicity_at(example45(0), ("point", Q(0), Q(0)))
    assert res.status == "finite"
    assert res.count == 3


def test_example45_mu0_branch_shapes():
    res = multiplicity_at(example45(0), ("point", Q(0), Q(0)))
    branches = sorted(res.branches, key=lambda b: b.terms[0][0])
    ramified = branches[0]
    plain = branches[1]
    assert ramified.conj_degree == 2
    assert ramified.terms[0][0] == Q(1, 2)
    theta = ramified.terms[0][1]
    assert (theta * theta) == Q(-1)
    assert ramified.terms[1] == (Q(2), theta.tower.from_fraction(Q(-1)))

    assert plain.conj_degree == 1
    assert plain.terms[0] == (Q(2), Q(1, 2))
    assert plain.terms[1] == (Q(5), Q(-1, 20))


def test_example45_mu0_closure_via_condition_one():
    sys = example45(0)
    rem = substitute_branch(sys, Q(2), Q(1, 2))
    kind, rho = closure_check(rem, lam_prev=Q(2))
    assert kind == "closed"


def test_resonance_resolution_standalone():
    # each outcome is also the one of the diagram-based loop (reference_resolve)
    # mu = 3: the remainder after (2, -1) is resonant with ratio 3
    rem = substitute_branch(example45(Q(3)), Q(2), Q(-1))
    kind, rho = closure_check(rem, lam_prev=Q(2))
    assert kind == "resonance" and rho == Q(3)
    status, outcome = resolve_resonance(rem, Q(2), rho)
    assert status == "critical"
    assert outcome.lam_star == Q(3)
    assert _resolution_compared((status, outcome)) == _resolution_compared(reference_resolve(rem, Q(2), rho))

    # mu = 5: the resonant order is hit exactly and no continuation exists
    rem5 = substitute_branch(example45(Q(5)), Q(2), Q(-1, 3))
    kind5, rho5 = closure_check(rem5, lam_prev=Q(2))
    assert kind5 == "resonance" and rho5 == Q(5)
    status5, leaf5 = resolve_resonance(rem5, Q(2), rho5)
    assert status5 == "non-algebraic"
    assert "resonance-order-hit" in leaf5.flags
    assert _resolution_compared((status5, leaf5)) == _resolution_compared(reference_resolve(rem5, Q(2), rho5))


# ---------------------------------------------------------------------------
# the criticality table over mu
# ---------------------------------------------------------------------------

def test_mu_three_halves_critical_at_step_zero():
    res = multiplicity_at(example45(Q(3, 2)), ("point", Q(0), Q(0)))
    assert res.status == "critical"
    assert res.witness.kind == "vertex-dominance"
    assert res.witness.lam_star == Q(3, 2)
    assert res.witness.depth == 0


@pytest.mark.parametrize("mu", [Q(3), Q(7, 2)])
def test_mu_in_two_five_critical_at_step_one(mu):
    res = multiplicity_at(example45(mu), ("point", Q(0), Q(0)))
    assert res.status == "critical"
    assert res.witness.lam_star == mu
    assert res.witness.depth == 1
    # the family surfaces on the first remainder: the merged vertex dominates
    assert res.witness.kind in ("vertex-dominance", "resonance")


def test_mu_seventeen_halves_resonance_interval():
    res = multiplicity_at(example45(Q(17, 2)), ("point", Q(0), Q(0)))
    assert res.status == "critical"
    assert res.witness.kind == "resonance"
    assert res.witness.lam_star == Q(17, 2)
    # support exponents of the first branch go 2, 5, 8, 11; rho sits in (8, 11)
    assert res.witness.depth >= 3


def test_mu_minus_four_finite_three_with_sqrt_minus_nine():
    res = multiplicity_at(example45(Q(-4)), ("point", Q(0), Q(0)))
    assert res.status == "finite"
    assert res.count == 3
    towers = [b.terms[0][1] for b in res.branches if b.conj_degree == 2]
    assert len(towers) == 1
    theta = towers[0]
    assert (theta * theta) == Q(-9)


def test_mu_five_resonance_order_hit():
    # rho = 5 equals the next support exponent: the z^2-branch admits no
    # algebraic continuation; the two sqrt(9) = +-3 branches survive
    res = multiplicity_at(example45(Q(5)), ("point", Q(0), Q(0)))
    assert res.status == "finite"
    assert res.count == 2
    dead = [b for b in res.branches if b.status == "non-algebraic"]
    assert len(dead) == 1
    assert dead[0].terms[0] == (Q(2), Q(-1, 3))
    assert "resonance-order-hit" in dead[0].flags
    alive = sorted(
        [b for b in b_list(res) if b.status in ("closed", "exact")],
        key=lambda b: (b.terms[0][0],) + sort_key(b.terms[0][1]),
    )
    assert {b.terms[0][1] for b in alive} == {Q(3), Q(-3)}


def b_list(res):
    return list(res.branches)


def test_mu_five_no_continuation_oracle():
    """Independent check: no coefficient c makes the z^2-branch continue at
    order five; the blocking residual coefficient is c-independent."""
    sys = example45(Q(5))
    vals = set()
    for c in (Q(-3), Q(-1), Q(0), Q(1, 2), Q(1), Q(7)):
        terms = ((Q(2), Q(-1, 3)),) if c == 0 else ((Q(2), Q(-1, 3)), (Q(5), c))
        vals.add(residual_valuation(sys, terms))
    # the blocking coefficient sits at the balancing order 5 and does not
    # depend on c: no choice of c extends the branch
    assert vals == {Q(5)}


# ---------------------------------------------------------------------------
# Lotka-Volterra spot checks
# ---------------------------------------------------------------------------

def test_lv_origin_multiplicity_zero():
    res = multiplicity_at(lv_system(Q(-1), Q(0), Q(0)), ("point", Q(0), Q(0)))
    assert res.status == "finite"
    assert res.count == 0


def test_lv_infinity_multiplicity_zero():
    res = multiplicity_at(lv_system(Q(-1), Q(0), Q(0)), ("inf", Q(0)))
    assert res.status == "finite"
    assert res.count == 0


def test_lv_upper_point_critical_when_b_zero():
    # at (a,b,c) = (-1,0,0) the point (0,a) carries the analytic family
    # w = -1 + z/((1-C) z + C); the vertex test must detect it
    res = multiplicity_at(lv_system(Q(-1), Q(0), Q(0)), ("point", Q(0), Q(-1)))
    assert res.status == "critical"
    assert res.witness.lam_star == Q(1)


def test_lv_upper_point_family_is_real():
    # direct check that two family members solve the system exactly
    sys = translate_point(lv_system(Q(-1), Q(0), Q(0)), Q(0), Q(-1))
    for cc in (Q(1), Q(2), Q(3)):
        # v = z / ((1-C) z + C) = (1/C) z + (C-1)/C^2 z^2 + ...
        t1 = Q(1) / cc
        t2 = (cc - 1) / cc**2
        t3 = (cc - 1) ** 2 / cc**3
        terms = [(Q(1), t1)]
        if t2 != 0:
            terms.append((Q(2), t2))
        if t3 != 0:
            terms.append((Q(3), t3))
        val = residual_valuation(sys, tuple(terms))
        assert val is None or val >= Q(4)


def test_lv_upper_point_zero_when_b_nonzero():
    res = multiplicity_at(lv_system(Q(-1), Q(5), Q(0)), ("point", Q(0), Q(-1)))
    assert res.status == "finite"
    assert res.count == 0


def test_lv_infinity_critical_when_c_minus_two():
    res = multiplicity_at(lv_system(Q(-1), Q(1), Q(-2)), ("inf", Q(0)))
    assert res.status == "critical"
    assert res.witness.lam_star == Q(1, 2)


# ---------------------------------------------------------------------------
# regular points, constant solutions, caps
# ---------------------------------------------------------------------------

def test_regular_point_multiplicity_one():
    sys = example45(0)
    res = multiplicity_at(sys, ("point", Q(1), Q(1)))
    assert res.status == "finite"
    assert res.count == 1


def test_regular_point_constant_solution_only():
    # dw/dz = w^2 / 1 at (0, 0): P(z, 0) vanishes identically, so only the
    # constant solution passes through, which is not counted
    sys = make_system(bp({(0, 2): 1}), bp({(0, 0): 1}))
    res = multiplicity_at(sys, ("point", Q(0), Q(0)))
    assert res.status == "finite"
    assert res.count == 0


def test_exponential_solution_not_algebraic():
    # dw/dz = w / 1: solutions C e^z; no nonconstant algebraic ones
    sys = make_system(bp({(0, 1): 1}), bp({(0, 0): 1}))
    res = multiplicity_at(sys, ("point", Q(0), Q(0)))
    assert res.count == 0


def test_log_node_not_counted():
    # dw/dz = (w + z)/z has only w = C z + z log z through the origin
    sys = make_system(bp({(0, 1): 1, (1, 0): 1}), bp({(1, 0): 1}))
    res = multiplicity_at(sys, ("point", Q(0), Q(0)))
    assert res.status == "finite"
    assert res.count == 0


def test_jordan_block_critical_detected_at_step_one():
    # dw/dz = (2w + z)/z: solutions w = C z^2 - z, a family after one step
    sys = make_system(bp({(0, 1): 2, (1, 0): 1}), bp({(1, 0): 1}))
    res = multiplicity_at(sys, ("point", Q(0), Q(0)))
    assert res.status == "critical"
    assert res.witness.lam_star == Q(2)
    assert res.witness.depth == 1


def test_depth_cap_reported():
    caps = Caps(depth=1, terms=4)
    res = multiplicity_at(example45(0), ("point", Q(0), Q(0)), caps)
    assert res.status in ("finite", "capped")
    if res.status == "capped":
        assert res.lower_bound is not None


def test_branch_extension_and_residual_growth():
    sys = example45(0)
    tree = expand_branches(sys)
    closed = [lf for lf in tree.leaves if lf.counted]
    assert len(closed) == 2
    for leaf in closed:
        terms = extend_leaf(leaf, 8)
        work = sys if leaf.tower is None else sys.map_tower(leaf.tower)
        vals = [residual_valuation(work, terms[:t]) for t in range(1, len(terms) + 1)]
        # the residual vanishes only on a series that terminated, and then
        # only at its last term
        terminated = vals[-1] is None
        assert None not in vals[:-1]
        assert len(terms) == 8 or (len(terms) < 8 and terminated)
        finite = vals[:-1] if terminated else vals
        assert all(b > a for a, b in zip(finite, finite[1:]))


def test_child_width_bound():
    # a d-folded node never spawns more than d children: for
    # w' = (w - z)^2 / z^3 the lambda = 1 edge has phi = -(a - 1)^2
    # (2-folded root a = 1) and the remainder offers exactly two
    # continuations w1 = +-z^(3/2)
    from pbound.branching import _Expander, DEFAULT_CAPS
    from pbound.newton import lower_hull, support_points

    sys = make_system(bp({(0, 2): 1, (1, 1): -2, (2, 0): 1}), bp({(3, 0): 1}))
    rem = substitute_branch(sys, Q(1), Q(1))
    engine = _Expander(rem, DEFAULT_CAPS)
    prof = coeff_profile(rem.P.terms, rem.Q.terms, rem.n)
    diagram = lower_hull(support_points(prof), prof)
    steps = [s for s in engine._steps_from_diagram(rem, Q(1), diagram) if s[1] is not None]
    assert len(steps) == 2
    assert {s[0] for s in steps} == {Q(3, 2)}
    assert {s[1] for s in steps} == {Q(1), Q(-1)}

    res = multiplicity_at(sys, ("point", Q(0), Q(0)))
    assert res.status == "finite"
    assert res.count == 2


# ---------------------------------------------------------------------------
# truncated extension against the full-remainder loop
# ---------------------------------------------------------------------------

def reference_extend(leaf, n_terms, caps=DEFAULT_CAPS):
    """Every Newton step on the whole, renormalized remainder: extension as
    it ran before the truncation."""
    terms = leaf.terms
    if not leaf.counted:
        return terms
    engine = _Expander(leaf.remainder, caps)
    sys, lam_prev = leaf.remainder, leaf.lam_last
    while len(terms) < n_terms:
        prof, diagram = _newton(sys)
        if 0 not in prof.p:
            break
        steps = [s for s in engine._steps_from_diagram(sys, lam_prev, diagram) if s.alpha is not None]
        if len(steps) != 1:
            break
        lam_prev, sys = steps[0].lam, steps[0].system
        terms += ((lam_prev, steps[0].alpha),)
    return terms


class _ReferenceExpander(_Expander):
    """The engine with the resonance loop as it ran before ``_fold_walk``:
    each step comes from the whole Newton diagram, and every vertex is
    checked at every node."""

    def _resolve_resonance(self, node, rho):
        cur = node
        for _ in range(self.caps.depth):
            prof, diagram = _newton(cur.system)
            hit = first_critical(vertex_critical_check(diagram, prof, lam_min=cur.lam_prev))
            if hit is not None:
                raise branching.CriticalFound(
                    branching.Witness("resonance", hit.lam_star, cur.depth, cur.prefix, ("resonance",))
                )
            if 0 not in prof.p:
                return self._leaf(cur, "exact", flags=("resonance",))
            # heights on the scale n of the node's system
            cands = ([prof.p[1][0]] if 1 in prof.p else []) + ([prof.q[0][0] - prof.n] if 0 in prof.q else [])
            if not cands:
                raise AssertionError("unreachable")
            lam_next = Q(prof.p[0][0] - min(cands), prof.n)
            if lam_next == rho:
                return self._leaf(cur, "non-algebraic", flags=("resonance-order-hit",))
            if lam_next > rho or lam_next <= cur.lam_prev:
                raise AssertionError("unreachable")
            steps = self._steps_from_diagram(cur.system, cur.lam_prev, diagram)
            if len(steps) != 1:
                raise AssertionError("unreachable")
            if steps[0].system is None:
                return self._leaf(cur, "cap-exceeded", flags=(steps[0].note,))
            cur = branching._child(cur, steps[0])
        return self._leaf(cur, "cap-exceeded", flags=("resonance-cap",))


def reference_resolve(sys, lam_prev, rho, caps=DEFAULT_CAPS):
    """``resolve_resonance`` on ``_ReferenceExpander``."""
    engine = _ReferenceExpander(sys, caps)
    node = branching._Node(system=sys, prefix=(), lam_prev=Q(lam_prev), folded=1, depth=0)
    try:
        leaf = engine._resolve_resonance(node, Q(rho))
    except branching.CriticalFound as hit:
        return "critical", hit.witness
    return leaf.status, leaf


def _resolution_compared(outcome):
    status, found = outcome
    if status == "critical":
        return status, (found.kind, found.lam_star, found.depth, _as_compared(found.prefix), found.flags)
    return status, (_as_compared(found.terms), found.status, found.flags)


class _Recorder(_Expander):
    """The engine, keeping every node it expands and every resonance it
    resolves."""

    def __init__(self, sys, caps):
        super().__init__(sys, caps)
        self.nodes = []
        self.resonances = []

    def _expand_inner(self, node):
        self.nodes.append(node)
        return super()._expand_inner(node)

    def _resolve_resonance(self, node, rho):
        self.resonances.append((node.system, node.lam_prev, rho))
        return super()._resolve_resonance(node, rho)


def recorded_expansion(system, point, caps=DEFAULT_CAPS):
    local = transform_point(system, point).normalized()
    engine = _Recorder(local, caps)
    root = branching._Node(system=local, prefix=(), lam_prev=Q(0), folded=0, depth=0)
    try:
        engine.expand(root)
    except branching.CriticalFound:
        pass
    return engine


def census_394():
    """Census system 394: at (0, inf) its branch is resonant with rho = 36."""
    return make_system(
        bp({(1, 2): -2, (1, 1): 1, (0, 1): 3}),
        bp({(3, 0): -4, (2, 1): -3, (1, 0): 4}),
    )


@pytest.mark.parametrize("caps, status", [(DEFAULT_CAPS, "cap-exceeded"), (Caps(depth=64), "non-algebraic")])
def test_resonance_stepping_matches_diagram_loop_census_394(caps, status):
    engine = recorded_expansion(census_394(), ("inf", Q(0)), caps)
    assert len(engine.resonances) == 1
    sys, lam_prev, rho = engine.resonances[0]
    assert rho == 36
    got = resolve_resonance(sys, lam_prev, rho, caps)
    assert got[0] == status
    assert _resolution_compared(got) == _resolution_compared(reference_resolve(sys, lam_prev, rho, caps))


def indicial(rho, f):
    """z w' = rho w + f(z): after a first step of order below rho the
    remainder is resonant with ratio rho."""
    return make_system(bp({(0, 1): rho, **{(e, 0): c for e, c in f.items()}}), bp({(1, 0): 1}))


@pytest.mark.parametrize(
    "rho, f, caps, want",
    [
        # k0 - y1 = 5 > rho at the first node
        (Q(2), {5: 1}, DEFAULT_CAPS, ("critical", 0)),
        # past the first step P(z, 0) runs out within K = y1 + rho = 3
        (Q(3), {1: 1, 5: 1}, DEFAULT_CAPS, ("critical", 1)),
        # three steps below rho = 10, then P(z, 0) is zero
        (Q(10), {1: 1, 2: 1, 3: 1}, Caps(depth=4), ("critical", 3)),
        # the same walk, capped before it reads the fourth node
        (Q(10), {1: 1, 2: 1, 3: 1}, Caps(depth=3), ("cap-exceeded", 3)),
        # the third step lands on rho = 3
        (Q(3), {1: 1, 2: 1, 3: 1}, DEFAULT_CAPS, ("non-algebraic", 2)),
    ],
)
def test_resonance_walk_outcomes(rho, f, caps, want):
    sys = indicial(rho, f)
    got = resolve_resonance(sys, Q(1, 2), rho, caps)
    status, found = got
    assert (status, len(found.prefix if status == "critical" else found.terms)) == want
    if status == "critical":
        assert (found.kind, found.lam_star, found.flags) == ("resonance", rho, ("resonance",))
    if status == "cap-exceeded":
        assert found.flags == ("resonance-cap",)
    assert _resolution_compared(got) == _resolution_compared(reference_resolve(sys, Q(1, 2), rho, caps))


def test_series_terminating_inside_a_resonance_is_critical():
    # w = z + z^2 solves z w' = 3 w - 2 z - z^2 exactly, and so does
    # w = z + z^2 + c z^3 for every c: the walk ends at P(z, 0) = 0 below
    # rho = 3, which is the one-parameter family, not an exact leaf
    sys = indicial(Q(3), {1: -2, 2: -1})
    series = ((Q(1), Q(1)), (Q(2), Q(1)))
    assert residual_valuation(sys, series) is None
    assert residual_valuation(sys, series + ((Q(3), Q(5)),)) is None
    res = multiplicity_at(sys, ("point", Q(0), Q(0)))
    assert res.status == "critical"
    w = res.witness
    assert (w.kind, w.lam_star, w.depth, _as_compared(w.prefix)) == ("resonance", Q(3), 2, _as_compared(series))
    engine = recorded_expansion(sys, ("point", Q(0), Q(0)))
    assert len(engine.resonances) == 1
    got = resolve_resonance(*engine.resonances[0])
    assert got[0] == "critical"
    assert _resolution_compared(got) == _resolution_compared(reference_resolve(*engine.resonances[0]))


def example45_over_presumed_sqrt2():
    """(z + w^2) w' = z^2 + t0 w over Q(t0), t0^2 = 2 adjoined without an
    irreducibility certificate."""
    tower, theta = adjoin_root(QQ_TOWER, UniPoly([Q(-2), Q(0), Q(1)]))
    assert tower.levels[0].presumed
    one = tower.from_fraction(Q(1))
    return OdeSystem(
        BiPoly({(2, 0): one, (0, 1): theta}, tower=tower),
        BiPoly({(1, 0): one, (0, 2): one}, tower=tower),
        tower=tower,
    )


def terminating_system():
    """w = z + 2 z^3 - z^5 solves Q w' = P exactly; the heavy w^8 and
    z^2 w^8 terms lie above the first precision."""
    f = bp({(1, 0): 1, (3, 0): 2, (5, 0): -1})
    qd = bp({(0, 0): 1, (0, 8): 1})
    return make_system(f.diff_z() * qd + (BiPoly.var_w() - f) * bp({(0, 1): 1, (2, 7): 1}), qd)


# name -> (system, point, what its leaves must exercise)
EXTENSION_FIXTURES = {
    "rational": (example45(0), ("point", Q(0), Q(0)), {"rational"}),
    "ramified-2-rational": (
        make_system(bp({(0, 2): 1, (1, 1): 3, (2, 0): -2}), bp({(1, 0): 1, (0, 2): -1})),
        ("point", Q(0), Q(0)),
        {"ram-2", "rational"},
    ),
    "ramified-3": (
        make_system(bp({(1, 0): -2}), bp({(0, 3): -3, (1, 2): -1, (3, 0): -3, (0, 2): 3})),
        ("point", Q(0), Q(0)),
        {"ram-3", "rational", "tower"},
    ),
    "sqrt-minus-nine": (example45(Q(-4)), ("point", Q(0), Q(0)), {"ram-2", "tower"}),
    "presumed-tower": (example45_over_presumed_sqrt2(), ("point", Q(0), Q(0)), {"ram-2", "presumed"}),
    "at-infinity": (
        make_system(bp({(1, 0): -3}), bp({(1, 2): -3, (3, 0): -2, (1, 1): 1, (2, 0): -3, (0, 0): 1})),
        ("inf", Q(0)),
        {"ram-2", "raised"},
    ),
    "terminates": (terminating_system(), ("point", Q(0), Q(0)), {"terminates", "raised-twice"}),
    "raises": (
        make_system(bp({(0, 3): 2, (1, 2): -3, (1, 0): -1}), bp({(3, 0): -1})),
        ("point", Q(0), Q(0)),
        {"ram-3", "raised-twice"},
    ),
}


@pytest.fixture
def raise_counter(monkeypatch):
    """The bounds K that the walk's steps cut at; each raise of K walks
    again under the new bound, so a walk raised r times cuts at r + 1."""
    bounds = []
    original = branching._walk_step

    def recorded(p, q, nu, lam, alpha, bound, n, tower):
        bounds.append(bound)
        return original(p, q, nu, lam, alpha, bound, n, tower)

    monkeypatch.setattr(branching, "_walk_step", recorded)
    return bounds


def _as_compared(terms):
    return [(mu, sort_key(c)) for mu, c in terms]


def _features(leaf, terms, raises, n_terms):
    out = {"ram-%d" % ramification(terms)}
    tower = leaf.tower
    if tower is None or tower.is_trivial():
        out.add("rational")
    else:
        out.add("tower")
        if any(lv.presumed for lv in tower.levels):
            out.add("presumed")
    if len(terms) < n_terms:
        out.add("terminates")
    if raises:
        out.add("raised")
    if raises >= 2:
        out.add("raised-twice")
    return out


def _residual_valuations(system, leaf, terms):
    work = system if leaf.tower is None else system.map_tower(leaf.tower)
    return [residual_valuation(work, terms[:t]) for t in range(1, len(terms) + 1)]


@pytest.mark.parametrize("name", sorted(EXTENSION_FIXTURES))
def test_truncated_extension_matches_full_remainder(name, raise_counter):
    system, point, wanted = EXTENSION_FIXTURES[name]
    n_terms = 10
    local = transform_point(system, point)
    tree = expand_branches(local)
    seen = set()
    for leaf in tree.leaves:
        if not (leaf.terms and leaf.counted):
            continue
        raise_counter.clear()
        terms = extend_leaf(leaf, n_terms)
        raises = max(len(set(raise_counter)) - 1, 0)
        assert _as_compared(terms) == _as_compared(reference_extend(leaf, n_terms)), name
        seen |= _features(leaf, terms, raises, n_terms)
        # each term found raises the order of the residual Q b' - P(z, b),
        # and it vanishes only once a terminating series is complete
        vals = _residual_valuations(local, leaf, terms)
        assert None not in vals[:-1]
        assert (vals[-1] is None) == (len(terms) < n_terms), (name, vals)
        finite = [v for v in vals if v is not None]
        assert all(a < b for a, b in zip(finite, finite[1:])), (name, vals)
    assert wanted <= seen, (name, seen)


@pytest.mark.parametrize("n_terms", [20, 30])
def test_short_bound_rises_by_the_missing_gain(n_terms, raise_counter):
    # K rises to the k0 the missing terms need at the average gain so far:
    # two raises at 20 and at 30 terms, where rising to the least weight
    # dropped took 9 and 14
    system, point, _ = EXTENSION_FIXTURES["raises"]
    (leaf,) = [lf for lf in expand_branches(transform_point(system, point)).leaves if lf.counted]
    terms = extend_leaf(leaf, n_terms)
    assert len(set(raise_counter)) - 1 == 2
    assert _as_compared(terms) == _as_compared(reference_extend(leaf, n_terms))


def test_terminating_series_doubles_the_rise(raise_counter):
    # once the series is complete no pass finds a new step, and K rises by
    # at least twice its last rise: 4 raises at 10 terms, where rising to
    # the least weight dropped took 13
    system, point, _ = EXTENSION_FIXTURES["terminates"]
    (leaf,) = [lf for lf in expand_branches(transform_point(system, point)).leaves if lf.counted]
    terms = extend_leaf(leaf, 10)
    assert len(terms) == 3
    assert sorted(set(raise_counter)) == [18, 20, 24, 32, 48]
    assert _as_compared(terms) == _as_compared(reference_extend(leaf, 10))


@pytest.mark.parametrize("name", sorted(EXTENSION_FIXTURES))
def test_extension_entered_off_the_lattice(name, raise_counter):
    # the walk keeps exponents as integers over the ramification N of the
    # remainder; an entry exponent 1/7 above the last one lies off (1/N)Z,
    # below the next step, so the first guess of K is floored
    system, point, _ = EXTENSION_FIXTURES[name]
    for leaf in expand_branches(transform_point(system, point)).leaves:
        if not (leaf.terms and leaf.counted):
            continue
        assert leaf.remainder.n < 7
        off = replace(leaf, lam_last=leaf.lam_last + Q(1, 7))
        raise_counter.clear()
        terms = extend_leaf(off, 10)
        assert all(type(k) is int for k in raise_counter)
        assert _as_compared(terms) == _as_compared(reference_extend(off, 10)), name
        assert _as_compared(terms) == _as_compared(extend_leaf(leaf, 10)), name


def half_indicial(rho, f):
    """``indicial`` with the z-exponents of f in (1/2)Z: a system on the
    scale n = 2, so the key of z^e is 2 e."""
    return OdeSystem(BiPoly({(0, 1): rho, **{(2 * e, 0): c for e, c in f.items()}}), BiPoly({(2, 0): 1}), n=2)


@pytest.mark.parametrize("caps, want", [(DEFAULT_CAPS, ("critical", 2)), (Caps(depth=1), ("cap-exceeded", 1))])
@pytest.mark.parametrize(
    "sys, lam_prev, rho",
    [
        (indicial(Q(7, 3), {1: 1, 2: 1, 3: 1}), Q(1, 2), Q(7, 3)),
        (indicial(Q(5, 2), {1: 1, 2: 1, 3: 1}), Q(1, 2), Q(5, 2)),
        (half_indicial(Q(7, 3), {Q(1, 2): 1, Q(3, 2): 1, Q(5, 2): 1}), Q(1, 4), Q(7, 3)),
        (half_indicial(Q(7, 3), {Q(1, 2): 1, Q(3, 2): 1}), Q(1, 4), Q(7, 3)),
    ],
)
def test_resonance_off_the_lattice(sys, lam_prev, rho, caps, want, raise_counter):
    # rho has a denominator that does not divide N, so K = y1 + rho (y1 = 0
    # here) lies off (1/N)Z: the walk cuts at floor(N K) and never raises it
    got = resolve_resonance(sys, lam_prev, rho, caps)
    status, found = got
    assert (status, len(found.prefix if status == "critical" else found.terms)) == want
    assert set(raise_counter) == {math.floor(sys.n * rho)}
    assert _resolution_compared(got) == _resolution_compared(reference_resolve(sys, lam_prev, rho, caps))


def test_ramification_cap_is_tested_before_the_child_is_built(monkeypatch):
    # EX45 at m = -4 has one branch of exponent 2 and one of exponent 1/2.
    # Under ram=1 the second edge's scale lcm(1, 2) = 2 caps it, so only the
    # exponent-2 child is substituted.
    real = branching.substitute_branch
    lams = []

    def counted(sys, lam, alpha):
        lams.append(Q(lam))
        return real(sys, lam, alpha)

    monkeypatch.setattr(branching, "substitute_branch", counted)
    capped = multiplicity_at(example45(Q(-4)), ("point", Q(0), Q(0)), Caps(ram=1))
    assert (capped.status, capped.lower_bound, capped.diagnostics) == ("capped", 1, ("ramification-cap",))
    assert lams == [Q(2)]
    lams.clear()
    assert multiplicity_at(example45(Q(-4)), ("point", Q(0), Q(0))).count == 3
    assert lams == [Q(2), Q(1, 2)]


# Example 4.5 at the values of its table where the origin is not critical
EX45_FINITE = (Q(0), Q(-1), Q(-4), Q(1, 2), Q(2), Q(5))


@pytest.mark.parametrize("caps", [DEFAULT_CAPS, Caps(depth=1)], ids=["default", "depth-1"])
@pytest.mark.parametrize(
    "system, point",
    [(example45(mu), ("point", Q(0), Q(0))) for mu in EX45_FINITE]
    + [EXTENSION_FIXTURES[name][:2] for name in sorted(EXTENSION_FIXTURES)],
    ids=["ex45-mu=%s" % mu for mu in EX45_FINITE] + sorted(EXTENSION_FIXTURES),
)
def test_leaf_remainder_scale_is_the_prefix_ramification(system, point, caps):
    # n is the lcm of the step denominators, also on the walk's leaves and
    # on leaves capped above a ramified node
    leaves = expand_branches(transform_point(system, point), caps).leaves
    assert leaves
    for leaf in leaves:
        assert leaf.remainder.n == ramification(leaf.terms), (leaf.terms, leaf.status)


SMALL_COEFFS = st.integers(-3, 3)


@st.composite
def small_systems(draw):
    """Random dw/dz = P/Q with deg P, deg Q <= 2 and P, Q coprime."""
    def poly():
        terms = {(i, j): Q(draw(SMALL_COEFFS)) for i in range(3) for j in range(3 - i) if draw(st.booleans())}
        return bp({k: c for k, c in terms.items() if c})

    P, Qd = poly(), poly()
    assume(not P.is_zero() and not Qd.is_zero())
    try:
        return make_system(P, Qd)
    except OdeError:
        assume(False)


AXIS_COEFFS = st.integers(-4, 4)


@st.composite
def axis_systems(draw):
    """Random dw/dz = P / (z q0) with deg P <= 3 and deg q0 <= 2.  Half of
    them have P = rho q w + c z + ... and z q0 = q z + ..., so that the
    first step at (0, 0), of order 1, leaves a remainder resonant with
    ratio rho."""
    def poly(degree, shift):
        terms = {(i + shift, j): draw(AXIS_COEFFS) for i in range(degree + 1) for j in range(degree + 1 - i)}
        return {k: c for k, c in terms.items() if c}

    p, q = poly(3, 0), poly(2, 1)
    if draw(st.booleans()):
        lead = draw(st.sampled_from([1, -1, 2, -3]))
        rho = draw(st.sampled_from([Q(2), Q(3), Q(5, 2), Q(4), Q(7, 3), Q(6), Q(17, 2)]))
        p.pop((0, 0), None)
        p.update({(0, 1): rho * lead, (1, 0): draw(st.sampled_from([1, -2, 3]))})
        q[(1, 0)] = lead
    assume(p and q)
    try:
        return make_system(bp(p), bp(q))
    except OdeError:
        assume(False)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(axis_systems(), st.sampled_from([("point", Q(0), Q(0)), ("inf", Q(0))]))
def test_resonance_walk_matches_diagram_loop_on_random_axis_systems(system, point):
    for caps in (DEFAULT_CAPS, Caps(depth=64)):
        for sys, lam_prev, rho in recorded_expansion(system, point, caps).resonances:
            got = resolve_resonance(sys, lam_prev, rho, caps)
            assert _resolution_compared(got) == _resolution_compared(reference_resolve(sys, lam_prev, rho, caps))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(small_systems(), st.sampled_from([("point", Q(0), Q(0)), ("inf", Q(0))]))
def test_truncated_extension_matches_full_remainder_on_random_systems(system, point):
    caps = Caps(depth=12, ram=16, tower=8, terms=12)
    tree = expand_branches(transform_point(system, point), caps)
    for leaf in tree.leaves:
        if leaf.terms and leaf.counted:
            assert _as_compared(extend_leaf(leaf, 12)) == _as_compared(reference_extend(leaf, 12, caps))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(small_systems(), st.sampled_from([("point", Q(0), Q(0)), ("inf", Q(0))]))
def test_fold_step_is_the_diagram_step_at_one_folded_nodes(system, point):
    caps = Caps(depth=12, ram=16, tower=8, terms=12)
    engine = recorded_expansion(system, point, caps)
    for node in engine.nodes:
        if node.folded != 1:
            continue
        prof, diagram = _newton(node.system)
        if 0 not in prof.p:
            continue
        try:
            steps = engine._steps_from_diagram(node.system, node.lam_prev, diagram)
        except TowerSplitError:
            continue
        step = _fold_step(prof, node.lam_prev * node.system.n)
        if step is None or step[1] is None:
            assert steps == []
        else:
            assert [(s.lam, sort_key(s.alpha)) for s in steps] == [(step[0], sort_key(step[1]))]


@pytest.mark.parametrize(
    "p, q, lam_prev, want",
    [
        # both abscissa-1 points at height 1: c1 = 1 * 2 - 3
        ({0: (3, 2), 1: (1, 3)}, {0: (2, 1)}, 1, (Q(2), Q(-2))),
        # the P point lies lower and alone sets the edge
        ({0: (3, 1), 1: (0, 1)}, {0: (2, 1)}, 1, (Q(3), Q(-1))),
        # q0 lam and p1 cancel: no root on the only edge past lam_prev
        ({0: (3, 2), 1: (1, 2)}, {0: (2, 1)}, 1, (Q(2), None)),
        # the edge does not go past lam_prev
        ({0: (3, 1), 1: (1, 1)}, {}, 2, None),
        # no abscissa-1 point
        ({0: (3, 1), 2: (0, 1)}, {1: (0, 1)}, 1, None),
    ],
)
def test_fold_step_reads_k0_and_the_abscissa_one_point(p, q, lam_prev, want):
    assert _fold_step(CoeffProfile(p=p, q=q), Q(lam_prev)) == want


@pytest.mark.parametrize(
    "p, q, lam_prev, want",
    [
        # the Q point (2, 0) - (n, 0) lies below the P point and alone sets
        # the edge: lam = (6 - 2) / 2 and c1 = q0 lam
        ({0: (6, 1), 1: (4, 3)}, {0: (4, 1)}, 3, (Q(2), Q(1, 2))),
        # both points at scaled height 2, c1 = 3/2 - 1; lam = 3/2 is past
        # lam_prev = 5/4, which the walk passes floored, as 2
        ({0: (5, 3), 1: (2, 1)}, {0: (4, 1)}, 2, (Q(3, 2), Q(6))),
    ],
)
def test_fold_step_reads_exponents_on_the_walk_scale(p, q, lam_prev, want):
    # the walk's profiles hold n times each exponent, here n = 2
    assert _fold_step(CoeffProfile(p=p, q=q, n=2), lam_prev) == want


def reference_pair_acceptable(sys, lam, alpha):
    """Acceptability as it was checked before: the lowest order of
    Q(z, a z^l) a l z^(l-1) - P(z, a z^l), evaluated on its own (the
    residual of the one-term prefix a z^l)."""
    profile = coeff_profile(sys.P.terms, sys.Q.terms, sys.n)
    orders = [Q(kj, sys.n) + j * lam for j, (kj, _) in profile.p.items()]
    orders += [Q(li, sys.n) + (i + 1) * lam - 1 for i, (li, _) in profile.q.items()]
    if not orders:
        return True
    val = residual_valuation(sys, ((Q(lam), alpha),))
    return val is None or val > min(orders)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    small_systems(),
    st.lists(st.tuples(st.sampled_from([Q(1, 3), Q(1, 2), Q(1), Q(3, 2), Q(2), Q(3)]), SMALL_COEFFS), max_size=4),
)
def test_pair_acceptable_reads_the_remainder(system, pairs):
    # on the system, and on each remainder of a ramified rational root,
    # whose exponents lie on its scale n > 1
    systems = [system]
    while systems:
        system = systems.pop()
        _, diagram = _newton(system)
        roots = [
            (edge.lam, alpha)
            for edge in diagram.edges
            if edge.admissible and nonzero_char_poly(edge).degree() >= 1
            for alpha in rational_roots(nonzero_char_poly(edge))
        ]
        for lam, alpha in roots + [(lam, Q(a)) for lam, a in pairs if a]:
            out = system.translate_w(alpha, lam)
            want = reference_pair_acceptable(system, lam, alpha)
            assert pair_acceptable(system, lam, out) == want
            if (lam, alpha) in roots:
                assert want
                if out.n > system.n:
                    systems.append(out.normalized())


def scaled(sys, k):
    """The same system with every key and n multiplied by k."""
    def side(poly):
        return BiPoly({(s * k, j): c for (s, j), c in poly.terms.items()}, tower=poly.tower)

    return OdeSystem(side(sys.P), side(sys.Q), sys.tower, sys.n * k)


def _edges_compared(diagram):
    return [(e.x1, e.x2, e.lam, [sort_key(c) for c in e.char_poly.coeffs] if e.char_poly else None) for e in diagram.edges]


def _verdicts_compared(diagram, prof):
    return [(v.x, sort_key(v.lam_star), v.critical, v.dicritical_suspect) for v in vertex_critical_check(diagram, prof)]


def _leaves_compared(tree):
    """The leaves with their remainders on true exponents s / n, and the
    counted ones extended to 6 terms."""
    def remainder(sys):
        return sorted(((Q(s, sys.n), j), sort_key(c)) for side in (sys.P, sys.Q) for (s, j), c in side.terms.items())

    critical = tree.critical and (tree.critical.kind, tree.critical.lam_star, tree.critical.depth,
                                  _as_compared(tree.critical.prefix))
    leaves = [
        (_as_compared(lf.terms), lf.status, lf.flags, lf.conj_degree, lf.lam_last, remainder(lf.remainder),
         _as_compared(extend_leaf(lf, 6)))
        for lf in tree.leaves
    ]
    return critical, leaves, tree.flags


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(small_systems(), axis_systems()),
    st.sampled_from([("point", Q(0), Q(0)), ("inf", Q(0))]),
    st.sampled_from([2, 3, 6]),
)
def test_newton_data_and_leaves_do_not_depend_on_the_scale(system, point, k):
    local = transform_point(system, point).normalized()
    big = scaled(local, k)
    assert big.n == k
    prof, diagram = _newton(local)
    big_prof, big_diagram = _newton(big)
    assert _edges_compared(big_diagram) == _edges_compared(diagram)
    assert [(p.x, p.y * k) for p in diagram.points] == [(p.x, p.y) for p in big_diagram.points]
    assert _verdicts_compared(big_diagram, big_prof) == _verdicts_compared(diagram, prof)
    caps = Caps(depth=12, tower=8, terms=12)
    assert _leaves_compared(expand_branches(big, caps)) == _leaves_compared(expand_branches(local, caps))
