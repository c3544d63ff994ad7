import math
from dataclasses import dataclass, replace
from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings, strategies as st

import pbound.branching as branching
import pbound.exact as exact
from pbound.branching import (
    DEFAULT_CAPS,
    Caps,
    _Expander,
    _fold_step,
    _newton,
    _walk_sides,
    closure_check,
    expand_branches,
    extend_leaf,
    multiplicity_at,
    resolve_resonance,
)
from pbound.exact import (
    QQ_TOWER,
    ExtElem,
    ExactError,
    UniPoly,
    adjoin_root,
    factor_univariate,
    sort_key,
)
from pbound.bounds import BoundsError, axis_singular_points
from pbound.newton import first_critical, lower_hull, nonzero_char_poly, support_points, vertex_critical_check
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
from pbound.sysparse import branch_report, parse_system
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
    sys = make_system(bp({(0, 2): 1, (1, 1): -2, (2, 0): 1}), bp({(3, 0): 1}))
    rem = substitute_branch(sys, Q(1), Q(1))
    engine = _Expander(rem, DEFAULT_CAPS)
    prof = coeff_profile(rem.P.terms, rem.Q.terms, rem.n)
    diagram = lower_hull(support_points(prof), prof)
    steps = [s for s in engine._steps_from_diagram(_walk_sides(rem), Q(1), diagram) if s[1] is not None]
    assert len(steps) == 2
    assert {s[0] for s in steps} == {Q(3, 2)}
    assert {s[1] for s in steps} == {Q(1), Q(-1)}

    res = multiplicity_at(sys, ("point", Q(0), Q(0)))
    assert res.status == "finite"
    assert res.count == 2


# ---------------------------------------------------------------------------
# truncated extension against the full-remainder loop
# ---------------------------------------------------------------------------

def sides_system(sides):
    """The system on a walk's pair (p, q, n, tower)."""
    p, q, n, tower = sides
    return OdeSystem(BiPoly(p, tower), BiPoly(q, tower), tower, n)


def leaf_remainder(leaf):
    """The remainder system on a leaf's pair: a positive rational multiple
    of the exact one, which has the same branches."""
    return sides_system(leaf.sides)


def exact_newton(sys):
    """The coefficient profile of an exact system and its Newton diagram."""
    prof = coeff_profile(sys.P.terms, sys.Q.terms, sys.n)
    return prof, lower_hull(support_points(prof), prof)


def exact_steps(engine, sys, lam_prev, diagram):
    """The engine's Newton steps from the exact system ``sys``, each with
    ``sys`` in alpha's tower, which the step applies to (None for a capped
    root)."""
    out = []
    for step in engine._steps_from_diagram(_walk_sides(sys), lam_prev, diagram):
        if step.alpha is None:
            out.append((step, None))
        else:
            out.append((step, sys.map_tower(step.alpha.tower) if step.note == "adjoined" else sys))
    return out


@dataclass(frozen=True)
class SystemNode:
    """A tree node of the references, which build every child as an exact
    system with ``substitute_branch``: ``system`` is the root's own system,
    and below the root the parent's, in the node's tower, before the node's
    step (the last pair of ``prefix``)."""

    system: OdeSystem
    prefix: tuple
    lam_prev: Q
    folded: int
    depth: int


def lifted(prefix, lift):
    """A prefix with each tower element mapped by ``lift``."""
    return tuple((mu, lift(c) if isinstance(c, ExtElem) else c) for mu, c in prefix)


def system_child(node, step, system):
    """The child node on the exact system ``system``, in alpha's tower, with
    its prefix lifted into that tower."""
    prefix = node.prefix + ((step.lam, step.alpha),)
    if system.tower is not None:
        prefix = lifted(prefix, system.tower.coerce)
    return SystemNode(system, prefix, step.lam, step.folded, node.depth + 1)


def reference_extend(leaf, n_terms, caps=DEFAULT_CAPS):
    """Every Newton step on the whole, renormalized remainder: extension as
    it ran before the truncation."""
    terms = leaf.terms
    if not leaf.counted:
        return terms
    sys, lam_prev = leaf_remainder(leaf), leaf.lam_last
    engine = _Expander(sys, caps)
    while len(terms) < n_terms:
        prof, diagram = exact_newton(sys)
        if 0 not in prof.p:
            break
        steps = [(s, work) for s, work in exact_steps(engine, sys, lam_prev, diagram) if s.alpha is not None]
        if len(steps) != 1:
            break
        ((step, work),) = steps
        lam_prev, sys = step.lam, substitute_branch(work, step.lam, step.alpha)
        terms += ((lam_prev, step.alpha),)
    return terms


class _ReferenceExpander(_Expander):
    """The engine with the resonance loop as it ran before ``_fold_walk``:
    each step comes from the whole Newton diagram, and every vertex is
    checked at every node.  Its nodes hold their own exact systems."""

    def resolve_by_diagrams(self, node, rho):
        cur = node
        for _ in range(self.caps.depth):
            prof, diagram = exact_newton(cur.system)
            hit = first_critical(vertex_critical_check(diagram, prof, lam_min=cur.lam_prev))
            if hit is not None:
                raise branching.CriticalFound(
                    branching.Witness("resonance", hit.lam_star, cur.depth, cur.prefix, ("resonance",))
                )
            if 0 not in prof.p:
                return self._leaf(cur, "exact", _walk_sides(cur.system), flags=("resonance",))
            # heights on the scale n of the node's system
            cands = ([prof.p[1][0]] if 1 in prof.p else []) + ([prof.q[0][0] - prof.n] if 0 in prof.q else [])
            if not cands:
                raise AssertionError("unreachable")
            lam_next = Q(prof.p[0][0] - min(cands), prof.n)
            if lam_next == rho:
                return self._leaf(cur, "non-algebraic", _walk_sides(cur.system), flags=("resonance-order-hit",))
            if lam_next > rho or lam_next <= cur.lam_prev:
                raise AssertionError("unreachable")
            steps = exact_steps(self, cur.system, cur.lam_prev, diagram)
            if len(steps) != 1:
                raise AssertionError("unreachable")
            ((step, work),) = steps
            if work is None:
                return self._leaf(cur, "cap-exceeded", _walk_sides(cur.system), flags=(step.note,))
            cur = system_child(cur, step, substitute_branch(work, step.lam, step.alpha))
        return self._leaf(cur, "cap-exceeded", _walk_sides(cur.system), flags=("resonance-cap",))


def reference_resolve(sys, lam_prev, rho, caps=DEFAULT_CAPS):
    """``resolve_resonance`` on ``_ReferenceExpander``."""
    engine = _ReferenceExpander(sys, caps)
    node = SystemNode(system=sys, prefix=(), lam_prev=Q(lam_prev), folded=1, depth=0)
    try:
        leaf = engine.resolve_by_diagrams(node, Q(rho))
    except branching.CriticalFound as hit:
        return "critical", hit.witness
    return leaf.status, leaf


def _resolution_compared(outcome):
    status, found = outcome
    if status == "critical":
        return status, (found.kind, found.lam_star, found.depth, _as_compared(found.prefix), found.flags)
    return status, (_as_compared(found.terms), found.status, found.flags)


class _FullChildExpander(_Expander):
    """The engine as it ran before tree steps moved onto the walk's pair:
    every node below the root builds its exact remainder with
    ``substitute_branch`` and its full Newton diagram, checks every vertex
    on it, and a 1-folded node reads its closure off that profile.  Its
    nodes hold exact systems (``SystemNode``).  It keeps each 1-folded node
    it reaches, with the node's exact system, profile and diagram, and
    counts the multi-folded ones."""

    def __init__(self, sys, caps):
        super().__init__(sys, caps)
        self.folded_nodes = []
        self.multi_folded = 0

    def expand(self, node):
        sys = node.system
        if node.prefix:
            sys = substitute_branch(sys, node.lam_prev, node.prefix[-1][1])
        prof, diagram = exact_newton(sys)
        if node.folded == 1:
            self.folded_nodes.append((node, sys, prof, diagram))
        self.multi_folded += node.folded > 1
        leaves = []
        exact_here = 0 not in prof.p
        if exact_here and node.prefix:
            leaves.append(self._leaf(node, "exact", _walk_sides(sys)))
        verdicts = vertex_critical_check(diagram, prof, lam_min=node.lam_prev)
        hit = first_critical(verdicts)
        if hit is not None:
            raise branching.CriticalFound(branching.Witness("vertex-dominance", hit.lam_star, node.depth, node.prefix))
        if any(v.dicritical_suspect for v in verdicts):
            self.tree_flags.add("dicritical-suspect")
        if node.folded == 1 and node.prefix and not exact_here:
            kind, rho = branching._closure(prof, node.lam_prev, branching._indicial_ratio(prof))
            if kind == "closed":
                return leaves + [self._leaf(node, "closed", _walk_sides(sys))]
            if kind == "resonance":
                return leaves + [self._resolve_resonance(node, _walk_sides(sys), rho)]
        return leaves + self._children(node, sys, diagram)

    def _children(self, node, sys, diagram):
        if node.depth >= self.caps.depth:
            return [self._leaf(node, "cap-exceeded", _walk_sides(sys), flags=("depth-cap",))]
        leaves = []
        for step, work in exact_steps(self, sys, node.lam_prev, diagram):
            if work is None:
                leaves.append(self._leaf(node, "cap-exceeded", _walk_sides(sys), flags=(step.note,)))
                continue
            leaves.extend(self.expand(system_child(node, step, work)))
        return leaves


def full_child_tree(sys, caps=DEFAULT_CAPS):
    """``expand_branches`` on ``_FullChildExpander``, and the engine."""
    engine = _FullChildExpander(sys, caps)
    root = SystemNode(system=sys.normalized(), prefix=(), lam_prev=Q(0), folded=0, depth=0)
    try:
        leaves, critical = engine.expand(root), None
    except branching.CriticalFound as hit:
        leaves, critical = [], hit.witness
    leaves.sort(key=branching._leaf_key)
    return branching.BranchTree(leaves, critical, tuple(sorted(engine.tree_flags))), engine


class _Recorder(_Expander):
    """The engine, keeping every node it expands and every resonance it
    resolves."""

    def __init__(self, sys, caps):
        super().__init__(sys, caps)
        self.nodes = []
        self.resonances = []

    def expand(self, node):
        self.nodes.append(node)
        return super().expand(node)

    def _resolve_resonance(self, node, sides, rho):
        self.resonances.append((sides_system(sides), node.lam_prev, rho))
        return super()._resolve_resonance(node, sides, rho)


def recorded_expansion(system, point, caps=DEFAULT_CAPS):
    local = transform_point(system, point).normalized()
    engine = _Recorder(local, caps)
    root = branching._Node(sides=_walk_sides(local), prefix=(), lam_prev=Q(0), folded=0, depth=0)
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


def example45_over_uncertified_sqrt2():
    """(z + w^2) w' = z^2 + t0 w over Q(t0), t0^2 = 2 adjoined from a
    polynomial without the certificate flag, which ``adjoin_root`` then
    certifies itself."""
    tower, theta = adjoin_root(QQ_TOWER, UniPoly([Q(-2), Q(0), Q(1)]))
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
    return make_system(f.diff_z() * qd + (bp({(0, 1): 1}) - f) * bp({(0, 1): 1, (2, 7): 1}), qd)


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
    "presumed-tower": (example45_over_uncertified_sqrt2(), ("point", Q(0), Q(0)), {"ram-2", "tower"}),
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
        assert leaf.sides[2] < 7
        off = replace(leaf, lam_last=leaf.lam_last + Q(1, 7))
        raise_counter.clear()
        terms = extend_leaf(off, 10)
        assert all(type(k) is int for k in raise_counter)
        assert _as_compared(terms) == _as_compared(reference_extend(off, 10)), name
        assert _as_compared(terms) == _as_compared(extend_leaf(leaf, 10)), name


def walk_of(leaf, n_terms):
    """The sides and the steps that ``_fold_walk`` yields while it extends
    ``leaf`` to ``n_terms`` terms, as ``extend_leaf`` runs it."""
    sides, steps = [], []
    left = n_terms - len(leaf.terms)
    for node, step in branching._fold_walk(leaf.sides, leaf.lam_last, terms=left):
        sides.append(node)
        if step is None or step[1] is None:
            break
        steps.append(step)
        if len(steps) == left:
            break
    return sides, steps


def levels_of(tower):
    return 0 if tower is None else len(tower.levels)


def assert_content_free_integer_pair(p, q, tower):
    """Over Q or a one-level tower the walk's pair holds ints, or tower
    elements with int coordinates, whose gcd is 1: no Fraction at all."""
    assert levels_of(tower) <= 1
    coords = []
    for c in [*p.values(), *q.values()]:
        if isinstance(c, ExtElem):
            assert c.tower == tower
            coords.extend(c.rep)
        else:
            coords.append(c)
    assert all(type(x) is int for x in coords)
    assert math.gcd(*coords) == 1


@pytest.mark.parametrize("m, levels", [(-4, 1), (5, 0)])
def test_walk_shifts_a_content_free_integer_pair(m, levels):
    # EX45 at m = -4 walks over Q(t0), t0^2 + 9, and at m = 5 over Q
    local = example45(Q(m))
    walked = 0
    for leaf in expand_branches(local).leaves:
        if not (leaf.terms and leaf.counted):
            continue
        sides, steps = walk_of(leaf, 30)
        for p, q, _, tower in sides:
            assert_content_free_integer_pair(p, q, tower)
        assert _as_compared(leaf.terms + tuple(steps)) == _as_compared(reference_extend(leaf, 30))
        walked += levels_of(leaf.tower) == levels
    assert walked


def example45_over_root_of(minpoly):
    """(z + w^2) w' = z^2 + t w for a root t of ``minpoly``."""
    tower, theta = adjoin_root(QQ_TOWER, UniPoly(minpoly))
    one = tower.one()
    return OdeSystem(
        BiPoly({(2, 0): one, (0, 1): theta}, tower=tower),
        BiPoly({(1, 0): one, (0, 2): one}, tower=tower),
        tower=tower,
    )


def test_walk_over_a_nonintegral_modulus_and_two_levels():
    # t0 a root of 3 t^2 + 2 t - 2: each reduction of the walk's kernel
    # multiplies by 3, and the content taken out keeps the pair small.  The
    # ramified branch adjoins t1 and walks in exact arithmetic over Q(t0, t1)
    local = example45_over_root_of([Q(-2, 3), Q(2, 3), Q(1)])
    assert local.tower.levels[0].reduction[1] == 3
    walked = set()
    for leaf in expand_branches(local).leaves:
        if not (leaf.terms and leaf.counted):
            continue
        sides, steps = walk_of(leaf, 12)
        for p, q, _, tower in sides:
            if levels_of(tower) <= 1:
                assert_content_free_integer_pair(p, q, tower)
        assert _as_compared(leaf.terms + tuple(steps)) == _as_compared(reference_extend(leaf, 12))
        walked.add((levels_of(leaf.tower), len(steps)))
    assert walked == {(1, 11), (2, 11)}


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
    # exponent-2 child is shifted, on its parent's pair
    lams = []
    real = branching._step_sides

    def counted(sides, lam, alpha):
        lams.append(Q(lam))
        return real(sides, lam, alpha)

    monkeypatch.setattr(branching, "_step_sides", counted)
    capped = multiplicity_at(example45(Q(-4)), ("point", Q(0), Q(0)), Caps(ram=1))
    assert (capped.status, capped.lower_bound, capped.diagnostics) == ("capped", 1, ("ramification-cap",))
    assert lams == [Q(2)]
    lams.clear()
    assert multiplicity_at(example45(Q(-4)), ("point", Q(0), Q(0))).count == 3
    # children are shifted as they are expanded, in step order
    assert lams == [Q(1, 2), Q(2)]


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
        assert leaf.sides[2] == ramification(leaf.terms), (leaf.terms, leaf.status)


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


@pytest.mark.parametrize(
    "system",
    [
        "dw/dz = (z^2 + m*w) / (z + w^2); m = -4",
        "dw/dz = (w^2 + z^3) / (z^2)",
        "dw/dz = (z^2 - 3*w) / (z + w)",
        "dw/dz = (w - 2*z)*(w + 3*z^2) / (z^2)",
    ],
)
def test_linear_edge_polynomial_is_solved_without_factoring(monkeypatch, system):
    sys, _ = parse_system(system)
    _, diagram = exact_newton(sys)
    # the step the factorization gives: the root of the one monic factor
    want = []
    for edge in diagram.edges:
        phi = nonzero_char_poly(edge) if edge.admissible else None
        if phi is not None and phi.degree() == 1:
            (fac,) = exact.factor_univariate(phi)
            c0, c1 = fac.poly.coeffs
            want.append(branching._Step(edge.lam, -Q(c0) / Q(c1), fac.multiplicity, "rational"))
    assert want
    degrees = []
    real = exact.factor_univariate

    def spy(phi, *args, **kwargs):
        degrees.append(phi.degree())
        return real(phi, *args, **kwargs)

    monkeypatch.setattr(exact, "factor_univariate", spy)
    steps = _Expander(sys, DEFAULT_CAPS)._steps_from_diagram(_walk_sides(sys), Q(0), diagram)
    assert 1 not in degrees
    got = [s for s in steps if s.note == "rational"]
    assert [(s, [type(x) for x in s]) for s in got] == [(s, [type(x) for x in s]) for s in sorted(want)]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(small_systems(), st.sampled_from([("point", Q(0), Q(0)), ("inf", Q(0))]))
def test_fold_step_is_the_diagram_step_at_one_folded_nodes(system, point):
    caps = Caps(depth=12, ram=16, tower=8, terms=12)
    engine = recorded_expansion(system, point, caps)
    for node in engine.nodes:
        if node.folded != 1:
            continue
        # a 1-folded node holds its parent's pair and its own step
        child = substitute_branch(sides_system(node.sides), node.lam_prev, node.prefix[-1][1])
        prof, diagram = exact_newton(child)
        if 0 not in prof.p:
            continue
        steps = engine._steps_from_diagram(_walk_sides(child), node.lam_prev, diagram)
        step = _fold_step(prof, node.lam_prev * child.n)
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


def linear_factor_roots(p):
    """The roots of ``factor_univariate``'s linear factors of p, as Fractions."""
    return [-Q(f.poly.coeffs[0]) for f in factor_univariate(p, cap=p.degree()) if f.poly.degree() == 1]


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
        _, diagram = exact_newton(system)
        roots = [
            (edge.lam, alpha)
            for edge in diagram.edges
            if edge.admissible and nonzero_char_poly(edge).degree() >= 1
            for alpha in linear_factor_roots(nonzero_char_poly(edge))
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


def _pair_compared(sides):
    """The terms of a walk's pair on true exponents s / n."""
    p, q, n, _ = sides
    return sorted(((Q(s, n), j), sort_key(c)) for side in (p, q) for (s, j), c in side.items())


def _leaves_compared(tree):
    """The leaves with their pairs on true exponents s / n, and the counted
    ones extended to 6 terms."""
    critical = tree.critical and (tree.critical.kind, tree.critical.lam_star, tree.critical.depth,
                                  _as_compared(tree.critical.prefix))
    leaves = [
        (_as_compared(lf.terms), lf.status, lf.flags, lf.conj_degree, lf.lam_last, _pair_compared(lf.sides),
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
    prof, diagram = _newton(_walk_sides(local))
    big_prof, big_diagram = _newton(_walk_sides(big))
    assert _edges_compared(big_diagram) == _edges_compared(diagram)
    assert [(p.x, p.y * k) for p in diagram.points] == [(p.x, p.y) for p in big_diagram.points]
    assert _verdicts_compared(big_diagram, big_prof) == _verdicts_compared(diagram, prof)
    caps = Caps(depth=12, tower=8, terms=12)
    assert _leaves_compared(expand_branches(big, caps)) == _leaves_compared(expand_branches(local, caps))


# ---------------------------------------------------------------------------
# 1-folded tree steps on the fold walk against the full child
# ---------------------------------------------------------------------------

def _pair_up_to_a_positive_factor(sides):
    """``_pair_compared`` with the rational coordinates of all its
    coefficients scaled to coprime integers: the same for every positive
    rational multiple of the pair.  A content-free integer pair is already
    in that form."""
    terms = _pair_compared(sides)
    coords = [Q(x) for _, (_, flat) in terms for x in flat]
    den = math.lcm(*[x.denominator for x in coords])
    factor = Q(den, math.gcd(*[x.numerator * (den // x.denominator) for x in coords]))
    return [(key, (sig, tuple(x * factor for x in flat))) for key, (sig, flat) in terms]


def _tree_compared(tree, lengths):
    """All a tree reports: its witness, flags and leaves, each leaf with its
    pair on true exponents s / n and extended to each of ``lengths`` terms.
    Below the root the pair is the content-free integer pair over Q and
    over a one-level tower; it is compared up to a positive rational
    factor, since above that the walked tree shifts a multiple of the
    remainder too, and a capped leaf at the root keeps the root system."""
    for lf in tree.leaves:
        if lf.terms and levels_of(lf.tower) <= 1:
            assert_content_free_integer_pair(*lf.sides[:2], lf.tower)
    w = tree.critical
    critical = w and (w.kind, w.lam_star, w.depth, _as_compared(w.prefix), w.flags)
    leaves = [
        (_as_compared(lf.terms), lf.status, lf.flags, lf.conj_degree, lf.tower, lf.lam_last,
         _pair_up_to_a_positive_factor(lf.sides), [_as_compared(extend_leaf(lf, k)) for k in lengths])
        for lf in tree.leaves
    ]
    return critical, leaves, tree.flags


def _outcome(expand, lengths):
    """The compared tree."""
    return _tree_compared(expand(), lengths)


def assert_walked_tree_is_the_full_child_tree(system, caps=DEFAULT_CAPS, lengths=(10, 30)):
    """The tree of ``expand_branches`` is the full-child tree, its leaves
    extended to ``lengths`` terms; returns the reference engine, which
    reached every 1-folded node."""
    holder = []

    def reference():
        tree, engine = full_child_tree(system, caps)
        holder.append(engine)
        return tree

    assert _outcome(lambda: expand_branches(system, caps), lengths) == _outcome(reference, lengths)
    return holder[0]


def axis_locals(system):
    """``system`` moved to (0, 0), to (0, inf) and to each other root of
    P(0, w): a rational root, or one root of each irreducible factor of
    degree 2 or 3, over the one-level tower it adjoins."""
    out = [transform_point(system, ("point", Q(0), Q(0))), transform_point(system, ("inf", Q(0)))]
    try:
        points, _ = axis_singular_points(system)
    except BoundsError:
        points = []
    for kind, value, _ in points:
        if kind == "rational" and value != 0:
            out.append(transform_point(system, ("point", Q(0), value)))
        elif kind == "algebraic" and value.degree() <= 3:
            tower, theta = adjoin_root(QQ_TOWER, value)
            out.append(transform_point(system.map_tower(tower), ("point", Q(0), theta)))
    return out


def _closures(engine):
    """The closure kinds of the 1-folded nodes that ``engine`` reached."""
    return {
        branching._closure(prof, node.lam_prev, branching._indicial_ratio(prof))[0]
        for node, _, prof, _ in engine.folded_nodes
        if 0 in prof.p
    }


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(axis_systems())
def test_walked_tree_steps_match_the_full_child_on_random_axis_systems(system):
    for local in axis_locals(system):
        assert_walked_tree_is_the_full_child_tree(local)


# Example 4.5 at every value of its table
EX45_TABLE = (Q(0), Q(1), Q(2), Q(5), Q(-4), Q(-1), Q(1, 2), Q(3, 2), Q(3), Q(7, 2), Q(17, 2), Q(-9, 4))


@pytest.mark.parametrize("mu", EX45_TABLE, ids=str)
@pytest.mark.parametrize("point", [("point", Q(0), Q(0)), ("inf", Q(0))], ids=["origin", "inf"])
def test_walked_tree_steps_match_the_full_child_on_example45(mu, point):
    assert_walked_tree_is_the_full_child_tree(transform_point(example45(mu), point))


@pytest.mark.parametrize("name", sorted(EXTENSION_FIXTURES) + ["nonintegral-modulus"])
def test_walked_tree_steps_match_the_full_child_on_the_extension_fixtures(name):
    # among them EX45 over an uncertified Q(sqrt 2) and over a modulus with a
    # non-integral reduction table, whose ramified branch adjoins a level
    if name == "nonintegral-modulus":
        system, point = example45_over_root_of([Q(-2, 3), Q(2, 3), Q(1)]), ("point", Q(0), Q(0))
    else:
        system, point = EXTENSION_FIXTURES[name][:2]
    assert_walked_tree_is_the_full_child_tree(transform_point(system, point))


@pytest.mark.parametrize("n", [4, 5, 6])
def test_walked_tree_steps_match_the_full_child_on_binomial_series(n):
    # (z + w)^n / (z + w^2): a child with Q1(z, 0) = 0 is built in full
    # (the generic closure), and its own children are compared too
    binomial = make_system(bp({(k, n - k): math.comb(n, k) for k in range(n + 1)}), bp({(1, 0): 1, (0, 2): 1}))
    engine = assert_walked_tree_is_the_full_child_tree(transform_point(binomial, ("point", Q(0), Q(0))))
    assert "generic" in _closures(engine)


def _vertices_past_one(sys, prof, diagram, lam_min):
    """(x, y / n, ratio, critical, suspect) of each hull vertex at x >= 2."""
    verdicts = vertex_critical_check(diagram, prof, lam_min=lam_min)
    return [
        (v.x, Q(v.y, sys.n), sort_key(verdict.lam_star), verdict.critical, verdict.dicritical_suspect)
        for v, verdict in zip(diagram.vertex_candidates, verdicts)
        if v.x >= 2
    ]


def assert_no_vertex_past_one_decides(system, caps=DEFAULT_CAPS):
    """At each 1-folded node of the full-child tree of ``system``, no vertex
    at abscissa >= 2 is critical; each is a vertex of the parent's diagram,
    with the same ratio and the same dicritical-suspect verdict, so over Q
    none is suspect; returns how many such vertices were seen."""
    _, engine = full_child_tree(system, caps)
    seen = 0
    for node, sys, prof, diagram in engine.folded_nodes:
        child = _vertices_past_one(sys, prof, diagram, node.lam_prev)
        assert not any(critical for *_, critical, _ in child)
        if levels_of(sys.tower) == 0:
            assert not any(suspect for *_, suspect in child)
        parent = node.system
        parent_prof, parent_diagram = exact_newton(parent)
        above = {v[:3]: v[4] for v in _vertices_past_one(parent, parent_prof, parent_diagram, Q(0))}
        for x, y, ratio, _, suspect in child:
            assert above[x, y, ratio] == suspect
        seen += len(child)
    return seen


@st.composite
def sqrt2_systems(draw):
    """Random dw/dz = P/Q over Q(t), t^2 = 2: up to 6 terms a side, w-degree
    <= 4, z-degree <= 6, coefficients a + b t."""
    tower, t = adjoin_root(QQ_TOWER, UniPoly([Q(-2), Q(0), Q(1)]))

    def side():
        terms = {}
        for _ in range(draw(st.integers(2, 6))):
            key = (draw(st.integers(0, 6)), draw(st.integers(0, 4)))
            a, b = draw(st.sampled_from([1, -1, 2, -2, 3])), draw(st.sampled_from([0, 1, -1, 2]))
            terms[key] = tower.one() * a + t * b
        return BiPoly({k: c for k, c in terms.items() if not c.is_zero()}, tower=tower)

    P, Qd = side(), side()
    assume(not P.is_zero() and not Qd.is_zero())
    return OdeSystem(P, Qd, tower)


def test_presumed_modulus_splits_where_the_full_profile_did():
    # t^4 + 3 t^2 + 2 = (t^2 + 1)(t^2 + 2) is not adjoined: it is
    # reducible.  Over each factor's field the step w = z + w1 of P = 4 z^2
    # - z w + z^2 w^2 + t^2/3 z w^3, Q = 3 z^2 is 1-folded, and its child's
    # w1^2 column leads with 1 + t^2, which is 0 over t^2 = -1, in a column
    # the fold profile does not read: the walked tree is the full child's
    with pytest.raises(ExactError):
        adjoin_root(QQ_TOWER, UniPoly([Q(2), Q(0), Q(3), Q(0), Q(1)]))
    for modulus in ([Q(1), Q(0), Q(1)], [Q(2), Q(0), Q(1)]):
        tower, t = adjoin_root(QQ_TOWER, UniPoly(modulus))
        one = tower.one()
        P = BiPoly({(2, 0): one * 4, (1, 1): -one, (2, 2): one, (1, 3): t * t * Q(1, 3)}, tower=tower)
        system = OdeSystem(P, BiPoly({(2, 0): one * 3}, tower=tower), tower)
        assert _outcome(lambda: expand_branches(system), ()) == _outcome(lambda: full_child_tree(system)[0], ())


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(axis_systems())
def test_no_vertex_past_abscissa_one_decides_a_one_folded_node(system):
    for local in axis_locals(system):
        assert_no_vertex_past_one_decides(local)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(sqrt2_systems())
def test_no_vertex_past_abscissa_one_decides_a_one_folded_node_over_a_tower(system):
    # the suspect vertices past abscissa 1 of a 1-folded node are the
    # parent's: its flag is already set, and the walked tree is the same
    caps = Caps(depth=8, tower=4)
    assert_no_vertex_past_one_decides(system, caps)
    assert_walked_tree_is_the_full_child_tree(system, caps, lengths=(4,))


# ---------------------------------------------------------------------------
# multi-folded tree steps on the walk's pair against the full child
# ---------------------------------------------------------------------------

PLANTED_ROOTS = (Q(1), Q(-1), Q(2), Q(1, 2), Q(-3))


@st.composite
def planted_systems(draw, kind):
    """dw/dz = P / Q with P = L^m (1 + U) + R and Q = z^t (1 + V), where L
    plants a root of multiplicity m on the edge of slope k: L = w - c z^k
    over Q (``kind`` "rational"), L = w - c t z^k over Q(t), t^2 = 2
    ("tower"), or L = w^2 - 2 c^2 z^(2k) over Q, whose roots +-c t the step
    adjoins ("conjugate").  R is a z^r + b z^s w, or, for a root in the
    coefficient field, Q c k z^(k-1) (c t k z^(k-1) over Q(t)), so that w =
    c z^k (c t z^k) solves the equation and the m-folded child is an exact
    leaf.  R, Q and the terms of U and V lie above that edge, so the step
    from the root is m-folded."""
    c, k, m = draw(st.sampled_from(PLANTED_ROOTS)), draw(st.integers(1, 3)), draw(st.integers(2, 4))
    tower, t = adjoin_root(QQ_TOWER, UniPoly([Q(-2), Q(0), Q(1)])) if kind == "tower" else (None, None)
    lead = c if t is None else t * c
    if kind == "conjugate":
        root, width = bp({(0, 2): 1, (2 * k, 0): -2 * c * c}), 2 * m
    else:
        root, width = BiPoly({(0, 1): 1, (k, 0): -lead}, tower), m
    height = k * width  # the edge runs from (0, height) to (width, 0)

    def perturbed():
        keys = draw(st.lists(st.sampled_from([(1, 0), (0, 1), (1, 1), (2, 0)]), max_size=2, unique=True))
        return bp({(0, 0): 1, **{key: draw(st.sampled_from([1, -1, 2])) for key in keys}})

    P = perturbed()
    for _ in range(m):
        P = P * root
    Qd = bp({(height - k + 1 + draw(st.integers(1, 2)), 0): 1}) * perturbed()
    if kind != "conjugate" and draw(st.booleans()):
        P = P + Qd * BiPoly({(k - 1, 0): lead * k}, tower)
    else:
        above = {(height + draw(st.integers(1, 3)), 0): draw(st.sampled_from([1, -2, 3]))}
        if draw(st.booleans()):
            above[(height - k + draw(st.integers(1, 3)), 1)] = draw(st.sampled_from([1, -1, 2]))
        P = P + bp(above)
    if tower is not None:
        return OdeSystem(P, Qd, tower)
    try:
        return make_system(P, Qd)
    except OdeError:
        assume(False)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["rational", "tower", "conjugate"]).flatmap(planted_systems))
def test_multi_folded_tree_steps_match_the_full_child_on_planted_roots(system):
    engine = assert_walked_tree_is_the_full_child_tree(system)
    assert engine.multi_folded


@pytest.mark.parametrize(
    "P, Qd, count, levels",
    [
        # (w - z)^2 / z^3: the root 1 of the edge of slope 1 is 2-folded
        ({(0, 2): 1, (1, 1): -2, (2, 0): 1}, {(3, 0): 1}, 2, {0}),
        # ((w^2 - 2 z^2)^2 + z^7) / z^5: the roots +-t0 of the edge of slope
        # 1 are 2-folded, and the child's ramified step adjoins t1, where
        # the pair is a multiple of the exact remainder
        ({(0, 4): 1, (2, 2): -4, (4, 0): 4, (7, 0): 1}, {(5, 0): 1}, 4, {2}),
    ],
)
def test_multi_folded_tree_steps_match_the_full_child(P, Qd, count, levels):
    system = make_system(bp(P), bp(Qd))
    engine = assert_walked_tree_is_the_full_child_tree(system)
    assert engine.multi_folded
    tree = expand_branches(system)
    assert sum(lf.conj_degree for lf in tree.leaves if lf.counted) == count
    assert {levels_of(lf.tower) for lf in tree.leaves} == levels


def test_tree_steps_replay_on_both_factors_of_an_adjoined_level():
    # over Q(t0), t0^2 = 2, the edge polynomial (a^2 - 2)^2 of P = (w^2 -
    # 2 z^2)^2 + z^4 w - t0 z^5, Q = z^6 is squarefree-split to a^2 - 2,
    # whose norm (a^2 - 2)^2 is not squarefree; its shift (a - t0)^2 - 2 =
    # a^2 - 2 t0 a has the norm a^2 (a^2 - 8), whose factors give the two
    # roots t0 and -t0 in Q(t0) itself: no level is adjoined, and each
    # 2-folded child is expanded over Q(t0)
    tower, t = adjoin_root(QQ_TOWER, UniPoly([Q(-2), Q(0), Q(1)]))
    P = BiPoly({(0, 4): 1, (2, 2): -4, (4, 0): 4, (4, 1): 1, (5, 0): -t}, tower)
    system = OdeSystem(P, BiPoly({(6, 0): 1}, tower), tower)
    roots = exact.factor_roots(UniPoly([-2, 0, 1], var="a", tower=tower), tower)
    assert [(r.value, r.note) for r in roots] == [(t, "tower-linear"), (-t, "tower-linear")]
    engine = assert_walked_tree_is_the_full_child_tree(system)
    assert engine.multi_folded
    tree = expand_branches(system)
    # each branch ramifies at its child and adjoins t1 over Q(t0)
    assert [(lf.status, lf.conj_degree, levels_of(lf.tower)) for lf in tree.leaves] == [("closed", 2, 2)] * 2
    for leaf in tree.leaves:
        terms = [(mu, leaf.tower.coerce(c)) for mu, c in extend_leaf(leaf, 6)]
        vals = _residual_valuations(system, leaf, terms)
        assert None not in vals and all(a < b for a, b in zip(vals, vals[1:])), vals


def test_tree_steps_replay_a_prefix_made_in_a_lower_tower():
    # over Q(t0), t0^2 = 2, P = (w^2 - 2 z^2)^2 + z^5 w - t0 z^6, Q = z^6:
    # the root step's a^2 - 2 has the roots +-t0 in Q(t0) (no level is
    # adjoined), and each 2-folded child's ramified step adjoins t1, so the
    # first coefficient, made in Q(t0), is moved into Q(t0, t1) with the
    # rest of the node
    tower, t = adjoin_root(QQ_TOWER, UniPoly([Q(-2), Q(0), Q(1)]))
    P = BiPoly({(0, 4): 1, (2, 2): -4, (4, 0): 4, (5, 1): 1, (6, 0): -t}, tower)
    system = OdeSystem(P, BiPoly({(6, 0): 1}, tower), tower)
    assert_walked_tree_is_the_full_child_tree(system)
    tree = expand_branches(system)
    assert [(lf.status, lf.conj_degree, levels_of(lf.tower)) for lf in tree.leaves] == [("closed", 2, 2)] * 2
    for leaf in tree.leaves:
        terms = extend_leaf(leaf, 6)
        assert all(c.tower == leaf.tower for _, c in terms if isinstance(c, ExtElem))
        vals = _residual_valuations(system, leaf, terms)
        assert None not in vals and all(a < b for a, b in zip(vals, vals[1:])), vals


def assert_coefficients_lie_in_the_branch_tower(system):
    """Every coefficient of every branch of ``multiplicity_at`` at the
    origin lies in the branch's tower, whose every level the branch report
    lists; returns the largest number of levels of a branch's tower."""
    res = multiplicity_at(system, ("point", Q(0), Q(0)))
    most = 0
    for branch in res.branches:
        for _, c in branch.terms:
            assert not isinstance(c, ExtElem) or c.tower == branch.tower, (branch.terms, branch.tower)
        names = [lv.name for lv in branch.tower.levels] if branch.tower else []
        assert [lv["generator"] for lv in branch_report(branch)["tower"]] == names
        most = max(most, len(names))
    return most


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["tower", "conjugate"]).flatmap(planted_systems))
def test_branch_coefficients_lie_in_the_branch_tower_on_planted_roots(system):
    assert_coefficients_lie_in_the_branch_tower(system)


def test_branch_coefficients_lie_in_the_branch_tower_on_example45_over_a_root():
    # m a root of 3 t^2 + 2 t - 2: the ramified branch at the origin adjoins
    # a second level above t0, and the other branch stays in Q(t0)
    system = example45_over_root_of([Q(-2, 3), Q(2, 3), Q(1)])
    assert assert_coefficients_lie_in_the_branch_tower(system) == 2


def test_branch_tower_lists_every_level_its_coefficients_use():
    # ((w^2 - 2 z^2)^2 + z^7) / z^5: the first coefficient is t0, t0^2 = 2,
    # and the ramified step of the 2-folded child adjoins t1 above it
    system = make_system(bp({(0, 4): 1, (2, 2): -4, (4, 0): 4, (7, 0): 1}), bp({(5, 0): 1}))
    assert assert_coefficients_lie_in_the_branch_tower(system) == 2


# ---------------------------------------------------------------------------
# dicritical edges: the lowest weighted part a multiple of the radial field
# ---------------------------------------------------------------------------

NONZERO_COEFFS = st.sampled_from([-3, -2, -1, 1, 2, 3])


@st.composite
def radial_systems(draw):
    """dw/dz = P / Q with P = w F + h.o.t. and Q = z F + h.o.t.: F a form of
    degree d with at least two terms, every further term of total degree
    d + 2 or d + 3.  At weight 1 the lowest part of Q dw - P dz is
    F (z dw - w dz), a multiple of the radial form, so the edge of slope -1
    carries a characteristic polynomial that vanishes identically."""
    d = draw(st.integers(1, 3))
    form = {(d - k, k): draw(NONZERO_COEFFS) for k in draw(st.lists(st.integers(0, d), min_size=2, unique=True))}

    def higher():
        out = {}
        for _ in range(draw(st.integers(0, 3))):
            total = draw(st.integers(d + 2, d + 3))
            i = draw(st.integers(0, total))
            out[(i, total - i)] = draw(NONZERO_COEFFS)
        return out

    P = {(i, j + 1): c for (i, j), c in form.items()}
    Qd = {(i + 1, j): c for (i, j), c in form.items()}
    P.update(higher())
    Qd.update(higher())
    try:
        return make_system(bp(P), bp(Qd))
    except OdeError:
        assume(False)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(radial_systems())
def test_a_radial_lowest_part_makes_the_origin_critical(system):
    res = multiplicity_at(system, ("point", Q(0), Q(0)))
    assert res.status == "critical"
    # a merged vertex of another slope, from the higher terms, is tested first
    assert res.witness.kind in ("dicritical-edge", "vertex-dominance")
    if res.witness.kind == "dicritical-edge":
        assert res.witness.lam_star == 1 and res.witness.depth == 0


def test_dicritical_edge_below_the_root():
    # Q w' = P with w = z + w1 is Q1 w1' = P1 for P1 = P - Q, and with
    # P1 = 2 w1 F + z^5, Q1 = z F, F = w1 + z^2 the lowest part at weight 2
    # is F (z dw1 - 2 w1 dz).  At the root the edge polynomial is
    # -(a - 1)^2, so the double root 1 leads to that child, whose edge of
    # exponent 2 has a zero polynomial
    P = bp({(0, 2): 2, (1, 1): -3, (2, 0): 1, (2, 1): 2, (3, 0): -1, (5, 0): 1})
    Qd = bp({(1, 1): 1, (2, 0): -1, (3, 0): 1})
    res = multiplicity_at(make_system(P, Qd), ("point", Q(0), Q(0)))
    assert res.status == "critical"
    assert (res.witness.kind, res.witness.lam_star, res.witness.depth) == ("dicritical-edge", 2, 1)
    assert list(res.witness.prefix) == [(1, 1)]


def test_a_prefix_without_a_continuation_is_a_non_algebraic_leaf():
    # (2 w^2 - 3 z w + z^2 + z^4) / (z w - z^2): the root's edge polynomial
    # -(a - 1)^2 has the double root 1, and w = z + w1 leaves
    # z w1 w1' = 2 w1^2 + z^4, whose one edge has the polynomial -1: no
    # series continues the prefix (w1^2 = z^4 (2 log z + C))
    P = bp({(0, 2): 2, (1, 1): -3, (2, 0): 1, (4, 0): 1})
    Qd = bp({(1, 1): 1, (2, 0): -1})
    res = multiplicity_at(make_system(P, Qd), ("point", Q(0), Q(0)))
    assert (res.status, res.count) == ("finite", 0)
    assert [(b.status, b.terms) for b in res.branches] == [("non-algebraic", ((1, 1),))]


def test_a_node_below_the_root_without_an_edge_past_its_exponent_is_an_internal_error(monkeypatch):
    # the double root 1 of (a - 1)^2 makes a multi-folded child, which is not
    # exact, so it always has an edge past 1; with its edges taken away the
    # engine stops instead of dropping the prefix
    calls = []

    def newton_without_edges_below_the_root(sides):
        prof, diagram = _newton(sides)
        calls.append(sides)
        return prof, (diagram if len(calls) == 1 else replace(diagram, edges=()))

    monkeypatch.setattr(branching, "_newton", newton_without_edges_below_the_root)
    with pytest.raises(RuntimeError, match="no edge past its exponent"):
        multiplicity_at(make_system(bp({(0, 2): 1, (1, 1): -2, (2, 0): 1}), bp({(3, 0): 1})), ("point", Q(0), Q(0)))


def test_an_edge_polynomial_past_the_factor_cap_gives_its_rational_root():
    # dw/dz = z^8 / w^8 has the edge polynomial a^9 - 1 at the origin: its
    # root 1 is split off before the factor cap, so the branch w = z is
    # counted, and the rest, of degree 8, is factored at the default cap
    # and capped at factor=4
    sys, _ = parse_system("dw/dz = (z^8) / (w^8)")
    full = multiplicity_at(sys, ("point", Q(0), Q(0)))
    assert (full.status, full.count) == ("finite", 9)
    assert [b.conj_degree for b in full.branches] == [1, 2, 6]
    capped = multiplicity_at(sys, ("point", Q(0), Q(0)), Caps(factor=4))
    assert (capped.status, capped.lower_bound) == ("capped", 1)
    assert [r.detail for r in capped.reasons] == ["factor-cap"]
    assert [(b.terms, b.conj_degree) for b in capped.branches] == [(((Q(1), Q(1)),), 1)]
