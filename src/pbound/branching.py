"""Iterated Newton-polygon expansion of local algebraic solutions.

A branch prefix grows one acceptable pair (lambda, alpha) at a time.  At each
node the engine

* detects exact (polynomial) termination,
* tests every merged hull vertex for the one-parameter-family criterion
  (positive rational ratio p_{j,0}/q_{j-1,0} dominating all other support
  points), which makes the point algebraic critical,
* after a 1-folded step applies the closure test: the continuation is a
  uniquely determined series unless the remainder ratio p1/q0 is a rational
  number exceeding the last exponent (the resonant case, resolved by bounded
  deterministic stepping),
* otherwise expands every admissible edge of the Newton diagram, one conjugacy
  representative per irreducible factor of the edge characteristic polynomial.

Conjugate branches are never expanded separately: a degree-d factor is
adjoined to the coefficient tower and the representative carries conjugacy
degree d.  A presumed-irreducible modulus that later reveals a zero divisor
splits the tower and the affected subtree is replayed on both factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple, Optional

from .exact import (
    ExactError,
    ExtElem,
    Q,
    Tower,
    TowerSplitError,
    UniPoly,
    adjoin_root,
    as_fraction,
    certified_is_rational,
    f_inv,
    factor_univariate,
    sort_key,
    transport_elem,
)
from .newton import (
    first_critical,
    lower_hull,
    nonzero_char_poly,
    support_points,
    vertex_critical_check,
)
from .polyode import (
    OdeSystem,
    PuiseuxBranch,
    coeff_profile,
    substitute_branch,
    transform_point,
)


@dataclass(frozen=True)
class Caps:
    """Safety caps; hitting one yields a certified lower bound, never a wrong
    finite answer."""

    depth: int = 32
    ram: int = 64
    tower: int = 16
    terms: int = 10
    factor_cap: int = 8


DEFAULT_CAPS = Caps()


@dataclass(frozen=True)
class Witness:
    """Why a point is algebraic critical."""

    kind: str  # "vertex-dominance" or "resonance"
    lam_star: object
    depth: int
    prefix: tuple
    flags: tuple = ()


class CriticalFound(Exception):
    def __init__(self, witness: Witness):
        super().__init__("algebraic critical")
        self.witness = witness


@dataclass
class Leaf:
    terms: tuple  # ((mu, alpha), ...)
    status: str  # "closed" | "exact" | "non-algebraic" | "cap-exceeded"
    tower: Optional[Tower]
    conj_degree: int
    remainder: Optional[OdeSystem]
    lam_last: Fraction
    depth: int
    flags: tuple = ()

    @property
    def counted(self) -> bool:
        return self.status in ("closed", "exact")


@dataclass
class BranchTree:
    root: OdeSystem
    leaves: list
    critical: Optional[Witness]
    flags: tuple = ()

    def cap_hits(self):
        return [lf for lf in self.leaves if lf.status == "cap-exceeded"]


@dataclass
class MultiplicityResult:
    status: str  # "finite" | "critical" | "capped"
    count: Optional[int] = None
    branches: tuple = ()
    witness: Optional[Witness] = None
    lower_bound: Optional[int] = None
    diagnostics: tuple = ()
    flags: tuple = ()


@dataclass(frozen=True)
class _Node:
    system: OdeSystem
    prefix: tuple
    lam_prev: Fraction
    folded: int  # d of the incoming pair; 0 at the root
    depth: int
    flags: tuple = ()
    no_closure: bool = False


class _Step(NamedTuple):
    """One Newton step w = alpha z^lam + w1; a capped root has alpha and
    system None and names the cap in ``note``."""

    lam: Fraction
    alpha: object
    folded: int
    system: Optional[OdeSystem]
    note: str


def _tower_deg(tower: Optional[Tower]) -> int:
    return 1 if tower is None else tower.degree()


def _transport_prefix(prefix, tower: Tower):
    return tuple(
        (mu, transport_elem(c, tower) if isinstance(c, ExtElem) else c) for mu, c in prefix
    )


def _newton(sys: OdeSystem):
    """The coefficient profile of a system and its Newton diagram."""
    prof = coeff_profile(sys)
    return prof, lower_hull(support_points(prof), prof)


def _vertex_verdicts(node: _Node, prof, diagram, kind: str, flags: tuple):
    """Vertex verdicts at a node; raises CriticalFound on a critical vertex."""
    verdicts = vertex_critical_check(diagram, prof, lam_min=node.lam_prev)
    hit = first_critical(verdicts)
    if hit is not None:
        raise CriticalFound(
            Witness(kind=kind, lam_star=hit.lam_star, depth=node.depth, prefix=node.prefix, flags=flags)
        )
    return verdicts


def _child(node: _Node, step: _Step) -> _Node:
    return _Node(
        system=step.system,
        prefix=node.prefix + ((step.lam, step.alpha),),
        lam_prev=step.lam,
        folded=step.folded,
        depth=node.depth + 1,
        flags=node.flags,
    )


class _Expander:
    def __init__(self, sys: OdeSystem, caps: Caps):
        self.caps = caps
        self.base_levels = 0 if sys.tower is None else len(sys.tower.levels)
        self.base_degree = _tower_deg(sys.tower)
        self.tree_flags = set()

    # -- tower split replay ---------------------------------------------------

    def expand(self, node: _Node):
        try:
            return self._expand_inner(node)
        except TowerSplitError as exc:
            if exc.level < self.base_levels:
                raise
            t1, t2 = exc.factor_towers()
            out = []
            for t in (t1, t2):
                remapped = replace(
                    node,
                    system=node.system.transport(t),
                    prefix=_transport_prefix(node.prefix, t),
                )
                out.extend(self.expand(remapped))
            return out

    # -- node processing ------------------------------------------------------

    def _expand_inner(self, node: _Node):
        sys = node.system
        prof, diagram = _newton(sys)
        leaves = []

        exact_here = 0 not in prof.p
        if exact_here and node.prefix:
            leaves.append(self._leaf(node, "exact"))

        verdicts = _vertex_verdicts(node, prof, diagram, "vertex-dominance", node.flags)
        if any(v.dicritical_suspect for v in verdicts):
            self.tree_flags.add("dicritical-suspect")

        if (
            not node.no_closure
            and node.folded == 1
            and node.prefix
            and not exact_here
        ):
            kind, rho = closure_check(sys, node.lam_prev)
            if kind == "closed":
                leaves.append(self._leaf(node, "closed"))
                return leaves
            if kind == "resonance":
                return leaves + self._resolve_resonance(node, rho)
            # kind == "generic": fall through

        if node.depth >= self.caps.depth:
            leaves.append(self._leaf(node, "cap-exceeded", flags=("depth-cap",)))
            return leaves

        for step in self._steps_from_diagram(sys, node.lam_prev, diagram):
            if step.system is None:
                leaves.append(self._leaf(node, "cap-exceeded", flags=(step.note,)))
                continue
            leaves.extend(self.expand(_child(node, step)))
        return leaves

    def _leaf(self, node: _Node, status: str, flags=()):
        return Leaf(
            terms=node.prefix,
            status=status,
            tower=node.system.tower,
            conj_degree=_tower_deg(node.system.tower) // self.base_degree,
            remainder=node.system,
            lam_last=node.lam_prev,
            depth=node.depth,
            flags=tuple(node.flags) + tuple(flags),
        )

    # -- resonance: bounded deterministic stepping -------------------------------

    def _resolve_resonance(self, node: _Node, rho):
        cur = node
        for _ in range(self.caps.depth):
            prof, diagram = _newton(cur.system)
            _vertex_verdicts(cur, prof, diagram, "resonance", ("resonance",))
            if 0 not in prof.p:
                return [self._leaf(cur, "exact", flags=("resonance",))]
            k0 = prof.p[0][0]
            cands = []
            if 1 in prof.p:
                cands.append(prof.p[1][0])
            if 0 in prof.q:
                cands.append(prof.q[0][0] - 1)
            if not cands:
                return list(self.expand(replace(cur, no_closure=True)))
            lam_next = k0 - min(cands)
            if lam_next == rho:
                # the linear term cancels at the balancing order and the
                # inhomogeneity does not: no algebraic continuation
                return [
                    self._leaf(cur, "non-algebraic", flags=("resonance-order-hit",))
                ]
            if lam_next > rho or lam_next <= cur.lam_prev:
                return list(self.expand(replace(cur, no_closure=True)))
            steps = self._steps_from_diagram(cur.system, cur.lam_prev, diagram)
            if len(steps) != 1:
                return list(self.expand(replace(cur, no_closure=True)))
            if steps[0].system is None:
                return [self._leaf(cur, "cap-exceeded", flags=(steps[0].note,))]
            cur = _child(cur, steps[0])
        return [self._leaf(cur, "cap-exceeded", flags=("resonance-cap",))]

    # -- edge roots -> child steps ---------------------------------------------

    def _steps_from_diagram(self, sys: OdeSystem, lam_prev, diagram):
        """The Newton steps past ``lam_prev``, sorted by exponent and root."""
        out = []
        for edge in diagram.edges:
            if not edge.admissible or edge.lam <= lam_prev:
                continue
            phi = nonzero_char_poly(edge)
            if phi.degree() < 1:
                continue
            for alpha, d, new_tower, note in self._char_roots(phi, sys.tower):
                if alpha is None:
                    out.append(_Step(edge.lam, None, d, None, note))
                    continue
                work = sys if new_tower is None else sys.map_tower(new_tower)
                child = substitute_branch(work, edge.lam, alpha, check_acceptable=False)
                if child.ram > self.caps.ram:
                    out.append(_Step(edge.lam, None, d, None, "ramification-cap"))
                    continue
                out.append(_Step(edge.lam, alpha, d, child, note))
        out.sort(key=lambda t: (t.lam,) + (sort_key(t.alpha) if t.alpha is not None else ((), ())))
        return out

    def _char_roots(self, phi: UniPoly, tower: Optional[Tower]):
        """Roots of the edge polynomial as (alpha, foldedness, tower, note).

        ``phi`` has no root 0.  Over Q: full factorization; rational roots stay
        rational, each irreducible factor of degree d adjoins one
        representative root.  Over a tower: squarefree split, linear factors
        solved in the tower, higher factors adjoined presumed irreducible.
        """
        roots = []
        if tower is None or tower.is_trivial():
            try:
                factors = factor_univariate(phi, cap=self.caps.factor_cap)
            except ExactError:
                return [(None, 1, None, "factor-cap")]
            for fac in factors:
                if fac.poly.degree() == 1:
                    c0, c1 = fac.poly.coeffs
                    roots.append((-as_fraction(c0) / as_fraction(c1), fac.multiplicity, tower, "rational"))
                    continue
                fac.poly.certified_irreducible = fac.certified
                roots.append(self._adjoined(Tower(cap=self.caps.tower), fac.poly, fac.multiplicity))
        else:
            # a monic squarefree factor of phi has a nonzero constant term
            for g, mult in phi.squarefree_decomposition():
                if g.degree() == 1:
                    roots.append((-g.coeffs[0] * f_inv(g.coeffs[1]), mult, tower, "tower-linear"))
                else:
                    roots.append(self._adjoined(Tower(tower.levels, cap=self.caps.tower), g, mult))
        return roots

    @staticmethod
    def _adjoined(base: Tower, minpoly: UniPoly, mult: int):
        try:
            t2, theta = adjoin_root(base, minpoly)
        except ExactError:
            return (None, mult, None, "tower-cap")
        return (theta, mult, t2, "adjoined")


# ---------------------------------------------------------------------------
# public drivers
# ---------------------------------------------------------------------------

def expand_branches(sys: OdeSystem, caps: Caps = DEFAULT_CAPS) -> BranchTree:
    """Expand the full branch tree of local algebraic solutions at the origin."""
    engine = _Expander(sys, caps)
    root = _Node(
        system=sys.normalized(),
        prefix=(),
        lam_prev=Q(0),
        folded=0,
        depth=0,
    )
    try:
        leaves = engine.expand(root)
    except CriticalFound as hit:
        return BranchTree(root=sys, leaves=[], critical=hit.witness, flags=tuple(sorted(engine.tree_flags)))
    leaves.sort(key=_leaf_key)
    return BranchTree(root=sys, leaves=leaves, critical=None, flags=tuple(sorted(engine.tree_flags)))


def _leaf_key(leaf: Leaf):
    toks = tuple((mu,) + sort_key(c) for mu, c in leaf.terms)
    return (toks, leaf.status)


def closure_check(sys: OdeSystem, lam_prev=Q(0)):
    """Classify continuation after a 1-folded pair: "closed", "resonance"
    (with the indicial ratio) or "generic" when the leading denominator data
    is missing."""
    prof = coeff_profile(sys)
    if 0 not in prof.p:
        return "closed", None
    if 0 not in prof.q:
        return "generic", None
    k1 = prof.p.get(1)
    l0, q0 = prof.q[0]
    if k1 is None or k1[0] != l0 - 1:
        return "closed", None
    rho = k1[1] * f_inv(q0)
    # the rationality of the indicial ratio decides closure, so it must be
    # certified at the level of component values (may split the tower)
    if not certified_is_rational(rho):
        return "closed", None
    rho = as_fraction(rho)
    if rho <= 0 or rho <= lam_prev:
        return "closed", None
    return "resonance", rho


def resolve_resonance(sys: OdeSystem, lam_prev, rho, caps: Caps = DEFAULT_CAPS):
    """Resolve a resonant remainder system standalone.

    Returns ("critical", witness), ("non-algebraic", leaf), ("exact", leaf)
    or ("closed", leaves); leaf terms describe the resonant tail only.
    """
    engine = _Expander(sys, caps)
    node = _Node(system=sys, prefix=(), lam_prev=Q(lam_prev), folded=1, depth=0)
    try:
        leaves = engine._resolve_resonance(node, Q(rho))
    except CriticalFound as hit:
        return "critical", hit.witness
    if len(leaves) == 1:
        return leaves[0].status, leaves[0]
    return "closed", leaves


def extend_leaf(leaf: Leaf, n_terms: int, caps: Caps = DEFAULT_CAPS):
    """Continue a closed/exact leaf deterministically up to n_terms terms."""
    terms = leaf.terms
    if not leaf.counted:
        return terms
    engine = _Expander(leaf.remainder, caps)
    sys, lam_prev = leaf.remainder, leaf.lam_last
    while len(terms) < n_terms:
        prof, diagram = _newton(sys)
        if 0 not in prof.p:
            break  # exact: the series terminates
        steps = [s for s in engine._steps_from_diagram(sys, lam_prev, diagram) if s.alpha is not None]
        if len(steps) != 1:
            break
        lam_prev, sys = steps[0].lam, steps[0].system
        terms += ((lam_prev, steps[0].alpha),)
    return terms


def multiplicity_at(sys: OdeSystem, point, caps: Caps = DEFAULT_CAPS) -> MultiplicityResult:
    """Algebraic multiplicity at ("point", z0, w0) or ("inf", z0).

    Transforms the point to the origin, expands the branch tree and counts the
    counted leaves weighted by conjugacy degree; the constant solution is never
    counted.  Counted branches are extended to ``caps.terms`` terms.
    """
    tree = expand_branches(transform_point(sys, point), caps)
    if tree.critical is not None:
        return MultiplicityResult(status="critical", witness=tree.critical, flags=tree.flags)
    branches = []
    for leaf in tree.leaves:
        if not leaf.terms:
            continue
        terms = extend_leaf(leaf, caps.terms, caps)
        branches.append(
            PuiseuxBranch(
                terms=terms,
                ram=math.lcm(*(mu.denominator for mu, _ in terms)),
                base=point,
                conj_degree=leaf.conj_degree,
                status=leaf.status,
                flags=leaf.flags,
            )
        )
    count = sum(lf.conj_degree for lf in tree.leaves if lf.counted)
    caps_hit = tree.cap_hits()
    if caps_hit:
        return MultiplicityResult(
            status="capped",
            lower_bound=count,
            branches=tuple(branches),
            diagnostics=tuple(sorted({f for lf in caps_hit for f in lf.flags})),
            flags=tree.flags,
        )
    return MultiplicityResult(
        status="finite", count=count, branches=tuple(branches), flags=tree.flags
    )
