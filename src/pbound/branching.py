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

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .exact import (
    ExactError,
    Q,
    Tower,
    TowerSplitError,
    UniPoly,
    as_fraction,
    certified_is_rational,
    f_inv,
    f_is_zero,
    factor_univariate,
    sort_key,
)
from .newton import (
    first_critical,
    lower_hull,
    nonzero_char_poly,
    support_points,
    vertex_critical_check,
)
from .polyode import (
    CoeffProfile,
    OdeSystem,
    PuiseuxBranch,
    coeff_profile,
    invert_at_infinity,
    substitute_branch,
    translate_point,
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


def _tower_deg(tower: Optional[Tower]) -> int:
    return 1 if tower is None else tower.degree()


def _transport_prefix(prefix, tower: Tower):
    from .exact import ExtElem, transport_elem

    out = []
    for mu, c in prefix:
        if isinstance(c, ExtElem):
            out.append((mu, transport_elem(c, tower)))
        else:
            out.append((mu, c))
    return tuple(out)


class _Expander:
    def __init__(self, sys: OdeSystem, caps: Caps):
        self.base = sys
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
        prof = coeff_profile(sys)
        leaves = []

        exact_here = 0 not in prof.p
        if exact_here and node.prefix:
            leaves.append(self._leaf(node, "exact"))

        diagram = lower_hull(support_points(prof), prof)
        verdicts = vertex_critical_check(diagram, prof, lam_min=node.lam_prev)
        hit = first_critical(verdicts)
        if hit is not None:
            raise CriticalFound(
                Witness(
                    kind="vertex-dominance",
                    lam_star=hit.lam_star,
                    depth=node.depth,
                    prefix=node.prefix,
                    flags=node.flags,
                )
            )
        if any(v.dicritical_suspect for v in verdicts):
            self.tree_flags.add("dicritical-suspect")

        if (
            not node.no_closure
            and node.folded == 1
            and node.prefix
            and not exact_here
        ):
            kind, rho = self._closure_classify(prof, node.lam_prev)
            if kind == "closed":
                leaves.append(self._leaf(node, "closed"))
                return leaves
            if kind == "resonance":
                return leaves + self._resolve_resonance(node, rho)
            # kind == "generic": fall through

        if node.depth >= self.caps.depth:
            leaves.append(self._leaf(node, "cap-exceeded", flags=("depth-cap",)))
            return leaves

        for lam, alpha, d, child_sys, conj_note in self._steps_from_diagram(node, prof, diagram):
            if child_sys is None:
                leaves.append(self._leaf(node, "cap-exceeded", flags=(conj_note,)))
                continue
            child = _Node(
                system=child_sys,
                prefix=node.prefix + ((lam, alpha),),
                lam_prev=lam,
                folded=d,
                depth=node.depth + 1,
                flags=node.flags,
            )
            leaves.extend(self.expand(child))
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

    # -- closure test (after a 1-folded pair) -----------------------------------

    @staticmethod
    def _closure_classify(prof: CoeffProfile, lam_prev):
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

    # -- resonance: bounded deterministic stepping -------------------------------

    def _resolve_resonance(self, node: _Node, rho):
        cur = node
        for _ in range(self.caps.depth):
            prof = coeff_profile(cur.system)
            diagram = lower_hull(support_points(prof), prof)
            hit = first_critical(vertex_critical_check(diagram, prof, lam_min=cur.lam_prev))
            if hit is not None:
                flags = ("resonance",)
                raise CriticalFound(
                    Witness(
                        kind="resonance",
                        lam_star=hit.lam_star,
                        depth=cur.depth,
                        prefix=cur.prefix,
                        flags=flags,
                    )
                )
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
            steps = self._steps_from_diagram(cur, prof, diagram)
            if len(steps) != 1:
                return list(self.expand(replace(cur, no_closure=True)))
            lam, alpha, d, child_sys, note = steps[0]
            if child_sys is None:
                return [self._leaf(cur, "cap-exceeded", flags=(note,))]
            cur = _Node(
                system=child_sys,
                prefix=cur.prefix + ((lam, alpha),),
                lam_prev=lam,
                folded=d,
                depth=cur.depth + 1,
                flags=cur.flags,
            )
        return [self._leaf(cur, "cap-exceeded", flags=("resonance-cap",))]

    # -- edge roots -> child steps ---------------------------------------------

    def _steps_from_diagram(self, node: _Node, prof: CoeffProfile, diagram):
        sys = node.system
        out = []
        for edge in diagram.edges:
            if not edge.admissible or edge.lam <= node.lam_prev:
                continue
            phi = nonzero_char_poly(edge)
            if phi.degree() < 1:
                continue
            for alpha, d, new_tower, note in self._char_roots(phi, sys.tower):
                if alpha is None:
                    out.append((edge.lam, None, d, None, note))
                    continue
                work = sys if new_tower is None else sys.map_tower(new_tower)
                child = substitute_branch(work, edge.lam, alpha, check_acceptable=False)
                if child.ram > self.caps.ram:
                    out.append((edge.lam, None, d, None, "ramification-cap"))
                    continue
                out.append((edge.lam, alpha, d, child, note))
        out.sort(key=lambda t: (t[0],) + (sort_key(t[1]) if t[1] is not None else ((), ())))
        return out

    def _char_roots(self, phi: UniPoly, tower: Optional[Tower]):
        """Roots of the edge polynomial as (alpha, foldedness, tower, note).

        Over Q: full factorization; rational roots stay rational, each
        irreducible factor of degree d adjoins one representative root.  Over a
        tower: squarefree split, linear factors solved in the tower, higher
        factors adjoined presumed irreducible.
        """
        roots = []
        if tower is None or tower.is_trivial():
            try:
                factors = factor_univariate(phi, cap=self.caps.factor_cap)
            except ExactError:
                return [(None, 1, None, "factor-cap")]
            base = tower if tower is not None else Tower(cap=self.caps.tower)
            for fac in factors:
                if fac.poly.degree() == 1:
                    c0, c1 = fac.poly.coeffs
                    roots.append((-as_fraction(c0) / as_fraction(c1), fac.multiplicity, tower, "rational"))
                else:
                    fac.poly.certified_irreducible = fac.certified
                    try:
                        t2, theta = adjoin_for(base, fac.poly, self.caps.tower)
                    except ExactError:
                        roots.append((None, fac.multiplicity, None, "tower-cap"))
                        continue
                    roots.append((theta, fac.multiplicity, t2, "adjoined"))
        else:
            for g, mult in phi.squarefree_decomposition():
                low = 0
                while low < len(g.coeffs) and f_is_zero(g.coeffs[low]):
                    low += 1
                g = UniPoly(list(g.coeffs[low:]), var=phi.var, tower=tower)
                if g.degree() < 1:
                    continue
                if g.degree() == 1:
                    alpha = -g.coeffs[0] * f_inv(g.coeffs[1])
                    if f_is_zero(alpha):
                        continue
                    roots.append((alpha, mult, tower, "tower-linear"))
                else:
                    try:
                        t2, theta = adjoin_for(tower, g.monic(), self.caps.tower)
                    except ExactError:
                        roots.append((None, mult, None, "tower-cap"))
                        continue
                    roots.append((theta, mult, t2, "adjoined"))
        return roots


def adjoin_for(tower: Tower, minpoly: UniPoly, cap: int):
    from .exact import adjoin_root

    capped = Tower(tower.levels, cap=cap)
    t2, theta = adjoin_root(capped, minpoly)
    return t2, theta


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


def closure_check(sys_or_node, lam_prev=Q(0)):
    """Classify continuation after a 1-folded pair: "closed", "resonance"
    (with the indicial ratio) or "generic" when the leading denominator data
    is missing."""
    sys = sys_or_node
    prof = coeff_profile(sys)
    if 0 not in prof.p:
        return "closed", None
    return _Expander._closure_classify(prof, lam_prev)


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
    terms = list(leaf.terms)
    sys = leaf.remainder
    lam_prev = leaf.lam_last
    if leaf.status not in ("closed", "exact"):
        return tuple(terms)
    engine = _Expander(sys, caps)
    while len(terms) < n_terms:
        prof = coeff_profile(sys)
        if 0 not in prof.p:
            break  # exact: the series terminates
        diagram = lower_hull(support_points(prof), prof)
        steps = engine._steps_from_diagram(
            _Node(system=sys, prefix=tuple(terms), lam_prev=lam_prev, folded=1, depth=0),
            prof,
            diagram,
        )
        steps = [s for s in steps if s[1] is not None]
        if len(steps) != 1:
            break
        lam, alpha, _, child, _ = steps[0]
        terms.append((lam, alpha))
        sys = child
        lam_prev = lam
    return tuple(terms)


def tree_multiplicity(tree: BranchTree, base_point) -> MultiplicityResult:
    if tree.critical is not None:
        return MultiplicityResult(status="critical", witness=tree.critical, flags=tree.flags)
    branches = []
    for leaf in tree.leaves:
        if not leaf.terms:
            continue
        ram = 1
        for mu, _ in leaf.terms:
            ram = ram * mu.denominator // _gcd(ram, mu.denominator)
        branches.append(
            PuiseuxBranch(
                terms=leaf.terms,
                ram=ram,
                base=base_point,
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


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def multiplicity_at(sys: OdeSystem, point, caps: Caps = DEFAULT_CAPS) -> MultiplicityResult:
    """Algebraic multiplicity at ("point", z0, w0) or ("inf", z0).

    Transforms the point to the origin, expands the branch tree and counts the
    counted leaves weighted by conjugacy degree; the constant solution is never
    counted.
    """
    kind = point[0]
    if kind == "point":
        moved = translate_point(sys, point[1], point[2])
    elif kind == "inf":
        moved = invert_at_infinity(sys, point[1])
    else:
        raise ValueError("unknown point kind %r" % (kind,))
    tree = expand_branches(moved, caps)
    result = tree_multiplicity(tree, point)
    result = replace_branches_with_extensions(result, tree, caps)
    return result


def replace_branches_with_extensions(result: MultiplicityResult, tree: BranchTree, caps: Caps):
    """Extend counted branches to the reporting term cap."""
    if result.status == "critical":
        return result
    extended = []
    leaf_by_terms = {}
    for leaf in tree.leaves:
        leaf_by_terms.setdefault(leaf.terms, leaf)
    for branch in result.branches:
        leaf = leaf_by_terms.get(branch.terms)
        if leaf is not None and leaf.counted and len(branch.terms) < caps.terms:
            terms = extend_leaf(leaf, caps.terms, caps)
            ram = 1
            for mu, _ in terms:
                ram = ram * mu.denominator // _gcd(ram, mu.denominator)
            branch = PuiseuxBranch(
                terms=terms,
                ram=ram,
                base=branch.base,
                conj_degree=branch.conj_degree,
                status=branch.status,
                flags=branch.flags,
            )
        extended.append(branch)
    return replace(result, branches=tuple(extended))
