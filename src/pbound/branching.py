"""Iterated Newton-polygon expansion of local algebraic solutions.

A branch prefix grows one acceptable pair (lambda, alpha) at a time.  At each
node the engine

* detects exact (polynomial) termination,
* tests every merged hull vertex for the one-parameter-family criterion
  (positive rational ratio p_{j,0}/q_{j-1,0} dominating all other support
  points), which makes the point algebraic critical,
* after a 1-folded step applies the closure test: the continuation is a
  uniquely determined series unless the remainder ratio p1/q0 is a rational
  number exceeding the last exponent (the resonant case).  Both that series
  and a resonance follow one truncated walk, ``_fold_walk``, which reads
  each next pair off k0 and the abscissa-1 point alone (``_fold_step``),
* otherwise expands every admissible edge of the Newton diagram, one conjugacy
  representative per irreducible factor of the edge characteristic polynomial.

Conjugate branches are never expanded separately: a degree-d factor is
adjoined to the coefficient tower and the representative carries conjugacy
degree d.  A presumed-irreducible modulus that later reveals a zero divisor
splits the tower and the affected subtree is replayed on both factors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple, Optional

from .exact import (
    DEFAULT_FACTOR_CAP,
    DEFAULT_TOWER_CAP,
    ExactError,
    ExtElem,
    Q,
    QQ_TOWER,
    Tower,
    TowerSplitError,
    UniPoly,
    _canon,
    adjoin_root,
    as_fraction,
    certified_is_rational,
    f_inv,
    f_is_zero,
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
    BiPoly,
    OdeSystem,
    PuiseuxBranch,
    _content_free,
    _integer_sides,
    _shift_sides,
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
    tower: int = DEFAULT_TOWER_CAP
    terms: int = 10
    factor: int = DEFAULT_FACTOR_CAP


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
    """A branch prefix where expansion stopped, with its status.

    ``remainder`` is the system for the rest of the branch.  At a node of
    the expansion tree it is exact; at a node of a resonance walk
    (``_walk_leaf``) it is truncated, and it may be the walk's scaled pair,
    a constant multiple of P and Q, which gives the same branches."""

    terms: tuple  # ((mu, alpha), ...)
    status: str  # "closed" | "exact" | "non-algebraic" | "cap-exceeded"
    tower: Optional[Tower]
    conj_degree: int
    remainder: Optional[OdeSystem]
    lam_last: Fraction
    flags: tuple = ()

    @property
    def counted(self) -> bool:
        return self.status in ("closed", "exact")


@dataclass
class BranchTree:
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
    prof = coeff_profile(sys.P.terms, sys.Q.terms, sys.n)
    return prof, lower_hull(support_points(prof), prof)


def _fold_step(prof, lam_prev):
    """The pair (lam, alpha) after a 1-folded pair of exponent ``lam_prev``:
    lam = k0 - y1, k0 the order of P(z, 0) and y1 the lower of k_1 and
    l_0 - 1, and alpha = p0 / c1 with c1 = q0 lam [Q on it] - p1 [P on it].
    None when there is no abscissa-1 point or lam <= lam_prev; alpha None
    when c1 cancels.  ``lam_prev`` is on the profile's scale n (n times
    each exponent, so y1 reads l_0 - n); lam is returned unscaled.

    One edge is enough: after a 1-folded pair every support point at
    abscissa >= 2 has lam_prev-weight y + x lam_prev at least that of the
    abscissa-1 point (1, y1).  So when k0 - y1 > lam_prev, the edge from
    (0, k0) to (1, y1) is the only edge past lam_prev, and its polynomial
    c1 a - p0 is linear; otherwise no edge lies past lam_prev.
    """
    n = prof.n
    k0, p0 = prof.p[0]
    p1, q0 = prof.p.get(1), prof.q.get(0)
    heights = ([p1[0]] if p1 else []) + ([q0[0] - n] if q0 else [])
    if not heights:
        return None
    y1 = min(heights)
    if k0 - y1 <= lam_prev:
        return None
    c1 = 0  # n c1, so that alpha = n p0 / (n c1)
    if q0 is not None and q0[0] - n == y1:
        c1 = c1 + q0[1] * (k0 - y1)
    if p1 is not None and p1[0] == y1:
        c1 = c1 - p1[1] * n
    if f_is_zero(c1):
        alpha = None
    elif type(c1) is int and type(p0) is int:
        alpha = _canon(Q(p0 * n, c1))
    else:
        alpha = p0 * n * f_inv(c1)
    return Q(k0 - y1, n), alpha


def _child(node: _Node, step: _Step) -> _Node:
    return _Node(step.system, node.prefix + ((step.lam, step.alpha),), step.lam, step.folded, node.depth + 1)


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

        verdicts = vertex_critical_check(diagram, prof, lam_min=node.lam_prev)
        hit = first_critical(verdicts)
        if hit is not None:
            raise CriticalFound(Witness("vertex-dominance", hit.lam_star, node.depth, node.prefix))
        if any(v.dicritical_suspect for v in verdicts):
            self.tree_flags.add("dicritical-suspect")

        if node.folded == 1 and node.prefix and not exact_here:
            kind, rho = _closure(prof, node.lam_prev)
            if kind == "closed":
                leaves.append(self._leaf(node, "closed"))
                return leaves
            if kind == "resonance":
                return leaves + [self._resolve_resonance(node, rho)]
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
            flags=tuple(flags),
        )

    # -- resonance: the truncated walk up to rho -------------------------------

    def _resolve_resonance(self, node: _Node, rho) -> Leaf:
        """Step through a resonance of indicial ratio ``rho`` for at most
        ``caps.depth`` steps; ``_fold_walk`` says why k0 alone decides.  The
        nodes of the walk carry no system: only a returned leaf gets one."""
        cur = node
        for sides, step in _fold_walk(node.system, node.lam_prev, rho=rho):
            if cur.depth - node.depth == self.caps.depth:
                return self._walk_leaf(cur, sides, "cap-exceeded", ("resonance-cap",))
            if step is None or step[0] > rho:
                break
            if step[0] == rho:
                # the linear term cancels at the balancing order and the
                # inhomogeneity does not: no algebraic continuation
                return self._walk_leaf(cur, sides, "non-algebraic", ("resonance-order-hit",))
            cur = _child(cur, _Step(*step, 1, None, ""))
        raise CriticalFound(Witness("resonance", rho, cur.depth, cur.prefix, ("resonance",)))

    def _walk_leaf(self, cur: _Node, sides, status, flags):
        """A leaf at the walk's node ``cur``, its remainder system built on
        the node's sides: truncated, and over Q or a one-level tower a
        constant multiple of the exact remainder (``_fold_walk``)."""
        p, q, n, tower = sides
        system = OdeSystem(BiPoly._from_clean(p, tower), BiPoly._from_clean(q, tower), tower, n)
        return self._leaf(replace(cur, system=system), status, flags=flags)

    # -- edge roots -> child steps ---------------------------------------------

    def _steps_from_diagram(self, sys: OdeSystem, lam_prev, diagram):
        """The Newton steps past ``lam_prev``, sorted by exponent and root;
        see ``_char_roots``."""
        out = []
        for edge in diagram.edges:
            if not edge.admissible or edge.lam <= lam_prev:
                continue
            phi = nonzero_char_poly(edge)
            if phi.degree() < 1:
                continue
            # a child lies on the scale lcm(n, q) for lam = p/q (translate_w),
            # so a capped one is never built
            capped = math.lcm(sys.n, edge.lam.denominator) > self.caps.ram
            for alpha, d, new_tower, note in self._char_roots(phi, sys.tower):
                if alpha is not None and capped:
                    alpha, note = None, "ramification-cap"
                if alpha is None:
                    out.append(_Step(edge.lam, None, d, None, note))
                    continue
                work = sys if new_tower is None else sys.map_tower(new_tower)
                out.append(_Step(edge.lam, alpha, d, substitute_branch(work, edge.lam, alpha), note))
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
                factors = factor_univariate(phi, cap=self.caps.factor)
            except ExactError:
                return [(None, 1, None, "factor-cap")]
            for fac in factors:
                if fac.poly.degree() == 1:
                    c0, c1 = fac.poly.coeffs
                    roots.append((-as_fraction(c0) / as_fraction(c1), fac.multiplicity, tower, "rational"))
                    continue
                roots.append(self._adjoined(QQ_TOWER, fac.poly, fac.multiplicity))
        else:
            # a monic squarefree factor of phi has a nonzero constant term
            for g, mult in phi.squarefree_decomposition():
                if g.degree() == 1:
                    roots.append((-g.coeffs[0], mult, tower, "tower-linear"))
                else:
                    roots.append(self._adjoined(tower, g, mult))
        return roots

    def _adjoined(self, base: Tower, minpoly: UniPoly, mult: int):
        try:
            t2, theta = adjoin_root(base, minpoly, self.caps.tower)
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
        return BranchTree(leaves=[], critical=hit.witness, flags=tuple(sorted(engine.tree_flags)))
    leaves.sort(key=_leaf_key)
    return BranchTree(leaves=leaves, critical=None, flags=tuple(sorted(engine.tree_flags)))


def _leaf_key(leaf: Leaf):
    toks = tuple((mu,) + sort_key(c) for mu, c in leaf.terms)
    return (toks, leaf.status)


def closure_check(sys: OdeSystem, lam_prev=Q(0)):
    """``_closure`` on the profile of ``sys``."""
    return _closure(coeff_profile(sys.P.terms, sys.Q.terms, sys.n, fold=True), lam_prev)


def _closure(prof, lam_prev):
    """Continuation after a 1-folded pair, from its profile: "closed",
    "resonance" (with the indicial ratio) or "generic" (no q0)."""
    if 0 not in prof.p:
        return "closed", None
    if 0 not in prof.q:
        return "generic", None
    k1 = prof.p.get(1)
    l0, q0 = prof.q[0]
    if k1 is None or k1[0] != l0 - prof.n:
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

    Returns ("critical", witness), ("non-algebraic", leaf) or
    ("cap-exceeded", leaf); leaf terms describe the resonant tail only.
    """
    engine = _Expander(sys, caps)
    node = _Node(system=sys, prefix=(), lam_prev=Q(lam_prev), folded=1, depth=0)
    try:
        leaf = engine._resolve_resonance(node, Q(rho))
    except CriticalFound as hit:
        return "critical", hit.witness
    return leaf.status, leaf


def _walk_step(p, q, nu, lam, alpha, bound, n, tower):
    """One step w = alpha z^lam + w1 of the walk on the scaled sides p, q of
    P and Q (keys (n * z-exponent, j); ``nu`` = n lam): the terms of
    lam-weight above ``bound`` are dropped and the others shifted by the one
    kernel ``_shift_sides``.  Returns the new sides, without zeros, and the
    least weight dropped (None when none is); weights and ``bound`` are on
    the scale n too.

    Over Q and over a one-level tower p and q are a content-free integer
    pair (``_fold_walk``), and so are the new sides: the kernel shifts them
    on integers, and its scale is dropped with the content
    (``_content_free``), since the walk reads only ratios of P and Q.  Over
    a taller tower they stay exact.

    With every later exponent at least lam, a term z^e w^j of P reaches
    P(z, 0) at order >= e + j lam, and one of Q, through -s' Q, at order
    >= e - 1 + (j + 1) lam: its lam-weight.  The shift keeps the lam-weight
    of every term it makes, and later shifts never lower one.
    """
    low, deg, kept = None, 0, ([], [])
    for side, extra, out in ((p, 0, kept[0]), (q, nu - n, kept[1])):
        for key, c in side.items():
            weight = key[0] + key[1] * nu + extra
            if weight <= bound:
                out.append((key, c))
                if key[1] > deg:
                    deg = key[1]
            elif low is None or weight < low:
                low = weight
    p1, q1, _ = _shift_sides(kept[0], kept[1], alpha, lam, n, deg, tower)
    p1, q1, _ = _content_free(p1, q1, tower)
    return p1, q1, low


def _fold_walk(sys: OdeSystem, lam, terms=1, rho=None):
    """The 1-fold steps after a 1-folded pair of exponent ``lam``.

    Yields (sides, step) at each node: the pair (lam, alpha) that
    ``_fold_step`` reads there, or None where the walk ends, and the node's
    sides (p, q, n, tower) in the scaled form of ``_walk_step``.  Resuming
    after a step takes it; a step with alpha None ends the walk.

    The walk runs on the term dicts of ``sys``, on its integer scale N =
    ``sys.n``; every exponent k0 - y1 a step reads lies in (1/N)Z, so N
    never grows, and no BiPoly, OdeSystem or Fraction exponent is built
    between steps.  Weights and the bound K are integers on the same scale;
    a K off the lattice is floored, which keeps the same terms.

    The pair (P, Q) is defined up to a constant: everything a step reads is
    a ratio of P and Q (alpha = p0 / c1, the ratio of ``_closure``, whether
    P(z, 0) vanishes, the weights), and scaling both sides by one nonzero
    constant changes none of them.  So over Q and over a one-level tower
    the walk takes the content-free integer pair of ``sys`` once
    (``_integer_sides``): ints, or tower elements with int coordinates, and
    shifts it on integers (``_walk_step``), with no Fraction formed between
    steps.  The yielded sides are that pair, a constant multiple of the
    exact remainder.  Over a taller tower the sides are exact.

    A step reads k0, the order of P(z, 0), and the abscissa-1 point (1, y1)
    alone (``coeff_profile`` with ``fold``), and (1, y1) has the least weight
    (``_walk_step``).  So the walk runs on the terms of weight <= K in the
    frame of ``sys``: what it reads is exact while k0 <= K, and no term
    above K is formed.

    Extension (``rho`` None) guesses K at the first step, as the k0 of the
    ``terms``-th term if every step gains as the first.  When P(z, 0) runs
    out while the current pass dropped terms, K was short.  It rises to the
    k0 that the terms still missing need if each gains what the steps so
    far gained on average, and at least to the least weight dropped.  After
    a pass that found no new step, as on a series that terminates, that
    estimate does not move, so K rises by at least twice its last rise; any
    larger K is exact too.  The walk starts again from ``sys``: the steps
    are exact, so the new pass takes the ones already yielded again without
    yielding them.

    A resonance of ratio ``rho`` = p1/q0 > lam (``_closure``) fixes K = y1 +
    rho.  Substitutions of exponent above lam add to w^1 of P and w^0 of Q
    only above p1 and q0, so c1 = q0 (lam' - rho) at the next exponent
    lam' = k0 - y1.  A support point (x, y) with x >= 2 has y + x lam >=
    y1 + lam (``_fold_step``), so y + x r > y1 + r for every r > lam: no
    vertex at x >= 2 is critical (r its ratio), and lam' decides alone.
    Below rho the step is taken; at rho c1 cancels (alpha None); above rho,
    which past the first node means that P(z, 0) runs out within K, and
    where P(z, 0) is zero, (1, y1) is a critical vertex (r = rho).  So K is
    never raised.
    """
    n, tower = sys.n, sys.tower
    entry = _integer_sides(sys.P.terms, sys.Q.terms, tower)[:2]
    start = lam.numerator * n // lam.denominator  # n lam, floored
    found = []  # (n lam, lam, alpha) of the steps yielded and taken
    bound = None  # K on the scale n, set at the first step
    taken, rise = 0, 0  # steps found before this pass, and K's last rise
    while True:
        (p, q), low = entry, None  # low: the least weight dropped in this pass
        for i in itertools.count():
            if i < len(found):
                nu, mu, alpha = found[i]
            else:
                prof = coeff_profile(p, q, n, fold=True)
                if 0 not in prof.p and low is not None and rho is None:
                    break
                prev = found[-1][0] if found else start
                step = _fold_step(prof, prev) if 0 in prof.p else None
                if step is not None:
                    k0, nu = prof.p[0][0], step[0].numerator * (n // step[0].denominator)
                    if bound is None:
                        far = (rho - step[0]) * n if rho is not None else (terms - 1) * (nu - n * lam)
                        bound = k0 + math.floor(far)
                yield (p, q, n, tower), step
                if step is None or step[1] is None:
                    return
                mu, alpha = step
                found.append((nu, mu, alpha))
            p, q, dropped = _walk_step(p, q, nu, mu, alpha, bound, n, tower)
            if dropped is not None and (low is None or dropped < low):
                low = dropped
        # K guessed short: raise it by the gain the missing terms need, and
        # after a pass without a new step by at least twice the last rise
        missing, gained = terms - len(found), found[-1][0] - start
        raised = max(low, k0 + -(-missing * gained // len(found)))  # ceil
        if len(found) == taken:
            raised = max(raised, bound + 2 * rise)
        taken, rise, bound = len(found), raised - bound, raised


def extend_leaf(leaf: Leaf, n_terms: int):
    """Continue a closed/exact leaf deterministically up to n_terms terms,
    on the truncated walk from its remainder (``_fold_walk``)."""
    terms = leaf.terms
    if not leaf.counted or len(terms) >= n_terms:
        return terms
    left = n_terms - len(terms)
    found = []
    for _, step in _fold_walk(leaf.remainder, leaf.lam_last, terms=left):
        if step is None or step[1] is None:
            break
        found.append(step)
        if len(found) == left:
            break
    return terms + tuple(found)


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
        terms = extend_leaf(leaf, caps.terms)
        branches.append(
            PuiseuxBranch(
                terms=terms,
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
