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

Below the root no system is built: a tree step shifts its parent's walk
pair (p, q, n, tower) to the child's (``_step_sides``), a positive
rational multiple of the child's remainder that gives the same branches
(its content-free integer pair over Q and over a one-level tower).  A
1-folded step (a simple root of an edge polynomial) is the first step of
the walk: its leaf, vertex verdicts and closure are read off the pair's
fold profile (``_Expander._expand_folded``).  A full Newton diagram is
read off the pair after a multi-fold root, and where Q1(z, 0) vanishes
identically (the ``generic`` closure); the node's children come from that
diagram.

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
    OdeSystem,
    PuiseuxBranch,
    _content_free,
    _integer_sides,
    _nonzero,
    _shift_sides,
    _shifted_pair,
    coeff_profile,
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

    ``sides`` is the fold walk's pair (p, q, n, tower) at the leaf, where
    ``extend_leaf`` resumes the walk: a positive rational multiple of the
    remainder, which gives the same branches, and over Q and over a
    one-level tower its content-free integer pair.  At a node of the
    expansion tree it is complete, as the node's step made it
    (``_step_sides``), and a capped leaf at the root, which is not
    extended, keeps the root system's terms; at a node of a resonance walk
    (``_resolve_resonance``) it is truncated."""

    terms: tuple  # ((mu, alpha), ...)
    status: str  # "closed" | "exact" | "non-algebraic" | "cap-exceeded"
    conj_degree: int
    sides: tuple
    lam_last: Fraction
    flags: tuple = ()

    @property
    def counted(self) -> bool:
        return self.status in ("closed", "exact")

    @property
    def tower(self) -> Optional[Tower]:
        return self.sides[3]


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
    """A node of the tree.  ``sides`` is (P, Q, n, tower) of the root's own
    system at the root; below the root it is the parent's walk pair, in the
    node's tower, before the node's step (the last pair of ``prefix``),
    which ``_expand_inner`` takes (``_step_sides``).  The nodes of a
    resonance walk carry None."""

    sides: Optional[tuple]
    prefix: tuple
    lam_prev: Fraction
    folded: int  # d of the incoming pair; 0 at the root
    depth: int


class _Step(NamedTuple):
    """One Newton step w = alpha z^lam + w1 from the pair ``sides``, mapped
    to alpha's tower; a capped root has alpha and sides None and names the
    cap in ``note``."""

    lam: Fraction
    alpha: object
    folded: int
    sides: Optional[tuple]
    note: str


def _tower_deg(tower: Optional[Tower]) -> int:
    return 1 if tower is None else tower.degree()


def _transport_prefix(prefix, tower: Tower):
    return tuple(
        (mu, transport_elem(c, tower) if isinstance(c, ExtElem) else c) for mu, c in prefix
    )


def _newton(sides):
    """The coefficient profile of a pair (P, Q, n, tower) and its Newton
    diagram."""
    p, q, n, _ = sides
    prof = coeff_profile(p, q, n)
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
    return _Node(step.sides, node.prefix + ((step.lam, step.alpha),), step.lam, step.folded, node.depth + 1)


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
                    sides=_sides_over(node.sides, t, lambda c: transport_elem(c, t)),
                    prefix=_transport_prefix(node.prefix, t),
                )
                out.extend(self.expand(remapped))
            return out

    # -- node processing ------------------------------------------------------

    def _expand_inner(self, node: _Node):
        if node.folded == 1:
            return self._expand_folded(node)
        sides = node.sides
        if node.prefix:
            sides = _step_sides(sides, node.lam_prev, node.prefix[-1][1])
        prof, diagram = _newton(sides)
        leaves = []
        if 0 not in prof.p and node.prefix:
            leaves.append(self._leaf(node, "exact", sides))

        verdicts = vertex_critical_check(diagram, prof, lam_min=node.lam_prev)
        hit = first_critical(verdicts)
        if hit is not None:
            raise CriticalFound(Witness("vertex-dominance", hit.lam_star, node.depth, node.prefix))
        if any(v.dicritical_suspect for v in verdicts):
            self.tree_flags.add("dicritical-suspect")
        return leaves + self._children(node, sides, diagram)

    def _children(self, node: _Node, sides, diagram):
        """The leaves below ``node``, whose pair ``sides`` has the Newton
        diagram ``diagram``: one subtree per step, or a depth-cap leaf."""
        if node.depth >= self.caps.depth:
            return [self._leaf(node, "cap-exceeded", sides, flags=("depth-cap",))]
        leaves = []
        for step in self._steps_from_diagram(sides, node.lam_prev, diagram):
            if step.sides is None:
                leaves.append(self._leaf(node, "cap-exceeded", sides, flags=(step.note,)))
                continue
            leaves.extend(self.expand(_child(node, step)))
        return leaves

    def _expand_folded(self, node: _Node):
        """The node after a 1-folded step (lam_prev, alpha), on the fold
        walk's pair of its remainder (``_step_sides``), read through its fold
        profile: the full diagram's vertex tests and closure decide nothing
        more there.

        With L = n lam_prev on the profile's scale n: alpha is a root of the
        parent edge's polynomial, so P1(z, 0) has no term of the edge's
        lam_prev-weight w and k0 > w; the root is simple, so the abscissa-1
        point (1, y1) has weight y1 + L = w; and the shift keeps the
        lam_prev-weight of every term (``_walk_step``), so each support point
        (x, y) with x >= 2 has y + x L >= w.  Hence:

        * No vertex at x >= 2 is critical.  For a slope r > lam_prev such a
          point has y + x n r >= y1 + n r + (x - 1)(n r - L) > y1 + n r: it
          lies above the line of slope -r through (1, y1) and does not
          dominate at r, and a ratio r <= lam_prev is never critical.  Over Q
          its ratio is rational, so it is never dicritical-suspect either.
        * Over a tower such a vertex v is a vertex of the parent's diagram,
          with the same coefficients and the same dicritical-suspect
          verdict, so the parent has set the flag already (by induction, an
          ancestor that is not 1-folded, whose diagram is checked in full).
          The shift moves each term along its lam_prev-weight line toward
          lower x, so the rightmost point of every line keeps its
          coefficients.  v is rightmost on its line: a point right of it on
          a line of weight <= that of v would put v above the segment from
          (1, y1).  So every line with points right of v lies above it and
          every line below it lies left of v, and the slopes that bound v's
          corner, from the rightmost points of those lines and from the
          line of w, are the parent's.
        * (1, y1) is critical when it is a Both point whose ratio r =
          p1/q0 is rational, r > lam_prev, and the point (0, k0), if any,
          lies above the line of slope -r through it: k0 - y1 > n r; the
          points at x >= 2 lie above it by the first bullet.  An irrational
          ratio there is dicritical-suspect: every slope in (L, k0 - y1),
          which is not empty, dominates through (1, y1).
        * The closure (``_closure``) reads the same point: an exact leaf
          where P1(z, 0) = 0, a resonance of ratio r where (1, y1) has a
          rational r > lam_prev that is not critical, ``generic`` where
          Q1(z, 0) = 0, and a closed leaf otherwise.  A resonance walks on
          from the pair (``_resolve_resonance``).  Only ``generic`` reads
          a full diagram off the pair, whose children it gives, as at a
          node after a multi-fold root: its edges, roots and vertex ratios
          are those of the exact remainder, which differs by a positive
          constant.
          The only edge past lam_prev runs from (0, k0), with p0 != 0, to
          (1, y1) (``_fold_step``): an exact leaf has no children, and the
          edge's polynomial c1 a - p0 never vanishes identically.

        Over a presumed modulus the profile is read in full, since a zero
        divisor among the leading coefficients of any column splits the
        tower, as the full diagram did, before the ratio at x = 1 is tested.
        """
        lam, alpha = node.prefix[-1]
        sides = _step_sides(node.sides, lam, alpha)
        p, q, n, tower = sides
        presumed = tower is not None and any(lv.presumed for lv in tower.levels)
        prof = coeff_profile(p, q, n, fold=not presumed)
        leaves = []
        exact_here = 0 not in prof.p
        if exact_here:
            leaves.append(self._leaf(node, "exact", sides))

        rho = _indicial_ratio(prof)
        rational = isinstance(rho, Fraction)
        if rational and rho > lam and (exact_here or prof.p[0][0] - prof.p[1][0] > n * rho):
            raise CriticalFound(Witness("vertex-dominance", rho, node.depth, node.prefix))
        if rho is not None and not rational:
            self.tree_flags.add("dicritical-suspect")

        if exact_here:
            if node.depth >= self.caps.depth:
                leaves.append(self._leaf(node, "cap-exceeded", sides, flags=("depth-cap",)))
            return leaves
        kind, rho = _closure(prof, lam, rho)
        if kind == "generic":
            return self._children(node, sides, _newton(sides)[1])
        if kind == "resonance":
            return [self._resolve_resonance(node, sides, rho)]
        return [self._leaf(node, "closed", sides)]

    def _leaf(self, node: _Node, status: str, sides, flags=()):
        return Leaf(
            terms=node.prefix,
            status=status,
            conj_degree=_tower_deg(sides[3]) // self.base_degree,
            sides=sides,
            lam_last=node.lam_prev,
            flags=tuple(flags),
        )

    # -- resonance: the truncated walk up to rho -------------------------------

    def _resolve_resonance(self, node: _Node, sides, rho) -> Leaf:
        """Step through a resonance of indicial ratio ``rho`` at ``node``,
        whose walk pair is ``sides``, for at most ``caps.depth`` steps;
        ``_fold_walk`` says why k0 alone decides.  The nodes of the walk
        carry no pair: a returned leaf gets the sides it stops on."""
        cur = node
        for sides, step in _fold_walk(sides, node.lam_prev, rho=rho):
            if cur.depth - node.depth == self.caps.depth:
                return self._leaf(cur, "cap-exceeded", sides, ("resonance-cap",))
            if step is None or step[0] > rho:
                break
            if step[0] == rho:
                # the linear term cancels at the balancing order and the
                # inhomogeneity does not: no algebraic continuation
                return self._leaf(cur, "non-algebraic", sides, ("resonance-order-hit",))
            cur = _child(cur, _Step(*step, 1, None, ""))
        raise CriticalFound(Witness("resonance", rho, cur.depth, cur.prefix, ("resonance",)))

    # -- edge roots -> child steps ---------------------------------------------

    def _steps_from_diagram(self, sides, lam_prev, diagram):
        """The Newton steps past ``lam_prev`` from the pair ``sides``, sorted
        by exponent and root; see ``_char_roots``."""
        n, tower = sides[2:]
        out = []
        for edge in diagram.edges:
            if not edge.admissible or edge.lam <= lam_prev:
                continue
            phi = nonzero_char_poly(edge)
            if phi.degree() < 1:
                continue
            # a child lies on the scale lcm(n, q) for lam = p/q (translate_w),
            # so a capped one is never built
            capped = math.lcm(n, edge.lam.denominator) > self.caps.ram
            for alpha, d, new_tower, note in self._char_roots(phi, tower):
                if alpha is not None and capped:
                    alpha, note = None, "ramification-cap"
                if alpha is None:
                    out.append(_Step(edge.lam, None, d, None, note))
                    continue
                work = sides if new_tower is None else _sides_over(sides, new_tower, new_tower.coerce)
                out.append(_Step(edge.lam, alpha, d, work, note))
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
    sys = sys.normalized()
    root = _Node(
        sides=(sys.P.terms, sys.Q.terms, sys.n, sys.tower),
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
    prof = coeff_profile(sys.P.terms, sys.Q.terms, sys.n, fold=True)
    return _closure(prof, lam_prev, _indicial_ratio(prof))


def _closure(prof, lam_prev, rho):
    """Continuation after a 1-folded pair, from its profile and its
    certified indicial ratio ``rho`` (``_indicial_ratio``): "closed",
    "resonance" (with rho) or "generic" (no q0)."""
    if 0 not in prof.p:
        return "closed", None
    if 0 not in prof.q:
        return "generic", None
    if not isinstance(rho, Fraction) or rho <= 0 or rho <= lam_prev:
        return "closed", None
    return "resonance", rho


def _indicial_ratio(prof):
    """The ratio p1/q0 where P's w^1 and Q's w^0 leading points meet at
    abscissa 1: a Fraction when it is rational, else the tower element, and
    None when they do not meet.  Its rationality decides closure, so it is
    certified at the level of component values (may split the tower)."""
    k1, l0 = prof.p.get(1), prof.q.get(0)
    if k1 is None or l0 is None or k1[0] != l0[0] - prof.n:
        return None
    ratio = k1[1] * f_inv(l0[1])
    return as_fraction(ratio) if certified_is_rational(ratio) else ratio


def resolve_resonance(sys: OdeSystem, lam_prev, rho, caps: Caps = DEFAULT_CAPS):
    """Resolve a resonant remainder system standalone.

    Returns ("critical", witness), ("non-algebraic", leaf) or
    ("cap-exceeded", leaf); leaf terms describe the resonant tail only.
    """
    engine = _Expander(sys, caps)
    node = _Node(sides=None, prefix=(), lam_prev=Q(lam_prev), folded=1, depth=0)
    try:
        leaf = engine._resolve_resonance(node, _walk_sides(sys), Q(rho))
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


def _walk_sides(sys: OdeSystem):
    """The walk's pair (p, q, n, tower) of ``sys``: its content-free integer
    pair over Q and over a one-level tower (``_integer_sides``), its exact
    terms above."""
    p, q, _ = _integer_sides(sys.P.terms, sys.Q.terms, sys.tower)
    return p, q, sys.n, sys.tower


def _step_sides(sides, lam, alpha):
    """The walk's pair of the remainder after the tree step w = alpha z^lam
    + w1 from the pair ``sides``: the kernel's uncut shift of its
    content-free integer pair (``_shifted_pair``), without its content, in
    the frame of ``substitute_branch`` (lowest z-exponent 0).  It is
    ``_walk_sides`` of a positive rational multiple of the exact remainder,
    which is not built."""
    tower = sides[3]
    p, q, n, _ = _shifted_pair(sides, alpha, lam)
    p, q, _ = _content_free(p, q, tower)
    low = min(key[0] for side in (p, q) for key in side)
    if low:
        p, q = ({(s - low, j): c for (s, j), c in side.items()} for side in (p, q))
    return p, q, n, tower


def _sides_over(sides, tower: Tower, lift):
    """The pair ``sides`` over ``tower``: each tower element mapped by
    ``lift`` (into a tower with a new level, or onto a factor tower after a
    split), a rational kept as it is (see ``BiPoly``), a zero dropped."""
    p, q, n, _ = sides
    p, q = (_nonzero({k: lift(c) if isinstance(c, ExtElem) else c for k, c in side.items()}) for side in (p, q))
    return p, q, n, tower


def _fold_walk(sides, lam, terms=1, rho=None):
    """The 1-fold steps after a 1-folded pair of exponent ``lam``.

    Yields (sides, step) at each node: the pair (lam, alpha) that
    ``_fold_step`` reads there, or None where the walk ends, and the node's
    sides (p, q, n, tower) in the scaled form of ``_walk_step``.  Resuming
    after a step takes it; a step with alpha None ends the walk.

    The walk starts at ``sides``, the pair (p, q, n, tower) of a remainder
    after a 1-folded pair: a tree step takes that pair as the walk's first
    step (``_step_sides``), and a leaf keeps it for ``extend_leaf``.  It runs
    on those term dicts, on their integer scale N = n; every exponent k0 -
    y1 a step reads lies in (1/N)Z, so N never grows, and no BiPoly,
    OdeSystem or Fraction exponent is built between steps.  Weights and the
    bound K are integers on the same scale; a K off the lattice is floored,
    which keeps the same terms.

    The pair (P, Q) is defined up to a constant: everything a step reads is
    a ratio of P and Q (alpha = p0 / c1, the ratio of ``_closure``, whether
    P(z, 0) vanishes, the weights), and scaling both sides by one nonzero
    constant changes none of them.  So over Q and over a one-level tower
    the pair is content-free and integral (``_walk_sides``): ints, or tower
    elements with int coordinates, which the walk shifts on integers
    (``_walk_step``), with no Fraction formed between steps.  The yielded
    sides are a constant multiple of the exact remainder.  Over a taller
    tower the sides are exact.

    A step reads k0, the order of P(z, 0), and the abscissa-1 point (1, y1)
    alone (``coeff_profile`` with ``fold``), and (1, y1) has the least weight
    (``_walk_step``).  So the walk runs on the terms of weight <= K in the
    frame of ``sides``: what it reads is exact while k0 <= K, and no term
    above K is formed.

    Extension (``rho`` None) guesses K at the first step, as the k0 of the
    ``terms``-th term if every step gains as the first.  When P(z, 0) runs
    out while the current pass dropped terms, K was short.  It rises to the
    k0 that the terms still missing need if each gains what the steps so
    far gained on average, and at least to the least weight dropped.  After
    a pass that found no new step, as on a series that terminates, that
    estimate does not move, so K rises by at least twice its last rise; any
    larger K is exact too.  The walk starts again from ``sides``: the steps
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
    entry, (n, tower) = sides[:2], sides[2:]
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
    resuming the truncated walk from the leaf's pair (``_fold_walk``)."""
    terms = leaf.terms
    if not leaf.counted or len(terms) >= n_terms:
        return terms
    left = n_terms - len(terms)
    found = []
    for _, step in _fold_walk(leaf.sides, leaf.lam_last, terms=left):
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
