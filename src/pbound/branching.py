"""Iterated Newton-polygon expansion of local algebraic solutions.

A branch prefix grows one acceptable pair (lambda, alpha) at a time.  At each
node the engine

* detects exact (polynomial) termination,
* tests every merged hull vertex for the one-parameter-family criterion
  (positive rational ratio p_{j,0}/q_{j-1,0} dominating all other support
  points), and every edge past the last exponent for a characteristic
  polynomial that vanishes identically; either makes the point algebraic
  critical (``_Expander.expand``),
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
degree d.  Every adjoined level is certified irreducible
(``exact.factor_roots``), so each tower is a field; a factor that cannot
be certified is a capped leaf (``irreducibility-cap``).  Every number of a
node, its pair and its prefix, lives in the node's tower: both move
together (``_moved``) when a step adjoins a level, so a leaf's tower is its
branch's.  Nor is a ramification orbit, the branches that z^(1/n) -> zeta
z^(1/n) permutes, extended more than once, nor in a tower where Q will do:
a leaf over one level t0^d = v0 with d | n walks over Q in the rational
frame z = t0^(-n) z' (``_rational_frame``), and a leaf whose pair is the
t -> -t image of an extended leaf's, t = z^(1/n), takes that extension
(``_orbit_extension``).
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
    ExtElem,
    Q,
    Tower,
    _canon,
    as_fraction,
    f_inv,
    f_is_zero,
    factor_roots,
    is_rational_value,
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
    OdeSystem,
    PuiseuxBranch,
    _content_free,
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

    kind: str  # "vertex-dominance", "dicritical-edge" or "resonance"
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
    one-level tower its content-free integer pair; over a level t0^d = v0
    with d | n the walk runs on that pair's rational frame over Q
    (``_rational_frame``).  At a node of the expansion tree it is complete,
    as the node's step made it (``_step_sides``), and a capped leaf at the
    root, which is not extended, keeps the root system's terms; at a node
    of a resonance walk (``_resolve_resonance``) it is truncated."""

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


class Reason(NamedTuple):
    """Why a result is inconclusive: it rests on a cap or on something
    presumed.  ``code`` is "capped", "sum-lower-bound",
    "presumed-irreducible" or "partial-search"; ``stage`` names the
    producer ("multiplicity", "bound", "certificate" or "darboux");
    ``detail`` says where or which, as text.  A result without reasons is
    conclusive."""

    code: str
    stage: str
    detail: str


@dataclass
class MultiplicityResult:
    status: str  # "finite" | "critical" | "capped"
    count: Optional[int] = None
    branches: tuple = ()
    witness: Optional[Witness] = None
    lower_bound: Optional[int] = None
    diagnostics: tuple = ()
    flags: tuple = ()

    @property
    def reasons(self) -> tuple:
        """A capped status, with its diagnostics."""
        return (Reason("capped", "multiplicity", ",".join(self.diagnostics)),) if self.status == "capped" else ()


@dataclass(frozen=True)
class _Node:
    """A node of the tree.  ``sides`` is (P, Q, n, tower) of the root's own
    system at the root; below the root it is the parent's walk pair, in the
    node's tower, before the node's step (the last pair of ``prefix``),
    which ``expand`` takes (``_step_sides``).  Every coefficient of
    ``prefix`` lives in that tower too.  The nodes of a resonance walk
    carry None."""

    sides: Optional[tuple]
    prefix: tuple
    lam_prev: Fraction
    folded: int  # d of the incoming pair; 0 at the root
    depth: int


class _Step(NamedTuple):
    """One Newton step w = alpha z^lam + w1; a capped root has alpha None
    and names the cap in ``note``, and an "adjoined" root lives in the tower
    it adjoins, alpha's own."""

    lam: Fraction
    alpha: object
    folded: int
    note: str


def _tower_deg(tower: Optional[Tower]) -> int:
    return 1 if tower is None else tower.degree()


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


def _child(node: _Node, step: _Step, sides) -> _Node:
    """The node after ``step`` from ``node``, whose pair after its own step
    is ``sides``; a step that adjoins a level moves the child into alpha's
    tower (``_moved``)."""
    child = _Node(sides, node.prefix + ((step.lam, step.alpha),), step.lam, step.folded, node.depth + 1)
    if step.note != "adjoined":
        return child
    return _moved(child, step.alpha.tower)


def _moved(node: _Node, tower: Tower) -> _Node:
    """``node`` with its pair and its prefix over ``tower``, a tower with a
    new level, so that every number of a node lives in the node's tower:
    each tower element coerced into it, a rational kept as it is (see
    ``BiPoly``)."""

    def move(c):
        return tower.coerce(c) if isinstance(c, ExtElem) else c

    p, q, n, _ = node.sides
    p, q = ({k: move(c) for k, c in side.items()} for side in (p, q))
    prefix = tuple((mu, move(c)) for mu, c in node.prefix)
    return replace(node, sides=(p, q, n, tower), prefix=prefix)


class _Expander:
    def __init__(self, sys: OdeSystem, caps: Caps):
        self.caps = caps
        self.base_degree = _tower_deg(sys.tower)
        self.tree_flags = set()

    # -- node processing ------------------------------------------------------

    def expand(self, node: _Node):
        """The leaves below ``node``, from the full Newton diagram of its
        pair unless its step is 1-folded (``_expand_folded``).

        The point is critical when, for some lam > lam_prev, the lam-initial
        part of Q w' - P vanishes identically: a dominating merged vertex of
        ratio lam (``vertex_critical_check``), or an admissible edge of
        exponent lam whose characteristic polynomial phi is zero
        (``dicritical-edge``).  The vertex is the one-point case.  On the
        edge's line, of weight W, put w = z^lam u (z = s^N to clear the
        denominators) and let Qe(u), Pe(u) collect the edge's terms of Q
        and P.  Every other term has a larger weight, so the equation divided
        by z^W reads (Qe(u) + z^e Q1)(lam u + z u') = Pe(u) + z^e P1 with
        e > 0, and phi(u) = lam u Qe(u) - Pe(u) = 0 leaves (Qe(u) + z^e Q1)
        z u' = z^e (P1 - lam u Q1).  Qe is not zero (the edge has points, and
        phi = 0 ties each P coefficient to a Q one), so at each u0 off its
        finitely many roots this is a regular equation in s with one
        solution u(0) = u0: a series w = u0 z^lam + ... after the prefix for
        every nonzero such u0, infinitely many branches.  At weight lam the
        initial form of Q dw - P dz is a multiple of the weighted radial form
        z dw - lam w dz: the divisor of the weighted blow-up is not invariant.

        Below the root the node's step is a d-fold root, d >= 2, of its
        parent's edge of exponent L: at weight L the child's lowest point is
        (d, y_d), and (0, k0), there unless the node is exact, lies above
        it, so edges past L join them.  A node with no such edge is an
        internal error.  When no edge past L has a nonzero root, no series
        continues the prefix (a leading pair needs one, or a dominating
        vertex), and the prefix is a non-algebraic leaf: on (2 w^2 - 3 z w +
        z^2 + z^4) / (z w - z^2) after w = z + w1, w1^2 = z^4 (2 log z + C).
        """
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
        for edge in diagram.edges:
            if edge.admissible and edge.lam > node.lam_prev and edge.char_poly.is_zero():
                raise CriticalFound(Witness("dicritical-edge", edge.lam, node.depth, node.prefix))
        if any(v.dicritical_suspect for v in verdicts):
            self.tree_flags.add("dicritical-suspect")
        leaves += self._children(node, sides, diagram)
        if not leaves and node.prefix:
            if not any(edge.admissible and edge.lam > node.lam_prev for edge in diagram.edges):
                raise RuntimeError("internal error: a branch-tree node below the root has no edge past its exponent")
            leaves.append(self._leaf(node, "non-algebraic", sides))
        return leaves

    def _children(self, node: _Node, sides, diagram):
        """The leaves below ``node``, whose pair ``sides`` has the Newton
        diagram ``diagram``: one subtree per step, or a depth-cap leaf."""
        if node.depth >= self.caps.depth:
            return [self._leaf(node, "cap-exceeded", sides, flags=("depth-cap",))]
        leaves = []
        for step in self._steps_from_diagram(sides, node.lam_prev, diagram):
            if step.alpha is None:
                leaves.append(self._leaf(node, "cap-exceeded", sides, flags=(step.note,)))
                continue
            leaves.extend(self.expand(_child(node, step, sides)))
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
        """
        lam, alpha = node.prefix[-1]
        sides = _step_sides(node.sides, lam, alpha)
        p, q, n, _ = sides
        prof = coeff_profile(p, q, n, fold=True)
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
        for sides, step in _fold_walk(sides, node.lam_prev, terms=self.caps.depth, rho=rho):
            if cur.depth - node.depth == self.caps.depth:
                return self._leaf(cur, "cap-exceeded", sides, ("resonance-cap",))
            if step is None or step[0] > rho:
                break
            if step[0] == rho:
                # the linear term cancels at the balancing order and the
                # inhomogeneity does not: no algebraic continuation
                return self._leaf(cur, "non-algebraic", sides, ("resonance-order-hit",))
            cur = _child(cur, _Step(*step, 1, ""), None)
        raise CriticalFound(Witness("resonance", rho, cur.depth, cur.prefix, ("resonance",)))

    # -- edge roots -> child steps ---------------------------------------------

    def _steps_from_diagram(self, sides, lam_prev, diagram):
        """The Newton steps past ``lam_prev`` from the pair ``sides``, sorted
        by exponent and root: one step per factor of each edge polynomial
        (``factor_roots``, whose entries have no root 0)."""
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
            for alpha, d, note, _ in factor_roots(phi, tower, self.caps.factor, self.caps.tower):
                if alpha is not None and capped:
                    alpha, note = None, "ramification-cap"
                out.append(_Step(edge.lam, alpha, d, note))
        out.sort(key=lambda t: (t.lam,) + (sort_key(t.alpha) if t.alpha is not None else ((), ())))
        return out


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
    None when they do not meet.  Its rationality decides closure; over a
    field it is read off the representation."""
    k1, l0 = prof.p.get(1), prof.q.get(0)
    if k1 is None or l0 is None or k1[0] != l0[0] - prof.n:
        return None
    ratio = k1[1] * f_inv(l0[1])
    return as_fraction(ratio) if is_rational_value(ratio) else ratio


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


def _step_sides(sides, lam, alpha):
    """The walk's pair of the remainder after the tree step w = alpha z^lam
    + w1 from the pair ``sides``: the kernel's uncut shift of its
    content-free integer pair (``_shifted_pair``), without its content, in
    the frame of ``substitute_branch`` (lowest z-exponent 0).  It is the
    content-free integer pair (``polyode._integer_sides``) of a positive
    rational multiple of the exact remainder, which is not built."""
    tower = sides[3]
    p, q, n, _ = _shifted_pair(sides, alpha, lam)
    p, q, _ = _content_free(p, q, tower)
    low = min(key[0] for side in (p, q) for key in side)
    if low:
        p, q = ({(s - low, j): c for (s, j), c in side.items()} for side in (p, q))
    return p, q, n, tower


def _fold_walk(sides, lam, terms=1, rho=None):
    """The 1-fold steps after a 1-folded pair of exponent ``lam``.

    Yields (sides, step) at each node: the pair (lam, alpha) that
    ``_fold_step`` reads there, or None where the walk ends, and the node's
    sides (p, q, n, tower) in the scaled form of ``_walk_step``.  Resuming
    after a step takes it; a step with alpha None ends the walk.

    The walk starts at ``sides``, the pair (p, q, n, tower) of a remainder
    after a 1-folded pair: a tree step takes that pair as the walk's first
    step (``_step_sides``), and a leaf keeps it for ``extend_leaf``, which
    walks its rational frame over Q instead where it has one
    (``_rational_frame``).  It runs on those term dicts, on their integer
    scale N = n; every exponent k0 - y1 a step reads lies in (1/N)Z, so N
    never grows, and no BiPoly, OdeSystem or Fraction exponent is built
    between steps.  Weights and the
    bound K are integers on the same scale; a K off the lattice is floored,
    which keeps the same terms.

    The pair (P, Q) is defined up to a constant: everything a step reads is
    a ratio of P and Q (alpha = p0 / c1, the ratio of ``_closure``, whether
    P(z, 0) vanishes, the weights), and scaling both sides by one nonzero
    constant changes none of them.  So over Q and over a one-level tower
    the pair is content-free and integral (``_integer_sides``): ints, or tower
    elements with int coordinates, which the walk shifts on integers
    (``_walk_step``), with no Fraction formed between steps.  The yielded
    sides are a constant multiple of the exact remainder.  Over a taller
    tower the sides are exact.

    A step reads k0, the order of P(z, 0), and the abscissa-1 point (1, y1)
    alone (``coeff_profile`` with ``fold``), and (1, y1) has the least weight
    (``_walk_step``).  So the walk runs on the terms of weight <= K in the
    frame of ``sides``: what it reads is exact while k0 <= K, and no term
    above K is formed.

    The walk guesses K at the first step, as the k0 of the ``terms``-th
    term if every step gains as the first.  When P(z, 0) runs out while the
    current pass dropped terms, K was short.  It rises to the k0 that the
    terms still missing need if each gains what the steps so
    far gained on average, and at least to the least weight dropped.  After
    a pass that found no new step, as on a series that terminates, that
    estimate does not move, so K rises by at least twice its last rise; any
    larger K is exact too.  The walk starts again from ``sides``: the steps
    are exact, so the new pass takes the ones already yielded again without
    yielding them.

    A resonance of ratio ``rho`` = p1/q0 > lam (``_closure``) is walked for
    ``terms`` = caps.depth steps at most (``_resolve_resonance``), none past
    y1 + rho, so K never exceeds y1 + rho, and no pass breaks off once
    ``terms`` steps are found: the next node is yielded for its tower only.
    Substitutions of exponent above lam add to w^1 of P and w^0 of Q
    only above p1 and q0, so c1 = q0 (lam' - rho) at the next exponent
    lam' = k0 - y1.  A support point (x, y) with x >= 2 has y + x lam >=
    y1 + lam (``_fold_step``), so y + x r > y1 + r for every r > lam: no
    vertex at x >= 2 is critical (r its ratio), and lam' decides alone.
    Below rho the step is taken; at rho c1 cancels (alpha None); above rho,
    which past the first node means that P(z, 0) runs out within K = y1 +
    rho, and where P(z, 0) is zero, (1, y1) is a critical vertex (r = rho).
    Where P(z, 0) runs out below y1 + rho in a pass that dropped terms, K
    rises as in extension, capped at y1 + rho.  A step is exact while k0 <=
    K, so no decision depends on K.  Cut at y1 + rho, the pair keeps terms
    that a capped walk never reads: at rho = 19684 it grew to 1793 terms of
    14 000 bits in 32 steps.
    """
    entry, (n, tower) = sides[:2], sides[2:]
    start = lam.numerator * n // lam.denominator  # n lam, floored
    found = []  # (n lam, lam, alpha) of the steps yielded and taken
    bound, top = None, math.inf  # K on the scale n, set at the first step, and y1 + rho
    taken, rise = 0, 0  # steps found before this pass, and K's last rise
    while True:
        (p, q), low = entry, None  # low: the least weight dropped in this pass
        for i in itertools.count():
            if i < len(found):
                nu, mu, alpha = found[i]
            else:
                prof = coeff_profile(p, q, n, fold=True)
                if 0 not in prof.p and low is not None and len(found) < terms and bound < top:
                    break
                prev = found[-1][0] if found else start
                step = _fold_step(prof, prev) if 0 in prof.p else None
                if step is not None:
                    k0, nu = prof.p[0][0], step[0].numerator * (n // step[0].denominator)
                    if bound is None:
                        bound = k0 + math.floor((terms - 1) * (nu - n * lam))
                        if rho is not None:
                            top = k0 + math.floor((rho - step[0]) * n)  # y1 + rho
                            bound = min(bound, top)
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
        raised = min(raised, top)
        taken, rise, bound = len(found), raised - bound, raised


def extend_leaf(leaf: Leaf, n_terms: int):
    """Continue a closed/exact leaf deterministically up to n_terms terms,
    resuming the truncated walk (``_fold_walk``) on the leaf's pair, or over
    Q on its rational frame where it has one (``_rational_frame``)."""
    terms = leaf.terms
    if not leaf.counted or len(terms) >= n_terms:
        return terms
    left = n_terms - len(terms)
    sides, back = _rational_frame(leaf.sides) or (leaf.sides, None)
    found = []
    for _, step in _fold_walk(sides, leaf.lam_last, terms=left):
        if step is None or step[1] is None:
            break
        found.append(step if back is None else back(*step))
        if len(found) == left:
            break
    return terms + tuple(found)


def _rational_frame(sides):
    """The walk's pair over Q for the pair ``sides`` over Q(t0), t0^d = v0
    with d | n, and the map of its steps back; None when the tower is not
    such a level or the pair is not rational up to one common power of t0,
    and the walk runs in the tower.

    The frame is z = lam z' with lam = t0^(-n) = v0^(-n/d), rational:
    z^(s/n) = t0^(-s) z'^(s/n) and dw/dz' = lam P / Q, so the coefficient
    of P at key (s, j) is multiplied by t0^(-s-n) and that of Q by t0^(-s).
    On the integer coordinates of the pair each product is c_i t0^e, e = i
    - s (- n), for its one nonzero coordinate c_i; where every e has one
    residue r mod d, dividing both sides by t0^r leaves c_i v0^((e - r) /
    d), and the content-free integer pair of that.  It is a constant
    multiple of the same remainder in z', on the same keys, so the walk
    reads the same exponents and weights, and its step (mu, beta), w = beta
    z'^mu, is (mu, beta t0^(n mu)) on ``sides``."""
    p, q, n, tower = sides
    if tower is None or len(tower.levels) != 1:
        return None
    level = tower.levels[0]
    d, v0 = level.degree, -Fraction(level.minpoly[0])
    if n % d or any(level.minpoly[1:d]):
        return None
    out, residue = ([], []), None
    for side, lift, frame in ((p, n, out[0]), (q, 0, out[1])):
        for key, c in side.items():
            (i, x), *more = [(i, x) for i, x in enumerate(c.rep) if x]
            e = i - key[0] - lift
            if residue is None:
                residue = e % d
            if more or e % d != residue:
                return None
            frame.append((key, x, (e - residue) // d))
    # c_i v0^k on ints: times v0^-low den^(high - low), v0 = num / den
    ks = [k for frame in out for _, _, k in frame]
    low, high, num, den = min(ks), max(ks), v0.numerator, v0.denominator
    out = [{key: x * num ** (k - low) * den ** (high - k) for key, x, k in frame} for frame in out]

    def back(mu, beta):
        k = mu.numerator * (n // mu.denominator)  # n mu
        coords = [0] * d
        coords[k % d] = _canon(beta * v0 ** (k // d))
        return mu, ExtElem(tower, tuple(coords))

    return (*_content_free(*out, None)[:2], n, None), back


def multiplicity_at(sys: OdeSystem, point, caps: Caps = DEFAULT_CAPS) -> MultiplicityResult:
    """Algebraic multiplicity at ("point", z0, w0) or ("inf", z0).

    Transforms the point to the origin, expands the branch tree and counts the
    counted leaves weighted by conjugacy degree; the constant solution is never
    counted.  Counted branches are extended to ``caps.terms`` terms.  Where
    the linear part says the count is 0 (``_origin_count``) no tree is
    expanded.
    """
    moved = transform_point(sys, point)
    known = _origin_count(moved, caps)
    if known is not None:
        return known
    tree = expand_branches(moved, caps)
    if tree.critical is not None:
        return MultiplicityResult(status="critical", witness=tree.critical, flags=tree.flags)
    branches, extended = [], []
    for leaf in tree.leaves:
        if not leaf.terms:
            continue
        terms = _orbit_extension(leaf, extended)
        if terms is None:
            terms = extend_leaf(leaf, caps.terms)
            if leaf.counted:
                extended.append((leaf, terms))
        branches.append(
            PuiseuxBranch(
                terms=terms,
                base=point,
                conj_degree=leaf.conj_degree,
                tower=leaf.tower,
                status=leaf.status,
                flags=leaf.flags,
            )
        )
    count = sum(lf.conj_degree for lf in tree.leaves if lf.counted)
    caps_hit = [lf for lf in tree.leaves if lf.status == "cap-exceeded"]
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


def _orbit_extension(leaf: Leaf, extended):
    """The extension of the counted ``leaf`` read off one of the
    ``extended`` (leaf, terms) of its ramification orbit, or None.

    On an even scale n, t -> -t (t = z^(1/n)) fixes z and the system and
    maps a branch to another: it multiplies the coefficient at key (s, j)
    by (-1)^s and a term at mu by (-1)^(n mu).  Where it maps the pair of an
    extended leaf, with the same prefix length and last exponent, to plus or
    minus the pair of ``leaf``, the walk from ``leaf`` is the image of the
    other's walk: the continuation after a closed leaf is unique."""
    p, q, n, tower = leaf.sides
    if n % 2 or not leaf.counted:
        return None
    for other, terms in extended:
        if (other.sides[2:], other.lam_last, len(other.terms)) != ((n, tower), leaf.lam_last, len(leaf.terms)):
            continue
        image = [{k: -c if k[0] % 2 else c for k, c in side.items()} for side in other.sides[:2]]
        if [p, q] == image or [p, q] == [{k: -c for k, c in side.items()} for side in image]:
            return leaf.terms + tuple((mu, -c if mu * n % 2 else c) for mu, c in terms[len(leaf.terms):])
    return None


def _origin_count(sys: OdeSystem, caps: Caps) -> Optional[MultiplicityResult]:
    """The count 0 that ``_linear_part_count`` reads off the linear part at
    the origin of ``sys``, a coprime pair over Q with n = 1 and z | Q, so
    that the origin lies on the invariant axis z = 0; None elsewhere, and
    where the count is 1, whose branch ``multiplicity_at`` prints.  The
    four coefficients are read as they stand: P and Q share one scale."""
    if sys.tower is not None or sys.n != 1 or not sys.Q.terms:
        return None
    p, q = sys.P.terms, sys.Q.terms
    if not all(ze for ze, _ in q):
        return None
    return _linear_part_count(
        (p.get((0, 0), 0),),
        (q.get((1, 0), 0),),
        (p.get((0, 1), 0),),
        (p.get((1, 0), 0),),
        all(we for _, we in p),
        caps,
    )


def _linear_part_count(p0, mu_z, mu_w, p_z, on_solution, caps: Caps, q_degree=None):
    """The count at a point (0, theta) of the invariant axis z = 0 of a
    coprime axis-form pair (zdot, wdot) = (Q, P) over Q, read off its linear
    part, as a ``MultiplicityResult``; None where the branch tree must
    decide.  theta is a root of an irreducible f over Q; p0 = P_0(theta),
    mu_z = Q_1(theta), mu_w = P_0'(theta) and p_z = P_1(theta), with P_i and
    Q_i the z^i-coefficients, are each given by their coordinates in the
    basis 1, theta, ... of Q(theta), all on one positive scale;
    ``on_solution`` says whether P(z, theta) = 0, that is whether w = theta
    is a solution.  ``q_degree`` is deg_w Q; without it count 1 is not
    answered.

    A regular point, P_0(theta) != 0, has count 0: every support point of
    the tree has height >= 0, as z | Q puts each Q point at height l_i - 1
    >= 0, and (0, 0) is one of them, so no edge of exponent lam > 0 leaves
    it and no vertex (x, y), x >= 1, dominates it.

    At a singular point the Jacobian is [[Q_1, 0], [P_1, P_0']] at theta:
    eigenvalue mu_z across the axis and mu_w along it.  The point is reduced
    when exactly one of them is zero (a saddle-node) or both are nonzero and
    rho = mu_w / mu_z is not in Q+ (a saddle, in the wide sense).  It then
    has exactly two formal separatrices, smooth and tangent to the two
    eigendirections (Seidenberg, Amer. J. Math. 1968; Camacho-Sad, Ann. of
    Math. 1982; Brunella, Birational Geometry of Foliations, ch. 1: a
    saddle-node has its strong separatrix and one formal center manifold).
    One is the axis.  As mu_z != mu_w, the eigendirection of mu_z, (mu_z -
    mu_w, P_1(theta)), is transverse to the axis, so the other is one power
    series w = theta + a_1 z + ... .  That series is the constant solution
    w = theta, which is never counted, exactly when P(z, theta) = 0: count
    0, and 1 otherwise, the same at every conjugate root.  With P(z, theta)
    = 0 the tree has no point at abscissa 0 and the Both point (1, 0), of
    ratio rho or of P or Q alone, below every other point: no edge past 0
    and no dominating vertex.

    A 1:1 Jordan node, mu_z = mu_w != 0 with P_1(theta) != 0, is
    linearizable to (z, w + z) (Poincare-Dulac: Ilyashenko-Yakovenko,
    Lectures on Analytic Differential Equations, ch. 1), whose only
    separatrix is the eigendirection, the axis: count 0.  In the tree the
    only edge past 0 runs from (0, 1) to (1, 0), of exponent 1, and its
    polynomial (mu_z - mu_w) a - P_1 is the nonzero constant -P_1, while
    the vertex (1, 0) of ratio 1 ties with (0, 1) and does not dominate.  Its radial
    twin, P_1(theta) = 0, is dicritical, and a node of ratio n >= 2 has a
    resonant coefficient: both stay with the tree, which gives a witness.

    A count-0 tree stops at its root, so it needs caps.depth >= 1.  For
    count 1 the tree finds the transverse series in one step of integer
    exponent lam = k0, the order of P(z, theta), from the only edge past 0,
    (0, k0) to (1, 0), of a linear edge polynomial.  The node after it, at
    depth 1, is closed, or exact where the series is a polynomial; an exact
    node is also a depth-cap leaf unless its depth is below caps.depth.
    Where mu_z = 0 the node's closure may be ``generic``: Q vanishes on the
    prefix w = s(z), a polynomial in z, and the tree takes one more such
    step, at the next depth.  Each such s gives another factor w - s(z) of
    Q / z, so there are at most deg_w Q of them.  So the tree decides the
    point without a cap when caps.depth >= 2, plus deg_w Q where mu_z = 0,
    and caps.factor >= 1, which a linear edge polynomial over Q needs.
    """
    if caps.depth < 1:
        return None
    if any(p0):
        return MultiplicityResult(status="finite", count=0)
    across, along = any(mu_z), any(mu_w)
    if across and along:
        # rho is in Q+ exactly when the coordinates of mu_w and mu_z are
        # positively proportional; on one scale rho = 1 when they are equal
        lead = next(i for i, c in enumerate(mu_z) if c)
        a, b = mu_z[lead], mu_w[lead]
        if a * b > 0 and all(y * a == b * x for x, y in zip(mu_z, mu_w)):
            if a == b and any(p_z):
                return MultiplicityResult(status="finite", count=0)
            return None
    elif not (across or along):
        return None
    if on_solution:
        return MultiplicityResult(status="finite", count=0)
    if q_degree is None or caps.factor < 1 or caps.depth < 2 + (0 if across else q_degree):
        return None
    return MultiplicityResult(status="finite", count=1)
