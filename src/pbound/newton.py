"""Newton diagrams for dominant-balance analysis of Q(z,w) w' = P(z,w).

Support points are (j, k_j) for the numerator and (i+1, l_i - 1) for the
denominator; admissible leading exponents lambda are the negated slopes of the
lower-hull edges, and each edge carries a characteristic polynomial whose
nonzero roots are the acceptable leading coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exact import (
    ExtElem,
    Q,
    UniPoly,
    as_fraction,
    certified_is_rational,
    f_inv,
    f_is_zero,
    field_zero,
)
from .polyode import CoeffProfile


@dataclass(frozen=True)
class SupportPoint:
    x: int
    y: Fraction
    from_p: bool
    from_q: bool

    @property
    def both(self) -> bool:
        return self.from_p and self.from_q


@dataclass
class Edge:
    x1: int
    y1: Fraction
    x2: int
    y2: Fraction
    lam: Fraction  # negated slope
    char_poly: Optional[UniPoly]  # None on a non-admissible edge
    points_on_edge: tuple

    @property
    def admissible(self) -> bool:
        return self.lam > 0

    @property
    def width(self) -> int:
        return self.x2 - self.x1


@dataclass
class VertexVerdict:
    x: int
    lam_star: object  # Fraction or tower element
    critical: bool
    dicritical_suspect: bool


@dataclass
class NewtonDiagram:
    points: tuple
    edges: tuple  # hull edges, ascending x
    vertex_candidates: tuple  # Both-origin hull vertices


def support_points(profile: CoeffProfile):
    """One point per finite k_j (P) and per finite l_i (Q); coincident
    coordinates merge into a Both point."""
    seen = {}
    for j, (kj, _) in profile.p.items():
        key = (j, kj)
        seen[key] = (True, seen.get(key, (False, False))[1])
    for i, (li, _) in profile.q.items():
        key = (i + 1, li - 1)
        prev = seen.get(key, (False, False))
        seen[key] = (prev[0], True)
    pts = [
        SupportPoint(x=x, y=y, from_p=fp, from_q=fq) for (x, y), (fp, fq) in seen.items()
    ]
    pts.sort(key=lambda p: (p.x, p.y))
    return pts


def _lower_hull(points):
    """Monotone-chain lower hull over the lowest point per x-column."""
    best = {}
    for p in points:
        cur = best.get(p.x)
        if cur is None or p.y < cur.y:
            best[p.x] = p
    cols = [best[x] for x in sorted(best)]
    hull = []
    for p in cols:
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            # keep strictly convex turns; drop b when it lies on or above a-p
            if (b.y - a.y) * (p.x - a.x) >= (p.y - a.y) * (b.x - a.x):
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def lower_hull(points, profile: CoeffProfile) -> NewtonDiagram:
    """The Newton diagram; every admissible edge carries its characteristic
    polynomial."""
    points = tuple(points)
    hull = _lower_hull(points)
    edges = []
    for a, b in zip(hull, hull[1:]):
        on_edge = tuple(
            p
            for p in points
            if a.x <= p.x <= b.x and (p.y - a.y) * (b.x - a.x) == (b.y - a.y) * (p.x - a.x)
        )
        edge = Edge(
            x1=a.x,
            y1=a.y,
            x2=b.x,
            y2=b.y,
            lam=-Q(b.y - a.y, 1) / Q(b.x - a.x),
            char_poly=None,
            points_on_edge=on_edge,
        )
        if edge.admissible:
            edge.char_poly = edge_char_poly(edge, profile)
        edges.append(edge)
    vertex_candidates = tuple(p for p in hull if p.both)
    return NewtonDiagram(points=points, edges=tuple(edges), vertex_candidates=vertex_candidates)


def edge_char_poly(edge: Edge, profile: CoeffProfile) -> UniPoly:
    """phi(alpha) = sum q_{i,0} lam alpha^{i+1} - sum p_{j,0} alpha^j over the
    on-edge support points; nonzero d-fold roots are the d-folded acceptable
    leading coefficients for this edge."""
    if not edge.admissible:
        raise ValueError("characteristic polynomial of a non-admissible edge")
    tower = _profile_tower(profile)
    coeffs = [field_zero(tower)] * (edge.x2 + 1)
    for pt in edge.points_on_edge:
        if pt.from_q:
            coeffs[pt.x] = coeffs[pt.x] + profile.q[pt.x - 1][1] * edge.lam
        if pt.from_p:
            coeffs[pt.x] = coeffs[pt.x] - profile.p[pt.x][1]
    return UniPoly(coeffs, var="a", tower=tower)


def _profile_tower(profile: CoeffProfile):
    for _, c in list(profile.p.values()) + list(profile.q.values()):
        if isinstance(c, ExtElem):
            return c.tower
    return None


def nonzero_char_poly(edge: Edge) -> UniPoly:
    """The characteristic polynomial with its alpha = 0 root(s) discarded."""
    phi = edge.char_poly
    low = 0
    while low < len(phi.coeffs) and f_is_zero(phi.coeffs[low]):
        low += 1
    return UniPoly(list(phi.coeffs[low:]), var=phi.var, tower=phi.tower)


def vertex_critical_check(diagram: NewtonDiagram, profile: CoeffProfile, lam_min=Q(0)):
    """Per Both-vertex criticality verdicts.

    A vertex (j, k_j) with k_j = l_{j-1} - 1 is critical when the ratio
    p_{j,0}/q_{j-1,0} is a positive rational exceeding ``lam_min`` and the line
    of slope -ratio through the vertex lies strictly below every other support
    point.  A non-rational ratio under the same dominance only earns a
    dicritical-suspect flag.
    """
    verdicts = []
    for v in diagram.vertex_candidates:
        j = v.x
        p = profile.p[j][1]
        q = profile.q[j - 1][1]
        ratio = p * f_inv(q)
        rational = certified_is_rational(ratio)
        if rational:
            lam_star = as_fraction(ratio)
            if lam_star <= 0 or lam_star <= lam_min:
                verdicts.append(VertexVerdict(j, lam_star, False, False))
                continue
            verdicts.append(VertexVerdict(j, lam_star, _strictly_dominates(diagram.points, v, lam_star), False))
        else:
            # cannot decide real positivity exactly; never critical, but flag
            # possible dicriticality when some rational slope this vertex could
            # carry would dominate
            suspect = _strictly_dominates_interval(diagram.points, v)
            verdicts.append(VertexVerdict(j, ratio, False, suspect))
    return verdicts


def _strictly_dominates(points, v, lam):
    for p in points:
        if p.x == v.x and p.y == v.y:
            continue
        if p.y + lam * p.x <= v.y + lam * v.x:
            return False
    return True


def _strictly_dominates_interval(points, v):
    """True when an open interval of slopes through v dominates the rest,
    i.e. the vertex is a genuine corner of the hull."""
    lo, hi = Q(0), None
    for p in points:
        if p.x == v.x and p.y == v.y:
            continue
        if p.x == v.x:
            continue
        slope = Q(p.y - v.y) / Q(v.x - p.x)
        if p.x > v.x:
            lo = max(lo, slope)
        else:
            hi = slope if hi is None else min(hi, slope)
    return hi is None or lo < hi


def first_critical(verdicts):
    for v in verdicts:
        if v.critical:
            return v
    return None
