"""Degree bounds for strict invariant algebraic curves.

For an axis-form equation dw/dz = P/(z Q) the w-degree of any irreducible
strict Darboux polynomial is bounded by the sum of the algebraic
multiplicities over the axis singular points {infinity} + roots of P(0,w); if
none of those points is algebraic critical the coarser product bound M(k+1)
also holds, with M = max(deg P, deg zQ).  Transporting an invariant straight
line onto the axis turns the same machinery into a total-degree bound M(M+1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .branching import Caps, DEFAULT_CAPS, MultiplicityResult, multiplicity_at
from .darboux import DarbouxCertificate, _swap_zw, verify_darboux
from .exact import (
    ExactError,
    Q,
    Tower,
    TowerSplitError,
    UniPoly,
    adjoin_root,
    as_fraction,
    factor_univariate,
)
from .polyode import (
    BiPoly,
    OdeSystem,
    bipoly_str,
)
from .sysparse import witness_report


class BoundsError(Exception):
    pass


@dataclass
class AxisPoint:
    label: str  # "inf", a rational string, or "root of <poly>"
    weight: int  # number of conjugate points this entry stands for
    mul: MultiplicityResult

    def to_report(self):
        out = {"point": self.label, "weight": self.weight, "status": self.mul.status}
        if self.mul.status == "finite":
            out["mul"] = self.mul.count
        elif self.mul.status == "capped":
            out["mul_lower_bound"] = self.mul.lower_bound
        else:
            out["witness"] = witness_report(self.mul.witness)
        return out


@dataclass
class BoundReport:
    m_axis: Optional[int]  # max(deg P, deg zQ) of the axis-form system
    m_plain: Optional[int]  # max(deg P, deg Q) of the original system
    k: Optional[int]  # number of distinct complex roots of P(0, w)
    points: list = field(default_factory=list)
    sum_bound: Optional[int] = None  # bound on deg_w f
    sum_lower_bound: Optional[int] = None  # when capped entries exist
    product_bound: Optional[int] = None  # M (k+1), needs all points non-critical
    line_bound: Optional[int] = None  # M (M+1), total degree, via invariant line
    blocked_by: Optional[AxisPoint] = None
    swapped_variables: bool = False
    notes: tuple = ()

    def summands(self):
        return [p.to_report() for p in self.points]

    def to_report(self):
        out = {
            "m_axis": self.m_axis,
            "m_plain": self.m_plain,
            "k": self.k,
            "summands": self.summands(),
            "sum_bound": self.sum_bound,
            "product_bound": self.product_bound,
            "line_bound": self.line_bound,
            "scope": {
                "sum_bound": "w-degree",
                "product_bound": "w-degree",
                "line_bound": "total-degree",
            },
        }
        if self.sum_lower_bound is not None:
            out["sum_lower_bound"] = self.sum_lower_bound
        if self.blocked_by is not None:
            out["blocked_by"] = self.blocked_by.to_report()
        if self.swapped_variables:
            out["swapped_variables"] = True
        if self.notes:
            out["notes"] = list(self.notes)
        return out


# ---------------------------------------------------------------------------
# axis singular points
# ---------------------------------------------------------------------------

def _require_axis(sys: OdeSystem):
    if not sys.Q.terms or not all(ze >= 1 for (ze, _) in sys.Q.terms):
        raise BoundsError("denominator is not divisible by z (axis form required)")


def p_at_axis(sys: OdeSystem) -> UniPoly:
    """P(0, w) as a univariate polynomial."""
    cols = {}
    for (ze, we), c in sys.P.terms.items():
        if ze == 0:
            cols[we] = c
    deg = max(cols, default=-1)
    return UniPoly([cols.get(i, Q(0)) for i in range(deg + 1)], var="w")


def axis_singular_points(sys: OdeSystem):
    """{infinity} plus the roots of P(0,w): rational roots exactly, irrational
    ones via their irreducible factors; also returns k (distinct roots)."""
    _require_axis(sys)
    p0 = p_at_axis(sys)
    if p0.is_zero():
        raise BoundsError("axis is not isolated: P(0,w) vanishes identically")
    points = [("inf", None, 1)]
    k = 0
    if p0.degree() > 0:
        k = p0.squarefree_part().degree()
        for fac in factor_univariate(p0):
            if fac.poly.degree() == 1:
                root = -as_fraction(fac.poly.coeffs[0])
                points.append(("rational", root, 1))
            else:
                points.append(("algebraic", fac.poly, fac.poly.degree()))
    return points, k


# ---------------------------------------------------------------------------
# the axis multiplicity bound (sum and product forms)
# ---------------------------------------------------------------------------

def axis_degree(sys: OdeSystem) -> int:
    """M = max(deg P, deg zQ) for an axis-form system."""
    return int(max(sys.P.total_degree(), sys.Q.total_degree()))


def _mul_at_algebraic_point(sys: OdeSystem, minpoly: UniPoly, caps: Caps):
    """Multiplicities over the conjugacy class of an irreducible axis root.

    Returns [(weight, MultiplicityResult)]; a presumed-irreducible factor that
    splits mid-run is replayed per factor with the correct weights.
    """
    work = [minpoly]
    out = []
    while work:
        poly = work.pop()
        base = Tower(cap=caps.tower)
        try:
            tower, theta = adjoin_root(base, poly)
        except ExactError as exc:
            raise BoundsError("axis root tower: %s" % exc)
        lifted = sys.map_tower(tower)
        try:
            res = multiplicity_at(lifted, ("point", Q(0), theta), caps)
        except TowerSplitError as exc:
            if exc.level != 0:
                raise
            t1, t2 = exc.factor_towers()
            for t in (t1, t2):
                work.append(_tower_level_unipoly(t))
            continue
        out.append((poly.degree(), res))
    return out


def _tower_level_unipoly(tower: Tower) -> UniPoly:
    # a level over Q has int/Fraction coefficients, as a UniPoly over Q
    return UniPoly(tower.levels[0].minpoly, var="w")


def axis_multiplicity_bound(sys: OdeSystem, caps: Caps = DEFAULT_CAPS) -> BoundReport:
    """Bound deg_w f by the sum of multiplicities over the axis points; report
    the product bound M(k+1) too when every point is non-critical."""
    _require_axis(sys)
    point_entries, k = axis_singular_points(sys)
    m_axis = axis_degree(sys)
    report = BoundReport(m_axis=m_axis, m_plain=sys.degree(), k=k)
    total = 0
    lower = 0
    all_finite = True
    any_capped = False
    for kind, value, weight in point_entries:
        if kind == "inf":
            res = multiplicity_at(sys, ("inf", Q(0)), caps)
            entries = [AxisPoint(label="inf", weight=1, mul=res)]
        elif kind == "rational":
            res = multiplicity_at(sys, ("point", Q(0), value), caps)
            entries = [AxisPoint(label=str(value), weight=1, mul=res)]
        else:
            entries = [
                AxisPoint(label="root of %s" % str(value), weight=wt, mul=res)
                for wt, res in _mul_at_algebraic_point(sys, value, caps)
            ]
        for entry in entries:
            report.points.append(entry)
            if entry.mul.status == "finite":
                total += entry.weight * entry.mul.count
                lower += entry.weight * entry.mul.count
            elif entry.mul.status == "capped":
                any_capped = True
                all_finite = False
                lower += entry.weight * (entry.mul.lower_bound or 0)
            else:
                all_finite = False
                if report.blocked_by is None:
                    report.blocked_by = entry
    if all_finite:
        report.sum_bound = total
        report.product_bound = m_axis * (k + 1)
    elif any_capped and report.blocked_by is None:
        report.sum_lower_bound = lower
        report.notes = report.notes + (
            "cap-limited multiplicities: sum bound inconclusive (>= %d)" % lower,
        )
    else:
        report.notes = report.notes + ("a critical axis point blocks the finite bounds",)
    return report


# ---------------------------------------------------------------------------
# invariant lines and the total-degree bound
# ---------------------------------------------------------------------------

def _swap_system(sys: OdeSystem) -> OdeSystem:
    """Exchange the roles of z and w (dz/dw = Q~/P~)."""
    return OdeSystem(P=_swap_zw(sys.Q), Q=_swap_zw(sys.P), tower=sys.tower)


def line_transform(sys: OdeSystem, line):
    """Carry the invariant line a z + b w + c = 0 onto the axis z = 0.

    Returns (axis-form OdeSystem, swapped) where swapped records the z/w
    exchange applied when a = 0.
    """
    a, b, c = (Q(x) for x in line)
    if a == 0 and b == 0:
        raise BoundsError("degenerate line")
    swapped = False
    if a == 0:
        sys = _swap_system(sys)
        a, b = b, a
        swapped = True
    line_poly = BiPoly({(Q(1), 0): a, (Q(0), 1): b, (Q(0), 0): c})
    cert = verify_darboux(sys, line_poly)
    if not isinstance(cert, DarbouxCertificate):
        raise BoundsError(
            "line %s is not invariant (division remainder %s)"
            % (bipoly_str(line_poly), bipoly_str(cert.remainder))
        )
    # zbar = a z + b w + c, wbar = w; z = (zbar - b wbar - c)/a
    z_expr = BiPoly({(Q(1), 0): Q(1) / a, (Q(0), 1): -b / a, (Q(0), 0): -c / a})
    w_expr = BiPoly({(Q(0), 1): Q(1)})
    A = sys.Q  # zdot
    B = sys.P  # wdot
    denom = (A.scale(a) + B.scale(b)).subst_affine(z_expr, w_expr)
    numer = B.subst_affine(z_expr, w_expr)
    if denom.is_zero():
        raise BoundsError("degenerate transform: denominator vanished")
    if not all(ze >= 1 for (ze, _) in denom.terms):
        raise BoundsError("internal: transformed denominator lost its z factor")
    return OdeSystem(P=numer, Q=denom, tower=sys.tower), swapped


def invariant_line_bound(sys: OdeSystem, line, caps: Caps = DEFAULT_CAPS) -> BoundReport:
    """Total-degree bound M(M+1) when every singular point on the invariant
    line (including its point at infinity) is non-critical."""
    m_plain = sys.degree()
    transformed, swapped = line_transform(sys, line)
    report = axis_multiplicity_bound(transformed, caps)
    report.m_plain = m_plain
    report.swapped_variables = swapped
    if report.blocked_by is None and report.sum_bound is not None:
        report.line_bound = m_plain * (m_plain + 1)
    elif report.blocked_by is not None:
        report.notes = report.notes + (
            "line bound unavailable: critical point on the line",
        )
    return report
