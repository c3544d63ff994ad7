"""Degree bounds for strict invariant algebraic curves.

For an axis-form equation dw/dz = P/(z Q) the w-degree of any irreducible
strict Darboux polynomial is bounded by the sum of the algebraic
multiplicities over the axis singular points {infinity} + roots of P(0,w); if
none of those points is algebraic critical the coarser product bound M(k+1)
also holds, with M = max(deg P, deg zQ).  Carrying an invariant straight
line onto the axis, by one affine change of coordinates
(``polyode.affine_map``), turns the same machinery into a total-degree bound
M(M+1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .branching import Caps, DEFAULT_CAPS, MultiplicityResult, multiplicity_at
from .darboux import DarbouxCertificate, verify_darboux
from .exact import (
    ExactError,
    Q,
    QQ_TOWER,
    TowerSplitError,
    UniPoly,
    _level_modulus,
    adjoin_root,
    as_fraction,
    factor_univariate,
)
from .polyode import BiPoly, OdeSystem, affine_map, bipoly_str
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
        # a count that rests on a branch over a presumed level is presumed too
        if any(b.tower is not None and any(lv.presumed for lv in b.tower.levels) for b in self.mul.branches):
            out["presumed_irreducible"] = True
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
    ones via their irreducible factors; also returns k (distinct roots), the
    sum of the factors' degrees."""
    _require_axis(sys)
    p0 = p_at_axis(sys)
    if p0.is_zero():
        raise BoundsError("axis is not isolated: P(0,w) vanishes identically")
    points = [("inf", None, 1)]
    k = 0
    if p0.degree() > 0:
        for fac in factor_univariate(p0):
            k += fac.poly.degree()
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
    return max(sys.P.total_degree(), sys.Q.total_degree())


def _w_rows(poly: BiPoly):
    """{i: the z^i-coefficient of the rational ``poly`` as a UniPoly in w}."""
    rows = {}
    for (ze, we), c in poly.terms.items():
        rows.setdefault(ze, {})[we] = c
    return {ze: UniPoly([row.get(j, 0) for j in range(max(row) + 1)], var="w") for ze, row in rows.items()}


def _linear_part_count(sys: OdeSystem, f: UniPoly, caps: Caps) -> Optional[MultiplicityResult]:
    """The count at each root theta of the axis factor f, read off the
    linear part of (zdot, wdot) = (Q, P) at (0, theta); None where the
    branch tree must decide.

    With P_i and Q_i the z^i-coefficients (Q_0 = 0 in axis form), the
    Jacobian at (0, theta) is [[Q_1, 0], [P_1, P_0']] at theta: eigenvalue
    mu_z = Q_1(theta) across the axis and mu_w = P_0'(theta) along it.  When
    both are nonzero and rho = mu_w / mu_z is not in Q+, the point is a
    reduced singularity that is neither a saddle-node nor a resonant node,
    so it has exactly two formal separatrices, smooth and tangent to the
    two eigendirections (Camacho-Sad, Ann. of Math. 1982; Brunella,
    Birational Geometry of Foliations, ch. 1).  One is the axis z = 0.  As
    mu_z != mu_w, the eigendirection of mu_z is transverse to the axis, so
    the other is one power series w = theta + a_1 z + ... .  That series is
    the constant solution w = theta, which is never counted, exactly when
    P(z, theta) = 0, that is when f divides every P_i.  So the count is 0
    then and 1 otherwise, the same at every conjugate root.

    The rule needs f certified irreducible, so that Q[w]/(f) is a field and
    a presumed factor keeps the engine's split replay; a system over Q;
    and caps.depth >= 1, since the engine takes one tree step here.
    """
    if not (f.certified_irreducible and caps.depth >= 1 and sys.tower is None and sys.n == 1):
        return None
    p_rows, q_rows = _w_rows(sys.P), _w_rows(sys.Q)
    zero = UniPoly([], var="w")
    mu_z = q_rows.get(1, zero) % f
    mu_w = p_rows.get(0, zero).derivative() % f
    if mu_z.is_zero() or mu_w.is_zero():
        return None
    # rho is rational exactly when the coordinates of mu_w and mu_z in the
    # basis 1, theta, ... are proportional
    a = [as_fraction(mu_z[i]) for i in range(f.degree())]
    b = [as_fraction(mu_w[i]) for i in range(f.degree())]
    lead = next(i for i, c in enumerate(a) if c)
    rho = b[lead] / a[lead]
    if rho > 0 and all(y == rho * x for x, y in zip(a, b)):
        return None
    count = 0 if all((row % f).is_zero() for row in p_rows.values()) else 1
    return MultiplicityResult(status="finite", count=count)


def _mul_at_algebraic_point(sys: OdeSystem, minpoly: UniPoly, caps: Caps):
    """Multiplicities over the conjugacy class of an irreducible axis root.

    Returns [(factor, MultiplicityResult)]; a presumed-irreducible factor
    that splits mid-run is replayed per irreducible factor of its pieces,
    each entry standing for the roots of its own factor.  A factor of
    degree above ``caps.tower`` is not adjoined: its roots count as a
    capped point with lower bound 0.  Where the linear part decides the
    count (``_linear_part_count``) no root is adjoined; elsewhere
    ``multiplicity_at`` runs over Q(theta).
    """
    work = [minpoly]
    out = []
    while work:
        poly = work.pop()
        if poly.degree() > caps.tower:
            out.append((poly, MultiplicityResult(status="capped", lower_bound=0, diagnostics=("tower-cap",))))
            continue
        res = _linear_part_count(sys, poly, caps)
        if res is not None:
            out.append((poly, res))
            continue
        try:
            tower, theta = adjoin_root(QQ_TOWER, poly, caps.tower)
        except ExactError as exc:
            raise BoundsError("axis root tower: %s" % exc)
        lifted = sys.map_tower(tower)
        try:
            res = multiplicity_at(lifted, ("point", Q(0), theta), caps)
        except TowerSplitError as exc:
            if exc.level != 0:
                raise
            # each factor modulus factored again, so that its levels are
            # certified where factor_univariate can certify them
            for t in exc.factor_towers():
                work.extend(f.poly for f in factor_univariate(_level_modulus(t.levels[:1], "w")))
            continue
        out.append((poly, res))
    return out


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
                AxisPoint(label="root of %s" % str(poly), weight=poly.degree(), mul=res)
                for poly, res in _mul_at_algebraic_point(sys, value, caps)
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

def line_transform(sys: OdeSystem, line):
    """Carry the invariant line a z + b w + c = 0 onto the axis Z = 0.

    The line is checked in the given coordinates; ``affine_map`` then takes
    Z = a z + b w + c with W = w, or W = z when a = 0.  Returns (axis-form
    OdeSystem, swapped), where swapped records that z/w exchange.
    """
    a, b, c = (Q(x) for x in line)
    if a == 0 and b == 0:
        raise BoundsError("degenerate line")
    line_poly = BiPoly({(1, 0): a, (0, 1): b, (0, 0): c})
    cert = verify_darboux(sys, line_poly)
    if not isinstance(cert, DarbouxCertificate):
        raise BoundsError(
            "line %s is not invariant (division remainder %s)"
            % (bipoly_str(line_poly), bipoly_str(cert.remainder))
        )
    if a:
        out = affine_map(sys, ((a, b), (0, 1)), (-c / a, 0))
    else:
        out = affine_map(sys, ((0, b), (1, 0)), (0, -c / b))
    if out.Q.is_zero():
        raise BoundsError("degenerate transform: denominator vanished")
    if not all(ze >= 1 for (ze, _) in out.Q.terms):
        raise BoundsError("internal: transformed denominator lost its z factor")
    return out, a == 0


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
