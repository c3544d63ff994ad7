"""Degree bounds for strict invariant algebraic curves.

For an axis-form equation dw/dz = P/(z Q) the w-degree of any irreducible
strict Darboux polynomial is bounded by the sum of the algebraic
multiplicities over the axis singular points {infinity} + roots of P(0,w); if
none of those points is algebraic critical the coarser product bound M(k+1)
also holds, with M = max(deg P, deg zQ).  Carrying an invariant straight
line onto the axis, by one affine change of coordinates
(``polyode.affine_map``), turns the same machinery into a total-degree bound
M(M+1).  Which roots of P(0, w) exist, and which a cap stops, is decided
once, by ``exact.root_policy``, for the bound, the branch tree and line
detection alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

from .branching import Caps, DEFAULT_CAPS, MultiplicityResult, Reason, _linear_part_count, multiplicity_at
from .darboux import DarbouxCertificate, verify_darboux
from .exact import (
    DEFAULT_FACTOR_CAP,
    Q,
    QQ_TOWER,
    UniPoly,
    _int_derivative,
    _int_poly_prem,
    _primitive_int_coeffs,
    adjoin_root,
    root_policy,
)
from .polyode import BiPoly, OdeSystem, _int_rows, affine_map, bipoly_str, invert_at_infinity
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

    @property
    def reasons(self) -> tuple:
        """The reason of the point's count, at the bound and by the point's
        label: a capped count."""
        return (Reason("capped", "bound", self.label),) if self.mul.reasons else ()


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

    @property
    def reasons(self) -> tuple:
        """The summands' reasons, then a sum that is only a lower bound."""
        out = [r for p in self.points for r in p.reasons]
        if self.sum_lower_bound is not None:
            out.append(Reason("sum-lower-bound", "bound", str(self.sum_lower_bound)))
        return tuple(out)

    def to_report(self):
        summands = self.summands()
        out = {
            "m_axis": self.m_axis,
            "m_plain": self.m_plain,
            "k": self.k,
            "summands": summands,
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
            # blocked_by is one of the points, whose dict is in summands
            out["blocked_by"] = next(d for p, d in zip(self.points, summands) if p is self.blocked_by)
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
    return UniPoly([cols.get(i, 0) for i in range(deg + 1)], var="w")


def axis_singular_points(sys: OdeSystem, caps: Caps = DEFAULT_CAPS):
    """{infinity} plus the roots of P(0, w), each as (kind, value, weight),
    and k, the number of distinct roots of P(0, w).

    Infinity is ("inf", None, 1).  The roots are the entries of
    ``exact.root_policy`` for P(0, w) at the default factor cap and
    ``caps.tower``, the root policy of the branch tree and line detection:
    kind is the entry's note, value the rational root or the monic
    factor, and weight the number of distinct roots the entry stands for.
    k is the sum of the roots' weights."""
    _require_axis(sys)
    p0 = p_at_axis(sys)
    if p0.is_zero():
        raise BoundsError("axis is not isolated: P(0,w) vanishes identically")
    points = [("inf", None, 1)]
    for root in root_policy(p0, None, DEFAULT_FACTOR_CAP, caps.tower):
        if root.note == "rational":
            points.append(("rational", root.value, 1))
        elif root.note == "factor-cap":
            # the rest past the cap may repeat its roots
            rest = root.factor.monic()
            points.append(("factor-cap", rest, rest.degree() - rest.gcd(rest.derivative()).degree()))
        else:
            points.append((root.note, root.factor, root.factor.degree()))
    return points, sum(weight for _, _, weight in points[1:])


# ---------------------------------------------------------------------------
# the axis multiplicity bound (sum and product forms)
# ---------------------------------------------------------------------------

def _linear_rows(sys: OdeSystem):
    """The int rows of P and Q by z-power, dense in w (``polyode._int_rows``),
    both over the common denominator of their coefficients, so on one
    scale, which ``_axis_root_count`` reads; None for a system over a tower
    or on a scale n > 1, where the rule does not apply."""
    if sys.tower is not None or sys.n != 1:
        return None
    sides = (sys.P.terms, sys.Q.terms)
    den = math.lcm(*[c.denominator for side in sides for c in side.values()])
    if den > 1:
        sides = [{k: c.numerator * (den // c.denominator) for k, c in side.items()} for side in sides]
    return tuple(_int_rows(side, axis=1) for side in sides)


def _axis_root_count(rows, f, caps: Caps) -> Optional[MultiplicityResult]:
    """The count at each root theta of f, an irreducible factor over Q of
    P(0, w) given as its primitive int list with a positive lead, or at the
    root w = 0 of a moved system, read off the linear part of (zdot, wdot) =
    (Q, P) at (0, theta) (``branching._linear_part_count``); ``rows`` are
    ``_linear_rows`` of the system.  None where the branch tree must decide.

    On Z[w] the pseudo-remainders against f of lists padded to one length
    are the remainders mod f times one power of its positive lead, so mu_z
    and mu_w, which the rule compares, share one scale; they keep all deg f
    coordinates.  f must be certified irreducible, so that Q[w]/(f) is a
    field."""
    if rows is None:
        return None
    p_rows, q_rows = rows
    q1, dp0 = q_rows[1] if len(q_rows) > 1 else [], _int_derivative(p_rows[0])
    if len(q1) != len(dp0):
        width = max(len(q1), len(dp0))
        q1, dp0 = q1 + [0] * (width - len(q1)), dp0 + [0] * (width - len(dp0))
    d = len(f) - 1
    mu_z, mu_w = _int_poly_prem(q1, f), _int_poly_prem(dp0, f)
    mu_z, mu_w = mu_z + [0] * (d - len(mu_z)), mu_w + [0] * (d - len(mu_w))
    p0 = _int_poly_prem(p_rows[0], f)
    p_z = _int_poly_prem(p_rows[1], f) if len(p_rows) > 1 else []
    on_solution = not (p0 or p_z) and all(not _int_poly_prem(row, f) for row in p_rows[2:])
    return _linear_part_count(p0, mu_z, mu_w, p_z, on_solution, caps, max(map(len, q_rows)) - 1)


def _axis_count(sys: OdeSystem, kind, value, caps: Caps, rows) -> MultiplicityResult:
    """The count at the entry (kind, value) of ``axis_singular_points``.

    An entry a cap stopped is a capped point with lower bound 0, its note
    the diagnostic.  Elsewhere the linear part decides
    (``_axis_root_count`` on ``rows``) where it can: a rational root a/b is
    read as the factor b w - a of P(0, w), and (0, infinity) as the root
    w = 0 of the system that ``invert_at_infinity`` moves it to.  Where it
    leaves the point open the branch tree runs there, over Q(theta) for an
    irrational root, whose root is adjoined only then; at ``terms`` 0,
    since summands print no branches and ``terms`` moves no count."""
    if kind == "inf":
        sys, value = invert_at_infinity(sys), Q(0)
        rows = _linear_rows(sys)
    if kind == "irrational":
        f = _primitive_int_coeffs(value)
    elif kind in ("inf", "rational"):
        f = [-value.numerator, value.denominator]
    else:
        return MultiplicityResult(status="capped", lower_bound=0, diagnostics=(kind,))
    mul = _axis_root_count(rows, f, caps)
    if mul is None:
        if kind == "irrational":
            tower, value = adjoin_root(QQ_TOWER, value, caps.tower)
            sys = sys.map_tower(tower)
        mul = multiplicity_at(sys, ("point", Q(0), value), replace(caps, terms=0))
    return mul


def axis_multiplicity_bound(sys: OdeSystem, caps: Caps = DEFAULT_CAPS, known=None) -> BoundReport:
    """Bound deg_w f by the sum of multiplicities over the axis points; report
    the product bound M(k+1) too when every point is non-critical.

    ``known`` maps summand labels, "inf" or the ``str`` of a rational root,
    to the ``multiplicity_at`` results at those points at the same caps,
    which a caller that prints their branches has computed; they are taken
    as they are.  Every other summand is ``_axis_count``'s.  Summands print
    no branches: the branches of a count at (0, infinity) have the base
    (0, 0), not ("inf", 0), and must reach no branch list."""
    points, k = axis_singular_points(sys, caps)
    m_axis = sys.degree()
    report = BoundReport(m_axis=m_axis, m_plain=m_axis, k=k)
    rows = _linear_rows(sys)
    known = known or {}
    total = 0
    lower = 0
    all_finite = True
    any_capped = False
    for kind, value, weight in points:
        label = "inf" if kind == "inf" else str(value) if kind == "rational" else "root of %s" % value
        mul = known.get(label)
        if mul is None:
            mul = _axis_count(sys, kind, value, caps, rows)
        entry = AxisPoint(label, weight, mul)
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
