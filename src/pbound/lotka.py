"""Lotka-Volterra case study: zdot = z(z + c w - 1), wdot = w(b z + w - a).

Under the genericity condition (a not a positive rational, c not a negative
rational, c - 1/a not a positive rational other than 1) the equation
dw/dz = w(bz+w-a)/(z(z+cw-1)) has a strict invariant algebraic curve iff
a(1-c) + (1-b) = 0, the curve being a(z-1) + w = 0.

The condition does not make the three axis points finite.  It admits
c - 1/a = 1 (for rational a != 0 the first two clauses force it), and on that
stratum the curve condition reads b = 0; there the point (0, a) is algebraic
critical, as checked at (-1, 0, 0), (-2, 0, 1/2) and (-3, 0, 2/3), while
b = 3 gives the triple (0, 0, 0).  At (-1, 0, 0) the first integral z w/((z-1)(w+1)) puts a
whole pencil of invariant curves through (0, -1).  So at the strict-curve
points the axis bounds are blocked, and `classify` rests its verdict on the
verified certificate a(z-1) + w, not on a sum bound.  Everything here drives
the general machinery; there are no Lotka-Volterra-specific shortcuts in the
math path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .bounds import BoundReport, axis_multiplicity_bound
from .branching import Caps, DEFAULT_CAPS, multiplicity_at
from .darboux import DarbouxCertificate, search_darboux, verify_darboux
from .exact import Q, in_q_minus, in_q_plus
from .polyode import BiPoly, OdeSystem, affine_map, make_system
from .sysparse import multiplicity_report


@dataclass(frozen=True)
class LvParams:
    a: Fraction
    b: Fraction
    c: Fraction

    def to_report(self):
        return {"a": str(self.a), "b": str(self.b), "c": str(self.c)}


def lv_equation(p: LvParams) -> OdeSystem:
    """dw/dz = w(bz + w - a) / (z(z + cw - 1)) with exact coefficients."""
    a, b, c = p.a, p.b, p.c
    P = BiPoly({(1, 1): b, (0, 2): Q(1), (0, 1): -a})
    Qd = BiPoly({(2, 0): Q(1), (1, 1): c, (1, 0): Q(-1)})
    return make_system(P, Qd)


@dataclass
class GenericityVerdict:
    holds: bool
    clauses: tuple  # (name, ok: bool | None, detail)

    def violated(self):
        return tuple(name for name, ok, _ in self.clauses if ok is not True)

    def to_report(self):
        return {
            "holds": self.holds,
            "clauses": [
                {"condition": name, "ok": ok, "detail": detail}
                for name, ok, detail in self.clauses
            ],
        }


def genericity_check(p: LvParams) -> GenericityVerdict:
    """Exact clause-by-clause verdicts; rational inputs make each decidable."""
    clauses = []
    ok_a = not in_q_plus(p.a)
    clauses.append(("a not in Q+", ok_a, "a = %s" % p.a))
    ok_c = not in_q_minus(p.c)
    clauses.append(("c not in Q-", ok_c, "c = %s" % p.c))
    if p.a == 0:
        clauses.append(("c - 1/a not in Q+ minus {1}", None, "undefined: a = 0"))
        return GenericityVerdict(holds=False, clauses=tuple(clauses))
    value = p.c - 1 / p.a
    ok_third = not (in_q_plus(value) and value != 1)
    clauses.append(
        ("c - 1/a not in Q+ minus {1}", ok_third, "c - 1/a = %s" % value)
    )
    return GenericityVerdict(holds=ok_a and ok_c and ok_third, clauses=tuple(clauses))


@dataclass
class LvClassification:
    params: LvParams
    genericity: GenericityVerdict
    condition_value: Optional[Fraction]  # a(1-c) + (1-b)
    verdict: str  # "strict-curve" | "no-strict-curve" | "inapplicable"
    curve: Optional[DarbouxCertificate]
    bound: Optional[BoundReport]
    search_notes: tuple = ()

    def to_report(self):
        out = {
            "params": self.params.to_report(),
            "genericity": self.genericity.to_report(),
            "verdict": self.verdict,
        }
        if self.condition_value is not None:
            out["curve_condition_a(1-c)+(1-b)"] = str(self.condition_value)
        if self.curve is not None:
            out["curve"] = self.curve.to_report()
        if self.bound is not None:
            out["bound"] = self.bound.to_report()
        if self.search_notes:
            out["search_notes"] = list(self.search_notes)
        return out


def classify(p: LvParams, caps: Caps = DEFAULT_CAPS) -> LvClassification:
    """Strict-curve classification: evaluate a(1-c) + (1-b) under the
    genericity condition; emit the curve certificate or certify absence by a
    bounded search."""
    gen = genericity_check(p)
    if not gen.holds:
        return LvClassification(
            params=p,
            genericity=gen,
            condition_value=None,
            verdict="inapplicable",
            curve=None,
            bound=None,
        )
    s = p.a * (1 - p.c) + (1 - p.b)
    sys = lv_equation(p)
    if s == 0:
        curve = BiPoly({(1, 0): p.a, (0, 1): Q(1), (0, 0): -p.a})
        cert = verify_darboux(sys, curve)
        if not isinstance(cert, DarbouxCertificate):
            raise AssertionError("a(z-1) + w failed verification at %s" % (p,))
        return LvClassification(
            params=p,
            genericity=gen,
            condition_value=s,
            verdict="strict-curve",
            curve=cert,
            bound=axis_multiplicity_bound(sys, caps),
        )
    bound = axis_multiplicity_bound(sys, caps)
    search_degree = max(1, bound.sum_bound or 0)
    outcome = search_darboux(sys, search_degree)
    strict = [c for c in outcome.certificates if c.strict]
    notes = ("searched total degree <= %d" % search_degree,) + outcome.notes
    if strict:
        # the only-if direction of the classification would be violated
        return LvClassification(
            params=p,
            genericity=gen,
            condition_value=s,
            verdict="strict-curve",
            curve=strict[0],
            bound=bound,
            search_notes=notes,
        )
    return LvClassification(
        params=p,
        genericity=gen,
        condition_value=s,
        verdict="no-strict-curve",
        curve=None,
        bound=bound,
        search_notes=notes,
    )


# ---------------------------------------------------------------------------
# parameter symmetries
# ---------------------------------------------------------------------------

def apply_symmetry(p: LvParams, which: str):
    """The two parameter symmetries of the system.

    "axes-swap": (z, w) -> (w/a, z/a) with parameters (1/a, c, b), a != 0.
    "inversion": (z, w) -> (1/z, (1-c) w/z) with (1-b, 1-a, c/(c-1)), c != 1.
    Returns (new params, coordinate map as strings).
    """
    if which == "axes-swap":
        if p.a == 0:
            raise ValueError("axes-swap needs a != 0")
        new = LvParams(a=1 / p.a, b=p.c, c=p.b)
        mapping = {"z": "w/%s" % _paren(p.a), "w": "z/%s" % _paren(p.a)}
        return new, mapping
    if which == "inversion":
        if p.c == 1:
            raise ValueError("inversion needs c != 1")
        new = LvParams(a=1 - p.b, b=1 - p.a, c=p.c / (p.c - 1))
        mapping = {"z": "1/z", "w": "%s*w/z" % _paren(1 - p.c)}
        return new, mapping
    raise ValueError("unknown symmetry %r" % which)


def _paren(x):
    s = str(x)
    return "(%s)" % s if ("/" in s or s.startswith("-")) else s


def verify_symmetry(p: LvParams, which: str) -> bool:
    """Exact check that the coordinate map conjugates the equation for the old
    parameters into the equation for the new ones."""
    new, _ = apply_symmetry(p, which)
    old_sys = lv_equation(p)
    new_sys = lv_equation(new)
    if which == "axes-swap":
        # (Z, W) = (w/a, z/a); the new field must be parallel to new_sys's
        inv = 1 / p.a
        moved = affine_map(old_sys, ((0, inv), (inv, 0)), (0, 0))
        return (moved.P * new_sys.Q).terms == (moved.Q * new_sys.P).terms
    if which == "inversion":
        # (Z, W) = (1/z, (1-c) w/z): dW/dZ = -(1-c)(z P - w Q)/Q at the
        # substitution z = 1/Z, w = W/((1-c) Z)
        c = p.c
        zP = BiPoly({(1, 0): Q(1)}) * old_sys.P
        wQ = BiPoly({(0, 1): Q(1)}) * old_sys.Q
        num = (zP - wQ).scale(-(1 - c))
        den = old_sys.Q
        num_s = _subst_inversion(num, c)
        den_s = _subst_inversion(den, c)
        deg_gap = _inv_clearing_degree(num) - _inv_clearing_degree(den)
        if deg_gap > 0:
            den_s = den_s.shift_z(deg_gap)
        elif deg_gap < 0:
            num_s = num_s.shift_z(-deg_gap)
        lhs = num_s * new_sys.Q
        rhs = den_s * new_sys.P
        return lhs.terms == rhs.terms
    raise ValueError("unknown symmetry %r" % which)


def _inv_clearing_degree(p: BiPoly) -> int:
    return max((ze + we for (ze, we) in p.terms), default=0)


def _subst_inversion(p: BiPoly, c) -> BiPoly:
    """p(1/Z, W/((1-c) Z)) * Z^deg, a polynomial in (Z, W)."""
    d = _inv_clearing_degree(p)
    terms = {}
    for (ze, we), coeff in p.terms.items():
        key = (d - ze - we, we)
        val = coeff * (1 - c) ** (-we)
        terms[key] = terms.get(key, Q(0)) + val
    return BiPoly(terms)


def lv_multiplicity_triple(p: LvParams, caps: Caps = DEFAULT_CAPS):
    """(Mul(0, inf), Mul(0, a), Mul(0, 0)) recomputed from scratch."""
    sys = lv_equation(p)
    at_inf = multiplicity_at(sys, ("inf", Q(0)), caps)
    at_a = multiplicity_at(sys, ("point", Q(0), p.a), caps)
    at_zero = multiplicity_at(sys, ("point", Q(0), Q(0)), caps)
    return at_inf, at_a, at_zero


def triple_report(p: LvParams, caps: Caps = DEFAULT_CAPS, bound: Optional[BoundReport] = None):
    """The reports of (Mul(0, inf), Mul(0, a), Mul(0, 0)), keyed "inf",
    str(a) and "0".

    ``bound`` is the axis bound ``classify`` computed at the same caps; its
    summands are these three points under the same labels, so they are read
    from it.  Without a bound (the ``inapplicable`` verdict, which a = 0
    always gets) or without one of the labels they are recomputed by
    ``lv_multiplicity_triple``."""
    labels = ("inf", str(p.a), "0")
    known = {point.label: point.mul for point in bound.points} if bound is not None else {}
    if all(label in known for label in labels):
        triple = [known[label] for label in labels]
    else:
        triple = lv_multiplicity_triple(p, caps)
    return {label: multiplicity_report(mul) for label, mul in zip(labels, triple)}
