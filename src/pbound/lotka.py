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
from .darboux import DarbouxCertificate, detect_invariant_lines, search_darboux, verify_darboux
from .exact import Q, _canon, in_q_minus, in_q_plus
from .polyode import BiPoly, OdeSystem, make_system


@dataclass(frozen=True)
class LvParams:
    a: Fraction
    b: Fraction
    c: Fraction

    def to_report(self):
        return {"a": str(self.a), "b": str(self.b), "c": str(self.c)}


def lv_equation(p: LvParams) -> OdeSystem:
    """dw/dz = w(bz + w - a) / (z(z + cw - 1)) with exact coefficients,
    ints where they are integral."""
    a, b, c = _canon(p.a), _canon(p.b), _canon(p.c)
    P = BiPoly({(1, 1): b, (0, 2): 1, (0, 1): -a})
    Qd = BiPoly({(2, 0): 1, (1, 1): c, (1, 0): -1})
    return make_system(P, Qd)


@dataclass
class GenericityVerdict:
    holds: bool
    clauses: tuple  # (name, ok: bool | None, detail)

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

    @property
    def reasons(self) -> tuple:
        """The curve certificate's reasons and the bound's.  The search's
        notes are reported as notes, not as a partial search."""
        return (self.curve.reasons if self.curve is not None else ()) + (
            self.bound.reasons if self.bound is not None else ()
        )


def classify(p: LvParams, caps: Caps = DEFAULT_CAPS, known=None, system=None) -> LvClassification:
    """Strict-curve classification: evaluate a(1-c) + (1-b) under the
    genericity condition; emit the curve certificate or certify absence by a
    bounded search, whose line detection reads the bound.  ``known`` goes to
    the axis bound
    (``axis_multiplicity_bound``): the multiplicities at axis points that
    the caller has computed at the same caps, by summand label.  ``system``
    is ``lv_equation(p)`` when the caller has built it."""
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
    sys = lv_equation(p) if system is None else system
    bound = axis_multiplicity_bound(sys, caps, known)
    notes = ()
    if s == 0:
        a = _canon(p.a)
        curve = verify_darboux(sys, BiPoly({(1, 0): a, (0, 1): 1, (0, 0): -a}))
        if not isinstance(curve, DarbouxCertificate):
            raise AssertionError("a(z-1) + w failed verification at %s" % (p,))
    else:
        search_degree = max(1, bound.sum_bound or 0)
        outcome = search_darboux(sys, search_degree, detect_invariant_lines(sys, bound))
        # a strict certificate here violates the only-if direction of the
        # classification
        curve = next((c for c in outcome.certificates if c.strict), None)
        notes = ("searched total degree <= %d" % search_degree,) + outcome.notes
    return LvClassification(
        params=p,
        genericity=gen,
        condition_value=s,
        verdict="no-strict-curve" if curve is None else "strict-curve",
        curve=curve,
        bound=bound,
        search_notes=notes,
    )


def lv_multiplicity_triple(p: LvParams, caps: Caps = DEFAULT_CAPS, system=None):
    """(Mul(0, inf), Mul(0, a), Mul(0, 0)) recomputed from scratch, on
    ``system`` when the caller has built ``lv_equation(p)``."""
    sys = lv_equation(p) if system is None else system
    at_inf = multiplicity_at(sys, ("inf", Q(0)), caps)
    at_a = multiplicity_at(sys, ("point", Q(0), p.a), caps)
    at_zero = multiplicity_at(sys, ("point", Q(0), Q(0)), caps)
    return at_inf, at_a, at_zero
