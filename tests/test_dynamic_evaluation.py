"""A reducible modulus, end to end, where dynamic evaluation once split it.

The quartic edge polynomial of the fixture below factors as
(a^2 - 3)(a^2 - a - 3); the indicial ratio after one step is 7 on the first
factor's branches (resonant, order hit, no continuation) and -5 - theta on
the second's (irrational, closed).  Every adjoined level is certified
irreducible, so the quartic is never adjoined: the certified run adjoins
each quadratic factor, and where the factorer cannot certify the quartic
its root is a capped leaf (``irreducibility-cap``), a lower bound that
makes the report exit 3.
"""

from fractions import Fraction as Q

import pytest

import pbound.exact as exact
from pbound import parse_system
from pbound.bounds import axis_multiplicity_bound
from pbound.branching import multiplicity_at
from pbound.cli import main
from pbound.exact import (
    ExactError,
    Factor,
    Level,
    QQ_TOWER,
    Tower,
    UniPoly,
    adjoin_root,
    factor_roots,
    factor_univariate,
    is_rational_value,
)
from pbound.polyode import BiPoly, make_system

M_COEFFS = (Q(9), Q(3), Q(-6), Q(-1), Q(1))  # (x^2 - 3)(x^2 - x - 3)


def quartic_fixture():
    # homogeneous part chosen so the single lambda = 1 edge has characteristic
    # polynomial exactly m(a); the z^10 tail makes the continuations nontrivial
    P = BiPoly(
        {
            (Q(4), 0): Q(-9),
            (Q(3), 1): Q(-2),
            (Q(2), 2): Q(6),
            (Q(1), 3): Q(1),
            (Q(0), 4): Q(-1),
            (Q(10), 0): Q(1),
        }
    )
    Qd = BiPoly({(Q(4), 0): Q(1)})
    return make_system(P, Qd)


def s_of(theta):
    # takes the value 7 at the roots of x^2 - 3 and -5 - theta at those of
    # x^2 - x - 3
    return -4 * theta**3 + 3 * theta**2 + 12 * theta - 2


def test_value_charpoly_components():
    # the norm is a resultant over Q, so it runs on the ring Q[x]/(m) too: the
    # norm of y - s is the characteristic polynomial of s, whose roots are
    # the values of s on the components of m, 7 twice and -5 - theta
    ring = Tower((Level(name="t0", minpoly=M_COEFFS, degree=4),))
    s = s_of(ring.generator(0))
    charpoly = exact._norm(UniPoly([-s, ring.one()], var="y", tower=ring))
    assert [(f.poly.coeffs, f.multiplicity) for f in factor_univariate(charpoly)] == [
        ((-7, 1), 2),
        ((27, 11, 1), 1),
    ]


def test_mixed_rationality_splits_tower():
    # the modulus m is not adjoined: it is reducible, and factor_roots
    # adjoins each of its factors instead, on whose root s is rational on
    # the one and irrational on the other
    with pytest.raises(ExactError):
        adjoin_root(QQ_TOWER, UniPoly(list(M_COEFFS)))
    roots = factor_roots(UniPoly(list(M_COEFFS)))
    assert [(str(r.factor), r.note) for r in roots] == [("x^2 - x - 3", "adjoined"), ("x^2 - 3", "adjoined")]
    values = [s_of(r.value) for r in roots]
    assert not is_rational_value(values[0])
    assert values[0] == -5 - roots[0].value
    assert values[1] == 7


def test_uniformly_irrational_value_stays_put():
    tower, theta = adjoin_root(QQ_TOWER, UniPoly([Q(-3), Q(-1), Q(1)]))
    assert is_rational_value(theta) is False
    assert is_rational_value(tower.from_fraction(Q(5))) is True


def test_quartic_fixture_certified_run():
    res = multiplicity_at(quartic_fixture(), ("point", Q(0), Q(0)))
    assert res.status == "finite"
    assert res.count == 2
    dead = [b for b in res.branches if b.status == "non-algebraic"]
    closed = [b for b in res.branches if b.status == "closed"]
    assert len(dead) == 1 and dead[0].conj_degree == 2
    assert "resonance-order-hit" in dead[0].flags
    assert len(closed) == 1 and closed[0].conj_degree == 2


def presumed_quartic(real_factor):
    """A factorer that cannot certify a quartic."""

    def factor(poly, cap=8):
        if poly.degree() == 4:
            return [Factor(poly.monic(), 1, certified=False)]
        return real_factor(poly, cap)

    return factor


def test_quartic_fixture_presumed_modulus_replays(monkeypatch, capsys):
    # a quartic the factorer cannot certify is not adjoined: its root is a
    # capped leaf, so the count is a lower bound and the report exits 3
    monkeypatch.setattr(exact, "factor_univariate", presumed_quartic(exact.factor_univariate))
    res = multiplicity_at(quartic_fixture(), ("point", Q(0), Q(0)))
    assert (res.status, res.lower_bound, res.diagnostics) == ("capped", 0, ("irreducibility-cap",))
    assert res.branches == ()
    assert [r.code for r in res.reasons] == ["capped"]
    system = "dw/dz = (-9*z^4 - 2*z^3*w + 6*z^2*w^2 + z*w^3 - w^4 + z^10) / (z^4)"
    assert main(["mul", "--system", system, "--at", "0,0", "--json"]) == 3
    assert '"mul_lower_bound": 0' in capsys.readouterr().out


AXIS_QUARTIC = "dw/dz = (w^4 - w^3 - 6*w^2 + 3*w + 9 + z*(w^2 - 3)) / (z)"


def test_axis_bound_replays_presumed_quartic_per_factor(monkeypatch):
    # P(0, w) is the quartic m(w): certified, each factor is its own entry;
    # given to the bound as one factor it cannot certify, its four roots are
    # one capped summand of lower bound 0, and the sum only a lower bound
    system, _ = parse_system(AXIS_QUARTIC)
    certified = axis_multiplicity_bound(system).to_report()
    summands = [(s["point"], s["weight"], s["mul"]) for s in certified["summands"]]
    assert summands == [("inf", 1, 0), ("root of w^2 - w - 3", 2, 1), ("root of w^2 - 3", 2, 0)]
    assert certified["sum_bound"] == 2

    monkeypatch.setattr(exact, "factor_univariate", presumed_quartic(exact.factor_univariate))
    report = axis_multiplicity_bound(system)
    capped = report.to_report()["summands"][1]
    assert capped == {"point": "root of w^4 - w^3 - 6*w^2 + 3*w + 9", "weight": 4, "status": "capped", "mul_lower_bound": 0}
    assert report.points[1].mul.diagnostics == ("irreducibility-cap",)
    assert (report.sum_bound, report.sum_lower_bound) == (None, 0)
    assert [r.code for r in report.reasons] == ["capped", "sum-lower-bound"]
