"""Dynamic-evaluation splitting exercised end to end.

The quartic edge polynomial of the fixture below factors as
(a^2 - 3)(a^2 - a - 3); the indicial ratio after one step is 7 on the first
factor's branches (resonant, order hit, no continuation) and -5 - theta on
the second's (irrational, closed).  Expanding with the factorization forced
to a single presumed-irreducible modulus must discover the mixed rationality,
split the tower and replay both parts, landing on the same count as the
certified run.
"""

from fractions import Fraction as Q

import pytest

import pbound.bounds as bounds
import pbound.exact as exact
from pbound import parse_system
from pbound.bounds import axis_multiplicity_bound
from pbound.branching import multiplicity_at
from pbound.exact import (
    Factor,
    QQ_TOWER,
    TowerSplitError,
    UniPoly,
    adjoin_root,
    certified_is_rational,
    rational_roots,
    value_charpoly,
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


def test_value_charpoly_components():
    tower, theta = adjoin_root(QQ_TOWER, UniPoly(list(M_COEFFS)))
    # s = -4 theta^3 + 3 theta^2 + 12 theta - 2 takes the value 7 on the
    # x^2 - 3 components and -5 - theta on the others
    s = -4 * theta**3 + 3 * theta**2 + 12 * theta - 2
    charpoly = value_charpoly(s)
    assert charpoly is not None
    roots = rational_roots(charpoly)
    assert roots == [Q(7)]


def test_mixed_rationality_splits_tower():
    tower, theta = adjoin_root(QQ_TOWER, UniPoly(list(M_COEFFS)))
    s = -4 * theta**3 + 3 * theta**2 + 12 * theta - 2
    with pytest.raises(TowerSplitError) as err:
        certified_is_rational(s)
    t1, t2 = err.value.factor_towers()
    moduli = sorted(tuple(lv.minpoly) for lv in (t1.levels[0], t2.levels[0]))
    assert moduli == [
        (Q(-3), Q(-1), Q(1)),  # x^2 - x - 3
        (Q(-3), Q(0), Q(1)),  # x^2 - 3
    ]


def test_uniformly_irrational_value_stays_put():
    tower, theta = adjoin_root(QQ_TOWER, UniPoly(list(M_COEFFS)))
    assert certified_is_rational(theta) is False
    assert certified_is_rational(tower.from_fraction(Q(5))) is True


def test_quartic_fixture_certified_run():
    res = multiplicity_at(quartic_fixture(), ("point", Q(0), Q(0)))
    assert res.status == "finite"
    assert res.count == 2
    dead = [b for b in res.branches if b.status == "non-algebraic"]
    closed = [b for b in res.branches if b.status == "closed"]
    assert len(dead) == 1 and dead[0].conj_degree == 2
    assert "resonance-order-hit" in dead[0].flags
    assert len(closed) == 1 and closed[0].conj_degree == 2


def test_quartic_fixture_presumed_modulus_replays(monkeypatch):
    real_factor = exact.factor_univariate

    def presumed_quartic(poly, cap=8, **kw):
        if poly.degree() == 4:
            return [Factor(poly.monic(), 1, certified=False)]
        return real_factor(poly, cap, **kw)

    monkeypatch.setattr(exact, "factor_univariate", presumed_quartic)
    res = multiplicity_at(quartic_fixture(), ("point", Q(0), Q(0)))
    assert res.status == "finite"
    assert res.count == 2
    # the replay must have produced the two factor towers
    towers = set()
    for b in res.branches:
        coeff = b.terms[0][1]
        towers.add(tuple(coeff.tower.levels[0].minpoly))
    assert towers == {
        (Q(-3), Q(0), Q(1)),
        (Q(-3), Q(-1), Q(1)),
    }
    dead = [b for b in res.branches if b.status == "non-algebraic"]
    assert len(dead) == 1 and dead[0].conj_degree == 2


AXIS_QUARTIC = "dw/dz = (w^4 - w^3 - 6*w^2 + 3*w + 9 + z*(w^2 - 3)) / (z)"


def test_axis_bound_replays_presumed_quartic_per_factor(monkeypatch):
    # P(0, w) is the quartic m(w); given to the bound as one presumed factor,
    # the axis point splits its tower at level 0 and each factor is replayed
    # as its own entry, labelled and weighted by that factor
    system, _ = parse_system(AXIS_QUARTIC)
    certified = axis_multiplicity_bound(system).to_report()
    summands = [(s["point"], s["weight"], s["mul"]) for s in certified["summands"]]
    assert summands == [("inf", 1, 0), ("root of w^2 - w - 3", 2, 1), ("root of w^2 - 3", 2, 0)]
    assert certified["sum_bound"] == 2

    real_factor = bounds.factor_univariate

    def presumed_quartic(poly, cap=8):
        if poly.degree() == 4:
            return [Factor(poly.monic(), 1, certified=False)]
        return real_factor(poly, cap)

    monkeypatch.setattr(bounds, "factor_univariate", presumed_quartic)
    assert axis_multiplicity_bound(system).to_report() == certified
