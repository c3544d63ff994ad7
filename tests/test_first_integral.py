"""The extactic determinants the search no longer builds.

Two shortcuts decide E_n without a determinant.  An integer relation among
the cofactors of certified curves gives a rational first integral A / B of
degree d (``darboux._first_integral_degree``), and every E_n with n >= d is
identically zero: the pencil A - c B gives an invariant curve of degree <= n
through every point where B != 0.  Where the axis bound's ``sum_bound`` is 0
no strict curve exists, so ``analyze`` searches degree 1 only.  Wherever the
search skips a determinant, these tests build it and check it vanishes.
"""

import json
import random
from fractions import Fraction as Q

import pytest

from pbound import darboux
from pbound.bounds import BoundsError, axis_multiplicity_bound
from pbound.cli import main
from pbound.darboux import _first_integral_degree, extactic_determinant, search_darboux, verify_darboux
from pbound.exact import ExactError
from pbound.polyode import BiPoly, OdeSystem, biv_gcd, bipoly_divexact, bipoly_str
from test_darboux import CUBIC_ENERGY, bp, lv_system
from test_degree_one import coprime_systems


def spied_search(monkeypatch, sys, max_degree):
    """The search's outcome and the degrees whose E_n it built."""
    built = []
    real = darboux.extactic_determinant

    def spy(sys, n):
        built.append(n)
        return real(sys, n)

    monkeypatch.setattr(darboux, "extactic_determinant", spy)
    outcome = search_darboux(sys, max_degree)
    monkeypatch.setattr(darboux, "extactic_determinant", real)
    return outcome, built


def assert_skipped_degrees_vanish(sys, outcome, built):
    """Every zero degree the search did not build is a zero E_n; returns them."""
    skipped = [n for n in outcome.dicritical_degrees if n not in built]
    for n in skipped:
        assert extactic_determinant(sys, n).is_zero(), n
    return skipped


@pytest.mark.parametrize(
    "abc, max_degree, degree, skipped",
    [
        # the five lines give w z / (w - z + 1), of degree 2
        ((-1, 0, 0), 3, 2, [2, 3]),
        # the four lines give w z^2 / (w - 2 z + 2)^2, of degree 3: E_2 is
        # built, and finds the conic 2 z^2 + w - 4 z + 2
        ((-2, 0, Q(1, 2)), 3, 3, [3]),
    ],
    ids=["lv(-1,0,0)", "lv(-2,0,1/2)"],
)
def test_lv_first_integrals_skip_only_vanishing_determinants(monkeypatch, abc, max_degree, degree, skipped):
    sys = lv_system(*map(Q, abc))
    outcome, built = spied_search(monkeypatch, sys, max_degree)
    assert _first_integral_degree(outcome.certificates) == degree
    assert assert_skipped_degrees_vanish(sys, outcome, built) == skipped
    assert not outcome.partial


def test_lv_without_a_relation_has_no_first_integral():
    # LV(-1,5,0): the cofactors of w, z and z - 1 are independent
    outcome = search_darboux(lv_system(Q(-1), Q(5), Q(0)), 1)
    assert _first_integral_degree(outcome.certificates) == float("inf")


def test_a_certified_energy_gives_its_relation(monkeypatch):
    # H = 3 w^2 - 2 z^3 + 3 z^2 is a first integral (cofactor 0), and its
    # discriminant in w, 12 z^2 (2 z - 3), is not a square, so it is
    # certified irreducible: it gives the relation of degree 3, and with H
    # among the curves the shortcut skips E_3, which is zero.  The search
    # finds no curve at degree 2, so alone it still builds E_3
    energy = verify_darboux(CUBIC_ENERGY, bp({(0, 2): 3, (3, 0): -2, (2, 0): 3}))
    assert energy.cofactor.is_zero() and (energy.irreducible, energy.certified) == (True, True)
    assert _first_integral_degree([energy]) == 3
    assert extactic_determinant(CUBIC_ENERGY, 3).is_zero()
    outcome, built = spied_search(monkeypatch, CUBIC_ENERGY, 3)
    assert built == [2, 3] and outcome.dicritical_degrees == (3,)
    assert outcome.certificates == []


def test_a_certified_polynomial_first_integral_is_its_own_relation():
    # w + z^2 is a first integral of zdot = 1, wdot = -2 z: cofactor 0, and
    # certified irreducible (degree 1 in w), so d = 2
    sys = OdeSystem(bp({(1, 0): -2}), bp({(0, 0): 1}))
    f = verify_darboux(sys, bp({(0, 1): 1, (2, 0): 1}))
    assert f.cofactor.is_zero() and f.certified
    assert _first_integral_degree([f]) == 2
    assert extactic_determinant(sys, 2).is_zero()


def test_a_repeated_or_reducible_curve_gives_no_relation():
    # f and 2 f have one cofactor, so (1, -1) is a relation, but f / (2 f)
    # is constant: repeats are dropped.  So are uncertified products
    sys = lv_system(Q(-1), Q(5), Q(0))
    w = verify_darboux(sys, bp({(0, 1): 1}))
    twice = verify_darboux(sys, bp({(0, 1): 2}))
    assert _first_integral_degree([w, twice]) == float("inf")
    z = verify_darboux(sys, bp({(1, 0): 1}))
    product = verify_darboux(sys, bp({(1, 1): 1}))
    assert product.irreducible is False
    assert _first_integral_degree([w, z, product]) == float("inf")


def line(rng):
    return BiPoly({(1, 0): rng.choice((-2, -1, 0, 1, 2)), (0, 1): rng.choice((-1, 1, 2)), (0, 0): rng.randint(-3, 3)})


def planted_pencil(rng):
    """(A, B, system) with A / B a first integral: zdot = A_w B - A B_w and
    wdot = A B_z - B A_z, without their common factor; A is a product of
    two lines and B of one or two."""
    a = line(rng) * line(rng)
    b = line(rng) if rng.random() < 0.5 else line(rng) * line(rng)
    zdot = a.diff_w() * b - a * b.diff_w()
    wdot = a * b.diff_z() - b * a.diff_z()
    g = biv_gcd(wdot, zdot)
    if g.total_degree() > 0:
        zdot, wdot = bipoly_divexact(zdot, g), bipoly_divexact(wdot, g)
    return a, b, OdeSystem(wdot, zdot)


def test_planted_pencils_skip_only_vanishing_determinants(monkeypatch):
    rng = random.Random(47)
    fired = 0
    for _ in range(12):
        a, b, sys = planted_pencil(rng)
        if sys.P.is_zero() or sys.Q.is_zero():
            continue
        outcome, built = spied_search(monkeypatch, sys, 2)
        skipped = assert_skipped_degrees_vanish(sys, outcome, built)
        if skipped and 1 not in outcome.dicritical_degrees:  # not a line family's E_1 = 0
            fired += 1
            assert _first_integral_degree(outcome.certificates) <= 2, (bipoly_str(a), bipoly_str(b))
    assert fired >= 3


def test_a_planted_pencil_at_degree_three(monkeypatch):
    # the first pencil of the draw whose relation has degree 2: E_2 and
    # E_3 are both skipped, and both vanish
    rng = random.Random(47)
    while True:
        _, _, sys = planted_pencil(rng)
        if not (sys.P.is_zero() or sys.Q.is_zero()):
            outcome, built = spied_search(monkeypatch, sys, 3)
            if _first_integral_degree(outcome.certificates) == 2:
                break
    assert built == [] and assert_skipped_degrees_vanish(sys, outcome, built) == [2, 3]


# ---------------------------------------------------------------------------
# sum_bound 0: no strict curve, so analyze stops at degree 1
# ---------------------------------------------------------------------------

def axis_draw(rng, dp, dq):
    """A census-style axis-form pair (P, z q0) with deg P <= dp, deg q0 <= dq."""
    def poly(degree, shift):
        return BiPoly({(i + shift, j): rng.randint(-3, 3)
                       for i in range(degree + 1) for j in range(degree + 1 - i) if rng.random() < 0.55})
    return poly(dp, 0), poly(dq, 1)


def sum_bound_zero_systems():
    rng = random.Random(47)
    pairs = [axis_draw(rng, dp, dq) for dp, dq in ((2, 1), (3, 1), (2, 2)) for _ in range(150)]
    out = []
    for sys in coprime_systems(pairs):
        try:
            if axis_multiplicity_bound(sys).sum_bound == 0:
                out.append(sys)
        except (BoundsError, ExactError):
            continue
    return out


def test_sum_bound_zero_leaves_nothing_above_degree_one():
    # the full search to degree 2 adds no certificate and no zero degree to
    # degree 1's; where it is partial, that is only a skipped core
    systems = sum_bound_zero_systems()
    complete = 0
    for sys in systems:
        full, first = search_darboux(sys, 2), search_darboux(sys, 1)
        assert full.to_report()["certificates"] == first.to_report()["certificates"], sys
        assert full.dicritical_degrees == first.dicritical_degrees == ()
        assert not any(c.strict for c in full.certificates)
        complete += not full.partial
    assert len(systems) >= 60 and complete >= 15


def test_analyze_searches_degree_one_where_sum_bound_is_zero(capsys):
    for sys in sum_bound_zero_systems()[:10]:
        text = "dw/dz = (%s) / (%s)" % (bipoly_str(sys.P), bipoly_str(sys.Q))
        main(["analyze", "--system", text, "--max-degree", "3", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert report["bounds"]["sum_bound"] == 0
        assert report["darboux"] == search_darboux(sys, 1).to_report()
