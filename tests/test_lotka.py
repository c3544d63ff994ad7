from fractions import Fraction as Q

import pytest

from pbound import bounds, cli, lotka
from pbound.lotka import (
    LvParams,
    apply_symmetry,
    classify,
    genericity_check,
    lv_equation,
    lv_multiplicity_triple,
    verify_symmetry,
)
from pbound.polyode import bipoly_str


# ---------------------------------------------------------------------------
# genericity condition
# ---------------------------------------------------------------------------

def test_genericity_holds_at_reference_point():
    for b in (Q(0), Q(5), Q(-2)):
        v = genericity_check(LvParams(Q(-1), b, Q(0)))
        assert v.holds  # c - 1/a = 1 is explicitly allowed


def test_genericity_violated_positive_a():
    v = genericity_check(LvParams(Q(1, 2), Q(0), Q(0)))
    assert not v.holds
    assert "a not in Q+" in v.violated()


def test_genericity_violated_negative_c():
    v = genericity_check(LvParams(Q(-1), Q(0), Q(-3)))
    assert not v.holds
    assert "c not in Q-" in v.violated()


def test_genericity_third_clause():
    # a = -2, c = 1/2: c - 1/a = 1 allowed
    assert genericity_check(LvParams(Q(-2), Q(7), Q(1, 2))).holds
    # a = -3, c = 0: c - 1/a = 1/3 in Q+ \ {1}: violated
    v = genericity_check(LvParams(Q(-3), Q(0), Q(0)))
    assert not v.holds
    # a = 0: third clause undefined, overall violated
    v0 = genericity_check(LvParams(Q(0), Q(1), Q(0)))
    assert not v0.holds
    assert any(ok is None for _, ok, _ in v0.clauses)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_strict_curve_case():
    out = classify(LvParams(Q(-1), Q(0), Q(0)))
    assert out.verdict == "strict-curve"
    assert out.condition_value == 0
    assert bipoly_str(out.curve.f) == "w - z + 1"
    assert bipoly_str(out.curve.cofactor) in ("z + w", "w + z")
    assert out.curve.strict


def test_classify_no_curve_case():
    out = classify(LvParams(Q(-1), Q(5), Q(0)))
    assert out.verdict == "no-strict-curve"
    assert out.condition_value == Q(-5)
    assert out.bound.sum_bound == 0
    assert any("searched total degree" in n for n in out.search_notes)


def test_classify_inapplicable():
    out = classify(LvParams(Q(2), Q(1), Q(1)))
    assert out.verdict == "inapplicable"
    assert out.curve is None


def test_classify_second_stratum_point():
    # a = -2, c = 1/2 sits on the genericity stratum; curve iff b = 0
    with_curve = classify(LvParams(Q(-2), Q(0), Q(1, 2)))
    assert with_curve.verdict == "strict-curve"
    assert bipoly_str(with_curve.curve.f) == "w - 2*z + 2"
    without = classify(LvParams(Q(-2), Q(3), Q(1, 2)))
    assert without.verdict == "no-strict-curve"


# ---------------------------------------------------------------------------
# symmetries
# ---------------------------------------------------------------------------

def test_axes_swap_parameters():
    new, mapping = apply_symmetry(LvParams(Q(-1), Q(0), Q(0)), "axes-swap")
    assert new == LvParams(Q(-1), Q(0), Q(0))
    assert mapping == {"z": "w/(-1)", "w": "z/(-1)"}


def test_inversion_parameters():
    new, _ = apply_symmetry(LvParams(Q(-1), Q(0), Q(0)), "inversion")
    assert new == LvParams(Q(1), Q(2), Q(0))


def test_inversion_requires_c_not_one():
    with pytest.raises(ValueError, match="c != 1"):
        apply_symmetry(LvParams(Q(-1), Q(0), Q(1)), "inversion")


def test_axes_swap_requires_a_nonzero():
    with pytest.raises(ValueError, match="a != 0"):
        apply_symmetry(LvParams(Q(0), Q(0), Q(0)), "axes-swap")


@pytest.mark.parametrize(
    "params",
    [
        LvParams(Q(-1), Q(0), Q(0)),
        LvParams(Q(-2), Q(3), Q(1, 2)),
        LvParams(Q(2), Q(-1), Q(5)),
        LvParams(Q(1, 3), Q(2), Q(-7, 2)),
    ],
)
def test_symmetry_soundness(params):
    assert verify_symmetry(params, "axes-swap")
    if params.c != 1:
        assert verify_symmetry(params, "inversion")


def test_symmetry_maps_curve_to_curve():
    # image of a(z-1)+w under axes-swap is invariant for the image parameters
    from pbound.darboux import DarbouxCertificate, verify_darboux
    from pbound.polyode import BiPoly

    p = LvParams(Q(-2), Q(0), Q(1, 2))
    new, _ = apply_symmetry(p, "axes-swap")
    # curve a(z-1)+w = 0 maps under (z,w) -> (w/a, z/a): substitute
    # z = a W, w = a Z into a(z-1)+w: a(aW - 1) + aZ = a(aW + Z - 1)
    a = p.a
    image = BiPoly({(Q(0), 1): a, (Q(1), 0): Q(1), (Q(0), 0): Q(-1)})
    cert = verify_darboux(lv_equation(new), image)
    assert isinstance(cert, DarbouxCertificate)
    # and indeed it is the strict curve a'(z-1)+w for a' = 1/a
    assert new.a * (1 - new.c) + (1 - new.b) == 0


# ---------------------------------------------------------------------------
# the multiplicity triple
# ---------------------------------------------------------------------------

def test_triple_b_five():
    at_inf, at_a, at_zero = lv_multiplicity_triple(LvParams(Q(-1), Q(5), Q(0)))
    assert (at_inf.count, at_a.count, at_zero.count) == (0, 0, 0)


def test_triple_b_zero_middle_point_critical():
    at_inf, at_a, at_zero = lv_multiplicity_triple(LvParams(Q(-1), Q(0), Q(0)))
    assert at_inf.count == 0
    assert at_zero.count == 0
    # the curve-bearing stratum carries a one-parameter family through (0, a)
    assert at_a.status == "critical"
    assert at_a.witness.lam_star == Q(1)


# the 15 points of the benchmark's lv queries: c = 1 + 1/a, b in {0, 3, 5}
TRIPLE_POINTS = [
    "%s,%s,%s" % (a, b, c)
    for a, c in (("-1", "0"), ("-2", "1/2"), ("-3", "2/3"), ("-3/2", "1/3"), ("-4", "3/4"))
    for b in ("0", "3", "5")
]


def count_multiplicity_at(monkeypatch):
    calls = []
    for module in (bounds, lotka):
        real = module.multiplicity_at

        def counting(*args, real=real):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(module, "multiplicity_at", counting)
    return calls


def lv_triple_stdout(capsys, params):
    code = cli.main(["lv", "--params", params, "--triple", "--json"])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("params", TRIPLE_POINTS + ["1,0,0", "0,1,0"])
def test_triple_read_from_the_bound_is_the_recomputed_triple(monkeypatch, capsys, params):
    # 1,0,0 is inapplicable (no bound) and 0,1,0 has a = 0: both recompute
    got = lv_triple_stdout(capsys, params)
    real = lotka.triple_report
    monkeypatch.setattr(cli, "triple_report", lambda p, caps, bound=None: real(p, caps))
    assert got == lv_triple_stdout(capsys, params)


@pytest.mark.parametrize("params, calls", [("-1,5,0", 3), ("-3/2,0,1/3", 3), ("1,0,0", 3), ("0,1,0", 3)])
def test_triple_costs_no_second_multiplicity_pass(monkeypatch, capsys, params, calls):
    counted = count_multiplicity_at(monkeypatch)
    lv_triple_stdout(capsys, params)
    assert len(counted) == calls
