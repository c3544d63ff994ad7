import json
from fractions import Fraction as Q

import pytest

from pbound import bounds, cli, lotka
from pbound.bounds import BoundsError
from pbound.exact import ExactError
from pbound.lotka import (
    LvParams,
    classify,
    genericity_check,
    lv_equation,
    lv_multiplicity_triple,
)
from pbound.polyode import bipoly_str
from pbound.sysparse import multiplicity_report
from test_cli import _raises
from verdict_oracle import emit_by_the_walk


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
    assert ("a not in Q+", False) in [(name, ok) for name, ok, _ in v.clauses]


def test_genericity_violated_negative_c():
    v = genericity_check(LvParams(Q(-1), Q(0), Q(-3)))
    assert not v.holds
    assert ("c not in Q-", False) in [(name, ok) for name, ok, _ in v.clauses]


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


def lv_in_the_old_order(args):
    """``lv`` as it ran before the bound took the triple: the classification
    with a bound of its own, then the triple recomputed from scratch."""
    caps = cli._caps_from(args)
    params = LvParams(*(Q(x) for x in cli._parse_triple(args.params)))
    report = {"command": "lv"}
    report.update(lotka.classify(params, caps).to_report())
    if args.triple:
        labels = ("inf", str(params.a), "0")
        triple = lotka.lv_multiplicity_triple(params, caps)
        report["multiplicities"] = {label: multiplicity_report(mul) for label, mul in zip(labels, triple)}
    return emit_by_the_walk(args, report)


def lv_both_ways(capsys, monkeypatch, params):
    """The (exit code, stdout) of ``lv --triple --json`` and of the old order."""
    got = lv_triple_stdout(capsys, params)
    real = cli._parse_args

    def old_order(argv):
        args = real(argv)
        args.func = lv_in_the_old_order
        return args

    with monkeypatch.context() as patch:
        patch.setattr(cli, "_parse_args", old_order)
        return got, lv_triple_stdout(capsys, params)


@pytest.mark.parametrize("params", TRIPLE_POINTS + ["1,0,0", "0,1,0"])
def test_triple_read_from_the_bound_is_the_recomputed_triple(monkeypatch, capsys, params):
    # the bound takes the triple that lv --triple prints; the report is the
    # one whose bound and triple are computed apart.  1,0,0 is inapplicable
    # (no bound) and 0,1,0 has a = 0
    got, want = lv_both_ways(capsys, monkeypatch, params)
    assert got == want


SEARCH_FAILS = {"search_darboux": ExactError("search failed")}
BOUND_FAILS = {"axis_multiplicity_bound": BoundsError("bound failed"), **SEARCH_FAILS}
# an engine error at a point, raised wherever a branch tree runs
POINT_FAILS = {"multiplicity_at": ExactError("point failed")}


@pytest.mark.parametrize(
    "params, patches, first",
    [
        ("-1,5,0", SEARCH_FAILS, "search failed"),
        ("-1,0,0", SEARCH_FAILS, None),  # a strict curve: no search
        ("-1,5,0", BOUND_FAILS, "bound failed"),
        ("1,0,0", BOUND_FAILS, None),  # inapplicable: no bound, no search
        ("-1,5,0", POINT_FAILS, "point failed"),
        ("-1,0,0", POINT_FAILS, "point failed"),
        ("1,0,0", POINT_FAILS, "point failed"),
        # the old order's bound decides every point here off the linear part
        # (a saddle at 0, a 1:1 Jordan node at -1), before the search: a
        # point error there comes first
        ("-1,5,0", {**POINT_FAILS, "_axis_root_count": ExactError("point failed"),
                    "search_darboux": ValueError("search failed")}, "point failed"),
    ],
)
def test_triple_raises_the_error_the_old_order_raised_first(monkeypatch, capsys, params, patches, first):
    for name, exc in patches.items():
        for module in (bounds, lotka):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, _raises(exc))
    got, want = lv_both_ways(capsys, monkeypatch, params)
    assert got == want
    assert json.loads(got[1]).get("error", {}).get("message") == first


@pytest.mark.parametrize("params, calls", [("-1,5,0", 3), ("-3/2,0,1/3", 3), ("1,0,0", 3), ("0,1,0", 3)])
def test_triple_costs_no_second_multiplicity_pass(monkeypatch, capsys, params, calls):
    counted = count_multiplicity_at(monkeypatch)
    lv_triple_stdout(capsys, params)
    assert len(counted) == calls


@pytest.mark.parametrize("params, triple, built", [
    ("-1,5,0", True, 1), ("-1,0,0", True, 1), ("1,0,0", True, 1),  # 1,0,0: inapplicable, no bound
    ("-1,5,0", False, 1), ("1,0,0", False, 0),
])
def test_lv_builds_its_system_once(monkeypatch, capsys, params, triple, built):
    # --triple builds the LV system once and gives it to the triple and to
    # classify
    calls = []
    real = lotka.lv_equation

    def counting(p):
        calls.append(p)
        return real(p)

    for module in (cli, lotka):
        monkeypatch.setattr(module, "lv_equation", counting)
    cli.main(["lv", "--params", params, "--json"] + (["--triple"] if triple else []))
    capsys.readouterr()
    assert len(calls) == built
