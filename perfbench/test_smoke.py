"""Smoke test of the benchmark harness at tiny size.

    python3 -m pytest perfbench/test_smoke.py

Runs a few cheap queries through the real measuring, checking and tracing
code, checks that every metric ``BENCHMARK.json`` names is printed with its
unit, and plants one wrong expected verdict to show the checks can fail.
"""

import contextlib
import dataclasses
import io
import json

import run
import speed
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
MAIN = run.load_program()


def tiny(expect_mu_3=None):
    """Four cheap EX45 queries and one census system: 7 queries, 2 passes."""
    series = [q for q in workloads.BUILDERS["series"]().queries if q.id.split("=")[-1] in ("3/2", "3", "7/2", "17/2")]
    if expect_mu_3 is not None:
        series = [dataclasses.replace(q, expect=expect_mu_3) if q.id.endswith("=3") else q for q in series]
    census = list(workloads.census_workload(systems=1).queries)
    return workloads.Workload("smoke", tuple(series + census), nominal_pass_s=1.0)


def printed(trace):
    rows, problems, result = run.measure(tiny(), 1, 2, trace, MAIN, setup_s=0.5)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.print_report("smoke", rows, problems, result)
    return out.getvalue().splitlines(), result


def check_metrics(lines, result, wanted):
    assert json.loads(lines[-1]) == json.loads(json.dumps(result))
    table = {line.split()[1]: line.split()[3] for line in lines[:-1] if line.startswith("smoke ")}
    for metric in wanted:
        assert table[metric["name"]] == metric["unit"], metric
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 14


def test_end_to_end_metrics_printed_with_units():
    lines, result = printed(trace=False)
    check_metrics(lines, result, SPEC["end_to_end"])
    for name in ("failed_share", "inconclusive_share", "reports_changed"):
        assert any(line.split()[1] == name for line in lines[:-1])


def test_per_layer_metrics_printed_with_units():
    lines, result = printed(trace=True)
    check_metrics(lines, result, SPEC["per_layer"])
    assert result["metrics"]["newton.vertex_check_calls"]["value"] > 0
    assert result["metrics"]["cli.other_s"]["value"] > 0


def test_planted_wrong_verdict_counts_as_failure():
    wrong = tiny(expect_mu_3={"status": "finite", "mul": 3})  # mu = 3 is critical
    _, problems, result = run.measure(wrong, 1, 2, False, MAIN, setup_s=0.5)
    assert not result["correct"]
    assert result["failed"] == 2  # the one query, in each of the two passes
    assert list(problems) == ["series/ex45-mu=3"]


def test_scaled_time_leaves_out_sampling_and_scales_by_reference_speed():
    meter = speed.Speedometer()
    # Reference work taking twice its nominal time: the CPU runs at half speed.
    nominal = speed.REFERENCE_S
    meter.starts, meter.ends = [0.0, 1.0], [2 * nominal, 1.0 + 2 * nominal]
    assert abs(meter.factor(0.5, 0.6) - 0.5) < 1e-12
    # One sample lies inside [0.9, 1.5]; its time is not the query's.
    assert abs(meter.scaled(0.9, 1.5) - (0.6 - 2 * nominal) * 0.5) < 1e-12
