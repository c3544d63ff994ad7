"""pbound benchmark: one client issuing pbound queries in a closed loop.

    python3 perfbench/run.py --workload series --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; pbound is imported from its ``src/``.  A
run issues the workload's queries in the order ``--seed`` sets, one at a
time, in one process and one thread, through ``pbound.cli.main(argv)`` with
stdout captured.  It repeats the pass a fixed number of times derived from
``--seconds`` (see ``Workload.passes``), checks every answer (``checks.py``),
requires repeated passes to give byte-identical reports, and compares each
report with the digest recorded at the seed commit (``digests.json``).

Every time in the result is scaled to a reference speed of the CPU
(``speed.py``); the table also prints each pass's plain wall time.  The
objects that exist before the first pass are frozen out of garbage
collection, and a collection precedes each query, untimed, so a query's
time does not depend on the harness's heap or on the queries before it.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics (``tracing.py``)
with the tracing overhead, and writes the spans to ``perfbench/out/``.  The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

    python3 perfbench/run.py --workload census --record-digests

runs one pass and records its report digests; do this only at a commit whose
reports are meant to be the reference.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import checks
import workloads
from speed import Speedometer
from tracing import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
OUT = HERE / "out"
SETUP_REPEATS = 11
TAIL_BEYOND = 10  # the tail percentile is the highest with this many samples beyond it
# End-to-end metrics in the JSON result.  failed_share, inconclusive_share
# and reports_changed read 0 at the seed commit, and a metric whose median is
# 0 has no relative bound, so the result carries their complements
# conclusive_share and reports_unchanged_share, and failures as ``failed``
# and ``correct``.
E2E_REPORTED = ("setup_s", "wall_s", "query_s.p50", "query_s.tail", "peak_rss_mb",
                "conclusive_share", "reports_unchanged_share")


def load_program():
    """``pbound.cli.main`` from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import pbound.cli

    if not Path(pbound.cli.__file__).resolve().is_relative_to(src):
        raise ImportError("pbound was not imported from %s" % src)
    return pbound.cli.main


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_query(main, argv):
    """(start, end, exit code or crash description, stdout) of one query."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is a failed query, not a failed run
        code = "crash: %s: %s" % (type(exc).__name__, exc)
    return start, time.perf_counter(), code, out.getvalue()


def run_pass(main, queries, tracer=None, index=0):
    """One pass: per query (scaled seconds, code, stdout) and the factor that
    scaled its plain seconds, the pass's scaled wall time (the sum of its
    queries') and its plain wall time."""
    timed = []
    with Speedometer() as speed:
        start = time.perf_counter()
        for q in queries:
            gc.collect()  # each query starts with the collector in the same state, whatever ran before
            if tracer is None:
                timed.append(run_query(main, q.argv))
            else:
                tracer.position = (index, q.id)
                timed.append(tracer.root(lambda: run_query(main, q.argv)))
        wall = time.perf_counter() - start
    results = [(speed.scaled(a, b), code, text) for a, b, code, text in timed]
    factors = [r[0] / (t[1] - t[0]) for r, t in zip(results, timed)]
    return results, factors, sum(r[0] for r in results), wall


def measure_setup(workload: str, seed: int) -> float:
    """Median scaled time from process start to the first query ready."""
    times = []
    for _ in range(SETUP_REPEATS):
        with Speedometer() as speed:
            start = time.perf_counter()
            with subprocess.Popen(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-only"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True,
            ) as proc:
                line = proc.stdout.readline()
                end = time.perf_counter()
                proc.stdout.close()
                code = proc.wait(timeout=60)
        times.append((end - start) * speed.factor(start, end))
        if line != "ready\n" or code != 0:
            raise RuntimeError("set-up run failed with exit code %s" % code)
    return statistics.median(times)


def latency_stats(samples):
    """(median, tail value, tail percentile) of the latency samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError("%d latency samples; the tail needs more than %d" % (n, TAIL_BEYOND))
    return statistics.median(ordered), ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def judge(queries, passes, recorded):
    """Check every answer once per distinct report; count failures per execution."""
    failed = inconclusive = changed = 0
    problems = {}
    for i, q in enumerate(queries):
        runs = [p[i] for p in passes]
        _, code, text = runs[0]
        found = checks.check(q, code, text)
        if any(r[1] != code or r[2] != text for r in runs[1:]):
            found.append("reports differ between passes")
        if found:
            problems[q.id] = found
            failed += len(runs)
        inconclusive += sum(1 for r in runs if r[1] == 3)
        changed += recorded.get(q.id) != digest(text)
    return failed, inconclusive, changed, problems


def measure(workload, seed: int, seconds: float, trace: bool, main, setup_s=None):
    """Run the passes; return table rows, failed checks and the result object."""
    queries = workload.ordered(seed)
    # The harness's own objects (the workload, the program's modules) stay
    # out of the collections that pbound's allocations set off.
    gc.collect()
    gc.freeze()
    plain, traced, walls, traced_walls, plain_walls = [], [], [], [], []
    tracer = Tracer() if trace else None
    scale = {}  # (pass, query id) -> scale factor of the traced queries
    for index in range(workload.passes(seconds)):
        if trace and index % 2:
            tracer.install()
            try:
                results, factors, wall, _ = run_pass(main, queries, tracer, index)
            finally:
                tracer.remove()
            traced.append(results)
            traced_walls.append(wall)
            scale.update(((index, q.id), f) for q, f in zip(queries, factors))
        else:
            results, _, wall, plain_wall = run_pass(main, queries)
            plain.append(results)
            walls.append(wall)
            plain_walls.append(plain_wall)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    every = plain + traced
    failed, inconclusive, changed, problems = judge(queries, every, recorded)
    attempted = len(queries) * len(every)
    wall_s = statistics.median(walls)
    if trace:
        rows = {k: (v, unit, "") for k, (v, unit) in layer_metrics(tracer.spans, scale).items()}
        rows["trace.overhead_ratio"] = (statistics.median(traced_walls) / wall_s, "ratio", "")
        OUT.mkdir(exist_ok=True)
        with open(OUT / ("spans-%s-seed%d.jsonl" % (workload.name, seed)), "w") as handle:
            for row in tracer.spans:
                handle.write(json.dumps(row) + "\n")
        reported = rows
    else:
        p50, tail, tail_pct = latency_stats([r[0] for p in plain for r in p])
        n = len(queries) * len(plain)
        rows = {
            "setup_s": (setup_s, "s", "median of %d, scaled" % SETUP_REPEATS),
            "wall_s": (wall_s, "s", "median of %d passes of %d queries, scaled; plain %.3f s"
                       % (len(plain), len(queries), statistics.median(plain_walls))),
            "query_s.p50": (p50, "s", "n=%d, scaled" % n),
            "query_s.tail": (tail, "s", "p%.2f, n=%d, scaled" % (tail_pct, n)),
            "peak_rss_mb": (peak_rss_mb, "MB", ""),
            "failed_share": (failed / attempted, "share", "%d of %d" % (failed, attempted)),
            "inconclusive_share": (inconclusive / attempted, "share", "%d of %d" % (inconclusive, attempted)),
            "reports_changed": (changed, "count", "of %d queries" % len(queries)),
            "conclusive_share": (1 - inconclusive / attempted, "share", "1 - inconclusive_share"),
            "reports_unchanged_share": (1 - changed / len(queries), "share", "1 - reports_changed / queries"),
        }
        reported = {k: v for k, v in rows.items() if k in E2E_REPORTED}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit, _) in reported.items()},
    }
    return rows, problems, result


def print_report(name, rows, problems, result):
    """Every failed check, one line per metric with its unit, then the result."""
    for qid, found in sorted(problems.items()):
        print("FAILED %s: %s" % (qid, "; ".join(found)))
    for metric, (value, unit, note) in rows.items():
        print("%-9s %-32s %14.6f %-6s %s" % (name, metric, value, unit, note))
    print(json.dumps(result))


def record_digests(workload, main):
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    recorded = {k: v for k, v in recorded.items() if not k.startswith(workload.name + "/")}
    results = run_pass(main, workload.queries)[0]
    for q, (_, code, text) in zip(workload.queries, results):
        for problem in checks.check(q, code, text):
            print("%s: %s" % (q.id, problem))
        recorded[q.id] = digest(text)
    DIGESTS.write_text(json.dumps(recorded, indent=0, sort_keys=True) + "\n")
    print("recorded %d digests for %s" % (len(workload.queries), workload.name))


def main():
    parser = argparse.ArgumentParser(description="pbound benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    os.environ.pop("PBOUND_CAPS", None)  # caps come from the queries alone, here and in set-up runs
    try:
        program = load_program()
    except ImportError as exc:
        raise SystemExit("cannot import pbound from this checkout: %s" % exc)
    workload = workloads.BUILDERS[args.workload]()
    if args.setup_only:
        print("ready", flush=True)
        return
    if args.record_digests:
        record_digests(workload, program)
        return
    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    print_report(workload.name, *measure(workload, args.seed, args.seconds, bool(args.trace), program, setup_s))


if __name__ == "__main__":
    main()
