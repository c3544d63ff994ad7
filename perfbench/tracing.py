"""Span tracing of pbound's layers, from outside the package.

``Tracer.install()`` replaces each public function listed in ``SPANS`` by a
timing wrapper in every pbound module that binds it, so each call site, such
as ``branching``'s call of ``substitute_branch`` or ``darboux``'s calls of
``biv_gcd``, records a span; ``remove()`` restores the originals.  The
harness opens one root span, ``cli.other``, around each query.  Spans stay
in memory as ``[pass, query, name, parent, start, end, size]`` rows until the
run writes them out.

A span's self time is its duration minus the durations of its direct
children.  Spans nest strictly (one thread), so the self times of a query's
spans add up to the query's latency, and the root's self time is the part no
layer span covers.
"""

from __future__ import annotations

import importlib
import statistics
import time

LAYERS = ("cli", "sysparse", "branching", "newton", "polyode", "exact", "bounds", "darboux", "lotka")

# (defining module, function, span name); a span may cover several functions.
SPANS = (
    ("sysparse", "parse_system", "sysparse.parse"),
    ("sysparse", "emit_report", "sysparse.emit"),
    ("bounds", "axis_multiplicity_bound", "bounds.axis"),
    ("bounds", "invariant_line_bound", "bounds.line"),
    ("branching", "multiplicity_at", "branching.multiplicity"),
    ("branching", "expand_branches", "branching.expand"),
    ("branching", "extend_leaf", "branching.extend"),
    ("polyode", "substitute_branch", "polyode.substitute"),
    ("polyode", "translate_point", "polyode.transform"),
    ("polyode", "invert_at_infinity", "polyode.transform"),
    ("newton", "vertex_critical_check", "newton.vertex_check"),
    ("exact", "factor_univariate", "exact.factor"),
    ("exact", "adjoin_root", "exact.adjoin"),
    ("exact", "split_tower", "exact.tower_split"),
    ("darboux", "search_darboux", "darboux.search"),
    ("darboux", "detect_invariant_lines", "darboux.lines"),
    ("darboux", "extactic_determinant", "darboux.extactic"),
    ("darboux", "invariant_core", "darboux.core"),
    ("darboux", "verify_darboux", "darboux.verify"),
    ("polyode", "biv_gcd", "polyode.biv_gcd"),
    ("polyode", "bipoly_divexact", "polyode.divexact"),
    ("lotka", "classify", "lotka.classify"),
)
ROOT = "cli.other"

# What a span records as its size, from the call's arguments and result.
SIZES = {
    "polyode.substitute": lambda args, out: len(out.P.terms) + len(out.Q.terms),
    "darboux.extactic": lambda args, out: (args[1] + 1) * (args[1] + 2) // 2,
    "darboux.core": lambda args, out: int(args[1].total_degree()),
    "darboux.search": lambda args, out: int(out.partial),
}

# Per-layer metrics besides each span's self time ``<span>_s``:
# name -> (span, unit, how its rows combine: calls per pass, sizes summed per
# pass, or the largest size in the run).
COUNTERS = {
    "polyode.substitute_calls": ("polyode.substitute", "count", "calls"),
    "polyode.remainder_terms_max": ("polyode.substitute", "terms", "max"),
    "darboux.extactic_dim_max": ("darboux.extactic", "rows", "max"),
    "darboux.core_input_degree_max": ("darboux.core", "degree", "max"),
    "polyode.biv_gcd_calls": ("polyode.biv_gcd", "count", "calls"),
    "polyode.divexact_calls": ("polyode.divexact", "count", "calls"),
    "darboux.partial_searches": ("darboux.search", "count", "sum"),
    "newton.vertex_check_calls": ("newton.vertex_check", "count", "calls"),
    "exact.factor_calls": ("exact.factor", "count", "calls"),
    "exact.adjoin_calls": ("exact.adjoin", "count", "calls"),
    "exact.tower_splits": ("exact.tower_split", "count", "calls"),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.position = (None, None)  # (pass, query) of the spans being recorded
        self._open = []
        self._patches = []

    def _wrap(self, name, fn):
        size_of = SIZES.get(name)

        def traced(*args, **kwargs):
            row = self._begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                row[5] = time.perf_counter()
                self._open.pop()
            if size_of is not None:
                row[6] = size_of(args, out)
            return out

        return traced

    def _begin(self, name):
        parent = self._open[-1] if self._open else None
        row = [*self.position, name, parent, None, None, None]
        self._open.append(len(self.spans))
        self.spans.append(row)
        row[4] = time.perf_counter()
        return row

    def root(self, run_query):
        """Call ``run_query()`` inside the root span of one query."""
        return self._wrap(ROOT, run_query)()

    def install(self):
        modules = [importlib.import_module("pbound")] + [importlib.import_module("pbound." + m) for m in LAYERS]
        for home, fn_name, span in SPANS:
            original = getattr(importlib.import_module("pbound." + home), fn_name)
            traced = self._wrap(span, original)
            for module in modules:
                if getattr(module, fn_name, None) is original:
                    setattr(module, fn_name, traced)
                    self._patches.append((module, fn_name, original))

    def remove(self):
        for module, fn_name, original in reversed(self._patches):
            setattr(module, fn_name, original)
        self._patches = []


def self_times(spans):
    """Self time of every span row, in row order."""
    own = [row[5] - row[4] for row in spans]
    for row in spans:
        if row[3] is not None:
            own[row[3]] -= row[5] - row[4]
    return own


def layer_metrics(spans, scale) -> dict:
    """``{name: (value, unit)}``: per-pass medians of self times and counts.

    ``scale`` maps (pass, query id) to the factor that scales the query's
    seconds to the reference speed (see ``run.py``).
    """
    passes = sorted({row[0] for row in spans})
    totals = {p: {} for p in passes}  # pass -> span -> [self time, calls, size]
    largest = {}
    for row, own in zip(spans, self_times(spans)):
        acc = totals[row[0]].setdefault(row[2], [0.0, 0, 0])
        acc[0] += own * scale[row[0], row[1]]
        acc[1] += 1
        if row[6] is not None:
            acc[2] += row[6]
            largest[row[2]] = max(largest.get(row[2], 0), row[6])

    def per_pass(span, k):
        return statistics.median(totals[p].get(span, [0.0, 0, 0])[k] for p in passes)

    names = dict.fromkeys([ROOT] + [span for _, _, span in SPANS])
    out = {name + "_s": (per_pass(name, 0), "s") for name in names}
    for metric, (span, unit, how) in COUNTERS.items():
        out[metric] = (largest.get(span, 0) if how == "max" else per_pass(span, 1 if how == "calls" else 2), unit)
    return out
