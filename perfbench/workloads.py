"""The benchmark's workloads: query lists with hand-written expected verdicts.

Every query is a pbound command line.  The inputs of a workload are fixed;
``--seed`` sets the order in which one run issues them.  A census drawn anew
for each seed made the tail latency (the 11th slowest of 900 queries) vary by
16-34% between seeds, far beyond any usable bound, because a handful of
systems costs 100 to 1000 times the median.  So the census population comes
from the seeded generator under one fixed seed, and every seed measures the
same population.

``expect`` maps a dotted path into the JSON report to the value the paper,
the README or the acceptance criteria give; ``strict`` lists invariant
curves that must be among the strict certificates.  ``pq`` is ``(P, Q)``
of ``dw/dz = P/Q`` in sympy syntax, written here independently of pbound's
parser, for re-verifying Darboux certificates and series branches.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

import census

CENSUS_POPULATION_SEED = 20231016
CENSUS_SYSTEMS = 650


@dataclass(frozen=True)
class Query:
    id: str
    argv: tuple
    expect: dict = field(default_factory=dict)
    strict: tuple = ()
    pq: Optional[tuple] = None
    residual: bool = False  # check the reported series with the residual oracle
    census: Optional[census.AxisSystem] = None


@dataclass(frozen=True)
class Workload:
    name: str
    queries: tuple
    nominal_pass_s: float  # one pass at the seed commit; sets passes per run

    def passes(self, seconds: float) -> int:
        """A fixed pass count, so every commit is measured on the same samples."""
        return max(2, round(seconds / self.nominal_pass_s))

    def ordered(self, seed: int) -> list:
        order = list(self.queries)
        random.Random(seed).shuffle(order)
        return order


# -- series ------------------------------------------------------------------

EX45 = "dw/dz = (z^2 + m*w) / (z + w^2); m = %s"

# Example 4.5 of the paper: multiplicity at the origin as mu varies.
EX45_TABLE = {
    "0": {"status": "finite", "mul": 3},
    "3/2": {"status": "critical", "criticality_witness.lambda": "3/2"},
    "3": {"status": "critical", "criticality_witness.lambda": "3"},
    "7/2": {"status": "critical", "criticality_witness.lambda": "7/2"},
    "17/2": {"status": "critical", "criticality_witness.lambda": "17/2",
             "criticality_witness.test": "resonance"},
    "-4": {"status": "finite", "mul": 3},
    "5": {"status": "finite", "mul": 2},
}


def series_workload():
    out = []
    for n in (4, 5, 6):
        text = "dw/dz = ((z + w)^%d) / (z + w^2)" % n
        out.append(Query("series/binomial-%d" % n, ("mul", "--system", text, "--at", "0,0", "--json"),
                         expect={"status": "finite", "mul": 3}, pq=("(z + w)**%d" % n, "z + w**2"),
                         residual=True))
    for mu, expect in EX45_TABLE.items():
        out.append(Query("series/ex45-mu=%s" % mu, ("mul", "--system", EX45 % mu, "--at", "0,0", "--json"),
                         expect=expect, pq=("z**2 + (%s)*w" % mu, "z + w**2"), residual=True))
    # A regular point: one solution, a Taylor series with w'(1) = P/Q = 1/2.
    out.append(Query("series/ex45-regular-(1,1)", ("mul", "--system", EX45 % "0", "--at", "1,1", "--json"),
                     expect={"status": "finite", "mul": 1, "branches.0.coefficients.0": "1/2"},
                     pq=("z**2", "z + w**2"), residual=True))
    return Workload("series", tuple(out), nominal_pass_s=4.3)


# -- darboux -----------------------------------------------------------------

LV = "dz/dt = z*(z + c*w - 1); dw/dt = w*(b*z + w - a); a=%s; b=%s; c=%s"


def _lv_pq(a, b, c):
    return ("w*((%s)*z + w - (%s))" % (b, a), "z*(z + (%s)*w - 1)" % c)


SADDLE = "dw/dz = (w^2 - 2*w + 1 - z) / (z*w)"
SADDLE_PQ = ("w**2 - 2*w + 1 - z", "z*w")


def darboux_workload():
    out = []
    analyze = {
        ("-1", "5", "0"): ({"bounds.product_bound": 6, "bounds.sum_bound": 0}, ()),
        ("-1", "0", "0"): ({}, ("w - z + 1",)),
        ("-2", "0", "1/2"): ({}, ("w - 2*z + 2",)),
    }
    for abc, (expect, strict) in analyze.items():
        out.append(Query("darboux/analyze-lv(%s)" % ",".join(abc),
                         ("analyze", "--system", LV % abc, "--max-degree", "2", "--json"),
                         expect=expect, strict=strict, pq=_lv_pq(*abc)))
    out.append(Query("darboux/analyze-saddle", ("analyze", "--system", SADDLE, "--max-degree", "2", "--json"),
                     strict=("w + z - 1",), pq=SADDLE_PQ))
    abc = ("-1", "0", "0")
    out.append(Query("darboux/search4-lv(-1,0,0)",
                     ("darboux", "--system", LV % abc, "--max-degree", "4", "--json"),
                     strict=("w - z + 1",), pq=_lv_pq(*abc)))
    abc = ("-1", "5", "0")
    out.append(Query("darboux/line-bound-lv(-1,5,0)",
                     ("bound", "--system", LV % abc, "--line", "1,0,0", "--json"),
                     expect={"bounds.line_bound": 6}, pq=_lv_pq(*abc)))
    # Lotka-Volterra classification on the generic stratum c = 1 + 1/a: a
    # strict invariant curve exists iff b = 0, and then it is w + a (z - 1).
    # At (-1,0,0) the middle point of the triple is critical (an explicit
    # one-parameter family), not the recorded 1.
    triples = {
        ("-1", "5", "0"): {"multiplicities.inf.mul": 0, "multiplicities.-1.mul": 0, "multiplicities.0.mul": 0},
        ("-1", "0", "0"): {"multiplicities.inf.mul": 0, "multiplicities.-1.status": "critical",
                           "multiplicities.0.mul": 0},
    }
    for a, c in (("-1", "0"), ("-2", "1/2"), ("-3", "2/3"), ("-3/2", "1/3"), ("-4", "3/4")):
        for b in ("0", "3", "5"):
            abc = (a, b, c)
            expect = {"verdict": "strict-curve" if b == "0" else "no-strict-curve", **triples.get(abc, {})}
            strict = ("w + (%s)*(z - 1)" % a,) if b == "0" else ()
            out.append(Query("darboux/lv(%s)" % ",".join(abc), ("lv", "--params", ",".join(abc), "--triple", "--json"),
                             expect=expect, strict=strict, pq=_lv_pq(*abc)))
    return Workload("darboux", tuple(out), nominal_pass_s=7.5)


# -- census ------------------------------------------------------------------

CENSUS_QUERIES = (("origin", ("mul", "--at", "0,0")), ("inf", ("mul", "--at", "0,inf")), ("bound", ("bound",)))


def census_workload(systems: int = CENSUS_SYSTEMS) -> Workload:
    out = []
    for i, system in enumerate(census.generate(CENSUS_POPULATION_SEED, systems)):
        for kind, head in CENSUS_QUERIES:
            argv = (head[0], "--system", system.text) + head[1:] + ("--caps", "terms=1", "--json")
            out.append(Query("census/%03d/%s" % (i, kind), argv, census=system))
    return Workload("census", tuple(out), nominal_pass_s=13.0)


BUILDERS = {"series": series_workload, "darboux": darboux_workload, "census": census_workload}
