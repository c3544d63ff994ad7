"""The exit code of ``pbound.cli.main``, which the results' reasons give,
against the walk over its JSON report (``verdict_oracle.inconclusive``),
and the same exit code in text mode."""

import contextlib
import io
import json
import random
from dataclasses import replace
from fractions import Fraction as Q

import pytest

from pbound.bounds import axis_multiplicity_bound
from pbound.branching import Caps, Reason, multiplicity_at
from pbound.cli import main
from pbound import darboux, exact
from pbound.darboux import SearchOutcome, detect_invariant_lines, search_darboux, verify_darboux
from pbound.polyode import BiPoly, OdeError, bipoly_str, make_system
from pbound.sysparse import parse_system
from test_bounds import _census_style, _corpus_pair, _small_corpus
from test_cli import CENSUS_394, EX45, EX45_M0, EX45_M4, LV
from verdict_oracle import inconclusive


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def verdicts(argv):
    """(exit code in --json mode, the walk's code on its report or None for
    an error payload, exit code in text mode)."""
    code, out = _run(argv + ["--json"])
    report = json.loads(out)
    walk = None if "error" in report else 3 if inconclusive(report) else 0
    return code, walk, _run(argv)[0]


def assert_verdict(argv):
    code, walk, text_code = verdicts(argv)
    if walk is not None:
        assert code == walk, argv
    assert text_code == code, argv
    return code


def _axis_systems():
    """Coprime axis-form systems of derandomized census-style and small-corpus
    draws, as system text."""
    rng = random.Random(40)
    pairs = (
        [_census_style(rng) for _ in range(40)]
        + [_small_corpus(rng) for _ in range(30)]
        + [_corpus_pair(rng) for _ in range(40)]
    )
    out = []
    for p, q in pairs:
        try:
            make_system(p, q)
        except OdeError:
            continue
        out.append("dw/dz = (%s) / (%s)" % (bipoly_str(p), bipoly_str(q)))
    return out


AXIS_QUERIES = (["mul", "--at", "0,0"], ["mul", "--at", "0,inf"], ["bound"])


@pytest.mark.parametrize("caps", [[], ["--caps", "depth=1"], ["--caps", "tower=1,depth=2"]])
def test_exit_code_is_the_walk_on_census_style_and_corpus_systems(caps):
    codes = []
    for text in _axis_systems():
        for head in AXIS_QUERIES:
            codes.append(assert_verdict([head[0], "--system", text] + head[1:] + caps))
    # every draw is conclusive at the default caps; under the lower ones
    # some are not
    assert 0 in codes and (3 in codes) == bool(caps)


LV_TEXT = "dz/dt = z*(z + c*w - 1); dw/dt = w*(b*z + w - a); a=%s; b=%s; c=%s"
SADDLE = "dw/dz = (w^2 - 2*w + 1 - z) / (z*w)"
WORKLOAD_QUERIES = (
    [["analyze", "--system", LV_TEXT % abc, "--max-degree", "2"]
     for abc in (("-1", "5", "0"), ("-1", "0", "0"), ("-2", "0", "1/2"))]
    + [["analyze", "--system", SADDLE, "--max-degree", "2"],
       ["darboux", "--system", LV_TEXT % ("-1", "0", "0"), "--max-degree", "4"],
       ["bound", "--system", LV_TEXT % ("-1", "5", "0"), "--line", "1,0,0"]]
    + [["lv", "--params", "%s,%s,%s" % (a, b, c), "--triple"]
       for a, c in (("-1", "0"), ("-2", "1/2"), ("-3", "2/3"), ("-3/2", "1/3"), ("-4", "3/4"))
       for b in ("0", "3", "5")]
)


@pytest.mark.parametrize("argv", WORKLOAD_QUERIES, ids=lambda argv: " ".join(argv[:1] + argv[2:]))
def test_exit_code_is_the_walk_on_workload_queries(argv):
    assert_verdict(argv)


CUBIC = "dw/dz = ((w^2 - 2*z^2)^3 + z^10) / z^7"
TEN_SLOPES = "dz/dt = w^9; dw/dt = 2*z^9"
# every exit-3 example of test_cli.py, and the text-mode ones of the CI step
EXIT_3_QUERIES = [
    ["mul", "--system", EX45, "--at", "0,0", "--caps", "depth=1"],
    ["mul", "--system", EX45, "--at", "0,0", "--caps", "depth=1,ram=8"],
    ["bound", "--system", "dw/dz = (w^9 + z + 2) / (z)"],  # a factor-capped summand and a sum_lower_bound
    ["bound", "--system", "dw/dz = (w^3 + z*w - 2) / (z*w + z)", "--caps", "tower=2"],
    ["darboux", "--system", "dz/dt = z^3 + 2; dw/dt = w", "--max-degree", "3"],
    ["mul", "--system", EX45_M0, "--at", "0,0", "--caps", "depth=0"],
    ["mul", "--system", EX45_M0, "--at", "0,0", "--caps", "depth=1"],
    ["mul", "--system", EX45_M0, "--at", "0,0", "--caps", "ram=1"],
    ["mul", "--system", EX45_M0, "--at", "0,0", "--caps", "tower=1"],
    ["mul", "--system", EX45_M0, "--at", "0,0", "--caps", "factor=1"],
    ["mul", "--system", EX45_M4, "--at", "0,0", "--caps", "ram=1"],
    ["mul", "--system", CENSUS_394, "--at", "0,inf", "--caps", "terms=1"],
    ["darboux", "--system", "dz/dt = w; dw/dt = 2*z", "--max-degree", "1"],
    # the cubic level over Q(t0) is certified, and tower=4 caps it
    ["mul", "--system", CUBIC, "--at", "0,0", "--caps", "tower=4"],
    ["bound", "--system", CUBIC, "--caps", "tower=4"],
    ["analyze", "--system", CUBIC, "--max-degree", "1", "--caps", "tower=4"],
    ["lv", "--params", "-1,5,0", "--triple", "--caps", "depth=0"],
    ["darboux", "--system", "dw/dz = (2*z^3 + z^2*w + 4*z*w^2 - w^3 + w^2 + 2) / (-4*z)", "--max-degree", "2"],
    # the slope polynomial s^10 - 2, with no rational root, is past the
    # factor cap: a noted line detection, and a bound that has no line to take
    ["analyze", "--system", TEN_SLOPES, "--max-degree", "0"],
    ["bound", "--system", TEN_SLOPES],
]


@pytest.mark.parametrize("argv", EXIT_3_QUERIES, ids=lambda argv: " ".join(argv[:1] + argv[2:]))
def test_exit_code_is_the_walk_on_the_exit_3_examples(argv):
    assert assert_verdict(argv) == 3


EXIT_0_QUERIES = [
    # sum_bound 0: the search stops at degree 1, complete (a degree-3 search
    # was partial, exit 3)
    ["analyze", "--system", LV, "--max-degree", "3"],
]


@pytest.mark.parametrize("argv", EXIT_0_QUERIES, ids=lambda argv: " ".join(argv[:1] + argv[2:]))
def test_exit_code_is_the_walk_on_the_exit_0_examples(argv):
    assert assert_verdict(argv) == 0


# ---------------------------------------------------------------------------
# the reason records themselves
# ---------------------------------------------------------------------------

def test_reasons_name_the_cap_the_presumed_level_and_the_summand():
    # no level is presumed: the cubic one is certified, so the reasons are
    # those of a cap, at the multiplicity and at the bound's summand
    system, _ = parse_system(CUBIC)
    assert multiplicity_at(system, ("point", Q(0), Q(0))).reasons == ()
    assert axis_multiplicity_bound(system).reasons == ()
    assert multiplicity_at(system, ("point", Q(0), Q(0)), Caps(tower=4)).reasons == (
        Reason("capped", "multiplicity", "tower-cap"),
    )
    assert axis_multiplicity_bound(system, Caps(tower=4)).reasons == (
        Reason("capped", "bound", "0"),
        Reason("sum-lower-bound", "bound", "0"),
    )
    system, _ = parse_system(EX45_M0)
    assert multiplicity_at(system, ("point", Q(0), Q(0)), Caps(depth=1)).reasons == (
        Reason("capped", "multiplicity", "depth-cap"),
    )
    system, _ = parse_system("dw/dz = (w^3 + z*w - 2) / (z*w + z)")
    assert axis_multiplicity_bound(system, Caps(tower=2)).reasons == (
        Reason("capped", "bound", "root of w^3 - 2"),
        Reason("sum-lower-bound", "bound", "0"),
    )
    system, _ = parse_system(EX45)
    assert multiplicity_at(system, ("point", Q(0), Q(0))).reasons == ()


def test_presumed_irreducibility_and_a_partial_search_are_reasons():
    # w^2 + z^2 - 1 is invariant (X(f) = 2 z f); of degree 2 in w, it is
    # certified by its discriminant -4 (z^2 - 1), not a square.  The first
    # integral w^3 + z^3 - 1 of zdot = -3 w^2, wdot = 3 z^2 is of degree 3
    # in both variables, so its irreducibility is presumed
    system, _ = parse_system("dz/dt = z^2 + w^2 - 2*w - 1; dw/dt = 2*z")
    circle = verify_darboux(system, BiPoly({(2, 0): 1, (0, 2): 1, (0, 0): -1}))
    assert circle.to_report()["irreducibility"] == "certified" and circle.reasons == ()
    cubic, _ = parse_system("dz/dt = -3*w^2; dw/dt = 3*z^2")
    cert = verify_darboux(cubic, BiPoly({(3, 0): 1, (0, 3): 1, (0, 0): -1}))
    assert cert.to_report()["irreducibility"] == "presumed"
    assert cert.reasons == (Reason("presumed-irreducible", "certificate", "w^3 + z^3 - 1"),)
    outcome = SearchOutcome(certificates=[cert], dicritical_degrees=())
    assert outcome.reasons == cert.reasons and inconclusive(outcome.to_report())
    outcome = search_darboux(system, 2)
    assert outcome.partial and not outcome.certificates
    assert outcome.reasons == (
        Reason("partial-search", "darboux", "degree 2: invariant-core extraction skipped on a degree-18 residual"),
    )


# the Hamiltonian field of (w^2 - 2 z^2 + 3)^2 - 12 w^2: the lines
# w = +-sqrt(2) z +- sqrt(3), one root per factor over Q(sqrt(2))
HAMILTONIAN = "dz/dt = 4*w^3 - 8*w*z^2 - 12*w; dw/dt = 8*w^2*z - 16*z^3 + 24*z"


@pytest.mark.parametrize(
    "cap, note",
    [(2, "intercept factor beyond tower cap: r^2 - 3"), (1, "slope factor beyond tower cap: z^2 - 2")],
)
def test_a_line_factor_past_a_cap_is_a_reason(monkeypatch, cap, note):
    real = darboux.factor_roots
    monkeypatch.setattr(darboux, "factor_roots", lambda p, tower=None: real(p, tower, tower_cap=cap))
    system, _ = parse_system(HAMILTONIAN)
    detection = detect_invariant_lines(system)
    assert not detection.lines and not detection.families
    assert detection.notes == detection.capped == (note,)
    assert detection.reasons == (Reason("capped", "lines", note),)
    assert inconclusive(detection.to_report())
    assert assert_verdict(["analyze", "--system", HAMILTONIAN, "--max-degree", "0"]) == 3


def test_a_line_factor_past_the_irreducibility_cap_is_a_reason(monkeypatch):
    # a slope factor the factorer cannot certify is not adjoined: its note
    # names the irreducibility cap, and the analysis exits 3
    real = exact.factor_univariate

    def uncertified(poly, cap=8):
        return [replace(f, certified=f.poly.degree() < 2) for f in real(poly, cap)]

    monkeypatch.setattr(exact, "factor_univariate", uncertified)
    system, _ = parse_system(HAMILTONIAN)
    detection = detect_invariant_lines(system)
    note = "slope factor beyond irreducibility cap: z^2 - 2"
    assert detection.capped == (note,)
    assert detection.reasons == (Reason("capped", "lines", note),)
    assert assert_verdict(["analyze", "--system", HAMILTONIAN, "--max-degree", "0"]) == 3


def test_a_slope_polynomial_past_the_factor_cap_is_a_reason():
    system, _ = parse_system(TEN_SLOPES)
    detection = detect_invariant_lines(system)
    assert detection.reasons == (Reason("capped", "lines", "slope polynomial beyond factor cap: -z^10 + 2"),)
    system, _ = parse_system(HAMILTONIAN)
    assert detect_invariant_lines(system).reasons == ()
