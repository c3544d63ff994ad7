import argparse
import hashlib
import json
import pathlib
from fractions import Fraction as Q

import pytest

from pbound import cli, exact
from pbound.cli import _merge_dash_values, _parse_args, main

EX45 = "dw/dz = (z^2 + m*w) / (z + w^2); m = 0"
LV = "dz/dt = z*(z + c*w - 1); dw/dt = w*(b*z + w - a); a=-1; b=5; c=0"


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    if "--json" in argv:
        # the --json layout is that of json.dumps(report, indent=2)
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, argv + ["--json"])
    return code, json.loads(out)


def test_mul_example45(capsys):
    code, data = run_json(capsys, ["mul", "--system", EX45, "--at", "0,0"])
    assert code == 0
    assert data["status"] == "finite"
    assert data["mul"] == 3


def test_mul_critical(capsys):
    code, data = run_json(
        capsys, ["mul", "--system", "dw/dz = (z^2 + 3/2*w) / (z + w^2)", "--at", "0,0"]
    )
    assert code == 0
    assert data["status"] == "critical"
    assert data["criticality_witness"]["lambda"] == "3/2"


def test_mul_at_infinity(capsys):
    code, data = run_json(capsys, ["lv", "--params", "-1,5,0", "--triple"])
    assert code == 0
    assert data["verdict"] == "no-strict-curve"
    assert data["multiplicities"]["inf"]["mul"] == 0


def test_bound_axis_form(capsys):
    code, data = run_json(capsys, ["bound", "--system", LV])
    assert code == 0
    assert data["bounds"]["sum_bound"] == 0
    assert data["bounds"]["product_bound"] == 6


def test_bound_with_line(capsys):
    code, data = run_json(capsys, ["bound", "--system", LV, "--line", "1,0,0"])
    assert code == 0
    assert data["bounds"]["line_bound"] == 6


def test_bound_from_file(tmp_path, capsys):
    path = tmp_path / "lv.txt"
    path.write_text(LV + "\n")
    code, data = run_json(capsys, ["bound", "--system", str(path), "--line", "1,0,0"])
    assert code == 0
    assert data["bounds"]["line_bound"] == 6


# LV(-1, 5, 0) as a plain system: the invariant lines z = 0 and w = 0
LV_PLAIN = "dz/dt = z*(z + 0*w - 1); dw/dt = w*(5*z + w + 1)"


def test_bound_with_a_horizontal_line_swaps_the_variables(capsys):
    code, data = run_json(capsys, ["bound", "--system", LV_PLAIN, "--line", "0,1,0"])
    assert code == 0
    assert data["bounds"]["swapped_variables"] is True


def test_non_invariant_horizontal_line_is_named_as_given(capsys):
    # the line is checked in the given coordinates, before z and w swap
    code = main(["bound", "--system", LV_PLAIN, "--line", "0,1,-5"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: line w - 5 is not invariant (division remainder 25*z + 30)\n"
    )


@pytest.mark.parametrize(
    "line, remainder",
    [("1,0,-1", "w"), ("1,2,-1", "z^2 - 1/2*z - 1/2")],
    ids=["vertical", "constant-w-lead"],
)
def test_non_invariant_line_names_the_lex_remainder(capsys, line, remainder):
    # X(z - 1) = z (z + w - 1) is w on z = 1; the remainder modulo
    # z + 2 w - 1 is X(f) at w = (1 - z) / 2, with no power of 2 in front
    system = "dz/dt = z*(z + w - 1); dw/dt = w*(w - 1)"
    code, data = run_json(capsys, ["bound", "--system", system, "--line", line])
    assert code == 2
    assert data["error"]["message"].endswith("is not invariant (division remainder %s)" % remainder)


@pytest.mark.parametrize(
    "argv",
    [
        ["darboux", "--system", "dw/dz = w/z", "--max-degree", "-1"],
        ["analyze", "--system", "dw/dz = w/z", "--max-degree", "-3"],
    ],
    ids=["darboux", "analyze"],
)
def test_negative_max_degree_exits_2(capsys, argv):
    code, data = run_json(capsys, argv)
    assert code == 2
    assert data["error"] == {"type": "ValueError", "message": "--max-degree must not be negative"}


def test_max_degree_zero_is_an_empty_search(capsys):
    code, data = run_json(capsys, ["darboux", "--system", "dw/dz = w/z", "--max-degree", "0"])
    assert code == 0
    assert data["max_degree"] == 0 and data["certificates"] == [] and data["partial"] is False


def test_darboux_search(capsys):
    lv0 = "dz/dt = z*(z + c*w - 1); dw/dt = w*(b*z + w - a); a=-1; b=0; c=0"
    code, data = run_json(capsys, ["darboux", "--system", lv0, "--max-degree", "1"])
    assert code == 0
    polys = {c["poly"] for c in data["certificates"]}
    assert "w - z + 1" in polys
    strict = [c for c in data["certificates"] if c["strict"]]
    assert len(strict) == 1
    assert strict[0]["cofactor"] in ("z + w", "w + z")


def test_lv_classification(capsys):
    code, data = run_json(capsys, ["lv", "--params", "-1,0,0"])
    assert code == 0
    assert data["verdict"] == "strict-curve"
    assert data["curve"]["poly"] == "w - z + 1"
    assert data["curve"]["cofactor"] in ("z + w", "w + z")


def test_parse_error_exit_code(capsys):
    code = main(["mul", "--system", "dw/dz = w / (z", "--at", "0,0"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error" in err


def test_parse_error_json(capsys):
    code, data = run_json(capsys, ["mul", "--system", "dw/dz = w / (z", "--at", "0,0"])
    assert code == 2
    assert data["error"]["type"] == "ParseError"


@pytest.mark.parametrize(
    "argv, error_type",
    [
        (["mul", "--system", EX45, "--at", "0,1/0"], "ValueError"),
        (["bound", "--system", LV, "--line", "1,0,1/0"], "ValueError"),
        (["lv", "--params", "1/0,0,0"], "ValueError"),
        (["mul", "--system", "dw/dz = (z^2 + m*w) / (z + w^2); m = 1/0", "--at", "0,0"], "ParseError"),
        (["mul", "--system", "dw/dz = (z^2 + 1/0*w) / (z + w^2)", "--at", "0,0"], "ParseError"),
        (["mul", "--system", EX45, "--at", "0,0", "--caps", "depth=-5"], "ValueError"),
    ],
    ids=["at", "line", "lv-params", "binding", "literal", "negative-cap"],
)
def test_bad_rational_input_exits_2(capsys, argv, error_type):
    code, data = run_json(capsys, argv)
    assert code == 2
    assert data["error"]["type"] == error_type


@pytest.mark.parametrize("text", ["0", "-3", "+2", "1/2", "0.5", " 7 ", "1e2"])
def test_point_and_parameter_literals_read_as_fraction_does(capsys, text):
    # a plain integer literal skips Fraction(str), with the same value
    want = Q(text)
    for got in cli._parse_point("%s,%s" % (text, text))[1:] + cli._parse_triple("%s,%s,%s" % (text, text, text)):
        assert type(got) is Q and got == want
    assert cli._parse_point("%s,inf" % text) == ("inf", want)
    code, data = run_json(capsys, ["mul", "--system", EX45, "--at", "%s,%s" % (text, text)])
    assert code == 0 and data["point"] == {"z": str(want), "w": str(want)}
    code, data = run_json(capsys, ["lv", "--params", "%s,0,0" % text])
    assert code == 0 and data["params"]["a"] == str(want)


@pytest.mark.parametrize("argv", [["mul", "--system", EX45, "--at", "1/0,0"], ["lv", "--params", "0,1/0,0"]])
def test_zero_denominator_in_a_point_or_parameter_exits_2(capsys, argv):
    code, data = run_json(capsys, argv)
    assert code == 2
    assert data["error"] == {"type": "ValueError", "message": "zero denominator in '1/0'"}


def test_a_system_text_is_never_looked_up_as_a_file(monkeypatch, tmp_path, capsys):
    # every system text contains "=", so a census query makes no stat call;
    # a path, which has no "=", is still read
    looked_up = []
    real_exists = cli.os.path.exists

    def exists(path):
        looked_up.append(path)
        return real_exists(path)

    monkeypatch.setattr(cli.os.path, "exists", exists)
    code, data = run_json(capsys, ["mul", "--system", CENSUS, "--at", "0,0"])
    assert code == 0 and looked_up == []
    path = tmp_path / "census.txt"
    path.write_text(CENSUS + "\n")
    assert run_json(capsys, ["mul", "--system", str(path), "--at", "0,0"]) == (code, data)
    assert looked_up == [str(path)]


def test_system_path_that_cannot_be_read_exits_2(tmp_path, capsys):
    # an existing path is read as a file; a directory cannot be
    code, data = run_json(capsys, ["mul", "--system", str(tmp_path), "--at", "0,0"])
    assert code == 2
    assert data["error"]["type"] == "ValueError"
    assert str(tmp_path) in data["error"]["message"]
    code, _ = run(capsys, ["mul", "--system", str(tmp_path), "--at", "0,0"])
    assert code == 2


CENSUS = "dw/dz = (3*z^2*w - w + 4) / (z*w - 2*z^2 + z)"

# argv whose subcommand parser must give what the top-level parser gives
DISPATCH_ARGVS = {
    "mul": ["mul", "--system", EX45, "--at", "0,0"],
    "mul-json-first": ["mul", "--json", "--system", EX45, "--at", "0,inf", "--caps", "depth=3"],
    "mul-abbrev-dash-value": ["mul", "--sys", EX45, "--at", "-1,0", "--json"],
    "bound": ["bound", "--system", LV, "--line", "1,0,-1", "--json"],
    "darboux-abbrev": ["darboux", "--max", "3", "--system", EX45],
    "lv-dash-value": ["lv", "--params", "-1,0,0", "--triple"],
    "lv-json-first": ["lv", "--json", "--params=1,2,3"],
    "analyze": ["analyze", "--system", EX45, "--json", "--max-degree", "1"],
    "analyze-abbrev": ["analyze", "--sys", EX45],
    # the shapes of the benchmark's queries (every one is checked below)
    "census-mul": ["mul", "--system", CENSUS, "--at", "0,inf", "--caps", "terms=1", "--json"],
    "census-bound": ["bound", "--system", CENSUS, "--caps", "terms=1", "--json"],
    "series-mul": ["mul", "--system", EX45, "--at", "1,1", "--json"],
    "darboux-analyze": ["analyze", "--system", LV, "--max-degree", "2", "--json"],
    "darboux-search": ["darboux", "--system", LV, "--max-degree", "4", "--json"],
    "darboux-lv": ["lv", "--params", "-1,5,0", "--triple", "--json"],
    "repeated-flags": ["mul", "--at", "1,1", "--json", "--system", LV, "--at", "0,0", "--json", "--system", EX45],
    "repeated-max-degree": ["darboux", "--max-degree", "3", "--system", EX45, "--max-degree", " 2"],
    "caps-equals": ["mul", "--system", EX45, "--at", "0,0", "--caps=depth=3"],
    "caps-equals-empty": ["bound", "--system", EX45, "--caps="],
    "max-degree-equals": ["analyze", "--max-degree=0", "--system", EX45],
    "empty-value": ["bound", "--system", "", "--line", ""],
}

# argv that argparse rejects or answers itself
ARGPARSE_ARGVS = {
    "at-missing": ["mul", "--system", EX45],
    "at-value-missing": ["mul", "--system", EX45, "--at"],
    "params-missing": ["lv", "--triple"],
    "max-degree-not-int": ["darboux", "--system", EX45, "--max-degree", "x"],
    "max-degree-float": ["analyze", "--system", EX45, "--max-degree", "1.5"],
    # int() reads "-1_0", but argparse takes it for an option, not a value
    "max-degree-option-like": ["darboux", "--system", EX45, "--max-degree", "-1_0"],
    "flag-as-value": ["mul", "--system", "--at", "0,0"],
    "stray-token": ["mul", "--system", EX45, "stray", "--at", "0,0"],
    "json-with-value": ["mul", "--system", EX45, "--at", "0,0", "--json=yes"],
    "no-system-flag": ["lv", "--params", "1,2,3", "--system", EX45],
    "darboux-caps": ["darboux", "--system", EX45, "--caps", "depth=1"],
    "command-help": ["bound", "--help"],
    "unknown-command": ["mull", "--at", "0,0"],
}


@pytest.mark.parametrize("argv", DISPATCH_ARGVS.values(), ids=DISPATCH_ARGVS.keys())
def test_subcommand_parser_matches_the_top_level_parser(argv):
    direct = vars(_parse_args(list(argv)))
    full = vars(cli._parsers()[0].parse_args(_merge_dash_values(list(argv))))
    assert full.pop("command") == argv[0]
    assert direct == full


def _argparse_alone(argv):
    """The namespace of ``argv`` from argparse, as if there were no scan."""
    argv = _merge_dash_values(argv)
    parser, commands = cli._parsers()
    sub = commands.get(argv[0]) if argv else None
    return parser.parse_args(argv) if sub is None else sub.parse_args(argv[1:])


def _parsed(parse, argv, capsys):
    """vars of the namespace, or the exit code and output of SystemExit."""
    try:
        return vars(parse(list(argv)))
    except SystemExit as exc:
        return (exc.code, *capsys.readouterr())


@pytest.mark.parametrize(
    "argv", [*DISPATCH_ARGVS.values(), *ARGPARSE_ARGVS.values()], ids=[*DISPATCH_ARGVS, *ARGPARSE_ARGVS]
)
def test_argv_scan_matches_argparse(capsys, argv):
    want = _parsed(_argparse_alone, argv, capsys)
    assert _parsed(_parse_args, argv, capsys) == want
    scanned = cli._scan(list(argv))
    if scanned is not None:
        assert vars(scanned) == want


def test_every_benchmark_query_scans_as_argparse_parses(monkeypatch):
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    for build in workloads.BUILDERS.values():
        for query in build().queries:
            argv = list(query.argv)
            scanned = cli._scan(argv)
            assert scanned is not None, query.id  # lv's '-a,b,c' included
            assert vars(scanned) == vars(_argparse_alone(argv)), query.id


# argv whose value starts with '-', and whether the scan takes it
DASH_VALUE_ARGVS = {
    "lv-params": (["lv", "--params", "-1,5,0"], True),
    "mul-at": (["mul", "--system", EX45, "--at", "-1,0"], True),
    "bound-line": (["bound", "--system", LV, "--line", "-1,0,0"], True),
    "at-flag-as-value": (["mul", "--system", EX45, "--at", "--json"], True),
    "max-degree-negative": (["darboux", "--system", EX45, "--max-degree", "-1"], True),
    "max-degree-flag-as-value": (["darboux", "--system", EX45, "--max-degree", "--json"], False),
    "params-dash": (["lv", "--params", "-"], True),
}


def _outcome(argv, capsys):
    """The exit code, stdout and stderr of ``main`` on argv."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


@pytest.mark.parametrize("argv, scans", DASH_VALUE_ARGVS.values(), ids=DASH_VALUE_ARGVS.keys())
def test_dash_values_scan_as_argparse_answers(capsys, monkeypatch, argv, scans):
    assert (cli._scan(list(argv)) is not None) == scans
    got = _outcome(argv, capsys)
    monkeypatch.setattr(cli, "_scan", lambda argv: None)
    assert got == _outcome(argv, capsys)


WELL_FORMED = ["mul", "mul-json-first", "bound", "analyze", "census-mul", "census-bound", "series-mul",
               "darboux-analyze", "darboux-search", "repeated-flags", "repeated-max-degree", "empty-value",
               "lv-dash-value", "darboux-lv"]


def test_well_formed_argv_never_reaches_argparse(monkeypatch):
    cli._scan_table()  # built once, from the parsers' actions
    calls = []
    real_parsers, real_parse = cli._parsers, argparse.ArgumentParser.parse_known_args

    def spy_parsers():
        calls.append("_parsers")
        return real_parsers()

    def spy_parse(self, *args, **kwargs):
        calls.append("parse_known_args")
        return real_parse(self, *args, **kwargs)

    monkeypatch.setattr(cli, "_parsers", spy_parsers)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy_parse)
    for name in WELL_FORMED:
        assert cli._parse_args(list(DISPATCH_ARGVS[name])).func is not None
    assert calls == []
    cli._parse_args(list(DISPATCH_ARGVS["mul-abbrev-dash-value"]))
    assert calls == ["_parsers", "parse_known_args"]


@pytest.mark.parametrize(
    "argv, code, stream, text",
    [
        ([], 2, "err", "usage: pbound [-h]"),
        (["-h"], 0, "out", "usage: pbound [-h]"),
        (["frob"], 2, "err", "invalid choice: 'frob'"),
        (["mul", "--system", EX45, "--at", "0,0", "--bogus"], 2, "err", "pbound mul: error: unrecognized arguments: --bogus"),
        (["mul", "-h"], 0, "out", "usage: pbound mul [-h]"),
    ],
    ids=["empty", "help", "unknown-command", "unknown-flag", "command-help"],
)
def test_argv_errors_exit_through_argparse(capsys, argv, code, stream, text):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    assert text in getattr(capsys.readouterr(), stream)


def test_cap_exit_code(capsys):
    # depth 1 leaves the ramified branch unresolved: capped, exit 3
    code, data = run_json(
        capsys,
        ["mul", "--system", EX45, "--at", "0,0", "--caps", "depth=1"],
    )
    assert code == 3
    assert data["status"] == "capped"
    assert data["mul_lower_bound"] is not None


@pytest.mark.parametrize("caps", ["bogus=1", "depth=1"])
def test_darboux_takes_no_caps(capsys, caps):
    # no cap of Caps bounds the search, so --caps is an unknown flag there,
    # as an unknown cap is one for mul
    with pytest.raises(SystemExit) as exc:
        main(["darboux", "--system", "dw/dz = w/z", "--caps", caps])
    assert exc.value.code == 2
    assert "pbound darboux: error: unrecognized arguments: --caps" in capsys.readouterr().err
    code, data = run_json(capsys, ["mul", "--system", "dw/dz = w/z", "--at", "0,0", "--caps", "bogus=1"])
    assert code == 2 and data["error"]["message"] == "unknown cap 'bogus'"


def test_caps_env_variable(monkeypatch, capsys):
    monkeypatch.setenv("PBOUND_CAPS", "depth=1,ram=8")
    code, data = run_json(capsys, ["mul", "--system", EX45, "--at", "0,0"])
    assert code == 3
    assert data["status"] == "capped"
    # an explicit flag overrides the environment
    monkeypatch.setenv("PBOUND_CAPS", "depth=1")
    code2, data2 = run_json(
        capsys, ["mul", "--system", EX45, "--at", "0,0", "--caps", "depth=32"]
    )
    assert code2 == 0
    assert data2["mul"] == 3


def test_reports_byte_identical(capsys):
    outs = set()
    for _ in range(3):
        _, out = run(capsys, ["analyze", "--system", EX45, "--json"])
        outs.add(out)
    assert len(outs) == 1


def test_analyze_includes_everything(capsys):
    code, data = run_json(capsys, ["analyze", "--system", LV])
    assert code == 0
    assert data["mul_at_origin"]["status"] == "finite"
    assert "invariant_lines" in data
    assert "bounds" in data
    assert "darboux" in data


def test_text_output(capsys):
    code, out = run(capsys, ["mul", "--system", EX45, "--at", "0,0"])
    assert code == 0
    assert "status: finite" in out
    assert "mul: 3" in out


def test_exact_arithmetic_cap_is_inconclusive_not_a_crash(capsys):
    # P(0, w) = w^9 + 2 has degree 9, over the factor cap of 8, and no
    # rational root: one capped summand for its 9 roots, and a lower bound
    code, data = run_json(capsys, ["bound", "--system", "dw/dz = (w^9 + z + 2) / (z)"])
    assert code == 3
    bounds = data["bounds"]
    assert bounds["k"] == 9 and bounds["sum_bound"] is None and bounds["sum_lower_bound"] == 0
    assert bounds["summands"][1] == {"point": "root of w^9 + 2", "weight": 9, "status": "capped", "mul_lower_bound": 0}
    # w^9 - 1 gives its root 1 first; the rest w^8 + ... + 1 is at the cap
    # and factors as (w^2 + w + 1)(w^6 + w^3 + 1)
    code, data = run_json(capsys, ["bound", "--system", "dw/dz = (w^9 + z - 1) / (z)"])
    assert code == 0
    assert [s["point"] for s in data["bounds"]["summands"]] == [
        "inf", "1", "root of w^2 + w + 1", "root of w^6 + w^3 + 1"
    ]
    assert (data["bounds"]["k"], data["bounds"]["sum_bound"]) == (9, 8)


def test_analyze_stops_at_degree_one_where_no_strict_curve_exists(capsys):
    # LV(-1,5,0) has sum_bound 0: no strict curve, so the search ends at
    # degree 1, complete, where a degree-3 search was partial
    code, data = run_json(capsys, ["analyze", "--system", LV, "--max-degree", "3"])
    assert code == 0
    assert data["bounds"]["sum_bound"] == 0
    assert data["darboux"]["partial"] is False and data["darboux"]["notes"] == []
    assert [c["poly"] for c in data["darboux"]["certificates"]] == ["w", "z", "z - 1"]


TALL = (
    "dw/dz = (w^8 - 8*w^6*z^2 - 16*w^5*z^5 - 48*w^4*z^9 - 4*w^4*z^8 + 24*w^4*z^4 - 16*w^3*z^13"
    " - 32*w^3*z^12 + 64*w^3*z^7 - 40*w^2*z^16 + 64*w^2*z^11 + 80*w^2*z^10 - 32*w^2*z^6 - 16*w*z^20"
    " - 32*w*z^15 + 64*w*z^14 + 32*w*z^13 - 64*w*z^9 + z^30 - 2*z^24 + 48*z^18 + 32*z^17 + 4*z^16"
    " + 64*z^13 - 16*z^12 + 16*z^8) / (z^20)"
)


def test_three_level_tower_is_certified_over_a_taller_base(capsys, monkeypatch):
    # the 8 conjugates of w = 2^(1/2) z + 2^(1/4) z^2 + 2^(1/8) z^3 are one
    # closed branch class; its third level t2^2 - t1 is split by Trager's
    # norm over Q(t0, t1), which takes its norm over the base Q(t0)
    bases = []
    norm = exact._norm

    def spy(h):
        bases.append(len(h.tower.levels) - 1)
        return norm(h)

    monkeypatch.setattr(exact, "_norm", spy)
    code, data = run_json(capsys, ["mul", "--system", TALL, "--at", "0,0"])
    assert code == 0 and data["mul"] == 8
    (branch,) = data["branches"]
    assert (branch["status"], branch["conjugacy_degree"]) == ("closed", 8)
    assert [lv["minpoly"] for lv in branch["tower"]] == ["t0^2 - 2", "t1^2 - t0", "t2^2 - t1"]
    assert 1 in bases
    code, data = run_json(capsys, ["bound", "--system", TALL])
    assert code == 0 and data["bounds"]["sum_bound"] == 8


def test_axis_root_over_the_tower_cap_is_a_capped_point(capsys):
    # P(0, w) = w^3 - 2 is irreducible: its roots need a tower of degree 3
    system = "dw/dz = (w^3 + z*w - 2) / (z*w + z)"
    code, data = run_json(capsys, ["bound", "--system", system, "--caps", "tower=2"])
    assert code == 3
    bounds = data["bounds"]
    assert bounds["summands"][1] == {
        "point": "root of w^3 - 2",
        "weight": 3,
        "status": "capped",
        "mul_lower_bound": 0,
    }
    assert (bounds["sum_bound"], bounds["product_bound"]) == (None, None)
    assert bounds["sum_lower_bound"] == bounds["summands"][0]["mul"]
    assert bounds["notes"] == ["cap-limited multiplicities: sum bound inconclusive (>= 0)"]
    # under a cap of 3 the roots are adjoined and the bound is finite
    code, data = run_json(capsys, ["bound", "--system", system, "--caps", "tower=3"])
    assert code == 0
    assert data["bounds"]["summands"][1]["status"] == "finite"


def test_darboux_univariate_cubic_certified_irreducible(capsys):
    code, data = run_json(
        capsys, ["darboux", "--system", "dz/dt = z^3 + 2; dw/dt = w", "--max-degree", "3"]
    )
    assert code == 3  # the degree-3 core extraction is capped
    (cert,) = [c for c in data["certificates"] if c["poly"] == "z^3 + 2"]
    assert cert["irreducible"] is True
    assert cert["irreducibility"] == "certified"


# ---------------------------------------------------------------------------
# cap diagnostics: each cap, hit on purpose, gives a capped lower bound that
# names it, and never a wrong finite answer
# ---------------------------------------------------------------------------

EX45_M0 = "dw/dz = (z^2) / (z + w^2)"
# census system 394: at (0, inf) the rational branch is resonant
CENSUS_394 = "dw/dz = (-2*z*w^2 + z*w + 3*w) / (-4*z^3 - 3*z^2*w + 4*z)"
RATIONAL_BRANCH = ["2", "5", "8", "11", "14", "17", "20", "23", "26", "29"]


def run_mul(capsys, system, at, caps):
    return run_json(capsys, ["mul", "--system", system, "--at", at, "--caps", caps])


def test_depth_cap_zero_stops_at_the_root(capsys):
    code, data = run_mul(capsys, EX45_M0, "0,0", "depth=0")
    assert code == 3
    assert data["status"] == "capped"
    assert data["mul_lower_bound"] == 0
    assert data["cap_diagnostics"] == ["depth-cap"]
    assert data["branches"] == []


def test_depth_cap_one_keeps_the_counted_branch_extended(capsys):
    code, data = run_mul(capsys, EX45_M0, "0,0", "depth=1")
    assert code == 3
    assert data["status"] == "capped"
    assert data["mul_lower_bound"] == 1
    assert data["cap_diagnostics"] == ["depth-cap"]
    capped, closed = data["branches"]
    assert capped["status"] == "cap-exceeded"
    assert capped["exponents"] == ["1/2"]
    assert capped["flags"] == ["depth-cap"]
    assert capped["conjugacy_degree"] == 2
    # the depth cap bounds the expansion, not the extension of a counted branch
    assert closed["status"] == "closed"
    assert closed["exponents"] == RATIONAL_BRANCH


@pytest.mark.parametrize(
    "caps, diagnostic",
    [("ram=1", "ramification-cap"), ("tower=1", "tower-cap"), ("factor=1", "factor-cap")],
)
def test_arithmetic_caps_leave_the_rational_branch(capsys, caps, diagnostic):
    code, data = run_mul(capsys, EX45_M0, "0,0", caps)
    assert code == 3
    assert data["status"] == "capped"
    assert data["mul_lower_bound"] == 1
    assert data["cap_diagnostics"] == [diagnostic]
    # the capped leaf sits at the root, so it has no terms to report
    (closed,) = data["branches"]
    assert closed["status"] == "closed"
    assert closed["exponents"] == RATIONAL_BRANCH


EX45_M4 = "dw/dz = (z^2 + m*w) / (z + w^2); m = -4"


def test_ram_cap_must_be_at_least_one(monkeypatch, capsys):
    # a ramification index is at least 1: ram=0 used to cap the unramified
    # exponent-2 branch as well and report mul_lower_bound 0
    want = {"type": "ValueError", "message": "cap 'ram' must be at least 1"}
    code, data = run_mul(capsys, EX45_M4, "0,0", "ram=0")
    assert (code, data["error"]) == (2, want)
    monkeypatch.setenv("PBOUND_CAPS", "ram=0")
    code, data = run_json(capsys, ["mul", "--system", EX45_M4, "--at", "0,0"])
    assert (code, data["error"]) == (2, want)
    # ram=1 caps only the branch of exponent 1/2
    monkeypatch.delenv("PBOUND_CAPS")
    code, data = run_mul(capsys, EX45_M4, "0,0", "ram=1")
    assert code == 3
    assert (data["mul_lower_bound"], data["cap_diagnostics"]) == (1, ["ramification-cap"])
    assert [b["exponents"][0] for b in data["branches"]] == ["2"]


def test_terms_cap_sets_the_reported_length(capsys):
    code, data = run_mul(capsys, EX45_M0, "0,0", "terms=4")
    assert code == 0
    assert data["status"] == "finite"
    assert data["mul"] == 3
    assert [b["exponents"] for b in data["branches"]] == [["1/2", "2", "7/2", "5"], ["2", "5", "8", "11"]]
    assert [b["conjugacy_degree"] for b in data["branches"]] == [2, 1]


def test_resonance_cap(capsys):
    code, data = run_mul(capsys, CENSUS_394, "0,inf", "terms=1")
    assert code == 3
    assert data["status"] == "capped"
    assert data["mul_lower_bound"] == 0
    assert data["cap_diagnostics"] == ["resonance-cap"]
    (branch,) = data["branches"]
    assert branch["status"] == "cap-exceeded"
    assert branch["flags"] == ["resonance-cap"]
    assert len(branch["exponents"]) == 33


def test_resonance_resolved_under_a_deeper_cap(capsys):
    code, data = run_mul(capsys, CENSUS_394, "0,inf", "terms=1,depth=64")
    assert code == 0
    assert data["status"] == "finite"
    assert data["mul"] == 0
    (branch,) = data["branches"]
    assert branch["status"] == "non-algebraic"
    assert branch["flags"] == ["resonance-order-hit"]
    assert len(branch["exponents"]) == 35


def test_darboux_saddle_certifies_both_lines(capsys):
    code, data = run_json(capsys, ["darboux", "--system", "dz/dt = w; dw/dt = z", "--max-degree", "1"])
    assert code == 0
    assert [(c["poly"], c["cofactor"]) for c in data["certificates"]] == [("w + z", "1"), ("w - z", "-1")]
    assert data["partial"] is False


def test_darboux_unsplit_factor_is_inconclusive(capsys):
    # the invariant core w^2 - 2 z^2 is not split into its conjugate lines
    code, data = run_json(capsys, ["darboux", "--system", "dz/dt = w; dw/dt = 2*z", "--max-degree", "1"])
    assert code == 3
    assert data["certificates"] == []
    assert data["partial"] is True


# sha256 of the `mul --at 0,0 --json` stdout recorded when every branch was
# extended on its full remainder; extension on a truncated one must match
PINNED_MUL_DIGESTS = {
    "dw/dz = ((z + w)^8) / (z + w^2)": "03b82d5ab6a7ebcabce46aa0df6caf1be9dbd29d6a0505204bb56e38384a92f5",
    "dw/dz = (z^2 + m*w) / (z + w^2); m = -4": "40d4929af825e8b4617d952cb6009b8e7db61691bf43088e50f73c63984c8f41",
}


@pytest.mark.parametrize("system", sorted(PINNED_MUL_DIGESTS))
def test_mul_report_matches_pinned_digest(capsys, system):
    code, out = run(capsys, ["mul", "--system", system, "--at", "0,0", "--json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_MUL_DIGESTS[system]


def test_readme_library_block_runs(capsys):
    # the "Library" example of the README, run as written; it also prints
    # each branch through PuiseuxBranch.__str__
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "finite 3"
    # the three counted branches: one conjugate pair, one rational
    assert sorted(line.rsplit(" x ", 1)[1] for line in lines[1:3]) == ["1", "2"]
    # each printed with the signs and coefficients of bipoly_str; the first
    # three terms of each
    heads = ["1/2*z^2 - 1/20*z^5 + 9/640*z^8 ", "t0*z^(1/2) - z^2 + (9/2*t0)*z^(7/2) "]
    assert [line[: len(head)] for line, head in zip(sorted(lines[1:3]), heads)] == heads


# ---------------------------------------------------------------------------
# Dicritical points: an edge whose characteristic polynomial vanishes
# ---------------------------------------------------------------------------

# At the origin every point of the edge of slope 1 is a merged P/Q point
# with p/q = 1, so the edge's characteristic polynomial vanishes
# identically: the lowest-order field is a multiple of the radial field.
DICRITICAL = "dw/dz = (z*w + w^2 + z^3) / (z^2 + z*w)"


def test_dicritical_origin_is_critical(capsys):
    code, data = run_json(capsys, ["mul", "--system", DICRITICAL, "--at", "0,0"])
    assert code == 0
    assert data["status"] == "critical"
    assert data["criticality_witness"]["test"] == "dicritical-edge"
    assert data["criticality_witness"]["lambda"] == "1"


def test_dicritical_origin_blocks_the_bounds(capsys):
    code, data = run_json(capsys, ["bound", "--system", DICRITICAL])
    assert code == 0
    bounds = data["bounds"]
    assert bounds["sum_bound"] is None and bounds["product_bound"] is None
    assert bounds["blocked_by"]["point"] == "0"
    assert bounds["blocked_by"]["status"] == "critical"


def test_dicritical_system_has_a_pencil_of_invariant_curves():
    # F_C = (z + w)^2 - 2 z^3 - C z^2 satisfies Q dF/dz + P dF/dw = 2 (z + w) F_C
    # for P = z w + w^2 + z^3 and Q = z^2 + z w, so every F_C = 0 is
    # invariant.  Both sides have degree <= 4 in z and <= 3 in w, so
    # agreement on a 6 x 6 grid proves the identity.  For C = c^2 the curve
    # has the two branches w = (-1 +- c) z + ... through the origin, so
    # infinitely many solutions leave it with distinct slopes.
    def P(z, w):
        return z * w + w**2 + z**3

    def Q_(z, w):
        return z**2 + z * w

    grid = [Q(n, 2) for n in range(-3, 3)]
    slopes = set()
    for c in (Q(1), Q(2), Q(3), Q(1, 2)):
        C = c * c

        def F(z, w):
            return (z + w) ** 2 - 2 * z**3 - C * z**2

        def F_z(z, w):
            return 2 * (z + w) - 6 * z**2 - 2 * C * z

        def F_w(z, w):
            return 2 * (z + w)

        for z in grid:
            for w in grid:
                assert Q_(z, w) * F_z(z, w) + P(z, w) * F_w(z, w) == 2 * (z + w) * F(z, w)
        assert F(Q(0), Q(0)) == 0
        # the lowest form (z + w)^2 - c^2 z^2 vanishes on w = (-1 +- c) z
        for slope in (c - 1, -c - 1):
            assert (1 + slope) ** 2 - C == 0
            slopes.add(slope)
    assert len(slopes) == 8


# At (0, inf), after W = 1/w, the lowest-order field of each system is a
# linear form times the radial field (z, W): (2 z - 4 W) for the first,
# -(z - 2 W) for the second, both on the edge of exponent 1.
DICRITICAL_AT_INFINITY = [
    # system 522 of the benchmark census
    "dw/dz = (3*z^2*w - 2*z*w^2 + z*w - 3*z + 4*w) / (-4*z^3 + 2*z^2*w - 4*z)",
    # system 326 of census.generate(3, 700)
    "dw/dz = (z*w^2 - 2*z^2 - 4*z*w - 2*w - 2) / (z^3 - z^2*w + 4*z^2 + 2*z)",
]


@pytest.mark.parametrize("system", DICRITICAL_AT_INFINITY)
def test_dicritical_point_at_infinity_is_critical(capsys, system):
    code, data = run_json(capsys, ["mul", "--system", system, "--at", "0,inf"])
    assert code == 0
    assert data["status"] == "critical"
    assert data["criticality_witness"]["test"] == "dicritical-edge"
    assert data["criticality_witness"]["lambda"] == "1"
    code, data = run_json(capsys, ["bound", "--system", system])
    assert code == 0
    bounds = data["bounds"]
    assert bounds["sum_bound"] is None and bounds["product_bound"] is None
    assert bounds["blocked_by"]["point"] == "inf"


# ---------------------------------------------------------------------------
# analyze passes (0, 0) and infinity to the axis bound
# ---------------------------------------------------------------------------

import contextlib  # noqa: E402
import io  # noqa: E402
from unittest import mock  # noqa: E402

from pbound import bounds  # noqa: E402
from pbound.bounds import BoundsError  # noqa: E402
from pbound.exact import ExactError  # noqa: E402
from hypothesis import given, settings, strategies as st  # noqa: E402
from verdict_oracle import emit_by_the_walk  # noqa: E402


def analyze_in_the_old_order(args):
    """``analyze`` as it ran before it read the two multiplicities from the
    bound: (0, 0), infinity, the lines, then the bound on its own."""
    caps = cli._caps_from(args)
    system, source = cli._load_system(args)
    report = {"command": "analyze", "system": cli._system_block(system, source)}
    origin = cli.multiplicity_at(system, ("point", Q(0), Q(0)), caps)
    at_inf = cli.multiplicity_at(system, ("inf", Q(0)), caps)
    report["mul_at_origin"] = cli.multiplicity_report(origin)
    report["mul_at_infinity"] = cli.multiplicity_report(at_inf)
    detection = cli.detect_invariant_lines(system)
    report["invariant_lines"] = detection.to_report()
    if source.axis:
        report["bounds"] = cli.axis_multiplicity_bound(system, caps).to_report()
    else:
        for cert in detection.lines:
            f = cert.f
            line = (f.coeff(1, 0), f.coeff(0, 1), f.coeff(0, 0))
            try:
                bound = cli.invariant_line_bound(system, line, caps)
            except BoundsError:
                continue
            report["bounds"] = bound.to_report()
            report["bounds_line"] = [str(x) for x in line]
            break
    outcome = cli.search_darboux(system, args.max_degree, detection)
    report["darboux"] = outcome.to_report()
    return emit_by_the_walk(args, report)


def analyze_both_ways(argv):
    """(exit code, stdout) of ``analyze`` and of the old order on ``argv``."""

    def stdout_of():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        return code, out.getvalue()

    real = cli._parse_args

    def old_order(argv):
        args = real(argv)
        args.func = analyze_in_the_old_order
        return args

    got = stdout_of()
    with mock.patch.object(cli, "_parse_args", old_order):
        return got, stdout_of()


LV_TEXT = "dz/dt = z*(z + c*w - 1); dw/dt = w*(b*z + w - a); a=%s; b=%s; c=%s"
DARBOUX_ANALYZE = [LV_TEXT % abc for abc in (("-1", "5", "0"), ("-1", "0", "0"), ("-2", "0", "1/2"))] + [
    "dw/dz = (w^2 - 2*w + 1 - z) / (z*w)",  # P(0, 0) = 1: no point labelled 0
]


@pytest.mark.parametrize("text", DARBOUX_ANALYZE + [EX45])  # EX45 is not in axis form
def test_analyze_matches_the_old_order(text):
    got, want = analyze_both_ways(["analyze", "--system", text, "--max-degree", "2", "--json"])
    assert got == want


def test_analyze_passes_both_multiplicities_to_the_bound(monkeypatch, capsys):
    # LV(-1,5,0): the bound's points are inf, -1 and 0.  Analyze computes
    # (0, 0) and infinity and passes them to the bound, which computes only
    # -1, a 1:1 Jordan node that the linear-part rule decides, and leaves
    # the rule alone at the two given points: no point's multiplicity is
    # computed twice
    calls = {bounds: [], cli: []}
    for module in calls:
        real = module.multiplicity_at

        def counting(*args, real=real, seen=calls[module]):
            seen.append(args[1])
            return real(*args)

        monkeypatch.setattr(module, "multiplicity_at", counting)
    ruled = []
    real_rule = bounds._axis_root_count

    def rule(rows, f, caps):
        ruled.append(list(f))
        return real_rule(rows, f, caps)

    monkeypatch.setattr(bounds, "_axis_root_count", rule)
    assert main(["analyze", "--system", DARBOUX_ANALYZE[0], "--json"]) == 0
    capsys.readouterr()
    assert calls[cli] == [("point", 0, 0), ("inf", 0)]
    assert calls[bounds] == []
    # the rule reads only w + 1 at -1; at 0 and inf it would read f = w
    assert ruled == [[1, 1]]


def _raises(exc):
    def fail(*args, **kwargs):
        raise exc

    return fail


@pytest.mark.parametrize(
    "patches",
    [
        {"axis_multiplicity_bound": BoundsError("bound failed")},
        {"axis_multiplicity_bound": BoundsError("bound failed"), "multiplicity_at": ExactError("point failed")},
        {"axis_multiplicity_bound": ExactError("bound failed"), "detect_invariant_lines": ValueError("lines failed")},
    ],
)
def test_analyze_raises_the_error_the_old_order_raised_first(monkeypatch, patches):
    for name, exc in patches.items():
        monkeypatch.setattr(cli, name, _raises(exc))
    got, want = analyze_both_ways(["analyze", "--system", DARBOUX_ANALYZE[0], "--json"])
    assert got == want
    first = "point failed" if "multiplicity_at" in patches else "lines failed" if len(patches) > 1 else "bound failed"
    assert json.loads(got[1])["error"]["message"] == first


@pytest.mark.parametrize(
    "patches, first",
    [
        ({}, "bound failed"),
        ({"multiplicity_at": ExactError("point failed")}, "point failed"),
        ({"detect_invariant_lines": ValueError("lines failed")}, "lines failed"),
    ],
)
def test_analyze_raises_the_bound_error_after_the_multiplicities(monkeypatch, patches, first):
    # the bound fails inside, after it took the two multiplicities that
    # analyze computed first: its error still comes after theirs and the
    # lines'
    monkeypatch.setattr(bounds, "axis_singular_points", _raises(BoundsError("bound failed")))
    for name, exc in patches.items():
        monkeypatch.setattr(cli, name, _raises(exc))
    got, want = analyze_both_ways(["analyze", "--system", DARBOUX_ANALYZE[0], "--json"])
    assert got == want
    assert json.loads(got[1])["error"]["message"] == first


@st.composite
def census_texts(draw):
    """An axis-form system dw/dz = P / (z q0), deg P <= 3 and deg q0 <= 2,
    with small integer coefficients, as the census draws them."""

    def poly(max_degree):
        keys = draw(st.lists(
            st.tuples(st.integers(0, max_degree), st.integers(0, max_degree)).filter(lambda ij: sum(ij) <= max_degree),
            min_size=1, max_size=5, unique=True,
        ))
        return " + ".join("(%d)*z^%d*w^%d" % (draw(st.sampled_from([-3, -2, -1, 1, 2, 3])), i, j) for i, j in keys)

    return "dw/dz = (%s) / (z*(%s))" % (poly(3), poly(2))


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(census_texts())
def test_analyze_matches_the_old_order_on_census_systems(text):
    argv = ["analyze", "--system", text, "--max-degree", "1", "--json", "--caps", "terms=2"]
    got, want = analyze_both_ways(argv)
    assert got == want


def test_presumed_tower_level_is_inconclusive(capsys):
    # the 3-folded roots +-t0 of (a^2 - 2)^3, t0^2 = 2, take a ramified step
    # that adjoins t1 above t0, the cubic t1^3 - 1/16, which was once
    # presumed irreducible: its norm x^6 - 1/128 is irreducible over Q, so
    # the level is certified and the report is conclusive
    system = "dw/dz = ((w^2 - 2*z^2)^3 + z^10) / z^7"
    code, data = run_json(capsys, ["mul", "--system", system, "--at", "0,0"])
    assert code == 0
    assert data["status"] == "finite" and data["mul"] == 6
    (branch,) = data["branches"]
    assert branch["coefficients"][:2] == ["t0", "t1"]
    assert branch["tower"] == [
        {"generator": "t0", "minpoly": "t0^2 - 2", "presumed_irreducible": False},
        {"generator": "t1", "minpoly": "t1^3 - 1/16", "presumed_irreducible": False},
    ]


def test_bound_over_a_presumed_tower_level_is_inconclusive(capsys):
    # the sum bound 6 rests on the count at 0, whose branch lies over the
    # certified level t1 (see above): no summand is presumed, and it exits 0
    system = "dw/dz = ((w^2 - 2*z^2)^3 + z^10) / z^7"
    code, data = run_json(capsys, ["bound", "--system", system])
    assert code == 0
    bounds = data["bounds"]
    assert bounds["sum_bound"] == 6
    assert [s.get("presumed_irreducible") for s in bounds["summands"]] == [None, None]


def test_a_reducible_cubic_level_splits_into_two_branch_classes(capsys):
    # the 3-folded roots +-t0 of (a^2 - 5)^3, t0^2 = 5, take a ramified step
    # whose cubic t^3 - 1/40 + 1/100*t0 has the root 1/4 - 1/20*t0 in
    # Q(t0): Trager's norm splits it into that linear factor and a
    # quadratic, so there are two branch classes, of conjugacy 2 over Q(t0)
    # and 4 over a quadratic level, where one class of conjugacy 6 over a
    # presumed cubic level was
    system = "dw/dz = ((w^2 - 5*z^2)^3 + 2*z^7) / z^7"
    code, data = run_json(capsys, ["mul", "--system", system, "--at", "0,0"])
    assert code == 0
    assert data["status"] == "finite" and data["mul"] == 6
    assert [(b["conjugacy_degree"], [lv["minpoly"] for lv in b["tower"]]) for b in data["branches"]] == [
        (2, ["t0^2 - 5"]),
        (4, ["t0^2 - 5", "t1^2 + (1/4 - 1/20*t0)*t1 + 3/40 - 1/40*t0"]),
    ]
    assert data["branches"][0]["coefficients"][:2] == ["t0", "1/4 - 1/20*t0"]
    assert all(not lv["presumed_irreducible"] for b in data["branches"] for lv in b["tower"])


def test_a_sloped_line_family_over_a_certified_level_exits_0(capsys):
    # the Hamiltonian field of (w^2 - 2 z^2 + 3)^2 - 12 w^2: the lines
    # w = +-sqrt(2) z +- sqrt(3) are one family over Q(t0, t1), whose level
    # t1^2 - 3 over Q(t0) is certified by its norm x^4 - 10 x^2 + 1
    system = "dz/dt = 4*w^3 - 8*w*z^2 - 12*w; dw/dt = 8*w^2*z - 16*z^3 + 24*z"
    code, data = run_json(capsys, ["analyze", "--system", system, "--max-degree", "0"])
    assert code == 0
    (family,) = data["invariant_lines"]["conjugate_families"]
    assert (family["defining_polynomial"], family["conjugates"]) == ("t1^2 - 3", 4)
    assert family["tower"] == [
        {"generator": "t0", "minpoly": "t0^2 - 2", "presumed_irreducible": False},
        {"generator": "t1", "minpoly": "t1^2 - 3", "presumed_irreducible": False},
    ]


def test_quadratic_level_with_a_nonsquare_discriminant_norm_is_certified(capsys):
    # the 2-folded roots +-t0 of (a^2 - 2)^2 adjoin t1^2 - 1/8*t0 over
    # Q(t0): its norm x^4 - 1/32 is irreducible over Q, so t1 is certified
    # and the report is conclusive
    system = "dw/dz = ((w^2 - 2*z^2)^2 + z^7) / z^5"
    code, data = run_json(capsys, ["mul", "--system", system, "--at", "0,0"])
    assert code == 0
    assert data["status"] == "finite" and data["mul"] == 4
    (branch,) = data["branches"]
    assert branch["tower"] == [
        {"generator": "t0", "minpoly": "t0^2 - 2", "presumed_irreducible": False},
        {"generator": "t1", "minpoly": "t1^2 - 1/8*t0", "presumed_irreducible": False},
    ]


def test_bound_over_a_certified_quadratic_level_is_conclusive(capsys):
    # at the roots of w^2 - 2 the edge polynomial 8a^2 + t0 adjoins a
    # quadratic level over Q(t0), certified by its norm x^4 - 1/32
    system = "dw/dz = ((w^2 - 2)^2 + z^2*w) / z^3"
    code, data = run_json(capsys, ["bound", "--system", system])
    assert code == 0
    bounds = data["bounds"]
    assert bounds["sum_bound"] == 4
    assert bounds["summands"][1] == {"point": "root of w^2 - 2", "weight": 2, "status": "finite", "mul": 2}


def test_kronecker_certified_level_is_conclusive(capsys):
    # a planted multi-fold system whose branch adjoins a root of t0^4 + 9,
    # reducible mod every prime: the full Kronecker search certifies it
    system = (
        "dw/dz = (84*z^14 + 81*z^13 + 108*z^11*w + 81*z^12 + 108*z^10*w + 54*z^8*w^2 + 108*z^9*w"
        " + 54*z^7*w^2 + 12*z^5*w^3 + 54*z^6*w^2 + 12*z^4*w^3 + z^2*w^4 + 12*z^3*w^3 + z*w^4 + w^4) / (z^11)"
    )
    code, data = run_json(capsys, ["mul", "--system", system, "--at", "0,0"])
    assert code == 0
    towers = [b["tower"] for b in data["branches"] if b["tower"]]
    assert towers and all(
        t == [{"generator": "t0", "minpoly": "t0^4 + 9", "presumed_irreducible": False}] for t in towers
    )


def test_tower_minpoly_drops_a_unit_coefficient(capsys):
    # system 309 of census.generate(2, 700): the two branches of slope
    # t0, t0^2 - t0 + 1 = 0, printed once with the coefficient -1 as "-1*t0"
    system = "dw/dz = (3*z^2*w - 2*z^2 + 4*z*w - 2*w^2) / (3*z^3 + 2*z^2)"
    code, data = run_json(capsys, ["mul", "--system", system, "--at", "0,0"])
    assert code == 0 and data["mul"] == 2
    (branch,) = data["branches"]
    assert branch["tower"] == [{"generator": "t0", "minpoly": "t0^2 - t0 + 1", "presumed_irreducible": False}]


def test_bound_detects_an_invariant_line_off_axis_form(capsys):
    # dw/dz = (w^2 - 1) / (z^2 + 1) is not in axis form; its first detected
    # line is w + 1 = 0, and the bound runs along it
    system = "dw/dz = (w^2 - 1) / (z^2 + 1)"
    code, data = run_json(capsys, ["bound", "--system", system])
    assert code == 0
    assert data["system"]["axis_form"] is False
    assert data["line"] == ["0", "1", "1"]
    assert data["line_detected"] is True
    assert data["bounds"]["line_bound"] == 6
    code, data = run_json(capsys, ["analyze", "--system", system, "--max-degree", "1"])
    assert code == 0
    assert data["bounds_line"] == ["0", "1", "1"]
    assert data["bounds"]["line_bound"] == 6


def test_detected_line_with_a_critical_point_blocks_the_bounds(capsys):
    # EX45 at m = 1 leaves w = z invariant: (z + z^2) * 1 = z^2 + z; the
    # point at infinity on it is critical, so no bound is finite
    system = "dw/dz = (z^2 + m*w) / (z + w^2); m = 1"
    code, data = run_json(capsys, ["bound", "--system", system])
    assert code == 0
    assert data["line"] == ["-1", "1", "0"]
    assert data["line_detected"] is True
    bounds = data["bounds"]
    assert bounds["blocked_by"]["point"] == "inf"
    assert bounds["blocked_by"]["status"] == "critical"
    assert bounds["sum_bound"] is None and bounds["line_bound"] is None
    assert "line bound unavailable: critical point on the line" in bounds["notes"]


def test_bound_without_axis_form_or_invariant_line_exits_2(capsys):
    code, data = run_json(capsys, ["bound", "--system", "dw/dz = (z^3 + w + 1) / (w^2 + z + 1)"])
    assert code == 2
    assert data["error"]["type"] == "BoundsError"
    assert "no axis form and no invariant line detected" in data["error"]["message"]
