import hashlib
import json

import pytest

from pbound.cli import main

EX45 = "dw/dz = (z^2 + m*w) / (z + w^2); m = 0"
LV = "dz/dt = z*(z + c*w - 1); dw/dt = w*(b*z + w - a); a=-1; b=5; c=0"


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
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


def test_cap_exit_code(capsys):
    # depth 1 leaves the ramified branch unresolved: capped, exit 3
    code, data = run_json(
        capsys,
        ["mul", "--system", EX45, "--at", "0,0", "--caps", "depth=1"],
    )
    assert code == 3
    assert data["status"] == "capped"
    assert data["mul_lower_bound"] is not None


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
    # P(0, w) = w^9 + 2 has degree 9, over the factor cap of 8
    code, data = run_json(capsys, ["bound", "--system", "dw/dz = (w^9 + z + 2) / (z)"])
    assert code == 3
    assert data == {"error": {"type": "ExactError", "message": "factor cap exceeded"}}


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
