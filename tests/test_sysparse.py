import json

from fractions import Fraction as Q

import pytest

from pbound.branching import multiplicity_at
from pbound.polyode import BiPoly, bipoly_str
from pbound.sysparse import (
    ParseError,
    emit_report,
    parse_system,
    print_system,
)


def bp(entries):
    return BiPoly({(Q(ze), we): Q(c) for (ze, we), c in entries.items()})


def test_parse_pq_form_with_parameter():
    sys, src = parse_system("dw/dz = (z^2 + m*w) / (z + w^2); m = 0")
    assert src.form == "pq"
    assert not src.axis
    assert sys.P.terms == bp({(2, 0): 1}).terms  # m = 0 drops the w term
    assert sys.Q.terms == bp({(1, 0): 1, (0, 2): 1}).terms
    assert src.bindings == {"m": Q(0)}


def test_parse_autonomous_lv():
    text = "dz/dt = z*(z + c*w - 1); dw/dt = w*(b*z + w - a); a=-1; b=0; c=0"
    sys, src = parse_system(text)
    assert src.form == "autonomous"
    assert src.axis  # z divides dz/dt
    assert sys.P.terms == bp({(0, 2): 1, (0, 1): 1}).terms
    assert sys.Q.terms == bp({(2, 0): 1, (1, 0): -1}).terms


def test_parse_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse_system("dw/dz = w / (z")
    assert "column" in str(err.value)


@pytest.mark.parametrize(
    "text, line, col",
    [
        ("dw/dz = (z^2 +\n  3*w) / (z\n  + w^2 $ 1)", 3, 9),
        ("dw/dz = (z^2 +\n  3*w)\n / (z\n  + w^2", 4, 8),
        ("dz/dt = z*(z - 1);\n  dw/dt = w*(2*z + w) - ;\n a = 1", 2, 25),
        ("dz/dt = z;\n  dw/dt = w^x", 2, 13),
    ],
)
def test_parse_error_line_and_column_on_multiline_input(text, line, col):
    with pytest.raises(ParseError) as err:
        parse_system(text)
    assert (err.value.line, err.value.col) == (line, col)
    assert str(err.value).endswith("(line %d, column %d)" % (line, col))


@pytest.mark.parametrize(
    "text, line, col",
    [
        ("dw/dz = (z + m*w) /\n  (1/0 + z); m = 2", 2, 4),
        ("dw/dz = (z + m*w) / (z);\n m = 3/0", 2, 6),
    ],
    ids=["literal", "binding"],
)
def test_parse_zero_denominator_is_a_parse_error(text, line, col):
    with pytest.raises(ParseError, match="zero denominator") as err:
        parse_system(text)
    assert (err.value.line, err.value.col) == (line, col)


def test_parse_unbound_parameter():
    with pytest.raises(ParseError, match="unbound parameter"):
        parse_system("dw/dz = (m*w) / (z)")


def test_parse_rejects_common_factor():
    from pbound.polyode import OdeError

    with pytest.raises(OdeError, match="common factor"):
        parse_system("dw/dz = (z*w) / (z*z)")


def test_parse_rational_literals():
    sys, _ = parse_system("dw/dz = (1/2*z + 3*w) / (2)")
    assert sys.P.coeff(1, 0) == Q(1, 2)
    assert sys.P.coeff(0, 1) == Q(3)
    assert sys.Q.coeff(0, 0) == Q(2)


def test_parse_power_and_implicit_multiplication_rejected():
    with pytest.raises(ParseError):
        parse_system("dw/dz = (2z) / (w)")  # implicit multiplication


def test_roundtrip_print_parse():
    texts = [
        "dw/dz = (z^2 + 5*w) / (z + w^2)",
        "dw/dz = (-w + w^2) / (z^2 - z)",
        "dw/dz = (1/3*z) / (w - 2/7)",
    ]
    for text in texts:
        sys, _ = parse_system(text)
        printed = print_system(sys)
        sys2, _ = parse_system(printed)
        assert sys2.P.terms == sys.P.terms
        assert sys2.Q.terms == sys.Q.terms
        assert print_system(sys2) == printed


def test_report_finite_json_schema():
    sys, _ = parse_system("dw/dz = (z^2) / (z + w^2)")
    res = multiplicity_at(sys, ("point", Q(0), Q(0)))
    blob = emit_report(res, "json")
    data = json.loads(blob)
    assert data["status"] == "finite"
    assert data["mul"] == 3
    # one entry per conjugacy class: the theta-pair plus the rational branch
    assert len(data["branches"]) == 2
    assert sorted(b["conjugacy_degree"] for b in data["branches"]) == [1, 2]
    for b in data["branches"]:
        assert set(b) >= {"exponents", "coefficients", "tower", "conjugacy_degree", "status"}
    conj2 = [b for b in data["branches"] if b["conjugacy_degree"] == 2]
    assert conj2[0]["tower"][0]["minpoly"] == "t0^2 + 1"


def test_report_critical_witness():
    sys, _ = parse_system("dw/dz = (z^2 + 3/2*w) / (z + w^2)")
    res = multiplicity_at(sys, ("point", Q(0), Q(0)))
    data = json.loads(emit_report(res, "json"))
    assert data["status"] == "critical"
    assert data["criticality_witness"]["lambda"] == "3/2"
    assert data["criticality_witness"]["test"] == "vertex-dominance"


def test_report_text_format():
    sys, _ = parse_system("dw/dz = (z^2) / (z + w^2)")
    res = multiplicity_at(sys, ("point", Q(0), Q(0)))
    text = emit_report(res, "text").decode()
    assert "status: finite" in text
    assert "mul: 3" in text


def test_report_deterministic():
    sys, _ = parse_system("dw/dz = (z^2) / (z + w^2)")
    blobs = {
        emit_report(multiplicity_at(sys, ("point", Q(0), Q(0))), "json") for _ in range(3)
    }
    assert len(blobs) == 1


def test_bipoly_str_shapes():
    assert bipoly_str(bp({(0, 0): -1, (1, 0): 1})) == "z - 1"
    assert bipoly_str(bp({(2, 0): 1, (0, 1): Q(-1, 2)})) == "z^2 - 1/2*w"
