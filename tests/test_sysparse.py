import contextlib
import io
import json

from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings, strategies as st

from pbound.bounds import axis_singular_points, p_at_axis
from pbound.branching import multiplicity_at
from pbound.cli import main
from pbound.polyode import BiPoly, OdeError, bipoly_str, transform_point
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


def test_parse_powers_match_repeated_products():
    # z^n and w^n are one monomial each, other powers come by squaring
    base = bp({(1, 0): 1, (0, 1): 2, (0, 0): -1})
    for n in range(8):
        sys, _ = parse_system("dw/dz = ((z + 2*w - 1)^%d + 3*z^%d*w^%d) / (z + 1)" % (n, n, n))
        want = BiPoly.const(1)
        for _ in range(n):
            want = want * base
        want = want + bp({(n, n): 3})
        assert sys.P == want, n
        assert all(type(c) is int for c in sys.P.terms.values())


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


# ---------------------------------------------------------------------------
# integral literals: ints and n/d Fractions give the same answers, no floats
# ---------------------------------------------------------------------------

CENSUS_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def census_polys(draw, max_degree, z_shift=0):
    """{(i, j): k} with small nonzero integers k, degree <= max_degree, in z
    shifted by z_shift (the census writes its denominator as z*q0)."""
    keys = draw(st.lists(
        st.tuples(st.integers(0, max_degree), st.integers(0, max_degree))
        .filter(lambda ij: sum(ij) <= max_degree),
        min_size=1, max_size=6, unique=True,
    ))
    return {(i + z_shift, j): draw(st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4])) for i, j in keys}


def census_text(poly, scales):
    """``3*z^2*w - w + 4``, each coefficient literal k written as k, or as
    (k*d)/d with d = scales[n] for the n-th literal (parsed as a Fraction)."""
    out = []
    for n, ((i, j), c) in enumerate(sorted(poly.items(), key=lambda t: (-sum(t[0]), -t[0][0]))):
        factors = [v if e == 1 else "%s^%d" % (v, e) for v, e in (("z", i), ("w", j)) if e]
        if abs(c) != 1 or not factors:
            d = scales[n % len(scales)]
            factors.insert(0, str(abs(c)) if d is None else "%d/%d" % (abs(c) * d, d))
        sign = ("-" if c < 0 else "") if not out else ("- " if c < 0 else "+ ")
        out.append(sign + "*".join(factors))
    return " ".join(out)


def cli_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def all_coefficients(sys):
    return list(sys.P.terms.values()) + list(sys.Q.terms.values())


@CENSUS_SETTINGS
@given(
    census_polys(3),
    census_polys(2, z_shift=1),
    st.lists(st.integers(1, 7), min_size=1, max_size=4),
)
def test_fraction_literals_give_the_same_reports_and_no_floats(p, q, scales):
    texts = [
        "dw/dz = (%s) / (%s)" % (census_text(p, scales_), census_text(q, scales_))
        for scales_ in ([None], scales)
    ]
    try:
        plain, _ = parse_system(texts[0])
    except OdeError:
        assume(False)
    assert all(type(c) is int for c in all_coefficients(plain))
    fractional, _ = parse_system(texts[1])
    assert fractional.P == plain.P and fractional.Q == plain.Q
    points = [("point", 0, 0), ("inf", 0)]
    if not p_at_axis(plain).is_zero():
        points += [("point", 0, r) for kind, r, _ in axis_singular_points(plain)[0] if kind == "rational"]
    for sys in (plain, fractional):
        for point in points:
            moved = transform_point(sys, point)
            assert not any(isinstance(c, float) for c in all_coefficients(moved)), point
    for head in (["mul", "--at", "0,0"], ["mul", "--at", "0,inf"], ["bound"]):
        runs = [cli_stdout([head[0], "--system", text] + head[1:] + ["--caps", "terms=3", "--json"])
                for text in texts]
        assert runs[0] == runs[1], head
