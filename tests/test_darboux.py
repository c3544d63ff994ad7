from fractions import Fraction as Q

import pytest

from pbound.darboux import (
    DarbouxCertificate,
    DarbouxError,
    NotDarboux,
    detect_invariant_lines,
    extactic_determinant,
    search_darboux,
    strictness_check,
    verify_darboux,
)
from pbound.polyode import BiPoly, bipoly_str, make_system


def bp(entries):
    return BiPoly({(Q(ze), we): Q(c) for (ze, we), c in entries.items()})


def lv_system(a, b, c):
    """zdot = z(z + c w - 1), wdot = w(b z + w - a); stored as dw/dz = P/Q."""
    return make_system(
        bp({(1, 1): b, (0, 2): 1, (0, 1): -a}),
        bp({(2, 0): 1, (1, 1): c, (1, 0): -1}),
    )


def saddle_line_system():
    """zdot = z w, wdot = (w - 1)^2 - z; the line w + z - 1 is invariant."""
    return make_system(
        bp({(0, 2): 1, (0, 1): -2, (0, 0): 1, (1, 0): -1}),
        bp({(1, 1): 1}),
    )


LINE = bp({(0, 1): 1, (1, 0): 1, (0, 0): -1})  # w + z - 1


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def test_lv_strict_line_certificate():
    sys = lv_system(Q(-1), Q(0), Q(0))
    f = bp({(0, 0): 1, (1, 0): -1, (0, 1): 1})  # 1 - z + w
    cert = verify_darboux(sys, f)
    assert isinstance(cert, DarbouxCertificate)
    assert cert.cofactor.terms == bp({(1, 0): 1, (0, 1): 1}).terms  # z + w
    assert cert.strict


def test_lv_axis_certificates():
    sys = lv_system(Q(-1), Q(3), Q(2))
    z = bp({(1, 0): 1})
    cert = verify_darboux(sys, z)
    # zdot = z (z + c w - 1): cofactor z + c w - 1
    assert cert.cofactor.terms == bp({(1, 0): 1, (0, 1): 2, (0, 0): -1}).terms
    assert not cert.strict

    z2 = bp({(2, 0): 1})
    cert2 = verify_darboux(sys, z2)
    assert cert2.cofactor.terms == (cert.cofactor * bp({(0, 0): 2})).terms


def test_not_darboux_returns_witness():
    sys = lv_system(Q(-1), Q(0), Q(0))
    bad = bp({(1, 0): 1, (0, 1): 1, (0, 0): -5})  # z + w = 5
    res = verify_darboux(sys, bad)
    assert isinstance(res, NotDarboux)
    # the w-pseudo-remainder of X(f) by f, as `NotDarboux.to_report` gives it
    assert bipoly_str(res.remainder) == "2*z^2 - 12*z + 30"


def test_constant_candidate_rejected():
    sys = lv_system(Q(-1), Q(0), Q(0))
    with pytest.raises(DarbouxError, match="constant"):
        verify_darboux(sys, bp({(0, 0): 3}))


def test_multiplicativity_of_cofactors():
    sys = lv_system(Q(-1), Q(2), Q(3))
    f = bp({(1, 0): 1})
    g = bp({(0, 1): 1})
    cf = verify_darboux(sys, f)
    cg = verify_darboux(sys, g)
    cfg = verify_darboux(sys, f * g)
    assert cfg.cofactor.terms == (cf.cofactor + cg.cofactor).terms


def test_saddle_line_fixture():
    sys = saddle_line_system()
    cert = verify_darboux(sys, LINE)
    assert isinstance(cert, DarbouxCertificate)
    # cofactor w - 1
    assert cert.cofactor.terms == bp({(0, 1): 1, (0, 0): -1}).terms
    assert cert.strict


# ---------------------------------------------------------------------------
# strictness
# ---------------------------------------------------------------------------

def test_strictness_basic():
    strict, off = strictness_check(bp({(0, 0): 1, (1, 0): -1, (0, 1): 1}))
    assert strict and off == ()

    strict, off = strictness_check(bp({(1, 0): 1}) * bp({(0, 0): 1, (1, 0): -1, (0, 1): 1}))
    assert not strict and "z" in off

    strict, off = strictness_check(bp({(0, 1): 1, (0, 0): -5}))
    assert not strict


def test_strictness_complex_component():
    # (z^2 + 1) * (w - z): the conjugate line pair z = +-i is a constant component
    f = bp({(2, 0): 1, (0, 0): 1}) * bp({(0, 1): 1, (1, 0): -1})
    strict, off = strictness_check(f)
    assert not strict
    assert any("z-factor" in o for o in off)


# ---------------------------------------------------------------------------
# line detection
# ---------------------------------------------------------------------------

def test_detect_lines_lv_generic():
    det = detect_invariant_lines(lv_system(Q(-1), Q(5), Q(0)))
    found = {bipoly_str(c.f) for c in det.lines}
    # c = 0 makes zdot = z(z-1), so z = 1 is invariant besides the axes
    assert found == {"z", "w", "z - 1"}
    assert not det.dicritical
    assert all(not c.strict for c in det.lines)


def test_detect_lines_lv_special():
    det = detect_invariant_lines(lv_system(Q(-1), Q(0), Q(0)))
    found = {bipoly_str(c.f) for c in det.lines}
    # all five invariant lines, including the non-strict z = 1 and w = -1
    assert found == {"z", "w", "z - 1", "w + 1", "w - z + 1"}


def test_detect_lines_complex_pair():
    # zdot = 1 + z^2, wdot = 1: lines z = +-i as a conjugate family
    sys = make_system(bp({(0, 0): 1}), bp({(2, 0): 1, (0, 0): 1}))
    det = detect_invariant_lines(sys)
    assert det.lines == []
    assert len(det.families) == 1
    fam = det.families[0]
    assert fam.kind == "z" and fam.degree == 2


def test_detect_lines_saddle_fixture():
    det = detect_invariant_lines(saddle_line_system())
    found = {bipoly_str(c.f) for c in det.lines}
    # w = 1 is NOT invariant: wdot there is -z
    assert found == {"z", "w + z - 1"}


def test_detect_dicritical_family_of_lines():
    # zdot = z, wdot = w: every line through the origin is invariant
    sys = make_system(bp({(0, 1): 1}), bp({(1, 0): 1}))
    det = detect_invariant_lines(sys)
    assert det.dicritical


# ---------------------------------------------------------------------------
# extactic search
# ---------------------------------------------------------------------------

def test_extactic_degree_one_lv():
    sys = lv_system(Q(-1), Q(0), Q(0))
    e = extactic_determinant(sys, 1)
    # E1 = 2 z w (z-1) (w+1) (w-z+1)
    expected = (
        bp({(1, 0): 2})
        * bp({(0, 1): 1})
        * bp({(1, 0): 1, (0, 0): -1})
        * bp({(0, 1): 1, (0, 0): 1})
        * bp({(0, 1): 1, (1, 0): -1, (0, 0): 1})
    )
    # determinant sign depends on basis order; the factor content matters
    assert e.terms == expected.terms or e.terms == (-expected).terms


def test_search_lv_strict_line_found():
    out = search_darboux(lv_system(Q(-1), Q(0), Q(0)), 1)
    found = {bipoly_str(c.f) for c in out.certificates}
    assert "w - z + 1" in found
    assert {"z", "w"} <= found
    strict = [c for c in out.certificates if c.strict]
    assert len(strict) == 1
    assert bipoly_str(strict[0].cofactor) in ("z + w", "w + z")


def test_search_lv_no_strict_when_b_five():
    out = search_darboux(lv_system(Q(-1), Q(5), Q(0)), 1)
    assert [c for c in out.certificates if c.strict] == []


def test_search_degree_zero_empty():
    out = search_darboux(lv_system(Q(-1), Q(0), Q(0)), 0)
    assert out.certificates == []


def test_search_degree_two_dicritical_flag_lv_special():
    # at (-1, 0, 0) the conic family ((w+1)((1-C)z+C) - z) forces E2 = 0
    out = search_darboux(lv_system(Q(-1), Q(0), Q(0)), 2)
    assert 2 in out.dicritical_degrees


def test_search_saddle_fixture_degree_two():
    out = search_darboux(saddle_line_system(), 2)
    found = {bipoly_str(c.f) for c in out.certificates}
    assert "w + z - 1" in found
    assert "z" in found


def test_extactic_conic_member_lv_special():
    # the degree-2 family member (w+1)(2-z) - z is genuinely invariant
    sys = lv_system(Q(-1), Q(0), Q(0))
    conic = bp({(1, 1): -1, (0, 1): 2, (1, 0): -2, (0, 0): 2})
    cert = verify_darboux(sys, conic)
    assert isinstance(cert, DarbouxCertificate)
    assert cert.strict
