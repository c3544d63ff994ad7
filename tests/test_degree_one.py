"""The Darboux search's degree 1 is line detection.

``reference_degree_one`` is the search's degree-1 step as it was: the
extactic determinant E_1, its known factors peeled, its invariant core and
the split of that core.  The search now reads degree 1 from
``detect_invariant_lines``.  With zdot and wdot nonzero, E_1 vanishes
identically exactly when the detection reports a line family, and an
irreducible invariant factor of a nonzero E_1 is a line, so the two agree
wherever E_1's residual is within ``CORE_DEGREE_CAP`` and no cap stopped the
detection.
"""

import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, strategies as st

from pbound import darboux
from pbound.darboux import (
    CORE_DEGREE_CAP,
    DarbouxCertificate,
    SearchOutcome,
    detect_invariant_lines,
    extactic_determinant,
    invariant_core,
    search_darboux,
    verify_darboux,
)
from pbound.polyode import OdeError, _primitive_int, bipoly_divexact, bipoly_str, make_system
from pbound.sysparse import parse_system
from test_bounds import _census_style, _corpus_pair
from test_darboux import DET_SETTINGS, bp, lv_system, quadratic_systems, saddle_line_system, small_polys


def reference_degree_one(sys, detection):
    """``search_darboux(sys, 1, detection)`` as it was, from E_1."""
    certs = list(detection.lines)
    notes = ["one-parameter family of invariant lines"] if detection.dicritical else []
    e = extactic_determinant(sys, 1)
    if e.is_zero():
        return SearchOutcome(darboux._dedupe_certs(certs), (1,), tuple(notes))
    e = darboux._peel_axes(_primitive_int(e))
    for cert in certs:
        known = _primitive_int(cert.f)
        if len(known.terms) == 1:
            continue
        while e.total_degree() > 0 and (quotient := bipoly_divexact(e, known)) is not None:
            e = quotient
    partial = False
    if e.total_degree() > CORE_DEGREE_CAP:
        notes.append("degree 1: invariant-core extraction skipped on a degree-%d residual" % e.total_degree())
        partial = True
    elif e.total_degree() > 0:
        candidates, leftover = darboux._core_factors(darboux._biv_squarefree(invariant_core(sys, e)), 1)
        if leftover:
            notes.append("degree 1: %s" % leftover)
            partial = True
        for cand in candidates:
            cert = verify_darboux(sys, cand)
            if isinstance(cert, DarbouxCertificate):
                certs.append(cert)
    return SearchOutcome(darboux._dedupe_certs(certs), (), tuple(notes), partial)


def residual_degree(sys, detection):
    """The total degree of E_1 without z, w and the detected lines."""
    e = darboux._peel_axes(_primitive_int(extactic_determinant(sys, 1)))
    for cert in detection.lines:
        known = _primitive_int(cert.f)
        while len(known.terms) > 1 and e.total_degree() > 0 and (q := bipoly_divexact(e, known)) is not None:
            e = q
    return e.total_degree()


def compared(systems):
    """Assert the new degree 1 equals the reference on each system whose
    detection is not capped; returns how many were compared."""
    count = 0
    for sys in systems:
        detection = detect_invariant_lines(sys)
        if detection.capped:
            continue
        want = reference_degree_one(sys, detection)
        assert search_darboux(sys, 1, detection).to_report() == want.to_report(), sys
        count += 1
    return count


def coprime_systems(pairs):
    out = []
    for p, q in pairs:
        try:
            out.append(make_system(p, q))
        except OdeError:
            continue
    return out


def census_style_systems(seed, count):
    rng = random.Random(seed)
    return coprime_systems([_census_style(rng) for _ in range(count)] + [_corpus_pair(rng) for _ in range(count)])


def test_degree_one_matches_e1_on_census_style_systems():
    systems = census_style_systems(44, 40)
    assert compared(systems) >= 60


def test_degree_one_matches_e1_on_an_lv_grid():
    # zdot = z (z + c w - 1), wdot = w (b z + w - a), where coprime
    values = [Q(-2), Q(-1), Q(-1, 2), Q(0), Q(1, 3), Q(1), Q(3)]
    pairs = [
        (bp({(1, 1): b, (0, 2): 1, (0, 1): -a}), bp({(2, 0): 1, (1, 1): c, (1, 0): -1}))
        for a in values
        for b in (Q(0), Q(1), Q(5))
        for c in values
    ]
    systems = coprime_systems(pairs)
    assert len(systems) > 130
    assert compared(systems) == len(systems)


# products of conjugate lines: sloped through the origin, sloped and
# parallel, and axis-parallel in z and in w
FAMILIES = [
    bp({(0, 2): 1, (2, 0): -2}),  # w = +-sqrt(2) z
    bp({(0, 2): 1, (1, 1): -2, (2, 0): -1}),  # w = (1 +- sqrt(2)) z
    bp({(0, 2): 1, (1, 1): -4, (2, 0): 4, (0, 0): -3}),  # w = 2 z +- sqrt(3)
    bp({(2, 0): 1, (1, 0): -1, (0, 0): 1}),  # z^2 - z + 1
    bp({(0, 2): 1, (0, 0): -2}),  # w^2 - 2
]


@DET_SETTINGS
@given(st.sampled_from(FAMILIES), small_polys(2))
def test_degree_one_matches_e1_on_hamiltonian_fields_with_a_planted_family(family, g):
    # zdot = -H_w, wdot = H_z for H = family * g: the family is invariant
    h = family * g
    systems = coprime_systems([(h.diff_z(), h.diff_w().scale(Q(-1)))])
    assert compared(systems) == len(systems)
    for sys in systems:
        detection = detect_invariant_lines(sys)
        assert detection.dicritical or detection.families


# the Hamiltonian field of (w^2 - 2 z^2 + 3)^2 - 12 w^2, whose lines
# w = +-sqrt(2) z +- sqrt(3) are one sloped family of degree 4
HAMILTONIAN = "dz/dt = 4*w^3 - 8*w*z^2 - 12*w; dw/dt = 8*w^2*z - 16*z^3 + 24*z"
PROBES = {
    # the axis-parallel families z^2 - z + 1 and w^2 - 2, and the line z + 1
    "axis-families": (
        "dz/dt = (z^2 - z + 1)*(z + 1)*w; dw/dt = (w^2 - 2)*(z - w)",
        ["z + 1", "w^2 - 2", "z^2 - z + 1"],
        (),
    ),
    "sloped-hamiltonian": (HAMILTONIAN, [], ("degree 1: unsplit invariant factor of degree 4",)),
    "sloped-sqrt2": ("dz/dt = w; dw/dt = 2*z", [], ("degree 1: unsplit invariant factor of degree 2",)),
    # w = +-i z: a sloped family t0^2 + 1
    "center": ("dz/dt = -w; dw/dt = z", [], ("degree 1: unsplit invariant factor of degree 2",)),
    # w = z, and the sloped families of s^2 + s + 1 and s^6 + s^3 + 1
    "nine-slopes": ("dz/dt = w^8; dw/dt = z^8", ["w - z"], ("degree 1: unsplit invariant factor of degree 8",)),
    "radial": ("dz/dt = z; dw/dt = w", ["w", "z"], ("one-parameter family of invariant lines",)),
    "parallel": ("dz/dt = 1; dw/dt = 2", [], ("one-parameter family of invariant lines",)),
    "saddle": ("dw/dz = (w^2 - 2*w + 1 - z) / (z*w)", ["w + z - 1", "z"], ()),
}


@pytest.mark.parametrize("name", sorted(PROBES))
def test_degree_one_matches_e1_on_probes(name):
    text, certificates, notes = PROBES[name]
    sys = parse_system(text)[0]
    assert compared([sys]) == 1
    out = search_darboux(sys, 1)
    assert [bipoly_str(c.f) for c in out.certificates] == certificates
    assert out.notes == notes
    assert out.partial == any(note.startswith("degree 1") for note in notes)
    assert out.dicritical_degrees == ((1,) if name in ("radial", "parallel") else ())


@DET_SETTINGS
@given(quadratic_systems())
def test_e1_vanishes_exactly_on_a_line_family(sys):
    if sys.P.is_zero() or sys.Q.is_zero():
        return
    assert extactic_determinant(sys, 1).is_zero() == detect_invariant_lines(sys).dicritical


def test_e1_vanishes_exactly_on_a_line_family_on_census_style_systems_and_probes():
    systems = census_style_systems(45, 30) + [parse_system(text)[0] for text, _, _ in PROBES.values()]
    flags = [extactic_determinant(sys, 1).is_zero() for sys in systems]
    assert flags == [detect_invariant_lines(sys).dicritical for sys in systems]
    assert any(flags) and not all(flags)


LV_SPECIAL = lv_system(Q(-1), Q(0), Q(0))


@pytest.mark.parametrize(
    "sys",
    [LV_SPECIAL, lv_system(Q(-1), Q(5), Q(0)), saddle_line_system(), parse_system(HAMILTONIAN)[0]]
    + census_style_systems(46, 3),
)
def test_the_search_never_builds_e1(monkeypatch, sys):
    calls = []
    real = darboux.extactic_determinant

    def spy(sys, n):
        calls.append(n)
        return real(sys, n)

    monkeypatch.setattr(darboux, "extactic_determinant", spy)
    out = search_darboux(sys, 2)
    assert 1 not in calls
    assert 1 not in out.dicritical_degrees
    if sys is LV_SPECIAL:
        # its lines' first integral w z / (w - z + 1) decides E_2 = 0
        assert calls == [] and out.dicritical_degrees == (2,)


def test_a_large_e1_residual_no_longer_makes_degree_one_partial():
    # a degree-6 field with the axis family z^2 + 1: E_1's residual is past
    # the core cap, so the old step skipped it; detection certifies the family
    sys = parse_system("dz/dt = (z^2 + 1)*(w^4 + z*w^3 + 2); dw/dt = w^6 + z^5 - 3*z*w + 1")[0]
    detection = detect_invariant_lines(sys)
    assert not detection.capped and residual_degree(sys, detection) > CORE_DEGREE_CAP
    old = reference_degree_one(sys, detection)
    assert old.partial and old.notes[0].startswith("degree 1: invariant-core extraction skipped")
    new = search_darboux(sys, 1, detection)
    assert [bipoly_str(c.f) for c in new.certificates] == ["z^2 + 1"]
    assert not new.partial and new.notes == ()


def test_a_capped_detection_leaves_degree_one_partial():
    # s^10 - 2 is past the factor cap: its lines are not known, and the
    # search says so in the detection's own words
    sys = parse_system("dz/dt = w^9; dw/dt = 2*z^9")[0]
    detection = detect_invariant_lines(sys)
    assert detection.capped == ("slope polynomial beyond factor cap: -z^10 + 2",)
    out = search_darboux(sys, 1, detection)
    assert out.partial and out.certificates == []
    assert out.notes == ("degree 1: slope polynomial beyond factor cap: -z^10 + 2",)
    assert reference_degree_one(sys, detection).partial


def test_unbounded_slopes_are_a_capped_detection(monkeypatch):
    # r (r - 1), r (r - s) and (r - 1)(r + s), in (s, r) on the (z, w) slots,
    # have no common factor, but each pair does: no resultant bounds s, and
    # the common zero (1, 1) is not found.  The detection is capped, so the
    # search is partial
    r, s = bp({(0, 1): 1}), bp({(1, 0): 1})
    one = bp({(0, 0): 1})
    conditions = [r * (r - one), r * (r - s), (r - one) * (r + s)]
    assert darboux._solve_two_var_system(conditions) == ("partial", [], (), ["could not bound line slopes"])
    monkeypatch.setattr(darboux, "_sloped_line_conditions", lambda a, b: conditions)
    detection = detect_invariant_lines(lv_system(Q(-1), Q(5), Q(0)))
    assert detection.capped == detection.notes == ("could not bound line slopes",)
    out = search_darboux(lv_system(Q(-1), Q(5), Q(0)), 1, detection)
    assert out.partial and out.notes == ("degree 1: could not bound line slopes",)
