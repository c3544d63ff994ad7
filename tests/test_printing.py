"""The one term writer (``exact.term_sum``) behind every printed polynomial
and field element: against sympy, against the parser, and against the four
printers it replaced, kept here as the reference."""

from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings, strategies as st

from pbound.exact import ExtElem, Level, Tower, UniPoly, _canon, _is_zero, _level_modulus, f_is_zero
from pbound.polyode import BiPoly, OdeError, PuiseuxBranch, bipoly_str, make_system
from pbound.sysparse import parse_system, print_system, tower_description

PRINT_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)
# 1 and -1 often, to reach the sign-only coefficients
RATIONALS = st.sampled_from([0, 0, 1, -1, 1, -1, 2, -3, Q(1, 2), Q(-2, 3), Q(5, 4)])


# ---------------------------------------------------------------------------
# the printers the writer replaced, as they were
# ---------------------------------------------------------------------------

def ref_elem_str(levels, a):
    """``ExtElem._str``: the coordinates in ascending powers of the top level."""
    if not levels:
        return str(a)
    sub = levels[:-1]
    name = levels[-1].name
    parts = []
    for i, c in enumerate(a):
        if _is_zero(sub, c):
            continue
        cs = ref_elem_str(sub, c)
        if i == 0:
            parts.append(cs)
        else:
            power = name if i == 1 else "%s^%d" % (name, i)
            if cs == "1":
                parts.append(power)
            elif cs == "-1":
                parts.append("-" + power)
            elif any(op in cs[1:] for op in "+-") or "*" in cs:
                parts.append("(%s)*%s" % (cs, power))
            else:
                parts.append("%s*%s" % (cs, power))
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def ref_unipoly_str(p):
    """``UniPoly.__repr__``: descending powers."""
    if p.is_zero():
        return "0"
    parts = []
    for i in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[i]
        if f_is_zero(c):
            continue
        cs = str(c)
        if i == 0:
            parts.append(cs)
            continue
        power = p.var if i == 1 else "%s^%d" % (p.var, i)
        if cs == "1":
            parts.append(power)
        elif cs == "-1":
            parts.append("-" + power)
        elif any(op in cs[1:] for op in "+-") or "*" in cs:
            parts.append("(%s)*%s" % (cs, power))
        else:
            parts.append("%s*%s" % (cs, power))
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def ref_signed_term(c, factors, quirks=True):
    """``polyode._signed_term``.  ``quirks=False`` changes its two rules for a
    tower coefficient to the writer's: a compound one is parenthesised only
    before a monomial, and one whose text starts with "-" is subtracted
    (the old rules added "-t0*z" as "+ -t0*z")."""
    neg = False
    if isinstance(c, ExtElem) and c.is_rational():
        c = c.as_fraction()
    if isinstance(c, ExtElem):
        cs = str(c)
        if (factors or quirks) and (any(op in cs[1:] for op in "+-") or "*" in cs):
            cs = "(%s)" % cs
        if not quirks and cs.startswith("-"):
            neg, cs = True, cs[1:]
    else:
        if c < 0:
            neg = True
            c = -c
        cs = "" if c == 1 and factors else str(c)
    text = "*".join(([cs] if cs else []) + factors) or "1"
    return ("- " if neg else "+ ") + text


def ref_join_signed(parts):
    out = " ".join(parts)
    if out.startswith("+ "):
        return out[2:]
    return "-" + out[2:]


def ref_bipoly_str(p, quirks=True):
    """``polyode.bipoly_str``: by descending total degree, then w-degree."""
    if p.is_zero():
        return "0"
    terms = sorted(p.terms.items(), key=lambda kv: (-(kv[0][0] + kv[0][1]), -kv[0][1]))
    parts = []
    for (ze, we), c in terms:
        factors = []
        if ze != 0:
            factors.append("z" if ze == 1 else "z^%d" % ze)
        if we != 0:
            factors.append("w" if we == 1 else "w^%d" % we)
        parts.append(ref_signed_term(c, factors, quirks))
    return ref_join_signed(parts)


def ref_branch_str(b, quirks=True):
    """``PuiseuxBranch.__str__``."""
    if not b.terms:
        return "0"

    def exp_str(e):
        return str(e.numerator) if e.denominator == 1 else "(%s)" % e

    return ref_join_signed([
        ref_signed_term(c, ["z" if mu == 1 else "z^%s" % exp_str(mu)] if mu else [], quirks) for mu, c in b.terms
    ])


def ref_tower_description(tower):
    """``sysparse.tower_description``, with its own term loop."""
    if tower is None or tower.is_trivial():
        return []
    out = []
    for depth, level in enumerate(tower.levels):
        sub = tower.levels[:depth]
        coeff_strs = [(i, ref_elem_str(sub, rep)) for i, rep in enumerate(level.minpoly)]
        terms = []
        for i, s in reversed(coeff_strs):
            if s == "0":
                continue
            if i == 0:
                terms.append(s)
            elif s == "1":
                terms.append(level.name if i == 1 else "%s^%d" % (level.name, i))
            else:
                base = level.name if i == 1 else "%s^%d" % (level.name, i)
                if any(op in s[1:] for op in "+-") or "*" in s:
                    terms.append("(%s)*%s" % (s, base))
                else:
                    terms.append("%s*%s" % (s, base))
        joined = " + ".join(terms).replace("+ -", "- ")
        out.append({"generator": level.name, "minpoly": joined, "presumed_irreducible": False})
    return out


# ---------------------------------------------------------------------------
# strategies: towers of up to two levels, their elements, polynomials
# ---------------------------------------------------------------------------

def draw_rep(draw, levels):
    if not levels:
        return _canon(Q(draw(RATIONALS)))
    return tuple(draw_rep(draw, levels[:-1]) for _ in range(levels[-1].degree))


@st.composite
def towers(draw):
    levels = ()
    for k in range(draw(st.integers(1, 2))):
        degree = draw(st.integers(2, 3))
        low = tuple(draw_rep(draw, levels) for _ in range(degree))
        minpoly = low + (Tower(levels).one().rep,)
        levels += (Level(name="t%d" % k, minpoly=minpoly, degree=degree),)
    return Tower(levels)


@st.composite
def elements(draw, tower):
    return ExtElem(tower, draw_rep(draw, tower.levels))


@st.composite
def coefficients(draw, tower=None):
    """A rational, or an element of ``tower``, nonzero; a rational-valued
    tower element now and then."""
    if tower is None or draw(st.integers(0, 3)) == 0:
        c = draw(RATIONALS.filter(bool))
        return tower.from_fraction(Q(c)) if tower is not None and draw(st.booleans()) else c
    c = draw(elements(tower))
    assume(not c.is_zero())
    return c


@st.composite
def unipolys(draw, tower=None):
    coeffs = draw(st.lists(st.one_of(st.just(0), coefficients(tower)), max_size=5))
    if tower is not None:
        coeffs = [tower.coerce(c) if isinstance(c, ExtElem) else tower.from_fraction(Q(c)) for c in coeffs]
    return UniPoly(coeffs, var="x", tower=tower)


@st.composite
def bipolys(draw, tower=None, max_degree=3):
    keys = draw(st.lists(st.tuples(st.integers(0, max_degree), st.integers(0, max_degree)), max_size=6, unique=True))
    return BiPoly({k: draw(coefficients(tower)) for k in keys})


maybe_towers = st.one_of(st.none(), towers())


# ---------------------------------------------------------------------------
# the writer against the replaced printers
# ---------------------------------------------------------------------------

@PRINT_SETTINGS
@given(towers().flatmap(elements))
def test_field_elements_print_as_before(e):
    assert str(e) == ref_elem_str(e.tower.levels, e.rep)


@PRINT_SETTINGS
@given(maybe_towers.flatmap(unipolys))
def test_unipolys_print_as_before(p):
    assert str(p) == ref_unipoly_str(p)


@PRINT_SETTINGS
@given(bipolys())
def test_rational_bipolys_print_as_before(p):
    assert bipoly_str(p) == ref_bipoly_str(p)


@PRINT_SETTINGS
@given(towers().flatmap(bipolys))
def test_bipolys_over_a_tower_print_as_before_but_for_two_rules(p):
    assert bipoly_str(p) == ref_bipoly_str(p, quirks=False)


@PRINT_SETTINGS
@given(maybe_towers.flatmap(
    lambda t: st.lists(coefficients(t), min_size=0, max_size=4).map(lambda cs: (t, cs))
), st.lists(st.fractions(Q(-3), Q(4), max_denominator=3).filter(bool), min_size=4, max_size=4, unique=True))
def test_branches_print_as_before(tower_coeffs, mus):
    tower, coeffs = tower_coeffs
    b = PuiseuxBranch(terms=tuple(zip(sorted(mus), coeffs)), base=("point", 0, 0), tower=tower)
    assert str(b) == ref_branch_str(b, quirks=False)
    if tower is None:
        assert str(b) == ref_branch_str(b)


@PRINT_SETTINGS
@given(towers())
def test_tower_minpolys_print_as_before_but_for_a_coefficient_minus_one(tower):
    got, want = tower_description(tower), ref_tower_description(tower)
    for g, w in zip(got, want):
        # the old loop printed a coefficient -1 as "- 1*t0"
        assert g == {**w, "minpoly": w["minpoly"].replace("- 1*", "- ")}
    assert len(got) == len(want)


def test_a_minus_one_coefficient_keeps_only_its_sign():
    level = Level(name="t0", minpoly=(1, -1, 1), degree=2)
    tower = Tower((level,))
    assert ref_tower_description(tower)[0]["minpoly"] == "t0^2 - 1*t0 + 1"
    assert tower_description(tower)[0]["minpoly"] == "t0^2 - t0 + 1"
    assert str(_level_modulus(tower.levels, "t0")) == "t0^2 - t0 + 1"


# ---------------------------------------------------------------------------
# the printed text, read back by sympy and by the parser
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sp():
    return pytest.importorskip("sympy")


def sympy_elem(sp, levels, rep):
    if not levels:
        return sp.Rational(Q(rep).numerator, Q(rep).denominator)
    t = sp.Symbol(levels[-1].name)
    return sum(sympy_elem(sp, levels[:-1], c) * t**i for i, c in enumerate(rep))


def sympy_coeff(sp, c):
    if isinstance(c, ExtElem):
        return sympy_elem(sp, c.tower.levels, c.rep)
    return sympy_elem(sp, (), c)


def parsed(sp, text):
    return sp.sympify(text.replace("^", "**"))


@PRINT_SETTINGS
@given(maybe_towers.flatmap(unipolys))
def test_unipolys_parse_in_sympy_to_the_same_polynomial(sp, p):
    x = sp.Symbol("x")
    want = sum(sympy_coeff(sp, c) * x**i for i, c in enumerate(p.coeffs))
    assert sp.expand(parsed(sp, str(p)) - want) == 0


@PRINT_SETTINGS
@given(towers())
def test_every_level_minpoly_parses_in_sympy_to_the_level_modulus(sp, tower):
    levels = tower.levels
    for depth, entry in enumerate(tower_description(tower)):
        t = sp.Symbol(levels[depth].name)
        want = sum(sympy_elem(sp, levels[:depth], c) * t**i for i, c in enumerate(levels[depth].minpoly))
        assert sp.expand(parsed(sp, entry["minpoly"]) - want) == 0


@PRINT_SETTINGS
@given(bipolys(), bipolys())
def test_print_system_round_trips_through_the_parser(P, Qd):
    assume(not P.is_zero() and not Qd.is_zero())
    try:
        system = make_system(P, Qd)
    except OdeError:
        assume(False)
    printed = print_system(system)
    again, _ = parse_system(printed)
    assert (again.P.terms, again.Q.terms) == (system.P.terms, system.Q.terms)
    assert print_system(again) == printed
