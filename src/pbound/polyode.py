"""Bivariate polynomials and planar ODE systems dw/dz = P(z,w)/Q(z,w).

Every exponent is an integer.  A system reached by ramified Newton steps
keeps its z-exponents on one integer scale n (``OdeSystem.n``): key (s, j)
stands for z^(s/n) w^j, as in Duval's rational Puiseux expansions with
z = t^n, so the iterated branch substitutions never rewrite z globally.  All
coefficients are exact: ints or Fractions over the trivial tower, tower
elements otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exact import (
    ExtElem,
    Q,
    Tower,
    _int_gcd,
    _int_poly_mul,
    _int_primitive,
    _primitive_rows,
    _prs_gcd,
    _reduce_int,
    _rows_content,
    ensure_regular,
    f_is_zero,
    f_inv,
    field_one,
    field_zero,
)


class OdeError(Exception):
    """Invalid system or transform request."""


class BiPoly:
    """Sparse exact polynomial in z and w on ``int`` exponent keys.

    An integral ``Fraction`` exponent becomes an ``int``, and any other
    exponent raises ``OdeError``.  A branch system may hold negative
    z-exponents between a Newton step and its normalization
    (``OdeSystem.translate_w``).

    A coefficient is an ``int`` when it is an integral rational, otherwise a
    ``Fraction``, or an ``ExtElem`` of ``tower``.  The two rational types mix
    freely; every division goes through ``f_inv`` or ``Q(a, b)``, so no
    ``int / int`` ever makes a float.

    A polynomial over a tower may keep rational coefficients next to its
    tower elements: ``map_tower`` lifts only the tower elements, since
    ``ExtElem`` arithmetic treats a rational operand componentwise.  Every
    shift over a tower (``translate_w``) returns tower elements only, so
    the first substitution lifts the rest."""

    __slots__ = ("terms", "tower")

    def __init__(self, terms=None, tower: Optional[Tower] = None):
        clean = {}
        if terms:
            for (ze, we), c in terms.items():
                if f_is_zero(c):
                    continue
                if type(ze) is not int or type(we) is not int:
                    ze, we = _int_exponent(ze), _int_exponent(we)
                clean[(ze, we)] = c
        self.terms = clean
        self.tower = tower

    @classmethod
    def _from_clean(cls, terms, tower):
        """A BiPoly on ``terms`` taken as they are: int keys and no zero
        coefficient, so nothing is tested."""
        out = cls.__new__(cls)
        out.terms = terms
        out.tower = tower
        return out

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, tower=None):
        return cls({}, tower=tower)

    @classmethod
    def const(cls, c, tower=None):
        return cls({(0, 0): c}, tower=tower)

    @classmethod
    def monomial(cls, c, ze, we, tower=None):
        return cls({(ze, we): c}, tower=tower)

    # -- queries -------------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def w_degree(self):
        return max((we for (_, we) in self.terms), default=-1)

    def z_degree(self):
        return max((ze for (ze, _) in self.terms), default=-1)

    def total_degree(self):
        return max((ze + we for (ze, we) in self.terms), default=-1)

    def coeff(self, ze, we):
        return self.terms.get((ze, we), field_zero(self.tower))

    # -- ring operations -------------------------------------------------------

    def _merge(self, other, sign):
        out = dict(self.terms)
        for key, c in other.terms.items():
            cur = out.get(key)
            nc = c if sign > 0 else -c
            out[key] = nc if cur is None else cur + nc
        return BiPoly(out, tower=self.tower or other.tower)

    def __add__(self, other):
        return self._merge(other, +1)

    def __sub__(self, other):
        return self._merge(other, -1)

    def __neg__(self):
        return BiPoly._from_clean({k: -c for k, c in self.terms.items()}, self.tower)

    def __mul__(self, other):
        if isinstance(other, BiPoly):
            out = {}
            for (z1, w1), c1 in self.terms.items():
                for (z2, w2), c2 in other.terms.items():
                    key = (z1 + z2, w1 + w2)
                    prod = c1 * c2
                    cur = out.get(key)
                    out[key] = prod if cur is None else cur + prod
            return BiPoly(out, tower=self.tower or other.tower)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c):
        if f_is_zero(c):
            return BiPoly._from_clean({}, self.tower)
        terms = {k: v * c for k, v in self.terms.items()}
        if isinstance(c, ExtElem) and not c.is_rational() and any(
            lv.presumed for lv in c.tower.levels
        ):
            # over a presumed modulus c may be a zero divisor
            return BiPoly(terms, tower=self.tower)
        return BiPoly._from_clean(terms, self.tower)

    def shift_z(self, delta: int):
        """Multiply by z^delta."""
        return BiPoly._from_clean({(ze + delta, we): c for (ze, we), c in self.terms.items()}, self.tower)

    def diff_z(self):
        out = {}
        for (ze, we), c in self.terms.items():
            if ze == 0:
                continue
            out[(ze - 1, we)] = c * ze
        return BiPoly(out, tower=self.tower)

    def diff_w(self):
        out = {}
        for (ze, we), c in self.terms.items():
            if we == 0:
                continue
            out[(ze, we - 1)] = c * we
        return BiPoly(out, tower=self.tower)

    # -- coefficient rings -----------------------------------------------------

    def map_tower(self, tower: Tower):
        """This polynomial over ``tower``: a tower element is coerced into
        it, and a rational coefficient stays as it is (see the class)."""
        return BiPoly._from_clean(
            {k: tower.coerce(c) if isinstance(c, ExtElem) else c for k, c in self.terms.items()}, tower
        )

    # -- printing / identity -----------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, BiPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items(), key=lambda kv: kv[0])))

    def __repr__(self):
        return bipoly_str(self)


def _int_exponent(e) -> int:
    """An exponent as an int; OdeError unless it is an integer."""
    if type(e) is int:
        return e
    if type(e) is Fraction and e.denominator == 1:
        return e.numerator
    raise OdeError("exponent %r is not an integer" % (e,))


def _powers(base: BiPoly, deg, tower=None):
    """[1, base, ..., base^deg], the 1 in ``tower``."""
    pows = [BiPoly.const(field_one(tower), tower=tower), base]
    for _ in range(deg - 1):
        pows.append(pows[-1] * base)
    return pows[: deg + 1]


def bipoly_str(p: BiPoly) -> str:
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
        parts.append(_signed_term(c, factors))
    return _join_signed(parts)


def _signed_term(c, factors) -> str:
    """The term c times the monomial ``factors`` as "+ text" or "- text": a
    rational's sign goes in front, a coefficient 1 is left out, and a tower
    coefficient with more than one symbol is parenthesised."""
    neg = False
    if isinstance(c, ExtElem) and c.is_rational():
        c = c.as_fraction()
    if isinstance(c, ExtElem):
        cs = str(c)
        if any(op in cs[1:] for op in "+-") or "*" in cs:
            cs = "(%s)" % cs
    else:
        if c < 0:
            neg = True
            c = -c
        cs = "" if c == 1 and factors else str(c)
    text = "*".join(([cs] if cs else []) + factors) or "1"
    return ("- " if neg else "+ ") + text


def _join_signed(parts) -> str:
    out = " ".join(parts)
    if out.startswith("+ "):
        return out[2:]
    return "-" + out[2:]


def _exp_str(e: Fraction) -> str:
    return str(e.numerator) if e.denominator == 1 else "(%s)" % e


# ---------------------------------------------------------------------------
# bivariate gcd over Q on Z[z][w] rows (plain exponents)
# ---------------------------------------------------------------------------

def biv_gcd(a: BiPoly, b: BiPoly) -> BiPoly:
    """gcd of plain bivariate polynomials over Q (monic-normalized), taken
    on the integer term dicts of ``_int_terms``; a tower coefficient raises
    ``OdeError``.

    A certificate at integer points comes first.  For z0 = 1, -1, 2, -2, ...,
    skipping 0 (singular points sit on the axes) and the roots of either
    w-leading coefficient, if gcd(a(z0, w), b(z0, w)) is constant for one of
    at most three such z0, then deg_w G = 0 for G = gcd(a, b): the w-leading
    coefficient of G divides that of a, which is nonzero at z0, so G(z0, w)
    keeps the w-degree of G and divides a constant.  Then G is the gcd of
    the contents in Z[z], which is 1 when the coefficient of some power of
    w in a or b is a nonzero constant (``_unit_row``), or when the same
    test at w0, keeping the z-leading coefficients, gives deg_z G = 0.
    When the test at z0 fails, G is the gcd of the contents times the gcd
    of the primitive parts, which the primitive PRS (polynomial remainder
    sequence, ``exact._prs_gcd``) computes on dense int rows in z, one per
    w-power (``_int_rows``).
    """
    ia, ib = _int_terms(a), _int_terms(b)
    if ia is None or ib is None:
        raise OdeError("bivariate gcd requires rational coefficients")
    if not ia:
        return _normalize_biv(b)
    if not ib:
        return _normalize_biv(a)
    tower = a.tower or b.tower
    if _constant_gcd_at_a_point(ia, ib, 0):
        if _unit_row(ia) or _unit_row(ib) or _constant_gcd_at_a_point(ia, ib, 1):
            return BiPoly.const(1, tower=tower)
        return _monic_rows([_rows_content(_int_rows(ia) + _int_rows(ib))], tower)
    ra, rb = _int_rows(ia), _int_rows(ib)
    ca, cb = _rows_content(ra), _rows_content(rb)
    content = _int_gcd(ca, cb)
    gcd = _prs_gcd(_primitive_rows(ra, ca), _primitive_rows(rb, cb))
    return _monic_rows([_int_poly_mul(row, content) for row in gcd], tower)


def _int_rows(terms, axis=0):
    """The int term dict as dense int lists in the variable ``axis`` (0 for
    z, 1 for w), one per power of the other variable, ascending; a zero
    row is []."""
    rows = [[] for _ in range(max(key[1 - axis] for key in terms) + 1)]
    for key, c in terms.items():
        row, e = rows[key[1 - axis]], key[axis]
        if len(row) <= e:
            row.extend([0] * (e + 1 - len(row)))
        row[e] = c
    return rows


def _monic_rows(rows, tower):
    """The BiPoly of int rows by w-power over its (w, z)-leading
    coefficient, with int coefficients where they are integral."""
    lead = rows[-1][-1]
    s = 1 if lead > 0 else -1
    terms = {(ze, we): _over(s * c, s * lead) for we, row in enumerate(rows) for ze, c in enumerate(row) if c}
    return BiPoly._from_clean(terms, tower)


def _int_terms(p: BiPoly):
    """p's term dict scaled by a common denominator to int coefficients;
    None when a coefficient lies in a tower."""
    values = p.terms.values()
    if all(type(c) is int for c in values):
        return p.terms
    if any(isinstance(c, ExtElem) for c in values):
        return None
    den = math.lcm(*(c.denominator for c in values))
    return {k: c.numerator * (den // c.denominator) for k, c in p.terms.items()}


def _primitive_int(p: BiPoly) -> BiPoly:
    """The primitive integer multiple of p, over Q, whose (w, z)-leading
    coefficient, the one ``_normalize_biv`` makes 1, is positive.  Gauss's
    lemma keeps exact quotients of such polynomials in Z[z, w]
    (``bipoly_divexact``)."""
    terms = _int_terms(p)
    if not terms:
        return p
    g = math.gcd(*terms.values())
    if terms[max(terms, key=lambda k: (k[1], k[0]))] < 0:
        g = -g
    if g != 1:
        terms = {k: c // g for k, c in terms.items()}
    return p if terms is p.terms else BiPoly._from_clean(terms, p.tower)


def _constant_gcd_at_a_point(ia, ib, var) -> bool:
    """True when a and b, given as int term dicts, have a constant gcd with
    variable ``var`` (0 for z, 1 for w) set to one of the first three x0 in
    1, -1, 2, -2, ... where neither leading coefficient in the other
    variable vanishes."""
    other = 1 - var
    da = max(k[other] for k in ia)
    db = max(k[other] for k in ib)
    x0 = 0
    tried = 0
    while tried < 3:
        x0 = -x0 if x0 > 0 else 1 - x0
        at_a = _int_specialize(ia, var, x0, da)
        if at_a is None:
            continue
        at_b = _int_specialize(ib, var, x0, db)
        if at_b is None:
            continue
        if da == 0 or db == 0:
            return True
        at_a, at_b = _int_primitive(at_a), _int_primitive(at_b)
        if len(_int_gcd(at_a, at_b)) == 1:
            return True
        tried += 1
    return False


def _unit_row(terms) -> bool:
    """True when the coefficient in Z[z] of some power of w in the int term
    dict is a nonzero constant, so that its content is 1."""
    in_z = {we for ze, we in terms if ze}
    return any(we not in in_z for _, we in terms)


def _int_specialize(terms, var, x0, deg):
    """The coefficients, by ascending power of the other variable, of the
    int term dict with variable ``var`` set to x0; None when the one of
    degree ``deg`` vanishes."""
    vals = [0] * (deg + 1)
    other = 1 - var
    for key, c in terms.items():
        vals[key[other]] += c * x0 ** key[var]
    return vals if vals[deg] else None


def _normalize_biv(p: BiPoly) -> BiPoly:
    if p.is_zero():
        return p
    key = max(p.terms, key=lambda k: (k[1], k[0]))
    return p.scale(f_inv(p.terms[key]))


def bipoly_divexact(num: BiPoly, den: BiPoly) -> Optional[BiPoly]:
    """num / den when the division is exact, else None (plain exponents).

    Plain division in (w, z) lex order on dense w-major rows of num: each
    leading term of the remainder is divided by the leading term of den and
    that multiple of den subtracted.  Every remainder of an exact division
    is a multiple of den, so its leading term is divisible by den's and its
    quotient terms are terms of num/den, whose z-degree is
    deg_z num - deg_z den; the first term that breaks either proves the
    division inexact.

    An ``int`` coefficient divided by an ``int`` leading coefficient stays an
    ``int`` when that division is exact, so an exact quotient of integer
    polynomials by a primitive one, which lies in Z[z, w] by Gauss's lemma,
    never meets a ``Fraction``; any other quotient coefficient is a product
    with the inverse of the leading coefficient.
    """
    if den.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    tower = num.tower or den.tower
    if num.is_zero():
        return BiPoly.zero(tower)
    nz, nw = num.z_degree(), num.w_degree()
    dw = den.w_degree()
    qz_max = nz - den.z_degree()
    if qz_max < 0 or nw < dw:
        return None
    zero = field_zero(tower)
    rows = [[zero] * (nz + 1) for _ in range(nw + 1)]
    for (ze, we), c in num.terms.items():
        rows[we][ze] = c
    dz = max(ze for (ze, we) in den.terms if we == dw)
    lc = den.terms[(dz, dw)]
    lc_inv = f_inv(lc)
    int_lc = type(lc) is int
    rest = [(we, ze, c) for (ze, we), c in den.terms.items() if (ze, we) != (dz, dw)]
    quotient = {}
    for i in range(nw, dw - 1, -1):
        row = rows[i]
        qw = i - dw
        for k in range(nz, -1, -1):
            c = row[k]
            if f_is_zero(c):
                continue
            qz = k - dz
            if not 0 <= qz <= qz_max:
                return None
            qc = c // lc if int_lc and type(c) is int and not c % lc else c * lc_inv
            quotient[(qz, qw)] = qc
            for we, ze, dc in rest:
                target = rows[qw + we]
                target[qz + ze] -= qc * dc
    if any(not f_is_zero(c) for row in rows[:dw] for c in row):
        return None
    return BiPoly(quotient, tower=tower)


# ---------------------------------------------------------------------------
# ODE systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OdeSystem:
    """dw/dz = P/Q with exact coefficients; P is the numerator.

    The z-exponents of P and Q lie on the integer scale ``n``: key (s, j)
    stands for z^(s/n) w^j.  Parsed and transformed systems have n = 1; a
    Newton step of exponent p/q makes a child on lcm(n, q)
    (``translate_w``), so n is the lcm of the step denominators."""

    P: BiPoly
    Q: BiPoly
    tower: Optional[Tower] = None
    n: int = 1

    def __post_init__(self):
        if self.P.is_zero() and self.Q.is_zero():
            raise OdeError("P and Q cannot both vanish")

    def degree(self):
        """max of total degrees (systems with n = 1)."""
        return max(self.P.total_degree(), self.Q.total_degree())

    def map_tower(self, tower: Tower) -> "OdeSystem":
        return OdeSystem(self.P.map_tower(tower), self.Q.map_tower(tower), tower, self.n)

    def translate_w(self, alpha, lam) -> "OdeSystem":
        """The system for w1 after w = alpha z^lam + w1 (lam >= 0):
        Q1 = Q(z, alpha z^lam + w1) and
        P1 = P(z, alpha z^lam + w1) - alpha lam z^(lam-1) Q1, in the same
        z-frame: the sides of ``_shifted_pair``, each coefficient divided
        once by their scale.
        """
        tower = self.tower
        p1, q1, n, scale = _shifted_pair((self.P.terms, self.Q.terms, self.n, tower), alpha, lam)
        return OdeSystem(
            BiPoly._from_clean(_divided(p1, scale, tower), self.P.tower or tower),
            BiPoly._from_clean(_divided(q1, scale, tower), self.Q.tower or tower),
            tower,
            n,
        )

    def normalized(self) -> "OdeSystem":
        """Shift both sides by a common z-power so the lowest exponent is 0."""
        low = min([s for (s, _) in self.P.terms] + [s for (s, _) in self.Q.terms], default=0)
        if not low:
            return self
        return OdeSystem(self.P.shift_z(-low), self.Q.shift_z(-low), self.tower, self.n)


def _shifted_pair(sides, alpha, lam):
    """P1 and Q1 of ``translate_w`` on the term dicts of the pair ``sides``
    = (P, Q, n, tower), as the kernel ``_shift_sides`` gives them: plain
    dicts, zeros kept, on the scale n' = lcm(n, q) for lam = p/q, with n'
    and the positive rational s by which they are multiplied.

    The keys are rescaled only when q does not divide n.  Over Q and over a
    one-level tower the kernel shifts the content-free integer pair of P and
    Q (``_integer_sides``), so s is the product of the two scales.
    """
    p, q, n, tower = sides
    den = lam.denominator
    if n % den:
        k = den // math.gcd(n, den)
        n *= k
        p = {(s * k, j): c for (s, j), c in p.items()}
        q = {(s * k, j): c for (s, j), c in q.items()}
    deg = max(key[1] for side in (p, q) for key in side)
    p, q, scale = _integer_sides(p, q, tower)
    p1, q1, shift_scale = _shift_sides(p.items(), q.items(), alpha, lam, n, deg, tower)
    return p1, q1, n, scale * shift_scale


def _tower_depth(tower) -> int:
    """The number of levels of ``tower``, 0 over Q: ``_shift_sides`` shifts
    integers at depth 0 and 1 and exact coefficients above."""
    return 0 if tower is None else len(tower.levels)


def _integer_sides(p, q, tower):
    """The content-free integer pair of the term dicts p and q, with the
    positive rational s that makes it s (p, q): ints over Q, and ExtElem
    with int coordinate tuples over a one-level tower, where a rational
    coefficient becomes a tower element too.  Over a taller tower p, q and
    1."""
    depth = _tower_depth(tower)
    if depth > 1:
        return p, q, 1
    if depth == 0:
        den = math.lcm(*[c.denominator for side in (p, q) for c in side.values()])
        sides = [{k: c.numerator * (den // c.denominator) for k, c in side.items()} for side in (p, q)]
    else:
        reps = [{k: tower.coerce(c).rep for k, c in side.items()} for side in (p, q)]
        den = math.lcm(*[x.denominator for side in reps for v in side.values() for x in v])
        sides = [{k: [x.numerator * (den // x.denominator) for x in v] for k, v in side.items()} for side in reps]
    p, q, g = _content_free(*sides, tower)
    return p, q, Fraction(den, g)


def _content_free(p1, q1, tower):
    """An integer pair of ``_shift_sides`` over its content g > 0, without
    zeros, and g: ints over Q, ExtElem over a one-level tower.  An exact
    pair, over a taller tower, only loses its zeros (g = 1)."""
    depth = _tower_depth(tower)
    if depth > 1:
        return _nonzero(p1), _nonzero(q1), 1
    if depth == 0:
        g = math.gcd(*p1.values(), *q1.values()) or 1
        p1, q1 = ({k: c // g for k, c in side.items() if c} for side in (p1, q1))
        return p1, q1, g
    g = math.gcd(*[x for side in (p1, q1) for v in side.values() for x in v]) or 1
    p1, q1 = ({k: ExtElem(tower, tuple([x // g for x in v])) for k, v in side.items() if any(v)} for side in (p1, q1))
    return p1, q1, g


def _divided(terms, scale, tower):
    """A side of ``_shift_sides`` over its positive rational ``scale``,
    without zeros: canonical rationals over Q, ExtElem over a one-level
    tower.  A taller tower's exact side only loses its zeros (``scale`` is
    1 there)."""
    depth = _tower_depth(tower)
    if depth > 1:
        return _nonzero(terms)
    num, den = scale.numerator, scale.denominator
    if depth == 0:
        return {k: _over(c * den, num) for k, c in terms.items() if c}
    return {k: ExtElem(tower, tuple([_over(x * den, num) for x in v])) for k, v in terms.items() if any(v)}


def _over(a: int, b: int):
    """a / b for ints, b > 0, as an int when it is integral."""
    return a // b if a % b == 0 else Fraction(a, b)


def _shift_table(alpha, step, deg, tower):
    """Row k lists (shift, j, factor) for each term factor z^shift w^j of
    (alpha z^lam + w)^k, j ascending, shift on the scale n lam = ``step``,
    with exact factors in ``tower``."""
    one = field_one(tower)
    apow = [one]
    for _ in range(deg):
        apow.append(apow[-1] * alpha)
    return [[((k - j) * step, j, apow[k - j] * math.comb(k, j)) for j in range(k + 1)] for k in range(deg + 1)]


def _shift_sides(p_items, q_items, alpha, lam, n, deg, tower):
    """The one shift kernel: P1 and Q1 of ``translate_w`` as plain dicts on
    (n * z-exponent, j) keys, zeros kept, from the (key, coefficient) items
    of P and Q on those keys, and the positive scale s by which P1 and Q1
    are multiplied; ``deg`` bounds the w-degree of P and Q and n lam must
    be an integer.

    A term c z^e w^k gives C(k, j) alpha^(k-j) c at z^(e + (k-j) lam) w^j
    for j <= k; then -alpha lam z^(lam-1) Q1 is added into P1.

    Over Q and over a one-level tower the coefficients are integers
    (``_integer_sides``): ints, or ExtElem with int coordinate tuples; the
    result is ints, or lists of d int coordinates.  With alpha = a / D for
    an integral a, every factor C(k, j) alpha^i is an integer times one
    unit D^deg r^(deg-1), r the denominator of the level's reduction table
    (1 over Q), and every product is one of integers.  Over a tower it is
    summed unreduced, 2d - 1 coordinates to a key, and each key reduced
    once with the table (``_reduce_int``), which multiplies by r.  P's own
    products are scaled by D den r for lam = num/den, so that P1 takes the
    integer multiple -a num of Q1, and Q1 is scaled to match.  s is the
    product of these integers.  Over a taller tower the coefficients and the
    result are exact, the arithmetic that of ``ExtElem``, and s = 1: the
    split of ``exact._mul``.
    """
    num, den = lam.numerator, lam.denominator
    step = num * (n // den)  # n lam
    depth = _tower_depth(tower)
    if depth > 1:
        table = _shift_table(alpha, step, deg, tower)
        q1 = _shift_terms(q_items, table)
        p1 = _shift_terms(p_items, table)
        if num:
            factor = -(alpha * (num if den == 1 else lam))
            _shift_terms(q1.items(), _lam_table(step - n, deg, factor), p1)
        return p1, q1, 1
    if depth == 0:
        a, d = alpha.numerator, alpha.denominator
        powers = [a ** i * d ** (deg - i) for i in range(deg + 1)]  # alpha^i d^deg
        table = [[((k - j) * step, j, powers[k - j] * math.comb(k, j)) for j in range(k + 1)] for k in range(deg + 1)]
        q1 = _shift_terms(q_items, table)
        if not num:
            return _shift_terms(p_items, table), q1, powers[0]
        lead = d * den
        p1 = _shift_terms(p_items, [[(s, j, c * lead) for s, j, c in row] for row in table])
        _shift_terms(q1.items(), _lam_table(step - n, deg, -a * num), p1)
        return p1, {k: c * lead for k, c in q1.items()}, powers[0] * lead
    level = tower.levels[0]
    r, width = level.reduction[1], 2 * level.degree - 1
    rep = tower.coerce(alpha).rep
    d = math.lcm(*[x.denominator for x in rep])
    a = [x.numerator * (d // x.denominator) for x in rep]
    # alpha^i d^deg r^(deg-1) = v_i (d r)^(deg-i) for v_i = r^(i-1) a^i
    unit = d ** deg * r ** (deg - 1) if deg else 1
    powers, v = [[(0, unit)]], a
    for i in range(1, deg + 1):
        if i > 1:
            v = _reduce_int(level, _int_poly_mul(v, a))
        powers.append(_pairs(v, (d * r) ** (deg - i)))
    table = [
        [((k - j) * step, j, [(i, x * math.comb(k, j)) for i, x in powers[k - j]]) for j in range(k + 1)]
        for k in range(deg + 1)
    ]
    acc = _shift_vectors(((k, c.rep) for k, c in q_items), table, width)
    q1 = {k: _reduce_int(level, v) for k, v in acc.items()}
    if not num:
        acc = _shift_vectors(((k, c.rep) for k, c in p_items), table, width)
        return {k: _reduce_int(level, v) for k, v in acc.items()}, q1, unit * r
    lead = d * den * r
    table = [[(s, j, [(i, x * lead) for i, x in f]) for s, j, f in row] for row in table]
    acc = _shift_vectors(((k, c.rep) for k, c in p_items), table, width)
    _shift_vectors(q1.items(), _lam_table(step - n, deg, _pairs(a, -num)), width, acc)
    p1 = {k: _reduce_int(level, v) for k, v in acc.items()}
    return p1, {k: [x * lead for x in v] for k, v in q1.items()}, unit * r * lead


def _lam_table(shift, deg, factor):
    """The table of ``_shift_terms`` that multiplies each w^j, j <= deg, by
    ``factor`` z^shift: for -alpha lam z^(lam-1) Q1, shift = n (lam - 1)."""
    return [[(shift, j, factor)] for j in range(deg + 1)]


def _pairs(coords, m):
    """(index, m x) for each nonzero int coordinate x."""
    return [(i, x * m) for i, x in enumerate(coords) if x]


def _shift_terms(items, table, out=None):
    """The (key, coefficient) items of a side, shifted by ``table`` and
    summed into the plain dict ``out``, or a new one; zeros are kept."""
    out = {} if out is None else out
    for (s, we), c in items:
        for shift, j, factor in table[we]:
            key = (s + shift, j)
            prod = c * factor
            cur = out.get(key)
            out[key] = prod if cur is None else cur + prod
    return out


def _shift_vectors(items, table, width, out=None):
    """``_shift_terms`` on integer coordinate vectors: each product of a
    coefficient and a factor of ``table``, given as (index, int) pairs, is
    added unreduced into the key's list of ``width`` ints."""
    out = {} if out is None else out
    for (s, we), c in items:
        coords = [(i, x) for i, x in enumerate(c) if x]
        for shift, j, factor in table[we]:
            key = (s + shift, j)
            acc = out.get(key)
            if acc is None:
                acc = out[key] = [0] * width
            for i, x in coords:
                for k, y in factor:
                    acc[i + k] += x * y
    return out


def _nonzero(terms):
    """The term dict without its zero coefficients (``f_is_zero``, so a
    product of zero divisors over a presumed tower goes too)."""
    return {k: c for k, c in terms.items() if not f_is_zero(c)}


def make_system(P: BiPoly, Q: BiPoly):
    """Validate and build a top-level system over Q (n = 1, coprime P, Q)."""
    if P.is_zero() or Q.is_zero():
        raise OdeError("P and Q must be nonzero")
    g = biv_gcd(P, Q)
    if g.total_degree() > 0:
        raise OdeError("P and Q share the common factor %s" % bipoly_str(g))
    return OdeSystem(P, Q)


# ---------------------------------------------------------------------------
# coefficient profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoeffProfile:
    """Leading z-data per w-power: k_i and p_{i,0} for P, l_i and q_{i,0} for Q.

    The exponents k_i and l_i are on the integer scale ``n`` of the system
    they were read from.  Absent powers are simply missing from the mappings
    (conceptually +inf).
    """

    p: dict
    q: dict
    n: int = 1


def _leading_entries(terms, powers=None):
    """w-power -> (z-exponent, coefficient) of its lowest unit coefficient,
    for every w-power of a term dict or only those in ``powers``.  A term
    dict holds no zeros as a rule, so the lowest term of each w-power is
    tested first, and the others, in ascending order, only when it is
    zero."""
    low = {}
    for key, c in terms.items():
        we = key[1]
        if powers is None or we in powers:
            cur = low.get(we)
            if cur is None or key[0] < cur[0]:
                low[we] = (key[0], c)
    out = {}
    for we, entry in low.items():
        if not ensure_regular(entry[1]):
            out[we] = entry
            continue
        for ze, c in sorted(((ze, c) for (ze, j), c in terms.items() if j == we), key=lambda t: t[0]):
            if not ensure_regular(c):
                out[we] = (ze, c)
                break
    return out


def coeff_profile(p_terms, q_terms, n=1, fold=False) -> CoeffProfile:
    """The profile of P and Q, given by their term dicts on the scale n:
    every w-power, or with ``fold`` only the entries a 1-fold step reads
    (P at w^0 and w^1, Q at w^0)."""
    if fold:
        return CoeffProfile(_leading_entries(p_terms, (0, 1)), _leading_entries(q_terms, (0,)), n)
    return CoeffProfile(_leading_entries(p_terms), _leading_entries(q_terms), n)


# ---------------------------------------------------------------------------
# Puiseux branches
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PuiseuxBranch:
    """A partial local solution w = w0 + sum alpha_i (z - z0)^{mu_i}."""

    terms: tuple  # ((mu: Fraction, alpha), ...) strictly increasing mu
    base: tuple  # ("point", z0, w0) or ("inf", z0)
    conj_degree: int = 1
    status: str = "open"
    flags: tuple = ()

    def __post_init__(self):
        mus = [mu for mu, _ in self.terms]
        if any(m2 <= m1 for m1, m2 in zip(mus, mus[1:])):
            raise OdeError("branch exponents must increase strictly")
        if self.terms and f_is_zero(self.terms[0][1]):
            raise OdeError("leading branch coefficient must be nonzero")

    def __str__(self):
        if not self.terms:
            return "0"
        return _join_signed([
            _signed_term(c, ["z" if mu == 1 else "z^%s" % _exp_str(mu)] if mu else [])
            for mu, c in self.terms
        ])


# ---------------------------------------------------------------------------
# point transforms: every affine change of coordinates is one matrix for
# ``affine_map`` (a point off the axis, the invariant line of
# ``bounds.line_transform`` and the axes swap of ``lotka.verify_symmetry``);
# a point on the axis takes ``translate_w``, (z0, infinity) an inversion
# ---------------------------------------------------------------------------

def affine_map(sys: OdeSystem, m, at) -> OdeSystem:
    """The system in the coordinates (Z, W) = m (z - z0, w - w0), for an
    invertible m = ((m00, m01), (m10, m11)) and at = (z0, w0).

    The field (zdot, wdot) = (Q, P) becomes m (Q, P), evaluated at
    (z, w) = at + m^-1 (Z, W).  Each side is substituted once, term by term,
    with cached powers of the two affine forms; a zero entry of m leaves its
    side out of m (Q, P) and a unit entry multiplies nothing.  Needs n = 1.
    """
    (m00, m01), (m10, m11) = ((_coerce_scalar(None, x) for x in row) for row in m)
    det = m00 * m11 - m01 * m10
    if f_is_zero(det):
        raise OdeError("singular affine map")
    if sys.n != 1:
        raise OdeError("affine map requires integer exponents")
    inv = f_inv(det)
    # z = z0 + (m11 Z - m01 W) / det, w = w0 + (m00 W - m10 Z) / det
    z_form = BiPoly({(0, 0): _coerce_scalar(None, at[0]), (1, 0): m11 * inv, (0, 1): -m01 * inv})
    w_form = BiPoly({(0, 0): _coerce_scalar(None, at[1]), (1, 0): -m10 * inv, (0, 1): m00 * inv})
    zpows = _powers(z_form, max(sys.P.z_degree(), sys.Q.z_degree()))
    wpows = _powers(w_form, max(sys.P.w_degree(), sys.Q.w_degree()))
    subst = []
    for side in (sys.Q, sys.P):
        out = {}
        for (i, j), c in side.terms.items():
            for (z1, w1), c1 in zpows[i].terms.items():
                cc = c * c1
                for (z2, w2), c2 in wpows[j].terms.items():
                    key = (z1 + z2, w1 + w2)
                    prod = cc * c2
                    cur = out.get(key)
                    out[key] = prod if cur is None else cur + prod
        subst.append(out)
    tower = sys.tower or sys.P.tower or sys.Q.tower
    new = []
    for row in ((m10, m11), (m00, m01)):  # P, then Q
        out = {}
        for f, side in zip(row, subst):
            if f_is_zero(f):
                continue
            unit = f == 1
            for key, c in side.items():
                prod = c if unit else c * f
                cur = out.get(key)
                out[key] = prod if cur is None else cur + prod
        new.append(BiPoly(out, tower=tower))
    return OdeSystem(new[0], new[1], tower=sys.tower)


def translate_point(sys: OdeSystem, z0, w0) -> OdeSystem:
    """Move the point (z0, w0) to the origin.

    On the axis z0 = 0 this is the shift w -> w0 + w of ``translate_w`` (the
    identity at the origin); only z0 != 0 takes ``affine_map``."""
    if f_is_zero(z0):
        if f_is_zero(w0):
            return sys
        return sys.translate_w(_coerce_scalar(sys.tower, w0), 0)
    return affine_map(sys, ((1, 0), (0, 1)), (z0, w0))


def invert_at_infinity(sys: OdeSystem, z0=Q(0)) -> OdeSystem:
    """Move (z0, infinity) to the origin via wbar = 1/w.

    dwbar/dz = -wbar^2 F(z, 1/wbar); common monomial content (powers of z and
    wbar) is cancelled afterwards.
    """
    tower = sys.tower
    if not f_is_zero(z0):
        sys = translate_point(sys, z0, 0)
    D = max(sys.P.w_degree(), sys.Q.w_degree())
    Pb = BiPoly({(ze, D - we + 2): -c for (ze, we), c in sys.P.terms.items()}, tower=tower)
    Qb = BiPoly({(ze, D - we): c for (ze, we), c in sys.Q.terms.items()}, tower=tower)
    dz = min(min((ze for (ze, _) in Pb.terms), default=0), min((ze for (ze, _) in Qb.terms), default=0))
    dw = min(min((we for (_, we) in Pb.terms), default=0), min((we for (_, we) in Qb.terms), default=0))
    if dz or dw:
        Pb = BiPoly({(ze - dz, we - dw): c for (ze, we), c in Pb.terms.items()}, tower=tower)
        Qb = BiPoly({(ze - dz, we - dw): c for (ze, we), c in Qb.terms.items()}, tower=tower)
    return OdeSystem(Pb, Qb, tower=tower)


def transform_point(sys: OdeSystem, target) -> OdeSystem:
    """Dispatch: ("point", z0, w0) or ("inf", z0)."""
    kind = target[0]
    if kind == "point":
        return translate_point(sys, target[1], target[2])
    if kind == "inf":
        return invert_at_infinity(sys, target[1])
    raise OdeError("unknown transform target %r" % (target,))


def _coerce_scalar(tower, x):
    if isinstance(x, ExtElem) or type(x) is int and (tower is None or tower.is_trivial()):
        return x
    x = Q(x)
    if tower is None or tower.is_trivial():
        return x.numerator if x.denominator == 1 else x
    return tower.from_fraction(x)


# ---------------------------------------------------------------------------
# branch substitution
# ---------------------------------------------------------------------------

def substitute_branch(sys: OdeSystem, lam, alpha) -> OdeSystem:
    """Remainder system for w1 after w = alpha z^lam + w1.

    Implements Q1(z,w1) = Q(z, alpha z^lam + w1) and
    P1(z,w1) = P(z, alpha z^lam + w1) - alpha lam z^(lam-1) Q(z, alpha z^lam + w1),
    then shifts the common z-power so all exponents are nonnegative.
    """
    lam = Q(lam)
    if lam <= 0:
        raise OdeError("branch exponent must be positive")
    if f_is_zero(alpha):
        raise OdeError("branch coefficient must be nonzero")
    return sys.translate_w(alpha, lam).normalized()
