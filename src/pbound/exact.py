"""Exact arithmetic foundation.

Everything downstream computes over exact fields only: arbitrary-precision
rationals (``fractions.Fraction``), univariate polynomials over such a field,
and algebraic extension towers Q(t0)(t1)... whose every level is certified
irreducible: over Q by ``factor_univariate``, and over a tower by Trager's
norm (``split_tower``), so every tower is a field.  A factor that cannot
be certified is never adjoined.  No floating point is used anywhere.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Union

Q = Fraction

FieldElement = Union[Fraction, "ExtElem"]

#: primes of the distinct-degree patterns that certify or split a factor over Q
_CERT_PRIMES = (7, 11, 13, 17, 19, 23, 29, 31)

DEFAULT_TOWER_CAP = 16
DEFAULT_FACTOR_CAP = 8
#: subsets of modular factors Zassenhaus's recombination may try
RECOMBINATION_EFFORT = 20000


class ExactError(Exception):
    """Invalid request at the exact-arithmetic layer (bad adjoin, caps, ...)."""


# ---------------------------------------------------------------------------
# rational predicates
# ---------------------------------------------------------------------------

def in_q_plus(x) -> bool:
    """Exact membership in Q+ (strictly positive rationals)."""
    if isinstance(x, ExtElem):
        if not x.is_rational():
            return False
        x = x.as_fraction()
    return x > 0


def in_q_minus(x) -> bool:
    """Exact membership in Q- (strictly negative rationals)."""
    if isinstance(x, ExtElem):
        if not x.is_rational():
            return False
        x = x.as_fraction()
    return x < 0


def as_fraction(x) -> Fraction:
    if isinstance(x, ExtElem):
        return x.as_fraction()
    return Fraction(x)


def is_rational_value(x) -> bool:
    return not isinstance(x, ExtElem) or x.is_rational()


# ---------------------------------------------------------------------------
# nested-representation helpers
#
# An element of a tower with levels L1..Lk is a tuple of length deg(Lk) whose
# entries are elements of the sub-tower L1..L(k-1).  The base case is a
# rational: an int when it is integral and a Fraction only otherwise, so the
# coordinates of integral elements never pay for Fraction arithmetic.
# All helpers below work on (levels, rep) pairs so they can recurse; a
# one-level tower (a number field over Q) acts on its coordinate tuple
# directly.
# ---------------------------------------------------------------------------

def _canon(q):
    """A rational base entry: the int for an integral q, else q itself."""
    return q.numerator if q.denominator == 1 else q


def _zero(levels):
    if not levels:
        return 0
    return (_zero(levels[:-1]),) * levels[-1].degree


def _const(levels, q):
    if not levels:
        return _canon(q if isinstance(q, (int, Fraction)) else Q(q))
    sub = levels[:-1]
    return (_const(sub, q),) + (_zero(sub),) * (levels[-1].degree - 1)


def _is_zero(levels, a) -> bool:
    if not levels:
        return a == 0
    if len(levels) == 1:
        return not any(a)
    sub = levels[:-1]
    return all(_is_zero(sub, c) for c in a)


def _add(levels, a, b):
    if not levels:
        return _canon(a + b)
    if len(levels) == 1:
        return tuple([_canon(x + y) for x, y in zip(a, b)])
    sub = levels[:-1]
    return tuple(_add(sub, x, y) for x, y in zip(a, b))


def _neg(levels, a):
    if not levels:
        return -a
    if len(levels) == 1:
        return tuple([-x for x in a])
    sub = levels[:-1]
    return tuple(_neg(sub, x) for x in a)


def _sub(levels, a, b):
    return _add(levels, a, _neg(levels, b))


def _scale(levels, a, q):
    if not levels:
        return _canon(a * q)
    if len(levels) == 1:
        return tuple([_canon(x * q) for x in a])
    sub = levels[:-1]
    return tuple(_scale(sub, x, q) for x in a)


def _add_const(levels, a, q):
    """a + q for a rational q: only the constant component changes."""
    if not levels:
        return _canon(a + q)
    return (_add_const(levels[:-1], a[0], q),) + a[1:]


def _mul_sub(sub, a, b):
    if not sub:
        return _canon(a * b)
    return _mul(sub, a, b)


def _rational_value(levels, a):
    """The base entry of a rational element (all non-constant components
    zero, at every level); None for any other element."""
    while levels:
        sub = levels[:-1]
        if any(a[1:]) if not sub else not all(_is_zero(sub, c) for c in a[1:]):
            return None
        a = a[0]
        levels = sub
    return a


def _reduce_list(levels, coeffs):
    """Reduce a coefficient list modulo the top-level monic modulus."""
    level = levels[-1]
    sub = levels[:-1]
    d = level.degree
    m = level.minpoly  # monic, length d+1
    work = list(coeffs)
    for i in range(len(work) - 1, d - 1, -1):
        c = work[i]
        if _is_zero(sub, c):
            continue
        for j in range(d):
            work[i - d + j] = _sub(sub, work[i - d + j], _mul_sub(sub, c, m[j]))
        work[i] = _zero(sub)
    work = work[:d]
    while len(work) < d:
        work.append(_zero(sub))
    return tuple(work)


def _mul(levels, a, b):
    """Product in the tower; an operand whose non-constant components are all
    zero scales the other componentwise, with no reduction."""
    if not levels:
        return _canon(a * b)
    sub = levels[:-1]
    if not sub:
        if not any(a[1:]):
            return _scale(levels, b, a[0])
        if not any(b[1:]):
            return _scale(levels, a, b[0])
        return _mul_rational(levels[0], a, b)
    if all(_is_zero(sub, x) for x in a[1:]):
        return tuple(_mul_sub(sub, a[0], y) for y in b)
    if all(_is_zero(sub, y) for y in b[1:]):
        return tuple(_mul_sub(sub, x, b[0]) for x in a)
    d = levels[-1].degree
    prod = [_zero(sub) for _ in range(2 * d - 1)]
    for i, x in enumerate(a):
        if _is_zero(sub, x):
            continue
        for j, y in enumerate(b):
            if _is_zero(sub, y):
                continue
            prod[i + j] = _add(sub, prod[i + j], _mul_sub(sub, x, y))
    return _reduce_list(levels, prod)


def _mul_rational(level, a, b):
    """Product in Q[x]/(m) on integers: both operands are scaled to integer
    vectors over one denominator each, multiplied, and reduced with the
    level's table of x^(d+k) mod m; a result becomes a Fraction only when
    the common denominator does not divide it."""
    da = math.lcm(*[x.denominator for x in a])
    db = math.lcm(*[y.denominator for y in b])
    ia = [x.numerator * (da // x.denominator) for x in a]
    ib = [y.numerator * (db // y.denominator) for y in b]
    out = _reduce_int(level, _int_poly_mul(ia, ib))
    total = da * db * level.reduction[1]
    if total == 1:
        return tuple(out)
    return tuple([v // total if v % total == 0 else Q(v, total) for v in out])


def _reduce_int(level, prod):
    """The integer coefficient list ``prod`` of length 2d - 1, reduced
    modulo the modulus of a level over Q with the level's table: a list of
    d ints, r times the reduced value for the table's denominator r."""
    rows, den = level.reduction
    d = level.degree
    out = [v * den for v in prod[:d]] if den != 1 else prod[:d]
    for v, row in zip(prod[d:], rows):
        if v:
            for j, r in enumerate(row):
                out[j] += v * r
    return out


def _inv(levels, a):
    """Exact inverse of a nonzero element; every level is certified
    irreducible, so the tower is a field.

    A rational element's inverse is the rational inverse embedded.  At a
    level over Q the inverse is solved on integers by Cramer's rule
    (``_inv_rational``); above the first level extended Euclid
    (``_euclid_inverse``) runs."""
    q = _rational_value(levels, a)
    if q is not None:
        if q == 0:
            raise ZeroDivisionError("division by zero")
        return _const(levels, _canon(1 / Q(q)))
    if len(levels) == 1:
        return _inv_rational(levels[0], a)
    return _euclid_inverse(levels, a)


def _euclid_inverse(levels, a):
    """The inverse of a modulo the top modulus m by extended Euclid in K[x],
    K the tower below, on ``UniPoly``; m is irreducible, so the last
    nonzero remainder is a constant."""
    m = _level_modulus(levels, "x")
    r0, r1 = m, _coords_poly(m.tower, a, "x")
    t0, t1 = UniPoly([], tower=m.tower), UniPoly([field_one(m.tower)], tower=m.tower)
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        t0, t1 = t1, t0 - q * t1
    return _reduce_list(levels, _poly_coords(t0.scale(f_inv(r0.coeffs[0]))))


def _inv_rational(level, a):
    """The inverse of a in Q[x]/(m) by Cramer's rule on Z.

    With a scaled to an integer vector over the lcm s of its denominators
    and the level's reduction table on its denominator r, N = s r M is the
    integer matrix of multiplication by a.  Then y = M^-1 e0 has
    y_i = s r C_i / det N for the cofactors C_i of N's first row, and
    det N is the sum of that row's entries times their cofactors."""
    s = math.lcm(*[x.denominator for x in a])
    ia = [x.numerator * (s // x.denominator) for x in a]
    d = level.degree
    rows, r = level.reduction
    # column j of N: a x^j reduced modulo m, times s r
    cols = []
    for j in range(d):
        col = [0] * d
        for i, x in enumerate(ia):
            if not x:
                continue
            if i + j < d:
                col[i + j] += x * r
            else:
                for k, v in enumerate(rows[i + j - d]):
                    col[k] += x * v
        cols.append(col)
    lower = [[col[i] for col in cols] for i in range(1, d)]
    cofactors = []
    for i in range(d):
        minor = bareiss_det([row[:i] + row[i + 1:] for row in lower])
        cofactors.append(-minor if i & 1 else minor)
    det = sum(col[0] * c for col, c in zip(cols, cofactors))
    scale = s * r
    out = []
    for c in cofactors:
        v = c * scale
        out.append(v // det if v % det == 0 else Q(v, det))
    return tuple(out)


def _flatten(levels, a, out):
    if not levels:
        out.append(a)
        return
    for c in a:
        _flatten(levels[:-1], c, out)


# ---------------------------------------------------------------------------
# towers and their elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Level:
    name: str
    minpoly: tuple  # monic coefficient list (reps over the sub-tower)
    degree: int

    @functools.cached_property
    def reduction(self):
        """(rows, den) with x^(d+k) = sum_j rows[k][j] x^j / den modulo the
        modulus, for k = 0 .. d-2; only for a level over Q."""
        d = self.degree
        m = self.minpoly
        row = [-c for c in m[:d]]
        fracs = []
        for _ in range(d - 1):
            fracs.append(row)
            top = row[-1]
            row = [-top * m[0]] + [row[j - 1] - top * m[j] for j in range(1, d)]
        den = math.lcm(*[c.denominator for r in fracs for c in r])
        return [[c.numerator * (den // c.denominator) for c in r] for r in fracs], den


class Tower:
    """An extension tower over Q; immutable.  The empty tower is Q itself."""

    __slots__ = ("levels", "_sig", "_hash")

    def __init__(self, levels=()):
        self.levels = tuple(levels)
        flat = []
        for lv in self.levels:
            part = []
            for c in lv.minpoly:
                _flatten(self.levels[: self.levels.index(lv)], c, part)
            flat.append((lv.name, lv.degree, tuple(part)))
        self._sig = tuple(flat)
        self._hash = hash(self._sig)

    def degree(self) -> int:
        d = 1
        for lv in self.levels:
            d *= lv.degree
        return d

    def is_trivial(self) -> bool:
        return not self.levels

    def signature(self):
        return self._sig

    def __eq__(self, other):
        return isinstance(other, Tower) and self._sig == other._sig

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if not self.levels:
            return "Q"
        return "Q(" + ", ".join(lv.name for lv in self.levels) + ")"

    def zero(self) -> "ExtElem":
        return ExtElem(self, _zero(self.levels))

    def one(self) -> "ExtElem":
        return ExtElem(self, _const(self.levels, 1))

    def from_fraction(self, q) -> "ExtElem":
        return ExtElem(self, _const(self.levels, q))

    def coerce(self, x) -> "ExtElem":
        if isinstance(x, ExtElem):
            if x.tower == self:
                return ExtElem(self, x.rep)
            n = len(x.tower.levels)
            if n < len(self.levels) and x.tower.signature() == Tower(self.levels[:n]).signature():
                rep = x.rep
                for depth in range(n, len(self.levels)):
                    pad = [_zero(self.levels[:depth])] * self.levels[depth].degree
                    pad[0] = rep
                    rep = tuple(pad)
                return ExtElem(self, rep)
            if x.is_rational():
                return self.from_fraction(x.as_fraction())
            raise ExactError("cannot coerce element of %r into %r" % (x.tower, self))
        return self.from_fraction(x)

    def generator(self, index: int) -> "ExtElem":
        levels = self.levels
        if index < 0 or index >= len(levels):
            raise ExactError("no generator %d" % index)
        if levels[index].degree < 2:
            raise ExactError("generator %d has collapsed to a constant" % index)
        inner = list(_zero(levels[: index + 1]))
        inner[1] = _const(levels[:index], 1)
        inner = tuple(inner)
        for up in range(index + 1, len(levels)):
            outer = [_zero(levels[:up])] * levels[up].degree
            outer[0] = inner
            inner = tuple(outer)
        return ExtElem(self, inner)


QQ_TOWER = Tower(())


class ExtElem:
    """An element of an extension tower, in dense nested representation.

    ``rep`` nests one coordinate tuple per level; its rational coordinates
    are ints when integral and Fractions otherwise (see the helpers above).
    """

    __slots__ = ("tower", "rep")

    def __init__(self, tower: Tower, rep):
        self.tower = tower
        self.rep = rep

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return _is_zero(self.tower.levels, self.rep)

    def is_rational(self) -> bool:
        return _rational_value(self.tower.levels, self.rep) is not None

    def as_fraction(self) -> Fraction:
        q = _rational_value(self.tower.levels, self.rep)
        if q is None:
            raise ExactError("element is not rational: %s" % self)
        return Q(q)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, ExtElem):
            if other.tower == self.tower:
                return other
            q = _rational_value(other.tower.levels, other.rep)
            if q is not None:
                return self.tower.from_fraction(q)
            raise ExactError("tower mismatch: %r vs %r" % (self.tower, other.tower))
        if isinstance(other, (int, Fraction)):
            return self.tower.from_fraction(other)
        return None

    # A rational operand (int or Fraction) acts componentwise: it is never
    # coerced into the tower, and a product with it needs no reduction.

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return ExtElem(self.tower, _add_const(self.tower.levels, self.rep, other))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExtElem(self.tower, _add(self.tower.levels, self.rep, o.rep))

    __radd__ = __add__

    def __neg__(self):
        return ExtElem(self.tower, _neg(self.tower.levels, self.rep))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return ExtElem(self.tower, _add_const(self.tower.levels, self.rep, -other))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExtElem(self.tower, _sub(self.tower.levels, self.rep, o.rep))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return ExtElem(self.tower, _scale(self.tower.levels, self.rep, other))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExtElem(self.tower, _mul(self.tower.levels, self.rep, o.rep))

    __rmul__ = __mul__

    def inverse(self) -> "ExtElem":
        """The inverse; a rational element's is its rational inverse."""
        return ExtElem(self.tower, _inv(self.tower.levels, self.rep))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        """self^n by squaring from the top bit: x**2 is one product."""
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return self.tower.one()
        result = self
        for bit in bin(n)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            q = _rational_value(self.tower.levels, self.rep)
            return q is not None and q == other
        if isinstance(other, ExtElem):
            if other.tower == self.tower:
                return self.rep == other.rep
            q = _rational_value(self.tower.levels, self.rep)
            r = _rational_value(other.tower.levels, other.rep)
            return q is not None and r is not None and q == r
        return NotImplemented

    def __hash__(self):
        q = _rational_value(self.tower.levels, self.rep)
        if q is not None:
            return hash(q)
        return hash((self.tower, self.rep))

    # -- ordering / printing --------------------------------------------------

    def sort_key(self):
        flat = []
        _flatten(self.tower.levels, self.rep, flat)
        return (self.tower.signature(), tuple(flat))

    def __repr__(self):
        return self._str(self.tower.levels, self.rep)

    @staticmethod
    def _str(levels, a):
        if not levels:
            return str(a)
        sub = levels[:-1]
        name = levels[-1].name
        terms = [(ExtElem._str(sub, c), power_str(name, i)) for i, c in enumerate(a) if not _is_zero(sub, c)]
        return term_sum(terms)


def term_sum(terms) -> str:
    """The text of a sum of (coefficient text, monomial text) pairs in print
    order, "" the monomial 1; every polynomial and field element of a report
    is written here.  A coefficient 1 or -1 of a monomial keeps only its
    sign, a compound one (an operator past its sign) is parenthesised, and a
    term that starts with "-" is subtracted.  The empty sum is "0"."""
    out = ""
    for cs, mono in terms:
        if mono:
            if cs == "1":
                cs = mono
            elif cs == "-1":
                cs = "-" + mono
            elif "+" in cs or "-" in cs[1:] or "*" in cs:
                cs = "(" + cs + ")*" + mono
            else:
                cs = cs + "*" + mono
        if not out:
            out = cs
        elif cs[0] == "-":
            out += " - " + cs[1:]
        else:
            out += " + " + cs
    return out or "0"


def power_str(var: str, e) -> str:
    """The monomial text of var^e: "" for e = 0, a fractional e in
    parentheses."""
    if e == 1:
        return var
    if not e:
        return ""
    return ("%s^%s" if e.denominator == 1 else "%s^(%s)") % (var, e)


def coeff_str(c) -> str:
    """A coefficient's text; a tower element of rational value as that rational."""
    if type(c) is int:
        return str(c)
    if isinstance(c, ExtElem) and c.is_rational():
        return str(c.as_fraction())
    return str(c)


def sort_key(x) -> tuple:
    """Deterministic sort key across Fractions and tower elements."""
    if isinstance(x, ExtElem):
        if x.is_rational():
            return ((), (x.as_fraction(),))
        return x.sort_key()
    return ((), (x if x.__class__ is Fraction else Q(x),))


def field_zero(tower: Optional[Tower]):
    """0 of the field: the int 0 over Q (integral rationals stay ints)."""
    return 0 if tower is None or tower.is_trivial() else tower.zero()


def field_one(tower: Optional[Tower]):
    """1 of the field: the int 1 over Q."""
    return 1 if tower is None or tower.is_trivial() else tower.one()


def f_is_zero(x) -> bool:
    return x.is_zero() if isinstance(x, ExtElem) else x == 0


def f_inv(x):
    """The inverse of a field element; over Q an int when it is integral."""
    if isinstance(x, ExtElem):
        return x.inverse()
    if x == 0:
        raise ZeroDivisionError("division by zero")
    return _canon(Q(1) / x)


def _int_divexact(a: int, b: int) -> int:
    q, rem = divmod(a, b)
    if rem:
        raise ExactError("inexact division in determinant")
    return q


class Echelon(NamedTuple):
    """What ``int_echelon`` finds of an integer matrix."""

    rank: int
    pivots: tuple  # the pivot column of each echelon row, ascending
    det: Optional[int]  # the determinant of a square input, else None
    kernel: list  # a basis of the kernel over Q, of primitive integer vectors


def int_echelon(rows, width=None) -> Echelon:
    """Fraction-free Gauss-Bareiss elimination of an integer matrix, given
    as its rows, ``width`` columns wide (the length of the first row when
    None, so a matrix without rows needs it).

    Column by column, the first row at or below the current one with a
    nonzero entry there is swapped up as the pivot row; a column without one
    is free.  Each Sylvester numerator below the pivot is divided by the
    previous pivot with ``_int_divexact``, which raises on a remainder, so
    every entry stays a minor of the input and the last pivot D is the
    pivot rows' minor on the pivot columns.  A square input's determinant is
    that last pivot with the swaps' sign when every column has a pivot, and
    0 otherwise.  For each free column f, back substitution on the echelon
    rows with x_f = D and the other free entries 0 gives the kernel vector
    whose pivot entries are, by Cramer's rule, integers; it is divided by
    its content and signed so that x_f > 0."""
    m = [row[:] for row in rows]
    n = len(m)
    if width is None:
        width = len(m[0]) if m else 0
    sign = prev = 1
    pivots = []
    for j in range(width):
        r = len(pivots)
        if r == n:
            break
        if not m[r][j]:
            swap = next((i for i in range(r + 1, n) if m[i][j]), None)
            if swap is None:
                continue
            m[r], m[swap] = m[swap], m[r]
            sign = -sign
        top = m[r]
        pivot = top[j]
        for row in m[r + 1 :]:
            a = row[j]
            for c in range(j + 1, width):
                row[c] = _int_divexact(pivot * row[c] - a * top[c], prev)
        prev = pivot
        pivots.append(j)
    rank = len(pivots)
    det = None
    if n == width:
        det = (prev if sign > 0 else -prev) if rank == n else 0
    kernel = []
    for f in (j for j in range(width) if j not in pivots):
        x = [0] * width
        x[f] = prev
        for i in range(rank - 1, -1, -1):
            p, row = pivots[i], m[i]
            x[p] = _int_divexact(-sum(row[c] * x[c] for c in range(p + 1, width) if x[c]), row[p])
        g = math.gcd(*x) if prev > 0 else -math.gcd(*x)
        kernel.append([v // g for v in x])
    return Echelon(rank, tuple(pivots), det, kernel)


def bareiss_det(mat):
    """Fraction-free determinant of a square integer matrix: the ``det`` of
    ``int_echelon``."""
    return int_echelon(mat, len(mat)).det


def packed_det(rows):
    """The determinant of a square matrix of integer term dicts
    {(ze, we): int}, as such a dict without zeros.

    Let phi be the ring map Z[z, w] -> Z sending z to 2^b and w to
    2^(b DZ).  As a ring map it commutes with the determinant, so Bareiss
    on the integer matrix phi(M) gives phi(det M) whatever its pivots are,
    and phi has to be injective on det M alone.  It is when det M has
    z-degree below DZ and coefficients of absolute value below 2^(b-1):
    z^a w^c lands on the base-2^b digit a + DZ c, and each digit is
    recovered as the balanced residue in [-2^(b-1), 2^(b-1)).

    DZ - 1 is the largest z-degree of a product of nonzero entries along a
    permutation (``_assignment_z_degree``), which bounds the z-degree of
    every term of the expansion.  A matrix with no positive w-exponent
    needs no stride: z^a lands on digit a, and the assignment search, which
    costs 2^size, is skipped.  The coefficients are bounded on the torus
    |z| = |w| = 1: each is a Fourier coefficient of det M, so at most its
    largest value there, and by Hadamard's inequality and
    |M_ij| <= ||M_ij||_1 that is at most H = prod_i sqrt(sum_j
    ||M_ij||_1^2), and H < 2^(b-1) for b = bitlength(floor H) + 1.  The
    digits are peeled from the low end by mask and shift, a negative digit
    borrowing one from the rest."""
    if any(we for row in rows for g in row for (_, we) in g):
        dz = 1 + _assignment_z_degree([[max((ze for (ze, _) in g), default=None) for g in row] for row in rows])
    else:
        dz = 0
    squares = math.prod(sum(sum(abs(c) for c in g.values()) ** 2 for g in row) for row in rows)
    b = math.isqrt(squares).bit_length() + 1
    packed = bareiss_det([[sum(c << b * (ze + dz * we) for (ze, we), c in g.items()) for g in row] for row in rows])
    mask, half, full = (1 << b) - 1, 1 << (b - 1), 1 << b
    terms = {}
    k = 0
    while packed:
        digit = packed & mask
        packed >>= b
        if digit >= half:
            digit -= full
            packed += 1
        if digit:
            terms[divmod(k, dz)[::-1] if dz else (k, 0)] = digit
        k += 1
    return terms


def _assignment_z_degree(degrees) -> int:
    """The largest sum_i degrees[i][p(i)] over the permutations p whose
    entries are all given (None marks a zero entry), 0 when there is none.

    A DP over column subsets: best[S] is the largest sum that assigns the
    first |S| rows to the columns in S."""
    best = {0: 0}
    for row in degrees:
        nxt = {}
        for used, total in best.items():
            for j, deg in enumerate(row):
                if deg is not None and not used >> j & 1:
                    key = used | 1 << j
                    if nxt.get(key, -1) < total + deg:
                        nxt[key] = total + deg
        best = nxt
    return max(best.values(), default=0)


def _sylvester_resultant(a, b, var):
    """Resultant in j of two polynomials over Q, given as term dicts
    {(i, j): c} without zeros: the determinant of their Sylvester matrix in
    j, a UniPoly in i named ``var``, with canonical coefficients.

    With la and lb the lcms of the denominators in a and in b, la a and
    lb b are integral; their Sylvester matrix has n = deg_j b rows of a's
    coefficients and m = deg_j a rows of b's, each entry an integer term
    dict in i, so its determinant, taken by ``packed_det``, is la^n lb^m
    times the resultant."""
    def integral(terms):
        lcm = math.lcm(*[c.denominator for c in terms.values()])
        rows = [{} for _ in range(max(j for _, j in terms) + 1)]
        for (i, j), c in terms.items():
            rows[j][(i, 0)] = c.numerator * (lcm // c.denominator)
        return lcm, rows

    (la, ia), (lb, ib) = integral(a), integral(b)
    m, n = len(ia) - 1, len(ib) - 1
    size = m + n
    mat = [[{}] * size for _ in range(size)]
    for i in range(n):
        for j, c in enumerate(ia):
            mat[i][i + (m - j)] = c
    for i in range(m):
        for j, c in enumerate(ib):
            mat[n + i][i + (n - j)] = c
    det = packed_det(mat)
    scale = la**n * lb**m
    coeffs = [0] * (max(det, default=(-1,))[0] + 1)
    for (i, _), c in det.items():
        coeffs[i] = c // scale if c % scale == 0 else Q(c, scale)
    return UniPoly(coeffs, var=var)


# ---------------------------------------------------------------------------
# tower construction
# ---------------------------------------------------------------------------

def adjoin_root(tower: Tower, m: "UniPoly", cap=DEFAULT_TOWER_CAP):
    """Adjoin a root of the monic irreducible polynomial ``m`` over ``tower``.

    Returns (new tower, root element).  ``m`` must be monic of degree >= 2,
    and the new tower's degree over Q must not exceed ``cap``.  The flag
    ``certified_irreducible`` certifies ``m`` over the tower of its
    coefficients only; any other ``m`` is certified here: squarefree, with
    one factor certified irreducible over ``tower`` (``split_tower``).
    """
    if m.degree() < 2:
        raise ExactError("adjoin requires degree >= 2")
    lead = m.coeffs[-1]
    if not (lead == 1 or (isinstance(lead, ExtElem) and lead.is_rational() and lead.as_fraction() == 1)):
        raise ExactError("minimal polynomial must be monic")
    if tower.degree() * m.degree() > cap:
        raise ExactError("tower cap exceeded")
    if not (m.certified_irreducible and (m.tower or QQ_TOWER) == tower):
        if m.gcd(m.derivative()).degree() > 0:
            raise ExactError("adjoin of a polynomial that is not squarefree")
        factors = split_tower(tower, m, cap)
        if len(factors) > 1 or not factors[0][1]:
            raise ExactError("adjoin of a polynomial not certified irreducible")
    sub = tower.levels
    min_coeffs = []
    for c in m.coeffs:
        if isinstance(c, ExtElem):
            min_coeffs.append(tower.coerce(c).rep)
        else:
            min_coeffs.append(_const(sub, Q(c)))
    level = Level(name="t%d" % len(sub), minpoly=tuple(min_coeffs), degree=m.degree())
    new_tower = Tower(sub + (level,))
    root = new_tower.generator(len(sub))
    return new_tower, root


def _level_modulus(levels, var):
    """The modulus of the top level as a UniPoly in ``var`` over the tower
    of the levels below it."""
    sub = levels[:-1]
    return _coords_poly(Tower(sub) if sub else None, levels[-1].minpoly, var)


def _coords_poly(tower, coords, var):
    """A coefficient list of coordinates over ``tower`` as a UniPoly over
    it; over Q (``tower`` None) its coefficients are the rationals."""
    if tower is None:
        return UniPoly(coords, var=var)
    return UniPoly([ExtElem(tower, c) for c in coords], var=var, tower=tower)


def _poly_coords(p):
    """The canonical coordinates of a UniPoly's coefficients, ascending."""
    return tuple(c.rep if isinstance(c, ExtElem) else _canon(c) for c in p.coeffs)


# ---------------------------------------------------------------------------
# univariate polynomials over a field
# ---------------------------------------------------------------------------

class UniPoly:
    """Dense univariate polynomial, ascending coefficients, over Q or a tower."""

    __slots__ = ("coeffs", "var", "tower", "certified_irreducible")

    def __init__(self, coeffs, var="x", tower: Optional[Tower] = None):
        coeffs = list(coeffs)
        while coeffs and f_is_zero(coeffs[-1]):
            coeffs.pop()
        self.coeffs = tuple(coeffs)
        self.var = var
        self.tower = tower
        self.certified_irreducible = False

    def _zero_c(self):
        return field_zero(self.tower)

    # -- basic queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    def leading(self):
        if not self.coeffs:
            raise ExactError("zero polynomial")
        return self.coeffs[-1]

    def __getitem__(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self._zero_c()

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(
            [self[i] + other[i] for i in range(n)], var=self.var, tower=self.tower
        )

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(
            [self[i] - other[i] for i in range(n)], var=self.var, tower=self.tower
        )

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs], var=self.var, tower=self.tower)

    def __mul__(self, other):
        if isinstance(other, UniPoly):
            if self.is_zero() or other.is_zero():
                return UniPoly([], var=self.var, tower=self.tower)
            out = [self._zero_c()] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if f_is_zero(a):
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return UniPoly(out, var=self.var, tower=self.tower)
        return UniPoly([c * other for c in self.coeffs], var=self.var, tower=self.tower)

    __rmul__ = __mul__

    def scale(self, c):
        """c times self; an integral rational product is an int."""
        out = (a * c for a in self.coeffs)
        return UniPoly([_canon(v) if type(v) is Fraction else v for v in out], var=self.var, tower=self.tower)

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        q = [self._zero_c()] * max(len(rem) - len(other.coeffs) + 1, 0)
        lead_inv = f_inv(other.leading())
        d = other.degree()
        while len(rem) - 1 >= d and rem:
            while rem and f_is_zero(rem[-1]):
                rem.pop()
            if len(rem) - 1 < d:
                break
            c = rem[-1] * lead_inv
            k = len(rem) - 1 - d
            q[k] = c
            for j in range(d + 1):
                rem[k + j] = rem[k + j] - c * other.coeffs[j]
        return (
            UniPoly(q, var=self.var, tower=self.tower),
            UniPoly(rem, var=self.var, tower=self.tower),
        )

    def __mod__(self, other):
        return self.divmod(other)[1]

    def exact_div(self, other):
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ExactError("inexact polynomial division")
        return q

    def derivative(self):
        return UniPoly(
            [self.coeffs[i] * i for i in range(1, len(self.coeffs))],
            var=self.var,
            tower=self.tower,
        )

    def monic(self):
        """self over its leading coefficient, integral rationals as ints;
        self itself when it already is that: an int 1 leads and no
        coefficient is an integral Fraction."""
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        if lead.__class__ is int and lead == 1 and not any(
            c.__class__ is Fraction and c.denominator == 1 for c in self.coeffs
        ):
            return self
        return self.scale(f_inv(lead))

    def _over_q(self) -> bool:
        """True when every coefficient is a rational (int or Fraction)."""
        return (self.tower is None or self.tower.is_trivial()) and not any(
            isinstance(c, ExtElem) for c in self.coeffs
        )

    def gcd(self, other):
        if self._over_q() and other._over_q():
            return _rational_gcd(self, other)
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        if a.is_zero():
            return a
        return a.monic()

    def squarefree_decomposition(self):
        """Yun's algorithm: returns [(monic squarefree factor, multiplicity)],
        over Q on Z[x] (``_int_yun``)."""
        if self.is_zero():
            raise ExactError("zero polynomial")
        if self._over_q():
            return [(_monic_poly(f, self.var), m) for f, m in _int_yun(_primitive_int_coeffs(self))]
        p = self.monic()
        if p.degree() == 0:
            return []
        if p.degree() == 1:
            return [(p, 1)]
        dp = p.derivative()
        g = p.gcd(dp)
        if g.degree() == 0:
            return [(p, 1)]
        out = []
        c = p.exact_div(g)
        d = dp.exact_div(g) - c.derivative()
        i = 1
        while c.degree() > 0:
            h = c.gcd(d)
            if h.degree() > 0:
                out.append((h.monic(), i))
            c_next = c.exact_div(h) if h.degree() > 0 else c
            d = (d.exact_div(h) if h.degree() > 0 else d) - c_next.derivative()
            c = c_next
            i += 1
        return out

    def __repr__(self):
        cs = self.coeffs
        return term_sum(
            (coeff_str(cs[i]), power_str(self.var, i)) for i in range(len(cs) - 1, -1, -1) if not f_is_zero(cs[i])
        )


def _int_primitive(ints):
    """ints over their gcd, the sign kept; all zeros stay as they are."""
    g = math.gcd(*ints)
    return ints if g <= 1 else [v // g for v in ints]


def _int_poly_mul(a, b):
    """The product in Z[x] of dense int lists, [] for an empty factor."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _int_poly_sub(a, b):
    """a - b in Z[x] for dense int lists, trimmed."""
    out = a + [0] * (len(b) - len(a))
    for i, v in enumerate(b):
        out[i] -= v
    while out and not out[-1]:
        out.pop()
    return out


def _int_poly_divexact(a, b):
    """Exact division in Z[x]; None when not divisible."""
    r = list(a)
    out = [0] * (len(a) - len(b) + 1)
    while r and len(r) >= len(b):
        if r[-1] == 0:
            r.pop()
            continue
        c, rem = divmod(r[-1], b[-1])
        if rem:
            return None
        off = len(r) - len(b)
        out[off] = c
        for j, bv in enumerate(b):
            r[off + j] -= c * bv
        while r and r[-1] == 0:
            r.pop()
    if r:
        return None
    return out


def _int_poly_prem(g, f):
    """The pseudo-remainder lead(f)^k g mod f in Z[x], trimmed, for f of
    degree d >= 1 and k = max(len(g) - d, 0): g is multiplied by lead(f)
    only, so for a positive lead it is a positive multiple of the remainder
    of g mod f over Q, and lists of one length share the multiplier.  For a
    linear f = b x - a that is b^k g(a / b), by Horner's rule."""
    lead = f[-1]
    d = len(f) - 1
    if d == 1:
        root, acc, scale = -f[0], 0, 1
        for c in reversed(g):
            acc = acc * root + c * scale
            scale *= lead
        return [acc] if acc else []
    r = list(g)
    while len(r) > d:
        c = r.pop()
        off = len(r) - d
        if lead != 1:
            r = [v * lead for v in r]
        if c:
            for j in range(d):
                r[off + j] -= c * f[j]
    while r and not r[-1]:
        r.pop()
    return r


def _int_eval(ints, x):
    acc = 0
    for c in reversed(ints):
        acc = acc * x + c
    return acc


def _heuristic_int_gcd(a, b):
    """GCDHEU: evaluate at a large point, take the integer gcd, reconstruct
    with balanced digits and verify by exact division; None on failure."""
    bound = 2 * max(map(abs, a + b)) + 2
    xi = bound + 29
    for _ in range(6):
        va, vb = _int_eval(a, xi), _int_eval(b, xi)
        if va and vb:
            g = math.gcd(va, vb)
            digits = []
            rest = g
            while rest:
                d = rest % xi
                if d > xi // 2:
                    d -= xi
                digits.append(d)
                rest = (rest - d) // xi
            cand = _int_primitive(digits)  # g >= 1, so there is a digit
            if len(cand) == 1:  # a unit, which divides both
                return cand
            if _int_poly_divexact(a, cand) is not None and _int_poly_divexact(b, cand) is not None:
                return cand
        xi = xi * 73 // 27 + 17
    return None


def _int_gcd(a, b):
    """gcd of nonzero primitive integer polynomials, up to sign: GCDHEU,
    else the primitive PRS of ``_prs_gcd`` on rows of constants."""
    g = _heuristic_int_gcd(a, b)
    if g is not None:
        return g
    rows = _prs_gcd([[c] if c else [] for c in a], [[c] if c else [] for c in b])
    return [row[0] if row else 0 for row in rows]


# ---------------------------------------------------------------------------
# the primitive PRS on Z[z][w]
#
# A polynomial in Z[z][w] is a list of dense int rows in z, one per power of
# w, ascending; a zero row is [].  Z[x] is the case of rows of constants.
# ---------------------------------------------------------------------------

def _prs_gcd(a, b):
    """The gcd of primitive rows a and b (``_primitive_rows``), not zero, up
    to sign: the last nonzero remainder of their primitive PRS (polynomial
    remainder sequence), [[1]] up to sign when they are coprime."""
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        rem = _prs_remainder(a, b)
        if not rem:
            break
        a, b = b, rem
    return b


def _rows_content(rows):
    """The content of polynomials given as dense int rows, not all zero: the
    primitive gcd in Z[x] of the nonzero rows (``_int_gcd``), up to sign,
    and [1] when it is constant."""
    g = None
    for row in rows:
        if row:
            p = _int_primitive(row)
            g = p if g is None else _int_gcd(g, p)
            if len(g) == 1:
                return [1]
    return g


def _primitive_rows(rows, content=None):
    """rows over their content (``_rows_content`` unless given) and over
    the integer gcd of what is left."""
    if content is None:
        content = _rows_content(rows)
    if len(content) > 1:
        rows = [_int_poly_divexact(row, content) if row else row for row in rows]
    g = math.gcd(*(c for row in rows for c in row))
    return rows if g == 1 else [[c // g for c in row] for row in rows]


def _prs_remainder(num, den):
    """A primitive remainder of w-degree < deg(den) for primitive rows num
    and den of w-degree >= 1, [] when it is zero: the pseudo-remainder up to
    a factor in Z[z], with coefficient growth held down by cancelling the
    gcd of the head and den's leading row at every step and stripping the
    content after it.  Only valid for gcd computations."""
    dd = len(den) - 1
    lc = den[-1]
    primitive_lc = _int_primitive(lc)
    while len(num) > dd:
        head = num[-1]
        g = math.gcd(*head, *lc)
        p = _int_gcd(_int_primitive(head), primitive_lc) if len(head) > 1 and len(lc) > 1 else [1]
        if len(p) > 1 or g > 1:
            p = [c * g for c in p]
            scale_all, scale_head = _int_poly_divexact(lc, p), _int_poly_divexact(head, p)
        else:
            scale_all, scale_head = lc, head
        off = len(num) - 1 - dd
        num = num[:-1] if scale_all == [1] else [_int_poly_mul(row, scale_all) for row in num[:-1]]
        for j, row in enumerate(den[:-1]):
            if row:
                num[off + j] = _int_poly_sub(num[off + j], _int_poly_mul(scale_head, row))
        while num and not num[-1]:
            num.pop()
        if num:
            num = _primitive_rows(num)
    return num


def _rational_gcd(p: UniPoly, q: UniPoly) -> UniPoly:
    """Monic gcd over Q through primitive integer polynomials."""
    if p.is_zero():
        return q.monic() if not q.is_zero() else q
    if q.is_zero():
        return p.monic()
    g = _int_gcd(_primitive_int_coeffs(p), _primitive_int_coeffs(q))
    return UniPoly(g, var=p.var).monic()


# ---------------------------------------------------------------------------
# factorization over Q, on Z[x]
#
# A rational polynomial enters once as its primitive integer form with a
# positive leading coefficient (``_primitive_int_coeffs``); squarefree
# decomposition, rational roots and splitting then run on int lists, and a
# UniPoly is built only for a result (``_monic_poly``).  Every divisor used
# is primitive, so by Gauss's lemma each division is exact in Z[x].
# ---------------------------------------------------------------------------

def _primitive_int_coeffs(p: UniPoly):
    """Scale a rational polynomial to primitive integer coefficients."""
    vals = [c.as_fraction() if isinstance(c, ExtElem) else c for c in p.coeffs]
    den = math.lcm(*[v.denominator for v in vals])
    ints = _int_primitive([v.numerator * (den // v.denominator) for v in vals])
    if ints and ints[-1] < 0:
        ints = [-v for v in ints]
    return ints


def _monic_poly(ints, var):
    """The monic UniPoly of a nonzero int list: an int coefficient where it
    is integral, else a Fraction."""
    lead = ints[-1]
    if lead == 1:
        return UniPoly(ints, var=var)
    return UniPoly([c // lead if c % lead == 0 else Q(c, lead) for c in ints], var=var)


def _int_derivative(f):
    return [i * c for i, c in enumerate(f)][1:]


def _int_yun(f):
    """Yun's squarefree decomposition of the primitive f:
    [(primitive squarefree factor with a positive lead, multiplicity)] for
    each multiplicity that occurs, ascending.

    With c_i = u prod_{j >= i} a_j, the loop keeps d_i = u sum_{j > i}
    (j - i) a_j' prod_{k >= i, k != j} a_k, so gcd(c_i, d_i) = a_i; c_i
    and d_i are divided by the same primitive a_i, which keeps one u."""
    if len(f) == 1:
        return []
    if len(f) == 2 or (len(f) == 3 and f[1] * f[1] != 4 * f[0] * f[2]):
        return [(f, 1)]  # linear, or a quadratic of nonzero discriminant
    df = _int_derivative(f)
    g = _int_gcd(f, _int_primitive(df))
    if len(g) == 1:
        return [(f, 1)]
    c = _int_poly_divexact(f, g)
    d = _int_poly_sub(_int_poly_divexact(df, g), _int_derivative(c))
    out = []
    i = 1
    while len(c) > 1:
        h = _int_gcd(c, _int_primitive(d)) if d else c
        if len(h) > 1:
            if h[-1] < 0:
                h = [-v for v in h]
            out.append((h, i))
            c = _int_poly_divexact(c, h)
            d = _int_poly_divexact(d, h)
        d = _int_poly_sub(d, _int_derivative(c))
        i += 1
    return out


def _primes():
    """The primes of ``_CERT_PRIMES``, then every larger prime."""
    yield from _CERT_PRIMES
    for q in itertools.count(_CERT_PRIMES[-1] + 2, 2):
        if all(q % d for d in range(3, math.isqrt(q) + 1, 2)):
            yield q


def _int_linear_factors(f):
    """The rational roots of the squarefree primitive f, of degree >= 1, as
    pairs (a, b) for a / b in lowest terms with b > 0, and the rest: f over
    the primitive b x - a of each root.

    A root a / b has b | lc(f), so it reduces to a root of f mod each prime p
    that does not divide lc(f).  The first such p at which every root of f
    mod p is simple is taken (f is squarefree, so all but finitely many p
    qualify), and each root is lifted by Newton's iteration mod p^(2^j) past
    twice lc(f) times Cauchy's bound 1 + max |f_i / lc(f)| on a root.  In
    symmetric residues lc(f) times the lift is then lc(f) a / b itself, an
    integer, and it gives a root exactly when a | f(0) and b x - a divides
    f."""
    roots = []
    if not f[0]:
        roots.append((0, 1))
        f = f[1:]
    rest = f
    if len(f) == 1:
        return roots, rest
    const, lead = f[0], f[-1]
    df = _int_derivative(f)
    high, dhigh = f[::-1], df[::-1]
    for p in _primes():
        if not lead % p:
            continue
        residues = []
        for x in range(p):
            v = 0
            for c in high:
                v = v * x + c
            if not v % p:
                d = 0
                for c in dhigh:
                    d = d * x + c
                if not d % p:
                    break  # a multiple root mod p
                residues.append(x)
        else:
            break
    bound = 2 * (abs(lead) + max(map(abs, f[:-1])))
    for r in residues:
        m = p
        while m <= bound:
            m *= m
            r = (r - _int_eval(f, r) * pow(_int_eval(df, r), -1, m)) % m
        c = lead * r % m
        if 2 * c > m:
            c -= m
        g = math.gcd(c, lead)
        a, b = (c // g, lead // g) if lead > 0 else (-c // g, -lead // g)
        if not a or const % a:
            continue
        quotient = _int_poly_divexact(rest, [-a, b])
        if quotient is not None:
            roots.append((a, b))
            rest = quotient
            if len(rest) == 1:
                break
    return roots, rest


def _split_rational_roots(p: UniPoly):
    """The monic linear factors of the nonzero p over Q, each with its
    multiplicity, and p over their product."""
    linear = []
    rest = p
    for sf, mult in _int_yun(_primitive_int_coeffs(p)):
        for a, b in _int_linear_factors(sf)[0]:
            fac = _monic_poly([-a, b], p.var)
            linear.append((fac, mult))
            for _ in range(mult):
                rest = rest.exact_div(fac)
    linear.sort(key=lambda f: f[0].coeffs)
    return linear, rest


def _mod_poly(ints, p):
    """ints mod p, trimmed."""
    out = [c % p for c in ints]
    while out and not out[-1]:
        out.pop()
    return out


def _mod_mul(a, b, m, p):
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    return _mod_divmod(prod, m, p)[1]


def _mod_divmod(a, b, p):
    """Quotient and remainder of a by b (b nonzero) over F_p, both trimmed."""
    r = list(a)
    db = len(b) - 1
    inv = pow(b[-1], p - 2, p)
    q = [0] * max(len(r) - db, 0)
    while len(r) - 1 >= db:
        if r[-1] == 0:
            r.pop()
            continue
        c = r[-1] * inv % p
        off = len(r) - 1 - db
        q[off] = c
        for j in range(db + 1):
            r[off + j] = (r[off + j] - c * b[j]) % p
        r.pop()
    while r and r[-1] == 0:
        r.pop()
    while q and q[-1] == 0:
        q.pop()
    return q, r


def _mod_gcd(a, b, p):
    a = [c % p for c in a]
    b = [c % p for c in b]
    while b:
        a, b = b, _mod_divmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [c * inv % p for c in a]
    return a


def _mod_pow(base, e, m, p):
    """base^e mod m over F_p."""
    out = [1]
    while e:
        if e & 1:
            out = _mod_mul(out, base, m, p)
        base = _mod_mul(base, base, m, p)
        e >>= 1
    return out


def _mod_ddf(ints, p):
    """The distinct-degree factorization of ints mod p: [(d, monic product
    of its irreducible factors of degree d)], or None if ints mod p
    degenerates (degree drop or not squarefree)."""
    f = _mod_poly(ints, p)
    if len(f) != len(ints):
        return None
    deriv = _mod_poly([i * c for i, c in enumerate(f)][1:], p)
    if not deriv or len(_mod_gcd(f, deriv, p)) > 1:
        return None
    inv = pow(f[-1], p - 2, p)
    rem = [c * inv % p for c in f]
    parts = []
    h = [0, 1]
    d = 0
    while len(rem) - 1 >= 2 * (d + 1):
        d += 1
        h = _mod_pow(h, p, f, p)  # x^(p^d) mod f
        g = _mod_gcd(rem, _int_poly_sub(h, [0, 1]), p)
        if len(g) > 1:
            parts.append((d, g))
            rem = _mod_divmod(rem, g, p)[0]
    if len(rem) > 1:
        parts.append((len(rem) - 1, rem))
    return parts


def _mod_edf(g, d, p, rng):
    """The monic irreducible factors of degree d of the monic g mod p, a
    product of such factors (Cantor-Zassenhaus, p odd): gcd(g, a^((p^d -
    1) / 2) - 1) splits g for about half the a of degree < deg g."""
    if len(g) - 1 == d:
        return [g]
    while True:
        a = _mod_poly([rng.randrange(p) for _ in range(len(g) - 1)], p)
        if len(a) < 2:
            continue
        h = _mod_gcd(g, _int_poly_sub(_mod_pow(a, (p**d - 1) // 2, g, p), [1]), p)
        if 1 < len(h) < len(g):
            return _mod_edf(h, d, p, rng) + _mod_edf(_mod_divmod(g, h, p)[0], d, p, rng)


def _mod_xgcd(a, b, p):
    """(s, t) with s a + t b = 1 mod p for coprime a and b."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _mod_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _mod_poly(_int_poly_sub(s0, _int_poly_mul(q, s1)), p)
        t0, t1 = t1, _mod_poly(_int_poly_sub(t0, _int_poly_mul(q, t1)), p)
    inv = pow(r0[0], p - 2, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _hensel_lift(f, factors, p, k):
    """Monic G_1, ..., G_r with f = lc(f) G_1 ... G_r mod p^k, from the
    monic irreducible factors of f mod p: each factor is split off the
    product of the rest by linear Hensel steps p^j -> p^(j+1).  With s g
    + t h = 1 mod p and e = (F - G H) / p^j mod p, the step adds p^j times
    dH = s e mod h and dG = t e + (s e div h) g, which keeps H monic."""
    q = p**k
    target = [c * pow(f[-1], -1, q) % q for c in f]
    out = []
    for i, g in enumerate(factors[:-1]):
        h = functools.reduce(lambda x, y: _mod_poly(_int_poly_mul(x, y), p), factors[i + 1 :])
        s, t = _mod_xgcd(g, h, p)
        big_g, big_h = g, h
        for j in range(1, k):
            pj = p**j
            e = _mod_poly([c // pj for c in _int_poly_sub(target, _int_poly_mul(big_g, big_h))], p)
            quot, dh = _mod_divmod(_mod_poly(_int_poly_mul(s, e), p), h, p)
            dg = _mod_poly(_int_poly_sub(_int_poly_mul(t, e), [-c for c in _int_poly_mul(quot, g)]), p)
            big_g = _int_poly_sub(big_g, [-c * pj for c in dg])
            big_h = _int_poly_sub(big_h, [-c * pj for c in dh])
        out.append(big_g)
        target = big_h
    return out + [target]


def _zassenhaus(f):
    """The irreducible factors in Z[x] of the squarefree primitive f of
    degree >= 4, with a positive lead and no rational root, each with its
    certification (Zassenhaus, J. Number Theory 1 (1969)).

    f mod each prime of ``_CERT_PRIMES`` that reduces it well has one
    distinct-degree factorization (``_mod_ddf``).  f is irreducible as soon
    as the degree patterns so far admit no proper factor: a factor's
    degree is a subset sum of each pattern.  Otherwise f mod the prime
    with the fewest factors is factored (``_mod_edf``) and lifted
    mod p^k past twice lc(f) 2^n |f|_2, which bounds lc(f) times any
    factor's coefficients (Mignotte), so a subset of lifted factors times
    lc(f), in symmetric residues, is that multiple of a true factor when
    its primitive part divides f.  Subsets are tried by size; a factor
    found leaves the rest to split, and what is left when every size up to
    half is tried is irreducible.  Past ``RECOMBINATION_EFFORT`` subsets
    the rest is not certified."""
    possible = set(range(len(f)))
    ranked = []
    for p in _CERT_PRIMES:
        parts = _mod_ddf(f, p)
        if parts is not None:
            pattern = [d for d, g in parts for _ in range((len(g) - 1) // d)]
            ranked.append((len(pattern), p, parts))
            possible &= functools.reduce(lambda sums, d: sums | {v + d for v in sums}, pattern, {0})
            if possible == {0, len(f) - 1}:
                return [(f, True)]
    if not ranked:
        return [(f, False)]
    _, p, parts = min(ranked)
    rng = random.Random(p)
    factors = [h for d, g in parts for h in _mod_edf(g, d, p, rng)]
    bound = 2 * f[-1] * 2 ** len(f) * (math.isqrt(sum(c * c for c in f)) + 1)
    k = 1
    while p**k <= bound:
        k += 1
    q = p**k
    lifted = _hensel_lift(f, factors, p, k)
    out = []
    size, tried = 1, 0
    while 2 * size <= len(lifted):
        for subset in itertools.combinations(range(len(lifted)), size):
            tried += 1
            if tried > RECOMBINATION_EFFORT:
                return out + [(f, False)]
            cand = [f[-1]]
            for i in subset:
                cand = [c % q for c in _int_poly_mul(cand, lifted[i])]
            cand = _int_primitive([c - q if 2 * c > q else c for c in cand])
            if cand[-1] < 0:
                cand = [-c for c in cand]
            rest = _int_poly_divexact(f, cand)
            if rest is not None:
                out.append((cand, True))
                f = rest
                lifted = [g for i, g in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    return out + [(f, True)]


@dataclass
class Factor:
    poly: UniPoly
    multiplicity: int
    certified: bool


def factor_univariate(p: UniPoly, cap=DEFAULT_FACTOR_CAP):
    """Factor a rational univariate polynomial into monic irreducibles,
    sorted by degree and coefficients.

    Degree <= 3 factors are certified by rational-root exclusion; degree >= 4
    factors are split and certified by Zassenhaus's method (``_zassenhaus``)
    and are not certified (``certified`` False) only when no prime of
    ``_CERT_PRIMES`` reduces them well or the recombination passes its
    effort.
    A certified factor of degree >= 2 has ``certified_irreducible`` set,
    which ``adjoin_root`` reads; every factor is a new polynomial, so p
    itself is never flagged.
    """
    if p.is_zero():
        raise ExactError("zero polynomial")
    if p.degree() > cap:
        raise ExactError("factor cap exceeded")
    out = []
    for sf, mult in _int_yun(_primitive_int_coeffs(p)):
        for f, certified in _int_irreducible_factors(sf):
            poly = _monic_poly(f, p.var)
            poly.certified_irreducible = certified and len(f) > 2
            out.append(Factor(poly, mult, certified))
    out.sort(key=lambda f: (len(f.poly.coeffs), f.poly.coeffs))
    return out


def _int_irreducible_factors(f):
    """The factors in Z[x] of the squarefree primitive f of degree >= 1,
    each with its certification: the linear ones of its rational roots,
    then the rest, irreducible for degree 2 or 3 and otherwise split and
    certified by ``_zassenhaus``."""
    if len(f) == 2:
        return [(f, True)]
    roots, rest = _int_linear_factors(f)
    out = [([-a, b], True) for a, b in roots]
    if len(rest) > 4:
        out.extend(_zassenhaus(rest))
    elif len(rest) > 1:
        # no rational root (already stripped): irreducible for degree 2, 3
        out.append((rest, True))
    return out


# ---------------------------------------------------------------------------
# factoring over a tower by Trager's norm
#
# Over K = K'(t), t of degree d over K', a squarefree g in K[x] is shifted
# to h(x) = g(x - k t) for k = 0, 1, -1, 2, ... until the norm
# N = N_{K/K'}(h), the product of the d conjugates of h over K', is
# squarefree.  Each irreducible factor N_i of N over K' then gives the
# irreducible factor gcd(h, N_i) of h over K, and its shift back one of g
# (Trager, SYMSAC 1976).  N is factored over Q by ``factor_univariate`` and
# over a taller K' by the same method one level down.
# ---------------------------------------------------------------------------

def split_tower(tower, g, cap):
    """How the ring ``tower``[x]/(g) splits into towers: the monic
    irreducible factors over ``tower`` of the monic squarefree g, each with
    whether it is certified.  Over Q they are those of ``factor_univariate``
    at ``cap``, and over a tower each is certified where the factor of the
    norm it comes from is."""
    if tower.is_trivial():
        return [(f.poly, f.certified) for f in factor_univariate(g, cap)]
    base = Tower(tower.levels[:-1])
    t = tower.generator(len(base.levels))
    g = UniPoly([tower.coerce(c) for c in g.coeffs], var=g.var, tower=tower)
    for k in itertools.count():
        shift = t * ((k + 1) // 2 if k % 2 else -(k // 2))
        h = _taylor_shift(g, -shift)
        norm = _norm(h)
        if norm.gcd(norm.derivative()).degree() == 0:
            break
    out = []
    for f, certified in split_tower(base, norm, cap):
        lifted = UniPoly([tower.coerce(c) for c in f.coeffs], var=g.var, tower=tower)
        out.append((_taylor_shift(h.gcd(lifted), shift), certified))
    return out


def _norm(h):
    """N_{K/K'}(h) for h over its tower K = K'(t), K' the levels below the
    top one: the monic polynomial over K' of degree D = deg h [K:K']
    interpolated from its values at x = 0, ..., D.  The value at x is the
    norm of h(x), its resultant Res_t(m, h(x)) with the monic modulus m of
    t over K', h(x) a polynomial in t over K' (``_field_resultant``)."""
    m = _level_modulus(h.tower.levels, "t")
    values = []
    for x in range(h.degree() * m.degree() + 1):
        a = h.tower.zero()
        for c in reversed(h.coeffs):
            a = a * x + c
        values.append(_field_resultant(m, _coords_poly(m.tower, a.rep, "t")))
    # Newton's divided differences on the nodes 0, ..., D
    for k in range(1, len(values)):
        for i in range(len(values) - 1, k - 1, -1):
            values[i] = (values[i] - values[i - 1]) * Q(1, k)
    nodes = [-x for x in range(len(values))]
    return UniPoly(_horner(values, nodes, field_zero(m.tower)), var=h.var, tower=m.tower)


def _field_resultant(f, g):
    """Res(f, g) of UniPolys over one field by Euclid: Res(f, g) =
    (-1)^(deg f deg g) lc(g)^(deg f - deg r) Res(g, r) for r = f mod g,
    down to Res(f, c) = c^(deg f) for a constant c; 0 when f and g share
    a factor or either is 0."""
    out = 1
    while g.degree() > 0:
        r = f % g
        if r.is_zero():
            return field_zero(f.tower)
        if f.degree() * g.degree() % 2:
            out = -out
        out = g.leading() ** (f.degree() - r.degree()) * out
        f, g = g, r
    if f.is_zero() or g.is_zero():
        return field_zero(f.tower)
    return g.leading() ** f.degree() * out


def _horner(coeffs, shifts, zero):
    """The ascending coefficients of c_0 + (x + s_0) (c_1 + (x + s_1) (c_2 +
    ...)) for the coefficients c_i and the shifts s_i: a Taylor shift for
    equal shifts, and the Newton form of an interpolant for s_i = -x_i."""
    out = []
    for c, s in zip(reversed(coeffs), reversed(shifts)):
        out = [a + s * b for a, b in zip([zero] + out, out + [zero])]
        out[0] = out[0] + c
    return out


def _taylor_shift(g, c):
    """g(x + c)."""
    return UniPoly(_horner(g.coeffs, [c] * len(g.coeffs), field_zero(g.tower)), var=g.var, tower=g.tower)


class Root(NamedTuple):
    """One irreducible factor with its representative root: ``value`` is
    None where no root is taken, and ``note`` says how it was found, which
    cap stopped it, or that the factor is certified ``irrational``."""

    value: object
    multiplicity: int
    note: str  # rational, tower-linear, irrational, adjoined, factor-cap, tower-cap or irreducibility-cap
    factor: UniPoly


def root_policy(p: UniPoly, tower: Optional[Tower] = None, factor_cap=DEFAULT_FACTOR_CAP, tower_cap=DEFAULT_TOWER_CAP):
    """Which roots of ``p`` exist over Q or over ``tower``, and which a cap
    stops: one entry per irreducible factor, for the branch tree, line
    detection and the axis bound alike.

    Over Q: a linear ``p`` is solved as -c0 / c1; ``p`` of degree above
    ``factor_cap`` first gives its rational roots, with their
    multiplicities, and the rest is then one ``factor-cap`` entry if it is
    still above ``factor_cap``; the factors of ``p`` or of that rest are
    those of ``factor_univariate``.  Over a tower: each part of the
    squarefree split of degree d >= 2 with d [K:Q] <= ``tower_cap`` is
    factored by Trager's norm (``split_tower``), its norm at
    ``tower_cap``.  A linear factor gives its root; a factor whose adjoin
    would pass ``tower_cap`` is a ``tower-cap`` entry, one not certified
    irreducible an ``irreducibility-cap`` entry, and any other an
    ``irrational`` entry, flagged ``certified_irreducible``, whose root is
    not adjoined here."""
    over_q = tower is None or tower.is_trivial()
    capped = []
    if over_q:
        if p.degree() == 1:
            c0, c1 = p.coeffs
            return [Root(-as_fraction(c0) / as_fraction(c1), 1, "rational", p)]
        parts = []
        if p.degree() > factor_cap:
            linear, p = _split_rational_roots(p)
            parts = [(fac, mult, True) for fac, mult in linear]
        if p.degree() > factor_cap:
            capped = [Root(None, 1, "factor-cap", p)]
        elif p.degree() > 0:
            parts += [(fac.poly, fac.multiplicity, fac.certified) for fac in factor_univariate(p, cap=factor_cap)]
        tower = QQ_TOWER
    else:
        parts = []
        for g, mult in p.squarefree_decomposition():
            if g.degree() == 1 or tower.degree() * g.degree() > tower_cap:
                parts.append((g, mult, True))
                continue
            parts.extend((f, mult, certified) for f, certified in split_tower(tower, g, tower_cap))
    roots = []
    for g, mult, certified in parts:
        if g.degree() == 1:
            c0 = g.coeffs[0]
            roots.append(Root(-as_fraction(c0), mult, "rational", g) if over_q else Root(-c0, mult, "tower-linear", g))
        elif tower.degree() * g.degree() > tower_cap:
            roots.append(Root(None, mult, "tower-cap", g))
        elif not certified:
            roots.append(Root(None, mult, "irreducibility-cap", g))
        else:
            g.certified_irreducible = True
            roots.append(Root(None, mult, "irrational", g))
    return roots + capped


def factor_roots(p: UniPoly, tower: Optional[Tower] = None, factor_cap=DEFAULT_FACTOR_CAP, tower_cap=DEFAULT_TOWER_CAP):
    """One root of each irreducible factor of ``p`` over Q or over
    ``tower``: the entries of ``root_policy``, where each ``irrational``
    one adjoins a representative root (note ``adjoined``)."""
    base = QQ_TOWER if tower is None else tower
    roots = root_policy(p, tower, factor_cap, tower_cap)
    for i, root in enumerate(roots):
        if root.note == "irrational":
            roots[i] = Root(adjoin_root(base, root.factor, tower_cap)[1], root.multiplicity, "adjoined", root.factor)
    return roots
