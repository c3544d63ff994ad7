"""Exact arithmetic foundation.

Everything downstream computes over exact fields only: arbitrary-precision
rationals (``fractions.Fraction``), univariate polynomials over such a field,
and algebraic extension towers Q(t0)(t1)... driven by dynamic evaluation: a
modulus is adjoined as if irreducible, and any zero divisor discovered later
splits the tower into the two factor towers so the computation can be replayed
on each.  No floating point is used anywhere.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

Q = Fraction

FieldElement = Union[Fraction, "ExtElem"]

#: primes used for modular irreducibility certification
_CERT_PRIMES = (7, 11, 13, 17, 19, 23, 29, 31)

DEFAULT_TOWER_CAP = 16
DEFAULT_FACTOR_CAP = 8
#: divisor combinations Kronecker's method may try per degree
KRONECKER_EFFORT = 20000


class ExactError(Exception):
    """Invalid request at the exact-arithmetic layer (bad adjoin, caps, ...)."""


class TowerSplitError(Exception):
    """A tower modulus factored mid-computation; replay on the factor towers.

    Carries the two factor towers plus the level index so callers can decide
    whether the split belongs to them or to an enclosing computation.
    """

    def __init__(self, tower, level, g, h):
        super().__init__("modulus of %s split at level %d" % (tower, level))
        self.tower = tower
        self.level = level
        self.g = g
        self.h = h

    def factor_towers(self):
        return split_tower(self.tower, self.level, self.g, self.h)


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
    """Exact inverse; raises TowerSplitError when a zero divisor is found.

    A rational element is a unit or zero even over a presumed modulus, so
    its inverse is the rational inverse embedded, with no Euclid.  At a
    level over Q the inverse is solved on integers by Cramer's rule
    (``_inv_rational``); extended Euclid (``_euclid_inverse``) runs only
    above the first level and for a zero divisor, whose gcd with the
    modulus splits it."""
    q = _rational_value(levels, a)
    if q is not None:
        if q == 0:
            raise ZeroDivisionError("division by zero")
        return _const(levels, _canon(1 / Q(q)))
    if len(levels) == 1:
        inv = _inv_rational(levels[0], a)
        if inv is not None:
            return inv
    return _euclid_inverse(levels, a)


def _euclid_inverse(levels, a):
    """The inverse of a modulo the top modulus m by extended Euclid in K[x],
    K the tower below, on ``UniPoly``.  For a zero divisor m factors as the
    monic g = gcd(m, a) times h = m / g, and TowerSplitError carries them;
    a split of a lower level met on the way is raised again with the whole
    tower and that level's index."""
    m = _level_modulus(levels, "x")
    try:
        r0, r1 = m, _coords_poly(m.tower, a, "x")
        t0, t1 = UniPoly([], tower=m.tower), UniPoly([field_one(m.tower)], tower=m.tower)
        while not r1.is_zero():
            q, r = r0.divmod(r1)
            r0, r1 = r1, r
            t0, t1 = t1, t0 - q * t1
        if r0.degree() == 0:
            return _reduce_list(levels, _poly_coords(t0.scale(f_inv(r0.coeffs[0]))))
        g = r0.monic()
        h = m.exact_div(g)
    except TowerSplitError as exc:
        raise TowerSplitError(Tower(levels), exc.level, exc.g, exc.h) from None
    raise TowerSplitError(Tower(levels), len(levels) - 1, _poly_coords(g), _poly_coords(h))


def _inv_rational(level, a):
    """The inverse of a in Q[x]/(m) by Cramer's rule on Z, or None when a
    is a zero divisor (its multiplication matrix is singular).

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
    if det == 0:
        return None
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
    presumed: bool = False

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
        """The inverse; a rational element's is its rational inverse, with no
        Euclid (it cannot split a presumed modulus)."""
        return ExtElem(self.tower, _inv(self.tower.levels, self.rep))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.tower.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
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
        parts = []
        for i, c in enumerate(a):
            if _is_zero(sub, c):
                continue
            cs = ExtElem._str(sub, c)
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


def sort_key(x) -> tuple:
    """Deterministic sort key across Fractions and tower elements."""
    if isinstance(x, ExtElem):
        if x.is_rational():
            return ((), (x.as_fraction(),))
        return x.sort_key()
    return ((), (Q(x),))


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


def ensure_regular(x) -> bool:
    """True for zero, False for a unit; raises TowerSplitError for a zero divisor.

    Leading-coefficient tests over a presumed-irreducible tower must go through
    here: a zero divisor means the computation differs between factor towers.
    """
    if f_is_zero(x):
        return True
    # over certified-irreducible levels the tower is a field: a nonzero
    # element is a unit, and only a presumed modulus can hide a zero divisor
    if isinstance(x, ExtElem) and any(lv.presumed for lv in x.tower.levels):
        x.inverse()  # raises TowerSplitError on a zero divisor
    return False


def _int_divexact(a: int, b: int) -> int:
    q, rem = divmod(a, b)
    if rem:
        raise ExactError("inexact division in determinant")
    return q


def bareiss_det(mat):
    """Fraction-free determinant of a square integer matrix (Bareiss).

    Each Sylvester numerator is divided by the previous pivot with
    ``_int_divexact``, which raises on a remainder."""
    n = len(mat)
    if n == 0:
        return 1
    m = [row[:] for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        top = m[k]
        pivot = top[k]
        for row in m[k + 1 :]:
            a = row[k]
            for j in range(k + 1, n):
                row[j] = _int_divexact(pivot * row[j] - a * top[j], prev)
        prev = pivot
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


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


def value_charpoly(e: ExtElem):
    """Characteristic polynomial (in y over Q) of a single-level tower element;
    its roots with multiplicity are the values of e in the components of the
    modulus.  None when the tower is deeper than one level."""
    tower = e.tower
    if len(tower.levels) != 1:
        return None
    # the resultant in x of the modulus m(x) and y - e(x), on (y, x) keys
    modulus = {(0, k): c for k, c in enumerate(tower.levels[0].minpoly) if c}
    shifted = {(0, k): -c for k, c in enumerate(e.rep) if c}
    shifted[(1, 0)] = 1
    return _sylvester_resultant(modulus, shifted, "y")


def certified_is_rational(e) -> bool:
    """Rationality decided at the level of component values.

    Over a certified-irreducible tower the representation test is exact.  Over
    a presumed single-level modulus the element's characteristic polynomial is
    consulted: a rational value shared by only part of the components is a
    discovered factorization and raises TowerSplitError so the computation can
    be replayed per factor.
    """
    if not isinstance(e, ExtElem):
        return True
    if e.is_rational():
        return True
    tower = e.tower
    if not any(lv.presumed for lv in tower.levels):
        return False
    charpoly = value_charpoly(e)
    if charpoly is None:
        return False  # deeper presumed towers: representation-based fallback
    roots = rational_roots(charpoly)
    if not roots:
        return False
    # some component carries the rational value r while the element is not
    # uniformly r (moduli are squarefree, so a uniform value would make the
    # representation rational): the modulus factors along gcd(m, e - r)
    (e - roots[0]).inverse()
    raise ExactError(
        "characteristic polynomial root %s of %s did not induce a splitting"
        % (roots[0], e)
    )


# ---------------------------------------------------------------------------
# tower construction, splitting and element transport
# ---------------------------------------------------------------------------

def adjoin_root(tower: Tower, m: "UniPoly", cap=DEFAULT_TOWER_CAP):
    """Adjoin a root of the monic polynomial ``m`` over ``tower``.

    Returns (new tower, root element).  ``m`` must be monic of degree >= 2
    with no rational root; the new tower's degree over Q must not exceed
    ``cap``.
    """
    if m.degree() < 2:
        raise ExactError("adjoin requires degree >= 2")
    lead = m.coeffs[-1]
    if not (lead == 1 or (isinstance(lead, ExtElem) and lead.is_rational() and lead.as_fraction() == 1)):
        raise ExactError("minimal polynomial must be monic")
    if all(is_rational_value(c) for c in m.coeffs):
        rat = UniPoly([as_fraction(c) for c in m.coeffs], var=m.var)
        if rational_roots(rat):
            raise ExactError("adjoin of reducible linear part")
    new_degree = tower.degree() * m.degree()
    if new_degree > cap:
        raise ExactError("tower cap exceeded")
    sub = tower.levels
    min_coeffs = []
    for c in m.coeffs:
        if isinstance(c, ExtElem):
            min_coeffs.append(tower.coerce(c).rep)
        else:
            min_coeffs.append(_const(sub, Q(c)))
    # irreducible over Q says nothing over Q(theta): only a level over Q
    # keeps the certificate
    presumed = bool(sub) or not getattr(m, "certified_irreducible", False)
    level = Level(name="t%d" % len(sub), minpoly=tuple(min_coeffs), degree=m.degree(), presumed=presumed)
    new_tower = Tower(sub + (level,))
    root = new_tower.generator(len(sub))
    return new_tower, root


def split_tower(tower: Tower, level: int, g, h):
    """Split ``tower`` at ``level`` whose modulus factors as g * h (monic)."""

    def rebuild(factor):
        new_levels = list(tower.levels[:level])
        new_levels.append(
            Level(
                name=tower.levels[level].name,
                minpoly=tuple(factor),
                degree=len(factor) - 1,
                presumed=tower.levels[level].presumed,
            )
        )
        for up in range(level + 1, len(tower.levels)):
            old = tower.levels[up]
            mapped = tuple(
                _transport(c, tower.levels[:up], tuple(new_levels)) for c in old.minpoly
            )
            new_levels.append(Level(name=old.name, minpoly=mapped, degree=old.degree, presumed=old.presumed))
        return Tower(tuple(new_levels))

    return rebuild(g), rebuild(h)


def _transport(rep, old_levels, new_levels):
    if not old_levels:
        return rep
    sub_old = old_levels[:-1]
    sub_new = new_levels[:-1]
    coords = [_transport(c, sub_old, sub_new) for c in rep]
    if old_levels[-1].degree != new_levels[-1].degree:
        return _reduce_list(new_levels, coords)
    return tuple(coords)


def transport_elem(e: ExtElem, new_tower: Tower) -> ExtElem:
    """Map an element into a factor tower after a split (coordinate reduction)."""
    if e.tower == new_tower:
        return e
    return ExtElem(new_tower, _transport(e.rep, e.tower.levels, new_tower.levels))


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

    def eval(self, x):
        acc = self._zero_c() if not isinstance(x, ExtElem) else x.tower.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def gcd(self, other):
        if (self.tower is None or self.tower.is_trivial()) and all(
            not isinstance(c, ExtElem) for c in self.coeffs + other.coeffs
        ):
            return _rational_gcd(self, other)
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        if a.is_zero():
            return a
        return a.monic()

    def squarefree_decomposition(self):
        """Yun's algorithm: returns [(monic squarefree factor, multiplicity)]."""
        if self.is_zero():
            raise ExactError("zero polynomial")
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

    def squarefree_part(self):
        if self.is_zero():
            raise ExactError("zero polynomial")
        p = self.monic()
        if p.degree() == 0:
            return p
        g = p.gcd(p.derivative())
        if g.degree() == 0:
            return p
        return p.exact_div(g)

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if f_is_zero(c):
                continue
            cs = str(c)
            if i == 0:
                parts.append(cs)
                continue
            power = self.var if i == 1 else "%s^%d" % (self.var, i)
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


def _int_eval(ints, x):
    acc = 0
    for c in reversed(ints):
        acc = acc * x + c
    return acc


def _heuristic_int_gcd(a, b):
    """GCDHEU: evaluate at a large point, take the integer gcd, reconstruct
    with balanced digits and verify by exact division; None on failure."""
    bound = 2 * max(max(abs(v) for v in a), max(abs(v) for v in b)) + 2
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
            cand = _int_primitive(digits) if digits else [0]
            if digits and _int_poly_divexact(a, cand) is not None and _int_poly_divexact(b, cand) is not None:
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
# factorization over Q
# ---------------------------------------------------------------------------

def _primitive_int_coeffs(p: UniPoly):
    """Scale a rational polynomial to primitive integer coefficients."""
    vals = [c.as_fraction() if isinstance(c, ExtElem) else c for c in p.coeffs]
    den = math.lcm(*[v.denominator for v in vals])
    ints = _int_primitive([v.numerator * (den // v.denominator) for v in vals])
    if ints and ints[-1] < 0:
        ints = [-v for v in ints]
    return ints


def _int_divisors(n: int):
    n = abs(n)
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    out.sort()
    return out


def rational_roots(p: UniPoly):
    """All rational roots of p over Q (no multiplicities), via the rational
    root theorem on the primitive integer form."""
    if p.is_zero():
        raise ExactError("zero polynomial")
    ints = _primitive_int_coeffs(p)
    roots = []
    # strip x^k content
    k = 0
    while ints and ints[0] == 0:
        ints = ints[1:]
        k += 1
    if k:
        roots.append(Q(0))
    if len(ints) <= 1:
        return roots
    a0, an = ints[0], ints[-1]
    seen = set()
    for num in _int_divisors(a0):
        for den in _int_divisors(an):
            for s in (1, -1):
                cand = Q(s * num, den)
                if cand in seen:
                    continue
                seen.add(cand)
                # den^deg * p(s num / den), on integers
                acc = 0
                den_pow = 1
                for c in reversed(ints):
                    acc = acc * s * num + c * den_pow
                    den_pow *= den
                if acc == 0:
                    roots.append(cand)
    roots.sort()
    return roots


def squarefree_and_rational_roots(p: UniPoly):
    """The squarefree part of p plus its rational roots with multiplicities."""
    if p.is_zero():
        raise ExactError("zero polynomial")
    sf = p.squarefree_part()
    roots = []
    for factor, mult in p.squarefree_decomposition():
        for r in rational_roots(factor):
            roots.append((r, mult))
    roots.sort()
    return sf, roots


def _mod_poly(ints, p):
    return [c % p for c in ints]


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


def _distinct_degree_pattern(ints, p):
    """Degrees of the distinct-degree factorization of f mod p, or None if
    f mod p degenerates (degree drop or not squarefree)."""
    f = _mod_poly(ints, p)
    while f and f[-1] == 0:
        f.pop()
    if len(f) - 1 != len(ints) - 1:
        return None
    deriv = [(i * f[i]) % p for i in range(1, len(f))]
    while deriv and deriv[-1] == 0:
        deriv.pop()
    if not deriv or len(_mod_gcd(f, deriv, p)) > 1:
        return None
    n = len(f) - 1
    pattern = []
    x = [0, 1]
    h = x[:]
    rem = f[:]
    d = 0
    while len(rem) - 1 >= 1 and d < n:
        d += 1
        # h = h^p mod f
        hp = [1]
        base = h[:]
        e = p
        while e:
            if e & 1:
                hp = _mod_mul(hp, base, f, p)
            base = _mod_mul(base, base, f, p)
            e >>= 1
        h = hp
        diff = h[:]
        while len(diff) < 2:
            diff.append(0)
        diff[1] = (diff[1] - 1) % p
        while diff and diff[-1] == 0:
            diff.pop()
        g = _mod_gcd(rem, diff, p)
        if len(g) > 1:
            deg = len(g) - 1
            for _ in range(deg // d):
                pattern.append(d)
            rem = _mod_divmod(rem, g, p)[0]
    if len(rem) > 1:
        pattern.append(len(rem) - 1)
    return pattern


def _subset_sums(pattern):
    sums = {0}
    for d in pattern:
        sums |= {s + d for s in sums}
    return sums


def modular_irreducibility(p: UniPoly):
    """True if certified irreducible over Q by reduction mod small primes,
    False if certified reducible is NOT possible here (returns None when
    inconclusive)."""
    ints = _primitive_int_coeffs(p)
    n = len(ints) - 1
    possible = set(range(n + 1))
    for prime in _CERT_PRIMES:
        if ints[-1] % prime == 0:
            continue
        pattern = _distinct_degree_pattern(ints, prime)
        if pattern is None:
            continue
        possible &= _subset_sums(pattern)
        if possible == {0, n}:
            return True
    return None


def _kronecker_split(ints):
    """Search a nontrivial factor of a squarefree primitive integer polynomial
    by divisor interpolation; returns integer coefficient list or None."""
    n = len(ints) - 1
    for d in range(2, n // 2 + 1):
        points = []
        x = 0
        while len(points) < d + 1 and abs(x) <= 40:
            v = _int_eval(ints, x)
            if v != 0:
                points.append((x, v))
            x = -x + (1 if x <= 0 else 0)
        if len(points) < d + 1:
            return None
        divisor_lists = []
        total = 1
        for _, v in points:
            divs = _int_divisors(v)
            divs = [s * t for t in divs for s in (1, -1)]
            divisor_lists.append(divs)
            total *= len(divs)
            if total > KRONECKER_EFFORT:
                break
        if total > KRONECKER_EFFORT:
            continue

        # the Lagrange basis of the points over one common denominator
        basis = []
        for xi, _ in points:
            num, den = [1], 1
            for xj, _ in points:
                if xj != xi:
                    num = _int_poly_mul(num, [-xj, 1])
                    den *= xi - xj
            basis.append((num, den))
        common = math.lcm(*(den for _, den in basis))
        basis = [[c * (common // den) for c in num] for num, den in basis]
        for values in itertools.product(*divisor_lists):
            coeffs = [sum(v * row[k] for v, row in zip(values, basis)) for k in range(d + 1)]
            if any(c % common for c in coeffs):
                continue
            gi = [c // common for c in coeffs]
            while gi and gi[-1] == 0:
                gi.pop()
            if len(gi) - 1 < 1 or len(gi) - 1 >= n:
                continue
            # ints is primitive: by Gauss's lemma gi divides it over Q iff
            # its primitive part divides it in Z[x]
            if _int_poly_divexact(ints, _int_primitive(gi)) is not None:
                return gi
    return None


@dataclass
class Factor:
    poly: UniPoly
    multiplicity: int
    certified: bool


def factor_univariate(p: UniPoly, cap=DEFAULT_FACTOR_CAP):
    """Factor a rational univariate polynomial into monic irreducibles.

    Degree <= 3 factors are certified by rational-root exclusion; degree >= 4
    factors are certified by a modular check when possible and otherwise
    flagged presumed irreducible (dynamic evaluation repairs them later).
    A certified factor of degree >= 2 is a new polynomial whose
    ``certified_irreducible`` is set, which ``adjoin_root`` reads; p itself
    is never flagged.
    """
    if p.is_zero():
        raise ExactError("zero polynomial")
    if p.degree() > cap:
        raise ExactError("factor cap exceeded")
    out = []
    for sf, mult in p.squarefree_decomposition():
        for piece, certified in _factor_squarefree(sf):
            out.append(Factor(piece, mult, certified))
    out.sort(key=lambda f: (f.poly.degree(), [as_fraction(c) for c in f.poly.coeffs]))
    return out


def _factor_squarefree(p: UniPoly):
    """Monic irreducible factors of the monic squarefree p, each with its
    certification; a factor may be p itself, never flagged in place."""
    if p.degree() == 0:
        return []
    if p.degree() == 1:
        return [(p, True)]
    pieces = []
    rest = p
    for r in rational_roots(rest):
        lin = UniPoly([_canon(-r), 1], var=p.var)
        while True:
            q, rem = rest.divmod(lin)
            if rem.is_zero():
                pieces.append((lin, True))
                rest = q
            else:
                break
    # a quotient's integral coefficients may be Fractions: monic makes them ints
    work = [rest.monic()] if rest.degree() >= 1 else []
    while work:
        f = work.pop()
        if f.degree() == 1:
            pieces.append((f, True))
            continue
        # no rational root (already stripped): irreducible for degree 2, 3
        if f.degree() <= 3 or modular_irreducibility(f):
            pieces.append((_flagged_irreducible(f), True))
            continue
        ints = _primitive_int_coeffs(f)
        split = _kronecker_split(ints)
        if split is None:
            pieces.append((f, False))
            continue
        g = UniPoly([Q(c) for c in split], var=p.var).monic()
        work.append(g)
        work.append(f.exact_div(g).monic())
    pieces.sort(key=lambda t: (t[0].degree(), [as_fraction(c) for c in t[0].coeffs]))
    return pieces


def _flagged_irreducible(f: UniPoly) -> UniPoly:
    """A copy of f marked certified irreducible; f may be a caller's."""
    g = UniPoly(f.coeffs, var=f.var, tower=f.tower)
    g.certified_irreducible = True
    return g
