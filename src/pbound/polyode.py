"""Bivariate polynomials and planar ODE systems dw/dz = P(z,w)/Q(z,w).

Supports ramified z-exponents (multiples of 1/nu) directly in the polynomial
type, so the iterated branch substitutions never rewrite z globally.  All
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
    UniPoly,
    _int_gcd,
    _int_primitive,
    ensure_regular,
    f_is_zero,
    f_inv,
    field_one,
    field_zero,
    transport_elem,
)


class OdeError(Exception):
    """Invalid system or transform request."""


class BiPoly:
    """Sparse exact polynomial in z and w; z-exponents are nonnegative
    rationals sharing the denominator ``ram``, w-exponents integers >= 0.

    A z-exponent key is an ``int`` when it is integral and a ``Fraction``
    only when it is not, so unramified arithmetic never touches Fractions;
    ``hash`` and ``==`` agree across the two types.

    A coefficient is an ``int`` when it is an integral rational, otherwise a
    ``Fraction``, or an ``ExtElem`` of ``tower``.  The two rational types mix
    freely; every division goes through ``f_inv`` or ``Q(a, b)``, so no
    ``int / int`` ever makes a float."""

    __slots__ = ("terms", "ram", "tower")

    def __init__(self, terms=None, ram=1, tower: Optional[Tower] = None):
        clean = {}
        if terms:
            for (ze, we), c in terms.items():
                if f_is_zero(c):
                    continue
                if type(ze) is not int:
                    if type(ze) is not Fraction:
                        ze = Q(ze)
                    if ze.denominator == 1:
                        ze = ze.numerator
                    else:
                        ram = math.lcm(ram, ze.denominator)
                if type(we) is not int:
                    we = int(we)
                clean[(ze, we)] = c
        self.terms = clean
        self.ram = ram
        self.tower = tower

    @classmethod
    def _from_clean(cls, terms, ram, tower):
        """A BiPoly on ``terms`` taken as they are: keys already normalized
        and no zero coefficient, so nothing is tested."""
        out = cls.__new__(cls)
        out.terms = terms
        out.ram = ram
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
    def var_z(cls, tower=None):
        return cls({(1, 0): field_one(tower)}, tower=tower)

    @classmethod
    def var_w(cls, tower=None):
        return cls({(0, 1): field_one(tower)}, tower=tower)

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
        return self.terms.get((ze, int(we)), field_zero(self.tower))

    # -- ring operations -------------------------------------------------------

    def _merge(self, other, sign):
        out = dict(self.terms)
        for key, c in other.terms.items():
            cur = out.get(key)
            nc = c if sign > 0 else -c
            out[key] = nc if cur is None else cur + nc
        return BiPoly(out, ram=math.lcm(self.ram, other.ram), tower=self.tower or other.tower)

    def __add__(self, other):
        return self._merge(other, +1)

    def __sub__(self, other):
        return self._merge(other, -1)

    def __neg__(self):
        return BiPoly._from_clean({k: -c for k, c in self.terms.items()}, self.ram, self.tower)

    def __mul__(self, other):
        if isinstance(other, BiPoly):
            out = {}
            for (z1, w1), c1 in self.terms.items():
                for (z2, w2), c2 in other.terms.items():
                    key = (z1 + z2, w1 + w2)
                    prod = c1 * c2
                    cur = out.get(key)
                    out[key] = prod if cur is None else cur + prod
            return BiPoly(out, ram=math.lcm(self.ram, other.ram), tower=self.tower or other.tower)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c):
        if f_is_zero(c):
            return BiPoly._from_clean({}, self.ram, self.tower)
        terms = {k: v * c for k, v in self.terms.items()}
        if isinstance(c, ExtElem) and not c.is_rational() and any(
            lv.presumed for lv in c.tower.levels
        ):
            # over a presumed modulus c may be a zero divisor
            return BiPoly(terms, ram=self.ram, tower=self.tower)
        return BiPoly._from_clean(terms, self.ram, self.tower)

    def shift_z(self, delta):
        """Multiply by z^delta (delta may be any rational)."""
        delta = Q(delta)
        if delta.denominator == 1:
            delta = delta.numerator
        return BiPoly(
            {(ze + delta, we): c for (ze, we), c in self.terms.items()},
            ram=math.lcm(self.ram, delta.denominator),
            tower=self.tower,
        )

    def diff_z(self):
        out = {}
        for (ze, we), c in self.terms.items():
            if ze == 0:
                continue
            out[(ze - 1, we)] = c * ze
        return BiPoly(out, ram=self.ram, tower=self.tower)

    def diff_w(self):
        out = {}
        for (ze, we), c in self.terms.items():
            if we == 0:
                continue
            out[(ze, we - 1)] = c * we
        return BiPoly(out, ram=self.ram, tower=self.tower)

    def z_valuation(self):
        """Lowest z-exponent carried by a unit coefficient; None if zero.

        Over a presumed-irreducible tower a zero-divisor coefficient aborts
        with TowerSplitError rather than returning a wrong valuation.
        """
        best = None
        for (ze, we), c in sorted(self.terms.items(), key=lambda kv: kv[0][0]):
            if best is not None and ze > best:
                break
            if not ensure_regular(c):
                best = ze
        return best

    # -- substitution ----------------------------------------------------------

    def eval_w_series(self, series: "BiPoly"):
        """Substitute w -> series(z): each w-power of the series is built
        once, and every product lands in one dict."""
        tower = self.tower or series.tower
        pows = [BiPoly.const(field_one(tower), tower=tower)]
        for _ in range(max(self.w_degree(), 0)):
            pows.append(pows[-1] * series)
        out = {}
        ram = 1
        for (ze, we), c in self.terms.items():
            ram = math.lcm(ram, ze.denominator, pows[we].ram)
            _accumulate(out, c, ze, pows[we])
        return BiPoly(out, ram=ram, tower=tower)

    def subst_affine(self, z_expr: "BiPoly", w_expr: "BiPoly"):
        """Substitute z -> z_expr, w -> w_expr (plain polynomials only)."""
        if self.ram != 1:
            raise OdeError("affine substitution requires integer exponents")
        tower = self.tower
        zpows = {0: BiPoly.const(field_one(tower), tower=tower)}
        wpows = {0: BiPoly.const(field_one(tower), tower=tower)}

        def power(cache, basep, n):
            if n not in cache:
                cache[n] = power(cache, basep, n - 1) * basep
            return cache[n]

        out = {}
        ram = 1
        for (ze, we), c in self.terms.items():
            piece = power(zpows, z_expr, int(ze)) * power(wpows, w_expr, we)
            tower = tower or piece.tower
            ram = math.lcm(ram, piece.ram)
            _accumulate(out, c, 0, piece)
        return BiPoly(out, ram=ram, tower=tower)

    def map_tower(self, tower: Tower):
        return BiPoly._from_clean(
            {k: tower.coerce(c) for k, c in self.terms.items()}, self.ram, tower
        )

    def transport(self, new_tower: Tower):
        return BiPoly(
            {
                k: transport_elem(c, new_tower) if isinstance(c, ExtElem) else c
                for k, c in self.terms.items()
            },
            ram=self.ram,
            tower=new_tower,
        )

    # -- printing / identity -----------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, BiPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items(), key=lambda kv: kv[0])))

    def __repr__(self):
        return bipoly_str(self)


def _accumulate(out, c, ze, poly):
    """out += c z^ze poly on a plain term dict; zeros stay until the caller
    builds its BiPoly."""
    for (pze, pwe), pc in poly.terms.items():
        key = (ze + pze, pwe)
        prod = c * pc
        cur = out.get(key)
        out[key] = prod if cur is None else cur + prod


def bipoly_str(p: BiPoly, zvar="z", wvar="w") -> str:
    if p.is_zero():
        return "0"
    terms = sorted(p.terms.items(), key=lambda kv: (-(kv[0][0] + kv[0][1]), -kv[0][1]))
    parts = []
    for (ze, we), c in terms:
        factors = []
        if ze != 0:
            factors.append(zvar if ze == 1 else "%s^%s" % (zvar, _exp_str(ze)))
        if we != 0:
            factors.append(wvar if we == 1 else "%s^%d" % (wvar, we))
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
# w-major view and bivariate gcd machinery (plain exponents)
# ---------------------------------------------------------------------------

def bipoly_to_wpoly(p: BiPoly):
    """List of UniPoly-in-z coefficients by ascending w-power (ram must be 1)."""
    if p.ram != 1:
        raise OdeError("w-major view requires integer exponents")
    tower = p.tower
    deg = p.w_degree()
    rows = [[] for _ in range(deg + 1)]
    maxz = {i: -1 for i in range(deg + 1)}
    for (ze, we), _ in p.terms.items():
        maxz[we] = max(maxz[we], int(ze))
    for we in range(deg + 1):
        coeffs = [field_zero(tower)] * (maxz[we] + 1)
        rows[we] = coeffs
    for (ze, we), c in p.terms.items():
        rows[we][int(ze)] = c
    return [UniPoly(r, var="z", tower=tower) for r in rows]


def wpoly_to_bipoly(rows, tower=None):
    terms = {}
    for we, row in enumerate(rows):
        for ze, c in enumerate(row.coeffs):
            if not f_is_zero(c):
                terms[(ze, we)] = c
    return BiPoly(terms, tower=tower)


def _wpoly_degree(rows):
    d = -1
    for i, r in enumerate(rows):
        if not r.is_zero():
            d = i
    return d


def _wpoly_trim(rows):
    while rows and rows[-1].is_zero():
        rows.pop()
    return rows


def _wpoly_content(rows):
    g = None
    for r in rows:
        if r.is_zero():
            continue
        g = r if g is None else g.gcd(r)
        if g.degree() == 0:
            break
    return g


def _wpoly_scale(rows, zpoly):
    return [r * zpoly for r in rows]


def _wpoly_divide_content(rows, content):
    return [r.exact_div(content) if not r.is_zero() else r for r in rows]


def _wpoly_pseudo_divmod(num, den):
    """Pseudo-division in w over the z-polynomial ring: lc^e * num = q*den + r.

    Only the non-Darboux witness (``darboux._division_witness``) uses it, and
    its remainder is the one that witness reports; ``bipoly_divexact`` divides
    exactly instead."""
    num = [r for r in num]
    dd = _wpoly_degree(den)
    lc = den[dd]
    q = [UniPoly([], var="z", tower=lc.tower) for _ in range(max(len(num) - dd, 1))]
    e = 0
    while True:
        dn = _wpoly_degree(num)
        if dn < dd or dn < 0:
            break
        head = num[dn]
        num = _wpoly_scale(num, lc)
        q = _wpoly_scale(q, lc)
        e += 1
        q[dn - dd] = q[dn - dd] + head
        for j in range(dd + 1):
            num[dn - dd + j] = num[dn - dd + j] - head * den[j]
        _wpoly_trim(num)
    return q, num, e


def _wpoly_prem_controlled(num, den):
    """A remainder of w-degree < deg(den), equal to the pseudo-remainder up to
    a z-polynomial factor; coefficient growth is held down by cancelling the
    head/leading gcd and stripping the content after every step.  Only valid
    for gcd computations."""
    num = [r for r in num]
    dd = _wpoly_degree(den)
    lc = den[dd]
    while True:
        dn = _wpoly_degree(num)
        if dn < dd or dn < 0:
            break
        head = num[dn]
        g = head.gcd(lc)
        if g.degree() > 0:
            scale_all = lc.exact_div(g)
            scale_head = head.exact_div(g)
        else:
            scale_all = lc
            scale_head = head
        num = [r * scale_all for r in num]
        for j in range(dd + 1):
            num[dn - dd + j] = num[dn - dd + j] - scale_head * den[j]
        _wpoly_trim(num)
        content = _wpoly_content(num)
        if content is not None and content.degree() > 0:
            num = _wpoly_divide_content(num, content)
    return num


def biv_gcd(a: BiPoly, b: BiPoly) -> BiPoly:
    """gcd of plain bivariate polynomials (monic-normalized).

    Over Q a certificate at integer points comes first.  For z0 = 1, -1, 2,
    -2, ..., skipping 0 (singular points sit on the axes) and the roots of
    either w-leading coefficient, if gcd(a(z0, w), b(z0, w)) is constant for
    one of at most three such z0, then deg_w G = 0 for G = gcd(a, b): the
    w-leading coefficient of G divides that of a, which is nonzero at z0, so
    G(z0, w) keeps the w-degree of G and divides a constant.  The same test
    at w0, keeping the z-leading coefficients, gives deg_z G = 0, so G = 1.
    With only the first, G is the gcd of the contents in Q[z].  Otherwise,
    and over towers, the primitive PRS computes the gcd.
    """
    if a.is_zero():
        return _normalize_biv(b)
    if b.is_zero():
        return _normalize_biv(a)
    ia, ib = _int_terms(a), _int_terms(b)
    if ia is not None and ib is not None and _constant_gcd_at_a_point(ia, ib, 0):
        if _constant_gcd_at_a_point(ia, ib, 1):
            return BiPoly.const(1, tower=a.tower or b.tower)
        content = _wpoly_content(bipoly_to_wpoly(a) + bipoly_to_wpoly(b))
        return _normalize_biv(wpoly_to_bipoly([content], tower=a.tower or b.tower))
    ra, rb = bipoly_to_wpoly(a), bipoly_to_wpoly(b)
    ca, cb = _wpoly_content(ra), _wpoly_content(rb)
    content = ca.gcd(cb)
    pa = _wpoly_divide_content(ra, ca)
    pb = _wpoly_divide_content(rb, cb)
    if _wpoly_degree(pa) < _wpoly_degree(pb):
        pa, pb = pb, pa
    while True:
        if _wpoly_degree(pb) < 0:
            g = pa
            break
        rem = _wpoly_prem_controlled(pa, pb)
        rem = _wpoly_trim(rem)
        if _wpoly_degree(rem) < 0:
            g = pb
            break
        cr = _wpoly_content(rem)
        rem = _wpoly_divide_content(rem, cr)
        pa, pb = pb, rem
    if _wpoly_degree(g) == 0:
        # gcd is a z-polynomial times the content
        result = wpoly_to_bipoly([content], tower=a.tower or b.tower)
    else:
        cg = _wpoly_content(g)
        g = _wpoly_divide_content(g, cg)
        g = [poly * content for poly in g]
        result = wpoly_to_bipoly(g, tower=a.tower or b.tower)
    return _normalize_biv(result)


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
    """
    if den.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    tower = num.tower or den.tower
    if num.is_zero():
        return BiPoly.zero(tower)
    if num.ram != 1 or den.ram != 1:
        raise OdeError("exact division requires integer exponents")
    nz, nw = int(num.z_degree()), num.w_degree()
    dw = den.w_degree()
    qz_max = nz - int(den.z_degree())
    if qz_max < 0 or nw < dw:
        return None
    zero = field_zero(tower)
    rows = [[zero] * (nz + 1) for _ in range(nw + 1)]
    for (ze, we), c in num.terms.items():
        rows[we][int(ze)] = c
    dz = max(int(ze) for (ze, we) in den.terms if we == dw)
    lc_inv = f_inv(den.terms[(dz, dw)])
    rest = [(we, int(ze), c) for (ze, we), c in den.terms.items() if (ze, we) != (dz, dw)]
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
            qc = c * lc_inv
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
    """dw/dz = P/Q with exact coefficients; P is the numerator."""

    P: BiPoly
    Q: BiPoly
    tower: Optional[Tower] = None

    def __post_init__(self):
        if self.P.is_zero() and self.Q.is_zero():
            raise OdeError("P and Q cannot both vanish")

    @property
    def ram(self):
        return math.lcm(self.P.ram, self.Q.ram)

    def degree(self):
        """max of total degrees (plain systems)."""
        return int(max(self.P.total_degree(), self.Q.total_degree()))

    def w_degrees(self):
        return self.P.w_degree(), self.Q.w_degree()

    def map_tower(self, tower: Tower) -> "OdeSystem":
        return OdeSystem(self.P.map_tower(tower), self.Q.map_tower(tower), tower=tower)

    def transport(self, new_tower: Tower) -> "OdeSystem":
        return OdeSystem(self.P.transport(new_tower), self.Q.transport(new_tower), tower=new_tower)

    def translate_w(self, alpha, lam) -> "OdeSystem":
        """The system for w1 after w = alpha z^lam + w1 (lam >= 0):
        Q1 = Q(z, alpha z^lam + w1) and
        P1 = P(z, alpha z^lam + w1) - alpha lam z^(lam-1) Q1, in the same
        z-frame.

        Both sides go to plain dicts on integer exponents over a common
        denominator n, through ``_shift_sides``, and back to one BiPoly
        each.  A side's ram is the lcm of its exponents' denominators, and
        of lam's once it has a w-power; P1 takes Q1's when lam != 0.
        """
        den = lam.denominator
        n = math.lcm(self.P.ram, self.Q.ram, den)
        tower = self.tower
        p, p_ram = _scaled_terms(self.P, n)
        q, q_ram = _scaled_terms(self.Q, n)
        p_deg, q_deg = self.P.w_degree(), self.Q.w_degree()
        if den > 1 and p_deg > 0:
            p_ram = math.lcm(p_ram, den)
        if den > 1 and q_deg > 0:
            q_ram = math.lcm(q_ram, den)
        p1, q1 = _shift_sides(p.items(), q.items(), alpha, lam, n, max(p_deg, q_deg, 0), tower)
        if lam:
            p_ram = math.lcm(p_ram, den, q_ram)
        P1 = _from_scaled(p1, n, p_ram, self.P.tower or tower)
        Q1 = _from_scaled(q1, n, q_ram, self.Q.tower or tower)
        return OdeSystem(P1, Q1, tower=tower)

    def normalized(self) -> "OdeSystem":
        """Shift both sides by a common z-power so the lowest exponent is 0."""
        vals = [ze for (ze, _) in self.P.terms] + [ze for (ze, _) in self.Q.terms]
        if not vals:
            return self
        low = min(vals)
        if low == 0:
            return self
        return OdeSystem(self.P.shift_z(-low), self.Q.shift_z(-low), tower=self.tower)


def _shift_table(alpha, step, deg, tower):
    """Row k lists (shift, j, factor) for each term factor z^shift w^j of
    (alpha z^lam + w)^k, j ascending, shift on the scale n lam = ``step``;
    factor None stands for the rational 1, by which nothing is multiplied."""
    one = field_one(tower)
    apow = [one]
    for _ in range(deg):
        apow.append(apow[-1] * alpha)
    unit = None if type(one) is int else one
    table = []
    for k in range(deg + 1):
        row = []
        for j in range(k + 1):
            i = k - j
            factor = unit if i == 0 else apow[i] if j == 0 else apow[i] * math.comb(k, j)
            row.append((i * step, j, factor))
        table.append(row)
    return table


def _scaled_terms(poly: BiPoly, n):
    """poly's terms on (n * z-exponent, j) keys, and the lcm of its
    exponents' denominators; n must be a multiple of ``poly.ram``."""
    if n == 1:
        return poly.terms, 1
    out, ram = {}, 1
    for (ze, we), c in poly.terms.items():
        if type(ze) is int:
            out[(ze * n, we)] = c
        else:
            ram = math.lcm(ram, ze.denominator)
            out[(ze.numerator * (n // ze.denominator), we)] = c
    return out, ram


def _shift_sides(p_items, q_items, alpha, lam, n, deg, tower):
    """The one shift kernel: P1 and Q1 of ``translate_w`` as plain dicts on
    (n * z-exponent, j) keys, zeros kept, from the (key, coefficient) items
    of P and Q on those keys; ``deg`` bounds their w-degree and n lam must
    be an integer.

    A term c z^e w^k gives C(k, j) alpha^(k-j) c at z^(e + (k-j) lam) w^j
    for j <= k, with the factors and shifts of ``_shift_table``; then
    -alpha lam z^(lam-1) Q1 is added into P1.
    """
    num, den = lam.numerator, lam.denominator
    step = num * (n // den)  # n lam
    table = _shift_table(alpha, step, deg, tower)
    q1 = _shift_terms(q_items, table)
    p1 = _shift_terms(p_items, table)
    if num:
        factor = -(alpha * (num if den == 1 else lam))
        shift = step - n  # n (lam - 1)
        for (s, j), c in q1.items():
            key = (s + shift, j)
            prod = c * factor
            cur = p1.get(key)
            p1[key] = prod if cur is None else cur + prod
    return p1, q1


def _shift_terms(items, table):
    """The (key, coefficient) items of a side, shifted by ``table``, summed
    in one plain dict; zeros are kept."""
    out = {}
    for (s, we), c in items:
        for shift, j, factor in table[we]:
            key = (s + shift, j)
            prod = c if factor is None else c * factor
            cur = out.get(key)
            out[key] = prod if cur is None else cur + prod
    return out


def _from_scaled(out, n, ram, tower) -> BiPoly:
    """The BiPoly of a plain dict on (n * z-exponent, j) keys: zero
    coefficients are dropped (``f_is_zero``, so a product of zero divisors
    over a presumed tower goes too) and exponents turn back into ints and
    Fractions."""
    if n == 1:
        return BiPoly._from_clean({k: c for k, c in out.items() if not f_is_zero(c)}, ram, tower)
    exps, terms = {}, {}
    for (s, j), c in out.items():
        if f_is_zero(c):
            continue
        ze = exps.get(s)
        if ze is None:
            ze = exps[s] = s // n if s % n == 0 else Fraction(s, n)
        terms[(ze, j)] = c
    return BiPoly._from_clean(terms, ram, tower)


def make_system(P: BiPoly, Q: BiPoly, tower=None, check_coprime=True):
    """Validate and build a top-level system (plain exponents, coprime P, Q)."""
    if P.is_zero() or Q.is_zero():
        raise OdeError("P and Q must be nonzero")
    if check_coprime and P.ram == 1 and Q.ram == 1 and (tower is None or tower.is_trivial()):
        g = biv_gcd(P, Q)
        if g.total_degree() > 0:
            raise OdeError("P and Q share the common factor %s" % bipoly_str(g))
    return OdeSystem(P, Q, tower=tower)


# ---------------------------------------------------------------------------
# coefficient profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoeffProfile:
    """Leading z-data per w-power: k_i and p_{i,0} for P, l_i and q_{i,0} for Q.

    Absent powers are simply missing from the mappings (conceptually +inf).
    """

    p: dict
    q: dict


def _leading_entries(terms, powers=None):
    """w-power -> (z-exponent, coefficient) of its lowest unit coefficient,
    for every w-power of a term dict or only those in ``powers``; the
    exponents are read on the dict's own scale."""
    parts = {}
    for (ze, we), c in terms.items():
        if powers is None or we in powers:
            parts.setdefault(we, []).append((ze, c))
    out = {}
    for we, pairs in parts.items():
        pairs.sort(key=lambda t: t[0])
        for ze, c in pairs:
            if not ensure_regular(c):
                out[we] = (ze, c)
                break
    return out


def coeff_profile(sys: OdeSystem) -> CoeffProfile:
    return CoeffProfile(p=_leading_entries(sys.P.terms), q=_leading_entries(sys.Q.terms))


def fold_profile(p_terms, q_terms) -> CoeffProfile:
    """The entries a 1-fold step reads, from the term dicts of P and Q:
    P at w^0 and w^1, Q at w^0."""
    return CoeffProfile(p=_leading_entries(p_terms, (0, 1)), q=_leading_entries(q_terms, (0,)))


# ---------------------------------------------------------------------------
# Puiseux branches
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PuiseuxBranch:
    """A partial local solution w = w0 + sum alpha_i (z - z0)^{mu_i}."""

    terms: tuple  # ((mu: Fraction, alpha), ...) strictly increasing mu
    ram: int
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

    def series(self, tower=None) -> BiPoly:
        t = tower
        return BiPoly({(mu, 0): c for mu, c in self.terms}, ram=self.ram, tower=t)

    def __str__(self):
        if not self.terms:
            return "0"
        return _join_signed([
            _signed_term(c, ["z" if mu == 1 else "z^%s" % _exp_str(mu)] if mu else [])
            for mu, c in self.terms
        ])


# ---------------------------------------------------------------------------
# point transforms
# ---------------------------------------------------------------------------

def translate_point(sys: OdeSystem, z0, w0) -> OdeSystem:
    """Move the point (z0, w0) to the origin.

    On the axis z0 = 0 this is the shift w -> w0 + w of ``translate_w`` (the
    identity at the origin); only z0 != 0 takes the affine substitution."""
    tower = sys.tower
    if f_is_zero(z0):
        if f_is_zero(w0):
            return sys
        return sys.translate_w(_coerce_scalar(tower, w0), 0)
    one = field_one(tower)
    z_expr = BiPoly({(1, 0): one, (0, 0): _coerce_scalar(tower, z0)}, tower=tower)
    w_expr = BiPoly({(0, 1): one, (0, 0): _coerce_scalar(tower, w0)}, tower=tower)
    return OdeSystem(
        sys.P.subst_affine(z_expr, w_expr), sys.Q.subst_affine(z_expr, w_expr), tower=tower
    )


def invert_at_infinity(sys: OdeSystem, z0=Q(0)) -> OdeSystem:
    """Move (z0, infinity) to the origin via wbar = 1/w.

    dwbar/dz = -wbar^2 F(z, 1/wbar); common monomial content (powers of z and
    wbar) is cancelled afterwards.
    """
    tower = sys.tower
    if not (isinstance(z0, (int, Fraction)) and Q(z0) == 0):
        sys = translate_point(sys, z0, field_zero(tower) if tower else Q(0))
        sys = OdeSystem(sys.P, sys.Q, tower=tower)
    D = max(sys.P.w_degree(), sys.Q.w_degree())
    newP = {}
    for (ze, we), c in sys.P.terms.items():
        key = (ze, D - we + 2)
        cur = newP.get(key)
        newP[key] = -c if cur is None else cur - c
    newQ = {}
    for (ze, we), c in sys.Q.terms.items():
        key = (ze, D - we)
        cur = newQ.get(key)
        newQ[key] = c if cur is None else cur + c
    Pb = BiPoly(newP, tower=tower)
    Qb = BiPoly(newQ, tower=tower)
    dz = min(min((ze for (ze, _) in Pb.terms), default=0), min((ze for (ze, _) in Qb.terms), default=0))
    dw = min(min((we for (_, we) in Pb.terms), default=0), min((we for (_, we) in Qb.terms), default=0))
    if dz or dw:
        Pb = BiPoly({(ze - dz, we - dw): c for (ze, we), c in Pb.terms.items()}, tower=tower)
        Qb = BiPoly({(ze - dz, we - dw): c for (ze, we), c in Qb.terms.items()}, tower=tower)
    return OdeSystem(Pb, Qb, tower=tower)


def shear_point(sys: OdeSystem, a, b, c, z0=Q(0), w0=Q(0)) -> OdeSystem:
    """W = a (w - w0) + b (z - z0), Z = c (z - z0); needs a, c nonzero."""
    a, b, c = Q(a), Q(b), Q(c)
    if a == 0 or c == 0:
        raise OdeError("degenerate shear")
    tower = sys.tower
    # inverse substitution: z = z0 + Z/c, w = w0 + W/a - (b/(a c)) Z
    z_expr = BiPoly(
        {(1, 0): _coerce_scalar(tower, Q(1) / c), (0, 0): _coerce_scalar(tower, z0)},
        tower=tower,
    )
    w_expr = BiPoly(
        {
            (0, 1): _coerce_scalar(tower, Q(1) / a),
            (1, 0): _coerce_scalar(tower, -b / (a * c)),
            (0, 0): _coerce_scalar(tower, w0),
        },
        tower=tower,
    )
    Ps = sys.P.subst_affine(z_expr, w_expr)
    Qs = sys.Q.subst_affine(z_expr, w_expr)
    newP = Ps.scale(_coerce_scalar(tower, a)) + Qs.scale(_coerce_scalar(tower, b))
    newQ = Qs.scale(_coerce_scalar(tower, c))
    return OdeSystem(newP, newQ, tower=tower)


def transform_point(sys: OdeSystem, target) -> OdeSystem:
    """Dispatch: ("point", z0, w0), ("inf", z0) or ("shear", a, b, c, z0, w0)."""
    kind = target[0]
    if kind == "point":
        return translate_point(sys, target[1], target[2])
    if kind == "inf":
        return invert_at_infinity(sys, target[1])
    if kind == "shear":
        return shear_point(sys, *target[1:])
    raise OdeError("unknown transform target %r" % (target,))


def _coerce_scalar(tower, x):
    if isinstance(x, ExtElem):
        return x
    x = Q(x)
    if tower is None or tower.is_trivial():
        return x.numerator if x.denominator == 1 else x
    return tower.from_fraction(x)


# ---------------------------------------------------------------------------
# branch substitution and the residual oracle
# ---------------------------------------------------------------------------

def substitute_branch(sys: OdeSystem, lam, alpha, check_acceptable=True) -> OdeSystem:
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
    out = sys.translate_w(alpha, lam)
    if check_acceptable and not _pair_acceptable(sys, lam, out):
        raise OdeError("not an acceptable pair")
    return out.normalized()


def _pair_acceptable(sys: OdeSystem, lam, out: OdeSystem) -> bool:
    """(lam, alpha) is acceptable when the lowest supported z-order of
    P1(z, 0) = P(z, a z^l) - a l z^(l-1) Q(z, a z^l), read off the remainder
    ``out`` in the frame of ``sys``, lies strictly above the support minimum
    min{l_i + (i+1) lam - 1, k_j + j lam}: the leading terms cancel."""
    profile = coeff_profile(sys)
    orders = [kj + j * lam for j, (kj, _) in profile.p.items()]
    orders += [li + (i + 1) * lam - 1 for i, (li, _) in profile.q.items()]
    lead = coeff_profile(out).p.get(0)
    return not orders or lead is None or lead[0] > min(orders)


def residual_valuation(sys: OdeSystem, branch: PuiseuxBranch):
    """Exact valuation of Q(z,b) b' - P(z,b) for the branch b; None means
    the residual vanishes identically (an exact solution)."""
    if not branch.terms:
        raise OdeError("empty branch")
    tower = sys.tower
    series = branch.series(tower)
    dseries = BiPoly({(mu - 1, 0): c * mu for mu, c in branch.terms}, tower=tower)
    residual = sys.Q.eval_w_series(series) * dseries - sys.P.eval_w_series(series)
    return residual.z_valuation()
