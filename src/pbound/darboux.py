"""Darboux polynomials: verification, strictness, line detection, search.

For the autonomous system (zdot, wdot) = (Q, P) a polynomial f is Darboux when
X(f) = Q f_z + P f_w equals R_f * f exactly; the zero set of f is then an
invariant algebraic curve, strict when it has no component z = z0 or w = w0.

Line detection solves for the degree-one Darboux polynomials by
undetermined coefficients.  It is the source of ``analyze``'s
``invariant_lines``, and it is the bounded-degree search's degree-1 step:
an irreducible invariant curve divides the extactic determinant E_1 exactly
when it is a line, and E_1 vanishes identically exactly when the lines form
a one-parameter family.  From degree 2 up, the search builds the extactic
determinant E_n of the monomial basis under X (invariant curves of degree
<= n divide it when it is nonzero), peels off the known factors, extracts
the invariant core of the rest by iterated gcd with its own derivative
along X, and confirms every candidate factor by exact division.  A degree
at or above that of a rational first integral, which an integer relation
among the certified curves' cofactors gives, is identically zero without
a determinant.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .branching import Reason
from .exact import (
    ExactError,
    ExtElem,
    Q,
    Tower,
    UniPoly,
    _canon,
    _int_poly_mul,
    _int_poly_sub,
    _level_modulus,
    _rows_content,
    _sylvester_resultant,
    as_fraction,
    f_is_zero,
    field_zero,
    factor_roots,
    factor_univariate,
    int_echelon,
    is_rational_value,
    packed_det,
    sort_key,
)
from .polyode import (
    BiPoly,
    OdeError,
    OdeSystem,
    _normalize_biv,
    _primitive_int,
    _int_rows,
    _int_terms,
    _integer_sides,
    _lex_division,
    _over,
    bipoly_divexact,
    bipoly_divmod,
    bipoly_str,
    biv_gcd,
)
from .sysparse import tower_description


class DarbouxError(Exception):
    pass


@dataclass
class DarbouxCertificate:
    f: BiPoly
    cofactor: BiPoly
    strict: bool
    offending: tuple  # non-strict components, as strings
    irreducible: bool
    certified: bool  # irreducibility certification strength

    def degree(self):
        return self.f.total_degree()

    def w_degree(self):
        return self.f.w_degree()

    def to_report(self):
        return {
            "poly": bipoly_str(self.f),
            "cofactor": bipoly_str(self.cofactor),
            "degree": self.degree(),
            "w_degree": self.w_degree(),
            "strict": self.strict,
            "offending_components": list(self.offending),
            "irreducible": self.irreducible,
            "irreducibility": "certified" if self.certified else "presumed",
        }

    @property
    def reasons(self) -> tuple:
        """A presumed irreducibility, by the curve's polynomial."""
        if self.certified:
            return ()
        return (Reason("presumed-irreducible", "certificate", bipoly_str(self.f)),)


@dataclass
class NotDarboux:
    remainder: BiPoly


def verify_darboux(sys: OdeSystem, f: BiPoly):
    """Exact division of X(f) by f: a certificate or the nonzero remainder.

    Over Q, f = c g with g its primitive integer part, and the field is
    (1/s) times an integer pair (p, q) (``_integer_field``), so X(f) =
    (c/s) X'(g) with X' the field of (p, q).  Division is linear,
    so one (w, z)-lex walk of X'(g) by g on ints, k' g + r', gives the
    cofactor k'/s and the remainder (c/s) r' of X(f) by f.  By Gauss's lemma
    k' is an integer polynomial when g divides X'(g), so its coefficients
    are ints.  Over a tower X(f) is derived and divided as it stands."""
    if f.is_zero():
        raise DarbouxError("zero candidate")
    if f.total_degree() == 0:
        raise DarbouxError("constant candidate")
    field, g = _integer_field(sys), _primitive_int(f)
    if field is not None and all(type(c) is int for c in g.terms.values()):
        p, q, s = field
        xf = BiPoly._from_clean(_derive_terms(p, q, g.terms), None)
        quotient = {}
        remainder = dict(_lex_division(xf, g, quotient))
        if remainder:
            key = next(iter(g.terms))
            r = Q(f.terms[key], g.terms[key]) / s
            return NotDarboux(remainder=BiPoly._from_clean({k: _canon(c * r) for k, c in remainder.items()}, None))
        num, den = s.numerator, s.denominator
        quotient = BiPoly._from_clean({k: _over(c * den, num) for k, c in quotient.items()}, None)
    else:
        tower = sys.tower or sys.P.tower or sys.Q.tower or f.tower
        xf = BiPoly(_derive_terms(sys.P.terms, sys.Q.terms, f.terms), tower)
        quotient, remainder = bipoly_divmod(xf, f)
        if not remainder.is_zero():
            return NotDarboux(remainder=remainder)
    m = sys.degree()
    if not xf.is_zero():
        assert quotient.total_degree() <= m - 1, "cofactor degree bound violated"
    strict, offenders = strictness_check(f)
    irreducible, certified = _irreducibility(f, offenders)
    return DarbouxCertificate(
        f=f,
        cofactor=quotient,
        strict=strict,
        offending=offenders,
        irreducible=irreducible,
        certified=certified,
    )


def _integer_field(sys: OdeSystem):
    """(p, q, s) with (p, q) = s (P, Q) the content-free integer field and
    s a positive rational (``_integer_sides``); None when a coefficient
    lies in a tower."""
    if not all(isinstance(c, (int, Fraction)) for c in [*sys.P.terms.values(), *sys.Q.terms.values()]):
        return None
    return _integer_sides(sys.P.terms, sys.Q.terms, None)


def strictness_check(f: BiPoly):
    """Strict iff f carries no component z = z0 or w = w0 (over C).

    Such a component exists exactly when the content of f in z or in w is
    nonconstant, so no root isolation is needed.  The offenders are "z" and
    "w" for a power of the variable and "z-factor c" / "w-factor c" for the
    rest c of the content.
    """
    if f.is_zero():
        raise DarbouxError("zero candidate")
    if f.total_degree() == 0:
        raise DarbouxError("constant candidate")
    offenders = []
    for var in ("z", "w"):
        k, c = _univariate_content(f, var)
        if k > 0:
            offenders.append(var)
        if c.degree() > 0:
            offenders.append("%s-factor %s" % (var, c))
    offenders = sorted(offenders)
    return (not offenders), tuple(offenders)


def _univariate_content(f: BiPoly, var: str):
    """(k, c) with var^k c(var) the gcd of the coefficients of f in the other
    variable and c(0) != 0; c is a UniPoly in var, zero when f is.

    A single nonzero coefficient is its own content, kept as it stands, over
    Q or a tower.  Otherwise the content is the monic gcd over Q of the
    integer rows of ``_int_terms`` in var (``_rows_content``, the content
    routine of ``biv_gcd``); a tower coefficient raises ``DarbouxError``."""
    axis = 0 if var == "z" else 1
    if len({key[1 - axis] for key in f.terms}) < 2:
        coeffs = _row_coeffs(f, axis)
    elif (ints := _int_terms(f)) is None:
        raise DarbouxError("strictness check requires rational coefficients")
    else:
        coeffs = UniPoly(_rows_content(_int_rows(ints, axis)), var=var).monic().coeffs
    k = next((i for i, c in enumerate(coeffs) if not f_is_zero(c)), 0)
    return k, UniPoly(coeffs[k:], var=var, tower=f.tower)


def _row_coeffs(f: BiPoly, axis: int):
    """The coefficients, ascending, of f as a polynomial in the variable
    ``axis`` (0 for z, 1 for w) alone, the other exponents dropped; f has
    one power of the other variable."""
    row = {key[axis]: c for key, c in f.terms.items()}
    return [row.get(i, field_zero(f.tower)) for i in range(max(row, default=-1) + 1)]


def _lift(p: UniPoly, var: str) -> BiPoly:
    """The UniPoly p in var as a BiPoly."""
    return BiPoly({(i, 0) if var == "z" else (0, i): c for i, c in enumerate(p.coeffs)}, tower=p.tower)


def _content_factors(f: BiPoly, var: str):
    """[(factor, multiplicity)] of the content of f in var over Q: var itself
    first when it divides f, then the irreducible factors of the rest."""
    k, c = _univariate_content(f, var)
    out = [(UniPoly([Q(0), Q(1)], var=var), k)] if k > 0 else []
    if c.degree() > 0:
        out.extend((fac.poly, fac.multiplicity) for fac in factor_univariate(c))
    return out


def _irreducibility(f: BiPoly, offenders):
    """Irreducibility over Q: (verdict, certified).

    Degree one is irreducible.  A polynomial in one variable is factored.
    One in both variables is reducible when strictness_check found an
    offender, which is then a proper factor.  Without one it is primitive in
    both variables, so by Gauss's lemma a factor of degree 0 in a variable
    is a constant: degree 1 in w or in z certifies it irreducible.  Degree 2
    in a variable over Q certifies either verdict: a proper factor then has
    degree 1 in it, so f = a v^2 + b v + c splits over Q exactly when its
    discriminant b^2 - 4 a c is a square in Q[other variable]
    (``_is_square``).  It is presumed irreducible otherwise.
    """
    if f.total_degree() == 1:
        return True, True
    if f.w_degree() == 0 or f.z_degree() == 0:
        facs = factor_univariate(UniPoly(_row_coeffs(f, 0 if f.w_degree() == 0 else 1), var="z", tower=f.tower))
        if len(facs) == 1 and facs[0].multiplicity == 1:
            return True, facs[0].certified
        return False, True
    if offenders:
        return False, True
    if f.w_degree() == 1 or f.z_degree() == 1:
        return True, True
    ints = _int_terms(f)
    for axis, degree in ((0, f.w_degree()), (1, f.z_degree())):
        if degree == 2 and ints is not None:
            c, b, a = _int_rows(ints, axis)
            return not _is_square(_int_poly_sub(_int_poly_mul(b, b), _int_poly_mul([4 * x for x in a], c))), True
    return True, False  # presumed irreducible


def _is_square(f) -> bool:
    """Whether the dense int list f, ascending and trimmed, is the square of
    a polynomial over Q.  Over its gcd g, with a positive lead, it is then
    the square of a primitive integer polynomial r (Gauss's lemma), and g a
    square: r is read off f from the top, each coefficient one exact
    division by 2 r_m, and checked."""
    if not f:
        return True
    g = math.gcd(*f)
    if len(f) % 2 == 0 or f[-1] < 0 or math.isqrt(g) ** 2 != g:
        return False
    f = [x // g for x in f]
    m = len(f) // 2
    r = [0] * m + [math.isqrt(f[-1])]
    for k in range(m - 1, -1, -1):
        r[k], rest = divmod(f[m + k] - sum(r[i] * r[m + k - i] for i in range(k + 1, m)), 2 * r[m])
        if rest:
            return False
    return _int_poly_mul(r, r) == f


# ---------------------------------------------------------------------------
# degree-1 detection by exact elimination
# ---------------------------------------------------------------------------

@dataclass
class LineFamily:
    """Conjugate family of lines given by an irreducible factor; a sloped
    one also keeps the tower of its slope and intercept."""

    kind: str  # "z", "w" or "sloped"
    factor: UniPoly
    degree: int
    tower: Optional[Tower] = None

    def to_report(self):
        out = {
            "kind": self.kind,
            "defining_polynomial": str(self.factor),
            "conjugates": self.degree,
        }
        if self.tower is not None:
            out["tower"] = tower_description(self.tower)
        return out


@dataclass
class LineDetection:
    lines: list  # DarbouxCertificate for rational lines
    families: list  # LineFamily for conjugate (irrational) ones
    dicritical: bool
    notes: tuple = ()
    capped: tuple = ()  # the notes of the factors whose roots a cap stopped

    def to_report(self):
        return {
            "lines": [c.to_report() for c in self.lines],
            "conjugate_families": [f.to_report() for f in self.families],
            "dicritical_line_family": self.dicritical,
            "notes": list(self.notes),
        }

    @property
    def reasons(self) -> tuple:
        """The lines' reasons, then each capped factor, by its note."""
        return tuple(r for c in self.lines for r in c.reasons) + tuple(
            Reason("capped", "lines", note) for note in self.capped
        )


def detect_invariant_lines(sys: OdeSystem) -> LineDetection:
    """All degree-1 Darboux polynomials u z + v w + t by undetermined
    coefficients, eliminated exactly; a positive-dimensional solution set is
    reported as a dicritical line family.  Over Q the lines are read off
    an integer multiple of the field (``_integer_field``: a constant factor
    changes no zero and no content), which is computed once."""
    ints = _integer_field(sys)
    if ints is None:
        A, B = sys.Q, sys.P  # zdot, wdot
    else:
        A, B = BiPoly._from_clean(ints[1], None), BiPoly._from_clean(ints[0], None)
    lines = []
    families = []
    notes = []
    dicritical = False

    # axis-parallel lines: (z - z0) | A and (w - w0) | B
    for var, field in (("z", A), ("w", B)):
        for fac, _ in _content_factors(field, var):
            if fac.degree() == 1:
                cert = verify_darboux(sys, _lift(fac, var))
                if isinstance(cert, DarbouxCertificate):
                    lines.append(cert)
            else:
                families.append(LineFamily(kind=var, factor=fac, degree=fac.degree()))

    # sloped lines w = s z + r: (B - s A)(z, s z + r) == 0 identically in z
    conditions = _sloped_line_conditions(A, B)
    status, pairs, extra_notes, capped = _solve_two_var_system(conditions)
    notes.extend(extra_notes)
    notes.extend(capped)
    if status == "infinite":
        dicritical = True
    else:
        for s_val, r_val in pairs:
            if is_rational_value(s_val) and is_rational_value(r_val):
                s0, r0 = as_fraction(s_val), as_fraction(r_val)
                cand = BiPoly({(0, 1): Q(1), (1, 0): -s0, (0, 0): -r0})
                cert = verify_darboux(sys, cand)
                if isinstance(cert, DarbouxCertificate):
                    lines.append(cert)
            else:
                tower = s_val.tower if isinstance(s_val, ExtElem) else r_val.tower
                minpoly = _level_modulus(tower.levels, tower.levels[-1].name)
                families.append(LineFamily(kind="sloped", factor=minpoly, degree=tower.degree(), tower=tower))

    lines = _dedupe_certs(lines)
    return LineDetection(
        lines=lines, families=families, dicritical=dicritical, notes=tuple(notes), capped=tuple(capped)
    )


def _sloped_line_conditions(A: BiPoly, B: BiPoly):
    """Coefficients in z of (B - s A)(z, s z + r) as polynomials in (s, r).

    The unknown pair lives in a helper BiPoly with s on the z-slot and r on
    the w-slot.
    """
    conditions = {}

    def accumulate(poly: BiPoly, extra_s_power: int, sign: int):
        for (ze, we), c in poly.terms.items():
            for k in range(we + 1):
                koeff = sign * c * math.comb(we, k)
                m = ze + k
                key = (k + extra_s_power, we - k)
                bucket = conditions.setdefault(m, {})
                bucket[key] = bucket.get(key, 0) + koeff

    accumulate(B, 0, 1)
    accumulate(A, 1, -1)
    out = []
    for m in sorted(conditions):
        poly = BiPoly(conditions[m])
        if not poly.is_zero():
            out.append(poly)
    return out


def _dedupe_certs(certs):
    """The certificates, one per curve, by degree and text: two polynomials
    over Q give one curve when their primitive integer parts agree."""
    seen = {}
    for cert in certs:
        key = tuple((k, sort_key(v)) for k, v in sorted(_primitive_int(cert.f).terms.items()))
        if key not in seen:
            seen[key] = cert
    return sorted(seen.values(), key=lambda c: (c.degree(), bipoly_str(c.f)))


# -- exact solving of a bivariate polynomial system ---------------------------

def _solve_two_var_system(polys):
    """Common zeros of polynomials in (s, r) with s != 0; returns (status,
    pairs, notes, capped), where capped notes each slope or intercept
    factor whose root a cap stopped.

    status "infinite" flags a positive-dimensional solution set (a common
    nonconstant factor); "finite" returns all solutions with coordinates in Q
    or in an adjoined tower.  The slope s = 0 is never solved: a horizontal
    line is a factor of B's content in z, which gives it.  Slopes that no
    condition bounds are a cap like the others: lines may be missing.
    """
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        return "infinite", [], ("no constraints on lines",), []
    g = polys[0]
    for p in polys[1:]:
        g = biv_gcd(g, p)
        if g.total_degree() == 0:
            break
    if g.total_degree() > 0:
        return "infinite", [], (), []
    # candidate s-values from r-free conditions and resultants
    s_constraints = []
    r_positive = []
    for p in polys:
        if p.w_degree() == 0:
            s_constraints.append(UniPoly(_row_coeffs(p, 0), var="z"))
        else:
            r_positive.append(p)
    notes = []
    if r_positive:
        base = min(r_positive, key=lambda p: p.w_degree())
        for other in r_positive:
            if other is base:
                continue
            res = _resultant_r(base, other)
            if res is not None and not res.is_zero():
                s_constraints.append(res)
    if not s_constraints:
        return "partial", [], (), ["could not bound line slopes"]
    gs = functools.reduce(UniPoly.gcd, s_constraints)
    if gs.degree() == 0:
        return "finite", [], notes, []
    capped = []
    pairs = []
    for s in _roots(gs, None, "slope", capped):
        if s.value == 0:
            continue  # s = 0
        pairs.extend(_solve_r_given_s(polys, s.value, capped))
    verified = []
    for s_val, r_val in pairs:
        if all(_eval_sr(p, s_val, r_val) for p in polys):
            verified.append((s_val, r_val))
    return "finite", verified, notes, capped


def _roots(p: UniPoly, tower, what, capped):
    """The entries of ``factor_roots`` for p over Q or ``tower``, at the
    default caps, that have a root; each one a cap stopped is noted in
    ``capped``, where ``what`` names p's unknown."""
    out = []
    for root in factor_roots(p, tower):
        if root.note == "factor-cap":
            capped.append("%s polynomial beyond factor cap: %s" % (what, root.factor))
        elif root.note == "tower-cap":
            capped.append("%s factor beyond tower cap: %s" % (what, root.factor))
        elif root.note == "irreducibility-cap":
            capped.append("%s factor beyond irreducibility cap: %s" % (what, root.factor))
        else:
            out.append(root)
    return out


def _solve_r_given_s(polys, s_val, capped):
    """The pairs (s_val, r) of common zeros, r over s_val's field or
    adjoined over it, with s_val then lifted to r's tower."""
    tower = s_val.tower if isinstance(s_val, ExtElem) else None
    r_polys = []
    for p in polys:
        u = _substitute_s(p, s_val, tower)
        if u.degree() == 0 and not u.is_zero():
            return []  # inconsistent at this s
        if not u.is_zero():
            r_polys.append(u)
    if not r_polys:
        return []
    g = functools.reduce(UniPoly.gcd, r_polys)
    if g.degree() == 0:
        return []
    return [
        (r.value.tower.coerce(s_val) if r.note == "adjoined" else s_val, r.value)
        for r in _roots(g, tower, "intercept", capped)
    ]


def _substitute_s(p: BiPoly, s_val, tower):
    """p(s, r) at s = s_val as a UniPoly in r."""
    deg_r = p.w_degree()
    coeffs = []
    for j in range(deg_r + 1):
        acc = tower.zero() if tower is not None else Q(0)
        for (se, we), c in p.terms.items():
            if we != j:
                continue
            acc = acc + c * (s_val ** se)
        coeffs.append(acc)
    return UniPoly(coeffs, var="r", tower=tower)


def _eval_sr(p: BiPoly, s_val, r_val) -> bool:
    total = None
    for (se, we), c in p.terms.items():
        term = c * (s_val ** se) * (r_val**we)
        total = term if total is None else total + term
    return total is None or f_is_zero(total)


def _resultant_r(a: BiPoly, b: BiPoly) -> Optional[UniPoly]:
    """The resultant eliminating r, a UniPoly in s: the Sylvester one, and
    for a = a1 r + a0 its closed form a1^n b(-a0/a1), n = deg_r b, which
    is the homogeneous sum of b_j (-a0)^j a1^(n - j), taken by Horner on
    int lists: with la a and lb b integral it is la^n lb times the
    resultant."""
    m, n = a.w_degree(), b.w_degree()
    if m < 0 or n < 0 or m + n == 0:
        return None
    if m != 1:
        return _sylvester_resultant(a.terms, b.terms, "z")
    (la, (a0, a1)), (lb, rows) = _r_rows(a), _r_rows(b)
    out, power = rows[n], a1
    for j in range(n - 1, -1, -1):
        out = _int_poly_sub(_int_poly_mul(rows[j], power), _int_poly_mul(out, a0))
        power = _int_poly_mul(power, a1)
    scale = la**n * lb
    return UniPoly([_over(c, scale) for c in out], var="z")


def _r_rows(p: BiPoly):
    """(l, rows): l the lcm of p's denominators, and the coefficients of
    l p in r, ascending, as dense int lists in s."""
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    rows = [[0] * (int(p.z_degree()) + 1) for _ in range(p.w_degree() + 1)]
    for (se, we), c in p.terms.items():
        rows[we][int(se)] = c.numerator * (den // c.denominator)
    return den, rows


# ---------------------------------------------------------------------------
# extactic search
# ---------------------------------------------------------------------------

#: largest extactic determinant dimension computed, (n + 1)(n + 2) / 2 at degree n
DIM_CAP = 10
#: largest total degree of a residual whose invariant core is extracted
CORE_DEGREE_CAP = 14


@dataclass
class SearchOutcome:
    certificates: list
    dicritical_degrees: tuple
    notes: tuple = ()
    partial: bool = False

    def to_report(self):
        return {
            "certificates": [c.to_report() for c in self.certificates],
            "identically_zero_extactic_degrees": list(self.dicritical_degrees),
            "partial": self.partial,
            "notes": list(self.notes),
        }

    @property
    def reasons(self) -> tuple:
        """The certificates' reasons, then a partial search with its notes."""
        out = [r for c in self.certificates for r in c.reasons]
        if self.partial:
            out.append(Reason("partial-search", "darboux", "; ".join(self.notes)))
        return tuple(out)


def extactic_determinant(sys: OdeSystem, n: int) -> BiPoly:
    """det of (X^i applied to the degree-<=n monomial basis), over Q.

    The determinant is computed on integers, on the content-free integer
    field s X of ``_integer_sides``, s a positive rational: row i of the
    matrix M' is s^i X^i of the basis, so det M = det M' / s^(k(k-1)/2) for
    k rows.  Since X(1) = 0, column 0 of the constant monomial is
    (1, 0, ..., 0), and det M' is the minor of row 0 and column 0: the
    rows X^1 .. X^(k-1) of the nonconstant monomials, derived on int term
    dicts and handed to ``packed_det``.
    """
    if sys.n != 1:
        raise OdeError("extactic determinant requires integer exponents")
    field = _integer_field(sys)
    if field is None:
        raise DarbouxError("extactic determinant requires rational coefficients")
    p, q, s = field
    monomials = [{(i, total - i): 1} for total in range(1, n + 1) for i in range(total + 1)]
    rows = [[_derive_terms(p, q, g) for g in monomials]]
    while len(rows) < len(monomials):
        rows.append([_derive_terms(p, q, g) for g in rows[-1]])
    try:
        det = packed_det(rows)
    except ExactError as exc:  # a remainder is a bug, not a cap (exit 3)
        raise DarbouxError(str(exc)) from exc
    size = len(rows) + 1
    scale = s ** (size * (size - 1) // 2)
    num, den = scale.numerator, scale.denominator
    return BiPoly._from_clean({key: _over(c * den, num) for key, c in det.items()}, None)


def _derive_terms(p, q, g):
    """X(g) = q g_z + p g_w on int term dicts, without zeros."""
    out = {}
    get = out.get
    for (ze, we), c in g.items():
        if ze:
            cz = c * ze
            for (a, j), d in q.items():
                key = (ze - 1 + a, we + j)
                out[key] = get(key, 0) + cz * d
        if we:
            cw = c * we
            for (a, j), d in p.items():
                key = (ze + a, we - 1 + j)
                out[key] = get(key, 0) + cw * d
    return {key: c for key, c in out.items() if c}


def invariant_core(sys: OdeSystem, e: BiPoly) -> BiPoly:
    """Largest factor of e all of whose irreducible factors are Darboux:
    the stable gcd of e with its derivative along the field, normalized.

    Every step takes primitive integer parts and derives along the
    content-free integer field of ``_integer_sides``, since a gcd is defined
    up to a constant."""
    field = _integer_field(sys)
    if field is None:
        raise DarbouxError("extactic determinant requires rational coefficients")
    p, q, _ = field
    g = _primitive_int(e)
    while g.total_degree() > 0:
        nxt = _primitive_int(biv_gcd(g, BiPoly._from_clean(_derive_terms(p, q, g.terms), None)))
        if nxt.total_degree() == g.total_degree():
            return _normalize_biv(nxt)
        g = nxt
    return _normalize_biv(g)


def _biv_squarefree(f: BiPoly) -> BiPoly:
    g = biv_gcd(f, f.diff_z())
    g = biv_gcd(g, f.diff_w())
    if g.total_degree() == 0:
        return f
    out = bipoly_divexact(f, g)
    return out if out is not None else f


def _peel_axes(e: BiPoly) -> BiPoly:
    """e without its factors z and w: every exponent less the least one."""
    za = min(ze for (ze, _) in e.terms)
    wb = min(we for (_, we) in e.terms)
    if not (za or wb):
        return e
    return BiPoly._from_clean({(ze - za, we - wb): c for (ze, we), c in e.terms.items()}, None)


def search_darboux(
    sys: OdeSystem, max_total_degree: int, detection: Optional[LineDetection] = None
) -> SearchOutcome:
    """Invariant algebraic curves of total degree <= max_total_degree.

    ``detection`` is the system's ``detect_invariant_lines``, computed here
    when not given; it decides degree 1 (``_degree_one``), so the first
    determinant is E_2, and none is built at a degree that
    ``_first_integral_degree`` of the certificates so far already decides.
    E_n is needed only up to a constant, so its primitive
    integer part is peeled before it goes to ``invariant_core``, which
    normalizes the core its candidates come from: z^a w^b by subtracting the
    least exponents (``_peel_axes``), then every other known factor by
    repeated exact division.  The known factors are prime to z and w, so
    this leaves the residual that dividing by each in turn leaves."""
    if max_total_degree < 1:
        return SearchOutcome(certificates=[], dicritical_degrees=())
    certs = []
    dicritical = []
    notes = []
    partial = False
    if detection is None:
        detection = detect_invariant_lines(sys)
    certs.extend(detection.lines)
    if detection.dicritical:
        notes.append("one-parameter family of invariant lines")
        dicritical.append(1)
    else:
        partial = _degree_one(sys, detection, certs, notes)
    for n in range(2, max_total_degree + 1):
        size = (n + 1) * (n + 2) // 2
        if size > DIM_CAP:
            notes.append("degree %d skipped: determinant dimension %d exceeds cap %d" % (n, size, DIM_CAP))
            partial = True
            break
        if dicritical or n >= _first_integral_degree(certs):
            # Along a trajectory E_n is the Wronskian of the degree-<=n
            # monomials; once those of degree <= n - 1 are dependent along
            # every trajectory (E_{n-1} == 0), so are these: E_n == 0.  A
            # first integral of degree <= n makes them dependent as well.
            dicritical.append(n)
            continue
        e = extactic_determinant(sys, n)
        if e.is_zero():
            dicritical.append(n)
            continue
        # peel already-known invariant factors before the expensive gcd
        e = _peel_axes(_primitive_int(e))
        for cert in certs:
            known = _primitive_int(cert.f)
            if len(known.terms) == 1:
                continue  # z or w, peeled above
            while e.total_degree() > 0:
                quotient = bipoly_divexact(e, known)
                if quotient is None:
                    break
                e = quotient
        if e.total_degree() == 0:
            continue
        if e.total_degree() > CORE_DEGREE_CAP:
            notes.append(
                "degree %d: invariant-core extraction skipped on a degree-%d residual"
                % (n, e.total_degree())
            )
            partial = True
            continue
        core = invariant_core(sys, e)
        if core.total_degree() == 0:
            continue
        candidates, leftover = _core_factors(_biv_squarefree(core), n)
        if leftover:
            # the unsplit factor may hide Darboux factors of degree <= n
            notes.append("degree %d: %s" % (n, leftover))
            partial = True
        for cand in candidates:
            cert = verify_darboux(sys, cand)
            if isinstance(cert, DarbouxCertificate):
                certs.append(cert)
    if len(certs) > len(detection.lines):  # the detection's lines are deduplicated
        certs = _dedupe_certs(certs)
    return SearchOutcome(
        certificates=certs,
        dicritical_degrees=tuple(dicritical),
        notes=tuple(notes),
        partial=partial,
    )


def _first_integral_degree(certs):
    """The least degree d of a rational first integral that the cofactors
    of ``certs`` give, or inf: d = max(deg A, deg B) over the kernel basis
    (``int_echelon``) of the cofactor matrix, with one row per monomial and
    one column per certificate over Q that is certified irreducible and
    unlike the ones before it.

    X(f_i) = k_i f_i, so a kernel vector v makes F = prod f_i^(v_i) = A / B,
    A over v_i > 0 and B over v_i < 0, a first integral: X(F) = F sum v_i
    k_i = 0.  Distinct irreducible f_i make A and B coprime and F
    nonconstant.  Then each A - c B is a nonzero invariant polynomial of
    degree <= d, and one of them vanishes along each trajectory where B !=
    0, so there the monomials of degree <= n >= d are dependent: E_n, their
    Wronskian along it, vanishes on a dense set, so identically."""
    cols, seen = [], set()
    for cert in certs:
        if not (cert.irreducible and cert.certified) or _int_terms(cert.f) is None:
            continue
        key = frozenset(_primitive_int(cert.f).terms.items())
        if key not in seen and _int_terms(cert.cofactor) is not None:
            seen.add(key)
            cols.append(cert)
    rows = {}
    for j, cert in enumerate(cols):
        for key, c in cert.cofactor.terms.items():
            rows.setdefault(key, [0] * len(cols))[j] = c
    int_rows = []
    for row in rows.values():
        den = math.lcm(*(c.denominator for c in row))
        int_rows.append([c.numerator * (den // c.denominator) for c in row])
    best = math.inf
    for v in int_echelon(int_rows, len(cols)).kernel:
        degrees = [x * cert.degree() for x, cert in zip(v, cols)]
        best = min(best, max(sum(d for d in degrees if d > 0), -sum(d for d in degrees if d < 0)))
    return best


def _degree_one(sys: OdeSystem, detection: LineDetection, certs, notes) -> bool:
    """The search's degree 1 for a detection without a line family: appends
    the certificates and notes that E_1's invariant core would give, and
    returns whether they leave the search partial.

    With zdot = A and wdot = B nonzero, E_1 = A X(B) - B X(A) is nonzero here,
    and its irreducible invariant factors are exactly the invariant lines
    (each point of such a factor is an inflection point of its trajectory).
    The rational lines are ``detection.lines``; an axis-parallel family is a
    factor of A's content in z or of B's in w, certified as it stands; the
    sloped families are one factor of E_1's core that does not split over Q.
    A capped detection may miss lines, which its notes name."""
    for fam in detection.families:
        if fam.kind != "sloped":
            certs.append(verify_darboux(sys, _lift(fam.factor, fam.kind)))
    unsplit = sum(fam.degree for fam in detection.families if fam.kind == "sloped")
    if unsplit:
        notes.append("degree 1: unsplit invariant factor of degree %d" % unsplit)
    notes.extend("degree 1: %s" % note for note in detection.capped)
    return bool(unsplit or detection.capped)


def _core_factors(core: BiPoly, n: int):
    """Split the invariant core into candidate factors of degree <= n."""
    out = []
    work = _normalize_biv(core)
    if work.total_degree() == 0:
        return out, None
    # the contents in each variable peel off axis-parallel factors
    for var in ("z", "w"):
        for fac, mult in _content_factors(work, var):
            cand = _lift(fac, var)
            out.append(cand)
            for _ in range(mult):
                nxt = bipoly_divexact(work, cand)
                if nxt is None:
                    break
                work = nxt
    work = _normalize_biv(work)
    note = None
    if 0 < work.total_degree() <= n:
        out.append(work)
    elif work.total_degree() > n:
        note = "unsplit invariant factor of degree %d" % work.total_degree()
    return out, note
