"""Text input for systems and structured report output.

Grammar (explicit multiplication only, rational literals as a/b):

    system  := eq (";" binding)*
    eq      := "dw/dz" "=" poly "/" poly
             | "dz/dt" "=" poly ";" "dw/dt" "=" poly
    poly    := ["-"] term (("+"|"-") term)*
    term    := factor ("*" factor)*
    factor  := atom ("^" uint)?
    atom    := "z" | "w" | rational | paramname | "(" poly ")"
    binding := paramname "=" ["-"] rational
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from .exact import ExtElem, Q, as_fraction, is_rational_value
from .polyode import BiPoly, OdeSystem, bipoly_str, make_system


class ParseError(Exception):
    def __init__(self, message, line, col):
        super().__init__("%s (line %d, column %d)" % (message, line, col))
        self.line = line
        self.col = col


@dataclass
class SystemSource:
    form: str  # "pq" | "autonomous"
    axis: bool  # denominator divisible by z
    bindings: dict


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()=;,]))"
)


def _tokenize(text):
    """(kind, value, offset) triples, then an eof token; line and column are
    worked out from the offset only when an error is reported."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            skip = len(text[pos:]) - len(stripped)
            raise ParseError("unexpected character %r" % stripped[0], *_position(text, pos + skip))
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


def _position(text, pos):
    line = text.count("\n", 0, pos) + 1
    col = pos - (text.rfind("\n", 0, pos) + 1) + 1
    return line, col


def _literal(val):
    """The rational written as ``[-]n`` (an int) or ``[-]n/d`` (a Fraction);
    None when d is 0."""
    num, _, den = val.partition("/")
    if not den:
        return int(num)
    if int(den) == 0:
        return None
    return Q(int(num), int(den))


class _Parser:
    def __init__(self, text, params):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.params = params

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value, what=None):
        if self.peek()[1] != value:
            self.fail("expected %r" % (what or value))
        return self.next()

    def fail(self, message, tok=None):
        """Raise a ParseError at ``tok``, by default the next token."""
        raise ParseError(message, *_position(self.text, (tok or self.peek())[2]))

    # -- polynomial parsing --------------------------------------------------
    #
    # A term is read as one monomial (coefficient, z-exponent, w-exponent)
    # while its factors are monomials; a BiPoly product is formed only for a
    # parenthesised sum of more than one term, or a power of one.

    def poly(self) -> BiPoly:
        """The signed terms, summed into one dict; zero sums are dropped when
        the BiPoly is built."""
        negate = False
        if self.peek()[1] == "-":
            self.next()
            negate = True
        out = {}
        while True:
            term = self.term()
            if type(term) is tuple:
                c, ze, we = term
                items = (((ze, we), c),) if c else ()
            else:
                items = term.terms.items()
            for key, c in items:
                if negate:
                    c = -c
                cur = out.get(key)
                out[key] = c if cur is None else cur + c
            if self.peek()[1] not in ("+", "-"):
                return BiPoly(out)
            negate = self.next()[1] == "-"

    def term(self):
        acc = self.factor()
        while self.peek()[1] == "*":
            self.next()
            rhs = self.factor()
            if type(acc) is tuple and type(rhs) is tuple:
                acc = (acc[0] * rhs[0], acc[1] + rhs[1], acc[2] + rhs[2])
            else:
                acc = _as_bipoly(acc) * _as_bipoly(rhs)
        return acc

    def factor(self):
        base = self.atom()
        if self.peek()[1] == "^":
            self.next()
            tok = self.next()
            if tok[0] != "num" or "/" in tok[1]:
                self.fail("exponent must be a nonnegative integer", tok)
            n = int(tok[1])
            if type(base) is tuple:
                c, ze, we = base
                # 0^0 is the int 1, as for the empty sum
                return (c ** n if c else int(n == 0), ze * n, we * n)
            return _power(base, n)
        return base

    def atom(self):
        """A monomial (c, ze, we), or a BiPoly for a parenthesised sum of
        other than one term."""
        tok = self.peek()
        kind, val, _ = tok
        if val == "(":
            self.next()
            inner = self.poly()
            self.expect(")")
            if len(inner.terms) == 1:
                ((ze, we), c), = inner.terms.items()
                return (c, ze, we)
            return inner
        if kind == "num":
            value = _literal(val)
            if value is None:
                self.fail("zero denominator in %s" % val)
            self.next()
            return (value, 0, 0)
        if kind == "name":
            self.next()
            if val == "z":
                return (1, 1, 0)
            if val == "w":
                return (1, 0, 1)
            if val in self.params:
                return (self.params[val], 0, 0)
            self.fail("unbound parameter %r" % val, tok)
        self.fail("expected a polynomial atom")


def _as_bipoly(f) -> BiPoly:
    if type(f) is tuple:
        c, ze, we = f
        return BiPoly.monomial(c, ze, we)
    return f


def _power(base: BiPoly, n: int) -> BiPoly:
    """base^n by repeated squaring (base is not one monomial)."""
    out = BiPoly.const(1)
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        if n:
            base = base * base
    return out


_BINDING_RE = re.compile(
    r"^\s*([A-Za-z_][A-Za-z_0-9]*)\s*=\s*(-?\d+(?:/\d+)?)\s*$"
)


def parse_system(text):
    """Parse a system description; returns (OdeSystem, SystemSource)."""
    bindings = {}
    eq_pieces = []
    offset = 0
    for piece in text.split(";"):
        m = _BINDING_RE.match(piece)
        if m and m.group(1) not in ("z", "w"):
            name, val = m.group(1), m.group(2)
            value = _literal(val)
            if value is None:
                raise ParseError("zero denominator in %s" % val, *_position(text, offset + m.start(2)))
            bindings[name] = value
        else:
            eq_pieces.append(piece)
        offset += len(piece) + 1
    eq_text = ";".join(eq_pieces)
    parser = _Parser(eq_text, bindings)

    kind, val, _ = parser.peek()
    if kind != "name" or val not in ("dw", "dz"):
        parser.fail("expected 'dw/dz' or 'dz/dt'")
    if val == "dw":
        parser.next()
        parser.expect("/")
        tok = parser.next()
        if tok[1] != "dz":
            parser.fail("expected 'dw/dz'", tok)
        parser.expect("=")
        p_poly = parser.poly()
        parser.expect("/", what="'/' between numerator and denominator")
        q_poly = parser.poly()
        form = "pq"
    else:
        parser.next()
        parser.expect("/")
        tok = parser.next()
        if tok[1] != "dt":
            parser.fail("expected 'dz/dt'", tok)
        parser.expect("=")
        q_poly = parser.poly()  # dz/dt is the denominator of dw/dz
        parser.expect(";")
        tok = parser.next()
        if tok[1] != "dw":
            parser.fail("expected 'dw/dt'", tok)
        parser.expect("/")
        tok = parser.next()
        if tok[1] != "dt":
            parser.fail("expected 'dw/dt'", tok)
        parser.expect("=")
        p_poly = parser.poly()
        form = "autonomous"
    if parser.peek()[0] != "eof":
        parser.fail("unexpected trailing input")

    sys = make_system(p_poly, q_poly)
    return sys, SystemSource(form=form, axis=_divisible_by_z(q_poly), bindings=bindings)


def _divisible_by_z(p: BiPoly) -> bool:
    return bool(p.terms) and all(ze >= 1 for (ze, _) in p.terms)


def print_system(sys: OdeSystem) -> str:
    return "dw/dz = (%s) / (%s)" % (bipoly_str(sys.P), bipoly_str(sys.Q))


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def coeff_str(c) -> str:
    if is_rational_value(c):
        return str(as_fraction(c))
    return str(c)


def tower_description(tower):
    if tower is None or tower.is_trivial():
        return []
    from .exact import ExtElem as _E

    out = []
    for depth, level in enumerate(tower.levels):
        sub = tower.levels[:depth]
        coeff_strs = []
        for i, rep in enumerate(level.minpoly):
            s = _E._str(sub, rep)
            coeff_strs.append((i, s))
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
        out.append({"generator": level.name, "minpoly": joined, "presumed_irreducible": level.presumed})
    return out


def branch_report(branch):
    return {
        "exponents": [str(mu) for mu, _ in branch.terms],
        "coefficients": [coeff_str(c) for _, c in branch.terms],
        "tower": tower_description(_branch_tower(branch)),
        "conjugacy_degree": branch.conj_degree,
        "status": branch.status,
        "flags": list(branch.flags),
    }


def _branch_tower(branch):
    for _, c in branch.terms:
        if isinstance(c, ExtElem):
            return c.tower
    return None


def witness_report(witness):
    if witness is None:
        return None
    return {
        "test": witness.kind,
        "lambda": coeff_str(witness.lam_star),
        "depth": witness.depth,
        "prefix_exponents": [str(mu) for mu, _ in witness.prefix],
        "prefix_coefficients": [coeff_str(c) for _, c in witness.prefix],
        "flags": list(witness.flags),
    }


def multiplicity_report(result):
    out = {"status": result.status}
    if result.status == "finite":
        out["mul"] = result.count
    if result.status == "capped":
        out["mul_lower_bound"] = result.lower_bound
        out["cap_diagnostics"] = list(result.diagnostics)
    out["branches"] = [branch_report(b) for b in result.branches]
    out["criticality_witness"] = witness_report(result.witness)
    if result.flags:
        out["flags"] = list(result.flags)
    return out


def build_report(obj):
    """Normalize any analysis outcome into a plain dict."""
    if isinstance(obj, dict):
        return obj
    if hasattr(obj, "to_report"):
        return obj.to_report()
    from .branching import MultiplicityResult

    if isinstance(obj, MultiplicityResult):
        return multiplicity_report(obj)
    raise TypeError("cannot report %r" % type(obj).__name__)


def emit_report(obj, fmt="text") -> bytes:
    report = build_report(obj)
    if fmt == "json":
        return (json.dumps(report, indent=2) + "\n").encode()
    if fmt == "text":
        lines = []
        _render_text(report, lines, 0)
        return ("\n".join(lines) + "\n").encode()
    raise ValueError("unknown report format %r" % fmt)


def _render_text(node, lines, depth):
    pad = "  " * depth
    if isinstance(node, dict):
        for key, value in node.items():
            if isinstance(value, (dict, list)):
                lines.append("%s%s:" % (pad, key))
                _render_text(value, lines, depth + 1)
            else:
                lines.append("%s%s: %s" % (pad, key, _scalar(value)))
    elif isinstance(node, list):
        if not node:
            lines.append("%s(none)" % pad)
        for item in node:
            if isinstance(item, (dict, list)):
                lines.append("%s-" % pad)
                _render_text(item, lines, depth + 1)
            else:
                lines.append("%s- %s" % (pad, _scalar(item)))
    else:
        lines.append("%s%s" % (pad, _scalar(node)))


def _scalar(value):
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)
