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


# one token, or (the second group) one character no token starts with
_TOKEN_RE = re.compile(
    r"\s*(?:(\d+(?:/\d+)?|[A-Za-z_][A-Za-z_0-9]*|[-+*/^()=;,])|(\S))"
)


def _tokenize(text):
    """The token strings of ``text``, then "" for the end of input.  A token
    is a number (it starts with a digit), a name or an operator; offsets are
    worked out again only when an error is reported (``_token_offset``)."""
    tokens = [tok for tok, _ in _TOKEN_RE.findall(text)]
    if "" in tokens:  # the catch-all group matched
        pos = _token_offset(text, tokens.index(""))
        raise ParseError("unexpected character %r" % text[pos], *_position(text, pos))
    tokens.append("")
    return tokens


def _token_offset(text, i):
    """The offset of token ``i`` of ``text``; the end of the text for the
    end-of-input token."""
    for j, m in enumerate(_TOKEN_RE.finditer(text)):
        if j == i:
            return m.start(m.lastindex)
    return len(text)


def _is_number(tok):
    return tok[:1].isdecimal()  # the characters \d matches


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
        if self.peek() != value:
            self.fail("expected %r" % (what or value))
        return self.next()

    def fail(self, message, at=None):
        """Raise a ParseError at token index ``at``, by default the next token."""
        pos = _token_offset(self.text, self.i if at is None else at)
        raise ParseError(message, *_position(self.text, pos))

    # -- polynomial parsing --------------------------------------------------
    #
    # A term is read as one monomial (coefficient, z-exponent, w-exponent)
    # while its factors are monomials; a BiPoly product is formed only for a
    # parenthesised sum of more than one term, or a power of one.

    def poly(self) -> BiPoly:
        """The signed terms, summed into one dict; zero sums are dropped when
        the BiPoly is built."""
        negate = False
        if self.peek() == "-":
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
            if self.peek() not in ("+", "-"):
                return BiPoly(out)
            negate = self.next() == "-"

    def term(self):
        acc = self.factor()
        while self.peek() == "*":
            self.next()
            rhs = self.factor()
            if type(acc) is tuple and type(rhs) is tuple:
                acc = (acc[0] * rhs[0], acc[1] + rhs[1], acc[2] + rhs[2])
            else:
                acc = _as_bipoly(acc) * _as_bipoly(rhs)
        return acc

    def factor(self):
        base = self.atom()
        if self.peek() == "^":
            self.next()
            tok = self.next()
            if not _is_number(tok) or "/" in tok:
                self.fail("exponent must be a nonnegative integer", self.i - 1)
            n = int(tok)
            if type(base) is tuple:
                c, ze, we = base
                # 0^0 is the int 1, as for the empty sum
                return (c ** n if c else int(n == 0), ze * n, we * n)
            return _power(base, n)
        return base

    def atom(self):
        """A monomial (c, ze, we), or a BiPoly for a parenthesised sum of
        other than one term."""
        val = self.peek()
        if val == "(":
            self.next()
            inner = self.poly()
            self.expect(")")
            if len(inner.terms) == 1:
                ((ze, we), c), = inner.terms.items()
                return (c, ze, we)
            return inner
        if _is_number(val):
            value = _literal(val)
            if value is None:
                self.fail("zero denominator in %s" % val)
            self.next()
            return (value, 0, 0)
        if val.isidentifier():  # a name
            self.next()
            if val == "z":
                return (1, 1, 0)
            if val == "w":
                return (1, 0, 1)
            if val in self.params:
                return (self.params[val], 0, 0)
            self.fail("unbound parameter %r" % val, self.i - 1)
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

    val = parser.peek()
    if val not in ("dw", "dz"):
        parser.fail("expected 'dw/dz' or 'dz/dt'")
    if val == "dw":
        parser.next()
        parser.expect("/")
        if parser.next() != "dz":
            parser.fail("expected 'dw/dz'", parser.i - 1)
        parser.expect("=")
        p_poly = parser.poly()
        parser.expect("/", what="'/' between numerator and denominator")
        q_poly = parser.poly()
        form = "pq"
    else:
        parser.next()
        parser.expect("/")
        if parser.next() != "dt":
            parser.fail("expected 'dz/dt'", parser.i - 1)
        parser.expect("=")
        q_poly = parser.poly()  # dz/dt is the denominator of dw/dz
        parser.expect(";")
        if parser.next() != "dw":
            parser.fail("expected 'dw/dt'", parser.i - 1)
        parser.expect("/")
        if parser.next() != "dt":
            parser.fail("expected 'dw/dt'", parser.i - 1)
        parser.expect("=")
        p_poly = parser.poly()
        form = "autonomous"
    if parser.peek() != "":
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
        out = []
        _write_json(report, out, "\n")
        out.append("\n")
        return "".join(out).encode()
    if fmt == "text":
        lines = []
        _render_text(report, lines, 0)
        return ("\n".join(lines) + "\n").encode()
    raise ValueError("unknown report format %r" % fmt)


_json_str = json.encoder.encode_basestring_ascii


def _write_json(node, out, pad):
    """Append to ``out`` the text of ``json.dumps(node, indent=2)``; ``pad``
    is a newline and the indent of ``node``'s line.  An indent makes
    ``json.dumps`` use its pure-Python encoder, so this writer is faster
    while it keeps the layout and the ASCII escapes."""
    if isinstance(node, str):
        out.append(_json_str(node))
    elif node is None:
        out.append("null")
    elif node is True:
        out.append("true")
    elif node is False:
        out.append("false")
    elif isinstance(node, int):
        out.append(int.__repr__(node))
    elif isinstance(node, (list, tuple)):
        if not node:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[" + inner
        for item in node:
            out.append(sep)
            _write_json(item, out, inner)
            sep = "," + inner
        out.append(pad + "]")
    elif isinstance(node, dict):
        if not node:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for key, value in node.items():
            if isinstance(key, str):
                key = _json_str(key)
            else:  # json.dumps's text of a float, int, bool or None key; it rejects others
                key = json.dumps({key: None})[1:-7]
            out.append(sep + key + ": ")
            _write_json(value, out, inner)
            sep = "," + inner
        out.append(pad + "}")
    else:  # a float, or a type json.dumps rejects
        out.append(json.dumps(node))


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
