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
from .exact import Q, _level_modulus, coeff_str
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


# operators first, as most tokens are; the three kinds start with different
# characters, so the order does not change the tokens
_TOKEN_RE = re.compile(r"[-+*/^()=;,]|\d+(?:/\d+)?|[A-Za-z_][A-Za-z_0-9]*")
# one character that no token holds and that is not whitespace
_BAD_CHAR_RE = re.compile(r"[^\s\dA-Za-z_\-+*/^()=;,]")


def _tokenize(text):
    """The token strings of ``text``, then "" for the end of input.  A token
    is a number (it starts with a digit), a name or an operator; offsets are
    worked out again only when an error is reported (``_fail``)."""
    bad = _BAD_CHAR_RE.search(text)
    if bad:
        raise ParseError("unexpected character %r" % bad.group(), *_position(text, bad.start()))
    tokens = _TOKEN_RE.findall(text)
    tokens.append("")
    return tokens


def _fail(text, message, i):
    """Raise a ParseError at token ``i`` of ``text``, or at the end of the
    text for the end-of-input token."""
    pos = len(text)
    for j, m in enumerate(_TOKEN_RE.finditer(text)):
        if j == i:
            pos = m.start()
            break
    raise ParseError(message, *_position(text, pos))


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


# A term is read as one monomial (coefficient, z-exponent, w-exponent) while
# its factors are monomials; a BiPoly product is formed only for a
# parenthesised sum of more than one term, or a power of one.

_VARIABLES = {"z": (1, 1, 0), "w": (1, 0, 1)}
# Parentheses nested deeper than this are a ParseError rather than a
# RecursionError: ``_poly`` recurses once per level, and the innermost level
# calls at most 3 frames further.  With Python's default limit of 1000 frames
# this leaves about 100 for the caller: the console script enters
# ``parse_system`` 6 frames deep and a pytest test 35, and a caller 90 frames
# deep still gets the ParseError.
MAX_NESTING = 900
# the tokens after a parenthesised atom that make it part of a larger poly
_SUM_GOES_ON = ("^", "*", "+", "-")


def _poly(text, tokens, i, params, depth=0):
    """The ``poly`` at token ``i``, inside ``depth`` parentheses: (its term
    dict, the index of the token after it).  One loop reads the terms and,
    inside it, each term's factors; only a parenthesised atom recurses.  The
    signed terms are summed into one dict, without the sums that are zero."""
    out = {}
    negate = tokens[i] == "-"
    if negate:
        i += 1
    while True:
        acc = None
        while True:  # term := factor ("*" factor)*
            tok = tokens[i]
            if tok in _VARIABLES:
                atom = _VARIABLES[tok]
            elif tok == "(":
                if depth == MAX_NESTING:
                    _fail(text, "parentheses nested deeper than %d" % MAX_NESTING, i)
                inner, i = _poly(text, tokens, i + 1, params, depth + 1)
                if tokens[i] != ")":
                    _fail(text, "expected ')'", i)
                if acc is None and not out and not negate and tokens[i + 1] not in _SUM_GOES_ON:
                    # the whole poly is this unsigned parenthesised sum
                    return inner, i + 1
                if len(inner) == 1:
                    ((ze, we), c), = inner.items()
                    atom = (c, ze, we)
                else:
                    atom = BiPoly._from_clean(inner, None)
            elif tok[:1].isdecimal():  # a number: the characters \d matches
                value = _literal(tok) if "/" in tok else int(tok)
                if value is None:
                    _fail(text, "zero denominator in %s" % tok, i)
                atom = (value, 0, 0)
            elif tok.isidentifier():  # a name
                if tok not in params:
                    _fail(text, "unbound parameter %r" % tok, i)
                atom = (params[tok], 0, 0)
            else:
                _fail(text, "expected a polynomial atom", i)
            i += 1
            if tokens[i] == "^":
                tok = tokens[i + 1]
                if not tok[:1].isdecimal() or "/" in tok:
                    _fail(text, "exponent must be a nonnegative integer", i + 1)
                n = int(tok)
                i += 2
                if type(atom) is tuple:
                    c, ze, we = atom
                    # 0^0 is the int 1, as for the empty sum
                    atom = (c ** n if c else int(n == 0), ze * n, we * n)
                else:
                    atom = _power(atom, n)
            if acc is None:
                acc = atom
            elif type(acc) is tuple and type(atom) is tuple:
                acc = (acc[0] * atom[0], acc[1] + atom[1], acc[2] + atom[2])
            else:
                acc = _as_bipoly(acc) * _as_bipoly(atom)
            if tokens[i] != "*":
                break
            i += 1
        if type(acc) is tuple:
            c, ze, we = acc
            if c:
                key = (ze, we)
                cur = out.get(key)
                if negate:
                    c = -c
                out[key] = c if cur is None else cur + c
        else:
            for key, c in acc.terms.items():
                cur = out.get(key)
                if negate:
                    c = -c
                out[key] = c if cur is None else cur + c
        tok = tokens[i]
        if tok != "+" and tok != "-":
            if not all(out.values()):
                out = {key: c for key, c in out.items() if c}
            return out, i
        negate = tok == "-"
        i += 1


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
    tokens = _tokenize(eq_text)
    if tokens[0] == "dw":
        i = _header(eq_text, tokens, 1, "dz", "dw/dz")
        p_terms, i = _poly(eq_text, tokens, i, bindings)
        i = _expect(eq_text, tokens, i, "/", "'/' between numerator and denominator")
        q_terms, i = _poly(eq_text, tokens, i, bindings)
        form = "pq"
    elif tokens[0] == "dz":
        i = _header(eq_text, tokens, 1, "dt", "dz/dt")
        q_terms, i = _poly(eq_text, tokens, i, bindings)  # dz/dt is the denominator of dw/dz
        i = _expect(eq_text, tokens, i, ";")
        if tokens[i] != "dw":
            _fail(eq_text, "expected 'dw/dt'", i)
        i = _header(eq_text, tokens, i + 1, "dt", "dw/dt")
        p_terms, i = _poly(eq_text, tokens, i, bindings)
        form = "autonomous"
    else:
        _fail(eq_text, "expected 'dw/dz' or 'dz/dt'", 0)
    if tokens[i] != "":
        _fail(eq_text, "unexpected trailing input", i)

    p_poly, q_poly = BiPoly._from_clean(p_terms, None), BiPoly._from_clean(q_terms, None)
    sys = make_system(p_poly, q_poly)
    return sys, SystemSource(form=form, axis=_divisible_by_z(q_poly), bindings=bindings)


def _expect(text, tokens, i, value, what=None):
    """The index after token ``i``, which must be ``value``."""
    if tokens[i] != value:
        _fail(text, "expected %r" % (what or value), i)
    return i + 1


def _header(text, tokens, i, var, name):
    """The index after the tokens '/' var '=' of the derivative ``name``
    from token ``i`` on."""
    i = _expect(text, tokens, i, "/")
    if tokens[i] != var:
        _fail(text, "expected %r" % name, i)
    return _expect(text, tokens, i + 1, "=")


def _divisible_by_z(p: BiPoly) -> bool:
    return bool(p.terms) and all(ze >= 1 for (ze, _) in p.terms)


def print_system(sys: OdeSystem) -> str:
    return "dw/dz = (%s) / (%s)" % (bipoly_str(sys.P), bipoly_str(sys.Q))


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def tower_description(tower):
    """The levels of ``tower``, each with its minimal polynomial; every
    level is certified irreducible, and the ``presumed_irreducible`` key
    stays, always false, so that reports keep their shape."""
    if tower is None or tower.is_trivial():
        return []
    levels = tower.levels
    return [
        {
            "generator": level.name,
            "minpoly": str(_level_modulus(levels[: depth + 1], level.name)),
            "presumed_irreducible": False,
        }
        for depth, level in enumerate(levels)
    ]


def branch_report(branch):
    return {
        "exponents": [str(mu) for mu, _ in branch.terms],
        "coefficients": [coeff_str(c) for _, c in branch.terms],
        "tower": tower_description(branch.tower),
        "conjugacy_degree": branch.conj_degree,
        "status": branch.status,
        "flags": list(branch.flags),
    }


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


def emit_report(obj, fmt="text") -> bytes:
    """The text of the report dict ``obj`` in ``fmt``, "json" or "text"."""
    if fmt == "json":
        out = []
        _write_json(obj, out, "\n")
        out.append("\n")
        return "".join(out).encode()
    if fmt == "text":
        lines = []
        _render_text(obj, lines, 0)
        return ("\n".join(lines) + "\n").encode()
    raise ValueError("unknown report format %r" % fmt)


_json_str = json.encoder.encode_basestring_ascii


def _write_json(node, out, pad):
    """Append to ``out`` the text of ``json.dumps(node, indent=2)``; ``pad``
    is a newline and the indent of ``node``'s line.  An indent makes
    ``json.dumps`` use its pure-Python encoder, so this writer is faster
    while it keeps the layout and the ASCII escapes.  It dispatches on the
    exact type, and a str, int, None or bool in a dict or a list, and an
    empty list or dict in a dict, is written in the loop, with no call of
    its own (``str`` of an exact int is ``int.__repr__``)."""
    kind = type(node)
    if kind is dict:
        if not node:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for key, value in node.items():
            if type(key) is str:
                head = sep + _json_str(key) + ": "
            else:  # json.dumps's text of a float, int, bool or None key; it rejects others
                head = sep + json.dumps({key: None})[1:-7] + ": "
            leaf = type(value)
            if leaf is str:
                out.append(head + _json_str(value))
            elif leaf is int:
                out.append(head + str(value))
            elif value is None:
                out.append(head + "null")
            elif leaf is bool:
                out.append(head + ("true" if value else "false"))
            elif not value and (leaf is list or leaf is dict):
                out.append(head + ("[]" if leaf is list else "{}"))
            else:
                out.append(head)
                _write_json(value, out, inner)
            sep = "," + inner
        out.append(pad + "}")
    elif kind is list:
        if not node:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[" + inner
        for item in node:
            leaf = type(item)
            if leaf is str:
                out.append(sep + _json_str(item))
            elif leaf is int:
                out.append(sep + str(item))
            elif item is None:
                out.append(sep + "null")
            elif leaf is bool:
                out.append(sep + ("true" if item else "false"))
            else:
                out.append(sep)
                _write_json(item, out, inner)
            sep = "," + inner
        out.append(pad + "]")
    else:  # not exactly a dict or a list: json.dumps's own text, indented
        out.append(json.dumps(node, indent=2).replace("\n", pad))


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
