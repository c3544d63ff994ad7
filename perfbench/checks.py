"""Answer checks that do not rely on the code under test.

``check(query, code, stdout)`` returns the problems found in one report; an
empty list means the answer is right.  The checks are

* exit code 0 or 3 and a JSON report (exit 2 or a crash is a failure);
* the hand-written verdicts of ``Query.expect`` and ``Query.strict``;
* every Darboux certificate re-verified with sympy: ``Q f_z + P f_w`` must
  equal ``cofactor * f`` for the field written in the workload;
* every strict curve within the degree bounds of the same report;
* every counted series branch checked by the residual oracle, recomputed in
  sympy: the valuation of ``Q(z, b) b' - P(z, b)`` grows strictly with each
  further term of the truncation ``b`` at the queried point;
* on the census, acceptance criteria 4 and 8 (a finite count at the origin
  is at most ``max(deg_w P, deg_w Q + 1)``, the count at infinity at most the
  axis degree M) and the bound report's M, k and ``M (k + 1)`` against the
  generator's own arithmetic.

sympy is imported on first use, so it stays out of the timed passes.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction


def check(query, code, stdout: str) -> list:
    if code not in (0, 3):
        return ["exit code %r" % (code,)]
    try:
        report = json.loads(stdout)
    except ValueError:
        return ["report is not JSON"]
    problems = []
    for path, want in query.expect.items():
        got = lookup(report, path)
        if got != want:
            problems.append("%s = %r, expected %r" % (path, got, want))
    if query.pq is not None:
        problems += _check_certificates(query, report)
    if query.residual:
        for branch in report.get("branches", []):
            if branch["status"] in ("closed", "exact"):
                problems += _check_residual(query, branch, report["point"])
    if query.census is not None:
        problems += _check_census(query, report)
    return problems


def lookup(report, path):
    """The value at a dotted path of keys and list indices, or None."""
    node = report
    for key in path.split("."):
        if isinstance(node, list) and key.isdigit() and int(key) < len(node):
            node = node[int(key)]
        elif isinstance(node, dict) and key in node:
            node = node[key]
        else:
            return None
    return node


def _sympy():
    import sympy

    return sympy


def _expr(text: str):
    sp = _sympy()
    return sp.sympify(text.replace("^", "**"), locals={name: sp.Symbol(name) for name in ("z", "w")})


def _certificates(node):
    if isinstance(node, dict):
        if "poly" in node and "cofactor" in node:
            yield node
        for value in node.values():
            yield from _certificates(value)
    elif isinstance(node, list):
        for value in node:
            yield from _certificates(value)


def _bound_blocks(report):
    return [b for b in (report.get("bounds"), report.get("bound")) if isinstance(b, dict)]


def _check_certificates(query, report) -> list:
    sp = _sympy()
    z, w = sp.symbols("z w")
    P, Q = (_expr(t) for t in query.pq)
    problems = []
    strict = []
    for cert in _certificates(report):
        f, k = _expr(cert["poly"]), _expr(cert["cofactor"])
        if sp.expand(Q * sp.diff(f, z) + P * sp.diff(f, w) - k * f) != 0:
            problems.append("certificate %s with cofactor %s does not verify" % (cert["poly"], cert["cofactor"]))
        if cert.get("strict"):
            strict.append(f)
    for want in query.strict:
        target = _expr(want)
        if not any(sp.cancel(target / f).is_number for f in strict):
            problems.append("strict curve %s missing" % want)
    for f in strict:
        poly = sp.Poly(f, z, w)
        degree, w_degree = poly.total_degree(), poly.degree(w)
        for block in _bound_blocks(report):
            for key, value in (("sum_bound", w_degree), ("product_bound", w_degree), ("line_bound", degree)):
                if block.get(key) is not None and value > block[key]:
                    problems.append("strict curve %s exceeds %s %s" % (f, key, block[key]))
    return problems


def _check_residual(query, branch, point) -> list:
    """Valuations of the residual of each prefix of the branch, in s = (z - z0)^(1/r).

    Arithmetic is in Q[t_j..., s] reduced modulo the tower's minimal
    polynomials, whose leading terms are coprime pure powers, so the remainder
    is a normal form and is zero exactly when the residual is.
    """
    sp = _sympy()
    from sympy.polys.rings import ring

    gens = [level["generator"] for level in branch["tower"]]
    R, *symbols = ring(",".join(gens + ["s"]), sp.QQ, sp.lex)
    s = symbols[-1]
    moduli = [R(_expr(level["minpoly"])) for level in branch["tower"]]
    exps = [Fraction(e) for e in branch["exponents"]]
    r = math.lcm(*(e.denominator for e in exps))
    z = R(sp.Rational(point["z"])) + s ** r
    P, Q = (sp.Poly(_expr(t), *sp.symbols("z w")).terms() for t in query.pq)
    previous = -1
    b = R(0)
    for n, (mu, a) in enumerate(zip(exps, branch["coefficients"]), 1):
        b += R(_expr(a)) * s ** int(mu * r)
        w = R(sp.Rational(point["w"])) + b
        powers = [R(1)]
        for _ in range(max(j for (_, j), _ in P + Q)):
            powers.append((powers[-1] * w).rem(moduli))

        def at_branch(terms):
            return sum((R(c) * z ** i * powers[j] for (i, j), c in terms), R(0))

        residual = (at_branch(Q) * b.diff(s) - r * s ** (r - 1) * at_branch(P)).rem(moduli)
        valuation = min((m[-1] for m in residual.monoms()), default=math.inf)
        if valuation <= previous:
            return ["residual valuation stalls at term %d of branch %s" % (n, branch["exponents"])]
        previous = valuation
    return []


def _check_census(query, report) -> list:
    system = query.census
    kind = query.id.rsplit("/", 1)[1]
    if kind == "origin" and report["status"] == "finite" and report["mul"] > system.width:
        return ["count %d at the origin exceeds max(deg_w P, deg_w Q + 1) = %d" % (report["mul"], system.width)]
    if kind == "inf" and report["status"] == "finite" and report["mul"] > system.axis_degree:
        return ["count %d at infinity exceeds the axis degree %d" % (report["mul"], system.axis_degree)]
    if kind != "bound":
        return []
    bounds = report["bounds"]
    m, k = system.axis_degree, system.axis_roots
    problems = []
    if bounds["m_axis"] != m or bounds["k"] != k:
        problems.append("M, k = %s, %s, expected %d, %d" % (bounds["m_axis"], bounds["k"], m, k))
    if bounds["product_bound"] is not None and bounds["product_bound"] != m * (k + 1):
        problems.append("product bound %s, expected %d" % (bounds["product_bound"], m * (k + 1)))
    if bounds["sum_bound"] is not None:
        total = sum(p["weight"] * p["mul"] for p in bounds["summands"])
        if bounds["sum_bound"] != total:
            problems.append("sum bound %s, summands add to %d" % (bounds["sum_bound"], total))
    return problems
