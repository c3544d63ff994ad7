"""Seeded generator of random axis-form systems for the ``census`` workload.

Each system is ``dw/dz = P / (z*q0)`` with ``deg P <= 3`` and ``deg q0 <= 2``
and small integer coefficients, in the style of the seeded acceptance tests.
The generator knows nothing of pbound: it writes system text in the README
grammar and rejects, by its own exact arithmetic, pairs ``P, z*q0`` that
share a factor (pbound refuses such input).  The degrees it returns are what
the answer checks compare the reports against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

P_DEGREE = 3
Q0_DEGREE = 2
DENSITY = 0.55
COEFF = 4


@dataclass(frozen=True)
class AxisSystem:
    text: str
    p: dict  # {(z-exponent, w-exponent): int}
    q: dict  # the whole denominator z*q0

    @property
    def axis_degree(self) -> int:
        """M = max(deg P, deg zq0): the bound on the count at infinity."""
        return max(_total_degree(self.p), _total_degree(self.q))

    @property
    def width(self) -> int:
        """max(deg_w P, deg_w Q + 1): the bound on a finite count at a point."""
        return max(max(j for _, j in self.p), max(j for _, j in self.q) + 1)

    @property
    def axis_roots(self) -> int:
        """k: the number of distinct complex roots of P(0, w)."""
        p0 = _trim([Fraction(self.p.get((0, j), 0)) for j in range(P_DEGREE + 1)])
        if len(p0) <= 1:
            return 0
        return len(p0) - len(_gcd(p0, _derivative(p0)))


def _total_degree(poly) -> int:
    return max(i + j for i, j in poly)


def random_poly(rng: random.Random, max_degree: int) -> dict:
    while True:
        terms = {}
        for i in range(max_degree + 1):
            for j in range(max_degree + 1 - i):
                if rng.random() < DENSITY:
                    c = rng.randint(-COEFF, COEFF)
                    if c:
                        terms[(i, j)] = c
        if terms:
            return terms


def poly_text(poly: dict) -> str:
    """``3*z^2*w - w + 4``: explicit ``*``, highest total degree first."""
    out = []
    for (i, j), c in sorted(poly.items(), key=lambda t: (-sum(t[0]), -t[0][0])):
        factors = [v if e == 1 else "%s^%d" % (v, e) for v, e in (("z", i), ("w", j)) if e]
        if abs(c) != 1 or not factors:
            factors.insert(0, str(abs(c)))
        sign = ("-" if c < 0 else "") if not out else ("- " if c < 0 else "+ ")
        out.append(sign + "*".join(factors))
    return " ".join(out)


# -- coprimality by specialisation ------------------------------------------
# A common factor with positive w-degree survives z := r whenever the leading
# w-coefficient of P does not vanish at r; a common factor in z alone survives
# every w := s.  So a constant gcd under both specialisations proves P and Q
# coprime.  An unlucky specialisation only rejects a coprime pair.

def _trim(c):
    while c and c[-1] == 0:
        c = c[:-1]
    return c


def _rem(a, b):
    a = list(a)
    while len(a) >= len(b):
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        for k, bk in enumerate(b):
            a[shift + k] -= f * bk
        a = _trim(a[:-1])
    return a


def _gcd(a, b):
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, _rem(a, b)
    return a


def _derivative(c):
    return [k * c[k] for k in range(1, len(c))]


def _specialise(poly, var, value):
    """Coefficient list in the other variable after setting var := value."""
    out = {}
    for (i, j), c in poly.items():
        keep, fixed = (j, i) if var == "z" else (i, j)
        out[keep] = out.get(keep, Fraction(0)) + c * Fraction(value) ** fixed
    return _trim([out.get(k, Fraction(0)) for k in range(max(out) + 1)])


def _coprime(p: dict, q: dict) -> bool:
    for var, value in (("z", 3), ("w", 2)):
        a, b = _specialise(p, var, value), _specialise(q, var, value)
        full = max(j if var == "z" else i for i, j in p)
        if len(a) - 1 != full or not b:
            return False
        if len(_gcd(a, b)) > 1:
            return False
    return True


def generate(seed: int, count: int) -> list:
    """``count`` coprime axis-form systems, the same list for the same seed."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p = random_poly(rng, P_DEGREE)
        q = {(i + 1, j): c for (i, j), c in random_poly(rng, Q0_DEGREE).items()}
        if not _coprime(p, q):
            continue
        out.append(AxisSystem("dw/dz = (%s) / (%s)" % (poly_text(p), poly_text(q)), p, q))
    return out

