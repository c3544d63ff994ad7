"""An independent check of branch prefixes and Newton pairs for the tests.

A prefix b = sum alpha_i z^mu_i whose exponents lie in (1/N)Z is taken over
z = t^N, so every exponent in sight is an integer: a key (s, j) of a system
on the scale n stands for t^(s N / n) w^j.  The check runs on plain
``BiPoly`` arithmetic and reads leading terms with ``coeff_profile``; it
never calls the engine's substitution.
"""

import math
from fractions import Fraction

from pbound.exact import field_one
from pbound.polyode import BiPoly, coeff_profile


def ramification(terms):
    """N, the lcm of the denominators of the prefix's exponents."""
    return math.lcm(*(Fraction(mu).denominator for mu, _ in terms))


def series(terms, N, tower=None):
    """b(t) = sum alpha t^(N mu) of the prefix ``terms`` for z = t^N."""
    return BiPoly({(mu * N, 0): c for mu, c in terms}, tower=tower)


def eval_w_series(poly, b):
    """poly(t, b(t)): each w-power of b is built once."""
    tower = poly.tower or b.tower
    pows = [BiPoly.const(field_one(tower), tower=tower)]
    for _ in range(max(poly.w_degree(), 0)):
        pows.append(pows[-1] * b)
    out = BiPoly.zero(tower)
    for (s, j), c in poly.terms.items():
        out = out + BiPoly.monomial(c, s, 0, tower=tower) * pows[j]
    return out


def z_valuation(poly):
    """The lowest exponent of a term, whose coefficient is a unit since
    every tower is a field; None for zero."""
    return min((s for s, _ in poly.terms), default=None)


def residual_valuation(sys, terms):
    """The z-valuation of the residual Q(z, b) b' - P(z, b) of the prefix
    b of ``terms`` ((mu, alpha), ...); None when it vanishes identically (an
    exact solution).

    Over z = t^N, dz = N t^(N-1) dt, so N t^(N-1) times the residual is
    R = Q(t, b) db/dt - N t^(N-1) P(t, b), and the residual's valuation in
    z is (v_t(R) - N + 1) / N.
    """
    if not terms:
        raise ValueError("empty branch")
    N = math.lcm(sys.n, ramification(terms))
    scale, tower = N // sys.n, sys.tower
    b = series(terms, N, tower)
    db = BiPoly({(mu * N - 1, 0): c * mu * N for mu, c in terms}, tower=tower)
    Qt = BiPoly({(s * scale, j): c for (s, j), c in sys.Q.terms.items()}, tower=sys.Q.tower)
    Pt = BiPoly({(s * scale + N - 1, j): c * N for (s, j), c in sys.P.terms.items()}, tower=sys.P.tower)
    v = z_valuation(eval_w_series(Qt, b) * db - eval_w_series(Pt, b))
    return None if v is None else Fraction(v - N + 1, N)


def pair_acceptable(sys, lam, out):
    """(lam, alpha) is acceptable when the lowest supported z-order of
    P1(z, 0) = P(z, a z^l) - a l z^(l-1) Q(z, a z^l), read off the remainder
    ``out`` = ``sys.translate_w(alpha, lam)`` in the frame of ``sys``, lies
    strictly above the support minimum min{l_i + (i+1) lam - 1, k_j + j lam}:
    the leading terms cancel."""
    n = sys.n
    profile = coeff_profile(sys.P.terms, sys.Q.terms, n)
    orders = [Fraction(kj, n) + j * lam for j, (kj, _) in profile.p.items()]
    orders += [Fraction(li, n) + (i + 1) * lam - 1 for i, (li, _) in profile.q.items()]
    lead = coeff_profile(out.P.terms, out.Q.terms, out.n).p.get(0)
    return not orders or lead is None or Fraction(lead[0], out.n) > min(orders)


def substitute_checked(sys, lam, alpha):
    """The normalized remainder after w = alpha z^lam + w1, as the engine's
    ``substitute_branch`` makes it; ValueError when the pair is not
    acceptable."""
    lam = Fraction(lam)
    out = sys.translate_w(alpha, lam)
    if not pair_acceptable(sys, lam, out):
        raise ValueError("not an acceptable pair")
    return out.normalized()
