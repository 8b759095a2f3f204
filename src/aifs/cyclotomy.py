"""Exact tests for vanishing sums of roots of unity.

A finite sum sum_j w_j * e^{2 pi i a_j}, with rational weights w_j and
rational phases a_j, is zero exactly when the integer polynomial obtained by
putting everything over a common denominator q is divisible by the q-th
cyclotomic polynomial. That classical fact turns "is this trigonometric sum
*really* zero" into integer arithmetic, and it is what lets the rest of the
package issue certificates instead of eyeballing 1e-16 residues.

Cyclotomic polynomials are built from the Moebius-product formula
Phi_q(t) = prod_{d | q} (t^d - 1)^{mu(q/d)}; multiplication and exact
division by the sparse factors t^d - 1 keep that cheap.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import ExactnessUnavailable

#: common denominators beyond this are refused (the dense division below
#: would be both slow and pointless at desk scale)
Q_CAP = 10**6


def divisors(n: int) -> list:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def mobius(n: int) -> int:
    if n == 1:
        return 1
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def _mul_tm1(poly: list, m: int) -> list:
    """poly * (t^m - 1), ascending coefficients."""
    out = [0] * (len(poly) + m)
    for i, c in enumerate(poly):
        out[i + m] += c
        out[i] -= c
    return out


def _div_tm1(poly: list, m: int) -> list:
    """Exact division of poly by (t^m - 1); raises if not divisible."""
    p = list(poly)
    n = len(p)
    q = [0] * max(n - m, 0)
    for i in range(n - 1, m - 1, -1):
        c = p[i]
        if c:
            q[i - m] += c
            p[i - m] += c
            p[i] = 0
    if any(p[:m]):
        raise ArithmeticError("polynomial not divisible by t^%d - 1" % m)
    return q


@lru_cache(maxsize=None)
def cyclotomic(q: int) -> tuple:
    """Ascending integer coefficients of the q-th cyclotomic polynomial."""
    if q < 1:
        raise ValueError("q must be positive")
    poly = [1]
    divs = divisors(q)
    # multiply all (t^d - 1) with mu(q/d) = +1 first so every division is exact
    for d in divs:
        if mobius(q // d) == 1:
            poly = _mul_tm1(poly, d)
    for d in divs:
        if mobius(q // d) == -1:
            poly = _div_tm1(poly, d)
    return tuple(poly)


def poly_divides(f, g) -> bool:
    """Whether monic integer polynomial f divides integer polynomial g."""
    f = list(f)
    if not f or f[-1] != 1:
        raise ValueError("divisor must be monic")
    r = list(g)
    df = len(f) - 1
    while len(r) - 1 >= df:
        c = r[-1]
        if c:
            off = len(r) - 1 - df
            for i in range(df + 1):
                r[off + i] -= c * f[i]
        r.pop()
    return not any(r)


def vanishing_sum(weights, phases, q_cap: int = Q_CAP) -> bool:
    """Exactly decide whether sum_j weights[j] * e^{2 pi i phases[j]} == 0.

    weights and phases are rationals (anything Fraction accepts). Raises
    ExactnessUnavailable when the common phase denominator exceeds q_cap.
    """
    acc = {}
    terms = []
    for w, a in zip(weights, phases, strict=True):
        w = w if isinstance(w, (int, Fraction)) else Fraction(w)
        if w:
            terms.append((w, a if isinstance(a, (int, Fraction)) else Fraction(a)))
    q = lcm(1, *[a.denominator for _, a in terms])
    if q > q_cap:
        raise ExactnessUnavailable(
            "common denominator %d exceeds cap %d" % (q, q_cap)
        )
    wden = lcm(*[w.denominator for w, _ in terms])
    # integer numerators over q and wden; % q takes each phase mod 1
    for w, a in terms:
        e = a.numerator * (q // a.denominator) % q
        acc[e] = acc.get(e, 0) + w.numerator * (wden // w.denominator)
    acc = {e: c for e, c in acc.items() if c}
    # strip a common factor of the exponents: a sum over q-th roots supported
    # on multiples of g is the same sum over (q/g)-th roots (no terms left:
    # g = q, and Phi_1 = t - 1 divides the constant 0 at q = 1)
    g = gcd(q, *acc)
    q //= g
    poly = [0] * q
    for e, c in acc.items():
        poly[e // g] = c
    return poly_divides(cyclotomic(q), poly)
