"""Exact tests for vanishing sums of roots of unity.

Over common denominators a sum sum_j w_j e(a_j), e(x) = e^{2 pi i x}, with
rational weights and phases becomes sum_e c_e zeta_q^e, integer c_e on
exponents e mod q; its exact zero test lets the package issue certificates
instead of eyeballing 1e-16 residues. The test peels off the largest prime
p of q, m = q / p, on the sparse exponents alone, by two theorems that
follow from [Q(zeta_n) : Q] = phi(n) (Washington, Introduction to
Cyclotomic Fields, ch. 2) and are the reduction steps of de Bruijn,
Indag. Math. 15 (1953) 370-377, and Lam and Leung, J. Algebra 224 (2000)
91-109:

1. If p^2 | q, then 1, zeta_q, ..., zeta_q^{p-1} is a basis of Q(zeta_q)
   over Q(zeta_m): the degree is phi(q) / phi(m) = p and zeta_q is a root
   of t^p - zeta_m. So the sum, split by r = e mod p as sum_r zeta_q^r
   sum_{e = r mod p} c_e zeta_m^{(e - r) / p}, is zero exactly when every
   class sum over m is zero.
2. If p does not divide m, write zeta_q^e = zeta_p^a zeta_m^b with
   a = e m^{-1} mod p, b = e p^{-1} mod m. The degree of Q(zeta_q) over
   Q(zeta_m) is phi(p) = p - 1, so Phi_p = 1 + t + ... + t^{p-1} is the
   minimal polynomial of zeta_p over Q(zeta_m), and sum_a A_a zeta_p^a,
   A_a in Q(zeta_m), is zero exactly when A_0 = ... = A_{p-1}: when every
   A_a - A_{a-1} vanishes over m or, if some A_a has no terms, every A_a
   does. At q = p the A_a are integers: the sum is zero exactly when it
   has p terms with equal coefficients.

Each term enters at most two subproblems per prime, so the work is
O(terms 2^omega(q)) at any q. Phi_q itself, from the Moebius product
prod_{d | q} (t^d - 1)^{mu(q/d)}, is built by sparse exact steps.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import ExactnessUnavailable

#: common denominators beyond this are refused; it guards only the input
#: size, since the decision's cost does not grow with q (trial division up
#: to sqrt(q), 1000 steps at the cap, is the only part that does)
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


def _prime_factors(q: int, p: int = 2) -> list:
    """The prime factors of q that are >= p, with multiplicity, ascending."""
    while p * p <= q and q % p:
        p += 1
    return [] if q == 1 else [q] if p * p > q else [p] + _prime_factors(q // p, p)


def _vanishes(terms: dict, q: int, primes: list) -> bool:
    """Whether sum_e terms[e] zeta_q^e = 0 (non-zero integer terms, primes
    the prime factors of q ascending), by the module docstring's theorems."""
    if len(terms) < 2:
        return not terms
    p, rest, m = primes[-1], primes[:-1], q // primes[-1]
    if m == 1:
        return len(terms) == p and len(set(terms.values())) == 1
    parts, coprime = {}, m % p != 0
    if coprime:
        mi, pi = pow(m, -1, p), pow(p, -1, m)
    for e, c in terms.items():
        a, b = (e * mi % p, e * pi % m) if coprime else (e % p, e // p)
        parts.setdefault(a, {})[b] = c
    if not coprime or len(parts) < p:
        return all(_vanishes(t, m, rest) for t in parts.values())
    for a in range(1, p):
        diff = dict(parts[a])
        for b, c in parts[a - 1].items():
            diff[b] = diff.get(b, 0) - c
        if not _vanishes({b: c for b, c in diff.items() if c}, m, rest):
            return False
    return True


def vanishing_sum(weights, phases, q_cap: int = Q_CAP) -> bool:
    """Exactly decide whether sum_j weights[j] * e^{2 pi i phases[j]} == 0.

    weights and phases are rationals (anything Fraction accepts). Raises
    ExactnessUnavailable when the common phase denominator exceeds q_cap
    even after the first term's phase is rotated out of every phase.
    """
    acc = {}
    terms = []
    for w, a in zip(weights, phases, strict=True):
        w = w if isinstance(w, (int, Fraction)) else Fraction(w)
        if w:
            terms.append((w, a if isinstance(a, (int, Fraction)) else Fraction(a)))
    q = lcm(1, *[a.denominator for _, a in terms])
    if q > q_cap:
        # e(-a_0) is a unit: the rotated sum vanishes exactly when this does
        a0 = terms[0][1]
        terms = [(w, a - a0) for w, a in terms]
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
    # g = q, and the empty sum at q = 1 is zero)
    g = gcd(q, *acc)
    q //= g
    return _vanishes({e // g: c for e, c in acc.items()}, q, _prime_factors(q))
