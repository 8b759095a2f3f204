"""Exact linear algebra over the rationals.

Everything downstream (torus orbits, lattice duals, cycle detection) depends
on arithmetic that never rounds: matrices are tuples of ``Fraction`` rows;
one integer Faddeev-LeVerrier pass gives their charpoly, det and inverse,
and the Schur-Cohn-Jury recursion on that charpoly decides expansiveness.
``contraction_data`` scans exact integer norms of powers and rounds its two
floats up from them; floats enter otherwise only through ``Matrix.to_float``.
"""

from __future__ import annotations

from fractions import Fraction
from math import exp, lcm, log
from operator import mul

import numpy as np

from .errors import BudgetExceeded, NotExpansive

Vec = tuple  # tuple[Fraction, ...]; kept loose so ints pass through helpers


def frac(x) -> Fraction:
    """Coerce ints, strings like '2/3', floats-free input to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        # floats are almost always a bug here (they smuggle rounding into
        # exact code paths); accept only exactly integral ones (not inf, nan)
        if not x.is_integer():
            raise TypeError("refusing to coerce non-integral float %r to Fraction" % x)
        return Fraction(int(x))
    return Fraction(x)


def fvec(xs) -> Vec:
    return tuple(frac(x) for x in xs)


def vec_add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def vec_dot(u: Vec, v: Vec) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def int_rows(rows, k: int) -> list:
    """Integer rows k * row for rows that k clears; one division per denominator."""
    factor = {den: k // den for den in {x.denominator for row in rows for x in row}}
    return [tuple([x.numerator * factor[x.denominator] for x in row]) for row in rows]


def integer_rows(rows) -> tuple:
    """(k, int_rows(rows, k)) for k the lcm of the entry denominators."""
    k = lcm(1, *(x.denominator for row in rows for x in row))
    return k, int_rows(rows, k)


def int_mat_vec(rows, v) -> tuple:
    return tuple([sum(map(mul, row, v)) for row in rows])


def int_orbits(rows, vecs) -> list:
    """R^k v for each v and 0 <= k < d, R the integer rows: by Cayley-Hamilton
    they span the least R-invariant lattice holding the vs."""
    out = []
    for v in vecs:
        for _ in rows:
            out.append(v)
            v = int_mat_vec(rows, v)
    return out


def int_mat_mul(a, b) -> list:
    return [[sum(map(mul, row, col)) for col in zip(*b)] for row in a]


def log_ratio(a: int, b: int) -> float:
    """log(a / b) for positive integers, to a few ulps of the result even
    where log(a) - log(b) would lose ulps of log(a)."""
    s = a.bit_length() - b.bit_length() - 64  # a / b = 2^s q, q >= 2^62
    return log(a // (b << s) if s >= 0 else (a << -s) // b) + s * log(2)


def lattice_numerators(x, dim: int, den: int = 1) -> tuple:
    """(N, D) with integer N and x / den = N / D for x in Q^dim, the one way
    into the exact symbol, transform and pair kernels: another length raises
    ValueError, integer x passes through, the rest goes through ``frac``."""
    if len(x) != dim:
        raise ValueError("dimension mismatch")
    if all(type(v) is int for v in x):
        return tuple(x), den
    k, (num,) = integer_rows([fvec(x)])
    return num, k * den


class Matrix:
    """Immutable square matrix with exact rational entries."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(frac(e) for e in row) for row in rows)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise ValueError("matrix must be square and non-empty")
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def is_integer(self) -> bool:
        return all(e.denominator == 1 for row in self.rows for e in row)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def transpose(self) -> "Matrix":
        return Matrix(list(zip(*self.rows)))

    def mat_vec(self, v: Vec) -> Vec:
        if len(v) != self.n:
            raise ValueError("dimension mismatch")
        return tuple(vec_dot(row, v) for row in self.rows)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        cols = other.transpose().rows
        return Matrix([[vec_dot(row, col) for col in cols] for row in self.rows])

    def scale(self, c) -> "Matrix":
        c = frac(c)
        return Matrix([[c * e for e in row] for row in self.rows])

    def add(self, other: "Matrix") -> "Matrix":
        return Matrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def pow(self, k: int) -> "Matrix":
        if k < 0:
            return self.inverse().pow(-k)
        acc = Matrix.identity(self.n)
        base = self
        while k:
            if k & 1:
                acc = acc @ base
            base = base @ base
            k >>= 1
        return acc

    def _leverrier(self):
        """Faddeev-LeVerrier over the integer A = D M, D the lcm of the entry
        denominators: returns (a, P, D) with a = (1, a_1, ..., a_n) the
        coefficients of det(tI - A) and P = A^{n-1} + a_1 A^{n-2} + ... +
        a_{n-1} I, so A P = -a_n I by Cayley-Hamilton (P = +-adj(A))."""
        n = self.n
        den, a = integer_rows(self.rows)
        coeffs = [1]
        p = [[int(i == j) for j in range(n)] for i in range(n)]
        for k in range(1, n + 1):
            ap = int_mat_mul(a, p)
            # an integer matrix has an integer characteristic polynomial, so
            # this division by k is exact
            ck = -sum(ap[i][i] for i in range(n)) // k
            coeffs.append(ck)
            if k < n:
                p = [[x + ck * (i == j) for j, x in enumerate(row)]
                     for i, row in enumerate(ap)]
        return coeffs, p, den

    def inverse(self) -> "Matrix":
        """-D P / a_n (see ``_leverrier``); raises ValueError if singular."""
        coeffs, p, den = self._leverrier()
        if coeffs[-1] == 0:
            raise ValueError("matrix is singular")
        return Matrix(
            [[Fraction(-den * x, coeffs[-1]) for x in row] for row in p]
        )

    def det(self) -> Fraction:
        return (-1) ** self.n * self.charpoly()[-1]

    def charpoly(self) -> tuple:
        """Coefficients (1, c1, ..., cn) of det(tI - M) = t^n + c1 t^{n-1} + ... + cn.

        c_k = a_k / D^k from the integer LeVerrier pass over A = D M.
        """
        coeffs, _, den = self._leverrier()
        return tuple(Fraction(c, den**k) for k, c in enumerate(coeffs))

    def to_float(self) -> np.ndarray:
        return np.array([[float(e) for e in row] for row in self.rows], dtype=float)

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "Matrix(%s)" % (list(list(map(str, row)) for row in self.rows),)


def check_expansive(m: Matrix) -> bool:
    """Decide whether every eigenvalue of m has modulus > 1.

    Read ascending, charpoly (1, c_1, ..., c_n) is p(t) = t^n chi(1/t), whose
    roots are the inverse eigenvalues: m is expansive exactly when p has
    degree n (det m != 0) and all its roots lie strictly inside |t| = 1.
    Schur-Cohn-Jury theorem (Jury, *Theory and Application of the z-Transform
    Method*, 1964; Marden, *Geometry of Polynomials*, 1966): a real
    p = a_0 + ... + a_n t^n of degree n >= 1, with reversal p* = t^n p(1/t),
    has all roots strictly inside |t| = 1 if and only if |a_n| > |a_0| and
    q = (a_n p - a_0 p*) / t, of degree n - 1, has too; a constant has none.
    Each step is exact over Q, and a tie or a_n = 0 (det m = 0) fails it.
    """
    p = m.charpoly()
    while len(p) > 1 and abs(p[-1]) > abs(p[0]):
        p = [p[-1] * x - p[0] * y for x, y in zip(p[1:], p[-2::-1])]
    return len(p) == 1


def ensure_expansive(m: Matrix) -> None:
    if not check_expansive(m):
        raise NotExpansive("R must have all eigenvalue moduli > 1")


#: powers scanned for one of norm below 1 (a non-normal inverse may need
#: several); past them the scan squares up to power CONTRACTION_POWERS**2
CONTRACTION_POWERS = 64
#: relative round-up of (C, c); it covers the float log/exp error while the
#: logged norms stay below e^100
CONTRACTION_MARGIN = 1e-12


def contraction_data(m: Matrix):
    """Return floats (C, c) with ||m^n|| <= C * c^n for all n >= 0 and c < 1.

    ||a|| = max(||a||_1, ||a||_inf) is submultiplicative, the same for a^T,
    and bounds the 1-, 2- and inf-operator norms (||a||_2^2 <= ||a||_1
    ||a||_inf). It is scanned on the integer powers (D m)^k, D the lcm of the
    entry denominators: ||m^k|| = N_k / D^k, a contraction iff N_k < D^k.
    The contracting k <= 64 with the least c = ||m^k||^(1/k) (by float logs;
    any contracting k is valid) and C = max_{j<k} ||m^j|| / c^j bound m^n by
    the splitting n = q*k + j. If none contracts, m^64 is squared until m^K,
    K = 64 * 2^s, does; then j < K is r + 64 t with r < 64 and t < 2^s, so C
    also takes a factor ||m^(64 2^i)|| / c^(64 2^i) > 1 for every i < s.
    Both are rounded up by CONTRACTION_MARGIN. An inverse that contracts too
    slowly for power 64^2 to show it raises BudgetExceeded, not NotExpansive.
    """
    den, a = integer_rows(m.rows)
    p, k, logs, squared, best = a, 1, [0.0], [], None  # best = (log c, k)
    while True:
        norm = max(sum(map(abs, v)) for v in (*p, *zip(*p)))  # D^k ||m^k||
        log_k = log_ratio(norm, den**k)
        if norm < den**k and (best is None or log_k / k < best[0]):
            best = (log_k / k, min(k, CONTRACTION_POWERS))
        if k < CONTRACTION_POWERS:
            logs.append(log_k)  # logs[j] = log ||m^j||, j < 64
            p, k = int_mat_mul(p, a), k + 1
        elif best is None and k < CONTRACTION_POWERS**2:
            squared.append((k, log_k))
            p, k = int_mat_mul(p, p), 2 * k
        else:
            break
    log_c, k = best or (0.0, k)
    c = exp(log_c) * (1 + CONTRACTION_MARGIN)
    if c >= 1.0:  # none contracts, or the rounding reaches 1
        raise BudgetExceeded("no power up to %d of the inverse is a contraction" % k)
    log_big_c = max(logs[j] - j * log(c) for j in range(k))
    log_big_c += sum(log_j - j * log(c) for j, log_j in squared)
    return exp(log_big_c) * (1 + CONTRACTION_MARGIN), c
