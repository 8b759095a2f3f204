"""Exact linear algebra over the rationals.

Everything downstream (torus orbits, lattice duals, cycle detection) depends
on arithmetic that never rounds: matrices are tuples of ``Fraction`` rows, and
one integer Faddeev-LeVerrier pass gives their charpoly, det and inverse.
Floating point enters only where a quantity is genuinely analytic --
eigenvalue moduli, operator norms -- and there every comparison carries an
explicit safety margin. The common razor-edge cases (eigenvalue exactly +-1,
eigenvalue a root of unity) are decided exactly before any float is consulted.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

import numpy as np

from .cyclotomy import cyclotomic, poly_divides, totient
from .errors import BorderlineExpansive, BudgetExceeded, NotExpansive

Vec = tuple  # tuple[Fraction, ...]; kept loose so ints pass through helpers

#: below 1 - MARGIN an eigenvalue modulus is treated as certainly subcritical,
#: above 1 + MARGIN as certainly expansive; anything between is refused.
EIG_MARGIN = 1e-9


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
        den = lcm(*(e.denominator for row in self.rows for e in row))
        a = [[int(e * den) for e in row] for row in self.rows]
        coeffs = [1]
        p = [[int(i == j) for j in range(n)] for i in range(n)]
        for k in range(1, n + 1):
            ap = [[sum(map(mul, row, col)) for col in zip(*p)] for row in a]
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

    Exact criteria run first: a zero determinant, or a root-of-unity
    eigenvalue (a cyclotomic factor Phi_q of the characteristic polynomial,
    integer or rational; only orders with totient <= n can occur, and +-1
    are the orders q = 1, 2 of the same scan). What remains is decided by
    numpy eigenvalues with a safety margin; moduli inside the margin raise
    BorderlineExpansive rather than guessing.
    """
    cp = m.charpoly()
    if cp[-1] == 0:  # zero determinant
        return False
    # Phi_q is monic and primitive, so by Gauss's lemma it divides cp in Q[t]
    # exactly when it divides the integer polynomial den * cp in Z[t]
    den = lcm(*[c.denominator for c in cp])
    ipoly = [int(c * den) for c in reversed(cp)]  # ascending order
    # phi(q) >= sqrt(q / 2), so no order past 2n^2 + 2 has totient <= n
    for q in range(1, 2 * m.n * m.n + 3):
        if totient(q) <= m.n and poly_divides(cyclotomic(q), ipoly):
            return False
    moduli = np.abs(np.linalg.eigvals(m.to_float()))
    if moduli.min() >= 1.0 + EIG_MARGIN:
        return True
    if (moduli <= 1.0 - EIG_MARGIN).any():
        return False
    raise BorderlineExpansive(
        "eigenvalue moduli %s are within %g of the unit circle and no exact "
        "criterion applies" % (np.sort(moduli).tolist(), EIG_MARGIN)
    )


def ensure_expansive(m: Matrix) -> None:
    if not check_expansive(m):
        raise NotExpansive("R must have all eigenvalue moduli > 1")


#: powers scanned for one of norm below 1 (a non-normal inverse may need several)
CONTRACTION_POWERS = 32


def contraction_data(a: np.ndarray):
    """Return (C, c) with ||a^n||_2 <= C * c^n for all n >= 0 and c < 1.

    Scans powers a^k, takes c = ||a^k||^(1/k) for the k minimising it among
    the contracting powers, and C = max_{j<k} ||a^j|| / c^j. Norms are
    largest singular values inflated by 1%, which absorbs float error in the
    powers; the sub-multiplicative splitting n = q*k + j then certifies the
    bound up to that margin. An inverse that contracts too slowly for the
    scanned powers to show it raises BudgetExceeded, not NotExpansive.
    """
    norms = [1.0]
    p = np.eye(a.shape[0])
    best = None  # (c, k)
    for k in range(1, CONTRACTION_POWERS + 1):
        p = p @ a
        nk = float(np.linalg.norm(p, 2)) * 1.01
        norms.append(nk)
        if nk < 1.0:
            c = nk ** (1.0 / k)
            if best is None or c < best[0]:
                best = (c, k)
    if best is None:
        raise BudgetExceeded(
            "no power up to %d of the inverse is a contraction" % CONTRACTION_POWERS
        )
    c, k = best
    return max(norms[j] / c**j for j in range(k)), c
