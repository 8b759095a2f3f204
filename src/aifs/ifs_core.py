"""Affine iterated function systems and their attractors.

A system is an expansive integer (or rational) matrix R together with a
finite digit set B in R^d; the maps x -> R^{-1}(x + b) for b in B contract
toward a unique compact attractor. A probability weight on the digits
selects the invariant measure the Fourier side of the package works with;
uniform weights are the default and the geometrically natural choice.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import BudgetExceeded
from .linalg_exact import (
    Matrix,
    contraction_data,
    ensure_expansive,
    frac,
    fvec,
    int_mat_vec,
    integer_rows,
    lattice_numerators,
    vec_add,
)


@dataclass(frozen=True)
class AffineSystem:
    """Expansive matrix R, digit set B, and digit weights summing to 1."""

    R: Matrix
    digits: tuple
    weights: tuple = ()
    name: str = ""

    def __post_init__(self):
        d = self.R.n
        digits = tuple(fvec(b) for b in self.digits)
        if not digits:
            raise ValueError("digit set must be non-empty")
        if any(len(b) != d for b in digits):
            raise ValueError("digit dimension does not match the matrix")
        if len(set(digits)) != len(digits):
            raise ValueError("digit set has repeated elements")
        object.__setattr__(self, "digits", digits)
        if self.weights:
            w = tuple(frac(x) for x in self.weights)
            if len(w) != len(digits):
                raise ValueError("need one weight per digit")
            if any(x <= 0 for x in w) or sum(w) != 1:
                raise ValueError("weights must be positive and sum to 1")
        else:
            w = (Fraction(1, len(digits)),) * len(digits)
        object.__setattr__(self, "weights", w)
        ensure_expansive(self.R)
        if not all(c.denominator == 1 for b in digits for c in b):
            warnings.warn(
                "digit set is not integral; lattice and torus analyses "
                "will not apply to this system",
                stacklevel=3,
            )

    @property
    def dim(self) -> int:
        return self.R.n

    @property
    def n_digits(self) -> int:
        return len(self.digits)

    @property
    def uniform(self) -> bool:
        return len(set(self.weights)) == 1

    def tau(self, i: int, x) -> tuple:
        """The i-th contraction x -> R^{-1}(x + digits[i]), exact."""
        return self.r_inverse.mat_vec(vec_add(fvec(x), self.digits[i]))

    @cached_property
    def r_inverse(self) -> Matrix:
        return self.R.inverse()

    @cached_property
    def s_inverse(self) -> Matrix:
        """S^{-1} = (R^T)^{-1}, the pull-back of the dual (frequency) side."""
        return self.r_inverse.transpose()

    @cached_property
    def integer_digits(self) -> tuple:
        """(c, [c b]): the digits as integer vectors over a denominator c."""
        return integer_rows(self.digits)

    @cached_property
    def integer_s_inverse(self) -> tuple:
        """(e, A) with S^{-1} = A / e and A an integer matrix."""
        return integer_rows(self.s_inverse.rows)

    @cached_property
    def contraction(self) -> tuple:
        """Contraction data (C, c) of R^{-1}; (R^T)^{-1} has the same
        norm (``contraction_data``), so they bound S^{-n} as well."""
        return contraction_data(self.r_inverse)

    @cached_property
    def complex_weights(self) -> tuple:
        return tuple(map(complex, self.weights))

    @cached_property
    def zero_memo(self) -> dict:
        """Exact symbol-zero decisions by normalised phase pattern
        (``fourier._exact_zero``), filled as the system is used."""
        return {}

    @cached_property
    def symbol_lipschitz(self) -> float:
        """theta = 2 pi sum_b w_b |b|, which bounds |m(y) - 1| <= theta |y|."""
        return 2.0 * math.pi * sum(
            float(w) * math.hypot(*[float(v) for v in b])
            for w, b in zip(self.weights, self.digits)
        )

    def dual(self, frequencies) -> "AffineSystem":
        """The dual system (R^T, L) whose digits are the frequencies L.

        Its own dual with the digits B is (R, B) again."""
        return AffineSystem(
            R=self.R.transpose(),
            digits=tuple(frequencies),
            name=(self.name + "-dual") if self.name else "dual",
        )


def simplex_digits(d: int) -> tuple:
    """The origin followed by the d unit vectors."""
    zero = tuple(Fraction(0) for _ in range(d))
    units = tuple(
        tuple(Fraction(int(i == j)) for j in range(d)) for i in range(d)
    )
    return (zero,) + units


def simplex_system(p: int, d: int) -> AffineSystem:
    """Scale p times the identity with the simplex digits."""
    return AffineSystem(
        R=Matrix.identity(d).scale(p),
        digits=simplex_digits(d),
        name="simplex-p%d-d%d" % (p, d),
    )


def bounding_box(sys: AffineSystem) -> tuple:
    """The closed cube [-r, r]^d, r = C c / (1 - c) max_b |b|_inf an exact
    Fraction, that contains the attractor.

    Every attractor point is sum_{k>=1} R^{-k} b_k, and the contraction data
    (C, c) of R^{-1} bound every ||R^{-k}||_inf by C c^k; the floats C and c
    convert to Fractions exactly.
    """
    big_c, c = map(Fraction, sys.contraction)
    r = big_c * c / (1 - c) * max(abs(x) for b in sys.digits for x in b)
    return (-r,) * sys.dim, (r,) * sys.dim


@dataclass
class AttractorCloud:
    """A finite approximation of the attractor.

    Deterministic mode returns the exact rational set
    {tau_{b_1} ... tau_{b_n}(x0)} over all digit words of length ``depth``;
    x0 is the fixed point of the first map, so the cloud sits inside the
    attractor itself. Chaos-game mode is float Monte Carlo.
    """

    mode: str
    depth: int | None  # None for the chaos game, which has no depth
    points: list = field(default_factory=list)

    def as_floats(self) -> np.ndarray:
        return np.asarray(self.points, dtype=float)


#: largest deterministic cloud built; every point is an exact rational vector
CLOUD_CAP = 200_000
#: default word length of a deterministic cloud, N^6 points for N digits
#: (15,625 for five digits, well under CLOUD_CAP)
CLOUD_DEPTH = 6


def attractor(
    sys: AffineSystem,
    depth: int = CLOUD_DEPTH,
    mode: str = "deterministic",
    count: int = 4096,
    seed: int = 0,
) -> AttractorCloud:
    if mode == "deterministic":
        if sys.n_digits**depth > CLOUD_CAP:
            raise BudgetExceeded(
                "deterministic cloud would have %d points (cap %d)"
                % (sys.n_digits**depth, CLOUD_CAP)
            )
        # fixed point of tau_0 solves (R - I) x = b_0
        minus_one = Matrix.identity(sys.dim).scale(-1)
        x, den = lattice_numerators(
            sys.R.add(minus_one).inverse().mat_vec(sys.digits[0]), sys.dim
        )
        # one denominator per level: with x = X / den, R^{-1} = A / e and
        # b = B / c, tau_b(x) = A (c X + den B) / (e c den)
        e, a = integer_rows(sys.r_inverse.rows)
        c, digits = sys.integer_digits
        pts = [x]
        for _ in range(depth):
            pts = [int_mat_vec(a, [c * v + den * w for v, w in zip(p, b)])
                   for b in digits for p in pts]
            den *= e * c
        pts = [tuple(Fraction(v, den) for v in p) for p in pts]
        return AttractorCloud(mode=mode, depth=depth, points=pts)
    if mode == "chaos":
        rng = random.Random(seed)
        rinv = sys.r_inverse.to_float()
        digs = [np.array([float(c) for c in b]) for b in sys.digits]
        wts = [float(w) for w in sys.weights]
        x = np.zeros(sys.dim)
        pts = []
        for k in range(count + 32):
            x = rinv @ (x + rng.choices(digs, weights=wts)[0])
            if k >= 32:  # burn-in
                pts.append(tuple(x))
        return AttractorCloud(mode=mode, depth=None, points=pts)
    raise ValueError("mode must be 'deterministic' or 'chaos'")


def self_similarity_check(sys: AffineSystem, depth: int = 5) -> bool:
    """Exact multiset identity A_{n+1} = union of tau_i(A_n) for the
    deterministic clouds; a cheap invariant that exercises the arithmetic."""
    a_n = attractor(sys, depth=depth).points
    a_next = attractor(sys, depth=depth + 1).points
    rebuilt = [sys.tau(i, p) for i in range(sys.n_digits) for p in a_n]
    return sorted(a_next) == sorted(rebuilt)
