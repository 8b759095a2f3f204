"""The digit symbol and the Fourier transform of the invariant measure.

For a system (R, B, w) the symbol is m(x) = sum_b w_b e^{2 pi i b.x}; its
modulus squared W = |m|^2 drives every orthogonality question downstream.
The invariant measure's transform is the infinite product
mu^(x) = prod_{n>=1} m((R^T)^{-n} x), which converges because R^{-1}
contracts; truncation errors are bounded explicitly, so every returned value
carries a certified error radius. Zeros of factors are certified exactly
through cyclotomy when the evaluation point is rational.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

import numpy as np

from .cyclotomy import vanishing_sum
from .errors import BudgetExceeded, ExactnessUnavailable
from .ifs_core import AffineSystem
from .linalg_exact import fvec, int_mat_vec, lattice_numerators

#: a symbol value whose float modulus exceeds this is certainly non-zero:
#: the evaluation error of a <=32-term unit sum is below 1e-13, five orders
#: of magnitude smaller
ZERO_PREFILTER = 1e-8

_TWO_PI_I = 2j * math.pi


@dataclass(frozen=True)
class SymbolValue:
    value: complex
    is_zero: bool
    certified: bool  # whether the zero/non-zero status is rigorous


def _residues(sys: AffineSystem, y, den: int) -> tuple:
    """(r, M): the phases b.(y / den) mod 1 of integer y as residues r_b / M."""
    c, digits = sys.integer_digits
    m = c * den
    return [sum(map(mul, b, y)) % m for b in digits], m


def _phase_residues(sys: AffineSystem, x, den: int) -> tuple:
    """(r, M): the phases b.(x / den) mod 1 at rational x."""
    return _residues(sys, *lattice_numerators(x, sys.dim, den))


def _exact_zero(sys: AffineSystem, res, m: int) -> tuple:
    """(zero, certified) for sum_b w_b e(r_b / M), memoised per system.

    The decision depends only on the normalised pattern: rotating out
    e(r_0 / M), a unit, and dividing M and every r_b - r_0 by their gcd g
    (a sum over M-th roots supported on multiples of g is the same sum over
    (M/g)-th roots) leave the value's vanishing unchanged. The normalised q
    is the denominator ``vanishing_sum`` reaches after its own rotation, so
    it refuses exactly the patterns it refuses unnormalised."""
    r0 = res[0]
    shifted = [(r - r0) % m for r in res] if r0 else res
    g = math.gcd(m, *shifted)
    key = (m // g, *[r // g for r in shifted])
    memo = sys.zero_memo
    if key not in memo:
        phases = [Fraction(r, key[0]) for r in key[1:]]
        try:
            memo[key] = vanishing_sum(sys.weights, phases), True
        except ExactnessUnavailable:
            memo[key] = False, False
    return memo[key]


def _symbol(sys: AffineSystem, y, den: int) -> tuple:
    """(value, is_zero, certified) of m(y / den) at integer y. r / M rounds
    correctly: each phase is the float of the reduced fraction. Only a
    value the float prefilter cannot rule out reaches the exact test."""
    res, m = _residues(sys, y, den)
    val = sum(
        w * cmath.exp(_TWO_PI_I * (r / m))
        for w, r in zip(sys.complex_weights, res)
    )
    if abs(val) > ZERO_PREFILTER:
        return val, False, True
    zero, certified = _exact_zero(sys, res, m)
    return (0j if zero else val), zero, certified


def eval_symbol(sys: AffineSystem, x) -> SymbolValue:
    """Evaluate m(x) at a rational x with an exact zero/non-zero
    certificate; float points raise TypeError."""
    return SymbolValue(*_symbol(sys, *lattice_numerators(x, sys.dim)))


def is_symbol_unimodular(sys: AffineSystem, x) -> bool:
    """Exact test for |m(x)| = 1 at rational x.

    A convex combination of unit vectors has modulus 1 precisely when all
    the unit vectors coincide, i.e. all phases b.x agree mod 1.
    """
    return len(set(_phase_residues(sys, x, 1)[0])) == 1


@dataclass(frozen=True)
class TruncationPolicy:
    """How far to unroll the infinite product and when to stop."""

    max_terms: int = 64
    tail_bound: float = 1e-12


@dataclass(frozen=True)
class MuHatValue:
    value: complex
    error_radius: float
    exact_zero: bool
    terms_used: int


def truncation_tail(sys: AffineSystem, xnorm: float):
    """n -> e^{t_n} - 1, the distance from 1 of the product of the factors
    past n, for |x| = xnorm (infinite once t_n >= 700, where expm1
    overflows). t_n = theta C |x| c^{n+1} / (1 - c) bounds
    sum_{k>n} |m(S^{-k} x) - 1| by ||S^{-k}|| <= C c^k and the Lipschitz
    bound |m(y) - 1| <= theta |y|, theta = ``sys.symbol_lipschitz``."""
    big_c, c = sys.contraction
    scale = sys.symbol_lipschitz * big_c * xnorm

    def tail(n: int) -> float:
        t = scale * c ** (n + 1) / (1.0 - c)
        return math.expm1(t) if t < 700.0 else math.inf

    return tail


def float_norm(y, den: int) -> float:
    """|y / den| for an integer vector y, or math.inf when it overflows a
    float: an infinite ``truncation_tail`` is never met."""
    try:
        return math.hypot(*[v / den for v in y])
    except OverflowError:
        return math.inf


def integer_chain(sys: AffineSystem, y, den: int, terms: int):
    """Yield (n, Y_n, D_n) for n = 1..terms, S^{-n}(y / den) = Y_n / D_n in
    integers: Y_n = A Y_{n-1} and D_n = e D_{n-1} for S^{-1} = A / e."""
    e, a = sys.integer_s_inverse
    for n in range(1, terms + 1):
        y = int_mat_vec(a, y)
        den *= e
        yield n, y, den


def factor_chain(sys: AffineSystem, x, terms: int):
    """Yield (n, Y_n, D_n, m(S^{-n} x), tail_n) for n = 1..terms at the
    rational x: the factors of mu^(x) = prod_n m(S^{-n} x), each with its
    exact zero certificate, S^{-n} x = Y_n / D_n as in ``integer_chain``,
    and the ``truncation_tail`` bound tail_n on how far the factors past n
    move the product from 1."""
    y, den = lattice_numerators(x, sys.dim)
    tail_at = truncation_tail(sys, float_norm(y, den) or 1.0)
    for n, y, den in integer_chain(sys, y, den, terms):
        yield n, y, den, SymbolValue(*_symbol(sys, y, den)), tail_at(n)


def eval_mu_hat(
    sys: AffineSystem, x, policy: TruncationPolicy = TruncationPolicy()
) -> MuHatValue:
    """Truncated product for mu^(x) with a certified error radius.

    Stops once the unevaluated tail provably multiplies the result by
    1 + O(tail_bound); an exactly-zero factor short-circuits to an exact
    zero. The point must be rational (floats raise TypeError): the iterates
    (R^T)^{-n} x stay exact, so factor zeros are certified, not guessed.
    """
    prod = complex(1.0)
    for n, _, _, sv, tail in factor_chain(sys, x, policy.max_terms):
        if sv.is_zero:
            return MuHatValue(0j, 0.0, True, n)
        prod *= sv.value
        # the rounding floor 5e-14 n is reported but does not gate the
        # budget: the policy bounds the truncation tail, which is the only
        # part more terms can shrink
        err = tail + 5e-14 * (n + 1)
        if tail <= policy.tail_bound or abs(prod) < 1e-300:
            return MuHatValue(prod, err, False, n)
    raise BudgetExceeded(
        "tail bound %g not reached within %d product terms"
        % (policy.tail_bound, policy.max_terms)
    )


def invariance_residual(sys: AffineSystem, x) -> float:
    """|mu^(x) - m(S^{-1}x) mu^(S^{-1}x)| with S = R^T; zero in exact arithmetic."""
    sinv = sys.s_inverse
    y = sinv.mat_vec(fvec(x))
    lhs = eval_mu_hat(sys, x)
    rhs = eval_mu_hat(sys, y)
    m = eval_symbol(sys, y)
    return abs(lhs.value - m.value * rhs.value)


def mu_hat_grid(sys: AffineSystem, xs: np.ndarray) -> tuple:
    """Vectorised float evaluation of mu^ on many points.

    Returns (values, error_bound) where the single error bound covers every
    entry (it is computed from the largest |x| in the batch). Used by the
    Parseval diagnostics, where exact zero certificates are irrelevant.
    """
    policy = TruncationPolicy()
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    sinv_t = sys.s_inverse.to_float().T
    bmat = np.array([[float(c) for c in d] for d in sys.digits])
    wvec = np.array([float(w) for w in sys.weights])
    tail_at = truncation_tail(sys, float(np.linalg.norm(xs, axis=1).max(initial=1.0)))
    vals = np.ones(len(xs), dtype=complex)
    y = xs
    for n in range(1, policy.max_terms + 1):
        y = y @ sinv_t
        vals *= np.exp(2j * np.pi * (y @ bmat.T)) @ wvec
        tail = tail_at(n)
        if tail <= policy.tail_bound:  # the rounding floor is reported, not gated on
            return vals, tail + 5e-14 * (n + 1)
    raise BudgetExceeded(
        "tail bound %g not reached within %d product terms"
        % (policy.tail_bound, policy.max_terms)
    )


def normalization_residual(sys_b: AffineSystem, sys_l: AffineSystem, x) -> float:
    """|sum_l W_B(sigma_l(x)) - 1| where sigma_l are the contractions of the
    dual system (R^T, L). Identically zero exactly when the digit matrix is
    unitary (the transfer operator fixes the constant 1). A float diagnostic:
    x, the digits and the weights are taken to floats."""
    if len(x) != sys_b.dim:
        raise ValueError("dimension mismatch")
    rinv = sys_l.r_inverse.to_float()
    xf = np.asarray([float(c) for c in x])
    bmat = np.array([[float(c) for c in d] for d in sys_b.digits])
    wvec = np.array([float(w) for w in sys_b.weights])
    total = 0.0
    for l in sys_l.digits:
        y = rinv @ (xf + np.array(l, dtype=float))
        total += abs(complex(np.exp(2j * np.pi * (bmat @ y)) @ wvec)) ** 2
    return abs(total - 1.0)
