"""Symbol and measure-transform evaluation with certified error control."""

import cmath
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aifs.errors import BudgetExceeded
from aifs.fourier import (
    TruncationPolicy,
    eval_mu_hat,
    eval_symbol,
    invariance_residual,
    is_symbol_unimodular,
    mu_hat_grid,
    normalization_residual,
)
from aifs.ifs_core import AffineSystem
from aifs.linalg_exact import Matrix, frac


def sys1d(scale, digits, weights=()):
    return AffineSystem(
        R=Matrix([[frac(scale)]]),
        digits=tuple((frac(b),) for b in digits),
        weights=tuple(frac(w) for w in weights),
    )


CANTOR4 = sys1d(4, [0, 2])
WEIGHTED = sys1d(2, [0, 1], weights=["1/3", "2/3"])


def test_symbol_value_at_zero_is_one():
    sv = eval_symbol(CANTOR4, (Fraction(0),))
    assert sv.value == pytest.approx(1.0)
    assert not sv.is_zero


def test_symbol_exact_zero_certified():
    sv = eval_symbol(CANTOR4, (Fraction(1, 4),))
    assert sv.is_zero and sv.certified


def test_symbol_periodicity_under_integer_shift():
    x = (Fraction(3, 7),)
    y = (Fraction(3, 7) + 5,)
    a, b = eval_symbol(CANTOR4, x), eval_symbol(CANTOR4, y)
    assert cmath.isclose(a.value, b.value, abs_tol=1e-14)


def test_symbol_modulus_at_most_one():
    for k in range(17):
        v = eval_symbol(CANTOR4, (Fraction(k, 17),)).value
        assert abs(v) <= 1 + 1e-14


def test_unimodular_detection():
    assert is_symbol_unimodular(CANTOR4, (Fraction(0),))
    # digits {0,2} at x=1/2: phases 0 and 1 agree mod 1 -> |m| = 1
    assert is_symbol_unimodular(CANTOR4, (Fraction(1, 2),))
    assert not is_symbol_unimodular(CANTOR4, (Fraction(1, 3),))


def test_mu_hat_at_zero_is_one():
    v = eval_mu_hat(CANTOR4, (Fraction(0),))
    assert v.value == pytest.approx(1.0)
    assert v.error_radius < 1e-10


def test_mu_hat_exact_zero_short_circuit():
    # mu^(1/4) has the n = 1 factor m(1/4 / 4 * 4) = m(1/4) ... the chain
    # S^{-1} x = 1/16? No: the first factor is m(S^{-1} x); choose x = 1
    # so that S^{-1} x = 1/4, an exact symbol zero.
    v = eval_mu_hat(CANTOR4, (Fraction(1),))
    assert v.exact_zero and v.value == 0 and v.error_radius == 0.0


def test_mu_hat_invariance_identity():
    assert invariance_residual(CANTOR4, (Fraction(1, 3),)) < 1e-10
    assert invariance_residual(WEIGHTED, (Fraction(2, 5),)) < 1e-10


def test_mu_hat_budget_exceeded_when_terms_too_few():
    with pytest.raises(BudgetExceeded):
        eval_mu_hat(
            CANTOR4,
            (Fraction(1, 3),),
            TruncationPolicy(max_terms=2, tail_bound=1e-12),
        )


def test_mu_hat_grid_matches_scalar():
    xs = np.array([[0.22], [1.7], [-3.4]])
    vals, err = mu_hat_grid(CANTOR4, xs)
    for x, v in zip(xs, vals):
        sv = eval_mu_hat(CANTOR4, (frac(round(float(x[0]) * 10**6)) / 10**6,))
        assert abs(v - sv.value) <= err + sv.error_radius + 1e-9


def test_weighted_mu_hat_lebesgue_case():
    # R = 2 with digits {0,1} and equal weights gives Lebesgue on [0,1]:
    # mu^(x) = e^{pi i x} sinc(pi x); check |mu^(1/2)| = 2/pi
    leb = sys1d(2, [0, 1])
    v = eval_mu_hat(leb, (Fraction(1, 2),))
    assert abs(v.value) == pytest.approx(2 / np.pi, abs=1e-10)


def test_normalization_identity_for_compatible_pair():
    sys_l = sys1d(4, [0, 1])  # frequency digits {0, 1}, matrix S = R^T
    for x in [(Fraction(1, 7),), (Fraction(3, 5),), (Fraction(0),)]:
        assert normalization_residual(CANTOR4, sys_l, x) < 1e-12


def test_normalization_fails_for_incompatible_pair():
    sys_l = sys1d(4, [0, 2])  # {0,2} is not compatible with digits {0,2}
    worst = max(
        normalization_residual(CANTOR4, sys_l, (Fraction(k, 11),))
        for k in range(11)
    )
    assert worst > 1e-3


@settings(max_examples=40, deadline=None)
@given(st.fractions(min_value=-8, max_value=8))
def test_symbol_periodicity_property(x):
    a = eval_symbol(CANTOR4, (x,)).value
    b = eval_symbol(CANTOR4, (x + 1,)).value
    assert cmath.isclose(a, b, abs_tol=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.fractions(min_value=-4, max_value=4))
def test_transfer_identity_property(x):
    # sum over frequency digits of W_B(sigma_l x) == 1 for the dual pair
    sys_l = sys1d(4, [0, 1])
    assert normalization_residual(CANTOR4, sys_l, (x,)) < 1e-11


def test_normalization_float_point_matches_exact_point():
    sys_l = sys1d(4, [0, 1])
    float_res = normalization_residual(CANTOR4, sys_l, (0.3,))
    exact_res = normalization_residual(CANTOR4, sys_l, (Fraction(3, 10),))
    assert abs(float_res - exact_res) < 1e-12


def test_normalization_residual_refuses_a_point_of_the_wrong_dimension():
    # numpy would broadcast (1/3,) to (1/3, 1/3) against the 2-D digits
    planar = AffineSystem(R=Matrix([[3, 0], [0, 3]]), digits=((0, 0), (1, 0), (0, 1)))
    dual = planar.dual(((0, 0), (1, 0), (0, 1)))
    with pytest.raises(ValueError, match="dimension mismatch"):
        normalization_residual(planar, dual, (Fraction(1, 3),))
    assert normalization_residual(planar, dual, (Fraction(1, 3),) * 2) >= 0.0


def test_exact_evaluators_refuse_float_points():
    with pytest.raises(TypeError):
        eval_symbol(CANTOR4, (0.25,))
    with pytest.raises(TypeError):
        eval_mu_hat(CANTOR4, (0.3,))
