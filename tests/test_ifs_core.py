"""System construction, attractors, and the self-similarity identity."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aifs.errors import NotExpansive
from aifs.ifs_core import (
    AffineSystem,
    attractor,
    bounding_box,
    self_similarity_check,
)
from aifs.linalg_exact import Matrix, contraction_data, frac


def sys1d(scale, digits, weights=()):
    return AffineSystem(
        R=Matrix([[frac(scale)]]),
        digits=tuple((frac(b),) for b in digits),
        weights=tuple(frac(w) for w in weights),
    )


CANTOR4 = sys1d(4, [0, 2])


def test_validation_rejects_non_square():
    with pytest.raises(ValueError):
        AffineSystem(
            R=Matrix([[frac(2), frac(0)]]), digits=((frac(0),),)
        )


def test_validation_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        AffineSystem(
            R=Matrix([[frac(2)]]), digits=((frac(0), frac(1)),)
        )


def test_validation_rejects_duplicate_digits():
    with pytest.raises(ValueError):
        sys1d(2, [0, 0])


def test_validation_rejects_bad_weights():
    with pytest.raises(ValueError):
        sys1d(2, [0, 1], weights=["1/2", "1/3"])  # does not sum to 1
    with pytest.raises(ValueError):
        sys1d(2, [0, 1], weights=["-1/2", "3/2"])  # negative


def test_validation_rejects_non_expansive():
    with pytest.raises(NotExpansive):
        sys1d(1, [0, 1])


def test_uniform_weights_default():
    assert CANTOR4.weights == (Fraction(1, 2), Fraction(1, 2))
    assert CANTOR4.uniform


def test_tau_contracts():
    # tau_b(x) = R^{-1}(x + b)
    assert CANTOR4.tau(1, (Fraction(1),)) == (Fraction(3, 4),)


def test_dual_of_dual_is_the_system():
    sys = AffineSystem(
        R=Matrix([[frac(2), frac(1)], [frac(0), frac(3)]]),
        digits=((0, 0), (1, 0), (0, 1)),
        name="shear",
    )
    dual = sys.dual([(0, 0), (1, 1), (2, 0)])
    assert dual.R == sys.R.transpose()
    assert dual.digits == ((0, 0), (1, 1), (2, 0))
    assert dual.name == "shear-dual"
    back = dual.dual(sys.digits)
    assert back.R == sys.R
    assert back.digits == sys.digits


def test_cached_inverses_are_lazy_and_exact():
    sys = sys1d(4, [0, 2])
    assert "r_inverse" not in sys.__dict__
    assert sys.r_inverse is sys.r_inverse
    assert sys.r_inverse == sys.R.inverse()
    assert sys.s_inverse == sys.R.transpose().inverse()
    assert sys.contraction == contraction_data(sys.r_inverse.to_float())


def test_symbol_lipschitz_is_cached_and_bit_identical():
    sys = AffineSystem(
        R=Matrix([[frac(3), frac(1)], [frac(0), frac(3)]]),
        digits=((0, 0), (1, 0), (0, 2)),
        weights=(Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
    )
    # the expression the truncation tail evaluated on every call before
    theta = 2.0 * math.pi * sum(
        float(w) * math.hypot(*[float(v) for v in b])
        for w, b in zip(sys.weights, sys.digits)
    )
    assert "symbol_lipschitz" not in sys.__dict__
    assert sys.symbol_lipschitz == theta
    assert sys.symbol_lipschitz is sys.symbol_lipschitz


def test_attractor_within_bounding_box():
    lo, hi = bounding_box(CANTOR4)
    pts = attractor(CANTOR4, depth=7).as_floats()
    assert len(pts) == 2**7
    assert pts.min() >= float(lo[0]) - 1e-12
    assert pts.max() <= float(hi[0]) + 1e-12
    # the quarter Cantor set lives in [0, 2/3]
    assert pts.min() >= 0.0
    assert pts.max() <= 2.0 / 3.0 + 1e-12


def test_attractor_deterministic_points_are_exact_rationals():
    cloud = attractor(CANTOR4, depth=3)
    assert all(isinstance(c, Fraction) for p in cloud.points for c in p)
    # depth-3 points are sums sum_{k=1..3} 4^{-k} b_k plus the tail fix
    assert len(set(cloud.points)) == 8


def test_chaos_mode_is_seed_deterministic():
    a = attractor(CANTOR4, depth=6, mode="chaos", count=128, seed=9)
    b = attractor(CANTOR4, depth=6, mode="chaos", count=128, seed=9)
    c = attractor(CANTOR4, depth=6, mode="chaos", count=128, seed=10)
    assert np.array_equal(a.as_floats(), b.as_floats())
    assert not np.array_equal(a.as_floats(), c.as_floats())


def test_self_similarity():
    assert self_similarity_check(CANTOR4, depth=5)


def test_bounding_box_zero_digits():
    s = sys1d(2, [0])
    lo, hi = bounding_box(s)
    assert lo == (0,) and hi == (0,)


def test_shear_system_2d():
    s = AffineSystem(
        R=Matrix([[frac(2), frac(1)], [frac(0), frac(2)]]),
        digits=(
            (Fraction(0), Fraction(0)),
            (Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(1)),
        ),
    )
    pts = attractor(s, depth=5).as_floats()
    assert pts.shape == (3**5, 2)
    lo, hi = bounding_box(s)
    assert (pts >= np.array(list(map(float, lo))) - 1e-9).all()
    assert (pts <= np.array(list(map(float, hi))) + 1e-9).all()


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.integers(2, 5))
def test_attractor_size_matches_word_count(scale, k):
    digits = list(range(k))
    s = sys1d(scale, digits)
    cloud = attractor(s, depth=3)
    assert len(cloud.points) == k**3
