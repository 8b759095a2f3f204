"""Exact matrix arithmetic and expansivity certification."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aifs.errors import BorderlineExpansive, NotExpansive
from aifs.linalg_exact import (
    Matrix,
    check_expansive,
    contraction_data,
    ensure_expansive,
    frac,
    fvec,
    vec_dot,
)

import numpy as np


def M(rows):
    return Matrix([[frac(e) for e in row] for row in rows])


def test_frac_accepts_ints_strings_and_integral_floats():
    assert frac(3) == Fraction(3)
    assert frac("2/3") == Fraction(2, 3)
    assert frac(4.0) == Fraction(4)
    with pytest.raises(TypeError):
        frac(0.1)  # not integral: refuse to guess an exact value


def test_matrix_inverse_roundtrip():
    m = M([[2, 1], [0, 2]])
    assert m @ m.inverse() == Matrix.identity(2)
    assert m.inverse() @ m == Matrix.identity(2)


def test_matrix_det_and_charpoly():
    m = M([[2, 1], [0, 2]])
    assert m.det() == 4
    # x^2 - 4x + 4, stored leading-first
    assert m.charpoly() == (Fraction(1), Fraction(-4), Fraction(4))


def test_singular_matrix_has_no_inverse():
    with pytest.raises(ValueError):
        M([[1, 2], [2, 4]]).inverse()


def test_pow_matches_repeated_multiplication():
    m = M([[2, 1], [0, 2]])
    acc = Matrix.identity(2)
    for k in range(5):
        assert m.pow(k) == acc
        acc = acc @ m


def test_expansive_shear():
    assert check_expansive(M([[2, 1], [0, 2]]))


def test_not_expansive_eigenvalue_one_is_exact():
    # eigenvalue exactly 1: must be rejected without float wiggle room
    assert not check_expansive(M([[1, 0], [0, 2]]))
    with pytest.raises(NotExpansive):
        ensure_expansive(M([[1, 0], [0, 2]]))


def test_root_of_unity_eigenvalues_rejected_exactly():
    # rotation by 90 degrees: eigenvalues are 4th roots of unity
    assert not check_expansive(M([[0, -1], [1, 0]]))
    # char poly t^2 - t + 1: primitive 6th roots of unity
    assert not check_expansive(M([[1, -1], [1, 0]]))


def test_singular_rejected():
    assert not check_expansive(M([[0, 0], [0, 2]]))


def test_borderline_unit_modulus_raises():
    # the 3-4-5 rotation has eigenvalues (3 +- 4i)/5 of modulus exactly 1
    # that are not roots of unity (denominator 5: not algebraic integers),
    # so the exact pre-checks pass and the float margin must refuse
    with pytest.raises(BorderlineExpansive):
        check_expansive(M([["3/5", "-4/5"], ["4/5", "3/5"]]))


def test_contraction_data_certifies_norm_decay():
    a = np.linalg.inv(np.array([[2.0, 1.0], [0.0, 2.0]]))
    big_c, c = contraction_data(a)
    assert 0 < c < 1
    for n in range(1, 40):
        actual = np.linalg.norm(np.linalg.matrix_power(a, n), 2)
        assert actual <= big_c * c**n * (1 + 1e-9)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-4, 4), min_size=2, max_size=2),
        min_size=2,
        max_size=2,
    )
)
def test_charpoly_at_zero_is_det_sign_adjusted(rows):
    m = M(rows)
    # p(0) = (-1)^n det(A) for p the (monic) characteristic polynomial
    assert m.charpoly()[-1] == m.det()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    )
)
def test_transpose_preserves_det_and_charpoly(rows):
    m = M(rows)
    assert m.transpose().det() == m.det()
    assert m.transpose().charpoly() == m.charpoly()


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.fractions(), min_size=3, max_size=3),
    st.lists(st.fractions(), min_size=3, max_size=3),
)
def test_vec_dot_symmetry(u, v):
    assert vec_dot(fvec(u), fvec(v)) == vec_dot(fvec(v), fvec(u))


# ------------------------------------------- elimination references


def reference_inverse(m):
    """Gauss-Jordan over Q: a reference the LeVerrier inverse must match."""
    n = m.n
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m.rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [e / pv for e in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [e - f * p for e, p in zip(aug[r], aug[col])]
    return Matrix([row[n:] for row in aug])


def reference_det(m):
    """Gaussian elimination over Q: a reference for the LeVerrier det."""
    n = m.n
    a = [list(row) for row in m.rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col] * inv
                a[r] = [e - f * p for e, p in zip(a[r], a[col])]
    return det


def reference_charpoly(m):
    """Faddeev-LeVerrier on Fraction matrices, dividing by k over Q."""
    n = m.n
    coeffs = [Fraction(1)]
    mk = Matrix.identity(n)
    for k in range(1, n + 1):
        mk = m @ mk
        ck = -sum((mk.rows[i][i] for i in range(n)), Fraction(0)) / k
        coeffs.append(ck)
        if k < n:
            mk = mk.add(Matrix.identity(n).scale(ck))
    return tuple(coeffs)


_entries = st.one_of(
    st.integers(-5, 5),
    st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6, 7])),
)


@st.composite
def square_matrices(draw):
    """Integer or rational matrices up to 4x4; a drawn row copy or zero row
    makes singular ones common."""
    n = draw(st.integers(1, 4))
    rows = [[draw(_entries) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        rows[i] = [draw(st.sampled_from([0, 1, -2])) * x for x in rows[j]]
    return M(rows)


@settings(max_examples=300, deadline=None)
@given(square_matrices())
def test_leverrier_matches_elimination_references(m):
    assert m.charpoly() == reference_charpoly(m)
    assert m.det() == reference_det(m)
    if m.det() == 0:
        with pytest.raises(ValueError):
            reference_inverse(m)
        with pytest.raises(ValueError, match="singular"):
            m.inverse()
    else:
        assert m.inverse() == reference_inverse(m)
