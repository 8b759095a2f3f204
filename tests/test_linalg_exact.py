"""Exact matrix arithmetic and expansivity certification."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aifs.cyclotomy import cyclotomic
from aifs.errors import BudgetExceeded, NotExpansive
from aifs.linalg_exact import (
    Matrix,
    check_expansive,
    contraction_data,
    ensure_expansive,
    frac,
    fvec,
    vec_dot,
)
from test_cyclotomy import poly_divides

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


def test_unit_modulus_rotation_is_not_expansive():
    # the 3-4-5 rotation has eigenvalues (3 +- 4i)/5 of modulus exactly 1
    # that are not roots of unity (denominator 5: not algebraic integers);
    # no float margin can tell them from 1, the exact recursion decides
    assert check_expansive(M([["3/5", "-4/5"], ["4/5", "3/5"]])) is False


def test_contraction_data_certifies_norm_decay():
    m = M([[2, 1], [0, 2]]).inverse()
    big_c, c = contraction_data(m)
    assert 0 < c < 1
    a = m.to_float()  # dyadic entries: the float powers are exact
    for n in range(1, 40):
        for order in (1, 2, np.inf):
            actual = np.linalg.norm(np.linalg.matrix_power(a, n), order)
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


# ------------------------------------------- expansivity reference

#: the reference's float margin: moduli within it of 1 are refused
REFERENCE_MARGIN = 1e-9


class ReferenceRefused(Exception):
    """The reference's float margin cannot decide the moduli."""


def totient(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def reference_check_expansive(m):
    """The earlier check: eigenvalues +-1 from the coefficient sums, the
    root-of-unity scan from q = 2 only for an integral characteristic
    polynomial, then the float margin. The single scan from q = 1 over the
    polynomial with cleared denominators must agree wherever this one
    decides."""
    cp = m.charpoly()
    if cp[-1] == 0:
        return False
    if sum(cp) == 0 or sum(c * (-1) ** (m.n - i) for i, c in enumerate(cp)) == 0:
        return False
    if all(c.denominator == 1 for c in cp):
        ipoly = [int(c) for c in reversed(cp)]
        for q in range(2, 2 * m.n * m.n + 3):
            if totient(q) <= m.n and poly_divides(cyclotomic(q), ipoly):
                return False
    moduli = np.abs(np.linalg.eigvals(m.to_float()))
    if moduli.min() >= 1.0 + REFERENCE_MARGIN:
        return True
    if (moduli <= 1.0 - REFERENCE_MARGIN).any():
        return False
    raise ReferenceRefused("moduli within the margin")


_expansivity_entries = st.one_of(
    st.integers(-2, 2),
    st.builds(Fraction, st.integers(-5, 5), st.sampled_from([2, 3, 4])),
)


@st.composite
def small_matrices(draw):
    """Integer or rational matrices up to 3x3 with small entries, so that
    eigenvalues on the unit circle are common, optionally shifted by a
    multiple of the identity, so that expansive ones are too. The other
    branch hides a small integer 2x2 block (often a root of unity) and a
    rational eigenvalue behind a rational change of basis, which makes the
    characteristic polynomial non-integral."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 3))
        shift = draw(st.sampled_from([0, 0, 3, Fraction(5, 2), -4]))
        rows = [[draw(_expansivity_entries) for _ in range(n)] for _ in range(n)]
        return M([[x + shift * (i == j) for j, x in enumerate(row)]
                  for i, row in enumerate(rows)])
    a, b, c, d = (draw(st.integers(-1, 1)) for _ in range(4))
    r = draw(st.sampled_from([Fraction(5, 2), Fraction(-7, 3), Fraction(1, 2), 3]))
    block = M([[a, b, 0], [c, d, 0], [0, 0, r]])
    u, v, w = (draw(st.sampled_from([0, 1, Fraction(1, 2), -2])) for _ in range(3))
    p = M([[1, u, v], [0, 1, w], [0, 0, 1]])
    return p @ block @ p.inverse()


@settings(max_examples=400, deadline=None)
@given(small_matrices())
def test_check_expansive_matches_reference(m):
    try:
        want = reference_check_expansive(m)
    except ReferenceRefused:
        # a modulus within the margin of 1 is, for these small entries, a
        # modulus exactly 1, which the exact recursion must reject
        assert check_expansive(m) is False
        return
    assert check_expansive(m) == want


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 12),
    st.integers(0, 12),
    st.sampled_from([1, -1]),
    st.integers(1, 10**12),
    st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 5])),
    st.lists(st.sampled_from([0, 1, -2, Fraction(1, 3), Fraction(-5, 7)]),
             min_size=3, max_size=3),
)
@example(2, 1, 1, 10**12, Fraction(3), [0, 0, 0])
@example(2, 1, -1, 10**12, Fraction(3), [0, 0, 0])
def test_check_expansive_matches_modulus_oracle(a, b, sign, k, c2, upper):
    # R = P diag(c1 Q, c2) P^-1 with Q the rotation of the Pythagorean triple
    # (a^2 - b^2, 2ab, a^2 + b^2), so the moduli are |c1| (twice) and |c2|;
    # at c1 = 1 +- 1/k no float margin separates them from 1
    c1 = 1 + Fraction(sign, k)
    h = a * a + b * b
    cos, sin = c1 * Fraction(a * a - b * b, h), c1 * Fraction(2 * a * b, h)
    block = M([[cos, -sin, 0], [sin, cos, 0], [0, 0, c2]])
    u, v, w = upper
    p = M([[1, u, v], [0, 1, w], [0, 0, 1]])
    r = p @ block @ p.inverse()
    assert check_expansive(r) is (min(abs(c1), abs(c2)) > 1)


def test_lehmer_companion_matrix_is_not_expansive():
    # Lehmer's polynomial t^10 + t^9 - t^7 - t^6 - t^5 - t^4 - t^3 + t + 1
    # has eight roots on the unit circle that are not roots of unity, besides
    # Lehmer's number 1.17628... and its inverse
    coeffs = [1, 1, 0, -1, -1, -1, -1, -1, 0, 1]  # c_0 .. c_9, ascending
    companion = [[int(i == j + 1) for j in range(9)] + [-coeffs[i]]
                 for i in range(10)]
    m = M(companion)
    assert m.charpoly() == tuple(Fraction(c) for c in [1] + coeffs[::-1])
    assert check_expansive(m) is False


def test_rational_matrix_with_fourth_roots_of_unity_is_rejected_exactly():
    # eigenvalues +-i and 5/2: the characteristic polynomial
    # (t^2 + 1)(t - 5/2) is not integral
    assert check_expansive(M([[0, -1, 0], [1, 0, 0], [0, 0, "5/2"]])) is False


def test_eigenvalue_minus_one_is_rejected_exactly():
    assert check_expansive(M([[-1, 0], [0, 3]])) is False


@pytest.mark.parametrize("x", [0.5, float("inf"), float("-inf"), float("nan")])
def test_frac_refuses_non_integral_floats_with_type_error(x):
    with pytest.raises(TypeError):
        frac(x)


def test_slow_contraction_is_a_budget_limit_not_a_verdict():
    # R^{-1} has spectral radius 99/100, but its Jordan block keeps ||R^{-k}||
    # = (99/100)^k + k (99/100)^(k-1) above 1 up to k = 644: the squarings
    # past the 64th power reach a contracting 1024th
    r_inv = M([["99/100", 1], [0, "99/100"]])
    big_c, c = contraction_data(r_inv)
    for n in (1, 64, 644, 645, 1000, 3000):
        p = r_inv.pow(n).rows
        assert float(max(sum(map(abs, v)) for v in (*p, *zip(*p)))) <= big_c * c**n
    # with 999/1000 the norm stays above 1 up to k = 9114, past 64^2 = 4096
    r_inv = M([["999/1000", 1], [0, "999/1000"]])
    assert check_expansive(r_inv.inverse())
    with pytest.raises(BudgetExceeded):
        contraction_data(r_inv)
    # the exact norm of 10000/10001 is below 1 at the first power
    big_c, c = contraction_data(M([["10000/10001"]]))
    assert Fraction(10000, 10001) <= c < 1 and 1 <= big_c
