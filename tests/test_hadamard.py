"""Unitary digit matrices, dual pairs, conjugation covariance, probes."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aifs.fourier import eval_mu_hat
from aifs.hadamard import (
    check_hadamard,
    conjecture_probe,
    conjugate_system,
    covariance_residual,
    sample_pairs,
)
from aifs.ifs_core import AffineSystem
from aifs.linalg_exact import Matrix, frac, fvec


def sys1d(scale, digits):
    return AffineSystem(
        R=Matrix([[frac(scale)]]),
        digits=tuple((frac(b),) for b in digits),
    )


CANTOR4 = sys1d(4, [0, 2])


def test_cantor4_pair_certified():
    t = check_hadamard(CANTOR4.R, CANTOR4.digits, ((frac(0),), (frac(1),)))
    assert t.certified
    assert t.defect < 1e-12
    assert t.size == 2


def test_rejected_pair_has_large_defect():
    # frequencies {0, 2} against digits {0, 2} at scale 4: phases are
    # integers, every matrix entry is 1, nowhere near unitary
    t = check_hadamard(CANTOR4.R, CANTOR4.digits, ((frac(0),), (frac(2),)))
    assert not t.certified
    assert t.defect > 0.5


def test_size_mismatch_rejected():
    with pytest.raises(ValueError):
        check_hadamard(
            CANTOR4.R, CANTOR4.digits, ((frac(0),), (frac(1),), (frac(2),))
        )


@pytest.mark.parametrize(
    "r, digits, freqs",
    [
        (CANTOR4.R, CANTOR4.digits, [(), ()]),
        (CANTOR4.R, CANTOR4.digits, [(0, 0), (1, 0)]),
        (Matrix([[2, 0], [0, 2]]), [(0, 0), (1, 0)], [(0,), (1,)]),
        (Matrix([[2, 0], [0, 2]]), [(0, 0), (1, 0)], [(0, 0, 0), (1, 0, 0)]),
    ],
    ids=["1d-short", "1d-long", "2d-short", "2d-long"],
)
def test_frequencies_of_the_wrong_dimension_rejected(r, digits, freqs):
    with pytest.raises(ValueError, match="dimension mismatch"):
        check_hadamard(r, digits, freqs)


def test_duplicate_frequencies_rejected():
    with pytest.raises(ValueError):
        check_hadamard(CANTOR4.R, CANTOR4.digits, ((frac(0),), (frac(0),)))


def test_transpose_symmetry():
    # (R, B, L) unitary iff (R^T, L, B) unitary
    b = CANTOR4.digits
    l = ((frac(0),), (frac(1),))
    t1 = check_hadamard(CANTOR4.R, b, l)
    t2 = check_hadamard(CANTOR4.R.transpose(), l, b)
    assert t1.certified == t2.certified
    assert t1.defect == pytest.approx(t2.defect, abs=1e-14)


def test_simplex_d2_triple_certified():
    r = Matrix.identity(2).scale(3)
    b = (
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
    )
    l = (
        (Fraction(0), Fraction(0)),
        (Fraction(2), Fraction(-2)),
        (Fraction(-2), Fraction(2)),
    )
    t = check_hadamard(r, b, l)
    assert t.certified and t.defect < 1e-12


def test_conjugate_system():
    v = Matrix([[frac(2)]])
    conj = conjugate_system(CANTOR4, v)
    assert conj.R == CANTOR4.R  # scalar conjugation keeps a scalar matrix
    assert conj.digits == ((Fraction(0),), (Fraction(4),))


def test_conjugate_system_rejects_a_singular_change_of_variables():
    with pytest.raises(ValueError):
        conjugate_system(CANTOR4, Matrix([[frac(0)]]))


def test_covariance_identity_scalar():
    # mu^_{VB}(x) = mu^_B(V^T x)
    v = Matrix([[frac(3)]])
    for x in [(Fraction(1, 5),), (Fraction(2, 7),)]:
        assert covariance_residual(CANTOR4, v, x) < 1e-10


def test_covariance_identity_2d():
    s = AffineSystem(
        R=Matrix.identity(2).scale(3),
        digits=(
            (Fraction(0), Fraction(0)),
            (Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(1)),
        ),
    )
    v = Matrix([[frac(1), frac(1)], [frac(0), frac(1)]])  # unimodular shear
    for x in [(Fraction(1, 5), Fraction(1, 7)), (Fraction(0), Fraction(2, 3))]:
        assert covariance_residual(s, v, x) < 1e-10


def test_covariance_direct_crosscheck():
    # independent re-derivation: evaluate both sides by hand
    v = Matrix([[frac(2)]])
    conj = conjugate_system(CANTOR4, v)
    x = (Fraction(3, 11),)
    lhs = eval_mu_hat(conj, x).value
    rhs = eval_mu_hat(CANTOR4, v.transpose().mat_vec(fvec(x))).value
    assert abs(lhs - rhs) < 1e-10


def test_probe_cantor4_both_orientations_spectral():
    rep = conjecture_probe(CANTOR4, ((frac(0),), (frac(1),)))
    assert rep.experimental  # must be labelled as evidence, not proof
    assert rep.verdicts == ("spectral-evidence", "spectral-evidence")
    assert all(o.q_min >= 0.99 for o in rep.orientations)
    assert "evidence" in rep.note.lower() or "proof" in rep.note.lower()


def test_probe_requires_a_certified_pair():
    with pytest.raises(ValueError, match="not a certified compatible pair"):
        conjecture_probe(CANTOR4, ((frac(0),), (frac(2),)))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 40))
def test_hadamard_invariant_under_frequency_translation(shift):
    # translating the frequency set by an integer multiplies columns by
    # unimodular constants: unitarity is unaffected
    l = ((frac(shift),), (frac(1 + shift),))
    t = check_hadamard(CANTOR4.R, CANTOR4.digits, l)
    assert t.certified and t.defect < 1e-12


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 90), st.integers(1, 400), st.integers(0, 2**32))
def test_sample_pairs_matches_sampling_the_pair_list(n, k, seed):
    rng, ref = random.Random(seed), random.Random(seed)
    pairs = list(combinations(range(n), 2))
    want = ref.sample(pairs, k) if len(pairs) > k else pairs
    assert sample_pairs(rng, n, k) == want
    assert rng.getstate() == ref.getstate()
