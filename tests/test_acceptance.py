"""Acceptance suite: eleven end-to-end criteria with runtime budgets.

Each test prints one ``criterion NN: PASS/FAIL`` line (visible with -s and
in failure reports) and enforces its wall-clock budget. The checks run the
full public pipeline -- certification, torus dynamics, cycles, spectra,
orthogonality certificates, Parseval sums, catalog -- against exact expected
values worked out by hand.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from aifs.catalog import simplex_spectrum_digits
from aifs.cycles_spectrum import extreme_cycles, spectrum_from_cycles
from aifs.fourier import TruncationPolicy
from aifs.hadamard import check_hadamard, conjecture_probe, covariance_residual
from aifs.ifs_core import AffineSystem, simplex_digits, simplex_system
from aifs.linalg_exact import Matrix, frac, fvec
from aifs.torus_dynamics import (
    find_zeros,
    finite_bound,
    has_zero_weighted,
    is_invariant,
    min_sum_report,
    orbit,
    orbit_distance_bound,
)
from aifs.verify import (
    block_root_family,
    certify_all_pairs,
    completeness_q,
    halton_points,
    max_orthogonal_family,
    rational_grid_1d,
)


@contextmanager
def criterion(number: int, budget_s: float):
    t0 = time.perf_counter()
    try:
        yield
        dt = time.perf_counter() - t0
        if dt >= budget_s:
            raise AssertionError(
                "criterion %02d exceeded its %.0f s budget (%.2f s)"
                % (number, budget_s, dt)
            )
    except BaseException:
        print("criterion %02d: FAIL (%.2f s)" % (number, time.perf_counter() - t0))
        raise
    print("criterion %02d: PASS (%.2f s)" % (number, dt))


def sys1d(scale, digits, weights=None):
    return AffineSystem(
        R=Matrix([[frac(scale)]]),
        digits=tuple((frac(b),) for b in digits),
        weights=None if weights is None else tuple(frac(w) for w in weights),
    )


def dual_of(sys, freqs):
    return AffineSystem(R=sys.R.transpose(), digits=tuple(fvec(l) for l in freqs))


CANTOR4 = sys1d(4, [0, 2])
CANTOR4_DUAL = dual_of(CANTOR4, [[0], [1]])
SHEAR = AffineSystem(
    R=Matrix([[frac(2), frac(1)], [frac(0), frac(2)]]),
    digits=(
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
    ),
)


def test_criterion_01_unitary_pair_certification():
    with criterion(1, 1.0):
        good = check_hadamard(CANTOR4.R, CANTOR4.digits, CANTOR4_DUAL.digits)
        assert good.certified
        assert good.defect < 1e-12

        d3 = simplex_system(2, 3)
        triple = check_hadamard(d3.R, d3.digits, simplex_spectrum_digits(2, 3))
        assert triple.certified

        rejected = check_hadamard(
            CANTOR4.R, CANTOR4.digits, ((Fraction(0),), (Fraction(2),))
        )
        assert not rejected.certified
        assert rejected.defect > 1e-12


def test_criterion_02_shear_six_cycle_and_bound():
    with criterion(2, 1.0):
        s = SHEAR.R.transpose()  # [[2,0],[1,2]]
        res = orbit(s, (Fraction(1, 3), Fraction(2, 3)))
        third, two_thirds, zero = Fraction(1, 3), Fraction(2, 3), Fraction(0)
        assert res.points == (
            (third, two_thirds),
            (two_thirds, two_thirds),
            (third, zero),
            (two_thirds, third),
            (third, third),
            (two_thirds, zero),
        )
        assert res.preperiod == 0
        assert res.period == 6

        zeros = find_zeros(SHEAR)
        rep = finite_bound(s, zeros.points)
        assert rep.size == 6
        assert rep.bound == 7
        assert not rep.contains_zero


def test_criterion_03_planar_zero_invariance_and_single_cycle_spectrum():
    with criterion(3, 5.0):
        want_zeros = {
            (Fraction(1, 3), Fraction(2, 3)),
            (Fraction(2, 3), Fraction(1, 3)),
        }
        for p in (2, 4, 5):
            sys = simplex_system(p, 2)
            zeros = find_zeros(sys)
            assert set(zeros.points) == want_zeros
            assert zeros.complete
            assert is_invariant(sys.R.transpose(), zeros.points)
            rep = finite_bound(sys.R.transpose(), zeros.points)
            assert rep.bound == 3  # no four mutually orthogonal exponentials

        # The dual maps are x -> (x + l)/scale. At scale 3,
        # L = {(0,0), (2,-2), (-2,2)} and the fixed points l/2 = (0,0),
        # (1,-1), (-1,1) are integral, so m_B(x) = (1 + e(x1) + e(x2))/3 has
        # |m_B| = 1 at all three: three extreme cycles, whose level-3 spectra
        # fill out (k, -k) for even |k| <= 26 and odd |k| <= 53. At scale 6
        # the fixed points l/5 are not integral, so only the origin cycle
        # is extreme.
        zero, one = Fraction(0), Fraction(1)
        spectra = {}
        for scale, want_cycles, want_size in (
            (3, {((zero, zero),), ((one, -one),), ((-one, one),)}, 81),
            (6, {((zero, zero),)}, 27),
        ):
            sys = simplex_system(scale, 2)
            dual = dual_of(sys, simplex_spectrum_digits(scale, 2))
            cycles = extreme_cycles(sys, dual)
            assert len(cycles) == len(want_cycles)
            assert {c.points for c in cycles} == want_cycles

            level3 = spectrum_from_cycles(dual, cycles, 3)
            formula = set()
            for (x,) in want_cycles:
                for l0 in dual.digits:
                    for l1 in dual.digits:
                        for l2 in dual.digits:
                            formula.add(
                                tuple(
                                    -scale**3 * w + a + scale * b + scale**2 * c
                                    for w, a, b, c in zip(x, l0, l1, l2)
                                )
                            )
            assert len(formula) == want_size
            assert set(level3.elements) == formula
            pairs = certify_all_pairs(sys, level3.elements)
            assert pairs.undetermined == 0
            assert pairs.certified == pairs.n_pairs
            spectra[scale] = formula

        assert spectra[3] == {
            (Fraction(k), Fraction(-k))
            for k in range(-53, 54)
            if k % 2 or abs(k) <= 26
        }


def test_criterion_04_corner_cycles_pair_certificates_distance_bound():
    with criterion(4, 10.0):
        sys = simplex_system(2, 3)
        dual = dual_of(sys, simplex_spectrum_digits(2, 3))
        cycles = extreme_cycles(sys, dual)
        got = {c.points[0] for c in cycles}
        assert len(cycles) == 4
        assert got == {
            (Fraction(0), Fraction(0), Fraction(0)),
            (Fraction(1), Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(1), Fraction(1)),
            (Fraction(1), Fraction(0), Fraction(1)),
        }

        level3 = spectrum_from_cycles(dual, cycles, 3)
        pairs = certify_all_pairs(sys, level3.elements)
        assert pairs.undetermined == 0
        assert pairs.certified == pairs.n_pairs

        sys3 = simplex_system(3, 3)
        zeros = find_zeros(sys3)
        rep = orbit_distance_bound(sys3.R.transpose(), zeros)
        assert rep.delta_sq >= Fraction(1, 4)  # distance delta >= 1/2
        assert rep.bound == 64
        assert rep.note and "256" in rep.note and "64" in rep.note


def test_criterion_05_one_dimensional_regressions():
    with criterion(5, 30.0):
        p2 = sys1d(2, [0, 1])
        p2_dual = dual_of(p2, [[0], [1]])
        s5 = spectrum_from_cycles(
            p2_dual, extreme_cycles(p2, p2_dual), 5
        )
        assert [v[0] for v in s5.elements] == [
            Fraction(k) for k in range(-32, 32)
        ]

        p4 = sys1d(4, [0, 1])
        p4_dual = dual_of(p4, [[0], [2]])
        s3 = spectrum_from_cycles(p4_dual, extreme_cycles(p4, p4_dual), 3)
        assert [v[0] for v in s3.elements] == [0, 2, 8, 10, 32, 34, 40, 42]

        p3 = sys1d(3, [0, 1])
        family = max_orthogonal_family(p3, rational_grid_1d(54, -27, 27))
        assert family.certified_maximum
        assert family.size == 2  # no mutually orthogonal triple exists here


def test_criterion_06_parseval_completeness_evidence():
    with criterion(6, 20.0):
        cycles = extreme_cycles(CANTOR4, CANTOR4_DUAL)
        points = halton_points(32, 1)
        q8 = completeness_q(
            CANTOR4,
            spectrum_from_cycles(CANTOR4_DUAL, cycles, 8).elements,
            points=points,
        )
        assert all(0.99 <= q <= 1 + 1e-8 for q in q8.q_values)

        q2 = completeness_q(
            CANTOR4,
            spectrum_from_cycles(CANTOR4_DUAL, cycles, 2).elements,
            points=points,
        )
        assert all(a < b for a, b in zip(q2.q_values, q8.q_values))


def test_criterion_07_weighted_measure_has_no_orthogonal_pair():
    with criterion(7, 5.0):
        weighted = sys1d(2, [0, 1], weights=["1/3", "2/3"])
        assert has_zero_weighted(weighted) is False
        rep = max_orthogonal_family(weighted, rational_grid_1d(8, -4, 4))
        assert rep.size == 1
        assert rep.certified_maximum


@pytest.mark.filterwarnings("ignore:digit set is not integral")
def test_criterion_08_transform_covariance_under_conjugation():
    with criterion(8, 10.0):
        policy = TruncationPolicy(max_terms=160, tail_bound=1e-12)
        rng = random.Random(8)
        n_v = 0
        while n_v < 20:
            v = Matrix(
                [
                    [
                        Fraction(rng.randint(-8, 8), rng.randint(1, 4))
                        for _ in range(2)
                    ]
                    for _ in range(2)
                ]
            )
            if v.det() == 0:
                continue
            n_v += 1
            for _ in range(20):
                x = tuple(
                    Fraction(rng.randint(-64, 64), 64) for _ in range(2)
                )
                assert covariance_residual(SHEAR, v, x, policy) < 1e-9


def test_criterion_09_block_root_family_and_scaled_minima():
    with criterion(9, 10.0):
        rep = block_root_family(6, 4, [(1, 2), (1, 3)], count=6)
        assert rep.z0 == (
            Fraction(1, 2),
            Fraction(0),
            Fraction(1, 3),
            Fraction(2, 3),
        )
        assert rep.z0_is_zero  # the symbol vanishes exactly at z0
        assert rep.all_certified
        k = 0
        for i in range(6):
            for j in range(i + 1, 6):
                # pair (p^(j+1) z0, p^(i+1) z0) vanishes at index min = i+1
                assert rep.certificates[k].vanishing_index == i + 1
                k += 1

        deep = min_sum_report(3, 1, 5)
        assert deep.verdict == "evidence-nonspectral"
        for v in deep.values:
            assert v.value * 3**v.n >= 2.0

        flat = min_sum_report(3, 2, 1)
        assert flat.values[0].exact_zero
        assert flat.verdict == "inconclusive"


def test_criterion_10_two_sided_spectral_probe():
    with criterion(10, 30.0):
        probe1 = conjecture_probe(CANTOR4, CANTOR4_DUAL.digits)
        probe2 = conjecture_probe(
            simplex_system(3, 2), simplex_spectrum_digits(3, 2)
        )
        for rep in (probe1, probe2):
            assert rep.experimental is True
            assert "evidence" in rep.note
            assert rep.verdicts == ("spectral-evidence", "spectral-evidence")


def test_criterion_11_full_catalog_exits_clean():
    with criterion(11, 180.0):
        from aifs.cli import main

        assert main(["catalog", "run", "all"]) == 0
