"""Zero sets, torus orbits, family-size bounds, and scaled-minimum scans."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aifs.fourier import eval_symbol
from aifs.ifs_core import AffineSystem
from aifs.linalg_exact import Matrix, frac
from aifs.torus_dynamics import (
    find_zeros,
    finite_bound,
    has_zero_weighted,
    invariant_superset,
    is_invariant,
    min_sum_report,
    min_unit_sum,
    orbit,
    orbit_distance_bound,
    torus,
)
from aifs.catalog import simplex_system


def sys1d(scale, digits, weights=()):
    return AffineSystem(
        R=Matrix([[frac(scale)]]),
        digits=tuple((frac(b),) for b in digits),
        weights=tuple(frac(w) for w in weights),
    )


SHEAR = AffineSystem(
    R=Matrix([[frac(2), frac(1)], [frac(0), frac(2)]]),
    digits=(
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
    ),
)


def test_torus_reduction():
    assert torus((Fraction(7, 3), Fraction(-1, 4))) == (
        Fraction(1, 3),
        Fraction(3, 4),
    )


# ---------------------------------------------------------------- zero sets


def test_zeros_cantor4_circle_route():
    zs = find_zeros(sys1d(4, [0, 2]))
    assert zs.points == ((Fraction(1, 4),), (Fraction(3, 4),))
    assert zs.complete and not zs.families


def test_zeros_simplex_d1():
    zs = find_zeros(sys1d(3, [0, 1]))
    assert zs.points == ((Fraction(1, 2),),)
    assert zs.complete


def test_zeros_simplex_d2_closed_form():
    zs = find_zeros(simplex_system(5, 2))
    assert zs.points == (
        (Fraction(1, 3), Fraction(2, 3)),
        (Fraction(2, 3), Fraction(1, 3)),
    )
    assert zs.complete and not zs.families
    for p in zs.points:
        assert eval_symbol(simplex_system(5, 2), p).is_zero


def test_zeros_simplex_d2_independent_of_matrix():
    # the zero set depends only on digits and weights, not on R
    zs = find_zeros(SHEAR)
    assert zs.points == (
        (Fraction(1, 3), Fraction(2, 3)),
        (Fraction(2, 3), Fraction(1, 3)),
    )


def test_zeros_simplex_d3_families():
    zs = find_zeros(simplex_system(3, 3))
    assert zs.points == ()
    assert len(zs.families) == 3
    assert zs.complete
    s = simplex_system(3, 3)
    for fam in zs.families:
        for t in (Fraction(0), Fraction(1, 5), Fraction(9, 11)):
            assert eval_symbol(s, fam.sample(t)).is_zero


def test_weighted_system_has_no_zero():
    assert not has_zero_weighted(sys1d(2, [0, 1], weights=["1/3", "2/3"]))


def test_weighted_system_with_zero():
    # equal weights on {0,1} at scale 2: m(1/2) = 0
    assert has_zero_weighted(sys1d(2, [0, 1]))


def test_grid_route_finds_zeros_for_general_digits():
    # digits {0, 1, 3} at scale 5 in d = 1: fall back to the polynomial
    # route (integer digits) and certify whatever it finds
    zs = find_zeros(sys1d(5, [0, 1, 3]))
    s = sys1d(5, [0, 1, 3])
    for p in zs.points:
        assert eval_symbol(s, p).is_zero


# ---------------------------------------------------------------- orbits


def test_shear_six_cycle():
    res = orbit(SHEAR.R.transpose(), (Fraction(1, 3), Fraction(2, 3)))
    assert res.preperiod == 0 and res.period == 6 and res.periodic
    expected = [
        (Fraction(1, 3), Fraction(2, 3)),
        (Fraction(2, 3), Fraction(2, 3)),
        (Fraction(1, 3), Fraction(0)),
        (Fraction(2, 3), Fraction(1, 3)),
        (Fraction(1, 3), Fraction(1, 3)),
        (Fraction(2, 3), Fraction(0)),
    ]
    assert list(res.cycle) == expected


def test_orbit_with_preperiod():
    # x = 1/6 under times-3: 1/6 -> 1/2 -> 1/2 (fixed); preperiod 1
    res = orbit(Matrix([[frac(3)]]), (Fraction(1, 6),))
    assert res.preperiod == 1 and res.period == 1


def test_invariance_of_zero_sets():
    zs = find_zeros(simplex_system(2, 2))
    assert is_invariant(Matrix.identity(2).scale(2), zs.points)
    zs6 = find_zeros(simplex_system(6, 2))
    assert not is_invariant(Matrix.identity(2).scale(6), zs6.points)


# ---------------------------------------------------------------- bounds


def test_finite_bound_shear():
    zs = find_zeros(SHEAR)
    rep = finite_bound(SHEAR.R.transpose(), zs.points)
    assert rep.size == 6 and rep.bound == 7 and not rep.contains_zero


def test_finite_bound_no_bound_when_zero_in_closure():
    # times-6 sends 1/3 -> 0: the closure contains the lattice point
    zs = find_zeros(simplex_system(6, 2))
    rep = finite_bound(Matrix.identity(2).scale(6), zs.points)
    assert rep.contains_zero and rep.bound is None


def test_distance_bound_simplex_d3():
    zs = find_zeros(simplex_system(3, 3))
    rep = orbit_distance_bound(Matrix.identity(3).scale(3), zs)
    assert rep.delta_sq == Fraction(1, 4)
    assert rep.bound == 64
    assert rep.exact
    assert rep.note  # the dimension-slip warning must be present


# ---------------------------------------------------------------- min sums


def test_min_unit_sum_d1_p3_values():
    # n = 1: min_k |1 + e(k/3)| = 1 at k = 1
    r1 = min_unit_sum(3, 1, 1)
    assert r1.value == pytest.approx(1.0)
    assert r1.argmin == (1,)
    # n = 2: minimiser k = 4 (phase 4/9 closest to a half turn)
    r2 = min_unit_sum(3, 1, 2)
    assert r2.argmin == (4,)
    assert r2.value == pytest.approx(2 * abs(__import__("math").cos(4 * __import__("math").pi / 9)))


def test_min_sum_report_d1_p3_nonspectral_evidence():
    rep = min_sum_report(3, 1, 4)
    assert rep.verdict == "evidence-nonspectral"
    assert rep.scaled_inf is not None and rep.scaled_inf >= 2.0
    assert all(not v.exact_zero for v in rep.values)


def test_min_sum_d2_p3_hits_exact_zero():
    rep = min_sum_report(3, 2, 1)
    assert rep.verdict == "inconclusive"
    assert rep.values[0].exact_zero
    # the minimiser is the lexicographically smallest zero (1/3, 2/3)
    assert rep.values[0].argmin == (1, 2)


def test_min_sum_p6_d4_zero_at_first_scale():
    rep = min_sum_report(6, 4, 1)
    assert rep.verdict == "inconclusive"
    assert rep.values[0].exact_zero


# ---------------------------------------------------------------- property


@settings(max_examples=40, deadline=None)
@given(
    st.tuples(
        st.fractions(min_value=-3, max_value=3, max_denominator=20),
        st.fractions(min_value=-3, max_value=3, max_denominator=20),
    )
)
def test_orbit_points_stay_on_torus_and_cycle_closes(x):
    # denominators never grow under an integer matrix, so the state space
    # has at most 400 points here and the orbit must close
    s = SHEAR.R.transpose()
    res = orbit(s, x, max_iter=2000)
    for p in res.points:
        assert all(0 <= c < 1 for c in p)
    cyc = res.cycle
    assert len(cyc) == res.period
    for i, p in enumerate(cyc):
        assert torus(s.mat_vec(p)) == cyc[(i + 1) % res.period]


def test_torus_maps_refuse_a_rational_matrix():
    # under S = (5/2) I the denominator of x -> S x mod Z^d doubles at every
    # step, so the closure would never finish
    s = Matrix.identity(2).scale(Fraction(5, 2))
    pts = [(Fraction(1, 3), Fraction(1, 3))]
    for call in (invariant_superset, is_invariant, finite_bound):
        with pytest.raises(ValueError, match="integer matrix"):
            call(s, pts)
