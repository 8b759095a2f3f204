"""Zero sets, torus orbits, family-size bounds, and scaled-minimum scans."""

from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aifs.errors import AifsError, BudgetExceeded
from aifs.fourier import eval_symbol
from aifs.ifs_core import AffineSystem, simplex_system
from aifs.linalg_exact import Matrix, frac, fvec
from aifs.torus_dynamics import (
    CLOSURE_CAP,
    DistanceBoundReport,
    ZeroSet,
    find_zeros,
    finite_bound,
    has_zero_weighted,
    invariant_superset,
    is_invariant,
    min_sum_report,
    min_unit_sum,
    orbit,
    orbit_distance_bound,
)

# ---------------------------------------------------------------- references
# The torus maps on Fraction points, reduced mod 1 after every
# Matrix.mat_vec, as the package ran them before its integer kernel; the
# property tests below hold the kernel to them.


def torus(v):
    return tuple(frac(c) % 1 for c in v)


def reference_dist_sq(x):
    total = Fraction(0)
    for c in x:
        f = frac(c) % 1
        total += min(f, 1 - f) ** 2
    return total


def reference_orbit(s, x0, max_iter=100_000):
    """(trail, preperiod, period) of x0 under x -> S x mod Z^d."""
    x = torus(fvec(x0))
    seen = {x: 0}
    trail = [x]
    for n in range(1, max_iter + 1):
        x = torus(s.mat_vec(x))
        if x in seen:
            j = seen[x]
            return tuple(trail), j, n - j
        seen[x] = n
        trail.append(x)
    raise BudgetExceeded("orbit did not close within %d steps" % max_iter)


def reference_closure(s, points):
    closure = set()
    frontier = [torus(fvec(p)) for p in points]
    while frontier:
        x = frontier.pop()
        if x in closure:
            continue
        closure.add(x)
        if len(closure) > CLOSURE_CAP:
            raise BudgetExceeded("invariant closure exceeded %d points" % CLOSURE_CAP)
        frontier.append(torus(s.mat_vec(x)))
    return frozenset(closure)


def reference_is_invariant(s, points):
    pts = {torus(fvec(p)) for p in points}
    return all(torus(s.mat_vec(p)) in pts for p in pts)


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
    # the polynomial route: 1 + z has the one unit-circle root -1
    for scale in (2, 3, 4, 6):
        zs = find_zeros(sys1d(scale, [0, 1]))
        assert zs.points == ((Fraction(1, 2),),)
        assert zs.complete and zs.tag == "circle-poly-d1"


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


def reference_orbit_distance_bound(s, zeros):
    """The earlier bound, minimising over each zero point's own orbit; the
    invariant closure of all the points must give the same report."""
    d = s.n
    deltas = [
        min(map(reference_dist_sq, reference_orbit(s, p)[0])) for p in zeros.points
    ]
    if zeros.families:
        diag = s.rows[0][0]
        if not (
            s == Matrix.identity(d).scale(diag)
            and diag.denominator == 1
            and int(diag) % 2 == 1
        ):
            raise AifsError("distance bound for zero continua needs odd scalars")
        deltas.append(Fraction(1, 4))
    if not deltas:
        raise AifsError("empty zero set; distance bound does not apply")
    delta_sq = min(deltas)
    if delta_sq == 0:
        raise AifsError("zero orbit meets the lattice; bound does not apply")
    ratio = Fraction(d) / delta_sq
    k = isqrt(ratio.numerator * ratio.denominator) // ratio.denominator
    note = None
    if d == 3 and k + 1 == 4:
        note = "dimension slip"
    return DistanceBoundReport(
        delta_sq=delta_sq, bound=(k + 1) ** d, exact=True, note=note
    )


def _distance_outcome(bound, s, zeros):
    try:
        rep = bound(s, zeros)
    except AifsError:
        return "refused"
    return rep.delta_sq, rep.bound, rep.exact, bool(rep.note)


_torus_coords = st.builds(
    Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 5, 6, 9, 10])
)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda d: st.tuples(
            st.lists(
                st.lists(st.integers(-3, 3), min_size=d, max_size=d),
                min_size=d,
                max_size=d,
            ),
            st.lists(
                st.tuples(*[_torus_coords] * d), min_size=0, max_size=4
            ),
        )
    )
)
def test_distance_bound_from_closure_matches_per_point_orbits(case):
    rows, points = case
    s = Matrix(rows)
    zeros = ZeroSet(points=tuple(points), complete=True)
    assert _distance_outcome(orbit_distance_bound, s, zeros) == _distance_outcome(
        reference_orbit_distance_bound, s, zeros
    )


@st.composite
def torus_cases(draw):
    """An integer S of size 1-3, singular ones included, and up to three
    points, each over its own denominator of at most 30."""
    d = draw(st.integers(1, 3))
    row = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    s = Matrix(draw(st.lists(row, min_size=d, max_size=d)))
    dens = draw(st.lists(st.integers(1, 30), min_size=1, max_size=3, unique=True))
    points = [
        tuple(Fraction(draw(st.integers(-2 * q, 2 * q)), q) for _ in range(d))
        for q in dens
    ]
    return s, points


@settings(max_examples=60, deadline=None)
@given(torus_cases())
def test_integer_kernel_matches_the_fraction_references(case):
    s, points = case
    for p in points:
        res = orbit(s, p)
        assert (res.points, res.preperiod, res.period) == reference_orbit(s, p)
        # the orbit closes at step len(res.points): max_iter must reach it
        steps = len(res.points)
        assert orbit(s, p, max_iter=steps) == res
        with pytest.raises(BudgetExceeded, match="within %d steps" % (steps - 1)):
            orbit(s, p, max_iter=steps - 1)
    closure = reference_closure(s, points)
    assert invariant_superset(s, points) == closure
    assert is_invariant(s, points) == reference_is_invariant(s, points)
    assert is_invariant(s, closure)
    zero = (Fraction(0),) * s.n
    rep = finite_bound(s, points)
    assert (rep.size, rep.contains_zero) == (len(closure), zero in closure)
    assert rep.bound == (None if zero in closure else len(closure) + 1)
    zeros = ZeroSet(points=tuple(points), complete=True)
    assert _distance_outcome(orbit_distance_bound, s, zeros) == _distance_outcome(
        reference_orbit_distance_bound, s, zeros
    )
