"""Orthogonality certificates, maximal families, Parseval sums."""

import cmath
import gc
import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from operator import mul, sub

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aifs import catalog, cycles_spectrum, fourier, torus_dynamics, verify
from aifs.cyclotomy import vanishing_sum
from aifs.errors import AifsError, BudgetExceeded, ExactnessUnavailable
from aifs.fourier import (
    ZERO_PREFILTER,
    SymbolValue,
    TruncationPolicy,
    eval_mu_hat,
    eval_symbol,
    mu_hat_grid,
    truncation_tail,
)
from aifs.hadamard import PROBE_MAX_PERIOD
from aifs.ifs_core import AffineSystem, simplex_system
from aifs.linalg_exact import Matrix, frac, fvec, integer_rows, vec_add, vec_dot, vec_sub
from aifs.serialize import frequencies_from_dict, system_from_dict
from aifs.torus_dynamics import (
    ZeroSet,
    find_zeros,
    finite_bound,
    invariant_superset,
    is_invariant,
    orbit,
)
from aifs.verify import (
    Analysis,
    block_root_family,
    certify_all_pairs,
    completeness_q,
    halton_points,
    max_orthogonal_family,
    orthogonal_pair,
    rational_grid_1d,
)


def sys1d(scale, digits, weights=None):
    return AffineSystem(
        R=Matrix([[frac(scale)]]),
        digits=tuple((frac(b),) for b in digits),
        weights=None if weights is None else tuple(frac(w) for w in weights),
    )


CANTOR4 = sys1d(4, [0, 2])


# ---------------------------------------------------------------- pairs


def test_pair_certified_at_first_index():
    cert = orthogonal_pair(CANTOR4, (0,), (1,))
    assert cert.status == "certified"
    assert cert.orthogonal
    assert cert.vanishing_index == 1
    assert cert.zero_point == (Fraction(-1, 4),)


def test_pair_certified_deeper_index():
    # difference 4 reaches the zero 1/4 only at the second pull-back
    cert = orthogonal_pair(CANTOR4, (4,), (0,))
    assert cert.status == "certified"
    assert cert.vanishing_index == 2


def test_pair_not_orthogonal():
    # the chain 1/2, 1/8, 1/32, ... never meets a zero and its tail is
    # provably too small to cancel the leading factors
    cert = orthogonal_pair(CANTOR4, (2,), (0,))
    assert cert.status == "not-orthogonal"
    assert not cert.orthogonal


def test_pair_equal_frequencies_rejected():
    with pytest.raises(ValueError):
        orthogonal_pair(CANTOR4, (3,), (3,))


def test_certify_all_pairs_spectrum_level_two():
    rep = certify_all_pairs(CANTOR4, [(0,), (1,), (4,), (5,)])
    assert rep.n_frequencies == 4
    assert rep.n_pairs == 6
    assert rep.certified == 6
    assert rep.all_orthogonal
    assert rep.bad_pairs == ()


def test_certify_all_pairs_flags_bad_frequency():
    rep = certify_all_pairs(CANTOR4, [(0,), (1,), (2,)])
    assert not rep.all_orthogonal
    assert rep.not_orthogonal >= 1
    assert any((Fraction(2),) in pair for pair in rep.bad_pairs)


# ---------------------------------------------------------------- families


def test_rational_grid_1d():
    assert rational_grid_1d(2, 0, 1) == [
        (Fraction(0),),
        (Fraction(1, 2),),
        (Fraction(1),),
    ]
    grid = rational_grid_1d(3, -1, 1)
    assert (Fraction(-2, 3),) in grid
    assert all(-1 <= g[0] <= 1 for g in grid)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 12),
    st.builds(Fraction, st.integers(-20, 20), st.integers(1, 5)),
    st.builds(Fraction, st.integers(-20, 20), st.integers(1, 5)),
)
def test_rational_grid_1d_matches_sorted_set_reference(max_den, lo, hi):
    # the grid as it was built before: a set of Fraction 1-tuples, sorted
    want = sorted(
        {
            (Fraction(a, q),)
            for q in range(1, max_den + 1)
            for a in range(math.ceil(lo * q), math.floor(hi * q) + 1)
        }
    )
    assert rational_grid_1d(max_den, lo, hi) == want


def test_family_scale3_caps_at_two():
    # scale 3, digits {0, 1}: certified differences are half-odd multiples
    # of powers of 3, and two of those can never sum to a third (parity),
    # so no three exponentials are mutually orthogonal
    s = sys1d(3, [0, 1])
    rep = max_orthogonal_family(s, rational_grid_1d(2, 0, 3))
    assert rep.method == "difference-set"
    assert rep.certified_maximum
    assert rep.size == 2
    a, b = rep.family
    assert abs(a[0] - b[0]) in (Fraction(3, 2), Fraction(9, 2))


def test_family_weighted_no_zero_gives_singleton():
    s = sys1d(4, [0, 2], weights=["3/4", "1/4"])
    rep = max_orthogonal_family(s, rational_grid_1d(4, 0, 2))
    assert rep.size == 1
    assert rep.certified_maximum
    assert rep.method == "difference-set"


def test_family_pairwise_route_matches_difference_route():
    grid = [(Fraction(k),) for k in (0, 1, 4, 5)]
    exact = max_orthogonal_family(CANTOR4, grid)
    incomplete = ZeroSet(points=((Fraction(1, 4),),), complete=False)
    pairwise = max_orthogonal_family(CANTOR4, grid, zeros=incomplete)
    assert exact.method == "difference-set"
    assert pairwise.method == "pairwise"
    assert exact.size == pairwise.size == 4
    assert pairwise.certified_maximum  # every pair decided, none undetermined
    # d = 2: the simplex zero set is finite and complete, so the difference
    # route packs two coordinates of different spans into one key
    s = simplex_system(3, 2)
    grid = [
        (Fraction(a, 2), Fraction(b, 3)) for a in range(-3, 4) for b in range(-5, 6)
    ]
    exact = max_orthogonal_family(s, grid)
    incomplete = replace(find_zeros(s), complete=False)
    pairwise = max_orthogonal_family(s, grid, zeros=incomplete)
    assert exact.method == "difference-set"
    assert pairwise.method == "pairwise"
    assert exact.certified_maximum and pairwise.certified_maximum
    assert exact.size == pairwise.size == 4
    for g, h in combinations(exact.family, 2):
        assert orthogonal_pair(s, g, h).status == "certified"


def test_family_rejects_duplicate_grid():
    with pytest.raises(ValueError):
        max_orthogonal_family(CANTOR4, [(0,), (0,)])


# ---------------------------------------------------------------- Parseval


def test_halton_deterministic_in_unit_cube():
    a = halton_points(64, 3)
    b = halton_points(64, 3)
    assert np.array_equal(a, b)
    assert a.shape == (64, 3)
    assert np.all((a >= 0) & (a < 1))
    with pytest.raises(ValueError):
        halton_points(4, 8)


def test_completeness_q_bessel_bound():
    freqs = [(k,) for k in (0, 1, 4, 5, 16, 17, 20, 21)]
    rep = completeness_q(CANTOR4, freqs, samples=8)
    assert rep.q_max <= 1 + rep.error_bound + 1e-9
    assert rep.q_min > 0.5
    assert len(rep.q_values) == 8


def test_completeness_q_grows_with_level():
    lo = completeness_q(CANTOR4, [(0,), (1,)], samples=6)
    hi = completeness_q(
        CANTOR4, [(k,) for k in (0, 1, 4, 5, 16, 17, 20, 21)], samples=6
    )
    assert lo.q_min < hi.q_min


def test_completeness_q_error_bound_covers_every_sample():
    # the per-sample truncation error grows with |x + lam|; the reported
    # bound must cover the worst sample, not the last one
    freqs = Analysis(CANTOR4, ((Fraction(0),), (Fraction(1),))).spectrum(2)
    lam = np.array([[float(c) for c in f] for f in freqs.elements])
    rep = completeness_q(CANTOR4, freqs.elements, samples=16)
    for x in rep.sample_points:
        _, err = mu_hat_grid(CANTOR4, np.asarray(x)[None, :] + lam)
        need = 2 * err * np.sqrt(len(lam) * max(rep.q_max, 1.0))
        assert rep.error_bound >= need + len(lam) * err**2


def test_completeness_q_explicit_points():
    rep = completeness_q(CANTOR4, [(0,), (1,)], points=[[0.0], [0.3]])
    assert rep.sample_points == ((0.0,), (0.3,))


def test_completeness_q_refuses_sample_points_of_the_wrong_dimension():
    # numpy would broadcast [0.3] to (0.3, 0.3) against the planar frequencies
    planar = simplex_system(3, 2)
    freqs = [(0, 0), (1, 0), (0, 1)]
    with pytest.raises(ValueError, match="dimension mismatch"):
        completeness_q(planar, freqs, points=[[0.3]])
    rep = completeness_q(planar, freqs, points=[[0.3, 0.3]])
    assert rep.sample_points == ((0.3, 0.3),)


# ---------------------------------------------------------------- Fraction reference
#
# The route the integer kernel and the per-difference table replaced: the
# factor chain walked in Fraction vectors through ``Matrix.mat_vec``, phases
# b.y mod 1 as Fractions, and a +-difference memo over the pairs. Kept here
# as the reference the fast route must reproduce exactly.


def reference_eval_symbol(sys, x):
    phases = [vec_dot(b, x) % 1 for b in sys.digits]
    val = sum(
        complex(w) * cmath.exp(2j * math.pi * float(a))
        for w, a in zip(sys.weights, phases)
    )
    if abs(val) > ZERO_PREFILTER:
        return SymbolValue(val, False, True)
    try:
        zero = vanishing_sum(sys.weights, phases)
    except ExactnessUnavailable:
        return SymbolValue(val, False, False)
    return SymbolValue(0j if zero else val, zero, True)


def reference_factor_chain(sys, x, terms):
    y = fvec(x)
    tail_at = truncation_tail(sys, math.hypot(*[float(v) for v in y]) or 1.0)
    for n in range(1, terms + 1):
        y = sys.s_inverse.mat_vec(y)
        yield n, y, reference_eval_symbol(sys, y), tail_at(n)


def reference_eval_mu_hat(sys, x, policy=TruncationPolicy()):
    prod = complex(1.0)
    for n, _, sv, tail in reference_factor_chain(sys, x, policy.max_terms):
        if sv.is_zero:
            return 0j, 0.0, True, n
        prod *= sv.value
        if tail <= policy.tail_bound or abs(prod) < 1e-300:
            return prod, tail + 5e-14 * (n + 1), False, n
    return None


def reference_certificate(sys, lam, lam_prime):
    """(status, vanishing index, zero point) of the Fraction route."""
    delta = vec_sub(fvec(lam), fvec(lam_prime))
    certified = True
    for n, y, sv, tail in reference_factor_chain(sys, delta, verify.PAIR_DEPTH):
        if sv.is_zero:
            return "certified", n, y
        certified = certified and sv.certified
        if certified and tail < 0.999:
            return "not-orthogonal", None, None
    return "undetermined", None, None


def reference_pair_statuses(sys, freqs, pairs):
    """(i, j, status) per index pair, memoised on +-(freqs[i] - freqs[j])."""
    memo = {}
    for i, j in pairs:
        delta = vec_sub(freqs[i], freqs[j])
        status = memo.get(delta)
        if status is None:
            status = reference_certificate(sys, freqs[i], freqs[j])[0]
            memo[delta] = memo[tuple(-x for x in delta)] = status
        yield i, j, status


def reference_certify_all_pairs(sys, frequencies):
    freqs = [fvec(f) for f in frequencies]
    counts, bad = Counter(), []
    pairs = combinations(range(len(freqs)), 2)
    for i, j, status in reference_pair_statuses(sys, freqs, pairs):
        counts[status] += 1
        if status != "certified" and len(bad) < verify.BAD_PAIRS_KEPT:
            bad.append((freqs[i], freqs[j]))
    return counts, tuple(bad)


def reference_max_family(sys, grid, zeros):
    """(family, certified maximum) from the Fraction neighbour loops."""
    grid = [fvec(g) for g in grid]
    d = sys.dim
    neighbors = [set() for _ in grid]
    certified = True
    if zeros.complete and not zeros.families:
        lo = [min(g[i] for g in grid) - max(g[i] for g in grid) for i in range(d)]
        hset = verify._certified_difference_set(sys, zeros, lo, [-x for x in lo])
        index = {g: i for i, g in enumerate(grid)}
        for i, g in enumerate(grid):
            for h in hset:
                other = index.get(tuple(g[k] + h[k] for k in range(d)))
                if other is not None:
                    neighbors[i].add(other)
    else:
        pairs = combinations(range(len(grid)), 2)
        for i, j, status in reference_pair_statuses(sys, grid, pairs):
            if status == "certified":
                neighbors[i].add(j)
                neighbors[j].add(i)
            elif status == "undetermined":
                certified = False
    clique = verify._max_clique(len(grid), neighbors)
    return tuple(grid[i] for i in clique), certified


def _system(r, digits, weights=None):
    return AffineSystem(
        R=Matrix(r),
        digits=tuple(fvec(b) for b in digits),
        weights=() if weights is None else tuple(frac(w) for w in weights),
    )


#: d = 1, 2, 3; integral and non-integral digits; uniform and weighted;
#: integer and rational matrices
with pytest.warns(UserWarning, match="not integral"):
    FRACTIONAL = (
        _system([[3]], [[0], ["1/2"]]),
        _system([["5/2", 0], [1, 3]], [[0, 0], ["1/3", 0], [0, "1/2"]]),
    )
EQUIVALENCE_SYSTEMS = (
    CANTOR4,
    sys1d(3, [0, 1]),
    sys1d(4, [0, 2], weights=["3/4", "1/4"]),
    simplex_system(3, 2),
    _system([[2, 1], [0, 2]], [[0, 0], [1, 0]]),
    _system([[3, 0], [0, 3]], [[0, 0], [1, 0], [0, 1]], ["1/2", "1/4", "1/4"]),
    simplex_system(4, 3),
    _system([["3/2", 0, 0], [0, 2, 0], [0, 1, 3]], [[0, 0, 0], [1, 1, 0]]),
) + FRACTIONAL


@st.composite
def system_and_frequencies(draw, min_size=2, max_size=8):
    """A system and up to ``max_size`` distinct frequencies whose coordinates
    range over per-coordinate spans that differ."""
    sys = draw(st.sampled_from(EQUIVALENCE_SYSTEMS))
    coords = []
    for _ in range(sys.dim):
        bound = draw(st.integers(0, 12))
        coords.append(
            st.builds(
                Fraction,
                st.integers(-bound, bound),
                st.sampled_from([1, 1, 2, 3, 4, 6]),
            )
        )
    freqs = draw(
        st.lists(
            st.tuples(*coords), min_size=min_size, max_size=max_size, unique=True
        )
    )
    return sys, freqs


@settings(max_examples=60, deadline=None)
@given(system_and_frequencies())
def test_pair_table_matches_fraction_route(case):
    sys, freqs = case
    rep = certify_all_pairs(sys, freqs)
    counts, bad = reference_certify_all_pairs(sys, freqs)
    assert (rep.certified, rep.not_orthogonal, rep.undetermined) == (
        counts["certified"],
        counts["not-orthogonal"],
        counts["undetermined"],
    )
    assert rep.bad_pairs == bad


#: systems with an exact symbol zero z and integral digits: uniform and
#: weighted digits, an integer and a rational R
NEAR_ZERO_SYSTEMS = (
    (CANTOR4, (Fraction(1, 4),)),
    (sys1d(3, [0, 1]), (Fraction(1, 2),)),
    (simplex_system(3, 2), (Fraction(1, 3), Fraction(2, 3))),
    (
        _system([[3, 0], [0, 3]], [[0, 0], [1, 0], [0, 1]], ["1/2", "1/4", "1/4"]),
        (Fraction(1, 2), Fraction(1, 2)),
    ),
    (
        _system([["3/2", 0, 0], [0, 2, 0], [0, 1, 3]], [[0, 0, 0], [1, 1, 0]]),
        (Fraction(1, 2), Fraction(0), Fraction(0)),
    ),
)


@st.composite
def pairs_near_zeros(draw):
    """(system, (lam, 0)) with S^{-1} lam = z + e_1 / N + an integer vector
    for an exact zero z and N >= 10^9. The first factor is within
    2 pi / N < 1e-8 of zero, so the float prefilter cannot rule it out, and
    its normalised phase denominator exceeds ``Q_CAP``: the exact test
    refuses and the factor stays uncertified."""
    sys, z = draw(st.sampled_from(NEAR_ZERO_SYSTEMS))
    n = draw(st.integers(10**9, 10**12))
    shift = draw(st.tuples(*[st.integers(-3, 3)] * sys.dim))
    x = vec_add((z[0] + Fraction(1, n),) + z[1:], fvec(shift))
    return sys, (sys.R.transpose().mat_vec(x), (0,) * sys.dim)


@settings(max_examples=60, deadline=None)
@given(st.one_of(system_and_frequencies(max_size=2), pairs_near_zeros()))
def test_integer_certificate_matches_fraction_route(case):
    sys, (lam, lam_prime) = case
    ref = reference_certificate(sys, lam, lam_prime)
    cert = orthogonal_pair(sys, lam, lam_prime)
    assert (cert.status, cert.vanishing_index, cert.zero_point) == ref
    # the pair table's status walk over the same difference
    lat = verify.FrequencyLattice([lam, lam_prime])
    ((_, _, status),) = reference_pair_statuses(sys, lat.points, [(0, 1)])
    k = lat.keys[0] - lat.keys[1]
    assert lat.statuses(sys, [k]) == {abs(k): status}


def test_bad_pairs_keep_combinations_order():
    # 20 frequencies 0, 2, 4, ...: every pair is an even difference, and the
    # odd multiples of 2 are not orthogonal for the scale-4 Cantor measure
    freqs = [(2 * k,) for k in range(20)]
    rep = certify_all_pairs(CANTOR4, freqs)
    counts, bad = reference_certify_all_pairs(CANTOR4, freqs)
    assert len(rep.bad_pairs) == verify.BAD_PAIRS_KEPT
    assert rep.bad_pairs == bad
    assert rep.not_orthogonal == counts["not-orthogonal"]


@settings(max_examples=60, deadline=None)
@given(system_and_frequencies(min_size=1, max_size=1))
def test_integer_chain_matches_fraction_chain_bit_for_bit(case):
    sys, (x,) = case
    try:
        got = eval_mu_hat(sys, x)
        got = (got.value, got.error_radius, got.exact_zero, got.terms_used)
    except BudgetExceeded:  # the reference returns None there
        got = None
    assert got == reference_eval_mu_hat(sys, x)
    for (n, y, den, sv, tail), (m, y_ref, sv_ref, tail_ref) in zip(
        fourier.factor_chain(sys, x, 12), reference_factor_chain(sys, x, 12)
    ):
        assert n == m
        assert tuple(Fraction(v, den) for v in y) == y_ref
        assert sv == sv_ref  # complex values compared exactly
        assert tail == tail_ref


#: systems with a complete finite zero set (the difference-set route)
FAMILY_SYSTEMS = (
    CANTOR4, sys1d(3, [0, 1]), simplex_system(3, 2), simplex_system(2, 2)
)


@st.composite
def family_grids(draw):
    sys = draw(st.sampled_from(FAMILY_SYSTEMS))
    coords = [
        st.builds(
            Fraction, st.integers(-draw(st.integers(1, 9)), 9),
            st.sampled_from([1, 2, 3]),
        )
        for _ in range(sys.dim)
    ]
    grid = draw(
        st.lists(st.tuples(*coords), min_size=1, max_size=14, unique=True)
    )
    return sys, grid


@settings(max_examples=40, deadline=None)
@given(family_grids())
def test_family_routes_match_fraction_neighbour_loops(case):
    sys, grid = case
    zeros = find_zeros(sys)
    incomplete = replace(zeros, complete=False)
    for z in (zeros, incomplete):
        rep = max_orthogonal_family(sys, grid, zeros=z)
        family, certified = reference_max_family(sys, grid, z)
        assert (rep.family, rep.certified_maximum) == (family, certified)
    assert max_orthogonal_family(sys, grid, zeros=zeros).size == rep.size


@st.composite
def keys_and_shifts(draw):
    """Distinct keys and a shift set on either side of the probe choice:
    no more shifts than keys (shifts probed), or more (keys scanned)."""
    keys = draw(st.lists(st.integers(-15, 15), min_size=1, max_size=20, unique=True))
    n = len(keys)
    more = draw(st.booleans())
    shifts = draw(
        st.sets(
            st.integers(-30, 30),
            min_size=n + 1 if more else 0,
            max_size=n + 12 if more else n,
        )
    )
    return keys, shifts


@settings(max_examples=100, deadline=None)
@given(keys_and_shifts(), st.randoms(use_true_random=False))
def test_neighbors_match_brute_force_adjacency(case, rnd):
    keys, shifts = case
    index = {k: i for i, k in enumerate(keys)}
    neighbors = verify._Neighbors(keys, index, list(shifts))
    order = list(range(len(keys)))
    rnd.shuffle(order)  # each set is built on its first read, in any order
    for i in order + order:
        want = {j for j, k in enumerate(keys) if k - keys[i] in shifts}
        assert neighbors[i] == want


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 12))
    edges = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    neighbors = [set() for _ in range(n)]
    for i, j in edges:
        if i != j:
            neighbors[i].add(j)
            neighbors[j].add(i)
    return n, neighbors


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_clique_bound_keeps_the_unbounded_clique(graph):
    n, neighbors = graph
    clique = verify._max_clique(n, neighbors)
    for i, j in combinations(clique, 2):
        assert j in neighbors[i]
    # any true upper bound, tight or not, ends on the same clique
    for bound in (len(clique), len(clique) + 1, n):
        assert verify._max_clique(n, neighbors, bound) == clique


def least_maximum_clique(n, neighbors) -> list:
    """The first maximum clique in lexicographic order, by brute force."""
    for size in range(n, 0, -1):
        for clique in combinations(range(n), size):
            if all(j in neighbors[i] for i, j in combinations(clique, 2)):
                return list(clique)
    return []


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_clique_search_returns_the_least_maximum_clique(graph):
    n, neighbors = graph
    want = least_maximum_clique(n, neighbors)
    # unbounded, and with any true upper bound, tight or not
    for bound in (None, len(want), len(want) + 1, n):
        assert verify._max_clique(n, neighbors, bound) == want


@st.composite
def bounded_family_cases(draw):
    """A d = 1 system with integer R and digits, its complete finite zero
    set, and a rational grid."""
    p = draw(st.integers(2, 7))
    digits = draw(st.lists(st.integers(0, 2 * p), min_size=2, max_size=4, unique=True))
    sys = sys1d(p, digits)
    zeros = find_zeros(sys)
    assume(zeros.complete and not zeros.families)
    coord = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 6]))
    grid = draw(st.lists(st.tuples(coord), min_size=1, max_size=16, unique=True))
    return sys, zeros, grid


@settings(max_examples=60, deadline=None)
@given(bounded_family_cases())
def test_bounded_family_search_returns_the_unbounded_family(case):
    sys, zeros, grid = case
    rep = max_orthogonal_family(sys, grid, zeros=zeros)
    family, certified = reference_max_family(sys, grid, zeros)
    assert (rep.family, rep.certified_maximum) == (family, certified)
    bound = finite_bound(sys.R.transpose(), zeros.points).bound
    assert bound is None or rep.size <= bound


def _record_clique_bounds(monkeypatch) -> list:
    bounds, search = [], verify._max_clique

    def recording(nodes, neighbors, bound=None):
        bounds.append(bound)
        return search(nodes, neighbors, bound)

    monkeypatch.setattr(verify, "_max_clique", recording)
    return bounds


@pytest.mark.parametrize(
    "system, bound",
    [
        (sys1d(3, [0, 1]), 2),  # the closure {1/2} avoids 0
        (sys1d(2, [0, 1]), None),  # 2 * 1/2 = 0 mod 1: spectral, no bound
        (sys1d("5/2", [0, 1]), None),  # rational R: no torus dynamics
    ],
)
def test_family_search_takes_the_orbit_bound_where_it_applies(
    monkeypatch, system, bound
):
    bounds = _record_clique_bounds(monkeypatch)
    grid = rational_grid_1d(4, -3, 3)
    rep = max_orthogonal_family(system, grid)
    assert rep.method == "difference-set" and bounds == [bound]
    zeros = find_zeros(system)
    assert (rep.family, rep.certified_maximum) == reference_max_family(
        system, grid, zeros
    )


def test_family_search_runs_unbounded_past_the_closure_cap(monkeypatch):
    bounds = _record_clique_bounds(monkeypatch)
    monkeypatch.setattr(torus_dynamics, "CLOSURE_CAP", 0)
    rep = max_orthogonal_family(sys1d(3, [0, 1]), rational_grid_1d(4, -3, 3))
    assert bounds == [None] and rep.size == 2


class RecordingNeighbors:
    """Neighbour sets that record which vertices the search reads."""

    def __init__(self, neighbors):
        self.neighbors, self.read = neighbors, set()

    def __getitem__(self, v):
        self.read.add(v)
        return self.neighbors[v]


def test_bounded_family_search_reads_few_neighbour_sets(monkeypatch):
    reads, search = [], verify._max_clique

    def recording(nodes, neighbors, bound=None):
        neighbors = RecordingNeighbors(neighbors)
        reads.append(neighbors.read)
        return search(nodes, neighbors, bound)

    monkeypatch.setattr(verify, "_max_clique", recording)
    grid = rational_grid_1d(54, -27, 27)
    rep = max_orthogonal_family(sys1d(3, [0, 1]), grid)
    assert rep.size == 2 and rep.certified_maximum
    # the orbit bound 2 is met at the first edge, from the first point
    (read,) = reads
    assert 1 <= len(read) <= 4 < len(grid)


@pytest.mark.parametrize(
    "max_den, half, family",
    [
        (54, 27, ((Fraction(-27),), (Fraction(-51, 2),))),  # criterion 5
        (6, 9, ((Fraction(-9),), (Fraction(-15, 2),))),  # d1-p3's family check
    ],
)
def test_reported_family_is_the_least_in_grid_order(max_den, half, family):
    grid = rational_grid_1d(max_den, -half, half)
    rep = max_orthogonal_family(sys1d(3, [0, 1]), grid)
    assert rep.family == family


def test_frequency_lattice_keys_determine_differences():
    lat = verify.FrequencyLattice(
        [(Fraction(1, 2), 3), (0, -1), (Fraction(-3, 2), 0)]
    )
    assert lat.den == 2
    assert lat.spans == [4, 8]
    keys = lat.keys
    assert lat.unpack(keys[0] - keys[1]) == (1, 8)
    assert lat.unpack(keys[2] - keys[0]) == (-4, -6)
    # (0, -1) - (1/2, 3) joins points 0 and 1; (1/3, 0) is off the lattice,
    # and (0, 9/2) spans more than the 8/2 of the second coordinate
    diffs = [(Fraction(1, 3), 0), (0, Fraction(9, 2)), (Fraction(-1, 2), -4)]
    neighbors = lat.neighbors(diffs)
    assert [neighbors[i] for i in range(3)] == [{1}, set(), set()]


def reference_lattice(points):
    """The per-point lattice build: (points, den, spans, base, keys, nums)."""
    pts = [fvec(p) for p in points]
    den, nums = integer_rows(pts)
    if len(set(map(len, nums))) > 1:
        raise ValueError("dimension mismatch")
    spans = [max(c) - min(c) for c in zip(*nums)]
    base = 2 * max(spans, default=0) + 1
    powers = [base**i for i in range(len(spans))]
    keys = [sum(map(mul, num, powers)) for num in nums]
    return pts, den, spans, base, keys, nums


@st.composite
def lattice_inputs(draw):
    """0 to 8 points of one dimension 0..3, each coordinate an int, a
    Fraction or an "a/b" string."""
    d = draw(st.integers(0, 3))
    q = st.fractions(min_value=-40, max_value=40, max_denominator=60)
    coord = st.one_of(
        st.integers(-40, 40),
        q,
        q.map(lambda x: "%d/%d" % (x.numerator, x.denominator)),
    )
    return draw(st.lists(st.tuples(*[coord] * d), max_size=8))


@settings(max_examples=200, deadline=None)
@given(lattice_inputs())
def test_column_wise_lattice_matches_the_per_point_build(points):
    lat = verify.FrequencyLattice(points)
    pts, den, spans, base, keys, nums = reference_lattice(points)
    assert (lat.points, lat.den, lat.spans, lat.base, lat.keys) == (
        pts, den, spans, base, keys
    )
    assert lat.index == {k: i for i, k in enumerate(keys)}
    for i, j in combinations(range(len(points)), 2):
        assert lat.unpack(keys[i] - keys[j]) == tuple(map(sub, nums[i], nums[j]))


def test_frequency_lattice_refuses_non_integral_floats():
    with pytest.raises(TypeError, match="non-integral float"):
        verify.FrequencyLattice([(0, 1), (Fraction(1, 2), 0.5)])
    # an integral float is its integer
    assert verify.FrequencyLattice([(2.0,), (1,)]).keys == [2, 1]


@pytest.mark.parametrize(
    "dup",
    [(Fraction(1, 2),), ("1/2",), (Fraction(2, 4),)],
    ids=["fraction", "string", "two-quarters"],
)
def test_family_refuses_repeated_points_written_differently(dup):
    grid = [(0,), (Fraction(1, 2),), (1,), dup]
    with pytest.raises(ValueError, match="grid has repeated points"):
        max_orthogonal_family(sys1d(3, [0, 1]), grid)


def test_frequency_lattice_build_starts_no_garbage_collection():
    # far more points than the generation-0 threshold: a build that makes
    # one tuple or iterator per point starts several collections
    grid = rational_grid_1d(30, -10, 10)
    assert len(grid) > 5 * gc.get_threshold()[0]
    started = []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        lat = verify.FrequencyLattice(grid)
    finally:
        gc.callbacks.remove(count)
    assert started == []
    assert lat.points == grid


@st.composite
def written_grids(draw):
    """A family grid with each coordinate written as a Fraction, an
    "a/b" string or, when integral, an int."""
    sys, grid = draw(family_grids())

    def write(x):
        forms = [x, "%d/%d" % (x.numerator, x.denominator)]
        if x.denominator == 1:
            forms.append(x.numerator)
        return draw(st.sampled_from(forms))

    return sys, [tuple(map(write, p)) for p in grid]


@settings(max_examples=40, deadline=None)
@given(written_grids())
def test_reports_read_points_as_their_fraction_copies(case):
    sys, written = case
    grid = [fvec(p) for p in written]
    zeros = find_zeros(sys)
    # reports compare field by field, and an int read back into a report
    # would still equal its Fraction, so the types are checked too
    incomplete = replace(zeros, complete=False)
    for z, method in ((zeros, "difference-set"), (incomplete, "pairwise")):
        rep = max_orthogonal_family(sys, written, zeros=z)
        assert rep == max_orthogonal_family(sys, grid, zeros=z)
        assert rep.method == method
        assert all(type(c) is Fraction for p in rep.family for c in p)
    rep = certify_all_pairs(sys, written)
    assert rep == certify_all_pairs(sys, grid)
    assert all(type(c) is Fraction for pair in rep.bad_pairs for p in pair for c in p)


# ---------------------------------------------------------------- pair memo


@st.composite
def frequency_lists(draw):
    """A system with 2 to 6 distinct frequencies over denominators 1, 2, 3,
    and index pairs that include every drawn pair reversed."""
    sys = draw(st.sampled_from([CANTOR4, simplex_system(3, 2)]))
    coord = st.builds(
        Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3])
    )
    freqs = draw(
        st.lists(
            st.tuples(*[coord] * sys.dim), min_size=2, max_size=6, unique=True
        )
    )
    index = st.integers(0, len(freqs) - 1)
    pairs = draw(
        st.lists(
            st.tuples(index, index).filter(lambda p: p[0] != p[1]),
            min_size=1,
            max_size=8,
        )
    )
    return sys, freqs, pairs + [(j, i) for i, j in pairs]


@settings(max_examples=30, deadline=None)
@given(frequency_lists())
def test_pair_statuses_match_fresh_certificates(case):
    sys, freqs, pairs = case
    got = list(reference_pair_statuses(sys, freqs, pairs))
    assert [(i, j) for i, j, _ in got] == pairs
    for i, j, status in got:
        assert status == orthogonal_pair(sys, freqs[i], freqs[j]).status


# ---------------------------------------------------------------- status walk


@pytest.mark.parametrize("sys, z", NEAR_ZERO_SYSTEMS)
def test_pair_next_to_a_zero_with_a_large_denominator_stays_undetermined(sys, z):
    x = (z[0] + Fraction(1, 10**9),) + z[1:]
    lam = sys.R.transpose().mat_vec(x)
    # the first factor's phases b.x have a denominator past Q_CAP
    with pytest.raises(ExactnessUnavailable):
        vanishing_sum(sys.weights, [vec_dot(b, x) for b in sys.digits])
    assert orthogonal_pair(sys, lam, (0,) * sys.dim).status == "undetermined"
    assert reference_certificate(sys, lam, (0,) * sys.dim)[0] == "undetermined"


def test_pair_whose_difference_overflows_a_float():
    # |lam - lam'| = 10^400 is past the float range: the tail bound is
    # infinite, so factors m(10^400 / 4^n) = 1 leave the pair undetermined,
    # and at 10^400 + 1 the first factor is an exact zero
    sys = sys1d(4, [0, 2])
    assert orthogonal_pair(sys, (10**400,), (0,)).status == "undetermined"
    rep = certify_all_pairs(sys, [(10**400,), (0,)])
    assert rep.n_pairs == rep.undetermined == 1
    assert orthogonal_pair(sys, (10**400 + 1,), (0,)).status == "certified"
    assert fourier.float_norm((10**400,), 3) == math.inf
    assert fourier.float_norm((3, -4), 7) == math.hypot(3 / 7, -4 / 7)


# ---------------------------------------------------------------- zero memo


def _count_vanishing_sums(monkeypatch) -> list:
    """Record the phases of every ``vanishing_sum`` call the symbol makes."""
    calls = []

    def counting(weights, phases, *args):
        calls.append(tuple(phases))
        return vanishing_sum(weights, phases, *args)

    monkeypatch.setattr(fourier, "vanishing_sum", counting)
    return calls


@pytest.mark.parametrize("name, level, patterns", [("cantor4", 6, 1), ("d3-p2", 2, 3)])
def test_pair_table_decides_each_normalised_pattern_once(
    monkeypatch, name, level, patterns
):
    calls = _count_vanishing_sums(monkeypatch)
    doc = catalog.load_entry(name)["system"]
    sys = system_from_dict(doc)  # a fresh system, with an empty memo
    spectrum = Analysis(sys, frequencies_from_dict(doc)).spectrum(level).elements
    rep = certify_all_pairs(sys, spectrum)
    assert rep.n_pairs == rep.certified == 2016
    # the 2016 certified pairs share these few patterns
    assert len(calls) == len(set(calls)) == len(sys.zero_memo) == patterns


def test_rotated_and_scaled_residues_share_one_memo_key(monkeypatch):
    calls = _count_vanishing_sums(monkeypatch)
    sys = simplex_system(3, 2)  # 1 + e(1/3) + e(2/3) = 0
    # (0, 1, 2) / 3 rotated by 1/3, scaled by 2, and rotated and scaled by 4
    for res, m in [([0, 1, 2], 3), ([1, 2, 0], 3), ([0, 2, 4], 6), ([7, 11, 15], 12)]:
        assert fourier._exact_zero(sys, res, m) == (True, True)
    assert calls == [(Fraction(0), Fraction(1, 3), Fraction(2, 3))]
    assert list(sys.zero_memo) == [(3, 0, 1, 2)]
    assert fourier._exact_zero(sys, [0, 1, 1], 3) == (False, True)
    assert len(calls) == 2


def test_fresh_systems_do_not_share_a_zero_memo(monkeypatch):
    calls = _count_vanishing_sums(monkeypatch)
    a, b = sys1d(4, [0, 2]), sys1d(4, [0, 2])
    assert a == b
    for sys in (a, b, a, b):
        assert eval_symbol(sys, (Fraction(1, 4),)).is_zero
    assert len(calls) == 2
    assert a.zero_memo == b.zero_memo and a.zero_memo is not b.zero_memo


def test_memo_keeps_a_refused_pattern_refused():
    sys = sys1d(3, [0, 1])
    x = (Fraction(1, 2) + Fraction(1, 10**9),)
    for _ in range(2):
        sv = eval_symbol(sys, x)
        assert not sv.is_zero and not sv.certified
    assert list(sys.zero_memo.values()) == [(False, False)]


# ---------------------------------------------------------------- analysis

CANTOR4_L = ((Fraction(0),), (Fraction(1),))


def test_analysis_runs_each_stage_once(monkeypatch):
    calls = {"box": 0, "zeros": 0, "spectrum": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        cycles_spectrum, "find_cycles_in_box",
        counted("box", cycles_spectrum.find_cycles_in_box),
    )
    monkeypatch.setattr(verify, "find_zeros", counted("zeros", find_zeros))
    monkeypatch.setattr(
        verify, "spectrum_from_cycles",
        counted("spectrum", verify.spectrum_from_cycles),
    )
    an = Analysis(CANTOR4, CANTOR4_L)
    level3 = an.spectrum(3)
    assert an.spectrum(3) is level3
    assert [v[0] for v in level3.elements] == [0, 1, 4, 5, 16, 17, 20, 21]
    an.spectrum(2)
    assert an.dual is an.dual
    assert an.cycles is an.cycles
    assert an.extreme is an.extreme
    assert [c.points for c in an.extreme] == [((Fraction(0),),)]
    assert an.zeros is an.zeros
    assert calls == {"box": 1, "zeros": 1, "spectrum": 2}


def test_analysis_replace_starts_with_empty_memo():
    an = Analysis(CANTOR4, CANTOR4_L)
    box = an.spectrum(3)
    words = replace(an, via="words")
    assert words._spectra == {}
    assert "cycles" not in words.__dict__
    assert words.spectrum(3) is not box
    assert words.spectrum(3).elements == box.elements
    assert an._spectra == {3: box}


def test_analysis_without_frequencies():
    an = Analysis(CANTOR4, None)
    assert an.zeros.points == ((Fraction(1, 4),), (Fraction(3, 4),))
    with pytest.raises(AifsError):
        an.dual
    with pytest.raises(AifsError):
        an.spectrum(1)


# ---------------------------------------------------------------- block roots


def test_block_root_family_p6_d4():
    rep = block_root_family(6, 4, [(1, 2), (1, 3)], count=6)
    assert rep.z0 == (
        Fraction(1, 2),
        Fraction(0),
        Fraction(1, 3),
        Fraction(2, 3),
    )
    assert rep.z0_is_zero
    assert len(rep.family) == 6
    assert len(rep.certificates) == 15
    assert rep.all_certified
    k = 0
    for i in range(6):
        for j in range(i + 1, 6):
            assert rep.certificates[k].vanishing_index == i + 1
            k += 1


def test_block_root_family_rejects_bad_blocks():
    with pytest.raises(ValueError):
        block_root_family(6, 4, [(1, 2)])  # sizes do not decompose d + 1
    with pytest.raises(ValueError):
        block_root_family(6, 4, [(1, 5)])  # 5 does not divide 6
    with pytest.raises(ValueError):
        block_root_family(6, 4, [(0, 2), (1, 3)])  # empty block


# ---------------------------------------------------------------- difference set


def _grid_2d(step, bound):
    ks = range(-bound * step, bound * step + 1)
    return [(Fraction(a, step), Fraction(b, step)) for a in ks for b in ks]


@pytest.mark.parametrize(
    "system, grid, n_diffs",
    [
        (sys1d(3, [0, 1]), rational_grid_1d(6, -3, 3), 498),
        (simplex_system(2, 2), _grid_2d(3, 2), 624),
        (simplex_system(3, 2), _grid_2d(2, 3), 624),
    ],
)
def test_difference_set_is_the_certified_differences(system, grid, n_diffs):
    # the box scan of S^n (z + Z^d) must find exactly the grid differences
    # whose factor chain certifies a zero
    d = system.dim
    lo = [min(g[i] for g in grid) - max(g[i] for g in grid) for i in range(d)]
    hi = [-x for x in lo]
    hset = verify._certified_difference_set(system, find_zeros(system), lo, hi)
    diffs = {
        tuple(a - b for a, b in zip(g, h)) for g in grid for h in grid
    } - {(Fraction(0),) * d}
    assert len(diffs) == n_diffs
    statuses = {
        delta: orthogonal_pair(system, delta, (0,) * d).status for delta in diffs
    }
    assert "undetermined" not in statuses.values()
    assert {delta for delta in diffs if delta in hset} == {
        delta for delta, status in statuses.items() if status == "certified"
    }


def test_period_two_cycle_spectrum_is_orthogonal():
    # scale 2, digits {0, 1}, frequencies {0, 3}: extreme cycles {0}, {1, 2}
    # and {3} seed a level-4 spectrum of 64 mutually orthogonal frequencies
    s = sys1d(2, [0, 1])
    an = Analysis(s, ((Fraction(0),), (Fraction(3),)))
    assert sorted(len(c.points) for c in an.extreme) == [1, 1, 2]
    spectrum = an.spectrum(4)
    assert spectrum.size == 64
    rep = certify_all_pairs(s, spectrum.elements)
    assert rep.n_pairs == rep.certified == 2016


# ------------------------------------------- the every-level pair certificate


def routed_pair_report(an, level):
    """``an.pair_report(level)``, and whether it built the pair table over
    the level's elements (the seed pairs behind the every-level flag are
    certified before the spy is in place, so they never count)."""
    an.orthogonal_every_level
    calls = []

    def spy(sys, frequencies):
        calls.append(frequencies)
        return certify_all_pairs(sys, frequencies)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "certify_all_pairs", spy)
        rep = an.pair_report(level)
    return rep, bool(calls)


def assert_pair_report_is_the_table(an, structural):
    for level in range(4):
        oracle = certify_all_pairs(an.sys, an.spectrum(level).elements)
        rep, used_table = routed_pair_report(an, level)
        assert rep == oracle
        assert an.orthogonal_every_level is structural
        assert used_table is not structural


FREQUENCY_ENTRIES = [
    name for name in catalog.entry_names()
    if "frequencies" in catalog.load_entry(name)["system"]
]


@pytest.mark.parametrize("name", FREQUENCY_ENTRIES)
def test_pair_report_matches_the_table_on_catalog_entries(name):
    doc = catalog.load_entry(name)["system"]
    an = Analysis(system_from_dict(doc), frequencies_from_dict(doc))
    # every bundled triple is integral, uniform and certified, with
    # integral seeds whose pairs are orthogonal
    assert_pair_report_is_the_table(an, structural=True)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 4), st.integers(1, 3))
def test_pair_report_matches_the_table_on_fourier_triples(n, k):
    # R = N k, B = {0..N-1}, L = k {0..N-1}: the N-point Fourier matrix
    an = Analysis(sys1d(n * k, range(n)), tuple((k * j,) for j in range(n)))
    assert_pair_report_is_the_table(an, structural=True)


@pytest.mark.parametrize("name", FREQUENCY_ENTRIES)
def test_pair_report_matches_the_table_on_swapped_catalog_entries(name):
    # the probe's second orientation (R^T, L, B); d2-p3's swap has the seeds
    # (-1/2, 0) and (0, -1/2), off Z^2 but in Gamma = {x : 2 x1 - 2 x2 in Z}
    doc = catalog.load_entry(name)["system"]
    first = Analysis(system_from_dict(doc), frequencies_from_dict(doc))
    swap = Analysis(first.dual, first.sys.digits, PROBE_MAX_PERIOD, via="words")
    assert_pair_report_is_the_table(swap, structural=True)


@pytest.mark.parametrize("system, freqs", [
    # the extreme fixed point 1/3 of x -> (x + 1) / 4 seeds -1/3, which lies
    # in Gamma = (1/6) Z, the dual of M = 6 Z
    (sys1d(4, [0, 6]), [0, 1]),
], ids=["fractional-seed"])
def test_pair_report_takes_the_lemma_on_seeds_in_the_period_lattice(
    system, freqs
):
    an = Analysis(system, tuple((Fraction(v),) for v in freqs))
    assert an.spectrum(0).elements == ((Fraction(-1, 3),), (Fraction(0),))
    assert_pair_report_is_the_table(an, structural=True)


@st.composite
def _triples_1d(draw, n):
    """R = n k, B = (r - 1) u / h * {j + n t_j} and L = h * {k j + r s_j}:
    the phases b l / r are (r - 1) u j j' / n mod 1, an n-point Fourier
    matrix when u is prime to n (r - 1 = n k - 1 always is). Every fixed
    point l / (r - 1) of the dual is extreme, so seeds off Z are common."""
    k = draw(st.integers(1 if n > 2 else 2, 3))  # r = n k >= 3
    u = draw(st.sampled_from([u for u in (1, 2, 3) if math.gcd(u, n) == 1]))
    h = draw(st.sampled_from([1, 2]))
    t = [0] + draw(st.lists(st.integers(-1, 1), min_size=n - 1, max_size=n - 1))
    s = [0] + draw(st.lists(st.integers(0, 1), min_size=n - 1, max_size=n - 1))
    r = n * k
    digits = [Fraction((r - 1) * u * (j + n * t[j]), h) for j in range(n)]
    return r, digits, [h * (k * j + r * s[j]) for j in range(n)]


@st.composite
def _gamma_seed_triples(draw):
    """Certified d <= 2 triples: a 1-D Fourier triple, or the product of two
    2-digit ones conjugated by a unimodular V (R -> V R V^-1, B -> V B,
    L -> V^-T L)."""
    if draw(st.booleans()):
        r, digits, freqs = draw(_triples_1d(draw(st.sampled_from([2, 3]))))
        return sys1d(r, digits), tuple((Fraction(l),) for l in freqs)
    (r1, b1, l1), (r2, b2, l2) = draw(_triples_1d(2)), draw(_triples_1d(2))
    v = Matrix(draw(st.sampled_from([
        [[1, 0], [0, 1]], [[1, 1], [0, 1]], [[1, 0], [1, 1]], [[2, 1], [1, 1]]
    ])))
    vt_inv = v.inverse().transpose()
    system = AffineSystem(
        R=v @ Matrix([[r1, 0], [0, r2]]) @ v.inverse(),
        digits=tuple(v.mat_vec((x, y)) for x in b1 for y in b2),
    )
    freqs = tuple(vt_inv.mat_vec(fvec((x, y))) for x in l1 for y in l2)
    return system, freqs


@pytest.mark.filterwarnings("ignore:digit set is not integral")
@settings(max_examples=25, deadline=None)
@given(_gamma_seed_triples())
def test_pair_report_matches_the_table_on_seeds_in_gamma_off_the_integers(case):
    system, freqs = case
    an = Analysis(system, freqs, PROBE_MAX_PERIOD, via="words")
    assume(any(c.denominator != 1 for x in an.spectrum(0).elements for c in x))
    assert an.triple.certified
    assert_pair_report_is_the_table(an, structural=True)


@pytest.mark.filterwarnings("ignore:digit set is not integral")
def test_pair_report_takes_the_table_where_only_gamma_fails():
    # b = (-3/2, 3/2) and l = (-1, 0) have b.l = 3/2, so L - L leaves Gamma.
    # Every other hypothesis holds, and the seed pair and the level-1 pairs
    # are orthogonal, but 8 of the 28 level-2 pairs are not
    system = AffineSystem(
        R=Matrix([[0, 3], [-1, -2]]),
        digits=((Fraction(0), Fraction(0)), (Fraction(-3, 2), Fraction(3, 2))),
    )
    freqs = ((Fraction(0), Fraction(0)), (Fraction(-1), Fraction(0)))
    an = Analysis(system, freqs, PROBE_MAX_PERIOD, via="words")
    seeds = an.spectrum(0).elements
    assert system.R.is_integer and system.uniform and an.triple.certified
    assert certify_all_pairs(system, seeds).all_orthogonal
    assert [an.pair_report(n).certified for n in range(3)] == [1, 6, 20]
    assert an.pair_report(2).n_pairs == 28
    assert_pair_report_is_the_table(an, structural=False)


@pytest.mark.filterwarnings("ignore:digit set is not integral")
def test_pair_report_takes_the_table_where_l_leaves_gamma_through_r():
    # b = (1, -2) and l = (-1, 3/2) have b.l = -4, so l is in the dual of
    # B - B; but R b = (-8, -5) has (R b).l = 1/2, so l is not in Gamma.
    # A lemma over the dual of B - B alone would certify all 28 level-3
    # pairs, of which 4 are not orthogonal
    system = AffineSystem(
        R=Matrix([[-2, 3], [-3, 1]]),
        digits=((Fraction(0), Fraction(0)), (Fraction(1), Fraction(-2))),
    )
    freqs = ((Fraction(0), Fraction(0)), (Fraction(-1), Fraction(3, 2)))
    an = Analysis(system, freqs, PROBE_MAX_PERIOD, via="words")
    assert an.triple.certified and an.spectrum(0).elements == ((0, 0),)
    assert [an.pair_report(n).certified for n in range(4)] == [0, 1, 6, 24]
    assert_pair_report_is_the_table(an, structural=False)


@pytest.mark.parametrize("system, freqs", [
    # a certified triple with weights 1/3, 2/3: m(1/4) = -1/3, not 0
    (sys1d(4, [0, 2], [Fraction(1, 3), Fraction(2, 3)]), [0, 1]),
    # not a Hadamard triple (test_verify_onb_not_orthogonal's system)
    (sys1d(4, [0, 1]), [0, 1]),
    # three frequencies for two digits: no square matrix to certify
    (CANTOR4, [0, 1, 4]),
], ids=["weighted", "not-hadamard", "unequal-sizes"])
def test_pair_report_takes_the_table_where_the_lemma_does_not_apply(
    system, freqs
):
    an = Analysis(system, tuple((Fraction(v),) for v in freqs))
    assert_pair_report_is_the_table(an, structural=False)


def test_pair_report_refuses_a_spectrum_the_lemma_does_not_count():
    an = Analysis(CANTOR4, ((Fraction(0),), (Fraction(1),)))
    assert an.orthogonal_every_level
    spectrum = an.spectrum(2)
    an._spectra[2] = replace(spectrum, elements=spectrum.elements + ((Fraction(3),),))
    with pytest.raises(RuntimeError, match="distinct addresses"):
        an.pair_report(2)


# ---------------------------------------------------------------- dimensions

F = Fraction
#: a point too short and one too long, for a 1-D and a 2-D system (d2-p3)
WRONG_DIMENSION = [
    (CANTOR4, ()),
    (CANTOR4, (F(1, 3), F(1, 5))),
    (simplex_system(3, 2), (F(1, 3),)),
    (simplex_system(3, 2), (F(1, 3), F(1, 5), F(1, 7))),
]

#: each entry point fed the point x, or a list of multiples of it
DIMENSION_CALLS = {
    "eval_symbol": eval_symbol,
    "eval_mu_hat": eval_mu_hat,
    "orthogonal_pair": lambda s, x: orthogonal_pair(s, x, (0,) * s.dim),
    "orthogonal_pair_both": lambda s, x: orthogonal_pair(s, x, (0,) * len(x)),
    "certify_all_pairs": lambda s, x: certify_all_pairs(
        s, [tuple(k * c for c in x) for k in range(3)]
    ),
    # one point has no pair to certify: the table checks the dimension itself
    "certify_all_pairs_one_point": lambda s, x: certify_all_pairs(s, [x]),
    "max_orthogonal_family": lambda s, x: max_orthogonal_family(
        s, [tuple(k * c for c in x) for k in range(3)]
    ),
    "completeness_q": lambda s, x: completeness_q(s, [x], samples=2),
    "orbit": lambda s, x: orbit(s.R.transpose(), x),
    "invariant_superset": lambda s, x: invariant_superset(s.R.transpose(), [x]),
    "is_invariant": lambda s, x: is_invariant(s.R.transpose(), [x]),
    "finite_bound": lambda s, x: finite_bound(s.R.transpose(), [x]),
}


@pytest.mark.parametrize("call", sorted(DIMENSION_CALLS))
@pytest.mark.parametrize(
    "system, x", WRONG_DIMENSION, ids=["1d-short", "1d-long", "2d-short", "2d-long"]
)
def test_entry_points_refuse_a_point_of_the_wrong_dimension(call, system, x):
    # map and zip stop at the shorter input, so an unchecked point of the
    # wrong length would be read as a truncated one
    with pytest.raises(ValueError, match="dimension mismatch"):
        DIMENSION_CALLS[call](system, x)


def test_frequency_lattice_refuses_a_ragged_point_list():
    with pytest.raises(ValueError, match="dimension mismatch"):
        verify.FrequencyLattice([(0, 0), (1,), (2, 1)])
    with pytest.raises(ValueError, match="dimension mismatch"):
        certify_all_pairs(simplex_system(3, 2), [(0, 0), (1, 0, 0)])


def test_empty_spectrum_has_no_pairs_and_parseval_sum_zero():
    # R = 3, B = {0, 1}, L = {1, 3} has no extreme cycles, so its spectrum
    # is empty, and an empty family has Q identically 0
    s = sys1d(3, [0, 1])
    spectrum = Analysis(s, ((F(1),), (F(3),))).spectrum(2)
    assert spectrum.size == 0
    assert certify_all_pairs(s, spectrum.elements).n_pairs == 0
    q = completeness_q(s, spectrum.elements, samples=4)
    assert q.q_values == (0.0,) * 4
    assert q.q_min == q.q_max == q.error_bound == 0.0
