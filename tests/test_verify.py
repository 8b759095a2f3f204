"""Orthogonality certificates, maximal families, Parseval sums."""

import cmath
import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aifs import cycles_spectrum, verify
from aifs.cyclotomy import vanishing_sum
from aifs.errors import AifsError, BudgetExceeded, ExactnessUnavailable
from aifs.fourier import (
    ZERO_PREFILTER,
    SymbolValue,
    TruncationPolicy,
    eval_mu_hat,
    mu_hat_grid,
    truncation_tail,
)
from aifs.ifs_core import AffineSystem, simplex_system
from aifs.linalg_exact import Matrix, frac, fvec, vec_dot, vec_sub
from aifs.torus_dynamics import ZeroSet, find_zeros
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


@settings(max_examples=60, deadline=None)
@given(system_and_frequencies(max_size=2))
def test_integer_certificate_matches_fraction_route(case):
    sys, (lam, lam_prime) = case
    cert = orthogonal_pair(sys, lam, lam_prime)
    assert (cert.status, cert.vanishing_index, cert.zero_point) == (
        reference_certificate(sys, lam, lam_prime)
    )


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
        verify.factor_chain(sys, x, 12), reference_factor_chain(sys, x, 12)
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
    assert lat.neighbors(diffs) == [{1}, set(), set()]


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
