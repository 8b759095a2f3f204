"""Digit lattices, cycle search (both routes), and candidate spectra."""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import ceil, floor, lcm, prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from aifs import cycles_spectrum
from aifs.catalog import load_entry, simplex_spectrum_digits
from aifs.cycles_spectrum import (
    _canonical,
    build_digit_lattice,
    classify_extreme,
    enumerate_box_points,
    extreme_cycles,
    find_cycles_by_words,
    integer_span_basis,
    spectrum_from_cycles,
)
from aifs.errors import BudgetExceeded, RankDeficient
from aifs.ifs_core import AffineSystem, simplex_system
from aifs.linalg_exact import Matrix, frac, fvec, vec_add, vec_sub
from aifs.serialize import frequencies_from_dict, system_from_dict


def sys1d(scale, digits):
    return AffineSystem(
        R=Matrix([[frac(scale)]]),
        digits=tuple((frac(b),) for b in digits),
    )


def dual_of(sys, freqs):
    return AffineSystem(
        R=sys.R.transpose(), digits=tuple(fvec(l) for l in freqs)
    )


CANTOR4 = sys1d(4, [0, 2])
CANTOR4_DUAL = dual_of(CANTOR4, [[0], [1]])


@lru_cache(maxsize=None)
def d2p3_pair():
    s = simplex_system(3, 2)
    dual = dual_of(s, simplex_spectrum_digits(3, 2))
    return s, dual


@lru_cache(maxsize=None)
def d2p3_word_cycles():
    s, dual = d2p3_pair()
    return tuple(extreme_cycles(s, dual, via="words"))


# ---------------------------------------------------------------- lattices


def test_integer_span_basis_canonical_form():
    # rows are reduced to a canonical echelon basis, so span equality is
    # plain equality of bases
    b1 = integer_span_basis([(2, 0), (0, 2), (1, 1)])
    b2 = integer_span_basis([(1, 1), (2, 0)])
    assert b1 == b2
    assert b1 == [[1, 1], [0, 2]]


def test_integer_span_basis_rank_deficient():
    assert integer_span_basis([(2, 4), (1, 2)]) == [[1, 2]]


def in_lattice(basis, v) -> bool:
    """Whether v lies in the lattice spanned by the columns of ``basis``."""
    return all(c.denominator == 1 for c in basis.inverse().mat_vec(fvec(v)))


def test_build_digit_lattice_simplex_is_standard():
    basis = build_digit_lattice(simplex_system(3, 2))
    assert in_lattice(basis, (Fraction(1), Fraction(0)))
    assert in_lattice(basis, (Fraction(0), Fraction(1)))
    assert not in_lattice(basis, (Fraction(1, 2), Fraction(0)))
    assert abs(basis.det()) == 1


@pytest.mark.filterwarnings("ignore:digit set is not integral")
def test_build_digit_lattice_grows_until_stable():
    # digits {0, 1/2} under scale 2: the stable lattice is (1/2) Z
    s = sys1d(2, [0, "1/2"])
    basis = build_digit_lattice(s)
    assert in_lattice(basis, (Fraction(1, 2),))
    assert abs(basis.det()) == Fraction(1, 2)


def test_build_digit_lattice_rank_deficient():
    # planar digits along one line never span a full-rank lattice
    s = AffineSystem(
        R=Matrix.identity(2).scale(3),
        digits=((Fraction(0), Fraction(0)), (Fraction(2), Fraction(-2))),
    )
    with pytest.raises(RankDeficient):
        build_digit_lattice(s)


def test_enumerate_box_points():
    basis = build_digit_lattice(simplex_system(3, 2))
    dual = basis.transpose().inverse()
    pts = enumerate_box_points(dual, (-1.5, -1.5), (1.5, 1.5))
    assert len(pts) == 9  # integer points of [-1, 1]^2


# ---------------------------------------------------------------- cycles


def test_cantor4_single_cycle_both_routes():
    for via in ("box", "words"):
        cycles = extreme_cycles(CANTOR4, CANTOR4_DUAL, via=via)
        assert [c.points for c in cycles] == [((Fraction(0),),)]


def test_d1_p2_two_cycles():
    s = sys1d(2, [0, 1])
    dual = dual_of(s, [[0], [1]])
    cycles = extreme_cycles(s, dual)
    assert {c.points[0][0] for c in cycles} == {0, 1}


def test_simplex_d2_p3_three_cycles_box_and_words_agree():
    s, dual = d2p3_pair()
    got_box = {frozenset(c.points) for c in extreme_cycles(s, dual, via="box")}
    got_words = {
        frozenset(c.points) for c in extreme_cycles(s, dual, via="words")
    }
    want = {
        frozenset({(Fraction(0), Fraction(0))}),
        frozenset({(Fraction(1), Fraction(-1))}),
        frozenset({(Fraction(-1), Fraction(1))}),
    }
    assert got_box == want
    assert got_words == want


def test_box_route_follows_a_cycle_past_its_first_point():
    # scale 2, digits {0, 1}, frequencies {0, 3}: x -> 2x - l has the fixed
    # points 0 and 3 and the period-two cycle 1 -> 2 -> 1, so the box DFS
    # must extend a path instead of closing it at once
    s = sys1d(2, [0, 1])
    dual = dual_of(s, [[0], [3]])
    want = {
        frozenset({(Fraction(0),)}),
        frozenset({(Fraction(1),), (Fraction(2),)}),
        frozenset({(Fraction(3),)}),
    }
    for via in ("box", "words"):
        cycles = extreme_cycles(s, dual, via=via)
        assert {c.key() for c in cycles} == want
        assert sorted(c.period for c in cycles) == [1, 1, 2]


def test_word_route_period_two_cycle():
    # scale 3, digits {0, 2}: 3 * (1/4) - 0 = 3/4 and 3 * (3/4) - 2 = 1/4,
    # so {1/4, 3/4} is a genuine period-two cycle
    dual = sys1d(3, [0, 2])
    cycles = find_cycles_by_words(dual, max_period=4)
    pts = {frozenset(c.points) for c in cycles}
    assert frozenset({(Fraction(1, 4),), (Fraction(3, 4),)}) in pts


def test_cycle_records_satisfy_defining_relation():
    s, dual = d2p3_pair()
    for rec in extreme_cycles(s, dual):
        m = len(rec.points)
        for i in range(m):
            nxt = dual.R.mat_vec(rec.points[i])
            nxt = tuple(
                a - b for a, b in zip(nxt, dual.digits[rec.digit_indices[i]])
            )
            assert nxt == rec.points[(i + 1) % m]


def reference_cycles_by_words(sys_dual, max_period):
    """The plain Fraction scan over every word of every length: the slow
    reference the Lyndon/integer scan must reproduce exactly."""
    s = sys_dual.R
    ident = Matrix.identity(sys_dual.dim)
    cycles = {}
    for m in range(1, max_period + 1):
        inv = s.pow(m).add(ident.scale(-1)).inverse()
        spow = [s.pow(j) for j in range(m)]
        for word in product(range(sys_dual.n_digits), repeat=m):
            acc = (Fraction(0),) * sys_dual.dim
            for j, li in enumerate(word, start=1):
                acc = vec_add(acc, spow[m - j].mat_vec(sys_dual.digits[li]))
            x = inv.mat_vec(acc)
            pts = []
            for li in word:
                pts.append(x)
                x = vec_sub(s.mat_vec(x), sys_dual.digits[li])
            if len(set(pts)) != len(pts):
                continue  # revisits a point: shorter cycles strung together
            rec = _canonical(pts, list(word))
            cycles.setdefault(rec.key(), rec)
    return sorted(cycles.values(), key=lambda r: r.points)


def assert_defining_relation(dual, records):
    for rec in records:
        m = len(rec.points)
        for i in range(m):
            nxt = vec_sub(
                dual.R.mat_vec(rec.points[i]), dual.digits[rec.digit_indices[i]]
            )
            assert nxt == rec.points[(i + 1) % m]


def catalog_dual(name):
    doc = load_entry(name)["system"]
    return dual_of(system_from_dict(doc), frequencies_from_dict(doc))


_small_fracs = st.builds(
    Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3])
)


@st.composite
def expansive_systems(draw):
    """Strictly diagonally dominant R whose every Gershgorin disc lies
    outside the unit disc (so R is expansive), with integer or rational
    entries and up to four distinct integer or rational digits."""
    d = draw(st.integers(1, 3))
    rows = []
    for i in range(d):
        row = [draw(_small_fracs) for _ in range(d)]
        radius = sum(abs(x) for j, x in enumerate(row) if j != i)
        gap = draw(st.sampled_from([Fraction(1, 3), Fraction(1, 2), 1, 2]))
        row[i] = draw(st.sampled_from([1, -1])) * (1 + radius + gap)
        rows.append(row)
    digits = draw(
        st.lists(
            st.tuples(*[_small_fracs] * d), min_size=1, max_size=4, unique=True
        )
    )
    return AffineSystem(R=Matrix(rows), digits=tuple(digits))


@pytest.mark.filterwarnings("ignore:digit set is not integral")
@settings(max_examples=40, deadline=None)
@given(expansive_systems(), st.integers(1, 4))
def test_word_scan_matches_fraction_reference(dual, max_period):
    got = find_cycles_by_words(dual, max_period=max_period)
    assert got == reference_cycles_by_words(dual, max_period)
    assert_defining_relation(dual, got)


def necklace_count(n, m):
    """Primitive necklaces of length m over n letters (Moebius inversion)."""

    def mobius(k):
        out, p = 1, 2
        while p * p <= k:
            if k % p == 0:
                k //= p
                if k % p == 0:
                    return 0
                out = -out
            p += 1
        return -out if k > 1 else out

    divisors = [k for k in range(1, m + 1) if m % k == 0]
    return sum(mobius(k) * n ** (m // k) for k in divisors) // m


def test_word_scan_d3_p2_finds_every_primitive_necklace():
    dual = catalog_dual("d3-p2")
    want = sum(necklace_count(4, m) for m in range(1, 7))
    assert want == 964
    assert len(find_cycles_by_words(dual, max_period=6)) == want


@pytest.mark.parametrize(
    "dual",
    [
        d2p3_pair()[1],
        catalog_dual("d3-p4"),
        AffineSystem(
            R=Matrix([["3/2", 1], [0, "-5/3"]]),
            digits=((0, 0), (1, 0), (0, 2)),
        ),
    ],
    ids=["d2-p3", "d3-p4", "rational-S"],
)
def test_word_cycle_records_satisfy_defining_relation(dual):
    records = find_cycles_by_words(dual, max_period=4)
    assert records
    assert_defining_relation(dual, records)


def test_word_scan_budget_guard_counts_all_words(monkeypatch):
    # 2 + 4 + 8 + 16 = 30 words up to period 4
    monkeypatch.setattr(cycles_spectrum, "WORD_BUDGET", 30)
    assert find_cycles_by_words(CANTOR4_DUAL, max_period=4)
    monkeypatch.setattr(cycles_spectrum, "WORD_BUDGET", 29)
    with pytest.raises(BudgetExceeded):
        find_cycles_by_words(CANTOR4_DUAL, max_period=4)


@pytest.mark.filterwarnings("ignore:digit set is not integral")
def test_word_scan_skips_primitive_words_through_a_shared_point():
    # x -> 4x/3 - l sends -9/7 to -12/7 (l = 0) and to -5/7 (l = -1), and
    # both lead back to it; the Lyndon word of digit indices (0, 2, 2, 1)
    # walks both 2-cycles in turn and is no cycle of its own
    dual = sys1d("4/3", [0, "1/3", -1])
    cycles = find_cycles_by_words(dual, max_period=4)
    assert cycles == reference_cycles_by_words(dual, 4)
    pts = {frozenset(p[0] for p in c.points) for c in cycles}
    assert frozenset({Fraction(-9, 7), Fraction(-12, 7)}) in pts
    assert frozenset({Fraction(-9, 7), Fraction(-5, 7)}) in pts
    word = (0, 2, 2, 1)
    rotations = {word[i:] + word[:i] for i in range(4)}
    assert not any(c.digit_indices in rotations for c in cycles)


def test_word_scan_raises_on_a_broken_fixed_point(monkeypatch):
    # a wrong (S^m - I)^{-1} gives points that do not close up; that is a
    # bug to report, not a word to skip
    monkeypatch.setattr(Matrix, "inverse", lambda self: Matrix.identity(self.n))
    with pytest.raises(RuntimeError):
        find_cycles_by_words(CANTOR4_DUAL, max_period=2)


# ---------------------------------------------------------------- spectra


def test_cantor4_spectrum_levels():
    cycles = extreme_cycles(CANTOR4, CANTOR4_DUAL)
    s3 = spectrum_from_cycles(CANTOR4_DUAL, cycles, 3)
    assert [v[0] for v in s3.elements] == [0, 1, 4, 5, 16, 17, 20, 21]


def test_spectrum_levels_nested():
    cycles = extreme_cycles(CANTOR4, CANTOR4_DUAL)
    s2 = spectrum_from_cycles(CANTOR4_DUAL, cycles, 2)
    s4 = spectrum_from_cycles(CANTOR4_DUAL, cycles, 4)
    assert set(s2.elements) <= set(s4.elements)


def test_d1_p2_spectrum_is_integer_interval():
    s = sys1d(2, [0, 1])
    dual = dual_of(s, [[0], [1]])
    cycles = extreme_cycles(s, dual)
    s5 = spectrum_from_cycles(dual, cycles, 5)
    assert [v[0] for v in s5.elements] == [Fraction(k) for k in range(-32, 32)]


def test_spectrum_rejects_non_extreme_cycles():
    dual = sys1d(3, [0, 2])
    sys_geom = sys1d(3, [0, 1])
    cycles = classify_extreme(sys_geom, find_cycles_by_words(dual, 4))
    bad = [c for c in cycles if not c.extreme]
    assert bad  # {1/4, 3/4} is a cycle but not extreme for these digits
    with pytest.raises(ValueError):
        spectrum_from_cycles(dual, bad, 2)


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 4))
def test_spectrum_nesting_property_simplex_d2_p3(level):
    _, dual = d2p3_pair()
    cycles = d2p3_word_cycles()
    a = spectrum_from_cycles(dual, cycles, level)
    b = spectrum_from_cycles(dual, cycles, level + 1)
    assert set(a.elements) <= set(b.elements)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
        min_size=1,
        max_size=5,
    )
)
def test_integer_span_basis_idempotent_and_contains_gens(gens):
    basis = integer_span_basis(gens)
    assert integer_span_basis(basis) == basis
    # inserting any generator back must not grow the span
    for g in gens:
        assert integer_span_basis(basis + [list(g)]) == basis


def reference_digit_lattice(sys):
    """The fixpoint chain Lambda_{k+1} = span(B, R Lambda_k), iterated until
    the Hermite basis repeats: the slow reference the one-step span of
    R^k b, k < d, must reproduce exactly."""
    den = lcm(1, *[c.denominator for b in sys.digits for c in b])
    gens = [[int(c * den) for c in b] for b in sys.digits]
    gens = [g for g in gens if any(g)]
    if not gens:
        raise RankDeficient("all digits are zero", rank=0)
    r_int = [[int(e) for e in row] for row in sys.R.rows]
    basis = integer_span_basis(gens)
    for _ in range(64):
        imgs = [
            [sum(a * x for a, x in zip(row, v)) for row in r_int] for v in basis
        ]
        new_basis = integer_span_basis(basis + imgs + gens)
        if new_basis == basis:
            break
        basis = new_basis
    else:
        raise BudgetExceeded("digit lattice did not stabilise")
    if len(basis) < sys.dim:
        raise RankDeficient("rank %d" % len(basis), rank=len(basis))
    return Matrix(list(zip(*[[Fraction(x, den) for x in v] for v in basis])))


@st.composite
def integer_expansive_systems(draw):
    """Integer R, expansive by Gershgorin, that keeps the span of the first
    k coordinates invariant, with digits inside that span: k < d gives a
    rank-deficient digit lattice. Digits are integer or rational."""
    d = draw(st.integers(1, 3))
    k = draw(st.integers(1, d))
    rows = []
    for i in range(d):
        row = [
            0 if i >= k > j else draw(st.integers(-3, 3)) for j in range(d)
        ]
        radius = sum(abs(x) for j, x in enumerate(row) if j != i)
        row[i] = draw(st.sampled_from([1, -1])) * (
            radius + draw(st.integers(2, 4))
        )
        rows.append(row)
    digits = draw(
        st.lists(
            st.tuples(
                *[_small_fracs if j < k else st.just(0) for j in range(d)]
            ),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    return AffineSystem(R=Matrix(rows), digits=tuple(digits))


def _lattice_or_rank(build, sys):
    try:
        return build(sys)
    except RankDeficient as exc:
        return ("rank", exc.rank)


@pytest.mark.filterwarnings("ignore:digit set is not integral")
@settings(max_examples=200, deadline=None)
@given(integer_expansive_systems())
def test_one_step_digit_lattice_matches_fixpoint_reference(sys):
    assert _lattice_or_rank(build_digit_lattice, sys) == _lattice_or_rank(
        reference_digit_lattice, sys
    )


def reference_as_fraction(c):
    """The earlier box-bound conversion: floats rounded to the nearest
    fraction with denominator at most 10^12."""
    if isinstance(c, (int, Fraction)):
        return Fraction(c)
    return Fraction(float(c)).limit_denominator(10**12)


_bounds = st.floats(-3, 3, allow_nan=False, allow_infinity=False)
_basis_entries = st.builds(Fraction, st.integers(-2, 2), st.sampled_from([1, 1, 2]))


@settings(max_examples=200, deadline=None)
@example(case=([[Fraction(1)]], [(1.0, 1e-09)]))
@given(
    st.integers(1, 3).flatmap(
        lambda d: st.tuples(
            st.lists(
                st.lists(_basis_entries, min_size=d, max_size=d),
                min_size=d,
                max_size=d,
            ),
            st.lists(st.tuples(_bounds, _bounds), min_size=d, max_size=d),
        )
    )
)
def test_float_box_bounds_match_rounded_reference(case):
    rows, bounds = case
    basis = Matrix(rows)
    if abs(basis.det()) < Fraction(1, 2):  # singular, or too many points
        return
    lo = [min(b) for b in bounds]
    hi = [max(b) for b in bounds]
    ref_lo = [reference_as_fraction(c) for c in lo]
    ref_hi = [reference_as_fraction(c) for c in hi]
    got = enumerate_box_points(basis, lo, hi)
    want = enumerate_box_points(basis, ref_lo, ref_hi)
    # the float bounds are taken at their exact values, so the two may only
    # disagree on a point lying exactly on a rounded bound (the float 1e-9,
    # slightly larger than the rounded lo = 1e-9, would drop a point there)
    for x in set(got) ^ set(want):
        assert any(x[i] in (ref_lo[i], ref_hi[i]) for i in range(len(x)))


def leibniz_det(rows):
    """The determinant as the signed sum over permutations."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(n), 2))
        total += (-1) ** inversions * prod(rows[i][perm[i]] for i in range(n))
    return total


def coefficient_radii(rows, r) -> list:
    """Bounds on |k_i| for every G k with coordinates within r: by Cramer's
    rule k_i = det(G with column i replaced by x) / det G, linear in x, so
    |k_i| <= r sum_j |det(G with column i replaced by e_j)| / |det G|."""
    d, det = len(rows), abs(leibniz_det(rows))

    def unit_column(i, j):  # G with column i replaced by e_j
        return [
            [int(a == j) if c == i else rows[a][c] for c in range(d)]
            for a in range(d)
        ]

    return [
        floor(r * sum(abs(leibniz_det(unit_column(i, j))) for j in range(d)) / det)
        for i in range(d)
    ]


def brute_force_box_points(rows, lo, hi, radii) -> set:
    """Every G k in [lo, hi] over the cube of integer k within the radii,
    in integers over the common denominator of G."""
    den = lcm(*[c.denominator for row in rows for c in row])
    g = [[int(c * den) for c in row] for row in rows]
    lo_n = [ceil(c * den) for c in lo]
    hi_n = [floor(c * den) for c in hi]
    out = set()
    for k in product(*[range(-r, r + 1) for r in radii]):
        x = [sum(map(int.__mul__, row, k)) for row in g]
        if all(a <= v <= b for a, v, b in zip(lo_n, x, hi_n)):
            out.add(tuple(Fraction(v, den) for v in x))
    return out


_box_bounds = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3]))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda d: st.tuples(
            st.lists(
                st.lists(_basis_entries, min_size=d, max_size=d),
                min_size=d,
                max_size=d,
            ),
            st.lists(st.tuples(_box_bounds, _box_bounds), min_size=d, max_size=d),
        )
    )
)
def test_box_points_match_brute_force(case):
    rows, bounds = case
    assume(abs(leibniz_det(rows)) >= Fraction(1, 2))
    lo = [min(b) for b in bounds]
    hi = [max(b) for b in bounds]
    radii = coefficient_radii(rows, max(map(abs, [*lo, *hi])))
    assume(prod(2 * r + 1 for r in radii) <= 50_000)  # a quick brute force
    got = enumerate_box_points(Matrix(rows), lo, hi)
    assert len(set(got)) == len(got)
    assert set(got) == brute_force_box_points(rows, lo, hi, radii)
