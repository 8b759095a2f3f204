"""Orthogonality certificates and completeness diagnostics.

Two exponentials e_lam, e_mu are orthogonal for the invariant measure
exactly when mu^(lam - mu) = 0, and the infinite product form of mu^ makes
that decidable: the transform vanishes iff some factor m((R^T)^{-n}(lam-mu))
vanishes, and once the tail of the product is provably within distance 1 of
1, a chain with no zero factor certifies NON-orthogonality too. All
certificates here are exact statements about rational points, never float
comparisons.

Completeness of a candidate spectrum is probed through the Parseval sum
Q(x) = sum_lam |mu^(x + lam)|^2, which equals 1 identically for an
orthonormal basis and drops below it when frequencies are missing.

``Analysis`` stages the construction the CLI, the catalog and the probe
share: dual system, zeros, cycles, extreme cycles, spectrum by level.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations, islice
from operator import mul, sub
from typing import NamedTuple

import numpy as np

from .cycles_spectrum import (
    classify_extreme,
    enumerate_box_points,
    search_cycles,
    spectrum_from_cycles,
)
from .errors import AifsError, BudgetExceeded
from .fourier import _symbol, eval_symbol, float_norm, integer_chain, mu_hat_grid
from .fourier import truncation_tail
from .ifs_core import AffineSystem, simplex_system
from .linalg_exact import Matrix, frac, fvec, int_orbits, int_rows, integer_rows
from .linalg_exact import lattice_numerators, vec_add, vec_sub
from .torus_dynamics import ZeroSet, _dist_sq_to_lattice, find_zeros, finite_bound

Vec = tuple


class OrthogonalityCertificate(NamedTuple):
    status: str  # "certified" | "not-orthogonal" | "undetermined"
    vanishing_index: int | None = None
    #: a certified pair's zero point S^{-n}(lam - lam') as integer
    #: numerators over one denominator, reduced when ``zero_point`` is read
    zero_numerators: tuple | None = None
    zero_denominator: int = 1

    @property
    def orthogonal(self) -> bool:
        return self.status == "certified"

    @property
    def zero_point(self) -> Vec | None:
        if self.zero_numerators is None:
            return None
        return tuple(Fraction(v, self.zero_denominator) for v in self.zero_numerators)


#: the outcomes without fields, shared by every pair that ends in them
_NOT_ORTHOGONAL = OrthogonalityCertificate("not-orthogonal")
_UNDETERMINED = OrthogonalityCertificate("undetermined")

#: factors m(S^{-n}(lam - lam')) walked before a pair is left undetermined
PAIR_DEPTH = 48


def orthogonal_pair(
    sys: AffineSystem, lam, lam_prime, den: int = 1
) -> OrthogonalityCertificate:
    """Decide orthogonality of e_lam and e_lam' for the invariant measure,
    at the frequencies lam / den and lam' / den (den defaults to 1; the pair
    table passes integer numerators over its lattice denominator).

    Walks the factor chain m(S^{-n}(lam - lam')) on integers
    (``integer_chain``), deciding each factor's status only: an exact factor
    zero certifies orthogonality at that index; if every factor up to n is
    certified non-zero and the remaining tail is provably closer to 1 than
    its own modulus allows for a zero, the product cannot vanish and the
    pair is certifiedly NOT orthogonal. Anything else is undetermined
    (PAIR_DEPTH or an exactness cap was hit).
    """
    dim = sys.dim
    a, da = lattice_numerators(lam, dim, den)
    b, db = lattice_numerators(lam_prime, dim, den)
    k = da  # lam - lam' = delta / k
    if db != da:
        k = math.lcm(da, db)
        a, b = [k // da * u for u in a], [k // db * v for v in b]
    delta = tuple(map(sub, a, b))
    if not any(delta):
        raise ValueError("frequencies coincide; orthogonality is ill-posed")
    tail_at = None  # built at the first factor certified non-zero
    all_factors_certified = True
    for n, y, y_den in integer_chain(sys, delta, k, PAIR_DEPTH):
        _, zero, certified = _symbol(sys, y, y_den)
        if zero:
            return OrthogonalityCertificate("certified", n, y, y_den)
        all_factors_certified = all_factors_certified and certified
        if not all_factors_certified:
            continue
        if tail_at is None:
            tail_at = truncation_tail(sys, float_norm(delta, k) or 1.0)
        # the product of the factors past n is within 0.999 of 1: not zero
        if tail_at(n) < 0.999:
            return _NOT_ORTHOGONAL
    return _UNDETERMINED


class _Neighbors(dict):
    """Point i -> {j : key_j - key_i in shifts}, filled on demand: a search
    that reads few points builds few sets. Each set probes the shorter side:
    key_i plus every shift when the shifts are no more than the points,
    else every point's difference to key_i against the shifts. ``index``
    maps each key to its point."""

    __slots__ = ("_keys", "_shifts", "_index")

    def __init__(self, keys, index, shifts):
        super().__init__()
        self._keys, self._shifts, self._index = keys, frozenset(shifts), index

    def __missing__(self, i):
        key, shifts, index = self._keys[i], self._shifts, self._index
        if len(shifts) <= len(self._keys):
            shifted = map(key.__add__, shifts)
            out = set(map(index.get, filter(index.__contains__, shifted)))
        else:
            out = {j for j, k in enumerate(self._keys) if k - key in shifts}
        self[i] = out
        return out


class FrequencyLattice:
    """Rational vectors on one lattice (1/den) Z^d, each packed into one int.

    ``points`` are the vectors as ``Fraction`` tuples, ``den`` the lcm of
    their denominators, ``spans`` each coordinate's numerator range over
    ``den``, ``keys`` one int per point and ``index`` key -> point (the
    last one, for a repeated key).
    The key of a numerator vector N is sum_k N_k W^k with W = 2 span + 1,
    span the widest coordinate range. A key difference is then a balanced
    base-W numeral whose digits are the coordinates of N - N', so it
    determines N - N' exactly, and key(g) + key(h) is a key exactly when
    g + h is a point, for h within the span (digits of size at most
    2 span < W sum to 0 only if all are 0). A pair certificate depends only
    on +-(lam - lam'), so the pair table certifies each |key difference|
    once.

    The build goes column by column: ``frac`` once per entry, one factor
    per distinct denominator to reach ``den``, and keys += W^k N_k.
    """

    def __init__(self, points):
        points = list(points)
        if len(set(map(len, points))) > 1:
            raise ValueError("dimension mismatch")
        cols = [list(map(frac, col)) for col in zip(*points)]
        dens = {x.denominator for col in cols for x in col}
        self.den = math.lcm(1, *dens)
        factor = {q: self.den // q for q in dens}
        nums = [[x.numerator * factor[x.denominator] for x in col] for col in cols]
        self.spans = [max(col) - min(col) for col in nums]
        self.base = 2 * max(self.spans, default=0) + 1
        self._powers = [self.base**i for i in range(len(self.spans))]
        keys = [0] * len(points)
        for w, col in zip(self._powers, nums):
            keys = [k + w * n for k, n in zip(keys, col)]
        self.keys = keys
        # d = 0 has no columns to zip back into points
        self.points = list(zip(*cols)) if cols else [()] * len(points)
        self.index = {k: i for i, k in enumerate(keys)}

    def unpack(self, k: int) -> tuple:
        """The numerators of the difference a key difference k stands for."""
        half, out = self.base // 2, []
        k += half * sum(self._powers)  # each balanced digit, raised by half
        for _ in self._powers:
            k, r = divmod(k, self.base)
            out.append(r - half)
        return tuple(out)

    def neighbors(self, diffs) -> _Neighbors:
        """Point i -> the set of points j with g_j - g_i in ``diffs``
        (rational vectors), each set built when it is first read."""
        shifts = []
        for h in diffs:
            num = [c * self.den for c in h]
            # off the lattice, or wider than the span: joins no two points
            if any(c.denominator != 1 or abs(c) > self.base // 2 for c in num):
                continue
            shifts.append(sum(map(mul, map(int, num), self._powers)))
        return _Neighbors(self.keys, self.index, shifts)

    def differences(self) -> Counter:
        """Key differences of all pairs i < j, with their multiplicities."""
        diffs = Counter()
        for i, k in enumerate(self.keys):
            diffs.update(map(k.__sub__, self.keys[i + 1:]))
        return diffs

    def statuses(self, sys: AffineSystem, diffs) -> dict:
        """The certificate status of each key difference, keyed by |k|."""
        if self.points and len(self.spans) != sys.dim:
            raise ValueError("dimension mismatch")
        zero = (0,) * len(self.spans)
        return {
            k: orthogonal_pair(sys, self.unpack(k), zero, self.den).status
            for k in set(map(abs, diffs))
        }


@dataclass(frozen=True)
class PairMatrixReport:
    n_frequencies: int
    n_pairs: int
    certified: int
    not_orthogonal: int
    undetermined: int
    bad_pairs: tuple  # the offending (lam, lam') pairs, capped

    @property
    def all_orthogonal(self) -> bool:
        return self.certified == self.n_pairs


#: offending pairs a PairMatrixReport lists as examples
BAD_PAIRS_KEPT = 16


def certify_all_pairs(sys: AffineSystem, frequencies) -> PairMatrixReport:
    """Pairwise orthogonality over a whole frequency list: one certificate
    per +-difference, counted over the pairs that share it."""
    lat = FrequencyLattice(frequencies)
    diffs = lat.differences()
    table = lat.statuses(sys, diffs)
    counts = Counter()
    for k, c in diffs.items():
        counts[table[abs(k)]] += c
    freqs, keys, n = lat.points, lat.keys, len(lat.points)
    n_pairs = n * (n - 1) // 2
    bad = (
        (freqs[i], freqs[j]) for i, j in combinations(range(n), 2)
        if table[abs(keys[i] - keys[j])] != "certified"
    )
    # the scan for examples runs only when there is one to find
    kept = BAD_PAIRS_KEPT if counts["certified"] < n_pairs else 0
    return PairMatrixReport(
        n_frequencies=n,
        n_pairs=n_pairs,
        certified=counts["certified"],
        not_orthogonal=counts["not-orthogonal"],
        undetermined=counts["undetermined"],
        bad_pairs=tuple(islice(bad, kept)),
    )


# ---------------------------------------------------------------------------
# maximal orthogonal families over candidate grids


@dataclass(frozen=True)
class FamilyReport:
    #: the lexicographically least maximum certified-orthogonal subset of
    #: the grid, in grid order
    family: tuple
    size: int
    grid_size: int
    certified_maximum: bool  # False when undetermined pairs were dropped
    method: str


def rational_grid_1d(max_den: int, lo, hi) -> list:
    """All rationals with denominator <= max_den in [lo, hi], as 1-vectors."""
    lo, hi = Fraction(lo), Fraction(hi)
    den = math.lcm(*range(1, max_den + 1))
    # keyed and sorted by the exact numerator over the common denominator
    pts = {}
    for q in range(1, max_den + 1):
        for a in range(math.ceil(lo * q), math.floor(hi * q) + 1):
            pts.setdefault(a * (den // q), (a, q))
    return [(Fraction(a, q),) for _, (a, q) in sorted(pts.items())]


def _max_clique(nodes: int, neighbors, bound: int | None = None) -> list:
    """The lexicographically least maximum clique, as ascending indices.

    A depth-first search over increasing index sequences reaches cliques in
    lexicographic order, and ``best`` is replaced only by a strictly larger
    clique, so the first maximum clique it reaches is the least one.
    ``neighbors[v]``, the neighbour set of v, may be anything indexable by
    vertex; only the vertices the search expands are read. ``bound``, a
    proven upper bound on the clique size, ends the search once a clique
    reaches it: that clique is then the unbounded search's."""
    best = [0] if nodes else []
    bound = nodes if bound is None else bound

    def expand(cur, cands):
        # cands: the common neighbours of cur past its last vertex, ascending
        nonlocal best
        if not cands:
            if len(cur) > len(best):
                best = list(cur)
            return
        for i, v in enumerate(cands):
            if len(cur) + len(cands) - i <= len(best) or len(best) >= bound:
                return
            adjacent = neighbors[v]
            cur.append(v)
            expand(cur, [u for u in cands[i + 1:] if u in adjacent])
            cur.pop()

    for v in range(nodes):
        # a clique rooted at v holds at most v and the nodes past it
        if len(best) >= min(bound, nodes - v):
            break
        cands = sorted(u for u in neighbors[v] if u > v)
        if len(cands) >= len(best):
            expand([v], cands)
    return best


#: levels n scanned; the scan ends once S^{-n} shrinks the box past the zeros
DIFF_LEVELS = 64


def _certified_difference_set(sys: AffineSystem, zeros: ZeroSet, lo, hi) -> set:
    """Differences delta in the box [lo, hi] with S^{-n} delta on the zero
    set mod Z^d for some n >= 1: exactly the certified-orthogonal
    differences, provided the zero set is complete and the digits integral
    (integrality makes the symbol Z^d-periodic)."""
    if not all(c.denominator == 1 for b in sys.digits for c in b):
        raise AifsError("difference-set route needs integral digits")
    if not zeros.points:
        return set()
    s = sys.R.transpose()
    min_dist_sq = min(_dist_sq_to_lattice(*integer_rows(zeros.points)))
    big_c, c = sys.contraction
    # the farthest corner takes the larger |bound| on every axis
    corner_sq = sum(max(abs(a), abs(b)) ** 2 for a, b in zip(lo, hi))
    out = set()
    spow = Matrix.identity(sys.dim)
    for n in range(1, DIFF_LEVELS + 1):
        spow = spow @ s
        # if every ||S^{-n} delta|| over the box is already below the zero
        # set's distance to the lattice, no further level contributes (the
        # margin in C and c covers the rounding of the float C c^n)
        if Fraction(big_c * c**n) ** 2 * corner_sq < min_dist_sq:
            break
        # S^n (z + Z^d) = S^n z + (the lattice spanned by the columns of S^n)
        for z in zeros.points:
            sz = spow.mat_vec(z)
            box = enumerate_box_points(spow, vec_sub(lo, sz), vec_sub(hi, sz))
            out.update(vec_add(sz, x) for x in box)
    else:
        raise BudgetExceeded("difference enumeration passed %d levels" % DIFF_LEVELS)
    return out


#: largest grid the pairwise route certifies, one certificate per pair
PAIRWISE_CAP = 1500


def max_orthogonal_family(
    sys: AffineSystem, grid, zeros: ZeroSet | None = None
) -> FamilyReport:
    """A maximum orthogonal subfamily of {e_g : g in grid}: of all of them,
    the lexicographically least in grid order (``_max_clique``).

    With a certified-complete finite zero set the certified-orthogonal
    differences inside the grid's difference box are enumerated directly
    (zeros pushed forward by S^n) and a maximum clique is taken over the
    resulting graph -- that is the exact maximum. For integral R the clique
    search stops at the finite-orbit bound (``finite_bound``; Jorgensen
    and Pedersen, J. Anal. Math. 75 (1998)): if the S-invariant closure of
    the zeros avoids 0, no orthogonal family exceeds its size plus one.
    Otherwise the pair table certifies every +-difference of the grid;
    undetermined pairs count as non-edges and downgrade the result to a
    certified lower bound. On both routes the certified differences are
    key shifts, and a point's neighbours are built only when the search
    expands it (``_Neighbors``).
    """
    lat = FrequencyLattice(grid)
    grid, keys = lat.points, lat.keys
    # the lattice refuses ragged points, so one length stands for all
    if grid and len(lat.spans) != sys.dim:
        raise ValueError("dimension mismatch")
    if len(lat.index) != len(keys):
        raise ValueError("grid has repeated points")
    if zeros is None:
        zeros = find_zeros(sys)
    certified, bound = True, None
    if zeros.complete and not zeros.families:
        method = "difference-set"
        hi = [Fraction(w, lat.den) for w in lat.spans]
        hset = _certified_difference_set(sys, zeros, [-x for x in hi], hi)
        neighbors = lat.neighbors(hset)
        if sys.R.is_integer:
            try:  # None when 0 lies in the closure
                bound = finite_bound(sys.R.transpose(), zeros.points).bound
            except BudgetExceeded:  # the closure passed CLOSURE_CAP
                pass
    else:
        method = "pairwise"
        if len(grid) > PAIRWISE_CAP:
            raise BudgetExceeded(
                "pairwise certification over %d grid points (cap %d)"
                % (len(grid), PAIRWISE_CAP)
            )
        table = lat.statuses(sys, {abs(a - b) for a, b in combinations(keys, 2)})
        certified = "undetermined" not in table.values()
        ok = [k for k, status in table.items() if status == "certified"]
        neighbors = _Neighbors(keys, lat.index, ok + [-k for k in ok])
    clique = _max_clique(len(grid), neighbors, bound)
    return FamilyReport(
        family=tuple(grid[i] for i in clique),
        size=len(clique),
        grid_size=len(grid),
        certified_maximum=certified,
        method=method,
    )


# ---------------------------------------------------------------------------
# Parseval completeness

_PRIMES = (2, 3, 5, 7, 11, 13, 17)
#: leading Halton points dropped: the origin, 1/2, 1/4, ... (frequent symbol zeros)
HALTON_SKIP = 20


def halton_points(count: int, dim: int) -> np.ndarray:
    """Deterministic low-discrepancy sample in [0,1)^dim (van der Corput in
    coprime bases, one per coordinate)."""
    if dim > len(_PRIMES):
        raise ValueError("halton sampler supports up to %d dims" % len(_PRIMES))

    def vdc(i: int, base: int) -> float:
        x, denom = 0.0, 1.0
        while i:
            denom *= base
            i, rem = divmod(i, base)
            x += rem / denom
        return x

    return np.array(
        [
            [vdc(i, _PRIMES[j]) for j in range(dim)]
            for i in range(HALTON_SKIP, HALTON_SKIP + count)
        ]
    )


@dataclass(frozen=True)
class QReport:
    q_values: tuple
    sample_points: tuple
    error_bound: float

    @property
    def q_min(self) -> float:
        return min(self.q_values)

    @property
    def q_max(self) -> float:
        return max(self.q_values)

    @property
    def within_bessel(self) -> bool:
        """Q <= 1 (Bessel's inequality for an orthonormal family), up to the
        truncation error and 1e-8 of float rounding."""
        return self.q_max <= 1.0 + self.error_bound + 1e-8


def completeness_q(
    sys: AffineSystem, frequencies, samples: int = 32, points=None
) -> QReport:
    """Parseval sums Q(x) = sum_lam |mu^(x + lam)|^2 at deterministic sample
    points. For an orthonormal family Q <= 1 everywhere (Bessel), with
    equality iff the family is complete; values must stay within truncation
    error of that ceiling."""
    freqs = [fvec(f) for f in frequencies]
    if any(len(f) != sys.dim for f in freqs):
        raise ValueError("dimension mismatch")
    lam = np.array(freqs, dtype=float).reshape(len(freqs), sys.dim)
    if points is None:
        points = halton_points(samples, sys.dim)
    else:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != sys.dim:
            raise ValueError("dimension mismatch")
    qs, errs = [], []
    for x in points:
        vals, err = mu_hat_grid(sys, x[None, :] + lam)
        qs.append(float(np.sum(np.abs(vals) ** 2)))
        errs.append(err)
    # |v+e|^2 <= |v|^2 + 2|v|e + e^2 and sum |v| <= sqrt(n * Q), with the
    # largest per-sample error e (it grows with |x + lam|)
    worst, err = max(qs), max(errs)
    err_total = 2 * err * math.sqrt(len(lam) * max(worst, 1.0)) + len(lam) * err**2
    return QReport(
        q_values=tuple(qs),
        sample_points=tuple(map(tuple, points)),
        error_bound=err_total,
    )


# ---------------------------------------------------------------------------
# block root-of-unity families (products of full root systems)


@dataclass(frozen=True)
class BlockRootReport:
    p: int
    d: int
    blocks: tuple
    z0: Vec
    z0_is_zero: bool
    family: tuple  # p^n z0 for n = 1..count
    certificates: tuple  # pairwise, with vanishing index = min(m, n)

    @property
    def all_certified(self) -> bool:
        return all(c.status == "certified" for c in self.certificates)


def block_root_family(p: int, d: int, blocks, count: int = 6) -> BlockRootReport:
    """Mutually orthogonal exponentials for the simplex system with scale p
    from a decomposition d + 1 = sum_k q_k * d_k into divisor blocks.

    z0 concatenates, for each block, q_k copies of the full d_k-th root
    system (0, 1/d_k, ..., (d_k-1)/d_k), dropping a single 0 from the first
    copy (the symbol's constant term supplies it). Each block sums to zero,
    so m(z0) = 0 exactly; and because every d_k divides p, multiplying by
    p^j collapses blocks to integers, which pins the vanishing index of
    the pair (p^m z0, p^n z0) at exactly min(m, n).
    """
    blocks = tuple((int(q), int(dk)) for q, dk in blocks)
    if sum(q * dk for q, dk in blocks) != d + 1:
        raise ValueError("block sizes must decompose d + 1")
    for q, dk in blocks:
        if q < 1 or dk < 2 or p % dk != 0:
            raise ValueError(
                "each block needs q >= 1 and a divisor 2 <= d_k of p"
            )
    # the symbol's leading 1 stands in for the first block's first 0
    z0 = tuple(
        Fraction(j, dk) for q, dk in blocks for _ in range(q) for j in range(dk)
    )[1:]
    sys = simplex_system(p, d)
    z0_zero = eval_symbol(sys, z0).is_zero
    family = tuple(
        tuple(Fraction(p) ** n * c for c in z0) for n in range(1, count + 1)
    )
    certs = [
        orthogonal_pair(sys, family[j], family[i])
        for i, j in combinations(range(count), 2)
    ]
    return BlockRootReport(
        p=p,
        d=d,
        blocks=blocks,
        z0=z0,
        z0_is_zero=z0_zero,
        family=family,
        certificates=tuple(certs),
    )


def _in_period_lattice(sys: AffineSystem, points) -> bool:
    """Whether every p - p0 lies in the Gamma of ``orthogonal_every_level``,
    the dual of the lattice spanned by R^k (b - b0), 0 <= k < d (R integral)."""
    kb, (b0, *rest) = integer_rows(sys.digits)
    kp, nums = integer_rows(points)
    gens = int_orbits(int_rows(sys.R.rows, 1), [tuple(map(sub, b, b0)) for b in rest])
    steps = [tuple(map(sub, p, nums[0])) for p in nums[1:]]
    return not any(sum(map(mul, g, v)) % (kb * kp) for g in gens for v in steps)


# ---------------------------------------------------------------------------
# the staged construction


@dataclass(frozen=True)
class Analysis:
    """The spectrum construction for a system (R, B) and frequencies L, in
    the order it is built: the dual system (R^T, L), the symbol zeros, the
    dual's cycles (each marked extreme or not), the extreme ones, and the
    candidate spectrum grown from them level by level.

    Every stage is computed on first use and kept. ``dataclasses.replace``
    gives a fresh analysis with nothing computed.
    """

    sys: AffineSystem
    freqs: tuple | None
    max_period: int = 12
    via: str = "box"
    _spectra: dict = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    @cached_property
    def dual(self) -> AffineSystem:
        if self.freqs is None:
            raise AifsError("entry has no frequency set")
        return self.sys.dual(self.freqs)

    @cached_property
    def zeros(self) -> ZeroSet:
        return find_zeros(self.sys)

    @cached_property
    def cycles(self) -> list:
        found = search_cycles(self.sys, self.dual, self.max_period, self.via)
        return classify_extreme(self.sys, found)

    @cached_property
    def extreme(self) -> list:
        return [c for c in self.cycles if c.extreme]

    def spectrum(self, level: int):
        if level not in self._spectra:
            self._spectra[level] = spectrum_from_cycles(
                self.dual, self.extreme, level
            )
        return self._spectra[level]

    @cached_property
    def triple(self):
        """The Hadamard certificate of (R, B, L) (``check_hadamard``)."""
        from .hadamard import check_hadamard  # hadamard imports this module

        return check_hadamard(self.sys.R, self.sys.digits, self.freqs)

    @cached_property
    def orthogonal_every_level(self) -> bool:
        """Whether every level of the spectrum is certified orthogonal by the
        lemma below, from one Hadamard certificate and the seed pairs.

        Lemma (Jorgensen and Pedersen, J. Anal. Math. 75 (1998); Laba and
        Wang, J. Funct. Anal. 193 (2002)). Let R be integral, S = R^T,
        |B| = |L| = N, the weights uniform, and (R, B, L) a Hadamard triple:
        m_B(S^-1 (l - l')) = 0 for l != l' in L. Let M be spanned by the
        R^k (b - b0), b in B and 0 <= k < d (by Cayley-Hamilton, the least
        R-invariant lattice holding B - B), and Gamma = {x : m.x in Z for
        every m in M}, which holds Z^d when B is integral. For z in Gamma,
        m_B(x + z) = e(b0.z) m_B(x), so |m_B| = 1 on Gamma; and S Gamma lies
        in Gamma, as m.(S z) = (R m).z and R M lies in M. Let X be the seeds,
        the points -c with c on an extreme cycle of (S, L) (the level-0
        spectrum), and suppose every l - l0 and x - x0 (l in L, x in X) lies
        in Gamma. The level-n elements are the addresses (x0, w), x0 in X
        and w = w_1 ... w_n digits of L, at lam = S^n x0 + sum_i S^(n-i) l_wi.
        For two of them:
        1. If the words differ, let j be the lowest power of S at which they
           do. Then lam - lam' = S^j (l - l') + S^(j+1) z with z in Gamma,
           so factor j+1 of mu^(lam - lam') is m_B(S^-1 (l - l') + z) =
           e(b0.z) m_B(S^-1 (l - l')) = 0.
        2. If the words agree, lam - lam' = S^n y with y = x0 - x0' in
           Gamma, and mu^(S^n y) is mu^(y) times n factors of modulus 1.
        So the union of all levels is orthogonal exactly when every seed pair
        is, and one walk per seed pair (``certify_all_pairs`` over X) decides
        every level at once. Distinct addresses are distinct elements (case
        1 gives mu^(lam - lam') = 0 != mu^(0), case 2 S^n y != 0), so level
        n has |X| N^n of them; ``pair_report`` checks that count.

        Each hypothesis is checked exactly, Gamma on integer numerators;
        False when one fails or a seed pair is not certified.
        """
        sys, seeds = self.sys, self.spectrum(0).elements
        return (
            sys.R.is_integer
            and sys.uniform
            and sys.n_digits == self.dual.n_digits
            and _in_period_lattice(sys, self.dual.digits)
            and _in_period_lattice(sys, seeds)
            and self.triple.certified
            and certify_all_pairs(sys, seeds).all_orthogonal
        )

    def pair_report(self, level: int) -> PairMatrixReport:
        """Pairwise orthogonality of the level-``level`` spectrum: every pair
        certified when ``orthogonal_every_level`` holds, else the pair table
        of ``certify_all_pairs``.

        The table gives the same counts, so no output moves. It certifies
        a case 1 pair at factor j+1 <= level, on the phases the Hadamard
        certificate decided turned by one common e(b0.z), well inside
        PAIR_DEPTH = 48: SPECTRUM_CAP holds N >= 2 digits to level 20
        (N = 1 has one seed and no pairs).
        A case 2 pair's chain is its seed pair's after ``level`` factors of
        modulus 1, so the table certifies it when the seed pair vanishes by
        factor 48 - level >= 28. Only a seed pair vanishing later, near
        PAIR_DEPTH, would leave undetermined in the table what the lemma
        certifies; the bundled seed pairs all vanish at factor 1.
        """
        elements = self.spectrum(level).elements
        if not self.orthogonal_every_level:
            return certify_all_pairs(self.sys, elements)
        n = self.spectrum(0).size * self.dual.n_digits**level
        if n != len(elements):
            raise RuntimeError(
                "level %d has %d elements, not the %d distinct addresses the "
                "orthogonality lemma counts" % (level, len(elements), n)
            )
        pairs = n * (n - 1) // 2
        return PairMatrixReport(n, pairs, pairs, 0, 0, ())
