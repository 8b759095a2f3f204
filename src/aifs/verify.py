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
from functools import cached_property, partial
from itertools import combinations, islice
from operator import sub

import numpy as np

from .cycles_spectrum import (
    LatticeBasis,
    classify_extreme,
    enumerate_box_points,
    search_cycles,
    spectrum_from_cycles,
)
from .errors import AifsError, BudgetExceeded
from .fourier import eval_symbol, factor_chain, mu_hat_grid
from .ifs_core import AffineSystem, simplex_system
from .linalg_exact import Matrix, frac, fvec, integer_rows, vec_add, vec_sub
from .torus_dynamics import ZeroSet, _dist_sq_to_lattice, find_zeros

Vec = tuple


@dataclass(frozen=True)
class OrthogonalityCertificate:
    lam: Vec
    lam_prime: Vec
    status: str  # "certified" | "not-orthogonal" | "undetermined"
    vanishing_index: int | None = None
    zero_point: Vec | None = None

    @property
    def orthogonal(self) -> bool:
        return self.status == "certified"


#: factors m(S^{-n}(lam - lam')) walked before a pair is left undetermined
PAIR_DEPTH = 48


def orthogonal_pair(
    sys: AffineSystem, lam, lam_prime, den: int = 1
) -> OrthogonalityCertificate:
    """Decide orthogonality of e_lam and e_lam' for the invariant measure,
    at the frequencies lam / den and lam' / den (den defaults to 1; the pair
    table passes integer numerators over its lattice denominator).

    Walks the factor chain m(S^{-n}(lam - lam')): an exact factor zero
    certifies orthogonality at that index; if every factor up to n is
    certified non-zero and the remaining tail is provably closer to 1 than
    its own modulus allows for a zero, the product cannot vanish and the
    pair is certifiedly NOT orthogonal. Anything else is undetermined
    (PAIR_DEPTH or an exactness cap was hit).
    """
    lam, lam_prime = (
        tuple(v if type(v) is int else frac(v) for v in x) for x in (lam, lam_prime)
    )
    delta = tuple(map(sub, lam, lam_prime))
    if not any(delta):
        raise ValueError("frequencies coincide; orthogonality is ill-posed")
    cert = partial(OrthogonalityCertificate, _exact(lam, den), _exact(lam_prime, den))
    all_factors_certified = True
    for n, y, y_den, sv, tail in factor_chain(sys, delta, PAIR_DEPTH, den):
        if sv.is_zero:
            return cert("certified", n, _exact(y, y_den))
        all_factors_certified = all_factors_certified and sv.certified
        # the product of the factors past n is within 0.999 of 1: not zero
        if all_factors_certified and tail < 0.999:
            return cert("not-orthogonal")
    return cert("undetermined")


def _exact(vec, den: int) -> Vec:
    return tuple(Fraction(v, den) for v in vec)


class FrequencyLattice:
    """Rational vectors on one lattice (1/den) Z^d, each packed into one int.

    The key of a numerator vector N is sum_k N_k W^k with W = 2 span + 1,
    span the widest coordinate range. A key difference is then a balanced
    base-W numeral whose digits are the coordinates of N - N', so it
    determines N - N' exactly, and key(g) + key(h) is a key exactly when
    g + h is a point, for h within the span (digits of size at most
    2 span < W sum to 0 only if all are 0). A pair certificate depends only
    on +-(lam - lam'), so the pair table certifies each |key difference|
    once.
    """

    def __init__(self, points):
        self.points = [fvec(p) for p in points]
        self.den, nums = integer_rows(self.points)
        self.spans = [max(c) - min(c) for c in zip(*nums)]
        self.base = 2 * max(self.spans, default=0) + 1
        self.keys = list(map(self._pack, nums))

    def _pack(self, num) -> int:
        return sum(v * self.base**k for k, v in enumerate(num))

    def unpack(self, k: int) -> tuple:
        """The numerators of the difference a key difference k stands for."""
        half, out = self.base // 2, []
        for _ in self.spans:
            out.append((k + half) % self.base - half)
            k = (k - out[-1]) // self.base
        return tuple(out)

    def neighbors(self, diffs) -> list:
        """For each point i the set of points j with g_j - g_i in ``diffs``
        (rational vectors), filled in the order of ``diffs``."""
        index = {k: i for i, k in enumerate(self.keys)}
        out = [set() for _ in self.keys]
        for h in diffs:
            num = [c * self.den for c in h]
            # off the lattice, or wider than the span: joins no two points
            if any(c.denominator != 1 or abs(c) > self.base // 2 for c in num):
                continue
            shift = self._pack(map(int, num))
            for k in filter(index.__contains__, map(shift.__add__, self.keys)):
                out[index[k - shift]].add(index[k])
        return out

    def differences(self) -> Counter:
        """Key differences of all pairs i < j, with their multiplicities."""
        diffs = Counter()
        for i, k in enumerate(self.keys):
            diffs.update(map(k.__sub__, self.keys[i + 1:]))
        return diffs

    def statuses(self, sys: AffineSystem, diffs) -> dict:
        """The certificate status of each key difference, keyed by |k|."""
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
    family: tuple  # one maximum certified-orthogonal subset of the grid
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


def _max_clique(nodes: int, neighbors) -> list:
    best = [0] if nodes else []

    def expand(cur, cands):
        nonlocal best
        if not cands:
            if len(cur) > len(best):
                best = list(cur)
            return
        cands = set(cands)
        while cands:
            if len(cur) + len(cands) <= len(best):
                return
            v = cands.pop()
            cur.append(v)
            expand(cur, cands & neighbors[v])
            cur.pop()

    order = sorted(range(nodes), key=lambda v: -len(neighbors[v]))
    remaining = set(range(nodes))
    for v in order:
        if 1 + len(neighbors[v] & remaining) <= len(best):
            remaining.discard(v)
            continue
        expand([v], neighbors[v] & remaining)
        remaining.discard(v)
    return sorted(best)


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
    # 0.999: breathing room for the float sqrt (the norm bound itself is
    # already inflated upward)
    min_dist = 0.999 * min(
        math.sqrt(float(_dist_sq_to_lattice(z))) for z in zeros.points
    )
    big_c, c = sys.contraction
    # the farthest corner takes the larger |bound| on every axis
    corner_norm = math.hypot(*[float(max(abs(a), abs(b))) for a, b in zip(lo, hi)])
    out = set()
    spow = Matrix.identity(sys.dim)
    for n in range(1, DIFF_LEVELS + 1):
        spow = spow @ s
        # if every ||S^{-n} delta|| over the box is already below the zero
        # set's distance to the lattice, no further level contributes
        if big_c * c**n * corner_norm < min_dist:
            break
        # S^n (z + Z^d) = S^n z + (the lattice spanned by the columns of S^n)
        lattice = LatticeBasis(spow)
        for z in zeros.points:
            sz = spow.mat_vec(z)
            box = enumerate_box_points(lattice, vec_sub(lo, sz), vec_sub(hi, sz))
            out.update(vec_add(sz, x) for x in box)
    else:
        raise BudgetExceeded("difference enumeration passed %d levels" % DIFF_LEVELS)
    return out


#: largest grid the pairwise route certifies, one certificate per pair
PAIRWISE_CAP = 1500


def max_orthogonal_family(
    sys: AffineSystem, grid, zeros: ZeroSet | None = None
) -> FamilyReport:
    """A maximum orthogonal subfamily of {e_g : g in grid}.

    With a certified-complete finite zero set the certified-orthogonal
    differences inside the grid's difference box are enumerated directly
    (zeros pushed forward by S^n) and a maximum clique is taken over the
    resulting graph -- that is the exact maximum. Otherwise every grid pair
    is certified individually; undetermined pairs count as non-edges and
    downgrade the result to a certified lower bound.
    """
    lat = FrequencyLattice(grid)
    grid, keys = lat.points, lat.keys
    if len(set(keys)) != len(keys):
        raise ValueError("grid has repeated points")
    if zeros is None:
        zeros = find_zeros(sys)
    certified = True
    if zeros.complete and not zeros.families:
        method = "difference-set"
        hi = [Fraction(w, lat.den) for w in lat.spans]
        hset = _certified_difference_set(sys, zeros, [-x for x in hi], hi)
        neighbors = lat.neighbors(hset)
    else:
        method = "pairwise"
        if len(grid) > PAIRWISE_CAP:
            raise BudgetExceeded(
                "pairwise certification over %d grid points (cap %d)"
                % (len(grid), PAIRWISE_CAP)
            )
        table = lat.statuses(sys, lat.differences())
        certified = "undetermined" not in table.values()
        neighbors = [set() for _ in grid]
        for i, j in combinations(range(len(grid)), 2):
            if table[abs(keys[i] - keys[j])] == "certified":
                neighbors[i].add(j)
                neighbors[j].add(i)
    clique = _max_clique(len(grid), neighbors)
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
    lam = np.array(
        [[float(c) for c in f] for f in (fvec(f) for f in frequencies)]
    )
    if points is None:
        points = halton_points(samples, sys.dim)
    else:
        points = np.atleast_2d(np.asarray(points, dtype=float))
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
