"""Zero sets of the symbol and their dynamics on the torus.

Orthogonality of exponentials for the invariant measure is governed by where
the symbol m vanishes and how that zero set moves under the transposed
matrix acting mod Z^d. Two counting arguments are implemented: if a finite
forward-invariant superset of the zeros avoids 0, any orthogonal family has
at most (size + 1) members; and if the forward orbit of the zero set keeps
distance delta > 0 from Z^d, a pigeonhole over cubes caps the family at
(floor(sqrt(d)/delta) + 1)^d.

Everything that feeds a bound is exact: rational zero orbits close up in
finitely many steps because denominators never grow, and the zero continua
of the simplex digit sets are carried symbolically.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

from .cyclotomy import vanishing_sum
from .errors import AifsError, BudgetExceeded
from .fourier import eval_symbol
from .ifs_core import AffineSystem, simplex_digits
from .linalg_exact import Matrix, frac, fvec

Vec = tuple


def torus(v) -> Vec:
    return tuple(frac(c) % 1 for c in v)


def _dist_sq_to_lattice(x) -> Fraction:
    total = Fraction(0)
    for c in x:
        f = frac(c) % 1
        total += min(f, 1 - f) ** 2
    return total


# ---------------------------------------------------------------------------
# zero sets


@dataclass(frozen=True)
class ZeroFamily:
    """A one-parameter zero curve of the dimension-3 simplex symbol.

    1 + e(x1) + e(x2) + e(x3) = 0 forces the four unit vectors into two
    antipodal pairs, so one coordinate equals 1/2 and the remaining two
    differ by 1/2; `half_axis` names the pinned coordinate and the free
    parameter runs along `free_axis`.
    """

    half_axis: int
    free_axis: int
    dep_axis: int

    def sample(self, t) -> Vec:
        t = frac(t) % 1
        x = [None, None, None]
        x[self.half_axis] = Fraction(1, 2)
        x[self.free_axis] = t
        x[self.dep_axis] = (t + Fraction(1, 2)) % 1
        return tuple(x)

    def describe(self) -> dict:
        return {
            "pinned": "x%d = 1/2" % (self.half_axis + 1),
            "relation": "x%d = x%d + 1/2 (mod 1)"
            % (self.dep_axis + 1, self.free_axis + 1),
        }


@dataclass(frozen=True)
class ZeroSet:
    """Zeros of the symbol on the torus [0,1)^d.

    ``complete`` asserts that points+families provably exhaust the zero set;
    uncertified numeric candidates are listed separately and never feed the
    exact machinery.
    """

    points: tuple
    families: tuple = ()
    complete: bool = False
    tag: str = ""
    numeric_points: tuple = ()


def _certified_zero(sys: AffineSystem, xf) -> Vec | None:
    """The float zero candidate xf snapped to the torus point with
    denominators up to 10^4 nearest it, if that point is an exact zero."""
    xr = tuple(Fraction(float(c)).limit_denominator(10**4) % 1 for c in xf)
    return xr if eval_symbol(sys, xr).is_zero else None


def _zeros_dim1_poly(sys: AffineSystem) -> ZeroSet:
    """All torus zeros for integer one-dimensional digit sets.

    m(x) = P(e^{2 pi i x}) for the polynomial P(z) = sum w_b z^{b - bmin},
    so the zeros are the unit-circle roots of P. Roots clearly off the
    circle are discarded; on-circle roots are snapped to nearby rationals
    and certified exactly. Completeness holds when every near-circle root
    certifies.
    """
    exps = [int(b[0]) for b in sys.digits]
    base = min(exps)
    deg = max(exps) - base
    coeffs = [0.0] * (deg + 1)
    for w, e in zip(sys.weights, exps):
        coeffs[e - base] += float(w)
    roots = np.roots(coeffs[::-1]) if deg >= 1 else np.array([])
    pts, numeric, all_certified = [], [], True
    for z in roots:
        if abs(abs(z) - 1.0) > 1e-7:
            continue
        xf = (math.atan2(z.imag, z.real) / (2 * math.pi)) % 1.0
        xr = _certified_zero(sys, (xf,))
        if xr is not None:
            pts.append(xr)
        else:
            numeric.append((xf,))
            all_certified = False
    return ZeroSet(
        points=tuple(sorted(set(pts))),
        complete=all_certified,
        tag="circle-poly-d1",
        numeric_points=tuple(numeric),
    )


#: grid points per axis of the numeric zero sweep (capped at 300,000 in all)
ZERO_GRID = 64


def _zeros_grid(sys: AffineSystem) -> ZeroSet:
    """Numeric sweep + Gauss-Newton polish; never claims completeness."""
    d = sys.dim
    n_grid = ZERO_GRID
    if n_grid**d > 300_000:
        n_grid = max(4, int(300_000 ** (1.0 / d)))
    axes = [np.arange(n_grid) / n_grid] * d
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    b = np.array([[float(c) for c in dig] for dig in sys.digits])
    w = np.array([float(x) for x in sys.weights])
    vals = np.abs(np.exp(2j * np.pi * (mesh @ b.T)) @ w)
    # a zero inside a cell forces the corner value below lip * cell diameter
    lip = 2 * math.pi * float(np.linalg.norm(b, axis=1).max() or 1.0)
    thresh = lip * math.sqrt(d) / n_grid
    seeds = mesh[vals < thresh]
    if len(seeds) > 512:
        seeds = seeds[np.argsort(vals[vals < thresh])[:512]]
    pts, numeric = set(), []
    for seed in seeds:
        x = seed.copy()
        for _ in range(60):
            e = np.exp(2j * np.pi * (b @ x))
            f = e @ w
            if abs(f) < 1e-13:
                break
            jac = 2j * np.pi * (w[:, None] * b * e[:, None]).sum(axis=0)
            step = np.linalg.lstsq(
                np.stack([jac.real, jac.imag]), -np.array([f.real, f.imag]),
                rcond=None,
            )[0]
            x = (x + step) % 1.0
        else:
            continue
        xr = _certified_zero(sys, x)
        if xr is not None:
            pts.add(xr)
        else:
            rounded = tuple(round(float(c), 9) % 1.0 for c in x)
            if rounded not in {tuple(np.round(q, 9)) for q in numeric}:
                numeric.append(tuple(float(c) for c in x))
    return ZeroSet(
        points=tuple(sorted(pts)),
        complete=False,
        tag="grid-newton",
        numeric_points=tuple(numeric),
    )


def find_zeros(sys: AffineSystem) -> ZeroSet:
    digit_set = set(sys.digits)
    if sys.uniform and digit_set == set(simplex_digits(sys.dim)):
        if sys.dim == 1:
            return ZeroSet(
                points=((Fraction(1, 2),),), complete=True, tag="simplex-d1"
            )
        if sys.dim == 2:
            # 1 + e(x1) + e(x2) = 0 iff {e(x1), e(x2)} are the two primitive
            # cube roots of unity
            third = Fraction(1, 3)
            return ZeroSet(
                points=(
                    (third, 2 * third),
                    (2 * third, third),
                ),
                complete=True,
                tag="simplex-d2",
            )
        if sys.dim == 3:
            fams = tuple(
                ZeroFamily(half_axis=a, free_axis=min(rest), dep_axis=max(rest))
                for a in range(3)
                for rest in [{0, 1, 2} - {a}]
            )
            return ZeroSet(points=(), families=fams, complete=True, tag="simplex-d3")
    if sys.dim == 1 and all(c.denominator == 1 for b in sys.digits for c in b):
        return _zeros_dim1_poly(sys)
    if sys.dim > 3:
        return ZeroSet(points=(), complete=False, tag="unavailable")
    return _zeros_grid(sys)


def has_zero_weighted(sys: AffineSystem) -> bool:
    """Does the (possibly weighted) symbol vanish anywhere?

    Decided exactly whenever the zero search is certified complete;
    otherwise a certified zero still gives True, and anything else raises.
    """
    zs = find_zeros(sys)
    if zs.points or zs.families:
        return True
    if zs.complete:
        return False
    raise AifsError(
        "zero search inconclusive for this system (tag=%r)" % zs.tag
    )


# ---------------------------------------------------------------------------
# torus orbits and invariant supersets


@dataclass(frozen=True)
class OrbitResult:
    points: tuple  # trail x0, x1, ... (distinct prefix)
    preperiod: int
    period: int

    @property
    def periodic(self) -> bool:
        """Whether the starting point itself lies on the cycle."""
        return self.preperiod == 0

    @property
    def cycle(self) -> tuple:
        return self.points[self.preperiod:]


def _require_integer(s: Matrix) -> None:
    # under a rational S the denominator can grow at every step, forever
    if not s.is_integer:
        raise ValueError("torus dynamics needs an integer matrix")


def orbit(s: Matrix, x0, max_iter: int = 100_000) -> OrbitResult:
    """Forward orbit of x0 under x -> S x mod Z^d until it repeats.

    For rational x0 and integer S the denominator never grows, so the orbit
    must close; max_iter is only a tripwire.
    """
    _require_integer(s)
    x = torus(fvec(x0))
    seen = {x: 0}
    trail = [x]
    for n in range(1, max_iter + 1):
        x = torus(s.mat_vec(x))
        if x in seen:
            j = seen[x]
            return OrbitResult(tuple(trail), preperiod=j, period=n - j)
        seen[x] = n
        trail.append(x)
    raise BudgetExceeded("orbit did not close within %d steps" % max_iter)


#: largest invariant closure built (denominator q allows q^d torus points)
CLOSURE_CAP = 100_000


def invariant_superset(s: Matrix, points) -> frozenset:
    """Smallest forward-invariant subset of the torus containing ``points``."""
    _require_integer(s)
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


def is_invariant(s: Matrix, points) -> bool:
    _require_integer(s)
    pts = {torus(fvec(p)) for p in points}
    return all(torus(s.mat_vec(p)) in pts for p in pts)


@dataclass(frozen=True)
class FiniteBoundReport:
    closure: tuple
    size: int
    bound: int | None  # None when 0 lies in the closure
    contains_zero: bool


def finite_bound(s: Matrix, zero_points) -> FiniteBoundReport:
    """Cardinality bound from a finite invariant superset of the zeros.

    If the closure avoids 0 mod Z^d, no orthogonal family of exponentials
    can exceed size + 1: differences of frequencies in such a family are
    trapped in the closure, and a family of size + 2 would force a repeat.
    """
    closure = invariant_superset(s, zero_points)
    zero = tuple(Fraction(0) for _ in range(s.n))
    contains = zero in closure
    return FiniteBoundReport(
        closure=tuple(sorted(closure)),
        size=len(closure),
        bound=None if contains else len(closure) + 1,
        contains_zero=contains,
    )


@dataclass(frozen=True)
class DistanceBoundReport:
    delta_sq: Fraction  # certified lower bound on dist(orbit, Z^d)^2
    bound: int
    exact: bool
    note: str | None = None


def orbit_distance_bound(s: Matrix, zeros: ZeroSet) -> DistanceBoundReport:
    """Pigeonhole bound (floor(sqrt(d)/delta) + 1)^d from orbit-lattice distance.

    Exact zero points have closing orbits, so their true distance is
    computed; zero continua are handled through the pinned coordinate, which
    scalar odd matrices preserve.
    """
    d = s.n
    deltas = []
    for p in zeros.points:
        best = min(
            _dist_sq_to_lattice(x) for x in orbit(s, p).points
        )
        deltas.append(best)
    if zeros.families:
        diag = s.rows[0][0]
        scalar_odd = (
            s == Matrix.identity(d).scale(diag)
            and diag.denominator == 1
            and int(diag) % 2 == 1
        )
        if not scalar_odd:
            raise AifsError(
                "distance bound for zero continua is only available for odd "
                "scalar matrices, where the pinned 1/2 coordinate persists"
            )
        # every family point keeps one coordinate exactly 1/2 mod 1 forever
        deltas.append(Fraction(1, 4))
    if not deltas:
        raise AifsError("empty zero set; distance bound does not apply")
    delta_sq = min(deltas)
    if delta_sq == 0:
        raise AifsError("zero orbit meets the lattice; bound does not apply")
    # floor(sqrt(d / delta_sq)) computed exactly on rationals
    ratio = Fraction(d) / delta_sq
    k = isqrt(ratio.numerator * ratio.denominator) // ratio.denominator
    note = None
    if d == 3 and k + 1 == 4:
        note = (
            "the cube count in dimension 3 is 4^3 = 64; the figure 256 = 4^4 "
            "that sometimes circulates for this bound is a dimension slip"
        )
    return DistanceBoundReport(
        delta_sq=delta_sq, bound=(k + 1) ** d, exact=True, note=note
    )


# ---------------------------------------------------------------------------
# minimum modulus of simplex symbol sums at scale p^n


@dataclass(frozen=True)
class MinUnitSum:
    p: int
    d: int
    n: int
    value: float
    exact_zero: bool
    argmin: tuple  # lexicographically smallest minimiser k in {0..p^n-1}^d


#: unit sums evaluated in one minimum scan, C(p^n + d - 1, d) of them
MIN_SUM_BUDGET = 2_000_000


def min_unit_sum(p: int, d: int, n: int) -> MinUnitSum:
    """min over k in {0..p^n-1}^d of |1 + sum_l e^{2 pi i k_l / p^n}|.

    The sum is symmetric in the k_l, so only non-decreasing tuples are
    scanned; the reported argmin is still the lexicographic minimum over the
    full grid because sorting a tuple can only lower it lexicographically.
    A float minimum below 1e-10 is certified (or refuted) exactly.
    """
    q = p**n
    if math.comb(q + d - 1, d) > MIN_SUM_BUDGET:
        raise BudgetExceeded(
            "minimum scan needs %d evaluations (cap %d)"
            % (math.comb(q + d - 1, d), MIN_SUM_BUDGET)
        )
    table = [complex(math.cos(2 * math.pi * k / q), math.sin(2 * math.pi * k / q))
             for k in range(q)]

    def scan():
        for combo in itertools.combinations_with_replacement(range(q), d):
            z = 1.0 + 0.0j
            for k in combo:
                z += table[k]
            yield combo, abs(z)

    best = min(v for _, v in scan())
    argmin = next(c for c, v in scan() if v <= best + 1e-12)
    if best < 1e-10:
        phases = [Fraction(0)] + [Fraction(k, q) for k in argmin]
        if vanishing_sum([1] * (d + 1), phases):
            return MinUnitSum(p, d, n, 0.0, True, argmin)
    return MinUnitSum(p, d, n, best, False, argmin)


@dataclass(frozen=True)
class MinSumReport:
    p: int
    d: int
    values: tuple
    verdict: str  # "evidence-nonspectral" | "inconclusive"
    scaled_inf: float | None

    def describe(self) -> dict:
        return {
            "p": self.p,
            "d": self.d,
            "values": [
                {
                    "n": v.n,
                    "min": v.value,
                    "exact_zero": v.exact_zero,
                    "argmin": list(v.argmin),
                    "scaled": v.value * self.p**v.n,
                }
                for v in self.values
            ],
            "verdict": self.verdict,
            "scaled_inf": self.scaled_inf,
            "note": "finite-range check; the non-spectrality criterion "
            "quantifies over every scale",
        }


def min_sum_report(p: int, d: int, n_max: int) -> MinSumReport:
    """Evidence for the harmonic obstruction: if p^n * min stays bounded away
    from 0 for all n, no orthonormal exponential basis exists. A vanishing
    minimum at any scanned scale makes the criterion inapplicable."""
    values = tuple(min_unit_sum(p, d, n) for n in range(1, n_max + 1))
    if any(v.exact_zero for v in values):
        return MinSumReport(p, d, values, "inconclusive", None)
    scaled = min(v.value * p**v.n for v in values)
    verdict = "evidence-nonspectral" if scaled > 1e-6 else "inconclusive"
    return MinSumReport(p, d, values, verdict, scaled)
