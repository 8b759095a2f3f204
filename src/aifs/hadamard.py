"""Complex Hadamard compatibility between a digit set and a frequency set.

(R, B, L) is compatible when the N x N matrix with entries
N^{-1/2} e^{2 pi i (R^{-1} b) . l} is unitary. That single algebraic fact
makes the dual system (R^T, L) generate orthogonal exponentials for the
invariant measure of (R, B) and powers the whole spectrum construction.
Certification is exact: unitarity reduces to vanishing sums of roots of
unity, one per pair of distinct rows, decided through cyclotomy rather than
by staring at a float defect (which is still reported, for instrumentation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, starmap

import numpy as np

from .cyclotomy import vanishing_sum
from .errors import ExactnessUnavailable
from .fourier import TruncationPolicy, eval_mu_hat
from .ifs_core import AffineSystem
from .linalg_exact import Matrix, fvec, vec_dot, vec_sub
from .verify import PAIRWISE_CAP, Analysis, PairMatrixReport, completeness_q


@dataclass(frozen=True)
class HadamardTriple:
    b_digits: tuple
    l_digits: tuple
    defect: float  # max |(H* H - I)_{jk}|, float instrumentation
    certified: bool  # exact unitarity through vanishing sums

    @property
    def size(self) -> int:
        return len(self.b_digits)


def check_hadamard(r: Matrix, b_digits, l_digits) -> HadamardTriple:
    """Certify or refute unitarity of the scaled digit matrix.

    Columns indexed by b are orthonormal iff for every pair l != l' the sum
    sum_b e^{2 pi i (R^{-1} b).(l - l')} vanishes; each such sum is decided
    exactly. The float defect is computed independently as a sanity channel.
    """
    b_digits = tuple(fvec(b) for b in b_digits)
    l_digits = tuple(fvec(l) for l in l_digits)
    if any(len(v) != r.n for v in b_digits + l_digits):
        raise ValueError("dimension mismatch")
    if len(b_digits) != len(l_digits):
        raise ValueError(
            "digit and frequency sets must have equal size (%d vs %d)"
            % (len(b_digits), len(l_digits))
        )
    if len(set(b_digits)) != len(b_digits) or len(set(l_digits)) != len(l_digits):
        raise ValueError("digit/frequency sets must not repeat elements")
    n = len(b_digits)
    rinv = r.inverse()
    rb = [rinv.mat_vec(b) for b in b_digits]
    # float defect
    phases = np.array(
        [[float(vec_dot(x, l)) for l in l_digits] for x in rb]
    )
    h = np.exp(2j * np.pi * phases) / math.sqrt(n)
    defect = float(np.abs(h.conj().T @ h - np.eye(n)).max())
    # exact certificate
    try:
        certified = all(
            vanishing_sum([1] * n, [vec_dot(x, diff) for x in rb])
            for diff in starmap(vec_sub, combinations(l_digits, 2))
        )
    except ExactnessUnavailable:
        certified = False
    return HadamardTriple(
        b_digits=b_digits, l_digits=l_digits, defect=defect, certified=certified
    )


# ---------------------------------------------------------------------------
# change of variables


def conjugate_system(sys: AffineSystem, v: Matrix) -> AffineSystem:
    """The system (V R V^{-1}, V B): same dynamics in new coordinates.

    Its measure transform satisfies mu_V^(x) = mu^(V^T x), which makes the
    pair a strong cross-check on the evaluation pipeline.
    """
    r_v = (v @ sys.R) @ v.inverse()
    digs = tuple(v.mat_vec(b) for b in sys.digits)
    return AffineSystem(
        R=r_v, digits=digs, weights=sys.weights,
        name=(sys.name + "-conj") if sys.name else "",
    )


def covariance_residual(
    sys: AffineSystem,
    v: Matrix,
    x,
    policy: TruncationPolicy = TruncationPolicy(),
) -> float:
    """|mu_V^(x) - mu^(V^T x)| for the conjugated system; zero in theory."""
    conj = conjugate_system(sys, v)
    lhs = eval_mu_hat(conj, x, policy)
    rhs = eval_mu_hat(sys, v.transpose().mat_vec(fvec(x)), policy)
    return abs(lhs.value - rhs.value)


# ---------------------------------------------------------------------------
# two-sided spectral probe


@dataclass(frozen=True)
class OrientationReport:
    label: str
    cycles: tuple
    extreme_cycles: tuple
    spectrum_size: int
    level: int
    pairs_checked: int
    pairs_certified: int
    pairs_rejected: int
    pairs_undetermined: int
    q_min: float
    q_max: float
    verdict: str  # "spectral-evidence" | "counterexample-evidence" | "inconclusive"


@dataclass(frozen=True)
class ProbeReport:
    experimental: bool
    orientations: tuple
    note: str

    @property
    def verdicts(self) -> tuple:
        return tuple(o.verdict for o in self.orientations)


def _probe_level(n_digits: int) -> int:
    level = 1
    while n_digits ** (level + 1) <= 512:
        level += 1
    return max(3, min(level, 8))


#: Parseval sums at least this high count as spectral evidence
SPECTRAL_Q_MIN = 0.99
#: longest dual cycle the probe's word scan looks for
PROBE_MAX_PERIOD = 6


def conjecture_probe(
    sys_geom: AffineSystem,
    l_digits,
    level: int | None = None,
    samples: int = 16,
) -> ProbeReport:
    """Experimental two-sided check that a compatible pair is spectral both
    ways: the triple (R, B, L) and its swap (R^T, L, B) each get cycles, a
    level-capped spectrum, the pair counts of ``Analysis.pair_report`` over
    every pair of it, and Parseval sums. Where the every-level lemma does
    not apply and the spectrum has more than PAIRWISE_CAP elements, every
    pair is reported undetermined, so the orientation is not spectral
    evidence. Finite-level evidence only -- never a proof -- and the report
    says so.
    """
    first = Analysis(sys_geom, tuple(l_digits), PROBE_MAX_PERIOD, via="words")
    triple = first.triple
    if not triple.certified:
        raise ValueError(
            "not a certified compatible pair (float defect %.3g)" % triple.defect
        )
    # the swap (R^T, L, B) analyses the dual, whose own dual is (R, B) again
    swap = Analysis(first.dual, triple.b_digits, PROBE_MAX_PERIOD, via="words")
    orientations = []
    for label, an in (("R,B,L", first), ("R^T,L,B", swap)):
        lv = level if level is not None else _probe_level(an.dual.n_digits)
        spectrum = an.spectrum(lv)
        n = spectrum.size
        if an.orthogonal_every_level or n <= PAIRWISE_CAP:
            pairs = an.pair_report(lv)
        else:
            total = n * (n - 1) // 2
            pairs = PairMatrixReport(n, total, 0, 0, total, ())
        qrep = completeness_q(an.sys, spectrum.elements, samples=samples)
        if pairs.not_orthogonal > 0 or not qrep.within_bessel:
            verdict = "counterexample-evidence"
        elif pairs.undetermined == 0 and qrep.q_min >= SPECTRAL_Q_MIN:
            verdict = "spectral-evidence"
        else:
            verdict = "inconclusive"
        orientations.append(
            OrientationReport(
                label=label,
                cycles=tuple(an.cycles),
                extreme_cycles=tuple(an.extreme),
                spectrum_size=n,
                level=lv,
                pairs_checked=pairs.n_pairs,
                pairs_certified=pairs.certified,
                pairs_rejected=pairs.not_orthogonal,
                pairs_undetermined=pairs.undetermined,
                q_min=qrep.q_min,
                q_max=qrep.q_max,
                verdict=verdict,
            )
        )
    return ProbeReport(
        experimental=True,
        orientations=tuple(orientations),
        note=(
            "finite-level sampling of cycles, pair certificates and Parseval "
            "sums; evidence only, not a decision procedure"
        ),
    )
