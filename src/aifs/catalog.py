"""Bundled example systems with frozen expected behaviour.

Each entry under data/ is a JSON document: a system, a human-readable
reference line, and a list of checks with expected values that were worked
out independently (by hand or versus brute force) before being frozen here.
Running an entry rebuilds everything from the library and diffs against the
frozen expectations, so the catalog doubles as an end-to-end regression
suite and as executable documentation.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from itertools import combinations

from .cycles_spectrum import extreme_cycles
from .errors import AifsError
from .fourier import invariance_residual, normalization_residual
from .hadamard import conjecture_probe
from .linalg_exact import frac, fvec
from .serialize import frequencies_from_dict, system_from_dict, to_jsonable
from .torus_dynamics import (
    finite_bound,
    has_zero_weighted,
    is_invariant,
    min_sum_report,
    orbit,
    orbit_distance_bound,
)
from .verify import (
    Analysis,
    block_root_family,
    completeness_q,
    halton_points,
    max_orthogonal_family,
    rational_grid_1d,
)

# ---------------------------------------------------------------------------
# constructors for the named families


def simplex_spectrum_digits(p: int, d: int) -> tuple:
    """The compatible frequency sets for the simplex digit sets, d <= 3."""
    if d == 1:
        if p % 2:
            raise ValueError("d=1 needs even p")
        return ((Fraction(0),), (Fraction(p, 2),))
    if d == 2:
        if p % 3:
            raise ValueError("d=2 needs p divisible by 3")
        a = Fraction(2 * p, 3)
        return (
            (Fraction(0), Fraction(0)),
            (a, -a),
            (-a, a),
        )
    if d == 3:
        if p % 2:
            raise ValueError("d=3 needs even p")
        h = Fraction(p, 2)
        z = Fraction(0)
        return ((z, z, z), (h, h, z), (z, h, h), (h, z, h))
    raise ValueError("no closed-form frequency set beyond d = 3")


def collinear_spectrum_digits(p: int, d: int) -> tuple:
    """Frequency sets along the line (1, 2, ..., d), for (d+1) | p."""
    if p % (d + 1):
        raise ValueError("needs p divisible by d + 1")
    m = p // (d + 1)
    v0 = tuple(Fraction(m * (i + 1)) for i in range(d))
    return tuple(tuple(j * c for c in v0) for j in range(d + 1))


# ---------------------------------------------------------------------------
# entry access


def _data_root():
    return resources.files(__package__).joinpath("data")


def entry_names() -> list:
    names = [
        p.name[:-5]
        for p in _data_root().iterdir()
        if p.name.endswith(".json")
    ]
    return sorted(names)


def load_entry(name: str) -> dict:
    path = _data_root().joinpath(name + ".json")
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        raise AifsError(
            "no catalog entry %r (have: %s)" % (name, ", ".join(entry_names()))
        ) from None


# ---------------------------------------------------------------------------
# check dispatch

_CHECKS = {}


def _register(kind):
    def deco(fn):
        _CHECKS[kind] = fn
        return fn

    return deco


@_register("hadamard")
def _chk_hadamard(an: Analysis, spec: dict):
    triple = an.triple
    ok = triple.certified == spec.get("expect_certified", True)
    ok = ok and triple.defect <= spec.get("max_defect", 1e-12)
    return ok, {"certified": triple.certified, "defect": triple.defect}


@_register("zeros")
def _chk_zeros(an: Analysis, spec: dict):
    zs = an.zeros
    want = tuple(sorted(fvec(p) for p in spec.get("expect_points", [])))
    ok = (
        zs.points == want
        and zs.complete == spec.get("expect_complete", True)
        and len(zs.families) == spec.get("expect_families", 0)
    )
    return ok, {
        "points": zs.points,
        "families": len(zs.families),
        "complete": zs.complete,
        "tag": zs.tag,
    }


@_register("zeros_invariant")
def _chk_zeros_invariant(an: Analysis, spec: dict):
    zs = an.zeros
    inv = is_invariant(an.sys.R.transpose(), zs.points)
    return inv == spec.get("expect", True), {"invariant": inv}


@_register("finite_bound")
def _chk_finite_bound(an: Analysis, spec: dict):
    rep = finite_bound(an.sys.R.transpose(), an.zeros.points)
    ok = rep.size == spec["expect_size"] and rep.bound == spec["expect_bound"]
    return ok, {"size": rep.size, "bound": rep.bound}


@_register("distance_bound")
def _chk_distance_bound(an: Analysis, spec: dict):
    rep = orbit_distance_bound(an.sys.R.transpose(), an.zeros)
    ok = (
        rep.delta_sq == frac(spec["expect_delta_sq"])
        and rep.bound == spec["expect_bound"]
        and bool(rep.note) == spec.get("expect_note", False)
    )
    return ok, {
        "delta_sq": rep.delta_sq,
        "bound": rep.bound,
        "note": rep.note,
    }


@_register("orbit")
def _chk_orbit(an: Analysis, spec: dict):
    res = orbit(an.sys.R.transpose(), fvec(spec["x"]))
    ok = res.period == spec["expect_period"] and res.preperiod == spec.get(
        "expect_preperiod", 0
    )
    return ok, {"period": res.period, "preperiod": res.preperiod}


@_register("extreme_cycles")
def _chk_extreme_cycles(an: Analysis, spec: dict):
    cycles = an.extreme
    got = {frozenset(c.points) for c in cycles}
    want = {
        frozenset(fvec(p) for p in cyc) for cyc in spec["expect"]
    }
    ok = got == want
    if ok and spec.get("cross_check_words"):
        words = extreme_cycles(an.sys, an.dual, max_period=6, via="words")
        ok = {frozenset(c.points) for c in words} == want
    return ok, {"cycles": [sorted(c.points) for c in cycles]}


@_register("spectrum")
def _chk_spectrum(an: Analysis, spec: dict):
    ss = an.spectrum(spec["level"])
    want = tuple(sorted(fvec(v) for v in spec["expect"]))
    return ss.elements == want, {"size": ss.size, "elements": ss.elements}


@_register("spectrum_range_1d")
def _chk_spectrum_range(an: Analysis, spec: dict):
    ss = an.spectrum(spec["level"])
    vals = sorted(v[0] for v in ss.elements)
    want = [Fraction(k) for k in range(spec["lo"], spec["hi"] + 1)]
    return vals == want, {"size": ss.size, "lo": min(vals), "hi": max(vals)}


@_register("pairs_orthogonal")
def _chk_pairs(an: Analysis, spec: dict):
    rep = an.pair_report(spec["level"])
    ok = rep.all_orthogonal == spec.get("expect_all", True)
    return ok, {
        "pairs": rep.n_pairs,
        "certified": rep.certified,
        "undetermined": rep.undetermined,
    }


@_register("q_range")
def _chk_q_range(an: Analysis, spec: dict):
    ss = an.spectrum(spec["level"])
    rep = completeness_q(an.sys, ss.elements, samples=spec.get("samples", 8))
    ok = rep.q_min >= spec["lo"] and rep.within_bessel
    return ok, {
        "q_min": rep.q_min,
        "q_max": rep.q_max,
        "error_bound": rep.error_bound,
    }


@_register("family_size")
def _chk_family_size(an: Analysis, spec: dict):
    grid = rational_grid_1d(spec["max_den"], spec["lo"], spec["hi"])
    rep = max_orthogonal_family(an.sys, grid, an.zeros)
    ok = rep.size == spec["expect"] and rep.certified_maximum
    return ok, {
        "size": rep.size,
        "grid": rep.grid_size,
        "certified_maximum": rep.certified_maximum,
        "family": rep.family,
    }


@_register("has_zero_weighted")
def _chk_hzw(an: Analysis, spec: dict):
    got = has_zero_weighted(an.sys)
    return got == spec["expect"], {"has_zero": got}


@_register("min_sum")
def _chk_min_sum(an: Analysis, spec: dict):
    p = int(an.sys.R.rows[0][0])
    rep = min_sum_report(p, an.sys.dim, spec["n_max"])
    ok = rep.verdict == spec["expect_verdict"]
    if "min_scaled" in spec and rep.scaled_inf is not None:
        ok = ok and rep.scaled_inf >= spec["min_scaled"]
    if "zero_at" in spec:
        ok = ok and rep.values[spec["zero_at"] - 1].exact_zero
    return ok, rep.describe()


@_register("invariance_residual")
def _chk_invariance(an: Analysis, spec: dict):
    val = invariance_residual(an.sys, fvec(spec["x"]))
    return val <= spec["max"], {"residual": val}


@_register("normalization")
def _chk_normalization(an: Analysis, spec: dict):
    worst = max(
        normalization_residual(an.sys, an.dual, x)
        for x in halton_points(spec.get("samples", 8), an.sys.dim)
    )
    return worst <= spec["max"], {"max_residual": worst}


@_register("block_root")
def _chk_block_root(an: Analysis, spec: dict):
    p = int(an.sys.R.rows[0][0])
    rep = block_root_family(
        p, an.sys.dim, spec["blocks"], count=spec.get("count", 4)
    )
    ok = rep.z0 == fvec(spec["expect_z0"])
    ok = ok and rep.z0_is_zero and rep.all_certified
    pairs = zip(rep.certificates, combinations(range(len(rep.family)), 2))
    ok = ok and all(cert.vanishing_index == i + 1 for cert, (i, _) in pairs)
    return ok, {
        "z0": rep.z0,
        "z0_is_zero": rep.z0_is_zero,
        "all_certified": rep.all_certified,
    }


@_register("probe")
def _chk_probe(an: Analysis, spec: dict):
    rep = conjecture_probe(an.sys, an.freqs)
    ok = list(rep.verdicts) == list(spec["expect"])
    return ok, {
        "verdicts": rep.verdicts,
        "experimental": rep.experimental,
    }


# ---------------------------------------------------------------------------
# runners


@dataclass(frozen=True)
class CheckOutcome:
    kind: str
    ok: bool
    seconds: float
    detail: dict


@dataclass(frozen=True)
class EntryReport:
    name: str
    ok: bool
    seconds: float
    checks: tuple


def run_entry(entry) -> EntryReport:
    doc = load_entry(entry) if isinstance(entry, str) else entry
    an = Analysis(
        system_from_dict(doc["system"]), frequencies_from_dict(doc["system"])
    )
    outcomes = []
    t_entry = time.perf_counter()
    for spec in doc.get("checks", []):
        kind = spec["kind"]
        fn = _CHECKS.get(kind)
        t0 = time.perf_counter()
        if fn is None:
            outcomes.append(
                CheckOutcome(kind, False, 0.0, {"error": "unknown check kind"})
            )
            continue
        try:
            ok, detail = fn(an, spec)
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, {"error": "%s: %s" % (type(exc).__name__, exc)}
        outcomes.append(
            CheckOutcome(
                kind, bool(ok), time.perf_counter() - t0, to_jsonable(detail)
            )
        )
    return EntryReport(
        name=doc.get("name", "?"),
        ok=all(o.ok for o in outcomes),
        seconds=time.perf_counter() - t_entry,
        checks=tuple(outcomes),
    )


def run_all(names=None) -> list:
    return [run_entry(n) for n in (names or entry_names())]
