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

from .errors import AifsError
from .fourier import invariance_residual, normalization_residual
from .hadamard import check_hadamard, conjecture_probe
from .ifs_core import AffineSystem
from .linalg_exact import Matrix
from .serialize import (
    frequencies_from_dict,
    parse_frac,
    parse_vec,
    system_from_dict,
    to_jsonable,
)
from .torus_dynamics import (
    find_zeros,
    finite_bound,
    has_zero_weighted,
    is_invariant,
    min_sum_report,
    orbit,
    orbit_distance_bound,
)
from .verify import (
    block_root_family,
    certify_all_pairs,
    completeness_q,
    halton_points,
    max_orthogonal_family,
    rational_grid_1d,
)

# ---------------------------------------------------------------------------
# constructors for the named families


def simplex_digits(d: int) -> tuple:
    zero = tuple(Fraction(0) for _ in range(d))
    units = tuple(
        tuple(Fraction(int(i == j)) for j in range(d)) for i in range(d)
    )
    return (zero,) + units


def simplex_system(p: int, d: int, name: str = "") -> AffineSystem:
    return AffineSystem(
        R=Matrix.identity(d).scale(p),
        digits=simplex_digits(d),
        name=name or "simplex-p%d-d%d" % (p, d),
    )


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


class _Ctx:
    """Per-entry lazy cache of the expensive intermediate objects."""

    def __init__(self, doc: dict):
        self.doc = doc
        self.sys = system_from_dict(doc["system"])
        self.freqs = frequencies_from_dict(doc["system"])
        self._cache = {}

    @property
    def dual(self) -> AffineSystem:
        if "dual" not in self._cache:
            if self.freqs is None:
                raise AifsError("entry has no frequency set")
            self._cache["dual"] = AffineSystem(
                R=self.sys.R.transpose(),
                digits=self.freqs,
                name=self.sys.name + "-dual",
            )
        return self._cache["dual"]

    @property
    def s_matrix(self) -> Matrix:
        return self.sys.R.transpose()

    def zeros(self):
        if "zeros" not in self._cache:
            self._cache["zeros"] = find_zeros(self.sys)
        return self._cache["zeros"]

    def extreme(self, max_period: int = 12):
        key = ("extreme", max_period)
        if key not in self._cache:
            from .cycles_spectrum import extreme_cycles

            self._cache[key] = extreme_cycles(
                self.sys, self.dual, max_period=max_period
            )
        return self._cache[key]

    def spectrum(self, level: int):
        key = ("spectrum", level)
        if key not in self._cache:
            from .cycles_spectrum import spectrum_from_cycles

            self._cache[key] = spectrum_from_cycles(
                self.dual, self.extreme(), level
            )
        return self._cache[key]


@_register("hadamard")
def _chk_hadamard(ctx: _Ctx, spec: dict):
    triple = check_hadamard(ctx.sys.R, ctx.sys.digits, ctx.freqs)
    ok = triple.certified == spec.get("expect_certified", True)
    ok = ok and triple.defect <= spec.get("max_defect", 1e-12)
    return ok, {"certified": triple.certified, "defect": triple.defect}


@_register("zeros")
def _chk_zeros(ctx: _Ctx, spec: dict):
    zs = ctx.zeros()
    want = tuple(sorted(parse_vec(p) for p in spec.get("expect_points", [])))
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
def _chk_zeros_invariant(ctx: _Ctx, spec: dict):
    zs = ctx.zeros()
    inv = is_invariant(ctx.s_matrix, zs.points)
    return inv == spec.get("expect", True), {"invariant": inv}


@_register("finite_bound")
def _chk_finite_bound(ctx: _Ctx, spec: dict):
    rep = finite_bound(ctx.s_matrix, ctx.zeros().points)
    ok = rep.size == spec["expect_size"] and rep.bound == spec["expect_bound"]
    return ok, {"size": rep.size, "bound": rep.bound}


@_register("distance_bound")
def _chk_distance_bound(ctx: _Ctx, spec: dict):
    rep = orbit_distance_bound(ctx.s_matrix, ctx.zeros())
    ok = (
        rep.delta_sq == parse_frac(spec["expect_delta_sq"])
        and rep.bound == spec["expect_bound"]
        and bool(rep.note) == spec.get("expect_note", False)
    )
    return ok, {
        "delta_sq": rep.delta_sq,
        "bound": rep.bound,
        "note": rep.note,
    }


@_register("orbit")
def _chk_orbit(ctx: _Ctx, spec: dict):
    res = orbit(ctx.s_matrix, parse_vec(spec["x"]))
    ok = res.period == spec["expect_period"] and res.preperiod == spec.get(
        "expect_preperiod", 0
    )
    return ok, {"period": res.period, "preperiod": res.preperiod}


@_register("extreme_cycles")
def _chk_extreme_cycles(ctx: _Ctx, spec: dict):
    cycles = ctx.extreme(max_period=spec.get("max_period", 12))
    got = {frozenset(c.points) for c in cycles}
    want = {
        frozenset(parse_vec(p) for p in cyc) for cyc in spec["expect"]
    }
    ok = got == want
    if ok and spec.get("cross_check_words"):
        from .cycles_spectrum import classify_extreme, find_cycles_by_words

        wcycles = classify_extreme(
            ctx.sys, find_cycles_by_words(ctx.dual, max_period=6)
        )
        ok = {frozenset(c.points) for c in wcycles if c.extreme} == want
    return ok, {"cycles": [sorted(c.points) for c in cycles]}


@_register("spectrum")
def _chk_spectrum(ctx: _Ctx, spec: dict):
    ss = ctx.spectrum(spec["level"])
    want = tuple(sorted(parse_vec(v) for v in spec["expect"]))
    return ss.elements == want, {"size": ss.size, "elements": ss.elements}


@_register("spectrum_range_1d")
def _chk_spectrum_range(ctx: _Ctx, spec: dict):
    ss = ctx.spectrum(spec["level"])
    vals = sorted(v[0] for v in ss.elements)
    want = [Fraction(k) for k in range(spec["lo"], spec["hi"] + 1)]
    return vals == want, {"size": ss.size, "lo": min(vals), "hi": max(vals)}


@_register("pairs_orthogonal")
def _chk_pairs(ctx: _Ctx, spec: dict):
    ss = ctx.spectrum(spec["level"])
    rep = certify_all_pairs(ctx.sys, ss.elements)
    ok = rep.all_orthogonal == spec.get("expect_all", True)
    return ok, {
        "pairs": rep.n_pairs,
        "certified": rep.certified,
        "undetermined": rep.undetermined,
    }


@_register("q_range")
def _chk_q_range(ctx: _Ctx, spec: dict):
    ss = ctx.spectrum(spec["level"])
    rep = completeness_q(ctx.sys, ss.elements, samples=spec.get("samples", 8))
    ok = rep.q_min >= spec["lo"] and rep.q_max <= 1.0 + rep.error_bound + 1e-8
    return ok, {
        "q_min": rep.q_min,
        "q_max": rep.q_max,
        "error_bound": rep.error_bound,
    }


@_register("family_size")
def _chk_family_size(ctx: _Ctx, spec: dict):
    grid = rational_grid_1d(spec["max_den"], spec["lo"], spec["hi"])
    rep = max_orthogonal_family(ctx.sys, grid)
    ok = rep.size == spec["expect"] and rep.certified_maximum
    return ok, {
        "size": rep.size,
        "grid": rep.grid_size,
        "certified_maximum": rep.certified_maximum,
        "family": rep.family,
    }


@_register("has_zero_weighted")
def _chk_hzw(ctx: _Ctx, spec: dict):
    got = has_zero_weighted(ctx.sys)
    return got == spec["expect"], {"has_zero": got}


@_register("min_sum")
def _chk_min_sum(ctx: _Ctx, spec: dict):
    p = int(ctx.sys.R.rows[0][0])
    rep = min_sum_report(p, ctx.sys.dim, spec["n_max"])
    ok = rep.verdict == spec["expect_verdict"]
    if "min_scaled" in spec and rep.scaled_inf is not None:
        ok = ok and rep.scaled_inf >= spec["min_scaled"]
    if "zero_at" in spec:
        ok = ok and rep.values[spec["zero_at"] - 1].exact_zero
    return ok, rep.describe()


@_register("invariance_residual")
def _chk_invariance(ctx: _Ctx, spec: dict):
    val = invariance_residual(ctx.sys, parse_vec(spec["x"]))
    return val <= spec["max"], {"residual": val}


@_register("normalization")
def _chk_normalization(ctx: _Ctx, spec: dict):
    worst = max(
        normalization_residual(ctx.sys, ctx.dual, x)
        for x in halton_points(spec.get("samples", 8), ctx.sys.dim)
    )
    return worst <= spec["max"], {"max_residual": worst}


@_register("block_root")
def _chk_block_root(ctx: _Ctx, spec: dict):
    p = int(ctx.sys.R.rows[0][0])
    rep = block_root_family(
        p, ctx.sys.dim, spec["blocks"], count=spec.get("count", 4)
    )
    ok = rep.z0 == parse_vec(spec["expect_z0"])
    ok = ok and rep.z0_is_zero and rep.all_certified
    k = 0
    for i in range(len(rep.family)):
        for j in range(i + 1, len(rep.family)):
            ok = ok and rep.certificates[k].vanishing_index == i + 1
            k += 1
    return ok, {
        "z0": rep.z0,
        "z0_is_zero": rep.z0_is_zero,
        "all_certified": rep.all_certified,
    }


@_register("probe")
def _chk_probe(ctx: _Ctx, spec: dict):
    rep = conjecture_probe(ctx.sys, ctx.freqs)
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

    def as_dict(self) -> dict:
        return to_jsonable(self)


def run_entry(entry) -> EntryReport:
    doc = load_entry(entry) if isinstance(entry, str) else entry
    ctx = _Ctx(doc)
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
            ok, detail = fn(ctx, spec)
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
