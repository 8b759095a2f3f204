"""Seeded job lists for the three workloads, and the references that judge
every verdict.

A job is one closed-loop call into ``aifs``: a CLI invocation through
``aifs.cli.main`` with stdout captured, or a library call. The seed decides
the inputs (entry order, generated systems, grid offsets); the library sees
only the generated inputs. The job-mix shape -- denominators, spectrum
levels, grid sizes -- is fixed per workload, so two seeds load the same
layers the same way and a claim can be rechecked on a held-out seed.

References never come from ``aifs`` itself: catalog verdicts are compared
with the frozen expectations in ``src/aifs/data``; generated candidates are
judged by a numpy float unitarity defect with a clear margin, by orbit
periods from elementary number theory, and by theorems about where the
transform and the symbol vanish.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

# ---------------------------------------------------------------------------
# jobs


@dataclass
class Job:
    """One call into the library and the reference its verdict must match.

    ``argv`` runs through ``aifs.cli.main``; otherwise ``call`` is a library
    job taking no arguments. ``spec`` is the job as data (it feeds the job
    list digest) and ``shape`` the part of it that no seed may change.
    """

    label: str
    spec: dict
    shape: tuple
    ref: dict
    argv: list | None = None
    call: object = None
    files: dict = field(default_factory=dict)
    verdicts: int = 1  # verdicts the job returns (checks, for the catalog)


@dataclass
class Outcome:
    rc: int | None
    output: object
    error: str | None


def run_job(job: Job) -> Outcome:
    """Run one job; a crash is an outcome, never an exception."""
    import aifs.cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if job.argv is not None:
                rc = aifs.cli.main(job.argv)
                return Outcome(rc, out.getvalue(), None)
            return Outcome(0, job.call(), None)
    except (Exception, SystemExit) as exc:  # a crashed job is a failed job
        return Outcome(None, None, "%s: %s" % (type(exc).__name__, exc))


def check(job: Job, outcome: Outcome) -> list:
    """Problems with one outcome against its reference, one per wrong
    verdict (empty when every verdict is right)."""
    if outcome.error is not None:
        return [outcome.error] * job.verdicts
    try:
        problems = _CHECKERS[job.ref["check"]](job.ref, outcome)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return ["unreadable output: %s: %s" % (type(exc).__name__, exc)] * job.verdicts
    return problems[:job.verdicts]


def digest(jobs) -> str:
    blob = json.dumps([[j.label, j.spec, j.files] for j in jobs], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def shape(jobs) -> str:
    blob = json.dumps(sorted(map(list, (j.shape for j in jobs))))
    return hashlib.sha256(blob.encode()).hexdigest()


def write_files(jobs, workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for job in jobs:
        for name, text in job.files.items():
            (workdir / name).write_text(text)


def prepare(workload: str, seed: int, root: Path, workdir: Path) -> list:
    """Generate the job list, write its system files and validate every
    generated system with the library's constructor (which runs
    ``check_expansive``)."""
    rng = random.Random("%s:%d" % (workload, seed))
    jobs = _BUILDERS[workload](rng, root, workdir)
    write_files(jobs, workdir)
    from aifs.serialize import system_from_dict

    for job in jobs:
        for text in job.files.values():
            system_from_dict(json.loads(text))
        for doc in job.spec.get("systems", ()):
            system_from_dict(doc)
    return jobs


# ---------------------------------------------------------------------------
# small exact helpers (the references' own arithmetic)


def fstr(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else "%d/%d" % (
        x.numerator, x.denominator)


def _mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def _mat_vec(a, v):
    return [sum(a[i][k] * v[k] for k in range(len(v))) for i in range(len(a))]


def _transpose(a):
    return [list(r) for r in zip(*a)]


def _inverse2(a):
    det = Fraction(a[0][0] * a[1][1] - a[0][1] * a[1][0])
    return [[a[1][1] / det, -a[0][1] / det], [-a[1][0] / det, a[0][0] / det]]


def _system_doc(name, matrix, digits, freqs=None) -> dict:
    doc = {
        "name": name,
        "matrix": [[fstr(e) for e in row] for row in matrix],
        "digits": [[fstr(c) for c in b] for b in digits],
    }
    if freqs is not None:
        doc["frequencies"] = [[fstr(c) for c in l] for l in freqs]
    return doc


def _parse(x) -> Fraction:
    return Fraction(str(x))


def _parse_vec(v) -> tuple:
    return tuple(_parse(c) for c in v)


# ---------------------------------------------------------------------------
# catalog: every bundled entry through `aifs catalog run <entry>`


def _build_catalog(rng, root: Path, workdir: Path) -> list:
    """The whole catalog in one `aifs catalog run all` job. The CLI fixes
    the entry order, so the seed changes nothing here."""
    data = root / "src" / "aifs" / "data"
    frozen = [json.loads(p.read_text()) for p in sorted(data.glob("*.json"))]
    argv = ["catalog", "run", "all"]
    checks = sum(len(doc["checks"]) for doc in frozen)
    return [Job(
        label="catalog:all",
        spec={"argv": argv, "systems": [doc["system"] for doc in frozen]},
        shape=("catalog", len(frozen), checks),
        ref={"check": "catalog", "frozen": {doc["name"]: doc for doc in frozen}},
        argv=argv,
        verdicts=checks,
    )]


def _same_points(got, want) -> bool:
    return sorted(_parse_vec(p) for p in got) == sorted(_parse_vec(p) for p in want)


def _frozen_detail_problems(spec: dict, d: dict) -> list:
    """Compare a check's reported detail with its frozen expectation."""
    kind = spec["kind"]
    ok = True
    if kind == "hadamard":
        ok = (d["certified"] == spec.get("expect_certified", True)
              and d["defect"] <= spec.get("max_defect", 1e-12))
    elif kind == "zeros":
        ok = (_same_points(d["points"], spec.get("expect_points", []))
              and d["complete"] == spec.get("expect_complete", True)
              and d["families"] == spec.get("expect_families", 0))
    elif kind == "zeros_invariant":
        ok = d["invariant"] == spec.get("expect", True)
    elif kind == "finite_bound":
        ok = d["size"] == spec["expect_size"] and d["bound"] == spec["expect_bound"]
    elif kind == "distance_bound":
        ok = (_parse(d["delta_sq"]) == _parse(spec["expect_delta_sq"])
              and d["bound"] == spec["expect_bound"]
              and bool(d["note"]) == spec.get("expect_note", False))
    elif kind == "orbit":
        ok = (d["period"] == spec["expect_period"]
              and d["preperiod"] == spec.get("expect_preperiod", 0))
    elif kind == "extreme_cycles":
        got = {frozenset(_parse_vec(p) for p in c) for c in d["cycles"]}
        want = {frozenset(_parse_vec(p) for p in c) for c in spec["expect"]}
        ok = got == want
    elif kind == "spectrum":
        ok = _same_points(d["elements"], spec["expect"]) and d["size"] == len(
            spec["expect"])
    elif kind == "spectrum_range_1d":
        ok = (d["size"] == spec["hi"] - spec["lo"] + 1
              and _parse(d["lo"]) == spec["lo"] and _parse(d["hi"]) == spec["hi"])
    elif kind == "pairs_orthogonal":
        ok = (d["certified"] == d["pairs"]) == spec.get("expect_all", True)
    elif kind == "q_range":
        ok = (d["q_min"] >= spec["lo"]
              and d["q_max"] <= 1.0 + d["error_bound"] + 1e-8)
    elif kind == "family_size":
        ok = d["size"] == spec["expect"] and d["certified_maximum"]
    elif kind == "has_zero_weighted":
        ok = d["has_zero"] == spec["expect"]
    elif kind == "min_sum":
        ok = d["verdict"] == spec["expect_verdict"]
        if "zero_at" in spec:
            ok = ok and d["values"][spec["zero_at"] - 1]["exact_zero"]
    elif kind == "invariance_residual":
        ok = d["residual"] <= spec["max"]
    elif kind == "normalization":
        ok = d["max_residual"] <= spec["max"]
    elif kind == "block_root":
        ok = (_parse_vec(d["z0"]) == _parse_vec(spec["expect_z0"])
              and d["z0_is_zero"] and d["all_certified"])
    elif kind == "probe":
        ok = list(d["verdicts"]) == list(spec["expect"])
    return [] if ok else ["%s differs from the frozen expectation" % kind]


def _check_catalog(ref, outcome) -> list:
    """One problem per check whose verdict differs from the frozen data."""
    n_checks = sum(len(doc["checks"]) for doc in ref["frozen"].values())
    if outcome.rc != 0:
        return ["exit code %r" % outcome.rc] * n_checks
    entries = {e["name"]: e for e in json.loads(outcome.output)["catalog"]["entries"]}
    problems = []
    for name, frozen in ref["frozen"].items():
        specs = frozen["checks"]
        got = entries.get(name, {}).get("checks", [])
        if [c["kind"] for c in got] != [spec["kind"] for spec in specs]:
            problems += ["%s: check list differs from the frozen entry" % name] * len(specs)
            continue
        for spec, check_ in zip(specs, got):
            if not check_["ok"] or "error" in check_["detail"]:
                problems.append("%s: %s failed: %s" % (name, spec["kind"], check_["detail"]))
            else:
                problems += ["%s: %s" % (name, p)
                             for p in _frozen_detail_problems(spec, check_["detail"])]
    return problems


# ---------------------------------------------------------------------------
# onb: verify-onb on bundled compatible pairs, and maximum orthogonal
# families on one-dimensional rational grids

#: (entry, level): spectra of 256 to 1024 elements; d3-p4 L4 is 32,640 pairs.
#: Only multi-second jobs: a job's run-to-run spread falls with its length
#: on a host whose speed swings over seconds, and the median job sets p50.
ONB_SPECTRA = (("d3-p4", 4), ("d3-p2", 3), ("cantor4", 10))
#: (scale p, max denominator, half width): p odd, digits {0, 1}; acceptance
#: criterion 5's grid (48,601 points)
ONB_GRIDS = ((3, 54, 27),)


def _grid(max_den: int, lo: int, hi: int) -> list:
    """All rationals a/q in [lo, hi] with q <= max_den, sorted. Distinct
    points are at least 1/max_den^2 apart, so float keys order them."""
    pts = [(a / q, a, q) for q in range(1, max_den + 1)
           for a in range(lo * q, hi * q + 1) if math.gcd(a, q) == 1]
    pts.sort()
    return [Fraction(a, q) for _, a, q in pts]


def _family_job(p: int, max_den: int, half: int, shift: int) -> Job:
    """Maximum orthogonal family for the measure of x -> (x + {0, 1}) / p.

    Reference (p odd): the symbol 1 + e(x) vanishes on the torus only at
    1/2, which x -> p x fixes, so the finite-orbit bound caps any
    orthogonal family at 1 + 1 = 2 members; g and g + p/2 are orthogonal
    because the first factor of the transform at p/2 is m(1/2) = 0. The
    grid is shifted by an integer, which keeps its difference set.
    """
    grid = _grid(max_den, shift - half, shift + half)
    members = set(grid)
    if not any(g + Fraction(p, 2) in members for g in grid):
        raise ValueError("grid holds no orthogonal pair; the reference needs one")
    points = [(g,) for g in grid]

    def call():
        from aifs import ifs_core, linalg_exact, verify

        sys_ = ifs_core.AffineSystem(
            R=linalg_exact.Matrix([[p]]), digits=((0,), (1,)))
        return verify.max_orthogonal_family(sys_, points)

    return Job(
        label="onb:family-p%d-den%d" % (p, max_den),
        spec={"family": [p, max_den, shift - half, shift + half],
              "grid": [fstr(g) for g in grid],
              "systems": [_system_doc("grid-p%d" % p, [[p]], [[0], [1]])]},
        shape=("family", p, max_den, 2 * half, len(grid)),
        ref={"check": "family", "p": p, "size": 2, "grid": len(grid)},
        call=call,
    )


def _build_onb(rng, root: Path, workdir: Path) -> list:
    data = root / "src" / "aifs" / "data"
    jobs = []
    for name, level in ONB_SPECTRA:
        doc = json.loads((data / (name + ".json")).read_text())["system"]
        fname = "onb-%s.json" % name
        argv = ["verify-onb", str(workdir / fname), "--level", str(level)]
        jobs.append(Job(
            label="onb:%s-L%d" % (name, level),
            spec={"argv": argv[:1] + [fname] + argv[2:]},
            shape=("verify-onb", name, level),
            ref={"check": "onb"},
            argv=argv,
            files={fname: json.dumps(doc, sort_keys=True)},
        ))
    for p, max_den, half in ONB_GRIDS:
        jobs.append(_family_job(p, max_den, half, rng.randint(-40, 40)))
    rng.shuffle(jobs)
    return jobs


def _check_onb(ref, outcome) -> list:
    """A spectrum grown from a certified triple is pairwise orthogonal, and
    its Parseval sums obey Bessel's inequality up to the truncation error."""
    if outcome.rc != 0:
        return ["exit code %r" % outcome.rc]
    r = json.loads(outcome.output)["verify_onb"]
    problems = []
    n = r["size"]
    if r["verdict"] != "orthogonal-certified":
        problems.append("verdict %s" % r["verdict"])
    if r["pairs"] != n * (n - 1) // 2 or r["certified"] != r["pairs"]:
        problems.append("%d of %d pairs certified" % (r["certified"], r["pairs"]))
    if r["q_max"] > 1.0 + r["q_error_bound"] + 1e-8:
        problems.append("Parseval sum %r exceeds Bessel" % r["q_max"])
    return problems


def _check_family(ref, outcome) -> list:
    rep = outcome.output
    problems = []
    if rep.size != ref["size"] or not rep.certified_maximum:
        problems.append("family size %d (certified maximum: %s), want %d"
                        % (rep.size, rep.certified_maximum, ref["size"]))
    if rep.grid_size != ref["grid"]:
        problems.append("grid size %d, want %d" % (rep.grid_size, ref["grid"]))
    # every difference must be p^n * odd / 2 with n >= 1
    pts = [Fraction(g[0]) for g in rep.family]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = abs(2 * (pts[i] - pts[j]))
            n = 0
            while d.denominator == 1 and d.numerator % ref["p"] == 0:
                d /= ref["p"]
                n += 1
            if n == 0 or d.denominator != 1 or d.numerator % 2 == 0:
                problems.append("pair %s, %s is not orthogonal" % (pts[i], pts[j]))
    return problems


# ---------------------------------------------------------------------------
# screen: generated candidate systems in d <= 2 through check-hadamard,
# mu-hat and orbit

#: common denominators for the vanishing sums: prime powers, squarefree
#: and mixed values. Dense sums at q >= 15015 take seconds each and stay out.
SUM_MENU = (
    256, 729, 1331, 2048, 2187, 2401, 3125, 4096,
    210, 330, 462, 1155, 2310, 2730, 3003, 6006, 10010,
    420, 660, 1540, 4620, 6930, 8190, 9240,
)
#: a Hadamard candidate at 5005 = 5*7*11*13 needs ten dense sums; mu-hat only
MU_ONLY = (5005,)
#: (denominator, scale) for orbit jobs; periods up to 2,500
ORBIT_MENU = (
    (243, 2), (625, 2), (1331, 3), (2401, 2), (4096, 3), (3125, 3),
    (210, 11), (2310, 13), (6006, 5), (10010, 3), (9240, 13), (4620, 7),
    (1155, 2), (3003, 2), (5005, 2),
)
#: (denominator, scale) of the second coordinate in d = 2: a power of the
#: scale, so it adds a preperiod and leaves the period alone
ORBIT_SECOND = ((8, 2), (9, 3), (25, 5), (4, 2), (27, 3))


def _spf(q: int) -> int:
    p = 2
    while q % p:
        p += 1
    return p


def _unit(rng, q: int) -> int:
    while True:
        u = rng.randint(1, q - 1)
        if math.gcd(u, q) == 1:
            return u


def _unimodular(rng):
    s, t = rng.randint(-3, 3), rng.randint(-3, 3)
    return [[1 + s * t, s], [t, 1]]


def _conjugated(rng, dim, scales):
    """R = U diag(scales) U^{-1} for a seeded unimodular U (dim 2), with U."""
    if dim == 1:
        return [[Fraction(scales[0])]], [[Fraction(1)]]
    u = [[Fraction(x) for x in row] for row in _unimodular(rng)]
    d = [[Fraction(scales[0]), Fraction(0)], [Fraction(0), Fraction(scales[1])]]
    return _mat_mul(_mat_mul(u, d), _inverse2(u)), u


def _embed(u, vec1):
    """(x, 0) mapped by u; the 1-D case passes through."""
    if len(u) == 1:
        return [Fraction(vec1)]
    return _mat_vec(u, [Fraction(vec1), Fraction(0)])


def _unitarity_defect(r, digits, freqs) -> float:
    """max |(H* H - I)_jk| for H_jk = e((R^{-1} b_j) . l_k) / sqrt(n)."""
    rinv = _inverse2(r) if len(r) == 2 else [[1 / Fraction(r[0][0])]]
    rb = [_mat_vec(rinv, b) for b in digits]
    phases = np.array([[float(sum(x * y for x, y in zip(v, l)) % 1) for l in freqs]
                       for v in rb])
    n = len(digits)
    h = np.exp(2j * np.pi * phases) / math.sqrt(n)
    return float(np.abs(h.conj().T @ h - np.eye(n)).max())


def _hadamard_job(rng, idx, q, dim, compatible) -> Job:
    """Digits {b0 + j a : j < n} (n the least prime factor of q, a = q/n) and
    frequencies {l0 + k c}, c = m N / q with m = b0^{-1} mod q. Pair sums
    are then sum_j e((b0 + j a) dk m / q), dense at denominator q with the
    same exponents for every seed; multiplying c by n breaks unitarity."""
    n = _spf(q)
    a = q // n
    scale = rng.randint(2, 9)
    scales = (scale, rng.choice([s for s in range(2, 6) if s != scale]))
    r, u = _conjugated(rng, dim, scales)
    ut_inv = _transpose(_inverse2(u)) if dim == 2 else u
    while True:
        b0 = _unit(rng, q)
        m = pow(b0, -1, q)
        c = Fraction(m * scale, q) * (1 if compatible else n)
        l0 = rng.randint(-3, 3)
        digits = [_embed(u, b0 + j * a) for j in range(n)]
        freqs = [(_mat_vec(ut_inv, [l0 + k * c, Fraction(0)]) if dim == 2
                  else [l0 + k * c]) for k in range(n)]
        defect = _unitarity_defect(r, digits, freqs)
        if defect < 1e-9 or defect > 1e-6:  # reject the ambiguous band
            break
    fname = "screen-%03d.json" % idx
    doc = _system_doc(fname[:-5], r, digits, freqs)
    return Job(
        label="screen:check-hadamard:q%d" % q,
        spec={"argv": ["check-hadamard", fname], "defect": defect},
        shape=("check-hadamard", q, dim, n, compatible),
        ref={"check": "hadamard", "unitary": defect < 1e-9},
        files={fname: json.dumps(doc, sort_keys=True)},
    )


def _mu_hat_job(rng, idx, q, dim) -> Job:
    """mu^(S^k z) for a symbol zero z = u/q (embedded): the k-th factor of
    the product is m(z) = 0, so the transform is an exact zero. u is chosen
    so that the first factor's vanishing sum has the same exponents for
    every seed (b0 * N^(k-1) * u = 1 mod q)."""
    n = _spf(q)
    a = q // n
    scale = rng.choice([s for s in range(2, 14) if math.gcd(s, q) == 1])
    scales = (scale, rng.choice([s for s in range(2, 6) if s != scale]))
    r, u = _conjugated(rng, dim, scales)
    b0 = _unit(rng, q)
    k = rng.randint(1, 5)
    num = pow(b0 * pow(scale, k - 1, q), -1, q)
    z = Fraction(num, q) + rng.randint(-2, 2)
    digits = [_embed(u, b0 + j * a) for j in range(n)]
    xz = Fraction(scale) ** k * z
    x = _mat_vec(_transpose(_inverse2(u)), [xz, Fraction(0)]) if dim == 2 else [xz]
    fname = "screen-%03d.json" % idx
    doc = _system_doc(fname[:-5], r, digits)
    argv = ["mu-hat", fname, "--x=" + ",".join(fstr(c) for c in x)]
    return Job(
        label="screen:mu-hat:q%d" % q,
        spec={"argv": argv},
        shape=("mu-hat", q, dim, n),
        ref={"check": "mu_hat", "steps": k},
        files={fname: json.dumps(doc, sort_keys=True)},
    )


def _orbit_shape(q: int, scale: int) -> tuple:
    """(preperiod, period) of u/q under x -> scale * x mod 1, gcd(u, q) = 1.

    The denominator after k steps is q / gcd(q, scale^k); the orbit is
    periodic once that is coprime to the scale, and the period is the
    multiplicative order of the scale modulo the remaining denominator.
    """
    pre, rest = 0, q
    while math.gcd(rest, scale) > 1:
        rest //= math.gcd(rest, scale)
        pre += 1
    period, acc = 1, scale % rest if rest > 1 else 0
    while rest > 1 and acc != 1:
        acc = acc * scale % rest
        period += 1
    return pre, period


def _orbit_job(rng, idx, q, scale, dim, second) -> Job:
    """Orbit of U^{-T} y under S = U^{-T} D U^T mod Z^d, D = diag(scales):
    U^T is unimodular, so the orbit has the periods of y under D, which
    are the per-coordinate ones combined by max (preperiod) and lcm."""
    scales = (scale, second[1])
    r, u = _conjugated(rng, dim, scales)
    y = [Fraction(_unit(rng, q), q) + rng.randint(-2, 2)]
    pre, period = _orbit_shape(q, scale)
    if dim == 2:
        q2, s2 = second
        y.append(Fraction(_unit(rng, q2), q2))
        pre2, period2 = _orbit_shape(q2, s2)
        pre, period = max(pre, pre2), math.lcm(period, period2)
        x = _mat_vec(_transpose(_inverse2(u)), y)
        digits = [[0, 0], [1, 0], [0, 1]]
    else:
        x = y
        digits = [[0], [1]]
    fname = "screen-%03d.json" % idx
    doc = _system_doc(fname[:-5], r, digits)
    argv = ["orbit", fname, "--x=" + ",".join(fstr(c) for c in x)]
    return Job(
        label="screen:orbit:q%d" % q,
        spec={"argv": argv},
        shape=("orbit", q, scale, dim, period),
        ref={"check": "orbit", "preperiod": pre, "period": period},
        files={fname: json.dumps(doc, sort_keys=True)},
    )


def _build_screen(rng, root: Path, workdir: Path) -> list:
    slots = []
    for q in SUM_MENU:
        slots += [("hadamard", q, True), ("hadamard", q, True),
                  ("hadamard", q, False), ("mu", q, None), ("mu", q, None)]
    for q in MU_ONLY:
        slots += [("mu", q, None), ("mu", q, None)]
    for i, (q, scale) in enumerate(ORBIT_MENU):
        slots += [("orbit", q, (scale, ORBIT_SECOND[i % len(ORBIT_SECOND)]))] * 2
    jobs = []
    for idx, (kind, q, extra) in enumerate(slots):
        dim = 1 + idx % 2
        if kind == "hadamard":
            job = _hadamard_job(rng, idx, q, dim, extra)
        elif kind == "mu":
            job = _mu_hat_job(rng, idx, q, dim)
        else:
            job = _orbit_job(rng, idx, q, extra[0], dim, extra[1])
        jobs.append(job)
    rng.shuffle(jobs)
    for job in jobs:  # the CLI reads the files from the work directory
        (fname,) = job.files
        job.argv = [job.spec["argv"][0], str(workdir / fname)] + job.spec["argv"][2:]
    return jobs


def _payload(outcome, key) -> dict:
    return json.loads(outcome.output)[key]


def _check_hadamard(ref, outcome) -> list:
    want_rc = 0 if ref["unitary"] else 1
    if outcome.rc != want_rc:
        return ["exit code %r, want %d" % (outcome.rc, want_rc)]
    got = _payload(outcome, "hadamard")
    if got["ok"] != ref["unitary"] or got["certified"] != ref["unitary"]:
        return ["verdict %s, float defect says unitary=%s" % (got, ref["unitary"])]
    return []


def _check_mu_hat(ref, outcome) -> list:
    if outcome.rc != 0:
        return ["exit code %r" % outcome.rc]
    got = _payload(outcome, "mu_hat")
    if not got["exact_zero"] or got["terms_used"] > ref["steps"]:
        return ["no exact zero within %d factors: %s" % (ref["steps"], got)]
    return []


def _check_orbit(ref, outcome) -> list:
    if outcome.rc != 0:
        return ["exit code %r" % outcome.rc]
    got = _payload(outcome, "orbit")
    if (got["preperiod"], got["period"]) != (ref["preperiod"], ref["period"]):
        return ["orbit (%s, %s), want (%s, %s)" % (
            got["preperiod"], got["period"], ref["preperiod"], ref["period"])]
    return []


_BUILDERS = {"catalog": _build_catalog, "onb": _build_onb, "screen": _build_screen}
_CHECKERS = {
    "catalog": _check_catalog,
    "onb": _check_onb,
    "family": _check_family,
    "hadamard": _check_hadamard,
    "mu_hat": _check_mu_hat,
    "orbit": _check_orbit,
}
