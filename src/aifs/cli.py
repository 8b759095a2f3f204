"""Command-line interface.

Every subcommand prints a single JSON report to stdout: an envelope with the
tool version, the command name, and a hash of the parsed input, followed by
the command's payload. Rational numbers appear as "p/q" strings so reports
round-trip exactly. Point clouds (attractor, spectrum) can additionally be
written as CSV.

Exit codes:
    0   the requested check passed / the computation succeeded
    1   a negative verdict (failed certification, failing catalog entry,
        counterexample evidence)
    2   usage errors: bad arguments, unreadable input, unsuitable system
    3   a budget or exactness limit prevented a definite answer, or the
        zero set `bound` would start from is not known to be complete
"""

from __future__ import annotations

import argparse
import csv
import json
import sys as _sys
from functools import cache

from . import __version__
from .errors import AifsError, BudgetExceeded, ExactnessUnavailable
from .fourier import TruncationPolicy, eval_mu_hat
from .hadamard import check_hadamard, conjecture_probe
from .ifs_core import CLOUD_DEPTH, attractor
from .linalg_exact import fvec
from .serialize import (
    frequencies_from_dict,
    report_envelope,
    system_from_dict,
    to_jsonable,
)
from .torus_dynamics import (
    find_zeros,
    finite_bound,
    min_sum_report,
    orbit,
    orbit_distance_bound,
)
from .verify import Analysis, completeness_q

USAGE_ERRORS = (AifsError, ValueError, KeyError, OSError)
LIMIT_ERRORS = (BudgetExceeded, ExactnessUnavailable)


def _load_system(path: str):
    with open(path) as fh:
        doc = json.load(fh)
    return doc, system_from_dict(doc), frequencies_from_dict(doc)


def _require_freqs(freqs):
    if freqs is None:
        raise AifsError('the system file needs a "frequencies" list')
    return freqs


def _load_analysis(args):
    doc, sys, freqs = _load_system(args.system)
    an = Analysis(
        sys, _require_freqs(freqs), max_period=args.max_period, via=args.via
    )
    return doc, an


def _parse_point(text: str):
    try:
        return fvec([c.strip() for c in text.split(",")])
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise AifsError("bad --x value %r: %s" % (text, exc)) from None


def _at_least(low, kind=int, strict: bool = False):
    """An argparse type: a ``kind`` number no smaller than ``low`` (greater,
    if ``strict``); a float NaN fails every comparison, so it is refused."""
    def parse(text: str):
        x = kind(text)
        if not (x > low if strict else x >= low):
            raise argparse.ArgumentTypeError(
                "must be %s %s" % ("greater than" if strict else "at least", low)
            )
        return x
    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


def _write_csv(path: str, rows, header) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (input_doc, payload, exit_code)


def _cmd_check_hadamard(args):
    doc, sys, freqs = _load_system(args.system)
    triple = check_hadamard(sys.R, sys.digits, _require_freqs(freqs))
    payload = {
        "certified": triple.certified,
        "defect": triple.defect,
        "size": triple.size,
        "ok": triple.certified,
    }
    # an exact certificate stands whatever the float defect; --tol only
    # tells a numerically non-unitary matrix from an uncertified one
    if triple.certified:
        rc = 0
    elif triple.defect > args.tol:
        rc = 1  # numerically not unitary
    else:
        rc = 3  # small defect but no exact certificate
    return doc, {"hadamard": payload}, rc


def _cmd_attractor(args):
    doc, sys, _ = _load_system(args.system)
    cloud = attractor(
        sys,
        depth=args.depth,
        mode="chaos" if args.chaos else "deterministic",
        count=args.count,
        seed=args.seed,
    )
    pts = cloud.as_floats()
    if args.csv:
        _write_csv(
            args.csv, pts.tolist(), ["x%d" % i for i in range(sys.dim)]
        )
    payload = {
        "points": len(pts),
        "mode": cloud.mode,
        "depth": cloud.depth,
        "min": pts.min(axis=0).tolist(),
        "max": pts.max(axis=0).tolist(),
        "csv": args.csv,
    }
    return doc, {"attractor": payload}, 0


def _cmd_mu_hat(args):
    doc, sys, _ = _load_system(args.system)
    x = _parse_point(args.x)
    policy = TruncationPolicy(max_terms=args.max_terms, tail_bound=args.tail)
    val = eval_mu_hat(sys, x, policy)
    payload = {
        "x": x,
        "value": val.value,
        "abs": abs(val.value),
        "error_radius": val.error_radius,
        "exact_zero": val.exact_zero,
        "terms_used": val.terms_used,
    }
    return doc, {"mu_hat": payload}, 0


def _cmd_zeros(args):
    doc, sys, _ = _load_system(args.system)
    zs = find_zeros(sys)
    payload = {
        "points": zs.points,
        "families": [f.describe() for f in zs.families],
        "complete": zs.complete,
        "tag": zs.tag,
        "numeric_points": [list(p) for p in zs.numeric_points],
    }
    rc = 3 if zs.tag == "unavailable" else 0
    return doc, {"zeros": payload}, rc


def _cmd_orbit(args):
    doc, sys, _ = _load_system(args.system)
    x = _parse_point(args.x)
    res = orbit(sys.R.transpose(), x, max_iter=args.max_iter)
    payload = {
        "x": x,
        "preperiod": res.preperiod,
        "period": res.period,
        "periodic": res.periodic,
        "cycle": res.cycle,
        "orbit_size": len(res.points),
    }
    return doc, {"orbit": payload}, 0


def _cmd_bound(args):
    doc, sys, _ = _load_system(args.system)
    zs = find_zeros(sys)
    s = sys.R.transpose()
    payload = {"zero_tag": zs.tag, "complete": zs.complete}
    if not zs.complete:
        return doc, {"bound": payload}, 3
    if zs.families:
        rep = orbit_distance_bound(s, zs)
        payload["route"] = "distance"
        payload["delta_sq"] = rep.delta_sq
        payload["bound"] = rep.bound
        payload["note"] = rep.note
    else:
        rep = finite_bound(s, zs.points)
        payload["route"] = "finite-orbit"
        payload["orbit_closure_size"] = rep.size
        payload["bound"] = rep.bound
        payload["contains_zero"] = rep.contains_zero
    return doc, {"bound": payload}, 0


def _cmd_dn(args):
    rep = min_sum_report(args.p, args.d, args.n_max)
    doc = {"p": args.p, "d": args.d, "n_max": args.n_max}
    return doc, {"min_sum": rep.describe()}, 0


def _cmd_cycles(args):
    doc, an = _load_analysis(args)
    payload = {
        "via": args.via,
        "count": len(an.extreme),
        "cycles": [
            {"points": list(c.points), "period": c.period} for c in an.extreme
        ],
    }
    return doc, {"extreme_cycles": payload}, 0


def _cmd_spectrum(args):
    doc, an = _load_analysis(args)
    ss = an.spectrum(args.level)
    if args.csv:
        _write_csv(
            args.csv,
            [[float(c) for c in lam] for lam in ss.elements],
            ["l%d" % i for i in range(an.sys.dim)],
        )
    payload = {
        "level": ss.level,
        "size": ss.size,
        "cycles": len(an.extreme),
        "elements": ss.elements if ss.size <= args.print_cap else None,
        "csv": args.csv,
    }
    return doc, {"spectrum": payload}, 0


def _cmd_verify_onb(args):
    doc, an = _load_analysis(args)
    ss = an.spectrum(args.level)
    pairs = an.pair_report(args.level)
    qrep = completeness_q(an.sys, ss.elements, samples=args.samples)
    if pairs.not_orthogonal:
        verdict, rc = "not-orthogonal", 1
    elif pairs.undetermined:
        verdict, rc = "undetermined", 3
    elif not qrep.within_bessel:
        verdict, rc = "parseval-exceeded", 1
    else:
        verdict, rc = "orthogonal-certified", 0
    payload = {
        "level": ss.level,
        "size": ss.size,
        "pairs": pairs.n_pairs,
        "certified": pairs.certified,
        "not_orthogonal": pairs.not_orthogonal,
        "undetermined": pairs.undetermined,
        "bad_pairs": [list(map(list, p)) for p in pairs.bad_pairs],
        "q_min": qrep.q_min,
        "q_max": qrep.q_max,
        "q_error_bound": qrep.error_bound,
        "verdict": verdict,
    }
    return doc, {"verify_onb": payload}, rc


def _cmd_probe(args):
    doc, sys, freqs = _load_system(args.system)
    rep = conjecture_probe(
        sys,
        _require_freqs(freqs),
        level=args.level,
        samples=args.samples,
        pair_budget=args.pair_budget,
    )
    rc = 1 if "counterexample-evidence" in rep.verdicts else 0
    return doc, {"probe": to_jsonable(rep)}, rc


def _cmd_catalog(args):
    from . import catalog

    if args.action == "list":
        names = catalog.entry_names()
        return {"action": "list"}, {"catalog": {"entries": names}}, 0
    names = None if args.name in (None, "all") else [args.name]
    reports = catalog.run_all(names)
    ok = all(r.ok for r in reports)
    payload = {
        "entries": [to_jsonable(r) for r in reports],
        "ok": ok,
        "failed": [r.name for r in reports if not r.ok],
    }
    return {"action": "run", "name": args.name or "all"}, {
        "catalog": payload
    }, (0 if ok else 1)


# ---------------------------------------------------------------------------
# parser


@cache  # built once per process; parse_args keeps no state between calls
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="aifs",
        description="Orthogonal exponentials and orbit analysis for affine "
        "iterated function systems.",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, help, parents=()):
        sp = sub.add_parser(name, help=help, parents=parents)
        sp.set_defaults(func=fn)
        return sp

    # the staged analysis behind cycles, spectrum and verify-onb
    analysis = argparse.ArgumentParser(add_help=False)
    analysis.add_argument("--via", choices=("box", "words"), default="box")
    analysis.add_argument("--max-period", type=_at_least(1), default=12)

    sp = add("check-hadamard", _cmd_check_hadamard,
             "certify a digit/frequency pair as a unitary symbol matrix")
    sp.add_argument("system", help="system JSON with a frequencies list")
    sp.add_argument("--tol", type=_at_least(0, float), default=1e-9)

    sp = add("attractor", _cmd_attractor, "sample the attractor point cloud")
    sp.add_argument("system")
    sp.add_argument("--depth", type=_at_least(0), default=CLOUD_DEPTH)
    sp.add_argument("--chaos", action="store_true",
                    help="seeded random orbit instead of full words")
    sp.add_argument("--count", type=_at_least(1), default=4096,
                    help="points in chaos mode")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--csv", help="write the cloud to this CSV file")

    sp = add("mu-hat", _cmd_mu_hat,
             "evaluate the measure transform with certified error")
    sp.add_argument("system")
    sp.add_argument("--x", required=True, help='point, e.g. "1/3,2/5"')
    sp.add_argument("--max-terms", type=_at_least(1), default=64)
    sp.add_argument("--tail", type=_at_least(0, float, strict=True), default=1e-12)

    sp = add("zeros", _cmd_zeros, "zero set of the symbol on the torus")
    sp.add_argument("system")

    sp = add("orbit", _cmd_orbit,
             "orbit of a point under the transposed integer action")
    sp.add_argument("system")
    sp.add_argument("--x", required=True)
    sp.add_argument("--max-iter", type=_at_least(1), default=100_000)

    sp = add("bound", _cmd_bound,
             "bound the size of mutually orthogonal exponential families")
    sp.add_argument("system")

    sp = add("dn", _cmd_dn,
             "scaled minima of unit sums at scales p^n (obstruction scan)")
    sp.add_argument("--p", type=_at_least(2), required=True)
    sp.add_argument("--d", type=_at_least(1), required=True)
    sp.add_argument("--n-max", type=_at_least(1), default=3)

    sp = add("cycles", _cmd_cycles, "extreme cycles of the dual system",
             [analysis])
    sp.add_argument("system")

    sp = add("spectrum", _cmd_spectrum,
             "candidate spectrum generated from extreme cycles", [analysis])
    sp.add_argument("system")
    sp.add_argument("--level", type=_at_least(0), required=True)
    sp.add_argument("--csv")
    sp.add_argument("--print-cap", type=_at_least(0), default=4096,
                    help="omit elements from JSON above this size")

    sp = add("verify-onb", _cmd_verify_onb,
             "certify pairwise orthogonality and Parseval completeness",
             [analysis])
    sp.add_argument("system")
    sp.add_argument("--level", type=_at_least(0), required=True)
    sp.add_argument("--samples", type=_at_least(1), default=16)

    sp = add("probe-conjecture", _cmd_probe,
             "experimental two-sided spectral-pair probe")
    sp.add_argument("system")
    sp.add_argument("--level", type=_at_least(0), default=None)
    sp.add_argument("--samples", type=_at_least(1), default=16)
    sp.add_argument("--pair-budget", type=_at_least(1), default=300)

    sp = add("catalog", _cmd_catalog, "run the bundled example catalog")
    sp.add_argument("action", choices=("list", "run"))
    sp.add_argument("name", nargs="?", default=None,
                    help='entry name or "all"')

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc, payload, rc = args.func(args)
    except LIMIT_ERRORS as exc:
        print("limit: %s" % exc, file=_sys.stderr)
        return 3
    except USAGE_ERRORS as exc:
        print("error: %s" % exc, file=_sys.stderr)
        return 2
    json.dump(report_envelope(args.command, doc, payload), _sys.stdout, indent=1)
    _sys.stdout.write("\n")
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
