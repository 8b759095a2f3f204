"""The layers the traced run wraps, what it derives from them, and which
end-to-end metric each layer metric is expected to move.

Every layer is a public (or module-level) function of one ``aifs`` module;
span names follow ``<module>.<function>`` and metric names
``<module>.<function>.<stat>``. Hooks derive counts from a call's arguments
and result (words scanned, box candidates, spectrum sizes, ...).
"""

from __future__ import annotations

import inspect
from fractions import Fraction
from functools import lru_cache
from math import lcm


@lru_cache(maxsize=None)
def _signature(fn):
    return inspect.signature(fn)


def _arg(fn, args, kwargs, name):
    bound = _signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _vanishing_sum(tr, fn, args, kwargs, result):
    q = 1
    for a in _arg(fn, args, kwargs, "phases"):
        q = lcm(q, Fraction(a).denominator)
    tr.maximum("cyclotomy.vanishing_sum.max_q", q)


def _words(tr, fn, args, kwargs, result):
    n = _arg(fn, args, kwargs, "sys_dual").n_digits
    m = _arg(fn, args, kwargs, "max_period")
    tr.count("cycles_spectrum.find_cycles_by_words.words",
             sum(n**k for k in range(1, m + 1)))
    tr.count("cycles_spectrum.find_cycles_by_words.cycles", len(result))


def _box_points(tr, fn, args, kwargs, result):
    tr.count("cycles_spectrum.enumerate_box_points.points", len(result))


def _cycles_in_box(tr, fn, args, kwargs, result):
    tr.count("box.candidates", len(_arg(fn, args, kwargs, "candidates")))
    tr.count("box.cycle_points", sum(c.period for c in result))


def _spectrum(tr, fn, args, kwargs, result):
    tr.count("cycles_spectrum.spectrum_from_cycles.elements", result.size)


def _pair(tr, fn, args, kwargs, result):
    if result.vanishing_index is not None:
        tr.count("pair.index_sum", result.vanishing_index)
        tr.count("pair.index_n")


def _all_pairs(tr, fn, args, kwargs, result):
    tr.count("certify_all_pairs.pairs", result.n_pairs)


def _difference_set(tr, fn, args, kwargs, result):
    tr.count("verify._certified_difference_set.size", len(result))


#: (span name, home module, attribute path, hook). A dotted attribute path
#: names a method, patched on its class.
LAYERS = (
    ("cyclotomy.vanishing_sum", "aifs.cyclotomy", "vanishing_sum", _vanishing_sum),
    ("linalg_exact.Matrix.mat_vec", "aifs.linalg_exact", "Matrix.mat_vec", None),
    ("linalg_exact.Matrix.pow", "aifs.linalg_exact", "Matrix.pow", None),
    ("linalg_exact.Matrix.inverse", "aifs.linalg_exact", "Matrix.inverse", None),
    ("linalg_exact.check_expansive", "aifs.linalg_exact", "check_expansive", None),
    ("ifs_core.AffineSystem.init", "aifs.ifs_core", "AffineSystem.__post_init__", None),
    ("ifs_core.bounding_box", "aifs.ifs_core", "bounding_box", None),
    ("fourier.eval_symbol", "aifs.fourier", "eval_symbol", None),
    ("fourier.eval_mu_hat", "aifs.fourier", "eval_mu_hat", None),
    ("fourier.mu_hat_grid", "aifs.fourier", "mu_hat_grid", None),
    ("hadamard.check_hadamard", "aifs.hadamard", "check_hadamard", None),
    ("hadamard.conjecture_probe", "aifs.hadamard", "conjecture_probe", None),
    ("torus_dynamics.orbit", "aifs.torus_dynamics", "orbit", None),
    ("torus_dynamics.find_zeros", "aifs.torus_dynamics", "find_zeros", None),
    ("cycles_spectrum.enumerate_box_points", "aifs.cycles_spectrum",
     "enumerate_box_points", _box_points),
    ("cycles_spectrum.find_cycles_in_box", "aifs.cycles_spectrum",
     "find_cycles_in_box", _cycles_in_box),
    ("cycles_spectrum.find_cycles_by_words", "aifs.cycles_spectrum",
     "find_cycles_by_words", _words),
    ("cycles_spectrum.spectrum_from_cycles", "aifs.cycles_spectrum",
     "spectrum_from_cycles", _spectrum),
    ("verify.orthogonal_pair", "aifs.verify", "orthogonal_pair", _pair),
    ("verify.certify_all_pairs", "aifs.verify", "certify_all_pairs", _all_pairs),
    ("verify.max_orthogonal_family", "aifs.verify", "max_orthogonal_family", None),
    ("verify._certified_difference_set", "aifs.verify",
     "_certified_difference_set", _difference_set),
    ("verify._max_clique", "aifs.verify", "_max_clique", None),
    ("verify.completeness_q", "aifs.verify", "completeness_q", None),
    ("catalog.run_entry", "aifs.catalog", "run_entry", None),
    ("serialize.to_jsonable", "aifs.serialize", "to_jsonable", None),
    ("cli.main", "aifs.cli", "main", None),
)

#: layers that must record calls on a workload; a zero there means a
#: wrapper missed a binding site (or the workload lost its coverage)
PREDICTED_CALLS = {
    "catalog": (
        "cycles_spectrum.find_cycles_by_words",
        "linalg_exact.Matrix.pow",
        "linalg_exact.Matrix.inverse",
        "linalg_exact.Matrix.mat_vec",
        "verify.orthogonal_pair",
        "verify.certify_all_pairs",
        "hadamard.conjecture_probe",
        "torus_dynamics.find_zeros",
        "catalog.run_entry",
        "linalg_exact.check_expansive",
        "ifs_core.AffineSystem.init",
    ),
    "onb": (
        "cycles_spectrum.enumerate_box_points",
        "cycles_spectrum.find_cycles_in_box",
        "ifs_core.bounding_box",
        "cycles_spectrum.spectrum_from_cycles",
        "linalg_exact.Matrix.mat_vec",
        "verify.orthogonal_pair",
        "verify.certify_all_pairs",
        "verify.max_orthogonal_family",
        "verify._certified_difference_set",
        "verify._max_clique",
        "fourier.eval_symbol",
        "fourier.mu_hat_grid",
        "verify.completeness_q",
        "cyclotomy.vanishing_sum",
        "linalg_exact.check_expansive",
        "ifs_core.AffineSystem.init",
    ),
    "screen": (
        "cyclotomy.vanishing_sum",
        "fourier.eval_mu_hat",
        "hadamard.check_hadamard",
        "torus_dynamics.orbit",
        "linalg_exact.check_expansive",
        "ifs_core.AffineSystem.init",
        "serialize.to_jsonable",
        "cli.main",
    ),
}

#: which end-to-end metric each per-layer metric should move, on which
#: workload, and where it should stay flat
EXPECTED_MOVES = (
    {"layer": ["cyclotomy.vanishing_sum.{calls,self_s,max_q}",
               "cyclotomy.cyclotomic.misses"],
     "moves": ["wall_s", "job_p90_s"], "on": ["screen"], "flat_on": ["onb"]},
    {"layer": ["cycles_spectrum.find_cycles_by_words.{self_s,words,cycles}",
               "linalg_exact.Matrix.{pow,inverse}.calls"],
     "moves": ["wall_s"], "on": ["catalog"], "flat_on": ["onb", "screen"]},
    {"layer": ["cycles_spectrum.enumerate_box_points.points",
               "cycles_spectrum.find_cycles_in_box.self_s",
               "cycles_spectrum.box.useful_ratio", "ifs_core.bounding_box.self_s"],
     "moves": ["wall_s"], "on": ["onb"], "flat_on": ["catalog"]},
    {"layer": ["cycles_spectrum.spectrum_from_cycles.{self_s,elements}"],
     "moves": ["wall_s"], "on": ["onb"], "flat_on": ["screen"]},
    {"layer": ["linalg_exact.Matrix.mat_vec.{calls,self_s}"],
     "moves": ["wall_s"], "on": ["onb", "catalog"], "flat_on": []},
    {"layer": ["verify.orthogonal_pair.{calls,self_s,mean_index}",
               "verify.certify_all_pairs.memo_hit_ratio"],
     "moves": ["wall_s"], "on": ["onb", "catalog"], "flat_on": ["screen"]},
    {"layer": ["verify.max_orthogonal_family.self_s",
               "verify._certified_difference_set.{self_s,size}",
               "verify._max_clique.self_s"],
     "moves": ["wall_s"], "on": ["onb"], "flat_on": ["catalog"]},
    {"layer": ["fourier.eval_symbol.{calls,self_s,exact_ratio}",
               "fourier.mu_hat_grid.self_s", "verify.completeness_q.self_s"],
     "moves": ["wall_s"], "on": ["onb"], "flat_on": []},
    {"layer": ["fourier.eval_mu_hat.self_s", "hadamard.check_hadamard.{calls,self_s}",
               "torus_dynamics.orbit.{calls,self_s}"],
     "moves": ["wall_s", "job_p90_s"], "on": ["screen"], "flat_on": ["catalog"]},
    {"layer": ["hadamard.conjecture_probe.self_s", "torus_dynamics.find_zeros.self_s",
               "catalog.run_entry.self_s"],
     "moves": ["wall_s"], "on": ["catalog"], "flat_on": ["screen"]},
    {"layer": ["linalg_exact.check_expansive.{calls,self_s}",
               "ifs_core.AffineSystem.init.self_s"],
     "moves": ["setup_s", "job_p50_s"], "on": ["catalog", "onb", "screen"],
     "flat_on": []},
    {"layer": ["serialize.to_jsonable.self_s", "cli.main.self_s"],
     "moves": ["job_p50_s"], "on": ["screen"], "flat_on": []},
)


def _ratio(num, den):
    return num / den if den else 0.0


def pass_metrics(summary: dict, counters: dict, cyclotomic_misses: int) -> dict:
    """Per-layer metrics of one traced pass, keyed by metric name."""
    calls, self_s = summary["calls"], summary["self_s"]
    pairs = summary["child_calls"]
    out = {}
    for name, _, _, _ in LAYERS:
        out[name + ".calls"] = calls.get(name, 0)
        out[name + ".self_s"] = self_s.get(name, 0.0)
    out["cyclotomy.vanishing_sum.max_q"] = counters.get(
        "cyclotomy.vanishing_sum.max_q", 0)
    out["cyclotomy.cyclotomic.misses"] = cyclotomic_misses
    for key in ("cycles_spectrum.find_cycles_by_words.words",
                "cycles_spectrum.find_cycles_by_words.cycles",
                "cycles_spectrum.enumerate_box_points.points",
                "cycles_spectrum.spectrum_from_cycles.elements",
                "verify._certified_difference_set.size"):
        out[key] = counters.get(key, 0)
    out["cycles_spectrum.box.useful_ratio"] = _ratio(
        counters.get("box.cycle_points", 0), counters.get("box.candidates", 0))
    out["verify.orthogonal_pair.mean_index"] = _ratio(
        counters.get("pair.index_sum", 0), counters.get("pair.index_n", 0))
    all_pairs = counters.get("certify_all_pairs.pairs", 0)
    misses = pairs.get(("verify.certify_all_pairs", "verify.orthogonal_pair"), 0)
    out["verify.certify_all_pairs.memo_hit_ratio"] = _ratio(
        all_pairs - misses, all_pairs)
    out["fourier.eval_symbol.exact_ratio"] = _ratio(
        pairs.get(("fourier.eval_symbol", "cyclotomy.vanishing_sum"), 0),
        calls.get("fourier.eval_symbol", 0))
    out["trace.accounting_error"] = summary["accounting_error"]
    return out


def _metric(name, unit, better):
    return {"name": name, "unit": unit, "better": better}


#: the per-layer metrics a traced run reports, in BENCHMARK.json order
PER_LAYER = (
    _metric("cyclotomy.vanishing_sum.calls", "count", "lower"),
    _metric("cyclotomy.vanishing_sum.self_s", "s", "lower"),
    _metric("cyclotomy.vanishing_sum.max_q", "q", "lower"),
    _metric("cyclotomy.cyclotomic.misses", "count", "lower"),
    _metric("cycles_spectrum.find_cycles_by_words.self_s", "s", "lower"),
    _metric("cycles_spectrum.find_cycles_by_words.words", "count", "lower"),
    _metric("cycles_spectrum.find_cycles_by_words.cycles", "count", "lower"),
    _metric("linalg_exact.Matrix.pow.calls", "count", "lower"),
    _metric("linalg_exact.Matrix.inverse.calls", "count", "lower"),
    _metric("cycles_spectrum.enumerate_box_points.points", "count", "lower"),
    _metric("cycles_spectrum.find_cycles_in_box.self_s", "s", "lower"),
    _metric("cycles_spectrum.box.useful_ratio", "ratio", "higher"),
    _metric("ifs_core.bounding_box.self_s", "s", "lower"),
    _metric("cycles_spectrum.spectrum_from_cycles.self_s", "s", "lower"),
    _metric("cycles_spectrum.spectrum_from_cycles.elements", "count", "lower"),
    _metric("linalg_exact.Matrix.mat_vec.calls", "count", "lower"),
    _metric("linalg_exact.Matrix.mat_vec.self_s", "s", "lower"),
    _metric("verify.orthogonal_pair.calls", "count", "lower"),
    _metric("verify.orthogonal_pair.self_s", "s", "lower"),
    _metric("verify.orthogonal_pair.mean_index", "index", "lower"),
    _metric("verify.certify_all_pairs.memo_hit_ratio", "ratio", "higher"),
    _metric("verify.max_orthogonal_family.self_s", "s", "lower"),
    _metric("verify._certified_difference_set.self_s", "s", "lower"),
    _metric("verify._certified_difference_set.size", "count", "lower"),
    _metric("verify._max_clique.self_s", "s", "lower"),
    _metric("fourier.eval_symbol.calls", "count", "lower"),
    _metric("fourier.eval_symbol.self_s", "s", "lower"),
    _metric("fourier.eval_symbol.exact_ratio", "ratio", "lower"),
    _metric("fourier.mu_hat_grid.self_s", "s", "lower"),
    _metric("verify.completeness_q.self_s", "s", "lower"),
    _metric("fourier.eval_mu_hat.self_s", "s", "lower"),
    _metric("hadamard.check_hadamard.calls", "count", "lower"),
    _metric("hadamard.check_hadamard.self_s", "s", "lower"),
    _metric("torus_dynamics.orbit.calls", "count", "lower"),
    _metric("torus_dynamics.orbit.self_s", "s", "lower"),
    _metric("hadamard.conjecture_probe.self_s", "s", "lower"),
    _metric("torus_dynamics.find_zeros.self_s", "s", "lower"),
    _metric("catalog.run_entry.self_s", "s", "lower"),
    _metric("linalg_exact.check_expansive.calls", "count", "lower"),
    _metric("linalg_exact.check_expansive.self_s", "s", "lower"),
    _metric("ifs_core.AffineSystem.init.self_s", "s", "lower"),
    _metric("serialize.to_jsonable.self_s", "s", "lower"),
    _metric("cli.main.self_s", "s", "lower"),
    _metric("trace.overhead_ratio", "ratio", "lower"),
    _metric("trace.accounting_error", "ratio", "lower"),
)
