"""Span tracer for the traced benchmark run.

The tracer records a span around every call into a layer function of
``aifs``: name, start, end, parent span and job id, kept in flat arrays in
memory and written out when the run ends. It works from outside the
library: wrappers replace the function at every binding site -- the home
module, every ``aifs`` module that imported it by name, and the class for
methods -- because callers resolve these names at call time.

A layer's self time is its span's duration minus the durations of its
direct child spans. Work a hook does after a call (deriving a count from
arguments or results) is recorded as its own ``trace.hook`` span, so it is
never charged to the layer being measured.

This module is imported only by the traced run; the untraced run never
loads it, so the end-to-end numbers carry no tracing cost at all.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

HOOK = "trace.hook"


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.job_id = -1
        self._stack = []
        self.counters = {}
        self._patched = []  # (owner, attribute, original)
        self.sites = {}  # span name -> binding sites patched
        self.missing = []

    # -- recording -----------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key: str, amount=1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def maximum(self, key: str, value) -> None:
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    def reset(self) -> None:
        """Drop every span and counter (called at the start of each pass)."""
        for arr in (self.start, self.end, self.name, self.parent, self.job):
            del arr[:]
        self.counters = {}
        del self._stack[:]

    def _wrapper(self, name: str, fn, hook=None):
        nid = self._id(name)
        hid = self._id(HOOK)
        start, end, names, parent, job = (
            self.start, self.end, self.name, self.parent, self.job
        )
        st = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            names.append(nid)
            parent.append(st[-1] if st else -1)
            job.append(self.job_id)
            end.append(0.0)
            st.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                st.pop()
            if hook is not None:
                hidx = len(start)
                names.append(hid)
                parent.append(st[-1] if st else -1)
                job.append(self.job_id)
                end.append(0.0)
                start.append(perf_counter())
                hook(self, fn, args, kwargs, result)
                end[hidx] = perf_counter()
            return result

        return traced

    # -- installation --------------------------------------------------

    def install(self, layers) -> None:
        """Wrap every layer at every binding site inside ``aifs``.

        ``layers`` yields (span name, home module, attribute path, hook).
        An attribute path "Matrix.mat_vec" patches the method on the class.
        """
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "aifs" or n.startswith("aifs."))
        ]
        for name, home, path, hook in layers:
            module = sys.modules.get(home)
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.missing.append(name)
                continue
            wrapper = self._wrapper(name, fn, hook)
            if owner_path:  # a method: the class is its only binding site
                sites = [(owner, attr)]
            else:
                sites = [
                    (mod, key)
                    for mod in modules
                    for key, value in vars(mod).items()
                    if value is fn
                ]
            for site, key in sites:
                setattr(site, key, wrapper)
                self._patched.append((site, key, fn))
            self.sites[name] = ["%s.%s" % (s.__name__, k) for s, k in sites]

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    # -- analysis ------------------------------------------------------

    def arrays(self) -> dict:
        n = len(self.start)
        return {
            "start": np.frombuffer(self.start, dtype=np.float64, count=n).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64, count=n).copy(),
            "name": np.frombuffer(self.name, dtype=np.int32, count=n).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32, count=n).copy(),
            "job": np.frombuffer(self.job, dtype=np.int32, count=n).copy(),
        }

    def summarize(self, wall: float) -> dict:
        """Per-name call counts and self times for the spans of one pass,
        plus the accounting identity: self times + untraced gaps = wall."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        selft = dur - child
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        self_s = np.bincount(a["name"], weights=selft, minlength=k)
        rs, re_ = a["start"][~has_parent], a["end"][~has_parent]
        order = np.argsort(rs, kind="stable")
        covered, reach = 0.0, -np.inf
        for s, e in zip(rs[order].tolist(), re_[order].tolist()):  # union of roots
            s = max(s, reach)
            if e > s:
                covered += e - s
                reach = e
        gaps = wall - covered
        return {
            "calls": {n: int(calls[i]) for i, n in enumerate(self.names)},
            "self_s": {n: float(self_s[i]) for i, n in enumerate(self.names)},
            "accounting_error": abs(float(selft.sum()) + gaps - wall) / wall,
            "child_calls": self._child_calls(a),
        }

    def _child_calls(self, a) -> dict:
        """Counts of (parent name, child name) span pairs."""
        par = a["parent"]
        mask = par >= 0
        pn = a["name"][par[mask]]
        cn = a["name"][mask]
        k = max(len(self.names), 1)
        pairs = np.bincount(pn * k + cn, minlength=k * k)
        out = {}
        for code in np.nonzero(pairs)[0]:
            out[(self.names[code // k], self.names[code % k])] = int(pairs[code])
        return out

    def dump(self, path) -> None:
        """Write the recorded spans (one pass) as a compressed npz file."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
