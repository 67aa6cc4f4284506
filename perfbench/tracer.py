"""Spans around the calls into qstarlike's public functions.

`Tracer.install` replaces each traced function under every name a
qstarlike module binds it to, since callers look functions up by the
name in their own module (verify calls `threshold_denominator`, bound
by `from .classes import ...`, while classes calls its own global).  A
span is (name, start, end, parent) and lives in flat arrays until the
run ends; self time is a span's duration minus that of its direct
children.  Nothing is traced unless installed, so untraced rounds run
the program untouched.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

MODULES = ("qcalc", "series", "conic", "classes", "hankel", "verify", "cli")

TRACED = (
    ("verify", "oracle_h2_max"),
    ("verify", "oracle_fs_max"),
    ("hankel", "schwarz_to_coefficients"),
    ("classes", "random_certified_member"),
    ("classes", "threshold_denominator"),
    ("classes", "sufficient_membership"),
    ("classes", "sampled_membership"),
    ("classes", "ts_membership"),
    ("classes", "extreme_point_decompose"),
    ("classes", "extreme_point_compose"),
    ("qcalc", "symmetric_q_number"),
    ("qcalc", "symmetric_q_derivative"),
    ("series", "divide"),
    ("series", "evaluate_on_grid"),
    ("cli", "main"),
)
ELEMENTS = "hankel.schwarz_to_coefficients.elements"
CREATED = "series.TruncatedSeries.created"


class Tracer:
    def __init__(self):
        self.names = [f"{m}.{f}" for m, f in TRACED]
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {ELEMENTS: 0, CREATED: 0}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, nid: int, fn):
        stack, name_id, parent, start, end = (
            self._stack, self.name_id, self.parent, self.start, self.end)
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
        return span

    @staticmethod
    def seconds_per_span() -> float:
        """The wrapper's own cost per call: a wrapped no-op less the bare no-op, best of 5."""
        calls = 100_000

        def noop():
            return None

        def best(fn) -> float:
            times = []
            for _ in range(5):
                t0 = time.perf_counter()
                for _ in range(calls):
                    fn()
                times.append(time.perf_counter() - t0)
            return min(times)

        wrapped = Tracer()._wrap(0, noop)
        return max(0.0, (best(wrapped) - best(noop)) / calls)

    def _count_elements(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[ELEMENTS] += int(np.broadcast(*args[-3:]).size)  # (b1, b2, b3)
            return fn(*args, **kwargs)
        return counted

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        mods = [importlib.import_module(f"qstarlike.{m}") for m in MODULES]
        mods.append(importlib.import_module("qstarlike"))
        for nid, (mod_name, fn_name) in enumerate(TRACED):
            original = getattr(importlib.import_module(f"qstarlike.{mod_name}"), fn_name)
            wrapped = original
            if (mod_name, fn_name) == ("hankel", "schwarz_to_coefficients"):
                wrapped = self._count_elements(wrapped)
            wrapped = self._wrap(nid, wrapped)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapped)
        cls = importlib.import_module("qstarlike.series").TruncatedSeries
        post_init, counts = cls.__post_init__, self.counts

        def counted_post_init(obj):
            counts[CREATED] += 1
            post_init(obj)
        self._patch(cls, "__post_init__", counted_post_init)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Calls and self time per traced function, plus the counters."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - children
        calls = np.bincount(ids, minlength=len(self.names))
        self_s = np.bincount(ids, weights=self_time, minlength=len(self.names))
        out: dict[str, tuple[float, str]] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = (int(calls[nid]), "count")
            out[f"{name}.self_s"] = (float(self_s[nid]), "s")
        for name, value in self.counts.items():
            out[name] = (value, "count")
        return out

    def write(self, path) -> None:
        """Write the spans as columns: name id, parent index, start, end."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
