"""Wrappers installed around slicesched's public functions from outside the
program: the per-episode and per-decision timers of an untraced run, and the
span tracer of a traced run.

Every replacement goes through a ``Patcher``.  It replaces a function at its
definition and at every ``slicesched.*`` module global bound to the same
object (``engine.rate_matrix`` is ``channel.rate_matrix`` imported by name),
and on exit puts each original object back, in reverse order.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import time
from array import array

import numpy as np

PACKAGE = "slicesched"


def resolve(target: str):
    """``"pkg.module:Class.attr"`` -> (owner, attr name, current object)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


class Patcher:
    """Replaces names and restores every one of them on ``restore``."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def wrap(self, target: str, make_wrapper) -> None:
        owner, attr, original = resolve(target)
        wrapper = make_wrapper(original)
        bindings = [(owner, attr)]
        for name, module in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for key, value in list(vars(module).items()):
                if value is original and (module, key) != (owner, attr):
                    bindings.append((module, key))
        for obj, key in bindings:
            self._undo.append((obj, key, original))
            setattr(obj, key, wrapper)

    @property
    def patched(self) -> set[tuple[str, str]]:
        """(owner name, attribute) of every name currently replaced."""
        return {(obj.__name__, key) for obj, key, _ in self._undo}

    def restore(self) -> None:
        while self._undo:
            obj, key, original = self._undo.pop()
            setattr(obj, key, original)


class EpisodeTimer:
    """Times every ``Simulation.run_episode`` call and keeps its record.

    Timestamps are ``time.monotonic_ns`` so that the launching process can
    subtract its own launch time from ``first_start_ns``.
    """

    def __init__(self) -> None:
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.records: list = []
        self.sim = None
        self.before = None  # optional hook, called with the episode index

    def __call__(self, run_episode):
        @functools.wraps(run_episode)
        def timed(sim, *args, **kwargs):
            if self.before is not None:
                self.before(len(self.starts))
            self.starts.append(time.monotonic_ns())
            record = run_episode(sim, *args, **kwargs)
            self.ends.append(time.monotonic_ns())
            self.records.append(record)
            self.sim = sim
            return record
        return timed


class CallTimer:
    """Host time of each call, in ns, in call order."""

    def __init__(self) -> None:
        self.samples_ns: list[int] = []

    def __call__(self, fn):
        samples, clock = self.samples_ns, time.perf_counter_ns

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            samples.append(clock() - t0)
            return result
        return timed


class Tracer:
    """One span per wrapped call: (id, name, start, end, parent id).

    Spans are kept in a flat int64 array while the program runs and turned
    into per-name totals by ``summary``.  A span's id is taken when the call
    starts, so parents may be stored after their children.  ``counters``
    maps a span name to ``fn(counts, args, result)``, which adds work counts
    (rows, floats, packets) measured at the same boundary.
    """

    FIELDS = 5

    def __init__(self, counters: dict | None = None) -> None:
        self.names: list[str] = []
        self.spans = array("q")
        self.counts: dict[str, float] = {}
        self.counters = counters or {}
        self._ids = itertools.count()
        self._stack = [-1]

    def __call__(self, name: str):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        counter = self.counters.get(name)
        spans, stack, ids, counts = self.spans, self._stack, self._ids, self.counts
        clock = time.perf_counter_ns

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                span_id = next(ids)
                parent = stack[-1]
                stack.append(span_id)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    spans.extend((span_id, name_id, t0, t1, parent))
                if counter is not None:
                    counter(counts, args, result)
                return result
            return traced
        return make

    def table(self) -> np.ndarray:
        """Spans as an (n, 5) int64 array ordered by span id."""
        rows = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, self.FIELDS)
        return rows[np.argsort(rows[:, 0], kind="stable")]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total ns, self ns (duration minus the time
        covered by direct children) and covered ns (the children's part)."""
        rows = self.table()
        n = len(rows)
        dur = (rows[:, 3] - rows[:, 2]).astype(float)
        parent = rows[:, 4]
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=n)
        name = rows[:, 1]
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        self_ns = np.bincount(name, weights=dur - covered, minlength=k)
        cov = np.bincount(name, weights=covered, minlength=k)
        return {nm: {"calls": int(calls[i]), "total_ns": float(total[i]),
                     "self_ns": float(self_ns[i]), "covered_ns": float(cov[i])}
                for i, nm in enumerate(self.names)}

    def write(self, path) -> None:
        """Spans as CSV: id, name, start_ns, end_ns, parent (-1 for roots)."""
        with open(path, "w") as fh:
            fh.write("id,name,start_ns,end_ns,parent\n")
            for span_id, name_id, t0, t1, parent in self.table().tolist():
                fh.write(f"{span_id},{self.names[name_id]},{t0},{t1},{parent}\n")
