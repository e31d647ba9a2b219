"""In-memory span tracing around reszo's layer boundaries.

The tracer wraps public functions where their callers look them up
(``reszo.optimizers.fit_linear``, ``BlackBoxObjective.evaluate``, ...)
and records one span per call: name, start, end and the enclosing span.
Spans stay in flat arrays until the run ends.  Wrappers only call
through, so a traced run computes exactly what an untraced one does;
they are installed for a traced round and removed after it.

A layer's self time is its spans' duration minus the time covered by
their direct children.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from typing import Dict

import numpy as np

from reszo import core, diagnostics, harness, optimizers, regression

# (owner, attribute, span name).  Owners are the namespaces the calling
# code resolves the name in, so patching them reroutes the real calls.
_TARGETS = (
    (core.BlackBoxObjective, "evaluate", "core.evaluate"),
    (core.BlackBoxObjective, "gradient", "core.gradient"),
    (optimizers, "szo_estimate", "estimators.estimate"),
    (optimizers, "rszo_estimate", "estimators.estimate"),
    (optimizers, "tzo_estimate", "estimators.estimate"),
    (regression.EvaluationWindow, "push", "regression.push"),
    (regression.EvaluationWindow, "inverse_cache", "regression.inverse_cache"),
    (regression.EvaluationWindow, "moment_cache", "regression.moment_cache"),
    (regression.EvaluationWindow, "spread", "regression.spread"),
    (optimizers, "fit_linear", "regression.fit_linear"),
    (optimizers, "fit_quadratic", "regression.fit_quadratic"),
    (regression, "solve_least_squares", "regression.solve_least_squares"),
    (regression, "estimate_condition_number", "regression.condition"),
    (diagnostics.DiagnosticsCollector, "observe", "diagnostics.observe"),
    (diagnostics.DiagnosticsCollector, "observe_warm", "diagnostics.observe_warm"),
    (harness, "run_optimizer", "optimizers.run"),
    (harness, "make_objective", "benchmarks.make_objective"),
    (harness, "aggregate_trials", "harness.aggregate"),
)


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.start)

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Route reszo's internal calls through spans for the block."""
        saved = []
        get_sampler = vars(optimizers)["get_sampler"]

        def traced_get_sampler(name):
            return self.wrap("sampling.draw", get_sampler(name))

        try:
            for owner, attr, name in _TARGETS:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            saved.append((optimizers, "get_sampler", get_sampler))
            optimizers.get_sampler = traced_get_sampler
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def count(self, name: str, lo: int, hi: int) -> int:
        """Spans named ``name`` among span indices [lo, hi)."""
        if name not in self._name_ids:
            return 0
        ids = np.frombuffer(self.name_id, dtype=np.int32)[lo:hi]
        return int(np.count_nonzero(ids == self._name_ids[name]))

    def layer_stats(self, lo: int, hi: int) -> Dict[str, dict]:
        """Per span name: calls, inclusive and self nanoseconds in [lo, hi).

        Every span of a traced round has its parent inside the round
        (or none), so the slice is closed under the parent relation.
        """
        ids = np.frombuffer(self.name_id, dtype=np.int32)[lo:hi]
        par = np.frombuffer(self.parent, dtype=np.int64)[lo:hi]
        dur = (
            np.frombuffer(self.end, dtype=np.int64)[lo:hi]
            - np.frombuffer(self.start, dtype=np.int64)[lo:hi]
        ).astype(np.float64)
        has_parent = par >= lo
        covered = np.bincount(
            par[has_parent] - lo, weights=dur[has_parent], minlength=hi - lo
        )
        own = dur - covered
        stats = {}
        for nid, name in enumerate(self.names):
            mask = ids == nid
            stats[name] = {
                "calls": int(np.count_nonzero(mask)),
                "incl_ns": float(dur[mask].sum()),
                "self_ns": float(own[mask].sum()),
            }
        return stats

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.asarray(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )
