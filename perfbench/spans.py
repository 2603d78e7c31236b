"""Per-layer spans for a traced run, recorded from outside speclab.

`Tracer.install()` replaces speclab's layer functions by timing wrappers at
the names their callers look up: module attributes of the calling module
(`speclab.harness.extremal_topk`, `speclab.operators.sample_omega_array`,
...) and the method `LatticeOperator.apply`. Spans are kept in memory.

Pool workers are forked from the traced process, so they inherit the
wrappers. Each trial function is wrapped too: it hands the spans its trial
recorded back inside the trial's result dict, and the wrapper of
`_map_trials` takes them out again before the harness folds the results.
"""
from __future__ import annotations

import functools
import multiprocessing
import os
import time
from collections import defaultdict
from dataclasses import dataclass

ROOT = "harness.run_experiment"
TRIAL = "harness.trial"
SPANS_KEY = "_perfbench_spans"

# (calling module, attribute, layer name)
LAYER_FUNCTIONS = [
    ("speclab.harness", "sample_potential", "operators.sample_potential"),
    ("speclab.harness", "restrict_potential", "operators.restrict_potential"),
    ("speclab.harness", "build_hamiltonian", "operators.build_hamiltonian"),
    ("speclab.harness", "v_spectrum", "operators.v_spectrum"),
    ("speclab.harness", "free_laplacian_eigs", "operators.free_laplacian_eigs"),
    ("speclab.harness", "extremal_topk", "eigen.extremal_topk"),
    ("speclab.harness", "full_spectrum", "eigen.full_spectrum"),
    ("speclab.harness", "resolve_gamma", "scaling.resolve_gamma"),
    ("speclab.harness", "tail_sum_stats", "scaling.tail_sum_stats"),
    ("speclab.harness", "rescale", "stats.rescale"),
    ("speclab.harness", "count_in_intervals", "stats.count_in_intervals"),
    ("speclab.harness", "max_law_test", "stats.max_law_test"),
    ("speclab.harness", "poisson_gof", "stats.poisson_gof"),
    ("speclab.harness", "poisson_joint_gof", "stats.poisson_joint_gof"),
    ("speclab.harness", "ks_distance", "stats.ks_distance"),
    ("speclab.harness", "levy_distance", "stats.levy_distance"),
    ("speclab.harness", "exact_max_cdf_ladder", "stats.exact_max_cdf_ladder"),
    ("speclab.harness", "fit_lower_envelope_constant",
     "stats.fit_lower_envelope_constant"),
    ("speclab.operators", "sample_omega_array", "tails.sample_omega_array"),
    ("speclab.operators", "weights_array", "lattice.weights_array"),
]
TRIAL_FUNCTIONS = ("_extremal_trial", "_ids_trial", "_sandwich_trial")


def _counters(layer: str, args, result) -> dict | None:
    """Work counts recorded on a span, where the layer has them."""
    if layer == "eigen.extremal_topk":
        return {"iterations": result.iterations, "converged": int(result.converged)}
    if layer == "eigen.full_spectrum":
        return {"sites": args[0].n}
    if layer == "tails.sample_omega_array":
        return {"sites": len(args[1])}
    return None


@dataclass(frozen=True)
class Span:
    name: str
    parent: str | None
    start: float
    end: float
    self_s: float
    counters: dict | None


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[list] = []  # [name, start, child time]
        self._pid = os.getpid()
        self._saved: list[tuple] = []

    def _enter(self, name: str) -> None:
        if os.getpid() != self._pid:
            # a forked worker starts with a copy of its parent's open spans
            self._pid, self._stack = os.getpid(), []
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self, counters: dict | None = None) -> None:
        end = time.perf_counter()
        name, start, child = self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += end - start
        self.spans.append(Span(name, parent[0] if parent else None, start, end,
                               end - start - child, counters))

    def timed(self, layer: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(layer)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._exit(_counters(layer, args, result) if result is not None else None)
        return wrapper

    def run(self, fn, *args):
        """Call fn under the root span of one experiment run."""
        return self.timed(ROOT, fn)(*args)

    def _trial(self, fn):
        # functools.wraps keeps fn's module and qualname, so the pool pickles
        # the wrapper by reference to the patched harness attribute
        timed = self.timed(TRIAL, fn)

        @functools.wraps(fn)
        def wrapper(payload):
            mark = len(self.spans)
            out = timed(payload)
            out[SPANS_KEY] = self.spans[mark:]
            del self.spans[mark:]
            return out
        return wrapper

    def _map(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            results = fn(*args, **kwargs)
            for res in results:
                self.spans.extend(res.pop(SPANS_KEY))
            return results
        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        import importlib

        from speclab.operators import LatticeOperator

        if multiprocessing.get_start_method() != "fork":
            raise RuntimeError("tracing needs fork-started pool workers")
        for module, attr, layer in LAYER_FUNCTIONS:
            owner = importlib.import_module(module)
            self._patch(owner, attr, self.timed(layer, getattr(owner, attr)))
        self._patch(LatticeOperator, "apply",
                    self.timed("operators.apply", LatticeOperator.apply))
        harness = importlib.import_module("speclab.harness")
        for attr in TRIAL_FUNCTIONS:
            self._patch(harness, attr, self._trial(getattr(harness, attr)))
        self._patch(harness, "_map_trials", self._map(harness._map_trials))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def layer_metrics(spans: list[Span], workers: int) -> dict[str, float]:
    """Per-layer totals of one traced run_experiment call.

    `<layer>.calls`, `.busy_s` (summed span durations), `.self_s` (minus
    nested layer spans) and summed counters for every layer seen, plus
    `harness.busy_s` (trial spans and the main process's top-level layer spans),
    `harness.pool_idle_frac` and `harness.unattributed_s`.
    """
    (root,) = [s for s in spans if s.name == ROOT]
    wall = root.end - root.start
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        if s.name == ROOT:
            continue
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.busy_s"] += s.end - s.start
        out[f"{s.name}.self_s"] += s.self_s
        for key, val in (s.counters or {}).items():
            out[f"{s.name}.{key}"] += val
    trials = [s for s in spans if s.name == TRIAL]
    out["harness.pool_idle_frac"] = 1.0 - sum(s.end - s.start for s in trials) / (
        workers * wall)
    tops = [(s.start, s.end) for s in spans if s.parent == ROOT or s.name == TRIAL]
    out["harness.busy_s"] = sum(b - a for a, b in tops)
    # time no layer span covers: pool start-up, waiting, folding, writes
    out["harness.unattributed_s"] = wall - _covered(tops, root.start, root.end)
    return dict(out)
