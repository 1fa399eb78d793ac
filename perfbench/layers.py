"""Per-layer spans taken from outside the program.

`install` replaces public functions and methods of the `phonongate` modules
by timing wrappers (attribute replacement); no program file changes. Where a
module imports a name into its own namespace (`runner` imports
`system_hamiltonian`), the wrapper is installed at that call site too. A target that a refactor removed is reported as absent.

Spans are kept in memory as [id, parent id, name, start, end] and written
with the sample's result. A layer's self time is its span's duration minus
the part of that interval its child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import time

# span name -> call sites "module:attribute.path" that get the same wrapper
TARGETS = {
    "runner.run_scenario": ["phonongate.runner:run_scenario"],
    "runner.master_fidelity_series": ["phonongate.runner:master_fidelity_series"],
    "runner.refine_peak": ["phonongate.runner:refine_peak"],
    "runner.envelope_maxima": ["phonongate.runner:envelope_maxima"],
    "runner.write_json": ["phonongate.runner:write_json"],
    "hamiltonians.system_hamiltonian": ["phonongate.hamiltonians:system_hamiltonian",
                                        "phonongate.runner:system_hamiltonian"],
    # the beam isometry: duffing_hamiltonian and its eigh for n_b > 2, the
    # identity for n_b = 2 (where duffing_hamiltonian is never called)
    "runner.qubit_isometry": ["phonongate.runner:_qubit_isometry"],
    "dynamics.collapse": ["phonongate.dynamics:CollapseSet.standard_channels"],
    "dynamics.liouvillian": ["phonongate.dynamics:liouvillian"],
    "dynamics.propagator": ["phonongate.dynamics:Propagator.__init__"],
    "dynamics.advance": ["phonongate.dynamics:Propagator.advance"],
    "dynamics.to_csv": ["phonongate.dynamics:Trajectory.to_csv"],
}

# per-layer time metric -> spans whose self times it sums
SELF_TIME_METRICS = {
    "cli.self_s": ("cli.main",),
    "runner.scenario_self_s": ("runner.run_scenario",),
    "runner.series_self_s": ("runner.master_fidelity_series",),
    "runner.peaks_s": ("runner.refine_peak", "runner.envelope_maxima"),
    "runner.write_json_s": ("runner.write_json",),
    "hamiltonians.system_hamiltonian_s": ("hamiltonians.system_hamiltonian",),
    "runner.qubit_isometry_s": ("runner.qubit_isometry",),
    "dynamics.collapse_s": ("dynamics.collapse",),
    "dynamics.liouvillian_s": ("dynamics.liouvillian",),
    "dynamics.propagator_s": ("dynamics.propagator",),
    "dynamics.advance_s": ("dynamics.advance",),
    "dynamics.to_csv_s": ("dynamics.to_csv",),
}


class Tracer:
    """In-memory span recorder for one sample (single-threaded)."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def add(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn, after=None):
        """`fn` recorded as span `name`; `after(args, result)` runs outside it."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else None, name, 0.0, 0.0]
            spans.append(span)
            stack.append(span[0])
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced


def _count_advance(tracer: Tracer):
    def after(args, result):
        prop, vec = args[0], args[1]
        matrix = getattr(prop, "matrix", None)
        tracer.add("dynamics.advance_columns", vec.shape[1] if vec.ndim == 2 else 1)
        tracer.add("dynamics.advance_bytes",
                   getattr(matrix, "nbytes", 0) + vec.nbytes + getattr(result, "nbytes", 0))
    return after


def _count_csv(tracer: Tracer):
    def after(args, result):
        tracer.add("dynamics.csv_bytes", os.path.getsize(args[1]))
    return after


def install(tracer: Tracer) -> list[str]:
    """Wrap every target; returns the call sites that no longer exist."""
    hooks = {"dynamics.advance": _count_advance(tracer), "dynamics.to_csv": _count_csv(tracer)}
    absent = []
    for name, sites in TARGETS.items():
        for site in sites:
            module_name, path = site.split(":")
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                static = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                absent.append(site)
                continue
            if isinstance(static, classmethod):
                wrapped = classmethod(tracer.wrap(name, static.__func__, hooks.get(name)))
            else:
                wrapped = tracer.wrap(name, static, hooks.get(name))
            setattr(owner, attr, wrapped)
    return absent


def self_times(spans) -> dict[str, float]:
    """Total self time per span name: duration minus the union of its direct
    children's intervals (clipped to the parent)."""
    children: dict[int, list] = {}
    for span in spans:
        if span[1] is not None:
            children.setdefault(span[1], []).append(span)
    totals: dict[str, float] = {}
    for sid, _, name, start, end in spans:
        covered, reach = 0.0, start
        for child in sorted(children.get(sid, ()), key=lambda s: s[3]):
            lo, hi = max(child[3], reach), min(child[4], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        totals[name] = totals.get(name, 0.0) + (end - start) - covered
    return totals


def sample_layers(spans, counts) -> dict[str, float]:
    """Per-layer metrics of one traced sample."""
    own = self_times(spans)
    out = {metric: sum(own.get(n, 0.0) for n in names)
           for metric, names in SELF_TIME_METRICS.items()}
    out["dynamics.advance_calls"] = sum(1 for s in spans if s[2] == "dynamics.advance")
    for name in ("dynamics.advance_columns", "dynamics.advance_bytes", "dynamics.csv_bytes"):
        out[name] = counts.get(name, 0)
    advance_s = out["dynamics.advance_s"]
    out["dynamics.advance_gbps"] = out["dynamics.advance_bytes"] / advance_s / 1e9 if advance_s else 0.0
    return out


def median_layers(per_sample: list[dict]) -> dict[str, float]:
    return {k: statistics.median(s[k] for s in per_sample) for k in per_sample[0]}
