"""Per-layer spans recorded from outside the package.

The tracer rebinds each listed public function, in every package module that
looks it up by name, to a timing wrapper; `uninstall` puts the originals
back. No file of the package is changed. A span records its name, start,
end, parent span and operation id; spans stay in memory until the process
writes them out at its end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
import tracemalloc
from collections import defaultdict

PACKAGE = "bohm_equilibrium"
MODULES = ("cli", "analysis", "dynamics", "guidance", "model")

SPANNED = (
    "cli.load_config",
    "cli.write_csv",
    "cli.write_meta",
    "analysis.equivariance_check",
    "analysis.constraint_surface_experiment",
    "analysis.ks_statistic",
    "dynamics.sample_equilibrium",
    "dynamics.sample_constraint_surface",
    "dynamics.propagate_ensemble",
    "guidance.grid_for_state",
    "guidance.continuity_residual",
    "model.eval_density",
)
# Called once per right-hand-side evaluation: a span each would cost more
# than the call, so it is only counted.
COUNTED = ("model.evolve_mode",)
# Functions whose tracemalloc peak is taken when memory tracing is on.
ALLOC_PEAK = ("dynamics.propagate_ensemble", "guidance.continuity_residual")
ROOT_SPAN = "cli.main"


def _work(name: str, bound: inspect.BoundArguments) -> dict:
    """Work counts of one finished call, computed from its arguments."""
    args = bound.arguments
    if name == "dynamics.propagate_ensemble":
        config = args["config"]
        n = len(args["initial_positions"])
        if config.method != "rk4":
            return {"traj": n}
        # the package's fixed-step grid: round(t_final / dt) steps, at least 1
        return {"traj": n, "traj_steps": n * max(1, round(config.t_final / config.dt))}
    if name == "analysis.ks_statistic":
        return {"samples": len(args["samples"])}
    if name == "guidance.continuity_residual":
        return {"points": args["grid"].n1 * args["grid"].n2}
    if name == "cli.write_csv":
        return {"bytes": os.path.getsize(args["path"])}
    return {}


class Tracer:
    """Spans, call counts, work counts and allocation peaks of one operation."""

    def __init__(self, op_id: int, memory: bool):
        self.op_id = op_id
        self.memory = memory
        self.spans: list[dict] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.work: dict[str, dict] = defaultdict(lambda: defaultdict(int))
        self.alloc_peak: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, call):
        """Run call() inside a span named name."""
        self.spans.append({"name": name, "op": self.op_id,
                           "parent": self._stack[-1] if self._stack else None,
                           "start": time.perf_counter(), "end": None})
        index = len(self.spans) - 1
        self._stack.append(index)
        try:
            return call()
        finally:
            self.spans[index]["end"] = time.perf_counter()
            self._stack.pop()

    def _spanned(self, name: str, fn):
        signature = inspect.signature(fn)
        peak = self.memory and name in ALLOC_PEAK

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if peak:
                tracemalloc.start()
            try:
                result = self.span(name, lambda: fn(*args, **kwargs))
            finally:
                if peak:
                    used = tracemalloc.get_traced_memory()[1]
                    self.alloc_peak[name] = max(self.alloc_peak[name], used)
                    tracemalloc.stop()
            self.calls[name] += 1
            for key, value in _work(name, signature.bind(*args, **kwargs)).items():
                self.work[name][key] += value
            return result

        return wrapper

    def _counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Rebind every listed function wherever the package looks it up."""
        modules = [importlib.import_module(PACKAGE)] + [
            importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES
        ]
        for name in SPANNED + COUNTED:
            module_name, func_name = name.split(".")
            original = getattr(importlib.import_module(f"{PACKAGE}.{module_name}"), func_name)
            wrapper = (self._counted if name in COUNTED else self._spanned)(name, original)
            for module in modules:
                if getattr(module, func_name, None) is original:
                    self._saved.append((module, func_name, original))
                    setattr(module, func_name, wrapper)

    def uninstall(self):
        for module, func_name, original in reversed(self._saved):
            setattr(module, func_name, original)
        self._saved.clear()

    def summary(self) -> dict:
        """Busy and self time per span name, with the counts, as plain data."""
        children = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                children[span["parent"]] += span["end"] - span["start"]
        times = defaultdict(lambda: [0.0, 0.0])
        for index, span in enumerate(self.spans):
            busy = span["end"] - span["start"]
            times[span["name"]][0] += busy
            times[span["name"]][1] += busy - children[index]
        return {
            "times": dict(times),
            "calls": dict(self.calls),
            "work": {name: dict(counts) for name, counts in self.work.items()},
            "alloc_peak": dict(self.alloc_peak),
        }
