"""Outside-in span recorder for the frontdoor_lab modules.

``Tracer.install`` wraps every public function defined in each layer module
and patches the wrapper into every package namespace that holds the
function, so calls made through ``from .spline_smooth import predict`` in
another module are recorded as well as calls inside the defining module.
The program's source is not touched; ``uninstall`` restores the originals.

Each wrapped function accumulates calls, inclusive time, self time (minus
the time of wrapped functions it called) and per-call durations.  A few
functions also record a quantity read off their arguments or result.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import statistics
import sys
import time
from collections import Counter

LAYER_MODULES = (
    "cli",
    "scm_sim",
    "dataset",
    "mi_engine",
    "spline_smooth",
    "frontdoor_estimator",
    "figures",
    "svgfig",
    "causal_graph",
    "runconfig",
)

# a tail percentile is reported only with at least this many calls beyond it
TAIL_MIN_BEYOND = 10
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _path_arg(args, kwargs, index):
    return args[index] if len(args) > index else kwargs["path"]


# quantity name and how to read it from (args, kwargs, result)
PROBES = {
    "spline_smooth.fit_additive": ("nonconverged", lambda a, k, r: 0 if r.converged else 1),
    # computed from the returned dense array, not measured traffic
    "spline_smooth.design_matrix": ("bytes", lambda a, k, r: r.nbytes),
    "spline_smooth.predict": ("points", lambda a, k, r: r.size),
    "dataset.dataset_to_csv": ("bytes", lambda a, k, r: os.path.getsize(_path_arg(a, k, 1))),
    "dataset.dataset_from_csv": ("bytes", lambda a, k, r: os.path.getsize(_path_arg(a, k, 0))),
}


class FunctionStats:
    """What one wrapped function (or stage span) accumulated."""

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.child = 0.0
        self.durations: list[float] = []
        self.extra: Counter = Counter()

    def summary(self) -> dict[str, float]:
        out = {"calls": self.calls, "s": self.total, "self_s": self.total - self.child}
        if self.durations:
            ordered = sorted(self.durations)
            out["p50_ms"] = 1e3 * statistics.median(ordered)
            pct = next(
                (p for p in TAIL_LADDER if len(ordered) * (1 - p / 100) >= TAIL_MIN_BEYOND),
                None,
            )
            if pct is not None:
                rank = min(len(ordered) - 1, int(len(ordered) * pct / 100))
                out["tail_pct"] = pct
                out["tail_ms"] = 1e3 * ordered[rank]
        out.update(self.extra)
        return out


class Tracer:
    def __init__(self):
        self.stats: dict[str, FunctionStats] = {}
        # calls per (stage, function), to check exact counts per stage
        self.stage_calls: Counter = Counter()
        self.stage: str | None = None
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []

    def _record(self, name: str, elapsed: float, child: float) -> FunctionStats:
        stats = self.stats.setdefault(name, FunctionStats())
        stats.calls += 1
        stats.total += elapsed
        stats.child += child
        stats.durations.append(elapsed)
        self.stage_calls[(self.stage, name)] += 1
        return stats

    @contextlib.contextmanager
    def span(self, name: str, stage: str | None = None):
        """Time a block as a span; nested spans count as its children."""
        previous = self.stage
        if stage is not None:
            self.stage = stage
        frame = [0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += elapsed
            self._record(name, elapsed, frame[0])
            self.stage = previous

    def wrap(self, name: str, function):
        probe = PROBES.get(name)
        stack = self._stack

        @functools.wraps(function)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stats = self._record(name, elapsed, frame[0])
            if probe is not None:
                stats.extra[probe[0]] += probe[1](args, kwargs, result)
            return result

        return traced

    def install(self, package: str = "frontdoor_lab") -> None:
        """Wrap the layer modules' public functions at every import site."""
        wrappers = {}
        for short in LAYER_MODULES:
            module = importlib.import_module(f"{package}.{short}")
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == module.__name__
                ):
                    wrappers[value] = self.wrap(f"{short}.{attr}", value)
        namespaces = [
            module
            for name, module in list(sys.modules.items())
            if name == package or name.startswith(package + ".")
        ]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def calls_in(self, stages) -> Counter:
        """Calls per function made while one of ``stages`` was running."""
        counts: Counter = Counter()
        for (stage, name), count in self.stage_calls.items():
            if stage in stages:
                counts[name] += count
        return counts


def wrapper_cost_s(samples: int = 20000, repeats: int = 5) -> float:
    """Extra seconds one wrapped call costs over a plain call, measured here."""

    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrap("calibration.noop", noop)

    def best(function) -> float:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(samples):
                function()
            times.append(time.perf_counter() - start)
        return min(times) / samples

    return max(0.0, best(traced) - best(noop))
