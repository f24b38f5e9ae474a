"""Spans around calls into the program's public functions.

The benchmark patches each span target in place: a module-level function is
replaced wherever a loaded `comex` module holds a reference to it (callers
import these by name), a method on its class. Every call then records its
inclusive time and its self time, which is the inclusive time minus the time
of the spans nested inside it. Spans are folded into per-target totals as
they close; at walk granularity there are millions per run, too many to keep
one by one.

A target that the program no longer defines is skipped and listed in
`absent`; the run goes on without it.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass

# (span name, module, attribute path). Several targets may share a span name;
# their calls and times are summed.
TARGETS = (
    ("harness.run", "comex.harness", "run_experiment"),
    ("harness.run", "comex.harness", "run_single"),
    ("harness.run", "comex.harness", "run_comex"),
    ("harness.build_problem", "comex.harness", "build_problem"),
    ("acquisition.propose", "comex.acquisition", "propose_query"),
    ("surrogate.update", "comex.surrogate", "MonomialSurrogate.update"),
    ("surrogate.predict", "comex.surrogate", "MonomialSurrogate.predict"),
    ("surrogate.move_delta", "comex.surrogate", "MonomialSurrogate.predict_flip_delta"),
    ("surrogate.move_delta", "comex.surrogate", "MonomialSurrogate.predict_two_flip_delta"),
    ("basis.features", "comex.basis", "MonomialBasis.features"),
    ("domain.neighbor_move", "comex.domain", "neighbor_move"),
    ("domain.sample_uniform", "comex.domain", "sample_uniform"),
    ("benchmarks.observe", "comex.benchmarks.base", "Oracle.observe"),
    ("baselines.run", "comex.baselines", "random_search"),
    ("baselines.run", "comex.baselines", "simulated_annealing_direct"),
    ("results.build_trace", "comex.results", "build_trace"),
    ("results.summarize", "comex.results", "summarize"),
    ("results.export_json", "comex.results", "export_json"),
)


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Installs span wrappers on the TARGETS and accumulates their times."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self.absent: list[str] = []
        self._children: list[float] = []   # time of closed child spans, per open span
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, stats: SpanStats, fn):
        children = self._children
        clock = time.perf_counter

        def span(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = children.pop()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - inner
                if children:
                    children[-1] += elapsed

        span.__wrapped__ = fn
        return span

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for name, module_name, path in TARGETS:
            stats = self.stats.setdefault(name, SpanStats())
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}.{path}")
                continue
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            wrapped = self._wrap(stats, original)
            if owner_path:                       # a method: patch the class
                self._set(owner, attr, wrapped)
                continue
            for module_key, module in list(sys.modules.items()):
                if module_key != "comex" and not module_key.startswith("comex."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def snapshot(self) -> dict[str, dict]:
        return {name: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s}
                for name, s in self.stats.items()}
