"""Spans around the package's public layer functions, for the traced run.

The package modules import each other's functions by name, so one
function has several bindings (`observables.steady_state`,
`experiments.steady_state`, `qtransistor.steady_state`, ...).  `install`
replaces every binding in every loaded qtransistor module with one wrapper
and `uninstall` puts the originals back.  Spans stay in memory until the
run ends; nothing is written while timing.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass

# (module, function) pairs traced, one per layer boundary
TRACED = (
    ("model", "analytic_eigensystem"),
    ("channels", "channels_analytic"),
    ("dynamics", "rate_matrix"),
    ("dynamics", "steady_state"),
    ("observables", "heat_currents"),
    ("observables", "amplification_factor"),
    ("experiments", "load_config"),
    ("experiments", "run_sweep"),
    ("experiments", "sweep_rows"),
    ("experiments", "write_sweep_csv"),
    ("cli", "main"),
)

NAMES = tuple(f"{module}.{function}" for module, function in TRACED)


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into the span list, -1 for a root
    point: int | None    # request the span belongs to
    failed: bool = False


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time its direct children cover.

    Calls are synchronous on one thread, so children nest inside their
    parent and never overlap one another.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per traced name: calls, failed calls and total self time."""
    out = {name: {"calls": 0, "failed": 0, "self_s": 0.0} for name in NAMES}
    for span, own in zip(spans, self_times(spans)):
        entry = out.setdefault(span.name, {"calls": 0, "failed": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["failed"] += span.failed
        entry["self_s"] += own
    return out


class Tracer:
    """Records a span per call of each traced function while installed.

    `observers` maps a traced name to a callback that receives each
    successful result, so health figures are read where they are made.
    """

    def __init__(self, observers=None):
        self.spans: list[Span] = []
        self.point: int | None = None
        self.observers = observers or {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        observe = self.observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), 0.0,
                        self._stack[-1] if self._stack else -1, self.point)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                observe(result)
            return result

        return traced

    def install(self, package: str = "qtransistor") -> None:
        owners = {name: importlib.import_module(f"{package}.{name}") for name, _ in TRACED}
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        for module_name, function in TRACED:
            original = getattr(owners[module_name], function)
            wrapper = self.wrap(f"{module_name}.{function}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()
