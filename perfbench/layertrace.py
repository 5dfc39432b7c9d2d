"""Outside-in span tracing of cyclosense's public functions.

A LayerTracer replaces each public function of the traced layer modules
with a timing wrapper, under every name any cyclosense module binds it to
(`from .scd import estimate_scd` makes a second binding in the importing
module), and puts the originals back on exit. No file of the program
changes. Spans nest on one stack, so a span's self time is its duration
minus the durations of the spans it encloses. Only aggregates are kept:
call counts, inclusive and self time, and each call's duration.

Use it only where every call runs in this process: spans recorded in
worker processes are lost.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

LAYERS = ("siggen", "scd", "detector", "gev", "harness", "io", "cli")


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)


class LayerTracer:
    """Context manager that times calls into cyclosense layer functions.

    `only` restricts tracing to the given "layer.function" names.
    """

    def __init__(self, only: set[str] | None = None) -> None:
        self.only = only
        self.stats: dict[str, SpanStats] = {}
        self.fit_iterations = 0
        self.fits_converged = 0
        self.bytes_written = 0
        self._stack: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "LayerTracer":
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"cyclosense.{layer}")
            for name, func in vars(module).items():
                qualname = f"{layer}.{name}"
                if (name.startswith("_") or not inspect.isfunction(func)
                        or func.__module__ != module.__name__
                        or (self.only is not None and qualname not in self.only)):
                    continue
                wrappers[id(func)] = (func, self._wrap(qualname, func))
        for module_name, module in list(sys.modules.items()):
            if module_name != "cyclosense" and not module_name.startswith("cyclosense."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)][1])
        return self

    def __exit__(self, *exc_info) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def _wrap(self, qualname: str, func):
        record = self.stats.setdefault(qualname, SpanStats())
        stack = self._stack
        observe = self._observer(qualname)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                record.calls += 1
                record.total_s += elapsed
                record.self_s += elapsed - children
                record.durations.append(elapsed)
            if observe is not None:
                observe(result)
            return result

        return traced

    def _observer(self, qualname: str):
        """Counts read from return values, outside the timed span."""
        if qualname == "gev.fit_gev_mle":
            def observe(report) -> None:
                self.fit_iterations += int(report.iterations)
                self.fits_converged += int(bool(report.converged))
            return observe
        if qualname.startswith("io.write_"):
            def observe(paths) -> None:
                for path in paths if isinstance(paths, tuple) else (paths,):
                    self.bytes_written += os.path.getsize(Path(path))
            return observe
        return None

    def get(self, qualname: str) -> SpanStats:
        return self.stats.get(qualname, SpanStats())

    def layer_self_s(self, layer: str) -> float:
        return sum(s.self_s for name, s in self.stats.items() if name.startswith(layer + "."))
