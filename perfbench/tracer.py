"""Outside-in tracer: wraps the package's module-level functions from outside.

Every module-level function of every ``isrsprop`` module is replaced, at every
module attribute it is bound to, by a wrapper that records a span (id, name,
start, end, parent id).  Modules import each other's functions by name
(``cli.integrate_span``, ``osnr.preemphasis_multispan``) and look up their
own helpers at call time (``ode_oracle._coupling_matrix``,
``cli._write_table``), so replacing every binding catches every call.  The
program itself is not edited.

Per-value formatting helpers are left unwrapped; their cost stays in the
caller's self time.  The RK4 generator is wrapped without a span (its body
runs interleaved with ``integrate_span``'s loop) and only counts steps.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import defaultdict

LAYERS = ("profiles", "config", "ode_oracle", "closedform", "inverse", "multispan",
          "osnr", "bench", "cli")
UNWRAPPED = frozenset({"_fmt", "_freeze"})  # per-value helpers


class Tracer:
    """Span recorder; install() patches the package, uninstall() restores it."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int, bool]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.failures: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.rk4_steps = 0
        self.matvec_flop = 0
        self.bytes_written = 0
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- span recording -------------------------------------------------
    def _wrap(self, name: str, func):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            failed = None
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            except BaseException as exc:
                failed = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[1]
                if failed is not None:
                    tracer.failures[name][failed] += 1
                tracer.spans.append((span_id, name, start, end, parent, failed is not None))

        return traced

    def _wrap_rk4(self, func):
        tracer = self

        @functools.wraps(func)
        def counted(p0, *args, **kwargs):
            flop_per_step = 4 * 2 * p0.size * p0.size  # four K @ p products per step
            for state in func(p0, *args, **kwargs):
                tracer.rk4_steps += 1
                tracer.matvec_flop += flop_per_step
                yield state

        return counted

    def _wrap_write_table(self, traced):
        tracer = self

        @functools.wraps(traced)
        def counted(path, header, rows, fmt):
            traced(path, header, rows, fmt)
            written = path.with_suffix(".json") if fmt == "json" else path
            tracer.bytes_written += os.path.getsize(written)

        return counted

    # -- patching -------------------------------------------------------
    def install(self, package: str = "isrsprop") -> None:
        modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                if attr == "_rk4":
                    wrappers[obj] = self._wrap_rk4(obj)
                elif attr not in UNWRAPPED:
                    wrapped = self._wrap(f"{layer}.{attr.lstrip('_')}", obj)
                    if layer == "cli" and attr == "_write_table":
                        wrapped = self._wrap_write_table(wrapped)
                    wrappers[obj] = wrapped
        targets = [importlib.import_module(package), *modules.values()]
        for module in targets:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- results --------------------------------------------------------
    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_s.items():
            out[name.split(".", 1)[0]] += seconds
        return out

    def write_spans(self, path) -> None:
        """Spans as JSON lines: id, name, start and end (s), parent id (-1 at top)."""
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, failed in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "failed": failed}) + "\n")
