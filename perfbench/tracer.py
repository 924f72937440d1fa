"""Span tracing of the faradaymeter modules from outside the package.

``Tracer.install`` rebinds, in every package module, each public name that
refers to a function or class defined in the package, so that calls made
through that name (the lookups a module does at call time, such as
``faradaymeter.cli.run_analytic`` or ``faradaymeter.estimator.TrialSampler``)
open and close a span.  The estimator's ``np`` is replaced by a view of
numpy whose ``random.Generator`` draws are spans as well, which separates
Philox time from the comparisons around it.  ``uninstall`` restores every
binding.  Nothing in ``src/`` changes.

Spans are kept in memory as flat columns (name, start, end, parent) and
self time is a span's duration minus the durations of its children.  The
program is single-threaded, so spans nest strictly.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from array import array
from time import perf_counter_ns

import numpy as np

PACKAGE = "faradaymeter"
MODULES = ("cli", "protocol", "qstate", "faraday", "estimator", "oracle", "imperfect")
RNG_SPAN = "estimator.rng.random"


class _TracedClass:
    """Stands in for a class: calls are traced, everything else is forwarded.

    Each traced class gets its own subclass whose ``__call__`` is the traced
    constructor itself, which saves a call layer per construction.
    """

    def __init__(self, cls) -> None:
        self._cls = cls

    @classmethod
    def wrapping(cls, target: type, traced) -> "_TracedClass":
        proxy = type(f"Traced{target.__name__}", (cls,), {"__call__": staticmethod(traced)})
        return proxy(target)

    def __getattr__(self, name):
        return getattr(self._cls, name)


class _TracedGenerator:
    """A numpy Generator whose ``random`` draws are spans and counted."""

    def __init__(self, generator, tracer: "Tracer") -> None:
        self._generator = generator
        self._tracer = tracer

    def random(self, *args, **kwargs):
        tracer = self._tracer
        if not tracer.active:
            return self._generator.random(*args, **kwargs)
        index = tracer.open(tracer.rng_name)
        try:
            out = self._generator.random(*args, **kwargs)
        finally:
            tracer.close(index)
        tracer.draws += int(np.size(out))
        return out

    def __getattr__(self, name):
        return getattr(self._generator, name)


class _RandomView:
    def __init__(self, tracer: "Tracer") -> None:
        self._tracer = tracer

    def Generator(self, bit_generator):  # noqa: N802 - mirrors numpy.random.Generator
        return _TracedGenerator(np.random.Generator(bit_generator), self._tracer)

    def __getattr__(self, name):
        return getattr(np.random, name)


class _NumpyView:
    def __init__(self, tracer: "Tracer") -> None:
        self.random = _RandomView(tracer)

    def __getattr__(self, name):
        return getattr(np, name)


class Tracer:
    """In-memory span recorder plus the rebinding that feeds it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self._stack: list[int] = []
        self.active = False
        self.draws = 0
        self.trials = 0
        self._saved: list[tuple] = []
        self.rng_name = self.name_id(RNG_SPAN)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
        return self._ids[name]

    def open(self, name: int) -> int:
        index = len(self.span_name)
        self.span_name.append(name)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0)
        self.calls[name] += 1
        self._stack.append(index)
        self.span_start.append(perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.span_end[index] = perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark loop itself, traced even when paused."""
        index = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(index)

    @contextlib.contextmanager
    def paused(self):
        """Let calls through untraced, e.g. while outputs are being checked."""
        previous, self.active = self.active, False
        try:
            yield
        finally:
            self.active = previous

    def _traced(self, fn, name: str, on_call=None):
        # open() and close() inlined, with the column methods bound once:
        # this wrapper runs tens of times per exact query.
        nid = self.name_id(name)
        calls, stack = self.calls, self._stack
        span_name, span_parent, span_end = self.span_name, self.span_parent, self.span_end
        add_name, add_parent, add_end = span_name.append, span_parent.append, span_end.append
        add_start, push, pop = self.span_start.append, stack.append, stack.pop

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(*args, **kwargs)
            index = len(span_name)
            add_name(nid)
            add_parent(stack[-1] if stack else -1)
            add_end(0)
            calls[nid] += 1
            push(index)
            add_start(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                span_end[index] = perf_counter_ns()
                pop()

        return traced

    def _count_trials(self, config, *args, **kwargs) -> None:
        self.trials += config.n_trials

    def install(self) -> None:
        """Rebind every traced name; ``uninstall`` puts the originals back."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}
        wrappers: dict[int, object] = {}
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not callable(obj):
                    continue
                owner = getattr(obj, "__module__", "") or ""
                short = owner.removeprefix(PACKAGE + ".")
                if short not in modules:
                    continue
                if isinstance(obj, type) and issubclass(obj, BaseException):
                    continue
                if id(obj) not in wrappers:
                    name = f"{short}.{obj.__name__}"
                    hook = self._count_trials if name == "estimator.estimate" else None
                    traced = self._traced(obj, name, hook)
                    wrappers[id(obj)] = _TracedClass.wrapping(obj, traced) if isinstance(obj, type) else traced
                self._saved.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])
        estimator = modules["estimator"]
        self._saved.append((estimator, "np", estimator.np))
        estimator.np = _NumpyView(self)

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()
        self.active = False

    def columns(self) -> dict[str, np.ndarray]:
        """Spans as numpy columns, with duration and self time in ns."""
        name, start, end, parent = (
            np.frombuffer(column, dtype=np.int64).copy()
            for column in (self.span_name, self.span_start, self.span_end, self.span_parent)
        )
        duration = end - start
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested], minlength=len(name))
        return {
            "name": name,
            "start": start,
            "end": end,
            "parent": parent,
            "duration": duration,
            "self": duration - children,
        }

    def save(self, path) -> None:
        """Write every span, and the name table, as one compressed npz file."""
        cols = self.columns()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=cols["name"],
            start=cols["start"],
            end=cols["end"],
            parent=cols["parent"],
        )
