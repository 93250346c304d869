"""Outside-in tracing: a span recorder and wrappers around mildlab's layers.

Every wrapper is installed at the module or class attribute its caller
resolves (for example ``mildlab.solver.yosida_array``, which is what
``solve_regularized`` looks up at call time), so nothing inside the program
changes.  Wrappers exist only between :meth:`Wrappers.install` and
:meth:`Wrappers.restore`; untraced runs measure unwrapped code.

Spans are kept in memory as tuples and written out once at the end.  Self
time is computed per thread: a span's duration minus the durations of its
direct children on the same thread.  Work a thread pool runs for a span is
linked to it as parent but is not subtracted from its self time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Iterator, NamedTuple, Optional


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans and counters; safe to use from pool threads."""

    def __init__(self, ids: Optional[Iterator[int]] = None):
        """Share ``ids`` between recorders whose spans are later merged."""
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = ids if ids is not None else itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[int]:
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, name: str, fn: Callable, *args, parent: Optional[int] = None, **kwargs):
        """Run fn(*args, **kwargs) inside a span; parent defaults to this thread's."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, threading.get_ident()))

    def add(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += amount

    @classmethod
    def merged(cls, recorders: list["SpanRecorder"]) -> "SpanRecorder":
        out = cls()
        for rec in recorders:
            out.spans += rec.spans
            for name, value in rec.counters.items():
                out.counters[name] += value
        return out


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus its direct same-thread children's durations."""
    by_id = {s.id: s for s in spans}
    out = {s.id: s.duration for s in spans}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None and parent.thread == s.thread:
            out[parent.id] -= s.duration
    return out


# -- wrappers -----------------------------------------------------------------

# (owner, attribute, span name).  An owner "pkg.mod:Class" names a class.
# Each caller module that imported a function by name gets its own entry.
SPAN_TARGETS = (
    ("mildlab.cli", "parse_config", "config.parse_config"),
    ("mildlab.semigroup:HeatSemigroup", "__init__", "semigroup.HeatSemigroup"),
    ("mildlab.cli", "sample_path", "noise.sample_path"),
    ("mildlab.noise:NoisePath", "fields", "noise.NoisePath.fields"),
    ("mildlab.cli", "solve_mild", "solver.solve_mild"),
    ("mildlab.verify.studies", "solve_mild", "solver.solve_mild"),
    ("mildlab.solver", "solve_regularized", "solver.solve_regularized"),
    ("mildlab.verify.studies", "solve_regularized", "solver.solve_regularized"),
    ("mildlab.solver", "extract_g", "solver.extract_g"),
    ("mildlab.solver", "residual_check", "solver.residual_check"),
    ("mildlab.solver", "convolve_series", "semigroup.convolve_series"),
    ("mildlab.verify.studies", "convolve_series", "semigroup.convolve_series"),
    ("mildlab.solver", "yosida_array", "scalar_monotone.yosida_array"),
    ("mildlab.verify.studies", "yosida_array", "scalar_monotone.yosida_array"),
    ("mildlab.grid_space:FieldSeries", "sup_norm", "grid_space.FieldSeries.sup_norm"),
    ("mildlab.cli", "export_series_csv", "noise.export_series_csv"),
    ("mildlab.cli", "atomic_write_text", "verify.report.atomic_write_text"),
    ("mildlab.verify.report", "atomic_write_text", "verify.report.atomic_write_text"),
    ("mildlab.verify.studies", "map_ordered", "verify.report.map_ordered"),
    ("mildlab.cli", "apriori_constants_study", "verify.studies.apriori_constants_study"),
    ("mildlab.cli", "cauchy_rate_study", "verify.studies.cauchy_rate_study"),
)
# Called tens of thousands of times per run: counted, not spanned.
COUNT_TARGETS = (
    ("mildlab.scalar_monotone:MonotoneGraph", "mid_values",
     "scalar_monotone.MonotoneGraph.mid_values.calls"),
)
MAP_ITEM = "verify.report.map_ordered.item"


def _owner(spec: str):
    module, _, cls = spec.partition(":")
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls else mod


def _arg(args, kwargs, index: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


class Wrappers:
    """Installs tracing wrappers on mildlab and puts the originals back."""

    def __init__(self, recorder: SpanRecorder):
        self.rec = recorder
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> "Wrappers":
        if self._saved:
            raise RuntimeError("wrappers already installed")
        try:
            for owner, attr, name in SPAN_TARGETS:
                self._replace(owner, attr, lambda fn, name=name: self._span(name, fn))
            for owner, attr, name in COUNT_TARGETS:
                self._replace(owner, attr, lambda fn, name=name: self._count(name, fn))
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Wrappers":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    def _replace(self, spec: str, attr: str, make: Callable) -> None:
        owner = _owner(spec)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, property):
            wrapped = property(make(original.fget))
        else:
            wrapped = make(original)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def _count(self, name: str, fn: Callable) -> Callable:
        rec = self.rec

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            rec.add(name)
            return fn(*args, **kwargs)

        return counted

    def _span(self, name: str, fn: Callable) -> Callable:
        if name == "verify.report.map_ordered":
            return self._map_ordered(name, fn)
        rec = self.rec
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            result = rec.call(name, fn, *args, **kwargs)
            if after is not None:
                after(rec, args, kwargs)
            return result

        return timed

    def _map_ordered(self, name: str, fn: Callable) -> Callable:
        """Span the pool call, and each item on its worker thread as its child."""
        rec = self.rec

        @functools.wraps(fn)
        def mapped(item_fn, items, workers=1):
            def run():
                parent = rec.current()
                lanes = min(workers, len(items)) if workers > 1 else 1
                start = time.perf_counter()
                try:
                    return fn(lambda x: rec.call(MAP_ITEM, item_fn, x, parent=parent),
                              items, workers)
                finally:
                    rec.add("verify.report.map_ordered.capacity_s",
                            lanes * (time.perf_counter() - start))

            return rec.call(name, run)

        return mapped


# Counters fed from a call's arguments once it has returned.
_AFTER = {
    "noise.export_series_csv": lambda rec, args, kwargs: rec.add(
        "noise.export_series_csv.bytes", os.path.getsize(_arg(args, kwargs, 2, "dest"))),
    "solver.solve_regularized": lambda rec, args, kwargs: _count_steps(
        rec, _arg(args, kwargs, 3, "path")),
}


def _count_steps(rec: SpanRecorder, path) -> None:
    rec.add("solver.steps", path.n_steps)
    # the semigroup substep is two dense (M x M) matvecs, computed from the sizes
    rec.add("semigroup.substep.flop", 4.0 * path.grid.M**2 * path.n_steps)
