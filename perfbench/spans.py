"""Span recording around each layer's entry points, from outside the program.

The traced run replaces each layer's public entry point *at the name its
callers bind* (``repro.core.clude.markowitz_ordering`` and
``repro.query.spec.markowitz_ordering`` are two bindings of one function)
with a wrapper that records a span: name, start, end and parent.  The
parent is the innermost open span of the same thread, so a layer's self
time is its span minus the spans nested inside it.  :func:`instrument`
restores every original object on exit.

Spans inside shard worker processes cannot be reached from here: a sharded
run records the front-end spans and the counters the program exposes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple


@dataclasses.dataclass(frozen=True)
class Span:
    """One timed call into a layer."""

    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    #: work units the call carried (right-hand-side columns for a sweep)
    units: int = 1

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclasses.dataclass
class LayerTotals:
    """Aggregate of every span with one name."""

    calls: int = 0
    units: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class SpanRecorder:
    """Thread-aware in-memory span recorder.

    Each thread keeps its own stack of open spans; finished spans append to
    one shared list under a lock.  Spans are kept in memory and reduced
    only after the run, so recording costs two clock reads per call.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self.spans: List[Span] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, units: int = 1) -> Iterator[None]:
        """Record the enclosed block as one span named ``name``."""
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = self._clock()
        try:
            yield
        finally:
            end = self._clock()
            stack.pop()
            with self._lock:
                self.spans.append(Span(span_id, name, start, end, parent, units))

    def wrap(
        self,
        name: str,
        func: Callable,
        units: Optional[Callable[..., int]] = None,
    ) -> Callable:
        """Return ``func`` wrapped so every call records a span."""

        def traced(*args, **kwargs):
            count = units(*args, **kwargs) if units is not None else 1
            with self.span(name, count):
                return func(*args, **kwargs)

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    def totals(self) -> Dict[str, LayerTotals]:
        """Per-name calls, units, total time and self time.

        Self time is a span's duration minus the durations of its direct
        children.  Children run on their parent's thread, inside its
        interval and one after another, so their durations do not overlap.
        """
        with self._lock:
            spans = list(self.spans)
        child_time: Dict[int, float] = {}
        for span in spans:
            if span.parent is not None:
                child_time[span.parent] = child_time.get(span.parent, 0.0) + span.duration
        result: Dict[str, LayerTotals] = {}
        for span in spans:
            layer = result.setdefault(span.name, LayerTotals())
            layer.calls += 1
            layer.units += span.units
            layer.total_s += span.duration
            layer.self_s += span.duration - child_time.get(span.span_id, 0.0)
        return result


def _columns(factors, ordering, block) -> int:
    shape = getattr(block, "shape", None)
    if shape is not None and len(shape) == 2:
        return int(shape[1])
    return len(block[0]) if len(block) else 0


def _one_column(factors, ordering, b) -> int:
    return 1


#: (span name, "module:attribute" bindings, units counter).  A module
#: binding is a name callers import into their own namespace; a
#: ``module:Class.method`` binding patches the method on that class.
#: ``exec.ParallelExecutor`` is deliberately absent, and sparse kernels are
#: counted only inside ``lu.sweep``.
ENTRY_POINTS: Tuple[Tuple[str, Sequence[str], Optional[Callable[..., int]]], ...] = (
    ("core.clustering", ("repro.core.clude:alpha_clustering",), None),
    # Planner cold misses run as FACTOR work units through repro.core.bf.
    ("lu.ordering", (
        "repro.core.bf:markowitz_ordering",
        "repro.core.clude:markowitz_ordering",
        "repro.query.spec:markowitz_ordering",
    ), None),
    ("lu.symbolic", (
        "repro.core.clude:symbolic_decomposition",
        "repro.lu.crout:symbolic_decomposition",
    ), None),
    ("lu.numeric", (
        "repro.core.bf:crout_decompose",
        "repro.core.clude:crout_decompose_into",
        "repro.query.spec:crout_decompose",
    ), None),
    # The refresh work unit imports bennett_update from repro.lu.bennett at
    # call time, so that module attribute is one of its bindings.
    ("lu.bennett", (
        "repro.core.clude:bennett_update",
        "repro.lu.bennett:bennett_update",
        "repro.query.cache:bennett_update",
        "repro.store.factorstore:bennett_update",
    ), None),
    ("lu.sweep", (
        "repro.core.result:solve_reordered_system_many",
        "repro.query.spec:solve_reordered_system_many",
        "repro.lu.smw:solve_reordered_system_many",
    ), _columns),
    ("lu.sweep", (
        "repro.core.result:solve_reordered_system",
        "repro.query.spec:solve_reordered_system",
    ), _one_column),
    ("query.execute", ("repro.query.planner:QueryPlanner.execute",), None),
    # The ladder calls try_resolve on the fused (hit, store_restore) stage
    # and resolve_batch on every single-tier stage.
    ("query.tier.hit", ("repro.query.resolution:HitTier.try_resolve",), None),
    ("query.tier.store_restore", (
        "repro.query.resolution:StoreRestoreTier.try_resolve",
    ), None),
    ("query.tier.verbatim_reuse", (
        "repro.query.resolution:VerbatimReuseTier.resolve_batch",
    ), None),
    ("query.tier.corrected_reuse", (
        "repro.query.resolution:CorrectedReuseTier.resolve_batch",
    ), None),
    ("query.tier.refresh", ("repro.query.resolution:RefreshTier.resolve_batch",), None),
    ("query.tier.cold", ("repro.query.resolution:ColdTier.resolve_batch",), None),
    ("store.checkpoint", ("repro.query.cache:FactorCache.checkpoint",), None),
    ("shard.execute", ("repro.shard.planner:ShardedPlanner.execute",), None),
)


def _resolve(binding: str) -> Tuple[object, str]:
    """Return ``(owner, attribute)`` for a ``module:name`` binding."""
    module_name, _, path = binding.partition(":")
    owner: object = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute


@contextlib.contextmanager
def instrument(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every entry point for the duration of the block, then restore.

    A method a class inherits is patched on that class and deleted again
    afterwards, so the inherited function shows through unchanged.
    """
    patched: List[Tuple[object, str, bool, object]] = []
    try:
        for name, bindings, units in ENTRY_POINTS:
            for binding in bindings:
                owner, attribute = _resolve(binding)
                inherited = isinstance(owner, type) and attribute not in vars(owner)
                original = getattr(owner, attribute) if inherited else vars(owner)[attribute]
                patched.append((owner, attribute, inherited, original))
                setattr(owner, attribute, recorder.wrap(name, original, units))
        yield recorder
    finally:
        for owner, attribute, inherited, original in reversed(patched):
            if inherited:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)


def current_bindings() -> Dict[str, object]:
    """Map every binding to the object it currently names."""
    found: Dict[str, object] = {}
    for _, bindings, _ in ENTRY_POINTS:
        for binding in bindings:
            owner, attribute = _resolve(binding)
            found[binding] = getattr(owner, attribute)
    return found
