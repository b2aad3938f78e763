"""In-memory span recording and the self-time rollup.

A span is one call across a wrapped layer boundary: ``name``, ``start``,
``end`` (``time.perf_counter`` seconds), the id of the span that caused it
(``parent``) and the id of the request it belongs to (``request``). All
spans of one request share a request id; a root span opened through
:meth:`Tracer.span` starts a new request.

Spans are appended to a plain list and written out once, when the run
ends. Nothing here touches the program under test: :mod:`probes` installs
the wrappers that call :meth:`Tracer.span`.

A layer's *self time* is its span's duration minus the part of that
interval covered by the union of its child spans. Children may overlap
(the parallel fan-out runs one child per shard at once), so the covered
part is the measure of the union of the children's intervals clipped to
the parent, never the plain sum of their durations.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

__all__ = [
    "Span",
    "Tracer",
    "covered",
    "self_times",
    "layer_totals",
]


@dataclass
class Span:
    id: int
    parent: int | None
    request: int | str
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from the benchmark's own wrappers.

    Spans opened with :meth:`span` nest through a per-thread stack. A span
    opened on a thread with an empty stack (a fan-out pool thread) is
    adopted by the most recently opened, still open span whose name is in
    ``adopters`` — the caller of the fan-out, which holds the router's
    serve lock while the pool threads run, so at most one such span is
    open at any time.
    """

    def __init__(self, adopters: tuple[str, ...] = ()) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._adopters = set(adopters)
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._open_adopters: list[Span] = []

    def new_request(self) -> int:
        return next(self._requests)

    def count(self, key: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0.0) + amount

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self) -> Span | None:
        stack = self._stack()
        if stack:
            return stack[-1]
        with self._lock:
            return self._open_adopters[-1] if self._open_adopters else None

    @contextmanager
    def span(self, name: str):
        parent = self._parent()
        sp = Span(
            id=next(self._ids),
            parent=parent.id if parent is not None else None,
            request=parent.request if parent is not None else self.new_request(),
            name=name,
            start=perf_counter(),
        )
        stack = self._stack()
        stack.append(sp)
        adopter = name in self._adopters
        if adopter:
            with self._lock:
                self._open_adopters.append(sp)
        try:
            yield sp
        finally:
            sp.end = perf_counter()
            stack.pop()
            with self._lock:
                if adopter:
                    self._open_adopters.remove(sp)
                self.spans.append(sp)

    def record(
        self,
        name: str,
        start: float,
        end: float,
        request: int | str,
    ) -> None:
        """Record a root span whose interval was measured elsewhere (the
        open loop's send lag, asyncio calls that a thread stack cannot
        follow)."""
        sp = Span(next(self._ids), None, request, name, start, end)
        with self._lock:
            self.spans.append(sp)

    def to_rows(self) -> list[list]:
        """Compact JSON-ready rows: id, parent, request, name, start, end
        (times in seconds relative to the first span's start)."""
        if not self.spans:
            return []
        t0 = min(s.start for s in self.spans)
        return [
            [s.id, s.parent, s.request, s.name,
             round(s.start - t0, 7), round(s.end - t0, 7)]
            for s in sorted(self.spans, key=lambda s: s.start)
        ]


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Measure of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id → self time (seconds): duration minus the union of the
    span's children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - covered(children.get(s.id, []), s.start, s.end)
        for s in spans
    }


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, summed duration and summed self time
    (seconds)."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.duration
        row["self_s"] += selfs[s.id]
    return out
