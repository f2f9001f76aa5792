"""Span-based tracing over both execution backends.

A :class:`Tracer` records named, nested, per-rank :class:`Span`
intervals.  The *dual-clock* design makes traces structurally identical
across backends: the tracer reads time through a pluggable
``clock(rank) -> seconds`` callable, which is ``time.perf_counter``
(re-zeroed at bind time) for the wall-clock
:class:`~repro.mpi.inproc.InprocContext` backend and the per-rank
virtual clocks for the :class:`~repro.cluster.engine.SimulationEngine`.
Under the virtual-time engine every timestamp is deterministic, so two
identical runs export byte-identical traces.

Spans carry a ``category`` used by the exporters and the COM/SEQ/PAR
cross-check:

* ``"compute"`` / ``"seq"`` — engine-charged computation intervals;
* ``"kernel"`` — one named cost-model kernel (brackets the charge *and*
  the real numpy work, so it carries wall time on the inproc backend);
* ``"transfer"`` — one message transfer, recorded at each endpoint;
* ``"mpi"`` — a collective operation (brackets its internal transfers);
* ``"phase"`` — algorithm-level phases (``atdca.iteration``, ...);
* ``"health"`` — online drift detections from :mod:`repro.obs.health`
  (zero-duration point events, like ``"fault"`` markers).

The disabled path is a single attribute check: code holds a
:data:`NULL_TRACER` whose :meth:`~NullTracer.span` returns a shared
no-op context manager, so uninstrumented runs pay near-zero overhead.
"""

from __future__ import annotations

import dataclasses
import operator
import threading
import time
from typing import Any, Callable, Mapping

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER", "tracer_of"]

#: Span categories understood by the exporters.  ``meta`` spans are
#: zero-duration descriptors (the ``run.meta`` workload header consumed
#: by :mod:`repro.obs.whatif`); they carry attributes, not time.
SPAN_CATEGORIES = (
    "phase", "compute", "seq", "kernel", "transfer", "mpi", "fault",
    "health", "meta",
)


#: The sort key of the deterministic span order every export and
#: analysis uses: ``(start, rank, seq)``.
SPAN_ORDER = operator.attrgetter("start", "rank", "seq")


@dataclasses.dataclass(frozen=True)
class Span:
    """One finished activity interval.

    Attributes:
        name: dotted span name, e.g. ``"atdca.iteration"``.
        rank: the acting rank (spans are always rank-attributed).
        start, end: interval in backend seconds (virtual or wall).
        category: one of :data:`SPAN_CATEGORIES`.
        seq: per-rank creation index (deterministic tie-breaker).
        parent: ``(rank, seq)`` of the enclosing span, if any.
        attrs: free-form annotations (peer rank, megabits, mflops, ...).
    """

    name: str
    rank: int
    start: float
    end: float
    category: str = "phase"
    seq: int = 0
    parent: tuple[int, int] | None = None
    attrs: Mapping[str, Any] = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def span_id(self) -> tuple[int, int]:
        """Stable identifier: ``(rank, seq)``."""
        return (self.rank, self.seq)


class Tracer:
    """Collects spans; thread-safe, one instance shared by all ranks.

    Args:
        clock: ``clock(rank) -> seconds``.  Defaults to a wall clock
            zeroed at construction (the rank argument is ignored);
            the virtual-time engine rebinds it to its per-rank clocks.
    """

    enabled = True

    def __init__(self, clock: Callable[[int], float] | None = None) -> None:
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        #: ``_spans`` in ``(start, rank, seq)`` order, until the next
        #: span is recorded.
        self._sorted: list[Span] | None = None
        self._seq: dict[int, int] = {}
        self._local = threading.local()
        if clock is None:
            self.bind_wall_clock()
        else:
            self._clock = clock

    # -- clocks -----------------------------------------------------------
    def bind_wall_clock(self) -> None:
        """Clock spans by ``time.perf_counter`` relative to *now*."""
        t0 = time.perf_counter()
        self._clock = lambda rank: time.perf_counter() - t0

    def set_clock(self, clock: Callable[[int], float]) -> None:
        """Rebind the time source (used by the virtual-time engine)."""
        self._clock = clock

    def now(self, rank: int = 0) -> float:
        """Current time on ``rank``'s clock."""
        return self._clock(rank)

    # -- recording --------------------------------------------------------
    def span(
        self,
        name: str,
        rank: int = 0,
        category: str = "phase",
        **attrs: Any,
    ) -> "_SpanBlock":
        """A context manager recording the enclosed block as a span on
        ``rank``'s clock.

        The span takes its per-rank ``seq`` and start time on entry
        and is recorded on exit, also when the block raises (the
        exception propagates).  Nesting is tracked per thread (each
        rank runs on one thread in both backends), so the enclosing
        span becomes the parent.
        """
        return _SpanBlock(self, name, rank, category, attrs)

    def add_span(
        self,
        name: str,
        rank: int,
        start: float,
        end: float,
        category: str = "phase",
        **attrs: Any,
    ) -> Span:
        """Record an already-timed interval (engine transfer/compute
        events, whose times are decided at message-match time)."""
        with self._lock:
            seq = self._seq.get(rank, 0)
            self._seq[rank] = seq + 1
            finished = Span(
                name=name, rank=rank, start=start, end=end,
                category=category, seq=seq, parent=None, attrs=attrs,
            )
            self._spans.append(finished)
            self._sorted = None
        return finished

    # -- reading ----------------------------------------------------------
    def spans(self) -> list[Span]:
        """All finished spans, deterministically ordered by
        ``(start, rank, seq)``, as a new list the caller may change.

        The sort is kept until the next span is recorded, so the
        exporters and analyses of one finished run sort it once.
        """
        with self._lock:
            if self._sorted is None:
                self._sorted = sorted(self._spans, key=SPAN_ORDER)
            return list(self._sorted)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def __repr__(self) -> str:
        return f"Tracer(spans={len(self)})"


class _SpanBlock:
    """One :meth:`Tracer.span` block (a class, not a generator-based
    context manager: a traced sim run enters about a thousand)."""

    __slots__ = (
        "_tracer", "_name", "_rank", "_category", "_attrs",
        "_stack", "_seq", "_parent", "_start",
    )

    def __init__(
        self, tracer: Tracer, name: str, rank: int, category: str,
        attrs: dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self._name = name
        self._rank = rank
        self._category = category
        self._attrs = attrs

    def __enter__(self) -> None:
        tracer, rank = self._tracer, self._rank
        local = tracer._local
        stack: list[tuple[int, int]] | None = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        with tracer._lock:
            seq = tracer._seq.get(rank, 0)
            tracer._seq[rank] = seq + 1
        self._stack, self._seq = stack, seq
        self._parent = stack[-1] if stack else None
        stack.append((rank, seq))
        self._start = tracer._clock(rank)

    def __exit__(self, *exc: Any) -> bool:
        tracer, rank = self._tracer, self._rank
        end = tracer._clock(rank)
        self._stack.pop()
        finished = Span(
            name=self._name, rank=rank, start=self._start, end=end,
            category=self._category, seq=self._seq, parent=self._parent,
            attrs=self._attrs,
        )
        with tracer._lock:
            tracer._spans.append(finished)
            tracer._sorted = None
        return False


class _NullSpan:
    """Shared no-op context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Inert tracer: every operation is a no-op.

    Instrumented code holds one of these by default, so the cost of
    disabled tracing is an attribute lookup plus a method call that
    returns a shared object.
    """

    enabled = False

    def span(self, name: str, rank: int = 0, category: str = "phase",
             **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def add_span(self, name: str, rank: int, start: float, end: float,
                 category: str = "phase", **attrs: Any) -> None:
        return None

    def spans(self) -> list[Span]:
        return []

    def now(self, rank: int = 0) -> float:
        return 0.0

    def bind_wall_clock(self) -> None:
        return None

    def set_clock(self, clock: Callable[[int], float]) -> None:
        return None

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "NullTracer()"


#: The shared disabled tracer.
NULL_TRACER = NullTracer()


def tracer_of(ctx: Any) -> Tracer | NullTracer:
    """The tracer attached to a backend context (``ctx.obs.tracer``),
    or :data:`NULL_TRACER` when observability is off."""
    obs = getattr(ctx, "obs", None)
    return obs.tracer if obs is not None else NULL_TRACER
