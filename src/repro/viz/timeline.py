"""ASCII Gantt rendering of engine traces and tracer spans.

Turns a traced :class:`~repro.cluster.engine.SimulationResult` (or an
observability session's spans — see :func:`gantt_of_trace`) into a
per-rank timeline — one lane per processor, `#` for parallel compute,
`S` for sequential compute, `=` for transfers, `.` for enclosing
phases, spaces for idle — the quickest way to *see* where a schedule
loses time (a master serializing its scatter, a slow worker pinning
the barrier, a serial link queueing transfers).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Sequence

from repro.cluster.engine import SimulationResult
from repro.errors import ConfigurationError
from repro.obs.trace import Span

__all__ = ["ascii_gantt", "gantt_of_run", "gantt_of_trace"]

#: Span category → glyph; any other category paints as phase (``.``).
#: Kernel spans bracket the same interval the engine charges, so they
#: paint as compute (``S`` when ``sequential``) — on the wall-clock
#: backend they are the only record of compute time; mpi waits paint
#: as transfers.
_GLYPHS = {
    "compute": "#", "seq": "S", "kernel": "#",
    "transfer": "=", "mpi": "=", "fault": "!",
}
#: Painting priority: faults over compute over transfer over phase
#: background (overlaps happen when a transfer interval abuts a compute
#: interval at cell resolution, and phase spans enclose their children).
_PRIORITY = {".": -1, "=": 0, "#": 1, "S": 2, "!": 3}


def ascii_gantt(
    spans: Sequence[Span],
    n_ranks: int,
    makespan: float | None = None,
    width: int = 80,
) -> str:
    """Render spans as one lane per rank (``r0``, ``r1``, ...).

    Args:
        spans: the intervals to paint, glyph by category.
        n_ranks: number of lanes.
        makespan: time axis extent (defaults to the last span end).
        width: characters across the time axis.
    """
    if n_ranks < 1:
        raise ConfigurationError("need at least one rank")
    if width < 10:
        raise ConfigurationError("width must be >= 10")
    if not spans:
        raise ConfigurationError("no events to render (trace the engine)")
    horizon = makespan if makespan is not None else max(s.end for s in spans)
    names = [f"r{i}" for i in range(n_ranks)]
    pad = max(len(n) for n in names)

    lanes = [[" "] * width for _ in range(n_ranks)]
    for span in spans:
        if not 0 <= span.rank < n_ranks:
            raise ConfigurationError(
                f"event rank {span.rank} outside [0, {n_ranks})"
            )
        if horizon <= 0:
            # A zero-extent trace (every span instantaneous) still
            # renders — as an empty axis — rather than dividing by it.
            continue
        sequential = span.category == "kernel" and span.attrs.get("sequential")
        glyph = "S" if sequential else _GLYPHS.get(span.category, ".")
        first = int(span.start / horizon * (width - 1))
        last = max(first, int(min(span.end, horizon) / horizon * (width - 1)))
        for col in range(first, last + 1):
            cell = lanes[span.rank][col]
            if cell == " " or _PRIORITY[glyph] >= _PRIORITY[cell]:
                lanes[span.rank][col] = glyph

    lines = [
        f"{names[i].rjust(pad)} |{''.join(lanes[i])}|" for i in range(n_ranks)
    ]
    axis = " " * pad + " +" + "-" * width + "+"
    scale = (
        " " * pad
        + "  0"
        + " " * (width - 6 - len(f"{horizon:.2f}"))
        + f"{horizon:.2f} s"
    )
    legend = (
        " " * pad
        + "  #=parallel compute  S=sequential  ==transfer  .=phase  !=fault"
    )
    return "\n".join(lines + [axis, scale, legend])


def gantt_of_run(result: SimulationResult, width: int = 80) -> str:
    """Gantt chart straight from a traced simulation result."""
    return ascii_gantt(
        result.events,
        n_ranks=len(result.finish_times),
        makespan=result.makespan,
        width=width,
    )


def gantt_of_trace(source: Any, width: int = 80) -> str:
    """Gantt chart from tracer spans — works for wall-clock runs too.

    The engine reports ``events`` only under the sim backend; this
    renders the same picture from an :class:`~repro.obs.ObsSession` (or
    tracer, or span sequence), which both backends populate.
    Wall-clock spans are shifted so the chart starts at the earliest
    span.

    Fault-tolerant traces are handled: after a ``recovery.repartition``
    seam the survivors run with renumbered dense ranks, and the seam
    span's ``ranks`` attribute carries the dense → original mapping, so
    post-recovery spans land back on their original lanes.  A crashed
    rank's lane simply ends at the crash (marked by the ``!`` fault
    glyph) instead of being overdrawn by the rank that inherited its
    dense id.

    The time axis spans the executed work only: an injected fault's
    window can outlast the run, so fault spans are clamped to the work
    and one that starts after it is not drawn.

    Args:
        source: session / tracer / span sequence (see ``spans_of``).
        width: characters across the time axis.
    """
    from repro.obs.analyze import original_rank_lookup
    from repro.obs.export import spans_of

    spans = spans_of(source)
    work = [s for s in spans if s.category != "fault"]
    if not work:
        raise ConfigurationError("no spans to render (trace a run first)")
    original_rank = original_rank_lookup(spans)

    t0 = min(s.start for s in work)
    horizon = max(s.end for s in work) - t0
    shifted = [
        dataclasses.replace(
            s,
            rank=original_rank(s.rank, s.start),
            start=max(s.start - t0, 0.0),
            end=min(s.end - t0, horizon),
        )
        for s in spans
        if s.end >= t0 and s.start - t0 <= horizon
    ]
    return ascii_gantt(
        shifted,
        n_ranks=1 + max(s.rank for s in shifted),
        makespan=horizon,
        width=width,
    )
