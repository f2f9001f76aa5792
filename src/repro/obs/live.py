"""Live observability runtime: flight recorder + online health monitor.

While PRs 1-4 explain a run *after* it finishes, this module observes
it *while it executes*, at bounded cost, on both backends:

* :class:`FlightRecorder` — per-rank ring buffers of the most recent
  spans plus streaming per-op aggregates (count/total/min/max and a
  mergeable :class:`~repro.obs.sketch.LatencySketch` per
  ``(kind, name, rank)``), fed by a tracer listener.  Memory is
  O(ranks × ring size + distinct op names), never O(run length).
* :class:`LiveRuntime` — binds the recorder, a
  :class:`~repro.obs.health.HealthMonitor`, and an output directory
  into one object attached to an :class:`~repro.obs.ObsSession`.  Both
  backends feed it exactly the way the fault injector is fed, from the
  shared rank context: each compute op reports the (predicted,
  charged) pair its timing core produced — the engine's virtual clock,
  or the wall-clock backend's nominal one — so the health detector's
  firing sequence is identical on virtual and wall clocks for the same
  fault plan.  The engine additionally reports each modelled transfer.
* atomic snapshots — ``live.json`` (ring + aggregates + percentiles +
  health state) and ``live.prom`` (the session's OpenMetrics dump) are
  rewritten atomically every ``snapshot_every`` spans, so ``live watch``
  (the CLI at the bottom: ``python -m repro live watch DIR``) can
  tail a run without coordinating with it.

On the virtual-time engine every aggregate is keyed per rank and
updated in that rank's program order, and sketch merges are integer
bucket addition, so live snapshots are as deterministic as the traces:
two identical sim runs produce byte-identical ``live.json`` files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from collections import deque
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.errors import ConfigurationError
from repro.obs.export import canonical_json, openmetrics_text
from repro.obs.health import HealthConfig, HealthEvent, HealthMonitor
from repro.obs.provenance import provenance, warn_if_unstamped
from repro.obs.sketch import LatencySketch, merge_sketches
from repro.obs.trace import Span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import ObsSession

__all__ = [
    "LIVE_SCHEMA",
    "FlightRecorder",
    "LiveRuntime",
    "OpAggregate",
    "read_snapshot",
    "render_snapshot",
    "main",
]

LIVE_SCHEMA = "repro.obs.live/1"

#: Quantiles reported in snapshots.
_QUANTILES = (("p50", 0.5), ("p90", 0.9), ("p99", 0.99))

#: Span categories folded into per-op aggregates (fault/health markers
#: appear in the ring only).
_AGGREGATED = ("phase", "compute", "seq", "kernel", "transfer", "mpi")


class OpAggregate:
    """Streaming summary of one ``(kind, name, rank)`` op stream."""

    __slots__ = ("count", "total_s", "min_s", "max_s", "sketch")

    def __init__(self, sketch_config: tuple[float, float, int]) -> None:
        self.count = 0
        self.total_s = 0.0
        self.min_s = float("inf")
        self.max_s = float("-inf")
        self.sketch = LatencySketch(*sketch_config)

    def observe(self, duration_s: float) -> None:
        self.count += 1
        self.total_s += duration_s
        if duration_s < self.min_s:
            self.min_s = duration_s
        if duration_s > self.max_s:
            self.max_s = duration_s
        self.sketch.observe(max(duration_s, 0.0))


def _op_key(span: Span) -> tuple[str, str] | None:
    """The aggregate ``(kind, name)`` for a span, or ``None`` to skip."""
    category = span.category
    if category not in _AGGREGATED:
        return None
    if category == "kernel":
        return ("kernel", str(span.attrs.get("kernel", span.name)))
    if category == "transfer":
        link = span.attrs.get("link")
        if link is None:
            peer = span.attrs.get("peer")
            if peer is None:
                return ("link", span.name)
            lo, hi = sorted((span.rank, int(peer)))
            link = f"pair:{lo}~{hi}"
        return ("link", str(link))
    return (category, span.name)


class FlightRecorder:
    """Bounded ring of recent spans + streaming per-op aggregates.

    One deque of ``ring_size`` spans per rank (per-rank rings make the
    retained set deterministic on the virtual-time engine, where a
    single shared ring would depend on thread arrival order), and one
    :class:`OpAggregate` per ``(kind, name, rank)``.
    """

    def __init__(
        self,
        ring_size: int = 64,
        sketch_config: tuple[float, float, int] = (1e-9, 1e4, 32),
    ) -> None:
        if ring_size < 1:
            raise ConfigurationError(
                f"ring_size must be >= 1, got {ring_size}"
            )
        self.ring_size = ring_size
        self.sketch_config = sketch_config
        self._lock = threading.Lock()
        self._rings: dict[int, deque[Span]] = {}
        self._aggregates: dict[tuple[str, str, int], OpAggregate] = {}
        self.spans_seen = 0

    def record(self, span: Span) -> None:
        key = _op_key(span)
        with self._lock:
            self.spans_seen += 1
            ring = self._rings.get(span.rank)
            if ring is None:
                ring = self._rings[span.rank] = deque(maxlen=self.ring_size)
            ring.append(span)
            if key is not None:
                full_key = (key[0], key[1], span.rank)
                aggregate = self._aggregates.get(full_key)
                if aggregate is None:
                    aggregate = self._aggregates[full_key] = OpAggregate(
                        self.sketch_config
                    )
                aggregate.observe(span.duration)

    # -- reading ----------------------------------------------------------
    def ring_spans(self) -> list[Span]:
        """Recent spans across all ranks, in deterministic
        ``(start, rank, seq)`` order."""
        with self._lock:
            spans = [s for ring in self._rings.values() for s in ring]
        return sorted(spans, key=lambda s: (s.start, s.rank, s.seq))

    def aggregates(self) -> dict[tuple[str, str, int], OpAggregate]:
        with self._lock:
            return dict(self._aggregates)

    def merged_aggregates(self) -> dict[tuple[str, str], LatencySketch]:
        """Per-op sketches merged across ranks (exact integer merge).

        Merges in sorted (kind, name, rank) order: bucket counts are
        order-independent, but the float ``total`` is not, and rank
        order keeps it deterministic on the virtual-time engine.
        """
        groups: dict[tuple[str, str], list[LatencySketch]] = {}
        for (kind, name, _rank), aggregate in sorted(
            self.aggregates().items()
        ):
            groups.setdefault((kind, name), []).append(aggregate.sketch)
        return {
            key: merge_sketches(sketches)
            for key, sketches in groups.items()
        }

    def __len__(self) -> int:
        with self._lock:
            return sum(len(ring) for ring in self._rings.values())


def _span_record(span: Span) -> dict[str, Any]:
    def jsonable(value: Any) -> Any:
        if isinstance(value, (str, int, float, bool)) or value is None:
            return value
        return str(value)

    return {
        "name": span.name,
        "category": span.category,
        "rank": span.rank,
        "seq": span.seq,
        "start": span.start,
        "end": span.end,
        "attrs": {str(k): jsonable(v) for k, v in sorted(span.attrs.items())},
    }


class LiveRuntime:
    """The online observability engine for one run.

    Attach to a session (``ObsSession.create(live=LiveRuntime(...))``)
    and every span feeds the flight recorder; both backends additionally
    feed (predicted, observed) op durations to the health monitor.

    Args:
        out_dir: where ``live.json`` / ``live.prom`` snapshots land
            (``None`` = in-memory only; :meth:`snapshot` still works).
        ring_size: per-rank flight-recorder ring capacity.
        snapshot_every: rewrite the snapshot files every N spans
            (``0`` = only on explicit :meth:`write_snapshot` calls).
        health: detector configuration (``HealthConfig`` or a ready
            ``HealthMonitor``); default configuration when omitted.
        sketch_config: ``(min_value, max_value, buckets_per_decade)``
            for every per-op latency sketch.
    """

    def __init__(
        self,
        out_dir: str | Path | None = None,
        ring_size: int = 64,
        snapshot_every: int = 256,
        health: "HealthConfig | HealthMonitor | None" = None,
        sketch_config: tuple[float, float, int] = (1e-9, 1e4, 32),
    ) -> None:
        if snapshot_every < 0:
            raise ConfigurationError(
                f"snapshot_every must be >= 0, got {snapshot_every}"
            )
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.snapshot_every = snapshot_every
        self.recorder = FlightRecorder(
            ring_size=ring_size, sketch_config=sketch_config
        )
        if isinstance(health, HealthMonitor):
            self.health = health
        else:
            self.health = HealthMonitor(config=health)
        self.health.emit = self._emit_health_event
        self._session: "ObsSession | None" = None
        self._lock = threading.Lock()
        # Serializes snapshot writers: they share one ``.tmp`` file per
        # target.  Not ``_lock`` — ``snapshot()`` takes that.
        self._write_lock = threading.Lock()
        self._snapshot_index = 0
        self._span_countdown = snapshot_every

    # -- wiring -----------------------------------------------------------
    def attach(self, session: "ObsSession") -> None:
        """Register on the session's tracer (idempotent; both backends
        call this so manually-built sessions still get wired)."""
        self._session = session
        session.tracer.add_listener(self._on_span)

    # -- span stream (tracer listener) ------------------------------------
    def _on_span(self, span: Span) -> None:
        self.recorder.record(span)
        if self.out_dir is not None and self.snapshot_every:
            write = False
            with self._lock:
                self._span_countdown -= 1
                if self._span_countdown <= 0:
                    self._span_countdown = self.snapshot_every
                    write = True
            if write:
                self.write_snapshot()

    # -- health observation hooks -----------------------------------------
    def observe_compute(
        self, rank: int, predicted_s: float, observed_s: float, at: float
    ) -> None:
        """One compute op charged on a rank's timing core (either
        backend), with the analytic duration before and after fault
        dilation."""
        self.health.observe_compute(rank, predicted_s, observed_s, at)

    def observe_transfer(
        self, link: str, predicted_s: float, observed_s: float, at: float
    ) -> None:
        """Virtual-time engine hook: one modelled transfer on ``link``."""
        self.health.observe_transfer(link, predicted_s, observed_s, at)

    def _emit_health_event(self, event: HealthEvent) -> None:
        """Surface a detector event as a trace span + metrics."""
        session = self._session
        if session is None:
            return
        rank = event.rank if event.rank is not None else 0
        session.tracer.add_span(
            f"health.{event.kind}", rank, event.at, event.at,
            category="health", subject=event.subject,
            op_index=event.op_index, ewma_rel_error=event.ewma,
            threshold=event.threshold,
        )
        session.metrics.counter(
            "health.events", kind=event.kind, subject=event.subject
        ).inc()

    # -- snapshots ---------------------------------------------------------
    def snapshot(self, include_sketches: bool = False) -> dict[str, Any]:
        """JSON-safe instantaneous state (deterministic on the
        virtual-time engine).  ``include_sketches`` adds each op's
        sparse bucket encoding so downstream tools can merge
        percentiles across grid cells."""
        with self._lock:
            self._snapshot_index += 1
            index = self._snapshot_index
        ops = []
        for (kind, name, rank), agg in sorted(
            self.recorder.aggregates().items()
        ):
            entry: dict[str, Any] = {
                "kind": kind,
                "name": name,
                "rank": rank,
                "count": agg.count,
                "total_s": agg.total_s,
                "min_s": agg.min_s,
                "max_s": agg.max_s,
                "mean_s": agg.total_s / agg.count if agg.count else 0.0,
            }
            for label, q in _QUANTILES:
                entry[label + "_s"] = agg.sketch.quantile(q)
            if include_sketches:
                entry["sketch"] = agg.sketch.to_dict()
            ops.append(entry)
        merged = []
        for (kind, name), sketch in sorted(
            self.recorder.merged_aggregates().items()
        ):
            entry = {
                "kind": kind,
                "name": name,
                "count": sketch.count,
                "mean_s": sketch.mean,
            }
            for label, q in _QUANTILES:
                entry[label + "_s"] = sketch.quantile(q)
            if include_sketches:
                entry["sketch"] = sketch.to_dict()
            merged.append(entry)
        return {
            "schema": LIVE_SCHEMA,
            "snapshot_index": index,
            "ring_size": self.recorder.ring_size,
            "spans_seen": self.recorder.spans_seen,
            "ops": ops,
            "merged": merged,
            "recent": [_span_record(s) for s in self.recorder.ring_spans()],
            "health": self.health.state(),
            "provenance": provenance(),
        }

    def write_snapshot(
        self, include_sketches: bool = False
    ) -> list[Path]:
        """Atomically rewrite ``live.json`` (+ ``live.prom`` when the
        session's metrics are available) under ``out_dir``."""
        if self.out_dir is None:
            raise ConfigurationError(
                "LiveRuntime has no out_dir; pass one at construction"
            )
        with self._write_lock:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            files = [
                _atomic_write(
                    self.out_dir / "live.json",
                    canonical_json(self.snapshot(include_sketches)),
                )
            ]
            if self._session is not None:
                files.append(
                    _atomic_write(
                        self.out_dir / "live.prom",
                        openmetrics_text(self._session),
                    )
                )
        return files


def _atomic_write(path: Path, text: str) -> Path:
    """Write-then-rename so watchers never read a torn file."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)
    return path


# -- watch CLI ----------------------------------------------------------------

def read_snapshot(target: str | Path) -> dict[str, Any]:
    """Load a ``live.json`` snapshot (``target`` may be the file or its
    directory)."""
    path = Path(target)
    if path.is_dir():
        path = path / "live.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    schema = data.get("schema")
    if schema != LIVE_SCHEMA:
        raise ConfigurationError(
            f"unsupported live snapshot schema {schema!r} "
            f"(expected {LIVE_SCHEMA!r})"
        )
    warn_if_unstamped(data, path)
    return data


def render_snapshot(data: Mapping[str, Any], top: int = 12) -> str:
    """Human-readable one-screen view of a live snapshot."""
    lines = [
        f"live snapshot #{data['snapshot_index']}: "
        f"{data['spans_seen']} spans seen, "
        f"{len(data['recent'])} in ring (size {data['ring_size']}/rank)"
    ]
    health = data.get("health", {})
    flagged_ranks = health.get("flagged_ranks", [])
    flagged_links = health.get("flagged_links", [])
    if flagged_ranks or flagged_links:
        parts = []
        if flagged_ranks:
            parts.append("ranks " + ", ".join(map(str, flagged_ranks)))
        if flagged_links:
            parts.append("links " + ", ".join(flagged_links))
        lines.append("health: DRIFT flagged: " + "; ".join(parts))
    else:
        lines.append("health: ok (no drift flagged)")
    for event in health.get("events", [])[-5:]:
        lines.append(
            f"  event {event['kind']} {event['subject']} "
            f"at op {event['op_index']} "
            f"(ewma_rel_error={event['ewma']:.4f})"
        )
    merged = data.get("merged", [])
    if merged:
        lines.append("")
        header = (
            f"{'kind':<9} {'op':<26} {'count':>7} "
            f"{'p50 (s)':>12} {'p90 (s)':>12} {'p99 (s)':>12}"
        )
        lines.append(header)
        lines.append("-" * len(header))
        shown = sorted(merged, key=lambda e: -e["count"] )[:top]
        for entry in sorted(shown, key=lambda e: (e["kind"], e["name"])):
            lines.append(
                f"{entry['kind']:<9} {entry['name'][:26]:<26} "
                f"{entry['count']:>7} {entry['p50_s']:>12.6f} "
                f"{entry['p90_s']:>12.6f} {entry['p99_s']:>12.6f}"
            )
    return "\n".join(lines)


def _watch(args: argparse.Namespace) -> int:
    target = Path(args.dir)
    path = target / "live.json" if target.is_dir() else target
    last_mtime: float | None = None
    updates = 0
    while True:
        try:
            mtime = path.stat().st_mtime
        except OSError:
            if not args.follow:
                print(f"error: no live snapshot at {path}", file=sys.stderr)
                return 2
            mtime = None
        if mtime is not None and mtime != last_mtime:
            last_mtime = mtime
            try:
                data = read_snapshot(path)
            except (json.JSONDecodeError, OSError):
                # Snapshots are atomic, but the file may briefly not
                # exist between runs; just retry on the next poll.
                data = None
            if data is not None:
                if updates:
                    print()
                print(render_snapshot(data))
                updates += 1
        if not args.follow:
            return 0 if updates else 2
        time.sleep(1.0)


def main(argv: Iterable[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro live",
        description="Tail the live snapshot of a running experiment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_watch = sub.add_parser(
        "watch", help="print a run's live.json snapshot (once, or follow)"
    )
    p_watch.add_argument("dir", help="snapshot directory (or live.json path)")
    p_watch.add_argument("--follow", action="store_true",
                         help="keep polling once a second and reprint on "
                              "every update")
    args = parser.parse_args(list(argv) if argv is not None else None)
    return _watch(args)
