"""Trace analytics: critical path, blocked time, link utilization, and
WEA imbalance attribution.

PR 1's tracer answers *what happened*; this module answers the
questions at the heart of the paper's heterogeneity analysis (Tables
5–8): which rank or link is the bottleneck, who waits on whom, and how
the WEA partition's over/under-assignments produce the ``D_all`` /
``D_minus`` imbalance scores.  Every report is a plain dataclass with a
deterministic ``to_dict()`` (JSON-able, stable ordering) and a
human-readable ``to_text()``.

All span-based reports accept anything
:func:`repro.obs.export.spans_of` accepts — a live ``ObsSession``, a
tracer, or a :class:`~repro.obs.export.LoadedTrace` read back from an
exported JSONL file — so traces can be analyzed long after the run.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

from repro.obs.dag import (
    ACTIVITY_CATEGORIES,
    HappensBeforeDag,
    build_dag,
    critical_path_nodes,
    path_increments,
    path_rank_attribution,
)
from repro.obs.export import spans_of, write_json
from repro.obs.provenance import provenance
from repro.obs.trace import Span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.engine import SimulationResult
    from repro.cluster.platform import HeterogeneousPlatform
    from repro.scheduling.static_part import RowPartition

__all__ = [
    "CriticalPathReport",
    "BlockedTimeReport",
    "LinkUtilizationReport",
    "WeaAttributionReport",
    "FaultWindow",
    "EnclosingOps",
    "TraceAnalysis",
    "critical_path",
    "blocked_time",
    "fault_windows",
    "original_rank_lookup",
    "link_utilization",
    "wea_attribution",
    "analyze_trace",
]


def _round(value: float, digits: int = 9) -> float:
    """Stabilize float output (kills -0.0 and 1e-17 noise)."""
    out = round(float(value), digits)
    return 0.0 if out == 0.0 else out


# -- fault windows ------------------------------------------------------------

#: Fault-category spans that scope to the rank they were recorded on;
#: everything else (link degradation, recovery seams) applies globally.
_RANK_SCOPED_FAULTS = ("slowdown", "crash", "delay")


@dataclasses.dataclass(frozen=True)
class FaultWindow:
    """One injected-fault (or recovery) interval from the trace.

    Attributes:
        kind: ``"slowdown"``, ``"crash"``, ``"delay"``,
            ``"link_degrade"``, or ``"repartition"``.
        rank: the affected rank, or ``None`` for whole-run faults
            (link degradation, recovery repartitions).
        start, end: the degraded interval (equal for point faults).
    """

    kind: str
    rank: int | None
    start: float
    end: float

    def overlaps(self, start: float, end: float, rank: int | None = None) -> bool:
        """True when ``[start, end]`` on ``rank`` intersects this window."""
        if rank is not None and self.rank is not None and rank != self.rank:
            return False
        if self.start == self.end:
            return start <= self.start <= end
        return self.start < end and start < self.end

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "rank": self.rank,
            "start": _round(self.start),
            "end": _round(self.end),
        }


def fault_windows(source: Any) -> tuple[FaultWindow, ...]:
    """Extract injected-fault intervals from ``source``'s trace.

    Reads the ``category="fault"`` spans that the fault injector and
    the recovery driver record (``fault.slowdown``, ``fault.crash``,
    ``fault.delay``, ``fault.link_degrade``, ``recovery.repartition``);
    empty for fault-free traces.
    """
    return _fault_windows(spans_of(source))


def _fault_windows(spans: Sequence[Span]) -> tuple[FaultWindow, ...]:
    windows = []
    for span in spans:
        if span.category != "fault":
            continue
        kind = span.name.split(".", 1)[-1]
        rank = span.rank if kind in _RANK_SCOPED_FAULTS else None
        windows.append(
            FaultWindow(kind=kind, rank=rank, start=span.start, end=span.end)
        )
    windows.sort(key=lambda w: (w.start, w.end, w.kind, w.rank or -1))
    return tuple(windows)


def original_rank_lookup(source: Any) -> Callable[[int, float], int]:
    """``lookup(rank, t)``: the original platform rank behind the dense
    ``rank`` of a span starting at ``t``.

    Each ``recovery.repartition`` seam records the survivor subset the
    next attempt ran on (``ranks``: dense rank ``i`` is original rank
    ``ordered[i]``), in force for spans starting at or after the seam's
    end; before any seam the lookup is the identity.  Seams without the
    attribute (pre-PR-4 traces) are skipped — those traces keep their
    dense numbering.
    """
    segments: list[tuple[float, tuple[int, ...]]] = []
    for span in spans_of(source):
        if span.category != "fault" or span.name != "recovery.repartition":
            continue
        ranks_attr = span.attrs.get("ranks")
        if ranks_attr:
            segments.append(
                (span.end, tuple(int(r) for r in str(ranks_attr).split(",")))
            )
    segments.sort(key=lambda seg: seg[0])

    def lookup(rank: int, t: float) -> int:
        mapping = None
        for from_time, ordered in segments:
            if t >= from_time:
                mapping = ordered
            else:
                break
        if mapping is not None and rank < len(mapping):
            return mapping[rank]
        return rank

    return lookup


def _is_degraded(
    windows: Sequence[FaultWindow], start: float, end: float,
    ranks: Sequence[int],
) -> bool:
    return any(
        w.overlaps(start, end, rank=None) if w.rank is None
        else any(w.overlaps(start, end, rank=r) for r in ranks)
        for w in windows
    )


# -- critical path ------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class PathStep:
    """One node on the critical path."""

    kind: str
    ranks: tuple[int, ...]
    start: float
    end: float
    megabits: float = 0.0
    link: str | None = None
    degraded: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "kind": self.kind,
            "ranks": list(self.ranks),
            "start": _round(self.start),
            "end": _round(self.end),
            "duration": _round(self.duration),
        }
        if self.kind == "transfer":
            out["megabits"] = _round(self.megabits)
            out["link"] = self.link
        if self.degraded:
            out["degraded"] = True
        return out


@dataclasses.dataclass(frozen=True)
class CriticalPathReport:
    """The longest happens-before chain of a run.

    Attributes:
        makespan: latest activity end over all ranks.
        steps: the binding chain in execution order.
        compute_s, comm_s: path seconds in computation / transfers.
        untracked_s: path gaps no predecessor explains (0 on the
            engine).
        rank_share_s: per-rank seconds on the path (transfers
            attributed to the receiver).
        fault_windows: injected-fault intervals found in the trace
            (empty for fault-free runs).
        degraded_s: path seconds spent in steps overlapping a fault
            window.
    """

    makespan: float
    steps: tuple[PathStep, ...]
    compute_s: float
    comm_s: float
    untracked_s: float
    rank_share_s: dict[int, float]
    fault_windows: tuple[FaultWindow, ...] = ()
    degraded_s: float = 0.0

    @property
    def length_s(self) -> float:
        """Total path activity time (≤ makespan)."""
        return self.compute_s + self.comm_s

    @property
    def dominant_rank(self) -> int | None:
        """The rank holding the largest share of the path."""
        if not self.rank_share_s:
            return None
        return max(self.rank_share_s, key=lambda r: (self.rank_share_s[r], -r))

    def to_dict(self) -> dict[str, Any]:
        out = {
            "makespan": _round(self.makespan),
            "length_s": _round(self.length_s),
            "compute_s": _round(self.compute_s),
            "comm_s": _round(self.comm_s),
            "untracked_s": _round(self.untracked_s),
            "dominant_rank": self.dominant_rank,
            "rank_share_s": {
                str(r): _round(v) for r, v in sorted(self.rank_share_s.items())
            },
            "steps": [s.to_dict() for s in self.steps],
        }
        if self.fault_windows:
            out["fault_windows"] = [w.to_dict() for w in self.fault_windows]
            out["degraded_s"] = _round(self.degraded_s)
        return out

    def to_text(self) -> str:
        lines = [
            f"critical path: {self.length_s:.6f} s of "
            f"{self.makespan:.6f} s makespan "
            f"({_pct(self.length_s, self.makespan):.1f}% explained, "
            f"{len(self.steps)} steps)",
            f"  compute {self.compute_s:.6f} s | comm {self.comm_s:.6f} s"
            f" | untracked {self.untracked_s:.6f} s",
        ]
        if self.fault_windows:
            degraded = sum(1 for s in self.steps if s.degraded)
            lines.append(
                f"  faults: {len(self.fault_windows)} injected windows; "
                f"{degraded} path steps degraded "
                f"({self.degraded_s:.6f} s on the path)"
            )
        if self.dominant_rank is not None:
            share = self.rank_share_s[self.dominant_rank]
            lines.append(
                f"  dominant rank: {self.dominant_rank} "
                f"({share:.6f} s, {_pct(share, self.makespan):.1f}% of "
                "makespan)"
            )
        top = sorted(
            self.rank_share_s.items(), key=lambda kv: (-kv[1], kv[0])
        )[:5]
        lines.append(
            "  rank shares: "
            + ", ".join(f"r{r}={v:.3f}s" for r, v in top)
        )
        return "\n".join(lines)


def _pct(part: float, whole: float) -> float:
    return 100.0 * part / whole if whole > 0 else 0.0


def critical_path(source: Any) -> CriticalPathReport:
    """Critical path through the happens-before DAG of ``source``.

    When the trace carries injected-fault spans (a fault-plan run),
    every path step overlapping a fault window is labeled ``degraded``
    so the report shows which part of the binding chain ran under
    degraded conditions.
    """
    spans = spans_of(source)
    return _critical_path(build_dag(spans), _fault_windows(spans))


def _critical_path(
    dag: HappensBeforeDag, windows: tuple[FaultWindow, ...]
) -> CriticalPathReport:
    path, untracked = critical_path_nodes(dag)
    increments = path_increments(path)
    compute_s = sum(
        inc for n, inc in zip(path, increments) if not n.is_transfer
    )
    comm_s = sum(inc for n, inc in zip(path, increments) if n.is_transfer)
    steps = tuple(
        PathStep(
            kind=n.kind, ranks=n.ranks, start=n.start, end=n.end,
            megabits=n.megabits, link=n.link if n.is_transfer else None,
            degraded=_is_degraded(windows, n.start, n.end, n.ranks),
        )
        for n in path
    )
    degraded_s = sum(
        inc for step, inc in zip(steps, increments) if step.degraded
    )
    return CriticalPathReport(
        makespan=dag.makespan,
        steps=steps,
        compute_s=compute_s,
        comm_s=comm_s,
        untracked_s=untracked,
        rank_share_s=dict(path_rank_attribution(path)),
        fault_windows=windows,
        degraded_s=degraded_s,
    )


# -- blocked-time attribution -------------------------------------------------

@dataclasses.dataclass(frozen=True)
class RankBlockedTime:
    """Waiting-time attribution for one rank.

    Attributes:
        rank: the waiting rank.
        busy_compute_s: its compute/seq span time.
        busy_comm_s: its transfer-participation time.
        blocked_s: gaps before activities (waiting on peers or links).
        trailing_idle_s: makespan minus the rank's last activity end
            (finished early, waiting for the run to end).
        by_peer_s: blocked seconds keyed by the peer rank waited on.
        by_op_s: blocked seconds keyed by the enclosing operation
            (``"mpi.bcast"``, ``"scatter"``, ... or ``"<unattributed>"``).
        degraded_blocked_s: the part of ``blocked_s`` spent inside an
            injected fault window (0 for fault-free runs).
    """

    rank: int
    busy_compute_s: float
    busy_comm_s: float
    blocked_s: float
    trailing_idle_s: float
    by_peer_s: dict[int, float]
    by_op_s: dict[str, float]
    degraded_blocked_s: float = 0.0

    @property
    def total_s(self) -> float:
        """Time from 0 to the rank's final activity."""
        return self.busy_compute_s + self.busy_comm_s + self.blocked_s

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "rank": self.rank,
            "busy_compute_s": _round(self.busy_compute_s),
            "busy_comm_s": _round(self.busy_comm_s),
            "blocked_s": _round(self.blocked_s),
            "trailing_idle_s": _round(self.trailing_idle_s),
            "total_s": _round(self.total_s),
            "by_peer_s": {
                str(p): _round(v) for p, v in sorted(self.by_peer_s.items())
            },
            "by_op_s": {
                k: _round(v) for k, v in sorted(self.by_op_s.items())
            },
        }
        if self.degraded_blocked_s > 0:
            out["degraded_blocked_s"] = _round(self.degraded_blocked_s)
        return out


@dataclasses.dataclass(frozen=True)
class BlockedTimeReport:
    """Per-rank waiting-time attribution for a whole run."""

    makespan: float
    ranks: tuple[RankBlockedTime, ...]
    fault_windows: tuple[FaultWindow, ...] = ()

    def of_rank(self, rank: int) -> RankBlockedTime:
        for entry in self.ranks:
            if entry.rank == rank:
                return entry
        raise KeyError(f"no rank {rank} in blocked-time report")

    @property
    def total_blocked_s(self) -> float:
        return sum(r.blocked_s for r in self.ranks)

    @property
    def total_degraded_blocked_s(self) -> float:
        return sum(r.degraded_blocked_s for r in self.ranks)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "makespan": _round(self.makespan),
            "total_blocked_s": _round(self.total_blocked_s),
            "ranks": [r.to_dict() for r in self.ranks],
        }
        if self.fault_windows:
            out["fault_windows"] = [w.to_dict() for w in self.fault_windows]
            out["total_degraded_blocked_s"] = _round(
                self.total_degraded_blocked_s
            )
        return out

    def to_text(self) -> str:
        lines = [
            f"blocked time: {self.total_blocked_s:.6f} s total across "
            f"{len(self.ranks)} ranks"
        ]
        if self.fault_windows:
            lines.append(
                f"  degraded by faults: {self.total_degraded_blocked_s:.6f} s "
                f"of blocked time inside {len(self.fault_windows)} injected "
                "windows"
            )
        worst = sorted(self.ranks, key=lambda r: (-r.blocked_s, r.rank))[:5]
        for entry in worst:
            if entry.blocked_s <= 0:
                continue
            peers = sorted(
                entry.by_peer_s.items(), key=lambda kv: (-kv[1], kv[0])
            )
            ops = sorted(entry.by_op_s.items(), key=lambda kv: (-kv[1], kv[0]))
            culprit = ""
            if peers:
                peer, wait = peers[0]
                culprit = f", mostly on rank {peer} ({wait:.3f}s"
                if ops:
                    culprit += f" in {ops[0][0]}"
                culprit += ")"
            lines.append(
                f"  rank {entry.rank}: blocked {entry.blocked_s:.6f} s = "
                f"{_pct(entry.blocked_s, entry.total_s):.1f}% of its run"
                f"{culprit}"
            )
        return "\n".join(lines)


class EnclosingOps:
    """A trace's wrapper spans grouped by rank, naming the operation
    that encloses a moment on a rank.

    ``spans`` must be in :func:`~repro.obs.export.spans_of` order;
    only those of ``categories`` are kept.
    """

    def __init__(
        self,
        spans: Iterable[Span],
        categories: tuple[str, ...] = ("phase", "mpi"),
    ) -> None:
        self._by_rank: dict[int, list[Span]] = {}
        for span in spans:
            if span.category in categories:
                self._by_rank.setdefault(span.rank, []).append(span)

    def at(self, rank: int, t: float) -> str:
        """The name of the deepest wrapper on ``rank`` covering time
        ``t`` (a zero-length one covers its own instant), else
        ``"<unattributed>"``.  Deepest is the latest start, then the
        shortest, then the first in span order."""
        best_name = "<unattributed>"
        best_span = None
        for span in self._by_rank.get(rank, ()):
            if span.start > t:  # in start order: no later span covers t
                break
            # From here on span.start <= t.
            if not (t < span.end or span.start == t == span.end):
                continue
            if best_span is None or span.start > best_span.start or (
                span.start == best_span.start
                and span.duration < best_span.duration
            ):
                best_span, best_name = span, span.name
        return best_name


def blocked_time(source: Any) -> BlockedTimeReport:
    """Attribute every rank's waiting time to peers and operations.

    A rank is *blocked* whenever its activity timeline has a gap before
    an activity starts (on the engine, clocks only jump while waiting
    for a transfer to begin, so gaps are exactly the ledger's idle
    time).  A gap before a transfer is charged to the peer rank and to
    the deepest enclosing ``mpi``/``phase`` span, which names the
    operation — e.g. "rank 3 waited 41% of its time on rank 0's
    ``mpi.bcast``".
    """
    spans = spans_of(source)
    return _blocked_time(spans, _fault_windows(spans))


def _blocked_time(
    spans: Sequence[Span], windows: tuple[FaultWindow, ...]
) -> BlockedTimeReport:
    activities: dict[int, list[Span]] = {}
    for span in spans:
        if span.category in ACTIVITY_CATEGORIES:
            activities.setdefault(span.rank, []).append(span)
    wrappers = EnclosingOps(spans)
    timed = [s for s in spans if s.category != "fault"]
    makespan = max((s.end for s in timed), default=0.0)
    all_ranks = sorted({s.rank for s in timed})
    entries: list[RankBlockedTime] = []
    for rank in all_ranks:
        mine = sorted(
            activities.get(rank, ()), key=lambda s: (s.start, s.end, s.seq)
        )
        cursor = 0.0
        blocked = 0.0
        degraded_blocked = 0.0
        by_peer: dict[int, float] = {}
        by_op: dict[str, float] = {}
        busy_compute = 0.0
        busy_comm = 0.0
        for span in mine:
            gap = span.start - cursor
            if gap > 0:
                blocked += gap
                if _is_degraded(windows, cursor, span.start, (rank,)):
                    degraded_blocked += gap
                if span.category == "transfer":
                    peer = int(span.attrs.get("peer", -1))
                    by_peer[peer] = by_peer.get(peer, 0.0) + gap
                    op = wrappers.at(rank, span.start)
                else:
                    op = "<scheduling>"
                by_op[op] = by_op.get(op, 0.0) + gap
            if span.category == "transfer":
                busy_comm += span.duration
            else:
                busy_compute += span.duration
            cursor = max(cursor, span.end)
        entries.append(
            RankBlockedTime(
                rank=rank,
                busy_compute_s=busy_compute,
                busy_comm_s=busy_comm,
                blocked_s=blocked,
                trailing_idle_s=max(makespan - cursor, 0.0),
                by_peer_s=by_peer,
                by_op_s=by_op,
                degraded_blocked_s=degraded_blocked,
            )
        )
    return BlockedTimeReport(
        makespan=makespan, ranks=tuple(entries), fault_windows=windows
    )


# -- link utilization ---------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class LinkUsage:
    """Utilization of one link over the run.

    Attributes:
        link: link label (``"s1|s4"`` serial, ``"intra:s1"`` switched,
            ``"pair:a~b"`` when the trace has no link attribute).
        serial: True for inter-segment links the engine serializes.
        transfers: number of transfers carried.
        megabits: total volume carried.
        busy_s: length of the union of transfer intervals (never
            exceeds the window, so utilization stays ≤ 100%).
        utilization: ``busy_s / makespan``.
        saturated_intervals: maximal continuously-busy intervals,
            longest first, as ``(start, end, n_transfers)``.
    """

    link: str
    serial: bool
    transfers: int
    megabits: float
    busy_s: float
    utilization: float
    saturated_intervals: tuple[tuple[float, float, int], ...]

    def to_dict(self) -> dict[str, Any]:
        return {
            "link": self.link,
            "serial": self.serial,
            "transfers": self.transfers,
            "megabits": _round(self.megabits),
            "busy_s": _round(self.busy_s),
            "utilization": _round(self.utilization),
            "saturated_intervals": [
                [_round(a), _round(b), n]
                for a, b, n in self.saturated_intervals
            ],
        }


@dataclasses.dataclass(frozen=True)
class LinkUtilizationReport:
    """Per-link utilization + saturation over a run."""

    makespan: float
    links: tuple[LinkUsage, ...]

    def of_link(self, link: str) -> LinkUsage:
        for usage in self.links:
            if usage.link == link:
                return usage
        raise KeyError(f"no link {link!r} in utilization report")

    def to_dict(self) -> dict[str, Any]:
        return {
            "makespan": _round(self.makespan),
            "links": [u.to_dict() for u in self.links],
        }

    def to_text(self) -> str:
        lines = [f"link utilization over {self.makespan:.6f} s:"]
        for u in self.links:
            tag = "serial" if u.serial else "switched"
            lines.append(
                f"  {u.link:<22} {tag:<8} {u.transfers:>5} transfers "
                f"{u.megabits:>12.3f} Mbit  busy {u.busy_s:>10.6f} s "
                f"({100 * u.utilization:5.1f}%)"
            )
            if u.saturated_intervals:
                a, b, n = u.saturated_intervals[0]
                lines.append(
                    f"  {'':<22} longest saturation "
                    f"[{a:.6f}, {b:.6f}] s ({n} transfers back-to-back)"
                )
        return "\n".join(lines)


def _merge_intervals(
    intervals: Sequence[tuple[float, float]], eps: float = 1e-12
) -> list[tuple[float, float, int]]:
    """Union of intervals; returns ``(start, end, count)`` merged runs."""
    merged: list[tuple[float, float, int]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1] + eps:
            last_start, last_end, n = merged[-1]
            merged[-1] = (last_start, max(last_end, end), n + 1)
        else:
            merged.append((start, end, 1))
    return merged


def link_utilization(source: Any) -> LinkUtilizationReport:
    """Per-link busy time, utilization, and saturation intervals."""
    return _link_utilization(build_dag(source))


def _link_utilization(dag: HappensBeforeDag) -> LinkUtilizationReport:
    makespan = dag.makespan
    by_link: dict[str, list[Any]] = {}
    for node in dag.transfers():
        by_link.setdefault(node.link or "?", []).append(node)
    usages: list[LinkUsage] = []
    for link in sorted(by_link):
        nodes = by_link[link]
        merged = _merge_intervals([(n.start, n.end) for n in nodes])
        busy = sum(end - start for start, end, _ in merged)
        saturated = tuple(
            sorted(merged, key=lambda run: (run[0] - run[1], run[0]))
        )
        usages.append(
            LinkUsage(
                link=link,
                serial="|" in link,
                transfers=len(nodes),
                megabits=sum(n.megabits for n in nodes),
                busy_s=busy,
                utilization=busy / makespan if makespan > 0 else 0.0,
                saturated_intervals=saturated[:8],
            )
        )
    usages.sort(key=lambda u: (-u.busy_s, u.link))
    return LinkUtilizationReport(makespan=makespan, links=tuple(usages))


# -- WEA imbalance attribution ------------------------------------------------

@dataclasses.dataclass(frozen=True)
class RankAssignment:
    """One rank's share of the WEA partition vs. its balanced share."""

    rank: int
    rows: int
    ideal_rows: float
    busy_s: float
    deviation_pct: float
    rows_to_rebalance: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "rank": self.rank,
            "rows": self.rows,
            "ideal_rows": _round(self.ideal_rows, 3),
            "busy_s": _round(self.busy_s),
            "deviation_pct": _round(self.deviation_pct, 3),
            "rows_to_rebalance": _round(self.rows_to_rebalance, 3),
        }


@dataclasses.dataclass(frozen=True)
class WeaAttributionReport:
    """Decomposes Table 7's ``D_all``/``D_minus`` into per-rank
    over/under-assignment.

    ``D_all = busy_max / busy_min`` is driven by exactly two ranks;
    this report names them, quantifies every rank's deviation from the
    balanced busy time, and converts the time surplus/deficit into
    equivalent WEA rows (``rows_to_rebalance`` > 0 means the rank is
    over-assigned and should shed rows).
    """

    d_all: float
    d_minus: float
    master_rank: int
    slowest_rank: int
    fastest_rank: int
    assignments: tuple[RankAssignment, ...]

    def of_rank(self, rank: int) -> RankAssignment:
        for entry in self.assignments:
            if entry.rank == rank:
                return entry
        raise KeyError(f"no rank {rank} in WEA attribution")

    def to_dict(self) -> dict[str, Any]:
        return {
            "d_all": _round(self.d_all, 6),
            "d_minus": _round(self.d_minus, 6),
            "master_rank": self.master_rank,
            "slowest_rank": self.slowest_rank,
            "fastest_rank": self.fastest_rank,
            "assignments": [a.to_dict() for a in self.assignments],
        }

    def to_text(self) -> str:
        slow = self.of_rank(self.slowest_rank)
        fast = self.of_rank(self.fastest_rank)
        lines = [
            f"WEA imbalance: D_all = {self.d_all:.3f}, "
            f"D_minus = {self.d_minus:.3f} (master rank "
            f"{self.master_rank})",
            f"  D_all driven by rank {slow.rank} (busy {slow.busy_s:.3f} s, "
            f"{slow.deviation_pct:+.1f}% vs balanced; "
            f"{slow.rows_to_rebalance:+.1f} rows) over rank {fast.rank} "
            f"(busy {fast.busy_s:.3f} s, {fast.deviation_pct:+.1f}%; "
            f"{fast.rows_to_rebalance:+.1f} rows)",
        ]
        over = [a for a in self.assignments if a.deviation_pct > 1.0]
        under = [a for a in self.assignments if a.deviation_pct < -1.0]
        if over:
            lines.append(
                "  over-assigned:  "
                + ", ".join(
                    f"r{a.rank} ({a.deviation_pct:+.1f}%)"
                    for a in sorted(over, key=lambda a: -a.deviation_pct)
                )
            )
        if under:
            lines.append(
                "  under-assigned: "
                + ", ".join(
                    f"r{a.rank} ({a.deviation_pct:+.1f}%)"
                    for a in sorted(under, key=lambda a: a.deviation_pct)
                )
            )
        return "\n".join(lines)


def wea_attribution(
    result: "SimulationResult",
    partition: "RowPartition",
    platform: "HeterogeneousPlatform",
) -> WeaAttributionReport:
    """Explain a run's Table 7 scores rank by rank.

    Args:
        result: the engine run (supplies per-rank busy times).
        partition: the WEA row partition that was executed.
        platform: the platform it ran on; the balanced row shares are
            proportional to its processor speeds.
    """
    from repro.perf.imbalance import imbalance_of_run

    busy = result.busy_times()
    scores = imbalance_of_run(result)
    n_rows = partition.n_rows
    counts = [int(c) for c in partition.counts]
    mean_busy = sum(busy) / len(busy)
    # Realized per-row throughput (rows / busy s) turns a busy-time
    # surplus into equivalent rows.
    rates = [
        (counts[i] / busy[i]) if busy[i] > 0 else 0.0
        for i in range(len(busy))
    ]
    # Balanced shares: WEA's 1/w_i fractions of the platform.
    speeds = [1.0 / platform.processor(i).cycle_time
              for i in range(platform.size)]
    total_speed = sum(speeds)
    ideal = [n_rows * s / total_speed for s in speeds]
    assignments = []
    for i, t in enumerate(busy):
        surplus = t - mean_busy
        rows_eq = surplus * rates[i]
        assignments.append(
            RankAssignment(
                rank=i,
                rows=counts[i],
                ideal_rows=ideal[i],
                busy_s=t,
                deviation_pct=_pct(surplus, mean_busy),
                rows_to_rebalance=rows_eq,
            )
        )
    slowest = max(range(len(busy)), key=lambda i: (busy[i], -i))
    fastest = min(range(len(busy)), key=lambda i: (busy[i], i))
    return WeaAttributionReport(
        d_all=scores.d_all,
        d_minus=scores.d_minus,
        master_rank=result.master_rank,
        slowest_rank=slowest,
        fastest_rank=fastest,
        assignments=tuple(assignments),
    )


# -- the bundle ---------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class TraceAnalysis:
    """All analyses of one traced run, exportable as JSON or text.

    ``tuning`` carries the autotuning planner's decision record (the
    scalar ``plan_*`` attributes of the ``run.meta`` span — chosen
    partition variant, its makespan prediction and the default's) when
    the traced run was planned; ``None`` otherwise.
    """

    critical_path: CriticalPathReport
    blocked: BlockedTimeReport
    links: LinkUtilizationReport
    wea: WeaAttributionReport | None = None
    tuning: Mapping[str, Any] | None = None

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "schema": "repro.obs.analyze/1",
            "critical_path": self.critical_path.to_dict(),
            "blocked_time": self.blocked.to_dict(),
            "link_utilization": self.links.to_dict(),
        }
        if self.wea is not None:
            out["wea_attribution"] = self.wea.to_dict()
        if self.tuning is not None:
            out["tuning"] = dict(self.tuning)
        out["provenance"] = provenance()
        return out

    def to_text(self) -> str:
        parts = [
            self.critical_path.to_text(),
            self.blocked.to_text(),
            self.links.to_text(),
        ]
        if self.wea is not None:
            parts.append(self.wea.to_text())
        return "\n\n".join(parts)

    def write_json(self, path: str | Path) -> Path:
        return write_json(path, self.to_dict())

    def write_text(self, path: str | Path) -> Path:
        out = Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(self.to_text() + "\n", encoding="utf-8")
        return out


def analyze_trace(
    source: Any,
    result: "SimulationResult | None" = None,
    partition: "RowPartition | None" = None,
    platform: "HeterogeneousPlatform | None" = None,
) -> TraceAnalysis:
    """Run every analysis on a span source.

    The WEA attribution additionally needs the engine result, the
    executed partition and the platform; it is skipped when any is
    missing (e.g. when analyzing a JSONL trace after the fact).
    """
    wea = None
    if result is not None and partition is not None and platform is not None:
        wea = wea_attribution(result, partition, platform)
    from repro.obs.whatif import run_meta_of

    spans = spans_of(source)
    dag = build_dag(spans)
    windows = _fault_windows(spans)
    meta = run_meta_of(spans)
    tuning = None
    if meta is not None:
        plan_attrs = {
            k: v for k, v in meta.items() if k.startswith("plan_")
        }
        if plan_attrs:
            tuning = plan_attrs
    return TraceAnalysis(
        critical_path=_critical_path(dag, windows),
        blocked=_blocked_time(spans, windows),
        links=_link_utilization(dag),
        wea=wea,
        tuning=tuning,
    )
