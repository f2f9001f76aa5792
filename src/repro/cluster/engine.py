"""Virtual-time execution engine: rank-per-thread with simulated clocks.

A *program* is a Python callable ``program(ctx, **kwargs)`` executed
once per rank.  Real numpy computation runs natively (so algorithmic
results are genuine); *time* is simulated — computation is charged
analytically via :meth:`RankContext.compute` using the rank's Table 1
cycle-time, and every message transfer advances both endpoint clocks by
``latency + megabits × capacity`` with serial inter-segment links
serialized (Table 2 semantics).

The engine is deterministic for receiver-ordered (master/worker)
communication patterns: all timing decisions are taken at match time in
receiver program order (see :mod:`repro.cluster.mailbox`).

A run is its op log.  Ranks run to block (one at a time, the lowest
ready rank next, all on the launcher's CPU: a hand-off never changes
cores), so the order in which they call the timing core is a function
of the program alone — *provided the program reads neither virtual
time nor the platform*, which no program here does.  The core
logs every compute and transfer it executes, :class:`SimulationResult`
carries that log as ``ops``, and :func:`reprice` runs it through a
fresh core for another platform of the same size and master: the
timing that platform would have given, without re-running the program.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro.cluster.costs import DEFAULT_COST_MODEL, CostModel
from repro.cluster.mailbox import Router
from repro.cluster.platform import HeterogeneousPlatform
from repro.cluster.runtime import BaseRankContext, launch_ranks
from repro.cluster.simtime import (
    ComputeRecord,
    Op,
    PhaseLedger,
    TimingCore,
    TransferRecord,
)
from repro.errors import ConfigurationError, PlatformError
from repro.types import Megabits, Megaflops, Seconds

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector
    from repro.obs import ObsSession

__all__ = [
    "RankContext",
    "TraceEvent",
    "TransferRecord",
    "SimulationResult",
    "SimulationEngine",
    "run_program",
    "reprice",
]


@dataclasses.dataclass(frozen=True)
class TraceEvent:
    """One simulated activity interval (engine built with ``trace=True``).

    Attributes:
        kind: ``"compute"``, ``"seq"`` (sequential compute), or
            ``"transfer"``.
        rank: the acting rank (for transfers, recorded once per endpoint).
        start, end: virtual-time interval.
        detail: free-form annotation (mflops, peer rank, megabits).
    """

    kind: str
    rank: int
    start: Seconds
    end: Seconds
    detail: str = ""


class RankContext(BaseRankContext):
    """Per-rank handle of the virtual-time engine.

    Adds to the shared base:
        platform: the platform being simulated.
        cost_model: flop/byte accounting shared by all ranks.
        clock: this rank's virtual clock.
        ledger: COM/SEQ/PAR accounting for this rank.
    """

    def __init__(self, rank: int, engine: "SimulationEngine") -> None:
        platform = engine.platform
        super().__init__(
            rank, platform.size, platform.master_rank, engine.router,
            core=engine.core, obs=engine.obs, faults=engine.faults,
        )
        self._engine = engine
        self.platform = platform
        self.cost_model = engine.cost_model
        self.clock = engine.clocks[rank]
        self.ledger = engine.ledgers[rank]

    def _report_compute(
        self, mflops: Megaflops, sequential: bool, charge: ComputeRecord
    ) -> Seconds:
        start, dt, slow_factor = charge.start, charge.seconds, charge.factor
        if self._engine.trace and dt > 0:
            self._engine.record_event(
                TraceEvent(
                    kind="seq" if sequential else "compute",
                    rank=self.rank,
                    start=start,
                    end=charge.end,
                    detail=f"{mflops:.1f} Mflop",
                )
            )
        if self.obs is not None and dt > 0:
            kind = "seq" if sequential else "compute"
            # Degraded intervals carry the slowdown factor so the trace
            # diff / report can label them (conditional key, PR-3 style).
            attrs = {"mflops": float(mflops)}
            if slow_factor != 1.0:
                attrs["factor"] = float(slow_factor)
            self.obs.tracer.add_span(
                kind, self.rank, start, charge.end,
                category=kind, **attrs,
            )
            self.obs.metrics.counter(
                "compute.mflops", rank=self.rank, kind=kind
            ).inc(float(mflops))
            self.obs.metrics.counter(
                "compute.seconds", rank=self.rank, kind=kind
            ).inc(dt)
        return dt

    def _megabits(self, payload: Any) -> Megabits:
        return self.cost_model.message_megabits(payload)


@dataclasses.dataclass
class SimulationResult:
    """Outcome of one simulated program run.

    Attributes:
        platform_name: name of the simulated platform.
        return_values: per-rank return values of the program.
        finish_times: per-rank final virtual clocks.
        ledgers: per-rank COM/SEQ/PAR accounting.
        master_rank: which rank was master.
        events: activity trace (engines built with ``trace=True``),
            sorted by start time.
        transfers: matched-transfer records with link and wait
            attribution (engines built with ``trace=True`` or an
            observability session), sorted by start time.
        ops: the timing core's op log, in call order; ``None`` for a
            run under fault injection, whose timing a fresh core cannot
            reproduce.
    """

    platform_name: str
    return_values: list[Any]
    finish_times: list[Seconds]
    ledgers: list[PhaseLedger]
    master_rank: int
    events: list[TraceEvent] = dataclasses.field(default_factory=list)
    transfers: list[TransferRecord] = dataclasses.field(default_factory=list)
    ops: list[Op] | None = None

    @property
    def makespan(self) -> Seconds:
        """Total parallel execution time: the latest rank finish."""
        return max(self.finish_times)

    def master_breakdown(self) -> dict[str, float]:
        """The Table 6 decomposition, taken at the master: COM + SEQ +
        PAR ≈ total wall time (PAR includes waits for workers)."""
        return self.ledgers[self.master_rank].as_dict()

    def busy_times(self) -> list[Seconds]:
        """Per-rank computation time (idle and transfers excluded) —
        Table 7's processor run times."""
        return [ledger.compute_busy for ledger in self.ledgers]


class SimulationEngine:
    """Owns the rank threads, the router and the run's reporting; the
    clocks, ledgers and serial-link schedule live in its
    :class:`~repro.cluster.simtime.TimingCore`."""

    def __init__(
        self,
        platform: HeterogeneousPlatform,
        cost_model: CostModel | None = None,
        trace: bool = False,
        obs: "ObsSession | None" = None,
        faults: "FaultInjector | None" = None,
        clock_start: Seconds = 0.0,
    ) -> None:
        self.platform = platform
        self.cost_model = cost_model or DEFAULT_COST_MODEL
        self.trace = trace
        self.obs = obs
        #: Fault injector for this run (already attached to ``platform``
        #: by the caller); duck-typed to avoid importing repro.faults.
        self.faults = faults
        if obs is not None:
            # Dual-clock design: spans read this engine's per-rank
            # virtual clocks, so exports are deterministic.
            obs.tracer.set_clock(lambda rank: self.clocks[rank].now)
        # clock_start > 0 resumes virtual time after a recovery
        # repartition, so post-recovery spans extend the same timeline.
        self.core = TimingCore(
            platform, clock_start,
            perturb=faults.perturb if faults is not None else None,
        )
        self.clocks = self.core.clocks
        self.ledgers = self.core.ledgers
        self._events: list[TraceEvent] = []
        self._transfers: list[TransferRecord] = []
        self._events_lock = threading.Lock()
        self.router = Router(platform.size, self._on_match, run_to_block=True)

    def record_event(self, event: TraceEvent) -> None:
        """Append a trace event (thread-safe; no-op semantics when the
        engine was built without tracing are the caller's concern)."""
        with self._events_lock:
            self._events.append(event)

    def _on_match(self, src: int, dst: int, megabits: float) -> None:
        """Time one matched transfer and report it (Router lock held)."""
        record = self.core.transfer(src, dst, megabits)
        start, end, duration = record.start, record.end, record.duration
        if self.trace or self.obs is not None:
            with self._events_lock:
                self._transfers.append(record)
        if self.obs is not None:
            metrics = self.obs.metrics
            ends = (
                (src, dst, "send", record.src_wait),
                (dst, src, "recv", record.dst_wait),
            )
            for rank, _, _, wait in ends:
                if wait > 0:
                    metrics.counter("sim.idle_seconds", rank=rank).inc(wait)
                metrics.counter("sim.com_seconds", rank=rank).inc(duration)
            metrics.counter(
                "sim.link_megabits", src=src, dst=dst
            ).inc(megabits)
            metrics.histogram(
                "sim.transfer_seconds", src=src, dst=dst
            ).observe(duration)
            for rank, peer, direction, wait in ends:
                self.obs.tracer.add_span(
                    "transfer", rank, start, end, category="transfer",
                    peer=peer, megabits=record.megabits,
                    direction=direction, link=record.link, wait=wait,
                )
        if self.trace:
            for rank, peer in ((src, dst), (dst, src)):
                self.record_event(
                    TraceEvent(
                        kind="transfer",
                        rank=rank,
                        start=start,
                        end=end,
                        detail=f"{'->' if rank == src else '<-'}{peer} "
                               f"{megabits:.3f} Mbit",
                    )
                )

    def run(
        self,
        program: Callable[..., Any],
        kwargs_per_rank: Sequence[Mapping[str, Any]] | None = None,
        common_kwargs: Mapping[str, Any] | None = None,
    ) -> SimulationResult:
        """Execute ``program(ctx, **kwargs)`` on every rank and join.

        Args:
            program: the SPMD body; receives a :class:`RankContext`.
            kwargs_per_rank: optional per-rank keyword arguments.
            common_kwargs: keyword arguments shared by all ranks.

        Raises:
            The first rank exception, if any rank failed.
        """
        results = launch_ranks(
            self.router, self.platform.size, lambda rank: RankContext(rank, self),
            program, kwargs_per_rank, common_kwargs,
        )
        with self._events_lock:
            events = sorted(self._events, key=lambda e: (e.start, e.rank))
            transfers = sorted(
                self._transfers, key=lambda t: (t.start, t.src, t.dst)
            )
        return SimulationResult(
            platform_name=self.platform.name,
            return_values=results,
            finish_times=[c.now for c in self.clocks],
            ledgers=self.ledgers,
            master_rank=self.platform.master_rank,
            events=events,
            transfers=transfers,
            ops=self.core.ops if self.faults is None else None,
        )


def run_program(
    platform: HeterogeneousPlatform,
    program: Callable[..., Any],
    kwargs_per_rank: Sequence[Mapping[str, Any]] | None = None,
    cost_model: CostModel | None = None,
    obs: "ObsSession | None" = None,
    faults: "FaultInjector | None" = None,
    **common_kwargs: Any,
) -> SimulationResult:
    """One-shot convenience: build an engine and run ``program``.

    Extra keyword arguments are forwarded to every rank; ``obs``
    attaches an observability session clocked by virtual time;
    ``faults`` injects a fault plan (the injector must already be
    attached to ``platform``).
    """
    engine = SimulationEngine(
        platform, cost_model=cost_model, obs=obs, faults=faults
    )
    return engine.run(program, kwargs_per_rank, common_kwargs)


def reprice(
    result: SimulationResult, platform: HeterogeneousPlatform
) -> SimulationResult:
    """``result``'s program timed on ``platform``, without running it.

    Runs the result's op log through a fresh
    :class:`~repro.cluster.simtime.TimingCore` for ``platform`` and
    keeps its ``return_values``: what :func:`run_program` on
    ``platform`` returns, to the bit, for any program that reads neither
    virtual time nor the platform (module docstring).

    Raises:
        ConfigurationError: ``result`` carries trace events or transfer
            records (they describe the platform it ran on), or no op log
            (a run under fault injection).
        PlatformError: ``platform`` differs in size or master rank.
    """
    if result.ops is None:
        raise ConfigurationError(
            f"run on {result.platform_name!r} has no op log to re-price "
            "(it ran under fault injection)"
        )
    if result.events or result.transfers:
        raise ConfigurationError(
            f"run on {result.platform_name!r} is traced: its events and "
            "transfer records describe that platform; run the program"
        )
    if (platform.size, platform.master_rank) != (
        len(result.finish_times), result.master_rank
    ):
        raise PlatformError(
            f"cannot re-price a {len(result.finish_times)}-rank run with "
            f"master {result.master_rank} on {platform.name!r} "
            f"({platform.size} ranks, master {platform.master_rank})"
        )
    core = TimingCore(platform)
    core.run(result.ops)
    return SimulationResult(
        platform_name=platform.name,
        return_values=result.return_values,
        finish_times=core.finish_times,
        ledgers=core.ledgers,
        master_rank=platform.master_rank,
        ops=core.ops,
    )
