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
from repro.obs.trace import Span
from repro.types import Megabits, Megaflops, Seconds

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector
    from repro.obs import ObsSession

__all__ = [
    "RankContext",
    "TransferRecord",
    "SimulationResult",
    "SimulationEngine",
    "run_program",
    "reprice",
]


def _compute_span(
    mflops: Megaflops, sequential: bool, record: ComputeRecord
) -> tuple[str, dict[str, float]]:
    """Name (also the category) and attributes of the span a compute
    charge reports."""
    kind = "seq" if sequential else "compute"
    attrs = {"mflops": float(mflops)}
    if record.factor != 1.0:
        # Degraded intervals carry the slowdown factor so the trace
        # diff / report can label them.
        attrs["factor"] = float(record.factor)
    return kind, attrs


def _transfer_spans(record: TransferRecord) -> list[tuple[int, dict]]:
    """Rank and attributes of the two ``transfer`` spans a matched
    transfer reports, the sender's first."""
    return [
        (rank, {"peer": peer, "megabits": record.megabits,
                "direction": direction, "link": record.link, "wait": wait})
        for rank, peer, direction, wait in (
            (record.src, record.dst, "send", record.src_wait),
            (record.dst, record.src, "recv", record.dst_wait),
        )
    ]


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
        engine, dt = self._engine, charge.seconds
        if engine._records is not None:
            engine._records.append(charge)
        if self.obs is not None and dt > 0:
            kind, attrs = _compute_span(mflops, sequential, charge)
            self.obs.tracer.add_span(
                kind, self.rank, charge.start, charge.end,
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
        events: the run's compute, ``seq`` and ``transfer`` spans
            (engines built with ``trace=True``), sorted by start time
            and rank: what an attached tracer records for the same ops,
            less ``seq``.
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
    events: list[Span] = dataclasses.field(default_factory=list)
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
        #: ``_records[i]`` is what ``core.ops[i]`` cost; kept only when
        #: the run reports events or transfers.
        self._records: list[ComputeRecord | TransferRecord] | None = (
            [] if trace or obs is not None else None
        )
        self.router = Router(platform.size, self._on_match, run_to_block=True)

    def _on_match(self, src: int, dst: int, megabits: float) -> None:
        """Time one matched transfer and report it (Router lock held)."""
        record = self.core.transfer(src, dst, megabits)
        if self._records is not None:
            self._records.append(record)
        if self.obs is not None:
            duration = record.duration
            metrics = self.obs.metrics
            for rank, wait in ((src, record.src_wait), (dst, record.dst_wait)):
                if wait > 0:
                    metrics.counter("sim.idle_seconds", rank=rank).inc(wait)
                metrics.counter("sim.com_seconds", rank=rank).inc(duration)
            metrics.counter(
                "sim.link_megabits", src=src, dst=dst
            ).inc(megabits)
            metrics.histogram(
                "sim.transfer_seconds", src=src, dst=dst
            ).observe(duration)
            for rank, attrs in _transfer_spans(record):
                self.obs.tracer.add_span(
                    "transfer", rank, record.start, record.end,
                    category="transfer", **attrs,
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
        events: list[Span] = []
        transfers: list[TransferRecord] = []
        for op, record in zip(self.core.ops, self._records or ()):
            if op.kind == "transfer":
                transfers.append(record)
                if self.trace:
                    events.extend(
                        Span("transfer", rank, record.start, record.end,
                             "transfer", attrs=attrs)
                        for rank, attrs in _transfer_spans(record)
                    )
            elif self.trace and record.seconds > 0:
                kind, attrs = _compute_span(op.mflops, op.sequential, record)
                events.append(Span(kind, op.rank, record.start, record.end,
                                   kind, attrs=attrs))
        events.sort(key=lambda e: (e.start, e.rank))
        transfers.sort(key=lambda t: (t.start, t.src, t.dst))
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
        ConfigurationError: ``result`` carries events or transfer
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
