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
"""

from __future__ import annotations

import dataclasses
import threading
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro.cluster.costs import DEFAULT_COST_MODEL, CostModel
from repro.cluster.mailbox import OpDeadline, Router
from repro.cluster.platform import HeterogeneousPlatform
from repro.cluster.simtime import (
    Phase,
    PhaseLedger,
    TimingCore,
    TransferRecord,
)
from repro.errors import (
    CommunicationTimeout,
    ConfigurationError,
    RankFailedError,
    RepartitionSignal,
    raise_root_cause,
)
from repro.types import Megaflops, Seconds

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


class _FaultPerturbation:
    """A fault injector seen through the timing core's perturbation
    hook: RankSlowdown dilates compute, LinkDegrade scales a transfer's
    capacity term only (the fixed per-message latency is unaffected)."""

    def __init__(self, faults: "FaultInjector") -> None:
        self._faults = faults

    def compute_factor(self, rank: int, label: str, start: Seconds) -> float:
        return self._faults.compute_factor(rank, start)

    def transfer_factors(
        self, src: int, dst: int, pair: tuple[str, str], start: Seconds
    ) -> tuple[float, float]:
        return self._faults.transfer_factor(src, dst, start), 1.0


class RankContext:
    """Per-rank handle passed to programs.

    Attributes:
        rank: this rank's id (0-based; the platform master is usually 0).
        size: number of ranks.
        platform: the platform being simulated.
        cost_model: flop/byte accounting shared by all ranks.
        clock: this rank's virtual clock.
        ledger: COM/SEQ/PAR accounting for this rank.
    """

    def __init__(self, rank: int, engine: "SimulationEngine") -> None:
        self.rank = rank
        self._engine = engine
        self.platform = engine.platform
        self.cost_model = engine.cost_model
        self.clock = engine.clocks[rank]
        self.ledger = engine.ledgers[rank]
        #: Observability session shared by all ranks (``None`` = off).
        self.obs = engine.obs
        #: Fault injector interpreting the run's plan (``None`` = off).
        self.faults = engine.faults
        #: Live observability runtime (``None`` = off).
        self._live = engine.live

    @property
    def size(self) -> int:
        return self.platform.size

    @property
    def router(self) -> Router:
        """The engine's message router (liveness/detection queries)."""
        return self._engine.router

    @property
    def is_master(self) -> bool:
        return self.rank == self.platform.master_rank

    @property
    def master_rank(self) -> int:
        return self.platform.master_rank

    # -- time charging -------------------------------------------------------
    def compute(self, mflops: Megaflops, sequential: bool = False) -> Seconds:
        """Charge ``mflops`` of computation at this rank's cycle-time.

        Args:
            mflops: nominal work (use :attr:`cost_model` formulas).
            sequential: True for master-only steps executed while no
                parallel work is outstanding — they land in the SEQ
                bucket of Table 6 instead of PAR.

        Returns:
            The charged duration in virtual seconds.
        """
        if self.faults is not None:
            self.faults.before_op(self.rank, "compute", self.clock.now)
        charge = self._engine.core.compute(self.rank, mflops, sequential)
        start, dt, slow_factor = charge.start, charge.seconds, charge.factor
        if self._live is not None and mflops > 0:
            # The online health detector compares the cost model's
            # prediction against the charged (possibly fault-dilated)
            # duration; the wall-clock backend feeds the same pair
            # nominally, so the detector fires identically there.
            self._live.observe_compute(self.rank, charge.nominal, dt, start)
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

    def charge_seconds(self, seconds: Seconds, phase: Phase = Phase.PAR) -> None:
        """Charge a raw duration (e.g. I/O) to this rank's clock."""
        if seconds < 0:
            raise ConfigurationError(f"cannot charge negative time {seconds}")
        self._engine.core.charge(self.rank, seconds, phase)

    # -- messaging (raw; prefer repro.mpi communicators) -------------------------
    def _deadline(self, timeout_s: Seconds | None) -> OpDeadline | None:
        """Virtual per-op deadline ``timeout_s`` from now (None = none).

        The waiter's clock cannot advance while it is blocked, so the
        deadline fires at quiescence and ``on_fire`` advances the clock
        to the deadline *exactly* — timeout timing is deterministic.
        """
        if timeout_s is None:
            return None
        if timeout_s <= 0:
            raise ConfigurationError(f"timeout_s must be > 0, got {timeout_s}")
        at = self.clock.now + timeout_s
        return OpDeadline(
            at=at,
            clock=lambda: self.clock.now,
            wall=False,
            on_fire=lambda: self.clock.advance_to(at),
        )

    def _count_timeout(self, exc: CommunicationTimeout) -> None:
        if self.obs is not None:
            self.obs.metrics.counter("comm.timeouts", rank=self.rank).inc()

    def send(
        self,
        dest: int,
        payload: Any,
        tag: int = 0,
        timeout_s: Seconds | None = None,
    ) -> None:
        """Synchronous send; virtual transfer time charged at match.

        ``timeout_s`` bounds the rendezvous wait in virtual seconds
        (:class:`~repro.errors.CommunicationTimeout` on expiry).
        """
        if self.faults is not None:
            self.faults.before_op(self.rank, "send", self.clock.now)
            delay = self.faults.on_send(self.rank, dest, tag, self.clock.now)
            if delay > 0:
                self.charge_seconds(delay)
        megabits = self.cost_model.message_megabits(payload)
        if self.obs is not None:
            m = self.obs.metrics
            m.counter("comm.messages_sent", rank=self.rank, peer=dest).inc()
            m.counter("comm.megabits_sent", rank=self.rank, peer=dest).inc(megabits)
        try:
            self._engine.router.send(
                self.rank, dest, tag, payload, megabits,
                deadline=self._deadline(timeout_s),
            )
        except CommunicationTimeout as exc:
            self._count_timeout(exc)
            raise

    def recv(
        self, source: int, tag: int = -1, timeout_s: Seconds | None = None
    ) -> Any:
        """Blocking receive from ``source`` (tag -1 = any).

        ``timeout_s`` bounds the wait in virtual seconds
        (:class:`~repro.errors.CommunicationTimeout` on expiry, with
        this rank's clock advanced to the deadline exactly).
        """
        if self.faults is not None:
            self.faults.before_op(self.rank, "recv", self.clock.now)
        try:
            payload = self._engine.router.recv(
                self.rank, source, tag, deadline=self._deadline(timeout_s)
            )
        except CommunicationTimeout as exc:
            self._count_timeout(exc)
            raise
        if self.obs is not None:
            megabits = self.cost_model.message_megabits(payload)
            m = self.obs.metrics
            m.counter("comm.messages_received", rank=self.rank, peer=source).inc()
            m.counter(
                "comm.megabits_received", rank=self.rank, peer=source
            ).inc(megabits)
        return payload


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
    """

    platform_name: str
    return_values: list[Any]
    finish_times: list[Seconds]
    ledgers: list[PhaseLedger]
    master_rank: int
    events: list[TraceEvent] = dataclasses.field(default_factory=list)
    transfers: list[TransferRecord] = dataclasses.field(default_factory=list)

    @property
    def makespan(self) -> Seconds:
        """Total parallel execution time: the latest rank finish."""
        return max(self.finish_times)

    @property
    def master_value(self) -> Any:
        return self.return_values[self.master_rank]

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
        deadlock_grace_s: float = 0.25,
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
        #: Live observability runtime (flight recorder + health
        #: detector), wired exactly like the fault injector.
        self.live = getattr(obs, "live", None) if obs is not None else None
        if self.live is not None:
            self.live.attach(obs)
            self.live.bind(platform=platform, faults=faults)
        if obs is not None:
            # Dual-clock design: spans read this engine's per-rank
            # virtual clocks, so exports are deterministic.
            obs.tracer.set_clock(lambda rank: self.clocks[rank].now)
        # clock_start > 0 resumes virtual time after a recovery
        # repartition, so post-recovery spans extend the same timeline.
        self.core = TimingCore(
            platform, clock_start,
            perturb=_FaultPerturbation(faults) if faults is not None else None,
        )
        self.clocks = self.core.clocks
        self.ledgers = self.core.ledgers
        self._events: list[TraceEvent] = []
        self._transfers: list[TransferRecord] = []
        self._events_lock = threading.Lock()
        self.router = Router(
            platform.size, self._on_match, deadlock_grace_s=deadlock_grace_s
        )

    def record_event(self, event: TraceEvent) -> None:
        """Append a trace event (thread-safe; no-op semantics when the
        engine was built without tracing are the caller's concern)."""
        with self._events_lock:
            self._events.append(event)

    def _on_match(self, src: int, dst: int, megabits: float) -> None:
        """Time one matched transfer and report it (Router lock held)."""
        record = self.core.transfer(src, dst, megabits)
        start, end, duration = record.start, record.end, record.duration
        if self.live is not None:
            self.live.observe_transfer(
                record.link, record.nominal, duration, start
            )
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
        n = self.platform.size
        if kwargs_per_rank is not None and len(kwargs_per_rank) != n:
            raise ConfigurationError(
                f"kwargs_per_rank has {len(kwargs_per_rank)} entries for "
                f"{n} ranks"
            )
        results: list[Any] = [None] * n
        failures: list[tuple[int, BaseException]] = []
        failure_lock = threading.Lock()

        def body(rank: int) -> None:
            ctx = RankContext(rank, self)
            kwargs = dict(common_kwargs or {})
            if kwargs_per_rank is not None:
                kwargs.update(kwargs_per_rank[rank])
            try:
                results[rank] = program(ctx, **kwargs)
            except RankFailedError as exc:
                with failure_lock:
                    failures.append((rank, exc))
                if exc.injected and exc.rank == rank:
                    # This rank crashed: mark it dead surgically so the
                    # survivors keep running and discover the failure in
                    # their own program order (deterministic cascade).
                    self.router.fail(rank)
                else:
                    self.router.abort()
            except RepartitionSignal as exc:
                # Coordinated exit: every rank raises this at the same
                # program point after the decision broadcast, so nobody
                # is left blocked — retire without aborting (an abort
                # could kill peers still forwarding inside the tree).
                with failure_lock:
                    failures.append((rank, exc))
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                with failure_lock:
                    failures.append((rank, exc))
                self.router.abort()
            finally:
                self.router.retire(rank)

        threads = [
            threading.Thread(target=body, args=(rank,), name=f"sim-rank-{rank}",
                             daemon=True)
            for rank in range(n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        if failures:
            # A crashing rank makes its peers fail with secondary
            # RankFailedError/DeadlockError fallout; report the root
            # cause and chain the rest as __context__.
            raise_root_cause(failures)

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
