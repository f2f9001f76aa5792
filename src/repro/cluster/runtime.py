"""The rank runtime both backends share: one launcher, one context base.

A *program* is a Python callable ``program(ctx, **kwargs)`` executed
once per rank on its own thread.  :func:`launch_ranks` starts and joins
the rank threads and sorts their failures; :class:`BaseRankContext` is
the handle each program receives, and owns the sequence every operation
follows on either backend: the fault hooks, the nominal clock (a
:class:`~repro.cluster.simtime.TimingCore`), the ``comm.*`` counters,
and the router call.

The virtual-time engine (:mod:`repro.cluster.engine`) and the
wall-clock backend (:mod:`repro.mpi.inproc`) subclass the context and
keep only what defines them: what ``compute`` reports and who emits
transfer spans.
"""

from __future__ import annotations

import os
import threading
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro.cluster.mailbox import Router
from repro.cluster.simtime import ComputeRecord, Phase, TimingCore
from repro.errors import (
    ConfigurationError,
    RankFailedError,
    RepartitionSignal,
    raise_root_cause,
)
from repro.types import Megabits, Megaflops, Seconds

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector
    from repro.obs import ObsSession

__all__ = ["BaseRankContext", "launch_ranks"]


class BaseRankContext:
    """Per-rank handle passed to programs.

    Attributes:
        rank: this rank's id (0-based).
        size: number of ranks.
        master_rank: which rank plays master.
        router: the run's message router.
        core: the timing core holding this rank's nominal clock
            (``None`` on a wall-clock run without a platform).
        obs: observability session shared by all ranks (``None`` = off).
        faults: fault injector interpreting the run's plan (``None`` =
            off); duck-typed, so this module imports no repro.faults:
            the context calls ``before_op``/``on_send``, and the backend
            hands ``faults.perturb`` to the timing core as its hook.
    """

    def __init__(
        self,
        rank: int,
        size: int,
        master_rank: int,
        router: Router,
        core: TimingCore | None = None,
        obs: "ObsSession | None" = None,
        faults: "FaultInjector | None" = None,
    ) -> None:
        if not 0 <= rank < size:
            raise ConfigurationError(f"rank {rank} outside [0, {size})")
        self.rank = rank
        self.size = size
        self.master_rank = master_rank
        self.router = router
        self.core = core
        self.obs = obs
        self.faults = faults
        self._health = getattr(obs, "health", None)

    @property
    def is_master(self) -> bool:
        return self.rank == self.master_rank

    @property
    def now(self) -> Seconds:
        """This rank's nominal time — what fault triggers and windows
        are evaluated against: virtual seconds on the engine, analytic
        compute-plus-delay seconds on the wall-clock backend (0.0
        without a platform).  Wall time is never consulted, keeping
        injection deterministic."""
        return 0.0 if self.core is None else self.core.clocks[self.rank].now

    # -- what a backend supplies ---------------------------------------------
    def _report_compute(
        self, mflops: Megaflops, sequential: bool, charge: ComputeRecord | None
    ) -> Seconds:
        """Report one compute op; returns the seconds it charged."""
        raise NotImplementedError

    def _megabits(self, payload: Any) -> Megabits:
        """Wire size of a payload."""
        raise NotImplementedError

    def _span_start(self) -> float | None:
        """Where a caller-timed transfer span opens; ``None`` when the
        match handler emits transfer spans itself (virtual time)."""
        return None

    def _transfer_span(
        self, start: float, direction: str, peer: int, megabits: Megabits
    ) -> None:
        """Close the span opened at a non-``None`` :meth:`_span_start`."""

    def _charge_delay(self, delay: Seconds) -> None:
        """Charge an injected MessageDelay."""
        self.charge_seconds(delay)

    # -- time charging -------------------------------------------------------
    def compute(
        self, mflops: Megaflops, sequential: bool = False, label: str = ""
    ) -> Seconds:
        """Charge ``mflops`` of computation at this rank's cycle-time.

        Args:
            mflops: nominal work (use the cost model's formulas).
            sequential: True for master-only steps executed while no
                parallel work is outstanding — they land in the SEQ
                bucket of Table 6 instead of PAR.
            label: the charged kernel's name, recorded as the op's
                ``label`` (what the analytic model writes there).

        Returns:
            The charged duration in virtual seconds (0.0 on the
            wall-clock backend, where real computation takes real time).
        """
        if self.faults is not None:
            self.faults.before_op(self.rank, "compute", self.now)
        charge = None
        if self.core is not None:
            charge = self.core.compute(self.rank, mflops, sequential, label)
            if self._health is not None and mflops > 0:
                # The drift detector compares the cost model's
                # prediction against the charged (possibly
                # fault-dilated) duration — the same pair on both
                # backends, so it fires at the same op on either.
                self._health.observe_compute(
                    self.rank, charge.nominal, charge.seconds, charge.start,
                    self.obs,
                )
        return self._report_compute(mflops, sequential, charge)

    def charge_seconds(self, seconds: Seconds, phase: Phase = Phase.PAR) -> None:
        """Charge a raw duration (I/O, an injected delay) to this rank's
        nominal clock."""
        if seconds < 0:
            raise ConfigurationError(f"cannot charge negative time {seconds}")
        if self.core is not None:
            self.core.charge(self.rank, seconds, phase)

    # -- messaging (raw; prefer repro.mpi communicators) ---------------------
    def send(self, dest: int, payload: Any, tag: int = 0) -> None:
        """Synchronous send (transfer time is charged at match on the
        engine)."""
        if self.faults is not None:
            self.faults.before_op(self.rank, "send", self.now)
            delay = self.faults.on_send(self.rank, dest, tag, self.now)
            if delay > 0:
                self._charge_delay(delay)
        megabits = self._megabits(payload)
        if self.obs is not None:
            m = self.obs.metrics
            m.counter("comm.messages_sent", rank=self.rank, peer=dest).inc()
            m.counter("comm.megabits_sent", rank=self.rank, peer=dest).inc(megabits)
        start = self._span_start()
        self.router.send(self.rank, dest, tag, payload, megabits)
        if start is not None:
            self._transfer_span(start, "send", dest, megabits)

    def recv(self, source: int, tag: int = -1) -> Any:
        """Blocking receive from ``source`` (tag -1 = any)."""
        if self.faults is not None:
            self.faults.before_op(self.rank, "recv", self.now)
        start = self._span_start()
        payload = self.router.recv(self.rank, source, tag)
        if self.obs is not None:
            megabits = self._megabits(payload)
            m = self.obs.metrics
            m.counter("comm.messages_received", rank=self.rank, peer=source).inc()
            m.counter(
                "comm.megabits_received", rank=self.rank, peer=source
            ).inc(megabits)
            if start is not None:
                self._transfer_span(start, "recv", source, megabits)
        return payload


def launch_ranks(
    router: Router,
    n_ranks: int,
    make_context: Callable[[int], BaseRankContext],
    program: Callable[..., Any],
    kwargs_per_rank: Sequence[Mapping[str, Any]] | None,
    common_kwargs: Mapping[str, Any] | None,
    thread_prefix: str,
) -> list[Any]:
    """Run ``program(make_context(rank), **kwargs)`` on one thread per
    rank, join them, and return the per-rank return values.

    When the ranks run is the router's policy: every thread waits in
    ``router.enter`` and ``router.start`` hands rank 0 the baton of a
    run-to-block router; on a free-running one neither waits.  A
    run-to-block run also lives on one core: the launcher narrows its
    mask to its current CPU before the threads (which inherit it) exist
    and restores it after the joins, so no hand-off changes cores.

    Raises:
        The root cause, if any rank failed: a crashing rank makes its
        peers fail with secondary RankFailedError/DeadlockError
        fallout, which is chained onto it as ``__context__``.  Or a
        thread's start error, once the ranks already started retired.
    """
    if kwargs_per_rank is not None and len(kwargs_per_rank) != n_ranks:
        raise ConfigurationError(
            f"kwargs_per_rank has {len(kwargs_per_rank)} entries for "
            f"{n_ranks} ranks"
        )
    results: list[Any] = [None] * n_ranks
    failures: list[tuple[int, BaseException]] = []
    failure_lock = threading.Lock()

    def body(rank: int) -> None:
        kwargs = dict(common_kwargs or {})
        if kwargs_per_rank is not None:
            kwargs.update(kwargs_per_rank[rank])
        try:
            router.enter(rank)
            results[rank] = program(make_context(rank), **kwargs)
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            with failure_lock:
                failures.append((rank, exc))
            if isinstance(exc, RankFailedError) and exc.injected and exc.rank == rank:
                # This rank crashed: mark it dead surgically so the
                # survivors keep running and discover the failure in
                # their own program order (deterministic cascade on the
                # engine, next interaction on the wall clock).
                router.fail(rank)
            elif not isinstance(exc, RepartitionSignal):
                router.abort()
            # RepartitionSignal is a coordinated exit: every rank raises
            # it at the same program point after the decision broadcast,
            # so nobody is left blocked — retire without aborting (an
            # abort could kill peers still forwarding inside the tree).
        finally:
            router.retire(rank)

    threads = [
        threading.Thread(
            target=body, args=(rank,), name=f"{thread_prefix}-{rank}", daemon=True
        )
        for rank in range(n_ranks)
    ]
    mask = _pin_to_current_cpu() if router.run_to_block else None
    started = 0
    try:
        for t in threads:
            t.start()
            started += 1
    finally:
        if started < n_ranks:  # a start failed: abort; unstarted never run
            router.abort()
            for rank in range(started, n_ranks):
                router.retire(rank)
        router.start()
        for t in threads[:started]:
            t.join()
        if mask is not None:
            os.sched_setaffinity(0, mask)
    if failures:
        raise_root_cause(failures)
    return results


def _pin_to_current_cpu() -> set[int] | None:
    """Pin the calling thread to its current CPU; its old mask, or None."""
    try:
        mask = os.sched_getaffinity(0)
        with open("/proc/thread-self/stat", "rb") as stat:
            cpu = int(stat.read().rpartition(b")")[2].split()[36])  # field 39
        if len(mask) < 2 or cpu not in mask:
            return None
        os.sched_setaffinity(0, {cpu})
        return mask
    except (AttributeError, OSError, ValueError, IndexError):
        return None
