"""The rank runtime both backends share: one launcher, one context base.

A *program* is a Python callable ``program(ctx, **kwargs)`` executed
once per rank on its own thread.  :func:`launch_ranks` hands the ranks
to a per-process pool of parked rank threads, waits for them and sorts
their failures; :class:`BaseRankContext` is
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
) -> list[Any]:
    """Run ``program(make_context(rank), **kwargs)`` on one thread per
    rank, wait for them all, and return the per-rank return values.

    Rank ``r`` runs on the pool's thread ``r`` whenever that thread is
    idle, so a rank's buffers come from the same malloc arena run after
    run; a launch that finds thread ``r`` busy (a concurrent launch, or
    one from inside a rank program) runs rank ``r`` on a thread of its
    own that exits afterwards.  When the ranks run is the router's
    policy: every rank waits in ``router.enter`` and ``router.start``
    hands rank 0 the baton of a run-to-block router; on a free-running
    one neither waits.  Where the ranks run is the same for both: every
    run lives on one core, each of its threads setting its own CPU mask
    to the launcher's current CPU before running its rank, so no
    hand-off changes cores.  Ranks that share one GIL gain little from
    a second core and pay for every hand-off across cores.

    Raises:
        The root cause, if any rank failed: a crashing rank makes its
        peers fail with secondary RankFailedError/DeadlockError
        fallout, which is chained onto it as ``__context__``.  Or a
        thread's start error, once the ranks that had a thread retired.
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
        try:
            kwargs = dict(common_kwargs or {})
            if kwargs_per_rank is not None:
                kwargs.update(kwargs_per_rank[rank])
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

    own_mask, mask = _launch_masks()
    threads, fresh = _POOL.take(n_ranks, own_mask)
    started = 0
    try:
        for thread in fresh:
            thread.thread.start()
            started += 1
    finally:
        if started < len(fresh):  # a start failed: threadless ranks never run
            router.abort()
            _POOL.disown(fresh)
            for thread in fresh[started:]:
                router.retire(thread.rank)
            threads = [t for t in threads if t not in fresh[started:]]
        latch = _Latch(len(threads))
        for thread in threads:
            thread.hand((mask, body, latch))
        router.start()
        latch.wait()
        for thread in threads:
            if not thread.pooled:
                thread.thread.join()
    if failures:
        raise_root_cause(failures)
    return results


class _Latch:
    """Opens once ``count`` ranks have finished."""

    def __init__(self, count: int) -> None:
        self._count = count
        self._lock = threading.Lock()
        self._open = threading.Lock()
        if count:
            self._open.acquire()

    def count_down(self) -> None:
        with self._lock:
            self._count -= 1
            last = not self._count
        if last:
            self._open.release()

    def wait(self) -> None:
        self._open.acquire()


#: What a rank thread is handed: the CPU mask to run under (``None`` =
#: leave it), the rank body, and the launch's latch.
_Job = tuple[set[int] | None, Callable[[int], None], _Latch]


class _RankThread:
    """A rank thread: parks on its own lock until it is handed a job,
    and knows the CPU mask it runs under, so it sets one only when a
    launch's mask differs.  A pooled thread parks again after its rank;
    any other exits."""

    def __init__(self, rank: int, mask: set[int] | None, pooled: bool) -> None:
        self.rank = rank
        self.mask = mask  # its creator's, which a new thread inherits
        self.pooled = pooled
        self.idle = False
        self._job: _Job | None = None
        self._wake = threading.Lock()
        self._wake.acquire()
        self.thread = threading.Thread(
            target=self._serve, name=f"rank-{rank}", daemon=True
        )

    def hand(self, job: _Job | None) -> None:
        """Run ``job`` next; ``None`` makes the thread exit."""
        self._job = job
        self._wake.release()

    def _serve(self) -> None:
        while self._run_next():
            pass

    def _run_next(self) -> bool:
        # One job per call, so nothing of a finished run (its body,
        # results, engine) stays referenced while the thread is parked.
        self._wake.acquire()
        job, self._job = self._job, None
        if job is None:
            return False
        mask, body, latch = job
        if mask is not None and mask != self.mask:
            try:
                os.sched_setaffinity(0, mask)
                self.mask = mask
            except OSError:
                self.mask = None
        pooled = False
        try:
            body(self.rank)
            # Idle before the latch opens: a launch that follows this
            # one finds its threads free.
            pooled = self.pooled
            if pooled:
                _POOL.park(self)
        finally:
            latch.count_down()
        return pooled


class _Pool:
    """The process's parked rank threads: slot ``r`` is the thread that
    runs rank ``r``.  It grows to the largest rank count launched."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Forget every thread: after a fork only the forking thread
        exists in the child, so the pool's others must not be handed
        jobs there."""
        self._lock = threading.Lock()
        self._slots: dict[int, _RankThread] = {}

    def take(
        self, n_ranks: int, mask: set[int] | None
    ) -> tuple[list[_RankThread], list[_RankThread]]:
        """Rank ``r``'s thread for every rank, and the ones that are new
        (not started yet): slot ``r``'s if it is idle, a new pooled one
        if the slot is empty, else a new one that exits after its rank."""
        threads, fresh = [], []
        with self._lock:
            for rank in range(n_ranks):
                thread = self._slots.get(rank)
                if thread is not None and thread.idle:
                    thread.idle = False
                else:
                    pooled = thread is None
                    thread = _RankThread(rank, mask, pooled)
                    if pooled:
                        self._slots[rank] = thread
                    fresh.append(thread)
                threads.append(thread)
        return threads, fresh

    def park(self, thread: _RankThread) -> None:
        with self._lock:
            thread.idle = True

    def disown(self, threads: list[_RankThread]) -> None:
        """Take ``threads`` out of the pool: each exits after its rank."""
        with self._lock:
            for thread in threads:
                thread.pooled = False
                if self._slots.get(thread.rank) is thread:
                    del self._slots[thread.rank]

    def empty(self) -> None:
        """Stop and join every idle thread, so that the next launch
        starts its threads anew."""
        with self._lock:
            idle = [t for t in self._slots.values() if t.idle]
            for thread in idle:
                del self._slots[thread.rank]
        for thread in idle:
            thread.hand(None)
            thread.thread.join()


_POOL = _Pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_POOL.reset)


def _launch_masks() -> tuple[set[int] | None, set[int] | None]:
    """The launcher's CPU mask, and the one its ranks run under: the
    launcher's current CPU when the launcher may use several, else the
    launcher's mask.  ``None`` where the mask cannot be read."""
    try:
        own = os.sched_getaffinity(0)
    except (AttributeError, OSError):
        return None, None
    if len(own) < 2:
        return own, own
    try:
        with open("/proc/thread-self/stat", "rb") as stat:
            cpu = int(stat.read().rpartition(b")")[2].split()[36])  # field 39
    except (OSError, ValueError, IndexError):
        return own, own
    return own, ({cpu} if cpu in own else own)
