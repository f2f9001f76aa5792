"""Rendezvous message router for the rank-per-thread runtime.

Point-to-point messaging uses synchronous (rendezvous) semantics: a
send blocks until the matching receive consumes it.  This mirrors MPI's
synchronous mode and — crucially for reproducibility — makes all
transfer-timing decisions happen in *receiver program order*, so the
virtual-time results of master/worker codes are deterministic no matter
how the OS schedules the threads.

The router is timing-agnostic: the engine injects a ``match_handler``
callback, invoked with the router lock held at the instant a send and
receive pair up.  The virtual-time engine uses it to advance clocks and
reserve serial inter-segment links; the wall-clock backend passes a
no-op.

Every parked rank sleeps on a lock of its own, and one rule
(:meth:`Router._unblock`) decides who is woken: a state change names
the one rank it can have unblocked — a send its destination, a match
the sender, a failure the ranks waiting on the failed one; only an
abort or a deadlock names everybody — and that rank is marked *ready*
if it would now leave its wait.  Nobody else is woken and no other
predicate is looked at.

What happens to a ready rank is the one thing the two backends differ
in, and the backend picks it, never a user.  Under both policies the
ranks of a launch run on the launcher's current CPU, so a hand-off
never changes cores (:func:`~repro.cluster.runtime.launch_ranks`):

* **free-running** (``Router(n)``; :mod:`repro.mpi.inproc`, and plain
  threads driving a bare router): the rank is released at once and the
  OS schedules it, so ranks take turns wherever the GIL lets them, in
  the order the OS wakes them.
* **run-to-block** (``run_to_block=True``; the virtual-time engine):
  exactly one rank is runnable.  Ranks start parked, the launcher hands
  the baton to rank 0, and the rank holding it runs until it parks or
  retires; only then is the lowest-numbered ready rank released.
  Threads remain only as stacks, so the wall schedule of a run, like
  its virtual times, is a pure function of the program.  The price is
  one rule for programs: never wait for another rank except inside
  ``send``/``recv`` — a rank that spins on shared state holds the baton
  forever.

Liveness is computed from the router's own state, never timed: the
run is *quiescent* when every rank is retired or parked and none is
ready.  No wait has a timeout, so a quiescent run can only be a
deadlock: :class:`~repro.errors.DeadlockError` is raised in every
waiter.
"""

from __future__ import annotations

import copy
import heapq
import pickle
import threading
from collections import deque
from typing import Any, Callable

import numpy as np

from repro.errors import CommunicationError, DeadlockError, RankFailedError
from repro.types import Megabits

__all__ = [
    "ANY_TAG",
    "ANY_SOURCE",
    "ENVELOPE_VALUES",
    "payload_wire_megabits",
    "values_wire_megabits",
    "copy_payload",
    "freeze_payload",
    "ensure_writable",
    "Router",
]

#: Wildcard tag for receives.
ANY_TAG = -1
#: Wildcard source for receives.  Matching order among pending senders
#: is the order their sends were posted.  On the virtual-time engine
#: that is baton hand-off order, a function of the program, so an
#: ANY_SOURCE program has one makespan; on the wall-clock backend it is
#: thread-arrival order and reproducible only statistically.
ANY_SOURCE = -2

#: Wire-size overhead charged for envelope/bookkeeping, in values.
ENVELOPE_VALUES = 8


def _count_values(payload: Any) -> int | None:
    """Number of numeric values in a payload made of arrays/containers,
    or None if the payload is not array-structured."""
    if isinstance(payload, np.ndarray):
        return int(payload.size)
    if isinstance(payload, (list, tuple)):
        total = 0
        for item in payload:
            sub = _count_values(item)
            if sub is None:
                return None
            total += sub
        return total
    if isinstance(payload, dict):
        return _count_values(tuple(payload.values()))
    if isinstance(payload, (int, float, np.integer, np.floating, bool)):
        return 1
    if payload is None:
        return 0
    return None


def payload_wire_megabits(payload: Any, bytes_per_value: int = 4) -> Megabits:
    """Estimated on-the-wire size of a payload, in megabits.

    Array-structured payloads are charged ``values × bytes_per_value``
    (the paper's codes shipped 4-byte samples); anything else falls
    back to its pickled size.  A small envelope overhead is added so
    zero-length control messages still cost latency-scale time.
    """
    values = _count_values(payload)
    if values is not None:
        return values_wire_megabits(values, bytes_per_value)
    nbytes = len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
    return nbytes * 8.0 / 1e6


def values_wire_megabits(values: int, bytes_per_value: int = 4) -> Megabits:
    """Wire size of an array-structured payload of ``values`` numbers,
    envelope included, in megabits."""
    return (values + ENVELOPE_VALUES) * bytes_per_value * 8.0 / 1e6


def copy_payload(payload: Any) -> Any:
    """Value-semantics copy of a payload (arrays copied, not aliased)."""
    if isinstance(payload, np.ndarray):
        return payload.copy()
    if isinstance(payload, tuple):
        return tuple(copy_payload(p) for p in payload)
    if isinstance(payload, list):
        return [copy_payload(p) for p in payload]
    if isinstance(payload, dict):
        return {k: copy_payload(v) for k, v in payload.items()}
    if isinstance(payload, (int, float, str, bytes, bool, np.integer, np.floating)):
        return payload
    if payload is None:
        return None
    return copy.deepcopy(payload)


def freeze_payload(payload: Any) -> Any:
    """Zero-copy freeze: arrays become *read-only views*, not copies.

    Transport-level value semantics without the O(payload) deep copy:
    the receiver can read the sender's buffer directly but any write
    raises, so a delivered message can never be silently mutated by one
    rank under another's feet.  Receivers that legitimately need to
    mutate a delivered array take their copy explicitly via
    :func:`ensure_writable` — copy-on-write at the consumer, paid only
    when actually needed.

    Contract (guaranteed by the rendezvous semantics of
    :class:`Router`): the payload's contents at delivery time are the
    contents at send time, because the sender is parked inside
    :meth:`Router.send` until the receive consumes the offer.  Senders
    must not mutate a buffer after the send returns — the programs in
    this codebase send freshly built arrays and never touch them again.

    Non-array leaves keep :func:`copy_payload`'s behaviour (immutable
    scalars pass through; unknown objects are deep-copied).
    """
    if isinstance(payload, np.ndarray):
        view = payload.view()
        view.flags.writeable = False
        return view
    if isinstance(payload, tuple):
        return tuple(freeze_payload(p) for p in payload)
    if isinstance(payload, list):
        return [freeze_payload(p) for p in payload]
    if isinstance(payload, dict):
        return {k: freeze_payload(v) for k, v in payload.items()}
    if isinstance(payload, (int, float, str, bytes, bool, np.integer, np.floating)):
        return payload
    if payload is None:
        return None
    return copy.deepcopy(payload)


def ensure_writable(payload: Any) -> Any:
    """Copy-on-write realization of a (possibly frozen) payload.

    Read-only arrays are copied; writable arrays pass through
    unchanged.  Containers are rebuilt only as needed to carry the
    copies.  Use this at the *consumer* when a received array must be
    mutated in place.
    """
    if isinstance(payload, np.ndarray):
        return payload if payload.flags.writeable else payload.copy()
    if isinstance(payload, tuple):
        return tuple(ensure_writable(p) for p in payload)
    if isinstance(payload, list):
        return [ensure_writable(p) for p in payload]
    if isinstance(payload, dict):
        return {k: ensure_writable(v) for k, v in payload.items()}
    return payload


class _Offer:
    """A pending send awaiting its matching receive."""

    __slots__ = ("src", "dst", "tag", "payload", "megabits", "done")

    def __init__(self, src: int, dst: int, tag: int, payload: Any, megabits: float):
        self.src = src
        self.dst = dst
        self.tag = tag
        self.payload = payload
        self.megabits = megabits
        self.done = False


class _Waiter:
    """A parked rank: what it waits for, on whom, and whether a state
    change has marked it ready to leave its wait."""

    __slots__ = ("predicate", "peer", "ready")

    def __init__(self, predicate: Callable[[], Any], peer: int | None) -> None:
        self.predicate = predicate
        self.peer = peer
        self.ready = False


class Router:
    """Matches sends to receives across ``n_ranks`` threads.

    Args:
        n_ranks: number of participating ranks.
        match_handler: ``f(src, dst, megabits)`` invoked under the lock
            when a pair matches (use it to advance virtual clocks).
        run_to_block: the scheduling policy (module docstring).  False:
            a ready rank is released at once.  True: ranks start parked
            (each thread calls :meth:`enter`, the launcher
            :meth:`start`) and a ready rank is released only when the
            running one parks or retires, lowest rank first.
    """

    def __init__(
        self,
        n_ranks: int,
        match_handler: Callable[[int, int, float], None] | None = None,
        run_to_block: bool = False,
    ) -> None:
        if n_ranks < 1:
            raise CommunicationError(f"need >= 1 rank, got {n_ranks}")
        self._n = n_ranks
        self._handler = match_handler or (lambda src, dst, mb: None)
        self._lock = threading.Lock()
        self._offers: dict[int, deque[_Offer]] = {i: deque() for i in range(n_ranks)}
        self._waiters: dict[int, _Waiter] = {}  # parked rank -> its wait
        # What rank r sleeps on: held while r has not been released.
        self._wake = [threading.Lock() for _ in range(n_ranks)]
        for wake in self._wake:
            wake.acquire()
        self._n_ready = 0  # waiters marked ready that have not resumed
        self._retired: set[int] = set()
        self._failed: set[int] = set()
        self._dead: str | None = None  # why every wait is over, once it is
        # Run-to-block only: who holds the baton, and the heap of ready
        # ranks waiting for it.
        self._run_to_block = run_to_block
        self._running: int | None = None
        self._queue: list[int] = []
        if run_to_block:
            for rank in range(n_ranks):
                self._waiters[rank] = _Waiter(lambda: True, None)
                self._unblock(rank)

    # -- lifecycle -------------------------------------------------------------
    def enter(self, rank: int) -> None:
        """Called by a rank's thread before its program: returns when
        the rank may run — at once on a free-running router, with the
        baton on a run-to-block one."""
        with self._lock:
            waiter = self._waiters.get(rank)
            if waiter is not None:  # parked since construction
                self._sleep(rank, waiter)
                del self._waiters[rank]

    def start(self) -> None:
        """Called by the launcher once the rank threads exist: on a
        run-to-block router rank 0 gets the baton (a free-running one
        has nothing to hand over)."""
        with self._lock:
            if self._running is None:
                self._pass_baton()

    def retire(self, rank: int) -> None:
        """Mark a rank's program as finished (for deadlock accounting)."""
        with self._lock:
            self._retired.add(rank)
            self._stop_running(rank)

    def fail(self, rank: int) -> None:
        """Mark a rank as crashed; peers talking to it get
        :class:`~repro.errors.RankFailedError` instead of hanging.

        Unlike :meth:`abort` this is surgical: only operations that
        involve the failed rank error out, so surviving ranks keep
        running (and discover the failure in their own program order —
        a deterministic cascade on the virtual-time engine).
        """
        with self._lock:
            self._failed.add(rank)
            for parked, waiter in self._waiters.items():
                if waiter.peer == rank:
                    self._unblock(parked)

    def abort(self) -> None:
        """Wake all waiters with a deadlock error (used on rank crash)."""
        with self._lock:
            self._end_all("communication aborted (deadlock or peer failure)")

    # -- point-to-point -----------------------------------------------------------
    def send(
        self, src: int, dst: int, tag: int, payload: Any, megabits: float
    ) -> None:
        """Post a message and block until the matching receive consumes it.

        Sending to a rank marked failed raises
        :class:`~repro.errors.RankFailedError`, and the undelivered offer
        is withdrawn.
        """
        self._check_rank(src, "source")
        self._check_rank(dst, "destination")
        if src == dst:
            raise CommunicationError(f"rank {src} cannot send to itself")
        # Zero-copy: a read-only view travels instead of a deep copy —
        # O(1) per send regardless of payload size (see freeze_payload
        # for the aliasing contract the rendezvous semantics guarantee).
        offer = _Offer(src, dst, tag, freeze_payload(payload), megabits)
        with self._lock:
            self._offers[dst].append(offer)
            self._unblock(dst)
            try:
                self._wait(lambda: offer.done, rank=src, peer=dst)
            except BaseException:
                # Withdrawing an offer can unblock nobody.
                if not offer.done:
                    try:
                        self._offers[dst].remove(offer)
                    except ValueError:  # pragma: no cover - already consumed
                        pass
                raise

    def recv(self, dst: int, src: int, tag: int = ANY_TAG) -> Any:
        """Block until a message from ``src`` (with ``tag``) arrives; return it.

        Matching is FIFO among ``src``'s offers to ``dst`` that satisfy
        the tag filter.  Receiving from a rank marked failed raises
        :class:`~repro.errors.RankFailedError` (messages it sent
        *before* failing are still delivered first).
        """
        self._check_rank(dst, "destination")
        if src != ANY_SOURCE:
            self._check_rank(src, "source")

        def find() -> _Offer | None:
            for offer in self._offers[dst]:
                if (src == ANY_SOURCE or offer.src == src) and (
                    tag == ANY_TAG or offer.tag == tag
                ):
                    return offer
            return None

        peer = src if src != ANY_SOURCE else None
        with self._lock:
            offer = self._wait(find, rank=dst, peer=peer)
            self._offers[dst].remove(offer)
            # Timing decision happens here, in receiver program order,
            # while the sender is still parked on ``offer.done``.
            self._handler(offer.src, dst, offer.megabits)
            offer.done = True
            self._unblock(offer.src)
            return offer.payload

    # -- internals --------------------------------------------------------------
    def _check_rank(self, rank: int, role: str) -> None:
        if not 0 <= rank < self._n:
            raise CommunicationError(f"{role} rank {rank} outside [0, {self._n})")

    def _unblock(self, rank: int) -> None:
        """The wake rule (lock held): a state change that can have
        unblocked ``rank`` — and a change names the only ranks it can —
        calls this.  If the rank is parked and would now leave its wait
        it is marked ready: released at once on a free-running router,
        queued for the baton on a run-to-block one.
        """
        waiter = self._waiters.get(rank)
        if waiter is None or waiter.ready:
            return
        if not (
            self._dead is not None
            or waiter.peer in self._failed
            or waiter.predicate()
        ):
            return
        waiter.ready = True
        self._n_ready += 1
        if self._run_to_block:
            heapq.heappush(self._queue, rank)
        else:
            self._wake[rank].release()

    def _end_all(self, why: str) -> None:
        """Every wait is over (lock held): the one change that can
        unblock everybody."""
        self._dead = why
        for rank in self._waiters:
            self._unblock(rank)

    def _stop_running(self, rank: int) -> None:
        """``rank`` parked or retired (lock held): the verdict first,
        since it may have been the last rank running, then the baton if
        it held it."""
        self._settle()
        if self._running == rank:
            self._pass_baton()

    def _pass_baton(self) -> None:
        """Run-to-block (lock held): the running rank parked or
        retired, so release the lowest ready rank — the only place a
        run-to-block router releases anybody.  With nobody ready (the
        last rank retired) the baton is dropped; a free-running
        router's queue is always empty."""
        self._running = None
        while self._queue and self._running is None:
            rank = heapq.heappop(self._queue)
            if rank not in self._retired:  # retired: its thread never started
                self._running = rank
                self._wake[rank].release()

    def _sleep(self, rank: int, waiter: _Waiter) -> None:
        """Give up the router lock and sleep until released; lock held
        again on return and the waiter no longer marked ready."""
        self._lock.release()
        try:
            self._wake[rank].acquire()
        finally:
            self._lock.acquire()
            if waiter.ready:
                waiter.ready = False
                self._n_ready -= 1

    def _settle(self) -> None:
        """Give the verdict if the run is quiescent (lock held).

        Quiescent: every rank is retired or parked and none is ready,
        so no message can ever arrive again.  Only a rank parking or
        retiring can bring that about (any other state change makes
        somebody ready), so those two call this.  The verdict is a
        deadlock.
        """
        if (
            self._n_ready
            or self._dead is not None
            or not self._waiters
            or len(self._waiters) + len(self._retired) < self._n
        ):
            return
        self._end_all(
            f"all {self._n} ranks blocked with no matching messages — "
            "communication deadlock"
        )

    def _wait(
        self, predicate: Callable[[], Any], rank: int, peer: int | None = None
    ) -> Any:
        """Block until ``predicate()`` is truthy, or the wait is over
        for another reason: the run is dead or the peer failed.

        The rank sleeps until :meth:`_unblock` marks it ready (and, on
        a run-to-block router, the baton reaches it), then re-reads the
        router's state.
        """
        value = predicate()
        if value:
            return value
        waiter = self._waiters[rank] = _Waiter(predicate, peer)
        try:
            while True:
                if self._dead is not None:
                    raise DeadlockError(f"rank {rank}: {self._dead}")
                if peer is not None and peer in self._failed:
                    raise RankFailedError(
                        peer,
                        f"rank {rank}: peer rank {peer} failed",
                        secondary=True,
                    )
                self._stop_running(rank)
                self._sleep(rank, waiter)
                value = predicate()
                if value:
                    return value
        finally:
            del self._waiters[rank]
