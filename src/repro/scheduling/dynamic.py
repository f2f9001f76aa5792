"""Demand-driven (dynamic) master/worker scheduling baseline.

The paper's algorithms balance load *statically* via WEA.  The classic
alternative from the heterogeneous-scheduling literature it cites
([18], [2]) is demand-driven self-scheduling: the master keeps a queue
of small chunks and hands the next one to whichever worker asks first.
This module implements that baseline over the same communicator API so
ablation benchmarks can compare static-WEA against dynamic balancing
(dynamic pays per-chunk communication; WEA pays a single scatter).

Uses ANY_SOURCE receives, which match pending senders in the order
their sends were posted.  On the wall-clock backend that is
thread-arrival order: which worker gets which chunk varies from run to
run, and that backend is where these loops balance load.  On the
virtual-time engine it is baton hand-off order, lowest ready rank first
(:mod:`repro.cluster.mailbox`), a function of the program: one
task-to-worker map and one makespan per program — and because the
lowest-numbered worker has its next request posted before a
higher-numbered one has had the baton at all, it is handed every chunk,
so a sim makespan of these loops times that one schedule, not
demand-driven balancing.  Results (the computed values) are exact
regardless.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.cluster.mailbox import ANY_SOURCE
from repro.errors import (
    CommunicationTimeout,
    ConfigurationError,
    RankFailedError,
)
from repro.mpi.communicator import MessageContext

__all__ = [
    "dynamic_master_worker",
    "WorkerResigned",
    "fault_tolerant_master_worker",
    "speculative_master_worker",
]

#: Control tags (inside the user tag space).
_TAG_REQUEST = 101
_TAG_WORK = 102
_TAG_RESULT = 103
_TAG_STOP = 104


class WorkerResigned(Exception):
    """Raised by a task function to simulate a worker dropping out.

    The fault-tolerant scheduler treats it as the worker dying without
    notice: the worker simply stops participating, and the master
    *detects* the loss through its receive deadline plus the
    router-derived liveness view (:func:`repro.faults.liveness_of`) —
    no goodbye message is required, so genuinely crashed ranks (e.g. a
    fault-plan :class:`~repro.faults.RankCrash`) are handled the same
    way as scripted resignations.
    """


def dynamic_master_worker(
    ctx: MessageContext,
    tasks: Sequence[Any] | None,
    process_task: Callable[[MessageContext, Any], Any],
    chunk_size: int = 1,
) -> list[Any] | None:
    """Self-scheduling loop: run on every rank (SPMD).

    Args:
        ctx: the rank's message context (sim or in-process backend).
        tasks: the task list — only the master's copy is used.
        process_task: ``f(ctx, task) -> result`` executed at workers
            (and at the master for leftover tasks when it has no
            workers).
        chunk_size: tasks handed out per request.

    Returns:
        At the master: results in task order.  At workers: ``None``.
    """
    if chunk_size < 1:
        raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
    master = ctx.master_rank
    if ctx.rank == master:
        if tasks is None:
            raise ConfigurationError("master must supply the task list")
        n_tasks = len(tasks)
        results: list[Any] = [None] * n_tasks
        n_workers = ctx.size - 1
        if n_workers == 0:
            return [process_task(ctx, t) for t in tasks]
        cursor = 0
        stopped = 0
        while stopped < n_workers:
            worker, kind, body = ctx.recv(ANY_SOURCE, -1)
            if kind == "result":
                start, chunk_results = body
                for offset, value in enumerate(chunk_results):
                    results[start + offset] = value
            # Every message doubles as a work request.
            if cursor < n_tasks:
                stop = min(cursor + chunk_size, n_tasks)
                ctx.send(worker, (cursor, list(tasks[cursor:stop])), _TAG_WORK)
                cursor = stop
            else:
                ctx.send(worker, None, _TAG_STOP)
                stopped += 1
        return results

    # Worker: request, process, repeat.
    ctx.send(master, (ctx.rank, "request", None), _TAG_REQUEST)
    while True:
        chunk = ctx.recv(master, -1)
        if chunk is None:
            return None
        start, chunk_tasks = chunk
        chunk_results = [process_task(ctx, t) for t in chunk_tasks]
        ctx.send(master, (ctx.rank, "result", (start, chunk_results)), _TAG_RESULT)


def fault_tolerant_master_worker(
    ctx: MessageContext,
    tasks: Sequence[Any] | None,
    process_task: Callable[[MessageContext, Any], Any],
    chunk_size: int = 1,
    timeout_s: float = 0.25,
) -> list[Any] | None:
    """Self-scheduling with worker-failure *detection* and recovery (SPMD).

    Like :func:`dynamic_master_worker`, but robust to workers that stop
    without notice: a worker whose ``process_task`` raises
    :class:`WorkerResigned` simply returns (simulated silent death),
    and genuinely crashed ranks (fault-plan
    :class:`~repro.faults.RankCrash`) disappear the same way.  The
    master detects losses with the :mod:`repro.faults` detection API —
    a per-receive deadline (``timeout_s``; virtual seconds on the
    engine, wall seconds inproc) plus the router-derived liveness view
    — then requeues the dead workers' outstanding chunks for the
    survivors.  The answer is complete and correct as long as the
    master survives: it processes leftovers itself if *all* workers
    are lost.

    Returns:
        At the master: results in task order.  At workers: ``None``.
    """
    if chunk_size < 1:
        raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
    if timeout_s <= 0:
        raise ConfigurationError(f"timeout_s must be > 0, got {timeout_s}")
    # Imported lazily: repro.faults pulls in the algorithm drivers,
    # which import this package.
    from repro.faults.detect import liveness_of

    master = ctx.master_rank
    if ctx.rank == master:
        if tasks is None:
            raise ConfigurationError("master must supply the task list")
        n_tasks = len(tasks)
        results: list[Any] = [None] * n_tasks
        pending: list[tuple[int, int]] = []  # requeued (start, stop) chunks
        cursor = 0
        n_workers = ctx.size - 1
        if n_workers == 0:
            return [process_task(ctx, t) for t in tasks]
        liveness = liveness_of(ctx)
        alive = {rank for rank in range(ctx.size) if rank != master}
        outstanding: dict[int, tuple[int, int]] = {}

        def next_chunk() -> tuple[int, int] | None:
            nonlocal cursor
            if pending:
                return pending.pop()
            if cursor < n_tasks:
                start = cursor
                cursor = min(cursor + chunk_size, n_tasks)
                return (start, cursor)
            return None

        def bury(worker: int) -> None:
            """Requeue a dead worker's chunk and stop scheduling to it."""
            chunk = outstanding.pop(worker, None)
            if chunk is not None:
                pending.append(chunk)
            alive.discard(worker)

        while alive:
            try:
                worker, kind, body = ctx.recv(
                    ANY_SOURCE, -1, timeout_s=timeout_s
                )
            except CommunicationTimeout:
                # Nobody is talking: see who died.  On the virtual-time
                # engine the deadline only fires at quiescence, so a
                # timeout here *implies* lost workers; on the wall
                # clock it may be spurious (slow workers) — then no
                # rank is dead and we simply wait again.
                for worker in sorted(alive):
                    if not liveness.is_alive(worker):
                        bury(worker)
                continue
            if kind == "result":
                start, chunk_results = body
                for offset, value in enumerate(chunk_results):
                    results[start + offset] = value
                outstanding.pop(worker, None)
            chunk = next_chunk()
            try:
                if chunk is not None:
                    start, stop = chunk
                    outstanding[worker] = chunk
                    ctx.send(
                        worker, (start, list(tasks[start:stop])), _TAG_WORK,
                        timeout_s=timeout_s,
                    )
                else:
                    ctx.send(worker, None, _TAG_STOP, timeout_s=timeout_s)
                    alive.discard(worker)
            except (CommunicationTimeout, RankFailedError):
                bury(worker)
        # All workers retired or lost: the master mops up anything left.
        while True:
            chunk = next_chunk()
            if chunk is None:
                break
            start, stop = chunk
            for offset, task in enumerate(tasks[start:stop]):
                results[start + offset] = process_task(ctx, task)
        return results

    # Worker loop; resignation is silent — detection is the master's job.
    ctx.send(master, (ctx.rank, "request", None), _TAG_REQUEST)
    while True:
        chunk = ctx.recv(master, -1)
        if chunk is None:
            return None
        start, chunk_tasks = chunk
        try:
            chunk_results = [process_task(ctx, t) for t in chunk_tasks]
        except WorkerResigned:
            return None
        ctx.send(master, (ctx.rank, "result", (start, chunk_results)), _TAG_RESULT)


def speculative_master_worker(
    ctx: MessageContext,
    tasks: Sequence[Any] | None,
    process_task: Callable[[MessageContext, Any], Any],
    chunk_size: int = 1,
) -> list[Any] | None:
    """Self-scheduling with speculative straggler re-execution (SPMD).

    Like :func:`dynamic_master_worker` until the fresh-task queue
    drains; from then on an idle worker asking for work receives a
    *duplicate* of an outstanding chunk instead of an immediate stop —
    the MapReduce "backup task" move for stragglers.  The candidate
    order is deterministic: fewest current holders first, then the
    lowest start index (the longest-outstanding chunk — the one a
    slowed worker has been sitting on).  The first copy of a chunk to
    come back wins; results from later copies are discarded, so the
    result array is written exactly once per task and stays
    byte-identical to the sequential reference regardless of which
    copy won.  A straggler is never interrupted — it finishes its
    (by then redundant) chunk and is stopped on its next request — but
    the master's *result set* completes as soon as the fastest copy of
    every chunk is in.

    Accounting (when the backend carries an obs session): counters
    ``spec.reissues`` (duplicates issued) and ``spec.duplicates``
    (redundant results discarded).

    Returns:
        At the master: results in task order.  At workers: ``None``.
    """
    if chunk_size < 1:
        raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
    master = ctx.master_rank
    if ctx.rank != master:
        # Workers are oblivious to speculation — the protocol is
        # exactly the demand-driven one.
        return dynamic_master_worker(ctx, tasks, process_task, chunk_size)

    if tasks is None:
        raise ConfigurationError("master must supply the task list")
    obs = getattr(ctx, "obs", None)
    metrics = obs.metrics if obs is not None else None
    n_tasks = len(tasks)
    results: list[Any] = [None] * n_tasks
    n_workers = ctx.size - 1
    if n_workers == 0:
        return [process_task(ctx, t) for t in tasks]

    cursor = 0
    stopped = 0
    chunks: dict[int, tuple[int, int]] = {}  # start -> (start, stop)
    holders: dict[int, list[int]] = {}  # start -> workers holding a copy
    completed: set[int] = set()

    def speculation_candidate(worker: int) -> int | None:
        """Deterministic pick: fewest holders, then lowest start (the
        longest-outstanding chunk), never a chunk this worker already
        holds."""
        best: int | None = None
        best_key: tuple[int, int] | None = None
        for start in chunks:
            if start in completed:
                continue
            held_by = holders.get(start, [])
            if worker in held_by:
                continue
            key = (len(held_by), start)
            if best_key is None or key < best_key:
                best, best_key = start, key
        return best

    while stopped < n_workers:
        worker, kind, body = ctx.recv(ANY_SOURCE, -1)
        if kind == "result":
            start, chunk_results = body
            held_by = holders.get(start)
            if held_by is not None and worker in held_by:
                held_by.remove(worker)
            if start in completed:
                # A slower copy of an already-finished chunk.
                if metrics is not None:
                    metrics.counter("spec.duplicates").inc()
            else:
                completed.add(start)
                for offset, value in enumerate(chunk_results):
                    results[start + offset] = value
        # Every message doubles as a work request.
        if cursor < n_tasks:
            start, stop = cursor, min(cursor + chunk_size, n_tasks)
            cursor = stop
            chunks[start] = (start, stop)
            holders[start] = [worker]
            ctx.send(worker, (start, list(tasks[start:stop])), _TAG_WORK)
            continue
        candidate = speculation_candidate(worker)
        if candidate is not None:
            start, stop = chunks[candidate]
            holders[start].append(worker)
            if metrics is not None:
                metrics.counter("spec.reissues").inc()
            ctx.send(worker, (start, list(tasks[start:stop])), _TAG_WORK)
            continue
        ctx.send(worker, None, _TAG_STOP)
        stopped += 1
    return results
