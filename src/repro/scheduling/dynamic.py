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
run, and that backend is where this loop balances load.  On the
virtual-time engine it is baton hand-off order, lowest ready rank first
(:mod:`repro.cluster.mailbox`), a function of the program: one
task-to-worker map and one makespan per program — and because the
lowest-numbered worker has its next request posted before a
higher-numbered one has had the baton at all, it is handed every chunk,
so a sim makespan of this loop times that one schedule, not
demand-driven balancing.  Results (the computed values) are exact
regardless.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.cluster.mailbox import ANY_SOURCE
from repro.errors import ConfigurationError
from repro.mpi.communicator import MessageContext

__all__ = ["dynamic_master_worker"]

#: Control tags (inside the user tag space).
_TAG_REQUEST = 101
_TAG_WORK = 102
_TAG_RESULT = 103
_TAG_STOP = 104


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
