"""Ordered fan-out of independent tasks over a process pool.

Two grids fan out: the chaos sweep (``sweep run``) and the planner
bench (``bench plan``).  Their cells are pure functions of their inputs
and each costs far more than starting a worker process, so ``--jobs``
pays for itself there; both promise that any ``jobs`` value yields the
results, in the order, of a serial loop.  This module is that promise,
stated once.  The other grids (Tables 5–7, the causal profile, the
capacity sweep) run in plain loops: most of their cells are priced or
replayed in less time than a worker takes to start.
"""

from __future__ import annotations

import argparse
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Sequence, TypeVar

__all__ = ["job_count", "ordered_map"]

R = TypeVar("R")

#: Per-worker ``(fn, shared)``, set once by the pool initializer; one
#: copy per pool process, never set in the calling process.
_POOL_STATE: tuple[Callable[..., Any], tuple[Any, ...]] | None = None


def _pool_init(fn: Callable[..., Any], shared: tuple[Any, ...]) -> None:
    global _POOL_STATE
    _POOL_STATE = (fn, shared)


def _pool_call(task: Any) -> Any:
    assert _POOL_STATE is not None
    fn, shared = _POOL_STATE
    return fn(*shared, task)


def ordered_map(
    fn: Callable[..., R],
    tasks: Sequence[Any],
    jobs: int | None,
    shared: Sequence[Any] = (),
) -> list[R]:
    """``[fn(*shared, task) for task in tasks]``, over ``jobs`` processes.

    With ``jobs > 1`` and more than one task the calls run on a pool of
    ``min(jobs, len(tasks))`` worker processes; otherwise in a plain
    loop in the caller.  ``shared`` reaches each worker once, through
    the pool initializer, not once per task.  Results come back in task
    order whatever order the tasks finish in, and a task's exception is
    re-raised in the caller.  ``fn`` must be a module-level function
    (it is sent to the workers by import path).
    """
    shared = tuple(shared)
    if jobs is not None and jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(tasks)),
            initializer=_pool_init,
            initargs=(fn, shared),
        ) as pool:
            return list(pool.map(_pool_call, tasks))
    return [fn(*shared, task) for task in tasks]


def job_count(text: str) -> int:
    """The argparse ``type`` of a ``--jobs`` option: a count >= 1."""
    jobs = int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {jobs}")
    return jobs
