"""Ordered fan-out of independent tasks over a process pool.

Every grid in the repo (Tables 5–7, the bench and plan grids, the fault
sweep, the causal profile, the capacity sweep) is a list of cells that
are pure functions of their inputs, and every one promises the same
thing: any ``jobs`` value yields the results, in the order, of a serial
loop.  This module is that promise, stated once.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Sequence, TypeVar

__all__ = ["ordered_map"]

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
