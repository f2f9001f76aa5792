"""The 16-rank collective storm, and the slice recorder the scheduler
tests share with it.

As a script (the CI "Scheduler stress" step) it runs the storm — 20
rounds of bcast + gather on 16 ranks — 200 times on each backend at
thread switch intervals 1e-6, 1e-4 and 5e-2, beside two busy-loop
processes so the rank threads never have the two cores to themselves.
It fails on any ``DeadlockError`` (no run gets a second attempt) and,
on the sim engine, on any run whose slice sequence differs from the
first one's: the engine runs ranks to block, so its wall schedule is a
function of the program, not of the switch interval or the load.  Last,
it fails if more threads are alive than the main one and one pooled
rank thread per rank.

    PYTHONPATH=src python tests/scheduler_storm.py [runs]
"""

from __future__ import annotations

import subprocess
import sys
import threading
import time
from typing import Any

from repro.cluster import SimulationEngine, fully_heterogeneous
from repro.cluster.mailbox import Router
from repro.errors import DeadlockError
from repro.mpi import Communicator, run_inproc

SWITCH_INTERVALS = (1e-6, 1e-4, 5e-2)


class SliceRouter(Router):
    """A run-to-block router that logs every slice: ``(rank, why it
    gave up the baton)``, e.g. ``(3, "recv<-0")`` or ``(3, "retire")``.
    Only the baton holder writes, so the log needs no lock."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        self.slices: list[tuple[int, str]] = []
        self._doing: dict[int, str] = {}
        super().__init__(*args, run_to_block=True, **kwargs)

    def send(self, src: int, dst: int, *args: Any, **kwargs: Any) -> None:
        self._doing[src] = f"send->{dst}"
        super().send(src, dst, *args, **kwargs)

    def recv(self, dst: int, src: int, *args: Any, **kwargs: Any) -> Any:
        self._doing[dst] = f"recv<-{src}"
        return super().recv(dst, src, *args, **kwargs)

    def retire(self, rank: int) -> None:
        self._doing[rank] = "retire"
        super().retire(rank)

    def _pass_baton(self) -> None:
        if self._running is not None:
            self.slices.append((self._running, self._doing[self._running]))
        super()._pass_baton()


def run_sliced(platform: Any, program: Any, **kwargs: Any) -> tuple[Any, list]:
    """Run ``program`` on the sim engine; returns (result, slices)."""
    engine = SimulationEngine(platform)
    engine.router = SliceRouter(platform.size, engine._on_match)
    result = engine.run(program, common_kwargs=kwargs)
    return result, engine.router.slices


def storm(ctx: Any, rounds: int = 20) -> int:
    comm = Communicator(ctx)
    total = 0
    for i in range(rounds):
        value = comm.bcast(i if comm.is_master else None)
        gathered = comm.gather(value + ctx.rank)
        if comm.is_master:
            total += sum(gathered)
    return total


def main(argv: list[str]) -> int:
    runs = int(argv[0]) if argv else 200
    platform = fully_heterogeneous()
    n = platform.size
    expected = sum(n * i + n * (n - 1) // 2 for i in range(20))
    hogs = [
        subprocess.Popen([sys.executable, "-c", "while True: pass"])
        for _ in range(2)
    ]
    old_interval = sys.getswitchinterval()
    failures = 0
    try:
        reference = run_sliced(platform, storm)[1]
        for interval in SWITCH_INTERVALS:
            sys.setswitchinterval(interval)
            start = time.perf_counter()
            deadlocks = wrong = reordered = 0
            for _ in range(runs):
                try:
                    values = run_inproc(n, storm).return_values
                    wrong += values[0] != expected
                except DeadlockError:
                    deadlocks += 1
                try:
                    result, slices = run_sliced(platform, storm)
                    wrong += result.return_values[0] != expected
                    reordered += slices != reference
                except DeadlockError:
                    deadlocks += 1
            print(
                f"switch interval {interval:g}: {runs} runs per backend in "
                f"{time.perf_counter() - start:.1f} s, {deadlocks} "
                f"DeadlockError, {wrong} wrong sums, {reordered} sim runs "
                f"off the reference schedule ({len(reference)} slices)"
            )
            failures += deadlocks + wrong + reordered
    finally:
        sys.setswitchinterval(old_interval)
        for hog in hogs:
            hog.kill()
            hog.wait()
    # Rank threads are pooled: however many runs it made, the process
    # holds the main thread and at most one parked thread per rank.
    threads = threading.active_count()
    print(f"{threads} threads alive after the storm (bound {1 + n})")
    failures += threads > 1 + n
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
