"""Distributed control flow on your machine's threads.

The same SPMD programs that run under the virtual-time engine also run
on the wall-clock in-process backend: one real thread per rank, real
rendezvous message passing, real data movement.  This example runs
Hetero-UFCLS on 1, 2 and 4 ranks and verifies the targets are identical
to the sequential reference every time — the backend's job is to prove
the distributed control flow correct under real thread interleaving.
(The ranks share CPython's GIL and run on the launcher's current CPU,
so they take turns on one processor, as MPI ranks that outnumber their
cores do; real parallelism is why the paper used MPI processes.  Treat
the timings as informational, not as speedups of more cores.)

Run:  python examples/real_parallel_threads.py
"""

import time

import numpy as np

from repro.core import run_parallel, ufcls
from repro.cluster import HeterogeneousPlatform, ProcessorSpec, uniform_network
from repro.hsi import SceneConfig, make_wtc_scene


def local_platform(n_ranks: int) -> HeterogeneousPlatform:
    """A stand-in platform: rank count is all the inproc backend uses."""
    procs = [ProcessorSpec(f"cpu{i}", 0.01, memory_mb=8192) for i in range(n_ranks)]
    return HeterogeneousPlatform("localhost", procs, uniform_network(n_ranks, 1.0))


def main() -> None:
    scene = make_wtc_scene(SceneConfig(rows=192, cols=96, bands=48))
    image = scene.image
    n_targets = 12

    start = time.perf_counter()
    reference = ufcls(image, n_targets)
    seq_time = time.perf_counter() - start
    print(f"sequential reference: {seq_time:.2f}s")

    for n_ranks in (1, 2, 4):
        run = run_parallel(
            "ufcls", image, local_platform(n_ranks),
            params={"n_targets": n_targets}, backend="inproc",
        )
        identical = np.array_equal(
            reference.flat_indices, run.output.flat_indices
        )
        print(
            f"{n_ranks} rank(s): {run.inproc.wall_seconds:.2f}s wall, "
            f"speedup {seq_time / run.inproc.wall_seconds:.2f}x "
            f"(targets identical to sequential: {identical})"
        )


if __name__ == "__main__":
    main()
