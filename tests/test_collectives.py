"""Tests for the MPI-like collectives."""

import numpy as np
import pytest

from repro.mpi.communicator import (
    Communicator,
    concat_op,
    max_op,
    min_op,
    sum_op,
)
from repro.mpi.inproc import run_inproc


def run_collective(n_ranks, body):
    """Run ``body(comm, ctx)`` on every rank, return the list of results."""

    def program(ctx):
        return body(Communicator(ctx), ctx)

    return run_inproc(n_ranks, program).return_values


@pytest.mark.parametrize("size", [1, 2, 3, 4, 7, 8])
class TestBcast:
    def test_object_reaches_everyone(self, size):
        def body(comm, ctx):
            obj = {"data": 42} if comm.is_master else None
            return comm.bcast(obj)

        results = run_collective(size, body)
        assert all(r == {"data": 42} for r in results)

    def test_array_reaches_everyone(self, size):
        payload = np.arange(10.0)

        def body(comm, ctx):
            obj = payload if comm.is_master else None
            return comm.bcast(obj)

        results = run_collective(size, body)
        assert all(np.array_equal(r, payload) for r in results)


@pytest.mark.parametrize("size", [1, 2, 5, 8])
class TestScatterGather:
    def test_scatter(self, size):
        def body(comm, ctx):
            items = [f"item-{r}" for r in range(comm.size)] if comm.is_master else None
            return comm.scatter(items)

        results = run_collective(size, body)
        assert results == [f"item-{r}" for r in range(size)]

    def test_gather(self, size):
        def body(comm, ctx):
            return comm.gather(comm.rank * 10)

        results = run_collective(size, body)
        assert results[0] == [r * 10 for r in range(size)]
        assert all(r is None for r in results[1:])

    def test_allgather(self, size):
        def body(comm, ctx):
            return comm.allgather(comm.rank)

        results = run_collective(size, body)
        assert all(r == list(range(size)) for r in results)


@pytest.mark.parametrize("size", [1, 2, 3, 6, 8])
class TestReduce:
    def test_sum(self, size):
        def body(comm, ctx):
            return comm.reduce(comm.rank + 1, sum_op)

        results = run_collective(size, body)
        assert results[0] == size * (size + 1) // 2

    def test_allreduce_max(self, size):
        def body(comm, ctx):
            return comm.allreduce(comm.rank, max_op)

        results = run_collective(size, body)
        assert all(r == size - 1 for r in results)

    def test_allreduce_array_min(self, size):
        def body(comm, ctx):
            value = np.array([comm.rank, -comm.rank], dtype=float)
            return comm.allreduce(value, min_op)

        results = run_collective(size, body)
        expected = np.array([0.0, -(size - 1)])
        assert all(np.array_equal(r, expected) for r in results)

    def test_barrier_completes(self, size):
        def body(comm, ctx):
            comm.barrier()
            return "ok"

        assert run_collective(size, body) == ["ok"] * size


class TestOps:
    def test_concat_op(self):
        assert concat_op([1], 2) == [1, 2]
        assert concat_op(1, [2, 3]) == [1, 2, 3]

    def test_scalar_ops(self):
        assert max_op(3, 5) == 5
        assert min_op(3, 5) == 3
        assert sum_op(3, 5) == 8


class TestCommunicatorValidation:
    def test_reserved_tag_rejected(self):
        def body(comm, ctx):
            if comm.rank == 0:
                comm.send(1, "x", tag=1 << 21)
            else:
                comm.recv(0)

        with pytest.raises(Exception):
            run_collective(2, body)

    def test_scatter_requires_full_list(self):
        def body(comm, ctx):
            items = ["only-one"] if comm.is_master else None
            return comm.scatter(items)

        with pytest.raises(Exception):
            run_collective(2, body)

    def test_bad_root_rejected(self):
        def body(comm, ctx):
            return comm.bcast("x", root=99)

        with pytest.raises(Exception):
            run_collective(2, body)

