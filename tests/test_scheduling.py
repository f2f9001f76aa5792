"""Tests for WEA partitioning, DLT fractions and dynamic scheduling."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.engine import run_program
from repro.cluster.network import uniform_network
from repro.cluster.platform import HeterogeneousPlatform
from repro.cluster.processor import ProcessorSpec
from repro.errors import ConfigurationError, PartitionError
from repro.mpi.inproc import run_inproc
from repro.scheduling.dynamic import dynamic_master_worker
from repro.scheduling.static_part import (
    RowPartition,
    dlt_fractions,
    halo_compensated_rows,
    heterogeneous_fractions,
    homogeneous_fractions,
    rows_from_fractions,
    wea_partition,
)

from conftest import make_tiny_platform


class TestFractions:
    def test_heterogeneous_proportional_to_speed(self, tiny_platform):
        frac = heterogeneous_fractions(tiny_platform)
        assert frac.sum() == pytest.approx(1.0)
        # speeds 500, 250, 125, 125
        assert frac[0] == pytest.approx(0.5)
        assert frac[1] == pytest.approx(0.25)

    def test_homogeneous_equal(self, tiny_platform):
        frac = homogeneous_fractions(tiny_platform)
        assert np.allclose(frac, 0.25)


class TestDLT:
    def test_sums_to_one(self, het_platform):
        frac = dlt_fractions(het_platform, 1000.0, 10.0)
        assert frac.sum() == pytest.approx(1.0)
        assert frac.min() >= 0.0

    def test_reduces_to_speed_proportional_without_comm(self, het_platform):
        frac = dlt_fractions(het_platform, 1000.0, 0.0)
        assert np.allclose(frac, heterogeneous_fractions(het_platform), atol=1e-6)

    def test_comm_shifts_load_off_slow_links(self, het_platform):
        cheap = dlt_fractions(het_platform, 1000.0, 0.0)
        costly = dlt_fractions(het_platform, 1000.0, 500.0)
        assert costly[15] < cheap[15]  # s4 worker, slowest link to master

    def test_bad_workload_rejected(self, het_platform):
        with pytest.raises(ConfigurationError):
            dlt_fractions(het_platform, 0.0, 1.0)


class TestRowsFromFractions:
    def test_exact_split(self):
        counts = rows_from_fractions(10, np.array([0.5, 0.3, 0.2]))
        assert counts.tolist() == [5, 3, 2]

    def test_sum_preserved_with_remainders(self):
        counts = rows_from_fractions(10, np.array([1 / 3, 1 / 3, 1 / 3]))
        assert counts.sum() == 10

    def test_min_rows_enforced(self):
        counts = rows_from_fractions(10, np.array([0.98, 0.01, 0.01]), min_rows=1)
        assert counts.min() >= 1
        assert counts.sum() == 10

    def test_infeasible_min_rejected(self):
        with pytest.raises(PartitionError):
            rows_from_fractions(2, np.array([0.5, 0.3, 0.2]), min_rows=1)

    def test_bad_fractions_rejected(self):
        with pytest.raises(PartitionError):
            rows_from_fractions(10, np.array([0.7, 0.7]))

    @settings(max_examples=40, deadline=None)
    @given(
        n_rows=st.integers(min_value=4, max_value=3000),
        seed=st.integers(min_value=0, max_value=100),
        p=st.integers(min_value=1, max_value=16),
    )
    def test_partition_properties(self, n_rows, seed, p):
        """Counts are non-negative, sum to n_rows, and deviate from the
        ideal real-valued share by less than one row."""
        if p > n_rows:
            return
        rng = np.random.default_rng(seed)
        frac = rng.random(p) + 0.01
        frac /= frac.sum()
        counts = rows_from_fractions(n_rows, frac)
        assert counts.sum() == n_rows
        assert counts.min() >= 0
        assert np.all(np.abs(counts - frac * n_rows) < 1.0)


class TestRowPartition:
    def test_bounds_and_offsets(self):
        part = RowPartition(np.array([3, 5, 2]))
        assert part.bounds(0) == (0, 3)
        assert part.bounds(1) == (3, 8)
        assert part.bounds(2) == (8, 10)
        assert part.n_rows == 10

    def test_owner_of_row(self):
        part = RowPartition(np.array([3, 5, 2]))
        assert part.owner_of_row(0) == 0
        assert part.owner_of_row(3) == 1
        assert part.owner_of_row(9) == 2

    def test_fractions(self):
        part = RowPartition(np.array([2, 8]))
        assert np.allclose(part.fractions(), [0.2, 0.8])

    def test_negative_counts_rejected(self):
        with pytest.raises(PartitionError):
            RowPartition(np.array([3, -1]))


class TestWEAPartition:
    def test_basic(self, het_platform):
        part = wea_partition(het_platform, 2133, 512, 224)
        assert part.n_rows == 2133
        assert part.size == 16
        # Fastest processor (p3) gets the largest share.
        assert int(np.argmax(part.counts)) == 2

    def test_memory_bound_caps_share(self):
        # One fast processor with tiny memory: its share must be capped
        # and redistributed (Algorithm 1 step 3b).
        procs = [
            ProcessorSpec("fast-small", 0.001, memory_mb=1.0),
            ProcessorSpec("slow-big", 0.01, memory_mb=100000.0),
        ]
        plat = HeterogeneousPlatform("mem", procs, uniform_network(2, 1.0))
        part = wea_partition(plat, 1000, 10, 10, bytes_per_value=8)
        cap0 = procs[0].max_pixels(10, 8, 0.5) // 10
        assert part.counts[0] <= cap0
        assert part.n_rows == 1000

    def test_insufficient_memory_rejected(self):
        procs = [ProcessorSpec("tiny", 0.01, memory_mb=0.001)] * 2
        plat = HeterogeneousPlatform("mem", procs, uniform_network(2, 1.0))
        with pytest.raises(PartitionError):
            wea_partition(plat, 10_000, 100, 100)


class TestHaloCompensation:
    def test_equalizes_extended_work(self):
        weights = np.array([4.0, 2.0, 1.0, 1.0])
        counts = halo_compensated_rows(100, weights, halo=5)
        extended = counts + 10
        ratios = extended / weights
        assert ratios.max() / ratios.min() < 1.25

    def test_sum_preserved(self):
        counts = halo_compensated_rows(64, np.array([10.0, 1.0, 1.0]), halo=3)
        assert counts.sum() == 64

    def test_zero_halo_is_proportional(self):
        weights = np.array([3.0, 1.0])
        counts = halo_compensated_rows(40, weights, halo=0)
        assert counts.tolist() == [30, 10]

    def test_min_rows_pinning(self):
        # Tiny weight would go negative: pinned to min_rows instead.
        weights = np.array([100.0, 0.001])
        counts = halo_compensated_rows(50, weights, halo=10, min_rows=1)
        assert counts[1] == 1
        assert counts.sum() == 50

    def test_bad_weights_rejected(self):
        with pytest.raises(PartitionError):
            halo_compensated_rows(10, np.array([1.0, -1.0]), halo=1)


class TestDynamicScheduling:
    def test_results_in_task_order(self):
        tasks = list(range(20))

        def program(ctx):
            return dynamic_master_worker(
                ctx, tasks if ctx.rank == ctx.master_rank else None,
                lambda c, t: t * t, chunk_size=3,
            )

        result = run_inproc(4, program)
        assert result.return_values[0] == [t * t for t in tasks]

    def test_single_rank_runs_inline(self):
        def program(ctx):
            return dynamic_master_worker(ctx, [1, 2, 3], lambda c, t: -t)

        result = run_inproc(1, program)
        assert result.return_values[0] == [-1, -2, -3]

    def test_chunk_size_validated(self):
        def program(ctx):
            return dynamic_master_worker(ctx, [1], lambda c, t: t, chunk_size=0)

        with pytest.raises(Exception):
            run_inproc(2, program)

    def test_inproc_spreads_chunks(self):
        """On the wall-clock backend a ready rank is released at once:
        while one worker sleeps in its task (the GIL released), the
        others post their requests, so chunks reach more than one
        worker."""
        tasks = list(range(24))

        def task(ctx, t):
            time.sleep(0.002)
            return ctx.rank

        def program(ctx):
            return dynamic_master_worker(
                ctx, tasks if ctx.is_master else None, task, chunk_size=1,
            )

        result = run_inproc(4, program)
        assert len(set(result.return_values[0])) >= 2

    def test_engine_hands_every_task_to_rank_one(self, tiny_platform):
        """On the engine a parked rank runs only when the baton reaches
        it, lowest ready rank first: worker 1's next request is posted
        before worker 2 or 3 has run at all, so the demand-driven loop
        measures one fixed schedule there, not balancing."""
        tasks = list(range(12))

        def program(ctx):
            return dynamic_master_worker(
                ctx, tasks if ctx.is_master else None,
                lambda c, t: c.rank, chunk_size=2,
            )

        result = run_program(tiny_platform, program)
        assert tiny_platform.size == 4
        assert result.return_values[0] == [1] * len(tasks)
