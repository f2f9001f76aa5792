"""Tests for the iterative-mapping LP, fault-tolerant scheduling,
engine tracing, and the Gantt renderer."""

import numpy as np
import pytest

from repro.cluster import SimulationEngine, fully_heterogeneous
from repro.errors import ConfigurationError
from repro.mpi.inproc import run_inproc
from repro.scheduling import (
    WorkerResigned,
    dlt_fractions,
    fault_tolerant_master_worker,
    heterogeneous_fractions,
    iterative_makespan,
    optimal_iterative_fractions,
)
from repro.viz.timeline import ascii_gantt, gantt_of_run

from conftest import make_tiny_platform


class TestIterativeLP:
    def test_fractions_valid(self, het_platform):
        alpha = optimal_iterative_fractions(het_platform, 10, 100.0, 50.0)
        assert alpha.sum() == pytest.approx(1.0)
        assert alpha.min() >= 0.0

    def test_large_k_approaches_speed_proportional(self, het_platform):
        alpha = optimal_iterative_fractions(het_platform, 10_000, 100.0, 50.0)
        assert np.allclose(
            alpha, heterogeneous_fractions(het_platform), atol=1e-4
        )

    def test_lp_dominates_heuristics(self, het_platform):
        """The LP optimum is at least as good as WEA and DLT shares
        under its own makespan model, for any iteration count."""
        mflops, megabits = 100.0, 200.0
        for k in (1, 3, 20, 200):
            lp = optimal_iterative_fractions(het_platform, k, mflops, megabits)
            t_lp = iterative_makespan(het_platform, lp, k, mflops, megabits)
            for other in (
                heterogeneous_fractions(het_platform),
                dlt_fractions(het_platform, mflops, megabits),
            ):
                t_other = iterative_makespan(
                    het_platform, other, k, mflops, megabits
                )
                assert t_lp <= t_other * (1 + 1e-9), k

    def test_k1_can_beat_dlt_when_comm_dominates(self, het_platform):
        """With communication dominating, handing slow-linked workers
        any load is a loss; the LP finds that, equal-completion DLT
        cannot."""
        mflops, megabits = 1.0, 500.0
        lp = optimal_iterative_fractions(het_platform, 1, mflops, megabits)
        dlt = dlt_fractions(het_platform, mflops, megabits)
        t_lp = iterative_makespan(het_platform, lp, 1, mflops, megabits)
        t_dlt = iterative_makespan(het_platform, dlt, 1, mflops, megabits)
        assert t_lp < t_dlt

    def test_bad_inputs_rejected(self, het_platform):
        with pytest.raises(ConfigurationError):
            optimal_iterative_fractions(het_platform, 0, 1.0, 1.0)
        with pytest.raises(ConfigurationError):
            iterative_makespan(
                het_platform, heterogeneous_fractions(het_platform), 1, -1.0, 0.0
            )


class TestFaultTolerantScheduling:
    def test_no_failures_matches_plain(self):
        tasks = list(range(30))

        def program(ctx):
            return fault_tolerant_master_worker(
                ctx, tasks if ctx.rank == 0 else None,
                lambda c, t: t + 100, chunk_size=4,
            )

        result = run_inproc(4, program)
        assert result.return_values[0] == [t + 100 for t in tasks]

    def test_single_worker_failure_recovered(self):
        tasks = list(range(40))

        def process(ctx, task):
            if ctx.rank == 2 and task >= 8:
                raise WorkerResigned()
            return task * 3

        def program(ctx):
            return fault_tolerant_master_worker(
                ctx, tasks if ctx.rank == 0 else None, process, chunk_size=4,
            )

        result = run_inproc(4, program)
        assert result.return_values[0] == [t * 3 for t in tasks]

    def test_all_workers_fail_master_mops_up(self):
        tasks = list(range(12))

        def process(ctx, task):
            if ctx.rank != ctx.master_rank:
                raise WorkerResigned()
            return -task

        def program(ctx):
            return fault_tolerant_master_worker(
                ctx, tasks if ctx.rank == 0 else None, process, chunk_size=3,
            )

        result = run_inproc(3, program)
        assert result.return_values[0] == [-t for t in tasks]

    def test_single_rank(self):
        def program(ctx):
            return fault_tolerant_master_worker(ctx, [5], lambda c, t: t)

        assert run_inproc(1, program).return_values[0] == [5]


class TestEngineTrace:
    def _traced_run(self):
        platform = make_tiny_platform()
        engine = SimulationEngine(platform, trace=True)

        def program(ctx):
            if ctx.is_master:
                ctx.compute(50.0, sequential=True)
                for dest in range(1, ctx.size):
                    ctx.send(dest, np.zeros(100))
            else:
                ctx.recv(0)
                ctx.compute(100.0)

        return engine.run(program)

    def test_events_recorded(self):
        result = self._traced_run()
        kinds = {e.kind for e in result.events}
        assert kinds == {"seq", "compute", "transfer"}
        # Every transfer recorded once per endpoint.
        transfers = [e for e in result.events if e.kind == "transfer"]
        assert len(transfers) == 2 * 3

    def test_events_sorted_and_bounded(self):
        result = self._traced_run()
        starts = [e.start for e in result.events]
        assert starts == sorted(starts)
        assert all(0 <= e.start <= e.end <= result.makespan
                   for e in result.events)

    def test_untraced_engine_has_no_events(self, tiny_platform):
        engine = SimulationEngine(tiny_platform)
        result = engine.run(lambda ctx: ctx.compute(1.0))
        assert result.events == []

    def test_gantt_rendering(self):
        result = self._traced_run()
        chart = gantt_of_run(result, width=60)
        lines = chart.splitlines()
        assert len(lines) == 4 + 3  # 4 lanes + axis + scale + legend
        assert "S" in lines[0]  # master's sequential work
        assert "#" in lines[1]  # a worker's parallel compute
        assert "=" in chart

    def test_gantt_validates_input(self):
        with pytest.raises(ConfigurationError):
            ascii_gantt([], n_ranks=2)


class TestNFindrAndSAM:
    def test_nfindr_finds_simplex_vertices(self, rng):
        from repro.core import nfindr_pixels

        # 3 extreme vertices + interior mixtures: N-FINDR must return
        # the vertices.
        vertices = np.array(
            [[5.0, 0.1, 0.1, 0.1], [0.1, 5.0, 0.1, 0.1], [0.1, 0.1, 5.0, 0.1]]
        )
        weights = rng.dirichlet(np.ones(3), size=150)
        interior = weights @ vertices
        pixels = np.vstack([interior, vertices])
        result = nfindr_pixels(pixels, 3)
        assert set(result.flat_indices) == {150, 151, 152}
        assert result.volume > 0

    def test_nfindr_batched_sweep_matches_scalar_scan(self, rng):
        # The batched cofactor screen must reproduce the scalar
        # first-accept replacement scan exactly: same endmembers, same
        # volume, same sweep count.
        from repro.core import nfindr_pixels
        from repro.core.atdca import atdca_pixels
        from repro.core.nfindr import _sweep_scalar, simplex_volume
        from repro.linalg.pca import (
            apply_pct, covariance_matrix, mean_vector, pct_transform,
        )

        k = 4
        vertices = rng.random((k, 8)) * 4.0 + 0.5
        weights = rng.dirichlet(np.ones(k), size=300)
        pixels = weights @ vertices + rng.normal(0, 0.01, size=(300, 8))

        mean = mean_vector(pixels)
        transform, _ = pct_transform(
            covariance_matrix(pixels, mean), n_components=k - 1
        )
        reduced = apply_pct(pixels, mean, transform)
        current = atdca_pixels(pixels, k).flat_indices.astype(np.int64)
        volume = simplex_volume(reduced[current])
        sweeps = 0
        improved = True
        while improved and sweeps < 10:
            sweeps += 1
            current, volume, improved = _sweep_scalar(
                reduced, current, volume, k
            )

        result = nfindr_pixels(pixels, k)
        assert np.array_equal(result.flat_indices, current)
        assert result.volume == volume
        assert result.sweeps == sweeps

    def test_nfindr_validation(self, rng):
        from repro.core import nfindr_pixels

        with pytest.raises(ConfigurationError):
            nfindr_pixels(rng.random((10, 4)), 1)
        with pytest.raises(ConfigurationError):
            nfindr_pixels(rng.random((10, 2)), 5)


class TestSpeculativeScheduler:
    """speculative_master_worker: MapReduce-style backup tasks for
    stragglers, first-result-wins, byte-identical results."""

    def _straggler_program(self, tasks, slow_rank=3, chunk_size=1):
        from repro.scheduling import speculative_master_worker

        def program(ctx):
            def process(c, t):
                c.charge_seconds(0.05 if c.rank == slow_rank else 0.001)
                return t * t

            return speculative_master_worker(
                ctx, tasks if ctx.rank == ctx.master_rank else None,
                process, chunk_size=chunk_size,
            )

        return program

    def test_results_match_plain_dynamic_inproc(self):
        from repro.scheduling import (
            dynamic_master_worker,
            speculative_master_worker,
        )

        tasks = list(range(20))

        def spec_program(ctx):
            return speculative_master_worker(
                ctx, tasks if ctx.rank == ctx.master_rank else None,
                lambda c, t: t * t, chunk_size=3,
            )

        def dyn_program(ctx):
            return dynamic_master_worker(
                ctx, tasks if ctx.rank == ctx.master_rank else None,
                lambda c, t: t * t, chunk_size=3,
            )

        spec = run_inproc(4, spec_program)
        dyn = run_inproc(4, dyn_program)
        assert spec.return_values[0] == dyn.return_values[0]
        assert spec.return_values[0] == [t * t for t in tasks]

    def test_scripted_arrivals_reissue_and_first_copy_wins(self):
        """The master loop against a fixed ANY_SOURCE arrival order.

        On the threaded backends that order is thread-arrival order
        (see ``cluster/mailbox.py``), so which worker gets a backup
        copy — or whether one is issued at all — is only statistically
        reproducible.  Replaying a script pins the policy itself.
        """
        from repro.obs import ObsSession
        from repro.scheduling import speculative_master_worker

        class ScriptedMaster:
            rank = master_rank = 0
            size = 4

            def __init__(self, arrivals):
                self.obs = ObsSession.create()
                self.arrivals = iter(arrivals)
                self.sent = []

            def recv(self, source, tag):
                return next(self.arrivals)

            def send(self, dest, payload, tag):
                self.sent.append((dest, payload))

        # Worker 3 is the straggler: it sits on chunk 2 throughout.
        ctx = ScriptedMaster([
            (1, "request", None),
            (2, "request", None),
            (3, "request", None),
            (1, "result", (0, ["r0"])),
            (2, "result", (1, ["r1"])),       # queue drained: backup of 2
            (1, "result", (3, ["r3"])),       # a second backup of 2
            (2, "result", (2, ["first"])),    # first copy back wins
            (3, "result", (2, ["late"])),     # the straggler's own copy
            (1, "result", (2, ["later"])),
        ])
        results = speculative_master_worker(
            ctx, ["a", "b", "c", "d"], lambda c, t: t, chunk_size=1
        )
        assert results == ["r0", "r1", "first", "r3"]
        assert ctx.sent == [
            (1, (0, ["a"])),
            (2, (1, ["b"])),
            (3, (2, ["c"])),
            (1, (3, ["d"])),
            # Fewest holders first, then the longest-outstanding chunk.
            (2, (2, ["c"])),
            (1, (2, ["c"])),
            # Never interrupted, and stopped on the next request: a
            # straggler costs at most the one chunk it was holding.
            (2, None),
            (3, None),
            (1, None),
        ]
        assert ctx.obs.metrics.total("spec.reissues") == 2.0
        assert ctx.obs.metrics.total("spec.duplicates") == 2.0

    def test_straggler_triggers_reissue_on_engine(self, tiny_platform):
        from repro.cluster.engine import run_program
        from repro.obs import ObsSession

        tasks = list(range(12))
        obs = ObsSession.create()
        result = run_program(
            tiny_platform, self._straggler_program(tasks), obs=obs
        )
        assert result.return_values[0] == [t * t for t in tasks]
        # Whether the straggler's chunk is re-issued depends on the
        # arrival order; that every redundant result answers a re-issue
        # does not.
        assert (
            obs.metrics.total("spec.duplicates")
            <= obs.metrics.total("spec.reissues")
        )

    def test_speculation_is_result_safe_and_cheap(self, tiny_platform):
        from repro.cluster import CostModel
        from repro.cluster.engine import run_program
        from repro.scheduling import dynamic_master_worker

        tasks = list(range(12))
        cheap_comm = CostModel(comm_scale=1e-6)

        def dyn_program(ctx):
            def process(c, t):
                c.charge_seconds(0.05 if c.rank == 3 else 0.001)
                return t * t

            return dynamic_master_worker(
                ctx, tasks if ctx.rank == ctx.master_rank else None,
                process, chunk_size=1,
            )

        spec = run_program(
            tiny_platform, self._straggler_program(tasks),
            cost_model=cheap_comm,
        )
        dyn = run_program(tiny_platform, dyn_program, cost_model=cheap_comm)
        assert spec.return_values[0] == dyn.return_values[0]

    def test_results_stable_regardless_of_winning_copy(self, tiny_platform):
        """Which requester receives a backup chunk depends on
        ANY_SOURCE arrival races between equally-advanced ranks, so
        timing may vary run to run — but first-result-wins keeps the
        result array byte-identical to the reference every time."""
        from repro.cluster.engine import run_program

        tasks = list(range(12))
        expected = [t * t for t in tasks]
        for _ in range(3):
            result = run_program(
                tiny_platform, self._straggler_program(tasks)
            )
            assert result.return_values[0] == expected

    def test_single_rank_runs_inline(self):
        from repro.scheduling import speculative_master_worker

        def program(ctx):
            return speculative_master_worker(ctx, [1, 2, 3], lambda c, t: -t)

        result = run_inproc(1, program)
        assert result.return_values[0] == [-1, -2, -3]

    def test_chunk_size_validated(self):
        from repro.scheduling import speculative_master_worker

        def program(ctx):
            return speculative_master_worker(
                ctx, [1], lambda c, t: t, chunk_size=0
            )

        with pytest.raises(Exception):
            run_inproc(2, program)
