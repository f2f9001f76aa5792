"""Fault injection + fault tolerance (``repro.faults``).

Covers the recovery invariants:

* the same fault plan produces byte-identical sim traces across runs;
* ATDCA/UFCLS survive a planned mid-run rank crash with output equal
  to the sequential reference, on both backends, while ``D_all`` /
  ``D_minus`` are re-reported for the post-recovery partition;

plus the supporting pieces: plan serialization/validation, delays
charged to virtual time, slowdown and link-degrade cost scaling,
root-cause attribution of crash cascades, and fault-window labeling in
the trace analysis reports.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cluster.engine import SimulationEngine, run_program
from repro.cluster.presets import fully_heterogeneous
from repro.core.atdca import atdca
from repro.core.ufcls import ufcls
from repro.errors import DeadlockError, FaultPlanError, RankFailedError
from repro.faults import (
    CheckpointStore,
    FaultInjector,
    FaultPlan,
    LinkScale,
    MessageDelay,
    RankCrash,
    RankComputeScale,
    load_fault_plan,
    run_with_recovery,
)
from repro.hsi import SceneConfig, make_wtc_scene
from repro.mpi import Communicator, run_inproc
from repro.obs import ObsSession, analyze_trace, fault_windows, write_jsonl

from conftest import make_tiny_platform


@pytest.fixture(scope="module")
def faults_scene():
    return make_wtc_scene(SceneConfig(rows=32, cols=16, bands=16, seed=7))


def _crash_plan(rank: int = 2, at_op_index: int = 10) -> FaultPlan:
    return FaultPlan(
        (RankCrash(rank=rank, at_op_index=at_op_index),), name="crash"
    )


# -- fault plans --------------------------------------------------------------

class TestFaultPlan:
    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan(
            (
                RankCrash(rank=3, at_op_index=7),
                RankCrash(rank=1, at_virtual_s=0.5),
                RankComputeScale(rank=2, factor=2.5, start_s=0.0, end_s=1.0),
                LinkScale(
                    segment_a="s1", segment_b="s4", factor=3.0,
                    start_s=0.25, end_s=0.75,
                ),
                MessageDelay(delay_s=0.1, src=1, dst=0, tag=7),
                MessageDelay(delay_s=0.2, src=2, dst=0, count=2),
            ),
            name="round-trip",
        )
        path = plan.write_json(tmp_path / "plan.json")
        loaded = load_fault_plan(path)
        assert loaded == plan
        assert json.loads(path.read_text())["name"] == "round-trip"

    def test_load_name_defaults_to_stem(self, tmp_path):
        path = tmp_path / "canned.json"
        path.write_text(json.dumps(
            {"faults": [{"kind": "rank_crash", "rank": 1, "at_op_index": 3}]}
        ))
        assert load_fault_plan(path).name == "canned"

    def test_crash_needs_exactly_one_trigger(self):
        with pytest.raises(FaultPlanError):
            RankCrash(rank=1).validate()
        with pytest.raises(FaultPlanError):
            RankCrash(rank=1, at_virtual_s=1.0, at_op_index=5).validate()

    def test_window_and_factor_validation(self):
        with pytest.raises(FaultPlanError):
            FaultPlan((RankComputeScale(rank=1, factor=0.0, start_s=0, end_s=1),))
        with pytest.raises(FaultPlanError):
            FaultPlan((RankComputeScale(rank=1, factor=2.0, start_s=1, end_s=1),))
        with pytest.raises(FaultPlanError):
            FaultPlan((MessageDelay(delay_s=0.1, src=1, count=0),))

    def test_from_dict_rejects_unknown_kind(self):
        # Any kind outside these four, a dropped-message fault included,
        # is an "unknown kind".
        assert sorted(FaultPlan.KINDS) == [
            "link_degrade", "message_delay", "rank_crash", "rank_slowdown",
        ]
        with pytest.raises(FaultPlanError, match="unknown kind"):
            FaultPlan.from_dict({"faults": [{"kind": "meteor_strike"}]})

    def test_unknown_top_level_keys_are_ignored(self, tmp_path):
        # A plan written when plans carried a "policy" block still loads,
        # as the plan it always described.
        path = tmp_path / "old.json"
        path.write_text(json.dumps({
            "faults": [{"kind": "rank_crash", "rank": 1, "at_op_index": 3}],
            "policy": {"retry": {"max_attempts": 4}},
        }))
        assert load_fault_plan(path) == FaultPlan(
            (RankCrash(rank=1, at_op_index=3),), name="old"
        )

    def test_check_platform_rejects_master_and_out_of_range(self):
        FaultPlan((RankCrash(rank=3, at_op_index=1),)).check_platform(4)
        with pytest.raises(FaultPlanError):
            FaultPlan((RankCrash(rank=0, at_op_index=1),)).check_platform(4)
        with pytest.raises(FaultPlanError):
            FaultPlan((RankCrash(rank=9, at_op_index=1),)).check_platform(4)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(FaultPlanError):
            load_fault_plan(tmp_path / "absent.json")


# -- one hook sequence on both backends ---------------------------------------

class _RecordingInjector:
    """Duck-typed stand-in for ``FaultInjector``: the names the rank
    runtime reads — ``before_op``, ``on_send`` and ``perturb``, here a
    constant-factor timing hook of its own — recording ``(op, now)``
    per rank."""

    def __init__(self, factor):
        self.factor = factor
        self.ops = {}
        self.perturb = self

    def before_op(self, rank, op, now):
        # One list per rank, appended to by that rank's thread only.
        self.ops.setdefault(rank, []).append((op, now))

    def on_send(self, rank, dest, tag, now):
        return 0.0

    def compute_factor(self, rank, label, start):
        return self.factor

    def transfer_factors(self, src, dst, pair, start):
        return 1.0, 1.0


class TestHookParity:
    WORK = (30.0, 50.0, 70.0)

    @classmethod
    def _program(cls, ctx):
        comm = Communicator(ctx)
        scale = comm.scatter(
            [r + 1.0 for r in range(ctx.size)] if comm.is_master else None
        )
        for mflops in cls.WORK:
            ctx.compute(scale * mflops)
        return comm.gather(scale)

    def test_same_op_sequence_and_nominal_clock(self, tiny_platform):
        sim, inproc = _RecordingInjector(1.5), _RecordingInjector(1.5)
        run_program(tiny_platform, self._program, faults=sim)
        run_inproc(
            tiny_platform.size, self._program, faults=inproc,
            platform=tiny_platform,
        )
        assert sorted(sim.ops) == sorted(inproc.ops) == [0, 1, 2, 3]
        for rank in range(tiny_platform.size):
            kinds = [op for op, _ in inproc.ops[rank]]
            assert kinds == [op for op, _ in sim.ops[rank]]
            assert kinds.count("compute") == len(self.WORK)
            # No transfer is ever charged on the wall backend's nominal
            # clock: it is the running sum of the dilated compute costs.
            processor = tiny_platform.processor(rank)
            expected, total = [], 0.0
            for mflops in self.WORK:
                expected.append(total)
                total += processor.compute_seconds((rank + 1.0) * mflops) * 1.5
            assert [
                now for op, now in inproc.ops[rank] if op == "compute"
            ] == expected
            assert inproc.ops[rank][-1][1] == total


# -- trace determinism --------------------------------------------------------

class TestTraceDeterminism:
    def test_same_plan_yields_byte_identical_sim_traces(
        self, faults_scene, tiny_platform, tmp_path
    ):
        paths = []
        finishes = []
        for i in range(2):
            obs = ObsSession.create()
            run = run_with_recovery(
                "atdca", faults_scene.image, tiny_platform,
                params={"n_targets": 5}, plan=_crash_plan(), obs=obs,
                repartition_overhead_s=0.05,
            )
            assert run.crashed_ranks == (2,)
            path = tmp_path / f"run{i}.jsonl"
            write_jsonl(path, obs)
            paths.append(path)
            finishes.append(tuple(run.sim.finish_times))
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert finishes[0] == finishes[1]


# -- crash + recovery ---------------------------------------------------------

class TestCrashRecovery:
    @pytest.mark.parametrize("algorithm,reference", [
        ("atdca", atdca), ("ufcls", ufcls),
    ])
    def test_sim_crash_recovery_equals_sequential(
        self, faults_scene, tiny_platform, algorithm, reference
    ):
        n_targets = 5
        run = run_with_recovery(
            algorithm, faults_scene.image, tiny_platform,
            params={"n_targets": n_targets}, plan=_crash_plan(),
        )
        assert run.recovered
        assert run.crashed_ranks == (2,)
        assert len(run.attempts) == 2
        assert run.attempts[0].crashed_rank == 2
        assert run.attempts[1].ranks == (0, 1, 3)
        # The second attempt resumed mid-algorithm from a checkpoint.
        assert run.attempts[1].resumed_step > 0
        # D_all / D_minus re-reported for the post-recovery partition.
        assert run.imbalance is not None
        assert run.imbalance.d_all >= run.imbalance.d_minus >= 1.0
        assert run.platform.size == 3
        assert len(run.partition.counts) == 3

        ref = reference(faults_scene.image, n_targets)
        np.testing.assert_array_equal(run.output.flat_indices, ref.flat_indices)
        np.testing.assert_array_equal(run.output.signatures, ref.signatures)

    def test_inproc_crash_recovery_matches_sim(
        self, faults_scene, tiny_platform
    ):
        n_targets = 5
        runs = {
            backend: run_with_recovery(
                "ufcls", faults_scene.image, tiny_platform,
                params={"n_targets": n_targets}, plan=_crash_plan(),
                backend=backend,
            )
            for backend in ("sim", "inproc")
        }
        # Op-indexed crashes fire at the same operation on both clocks.
        assert runs["sim"].crashed_ranks == runs["inproc"].crashed_ranks == (2,)
        assert [a.resumed_step for a in runs["sim"].attempts] == \
               [a.resumed_step for a in runs["inproc"].attempts]
        ref = ufcls(faults_scene.image, n_targets)
        for run in runs.values():
            np.testing.assert_array_equal(
                run.output.flat_indices, ref.flat_indices
            )

    def test_virtual_time_crash_trigger(self, faults_scene, tiny_platform):
        plan = FaultPlan(
            (RankCrash(rank=1, at_virtual_s=0.005),), name="timed"
        )
        run = run_with_recovery(
            "atdca", faults_scene.image, tiny_platform,
            params={"n_targets": 4}, plan=plan,
        )
        assert run.crashed_ranks == (1,)
        ref = atdca(faults_scene.image, 4)
        np.testing.assert_array_equal(run.output.flat_indices, ref.flat_indices)

    def test_recovery_clock_resumes_past_failure(
        self, faults_scene, tiny_platform
    ):
        run = run_with_recovery(
            "atdca", faults_scene.image, tiny_platform,
            params={"n_targets": 5}, plan=_crash_plan(),
            repartition_overhead_s=0.25,
        )
        assert run.attempts[1].clock_start >= 0.25
        # The final timeline continues after the repartition seam.
        assert run.makespan > run.attempts[1].clock_start

    def test_max_recoveries_bounds_losses(self, faults_scene, tiny_platform):
        with pytest.raises(RankFailedError) as info:
            run_with_recovery(
                "atdca", faults_scene.image, tiny_platform,
                params={"n_targets": 5}, plan=_crash_plan(),
                max_recoveries=0,
            )
        assert info.value.injected

    def test_fault_free_plan_runs_identically(
        self, faults_scene, tiny_platform
    ):
        run = run_with_recovery(
            "atdca", faults_scene.image, tiny_platform,
            params={"n_targets": 5},
        )
        assert not run.recovered
        assert len(run.attempts) == 1
        ref = atdca(faults_scene.image, 5)
        np.testing.assert_array_equal(run.output.flat_indices, ref.flat_indices)


# -- root-cause attribution ---------------------------------------------------

class TestRootCauseAttribution:
    def _run_plain(self, faults_scene, platform, backend="sim"):
        from repro.core.runner import run_parallel

        injector = FaultInjector(_crash_plan()).attach(platform=platform)
        return run_parallel(
            "atdca", faults_scene.image, platform,
            params={"n_targets": 5}, backend=backend, faults=injector,
        )

    @pytest.mark.parametrize("backend", ["sim", "inproc"])
    def test_injected_crash_wins_failure_sort(
        self, faults_scene, tiny_platform, backend
    ):
        with pytest.raises(RankFailedError) as info:
            self._run_plain(faults_scene, tiny_platform, backend)
        exc = info.value
        assert exc.injected and not exc.secondary
        assert exc.rank == 2
        # Secondary fallout is chained as context, not lost.
        chain = []
        ctx = exc.__context__
        while ctx is not None:
            chain.append(ctx)
            ctx = ctx.__context__
        assert any(
            isinstance(c, (RankFailedError, DeadlockError)) for c in chain
        )
        assert all(
            getattr(c, "secondary", True) or isinstance(c, DeadlockError)
            for c in chain
        )

    def test_peers_learn_of_each_crash_by_rank_failed_error(
        self, tiny_platform
    ):
        """Two planned crashes, one after the other: no timer is
        involved, the master's receive from each dead rank ends in the
        secondary ``RankFailedError`` that ``Router.fail`` hands it."""
        plan = FaultPlan(
            (
                RankCrash(rank=2, at_op_index=1),
                RankCrash(rank=3, at_op_index=1),
            ),
            name="double-crash",
        )
        injector = FaultInjector(plan).attach(platform=tiny_platform)
        seen = []

        def program(ctx):
            if ctx.rank in (2, 3):
                ctx.send(0, f"from-{ctx.rank}", tag=9)  # crashes here
                return "survived?"
            if ctx.rank == 1:
                ctx.send(0, "ok", tag=5)
                return None
            assert ctx.recv(1, tag=5) == "ok"
            for doomed in (2, 3):
                with pytest.raises(RankFailedError) as info:
                    ctx.recv(doomed, tag=9)
                seen.append((info.value.rank, info.value.secondary))
            return None

        with pytest.raises(RankFailedError) as info:
            run_program(tiny_platform, program, faults=injector)
        assert info.value.injected
        assert seen == [(2, True), (3, True)]


# -- transient faults ---------------------------------------------------------

class TestTransientFaults:
    def test_message_delay_charges_virtual_time(self, tiny_platform):
        def program(ctx):
            if ctx.rank == 0:
                ctx.send(1, "x", tag=2)
                return ctx.clock.now
            if ctx.rank == 1:
                ctx.recv(0, tag=2)
                return ctx.clock.now
            return None

        base = run_program(tiny_platform, program)
        plan = FaultPlan(
            (MessageDelay(delay_s=0.5, src=0, dst=1),), name="lag"
        )
        injector = FaultInjector(plan).attach(platform=tiny_platform)
        delayed = run_program(tiny_platform, program, faults=injector)
        assert delayed.return_values[1] >= base.return_values[1] + 0.5

    def test_slowdown_stretches_makespan(self, faults_scene, tiny_platform):
        base = run_with_recovery(
            "atdca", faults_scene.image, tiny_platform,
            params={"n_targets": 5},
        )
        plan = FaultPlan(
            (RankComputeScale(rank=1, factor=4.0, start_s=0.0, end_s=1e9),),
            name="molasses",
        )
        slowed = run_with_recovery(
            "atdca", faults_scene.image, tiny_platform,
            params={"n_targets": 5}, plan=plan,
        )
        assert slowed.makespan > base.makespan
        # Degradation changes timing only, never results.
        np.testing.assert_array_equal(
            slowed.output.flat_indices, base.output.flat_indices
        )

    def test_link_degrade_scales_capacity_only(self):
        platform = fully_heterogeneous()
        plan = FaultPlan(
            (LinkScale(segment_a="s1", segment_b="s4", factor=2.0,
                         start_s=0.0, end_s=1.0),),
            name="degraded-link",
        )
        hook = FaultInjector(plan).attach(platform=platform).perturb
        # Ranks 0 (s1) and 15 (s4) straddle the degraded pair; the
        # timing core hands the hook the sorted segment pair.
        assert hook.transfer_factors(0, 15, ("s1", "s4"), 0.5) == (2.0, 1.0)
        assert hook.transfer_factors(15, 0, ("s1", "s4"), 0.5) == (2.0, 1.0)
        assert hook.transfer_factors(0, 15, ("s1", "s4"), 1.5) == (1.0, 1.0)
        assert hook.transfer_factors(0, 1, ("s1", "s1"), 0.5) == (1.0, 1.0)


# -- checkpoint store ---------------------------------------------------------

class TestCheckpointStore:
    def test_keeps_highest_step_with_value_semantics(self):
        store = CheckpointStore()
        assert store.load() is None
        u = np.arange(6, dtype=float).reshape(2, 3)
        store.save(2, {"u": u})
        store.save(1, {"u": np.zeros((2, 3))})  # stale, ignored
        u[0, 0] = 99.0  # caller mutation must not leak in
        step, state = store.load()
        assert step == 2
        assert state["u"][0, 0] == 0.0
        state["u"][0, 1] = 77.0  # loaded copy must not leak back
        assert store.load()[1]["u"][0, 1] == 1.0


# -- analysis labeling --------------------------------------------------------

class TestAnalyzeFaultLabels:
    def test_fault_run_labels_degraded_intervals(
        self, faults_scene, tiny_platform
    ):
        plan = FaultPlan(
            (
                RankCrash(rank=2, at_op_index=10),
                RankComputeScale(rank=1, factor=2.0, start_s=0.0, end_s=1.0),
            ),
            name="labeled",
        )
        obs = ObsSession.create()
        run_with_recovery(
            "atdca", faults_scene.image, tiny_platform,
            params={"n_targets": 5}, plan=plan, obs=obs,
            repartition_overhead_s=0.05,
        )
        windows = fault_windows(obs)
        kinds = {w.kind for w in windows}
        assert {"slowdown", "crash", "repartition"} <= kinds
        doc = analyze_trace(obs).to_dict()
        assert doc["schema"] == "repro.obs.analyze/1"
        cp = doc["critical_path"]
        assert cp["fault_windows"]
        assert cp["degraded_s"] > 0
        assert any(step.get("degraded") for step in cp["steps"])
        bt = doc["blocked_time"]
        assert bt["fault_windows"] == cp["fault_windows"]
        assert bt["total_degraded_blocked_s"] >= 0

    def test_fault_free_trace_has_no_fault_keys(
        self, faults_scene, tiny_platform
    ):
        obs = ObsSession.create()
        run_with_recovery(
            "atdca", faults_scene.image, tiny_platform,
            params={"n_targets": 4}, obs=obs,
        )
        assert fault_windows(obs) == ()
        doc = analyze_trace(obs).to_dict()
        cp, bt = doc["critical_path"], doc["blocked_time"]
        assert "fault_windows" not in cp and "degraded_s" not in cp
        assert "fault_windows" not in bt
        assert all("degraded" not in s for s in cp["steps"])
        assert all("degraded_blocked_s" not in r for r in bt["ranks"])


# -- obs counters -------------------------------------------------------------

class TestFaultMetrics:
    def test_injection_and_recovery_counters(self, faults_scene, tiny_platform):
        obs = ObsSession.create()
        run_with_recovery(
            "atdca", faults_scene.image, tiny_platform,
            params={"n_targets": 5}, plan=_crash_plan(), obs=obs,
            repartition_overhead_s=0.1,
        )
        from repro.obs.metrics import sum_counters

        records = obs.metrics.records()
        assert sum_counters(records, "fault.injected") == 1.0
        assert sum_counters(records, "fault.detected") == 1.0
        assert sum_counters(records, "recovery.attempts") == 1.0
        assert sum_counters(records, "recovery.repartition_s") == \
            pytest.approx(0.1)
