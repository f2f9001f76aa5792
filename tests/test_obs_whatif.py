"""The causal what-if engine: plan validation, engine-exact replay,
self-validating perturbation equivalences, capacity sweeps, and the
what-if / umbrella CLIs."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.cluster import (
    AcceleratorSpec,
    fully_heterogeneous,
    scale_latency,
    upgrade_ranks,
)
from repro.cluster.perturb import PerturbationHook
from repro.cluster.simtime import TimingCore
from repro.core.runner import run_parallel
from repro.errors import ConfigurationError, WhatIfPlanError
from repro.experiments.config import ExperimentConfig
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, RankCrash, load_fault_plan
from repro.faults.recovery import run_with_recovery
from repro.faults.sweep import enumerate_cells, load_sweep_grid, plan_of_cell
from repro.hsi import SceneConfig, make_wtc_scene
from repro.obs import ObsSession, read_jsonl, write_jsonl
from repro.obs.causal import causal_profile
from repro.obs.provenance import provenance
from repro.obs.whatif import (
    LatencyScale,
    LinkScale,
    OpClassScale,
    RankComputeScale,
    ReplayOp,
    ResizeCluster,
    TierUpgrade,
    WhatIfPlan,
    capacity_sweep,
    load_whatif_plan,
    main,
    predict,
    replay,
    replay_ops_from_trace,
    run_meta_of,
    run_validation,
)

from conftest import make_tiny_platform

#: The self-validation contract: predicted == actual within this.
REL_TOL = 1e-9

_CFG = ExperimentConfig(
    # at least as many bands as the default 18 targets: ATDCA finds no
    # more distinct targets than the scene has spectral dimensions
    scene=SceneConfig(rows=32, cols=8, bands=24, seed=7)
)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


@pytest.fixture(scope="module")
def whatif_scene():
    return make_wtc_scene(_CFG.scene)


@pytest.fixture(scope="module")
def clean_traced(whatif_scene, het_platform):
    """One clean traced sim run shared by the replay tests."""
    obs = ObsSession.create()
    run = run_parallel(
        "atdca", whatif_scene.image, het_platform,
        params=_CFG.params_for("atdca"), obs=obs,
    )
    return run, obs


class TestWhatIfPlan:
    def test_round_trip_all_kinds(self):
        plan = WhatIfPlan(
            (
                RankComputeScale(rank=1, factor=3.0, start_s=0.0, end_s=9.0),
                OpClassScale(op="osp_scores", factor=0.5),
                LinkScale(segment_a="s1", segment_b="s4", factor=2.0),
                LatencyScale(factor=0.25),
                TierUpgrade(ranks=(2, 5), device_cycle_time=0.002),
                ResizeCluster(n_ranks=12),
            ),
            name="everything",
        )
        again = WhatIfPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert again == plan

    def test_load_defaults_name_to_stem(self, tmp_path):
        path = tmp_path / "double-net.json"
        WhatIfPlan((LinkScale("s1", "s2", 0.5),)).write_json(path)
        assert load_whatif_plan(path).name == "double-net"

    @pytest.mark.parametrize(
        "bad",
        [
            {"perturbations": [{"kind": "nope"}]},
            {"perturbations": [{"kind": "rank_compute_scale"}]},
            {"perturbations": [
                {"kind": "latency_scale", "factor": 1.0, "oops": 2},
            ]},
            {"nope": []},
        ],
    )
    def test_malformed_documents_raise(self, bad):
        with pytest.raises(WhatIfPlanError):
            WhatIfPlan.from_dict(bad)

    @pytest.mark.parametrize(
        "pert",
        [
            lambda: RankComputeScale(rank=-1, factor=2.0),
            lambda: RankComputeScale(rank=0, factor=0.0),
            lambda: RankComputeScale(rank=0, factor=2.0, start_s=5.0,
                                     end_s=1.0),
            lambda: OpClassScale(op="", factor=2.0),
            lambda: LinkScale(segment_a="", segment_b="s1", factor=2.0),
            lambda: LinkScale(segment_a="s1", segment_b="s2", factor=-1.0),
            lambda: LatencyScale(factor=-0.5),
            lambda: TierUpgrade(ranks=(), device_cycle_time=0.01),
            lambda: TierUpgrade(ranks=(0,), device_cycle_time=0.0),
            lambda: ResizeCluster(n_ranks=0),
        ],
    )
    def test_invalid_perturbations_raise(self, pert):
        with pytest.raises(WhatIfPlanError):
            WhatIfPlan((pert(),))

    #: sha256 of ``to_json()`` (for the grid: of its cells' plans,
    #: concatenated): the bytes these plans have serialised to since the
    #: vocabularies were merged, less the ``policy`` blocks they carried
    #: until the resilience policies were deleted.
    PARENT_DIGESTS = {
        "chaos": "14947c0be77bac6d753b5270d21b13e6f5bb2a2802bd4a3df91c3bb076383212",
        "slowdown": "9587e054cc295e6229a252d83c0f2ff8c6ef3be3f83665e9a2cf5e4232ccdd4d",
        "whatif_demo": "e57d556202eaa553fc7d64c3b48c67fa43442a251c31fa401c1793057ebb6243",
        "sweep_smoke": "050faff138bb6aa079ad62da1f83611d47b2ff861a3d953fc65eaa3243943f92",
    }

    def test_committed_plans_serialise_to_the_same_bytes(self):
        grid = load_sweep_grid("benchmarks/plans/sweep_smoke.json")
        texts = {
            "chaos": load_fault_plan("benchmarks/plans/chaos.json").to_json(),
            "slowdown":
                load_fault_plan("benchmarks/plans/slowdown.json").to_json(),
            "whatif_demo":
                load_whatif_plan("benchmarks/plans/whatif_demo.json").to_json(),
            "sweep_smoke": "".join(
                plan.to_json()
                for plan in map(plan_of_cell, enumerate_cells(grid))
                if plan is not None
            ),
        }
        assert sorted(texts) == sorted(
            p.stem for p in Path("benchmarks/plans").glob("*.json")
        )
        assert {
            name: hashlib.sha256(text.encode()).hexdigest()
            for name, text in texts.items()
        } == self.PARENT_DIGESTS

    def test_each_plan_type_keeps_its_own_spelling(self):
        slow = RankComputeScale(rank=1, factor=2.0, end_s=5.0)
        link = LinkScale("s1", "s4", factor=2.0)
        fault_doc = FaultPlan((slow, link)).to_dict()
        whatif_doc = WhatIfPlan((slow, link)).to_dict()
        assert [f["kind"] for f in fault_doc["faults"]] == [
            "rank_slowdown", "link_degrade",
        ]
        assert [p["kind"] for p in whatif_doc["perturbations"]] == [
            "rank_compute_scale", "link_scale",
        ]
        assert FaultPlan.from_dict(fault_doc).faults == (slow, link)
        assert FaultPlan((slow, link)).of_kind("rank_slowdown") == (slow,)
        assert WhatIfPlan((slow, link)).of_kind("link_scale") == (link,)

    def test_fault_plan_answers_its_timing_perturbations(self):
        slow = RankComputeScale(rank=1, factor=2.0)
        link = LinkScale("s1", "s4", factor=2.0)
        kept = FaultPlan((slow, link)).timing_perturbations
        assert kept[0] is slow and kept[1] is link
        crashing = FaultPlan((slow, RankCrash(rank=2, at_op_index=3)))
        assert crashing.timing_perturbations is None
        assert FaultPlan(()).timing_perturbations == ()

    def test_open_ended_fault_window_loads(self):
        plan = FaultPlan.from_dict({"faults": [
            {"kind": "rank_slowdown", "rank": 1, "factor": 3.0},
            {"kind": "link_degrade", "segment_a": "s1", "segment_b": "s4",
             "factor": 2.0, "end_s": None},
        ]})
        assert [f.end_s for f in plan] == [None, None]
        assert "end_s" not in json.dumps(plan.to_dict())

    def test_committed_demo_plan_loads(self):
        plan = load_whatif_plan("benchmarks/plans/whatif_demo.json")
        assert plan.name == "whatif-demo"
        assert len(plan) == 2


class TestReplayExactness:
    """Every perturbation expressible as a fault plan or an edited
    platform table must reproduce an actual engine run (acceptance
    contract: 1e-9 relative, observed exact)."""

    def test_run_meta_recorded(self, clean_traced, het_platform):
        _, obs = clean_traced
        meta = run_meta_of(obs)
        assert meta is not None
        assert meta["algorithm"] == "atdca"
        assert (meta["rows"], meta["cols"]) == (32, 8)
        assert meta["size"] == het_platform.size

    def test_identity_replay_is_bitwise(self, clean_traced, het_platform):
        run, obs = clean_traced
        ops, _ = replay_ops_from_trace(obs)
        result = replay(ops, het_platform)
        assert result.makespan == run.makespan
        assert list(result.finish_times) == run.sim.finish_times
        busy = run.sim.busy_times()
        for rank, seconds in result.rank_compute_s.items():
            assert seconds == pytest.approx(busy[rank], rel=1e-12)

    @staticmethod
    def _engine_and_replay(perts, obs, scene, platform):
        """(engine makespan under ``FaultPlan(perts)``, replay makespan
        under the same ``perts`` objects)."""
        ops, _ = replay_ops_from_trace(obs)
        injector = FaultInjector(FaultPlan(perts, name="p"))
        injector.attach(platform=platform)
        actual = run_parallel(
            "atdca", scene.image, platform,
            params=_CFG.params_for("atdca"), faults=injector,
        )
        return actual.makespan, replay(ops, platform, plan=perts).makespan

    def test_rank_slowdown_matches_fault_injection(
        self, clean_traced, whatif_scene, het_platform
    ):
        run, obs = clean_traced
        slow = RankComputeScale(rank=1, factor=40.0, start_s=0.0, end_s=1e9)
        actual, predicted = self._engine_and_replay(
            (slow,), obs, whatif_scene, het_platform
        )
        assert predicted == actual != run.makespan

    def test_link_degrade_matches_fault_injection(
        self, clean_traced, whatif_scene, het_platform
    ):
        run, obs = clean_traced
        degrade = LinkScale(segment_a="s1", segment_b="s4", factor=3.0,
                            start_s=0.0, end_s=1e9)
        actual, predicted = self._engine_and_replay(
            (degrade,), obs, whatif_scene, het_platform
        )
        assert predicted == actual != run.makespan

    @pytest.mark.parametrize(
        "perts_of",
        [
            # Two windows overlapping on [T/4, T/2): factors multiply.
            lambda T: (
                RankComputeScale(rank=1, factor=30.0, end_s=T / 2),
                RankComputeScale(rank=1, factor=20.0, start_s=T / 4),
            ),
            # A fault window with no end runs to the end of the run.
            lambda T: (RankComputeScale(rank=1, factor=40.0, end_s=None),),
            # A fault may speed a rank up (the master's sequential
            # steps are on this scene's critical path, so it shows).
            lambda T: (RankComputeScale(rank=0, factor=0.25),),
            # A switched segment's internal medium (segment_a == b).
            lambda T: (LinkScale("s1", "s1", factor=6.0),),
        ],
        ids=["overlapping-windows", "open-ended", "factor-below-one",
             "intra-segment-link"],
    )
    def test_one_object_engine_equals_replay(
        self, perts_of, clean_traced, whatif_scene, het_platform
    ):
        """The replay of P equals the engine under P, stated with one
        P, at 0.0 relative error."""
        run, obs = clean_traced
        perts = perts_of(run.makespan)
        actual, predicted = self._engine_and_replay(
            perts, obs, whatif_scene, het_platform
        )
        assert predicted == actual
        assert actual != run.makespan  # the perturbation must matter

    def test_rank_map_reaches_the_hook_after_crash_recovery(
        self, whatif_scene
    ):
        """After a crash the survivors are renumbered densely; a
        slowdown that names original rank 3 must dilate dense rank 2,
        through the recovery driver and through the hook alone."""
        platform = make_tiny_platform()
        slow = RankComputeScale(rank=3, factor=50.0)
        obs = ObsSession.create()
        run = run_with_recovery(
            "atdca", whatif_scene.image, platform, params={"n_targets": 5},
            plan=FaultPlan((RankCrash(rank=1, at_op_index=10), slow)),
            obs=obs,
        )
        assert run.crashed_ranks == (1,)
        survivors = run.attempts[-1].ranks
        assert survivors.index(3) == 2
        seam = run.attempts[-1].clock_start
        dilated = {
            s.rank for s in obs.tracer.spans()
            if s.category in ("compute", "seq") and s.start >= seam
            and s.attrs.get("factor") == 50.0
        }
        assert dilated == {2}

        # The same object, compiled with the attempt's rank map, is the
        # engine's hook on the survivor platform: replaying the clean
        # survivor run under it is exact.
        small = platform.subset(survivors)
        clean_obs = ObsSession.create()
        clean = run_parallel(
            "atdca", whatif_scene.image, small, params={"n_targets": 5},
            obs=clean_obs,
        )
        ops, _ = replay_ops_from_trace(clean_obs)
        injector = FaultInjector(FaultPlan((slow,)))
        injector.attach(platform=small, rank_map=survivors)
        actual = run_parallel(
            "atdca", whatif_scene.image, small, params={"n_targets": 5},
            partition=clean.partition, faults=injector,
        )
        core = TimingCore(small, perturb=PerturbationHook((slow,), survivors))
        core.run(ops)
        assert max(core.finish_times) == actual.makespan != clean.makespan

    def test_worker_removal_matches_subset_run(
        self, clean_traced, whatif_scene, het_platform
    ):
        _, obs = clean_traced
        doc = predict(obs, het_platform, WhatIfPlan((ResizeCluster(14),)))
        small = het_platform.subset(range(14))
        actual = run_parallel(
            "atdca", whatif_scene.image, small,
            params=_CFG.params_for("atdca"),
        )
        assert doc["n_ranks"] == 14
        assert _rel(doc["predicted_makespan_s"], actual.makespan) <= REL_TOL

    def test_tier_upgrade_matches_platform_edit(
        self, clean_traced, whatif_scene, het_platform
    ):
        run, obs = clean_traced
        ops, _ = replay_ops_from_trace(obs)
        # A per-launch overhead dominates this tiny comm-bound scene,
        # so the edit provably changes the makespan (the accelerator
        # "hurts" here — exactly what a what-if should reveal).
        tier = TierUpgrade(
            ranks=(2, 9), device_cycle_time=0.001,
            launch_overhead_s=0.01, hd_transfer_s_per_mflop=2e-4,
        )
        plan = WhatIfPlan((tier,))
        upgraded = plan.apply_platform(het_platform)
        actual = run_parallel(
            "atdca", whatif_scene.image, upgraded,
            params=_CFG.params_for("atdca"), partition=run.partition,
        )
        predicted = replay(ops, upgraded).makespan
        assert _rel(predicted, actual.makespan) <= REL_TOL
        assert predicted != run.makespan  # the upgrade must matter

    def test_latency_scale_matches_edited_network(
        self, clean_traced, whatif_scene, het_platform
    ):
        run, obs = clean_traced
        ops, _ = replay_ops_from_trace(obs)
        slow_net = scale_latency(het_platform, 4.0)
        actual = run_parallel(
            "atdca", whatif_scene.image, slow_net,
            params=_CFG.params_for("atdca"), partition=run.partition,
        )
        plan = WhatIfPlan((LatencyScale(factor=4.0),))
        predicted = replay(ops, het_platform, plan=plan).makespan
        assert _rel(predicted, actual.makespan) <= REL_TOL

    def test_op_class_scale_moves_only_that_class(
        self, clean_traced, het_platform
    ):
        _, obs = clean_traced
        ops, _ = replay_ops_from_trace(obs)
        base = replay(ops, het_platform)
        faster = replay(ops, het_platform, plan=WhatIfPlan((
            OpClassScale(op="osp_scores", factor=0.5),
        )))
        assert faster.op_compute_s["osp_scores"] == pytest.approx(
            base.op_compute_s["osp_scores"] * 0.5
        )
        untouched = set(base.op_compute_s) - {"osp_scores"}
        for label in untouched:
            assert faster.op_compute_s[label] == base.op_compute_s[label]
        assert faster.makespan <= base.makespan

    def test_recorded_fault_factor_replays_the_faulted_run(
        self, whatif_scene, het_platform
    ):
        """A faulted trace carries its dilation; an unperturbed replay
        of that trace reproduces the *faulted* makespan."""
        injector = FaultInjector(FaultPlan(
            faults=(RankComputeScale(rank=3, factor=10.0, start_s=0.0,
                                     end_s=1e9),),
            name="slow",
        ))
        obs = ObsSession.create()
        injector.attach(platform=het_platform, obs=obs)
        run = run_parallel(
            "atdca", whatif_scene.image, het_platform,
            params=_CFG.params_for("atdca"), obs=obs, faults=injector,
        )
        ops, _ = replay_ops_from_trace(obs)
        assert replay(ops, het_platform).makespan == run.makespan


class TestCapacitySweep:
    def test_recorded_size_reproduces_recorded_makespan(
        self, clean_traced, het_platform
    ):
        run, obs = clean_traced
        doc = capacity_sweep(obs, het_platform, sizes=(16,))
        point = doc["points"][0]
        assert point["n_ranks"] == 16
        assert _rel(point["makespan_s"], run.makespan) <= REL_TOL

    def test_empty_sizes_rejected(self, clean_traced, het_platform):
        _, obs = clean_traced
        with pytest.raises(ConfigurationError):
            capacity_sweep(obs, het_platform, sizes=())

    def test_size_below_one_rejected(self, clean_traced, het_platform):
        _, obs = clean_traced
        with pytest.raises(ConfigurationError, match="got 0"):
            capacity_sweep(obs, het_platform, sizes=(0, 4))


class TestPredictDocument:
    def test_schema_and_delta_consistency(self, clean_traced, het_platform):
        _, obs = clean_traced
        plan = WhatIfPlan((RankComputeScale(rank=9, factor=0.5),))
        doc = predict(obs, het_platform, plan)
        assert doc["schema"] == "repro.obs.whatif/1"
        assert doc["delta_s"] == pytest.approx(
            doc["predicted_makespan_s"] - doc["baseline_makespan_s"]
        )
        assert doc["plan"] == plan.to_dict()
        assert set(doc["provenance"]) == {
            "git_sha", "numpy", "platform", "python",
        }

    def test_repeated_predictions_are_byte_identical(
        self, clean_traced, het_platform
    ):
        _, obs = clean_traced
        kw = {"sort_keys": True, "separators": (",", ":")}
        plan = WhatIfPlan((LinkScale("s1", "s4", 2.0),))
        one = json.dumps(predict(obs, het_platform, plan), **kw)
        two = json.dumps(predict(obs, het_platform, plan), **kw)
        assert one == two


class TestValidationGate:
    def test_full_validation_passes(self):
        doc = run_validation(rows=32, cols=8, bands=24, seed=7)
        assert doc["pass"], doc["cases"]
        names = {c["case"] for c in doc["cases"]}
        assert {
            "identity_replay", "rank_slowdown", "rank_slowdown_hot",
            "causal_top_rank", "link_degrade", "worker_removal",
            "tier_upgrade",
        } <= names
        for case in doc["cases"]:
            if "rel_error" in case:
                assert case["rel_error"] <= doc["rel_tolerance"]


class TestAcceleratorTier:
    def test_compute_seconds_formula(self):
        acc = AcceleratorSpec(
            name="gpu", device_cycle_time=0.002,
            launch_overhead_s=1e-3, hd_transfer_s_per_mflop=5e-4,
        )
        assert acc.compute_seconds(0.0) == 0.0
        assert acc.compute_seconds(10.0) == pytest.approx(
            1e-3 + 10.0 * (0.002 + 5e-4)
        )
        with pytest.raises(ConfigurationError):
            acc.compute_seconds(-1.0)

    def test_upgrade_preserves_memory_and_names(self, het_platform):
        acc = AcceleratorSpec(name="gpu", device_cycle_time=0.001)
        upgraded = upgrade_ranks(het_platform, (0, 3), acc)
        for rank in (0, 3):
            proc = upgraded.processor(rank)
            assert proc.memory_mb == het_platform.processor(rank).memory_mb
            assert proc.name.endswith("+gpu")
        assert upgraded.processor(1) == het_platform.processor(1)


class TestProvenance:
    def test_header_is_stable_and_fresh(self):
        a, b = provenance(), provenance()
        assert a == b and a is not b
        assert set(a) == {"git_sha", "numpy", "platform", "python"}


class TestWhatIfCli:
    @pytest.fixture(scope="class")
    def trace_file(self, tmp_path_factory):
        scene = make_wtc_scene(_CFG.scene)
        obs = ObsSession.create()
        run_parallel(
            "atdca", scene.image, fully_heterogeneous(),
            params=_CFG.params_for("atdca"), obs=obs,
        )
        path = tmp_path_factory.mktemp("whatif") / "trace.jsonl"
        write_jsonl(path, obs)
        return path

    def test_predict_command(self, trace_file, tmp_path, capsys):
        out = tmp_path / "predict.json"
        rc = main([
            "predict", str(trace_file), "benchmarks/plans/whatif_demo.json",
            "--json", str(out),
        ])
        assert rc == 0
        assert "predicted" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro.obs.whatif/1"

    def test_causal_command_writes_the_profile(
        self, trace_file, tmp_path, capsys
    ):
        out = tmp_path / "causal.json"
        assert main(["causal", str(trace_file), "--json", str(out)]) == 0
        assert "causal profile" in capsys.readouterr().out
        profile = causal_profile(read_jsonl(trace_file), fully_heterogeneous())
        assert out.read_text().rstrip("\n") == profile.to_json()

    def test_sweep_command(self, trace_file, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        rc = main([
            "sweep", str(trace_file), "--sizes", "8,16", "--json", str(out),
        ])
        assert rc == 0
        assert "capacity sweep" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert [p["n_ranks"] for p in doc["points"]] == [8, 16]

    def test_unknown_platform_is_an_error(self, trace_file, capsys):
        rc = main([
            "causal", str(trace_file), "--platform", "no-such-cluster",
        ])
        assert rc == 2
        assert "unknown platform" in capsys.readouterr().err

    def test_missing_plan_file_is_an_error(self, trace_file, capsys):
        rc = main(["predict", str(trace_file), "no-such-plan.json"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_a_trace_replays_only_on_the_platform_it_recorded(
        self, tmp_path, capsys
    ):
        from repro.cluster.presets import platform_by_name
        from repro.obs.profile import main as profile_main

        obs = ObsSession.create()
        run = run_parallel(
            "atdca", make_wtc_scene(_CFG.scene).image,
            platform_by_name("partially homogeneous"),
            params=_CFG.params_for("atdca"), obs=obs,
        )
        trace = str(write_jsonl(tmp_path / "trace.jsonl", obs))
        plan = tmp_path / "empty.json"
        plan.write_text('{"perturbations": []}', encoding="utf-8")
        # Each command defaults to --platform "fully heterogeneous".
        for cli, argv in (
            (main, ["predict", trace, str(plan)]),
            (main, ["causal", trace]),
            (main, ["sweep", trace, "--sizes", "16"]),
            (profile_main, ["analyze", trace]),
        ):
            assert cli(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "'fully heterogeneous'" in err
            assert "'partially homogeneous'" in err
        out = tmp_path / "predict.json"
        assert main([
            "predict", trace, str(plan), "--platform",
            "partially homogeneous", "--json", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        assert doc["baseline_makespan_s"] == run.makespan
        assert doc["predicted_makespan_s"] == run.makespan


class TestUmbrellaCli:
    def test_listing(self, capsys):
        from repro.__main__ import TOOLS
        from repro.__main__ import main as repro_main

        assert repro_main([]) == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: python -m repro <tool>")
        assert len(TOOLS) == 6
        for tool in TOOLS:
            assert f"  {tool} " in out

    def test_bench_line_names_its_verbs(self, capsys):
        import re

        from repro.__main__ import TOOLS
        from repro.__main__ import main as repro_main

        with pytest.raises(SystemExit):
            repro_main(["bench", "--help"])
        verbs = re.search(r"\{([^}]+)\}", capsys.readouterr().out).group(1)
        description = TOOLS["bench"][1]
        assert sorted(verbs.split(",")) == sorted(
            re.findall(r"[a-z]+", description.partition(":")[2])
        )

    def test_unknown_tool(self, capsys):
        from repro.__main__ import main as repro_main

        assert repro_main(["no-such-tool"]) == 2
        assert "unknown tool" in capsys.readouterr().err

    def test_dispatch_reaches_subtool(self, capsys):
        from repro.__main__ import main as repro_main

        with pytest.raises(SystemExit):
            repro_main(["whatif", "--help"])
        out = capsys.readouterr().out
        assert out.startswith("usage: python -m repro whatif")
        assert "predict" in out


class TestReplayOpExtraction:
    def test_ops_carry_kernel_labels_and_transfers(self, clean_traced):
        _, obs = clean_traced
        ops, meta = replay_ops_from_trace(obs)
        assert meta is not None
        kinds = {op.kind for op in ops}
        assert kinds == {"compute", "transfer"}
        labels = {op.label for op in ops if op.kind == "compute" and op.label}
        assert "osp_scores" in labels
        assert all(op.dst >= 0 for op in ops if op.kind == "transfer")

    def test_empty_trace_rejected(self):
        with pytest.raises(ConfigurationError):
            replay_ops_from_trace([])

    def test_replay_op_is_frozen(self):
        op = ReplayOp(kind="compute", rank=0)
        with pytest.raises(AttributeError):
            op.rank = 1
