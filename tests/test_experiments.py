"""Tests for the experiment drivers and the analytic performance model.

The shape assertions here use reduced workloads (few targets/classes,
small sub-grids); the full paper-scale sweeps live in benchmarks/.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import op_schedule
from repro.cluster import fully_heterogeneous, fully_homogeneous, thunderhead
from repro.cluster.costs import DEFAULT_COST_MODEL
from repro.cluster.presets import all_networks
from repro.core import run_parallel
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.figure1 import run_figure1
from repro.experiments.figure2 import run_figure2
from repro.experiments.grid import run_network_grid, variant_label
from repro.experiments.model import emit_op_program, model_run
from repro.experiments.table3 import run_table3
from repro.experiments.table4 import run_table4
from repro.experiments.table5 import run_table5
from repro.experiments.table6 import run_table6
from repro.experiments.table7 import run_table7
from repro.experiments.table8 import run_table8
from repro.hsi import SceneConfig
from repro.scheduling import RowPartition

from conftest import op_schedule


@pytest.fixture(scope="module")
def fast_config():
    """Reduced workloads so driver tests stay quick."""
    return ExperimentConfig(
        scene=SceneConfig(rows=64, cols=32, bands=32, seed=7),
        grid_scene=SceneConfig(rows=256, cols=8, bands=32, seed=7),
        n_targets=6,
        n_classes=10,
        iterations=2,
        thunderhead_cpus=(1, 4, 16, 64),
    )


class TestConfig:
    def test_scales(self):
        cfg = ExperimentConfig()
        assert cfg.compute_scale(cfg.scene) == pytest.approx(
            (2133 * 512 * 224) / (96 * 64 * 48)
        )
        assert cfg.comm_scale(cfg.scene) < cfg.compute_scale(cfg.scene)

    def test_params_for(self):
        cfg = ExperimentConfig()
        assert cfg.params_for("atdca") == {"n_targets": 18}
        assert cfg.params_for("morph")["iterations"] == 5

    def test_invalid_rejected(self):
        with pytest.raises(Exception):
            ExperimentConfig(n_targets=0)


class TestModelValidation:
    """The analytic model must agree with the engine."""

    @pytest.mark.parametrize("algorithm", ["atdca", "ufcls"])
    def test_detectors_exact(self, small_scene, algorithm):
        # The model's op program has the engine's op log's schedule:
        # each rank's op subsequence, kernel labels included, and each
        # serial link's transfer order.  Only the global interleaving
        # differs, which the timing core's clocks do not depend on, so
        # times and ledgers are equal to the bit.  (Looped, not
        # parametrised, to keep the test ids.)
        image = small_scene.image
        params = {"n_targets": 5}
        cases = [
            (plat, variant, None)
            for plat in all_networks().values()
            for variant in ("hetero", "dlt", "homo")
        ]
        # A partition WEA never emits: seven ranks own no rows.
        zero_share = RowPartition([image.rows - 8] + [0] * 7 + [1] * 8)
        cases.append((fully_heterogeneous(), "hetero", zero_share))
        for plat, variant, partition in cases:
            run = run_parallel(
                algorithm, image, plat, params=params, variant=variant,
                partition=partition,
            )
            ops = emit_op_program(
                algorithm, plat, run.partition,
                image.rows, image.cols, image.bands, params,
            )
            case = f"{plat.name}/{variant}/{run.partition.counts.tolist()}"
            assert op_schedule(ops, plat.network) == op_schedule(
                run.sim.ops, plat.network
            ), case
            assert all(op.label for op in ops if op.kind == "compute"), case
            predicted = model_run(
                algorithm, plat, run.partition,
                image.rows, image.cols, image.bands, params,
            )
            assert predicted.total == run.makespan, case
            assert (
                predicted.breakdown.com
                == run.sim.master_breakdown()["com"]
            ), case
            assert (
                predicted.finish_times.tolist() == run.sim.finish_times
            ), case
            assert (
                predicted.busy_times.tolist() == run.sim.busy_times()
            ), case

    @pytest.mark.parametrize("algorithm", ["pct", "morph"])
    def test_classifiers_within_tolerance(self, small_scene, algorithm):
        plat = fully_heterogeneous()
        params = {"n_classes": 10}
        run = run_parallel(algorithm, small_scene.image, plat, params=params)
        predicted = model_run(
            algorithm, plat, run.partition,
            small_scene.image.rows, small_scene.image.cols,
            small_scene.image.bands, params,
        )
        assert predicted.total == pytest.approx(run.makespan, rel=0.08)

    def test_model_single_rank(self):
        from repro.scheduling.static_part import RowPartition

        plat = thunderhead(1)
        part = RowPartition(np.array([100]))
        result = model_run("atdca", plat, part, 100, 64, 32, {"n_targets": 4})
        assert result.total > 0
        assert result.breakdown.com == 0.0  # nothing to ship


class TestAccuracyDrivers:
    def test_table3(self, fast_config, default_scene):
        cfg = ExperimentConfig()  # default scene params, full t=18
        result = run_table3(cfg, scene=default_scene)
        assert result.detected_all("ATDCA", tolerance=0.02)
        assert "F" in result.missed("UFCLS", tolerance=0.02)
        text = result.to_text()
        assert "Table 3" in text and "'G'" in text

    def test_table4(self, default_scene):
        cfg = ExperimentConfig()
        result = run_table4(cfg, scene=default_scene)
        assert result.overall("MORPH") > result.overall("PCT")
        assert result.overall("MORPH") > 90.0
        assert "Overall" in result.to_text()


class TestGridDrivers:
    @pytest.fixture(scope="class")
    def mini_grid(self, fast_config):
        # Single fast algorithm over all three variants, all four networks.
        return run_network_grid(
            fast_config, algorithms=("pct",),
            variants=("hetero", "dlt", "homo"),
        )

    def test_variant_label(self):
        assert variant_label("atdca", "hetero") == "Hetero-ATDCA"
        assert variant_label("ufcls", "dlt") == "DLT-UFCLS"
        assert variant_label("morph", "homo") == "Homo-MORPH"
        with pytest.raises(ConfigurationError):
            variant_label("atdca", "speed")

    def test_table5_shape(self, fast_config, mini_grid):
        result = run_table5(fast_config, grid=mini_grid)
        het = result.times["Hetero-PCT"]
        homo = result.times["Homo-PCT"]
        # Homo collapses on processor-heterogeneous networks ...  (the
        # reduced test workload shrinks the compute share, so the
        # threshold is looser than the full-scale ~3.5x)
        assert homo["fully heterogeneous"] > 1.8 * het["fully heterogeneous"]
        assert homo["partially heterogeneous"] > 1.8 * het["partially heterogeneous"]
        # ... and matches on processor-homogeneous ones.
        assert homo["fully homogeneous"] == pytest.approx(
            het["fully homogeneous"], rel=0.05
        )
        assert mini_grid.row_labels == ["Hetero-PCT", "DLT-PCT", "Homo-PCT"]
        assert "Table 5" in result.to_text()

    def test_table6_totals_consistent(self, fast_config, mini_grid):
        t5 = run_table5(fast_config, grid=mini_grid)
        t6 = run_table6(fast_config, grid=mini_grid)
        for label in mini_grid.row_labels:
            for network in mini_grid.network_names:
                assert t6.breakdowns[label][network].total == pytest.approx(
                    t5.times[label][network], rel=1e-9
                )

    def test_table7_hetero_workers_balanced(self, fast_config, mini_grid):
        t7 = run_table7(fast_config, grid=mini_grid)
        scores = t7.scores["Hetero-PCT"]["fully heterogeneous"]
        assert scores.d_minus < 1.15
        homo = t7.scores["Homo-PCT"]["fully heterogeneous"]
        assert homo.d_all > 5.0  # equal shares on a 17x speed spread


class TestThunderheadDrivers:
    @pytest.fixture(scope="class")
    def table8(self, fast_config):
        return run_table8(fast_config)

    def test_times_decrease_with_cpus(self, table8):
        for alg in ("ATDCA", "UFCLS", "PCT", "MORPH"):
            times = [table8.times[alg][p] for p in table8.cpus]
            assert all(a > b for a, b in zip(times, times[1:]))

    def test_single_cpu_ordering(self, table8):
        # Paper: MORPH slowest, then PCT, ATDCA, UFCLS fastest.
        t = {alg: table8.times[alg][1] for alg in table8.times}
        assert t["MORPH"] > t["ATDCA"] > t["UFCLS"]

    def test_figure2_speedups(self, table8, fast_config):
        fig = run_figure2(fast_config, table8=table8)
        for alg, series in fig.speedups.items():
            assert series[0] == pytest.approx(1.0)
            assert series[-1] > 1.0
        assert "Figure 2" in fig.to_text()

    def test_pct_scales_worst(self, fast_config):
        cfg = ExperimentConfig(
            scene=fast_config.scene,
            thunderhead_cpus=(1, 16, 100, 256),
        )
        fig = run_figure2(cfg)
        assert fig.scaling_order()[-1] == "PCT"
        assert fig.scaling_order()[0] == "MORPH"


class TestFigure1:
    def test_writes_panels(self, fast_config, tmp_path, small_scene):
        result = run_figure1(fast_config, scene=small_scene, output_dir=tmp_path)
        assert result.composite_path.exists()
        assert result.thermal_map_path.exists()
        assert result.class_map_path.exists()
        assert result.composite_path.read_bytes().startswith(b"P6")
        assert "hot spots" in result.to_text()


class TestWhatIfCli:
    def test_bare_whatif_experiment_runs(self, tmp_path):
        # No --trace: the experiment makes its own demo run, the path
        # that crashed unpacking a positional tuple of the wrong arity.
        from repro.experiments.runner import main

        assert main([
            "whatif", "--rows", "48", "--cols", "16", "--bands", "24",
            "--outdir", str(tmp_path),
        ]) == 0
        assert (tmp_path / "whatif_causal.json").exists()
        assert (tmp_path / "whatif_sweep.json").exists()


class TestGridReprice:
    """A grid obtains each distinct (algorithm, master, partition)
    program once — a classifier's executed, a detector's priced by the
    model — and every other cell is that program's op log re-priced on
    its own network; every cell must equal running it there."""

    VARIANTS = ("hetero", "dlt", "homo")

    @staticmethod
    def _run_counted(*args, **kwargs):
        """``run_network_grid(...)`` → (grid, platform of each engine run)."""
        import repro.core.runner as runner

        executed = []
        real = runner.run_program

        def counting(platform, *program_args, **program_kwargs):
            executed.append(platform.name)
            return real(platform, *program_args, **program_kwargs)

        patch = pytest.MonkeyPatch()
        patch.setattr(runner, "run_program", counting)
        try:
            return run_network_grid(*args, **kwargs), executed
        finally:
            patch.undo()

    @pytest.fixture(scope="class")
    def counted(self, fast_config):
        return self._run_counted(fast_config, variants=self.VARIANTS)

    def test_every_cell_equals_a_run_on_its_own_network(
        self, fast_config, counted
    ):
        import pickle
        from collections import Counter

        from repro.core.parallel_detect import DETECTORS

        grid, _ = counted
        cost = fast_config.cost_model(fast_config.grid_scene)
        networks = all_networks()
        assert len(grid.cells) == 4 * len(self.VARIANTS) * 4
        for (label, network), cell in grid.cells.items():
            run = cell.run
            direct = run_parallel(
                run.algorithm, grid.scene.image, networks[network],
                params=fast_config.params_for(run.algorithm),
                variant=run.variant, cost_model=cost,
            )
            case = f"{label} on {network}"
            assert variant_label(run.algorithm, run.variant) == label, case
            assert run.variant == direct.variant, case
            assert run.sim.platform_name == network, case
            assert (
                run.partition.counts.tolist()
                == direct.partition.counts.tolist()
            ), case
            assert run.sim.finish_times == direct.sim.finish_times, case
            assert [ledger.as_dict() for ledger in run.sim.ledgers] == [
                ledger.as_dict() for ledger in direct.sim.ledgers
            ], case
            if run.algorithm not in DETECTORS:
                assert run.sim.ops == direct.sim.ops, case
                assert pickle.dumps(run.sim.return_values) == pickle.dumps(
                    direct.sim.return_values
                ), case
                continue
            # A priced detector cell: the model's program, with the
            # engine's schedule, and the sequential detector's targets.
            network_of = networks[network].network
            assert op_schedule(run.sim.ops, network_of) == op_schedule(
                direct.sim.ops, network_of
            ), case
            assert Counter(run.sim.ops) == Counter(direct.sim.ops), case
            master = run.sim.master_rank
            assert all(
                value is None
                for rank, value in enumerate(run.sim.return_values)
                if rank != master
            ), case
            assert run.sim.return_values[master] is run.output, case
            assert np.array_equal(
                run.output.flat_indices, direct.output.flat_indices
            ), case
            assert np.array_equal(
                run.output.signatures, direct.output.signatures
            ), case
            assert np.array_equal(
                run.output.positions, direct.output.positions
            ), case

    def test_engine_runs_once_per_distinct_program(self, fast_config, counted):
        from repro.core.parallel_detect import DETECTORS
        from repro.core.runner import make_row_partition

        grid, executed = counted
        cost = fast_config.cost_model(fast_config.grid_scene)
        keys = set()
        for (label, network), cell in grid.cells.items():
            platform = all_networks()[network]
            partition = make_row_partition(
                platform, grid.scene.image, cell.run.algorithm,
                fast_config.params_for(cell.run.algorithm),
                cell.run.variant, cost,
            )
            keys.add((
                cell.run.algorithm, platform.master_rank,
                tuple(partition.counts.tolist()),
            ))
        # Two processor sets and the DLT shares of four networks: six
        # partitions per algorithm on this scene, not twelve cells.
        assert len(keys) == 6 * 4
        # Only the classifiers' programs run; the detectors' are priced.
        run_keys = {key for key in keys if key[0] not in DETECTORS}
        assert len(run_keys) == 6 * 2
        assert len(executed) == len(run_keys)
        assert grid.programs == len(run_keys)

    def test_observed_cells_are_all_executed(self, fast_config, tmp_path):
        grid, executed = self._run_counted(
            fast_config, algorithms=("atdca",), trace_dir=tmp_path,
        )
        assert len(executed) == grid.programs == len(grid.cells) == 8
        assert len(list(tmp_path.glob("*.trace.json"))) == 8

    def test_reprice_refuses_traced_runs_and_other_shapes(self, small_scene):
        from repro.cluster.engine import reprice
        from repro.errors import PlatformError
        from repro.obs import ObsSession

        params = {"n_targets": 4}
        traced = run_parallel(
            "atdca", small_scene.image, fully_heterogeneous(),
            params=params, obs=ObsSession.create(),
        )
        with pytest.raises(ConfigurationError, match="traced"):
            reprice(traced.sim, fully_homogeneous())
        plain = run_parallel(
            "atdca", small_scene.image, fully_heterogeneous(), params=params,
        )
        with pytest.raises(PlatformError, match="4 ranks"):
            reprice(plain.sim, thunderhead(4))
        repriced = reprice(plain.sim, fully_homogeneous())
        assert repriced.platform_name == fully_homogeneous().name
        # One log, held by both results, not a copy per cell.
        assert repriced.ops is plain.sim.ops
        assert repriced.return_values is plain.sim.return_values


class TestPricedDetectorProperty:
    """For any platform and WEA partition, zero-share ranks included,
    the model's detector program has the engine's schedule, and a
    priced grid cell equals the executed one."""

    @settings(max_examples=25, deadline=None)
    @given(
        cycle_times=st.lists(
            st.floats(min_value=0.001, max_value=0.1), min_size=3, max_size=7,
        ),
        inner=st.integers(min_value=1, max_value=6),
        rows=st.integers(min_value=3, max_value=24),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @example(cycle_times=[0.001, 0.1, 0.1, 0.1, 0.002], inner=3, rows=4,
             seed=0)
    def test_engine_and_model_agree(self, cycle_times, inner, rows, seed):
        from collections import Counter

        from repro.cluster import (
            HeterogeneousPlatform,
            ProcessorSpec,
            segmented_network,
        )
        from repro.core.parallel_detect import DETECTORS
        from repro.experiments.grid import _priced_run
        from repro.hsi.cube import HyperspectralImage
        from repro.scheduling.static_part import wea_partition

        n = len(cycle_times)
        inner = min(inner, n - 1)
        platform = HeterogeneousPlatform(
            "generated",
            [ProcessorSpec(f"g{i}", w, memory_mb=4096, cache_kb=512)
             for i, w in enumerate(cycle_times)],
            # Two segments joined by one serial link.
            segmented_network(
                {"a": inner, "b": n - inner},
                {("a", "a"): 5.0, ("b", "b"): 8.0, ("a", "b"): 30.0},
            ),
        )
        image = HyperspectralImage(
            np.random.default_rng(seed).random((rows, 3, 6))
        )
        partition = wea_partition(platform, rows, 3, 6, min_rows=0)
        params = {"n_targets": 3}
        for algorithm, spec in DETECTORS.items():
            run = run_parallel(
                algorithm, image, platform, params=params,
                partition=partition,
            )
            ops = emit_op_program(
                algorithm, platform, partition, rows, 3, 6, params
            )
            assert op_schedule(ops, platform.network) == op_schedule(
                run.sim.ops, platform.network
            )
            priced = _priced_run(
                algorithm, "hetero", spec.sequential(image, 3), platform,
                partition, image, params, DEFAULT_COST_MODEL,
            )
            assert priced.sim.finish_times == run.sim.finish_times
            assert [ledger.as_dict() for ledger in priced.sim.ledgers] == [
                ledger.as_dict() for ledger in run.sim.ledgers
            ]
            transfers = [
                Counter(op for op in sim.ops if op.kind == "transfer")
                for sim in (priced.sim, run.sim)
            ]
            assert transfers[0] == transfers[1]
            assert np.array_equal(
                priced.output.flat_indices, run.output.flat_indices
            )


def _first_difference(a, b, path=()):
    """``table/row/column`` path of the first leaf, in key order, at
    which two parsed documents differ (None when they are equal)."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            found = _first_difference(a.get(key), b.get(key), (*path, key))
            if found is not None:
                return found
        return None
    return None if a == b else "/".join(path)


class TestGridDocument:
    """``grid.json`` holds every Table 5–8 value exactly, so a
    virtual-time regression changes the committed file and its first
    differing key names the table, the row and the network."""

    @staticmethod
    def _document(config):
        import json

        from repro.experiments.runner import grid_document
        from repro.obs.export import canonical_json

        grid = run_network_grid(config)
        text = canonical_json(grid_document({
            "table5": run_table5(config, grid=grid),
            "table6": run_table6(config, grid=grid),
            "table7": run_table7(config, grid=grid),
            "table8": run_table8(config),
        }))
        return text, json.loads(text)

    def test_injected_comm_regression_is_caught_and_named(
        self, fast_config, monkeypatch
    ):
        import dataclasses
        import re

        text, doc = self._document(fast_config)
        assert set(doc) == {"table5", "table6", "table7", "table8"}
        real = ExperimentConfig.cost_model

        def doubled_comm(self, scene=None):
            cost = real(self, scene)
            return dataclasses.replace(cost, comm_scale=2 * cost.comm_scale)

        monkeypatch.setattr(ExperimentConfig, "cost_model", doubled_comm)
        slow_text, slow = self._document(fast_config)
        assert slow_text != text
        first = _first_difference(doc, slow)
        networks = "|".join(map(re.escape, all_networks()))
        assert re.fullmatch(
            rf"table[5-7]/(Hetero|DLT|Homo)-[A-Z]+/({networks})", first
        ), first

    def test_cli_writes_the_grid_makespans(self, tmp_path, monkeypatch):
        import json

        import repro.experiments.runner as runner

        grids = []

        def keep(*args, **kwargs):
            grids.append(run_network_grid(*args, **kwargs))
            return grids[-1]

        monkeypatch.setattr(runner, "run_network_grid", keep)
        assert runner.main([
            "table5", "--outdir", str(tmp_path),
            "--rows", "48", "--cols", "16", "--bands", "24",
        ]) == 0
        doc = json.loads((tmp_path / "grid.json").read_text())
        (grid,) = grids
        assert set(doc) == {"table5"}
        assert doc["table5"] == {
            label: {
                network: grid.cell(label, network).total
                for network in grid.network_names
            }
            for label in grid.row_labels
        }
