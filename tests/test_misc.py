"""Coverage for the small shared utilities: errors, types, logging,
library persistence, the runner's validation paths, and the CLI."""

import logging

import numpy as np
import pytest

from repro.core.runner import run_parallel
from repro.errors import (
    CommunicationError,
    ConfigurationError,
    DataError,
    DeadlockError,
    EnviFormatError,
    PartitionError,
    PlatformError,
    ReproError,
    ShapeError,
)
from repro.hsi.spectra import SpectralLibrary, build_wtc_library
from repro.logging_utils import enable_console_logging, get_logger
from repro.types import Interleave


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            ConfigurationError,
            PlatformError,
            PartitionError,
            CommunicationError,
            DeadlockError,
            DataError,
            ShapeError,
            EnviFormatError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_value_error_compat(self):
        # Config/data errors double as ValueError for ergonomic catching.
        assert issubclass(ConfigurationError, ValueError)
        assert issubclass(DataError, ValueError)

    def test_deadlock_is_communication(self):
        assert issubclass(DeadlockError, CommunicationError)


class TestInterleave:
    @pytest.mark.parametrize("text,member", [
        ("bsq", Interleave.BSQ),
        ("BIL", Interleave.BIL),
        (" bip ", Interleave.BIP),
    ])
    def test_parse(self, text, member):
        assert Interleave.parse(text) is member

    def test_parse_member_passthrough(self):
        assert Interleave.parse(Interleave.BSQ) is Interleave.BSQ

    def test_parse_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown interleave"):
            Interleave.parse("nope")


class TestLogging:
    def test_get_logger_namespaced(self):
        assert get_logger("engine").name == "repro.engine"
        assert get_logger("repro.hsi").name == "repro.hsi"

    def test_enable_console_idempotent(self):
        h1 = enable_console_logging(logging.DEBUG)
        h2 = enable_console_logging(logging.WARNING)
        assert h1 is h2
        assert h1.level == logging.WARNING
        logging.getLogger("repro").removeHandler(h1)


class TestLibraryPersistence:
    def test_roundtrip(self, tmp_path):
        lib = build_wtc_library(32)
        path = tmp_path / "library.npz"
        lib.save(path)
        back = SpectralLibrary.load(path)
        assert back.names == lib.names
        assert np.allclose(back.wavelengths, lib.wavelengths)
        assert np.allclose(back.to_matrix(), lib.to_matrix())
        assert back.thermal_names() == lib.thermal_names()

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, something=np.ones(3))
        with pytest.raises(DataError):
            SpectralLibrary.load(path)


class TestRunnerValidation:
    def test_unknown_algorithm_rejected(self, small_scene, tiny_platform):
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            run_parallel("magic", small_scene.image, tiny_platform)

    def test_unknown_variant_rejected(self, small_scene, tiny_platform):
        with pytest.raises(ConfigurationError, match="unknown variant"):
            run_parallel(
                "atdca", small_scene.image, tiny_platform,
                params={"n_targets": 2}, variant="mystery",
            )

    def test_unknown_backend_rejected(self, small_scene, tiny_platform):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            run_parallel(
                "atdca", small_scene.image, tiny_platform,
                params={"n_targets": 2}, backend="quantum",
            )

    def test_partition_size_mismatch_rejected(self, small_scene, tiny_platform):
        from repro.scheduling import RowPartition

        bad = RowPartition(np.array([32, 32]))  # 2 shares for 4 ranks
        with pytest.raises(ReproError):
            run_parallel(
                "atdca", small_scene.image, tiny_platform,
                params={"n_targets": 2}, partition=bad,
            )


class TestExperimentsCLI:
    def test_figure1_end_to_end(self, tmp_path, capsys):
        from repro.experiments.runner import main

        code = main([
            "figure1", "--outdir", str(tmp_path),
            "--rows", "48", "--cols", "16", "--bands", "16",
        ])
        assert code == 0
        assert (tmp_path / "figure1_composite.ppm").exists()
        assert (tmp_path / "experiments.txt").exists()
        out = capsys.readouterr().out
        assert "Figure 1" in out

    def test_unknown_experiment_rejected(self):
        from repro.experiments.runner import main

        with pytest.raises(SystemExit):
            main(["tableX"])


class TestImportHygiene:
    #: ``(importing module, imported module, private name)`` violations
    #: that predate the rule.  This list may only shrink.
    ALLOWED = {
        ("repro.tuning.registry", "repro.core.nfindr", "_sweep_scalar"),
        ("repro.tuning.registry", "repro.core.nfindr", "_replacement_sweep"),
        ("repro.obs.report", "repro.viz.timeline", "_recovery_segments"),
        ("repro.obs.profile", "repro.viz.timeline", "_recovery_segments"),
        ("repro.core.morph", "repro.morphology.ops", "_EPS"),
        ("repro.experiments.whatif", "repro.obs.export", "_JSON_KW"),
    }

    def test_no_private_name_crosses_a_package(self):
        import ast
        from pathlib import Path

        import repro

        root = Path(repro.__file__).parent
        found = set()
        for path in sorted(root.rglob("*.py")):
            parts = path.relative_to(root).with_suffix("").parts
            module = ".".join(("repro",) + parts)
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.ImportFrom) or node.level:
                    continue
                source = (node.module or "").split(".")
                if source[0] != "repro" or source[1:2] == list(parts[:1]):
                    continue
                found.update(
                    (module, node.module, alias.name)
                    for alias in node.names
                    if alias.name.startswith("_")
                )
        assert found - self.ALLOWED == set(), "new cross-package private import"
        assert self.ALLOWED - found == set(), "fixed: drop it from ALLOWED"
