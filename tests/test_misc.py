"""Coverage for the small shared utilities: errors, types,
library persistence, the runner's validation paths, and the CLI."""

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

    @pytest.mark.parametrize("flag, message", [
        ("--trace", "--trace requires a directory name"),
        ("--plan", "--plan requires 'auto', 'default', or a plan file"),
    ])
    def test_empty_value_rejected(self, flag, message, capsys):
        from repro.experiments.runner import main

        with pytest.raises(SystemExit) as info:
            main([flag, ""])
        assert info.value.code == 2
        assert capsys.readouterr().err.rstrip().endswith(f"error: {message}")


class TestRootCli:
    def test_broken_pipe_exits_quietly(self, tmp_path, monkeypatch, capsys):
        """``python -m repro <tool> ... | head``: the reader went away,
        and every tool exits 0 without a traceback."""
        import sys

        from repro.__main__ import main
        from repro.obs import history

        def closed_pipe(argv):
            raise BrokenPipeError

        monkeypatch.setattr(history, "main", closed_pipe)
        with open(tmp_path / "stdout", "w") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            assert main(["history", "list"]) == 0
        assert capsys.readouterr().err == ""


def _cli_tools():
    """``(name, module)`` of every CLI tool, from the root table."""
    from repro.__main__ import TOOLS

    return [(name, module) for name, (module, _description) in TOOLS.items()]


class TestEveryCliLeafAnswersHelp:
    @pytest.mark.parametrize(
        "module", [pytest.param(m, id=label) for label, m in _cli_tools()]
    )
    def test_help_exits_zero(self, module, capsys):
        """``--help`` on the tool and on each of its subcommands, found
        from the usage line (``{a,b,c} ...``), recursively: the parser
        builds and the tool's lazy imports resolve."""
        import importlib
        import re

        main = importlib.import_module(module).main
        pending, leaves = [[]], 0
        while pending:
            prefix = pending.pop()
            with pytest.raises(SystemExit) as info:
                main([*prefix, "--help"])
            assert info.value.code == 0, prefix
            usage = capsys.readouterr().out
            assert usage.startswith("usage:"), prefix
            choices = re.search(r"\{([^}]+)\} \.\.\.", usage)
            if choices is None:
                leaves += 1
            else:
                pending += [[*prefix, c] for c in choices.group(1).split(",")]
        assert leaves >= 1


def _documented_commands():
    """``(file:line, argv)`` of every ``python -m repro …`` / ``repro …``
    command line in README.md and EXPERIMENTS.md (fenced or indented;
    continuation lines joined, comments dropped)."""
    import re
    import shlex
    from pathlib import Path

    start = re.compile(
        r"^\s*(?:\$ )?(?:PYTHONPATH=src )?(?:python3? -m )?repro(?=\s|$)(.*)"
    )
    repo = Path(__file__).resolve().parents[1]
    found = []
    for name in ("README.md", "EXPERIMENTS.md"):
        lines = (repo / name).read_text(encoding="utf-8").splitlines()
        for number, line in enumerate(lines, start=1):
            match = start.match(line)
            if match is None:
                continue
            text, nxt = match.group(1), number
            while text.rstrip().endswith("\\"):
                text = text.rstrip()[:-1] + " " + lines[nxt]
                nxt += 1
            argv = shlex.split(text, comments=True)
            for operator in ("&", "&&", "|", ";", ">"):  # shell, not argv
                if operator in argv:
                    argv = argv[:argv.index(operator)]
            found.append(pytest.param(argv, id=f"{name}:{number}"))
    return found


class TestDocumentedCommandsParse:
    """README truth, parse-only: every documented command line is
    handed to its tool's real parser, and nothing runs — so a flag, a
    subcommand or a committed file a PR deletes cannot survive in the
    docs."""

    def test_there_are_commands_to_check(self):
        assert len(_documented_commands()) >= 40

    @pytest.mark.parametrize("argv", _documented_commands())
    def test_parses(self, argv, monkeypatch, capsys):
        import argparse
        from pathlib import Path

        from repro.__main__ import main

        class Parsed(Exception):
            pass

        real = argparse.ArgumentParser.parse_args

        def parse_only(self, args=None, namespace=None):
            real(self, args, namespace)
            raise Parsed

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", parse_only)
        try:
            # the root CLI without a tool name lists the tools
            assert main(argv) == 0 and not argv
        except Parsed:
            pass
        except SystemExit as exc:
            pytest.fail(f"repro {argv}: {capsys.readouterr().err or exc}")
        repo = Path(__file__).resolve().parents[1]
        for word in argv:
            if word.startswith("benchmarks/"):
                assert (repo / word).exists(), f"{word} is not committed"


class TestImportHygiene:
    #: ``(importing module, imported module, private name)`` violations
    #: that predate the rule.  This list may only shrink.
    ALLOWED = {
        ("repro.core.morph", "repro.morphology.ops", "_EPS"),
    }

    #: Modules no entry point reaches, and why each stays.  This set
    #: may only shrink.
    UNREACHED_KEPT = {
        "repro.core.pipeline",  # README quick-start
    }

    @staticmethod
    def _modules():
        """``{dotted name: (path, ast)}`` of every module under
        ``src/repro`` (a package is named without ``.__init__``)."""
        import ast
        from pathlib import Path

        import repro

        root = Path(repro.__file__).parent
        modules = {}
        for path in sorted(root.rglob("*.py")):
            parts = path.relative_to(root).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
            modules[".".join(("repro",) + parts)] = (
                path, ast.parse(path.read_text(encoding="utf-8"))
            )
        return modules

    @staticmethod
    def _defines_main(tree):
        import ast

        return any(
            isinstance(node, ast.FunctionDef) and node.name == "main"
            for node in tree.body
        )

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

    def test_commands_import_numpy_only(self):
        """A fresh interpreter that imports every package and every CLI
        module has loaded neither scipy nor networkx."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        modules = self._modules()
        names = sorted(
            name for name, (path, tree) in modules.items()
            if path.name == "__init__.py" or self._defines_main(tree)
        )
        code = (
            "import importlib, sys\n"
            "for name in sys.argv[1:]:\n"
            "    importlib.import_module(name)\n"
            "print(sorted(m for m in ('scipy', 'networkx')"
            " if m in sys.modules))\n"
        )
        src = str(Path(repro.__file__).parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        done = subprocess.run(
            [sys.executable, "-c", code, *names],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_every_module_is_reached(self):
        """Every module is imported, directly or through others, by an
        entry point: a ``__main__``, a module with a CLI ``main``, an
        example or a benchmark.  A name taken from a package resolves to
        the module that defines it, so a package ``__init__`` re-export
        is not a use."""
        import ast
        from pathlib import Path

        import repro

        modules = self._modules()
        trees = {name: tree for name, (_path, tree) in modules.items()}
        packages = {
            name for name, (path, _tree) in modules.items()
            if path.name == "__init__.py"
        }

        def resolve(source, name, seen=()):
            if f"{source}.{name}" in trees:
                return f"{source}.{name}"
            if source not in trees:
                return None
            if source in packages and source not in seen:
                for node in trees[source].body:
                    if isinstance(node, ast.ImportFrom) and not node.level:
                        for alias in node.names:
                            if (alias.asname or alias.name) == name:
                                return resolve(
                                    node.module or "", alias.name,
                                    seen + (source,),
                                )
            return source

        def imported_by(tree):
            found = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    found.update(a.name for a in node.names if a.name in trees)
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    found.update(
                        resolve(node.module or "", alias.name)
                        for alias in node.names
                    )
            return found - {None}

        repo = Path(repro.__file__).parents[2]
        scripts = sorted((repo / "examples").glob("*.py"))
        scripts += sorted((repo / "benchmarks").rglob("*.py"))
        assert scripts, "examples/ and benchmarks/ not found beside src/"
        roots = [
            name for name, tree in trees.items()
            if name.endswith(".__main__") or self._defines_main(tree)
        ]
        for path in scripts:
            roots.extend(
                imported_by(ast.parse(path.read_text(encoding="utf-8")))
            )

        def unreached_from(todo):
            reached = set()
            while todo:
                name = todo.pop()
                if name not in reached:
                    reached.add(name)
                    if name not in packages:
                        todo.extend(imported_by(trees[name]))
            return set(trees) - reached - packages

        assert self.UNREACHED_KEPT <= unreached_from(list(roots)), (
            "reached now, or gone: drop it from UNREACHED_KEPT"
        )
        assert sorted(unreached_from(roots + sorted(self.UNREACHED_KEPT))) == []
