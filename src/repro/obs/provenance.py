"""Provenance stamping for exported artifacts.

Every machine-readable artifact the observability layer writes
(``BENCH_*.json``, ledger entries, ``analysis.json``, what-if
predictions) carries a small provenance header — git commit, python and
numpy versions, platform string — so regressions can be traced to the
environment that produced the numbers and ``bench compare`` can warn
when a baseline and a candidate came from different worlds.

The header is intentionally *additive*: schemas are unchanged, readers
that ignore unknown keys keep working, and artifacts produced before
this header simply have no ``"provenance"`` key (comparisons treat
that as "unknown", not a mismatch).
"""

from __future__ import annotations

import functools
import platform as _platform
import subprocess
import warnings
from pathlib import Path
from typing import Any, Mapping

import numpy as np

__all__ = [
    "provenance",
    "provenance_matches",
    "describe_mismatch",
    "warn_if_unstamped",
]


@functools.lru_cache(maxsize=1)
def _cached() -> tuple[tuple[str, str], ...]:
    return (
        ("git_sha", _git_sha()),
        ("numpy", str(np.__version__)),
        ("platform", _platform.platform()),
        ("python", _platform.python_version()),
    )


def _git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else "unknown"


def provenance() -> dict[str, str]:
    """The current environment's provenance header (fresh dict)."""
    return dict(_cached())


def provenance_matches(
    a: Mapping[str, Any] | None, b: Mapping[str, Any] | None
) -> bool | None:
    """Compare two provenance headers; ``None`` when either is absent."""
    if not a or not b:
        return None
    keys = set(a) | set(b)
    return all(a.get(k) == b.get(k) for k in keys)


def warn_if_unstamped(
    doc: Mapping[str, Any], source: Any = "artifact"
) -> bool:
    """Warn (once per call site semantics aside, a plain
    :class:`UserWarning`) when a loaded artifact carries no provenance
    block; returns True when the block is present.

    Readers call this instead of hard-failing: artifacts written before
    the header existed — or hand-stripped ones — stay loadable, but the
    gap is surfaced because a gate failure on such an artifact cannot
    name the commit that produced the numbers.
    """
    if doc.get("provenance"):
        return True
    warnings.warn(
        f"{source}: no provenance block "
        "(pre-provenance artifact or stripped header); regressions in it "
        "cannot be traced to a commit",
        stacklevel=2,
    )
    return False


def describe_mismatch(
    a: Mapping[str, Any], b: Mapping[str, Any]
) -> list[str]:
    """Human-readable ``key: a != b`` lines for differing fields."""
    lines = []
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key, "<absent>"), b.get(key, "<absent>")
        if va != vb:
            lines.append(f"{key}: {va!r} != {vb!r}")
    return lines
