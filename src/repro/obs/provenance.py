"""Provenance stamping for exported artifacts.

Every machine-readable artifact the observability layer writes
(``BENCH_*.json``, ledger entries, ``analysis.json``, what-if
predictions) carries a small provenance header — git commit, python and
numpy versions, platform string — so regressions can be traced to the
environment that produced the numbers: a gate failure names the
commit of its first offending ledger entry.

The header is intentionally *additive*: schemas are unchanged, readers
that ignore unknown keys keep working, and artifacts produced before
this header simply have no ``"provenance"`` key (readers warn, see
:func:`warn_if_unstamped`).
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
