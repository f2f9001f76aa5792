"""Provenance stamping for exported artifacts.

The machine-readable artifacts the observability layer writes
(``analysis.json``, what-if predictions, plan-bench artifacts) carry a
small provenance header — git commit, python and numpy versions,
platform string — so their numbers can be traced to the environment
that produced them.

The header is intentionally *additive*: schemas are unchanged, and
readers that ignore unknown keys keep working.
"""

from __future__ import annotations

import functools
import platform as _platform
import subprocess
from pathlib import Path

import numpy as np

__all__ = ["provenance"]


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

