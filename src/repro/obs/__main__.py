"""Umbrella CLI for the observability toolbox: ``python -m repro.obs``
lists the tools in :data:`TOOLS`, ``python -m repro.obs <tool> ...``
dispatches to one (:func:`repro.toolbox.run_toolbox`).
"""

from __future__ import annotations

from typing import Sequence

from repro.toolbox import run_toolbox

__all__ = ["main", "TOOLS"]

#: tool name -> (module, one-line description shown by the listing).
TOOLS: dict[str, tuple[str, str]] = {
    "bench": (
        "repro.obs.bench",
        "run/compare benchmark suites and gate regressions",
    ),
    "profile": (
        "repro.obs.profile",
        "per-op cost-model profiles and calibration gates",
    ),
    "diff": (
        "repro.obs.diff",
        "structural + timing diff of two recorded traces",
    ),
    "live": (
        "repro.obs.live",
        "inspect live.json snapshots from streaming runs",
    ),
    "whatif": (
        "repro.obs.whatif",
        "what-if replay, causal profiles, capacity sweeps",
    ),
    "history": (
        "repro.obs.history",
        "run ledger and the regression gate over it (record, list, gate)",
    ),
}


def main(argv: Sequence[str] | None = None) -> int:
    return run_toolbox("repro.obs", "observability tools", TOOLS, argv)


if __name__ == "__main__":
    raise SystemExit(main())
