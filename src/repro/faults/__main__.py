"""Umbrella CLI for the fault-tolerance toolbox: ``python -m repro.faults``
lists the tools in :data:`TOOLS`, ``python -m repro.faults <tool> ...``
dispatches to one (:func:`repro.toolbox.run_toolbox`).
"""

from __future__ import annotations

from typing import Sequence

from repro.toolbox import run_toolbox

__all__ = ["main", "TOOLS"]

#: tool name -> (module, one-line description shown by the listing).
TOOLS: dict[str, tuple[str, str]] = {
    "plan": (
        "repro.faults.plan",
        "validate and pretty-print JSON fault plans",
    ),
    "sweep": (
        "repro.faults.sweep",
        "chaos-sweep fault grids through adaptive recovery",
    ),
}


def main(argv: Sequence[str] | None = None) -> int:
    return run_toolbox("repro.faults", "fault-tolerance tools", TOOLS, argv)


if __name__ == "__main__":
    raise SystemExit(main())
