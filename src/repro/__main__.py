"""The one command line: ``python -m repro <tool> [args...]``.

``python -m repro`` (console script ``repro``) lists the tools in
:data:`TOOLS`; ``python -m repro <tool> ...`` hands the remaining
arguments to the tool's own ``main(argv) -> int``.  A tool's module is
imported only when that tool runs, so the listing and ``--help`` stay
instant and a broken tool cannot take down the others.
"""

from __future__ import annotations

import importlib
import os
import sys
from typing import Sequence

__all__ = ["main", "TOOLS"]

#: tool name -> (module, one-line description shown by the listing).
TOOLS: dict[str, tuple[str, str]] = {
    "experiments": (
        "repro.experiments.runner",
        "regenerate the paper's tables and figures",
    ),
    "bench": (
        "repro.obs.bench",
        "benchmark artifacts: plan",
    ),
    "profile": (
        "repro.obs.profile",
        "per-op cost-model profiles and calibration gates",
    ),
    "whatif": (
        "repro.obs.whatif",
        "what-if replay, causal profiles, capacity sweeps",
    ),
    "plan": (
        "repro.faults.plan",
        "validate and pretty-print JSON fault plans",
    ),
    "sweep": (
        "repro.faults.sweep",
        "chaos-sweep fault grids through adaptive recovery",
    ),
}


def _usage() -> str:
    width = max(len(name) for name in TOOLS)
    return "\n".join([
        "usage: python -m repro <tool> [args...]",
        "",
        "tools:",
        *(
            f"  {name:<{width}}  {description}"
            for name, (_module, description) in TOOLS.items()
        ),
        "",
        "run `python -m repro <tool> --help` for a tool's options",
    ])


def main(argv: Sequence[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if not args or args[0] in ("-h", "--help"):
        print(_usage())
        return 0
    entry = TOOLS.get(args[0])
    if entry is None:
        print(f"error: unknown tool {args[0]!r}\n\n{_usage()}",
              file=sys.stderr)
        return 2
    try:
        return int(importlib.import_module(entry[0]).main(args[1:]))
    except BrokenPipeError:
        # `... | head` closed our stdout early: exit quietly, and point
        # stdout at devnull so the interpreter's final flush cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
