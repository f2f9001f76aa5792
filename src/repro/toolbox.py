"""The umbrella-CLI dispatcher ``python -m repro.obs`` and ``python -m
repro.faults`` share.

``python -m <package>`` lists the package's sub-tools; ``python -m
<package> <tool> ...`` dispatches to the tool's own CLI with the
remaining arguments, exactly as ``python -m <package>.<tool> ...``
would.  Each sub-CLI module is imported only when dispatched to, so
``--help`` stays instant and a broken tool cannot take down the others.
"""

from __future__ import annotations

import importlib
import sys
from typing import Mapping, Sequence

__all__ = ["run_toolbox"]


def _usage(package: str, title: str, tools: Mapping[str, tuple[str, str]]) -> str:
    width = max(len(name) for name in tools)
    return "\n".join([
        f"usage: python -m {package} <tool> [args...]",
        "",
        f"{title}:",
        *(
            f"  {name:<{width}}  {description}"
            for name, (_module, description) in sorted(tools.items())
        ),
        "",
        f"run `python -m {package} <tool> --help` for a tool's options",
    ])


def run_toolbox(
    package: str,
    title: str,
    tools: Mapping[str, tuple[str, str]],
    argv: Sequence[str] | None = None,
) -> int:
    """Dispatch ``argv`` over ``tools``: ``name -> (module, one-line
    description)``, each module exposing ``main(argv) -> int``."""
    args = list(sys.argv[1:] if argv is None else argv)
    if not args or args[0] in ("-h", "--help"):
        print(_usage(package, title, tools))
        return 0
    entry = tools.get(args[0])
    if entry is None:
        print(
            f"error: unknown tool {args[0]!r}\n\n"
            f"{_usage(package, title, tools)}",
            file=sys.stderr,
        )
        return 2
    return int(importlib.import_module(entry[0]).main(args[1:]))
