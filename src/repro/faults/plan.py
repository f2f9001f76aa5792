"""Declarative, seed-free fault plans.

A :class:`FaultPlan` is an ordered tuple of fault specifications that
deterministically describe *what goes wrong when* — no random number
generator is involved, so the same plan file produces the same fault
sequence on every run.  Both backends interpret a plan through the
same hook sequence of the shared rank context:

* :class:`RankCrash` (``rank_crash``) — the rank raises
  :class:`~repro.errors.RankFailedError` at its ``at_op_index``-th
  operation (op counting is identical on both backends) or at the
  first operation at/after ``at_virtual_s`` on its clock;
* ``rank_slowdown`` — a
  :class:`~repro.cluster.perturb.RankComputeScale`: computation
  charged inside ``[start_s, end_s)`` is dilated by ``factor``
  (virtual-time engine; the wall-clock backend meters the windows but
  does not stall);
* ``link_degrade`` — a :class:`~repro.cluster.perturb.LinkScale`:
  transfers crossing the named segment pair have their *capacity* term
  scaled by ``factor`` inside the window (message latency is
  unaffected);
* :class:`MessageDelay` (``message_delay``) — matching sends stall
  ``delay_s`` before entering the network.

The two timing faults are the what-if vocabulary's own classes, not
copies: a plan that holds nothing else *is* a replayable perturbation
sequence (:attr:`FaultPlan.timing_perturbations`), and a window with no
``end_s`` runs to the end of the run.

Plans serialize to/from JSON (``{"faults": [{"kind": ...}, ...]}``)
via :func:`load_fault_plan` / :meth:`FaultPlan.to_json`.  Other
top-level keys are ignored.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from pathlib import Path
from typing import Sequence

from repro.cluster.perturb import (
    LinkScale,
    PlanDocument,
    RankComputeScale,
    TimingPerturbation,
)
from repro.errors import FaultPlanError, require
from repro.obs.export import read_json

__all__ = [
    "RankCrash",
    "RankComputeScale",
    "LinkScale",
    "MessageDelay",
    "FaultPlan",
    "load_fault_plan",
    "main",
]


@dataclasses.dataclass(frozen=True)
class RankCrash:
    """Kill one rank at a deterministic point of its own program.

    Exactly one trigger must be given: ``at_op_index`` (1-based count
    of the rank's compute/send/recv operations — identical on both
    backends) or ``at_virtual_s`` (first operation at/after that time
    on the rank's clock: virtual time on the engine, nominal compute
    time on the wall-clock backend).
    """

    rank: int
    at_virtual_s: float | None = None
    at_op_index: int | None = None

    def validate(self) -> None:
        require(
            self.rank >= 0, f"rank must be >= 0, got {self.rank}", FaultPlanError
        )
        has_time = self.at_virtual_s is not None
        has_op = self.at_op_index is not None
        require(
            has_time != has_op,
            "exactly one of at_virtual_s / at_op_index required",
            FaultPlanError,
        )
        if has_time:
            require(
                math.isfinite(self.at_virtual_s) and self.at_virtual_s >= 0,
                f"at_virtual_s must be finite and >= 0, got {self.at_virtual_s}",
                FaultPlanError,
            )
        if has_op:
            require(
                self.at_op_index >= 1,
                f"at_op_index must be >= 1, got {self.at_op_index}",
                FaultPlanError,
            )


@dataclasses.dataclass(frozen=True)
class MessageDelay:
    """Stall matching sends ``delay_s`` before they enter the network.

    ``src``/``dst``/``tag`` are match predicates (``None`` = any);
    ``count`` limits how many sends are delayed (``None`` = all).
    Wildcard predicates with a finite ``count`` consume in global
    thread-arrival order, so pin ``src`` for deterministic plans.
    """

    delay_s: float
    src: int | None = None
    dst: int | None = None
    tag: int | None = None
    count: int | None = None

    def validate(self) -> None:
        require(
            math.isfinite(self.delay_s) and self.delay_s > 0,
            f"delay_s must be positive, got {self.delay_s}",
            FaultPlanError,
        )
        require(
            self.count is None or self.count >= 1,
            f"count must be >= 1 or None, got {self.count}",
            FaultPlanError,
        )

    def matches(self, src: int, dst: int, tag: int) -> bool:
        return (
            (self.src is None or self.src == src)
            and (self.dst is None or self.dst == dst)
            and (self.tag is None or self.tag == tag)
        )


Fault = RankCrash | RankComputeScale | LinkScale | MessageDelay


@dataclasses.dataclass(frozen=True)
class FaultPlan(PlanDocument):
    """An immutable, validated, ordered set of fault specifications."""

    faults: tuple[Fault, ...] = ()
    name: str = ""

    ITEMS = "faults"
    KINDS = {
        "rank_crash": RankCrash,
        "rank_slowdown": RankComputeScale,
        "link_degrade": LinkScale,
        "message_delay": MessageDelay,
    }
    ERROR = FaultPlanError

    @property
    def timing_perturbations(self) -> tuple[TimingPerturbation, ...] | None:
        """The plan as a what-if replay takes it: its faults, when every
        one is a timing perturbation; ``None`` when it also crashes or
        delays (those re-order the program, they do not re-price it, so
        a replay cannot model them)."""
        if all(isinstance(f, TimingPerturbation) for f in self.faults):
            return self.faults
        return None

    @property
    def max_rank(self) -> int:
        """Highest rank referenced anywhere in the plan (-1 if none)."""
        ranks = [-1]
        for fault in self.faults:
            for field in ("rank", "src", "dst"):
                value = getattr(fault, field, None)
                if value is not None:
                    ranks.append(int(value))
        return max(ranks)

    def check_platform(self, n_ranks: int, master_rank: int = 0) -> None:
        """Raise :class:`FaultPlanError` if the plan cannot apply."""
        if self.max_rank >= n_ranks:
            raise FaultPlanError(
                f"plan {self.name!r} references rank {self.max_rank} but the "
                f"platform has only {n_ranks} ranks"
            )
        for crash in self.of_kind("rank_crash"):
            if crash.rank == master_rank:
                raise FaultPlanError(
                    f"plan {self.name!r} crashes the master rank "
                    f"{master_rank} — unrecoverable by design"
                )


def load_fault_plan(path: str | Path) -> FaultPlan:
    """Read and validate a JSON fault plan file."""
    plan = FaultPlan.from_dict(read_json(path, "fault plan", FaultPlanError))
    if not plan.name:
        plan = dataclasses.replace(plan, name=Path(path).stem)
    return plan


def describe_plan(plan: FaultPlan) -> str:
    """One-screen human-readable plan summary."""
    lines = [f"fault plan {plan.name or '(unnamed)'}: {len(plan)} faults"]
    for fault in plan:
        fields = ", ".join(
            f"{f.name}={getattr(fault, f.name)}"
            for f in dataclasses.fields(fault)
            if getattr(fault, f.name) is not None
        )
        lines.append(f"  {plan.kind_of(fault)}: {fields}")
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    """``python -m repro plan <validate|show> FILE``"""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro plan",
        description="Inspect and validate JSON fault plans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_val = sub.add_parser("validate", help="exit 0 iff the plan parses")
    p_val.add_argument("file")
    p_val.add_argument("--ranks", type=int, default=None,
                       help="also check the plan against a platform of "
                            "this many ranks (master rank 0)")
    p_show = sub.add_parser("show", help="parse a plan and print it")
    p_show.add_argument("file")
    args = parser.parse_args(argv)

    try:
        plan = load_fault_plan(args.file)
        if args.command == "validate" and args.ranks is not None:
            plan.check_platform(args.ranks)
    except FaultPlanError as exc:
        print(f"invalid fault plan: {exc}", file=sys.stderr)
        return 1
    if args.command == "validate":
        print(f"ok: {describe_plan(plan)}")
    else:
        print(describe_plan(plan))
    return 0
