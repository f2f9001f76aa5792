"""Declarative, seed-free fault plans.

A :class:`FaultPlan` is an ordered tuple of fault specifications that
deterministically describe *what goes wrong when* — no random number
generator is involved, so the same plan file produces the same fault
sequence on every run.  Both backends interpret a plan through the
same hook sequence of the shared rank context:

* :class:`RankCrash` — the rank raises
  :class:`~repro.errors.RankFailedError` at its ``at_op_index``-th
  operation (op counting is identical on both backends) or at the
  first operation at/after ``at_virtual_s`` on its clock;
* :class:`RankSlowdown` — computation charged inside
  ``[start_s, end_s)`` is dilated by ``factor`` (virtual-time engine;
  the wall-clock backend meters the windows but does not stall);
* :class:`LinkDegrade` — transfers crossing the named segment pair
  have their *capacity* term scaled by ``factor`` inside the window
  (message latency is unaffected);
* :class:`MessageDelay` — matching sends stall ``delay_s`` before
  entering the network;
* :class:`MessageDrop` — the first ``count`` matching sends raise
  :class:`~repro.errors.TransientNetworkError` (pair with
  :func:`repro.faults.send_with_retry`).

Plans serialize to/from JSON (``{"faults": [{"kind": ...}, ...]}``)
via :func:`load_fault_plan` / :meth:`FaultPlan.to_json`.  A plan may
additionally embed a ``"policy"`` block — a
:class:`~repro.faults.policy.ResiliencePolicy` configuring retry
budgets and per-op deadlines for the detection layer — which older
plan files simply omit (parsing is backward compatible).
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.errors import FaultPlanError
from repro.faults.policy import ResiliencePolicy

__all__ = [
    "RankCrash",
    "RankSlowdown",
    "LinkDegrade",
    "MessageDelay",
    "MessageDrop",
    "FaultPlan",
    "load_fault_plan",
    "main",
]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise FaultPlanError(message)


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

    kind = "rank_crash"

    def validate(self) -> None:
        _require(self.rank >= 0, f"rank_crash: rank must be >= 0, got {self.rank}")
        has_time = self.at_virtual_s is not None
        has_op = self.at_op_index is not None
        _require(
            has_time != has_op,
            "rank_crash: exactly one of at_virtual_s / at_op_index required",
        )
        if has_time:
            _require(
                math.isfinite(self.at_virtual_s) and self.at_virtual_s >= 0,
                f"rank_crash: at_virtual_s must be finite and >= 0, "
                f"got {self.at_virtual_s}",
            )
        if has_op:
            _require(
                self.at_op_index >= 1,
                f"rank_crash: at_op_index must be >= 1, got {self.at_op_index}",
            )


@dataclasses.dataclass(frozen=True)
class RankSlowdown:
    """Dilate one rank's computation by ``factor`` inside a window."""

    rank: int
    factor: float
    start_s: float = 0.0
    end_s: float = 0.0

    kind = "rank_slowdown"

    def validate(self) -> None:
        _require(self.rank >= 0, f"rank_slowdown: rank must be >= 0, got {self.rank}")
        _require(
            math.isfinite(self.factor) and self.factor > 0,
            f"rank_slowdown: factor must be positive, got {self.factor}",
        )
        _require(
            math.isfinite(self.start_s) and math.isfinite(self.end_s)
            and 0 <= self.start_s < self.end_s,
            f"rank_slowdown: need a finite window 0 <= start_s < end_s, "
            f"got [{self.start_s}, {self.end_s})",
        )


@dataclasses.dataclass(frozen=True)
class LinkDegrade:
    """Scale the capacity term of a serial segment pair (or a switched
    segment's internal medium when ``segment_a == segment_b``)."""

    segment_a: str
    segment_b: str
    factor: float
    start_s: float = 0.0
    end_s: float = 0.0

    kind = "link_degrade"

    def validate(self) -> None:
        _require(
            bool(self.segment_a) and bool(self.segment_b),
            "link_degrade: both segment names are required",
        )
        _require(
            math.isfinite(self.factor) and self.factor > 0,
            f"link_degrade: factor must be positive, got {self.factor}",
        )
        _require(
            math.isfinite(self.start_s) and math.isfinite(self.end_s)
            and 0 <= self.start_s < self.end_s,
            f"link_degrade: need a finite window 0 <= start_s < end_s, "
            f"got [{self.start_s}, {self.end_s})",
        )

    @property
    def pair(self) -> tuple[str, str]:
        a, b = self.segment_a, self.segment_b
        return (a, b) if a <= b else (b, a)


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

    kind = "message_delay"

    def validate(self) -> None:
        _require(
            math.isfinite(self.delay_s) and self.delay_s > 0,
            f"message_delay: delay_s must be positive, got {self.delay_s}",
        )
        _require(
            self.count is None or self.count >= 1,
            f"message_delay: count must be >= 1 or None, got {self.count}",
        )

    def matches(self, src: int, dst: int, tag: int) -> bool:
        return (
            (self.src is None or self.src == src)
            and (self.dst is None or self.dst == dst)
            and (self.tag is None or self.tag == tag)
        )


@dataclasses.dataclass(frozen=True)
class MessageDrop:
    """Lose the first ``count`` matching sends in transit.

    The sender observes :class:`~repro.errors.TransientNetworkError`;
    wrap sends in :func:`repro.faults.send_with_retry` to survive.
    """

    src: int | None = None
    dst: int | None = None
    tag: int | None = None
    count: int = 1

    kind = "message_drop"

    def validate(self) -> None:
        _require(
            self.count >= 1, f"message_drop: count must be >= 1, got {self.count}"
        )

    def matches(self, src: int, dst: int, tag: int) -> bool:
        return (
            (self.src is None or self.src == src)
            and (self.dst is None or self.dst == dst)
            and (self.tag is None or self.tag == tag)
        )


_FAULT_KINDS = {
    cls.kind: cls
    for cls in (RankCrash, RankSlowdown, LinkDegrade, MessageDelay, MessageDrop)
}

Fault = RankCrash | RankSlowdown | LinkDegrade | MessageDelay | MessageDrop


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """An immutable, validated, ordered set of fault specifications.

    ``policy`` optionally attaches the resilience policy (retry +
    deadline budgets) that detection helpers should apply while the
    plan is active; ``None`` keeps the library defaults.
    """

    faults: tuple[Fault, ...] = ()
    name: str = ""
    policy: ResiliencePolicy | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        for fault in self.faults:
            if type(fault) not in _FAULT_KINDS.values():
                raise FaultPlanError(
                    f"unknown fault object {fault!r} in plan {self.name!r}"
                )
            fault.validate()

    def __iter__(self) -> Iterable[Fault]:
        return iter(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    def of_kind(self, kind: str) -> tuple[Fault, ...]:
        return tuple(f for f in self.faults if f.kind == kind)

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

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"faults": []}
        if self.name:
            out["name"] = self.name
        if self.policy is not None:
            out["policy"] = self.policy.to_dict()
        for fault in self.faults:
            entry = {"kind": fault.kind}
            for field in dataclasses.fields(fault):
                value = getattr(fault, field.name)
                if value is not None:
                    entry[field.name] = value
            out["faults"].append(entry)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def write_json(self, path: str | Path) -> Path:
        out = Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(self.to_json(), encoding="utf-8")
        return out

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "FaultPlan":
        if not isinstance(doc, Mapping) or "faults" not in doc:
            raise FaultPlanError('fault plan document needs a "faults" list')
        faults = []
        for i, entry in enumerate(doc["faults"]):
            if not isinstance(entry, Mapping) or "kind" not in entry:
                raise FaultPlanError(f'fault #{i} needs a "kind" field')
            kind = entry["kind"]
            fault_cls = _FAULT_KINDS.get(kind)
            if fault_cls is None:
                raise FaultPlanError(
                    f"fault #{i}: unknown kind {kind!r} "
                    f"(expected one of {sorted(_FAULT_KINDS)})"
                )
            fields = {f.name for f in dataclasses.fields(fault_cls)}
            kwargs = {k: v for k, v in entry.items() if k != "kind"}
            unknown = set(kwargs) - fields
            if unknown:
                raise FaultPlanError(
                    f"fault #{i} ({kind}): unknown fields {sorted(unknown)}"
                )
            try:
                faults.append(fault_cls(**kwargs))
            except TypeError as exc:
                raise FaultPlanError(f"fault #{i} ({kind}): {exc}") from exc
        policy = None
        if doc.get("policy") is not None:
            policy = ResiliencePolicy.from_dict(doc["policy"])
        return cls(
            faults=tuple(faults),
            name=str(doc.get("name", "")),
            policy=policy,
        )


def load_fault_plan(path: str | Path) -> FaultPlan:
    """Read and validate a JSON fault plan file."""
    source = Path(path)
    try:
        doc = json.loads(source.read_text(encoding="utf-8"))
    except OSError as exc:
        raise FaultPlanError(f"cannot read fault plan {source}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FaultPlanError(f"fault plan {source} is not valid JSON: {exc}") from exc
    plan = FaultPlan.from_dict(doc)
    if not plan.name:
        plan = dataclasses.replace(plan, name=source.stem)
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
        lines.append(f"  {fault.kind}: {fields}")
    if plan.policy is not None:
        from repro.faults.policy import describe_policy

        lines.append("  " + describe_policy(plan.policy).replace("\n", "\n  "))
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    """``python -m repro.faults plan <validate|show> FILE``"""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.faults plan",
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


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    raise SystemExit(main())
