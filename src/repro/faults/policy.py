"""Declarative resilience policies: retry budgets and op deadlines.

A :class:`ResiliencePolicy` bundles the two knobs the detection layer
used to take as ad-hoc arguments — a :class:`RetryPolicy` (bounded
exponential backoff for transient losses) and a :class:`DeadlinePolicy`
(per-operation send/recv deadlines) — into one JSON-serializable object
that travels with fault plans (``FaultPlan.policy``) exactly like the
fault specifications themselves.  The same policy file therefore
produces the same retry/timeout behaviour on the virtual-time engine
and the wall-clock backend.

JSON shape (every block optional; omitted fields keep their defaults)::

    {
      "name": "tolerant",
      "retry": {"max_attempts": 4, "backoff_s": 0.01, "backoff_factor": 2.0},
      "deadline": {"send_timeout_s": 0.25, "recv_timeout_s": 0.25}
    }
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.errors import ConfigurationError, FaultPlanError
from repro.obs.export import read_json

__all__ = [
    "RetryPolicy",
    "DeadlinePolicy",
    "ResiliencePolicy",
    "DEFAULT_RETRY_POLICY",
    "DEFAULT_POLICY",
    "load_policy",
    "main",
]


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff for transient faults.

    Attributes:
        max_attempts: total tries (first attempt included).
        backoff_s: wait charged before the first retry.
        backoff_factor: multiplier applied to the wait per retry.
    """

    max_attempts: int = 4
    backoff_s: float = 0.01
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_s < 0 or self.backoff_factor <= 0:
            raise ConfigurationError(
                f"invalid backoff ({self.backoff_s}s × {self.backoff_factor})"
            )

    def backoff_for(self, attempt: int) -> float:
        """Backoff charged after failed attempt ``attempt`` (1-based)."""
        return self.backoff_s * self.backoff_factor ** (attempt - 1)


@dataclasses.dataclass(frozen=True)
class DeadlinePolicy:
    """Per-operation deadlines for the detection helpers.

    ``None`` disables the deadline for that operation class (block
    until the router's deadlock detector fires).  On the virtual-time
    engine deadlines are virtual seconds (deterministic); on the
    wall-clock backend they are wall seconds measured on the monotonic
    clock.
    """

    send_timeout_s: float | None = None
    recv_timeout_s: float | None = None

    def __post_init__(self) -> None:
        for name in ("send_timeout_s", "recv_timeout_s"):
            value = getattr(self, name)
            if value is not None and not (
                math.isfinite(value) and value > 0
            ):
                raise ConfigurationError(
                    f"{name} must be finite and > 0 or None, got {value}"
                )


DEFAULT_RETRY_POLICY = RetryPolicy()


@dataclasses.dataclass(frozen=True)
class ResiliencePolicy:
    """A named, serializable (retry, deadline) pair.

    The detection helpers accept this wherever they accept a bare
    :class:`RetryPolicy`, deriving the missing deadline from the
    ``deadline`` block — so call sites carry one object instead of a
    growing argument list.
    """

    retry: RetryPolicy = DEFAULT_RETRY_POLICY
    deadline: DeadlinePolicy = DeadlinePolicy()
    name: str = ""

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {}
        if self.name:
            out["name"] = self.name
        out["retry"] = {
            "max_attempts": self.retry.max_attempts,
            "backoff_s": self.retry.backoff_s,
            "backoff_factor": self.retry.backoff_factor,
        }
        deadline = {
            k: v
            for k, v in (
                ("send_timeout_s", self.deadline.send_timeout_s),
                ("recv_timeout_s", self.deadline.recv_timeout_s),
            )
            if v is not None
        }
        out["deadline"] = deadline
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "ResiliencePolicy":
        if not isinstance(doc, Mapping):
            raise FaultPlanError(
                f"policy must be a mapping, got {type(doc).__name__}"
            )
        known = {"name", "retry", "deadline"}
        unknown = set(doc) - known
        if unknown:
            raise FaultPlanError(
                f"policy: unknown fields {sorted(unknown)} "
                f"(expected a subset of {sorted(known)})"
            )

        def _block(key: str, fields: tuple[str, ...]) -> dict[str, Any]:
            block = doc.get(key, {})
            if not isinstance(block, Mapping):
                raise FaultPlanError(
                    f"policy.{key} must be a mapping, "
                    f"got {type(block).__name__}"
                )
            bad = set(block) - set(fields)
            if bad:
                raise FaultPlanError(
                    f"policy.{key}: unknown fields {sorted(bad)}"
                )
            return dict(block)

        try:
            retry = RetryPolicy(
                **_block("retry", ("max_attempts", "backoff_s", "backoff_factor"))
            )
            deadline = DeadlinePolicy(
                **_block("deadline", ("send_timeout_s", "recv_timeout_s"))
            )
        except ConfigurationError as exc:
            raise FaultPlanError(f"policy: {exc}") from exc
        return cls(retry=retry, deadline=deadline, name=str(doc.get("name", "")))


DEFAULT_POLICY = ResiliencePolicy(name="default")


def retry_of(policy: "RetryPolicy | ResiliencePolicy | None") -> RetryPolicy:
    """Normalize either policy flavour to its retry block."""
    if policy is None:
        return DEFAULT_RETRY_POLICY
    if isinstance(policy, ResiliencePolicy):
        return policy.retry
    return policy


def deadline_of(
    policy: "RetryPolicy | ResiliencePolicy | None",
) -> DeadlinePolicy:
    """Normalize either policy flavour to its deadline block."""
    if isinstance(policy, ResiliencePolicy):
        return policy.deadline
    return DeadlinePolicy()


def load_policy(path: str | Path) -> ResiliencePolicy:
    """Read and validate a JSON resilience policy file."""
    policy = ResiliencePolicy.from_dict(
        read_json(path, "policy", FaultPlanError)
    )
    if not policy.name:
        policy = dataclasses.replace(policy, name=Path(path).stem)
    return policy


def describe_policy(policy: ResiliencePolicy) -> str:
    """One-screen human-readable policy summary."""
    retry, deadline = policy.retry, policy.deadline
    backoffs = ", ".join(
        f"{retry.backoff_for(a):g}s"
        for a in range(1, min(retry.max_attempts, 4))
    )
    lines = [
        f"policy {policy.name or '(unnamed)'}:",
        f"  retry: {retry.max_attempts} attempts, "
        f"backoff {retry.backoff_s:g}s x{retry.backoff_factor:g}"
        + (f" ({backoffs}, ...)" if backoffs else ""),
        "  deadline: "
        + ", ".join(
            f"{kind}="
            + ("none" if value is None else f"{value:g}s")
            for kind, value in (
                ("send", deadline.send_timeout_s),
                ("recv", deadline.recv_timeout_s),
            )
        ),
    ]
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    """``python -m repro.faults policy <show|validate> [FILE|--default]``"""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.faults policy",
        description="Inspect and validate JSON resilience policies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_show = sub.add_parser("show", help="parse a policy and print it")
    p_show.add_argument("file", nargs="?", default=None)
    p_show.add_argument("--default", action="store_true",
                        help="show the built-in default policy")
    p_val = sub.add_parser("validate", help="exit 0 iff the file parses")
    p_val.add_argument("file")
    args = parser.parse_args(argv)

    if args.command == "show":
        if args.default or args.file is None:
            policy = DEFAULT_POLICY
        else:
            try:
                policy = load_policy(args.file)
            except FaultPlanError as exc:
                print(f"invalid policy: {exc}", file=sys.stderr)
                return 1
        print(describe_policy(policy))
        return 0
    try:
        policy = load_policy(args.file)
    except FaultPlanError as exc:
        print(f"invalid policy: {exc}", file=sys.stderr)
        return 1
    print(f"ok: {describe_policy(policy)}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    raise SystemExit(main())
