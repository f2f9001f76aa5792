"""Causal (virtual-speedup) profiling of recorded traces.

A flat profile answers "where did the time go"; a *causal* profile
answers "what would speeding this up actually buy".  The two disagree
whenever work is off the critical path: a rank can burn 40% of the
total compute seconds and still be worth nothing, because shaving it
only grows its slack.

Following the Coz idea, each candidate *subject* — a rank, a charged
kernel class, or a network link — gets a counterfactual: replay the
trace's happens-before DAG through the platform cost model with that
subject sped up by ``k%`` (:mod:`repro.obs.whatif` replay, engine-exact
on sim traces) and record the end-to-end makespan change.  The profile
ranks subjects by that *predicted gain*, alongside their flat self-time
share and their DAG slack (from :func:`repro.obs.dag.node_slack`) so
the three views can be compared directly: high self-time + high slack +
zero gain is the classic off-critical-path signature.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping

from repro.cluster.platform import HeterogeneousPlatform
from repro.errors import ConfigurationError
from repro.obs.dag import build_dag, node_slack
from repro.obs.export import canonical_json
from repro.obs.provenance import provenance
from repro.cluster.perturb import (
    LatencyScale,
    LinkScale,
    OpClassScale,
    RankComputeScale,
    TimingPerturbation,
)
from repro.obs.whatif import replay, replay_ops_from_trace

__all__ = [
    "CausalEntry",
    "CausalProfile",
    "causal_profile",
    "CAUSAL_SCHEMA",
]

CAUSAL_SCHEMA = "repro.obs.causal/1"


@dataclasses.dataclass(frozen=True)
class CausalEntry:
    """One subject's counterfactual.

    Attributes:
        subject: ``"rank:3"``, ``"op:osp_scores"``, ``"link:s1|s4"``,
            ``"link:intra:s2"`` or ``"latency"``.
        gain_pct: predicted end-to-end makespan reduction (percent)
            when the subject is sped up by the profile's
            ``speedup_pct``.
        self_s: the subject's flat busy seconds in the baseline replay.
        self_pct: ``self_s`` as a share of the baseline makespan.
    """

    subject: str
    gain_pct: float
    self_s: float
    self_pct: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "subject": self.subject,
            "gain_pct": self.gain_pct,
            "self_s": self.self_s,
            "self_pct": self.self_pct,
        }


def _subject_perturbation(subject: str, factor: float) -> TimingPerturbation:
    """The perturbation that speeds ``subject`` up."""
    kind, _, detail = subject.partition(":")
    if kind == "rank":
        return RankComputeScale(rank=int(detail), factor=factor)
    if kind == "op":
        return OpClassScale(op=detail, factor=factor)
    if kind == "link":
        if detail.startswith("intra:"):
            seg = detail.split(":", 1)[1]
            return LinkScale(segment_a=seg, segment_b=seg, factor=factor)
        a, _, b = detail.partition("|")
        return LinkScale(segment_a=a, segment_b=b, factor=factor)
    if subject == "latency":
        return LatencyScale(factor=factor)
    raise ConfigurationError(f"unknown causal subject {subject!r}")


@dataclasses.dataclass(frozen=True)
class CausalProfile:
    """A ranked virtual-speedup profile plus the DAG slack summary."""

    speedup_pct: float
    baseline_makespan_s: float
    entries: tuple[CausalEntry, ...]
    rank_slack_s: Mapping[int, float]
    critical_fraction: float

    def top(self, kind: str | None = None) -> CausalEntry | None:
        """The highest-gain entry, optionally restricted to one subject
        kind (``"rank"`` / ``"op"`` / ``"link"``)."""
        for entry in self.entries:
            if kind is None or entry.subject.startswith(f"{kind}:"):
                return entry
        return None

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": CAUSAL_SCHEMA,
            "speedup_pct": self.speedup_pct,
            "baseline_makespan_s": self.baseline_makespan_s,
            "entries": [e.to_dict() for e in self.entries],
            "rank_slack_s": {
                str(r): s for r, s in sorted(self.rank_slack_s.items())
            },
            "critical_fraction": self.critical_fraction,
            "provenance": provenance(),
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict()).rstrip("\n")

    def to_text(self, top: int = 12) -> str:
        lines = [
            f"causal profile — virtual speedup {self.speedup_pct:g}%, "
            f"baseline makespan {self.baseline_makespan_s:.6f}s, "
            f"{self.critical_fraction * 100.0:.1f}% of activity time "
            "critical",
            f"{'subject':<24} {'gain %':>8} {'self s':>10} {'self %':>8}",
        ]
        for entry in self.entries[:top]:
            lines.append(
                f"{entry.subject:<24} {entry.gain_pct:>8.3f} "
                f"{entry.self_s:>10.6f} {entry.self_pct:>8.2f}"
            )
        return "\n".join(lines)


def causal_profile(
    source: Any,
    platform: HeterogeneousPlatform,
    speedup_pct: float = 10.0,
) -> CausalProfile:
    """Virtual-speedup profile of a recorded trace.

    Subjects are every rank with compute time, every non-empty kernel
    class, every link with transfer time, and the global message
    latency.  Each is replayed once at ``factor = 1 - speedup_pct/100``
    and ranked by predicted makespan gain (ties broken by subject name
    for deterministic output).
    """
    if not 0 < speedup_pct < 100:
        raise ConfigurationError(
            f"speedup_pct must be in (0, 100), got {speedup_pct}"
        )
    ops, _meta = replay_ops_from_trace(source)
    baseline = replay(ops, platform)
    base = baseline.makespan
    factor = 1.0 - speedup_pct / 100.0

    subjects: list[tuple[str, float]] = []  # (subject, self seconds)
    for rank in sorted(baseline.rank_compute_s):
        subjects.append((f"rank:{rank}", baseline.rank_compute_s[rank]))
    for label in sorted(baseline.op_compute_s):
        if label:
            subjects.append((f"op:{label}", baseline.op_compute_s[label]))
    for link in sorted(baseline.link_busy_s):
        subjects.append((f"link:{link}", baseline.link_busy_s[link]))
    if baseline.link_busy_s:
        subjects.append(
            ("latency", sum(baseline.link_busy_s.values()))
        )

    entries: list[CausalEntry] = []
    for name, self_s in subjects:
        plan = (_subject_perturbation(name, factor),)
        makespan = replay(ops, platform, plan=plan).makespan
        entries.append(CausalEntry(
            subject=name,
            gain_pct=(
                100.0 * (base - makespan) / base if base > 0 else 0.0
            ),
            self_s=self_s,
            self_pct=(100.0 * self_s / base) if base else 0.0,
        ))
    entries.sort(key=lambda e: (-e.gain_pct, e.subject))

    # DAG slack summary from the *recorded* timeline (exact on sim).
    dag = build_dag(source)
    slack = node_slack(dag)
    rank_slack: dict[int, float] = {}
    critical_s = 0.0
    total_s = 0.0
    for key, node in dag.nodes.items():
        total_s += node.duration
        if slack[key] <= 1e-12:
            critical_s += node.duration
        for rank in node.ranks:
            rank_slack[rank] = max(rank_slack.get(rank, 0.0), 0.0)
        if not node.is_transfer:
            rank = node.ranks[0]
            rank_slack[rank] = rank_slack.get(rank, 0.0) + slack[key]
    return CausalProfile(
        speedup_pct=float(speedup_pct),
        baseline_makespan_s=base,
        entries=tuple(entries),
        rank_slack_s=rank_slack,
        critical_fraction=(critical_s / total_s) if total_s else 0.0,
    )
