"""Deterministic cross-run trace diff: structure first, then timing.

Two traced runs of the same program should agree *structurally* — every
rank issues the same phases, collectives, kernel charges, and message
sequence in the same order — whether they ran on the virtual-time
engine, the wall-clock backend, or two different commits.  This module
checks that claim and, when structure matches, ranks where the time
went differently.

Alignment is per rank, in program order (a rank's comparable spans
sorted by tracer sequence number).  Comparable categories are
``phase``, ``mpi``, ``kernel``, and ``transfer`` — the ops both
backends record identically.  Sim-only ``compute``/``seq`` spans and
``fault`` spans are excluded, so a sim trace diffs cleanly against an
inproc trace of the same run, and a faulted run diffs against its
fault-free baseline (the injected *spans* are ignored; their *timing
consequences* are not).

Timing deltas are computed over leaf ops only (``kernel`` and
``transfer``): ``phase``/``mpi`` wrappers grow by exactly their
children's growth plus blocked time, so ranking them would double-count
and misattribute waits to the rank doing the waiting.  Each delta is
flagged if it overlaps the *candidate* run's critical path on its rank;
``dominant_rank`` sums on-path slowdowns per rank — on a seeded
slowdown plan it names the injected rank.

CLI (exit 1 on structural divergence)::

    python -m repro diff baseline.jsonl candidate.jsonl [--json out]
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Any, Sequence

from repro.errors import ConfigurationError
from repro.obs.export import canonical_json, spans_of, write_json
from repro.obs.trace import Span

__all__ = [
    "SCHEMA",
    "COMPARABLE_CATEGORIES",
    "DELTA_CATEGORIES",
    "StructuralDivergence",
    "SpanDelta",
    "TraceDiff",
    "diff_traces",
]

SCHEMA = "repro.obs.diff/1"

#: Categories both backends record identically, aligned in program order.
COMPARABLE_CATEGORIES = ("phase", "mpi", "kernel", "transfer")
#: Leaf categories whose durations are ranked (wrappers would double-count).
DELTA_CATEGORIES = ("kernel", "transfer")

#: Relative tolerance on transfer volumes: covers float round-tripping;
#: a genuinely different payload is a structural divergence.
_MEGABITS_RTOL = 1e-6


def _round(value: float, digits: int = 9) -> float:
    return round(float(value), digits)


def _describe(span: Span) -> str:
    """Human-readable structural identity of one op."""
    if span.category == "transfer":
        direction = span.attrs.get("direction", "?")
        peer = span.attrs.get("peer", "?")
        arrow = "->" if direction == "send" else "<-"
        return f"transfer {arrow}r{peer} {float(span.attrs.get('megabits', 0.0)):.6f}Mb"
    return f"{span.category} {span.name}"


def _structural_key(span: Span) -> tuple:
    """Identity compared across runs — everything but time and volume."""
    if span.category == "transfer":
        return (
            "transfer",
            span.attrs.get("direction"),
            span.attrs.get("peer"),
        )
    return (span.category, span.name)


def _megabits_match(a: Span, b: Span) -> bool:
    ma = float(a.attrs.get("megabits", 0.0))
    mb = float(b.attrs.get("megabits", 0.0))
    return abs(ma - mb) <= _MEGABITS_RTOL * max(abs(ma), abs(mb), 1.0)


@dataclasses.dataclass(frozen=True)
class StructuralDivergence:
    """The first point where one rank's op sequence stops matching.

    Attributes:
        rank: the diverging rank.
        index: 0-based position in the rank's comparable-op sequence
            (``-1`` for whole-rank divergences, e.g. a rank present in
            only one trace).
        baseline, candidate: what each run has at that position
            (``"<missing>"`` past the end of a shorter sequence).
    """

    rank: int
    index: int
    baseline: str
    candidate: str

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    def to_text(self) -> str:
        where = f"op {self.index}" if self.index >= 0 else "rank set"
        return (
            f"rank {self.rank} diverges at {where}: "
            f"baseline has {self.baseline}, candidate has {self.candidate}"
        )


@dataclasses.dataclass(frozen=True)
class SpanDelta:
    """Per-op timing change between two structurally equal runs."""

    rank: int
    index: int
    name: str
    baseline_s: float
    candidate_s: float
    on_critical_path: bool

    @property
    def delta_s(self) -> float:
        return self.candidate_s - self.baseline_s

    def to_dict(self) -> dict[str, Any]:
        return {
            "rank": self.rank,
            "index": self.index,
            "name": self.name,
            "baseline_s": _round(self.baseline_s),
            "candidate_s": _round(self.candidate_s),
            "delta_s": _round(self.delta_s),
            "on_critical_path": self.on_critical_path,
        }

    def to_text(self) -> str:
        mark = " [critical path]" if self.on_critical_path else ""
        return (
            f"r{self.rank} op {self.index} {self.name}: "
            f"{self.baseline_s:.6f}s -> {self.candidate_s:.6f}s "
            f"({self.delta_s:+.6f}s){mark}"
        )


@dataclasses.dataclass
class TraceDiff:
    """Outcome of diffing two traces.

    Attributes:
        structural: at most one divergence per rank (the first), empty
            when the runs are structurally equivalent.
        deltas: leaf-op timing deltas ranked by absolute change,
            largest first (empty unless structurally equivalent).
        dominant_rank: the rank whose on-critical-path ops slowed the
            most, or ``None`` when nothing slowed down.
    """

    n_ops: int
    structural: tuple[StructuralDivergence, ...]
    deltas: tuple[SpanDelta, ...]
    baseline_makespan: float
    candidate_makespan: float
    dominant_rank: int | None

    @property
    def equivalent(self) -> bool:
        return not self.structural

    @property
    def makespan_delta(self) -> float:
        return self.candidate_makespan - self.baseline_makespan

    @property
    def first_divergence(self) -> StructuralDivergence | None:
        if not self.structural:
            return None
        return min(self.structural, key=lambda d: (d.index, d.rank))

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": SCHEMA,
            "equivalent": self.equivalent,
            "n_ops": self.n_ops,
            "structural": [d.to_dict() for d in self.structural],
            "deltas": [d.to_dict() for d in self.deltas],
            "baseline_makespan": _round(self.baseline_makespan),
            "candidate_makespan": _round(self.candidate_makespan),
            "makespan_delta": _round(self.makespan_delta),
            "dominant_rank": self.dominant_rank,
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict()).rstrip("\n")

    def to_text(self, top: int = 10) -> str:
        lines = [
            f"trace diff over {self.n_ops} comparable ops: "
            + (
                "structurally equivalent"
                if self.equivalent
                else f"{len(self.structural)} rank(s) diverge"
            )
        ]
        for div in sorted(self.structural, key=lambda d: (d.index, d.rank)):
            lines.append("  " + div.to_text())
        if self.equivalent:
            lines.append(
                f"  makespan {self.baseline_makespan:.6f}s -> "
                f"{self.candidate_makespan:.6f}s "
                f"({self.makespan_delta:+.6f}s)"
            )
            if self.dominant_rank is not None:
                lines.append(
                    f"  dominant slowdown: rank {self.dominant_rank} "
                    f"(on-critical-path ops)"
                )
            shown = [d for d in self.deltas if d.delta_s != 0.0][:top]
            if shown:
                lines.append(f"  top timing deltas (of {len(self.deltas)}):")
                lines.extend("    " + d.to_text() for d in shown)
            else:
                lines.append("  no timing deltas")
        return "\n".join(lines)


def _comparable_by_rank(spans: Sequence[Span]) -> dict[int, list[Span]]:
    by_rank: dict[int, list[Span]] = {}
    for span in spans:
        if span.category in COMPARABLE_CATEGORIES:
            by_rank.setdefault(span.rank, []).append(span)
    for ops in by_rank.values():
        ops.sort(key=lambda s: s.seq)  # program order on this rank
    return by_rank


def _makespan(spans: Sequence[Span]) -> float:
    """Trace extent over executed work — ``fault`` spans excluded (an
    injected fault's *window* can extend far past the run)."""
    work = [s for s in spans if s.category != "fault"]
    if not work:
        return 0.0
    return max(s.end for s in work) - min(s.start for s in work)


def _critical_steps(spans: Sequence[Span]) -> list[Any]:
    from repro.obs.analyze import critical_path

    try:
        return list(critical_path(spans).steps)
    except ConfigurationError:
        return []


def _on_path(span: Span, steps: Sequence[Any]) -> bool:
    for step in steps:
        if span.rank in step.ranks and (
            span.start < step.end and step.start < span.end
        ):
            return True
    return False


def diff_traces(baseline: Any, candidate: Any) -> TraceDiff:
    """Diff two traces: structural equivalence, then ranked deltas.

    Args:
        baseline: the reference run (session / tracer / loaded trace /
            span sequence — anything ``spans_of`` accepts).
        candidate: the run under scrutiny (same forms).
    """
    base_spans = spans_of(baseline)
    cand_spans = spans_of(candidate)
    base_ops = _comparable_by_rank(base_spans)
    cand_ops = _comparable_by_rank(cand_spans)

    structural: list[StructuralDivergence] = []
    for rank in sorted(set(base_ops) - set(cand_ops)):
        structural.append(
            StructuralDivergence(
                rank=rank, index=-1,
                baseline=f"{len(base_ops[rank])} ops", candidate="<missing>",
            )
        )
    for rank in sorted(set(cand_ops) - set(base_ops)):
        structural.append(
            StructuralDivergence(
                rank=rank, index=-1,
                baseline="<missing>", candidate=f"{len(cand_ops[rank])} ops",
            )
        )

    aligned: list[tuple[int, int, Span, Span]] = []
    for rank in sorted(set(base_ops) & set(cand_ops)):
        b_seq, c_seq = base_ops[rank], cand_ops[rank]
        diverged = False
        for i, (b, c) in enumerate(zip(b_seq, c_seq)):
            if _structural_key(b) != _structural_key(c) or (
                b.category == "transfer"
                and not _megabits_match(b, c)
            ):
                structural.append(
                    StructuralDivergence(
                        rank=rank, index=i,
                        baseline=_describe(b), candidate=_describe(c),
                    )
                )
                diverged = True
                break
            aligned.append((rank, i, b, c))
        if not diverged and len(b_seq) != len(c_seq):
            i = min(len(b_seq), len(c_seq))
            structural.append(
                StructuralDivergence(
                    rank=rank, index=i,
                    baseline=(
                        _describe(b_seq[i]) if i < len(b_seq) else "<missing>"
                    ),
                    candidate=(
                        _describe(c_seq[i]) if i < len(c_seq) else "<missing>"
                    ),
                )
            )

    deltas: tuple[SpanDelta, ...] = ()
    dominant: int | None = None
    if not structural:
        steps = _critical_steps(cand_spans)
        raw = [
            SpanDelta(
                rank=rank,
                index=i,
                name=c.name,
                baseline_s=b.duration,
                candidate_s=c.duration,
                on_critical_path=_on_path(c, steps),
            )
            for rank, i, b, c in aligned
            if b.category in DELTA_CATEGORIES
        ]
        raw.sort(key=lambda d: (-abs(d.delta_s), d.rank, d.index))
        deltas = tuple(raw)
        slow_by_rank: dict[int, float] = {}
        for d in deltas:
            if d.on_critical_path and d.delta_s > 0:
                slow_by_rank[d.rank] = slow_by_rank.get(d.rank, 0.0) + d.delta_s
        if slow_by_rank:
            dominant = max(
                slow_by_rank, key=lambda r: (slow_by_rank[r], -r)
            )

    return TraceDiff(
        n_ops=len(aligned),
        structural=tuple(
            sorted(structural, key=lambda d: (d.rank, d.index))
        ),
        deltas=deltas,
        baseline_makespan=_makespan(base_spans),
        candidate_makespan=_makespan(cand_spans),
        dominant_rank=dominant,
    )


# -- CLI ---------------------------------------------------------------------
def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro diff",
        description=(
            "Diff two JSONL traces: exit 1 on structural divergence."
        ),
    )
    parser.add_argument("baseline", help="reference JSONL trace")
    parser.add_argument("candidate", help="JSONL trace under scrutiny")
    parser.add_argument(
        "--json", default=None, help="also write the diff JSON here"
    )
    args = parser.parse_args(argv)
    try:
        from repro.obs.export import read_jsonl

        diff = diff_traces(
            read_jsonl(args.baseline).spans, read_jsonl(args.candidate).spans
        )
    except (ConfigurationError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        write_json(args.json, diff.to_dict())
    print(diff.to_text())
    return 0 if diff.equivalent else 1
