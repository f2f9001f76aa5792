"""Cost-model calibration: predicted vs observed, per phase and kernel.

The analytic cost model (:mod:`repro.cluster.costs` +
:mod:`repro.cluster.platform`) predicts how long every kernel charge and
message transfer *should* take; the tracer records how long each one
*did* take.  This module replays a traced run through the model and
reports the disagreement:

- every ``kernel``-category span becomes a compute sample — predicted
  seconds from ``processor(rank).compute_seconds(mflops)``, observed
  seconds from the span interval;
- every unified transfer (one per message, via the happens-before DAG)
  becomes a transfer sample — predicted from
  ``network.transfer_seconds(src, dst, megabits)``, observed from the
  transfer interval (queueing waits are excluded by construction: the
  engine records them as idle time *before* the span).

A least-squares scale is fitted separately for compute and transfer
(``α = Σp·o / Σp²`` — the single factor that best maps model seconds to
observed seconds), then residual relative errors are aggregated per
kernel, per link, and per algorithm phase.  On the virtual-time backend
observed *is* the model, so every error is ~0 and the fitted scales are
exactly 1 — that invariant is what the CI gate pins.  On the wall-clock
backend the scales absorb the model's 1997-era cycle-times and the
residuals measure how well the model's *shape* matches the machine:
``median_phase_rel_error`` is the single gateable drift number.

This module owns the committed baseline
``benchmarks/baselines/calibration.json``, which holds only the gate
thresholds: :func:`calibration_gate` checks a calibration against them.

CLI::

    python -m repro profile analyze trace.jsonl \\
        --platform "fully heterogeneous" [--json calib.json]
    python -m repro profile gate calib.json \\
        --baseline benchmarks/baselines/calibration.json --backend sim
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.cluster.platform import HeterogeneousPlatform
from repro.errors import ConfigurationError
from repro.obs.analyze import EnclosingOps, original_rank_lookup
from repro.obs.dag import build_dag
from repro.obs.export import canonical_json, spans_of, write_json
from repro.obs.health import relative_error

__all__ = [
    "SCHEMA",
    "GATE_SCHEMA",
    "OpSample",
    "GroupCalibration",
    "CalibrationReport",
    "GateResult",
    "profile_trace",
    "calibration_gate",
]

SCHEMA = "repro.obs.profile/1"
GATE_SCHEMA = "repro.obs.profile.gate/1"

_WORST_N = 5


def _round(value: float, digits: int = 9) -> float:
    return round(float(value), digits)


@dataclasses.dataclass(frozen=True)
class OpSample:
    """One profiled operation replayed through the cost model.

    Attributes:
        kind: ``"compute"`` (a kernel charge) or ``"transfer"``.
        name: kernel name, or the transfer's link label.
        rank: the charged rank (the *receiver* for transfers, matching
            the critical-path attribution convention).
        phase: deepest enclosing ``phase`` span at the op's start, or
            ``"<unattributed>"``.
        predicted_s: raw model seconds (before scale fitting).
        observed_s: traced seconds.
    """

    kind: str
    name: str
    rank: int
    phase: str
    predicted_s: float
    observed_s: float

    def scaled_rel_error(self, scale: float) -> float:
        return relative_error(scale * self.predicted_s, self.observed_s)


@dataclasses.dataclass(frozen=True)
class GroupCalibration:
    """Aggregated fit quality for one kernel / link / phase.

    ``predicted_s`` totals are *scaled* model seconds (after the fitted
    compute/transfer scales), so ``rel_error`` measures residual shape
    mismatch, not unit mismatch.
    """

    name: str
    count: int
    predicted_s: float
    observed_s: float
    rel_error: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "count": self.count,
            "predicted_s": _round(self.predicted_s),
            "observed_s": _round(self.observed_s),
            "rel_error": _round(self.rel_error),
        }


@dataclasses.dataclass(frozen=True)
class GateResult:
    """Outcome of checking a calibration against committed thresholds."""

    backend: str
    threshold: float
    median_phase_rel_error: float
    passed: bool

    def to_text(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"calibration gate [{self.backend}]: {verdict} — "
            f"median per-phase model error "
            f"{self.median_phase_rel_error:.3e} "
            f"{'<=' if self.passed else '>'} threshold {self.threshold:.3e}"
        )


@dataclasses.dataclass
class CalibrationReport:
    """Predicted-vs-observed calibration of a traced run.

    Attributes:
        platform: platform name the model was evaluated on.
        compute_scale, transfer_scale: fitted least-squares scales
            mapping model seconds to observed seconds (1.0 on sim).
        kernels, links, phases: per-group residuals, sorted by name.
        worst_ops: the individual samples with the largest scaled
            relative error — the worst-offending operations.
        samples: every profiled op (not serialized; kept for drill-in).
    """

    platform: str
    compute_scale: float
    transfer_scale: float
    kernels: tuple[GroupCalibration, ...]
    links: tuple[GroupCalibration, ...]
    phases: tuple[GroupCalibration, ...]
    worst_ops: tuple[tuple[OpSample, float], ...]
    samples: tuple[OpSample, ...] = dataclasses.field(repr=False, default=())

    @property
    def n_compute(self) -> int:
        return sum(1 for s in self.samples if s.kind == "compute")

    @property
    def n_transfer(self) -> int:
        return sum(1 for s in self.samples if s.kind == "transfer")

    @property
    def median_phase_rel_error(self) -> float:
        """The gateable drift number: median residual across phases."""
        if not self.phases:
            return 0.0
        return statistics.median(p.rel_error for p in self.phases)

    @property
    def max_phase_rel_error(self) -> float:
        if not self.phases:
            return 0.0
        return max(p.rel_error for p in self.phases)

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": SCHEMA,
            "platform": self.platform,
            "compute_scale": _round(self.compute_scale),
            "transfer_scale": _round(self.transfer_scale),
            "n_compute": self.n_compute,
            "n_transfer": self.n_transfer,
            "median_phase_rel_error": _round(self.median_phase_rel_error),
            "max_phase_rel_error": _round(self.max_phase_rel_error),
            "kernels": [g.to_dict() for g in self.kernels],
            "links": [g.to_dict() for g in self.links],
            "phases": [g.to_dict() for g in self.phases],
            "worst_ops": [
                {
                    "kind": s.kind,
                    "name": s.name,
                    "rank": s.rank,
                    "phase": s.phase,
                    "predicted_s": _round(s.predicted_s),
                    "observed_s": _round(s.observed_s),
                    "rel_error": _round(err),
                }
                for s, err in self.worst_ops
            ],
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict()).rstrip("\n")

    def to_text(self) -> str:
        lines = [
            f"cost-model calibration — {self.platform}",
            f"  compute scale {self.compute_scale:.6g} "
            f"({self.n_compute} kernel charges)   "
            f"transfer scale {self.transfer_scale:.6g} "
            f"({self.n_transfer} transfers)",
            f"  median per-phase model error "
            f"{self.median_phase_rel_error:.3e}   "
            f"max {self.max_phase_rel_error:.3e}",
            "",
            f"  {'phase':<28} {'ops':>5} {'model s':>12} "
            f"{'observed s':>12} {'rel err':>9}",
        ]
        for group in self.phases:
            lines.append(
                f"  {group.name:<28} {group.count:>5} "
                f"{group.predicted_s:>12.6f} {group.observed_s:>12.6f} "
                f"{group.rel_error:>9.2e}"
            )
        lines += [
            "",
            f"  {'kernel':<28} {'ops':>5} {'model s':>12} "
            f"{'observed s':>12} {'rel err':>9}",
        ]
        for group in self.kernels:
            lines.append(
                f"  {group.name:<28} {group.count:>5} "
                f"{group.predicted_s:>12.6f} {group.observed_s:>12.6f} "
                f"{group.rel_error:>9.2e}"
            )
        if self.links:
            lines += [
                "",
                f"  {'link':<28} {'ops':>5} {'model s':>12} "
                f"{'observed s':>12} {'rel err':>9}",
            ]
            for group in self.links:
                lines.append(
                    f"  {group.name:<28} {group.count:>5} "
                    f"{group.predicted_s:>12.6f} {group.observed_s:>12.6f} "
                    f"{group.rel_error:>9.2e}"
                )
        if self.worst_ops:
            lines += ["", "  worst-offending operations:"]
            for sample, err in self.worst_ops:
                lines.append(
                    f"    {sample.kind:<8} {sample.name:<24} r{sample.rank} "
                    f"in {sample.phase}: model {sample.predicted_s:.6f}s "
                    f"observed {sample.observed_s:.6f}s "
                    f"(rel err {err:.2e})"
                )
        return "\n".join(lines)


def _fit_scale(samples: Sequence[OpSample]) -> float:
    """Least-squares ``α`` minimizing ``Σ (o - α·p)²`` — 1.0 if empty."""
    sum_pp = sum(s.predicted_s * s.predicted_s for s in samples)
    if sum_pp <= 0.0:
        return 1.0
    return sum(s.predicted_s * s.observed_s for s in samples) / sum_pp


def _aggregate(
    samples: Sequence[tuple[str, OpSample]], scale_of: Mapping[str, float]
) -> tuple[GroupCalibration, ...]:
    groups: dict[str, list[OpSample]] = {}
    for key, sample in samples:
        groups.setdefault(key, []).append(sample)
    out = []
    for name in sorted(groups):
        members = groups[name]
        predicted = sum(scale_of[s.kind] * s.predicted_s for s in members)
        observed = sum(s.observed_s for s in members)
        out.append(
            GroupCalibration(
                name=name,
                count=len(members),
                predicted_s=predicted,
                observed_s=observed,
                rel_error=relative_error(predicted, observed),
            )
        )
    return tuple(out)


def profile_trace(
    source: Any, platform: HeterogeneousPlatform
) -> CalibrationReport:
    """Replay a traced run through ``platform``'s cost model.

    Args:
        source: an obs session / tracer / span sequence (``spans_of``).
        platform: the platform the run executed on (or, for wall-clock
            runs, the platform whose model is being calibrated).

    Raises:
        ConfigurationError: if the trace carries no kernel spans or
            transfers — nothing to calibrate against.
    """
    spans = spans_of(source)
    enclosing = EnclosingOps(spans, ("phase",))
    network = platform.network
    original_rank = original_rank_lookup(spans)

    samples: list[OpSample] = []
    for span in spans:
        if span.category != "kernel":
            continue
        mflops = float(span.attrs.get("mflops", 0.0))
        orig = original_rank(span.rank, span.start)
        samples.append(
            OpSample(
                kind="compute",
                name=str(span.attrs.get("kernel", span.name)),
                rank=orig,
                phase=enclosing.at(span.rank, span.start),
                predicted_s=platform.processor(orig).compute_seconds(mflops),
                observed_s=span.duration,
            )
        )
    for node in build_dag(spans).transfers():
        src = original_rank(node.src, node.start)
        dst = original_rank(node.dst, node.start)
        samples.append(
            OpSample(
                kind="transfer",
                name=node.link or f"pair:{src}~{dst}",
                rank=dst,
                phase=enclosing.at(node.dst, node.start),
                predicted_s=network.transfer_seconds(src, dst, node.megabits),
                observed_s=node.duration,
            )
        )
    if not samples:
        raise ConfigurationError(
            "nothing to calibrate: the trace has no kernel spans or "
            "transfers (run with an obs session on instrumented code)"
        )

    scale_of = {
        "compute": _fit_scale([s for s in samples if s.kind == "compute"]),
        "transfer": _fit_scale([s for s in samples if s.kind == "transfer"]),
    }
    ranked = sorted(
        samples,
        key=lambda s: (-s.scaled_rel_error(scale_of[s.kind]), s.name, s.rank),
    )
    return CalibrationReport(
        platform=platform.name,
        compute_scale=scale_of["compute"],
        transfer_scale=scale_of["transfer"],
        kernels=_aggregate(
            [(s.name, s) for s in samples if s.kind == "compute"], scale_of
        ),
        links=_aggregate(
            [(s.name, s) for s in samples if s.kind == "transfer"], scale_of
        ),
        phases=_aggregate([(s.phase, s) for s in samples], scale_of),
        worst_ops=tuple(
            (s, s.scaled_rel_error(scale_of[s.kind]))
            for s in ranked[:_WORST_N]
        ),
        samples=tuple(samples),
    )


def calibration_gate(
    median_phase_rel_error: float,
    baseline: Mapping[str, Any],
    backend: str,
) -> GateResult:
    """Check a calibration's drift number against committed thresholds.

    Args:
        median_phase_rel_error: the number under test (from a
            :class:`CalibrationReport` or its serialized dict).
        baseline: parsed ``calibration.json`` —
            ``{"schema": ..., "max_median_phase_rel_error":
            {"sim": ..., "inproc": ...}}``.
        backend: which threshold applies.
    """
    schema = baseline.get("schema")
    if schema != GATE_SCHEMA:
        raise ConfigurationError(
            f"unsupported calibration baseline schema {schema!r} "
            f"(expected {GATE_SCHEMA!r})"
        )
    thresholds = baseline.get("max_median_phase_rel_error", {})
    if backend not in thresholds:
        raise ConfigurationError(
            f"baseline has no threshold for backend {backend!r} "
            f"(has: {sorted(thresholds)})"
        )
    threshold = float(thresholds[backend])
    return GateResult(
        backend=backend,
        threshold=threshold,
        median_phase_rel_error=float(median_phase_rel_error),
        passed=float(median_phase_rel_error) <= threshold,
    )


# -- CLI ---------------------------------------------------------------------


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.obs.export import read_jsonl
    from repro.obs.whatif import trace_platform

    spans = read_jsonl(args.trace).spans
    report = profile_trace(spans, trace_platform(spans, args.platform))
    if args.json:
        write_json(args.json, report.to_dict())
    print(report.to_text())
    return 0


def _cmd_gate(args: argparse.Namespace) -> int:
    calib = json.loads(Path(args.calibration).read_text(encoding="utf-8"))
    if calib.get("schema") != SCHEMA:
        raise ConfigurationError(
            f"unsupported calibration schema {calib.get('schema')!r} "
            f"(expected {SCHEMA!r})"
        )
    baseline = json.loads(Path(args.baseline).read_text(encoding="utf-8"))
    result = calibration_gate(
        calib["median_phase_rel_error"], baseline, args.backend
    )
    print(result.to_text())
    return 0 if result.passed else 1


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro profile",
        description="Calibrate the analytic cost model against a trace.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser(
        "analyze", help="replay a JSONL trace through the cost model"
    )
    analyze.add_argument("trace", help="JSONL trace file")
    analyze.add_argument(
        "--platform",
        default="fully heterogeneous",
        help="platform preset name (default: %(default)s)",
    )
    analyze.add_argument(
        "--json", default=None, help="also write the calibration JSON here"
    )
    analyze.set_defaults(func=_cmd_analyze)

    gate = sub.add_parser(
        "gate", help="fail if the drift number exceeds the committed threshold"
    )
    gate.add_argument("calibration", help="calibration JSON (from analyze)")
    gate.add_argument(
        "--baseline",
        default="benchmarks/baselines/calibration.json",
        help="committed thresholds (default: %(default)s)",
    )
    gate.add_argument(
        "--backend", choices=("sim", "inproc"), default="sim",
        help="which threshold applies (default: %(default)s)",
    )
    gate.set_defaults(func=_cmd_gate)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
