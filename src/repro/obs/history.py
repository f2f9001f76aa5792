"""Longitudinal observability: the run ledger and its trend engine.

Every other ``repro.obs`` tool explains *one* run; this module keeps
the **trajectory**.  A run ledger — an append-only, schema-versioned
JSONL file (committed seed: ``benchmarks/history/ledger.jsonl``) —
ingests every benchmark cell, microbench kernel, calibration drift
number, chaos-sweep gate ratio, and live health summary, each entry
keyed by the provenance header the artifacts already carry.  On top of
it:

* **trend** — per-series robust statistics (median, MAD-sigma, EWMA
  drift, :class:`~repro.obs.sketch.LatencySketch` quantiles) plus an
  offline changepoint detector (binary segmentation minimising the L1
  cost around segment medians), so step-changes in a series are located
  and dated, not averaged away;
* **gate** — the repo's one regression rule.  A candidate is compared
  against a control band derived from its series' history: an exact
  (virtual-time) series bands on its last recorded value, so every
  recorded change re-baselines it; a noisy series bands on the MAD of
  its last stable segment; wall-clock values are reported, never
  gated.  A failing series names the first offending entry — and
  therefore the commit that introduced the step.  ``bench compare A B``
  is this gate over the one-run history ``entries_from_bench(A)``;
* **dashboard** — a self-contained fleet HTML page (sparkline
  timelines per series with changepoint markers and control bands,
  calibration-drift and sweep-gate strips, light/dark) sharing the
  run-report stylesheet; zero scripts, zero network assets.

Determinism rules (the ledger is part of the regression surface):
entry ``value`` fields hold virtual-time/deterministic quantities only;
anything measured on a wall clock is quarantined under the non-gated
``wall`` key.  Entries carry no record-time timestamps — ``run.date``
comes from the source artifact — so recording the same artifact twice
produces byte-identical lines, and serial vs ``--jobs N`` benchmark
runs append byte-identical ledgers.

Usage (``--ledger`` defaults to the committed seed)::

    python -m repro.obs.history --ledger L record --bench BENCH_x.json
    python -m repro.obs.history --ledger L list
    python -m repro.obs.history --ledger L trend [PREFIX ...]
    python -m repro.obs.history --ledger L gate --bench BENCH_y.json
    python -m repro.obs.history --ledger L dashboard --out fleet.html
"""

from __future__ import annotations

import argparse
import dataclasses
import html as _html
import json
import math
import os
import sys
import warnings
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.errors import ReproError
from repro.obs.export import canonical_json, write_json
from repro.obs.provenance import provenance
from repro.obs.sketch import LatencySketch

__all__ = [
    "HISTORY_SCHEMA",
    "GATE_SCHEMA",
    "TREND_SCHEMA",
    "DEFAULT_LEDGER",
    "LedgerEntry",
    "Ledger",
    "append_entries",
    "read_ledger",
    "entries_from_bench",
    "entries_from_microbench",
    "entries_from_calibration",
    "entries_from_sweep",
    "entries_from_health_summary",
    "entries_from_analysis",
    "Changepoint",
    "SeriesTrend",
    "series_trend",
    "changepoint_indices",
    "ControlBand",
    "control_band",
    "SeriesGate",
    "GateReport",
    "gate_entries",
    "gate_last",
    "conclude_gate",
    "record_entries",
    "render_dashboard",
    "write_dashboard",
    "main",
]

HISTORY_SCHEMA = "repro.obs.history/1"
GATE_SCHEMA = "repro.obs.history.gate/1"
TREND_SCHEMA = "repro.obs.history.trend/1"

#: The committed seed ledger every fresh checkout starts from.
DEFAULT_LEDGER = "benchmarks/history/ledger.jsonl"

#: Relative half-width of the control band for deterministic
#: (virtual-time) series: only genuine behaviour changes exceed it.
EXACT_RTOL = 1e-9
#: MAD-sigma multiplier for noisy series bands.
BAND_K_SIGMA = 4.0
#: Relative band floor for noisy series (absorbs wall jitter even when
#: the ledger has too few entries to estimate a spread).
NOISY_REL_FLOOR = 0.25


# -- ledger entries -----------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class LedgerEntry:
    """One measurement of one series.

    ``value`` is the gated metric and must be deterministic given the
    code (virtual seconds, exact ratios, counts).  Wall-clock
    measurements are quarantined under ``wall`` (by convention
    ``wall["value"]`` holds the series measurement) and are shown in
    trends but never gated.  ``direction`` states which way is worse:
    ``"lower"`` means lower-is-better (a rise regresses), ``"higher"``
    the opposite, ``"info"`` is never gated.
    """

    series: str
    kind: str  # bench | microbench | calibration | sweep | health | trace
    unit: str  # virtual_s | wall_s | ratio | rel_error | count
    direction: str = "lower"
    deterministic: bool = True
    value: float | None = None
    wall: dict[str, Any] | None = None
    run: dict[str, Any] = dataclasses.field(default_factory=dict)
    detail: dict[str, Any] = dataclasses.field(default_factory=dict)
    provenance: dict[str, str] | None = None

    def plot_value(self) -> float | None:
        """The trend/display measurement: the gated ``value`` when
        present, else the quarantined ``wall["value"]``."""
        if self.value is not None:
            return float(self.value)
        if self.wall and self.wall.get("value") is not None:
            return float(self.wall["value"])
        return None

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "type": "entry",
            "series": self.series,
            "kind": self.kind,
            "unit": self.unit,
            "direction": self.direction,
            "deterministic": self.deterministic,
            "value": self.value,
            "run": dict(self.run),
        }
        if self.wall is not None:
            doc["wall"] = dict(self.wall)
        if self.detail:
            doc["detail"] = dict(self.detail)
        if self.provenance is not None:
            doc["provenance"] = dict(self.provenance)
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "LedgerEntry":
        return cls(
            series=str(doc["series"]),
            kind=str(doc.get("kind", "bench")),
            unit=str(doc.get("unit", "virtual_s")),
            direction=str(doc.get("direction", "lower")),
            deterministic=bool(doc.get("deterministic", True)),
            value=None if doc.get("value") is None else float(doc["value"]),
            wall=dict(doc["wall"]) if doc.get("wall") else None,
            run=dict(doc.get("run") or {}),
            detail=dict(doc.get("detail") or {}),
            provenance=(
                dict(doc["provenance"]) if doc.get("provenance") else None
            ),
        )

    def describe_origin(self) -> str:
        """``git <sha7> (<date>)`` — how gate failures name an entry."""
        sha = (self.provenance or {}).get("git_sha", "unknown")
        date = self.run.get("date", "?")
        return f"git {sha[:12]} ({date})"


@dataclasses.dataclass(frozen=True)
class Ledger:
    """A read-back ledger: entries in append order."""

    path: Path | None
    entries: tuple[LedgerEntry, ...]

    def series(self) -> dict[str, list[LedgerEntry]]:
        """Series name -> entries in append (chronological) order."""
        out: dict[str, list[LedgerEntry]] = {}
        for entry in self.entries:
            out.setdefault(entry.series, []).append(entry)
        return out

    def __len__(self) -> int:
        return len(self.entries)


def append_entries(
    path: str | Path, entries: Iterable[LedgerEntry]
) -> int:
    """Append entries to the ledger at ``path`` (created, with its
    schema header line, if absent).  Returns the number appended."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    lines = []
    if not out.exists() or out.stat().st_size == 0:
        lines.append(
            canonical_json({"type": "header", "schema": HISTORY_SCHEMA})
        )
    n = 0
    for entry in entries:
        lines.append(canonical_json(entry.to_dict()))
        n += 1
    if lines:
        with out.open("a", encoding="utf-8") as fh:
            fh.write("".join(lines))
    return n


def read_ledger(path: str | Path) -> Ledger:
    """Load a ledger, tolerating entries without a provenance block
    (they predate the header, or came from a stripped artifact) with a
    single warning rather than a crash."""
    src = Path(path)
    entries: list[LedgerEntry] = []
    missing_provenance = 0
    header_seen = False
    for lineno, line in enumerate(
        src.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if not line.strip():
            continue
        obj = json.loads(line)
        kind = obj.get("type")
        if kind == "header":
            schema = obj.get("schema")
            if schema != HISTORY_SCHEMA:
                raise ReproError(
                    f"{src}:{lineno}: unsupported ledger schema {schema!r} "
                    f"(expected {HISTORY_SCHEMA!r})"
                )
            header_seen = True
        elif kind == "entry":
            entry = LedgerEntry.from_dict(obj)
            if entry.provenance is None:
                missing_provenance += 1
            entries.append(entry)
        else:
            raise ReproError(
                f"{src}:{lineno}: unknown ledger record type {kind!r}"
            )
    if not header_seen and entries:
        warnings.warn(
            f"{src}: ledger has no schema header (pre-{HISTORY_SCHEMA} "
            "file); entries accepted as-is",
            stacklevel=2,
        )
    if missing_provenance:
        warnings.warn(
            f"{src}: {missing_provenance} ledger entr"
            f"{'y' if missing_provenance == 1 else 'ies'} carry no "
            "provenance block; gate failures on them cannot name a commit",
            stacklevel=2,
        )
    return Ledger(path=src, entries=tuple(entries))


# -- artifact extractors ------------------------------------------------------

def _run_meta(doc: Mapping[str, Any], source: str,
              date: str | None = None) -> dict[str, Any]:
    meta: dict[str, Any] = {"source": source}
    stamp = date if date is not None else doc.get("date")
    if stamp is not None:
        meta["date"] = str(stamp)
    return meta


#: The benchmark-config fields that fix what one cell measures; runs
#: that differ only in the others — cell selectors, wall repeats, the
#: regression-injecting ``comm_factor`` — compare cell by cell.
_WORKLOAD_KEYS = ("rows", "cols", "bands", "seed", "n_targets", "n_classes")


def _workload_digest(config: Mapping[str, Any]) -> str:
    return " ".join(f"{key}={config.get(key)}" for key in _WORKLOAD_KEYS)


def entries_from_bench(
    artifact: Mapping[str, Any], date: str | None = None
) -> list[LedgerEntry]:
    """Ledger entries for a ``BENCH_*.json`` artifact: one
    ``bench/<cell>/makespan`` series per sim cell (virtual seconds,
    deterministic) and one quarantined ``bench/<cell>/wall_median``
    series per inproc cell.  ``run["config"]`` carries a digest of the
    artifact's workload, which the gate uses to refuse comparing
    different scenes (:func:`gate_entries`)."""
    prov = provenance()
    run = _run_meta(artifact, str(artifact.get("schema", "bench")), date)
    run["config"] = _workload_digest(artifact.get("config") or {})
    out: list[LedgerEntry] = []
    for cid in sorted(artifact.get("cells", {})):
        cell = artifact["cells"][cid]
        if cell.get("backend") == "sim":
            v = cell["virtual"]
            out.append(LedgerEntry(
                series=f"bench/{cid}/makespan",
                kind="bench", unit="virtual_s", direction="lower",
                deterministic=True, value=float(v["makespan"]),
                run=run,
                detail={
                    "com": v["com"], "seq": v["seq"], "par": v["par"],
                    "d_all": v["d_all"], "d_minus": v["d_minus"],
                    "label": cell.get("label"),
                },
                provenance=prov,
            ))
        else:
            w = cell["wall"]
            out.append(LedgerEntry(
                series=f"bench/{cid}/wall_median",
                kind="bench", unit="wall_s", direction="lower",
                deterministic=False, value=None,
                wall={"value": float(w["median"]),
                      "repeats": w.get("repeats")},
                run=run,
                detail={"label": cell.get("label")},
                provenance=prov,
            ))
    return out


def entries_from_microbench(
    artifact: Mapping[str, Any], date: str | None = None
) -> list[LedgerEntry]:
    """``microbench/<kernel>/speedup`` series — wall-derived ratios,
    quarantined (the committed speedup floors gate these; the ledger
    only trends them)."""
    prov = provenance()
    run = _run_meta(artifact, str(artifact.get("schema", "microbench")), date)
    out: list[LedgerEntry] = []
    for kernel in sorted(artifact.get("kernels", {})):
        rec = artifact["kernels"][kernel]
        out.append(LedgerEntry(
            series=f"microbench/{kernel}/speedup",
            kind="microbench", unit="ratio", direction="higher",
            deterministic=False, value=None,
            wall={"value": float(rec["speedup"]),
                  "fast_s": rec.get("fast_s"),
                  "reference_s": rec.get("reference_s")},
            run=run,
            detail={"verified": rec.get("verified"),
                    "detail": rec.get("detail")},
            provenance=prov,
        ))
    return out


def entries_from_calibration(
    doc: Mapping[str, Any],
    backend: str | None = None,
    date: str | None = None,
) -> list[LedgerEntry]:
    """Calibration drift series: the measured
    ``median_phase_rel_error`` of a :mod:`repro.obs.profile` report
    (``repro.obs.profile/1``)."""
    schema = str(doc.get("schema", ""))
    if schema != "repro.obs.profile/1":
        raise ReproError(
            f"unsupported calibration schema {schema!r} (expected "
            "repro.obs.profile/1)"
        )
    if backend is None:
        raise ReproError(
            "a calibration report needs an explicit backend "
            "('sim' or 'inproc') to name its series"
        )
    return [LedgerEntry(
        series=f"calibration/{backend}/median_phase_rel_error",
        kind="calibration", unit="rel_error", direction="lower",
        deterministic=backend == "sim",
        value=float(doc["median_phase_rel_error"]),
        run=_run_meta(doc, schema, date),
        detail={
            "compute_scale": doc.get("compute_scale"),
            "transfer_scale": doc.get("transfer_scale"),
            "max_phase_rel_error": doc.get("max_phase_rel_error"),
            "platform": doc.get("platform"),
        },
        provenance=provenance(),
    )]


def entries_from_sweep(
    doc: Mapping[str, Any], date: str | None = None
) -> list[LedgerEntry]:
    """Chaos-sweep ratios of a sweep result document
    (``repro.faults.sweep/1``): the measured worst prediction error
    and adaptive/predicted ratio over the grid, and how many cells
    adapted."""
    schema = str(doc.get("schema", ""))
    prov = provenance()
    out: list[LedgerEntry] = []
    if schema != "repro.faults.sweep/1":
        raise ReproError(
            f"unsupported sweep schema {schema!r} (expected "
            "repro.faults.sweep/1)"
        )
    name = str(doc.get("name", "sweep"))
    run = _run_meta(doc, schema, date)
    cells = doc.get("cells", [])
    errors = [c["prediction_rel_error"] for c in cells
              if c.get("prediction_rel_error") is not None]
    ratios = [c["ratio_vs_predicted"] for c in cells
              if c.get("ratio_vs_predicted") is not None]
    summary = doc.get("summary", {})
    out.append(LedgerEntry(
        series=f"sweep/{name}/max_prediction_rel_error",
        kind="sweep", unit="rel_error", direction="lower",
        deterministic=True, value=float(max(errors, default=0.0)),
        run=run, detail={"n_twin_cells": len(errors)}, provenance=prov,
    ))
    out.append(LedgerEntry(
        series=f"sweep/{name}/max_ratio_vs_predicted",
        kind="sweep", unit="ratio", direction="lower",
        deterministic=True, value=float(max(ratios, default=0.0)),
        run=run, detail={"n_ratio_cells": len(ratios)}, provenance=prov,
    ))
    out.append(LedgerEntry(
        series=f"sweep/{name}/adapted_cells",
        kind="sweep", unit="count", direction="higher",
        deterministic=True,
        value=float(summary.get("n_adapted", 0)),
        run=run,
        detail={"n_cells": summary.get("n_cells"),
                "n_result_equal": summary.get("n_result_equal")},
        provenance=prov,
    ))
    return out


def entries_from_health_summary(
    doc: Mapping[str, Any], date: str | None = None
) -> list[LedgerEntry]:
    """Live health summary (``repro.obs.live.summary/1``): how many
    grid cells flagged drift, and the total online event count."""
    schema = str(doc.get("schema", ""))
    if schema != "repro.obs.live.summary/1":
        raise ReproError(
            f"unsupported health summary schema {schema!r} "
            "(expected repro.obs.live.summary/1)"
        )
    prov = provenance()
    run = _run_meta(doc, schema, date)
    cells = doc.get("cells", {})
    flagged = sum(
        1 for info in cells.values()
        if info.get("flagged_ranks") or info.get("flagged_links")
    )
    events = sum(int(info.get("n_events", 0)) for info in cells.values())
    return [
        LedgerEntry(
            series="health/flagged_cells",
            kind="health", unit="count", direction="lower",
            deterministic=True, value=float(flagged),
            run=run, detail={"n_cells": len(cells)}, provenance=prov,
        ),
        LedgerEntry(
            series="health/events",
            kind="health", unit="count", direction="lower",
            deterministic=True, value=float(events),
            run=run, detail={"n_cells": len(cells)}, provenance=prov,
        ),
    ]


def entries_from_analysis(
    doc: Mapping[str, Any],
    label: str,
    backend: str = "sim",
    date: str | None = None,
) -> list[LedgerEntry]:
    """Trace analysis headline numbers (``repro.obs.analyze/1``):
    critical-path length, makespan, and total blocked time of one
    traced run.  Virtual-time quantities gate; wall-clock backends are
    quarantined."""
    schema = str(doc.get("schema", ""))
    if schema != "repro.obs.analyze/1":
        raise ReproError(
            f"unsupported analysis schema {schema!r} "
            "(expected repro.obs.analyze/1)"
        )
    prov = provenance()
    run = _run_meta(doc, schema, date)
    cp = doc.get("critical_path", {})
    blocked = doc.get("blocked_time", {})
    deterministic = backend == "sim"
    out: list[LedgerEntry] = []
    for metric, val in (
        ("critical_path_s", cp.get("length_s")),
        ("makespan_s", cp.get("makespan")),
        ("blocked_s", blocked.get("total_blocked_s")),
    ):
        if val is None:
            continue
        out.append(LedgerEntry(
            series=f"trace/{label}/{metric}",
            kind="trace", unit="virtual_s" if deterministic else "wall_s",
            direction="lower", deterministic=deterministic,
            value=float(val) if deterministic else None,
            wall=None if deterministic else {"value": float(val)},
            run=run,
            detail={"dominant_rank": cp.get("dominant_rank")},
            provenance=prov,
        ))
    return out


# -- trend engine -------------------------------------------------------------

def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def _mad_sigma(values: Sequence[float]) -> float:
    """Robust spread: 1.4826 × median absolute deviation (consistent
    with the standard deviation under normal noise)."""
    if len(values) < 2:
        return 0.0
    center = _median(values)
    return 1.4826 * _median([abs(v - center) for v in values])


def _noise_sigma(values: Sequence[float]) -> float:
    """Noise level from first differences (``1.4826 × MAD(diff) / √2``):
    for a piecewise-constant series this estimates the *jitter*, not the
    step sizes, so the changepoint penalty scales with noise rather
    than with the very signal being detected."""
    diffs = [abs(b - a) for a, b in zip(values, values[1:])]
    if not diffs:
        return 0.0
    return 1.4826 * _median(diffs) / math.sqrt(2.0)


def _l1_cost(values: Sequence[float]) -> float:
    center = _median(values)
    return sum(abs(v - center) for v in values)


def changepoint_indices(
    values: Sequence[float],
    deterministic: bool = False,
    min_size: int = 1,
    max_changepoints: int = 8,
) -> list[int]:
    """Offline changepoint detection by binary segmentation.

    Greedily splits the series at the index that most reduces the
    summed L1 cost around segment medians, accepting a split only when
    the reduction exceeds a penalty; recursion stops when no split
    pays for itself or ``max_changepoints`` is reached.  Returns sorted
    split indices ``i`` (each segment is ``values[a:i]``/``values[i:b]``).

    The penalty scales with the series' robust noise level
    (first-difference MAD × ``log(n)``) with a tiny absolute floor, so
    a noisy wall series needs a step that clears its own jitter.  A
    ``deterministic`` virtual-time series has zero jitter by
    definition — on ``[a, b]`` the first difference *is* the step, not
    noise — so only the floor applies and *any* genuine step is
    reported.
    """
    n = len(values)
    if n < 2 * min_size:
        return []
    sigma = 0.0 if deterministic else _noise_sigma(values)
    penalty = max(
        2.0 * sigma * math.log(max(n, 2)),
        EXACT_RTOL * max(abs(_median(values)), 1.0),
    )

    segments: list[tuple[int, int]] = [(0, n)]
    splits: list[int] = []
    while len(splits) < max_changepoints:
        best: tuple[float, int, int] | None = None  # (gain, index, seg_pos)
        for pos, (a, b) in enumerate(segments):
            if b - a < 2 * min_size:
                continue
            base = _l1_cost(values[a:b])
            for i in range(a + min_size, b - min_size + 1):
                gain = base - _l1_cost(values[a:i]) - _l1_cost(values[i:b])
                if best is None or gain > best[0]:
                    best = (gain, i, pos)
        if best is None or best[0] <= penalty:
            break
        _, index, pos = best
        a, b = segments[pos]
        segments[pos:pos + 1] = [(a, index), (index, b)]
        splits.append(index)
    return sorted(splits)


@dataclasses.dataclass(frozen=True)
class Changepoint:
    """A detected step: the series shifted at ``index`` (first entry of
    the new regime)."""

    index: int
    before_median: float
    after_median: float
    origin: str  # describe_origin() of the first entry of the new segment

    @property
    def shift_pct(self) -> float:
        if not self.before_median:
            return 0.0 if not self.after_median else math.inf
        return 100.0 * (self.after_median - self.before_median) / abs(
            self.before_median
        )

    def to_dict(self) -> dict[str, Any]:
        shift = self.shift_pct
        return {
            "index": self.index,
            "before_median": self.before_median,
            "after_median": self.after_median,
            "shift_pct": None if math.isinf(shift) else shift,
            "origin": self.origin,
        }


@dataclasses.dataclass(frozen=True)
class SeriesTrend:
    """Robust longitudinal statistics for one series."""

    series: str
    kind: str
    unit: str
    direction: str
    deterministic: bool
    gated: bool
    values: tuple[float, ...]
    median: float
    mad_sigma: float
    ewma: float
    last: float
    quantiles: dict[str, float]
    changepoints: tuple[Changepoint, ...]
    segments: tuple[tuple[int, int, float], ...]  # (start, end, median)

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def drift_pct(self) -> float:
        """Last value vs the median of the current (last) segment."""
        center = self.segments[-1][2] if self.segments else self.median
        if not center:
            return 0.0
        return 100.0 * (self.last - center) / abs(center)

    def to_dict(self) -> dict[str, Any]:
        return {
            "series": self.series,
            "kind": self.kind,
            "unit": self.unit,
            "direction": self.direction,
            "deterministic": self.deterministic,
            "gated": self.gated,
            "n": self.n,
            "last": self.last,
            "median": self.median,
            "mad_sigma": self.mad_sigma,
            "ewma": self.ewma,
            "drift_pct": self.drift_pct,
            "quantiles": dict(self.quantiles),
            "changepoints": [c.to_dict() for c in self.changepoints],
            "segments": [list(s) for s in self.segments],
        }


def series_trend(
    series: str,
    entries: Sequence[LedgerEntry],
    ewma_alpha: float = 0.3,
) -> SeriesTrend | None:
    """Trend statistics over a series' entries (``None`` when no entry
    carries a plottable measurement)."""
    points = [
        (entry, entry.plot_value()) for entry in entries
        if entry.plot_value() is not None
    ]
    if not points:
        return None
    values = [v for _, v in points]  # type: ignore[misc]
    head = points[0][0]
    sketch = LatencySketch()
    ewma = values[0]
    for v in values:
        sketch.observe(max(v, 0.0))
        ewma = ewma_alpha * v + (1.0 - ewma_alpha) * ewma
    splits = changepoint_indices(values, deterministic=head.deterministic)
    bounds = [0, *splits, len(values)]
    segments = tuple(
        (a, b, _median(values[a:b]))
        for a, b in zip(bounds, bounds[1:])
    )
    changepoints = tuple(
        Changepoint(
            index=index,
            before_median=segments[k][2],
            after_median=segments[k + 1][2],
            origin=points[index][0].describe_origin(),
        )
        for k, index in enumerate(splits)
    )
    gated = head.value is not None and head.direction != "info"
    return SeriesTrend(
        series=series,
        kind=head.kind,
        unit=head.unit,
        direction=head.direction,
        deterministic=head.deterministic,
        gated=gated,
        values=tuple(values),
        median=_median(values),
        mad_sigma=_mad_sigma(values),
        ewma=ewma,
        last=values[-1],
        quantiles={
            "p10": sketch.quantile(0.10),
            "p50": sketch.quantile(0.50),
            "p90": sketch.quantile(0.90),
        },
        changepoints=changepoints,
        segments=segments,
    )


def ledger_trends(
    ledger: Ledger, prefixes: Sequence[str] = ()
) -> list[SeriesTrend]:
    """Trends for every series (optionally filtered by name prefix),
    sorted by series name."""
    out: list[SeriesTrend] = []
    for name, entries in sorted(ledger.series().items()):
        if prefixes and not any(name.startswith(p) for p in prefixes):
            continue
        trend = series_trend(name, entries)
        if trend is not None:
            out.append(trend)
    return out


# -- the regression gate ------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class ControlBand:
    """The acceptance interval derived from a series' current regime."""

    center: float
    lo: float
    hi: float
    n: int
    segment_start: int
    deterministic: bool

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


def control_band(trend: SeriesTrend) -> ControlBand:
    """The history-derived control band for one series.

    A deterministic series bands on its *last recorded value* within
    :data:`EXACT_RTOL`: every change of an exact value is a regime
    change, so recording a step once re-centres the band — what a
    one-entry baseline file always meant.  A noisy series uses the
    entries after its last changepoint: :data:`BAND_K_SIGMA` MAD-sigmas
    around their median, at least :data:`NOISY_REL_FLOOR` of it.
    """
    start, _end, center = trend.segments[-1]
    seg_values = trend.values[start:]
    if trend.deterministic:
        center = trend.last
        lo, hi = sorted(center * (1.0 + sign * EXACT_RTOL) for sign in (-1, 1))
    else:
        half = max(
            BAND_K_SIGMA * _mad_sigma(seg_values),
            NOISY_REL_FLOOR * abs(center),
        )
        lo, hi = center - half, center + half
    return ControlBand(
        center=center, lo=lo, hi=hi,
        n=len(seg_values), segment_start=start,
        deterministic=trend.deterministic,
    )


@dataclasses.dataclass(frozen=True)
class SeriesGate:
    """Gate outcome for one series."""

    series: str
    status: str  # ok | regression | improvement | new | skipped | missing
    candidate: float | None = None
    band: ControlBand | None = None
    offender: dict[str, Any] | None = None
    reason: str = ""  # why a series was skipped

    @property
    def delta_pct(self) -> float:
        if self.band is None or self.candidate is None or not self.band.center:
            return 0.0
        return 100.0 * (self.candidate - self.band.center) / abs(
            self.band.center
        )

    def describe(self) -> str:
        if self.band is None or self.candidate is None:
            why = f" ({self.reason})" if self.reason else ""
            return f"{self.status:<12} {self.series}{why}"
        line = (
            f"{self.status:<12} {self.series} "
            f"{self.candidate:.9g} vs band "
            f"[{self.band.lo:.9g}, {self.band.hi:.9g}] "
            f"(center {self.band.center:.9g}, n={self.band.n}, "
            f"{self.delta_pct:+.2f}%)"
        )
        if self.offender is not None:
            line += (
                f"\n    first offending entry: "
                f"#{self.offender['index']} [{self.offender['where']}] "
                f"{self.offender['origin']} — value "
                f"{self.offender['value']:.9g}"
            )
        return line

    def to_dict(self) -> dict[str, Any]:
        return {
            "series": self.series,
            "status": self.status,
            "candidate": self.candidate,
            "band": self.band.to_dict() if self.band else None,
            "delta_pct": self.delta_pct,
            "offender": self.offender,
            "reason": self.reason,
        }


@dataclasses.dataclass(frozen=True)
class GateReport:
    """The full gate verdict.  ``missing`` results (series of a
    baseline run the candidate run lacks) fail only under
    ``fail_on_missing``."""

    results: tuple[SeriesGate, ...]
    fail_on_missing: bool = False

    @property
    def failing(self) -> tuple[SeriesGate, ...]:
        return tuple(
            r for r in self.results if r.status == "regression"
            or (self.fail_on_missing and r.status == "missing")
        )

    @property
    def exit_status(self) -> int:
        return 1 if self.failing else 0

    @property
    def summary(self) -> dict[str, int]:
        statuses = [r.status for r in self.results]
        return {
            status: statuses.count(status)
            for status in ("ok", "regression", "improvement",
                           "new", "skipped", "missing")
        }

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": GATE_SCHEMA,
            "results": [r.to_dict() for r in self.results],
            "summary": self.summary,
            "failing": [r.series for r in self.failing],
            "exit_status": self.exit_status,
            "provenance": provenance(),
        }

    def to_text(self) -> str:
        lines = [r.describe() for r in self.results if r.status != "ok"]
        n = self.summary
        gated = len(self.results) - n["skipped"] - n["missing"]
        lines.append(
            f"{gated} series gated: {n['ok']} ok, {n['improvement']} "
            f"improved, {len(self.failing)} failing, {n['new']} new"
        )
        return "\n".join(lines)


def _find_offender(
    history: Sequence[LedgerEntry],
    trend: SeriesTrend,
    candidate_value: float,
    candidate_origin: str,
) -> dict[str, Any]:
    """Locate the first entry of the regime the failing candidate
    belongs to: append the candidate, re-run changepoint detection, and
    take the start of the segment containing the last index — on an
    exact series, the first entry of the trailing run that carries the
    candidate's value.  If the candidate opened the regime itself, it
    is its own offender — the step arrived with this run's commit."""
    values = [*trend.values, candidate_value]
    splits = changepoint_indices(values, deterministic=trend.deterministic)
    start = splits[-1] if splits else trend.n  # trend.n: the candidate
    in_ledger = start < trend.n
    return {
        "index": start,
        "where": "ledger" if in_ledger else "candidate",
        "origin": (
            history[start].describe_origin() if in_ledger
            else candidate_origin
        ),
        "value": values[start],
    }


def gate_entries(
    ledger: Ledger, candidates: Sequence[LedgerEntry]
) -> GateReport:
    """Gate candidate entries against history-derived control bands.

    Candidates whose series the ledger has never seen report ``new``
    (they pass — the next ``record`` starts their history).  Wall-
    quarantined and informational candidates report ``skipped``, and
    so does a candidate measured under a different benchmark config
    (``run["config"]``) than the series' latest entry: a 48-row scene
    is not a regression of a 384-row one.  A regression names the
    first offending entry/commit via :func:`_find_offender`.
    """
    by_series = ledger.series()
    results: list[SeriesGate] = []
    for candidate in candidates:
        name = candidate.series
        history = [
            e for e in by_series.get(name, []) if e.plot_value() is not None
        ]
        config = candidate.run.get("config")
        skip = ""
        if candidate.value is None:
            skip = "wall-clock: reported, not gated"
        elif candidate.direction == "info":
            skip = "informational"
        elif history and history[-1].run.get("config") != config:
            skip = (f"measured on config [{config}], the series is on "
                    f"[{history[-1].run.get('config')}]")
        if skip or not history:
            results.append(SeriesGate(
                series=name, status="skipped" if skip else "new", reason=skip
            ))
            continue
        trend = series_trend(name, history)
        assert trend is not None
        band = control_band(trend)
        value = float(candidate.value)
        worse, better = value > band.hi, value < band.lo
        if candidate.direction != "lower":
            worse, better = better, worse
        offender = None
        if worse:
            offender = _find_offender(
                history, trend, value, candidate.describe_origin()
            )
        results.append(SeriesGate(
            series=name,
            status=(
                "regression" if worse else "improvement" if better else "ok"
            ),
            candidate=value, band=band, offender=offender,
        ))
    return GateReport(results=tuple(results))


def gate_last(ledger: Ledger) -> GateReport:
    """Audit the ledger itself: treat each series' most recent entry as
    the candidate and the rest as history — how a doctored or regressed
    entry already *in* the ledger is caught and named."""
    history: list[LedgerEntry] = []
    candidates: list[LedgerEntry] = []
    for _name, entries in sorted(ledger.series().items()):
        plottable = [e for e in entries if e.plot_value() is not None]
        if len(plottable) >= 2:
            history.extend(plottable[:-1])
            candidates.append(plottable[-1])
    return gate_entries(
        Ledger(path=ledger.path, entries=tuple(history)), candidates
    )


# -- fleet dashboard ----------------------------------------------------------

_SPARK_W = 280
_SPARK_H = 44
_SPARK_PAD = 4

_DASH_CSS = """\
.viz-root .series-grid {
  display: grid; grid-template-columns: repeat(auto-fill, minmax(340px, 1fr));
  gap: 12px;
}
.viz-root .series-card {
  border: 1px solid var(--border); border-radius: 6px; padding: 10px 12px;
}
.viz-root .series-card .name {
  font-size: 12px; color: var(--text-secondary);
  word-break: break-all; margin-bottom: 4px;
}
.viz-root .series-card .latest {
  font-size: 18px; font-variant-numeric: tabular-nums;
}
.viz-root .series-card .meta {
  font-size: 11px; color: var(--text-muted); margin-top: 2px;
}
.viz-root .chip-ok, .viz-root .chip-step, .viz-root .chip-wall {
  display: inline-block; font-size: 10px; border-radius: 8px;
  padding: 1px 7px; margin-left: 6px; vertical-align: 2px;
}
.viz-root .chip-ok { background: var(--series-3); color: #fff; }
.viz-root .chip-step { background: var(--status-critical); color: #fff; }
.viz-root .chip-wall { background: var(--gridline); color: var(--text-secondary); }
.viz-root svg .spark-line {
  fill: none; stroke: var(--series-1); stroke-width: 1.5;
}
.viz-root svg .spark-line.nondet { stroke: var(--series-2); }
.viz-root svg .spark-band { fill: var(--series-3); fill-opacity: 0.15; }
.viz-root svg .spark-cp {
  stroke: var(--status-critical); stroke-width: 1; stroke-dasharray: 3 2;
}
.viz-root svg .spark-dot { fill: var(--series-1); }
.viz-root svg .spark-dot.nondet { fill: var(--series-2); }
"""


def _esc(text: Any) -> str:
    return _html.escape(str(text), quote=True)


def _fmt_value(value: float) -> str:
    return f"{value:.6g}"


def _sparkline_svg(trend: SeriesTrend) -> str:
    """An inline sparkline: the series polyline, the last-segment
    control band shaded, changepoints as dashed verticals, the latest
    point dotted."""
    values = trend.values
    n = len(values)
    lo = min(values)
    hi = max(values)
    band = control_band(trend)
    lo = min(lo, band.lo)
    hi = max(hi, band.hi)
    if hi <= lo:
        hi = lo + max(abs(lo), 1.0) * 1e-6
    span_x = _SPARK_W - 2 * _SPARK_PAD
    span_y = _SPARK_H - 2 * _SPARK_PAD

    def x_of(i: int) -> float:
        return _SPARK_PAD + (span_x * i / max(n - 1, 1))

    def y_of(v: float) -> float:
        return _SPARK_PAD + span_y * (1.0 - (v - lo) / (hi - lo))

    css = "" if trend.deterministic else " nondet"
    parts = [
        f'<svg viewBox="0 0 {_SPARK_W} {_SPARK_H}" width="{_SPARK_W}" '
        f'height="{_SPARK_H}" role="img" '
        f'aria-label="trend of {_esc(trend.series)}">'
    ]
    band_y0 = min(y_of(band.hi), y_of(band.lo))
    band_h = max(abs(y_of(band.lo) - y_of(band.hi)), 1.0)
    parts.append(
        f'<rect class="spark-band" x="{x_of(band.segment_start):.1f}" '
        f'y="{band_y0:.1f}" '
        f'width="{_SPARK_W - _SPARK_PAD - x_of(band.segment_start):.1f}" '
        f'height="{band_h:.1f}"/>'
    )
    for cp in trend.changepoints:
        x = x_of(cp.index)
        parts.append(
            f'<line class="spark-cp" x1="{x:.1f}" y1="{_SPARK_PAD}" '
            f'x2="{x:.1f}" y2="{_SPARK_H - _SPARK_PAD}"/>'
        )
    points = " ".join(
        f"{x_of(i):.1f},{y_of(v):.1f}" for i, v in enumerate(values)
    )
    if n == 1:
        parts.append(
            f'<circle class="spark-dot{css}" cx="{x_of(0):.1f}" '
            f'cy="{y_of(values[0]):.1f}" r="2.5"/>'
        )
    else:
        parts.append(f'<polyline class="spark-line{css}" points="{points}"/>')
        parts.append(
            f'<circle class="spark-dot{css}" cx="{x_of(n - 1):.1f}" '
            f'cy="{y_of(values[-1]):.1f}" r="2.5"/>'
        )
    parts.append("</svg>")
    return "".join(parts)


def _series_card(trend: SeriesTrend) -> str:
    if trend.changepoints:
        chip = '<span class="chip-step">step ×' \
            f"{len(trend.changepoints)}</span>"
    elif not trend.deterministic:
        chip = '<span class="chip-wall">wall</span>'
    else:
        chip = '<span class="chip-ok">stable</span>'
    cps = "; ".join(
        f"step at #{c.index} ({c.origin}): "
        f"{_fmt_value(c.before_median)} → {_fmt_value(c.after_median)}"
        for c in trend.changepoints
    )
    meta = (
        f"n={trend.n} · median {_fmt_value(trend.median)} · "
        f"ewma {_fmt_value(trend.ewma)} · drift {trend.drift_pct:+.2f}%"
    )
    if cps:
        meta += f"<br>{_esc(cps)}"
    return (
        '<div class="series-card">'
        f'<div class="name">{_esc(trend.series)}{chip}</div>'
        f'<div class="latest">{_fmt_value(trend.last)} '
        f'<span style="font-size:11px">{_esc(trend.unit)}</span></div>'
        f"{_sparkline_svg(trend)}"
        f'<div class="meta">{meta}</div>'
        "</div>"
    )


_KIND_SECTIONS = (
    ("bench", "Benchmark grid — per-cell makespan timelines"),
    ("microbench", "Kernel microbenchmarks — speedup trends (wall)"),
    ("calibration", "Calibration drift strip"),
    ("sweep", "Chaos-sweep gate strip"),
    ("health", "Live health summaries"),
    ("trace", "Traced-run headlines"),
)


def render_dashboard(ledger: Ledger, title: str = "fleet dashboard") -> str:
    """The longitudinal fleet dashboard as one self-contained HTML
    document (deterministic bytes: same ledger in, same page out)."""
    from repro.obs.report import _CSS  # shared palette + chrome

    trends = ledger_trends(ledger)
    by_kind: dict[str, list[SeriesTrend]] = {}
    for trend in trends:
        by_kind.setdefault(trend.kind, []).append(trend)
    n_series = len(trends)
    n_entries = len(ledger)
    n_steps = sum(len(t.changepoints) for t in trends)
    tiles = (
        '<section><div class="tiles">'
        f'<div class="tile"><div class="v">{n_entries}</div>'
        '<div class="k">ledger entries</div></div>'
        f'<div class="tile"><div class="v">{n_series}</div>'
        '<div class="k">series tracked</div></div>'
        f'<div class="tile"><div class="v">{n_steps}</div>'
        '<div class="k">changepoints detected</div></div>'
        "</div></section>"
    )
    sections = [tiles]
    known = {kind for kind, _ in _KIND_SECTIONS}
    for kind, heading in _KIND_SECTIONS:
        group = by_kind.get(kind)
        if not group:
            continue
        cards = "".join(_series_card(t) for t in group)
        sections.append(
            f"<section><h2>{_esc(heading)}</h2>"
            f'<div class="series-grid">{cards}</div></section>'
        )
    for kind in sorted(set(by_kind) - known):
        cards = "".join(_series_card(t) for t in by_kind[kind])
        sections.append(
            f"<section><h2>{_esc(kind)}</h2>"
            f'<div class="series-grid">{cards}</div></section>'
        )
    source = _esc(ledger.path) if ledger.path else "in-memory ledger"
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en">\n<head>\n<meta charset="utf-8">\n'
        f"<title>{_esc(title)}</title>\n"
        f"<style>\n{_CSS}{_DASH_CSS}</style>\n"
        "</head>\n<body>\n"
        '<div class="viz-root">\n'
        f"<h1>{_esc(title)}</h1>\n"
        f'<p class="subtitle">run ledger {source} — '
        f"{HISTORY_SCHEMA}</p>\n"
        + "\n".join(sections)
        + "\n</div>\n</body>\n</html>\n"
    )


def write_dashboard(
    ledger: Ledger, path: str | Path, title: str = "fleet dashboard"
) -> Path:
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(render_dashboard(ledger, title=title), encoding="utf-8")
    return out


# -- trend text / prom views --------------------------------------------------

def trend_text(trends: Sequence[SeriesTrend]) -> str:
    header = (
        f"{'series':<58} {'n':>4} {'last':>12} {'median':>12} "
        f"{'ewma':>12} {'drift%':>8} {'steps':>5}"
    )
    lines = [header, "-" * len(header)]
    for t in trends:
        lines.append(
            f"{t.series[:58]:<58} {t.n:>4} {t.last:>12.6g} "
            f"{t.median:>12.6g} {t.ewma:>12.6g} {t.drift_pct:>+8.2f} "
            f"{len(t.changepoints):>5}"
        )
        for cp in t.changepoints:
            shift = cp.shift_pct
            shift_txt = "inf" if math.isinf(shift) else f"{shift:+.2f}%"
            lines.append(
                f"    step at #{cp.index} ({cp.origin}): "
                f"{cp.before_median:.6g} -> {cp.after_median:.6g} "
                f"({shift_txt})"
            )
    return "\n".join(lines)


def trends_openmetrics(trends: Sequence[SeriesTrend]) -> str:
    """The ledger's series as OpenMetrics ``summary`` families — each
    series' full value history folded through a
    :class:`~repro.obs.metrics.Summary` (sketch-backed quantile
    lines), so external scrapers see the longitudinal distribution."""
    from repro.obs.export import openmetrics_text
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    for t in trends:
        registry.summary(
            "history.series", series=t.series, unit=t.unit
        ).observe_many(max(v, 0.0) for v in t.values)
        registry.gauge("history.series_last", series=t.series).set(t.last)
        registry.gauge(
            "history.series_changepoints", series=t.series
        ).set(float(len(t.changepoints)))
    return openmetrics_text(registry)


# -- CLI ----------------------------------------------------------------------

def _load_json(path: str | Path) -> dict[str, Any]:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def record_entries(path: str | Path, entries: Sequence[LedgerEntry]) -> str:
    """Append ``entries`` to the ledger at ``path`` and say what
    happened, calling out series that change benchmark config — the
    one ``record`` path (``history record``, ``bench run --record``)."""
    out = Path(path)
    before = read_ledger(out).series() if out.exists() else {}
    n = append_entries(out, entries)
    fresh = {e.series for e in entries} - set(before)
    text = f"{n} entries ({len(fresh)} new series) -> {out}"
    switched = sorted(
        e.series for e in entries if e.series in before
        and before[e.series][-1].run.get("config") != e.run.get("config")
    )
    if switched:
        text += (
            f"\nnote: {len(switched)} series recorded under a different "
            "benchmark config than their history; the gate now bands on "
            "this config and skips candidates of the old one: "
            + "; ".join(switched)
        )
    return text


def _label_and_backend(
    path: str, backend: str | None
) -> tuple[str, str | None]:
    """``traces/atdca_sim.analysis.json`` -> ``("atdca_sim", "sim")``:
    the backend is ``--backend``, else the one the label ends in."""
    label = Path(path).name.removesuffix(".json").removesuffix(".analysis")
    if backend is None:
        backend = next(
            (b for b in ("sim", "inproc") if label.endswith(b)), None
        )
    return label, backend


def _collect_entries(args: argparse.Namespace) -> list[LedgerEntry]:
    """Entries from every artifact named on a ``record``/``gate``
    command line, in deterministic (flag, then file) order."""
    entries: list[LedgerEntry] = []
    for path in args.bench or ():
        entries.extend(entries_from_bench(_load_json(path), date=args.date))
    for path in args.microbench or ():
        entries.extend(
            entries_from_microbench(_load_json(path), date=args.date)
        )
    for path in args.calibration or ():
        entries.extend(entries_from_calibration(
            _load_json(path), date=args.date,
            backend=_label_and_backend(path, args.backend)[1],
        ))
    for path in args.sweep or ():
        entries.extend(entries_from_sweep(_load_json(path), date=args.date))
    for path in args.health or ():
        entries.extend(
            entries_from_health_summary(_load_json(path), date=args.date)
        )
    for path in args.analysis or ():
        label, backend = _label_and_backend(path, args.backend)
        if backend is None:
            raise ReproError(
                f"{path}: a trace analysis needs --backend ('sim' or "
                "'inproc') when its filename does not end in one"
            )
        entries.extend(entries_from_analysis(
            _load_json(path), label=label, backend=backend, date=args.date,
        ))
    return entries


def _add_artifact_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bench", action="append", metavar="FILE",
                   help="a BENCH_*.json benchmark artifact (repeatable)")
    p.add_argument("--microbench", action="append", metavar="FILE",
                   help="a MICROBENCH_*.json artifact (repeatable)")
    p.add_argument("--calibration", action="append", metavar="FILE",
                   help="a calibration report (repeatable)")
    p.add_argument("--sweep", action="append", metavar="FILE",
                   help="a chaos-sweep result (repeatable)")
    p.add_argument("--health", action="append", metavar="FILE",
                   help="a live health_summary.json (repeatable)")
    p.add_argument("--analysis", action="append", metavar="FILE",
                   help="a traced run's <label>.analysis.json: critical "
                        "path, makespan and blocked time (repeatable)")
    p.add_argument("--backend", default=None,
                   help="backend name for --calibration/--analysis files "
                        "(default: inferred from the filename stem)")
    p.add_argument("--date", default=None,
                   help="override the run date stamped into entries "
                        "(default: the artifact's own date field)")


def _write_json_output(doc: Mapping[str, Any], target: str) -> None:
    if target == "-":
        sys.stdout.write(canonical_json(doc))
    else:
        print(f"json -> {write_json(target, doc)}")


def conclude_gate(report: GateReport, json_target: str | None) -> int:
    """The shared tail of ``history gate`` and ``bench compare``: write
    the ``--json`` document, name the failing series on stderr, return
    the exit status."""
    if json_target is not None:
        _write_json_output(report.to_dict(), json_target)
    if report.failing:
        print("REGRESSION: "
              + "; ".join(r.series for r in report.failing),
              file=sys.stderr)
    return report.exit_status


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.history",
        description="Run ledger, trend/changepoint analysis, the "
                    "regression gate, fleet dashboard.",
    )
    parser.add_argument("--ledger", default=DEFAULT_LEDGER,
                        help=f"ledger path (default {DEFAULT_LEDGER})")
    sub = parser.add_subparsers(dest="command", required=True)

    p_rec = sub.add_parser(
        "record", help="append artifact measurements to the ledger"
    )
    _add_artifact_flags(p_rec)

    sub.add_parser("list", help="list series with counts and last values")

    p_trend = sub.add_parser(
        "trend", help="robust statistics + changepoints per series"
    )
    p_trend.add_argument("prefixes", nargs="*", metavar="PREFIX",
                         help="only series whose name starts with a prefix")
    p_trend.add_argument("--json", metavar="FILE", default=None,
                         help="write the machine-readable trend document "
                              "('-' for stdout)")
    p_trend.add_argument("--prom", metavar="FILE", default=None,
                         help="write the series as OpenMetrics summary "
                              "families (sketch quantiles)")

    p_gate = sub.add_parser(
        "gate",
        help="the regression gate: candidate vs ledger-derived "
             "control bands (exit 1 on regression)",
    )
    _add_artifact_flags(p_gate)
    p_gate.add_argument("--last", action="store_true",
                        help="audit the ledger itself: gate each series' "
                             "latest entry against its own history")
    p_gate.add_argument("--json", metavar="FILE", default=None,
                        help="write the machine-readable gate document "
                             "('-' for stdout)")

    p_dash = sub.add_parser(
        "dashboard", help="render the self-contained fleet HTML dashboard"
    )
    p_dash.add_argument("--out", default="fleet.html",
                        help="output HTML path (default %(default)s)")
    p_dash.add_argument("--title", default="fleet dashboard")

    args = parser.parse_args(list(argv) if argv is not None else None)
    ledger_path = Path(args.ledger)

    entries: list[LedgerEntry] = []
    if args.command in ("record", "gate") and not getattr(args, "last", False):
        try:
            entries = _collect_entries(args)
        except (OSError, json.JSONDecodeError, ReproError, KeyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if not entries:
            print(f"error: nothing to {args.command}; pass artifacts "
                  "(--bench/--microbench/--calibration/--sweep/--health/"
                  "--analysis)"
                  + (" or --last" if args.command == "gate" else ""),
                  file=sys.stderr)
            return 2
    if args.command == "record":
        print(record_entries(ledger_path, entries))
        return 0

    try:
        ledger = read_ledger(ledger_path)
    except (OSError, json.JSONDecodeError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command == "list":
        series = ledger.series()
        width = max((len(name) for name in series), default=6)
        print(f"{'series':<{width}} {'kind':<12} {'n':>4} {'last':>12}")
        for name in sorted(series):
            entries = series[name]
            last = entries[-1].plot_value()
            last_txt = "-" if last is None else f"{last:.6g}"
            print(f"{name:<{width}} {entries[-1].kind:<12} "
                  f"{len(entries):>4} {last_txt:>12}")
        print(f"{len(series)} series, {len(ledger)} entries")
        return 0

    if args.command == "trend":
        trends = ledger_trends(ledger, prefixes=tuple(args.prefixes))
        if not trends:
            print("no series matched", file=sys.stderr)
            return 2
        print(trend_text(trends))
        if args.json is not None:
            _write_json_output(
                {
                    "schema": TREND_SCHEMA,
                    "series": [t.to_dict() for t in trends],
                    "provenance": provenance(),
                },
                args.json,
            )
        if args.prom is not None:
            out = Path(args.prom)
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(trends_openmetrics(trends), encoding="utf-8")
            print(f"openmetrics -> {out}")
        return 0

    if args.command == "gate":
        report = (
            gate_last(ledger) if args.last else gate_entries(ledger, entries)
        )
        print(report.to_text())
        return conclude_gate(report, args.json)

    # dashboard
    out = write_dashboard(ledger, args.out, title=args.title)
    trends = ledger_trends(ledger)
    print(f"{len(trends)} series, {len(ledger)} entries -> {out}")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    try:
        sys.exit(main())
    except BrokenPipeError:
        # `... trend | head` closes our stdout early; exit quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
