"""The run ledger and the regression gate over it.

Every other ``repro.obs`` tool explains *one* run; this module keeps
what was measured before.  A run ledger — an append-only,
schema-versioned JSONL file (committed seed:
``benchmarks/history/ledger.jsonl``) — ingests every benchmark cell,
microbench kernel, calibration drift number, chaos-sweep gate ratio
and traced-run headline, each entry keyed by the provenance header the
artifacts already carry.  It keeps a series' history for two purposes
only, both served by one backward scan over the series' entries
(:func:`control_band`):

* to band an exact value on the **last recorded value** within
  :data:`EXACT_RTOL`, so every recorded change re-baselines its series;
* to name the **first entry of the trailing run** that carries a
  failing candidate's value — and therefore the commit that introduced
  the step.

That is the repo's one regression rule (:func:`gate_entries`);
``bench compare A B`` is it over the one-run history
``entries_from_bench(A)``.  Noisy and wall-clock numbers are reported,
never gated: a wall trajectory is judged by the paired runs of
``benchmarks/wall/README.md``, not here (DESIGN decision 26).

Determinism rules (the ledger is part of the regression surface):
entry ``value`` fields hold virtual-time/deterministic quantities only;
anything measured on a wall clock is quarantined under the non-gated
``wall`` key.  Entries carry no record-time timestamps — ``run.date``
comes from the source artifact — so recording the same artifact twice
produces byte-identical lines, and serial vs ``--jobs N`` benchmark
runs append byte-identical ledgers.

Usage (``--ledger`` defaults to the committed seed)::

    python -m repro history --ledger L record --bench BENCH_x.json
    python -m repro history --ledger L list [PREFIX ...]
    python -m repro history --ledger L gate --bench BENCH_y.json
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import warnings
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.errors import ReproError
from repro.obs.export import canonical_json, write_json
from repro.obs.provenance import provenance

__all__ = [
    "HISTORY_SCHEMA",
    "GATE_SCHEMA",
    "DEFAULT_LEDGER",
    "LedgerEntry",
    "Ledger",
    "append_entries",
    "read_ledger",
    "entries_from_bench",
    "entries_from_microbench",
    "entries_from_calibration",
    "entries_from_sweep",
    "entries_from_analysis",
    "ControlBand",
    "control_band",
    "SeriesGate",
    "GateReport",
    "gate_entries",
    "gate_last",
    "conclude_gate",
    "record_entries",
    "main",
]

HISTORY_SCHEMA = "repro.obs.history/1"
GATE_SCHEMA = "repro.obs.history.gate/1"

#: The committed seed ledger every fresh checkout starts from.
DEFAULT_LEDGER = "benchmarks/history/ledger.jsonl"

#: Relative half-width of the control band: only genuine behaviour
#: changes of a deterministic (virtual-time) value exceed it.
EXACT_RTOL = 1e-9


# -- ledger entries -----------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class LedgerEntry:
    """One measurement of one series.

    ``value`` is the gated metric and must be deterministic given the
    code (virtual seconds, exact ratios, counts).  Wall-clock
    measurements are quarantined under ``wall`` (by convention
    ``wall["value"]`` holds the series measurement) and are listed
    but never gated.  ``direction`` states which way is worse:
    ``"lower"`` means lower-is-better (a rise regresses), ``"higher"``
    the opposite, ``"info"`` is never gated.
    """

    series: str
    kind: str  # bench | microbench | calibration | sweep | trace
    unit: str  # virtual_s | wall_s | ratio | rel_error | count
    direction: str = "lower"
    deterministic: bool = True
    value: float | None = None
    wall: dict[str, Any] | None = None
    run: dict[str, Any] = dataclasses.field(default_factory=dict)
    detail: dict[str, Any] = dataclasses.field(default_factory=dict)
    provenance: dict[str, str] | None = None

    def plot_value(self) -> float | None:
        """The display measurement: the gated ``value`` when
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


def append_entries(path: str | Path, entries: Iterable[LedgerEntry]) -> int:
    """Append entries to the ledger at ``path`` (created, with its
    schema header line, if absent).  Returns the number appended."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    lines = [canonical_json(entry.to_dict()) for entry in entries]
    n = len(lines)
    if not out.exists() or out.stat().st_size == 0:
        lines.insert(
            0, canonical_json({"type": "header", "schema": HISTORY_SCHEMA})
        )
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


def _checked_run(doc: Mapping[str, Any], what: str, expected: str,
                 date: str | None) -> dict[str, Any]:
    """:func:`_run_meta` of a document that must carry schema
    ``expected``; a thresholds file or a foreign artifact is refused."""
    schema = str(doc.get("schema", ""))
    if schema != expected:
        raise ReproError(
            f"unsupported {what} schema {schema!r} (expected {expected})"
        )
    return _run_meta(doc, schema, date)


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
    only lists them)."""
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
    (``repro.obs.profile/1``).  On ``sim`` it is exact and gates; on
    ``inproc`` it derives from wall clocks and is quarantined
    (``profile gate`` judges it against the committed bound)."""
    run = _checked_run(doc, "calibration", "repro.obs.profile/1", date)
    if backend is None:
        raise ReproError(
            "a calibration report needs an explicit backend "
            "('sim' or 'inproc') to name its series"
        )
    deterministic = backend == "sim"
    error = float(doc["median_phase_rel_error"])
    return [LedgerEntry(
        series=f"calibration/{backend}/median_phase_rel_error",
        kind="calibration", unit="rel_error", direction="lower",
        deterministic=deterministic,
        value=error if deterministic else None,
        wall=None if deterministic else {"value": error},
        run=run,
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
    run = _checked_run(doc, "sweep", "repro.faults.sweep/1", date)
    prov = provenance()
    name = str(doc.get("name", "sweep"))
    cells = doc.get("cells", [])
    errors = [c["prediction_rel_error"] for c in cells
              if c.get("prediction_rel_error") is not None]
    ratios = [c["ratio_vs_predicted"] for c in cells
              if c.get("ratio_vs_predicted") is not None]
    summary = doc.get("summary", {})
    return [LedgerEntry(
        series=f"sweep/{name}/max_prediction_rel_error",
        kind="sweep", unit="rel_error", direction="lower",
        deterministic=True, value=float(max(errors, default=0.0)),
        run=run, detail={"n_twin_cells": len(errors)}, provenance=prov,
    ), LedgerEntry(
        series=f"sweep/{name}/max_ratio_vs_predicted",
        kind="sweep", unit="ratio", direction="lower",
        deterministic=True, value=float(max(ratios, default=0.0)),
        run=run, detail={"n_ratio_cells": len(ratios)}, provenance=prov,
    ), LedgerEntry(
        series=f"sweep/{name}/adapted_cells",
        kind="sweep", unit="count", direction="higher",
        deterministic=True,
        value=float(summary.get("n_adapted", 0)),
        run=run,
        detail={"n_cells": summary.get("n_cells"),
                "n_result_equal": summary.get("n_result_equal")},
        provenance=prov,
    )]


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
    run = _checked_run(doc, "analysis", "repro.obs.analyze/1", date)
    prov = provenance()
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


# -- the regression gate ------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class ControlBand:
    """The acceptance interval around a series' last recorded value."""

    center: float
    lo: float
    hi: float
    n: int
    segment_start: int
    deterministic: bool


def control_band(values: Sequence[float]) -> ControlBand:
    """The control band of a series whose gated values, oldest first,
    are ``values``: the *last recorded value* within :data:`EXACT_RTOL`.

    Every change of an exact value is a regime change, so recording a
    step once re-centres the band — what a one-entry baseline file
    always meant.  ``segment_start`` is the first index of the trailing
    run, the entries a backward scan finds inside the band before it
    meets one outside, and ``n`` is the run's length.
    """
    center = values[-1]
    lo, hi = sorted(center * (1.0 + sign * EXACT_RTOL) for sign in (-1, 1))
    start = len(values) - 1
    while start and lo <= values[start - 1] <= hi:
        start -= 1
    return ControlBand(
        center=center, lo=lo, hi=hi,
        n=len(values) - start, segment_start=start, deterministic=True,
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
            "band": dataclasses.asdict(self.band) if self.band else None,
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
    values: Sequence[float],
    candidate_origin: str,
) -> dict[str, Any]:
    """Locate the first entry of the trailing run :func:`control_band`
    finds in ``values``, the history's with the failing candidate's
    appended.  If the candidate opened the run itself, it is its own
    offender — the step arrived with this run's commit."""
    start = control_band(values).segment_start
    in_ledger = start < len(history)
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
    quarantined and informational candidates report ``skipped``; so
    does a noisy value (``deterministic: false`` on the candidate or on
    the series' latest entry — only a hand-made or pre-quarantine file
    carries one), and so does a candidate measured under a different
    benchmark config (``run["config"]``) than the series' latest entry:
    a 48-row scene is not a regression of a 384-row one.  A regression
    names the first offending entry/commit via :func:`_find_offender`.
    """
    by_series = ledger.series()
    results: list[SeriesGate] = []
    for candidate in candidates:
        name = candidate.series
        history = [
            e for e in by_series.get(name, []) if e.value is not None
        ]
        config = candidate.run.get("config")
        skip = ""
        if candidate.value is None:
            skip = "wall-clock: reported, not gated"
        elif candidate.direction == "info":
            skip = "informational"
        elif not candidate.deterministic or (
            history and not history[-1].deterministic
        ):
            skip = "noisy value: reported, not gated"
        elif history and history[-1].run.get("config") != config:
            skip = (f"measured on config [{config}], the series is on "
                    f"[{history[-1].run.get('config')}]")
        if skip or not history:
            results.append(SeriesGate(
                series=name, status="skipped" if skip else "new", reason=skip
            ))
            continue
        values = [float(e.value) for e in history]
        band = control_band(values)
        value = float(candidate.value)
        worse, better = value > band.hi, value < band.lo
        if candidate.direction != "lower":
            worse, better = better, worse
        offender = None
        if worse:
            offender = _find_offender(
                history, [*values, value], candidate.describe_origin()
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
        if len(entries) >= 2:
            history.extend(entries[:-1])
            candidates.append(entries[-1])
    return gate_entries(
        Ledger(path=ledger.path, entries=tuple(history)), candidates
    )


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
    p.add_argument("--analysis", action="append", metavar="FILE",
                   help="a traced run's <label>.analysis.json: critical "
                        "path, makespan and blocked time (repeatable)")
    p.add_argument("--backend", default=None,
                   help="backend name for --calibration/--analysis files "
                        "(default: inferred from the filename stem)")
    p.add_argument("--date", default=None,
                   help="override the run date stamped into entries "
                        "(default: the artifact's own date field)")


def conclude_gate(report: GateReport, json_target: str | None) -> int:
    """The shared tail of ``history gate`` and ``bench compare``: write
    the ``--json`` document, name the failing series on stderr, return
    the exit status."""
    if json_target == "-":
        sys.stdout.write(canonical_json(report.to_dict()))
    elif json_target is not None:
        print(f"json -> {write_json(json_target, report.to_dict())}")
    if report.failing:
        print("REGRESSION: "
              + "; ".join(r.series for r in report.failing),
              file=sys.stderr)
    return report.exit_status


def _list_text(series: Mapping[str, Sequence[LedgerEntry]]) -> str:
    """One row per series: entry count and last value, plus — from the
    second entry on — the value before it and the change in percent."""
    width = max((len(name) for name in series), default=6)
    lines = [f"{'series':<{width}} {'kind':<12} {'n':>4} {'last':>12} "
             f"{'prev':>12} {'Δ%':>8}"]
    for name in sorted(series):
        entries = series[name]
        last = entries[-1].plot_value()
        prev = entries[-2].plot_value() if len(entries) >= 2 else None
        change = (
            f"{100.0 * (last - prev) / abs(prev):+.2f}"
            if last is not None and prev else "-"
        )
        last_txt, prev_txt = (
            "-" if v is None else f"{v:.6g}" for v in (last, prev)
        )
        lines.append(f"{name:<{width}} {entries[-1].kind:<12} "
                     f"{len(entries):>4} {last_txt:>12} {prev_txt:>12} "
                     f"{change:>8}")
    lines.append(f"{len(series)} series, "
                 f"{sum(map(len, series.values()))} entries")
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro history",
        description="Run ledger and the regression gate over it.",
    )
    parser.add_argument("--ledger", default=DEFAULT_LEDGER,
                        help=f"ledger path (default {DEFAULT_LEDGER})")
    sub = parser.add_subparsers(dest="command", required=True)

    p_rec = sub.add_parser(
        "record", help="append artifact measurements to the ledger"
    )
    _add_artifact_flags(p_rec)

    p_list = sub.add_parser(
        "list",
        help="list series: entry count, last value, the one before it "
             "and the change between them",
    )
    p_list.add_argument("prefixes", nargs="*", metavar="PREFIX",
                        help="only series whose name starts with a prefix")

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
                  "(--bench/--microbench/--calibration/--sweep/"
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
        series = {
            name: entries for name, entries in ledger.series().items()
            if name.startswith(tuple(args.prefixes) or "")
        }
        if not series and args.prefixes:
            print("no series matched", file=sys.stderr)
            return 2
        print(_list_text(series))
        return 0

    report = gate_last(ledger) if args.last else gate_entries(ledger, entries)
    print(report.to_text())
    return conclude_gate(report, args.json)
