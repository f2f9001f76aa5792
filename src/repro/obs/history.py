"""The run ledger and the regression gate over it.

Every other ``repro.obs`` tool explains *one* run; this module keeps
what was measured before, and it alone decides what is gated.  A run
ledger — an append-only, schema-versioned JSONL file (committed seed:
``benchmarks/history/ledger.jsonl``) — holds one
``bench/<cell>/makespan`` series per cell of a ``BENCH_*.json``
artifact, each entry keyed by the provenance header the artifact
already carries.  It keeps a series' history for two purposes only,
both served by one backward scan over the series' entries
(:func:`control_band`):

* to band an exact value on the **last recorded value** within
  :data:`EXACT_RTOL`, so every recorded change re-baselines its series;
* to name the **first entry of the trailing run** that carries a
  failing candidate's value — and therefore the commit that introduced
  the step.

That is the repo's one regression rule (:func:`gate_entries`), and
``record``/``gate`` are the one way into it.  Comparing two artifacts
is the rule over a one-run history: record ``A`` into an empty ledger,
then gate ``B`` against it.  Wall-clock numbers never enter the
ledger: a wall trajectory is judged by the paired runs of
``benchmarks/wall/README.md`` (DESIGN decision 26).

Determinism rules (the ledger is part of the regression surface):
every entry ``value`` is a finite virtual-time makespan, and
:func:`read_ledger` refuses anything else.  Entries carry no
record-time timestamps — ``run.date`` comes from the source artifact —
so recording the same artifact twice produces byte-identical lines,
and serial vs ``--jobs N`` benchmark runs record byte-identical
ledgers.

Usage (``--ledger`` defaults to the committed seed)::

    python -m repro history --ledger L record --bench BENCH_x.json
    python -m repro history --ledger L list [PREFIX ...]
    python -m repro history --ledger L gate --bench BENCH_y.json
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
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
    "ControlBand",
    "control_band",
    "SeriesGate",
    "GateReport",
    "gate_entries",
    "gate_last",
    "record_entries",
    "main",
]

HISTORY_SCHEMA = "repro.obs.history/1"
GATE_SCHEMA = "repro.obs.history.gate/1"

#: The committed seed ledger every fresh checkout starts from.
DEFAULT_LEDGER = "benchmarks/history/ledger.jsonl"

#: Relative half-width of the control band: only genuine behaviour
#: changes of a virtual-time makespan exceed it.
EXACT_RTOL = 1e-9


# -- ledger entries -----------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class LedgerEntry:
    """One measurement of one series: ``value`` is a virtual-time
    makespan, exact given the code, and a rise regresses.

    The line format keeps the ``kind``/``unit``/``direction``/
    ``deterministic`` keys of ``repro.obs.history/1``; every entry
    writes them as the same constants, so they are not fields.
    """

    series: str
    value: float
    run: dict[str, Any] = dataclasses.field(default_factory=dict)
    detail: dict[str, Any] = dataclasses.field(default_factory=dict)
    provenance: dict[str, str] | None = None

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "type": "entry",
            "series": self.series,
            "kind": "bench",
            "unit": "virtual_s",
            "direction": "lower",
            "deterministic": True,
            "value": self.value,
            "run": dict(self.run),
        }
        if self.detail:
            doc["detail"] = dict(self.detail)
        if self.provenance is not None:
            doc["provenance"] = dict(self.provenance)
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "LedgerEntry":
        return cls(
            series=str(doc["series"]),
            value=float(doc["value"]),
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
    single warning rather than a crash.  An entry whose ``value`` is not
    a finite number is refused, naming ``file:line``."""
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
            value = obj.get("value")
            if isinstance(value, bool) or not isinstance(
                value, (int, float)
            ) or not math.isfinite(value):
                raise ReproError(
                    f"{src}:{lineno}: entry value {value!r} is not a "
                    "finite number"
                )
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


# -- bench artifact entries ---------------------------------------------------

#: The benchmark-config fields that fix what one cell measures; runs
#: that differ only in the others — cell selectors, the
#: regression-injecting ``comm_factor`` — compare cell by cell.
_WORKLOAD_KEYS = ("rows", "cols", "bands", "seed", "n_targets", "n_classes")


def _workload_digest(config: Mapping[str, Any]) -> str:
    return " ".join(f"{key}={config.get(key)}" for key in _WORKLOAD_KEYS)


def entries_from_bench(artifact: Mapping[str, Any]) -> list[LedgerEntry]:
    """Ledger entries for a ``BENCH_*.json`` artifact: one
    ``bench/<cell>/makespan`` series per cell.  ``run["config"]``
    carries a digest of the artifact's workload, which the gate uses to
    refuse comparing different scenes (:func:`gate_entries`)."""
    prov = provenance()
    run: dict[str, Any] = {"source": str(artifact.get("schema", "bench"))}
    if artifact.get("date") is not None:
        run["date"] = str(artifact["date"])
    run["config"] = _workload_digest(artifact.get("config") or {})
    out: list[LedgerEntry] = []
    for cid in sorted(artifact.get("cells", {})):
        cell = artifact["cells"][cid]
        v = cell["virtual"]
        out.append(LedgerEntry(
            series=f"bench/{cid}/makespan",
            value=float(v["makespan"]),
            run=run,
            detail={
                "com": v["com"], "seq": v["seq"], "par": v["par"],
                "d_all": v["d_all"], "d_minus": v["d_minus"],
                "label": cell.get("label"),
            },
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
        n=len(values) - start, segment_start=start,
    )


@dataclasses.dataclass(frozen=True)
class SeriesGate:
    """Gate outcome for one series."""

    series: str
    status: str  # ok | regression | improvement | new | skipped
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
    """The full gate verdict: it fails on any ``regression``."""

    results: tuple[SeriesGate, ...]

    @property
    def failing(self) -> tuple[SeriesGate, ...]:
        return tuple(r for r in self.results if r.status == "regression")

    @property
    def exit_status(self) -> int:
        return 1 if self.failing else 0

    @property
    def summary(self) -> dict[str, int]:
        statuses = [r.status for r in self.results]
        return {
            status: statuses.count(status)
            for status in ("ok", "regression", "improvement",
                           "new", "skipped")
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
        gated = len(self.results) - n["skipped"]
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
    (they pass — the next ``record`` starts their history).  A
    candidate measured under a different benchmark config
    (``run["config"]``) than the series' latest entry reports
    ``skipped``: a 48-row scene is not a regression of a 384-row one.
    A regression names the first offending entry/commit via
    :func:`_find_offender`.
    """
    by_series = ledger.series()
    results: list[SeriesGate] = []
    for candidate in candidates:
        name = candidate.series
        history = by_series.get(name, [])
        config = candidate.run.get("config")
        if not history:
            results.append(SeriesGate(series=name, status="new"))
            continue
        if history[-1].run.get("config") != config:
            results.append(SeriesGate(
                series=name, status="skipped",
                reason=(f"measured on config [{config}], the series is on "
                        f"[{history[-1].run.get('config')}]"),
            ))
            continue
        values = [e.value for e in history]
        band = control_band(values)
        value = candidate.value
        worse, better = value > band.hi, value < band.lo
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

def record_entries(path: str | Path, entries: Sequence[LedgerEntry]) -> str:
    """Append ``entries`` to the ledger at ``path`` and say what
    happened, calling out series that change benchmark config."""
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


def _list_text(series: Mapping[str, Sequence[LedgerEntry]]) -> str:
    """One row per series: entry count and last value, plus — from the
    second entry on — the value before it and the change in percent."""
    width = max((len(name) for name in series), default=6)
    lines = [f"{'series':<{width}} {'n':>4} {'last':>12} {'prev':>12} "
             f"{'Δ%':>8}"]
    for name in sorted(series):
        entries = series[name]
        last = entries[-1].value
        prev = entries[-2].value if len(entries) >= 2 else None
        change = f"{100.0 * (last - prev) / abs(prev):+.2f}" if prev else "-"
        prev_txt = "-" if prev is None else f"{prev:.6g}"
        lines.append(f"{name:<{width}} {len(entries):>4} {last:>12.6g} "
                     f"{prev_txt:>12} {change:>8}")
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
    for p in (p_rec, p_gate):
        p.add_argument("--bench", action="append", metavar="FILE",
                       help="a BENCH_*.json benchmark artifact (repeatable)")
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
        from repro.obs.bench import load_artifact

        try:
            for path in args.bench or ():
                entries.extend(entries_from_bench(load_artifact(path)))
        except (OSError, json.JSONDecodeError, ReproError, KeyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if not entries:
            print(f"error: nothing to {args.command}; pass --bench FILE"
                  + (" or --last" if args.command == "gate" else ""),
                  file=sys.stderr)
            return 2
    try:
        if args.command == "record":
            print(record_entries(ledger_path, entries))
            return 0
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
    if args.json == "-":
        sys.stdout.write(canonical_json(report.to_dict()))
    elif args.json is not None:
        print(f"json -> {write_json(args.json, report.to_dict())}")
    if report.failing:
        print("REGRESSION: "
              + "; ".join(r.series for r in report.failing),
              file=sys.stderr)
    return report.exit_status
