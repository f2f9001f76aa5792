"""Exporters: JSONL, Chrome trace-event JSON, and text summaries.

Three views of one :class:`~repro.obs.ObsSession`:

* :func:`write_jsonl` — one JSON object per line (spans first, then
  metrics), joinable with JSON-formatted logs;
* :func:`write_chrome_trace` — the Chrome trace-event format (complete
  ``"X"`` events, one ``tid`` per rank), loadable in ``ui.perfetto.dev``
  or ``chrome://tracing``;
* :func:`summary_table` — a per-rank text table plus the Table 6
  COM/SEQ/PAR triple re-derived *from spans alone*
  (:func:`breakdown_from_spans`), a cross-check against the ledger-based
  :func:`repro.perf.timers.breakdown_of_run`.

All exports are deterministic: spans are ordered by
``(start, rank, seq)``, metrics by ``(name, labels)``, and JSON is
dumped with sorted keys and fixed separators — on the virtual-time
backend two identical runs produce byte-identical files.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable

from repro.obs.trace import SPAN_ORDER, Span, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import ObsSession
    from repro.obs.metrics import MetricsRegistry

__all__ = [
    "canonical_json",
    "write_json",
    "read_json",
    "spans_of",
    "chrome_trace",
    "write_chrome_trace",
    "jsonl_lines",
    "write_jsonl",
    "metrics_records",
    "write_metrics_json",
    "openmetrics_text",
    "write_openmetrics",
    "LoadedTrace",
    "read_jsonl",
    "breakdown_from_spans",
    "summary_table",
]

_JSON_KW = {"sort_keys": True, "separators": (",", ":")}

#: Version stamp written as the first line of every JSONL export.
#: ``/1`` exports had no header; ``/2`` adds the header line and the
#: conditional fault-span attributes (``factor``, ``link``, ``op``,
#: ``original_rank``, ``lost_rank``, ``survivors``, ``ranks``, ...).
JSONL_SCHEMA = "repro.obs.trace/2"

#: Schema versions :func:`read_jsonl` accepts (``/1`` is the implicit
#: version of header-less exports).
_ACCEPTED_SCHEMAS = ("repro.obs.trace/1", JSONL_SCHEMA)


def canonical_json(doc: Any) -> str:
    """The byte-identical JSON text of ``doc``: sorted keys, compact
    separators, one trailing newline.  Every artefact the ``cmp`` gates
    compare is written in this format."""
    return json.dumps(doc, **_JSON_KW) + "\n"


def write_json(path: str | Path, doc: Any) -> Path:
    """Write :func:`canonical_json` of ``doc`` to ``path`` (parent
    directories created); returns the path."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(canonical_json(doc), encoding="utf-8")
    return out


def read_json(path: str | Path, what: str, error: type[Exception]) -> Any:
    """Parse the JSON file at ``path``; an unreadable or malformed file
    raises ``error`` with a message naming ``what`` (``"fault plan"``,
    ``"policy"``, ...) and the path."""
    source = Path(path)
    try:
        return json.loads(source.read_text(encoding="utf-8"))
    except OSError as exc:
        raise error(f"cannot read {what} {source}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise error(f"{what} {source} is not valid JSON: {exc}") from exc


def spans_of(source: Any) -> list[Span]:
    """Normalize a session / tracer / loaded trace / span sequence to a
    sorted span list."""
    tracer = getattr(source, "tracer", source)
    spans = getattr(tracer, "spans", None)
    if isinstance(tracer, Tracer) or callable(spans):
        return list(tracer.spans())
    if spans is not None:  # LoadedTrace: spans is a stored sequence
        source = spans
    return sorted(source, key=SPAN_ORDER)


def metrics_records(
    source: "ObsSession | MetricsRegistry | LoadedTrace",
) -> list[dict[str, Any]]:
    """Normalize a session / registry to its deterministic record list."""
    registry = getattr(source, "metrics", source)
    return registry.records()


# -- Chrome trace-event format ------------------------------------------------

def chrome_trace(source: Any, process_name: str = "repro") -> dict[str, Any]:
    """Build a Chrome trace-event document (one thread lane per rank).

    Span times are seconds; Chrome wants microseconds, so every ``ts``
    and ``dur`` is scaled by 1e6.  Complete (``"X"``) events carry the
    span category in ``cat`` and its attributes in ``args``.
    """
    spans = spans_of(source)
    ranks = sorted({s.rank for s in spans})
    events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    for rank in ranks:
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": rank,
                "args": {"name": f"rank {rank}"},
            }
        )
    for span in spans:
        events.append(
            {
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": span.duration * 1e6,
                "pid": 0,
                "tid": span.rank,
                "args": {str(k): _jsonable(v) for k, v in sorted(span.attrs.items())},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str | Path, source: Any,
                       process_name: str = "repro") -> Path:
    """Serialize :func:`chrome_trace` to ``path``; returns the path."""
    return write_json(path, chrome_trace(source, process_name))


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


# -- JSONL --------------------------------------------------------------------

def jsonl_lines(source: Any) -> Iterable[str]:
    """A schema header, then one JSON object per span, then one per
    metric record."""
    # One encoder for every line; a span object is built with its keys
    # already in sorted order, so sorting them costs one pass.
    encode = json.JSONEncoder(**_JSON_KW).encode
    yield encode({"type": "schema", "version": JSONL_SCHEMA})
    for span in spans_of(source):
        yield encode({
            "attrs": {
                str(k): _jsonable(v) for k, v in sorted(span.attrs.items())
            },
            "category": span.category,
            "end": span.end,
            "name": span.name,
            "parent": list(span.parent) if span.parent else None,
            "rank": span.rank,
            "seq": span.seq,
            "start": span.start,
            "type": "span",
        })
    for record in metrics_records(source):
        yield encode({"type": "metric", **record})


def write_jsonl(path: str | Path, source: Any) -> Path:
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(jsonl_lines(source)) + "\n", encoding="utf-8")
    return out


def write_metrics_json(path: str | Path, source: Any) -> Path:
    """Metrics records as one pretty-stable JSON document."""
    return write_json(path, {"metrics": metrics_records(source)})


# -- OpenMetrics / Prometheus text exposition ---------------------------------

def _om_name(name: str) -> str:
    """Sanitize a dotted metric name to an OpenMetrics identifier."""
    cleaned = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )
    if not cleaned or cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


def _om_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _om_labels(labels: dict[str, str], extra: tuple[tuple[str, str], ...] = ()
               ) -> str:
    items = [*sorted(labels.items()), *extra]
    if not items:
        return ""
    body = ",".join(f'{k}="{_om_label_value(str(v))}"' for k, v in items)
    return "{" + body + "}"


def _om_float(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(float(value))


def openmetrics_text(source: Any) -> str:
    """The registry in OpenMetrics text exposition format.

    Counters become ``<name>_total`` samples, histograms the standard
    ``_bucket``/``_sum``/``_count`` triple with cumulative *le*-labelled
    buckets.  Families are emitted sorted by name and samples sorted by
    labels, so the exposition is deterministic and diffable; the
    document ends with the mandated ``# EOF`` marker and is scrapeable
    by standard Prometheus tooling.
    """
    records = metrics_records(source)
    by_family: dict[str, list[dict[str, Any]]] = {}
    for record in records:
        by_family.setdefault(record["name"], []).append(record)
    lines: list[str] = []
    for name in sorted(by_family):
        family = by_family[name]
        kinds = {r["kind"] for r in family}
        if len(kinds) != 1:
            raise ValueError(
                f"metric family {name!r} mixes kinds {sorted(kinds)}"
            )
        kind = kinds.pop()
        om = _om_name(name)
        lines.append(f"# TYPE {om} {kind}")
        for record in family:
            labels = record["labels"]
            if kind == "counter":
                lines.append(
                    f"{om}_total{_om_labels(labels)} "
                    f"{_om_float(record['value'])}"
                )
            else:  # histogram
                for bound, cumulative in record["buckets"]:
                    le = "+Inf" if bound == "+Inf" else _om_float(bound)
                    lines.append(
                        f"{om}_bucket{_om_labels(labels, (('le', le),))} "
                        f"{cumulative}"
                    )
                lines.append(
                    f"{om}_sum{_om_labels(labels)} "
                    f"{_om_float(record['total'])}"
                )
                lines.append(
                    f"{om}_count{_om_labels(labels)} {record['count']}"
                )
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def write_openmetrics(path: str | Path, source: Any) -> Path:
    """Serialize :func:`openmetrics_text` to ``path``; returns the path."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(openmetrics_text(source), encoding="utf-8")
    return out


# -- reading traces back ------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class LoadedTrace:
    """A trace read back from a JSONL export.

    Quacks enough like an :class:`~repro.obs.ObsSession` for the
    exporters and :mod:`repro.obs.analyze`: ``spans_of`` accepts the
    span list and ``records()`` mirrors
    :meth:`~repro.obs.metrics.MetricsRegistry.records`.
    """

    spans: tuple[Span, ...]
    metric_records: tuple[dict[str, Any], ...]

    def records(self) -> list[dict[str, Any]]:
        return [dict(r) for r in self.metric_records]


def read_jsonl(path: str | Path) -> LoadedTrace:
    """Load spans + metric records from a :func:`write_jsonl` export.

    Accepts the current schema (:data:`JSONL_SCHEMA`) and header-less
    ``/1`` exports from before the header existed; any other version
    stamp raises a :class:`ValueError` naming both versions.  Span
    attributes round-trip as written — including the conditional
    fault keys (``factor``, ``link``, ``op``, ``original_rank``,
    ``lost_rank``, ``survivors``, ``ranks``) — with JSON-native types
    preserved.
    """
    spans: list[Span] = []
    records: list[dict[str, Any]] = []
    for lineno, line in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        if not line.strip():
            continue
        obj = json.loads(line)
        kind = obj.get("type")
        if kind == "schema":
            version = obj.get("version")
            if version not in _ACCEPTED_SCHEMAS:
                raise ValueError(
                    f"{path}:{lineno}: unsupported trace schema "
                    f"{version!r} (this reader understands "
                    f"{', '.join(_ACCEPTED_SCHEMAS)})"
                )
        elif kind == "span":
            spans.append(
                Span(
                    name=obj["name"],
                    rank=int(obj["rank"]),
                    start=float(obj["start"]),
                    end=float(obj["end"]),
                    category=obj.get("category", "phase"),
                    seq=int(obj.get("seq", 0)),
                    parent=tuple(obj["parent"]) if obj.get("parent") else None,
                    attrs=obj.get("attrs") or {},
                )
            )
        elif kind == "metric":
            record = dict(obj)
            record.pop("type")
            records.append(record)
        else:
            raise ValueError(
                f"{path}:{lineno}: unknown record type {kind!r}"
            )
    spans.sort(key=SPAN_ORDER)
    return LoadedTrace(spans=tuple(spans), metric_records=tuple(records))


# -- COM/SEQ/PAR from spans ---------------------------------------------------

def breakdown_from_spans(
    source: Any, master_rank: int = 0
) -> dict[str, float]:
    """Re-derive the Table 6 triple from spans alone.

    COM is the summed duration of the master's ``"transfer"`` spans, SEQ
    the summed duration of its ``"seq"`` spans, the makespan the latest
    span end over all ranks, and PAR the remainder — the same
    construction as :func:`repro.perf.timers.breakdown_of_run`, but read
    from the tracer instead of the engine ledgers.  On the virtual-time
    backend the two agree to float round-off (the summation orders
    coincide); the cross-check test pins this.
    """
    spans = spans_of(source)
    com = sum(
        s.duration for s in spans
        if s.rank == master_rank and s.category == "transfer"
    )
    seq = sum(
        s.duration for s in spans
        if s.rank == master_rank and s.category == "seq"
    )
    makespan = max((s.end for s in spans), default=0.0)
    par = max(makespan - com - seq, 0.0)
    return {"com": com, "seq": seq, "par": par, "total": makespan}


# -- text summary -------------------------------------------------------------

def summary_table(source: Any, master_rank: int = 0) -> str:
    """Human-readable per-rank summary plus the span-derived triple."""
    spans = spans_of(source)
    by_rank: dict[int, list[Span]] = {}
    for span in spans:
        by_rank.setdefault(span.rank, []).append(span)
    categories = ("phase", "compute", "seq", "kernel", "transfer", "mpi")
    header = f"{'rank':>5} " + " ".join(f"{c:>12}" for c in categories) + f" {'spans':>7}"
    lines = ["span time by category (s)", header, "-" * len(header)]
    for rank in sorted(by_rank):
        mine = by_rank[rank]
        cells = []
        for cat in categories:
            cells.append(f"{sum(s.duration for s in mine if s.category == cat):12.6f}")
        lines.append(f"{rank:>5} " + " ".join(cells) + f" {len(mine):>7}")
    triple = breakdown_from_spans(spans, master_rank)
    lines.append("")
    lines.append(
        "span-derived COM/SEQ/PAR (master rank "
        f"{master_rank}): COM={triple['com']:.6f}  SEQ={triple['seq']:.6f}  "
        f"PAR={triple['par']:.6f}  total={triple['total']:.6f}"
    )
    return "\n".join(lines)
