"""Single-file HTML run reports: the whole story of one traced run.

One self-contained HTML document — inline CSS, hand-built SVG, zero
scripts, zero network assets — holding:

- an SVG gantt (one lane per *original* rank, post-recovery spans
  remapped to their original lanes) with the critical path outlined on
  top, fault windows shaded, and recovery seams marked;
- link-utilization strips and saturated-interval counts;
- blocked-time and WEA load-balance tables;
- a predicted-vs-observed calibration scatter plus the per-phase
  residual table (when a :class:`~repro.obs.profile.CalibrationReport`
  is supplied);
- the full deterministic analyzer output embedded **verbatim** in a
  ``<script type="application/json" id="repro-analysis">`` block — the
  bytes equal :meth:`TraceAnalysis.to_json`, so downstream tooling can
  strip the chrome and recover the exact machine-readable analysis.

The document is deterministic: same trace in, same bytes out (no
timestamps, no randomness), so reports themselves diff cleanly.

Colors follow the validated reference data-viz palette: categorical
slots in fixed order (blue = parallel compute, orange = transfer,
aqua = sequential), the reserved status red for fault windows (paired
with an icon + label, never color alone), ink/gridline chrome tokens
for all text, and a selected dark mode via CSS custom properties.
"""

from __future__ import annotations

import html
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.errors import ConfigurationError
from repro.obs.analyze import TraceAnalysis
from repro.obs.export import canonical_json, spans_of
from repro.obs.profile import CalibrationReport
from repro.obs.trace import Span

__all__ = ["render_report", "write_report"]

_PLOT_W = 880
_LANE_H = 20
_BAR_H = 14
_MARGIN_L = 56
_MARGIN_T = 24
_AXIS_H = 36

_CSS = """\
:root { color-scheme: light dark; }
.viz-root {
  color-scheme: light;
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --text-primary: #0b0b0b; --text-secondary: #52514e; --text-muted: #898781;
  --gridline: #e1e0d9; --baseline: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6; --series-2: #eb6834; --series-3: #1baf7a;
  --status-critical: #d03b3b;
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--page); color: var(--text-primary);
  margin: 0; padding: 24px;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19; --page: #0d0d0d;
    --text-primary: #ffffff; --text-secondary: #c3c2b7;
    --text-muted: #898781;
    --gridline: #2c2c2a; --baseline: #383835;
    --border: rgba(255,255,255,0.10);
    --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
    --status-critical: #d03b3b;
  }
}
:root[data-theme="dark"] .viz-root {
  color-scheme: dark;
  --surface-1: #1a1a19; --page: #0d0d0d;
  --text-primary: #ffffff; --text-secondary: #c3c2b7;
  --text-muted: #898781;
  --gridline: #2c2c2a; --baseline: #383835;
  --border: rgba(255,255,255,0.10);
  --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
  --status-critical: #d03b3b;
}
.viz-root h1 { font-size: 20px; margin: 0 0 2px; }
.viz-root .subtitle { color: var(--text-secondary); margin: 0 0 20px; }
.viz-root section {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px 20px; margin-bottom: 16px;
}
.viz-root h2 {
  font-size: 14px; margin: 0 0 10px; color: var(--text-primary);
}
.viz-root .tiles { display: flex; gap: 24px; flex-wrap: wrap; }
.viz-root .tile .v { font-size: 26px; }
.viz-root .tile .k {
  font-size: 12px; color: var(--text-secondary); margin-top: 2px;
}
.viz-root .legend {
  display: flex; gap: 16px; flex-wrap: wrap;
  font-size: 12px; color: var(--text-secondary); margin-top: 8px;
}
.viz-root .legend .chip {
  display: inline-block; width: 10px; height: 10px;
  border-radius: 2px; margin-right: 5px; vertical-align: -1px;
}
.viz-root table {
  border-collapse: collapse; font-size: 13px;
  font-variant-numeric: tabular-nums;
}
.viz-root th {
  text-align: left; color: var(--text-secondary); font-weight: 600;
  border-bottom: 1px solid var(--baseline); padding: 4px 14px 4px 0;
}
.viz-root td {
  border-bottom: 1px solid var(--gridline); padding: 4px 14px 4px 0;
}
.viz-root svg text { fill: var(--text-muted); font-size: 11px; }
.viz-root svg .lane-label { fill: var(--text-secondary); }
.viz-root svg .grid { stroke: var(--gridline); stroke-width: 1; }
.viz-root svg .axis { stroke: var(--baseline); stroke-width: 1; }
.viz-root svg .bar.compute { fill: var(--series-1); }
.viz-root svg .bar.seq { fill: var(--series-3); }
.viz-root svg .bar.transfer { fill: var(--series-2); }
.viz-root svg .bar:hover { opacity: 0.75; }
.viz-root svg .fault-window {
  fill: var(--status-critical); fill-opacity: 0.18;
  stroke: var(--status-critical); stroke-width: 1;
  stroke-dasharray: 3 2;
}
.viz-root svg .seam {
  stroke: var(--status-critical); stroke-width: 1.5;
}
.viz-root svg .cp {
  fill: none; stroke: var(--text-primary); stroke-width: 1.5;
}
.viz-root svg .ident {
  stroke: var(--text-muted); stroke-width: 1; stroke-dasharray: 4 3;
}
.viz-root svg .pt { stroke: var(--surface-1); stroke-width: 2; }
.viz-root svg .pt.compute { fill: var(--series-1); }
.viz-root svg .pt.transfer { fill: var(--series-2); }
.viz-root svg .pt:hover { opacity: 0.75; }
.viz-root .util-bar { fill: var(--series-1); }
.viz-root .util-track { fill: var(--gridline); }
"""


def _fmt(value: float, digits: int = 6) -> str:
    return f"{value:.{digits}f}"


def _esc(text: Any) -> str:
    return html.escape(str(text), quote=True)


def _tile(value: str, label: str) -> str:
    return (
        f'<div class="tile"><div class="v">{_esc(value)}</div>'
        f'<div class="k">{_esc(label)}</div></div>'
    )


def _legend(entries: Sequence[tuple[str, str]]) -> str:
    chips = "".join(
        f'<span><span class="chip" style="background:{color}"></span>'
        f"{_esc(label)}</span>"
        for color, label in entries
    )
    return f'<div class="legend">{chips}</div>'


def _time_axis(t_max: float, x0: int, y: int, height: int) -> list[str]:
    """Gridlines + tick labels for a [0, t_max] second axis."""
    parts = [
        f'<line class="axis" x1="{x0}" y1="{y + height}" '
        f'x2="{x0 + _PLOT_W}" y2="{y + height}"/>'
    ]
    ticks = 6
    for i in range(ticks + 1):
        frac = i / ticks
        x = x0 + frac * _PLOT_W
        parts.append(
            f'<line class="grid" x1="{x:.1f}" y1="{y}" '
            f'x2="{x:.1f}" y2="{y + height}"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{y + height + 14}" '
            f'text-anchor="middle">{_fmt(frac * t_max, 3)}s</text>'
        )
    return parts


def _gantt_svg(spans: Sequence[Span]) -> str:
    """SVG gantt with recovery lane remapping, fault shading, and the
    critical path outlined on top."""
    from repro.obs.analyze import critical_path, original_rank_lookup

    original_rank = original_rank_lookup(spans)

    def lane_of(span: Span) -> int:
        return original_rank(span.rank, span.start)

    work = [s for s in spans if s.category != "fault"]
    if not work:
        raise ConfigurationError("no work spans to render")
    t0 = min(s.start for s in work)
    t_max = max(s.end for s in work) - t0
    lanes = 1 + max(lane_of(s) for s in work)
    plot_h = lanes * _LANE_H

    def x_of(t: float) -> float:
        if t_max <= 0:
            return float(_MARGIN_L)
        return _MARGIN_L + (t - t0) / t_max * _PLOT_W

    parts = _time_axis(t_max, _MARGIN_L, _MARGIN_T, plot_h)
    for lane in range(lanes):
        y = _MARGIN_T + lane * _LANE_H + _LANE_H / 2
        parts.append(
            f'<text class="lane-label" x="{_MARGIN_L - 8}" y="{y + 4:.1f}" '
            f'text-anchor="end">r{lane}</text>'
        )

    def bar(span: Span, lane: int, css: str, label: str) -> str:
        x = x_of(span.start)
        w = max(x_of(min(span.end, t0 + t_max)) - x, 1.0)
        y = _MARGIN_T + lane * _LANE_H + (_LANE_H - _BAR_H) / 2
        tip = (
            f"r{lane} {label} "
            f"[{_fmt(span.start - t0)}s – {_fmt(span.end - t0)}s]"
        )
        return (
            f'<rect class="bar {css}" x="{x:.2f}" y="{y:.1f}" '
            f'width="{w:.2f}" height="{_BAR_H}" rx="1">'
            f"<title>{_esc(tip)}</title></rect>"
        )

    for span in work:
        if span.category == "kernel":
            css = "seq" if span.attrs.get("sequential") else "compute"
        elif span.category in ("compute", "seq"):
            css = span.category
        elif span.category == "transfer":
            css = "transfer"
        else:
            continue  # phase / mpi wrappers: structure, not time spent
        parts.append(bar(span, lane_of(span), css, span.name))

    # Fault windows (clamped to the run) and recovery seams.
    for span in spans:
        if span.category != "fault":
            continue
        if span.name == "recovery.repartition":
            x = x_of(span.end)
            parts.append(
                f'<line class="seam" x1="{x:.2f}" y1="{_MARGIN_T}" '
                f'x2="{x:.2f}" y2="{_MARGIN_T + plot_h}">'
                f"<title>{_esc(span.name)} "
                f"(lost rank {_esc(span.attrs.get('lost_rank', '?'))})"
                f"</title></line>"
            )
            continue
        start = max(span.start, t0)
        end = min(span.end, t0 + t_max)
        if end < start:
            continue
        lane = lane_of(span)
        x, x1 = x_of(start), max(x_of(end), x_of(start) + 2.0)
        y = _MARGIN_T + lane * _LANE_H + 1
        parts.append(
            f'<rect class="fault-window" x="{x:.2f}" y="{y:.1f}" '
            f'width="{x1 - x:.2f}" height="{_LANE_H - 2}">'
            f"<title>{_esc(span.name)} r{lane} "
            f"[{_fmt(start - t0)}s – {_fmt(end - t0)}s]</title></rect>"
        )

    # Critical-path overlay: an outline ring on every step, per rank.
    try:
        steps = critical_path(spans).steps
    except ConfigurationError:
        steps = ()
    for step in steps:
        x = x_of(max(step.start, t0))
        w = max(x_of(min(step.end, t0 + t_max)) - x, 1.0)
        for rank in step.ranks:
            lane = original_rank(rank, step.start)
            y = _MARGIN_T + lane * _LANE_H + (_LANE_H - _BAR_H) / 2 - 1.5
            parts.append(
                f'<rect class="cp" x="{x:.2f}" y="{y:.1f}" '
                f'width="{w:.2f}" height="{_BAR_H + 3}" rx="2"/>'
            )

    height = _MARGIN_T + plot_h + _AXIS_H
    return (
        f'<svg viewBox="0 0 {_MARGIN_L + _PLOT_W + 16} {height}" '
        f'width="100%" role="img" aria-label="per-rank timeline">'
        + "".join(parts)
        + "</svg>"
    )


def _links_svg(links: Sequence[Mapping[str, Any]]) -> str:
    """Horizontal utilization strips, one per link (single series)."""
    row_h, label_w, bar_w = 22, 96, 320
    parts = []
    for i, link in enumerate(links):
        y = i * row_h
        util = float(link["utilization"])
        parts.append(
            f'<text class="lane-label" x="{label_w - 8}" y="{y + 15}" '
            f'text-anchor="end">{_esc(link["link"])}</text>'
        )
        parts.append(
            f'<rect class="util-track" x="{label_w}" y="{y + 5}" '
            f'width="{bar_w}" height="12" rx="2"/>'
        )
        parts.append(
            f'<rect class="util-bar" x="{label_w}" y="{y + 5}" '
            f'width="{max(util * bar_w, 1.0):.1f}" height="12" rx="2">'
            f'<title>{_esc(link["link"])}: '
            f'{util * 100:.1f}% busy, {link["transfers"]} transfers, '
            f'{_fmt(float(link["megabits"]), 3)} Mbit</title></rect>'
        )
        saturated = len(link.get("saturated_intervals", []))
        note = f"{util * 100:.1f}%" + (
            f" — {saturated} saturated" if saturated else ""
        )
        parts.append(
            f'<text x="{label_w + bar_w + 10}" y="{y + 15}">{_esc(note)}'
            f"</text>"
        )
    height = max(len(links) * row_h, row_h)
    return (
        f'<svg viewBox="0 0 560 {height}" width="560" role="img" '
        f'aria-label="link utilization">' + "".join(parts) + "</svg>"
    )


def _blocked_table(blocked: Mapping[str, Any]) -> str:
    rows = []
    for entry in blocked["ranks"]:
        peers = entry.get("by_peer_s", {})
        ops = entry.get("by_op_s", {})
        top_peer = (
            max(peers, key=lambda k: peers[k]) if peers else "—"
        )
        top_op = max(ops, key=lambda k: ops[k]) if ops else "—"
        rows.append(
            "<tr>"
            f'<td>r{_esc(entry["rank"])}</td>'
            f'<td>{_fmt(float(entry["busy_compute_s"]))}</td>'
            f'<td>{_fmt(float(entry["busy_comm_s"]))}</td>'
            f'<td>{_fmt(float(entry["blocked_s"]))}</td>'
            f'<td>{_fmt(float(entry["trailing_idle_s"]))}</td>'
            f"<td>{_esc(top_peer)}</td><td>{_esc(top_op)}</td>"
            "</tr>"
        )
    return (
        "<table><thead><tr><th>rank</th><th>compute s</th><th>comm s</th>"
        "<th>blocked s</th><th>trailing idle s</th><th>blocked on</th>"
        "<th>in op</th></tr></thead><tbody>"
        + "".join(rows)
        + "</tbody></table>"
    )


def _wea_table(wea: Mapping[str, Any]) -> str:
    rows = []
    for entry in wea["assignments"]:
        rows.append(
            "<tr>"
            f'<td>r{_esc(entry["rank"])}</td>'
            f'<td>{_esc(entry["rows"])}</td>'
            f'<td>{float(entry["ideal_rows"]):.1f}</td>'
            f'<td>{_fmt(float(entry["busy_s"]))}</td>'
            f'<td>{float(entry["deviation_pct"]):+.2f}%</td>'
            f'<td>{float(entry["rows_to_rebalance"]):+.1f}</td>'
            "</tr>"
        )
    summary = (
        f'D_all {float(wea["d_all"]):.4f} — D_minus '
        f'{float(wea["d_minus"]):.4f} — slowest r{_esc(wea["slowest_rank"])}'
        f' — fastest r{_esc(wea["fastest_rank"])}'
    )
    return (
        f'<p class="subtitle">{_esc(summary)}</p>'
        "<table><thead><tr><th>rank</th><th>rows</th><th>ideal</th>"
        "<th>busy s</th><th>deviation</th><th>rebalance rows</th>"
        "</tr></thead><tbody>" + "".join(rows) + "</tbody></table>"
    )


def _calibration_svg(calibration: CalibrationReport) -> str:
    """Predicted-vs-observed scatter (two series + identity line)."""
    size, pad = 340, 40
    scale_of = {
        "compute": calibration.compute_scale,
        "transfer": calibration.transfer_scale,
    }
    points = [
        (scale_of[s.kind] * s.predicted_s, s.observed_s, s)
        for s in calibration.samples
    ]
    v_max = max(
        (max(p, o) for p, o, _ in points), default=1.0
    ) or 1.0

    def xy(p: float, o: float) -> tuple[float, float]:
        return (
            pad + p / v_max * (size - 2 * pad),
            size - pad - o / v_max * (size - 2 * pad),
        )

    parts = [
        f'<line class="axis" x1="{pad}" y1="{size - pad}" '
        f'x2="{size - pad}" y2="{size - pad}"/>',
        f'<line class="axis" x1="{pad}" y1="{pad}" '
        f'x2="{pad}" y2="{size - pad}"/>',
        f'<line class="ident" x1="{pad}" y1="{size - pad}" '
        f'x2="{size - pad}" y2="{pad}"/>',
        f'<text x="{size / 2:.0f}" y="{size - 8}" text-anchor="middle">'
        f"model s (scaled)</text>",
        f'<text x="12" y="{size / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 12 {size / 2:.0f})">observed s</text>',
        f'<text x="{size - pad}" y="{size - pad + 14}" '
        f'text-anchor="end">{_fmt(v_max, 4)}</text>',
    ]
    for p, o, sample in points:
        x, y = xy(p, o)
        parts.append(
            f'<circle class="pt {sample.kind}" cx="{x:.2f}" cy="{y:.2f}" '
            f'r="4"><title>{_esc(sample.name)} r{sample.rank} '
            f"({_esc(sample.phase)}): model {_fmt(p)}s, observed "
            f"{_fmt(o)}s</title></circle>"
        )
    return (
        f'<svg viewBox="0 0 {size} {size}" width="{size}" role="img" '
        f'aria-label="calibration scatter">' + "".join(parts) + "</svg>"
    )


def _calibration_table(calibration: CalibrationReport) -> str:
    rows = []
    for group in calibration.phases:
        rows.append(
            "<tr>"
            f"<td>{_esc(group.name)}</td><td>{group.count}</td>"
            f"<td>{_fmt(group.predicted_s)}</td>"
            f"<td>{_fmt(group.observed_s)}</td>"
            f"<td>{group.rel_error:.2e}</td>"
            "</tr>"
        )
    return (
        "<table><thead><tr><th>phase</th><th>ops</th><th>model s</th>"
        "<th>observed s</th><th>rel err</th></tr></thead><tbody>"
        + "".join(rows)
        + "</tbody></table>"
    )


def _sweep_table_html(sweep: Mapping[str, Any]) -> str:
    recorded = float(sweep["recorded_makespan_s"])
    rows = []
    for point in sweep["points"]:
        makespan = float(point["makespan_s"])
        speedup = recorded / makespan if makespan else 0.0
        marker = (
            " class=\"current\""
            if point["n_ranks"] == sweep["recorded_n_ranks"] else ""
        )
        rows.append(
            f"<tr{marker}>"
            f"<td>{point['n_ranks']}</td><td>{_fmt(makespan)}</td>"
            f"<td>{point['throughput_pixels_per_s']:.1f}</td>"
            f"<td>{speedup:.3f}×</td>"
            "</tr>"
        )
    return (
        "<table><thead><tr><th>ranks</th><th>predicted makespan s</th>"
        "<th>throughput px/s</th><th>vs recorded</th></tr></thead><tbody>"
        + "".join(rows)
        + "</tbody></table>"
    )


def render_report(
    source: Any,
    analysis: TraceAnalysis,
    calibration: CalibrationReport | None = None,
    title: str = "Run report",
    subtitle: str = "",
    sweep: Mapping[str, Any] | None = None,
) -> str:
    """Render one traced run as a self-contained HTML document.

    Args:
        source: span source for the gantt (session / tracer / loaded
            trace / span sequence).
        analysis: the run's :class:`TraceAnalysis`; its ``to_json()``
            bytes are embedded verbatim for machine consumption.
        calibration: optional cost-model calibration to include.
        title, subtitle: report heading lines.
        sweep: optional capacity-sweep document
            (:func:`repro.obs.whatif.capacity_sweep`) rendered as a
            predicted makespan/throughput-vs-cluster-size table.
    """
    spans = spans_of(source)
    if not spans:
        raise ConfigurationError("no spans to report (trace a run first)")
    a = analysis.to_dict()
    cp = a["critical_path"]

    fault_count = sum(
        1
        for s in spans
        if s.category == "fault" and s.name != "recovery.repartition"
    )
    tiles = [
        _tile(f"{float(cp['makespan']):.4f}s", "makespan"),
        _tile(f"{float(cp['compute_s']):.4f}s", "critical-path compute"),
        _tile(f"{float(cp['comm_s']):.4f}s", "critical-path comm"),
        _tile(
            f"{float(a['blocked_time']['total_blocked_s']):.4f}s",
            "total blocked",
        ),
        _tile(f"r{cp['dominant_rank']}", "dominant rank"),
    ]
    if calibration is not None:
        tiles.append(
            _tile(
                f"{calibration.median_phase_rel_error:.2e}",
                "median phase model error",
            )
        )
    if fault_count:
        tiles.append(_tile(f"▲ {fault_count}", "fault windows"))

    gantt_legend = [
        ("var(--series-1)", "parallel compute"),
        ("var(--series-3)", "sequential"),
        ("var(--series-2)", "transfer"),
        ("var(--status-critical)", "▲ fault window"),
        ("var(--text-primary)", "critical path (outline)"),
    ]

    sections = [
        f'<section><div class="tiles">{"".join(tiles)}</div></section>',
        "<section><h2>Per-rank timeline</h2>"
        + _gantt_svg(spans)
        + _legend(gantt_legend)
        + "</section>",
        "<section><h2>Link utilization</h2>"
        + _links_svg(a["link_utilization"]["links"])
        + "</section>",
        "<section><h2>Blocked time</h2>"
        + _blocked_table(a["blocked_time"])
        + "</section>",
    ]
    if "wea_attribution" in a:
        sections.append(
            "<section><h2>WEA load balance</h2>"
            + _wea_table(a["wea_attribution"])
            + "</section>"
        )
    if calibration is not None:
        sections.append(
            "<section><h2>Cost-model calibration — "
            + _esc(calibration.platform)
            + "</h2>"
            + _calibration_svg(calibration)
            + _legend(
                [
                    ("var(--series-1)", "kernel charge"),
                    ("var(--series-2)", "transfer"),
                ]
            )
            + _calibration_table(calibration)
            + "</section>"
        )
    if sweep is not None:
        sections.append(
            "<section><h2>Capacity plan — predicted scaling "
            "(what-if replay)</h2>"
            + _sweep_table_html(sweep)
            + "</section>"
        )

    embeds = [
        '<script type="application/json" id="repro-analysis">'
        + analysis.to_json()
        + "</script>"
    ]
    if calibration is not None:
        embeds.append(
            '<script type="application/json" id="repro-calibration">'
            + calibration.to_json()
            + "</script>"
        )
    if sweep is not None:
        embeds.append(
            '<script type="application/json" id="repro-whatif-sweep">'
            + canonical_json(sweep).rstrip("\n")
            + "</script>"
        )

    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        f"<title>{_esc(title)}</title>\n"
        f"<style>\n{_CSS}</style>\n"
        '</head><body class="viz-root">\n'
        f"<h1>{_esc(title)}</h1>\n"
        f'<p class="subtitle">{_esc(subtitle)}</p>\n'
        + "\n".join(sections)
        + "\n"
        + "\n".join(embeds)
        + "\n</body></html>\n"
    )


def write_report(
    path: str | Path,
    source: Any,
    analysis: TraceAnalysis,
    calibration: CalibrationReport | None = None,
    title: str = "Run report",
    subtitle: str = "",
    sweep: Mapping[str, Any] | None = None,
) -> Path:
    """Render and write the HTML report; returns the written path."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        render_report(
            source, analysis, calibration, title=title, subtitle=subtitle,
            sweep=sweep,
        ),
        encoding="utf-8",
    )
    return out
