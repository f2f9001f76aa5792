"""Unified observability: tracing + metrics over both MPI backends.

One :class:`ObsSession` bundles a span :class:`~repro.obs.trace.Tracer`
and a :class:`~repro.obs.metrics.MetricsRegistry`.  Pass it to
:func:`repro.core.run_parallel` (or directly to
:class:`~repro.cluster.engine.SimulationEngine` /
:func:`repro.mpi.inproc.run_inproc`) and every communicator call,
collective, charged computation, and algorithm phase is recorded —
clocked by virtual time on the simulation engine and by
``time.perf_counter`` on the wall-clock backend, so both produce
structurally identical telemetry.

Quickstart::

    from repro.obs import ObsSession, write_chrome_trace
    from repro.core import run_parallel

    obs = ObsSession.create()
    run = run_parallel("atdca", image, platform, obs=obs)
    write_chrome_trace("atdca.trace.json", obs)   # open in Perfetto
    print(obs.metrics.value("comm.megabits_sent", rank=0, peer=1))

Observability is opt-in: with no session attached, instrumented code
sees :data:`~repro.obs.trace.NULL_TRACER` and pays only an attribute
check.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any

from repro.obs.analyze import (
    BlockedTimeReport,
    CriticalPathReport,
    FaultWindow,
    LinkUtilizationReport,
    TraceAnalysis,
    WeaAttributionReport,
    analyze_trace,
    blocked_time,
    critical_path,
    fault_windows,
    link_utilization,
    wea_attribution,
)
from repro.obs.export import (
    LoadedTrace,
    breakdown_from_spans,
    chrome_trace,
    jsonl_lines,
    metrics_records,
    openmetrics_text,
    read_jsonl,
    spans_of,
    summary_table,
    write_chrome_trace,
    write_jsonl,
    write_metrics_json,
    write_openmetrics,
)
from repro.obs.metrics import (
    DEFAULT_BUCKET_BOUNDS,
    Counter,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import NULL_TRACER, NullTracer, Span, Tracer, tracer_of

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.health import HealthMonitor

#: Members imported on first use.  Their modules serve single tools
#: and runs that ask for them; importing them here would add 0.07-0.10 s
#: to the 0.33-0.37 s that importing ``repro`` and its packages takes
#: (about +25 %) and 2.1 MiB resident, measured on 2 x86-64 vCPUs.
_LAZY = {
    "CalibrationReport": "repro.obs.profile",
    "GateResult": "repro.obs.profile",
    "OpSample": "repro.obs.profile",
    "calibration_gate": "repro.obs.profile",
    "profile_trace": "repro.obs.profile",
    "HealthEvent": "repro.obs.health",
    "HealthMonitor": "repro.obs.health",
    "WhatIfPlan": "repro.obs.whatif",
    "ReplayOp": "repro.obs.whatif",
    "ReplayResult": "repro.obs.whatif",
    "load_whatif_plan": "repro.obs.whatif",
    "replay": "repro.obs.whatif",
    "replay_ops_from_trace": "repro.obs.whatif",
    "capacity_sweep": "repro.obs.whatif",
    "CausalEntry": "repro.obs.causal",
    "CausalProfile": "repro.obs.causal",
    "causal_profile": "repro.obs.causal",
    "provenance": "repro.obs.provenance",
}


def __getattr__(name: str) -> Any:
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(target), name)

__all__ = [
    "ObsSession",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "tracer_of",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKET_BOUNDS",
    "BlockedTimeReport",
    "CriticalPathReport",
    "FaultWindow",
    "LinkUtilizationReport",
    "TraceAnalysis",
    "WeaAttributionReport",
    "analyze_trace",
    "blocked_time",
    "critical_path",
    "fault_windows",
    "link_utilization",
    "wea_attribution",
    "CalibrationReport",
    "GateResult",
    "OpSample",
    "calibration_gate",
    "profile_trace",
    "HealthEvent",
    "HealthMonitor",
    "LoadedTrace",
    "breakdown_from_spans",
    "chrome_trace",
    "jsonl_lines",
    "metrics_records",
    "openmetrics_text",
    "read_jsonl",
    "spans_of",
    "summary_table",
    "write_chrome_trace",
    "write_jsonl",
    "write_metrics_json",
    "write_openmetrics",
    "WhatIfPlan",
    "ReplayOp",
    "ReplayResult",
    "load_whatif_plan",
    "replay",
    "replay_ops_from_trace",
    "capacity_sweep",
    "CausalEntry",
    "CausalProfile",
    "causal_profile",
    "provenance",
]


@dataclasses.dataclass
class ObsSession:
    """A tracer + metrics pair shared by every rank of one run.

    Attributes:
        tracer: span collector (clock rebound by the chosen backend).
        metrics: labelled counter/histogram registry.
        health: optional :class:`~repro.obs.health.HealthMonitor` (the
            rank drift detector); both backends feed it when present.
    """

    tracer: Tracer
    metrics: MetricsRegistry
    health: "HealthMonitor | None" = None

    @classmethod
    def create(cls, health: "HealthMonitor | None" = None) -> "ObsSession":
        """A fresh session with a wall-clock tracer (the virtual-time
        engine rebinds the clock when the session is attached); pass a
        :class:`~repro.obs.health.HealthMonitor` to detect drifting
        ranks while the run executes."""
        return cls(tracer=Tracer(), metrics=MetricsRegistry(), health=health)
