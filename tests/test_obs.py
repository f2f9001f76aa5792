"""The observability layer: spans, metrics, exporters, and the wiring
into both backends (virtual-time engine and wall-clock threads)."""

from __future__ import annotations

import hashlib
import json
import sys
import threading
from pathlib import Path

import pytest

from repro.cluster.engine import run_program
from repro.cluster.presets import fully_heterogeneous
from repro.core.runner import ALGORITHM_NAMES, run_parallel
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.traced import run_traced
from repro.faults.plan import FaultPlan, RankCrash, load_fault_plan
from repro.faults.recovery import run_with_recovery
from repro.hsi import SceneConfig, make_wtc_scene
from repro.mpi.communicator import Communicator
from repro.mpi.inproc import run_inproc
from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    ObsSession,
    Tracer,
    breakdown_from_spans,
    chrome_trace,
    jsonl_lines,
    metrics_records,
    spans_of,
    summary_table,
    tracer_of,
    write_chrome_trace,
    write_jsonl,
    write_metrics_json,
)
from repro.obs.export import JSONL_SCHEMA, canonical_json
from repro.obs.trace import SPAN_CATEGORIES, Span
from repro.perf.timers import breakdown_of_run
from repro.viz.timeline import ascii_gantt, gantt_of_trace

from conftest import make_tiny_platform

REPO = Path(__file__).resolve().parents[1]


def sum_counters(records, name):
    """Sum ``value`` across all metrics records named ``name``."""
    return sum(r.get("value", 0.0) for r in records if r["name"] == name)

#: Small parameter sets so the wall-clock backend stays fast.
_STRUCTURE_PARAMS = {
    "atdca": {"n_targets": 4},
    "ufcls": {"n_targets": 4},
    "pct": {"n_classes": 5},
    "morph": {"n_classes": 5, "iterations": 1},
}


def _manual_tracer():
    """A tracer whose clock is advanced by hand (deterministic tests)."""
    tracer = Tracer()
    tracer.t = 0.0
    tracer.set_clock(lambda rank: tracer.t)
    return tracer


@pytest.fixture(scope="module")
def obs_scene():
    """Small scene for traced end-to-end runs."""
    return make_wtc_scene(SceneConfig(rows=48, cols=16, bands=24, seed=7))


def _traced_sim_run(scene, algorithm="atdca", platform=None, **params):
    obs = ObsSession.create()
    run = run_parallel(
        algorithm,
        scene.image,
        platform or make_tiny_platform(),
        params or {"n_targets": 5},
        backend="sim",
        obs=obs,
    )
    return run, obs


class TestTracer:
    def test_span_nesting_and_attribution(self):
        tracer = _manual_tracer()
        with tracer.span("outer", rank=2, k=1):
            tracer.t = 1.0
            with tracer.span("inner", rank=2, category="mpi"):
                tracer.t = 1.5
            tracer.t = 2.0
        spans = tracer.spans()
        assert [s.name for s in spans] == ["outer", "inner"]
        outer, inner = spans
        assert outer.rank == inner.rank == 2
        assert outer.parent is None
        assert inner.parent == outer.span_id
        assert (outer.start, outer.end) == (0.0, 2.0)
        assert (inner.start, inner.end) == (1.0, 1.5)
        assert inner.category == "mpi"
        assert outer.attrs == {"k": 1}
        assert outer.duration == pytest.approx(2.0)

    def test_per_rank_seq_counters(self):
        tracer = _manual_tracer()
        for rank in (0, 1, 0):
            with tracer.span("s", rank=rank):
                pass
        seqs = {(s.rank, s.seq) for s in tracer.spans()}
        assert seqs == {(0, 0), (0, 1), (1, 0)}

    def test_add_span_has_no_parent(self):
        tracer = _manual_tracer()
        with tracer.span("enclosing", rank=0):
            span = tracer.add_span("transfer", 0, 0.5, 0.7,
                                   category="transfer", peer=1)
        assert span.parent is None
        assert span.attrs == {"peer": 1}
        assert len(tracer) == 2

    def test_spans_sorted_deterministically(self):
        tracer = _manual_tracer()
        tracer.add_span("b", 1, 0.0, 1.0)
        tracer.add_span("a", 0, 0.0, 1.0)
        tracer.add_span("c", 0, 2.0, 3.0)
        assert [s.name for s in tracer.spans()] == ["a", "b", "c"]

    def test_spans_shows_spans_recorded_after_an_earlier_call(self):
        tracer = _manual_tracer()
        tracer.add_span("a", 0, 1.0, 2.0)
        assert [s.name for s in tracer.spans()] == ["a"]
        tracer.add_span("b", 1, 0.0, 1.0)
        assert [s.name for s in tracer.spans()] == ["b", "a"]
        with tracer.span("c", rank=2):
            pass
        assert [s.name for s in tracer.spans()] == ["b", "c", "a"]

    def test_spans_returns_a_list_the_caller_owns(self):
        tracer = _manual_tracer()
        tracer.add_span("a", 0, 0.0, 1.0)
        tracer.add_span("b", 0, 1.0, 2.0)
        first = tracer.spans()
        first.reverse()
        first.append(first[0])
        assert [s.name for s in tracer.spans()] == ["a", "b"]

    def test_nested_spans_keep_parents_and_seqs(self):
        tracer = _manual_tracer()
        with tracer.span("outer", rank=1):
            tracer.add_span("sent", 1, 0.0, 0.0, category="transfer")
            with tracer.span("mid", rank=1):
                with tracer.span("inner", rank=1):
                    pass
                with tracer.span("other", rank=0):
                    pass
            with tracer.span("after", rank=1):
                pass
        with pytest.raises(RuntimeError):
            with tracer.span("failed", rank=1):
                raise RuntimeError("boom")
        with tracer.span("last", rank=1):
            pass
        assert sorted(
            (s.name, s.rank, s.seq, s.parent) for s in tracer.spans()
        ) == [
            ("after", 1, 4, (1, 0)),
            ("failed", 1, 5, None),
            ("inner", 1, 3, (1, 2)),
            ("last", 1, 6, None),
            ("mid", 1, 2, (1, 0)),
            ("other", 0, 0, (1, 2)),
            ("outer", 1, 0, None),
            ("sent", 1, 1, None),
        ]

    def test_concurrent_recording_loses_nothing(self):
        tracer, registry = Tracer(), MetricsRegistry()
        ranks, rounds = 16, 200

        def rank_program(rank):
            for i in range(rounds):
                with tracer.span("block", rank=rank):
                    tracer.add_span("event", rank, 0.0, 0.0)
                registry.counter("n", rank=rank % 4).inc()
                registry.histogram("h", rank=rank % 4).observe(1.0)
                if i % 50 == 0:
                    tracer.spans()  # sorts and caches mid-run

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=rank_program, args=(rank,))
                for rank in range(ranks)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        spans = tracer.spans()
        assert len(spans) == len(tracer) == ranks * rounds * 2
        for rank in range(ranks):
            seqs = sorted(s.seq for s in spans if s.rank == rank)
            assert seqs == list(range(2 * rounds))
        assert registry.total("n") == ranks * rounds
        assert registry.total("h") == ranks * rounds
        assert len(registry) == 8

    def test_null_tracer_is_inert(self):
        assert tracer_of(object()) is NULL_TRACER
        with NULL_TRACER.span("anything", rank=3, k=1):
            pass
        assert NULL_TRACER.spans() == []
        assert len(NULL_TRACER) == 0
        assert not NULL_TRACER.enabled

    def test_wall_clock_advances(self):
        tracer = Tracer()
        with tracer.span("tick"):
            pass
        (span,) = tracer.spans()
        assert span.end >= span.start >= 0.0


class TestMetrics:
    def test_counter_labels_and_totals(self):
        reg = MetricsRegistry()
        reg.counter("msgs", rank=0, peer=1).inc()
        reg.counter("msgs", rank=0, peer=1).inc(2.0)
        reg.counter("msgs", rank=1, peer=0).inc()
        assert reg.value("msgs", rank=0, peer=1) == 3.0
        assert reg.value("msgs", rank=1, peer=0) == 1.0
        assert reg.value("msgs", rank=9, peer=9) is None
        assert reg.total("msgs") == 4.0

    def test_counter_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().counter("c").inc(-1.0)

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        for v in (1.0, 3.0, 2.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 3
        assert snap["total"] == 6.0
        assert snap["min"] == 1.0
        assert snap["max"] == 3.0
        assert snap["mean"] == pytest.approx(2.0)

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x", rank=0)
        with pytest.raises(ConfigurationError):
            reg.histogram("x", rank=0)

    def test_label_order_gives_one_metric(self):
        reg = MetricsRegistry()
        first = reg.counter("m", a=1, b=2)
        first.inc()
        assert reg.counter("m", b=2, a=1) is first
        assert reg.counter("m", a=1, b=2) is first
        assert reg.counter("m", a="1", b="2") is first
        assert [r["labels"] for r in reg.records()] == [
            {"a": "1", "b": "2"}
        ]

    def test_equal_label_values_with_other_text_stay_apart(self):
        reg = MetricsRegistry()
        reg.counter("m", flag=1).inc()
        reg.counter("m", flag=True).inc(2.0)
        reg.counter("m", flag=0.0).inc(3.0)
        reg.counter("m", flag=-0.0).inc(4.0)
        reg.counter("m", flag=[1]).inc(5.0)  # unhashable: no memo
        reg.counter("m", flag=[1]).inc(5.0)
        assert {r["labels"]["flag"]: r["value"] for r in reg.records()} == {
            "1": 1.0, "True": 2.0, "0.0": 3.0, "-0.0": 4.0, "[1]": 10.0,
        }

    def test_kind_conflict_raises_after_a_memo_hit(self):
        reg = MetricsRegistry()
        counter = reg.counter("c")
        assert reg.counter("c") is counter
        hist = reg.histogram("h")
        assert reg.histogram("h") is hist
        for _ in range(2):
            with pytest.raises(ConfigurationError):
                reg.histogram("c")
            with pytest.raises(ConfigurationError):
                reg.counter("h")

    def test_records_are_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.counter("a", rank=1).inc()
        reg.counter("a", rank=0).inc()
        keys = [(r["name"], tuple(sorted(r["labels"].items())))
                for r in reg.records()]
        assert keys == sorted(keys)
        assert sum_counters(reg.records(), "a") == 2.0


class TestCommunicatorCounting:
    @staticmethod
    def _collective_program(ctx):
        comm = Communicator(ctx)
        comm.bcast([1, 2] if comm.is_master else None)
        comm.gather(ctx.rank)
        return comm.allreduce(1)

    def test_collective_counts_match_calls(self):
        obs = ObsSession.create()
        platform = make_tiny_platform()
        result = run_program(platform, self._collective_program, obs=obs)
        assert all(v == platform.size for v in result.return_values)
        records = [r for r in obs.metrics.records()
                   if r["name"] == "mpi.collectives"]
        by_kind: dict[str, float] = {}
        for r in records:
            by_kind[r["labels"]["kind"]] = (
                by_kind.get(r["labels"]["kind"], 0.0) + r["value"]
            )
        n = platform.size
        assert by_kind["gather"] == n       # one explicit gather per rank
        assert by_kind["allreduce"] == n
        assert by_kind["reduce"] == n       # allreduce = reduce + bcast
        assert by_kind["bcast"] == 2 * n    # explicit + allreduce-internal
        # Every rank gets one "mpi" span per collective entered.
        mpi_spans = [s for s in obs.tracer.spans() if s.category == "mpi"]
        assert len(mpi_spans) == 5 * n

    def test_message_counters_balance(self):
        obs = ObsSession.create()
        run_program(make_tiny_platform(), self._collective_program, obs=obs)
        records = obs.metrics.records()
        sent = sum_counters(records, "comm.messages_sent")
        received = sum_counters(records, "comm.messages_received")
        assert sent == received > 0
        mb_sent = sum_counters(records, "comm.megabits_sent")
        mb_received = sum_counters(records, "comm.megabits_received")
        assert mb_sent == pytest.approx(mb_received)


class TestChromeTraceExport:
    def test_schema_validity(self, obs_scene):
        _, obs = _traced_sim_run(obs_scene)
        doc = chrome_trace(obs)
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        events = doc["traceEvents"]
        assert events, "trace must not be empty"
        # The document must survive a JSON round trip.
        assert json.loads(json.dumps(doc)) == doc
        meta = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert len(meta) + len(complete) == len(events)
        names = {e["args"]["name"] for e in meta}
        assert "repro" in names
        for event in complete:
            assert isinstance(event["name"], str)
            assert event["cat"] in SPAN_CATEGORIES
            assert event["pid"] == 0
            assert isinstance(event["tid"], int)
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
            assert isinstance(event["args"], dict)
        # One thread_name metadata lane per participating rank.
        lanes = {e["tid"] for e in complete}
        thread_meta = {e["tid"] for e in meta if e["name"] == "thread_name"}
        assert lanes <= thread_meta

    def test_transfer_spans_carry_peers(self, obs_scene):
        _, obs = _traced_sim_run(obs_scene)
        transfers = [s for s in obs.tracer.spans() if s.category == "transfer"]
        assert transfers
        assert {s.attrs["direction"] for s in transfers} == {"send", "recv"}
        assert all(isinstance(s.attrs["peer"], int) for s in transfers)


class TestSimBackendIntegration:
    def test_breakdown_crosscheck_table5_preset(self, obs_scene, het_platform):
        """Span-derived COM/SEQ/PAR equals the engine phase ledger."""
        run, obs = _traced_sim_run(
            obs_scene, platform=het_platform, n_targets=6
        )
        ledger = breakdown_of_run(run.sim)
        triple = breakdown_from_spans(obs)
        assert triple["com"] == pytest.approx(ledger.com, abs=1e-9)
        assert triple["seq"] == pytest.approx(ledger.seq, abs=1e-9)
        assert triple["par"] == pytest.approx(ledger.par, abs=1e-9)
        assert triple["total"] == pytest.approx(run.sim.makespan, abs=1e-9)

    def test_sim_exports_are_deterministic(self, obs_scene):
        def export_pair():
            _, obs = _traced_sim_run(obs_scene, algorithm="pct", n_classes=6)
            return (
                json.dumps(chrome_trace(obs), sort_keys=True),
                json.dumps(metrics_records(obs), sort_keys=True),
                "\n".join(jsonl_lines(obs)),
            )

        assert export_pair() == export_pair()

    def test_per_peer_byte_counts(self, obs_scene):
        _, obs = _traced_sim_run(obs_scene)
        records = [r for r in obs.metrics.records()
                   if r["name"] == "comm.megabits_sent"]
        assert records
        for r in records:
            assert set(r["labels"]) == {"rank", "peer"}
            assert r["value"] > 0.0
        # The master scatters the scene: every worker hears from it.
        master_out = {r["labels"]["peer"] for r in records
                      if r["labels"]["rank"] == "0"}
        assert master_out == {str(i) for i in range(1, 4)}

    def test_phase_spans_cover_iterations(self, obs_scene):
        _, obs = _traced_sim_run(obs_scene, n_targets=5)
        phases = [s for s in obs.tracer.spans() if s.category == "phase"]
        names = {s.name for s in phases}
        assert {"scatter", "atdca.brightest", "atdca.iteration"} <= names
        per_rank = [s for s in phases
                    if s.name == "atdca.iteration" and s.rank == 0]
        assert [s.attrs["k"] for s in per_rank] == [1, 2, 3, 4]

    def test_sim_idle_and_com_counters(self, obs_scene):
        _, obs = _traced_sim_run(obs_scene)
        records = obs.metrics.records()
        assert sum_counters(records, "sim.com_seconds") > 0.0
        assert any(r["name"] == "sim.transfer_seconds" for r in records)
        assert sum_counters(records, "compute.mflops") > 0.0


class TestInprocBackendIntegration:
    @pytest.fixture(scope="class")
    def traced_inproc(self, obs_scene):
        obs = ObsSession.create()
        run = run_parallel(
            "atdca",
            obs_scene.image,
            make_tiny_platform(),
            {"n_targets": 5},
            backend="inproc",
            obs=obs,
        )
        return run, obs

    def test_structurally_identical_phases(self, obs_scene, traced_inproc):
        _, inproc_obs = traced_inproc
        _, sim_obs = _traced_sim_run(obs_scene, n_targets=5)

        def shape(obs):
            return sorted(
                (s.name, s.rank, s.category)
                for s in obs.tracer.spans()
                if s.category in ("phase", "mpi")
            )

        assert shape(inproc_obs) == shape(sim_obs)

    @pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
    def test_sim_and_inproc_are_structurally_equivalent(
        self, obs_scene, algorithm
    ):
        """The two backends execute the same program: per rank and in
        program order, the same phases, collectives and kernels, and the
        same transfers with the same volumes."""

        def ops(backend):
            obs = ObsSession.create()
            run_parallel(
                algorithm, obs_scene.image, make_tiny_platform(),
                _STRUCTURE_PARAMS[algorithm], backend=backend, obs=obs,
            )
            keys: dict[int, list[tuple]] = {}
            megabits: dict[int, list[float]] = {}
            for span in sorted(obs.tracer.spans(), key=lambda s: s.seq):
                if span.category == "transfer":
                    keys.setdefault(span.rank, []).append(
                        (span.attrs["direction"], span.attrs["peer"])
                    )
                    megabits.setdefault(span.rank, []).append(
                        span.attrs["megabits"]
                    )
                elif span.category in ("phase", "mpi", "kernel"):
                    keys.setdefault(span.rank, []).append(
                        (span.category, span.name)
                    )
            return keys, megabits

        sim_keys, sim_megabits = ops("sim")
        inproc_keys, inproc_megabits = ops("inproc")
        assert sim_megabits, "no transfers recorded"
        assert inproc_keys == sim_keys
        assert inproc_megabits.keys() == sim_megabits.keys()
        for rank, volumes in sim_megabits.items():
            assert inproc_megabits[rank] == pytest.approx(volumes, rel=1e-6)

    def test_wall_clock_spans_are_ordered(self, traced_inproc):
        _, obs = traced_inproc
        spans = obs.tracer.spans()
        assert spans
        assert all(s.end >= s.start >= 0.0 for s in spans)

    def test_message_counters_balance(self, traced_inproc):
        _, obs = traced_inproc
        records = obs.metrics.records()
        sent = sum_counters(records, "comm.messages_sent")
        received = sum_counters(records, "comm.messages_received")
        assert sent == received > 0

    def test_gantt_of_trace_renders(self, traced_inproc):
        _, obs = traced_inproc
        chart = gantt_of_trace(obs, width=60)
        lines = chart.splitlines()
        assert len(lines) == 4 + 3  # lanes + axis + scale + legend
        assert "=" in chart or "#" in chart

    def test_outputs_match_sim_backend(self, obs_scene, traced_inproc):
        inproc_run, _ = traced_inproc
        sim_run, _ = _traced_sim_run(obs_scene, n_targets=5)
        assert (inproc_run.output.flat_indices
                == sim_run.output.flat_indices).all()


class TestExports:
    def test_jsonl_round_trip(self, obs_scene, tmp_path):
        _, obs = _traced_sim_run(obs_scene)
        path = write_jsonl(tmp_path / "run.jsonl", obs)
        lines = path.read_text().splitlines()
        objs = [json.loads(line) for line in lines]
        kinds = {o["type"] for o in objs}
        assert kinds == {"schema", "span", "metric"}
        assert objs[0] == {"type": "schema", "version": JSONL_SCHEMA}
        n_spans = sum(1 for o in objs if o["type"] == "span")
        assert n_spans == len(obs.tracer)

    def test_write_chrome_and_metrics(self, obs_scene, tmp_path):
        _, obs = _traced_sim_run(obs_scene)
        trace_path = write_chrome_trace(tmp_path / "t.trace.json", obs)
        metrics_path = write_metrics_json(tmp_path / "t.metrics.json", obs)
        doc = json.loads(trace_path.read_text())
        assert doc["traceEvents"]
        metrics = json.loads(metrics_path.read_text())["metrics"]
        assert metrics == metrics_records(obs)

    def test_summary_table(self, obs_scene):
        _, obs = _traced_sim_run(obs_scene)
        text = summary_table(obs)
        assert "span time by category" in text
        assert "COM=" in text and "SEQ=" in text and "PAR=" in text

    def test_spans_of_accepts_sequences(self):
        tracer = _manual_tracer()
        tracer.add_span("a", 0, 0.0, 1.0)
        spans = tracer.spans()
        assert spans_of(spans) == spans
        assert spans_of(tracer) == spans
        assert spans_of(ObsSession(tracer=tracer,
                                   metrics=MetricsRegistry())) == spans

    def test_breakdown_of_empty_trace(self):
        triple = breakdown_from_spans([])
        assert triple == {"com": 0.0, "seq": 0.0, "par": 0.0, "total": 0.0}


class TestGanttEdgeCases:
    def test_zero_makespan_renders_empty_axis(self):
        events = [Span("compute", 0, 0.0, 0.0, category="compute")]
        chart = ascii_gantt(events, n_ranks=1, width=40)
        lines = chart.splitlines()
        assert len(lines) == 1 + 3
        assert "#" not in lines[0]  # nothing painted in the lane
        assert "0.00 s" in chart

    def test_empty_events_still_raise(self):
        with pytest.raises(ConfigurationError):
            ascii_gantt([], n_ranks=2)

    def test_empty_trace_raises(self):
        with pytest.raises(ConfigurationError):
            gantt_of_trace(Tracer())

    def test_phase_background_glyph(self):
        tracer = _manual_tracer()
        tracer.add_span("phase", 0, 0.0, 1.0, category="phase")
        tracer.add_span("transfer", 0, 0.4, 0.6, category="transfer")
        chart = gantt_of_trace(tracer, width=40)
        lane = chart.splitlines()[0]
        assert "." in lane
        assert "=" in lane  # transfer overpaints the enclosing phase


@pytest.fixture(scope="module")
def crash_run():
    """A sim run whose rank 3 crashes and recovers onto the survivors."""
    scene = make_wtc_scene(SceneConfig(rows=32, cols=8, bands=16, seed=7))
    obs = ObsSession.create()
    plan = FaultPlan((RankCrash(rank=3, at_op_index=7),), name="crash-r3")
    run = run_with_recovery(
        "atdca", scene.image, make_tiny_platform(),
        params={"n_targets": 4}, backend="sim", plan=plan, obs=obs,
    )
    assert run.recovered
    return obs


class TestPostRecoveryGantt:
    def test_chart_text(self, crash_run):
        assert gantt_of_trace(crash_run, width=72) == (
            "r0 |S============#======S====#====!==========#====S====#====S"
            "====#====S=====|\n"
            "r1 |=============#===========#=== ===========#=========#====="
            "====#==========|\n"
            "r2 |=============#===========#=============#========##======="
            "=#==========   |\n"
            "r3 |=============#===========!                              "
            "                |\n"
            "   +-----------------------------------------------------------"
            "-------------+\n"
            "    0                                                         "
            "     0.03 s\n"
            "    #=parallel compute  S=sequential  ==transfer  .=phase  "
            "!=fault"
        )

    def test_survivor_lanes_follow_the_seam_mapping(self, crash_run):
        """After rank 3 crashes, the dense post-recovery ranks 0..2 map
        back to original lanes via the repartition seam: the crashed
        lane carries no work past the seam."""
        obs = crash_run
        spans = obs.tracer.spans()
        seams = [
            s for s in spans
            if s.category == "fault" and s.name == "recovery.repartition"
        ]
        assert seams, "recovery must record a repartition seam"
        seam = seams[-1]
        survivors = tuple(seam.attrs["ranks"])
        assert 3 not in survivors
        chart = gantt_of_trace(obs, width=72)
        # The crashed rank keeps its own lane (four lanes, not three
        # dense ones) and the chart renders a fault glyph for it.
        assert "r  3" in chart or "r 3" in chart or "r3" in chart
        assert "!" in chart
        # Post-seam spans carry dense ranks that all resolve through the
        # seam mapping to survivors — never to the crashed rank's lane.
        for span in spans:
            if span.category == "fault":
                continue
            if span.start >= seam.end:
                assert span.rank < len(survivors)
                assert survivors[span.rank] != 3

    def test_fault_windows_do_not_stretch_the_axis(self, obs_scene):
        """The chaos plan's slowdown and link windows last 5 s, far past
        the run: the axis reads the extent of the work, not of them."""
        obs = ObsSession.create()
        run_with_recovery(
            "atdca", obs_scene.image, fully_heterogeneous(),
            params={"n_targets": 5}, backend="sim",
            plan=load_fault_plan(REPO / "benchmarks/plans/chaos.json"),
            obs=obs,
        )
        spans = obs.tracer.spans()
        work = [s for s in spans if s.category != "fault"]
        extent = max(s.end for s in work) - min(s.start for s in work)
        assert max(s.end for s in spans) > 2 * extent
        scale = gantt_of_trace(obs, width=60).splitlines()[-2]
        assert scale.endswith(f" {extent:.2f} s")


class TestTracedRunsAndCLI:
    def test_run_traced_both_backends(self, tmp_path):
        config = ExperimentConfig(
            scene=SceneConfig(rows=48, cols=16, bands=24, seed=7),
            n_targets=5,
        )
        for backend in ("sim", "inproc"):
            traced = run_traced(config, tmp_path, backend=backend)
            assert traced.n_spans > 0
            for path in traced.files:
                assert path.exists()
            doc = json.loads((tmp_path / f"atdca_{backend}.trace.json")
                             .read_text())
            assert doc["traceEvents"]
            metrics = json.loads((tmp_path / f"atdca_{backend}.metrics.json")
                                 .read_text())["metrics"]
            assert any(r["name"] == "comm.megabits_sent" for r in metrics)

    #: sha256 of each sim export of :meth:`test_sim_exports_are_golden`'s
    #: run (of the analysis JSON: its ``canonical_json`` less
    #: ``provenance``).  Sim exports are compared byte for byte across
    #: commits, so a digest changes only with a deliberate format change.
    SIM_EXPORT_DIGESTS = {
        ".trace.json":
            "5572083127f6b1c091d1189d4138af1dcfae4d89b111f62376b0eca94afa52e4",
        ".jsonl":
            "9ebc13639609c10df38a997ef11e72dad1f56b7a51d254e9529131487aaf008d",
        ".metrics.json":
            "94863b2c28a72e5776d58c9c0a0ad7a32cc02f91e3fa26a7ec183dcd27b331cc",
        ".summary.txt":
            "e197b4847a8ff08bc7d3f1ebee380658f535062f3696e7bf7bd9a906f712a38f",
        ".analysis.txt":
            "36acbf27783272bf78c5a204f81f4468c23326412538f128d32db4b5325763e8",
        ".analysis.json":
            "4ca1ddd3a53da8d5130e70f55a06edc95e6bd01471c3320ffebe05a23535b1c5",
    }

    def test_sim_exports_are_golden(self, tmp_path):
        config = ExperimentConfig(
            scene=SceneConfig(rows=48, cols=8, bands=16, seed=7),
            n_targets=6,
        )
        run_traced(config, tmp_path, backend="sim", algorithm="atdca")
        digests = {}
        for suffix in self.SIM_EXPORT_DIGESTS:
            data = (tmp_path / f"atdca_sim{suffix}").read_bytes()
            if suffix == ".analysis.json":
                doc = json.loads(data)
                del doc["provenance"]
                data = canonical_json(doc).encode()
            digests[suffix] = hashlib.sha256(data).hexdigest()
        assert digests == self.SIM_EXPORT_DIGESTS

    def test_cli_trace_flag(self, tmp_path):
        from repro.experiments.runner import main

        rc = main([
            "--trace", str(tmp_path / "traces"),
            "--outdir", str(tmp_path / "out"),
            "--rows", "48", "--cols", "16", "--bands", "24",
        ])
        assert rc == 0
        trace = tmp_path / "traces" / "atdca_sim.trace.json"
        assert json.loads(trace.read_text())["traceEvents"]
        assert (tmp_path / "traces" / "atdca_inproc.trace.json").exists()

    def test_cli_trace_writes_openmetrics(self, tmp_path):
        from repro.experiments.runner import main

        traces = tmp_path / "traces"
        rc = main([
            "--trace", str(traces), "--outdir", str(tmp_path / "out"),
            "--rows", "48", "--cols", "16", "--bands", "24",
        ])
        assert rc == 0
        for backend in ("sim", "inproc"):
            assert (traces / f"atdca_{backend}.metrics.json").exists()
            prom = (traces / f"atdca_{backend}.prom").read_text()
            assert prom.endswith("# EOF\n")

    def test_cli_requires_work(self):
        from repro.experiments.runner import main

        with pytest.raises(SystemExit):
            main([])


class TestOpenMetricsRoundTrip:
    """The exposition's spec checks: the ``# EOF`` terminator, the
    explicit ``+Inf`` bucket, and one ``# TYPE`` family per registry
    metric of a real session."""

    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("engine.ops", rank=0).inc(3)
        registry.counter("engine.ops", rank=1).inc(5.5)
        hist = registry.histogram("transfer.seconds", link="a~b")
        for v in (0.0005, 0.005, 0.05, 0.5):
            hist.observe(v)
        return registry

    def test_document_ends_with_eof_and_explicit_inf_bucket(
        self, small_scene
    ):
        from repro.obs.export import metrics_records, openmetrics_text

        text = openmetrics_text(self._registry())
        assert text.endswith("# EOF\n")
        assert 'le="+Inf"' in text
        # The +Inf bucket equals the count sample (spec requirement).
        inf_line = [l for l in text.splitlines() if 'le="+Inf"' in l][0]
        count_line = [
            l for l in text.splitlines()
            if l.startswith("transfer_seconds_count")
        ][0]
        assert inf_line.split()[-1] == count_line.split()[-1] == "4"

        # End to end: a real session's families are its metric names.
        obs = ObsSession.create()
        run_parallel(
            "atdca",
            small_scene.image,
            make_tiny_platform(),
            params={"n_targets": 3},
            backend="sim",
            obs=obs,
        )
        text = openmetrics_text(obs)
        assert text.endswith("# EOF\n")
        families = {
            line.split()[2] for line in text.splitlines()
            if line.startswith("# TYPE ")
        }
        assert families == {
            r["name"].replace(".", "_") for r in metrics_records(obs)
        }
