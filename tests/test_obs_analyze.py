"""Trace analytics: happens-before DAG, critical path, blocked-time
attribution, link utilization, WEA imbalance attribution, and the
bucketed-histogram / OpenMetrics additions to the metrics layer."""

from __future__ import annotations

import json
import math

import pytest

from repro.cluster.presets import fully_heterogeneous
from repro.core.runner import run_parallel
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.hsi import SceneConfig, make_wtc_scene
from repro.obs import (
    DEFAULT_BUCKET_BOUNDS,
    Histogram,
    MetricsRegistry,
    ObsSession,
    analyze_trace,
    blocked_time,
    critical_path,
    link_utilization,
    openmetrics_text,
    read_jsonl,
    wea_attribution,
    write_jsonl,
)
from repro.obs.dag import build_dag, critical_path_nodes, path_increments
from repro.obs.export import spans_of
from repro.obs.trace import Span

from conftest import make_tiny_platform

TOL = 1e-9


@pytest.fixture(scope="module")
def analyze_scene():
    return make_wtc_scene(SceneConfig(rows=48, cols=16, bands=24, seed=7))


@pytest.fixture(scope="module")
def traced_run(analyze_scene):
    """One traced engine run on the tiny 4-node platform."""
    obs = ObsSession.create()
    run = run_parallel(
        "atdca",
        analyze_scene.image,
        make_tiny_platform(),
        {"n_targets": 5},
        backend="sim",
        obs=obs,
    )
    return run, obs


@pytest.fixture(scope="module")
def homo_het_run():
    """Homo-ATDCA on the fully heterogeneous platform with the
    paper-scaled cost model — the Table 5 cell where the slowest
    processor dominates."""
    cfg = ExperimentConfig()
    scene_cfg = SceneConfig(rows=192, cols=8, bands=32, seed=7)
    scene = make_wtc_scene(scene_cfg)
    obs = ObsSession.create()
    run = run_parallel(
        "atdca",
        scene.image,
        fully_heterogeneous(),
        {"n_targets": 18},
        variant="homo",
        backend="sim",
        cost_model=cfg.cost_model(scene_cfg),
        obs=obs,
    )
    return run, obs


class TestHistogramBuckets:
    def test_exact_edge_value_lands_in_named_bucket(self):
        hist = Histogram(bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 1.5, 2.0, 4.0, 9.0):
            hist.observe(value)
        # le-inclusive: 1.0 falls in the le=1 bucket, 2.0 in le=2, ...
        assert hist.cumulative_buckets() == [
            (1.0, 2), (2.0, 4), (4.0, 5), (math.inf, 6),
        ]

    def test_edge_assignment_is_deterministic(self):
        a = Histogram(bounds=(0.1, 0.2))
        b = Histogram(bounds=(0.1, 0.2))
        for hist in (a, b):
            for _ in range(100):
                hist.observe(0.2)
        assert a.bucket_counts == b.bucket_counts == [0, 100, 0]

    def test_default_bounds(self):
        hist = Histogram()
        assert hist.bounds == DEFAULT_BUCKET_BOUNDS
        hist.observe(0.001)  # first default edge
        assert hist.cumulative_buckets()[0] == (0.001, 1)

    def test_non_increasing_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            Histogram(bounds=(1.0, 1.0))

    def test_snapshot_carries_buckets(self):
        registry = MetricsRegistry()
        registry.histogram("lat", rank=0).observe(0.5)
        record = [
            r for r in registry.records() if r["name"] == "lat"
        ][0]
        assert record["buckets"] == [
            [bound, int(bound >= 0.5)] for bound in DEFAULT_BUCKET_BOUNDS
        ] + [["+Inf", 1]]


class TestOpenMetrics:
    def test_exposition_format(self):
        registry = MetricsRegistry()
        registry.counter("comm.bytes", rank=0).inc(12.5)
        hist = registry.histogram("op.seconds", rank=0)
        hist.observe(0.1)
        hist.observe(5.0)
        text = openmetrics_text(registry)
        assert "# TYPE comm_bytes counter" in text
        assert 'comm_bytes_total{rank="0"} 12.5' in text
        assert '# TYPE op_seconds histogram' in text
        assert 'op_seconds_bucket{rank="0",le="0.1"} 1' in text
        assert 'op_seconds_bucket{rank="0",le="+Inf"} 2' in text
        assert 'op_seconds_sum{rank="0"} 5.1' in text
        assert 'op_seconds_count{rank="0"} 2' in text
        assert text.endswith("# EOF\n")

    def test_label_escaping(self):
        registry = MetricsRegistry()
        registry.counter("c", tag='quo"te\n').inc()
        registry.counter("c", tag="back\\slash").inc()
        text = openmetrics_text(registry)
        assert 'tag="quo\\"te\\n"' in text
        assert 'tag="back\\\\slash"' in text

    def test_deterministic(self):
        def build():
            registry = MetricsRegistry()
            for rank in (3, 1, 2):
                registry.counter("c", rank=rank).inc()
            return openmetrics_text(registry)
        assert build() == build()


class TestHappensBeforeDag:
    def test_engine_dag_has_no_untracked_time(self, traced_run):
        _, obs = traced_run
        dag = build_dag(obs)
        path, untracked = critical_path_nodes(dag)
        assert path
        assert untracked == pytest.approx(0.0, abs=TOL)
        # On the engine each node starts exactly at a predecessor's end.
        for inc, node in zip(path_increments(path), path):
            assert inc == pytest.approx(node.duration, abs=TOL)

    def test_transfer_nodes_sit_in_both_rank_chains(self, traced_run):
        _, obs = traced_run
        dag = build_dag(obs)
        for node in dag.transfers():
            if node.src == node.dst:
                continue
            assert node.key in dag.rank_chains[node.src]
            assert node.key in dag.rank_chains[node.dst]


class TestCriticalPath:
    def test_path_never_exceeds_makespan(self, traced_run):
        run, obs = traced_run
        report = critical_path(obs)
        assert report.makespan == pytest.approx(run.sim.makespan, abs=TOL)
        assert report.length_s <= report.makespan + TOL
        # The engine path explains the makespan exactly.
        assert report.length_s == pytest.approx(report.makespan, abs=TOL)
        assert report.untracked_s == pytest.approx(0.0, abs=TOL)

    def test_rank_shares_sum_to_path_length(self, traced_run):
        _, obs = traced_run
        report = critical_path(obs)
        assert sum(report.rank_share_s.values()) == pytest.approx(
            report.length_s, abs=TOL
        )

    def test_steps_are_time_ordered(self, traced_run):
        _, obs = traced_run
        steps = critical_path(obs).steps
        assert all(a.start <= b.start for a, b in zip(steps, steps[1:]))

    def test_slowest_rank_dominates_homo_on_heterogeneous(self, homo_het_run):
        run, obs = homo_het_run
        report = critical_path(obs)
        busy = run.sim.busy_times()
        slowest = max(range(len(busy)), key=lambda i: busy[i])
        assert report.dominant_rank == slowest
        share = report.rank_share_s[report.dominant_rank]
        assert share > 0.5 * report.makespan
        assert report.compute_s > report.comm_s

    def test_deterministic_json(self, traced_run):
        _, obs = traced_run
        assert (
            json.dumps(critical_path(obs).to_dict(), sort_keys=True)
            == json.dumps(critical_path(obs).to_dict(), sort_keys=True)
        )


class TestBlockedTime:
    def test_matches_engine_ledgers(self, traced_run):
        run, obs = traced_run
        report = blocked_time(obs)
        for entry in report.ranks:
            ledger = run.sim.ledgers[entry.rank]
            assert entry.total_s == pytest.approx(ledger.total, abs=TOL)
            assert entry.blocked_s == pytest.approx(ledger.idle, abs=TOL)

    def test_attributions_sum_to_blocked(self, traced_run):
        _, obs = traced_run
        for entry in blocked_time(obs).ranks:
            assert sum(entry.by_peer_s.values()) <= entry.blocked_s + TOL
            assert sum(entry.by_op_s.values()) == pytest.approx(
                entry.blocked_s, abs=TOL
            )

    def test_text_names_the_culprit(self, homo_het_run):
        _, obs = homo_het_run
        text = blocked_time(obs).to_text()
        assert "blocked" in text
        assert "mostly on rank" in text

    @staticmethod
    def _hand_built_spans():
        """Four ranks, listed out of order: nested phase/mpi wrappers,
        a zero-length wrapper at a transfer's start, wrappers of equal
        start (and one pair of equal length too), transfers at the
        instant a wrapper ends, and a rank with no wrappers."""
        layout = [
            # rank, name, category, start, end, attrs
            (0, "atdca.iteration", "phase", 0.0, 10.0, {}),
            (0, "mpi.bcast", "mpi", 1.0, 4.0, {}),
            (0, "phase.twin", "phase", 1.0, 4.0, {}),
            (0, "mpi.zero", "mpi", 2.0, 2.0, {}),
            (0, "c", "compute", 0.0, 1.0, {}),
            (0, "x", "transfer", 2.0, 3.0, {"peer": 1}),
            (0, "x", "transfer", 3.5, 4.0, {"peer": 2}),
            (0, "x", "transfer", 4.0, 4.5, {"peer": 2}),
            (0, "x", "transfer", 5.0, 6.0, {"peer": 1}),
            (1, "mpi.gather", "mpi", 0.0, 6.0, {}),
            (1, "p1", "phase", 3.0, 6.0, {}),
            (1, "x", "transfer", 2.0, 3.0, {"peer": 0}),
            (1, "c", "compute", 4.0, 5.0, {}),
            (1, "x", "transfer", 6.0, 7.0, {"peer": 0}),
            (2, "long", "phase", 1.0, 5.0, {}),
            (2, "short", "phase", 1.0, 3.0, {}),
            (2, "x", "transfer", 2.0, 3.0, {"peer": 0}),
            (2, "x", "transfer", 3.5, 4.0, {"peer": 0}),
            (2, "x", "transfer", 5.0, 5.5, {"peer": 1}),
            (3, "x", "transfer", 1.0, 2.0, {"peer": 0}),
        ]
        seqs: dict[int, int] = {}
        spans = []
        for rank, name, category, start, end, attrs in layout:
            seq = seqs[rank] = seqs.get(rank, -1) + 1
            spans.append(Span(name, rank, start, end, category, seq,
                              attrs=attrs))
        return spans[::-1]

    @staticmethod
    def _reference_by_op(spans):
        """Every rank's blocked seconds by operation, naming each
        transfer gap by a scan of every rank's wrappers."""
        spans = spans_of(spans)
        wrappers = [s for s in spans if s.category in ("phase", "mpi")]

        def enclosing(rank, t):
            best_name, best = "<unattributed>", None
            for span in wrappers:
                if span.rank != rank or not (
                    span.start <= t < span.end or span.start == t == span.end
                ):
                    continue
                if best is None or span.start > best.start or (
                    span.start == best.start and span.duration < best.duration
                ):
                    best, best_name = span, span.name
            return best_name

        out = {}
        for rank in sorted({s.rank for s in spans}):
            mine = sorted(
                (s for s in spans if s.rank == rank
                 and s.category in ("compute", "seq", "transfer")),
                key=lambda s: (s.start, s.end, s.seq),
            )
            cursor, by_op = 0.0, {}
            for span in mine:
                gap = span.start - cursor
                if gap > 0:
                    op = (enclosing(rank, span.start)
                          if span.category == "transfer" else "<scheduling>")
                    by_op[op] = by_op.get(op, 0.0) + gap
                cursor = max(cursor, span.end)
            out[rank] = by_op
        return out

    def test_attribution_equals_a_scan_of_every_wrapper(self):
        spans = self._hand_built_spans()
        report = blocked_time(spans)
        assert {
            entry.rank: entry.by_op_s for entry in report.ranks
        } == self._reference_by_op(spans) == {
            0: {"mpi.zero": 1.0, "mpi.bcast": 0.5, "atdca.iteration": 0.5},
            1: {"mpi.gather": 2.0, "<scheduling>": 1.0,
                "<unattributed>": 1.0},
            2: {"short": 2.0, "long": 0.5, "<unattributed>": 1.0},
            3: {"<unattributed>": 1.0},
        }
        assert report.of_rank(0).by_peer_s == {1: 1.5, 2: 0.5}


class TestLinkUtilization:
    def test_utilization_bounded(self, traced_run):
        _, obs = traced_run
        report = link_utilization(obs)
        assert report.links
        for usage in report.links:
            assert 0.0 <= usage.utilization <= 1.0 + TOL
            assert usage.busy_s <= report.makespan + TOL
            assert usage.serial == ("|" in usage.link)

    def test_serial_links_on_paper_platform(self, homo_het_run):
        _, obs = homo_het_run
        report = link_utilization(obs)
        serial = [u for u in report.links if u.serial]
        assert serial, "the 4-segment platform must exercise serial links"
        for usage in serial:
            assert usage.saturated_intervals
            start, end, n = usage.saturated_intervals[0]
            assert end > start and n >= 1

    def test_unknown_link_raises(self, traced_run):
        _, obs = traced_run
        with pytest.raises(KeyError):
            link_utilization(obs).of_link("no-such-link")


class TestWeaAttribution:
    def test_rows_and_scores_consistent(self, traced_run):
        run, _ = traced_run
        report = wea_attribution(run.sim, run.partition, make_tiny_platform())
        assert sum(a.rows for a in report.assignments) == run.partition.n_rows
        assert sum(a.ideal_rows for a in report.assignments) == pytest.approx(
            run.partition.n_rows, rel=1e-6
        )
        busy = run.sim.busy_times()
        assert report.of_rank(report.slowest_rank).busy_s == max(busy)
        assert report.of_rank(report.fastest_rank).busy_s == min(busy)
        assert report.d_all >= report.d_minus >= 1.0

    def test_homo_attribution_blames_slow_processor(self, homo_het_run):
        run, _ = homo_het_run
        platform = fully_heterogeneous()
        report = wea_attribution(run.sim, run.partition, platform)
        slow = report.of_rank(report.slowest_rank)
        # Uniform rows on a slow processor: over-assigned, should shed rows.
        assert slow.deviation_pct > 0
        assert slow.rows_to_rebalance > 0
        assert "over-assigned" in report.to_text()


class TestAnalyzeTrace:
    def test_bundle_and_jsonl_round_trip(self, traced_run, tmp_path):
        run, obs = traced_run
        analysis = analyze_trace(
            obs, result=run.sim, partition=run.partition,
            platform=make_tiny_platform(),
        )
        doc = analysis.to_dict()
        assert doc["schema"] == "repro.obs.analyze/1"
        assert "wea_attribution" in doc

        path = tmp_path / "trace.jsonl"
        write_jsonl(path, obs)
        loaded = read_jsonl(path)
        reloaded = analyze_trace(loaded)
        # Span-only analyses survive the export/import round trip.
        assert reloaded.critical_path.to_dict() == doc["critical_path"]
        assert reloaded.blocked.to_dict() == doc["blocked_time"]
        assert reloaded.links.to_dict() == doc["link_utilization"]
        assert reloaded.wea is None

    def test_text_report_renders(self, traced_run):
        run, obs = traced_run
        text = analyze_trace(
            obs, result=run.sim, partition=run.partition,
            platform=make_tiny_platform(),
        ).to_text()
        for fragment in ("critical path", "blocked time",
                         "link utilization", "WEA imbalance"):
            assert fragment in text
