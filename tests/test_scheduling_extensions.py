"""Tests for the iterative-mapping LP, engine tracing and the Gantt
renderer."""

import dataclasses

import numpy as np
import pytest

from repro.cluster import SimulationEngine, fully_heterogeneous
from repro.errors import ConfigurationError
from repro.faults import FaultInjector, FaultPlan, RankComputeScale
from repro.obs import ObsSession
from repro.scheduling import (
    dlt_fractions,
    heterogeneous_fractions,
    iterative_makespan,
    optimal_iterative_fractions,
)
from repro.viz.timeline import ascii_gantt, gantt_of_run

from conftest import make_tiny_platform


class TestIterativeLP:
    def test_fractions_valid(self, het_platform):
        alpha = optimal_iterative_fractions(het_platform, 10, 100.0, 50.0)
        assert alpha.sum() == pytest.approx(1.0)
        assert alpha.min() >= 0.0

    def test_large_k_approaches_speed_proportional(self, het_platform):
        alpha = optimal_iterative_fractions(het_platform, 10_000, 100.0, 50.0)
        assert np.allclose(
            alpha, heterogeneous_fractions(het_platform), atol=1e-4
        )

    def test_lp_dominates_heuristics(self, het_platform):
        """The LP optimum is at least as good as WEA and DLT shares
        under its own makespan model, for any iteration count."""
        mflops, megabits = 100.0, 200.0
        for k in (1, 3, 20, 200):
            lp = optimal_iterative_fractions(het_platform, k, mflops, megabits)
            t_lp = iterative_makespan(het_platform, lp, k, mflops, megabits)
            for other in (
                heterogeneous_fractions(het_platform),
                dlt_fractions(het_platform, mflops, megabits),
            ):
                t_other = iterative_makespan(
                    het_platform, other, k, mflops, megabits
                )
                assert t_lp <= t_other * (1 + 1e-9), k

    def test_k1_can_beat_dlt_when_comm_dominates(self, het_platform):
        """With communication dominating, handing slow-linked workers
        any load is a loss; the LP finds that, equal-completion DLT
        cannot."""
        mflops, megabits = 1.0, 500.0
        lp = optimal_iterative_fractions(het_platform, 1, mflops, megabits)
        dlt = dlt_fractions(het_platform, mflops, megabits)
        t_lp = iterative_makespan(het_platform, lp, 1, mflops, megabits)
        t_dlt = iterative_makespan(het_platform, dlt, 1, mflops, megabits)
        assert t_lp < t_dlt

    def test_bad_inputs_rejected(self, het_platform):
        with pytest.raises(ConfigurationError):
            optimal_iterative_fractions(het_platform, 0, 1.0, 1.0)
        with pytest.raises(ConfigurationError):
            iterative_makespan(
                het_platform, heterogeneous_fractions(het_platform), 1, -1.0, 0.0
            )


class TestEngineTrace:
    def _traced_run(self, platform=None, **engine_kwargs):
        platform = platform or make_tiny_platform()
        engine = SimulationEngine(platform, trace=True, **engine_kwargs)

        def program(ctx):
            if ctx.is_master:
                ctx.compute(50.0, sequential=True)
                for dest in range(1, ctx.size):
                    ctx.send(dest, np.zeros(100))
            else:
                ctx.recv(0)
                ctx.compute(100.0)

        return engine.run(program)

    def test_events_recorded(self):
        result = self._traced_run()
        kinds = {e.category for e in result.events}
        assert kinds == {"seq", "compute", "transfer"}
        # Every transfer recorded once per endpoint.
        transfers = [e for e in result.events if e.category == "transfer"]
        assert len(transfers) == 2 * 3

    def test_events_are_the_spans_a_session_records(self):
        """One record per op: a run traced both ways reports as
        ``events`` exactly the compute, seq and transfer spans the
        attached session records, ``seq`` aside — a slowed rank's
        ``factor`` included."""
        platform = make_tiny_platform()
        obs = ObsSession.create()
        plan = FaultPlan(
            (RankComputeScale(rank=2, factor=3.0, start_s=0.0, end_s=1e9),),
            name="slow-r2",
        )
        result = self._traced_run(
            platform, obs=obs,
            faults=FaultInjector(plan).attach(platform=platform),
        )
        recorded = [
            s for s in obs.tracer.spans()
            if s.category in ("compute", "seq", "transfer")
        ]

        def unnumbered(spans):
            return [dataclasses.replace(s, seq=0) for s in spans]

        assert unnumbered(result.events) == unnumbered(recorded)
        assert {
            (e.rank, e.attrs.get("factor"))
            for e in result.events if e.category == "compute"
        } == {(1, None), (2, 3.0), (3, None)}
        assert len(result.events) == 1 + 3 + 2 * 3

    def test_events_sorted_and_bounded(self):
        result = self._traced_run()
        starts = [e.start for e in result.events]
        assert starts == sorted(starts)
        assert all(0 <= e.start <= e.end <= result.makespan
                   for e in result.events)

    def test_untraced_engine_has_no_events(self, tiny_platform):
        engine = SimulationEngine(tiny_platform)
        result = engine.run(lambda ctx: ctx.compute(1.0))
        assert result.events == []

    def test_gantt_rendering(self):
        result = self._traced_run()
        chart = gantt_of_run(result, width=60)
        lines = chart.splitlines()
        assert len(lines) == 4 + 3  # 4 lanes + axis + scale + legend
        assert "S" in lines[0]  # master's sequential work
        assert "#" in lines[1]  # a worker's parallel compute
        assert "=" in chart

    def test_gantt_chart_text(self):
        assert gantt_of_run(self._traced_run(), width=60) == (
            "r0 |SSSSSSS                                                     |\n"
            "r1 |      ###########################                           |\n"
            "r2 |      ##################################################### |\n"
            "r3 |      ######################################################|\n"
            "   +------------------------------------------------------------+\n"
            "    0                                                  0.90 s\n"
            "    #=parallel compute  S=sequential  ==transfer  .=phase  !=fault"
        )

    def test_gantt_validates_input(self):
        with pytest.raises(ConfigurationError):
            ascii_gantt([], n_ranks=2)
