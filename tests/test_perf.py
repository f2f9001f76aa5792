"""Tests for performance analysis: imbalance, speedup, reports, timers,
and the ordered process fan-out."""

import os
import time

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.perf.fanout import ordered_map
from repro.perf.imbalance import imbalance
from repro.perf.report import format_table
from repro.perf.speedup import (
    ScalingCurve,
    amdahl_serial_fraction,
    efficiencies,
    speedups,
)
from repro.perf.timers import PhaseBreakdown


class TestImbalance:
    def test_perfect_balance(self):
        scores = imbalance([2.0, 2.0, 2.0])
        assert scores.d_all == 1.0
        assert scores.d_minus == 1.0

    def test_master_excluded_from_minus(self):
        scores = imbalance([10.0, 2.0, 2.0], master_rank=0)
        assert scores.d_all == 5.0
        assert scores.d_minus == 1.0

    def test_single_processor(self):
        scores = imbalance([3.0])
        assert scores.d_all == 1.0 and scores.d_minus == 1.0

    def test_zero_time_rejected(self):
        with pytest.raises(ConfigurationError):
            imbalance([1.0, 0.0])


class TestSpeedup:
    def test_speedups(self):
        s = speedups([100.0, 50.0, 25.0])
        assert np.allclose(s, [1.0, 2.0, 4.0])

    def test_efficiencies(self):
        e = efficiencies([100.0, 50.0, 25.0], [1, 2, 8])
        assert np.allclose(e, [1.0, 1.0, 0.5])

    def test_amdahl_recovers_planted_fraction(self):
        f = 0.1
        cpus = np.array([1, 2, 4, 8, 16, 64])
        times = 100.0 * (f + (1 - f) / cpus)
        assert amdahl_serial_fraction(times, cpus) == pytest.approx(f, abs=1e-9)

    def test_amdahl_zero_for_perfect_scaling(self):
        cpus = np.array([1, 2, 4, 8])
        times = 100.0 / cpus
        assert amdahl_serial_fraction(times, cpus) == pytest.approx(0.0, abs=1e-9)

    def test_amdahl_requires_p1_baseline(self):
        with pytest.raises(ConfigurationError):
            amdahl_serial_fraction([50.0, 25.0], [2, 4])

    def test_scaling_curve(self):
        curve = ScalingCurve("x", (1, 4, 16), (160.0, 40.0, 10.0))
        assert curve.speedups[-1] == pytest.approx(16.0)
        assert curve.serial_fraction == pytest.approx(0.0, abs=1e-9)

    def test_scaling_curve_requires_ascending(self):
        with pytest.raises(ConfigurationError):
            ScalingCurve("x", (4, 1), (1.0, 2.0))


class TestPhaseBreakdown:
    def test_total(self):
        b = PhaseBreakdown(com=1.0, seq=2.0, par=3.0)
        assert b.total == 6.0
        assert b.as_dict()["total"] == 6.0

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            PhaseBreakdown(com=-1.0, seq=0.0, par=0.0)


class TestReport:
    def test_format_table_basic(self):
        text = format_table(["a", "b"], [[1, 2.5], ["x", None]])
        lines = text.splitlines()
        assert "a" in lines[0] and "b" in lines[0]
        assert "2.50" in text
        assert "-" in lines[-1]  # None renders as dash

    def test_format_table_title(self):
        text = format_table(["c"], [[1]], title="My Table")
        assert text.startswith("My Table")

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            format_table(["a", "b"], [[1]])


def _sleep_then_report(tag, seconds):
    time.sleep(seconds)
    return tag, seconds, os.getpid()


def _fail_on(bad, task):
    if task == bad:
        raise ValueError(f"task {task} failed")
    return task


class TestOrderedMap:
    def test_order_kept_when_tasks_finish_out_of_order(self):
        # Two workers: the first task outlasts the other three together.
        delays = [0.4, 0.0, 0.05, 0.0]
        results = ordered_map(_sleep_then_report, delays, 2, shared=("x",))
        assert [(tag, d) for tag, d, _pid in results] == [
            ("x", d) for d in delays
        ]
        pids = {pid for _tag, _d, pid in results}
        assert os.getpid() not in pids and len(pids) <= 2

    @pytest.mark.parametrize(
        "tasks, jobs", [([0.0, 0.0], None), ([0.0, 0.0], 1), ([0.0], 4)]
    )
    def test_serial_in_the_caller(self, tasks, jobs):
        results = ordered_map(_sleep_then_report, tasks, jobs, shared=("x",))
        assert results == [("x", 0.0, os.getpid())] * len(tasks)

    @pytest.mark.parametrize("jobs", [None, 2])
    def test_a_task_exception_reaches_the_caller(self, jobs):
        with pytest.raises(ValueError, match="task 2 failed"):
            ordered_map(_fail_on, [1, 2, 3], jobs, shared=(2,))
        assert ordered_map(_fail_on, [1, 2, 3], jobs, shared=(0,)) == [1, 2, 3]
