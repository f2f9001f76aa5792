"""Tests for the rendezvous router and the virtual-time engine."""

import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.cluster import runtime
from repro.cluster.costs import CostModel
from repro.cluster.engine import SimulationEngine, run_program
from repro.cluster.mailbox import (
    ANY_SOURCE,
    ANY_TAG,
    Router,
    copy_payload,
    payload_wire_megabits,
)
from repro.cluster.network import segmented_network
from repro.cluster.platform import HeterogeneousPlatform
from repro.cluster.processor import ProcessorSpec
from repro.cluster.simtime import Phase, PhaseLedger, VirtualClock
from repro.cluster.presets import fully_heterogeneous
from repro.errors import (
    CommunicationError,
    ConfigurationError,
    DeadlockError,
    RankFailedError,
    ReproError,
)
from repro.mpi import Communicator
from repro.mpi.inproc import run_inproc
from repro.scheduling.dynamic import dynamic_master_worker

from conftest import make_tiny_platform
from scheduler_storm import SWITCH_INTERVALS, run_sliced


class TestPayloadSizing:
    def test_array_counts_values(self):
        mb = payload_wire_megabits(np.zeros(1000), bytes_per_value=4)
        assert mb == pytest.approx((1000 + 8) * 4 * 8 / 1e6)

    def test_tuple_of_arrays(self):
        payload = (np.zeros(10), np.zeros(20), 5)
        mb = payload_wire_megabits(payload, bytes_per_value=4)
        assert mb == pytest.approx((31 + 8) * 4 * 8 / 1e6)

    def test_none_is_envelope_only(self):
        assert payload_wire_megabits(None) == pytest.approx(8 * 4 * 8 / 1e6)

    def test_non_array_falls_back_to_pickle(self):
        mb = payload_wire_megabits("hello world")
        assert mb > 0


class TestCopyPayload:
    def test_arrays_copied(self):
        arr = np.ones(4)
        dup = copy_payload(arr)
        dup[0] = 9.0
        assert arr[0] == 1.0

    def test_nested_structures(self):
        payload = {"a": [np.ones(2), (np.zeros(3), 1)]}
        dup = copy_payload(payload)
        dup["a"][0][0] = 5.0
        assert payload["a"][0][0] == 1.0


class TestRouterViaInproc:
    """Exercise the router through real threads (wall-clock backend)."""

    def test_point_to_point(self):
        def program(ctx):
            if ctx.rank == 0:
                ctx.send(1, np.arange(5), tag=7)
                return None
            return ctx.recv(0, tag=7)

        result = run_inproc(2, program)
        assert np.array_equal(result.return_values[1], np.arange(5))

    def test_tag_filtering_in_order(self):
        def program(ctx):
            if ctx.rank == 0:
                ctx.send(1, "first", tag=1)
                ctx.send(1, "second", tag=2)
                return None
            first = ctx.recv(0, tag=1)
            second = ctx.recv(0, tag=2)
            return (first, second)

        result = run_inproc(2, program)
        assert result.return_values[1] == ("first", "second")

    def test_out_of_order_tags_deadlock_under_rendezvous(self):
        # Synchronous sends cannot be consumed out of tag order on one
        # channel: the sender is parked on the first message.  The
        # runtime must *detect* this rather than hang.
        def program(ctx):
            if ctx.rank == 0:
                ctx.send(1, "first", tag=1)
                ctx.send(1, "second", tag=2)
                return None
            return ctx.recv(0, tag=2)

        with pytest.raises((DeadlockError, ReproError)):
            run_inproc(2, program)

    def test_any_tag_fifo(self):
        def program(ctx):
            if ctx.rank == 0:
                ctx.send(1, "a", tag=5)
                ctx.send(1, "b", tag=6)
                return None
            return (ctx.recv(0, ANY_TAG), ctx.recv(0, ANY_TAG))

        result = run_inproc(2, program)
        assert result.return_values[1] == ("a", "b")

    def test_any_source(self):
        def program(ctx):
            if ctx.rank == 0:
                got = {ctx.recv(ANY_SOURCE)[0] for _ in range(2)}
                return got
            ctx.send(0, (ctx.rank, "hi"))
            return None

        result = run_inproc(3, program)
        assert result.return_values[0] == {1, 2}

    def test_send_to_self_rejected(self):
        def program(ctx):
            ctx.send(ctx.rank, "x")

        with pytest.raises((CommunicationError, ReproError)):
            run_inproc(2, program)

    def test_deadlock_detected(self):
        def program(ctx):
            # Everyone receives; nobody sends.
            ctx.recv((ctx.rank + 1) % ctx.size)

        # On both backends, and read off the Router's state rather than
        # waited for: there is no grace period to sit out.
        for run in (
            lambda: run_inproc(2, program),
            lambda: run_program(make_tiny_platform((0.002, 0.004)), program),
        ):
            start = time.perf_counter()
            with pytest.raises((DeadlockError, ReproError)):
                run()
            assert time.perf_counter() - start < 0.1

    def test_peer_exit_detected(self):
        def program(ctx):
            if ctx.rank == 0:
                return "done"  # exits immediately
            ctx.recv(0)  # waits forever for rank 0

        with pytest.raises((DeadlockError, ReproError)):
            run_inproc(2, program)

    def test_worker_exception_propagates(self):
        def program(ctx):
            if ctx.rank == 1:
                raise ValueError("boom")
            ctx.recv(1)

        with pytest.raises(ReproError, match="boom"):
            run_inproc(2, program)


class TestComputedQuiescence:
    """Quiescence is read off the Router's state, and with no wait ever
    timed it is a deadlock (``TestRouterViaInproc::
    test_deadlock_detected``).  What the wall backend adds is a nominal
    clock, whose platform must match the run."""

    def test_inproc_platform_must_match_rank_count(self, tiny_platform):
        with pytest.raises(ConfigurationError, match="4 ranks"):
            run_inproc(3, lambda ctx: None, platform=tiny_platform)


class TestRunToBlock:
    """The sim engine runs one rank at a time: a rank keeps the baton
    until it parks or retires and the lowest ready rank takes it, so
    the wall schedule is a function of the program alone."""

    def test_slice_sequence_is_the_program_s(self):
        def program(ctx):
            comm = Communicator(ctx)
            value = comm.bcast(7 if comm.is_master else None)
            gathered = comm.gather(value + ctx.rank)
            return comm.scatter(gathered)

        platform = fully_heterogeneous()
        sequences = []
        old = sys.getswitchinterval()
        try:
            for interval in SWITCH_INTERVALS:
                sys.setswitchinterval(interval)
                result, slices = run_sliced(platform, program)
                assert result.return_values == [7 + r for r in range(16)]
                sequences.append(slices)
        finally:
            sys.setswitchinterval(old)
        assert sequences[0] == sequences[1] == sequences[2]
        # The binomial bcast from rank 0 (to 8, 4, 2, 1): every rank
        # below 8 parks on its parent before 8, the first with a
        # message waiting, runs on; the root gets the baton back
        # whenever it is ready, being the lowest rank; rank 1, a leaf,
        # is the first into the gather.
        assert sequences[0][:19] == [
            (0, "send->8"), (1, "recv<-0"), (2, "recv<-0"), (3, "recv<-2"),
            (4, "recv<-0"), (5, "recv<-4"), (6, "recv<-4"), (7, "recv<-6"),
            (8, "send->12"), (0, "send->4"), (4, "send->6"), (0, "send->2"),
            (2, "send->3"), (0, "send->1"), (1, "send->0"), (0, "recv<-2"),
            (1, "recv<-0"), (3, "send->0"), (2, "send->0"),
        ]
        # Every rank ends its last slice by retiring, the master last.
        assert [r for r, why in sequences[0] if why == "retire"] == [
            *range(1, 16), 0
        ]

    def test_any_source_program_has_one_schedule(self):
        """ANY_SOURCE matches in the order sends were posted, which on
        the engine is hand-off order: one makespan, one task map."""
        platform = fully_heterogeneous()
        tasks = list(range(40))

        def once():
            done_by = {}

            def process(ctx, task):
                ctx.compute(1.0 + task % 3)
                done_by[task] = ctx.rank
                return task * task

            def program(ctx):
                return dynamic_master_worker(
                    ctx, tasks if ctx.is_master else None, process
                )

            result = run_program(platform, program)
            assert result.return_values[0] == [t * t for t in tasks]
            return result.makespan, done_by

        first = once()
        # Lowest ready rank first: worker 1 has its next request in
        # before any other worker has had the baton at all.
        assert set(first[1].values()) == {1}
        for _ in range(19):
            assert once() == first


class TestPerWaiterWake:
    """A state change wakes the one rank it can have unblocked."""

    def test_unrelated_traffic_and_failures_leave_a_waiter_alone(self):
        router = Router(6)
        calls = {3: 0, 4: 0}
        ended = {}

        def park(rank, peer):
            def never():
                calls[rank] += 1
                return False

            try:
                with router._lock:
                    router._wait(never, rank=rank, peer=peer)
            except ReproError as exc:
                ended[rank] = exc

        def echo(rounds):
            for _ in range(rounds):
                router.send(1, 0, 0, router.recv(1, 0), 0.0)

        parked = [
            threading.Thread(target=park, args=(3, 2), daemon=True),
            threading.Thread(target=park, args=(4, 5), daemon=True),
        ]
        for t in parked:
            t.start()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            with router._lock:
                if len(router._waiters) == 2:
                    break
            time.sleep(0.001)
        assert calls == {3: 1, 4: 1}

        # 50 round trips between ranks 0 and 1: 200 sends and matches.
        peer = threading.Thread(target=echo, args=(50,), daemon=True)
        peer.start()
        for i in range(50):
            router.send(0, 1, 0, i, 0.0)
            assert router.recv(0, 1) == i
        peer.join(timeout=5.0)
        assert not peer.is_alive()
        assert calls == {3: 1, 4: 1}

        # fail(2) ends the wait on rank 2 and only that one.
        router.fail(2)
        parked[0].join(timeout=5.0)
        assert not parked[0].is_alive()
        assert isinstance(ended[3], RankFailedError) and ended[3].rank == 2
        assert calls[4] == 1 and parked[1].is_alive() and 4 not in ended

        router.abort()
        parked[1].join(timeout=5.0)
        assert not parked[1].is_alive()
        assert isinstance(ended[4], DeadlockError)

def _collective(ctx):
    comm = Communicator(ctx)
    value = comm.bcast(7 if comm.is_master else None)
    ctx.compute(1.0 + ctx.rank)
    return comm.gather(value + ctx.rank)


def _run(backend, program):
    if backend == "sim":
        return run_program(fully_heterogeneous(), program)
    return run_inproc(16, program)


class TestThreadStartFailure:
    """A rank thread that cannot start ends the run: the error
    propagates and the ranks already started retire."""

    @pytest.mark.parametrize("backend", ["sim", "inproc"])
    def test_started_ranks_are_joined(self, backend, monkeypatch):
        # Idle pool threads would run the ranks without a start: stop
        # them, so this launch starts its threads and the fifth fails.
        runtime._POOL.empty()
        start = threading.Thread.start
        calls = []

        def failing_start(thread):
            calls.append(thread.name)
            if len(calls) == 5:
                raise RuntimeError("can't start new thread")
            start(thread)

        before = threading.active_count()
        monkeypatch.setattr(threading.Thread, "start", failing_start)
        with pytest.raises(RuntimeError, match="can't start new thread"):
            _run(backend, _collective)
        monkeypatch.undo()
        assert len(calls) == 5
        assert threading.active_count() == before
        # The router is left in no state a later run can see.
        assert _run(backend, _collective).return_values[0] == [
            7 + r for r in range(16)
        ]


_FORKED_RUNS = """
from repro.cluster import fully_heterogeneous
from repro.cluster.engine import run_program
from repro.mpi import Communicator
from repro.perf.fanout import ordered_map


def program(ctx, base):
    comm = Communicator(ctx)
    value = comm.bcast(base if comm.is_master else None)
    ctx.compute(1.0 + ctx.rank)
    return comm.gather(value + ctx.rank)


def run(base):
    result = run_program(fully_heterogeneous(), program, base=base)
    return result.return_values[0], result.finish_times


if __name__ == "__main__":
    # The serial runs fill this process's pool before its workers fork.
    serial = [run(base) for base in (1, 2)]
    assert ordered_map(run, [1, 2], jobs=2) == serial
    print("ok")
"""


class TestRankThreadPool:
    """Rank ``r`` runs on the pool's thread ``r`` run after run; a
    forked child, a nested launch and two concurrent launches still
    get their own threads."""

    @pytest.mark.parametrize("backend", ["sim", "inproc"])
    def test_second_run_reuses_every_thread(self, backend, monkeypatch):
        def program(ctx):
            return threading.get_native_id(), _collective(ctx)

        first = _run(backend, program).return_values
        starts = []
        start = threading.Thread.start

        def counting_start(thread):
            starts.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        second = _run(backend, program).return_values
        assert starts == []
        assert [tid for tid, _ in second] == [tid for tid, _ in first]
        assert len({tid for tid, _ in first}) == 16
        assert [value for _, value in second] == [value for _, value in first]

    def test_forked_workers_launch_their_own_threads(self, tmp_path):
        import subprocess
        from pathlib import Path

        import repro

        script = tmp_path / "forked_runs.py"
        script.write_text(_FORKED_RUNS)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            str(Path(repro.__file__).parents[1]), env.get("PYTHONPATH"),
        ]))
        done = subprocess.run(
            [sys.executable, str(script)], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "ok"

    @pytest.mark.parametrize("backend", ["sim", "inproc"])
    def test_launch_from_inside_a_rank(self, backend):
        serial = _run(backend, _collective)

        def program(ctx):
            if ctx.rank == 1:
                return _run(backend, _collective).return_values
            return None

        nested = run_program(make_tiny_platform(), program).return_values[1]
        assert nested == serial.return_values

    @pytest.mark.parametrize("backend", ["sim", "inproc"])
    def test_two_concurrent_launches(self, backend):
        def outcome():
            result = _run(backend, _collective)
            return result.return_values, getattr(result, "finish_times", None)

        serial = outcome()
        barrier = threading.Barrier(2)
        values = [None, None]

        def launch(i):
            barrier.wait()
            values[i] = outcome()

        launchers = [threading.Thread(target=launch, args=(i,)) for i in (0, 1)]
        for launcher in launchers:
            launcher.start()
        for launcher in launchers:
            launcher.join(timeout=60.0)
            assert not launcher.is_alive()
        assert values == [serial, serial]


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs sched_setaffinity and more than one usable CPU",
)
class TestOneCore:
    """A run on either backend lives on the launcher's current CPU and
    gives the launcher its mask back."""

    @staticmethod
    def _masks(backend, fail_rank=None):
        masks = [None] * 16

        def program(ctx):
            masks[ctx.rank] = os.sched_getaffinity(0)
            if ctx.rank == fail_rank:
                raise ValueError("boom")
            return _collective(ctx)

        return _run(backend, program), masks

    def test_sim_ranks_share_one_cpu(self):
        before = os.sched_getaffinity(0)
        _, masks = self._masks("sim")
        assert len(masks[0]) == 1 and masks[0] <= before
        assert all(mask == masks[0] for mask in masks)
        assert os.sched_getaffinity(0) == before

    def test_launcher_mask_restored_when_a_rank_raises(self):
        before = os.sched_getaffinity(0)
        with pytest.raises(ReproError, match="boom"):
            self._masks("sim", fail_rank=3)
        assert os.sched_getaffinity(0) == before

    def test_inproc_ranks_share_one_cpu(self):
        before = os.sched_getaffinity(0)
        _, masks = self._masks("inproc")
        assert len(masks[0]) == 1 and masks[0] <= before
        assert all(mask == masks[0] for mask in masks)
        assert os.sched_getaffinity(0) == before

    def test_inproc_launcher_mask_restored_when_a_rank_raises(self):
        before = os.sched_getaffinity(0)
        with pytest.raises(ReproError, match="boom"):
            self._masks("inproc", fail_rank=3)
        assert os.sched_getaffinity(0) == before

    @pytest.mark.parametrize("backend", ["sim", "inproc"])
    def test_confined_launcher_gets_the_same_values(self, backend):
        free, _ = self._masks(backend)
        before = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(before)})
        try:
            confined, masks = self._masks(backend)
            assert all(mask == {max(before)} for mask in masks)
            assert os.sched_getaffinity(0) == {max(before)}
        finally:
            os.sched_setaffinity(0, before)
        assert confined.return_values == free.return_values
        if backend == "sim":
            assert confined.finish_times == free.finish_times
            assert confined.ops == free.ops


class TestVirtualClock:
    def test_advance(self):
        clock = VirtualClock()
        clock.advance(2.0)
        assert clock.now == 2.0

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            VirtualClock().advance(-1.0)


class TestPhaseLedger:
    def test_buckets(self):
        ledger = PhaseLedger()
        ledger.add(Phase.COM, 1.0)
        ledger.add(Phase.SEQ, 2.0)
        # Idle waiting is PAR time that is also counted as idle.
        ledger.add(Phase.PAR, 3.5)
        ledger.idle += 0.5
        assert ledger.total == pytest.approx(6.5)
        assert ledger.compute_busy == pytest.approx(5.0)
        assert ledger.busy == pytest.approx(6.0)

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            PhaseLedger().add(Phase.COM, -1.0)


class TestEngineTiming:
    def test_compute_charged_at_cycle_time(self, tiny_platform):
        def program(ctx):
            ctx.compute(100.0)  # 100 Mflop

        result = run_program(tiny_platform, program)
        # rank 0: w=0.002 -> 0.2 s; rank 3: w=0.008 -> 0.8 s
        assert result.finish_times[0] == pytest.approx(0.2)
        assert result.finish_times[3] == pytest.approx(0.8)
        assert result.makespan == pytest.approx(0.8)

    def test_transfer_time_exact(self):
        plat = make_tiny_platform(cycle_times=(0.01, 0.01), capacity=100.0)

        def program(ctx):
            if ctx.rank == 0:
                ctx.send(1, np.zeros(1000, dtype=np.float64))
            else:
                ctx.recv(0)

        result = run_program(plat, program)
        # (1000 + 8 envelope) values * 4 B * 8 b = 0.032256 megabit
        # 100 ms/megabit -> 3.2256 ms + 1 ms latency
        expected = 0.001 + 100e-3 * (1008 * 32 / 1e6)
        assert result.makespan == pytest.approx(expected, rel=1e-9)
        assert result.ledgers[0].com == pytest.approx(expected, rel=1e-9)

    def test_receiver_waits_for_sender(self):
        plat = make_tiny_platform(cycle_times=(0.01, 0.01), capacity=1.0)

        def program(ctx):
            if ctx.rank == 0:
                ctx.compute(500.0)  # 5 s before sending
                ctx.send(1, 1)
            else:
                ctx.recv(0)

        result = run_program(plat, program)
        assert result.finish_times[1] > 5.0
        assert result.ledgers[1].idle == pytest.approx(5.0, abs=1e-3)

    def test_sequential_flag_buckets_to_seq(self, tiny_platform):
        def program(ctx):
            ctx.compute(10.0, sequential=ctx.is_master)

        result = run_program(tiny_platform, program)
        assert result.ledgers[0].seq > 0
        assert result.ledgers[1].seq == 0

    def test_serial_link_serializes_transfers(self):
        # Two segments; both remote ranks send to master concurrently.
        net = segmented_network(
            {"a": 1, "b": 2},
            {("a", "a"): 1.0, ("a", "b"): 1000.0, ("b", "b"): 1.0},
            latency_s=0.0,
        )
        procs = [ProcessorSpec(f"p{i}", 0.01) for i in range(3)]
        plat = HeterogeneousPlatform("seg", procs, net)
        payload = np.zeros(10_000)
        one_transfer = 1000e-3 * ((10_000 + 8) * 32 / 1e6)

        def program(ctx):
            if ctx.rank == 0:
                ctx.recv(1)
                ctx.recv(2)
            else:
                ctx.send(0, payload)

        result = run_program(plat, program)
        # Both transfers cross the single a-b link: total = 2 transfers.
        assert result.makespan == pytest.approx(2 * one_transfer, rel=1e-6)

    def test_determinism_across_runs(self, tiny_platform, rng):
        data = rng.random((8, 6))

        def program(ctx, payload=None):
            if ctx.rank == 0:
                for dest in range(1, ctx.size):
                    ctx.send(dest, payload)
                return None
            got = ctx.recv(0)
            ctx.compute(float(got.sum()))
            return None

        r1 = run_program(make_tiny_platform(), program, payload=data)
        r2 = run_program(make_tiny_platform(), program, payload=data)
        assert r1.finish_times == r2.finish_times

    def test_failure_reports_rank(self, tiny_platform):
        def program(ctx):
            if ctx.rank == 2:
                raise RuntimeError("bad rank")

        with pytest.raises(ReproError, match="rank 2"):
            SimulationEngine(tiny_platform).run(program)

    def test_cost_model_scaling(self):
        plat = make_tiny_platform(cycle_times=(0.01, 0.01))

        def program(ctx):
            ctx.compute(ctx.cost_model.dot_products(1000, 10))

        base = run_program(plat, program, cost_model=CostModel())
        scaled = run_program(
            plat, program, cost_model=CostModel(compute_scale=10.0)
        )
        assert scaled.makespan == pytest.approx(10 * base.makespan)
