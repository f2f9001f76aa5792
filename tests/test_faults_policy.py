"""Declarative resilience policies (retry/deadline), their plan
embedding, and the deadline-detection edge cases."""

import json
import time
from pathlib import Path

import pytest

from repro.cluster.engine import run_program
from repro.errors import (
    CommunicationTimeout,
    ConfigurationError,
    FaultPlanError,
    RankFailedError,
)
from repro.faults import (
    DEFAULT_POLICY,
    DeadlinePolicy,
    FaultInjector,
    FaultPlan,
    MessageDrop,
    RankCrash,
    ResiliencePolicy,
    RetryPolicy,
    liveness_of,
    load_fault_plan,
    load_policy,
    policy_of,
    recv_with_timeout,
    send_with_retry,
)
from repro.mpi.inproc import run_inproc
from repro.obs import ObsSession

PLANS_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "plans"


class TestPolicyObjects:
    def test_retry_backoff_sequence(self):
        retry = RetryPolicy(max_attempts=4, backoff_s=0.01, backoff_factor=2.0)
        assert [retry.backoff_for(a) for a in (1, 2, 3)] == [
            pytest.approx(0.01), pytest.approx(0.02), pytest.approx(0.04)
        ]

    def test_retry_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_s=-0.1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_factor=0.0)

    def test_deadline_validation(self):
        DeadlinePolicy(send_timeout_s=None, recv_timeout_s=0.5)
        with pytest.raises(ConfigurationError):
            DeadlinePolicy(recv_timeout_s=0.0)
        with pytest.raises(ConfigurationError):
            DeadlinePolicy(send_timeout_s=float("inf"))

    def test_round_trip(self):
        policy = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=3, backoff_s=0.02),
            deadline=DeadlinePolicy(recv_timeout_s=0.25),
            name="rt",
        )
        assert ResiliencePolicy.from_dict(policy.to_dict()) == policy

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(FaultPlanError):
            ResiliencePolicy.from_dict({"retry": {"max_tries": 3}})
        with pytest.raises(FaultPlanError):
            ResiliencePolicy.from_dict({"bogus": 1})
        with pytest.raises(FaultPlanError):
            ResiliencePolicy.from_dict([1, 2])

    def test_load_policy_names_from_stem(self, tmp_path):
        path = tmp_path / "tolerant.json"
        path.write_text(json.dumps({"retry": {"max_attempts": 9}}))
        policy = load_policy(path)
        assert policy.name == "tolerant"
        assert policy.retry.max_attempts == 9

    def test_committed_plans_carry_policies(self):
        """Satellite invariant: the canned CI plans embed their policy
        blocks and survive a to_dict/from_dict round trip."""
        for stem, attempts in (("chaos", 4), ("slowdown", 3)):
            plan = load_fault_plan(PLANS_DIR / f"{stem}.json")
            assert plan.policy is not None
            assert plan.policy.name == stem
            assert plan.policy.retry.max_attempts == attempts
            round_tripped = FaultPlan.from_dict(plan.to_dict())
            assert round_tripped.policy == plan.policy
            assert round_tripped.faults == plan.faults

    def test_policy_of_walks_context_chain(self):
        policy = ResiliencePolicy(name="chained")

        class Injector:
            pass

        class Inner:
            pass

        class Outer:
            pass

        injector = Injector()
        injector.policy = policy
        inner = Inner()
        inner.faults = injector
        outer = Outer()
        outer.context = inner
        assert policy_of(outer) is policy
        assert policy_of(object()) is None


class TestPlanEmbeddedPolicy:
    def test_plan_policy_drives_send_with_retry(self, tiny_platform):
        """No per-call policy argument: the budget embedded in the
        fault plan applies, and attempt accounting lands in the obs
        metrics."""
        plan = FaultPlan(
            (MessageDrop(src=1, dst=0, tag=7, count=2),),
            name="drops",
            policy=ResiliencePolicy(
                retry=RetryPolicy(max_attempts=5, backoff_s=0.01),
            ),
        )
        obs = ObsSession.create()
        injector = FaultInjector(plan).attach(platform=tiny_platform, obs=obs)

        def program(ctx):
            if ctx.rank == 0:
                return ctx.recv(1, tag=7)
            if ctx.rank == 1:
                return send_with_retry(ctx, 0, "finally", tag=7)
            return None

        result = run_program(
            tiny_platform, program, faults=injector, obs=obs
        )
        assert result.return_values[0] == "finally"
        assert result.return_values[1] == 3  # 2 drops + 1 delivery
        assert obs.metrics.total("fault.retries") == 2.0
        assert obs.metrics.total("fault.attempts") == 3.0
        assert obs.metrics.total("fault.backoff_s") == pytest.approx(0.03)
        retry_spans = [
            s for s in obs.tracer.spans() if s.name == "fault.retry"
        ]
        assert len(retry_spans) == 2
        assert all(s.category == "fault" for s in retry_spans)

    def test_tight_plan_budget_exhausts(self, tiny_platform):
        from repro.errors import TransientNetworkError

        plan = FaultPlan(
            (MessageDrop(src=1, dst=0, tag=7, count=5),),
            name="dead",
            policy=ResiliencePolicy(retry=RetryPolicy(max_attempts=2)),
        )
        injector = FaultInjector(plan).attach(platform=tiny_platform)

        def program(ctx):
            if ctx.rank == 0:
                try:
                    return ctx.recv(1, tag=7, timeout_s=5.0)
                except CommunicationTimeout:
                    return "gave-up"
            if ctx.rank == 1:
                try:
                    send_with_retry(ctx, 0, "never", tag=7)
                except TransientNetworkError:
                    return "exhausted"
            return None

        result = run_program(tiny_platform, program, faults=injector)
        assert result.return_values[1] == "exhausted"


class TestDeadlineEdgeCases:
    def test_virtual_timeout_fires_at_quiescence(self, tiny_platform):
        """On the engine a recv deadline only fires once the system is
        quiescent — a peer that retired without sending IS quiescence,
        so the deadline raises instead of hanging."""

        def program(ctx):
            if ctx.rank == 0:
                try:
                    recv_with_timeout(ctx, 1, timeout_s=0.05)
                except CommunicationTimeout:
                    return ("timeout", ctx.clock.now)
                return ("unexpected", ctx.clock.now)
            return None  # everyone else retires immediately

        result = run_program(tiny_platform, program)
        kind, now = result.return_values[0]
        assert kind == "timeout"
        assert now >= 0.05  # the deadline was charged in virtual time

    def test_plan_policy_supplies_recv_deadline(self, tiny_platform):
        """recv_with_timeout with no explicit timeout pulls the
        deadline from the plan's embedded policy."""
        plan = FaultPlan(
            (),
            name="deadline-only",
            policy=ResiliencePolicy(
                deadline=DeadlinePolicy(recv_timeout_s=0.05),
            ),
        )
        injector = FaultInjector(plan).attach(platform=tiny_platform)

        def program(ctx):
            if ctx.rank == 0:
                try:
                    recv_with_timeout(ctx, 1)
                except CommunicationTimeout:
                    return "timeout"
                return "unexpected"
            return None

        result = run_program(tiny_platform, program, faults=injector)
        assert result.return_values[0] == "timeout"

    def test_wall_deadline_uses_monotonic_clock(self, monkeypatch):
        """Inproc deadlines must not depend on the wall clock: freeze
        time.time and the deadline still fires."""
        monkeypatch.setattr(time, "time", lambda: 0.0)

        def program(ctx):
            if ctx.rank == 0:
                start = time.monotonic()
                try:
                    recv_with_timeout(ctx, 1, timeout_s=0.05)
                except CommunicationTimeout:
                    return time.monotonic() - start
                return None
            time.sleep(0.2)  # stay alive past the master's deadline
            return None

        result = run_inproc(2, program)
        elapsed = result.return_values[0]
        assert elapsed is not None and elapsed < 2.0

    def test_liveness_after_sequential_multi_rank_crashes(self, tiny_platform):
        """Two planned crashes, one after the other: the master's
        router-derived liveness view confirms both, in order."""
        plan = FaultPlan(
            (
                RankCrash(rank=2, at_op_index=1),
                RankCrash(rank=3, at_op_index=1),
            ),
            name="double-crash",
        )
        injector = FaultInjector(plan).attach(platform=tiny_platform)
        observed: dict[str, object] = {}

        def program(ctx):
            if ctx.rank in (2, 3):
                ctx.send(0, f"from-{ctx.rank}", tag=9)  # crashes here
                return "survived?"
            if ctx.rank == 1:
                ctx.send(0, "ok", tag=5)
                return None
            # Master: confirm the healthy worker, then watch the dead.
            # A rank may wait for another only inside send/recv (the
            # engine runs one rank at a time), so the master blocks on
            # each doomed worker in turn; the crash ends the receive.
            assert ctx.recv(1, tag=5) == "ok"
            liveness = liveness_of(ctx)
            seen = []
            for doomed in (2, 3):
                with pytest.raises(RankFailedError):
                    ctx.recv(doomed, tag=9, timeout_s=5.0)
                seen.append(liveness.suspects((1, 2, 3)))
            observed["seen"] = seen
            observed["suspects"] = liveness.suspects((1, 2, 3))
            observed["alive_1"] = liveness.is_alive(1)
            return None

        with pytest.raises(RankFailedError):
            run_program(tiny_platform, program, faults=injector)
        assert observed["seen"] == [frozenset({2}), frozenset({2, 3})]
        assert observed["suspects"] == frozenset({2, 3})


class TestPolicyCLI:
    def test_show_default(self, capsys):
        from repro.faults.policy import main

        assert main(["show", "--default"]) == 0
        out = capsys.readouterr().out
        assert "retry" in out and "deadline" in out

    def test_validate_good_and_bad(self, tmp_path, capsys):
        from repro.faults.policy import main

        good = tmp_path / "good.json"
        good.write_text(DEFAULT_POLICY.to_json())
        assert main(["validate", str(good)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"retry": {"max_attempts": 0}}))
        assert main(["validate", str(bad)]) == 1
        capsys.readouterr()

    def test_show_rejects_non_policy_file(self, capsys):
        from repro.faults.policy import main

        assert main(["show", str(PLANS_DIR / "chaos.json")]) == 1
        assert "invalid policy" in capsys.readouterr().err

    def test_umbrella_cli_lists_and_dispatches(self, capsys):
        from repro.faults.__main__ import main

        assert main([]) == 0
        out = capsys.readouterr().out
        for tool in ("plan", "policy", "sweep"):
            assert f"  {tool}" in out
        assert main(["policy", "show", "--default"]) == 0
        capsys.readouterr()
        assert main(["nope"]) == 2
        capsys.readouterr()
