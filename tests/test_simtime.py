"""The timing core: one copy of the per-op arithmetic.

:meth:`TimingCore.run` prices a whole op program and
:meth:`TimingCore.compute` / :meth:`TimingCore.transfer` price one op
for the engine and the in-process backend.  Both must be the same
arithmetic, down to the last bit of every record, clock and ledger.
"""

import pytest

from repro.cluster import fully_heterogeneous
from repro.cluster.perturb import (
    LatencyScale,
    LinkScale,
    OpClassScale,
    PerturbationHook,
    RankComputeScale,
)
from repro.cluster.simtime import Op, TimingCore
from repro.errors import ConfigurationError, PlatformError


def _program(platform):
    """Computes, a broadcast across segments and back, a zero-megabit
    message and a self-send."""
    network = platform.network
    # Two ranks in different segments: their messages share a serial link.
    far = next(
        rank for rank in range(1, platform.size)
        if network.link_resource(0, rank) is not None
    )
    ops = [
        Op("compute", 0, mflops=40.0, sequential=True, label="scatter_pack"),
    ]
    for rank in range(1, platform.size):
        ops.append(Op("transfer", 0, rank, megabits=1.5 + rank))
    for rank in range(platform.size):
        ops.append(Op("compute", rank, mflops=10.0 * (rank + 1),
                      label="osp_scores"))
    ops += [
        Op("compute", far, mflops=3.0, factor=2.5, label="brightest_search"),
        Op("transfer", far, 0, megabits=0.0),
        Op("transfer", 1, far, megabits=2.0),
        Op("transfer", 0, 0, megabits=4.0),
        Op("compute", 0, mflops=5.0, sequential=True,
           label="master_osp_selection"),
    ]
    for rank in range(1, platform.size):
        ops.append(Op("transfer", rank, 0, megabits=0.25))
    return ops


def _hook(platform):
    network = platform.network
    segments = sorted({network.segment_of(r) for r in range(platform.size)})
    return PerturbationHook([
        RankComputeScale(rank=2, factor=3.0, start_s=0.01),
        LinkScale(segments[0], segments[-1], factor=1.7),
        OpClassScale(op="osp_scores", factor=0.6),
        LatencyScale(factor=2.0),
    ])


def _state(core):
    return (
        core.finish_times,
        [ledger.as_dict() for ledger in core.ledgers],
        core.ops,
    )


class TestOneArithmetic:
    @pytest.mark.parametrize("perturbed", [False, True])
    def test_run_equals_one_op_at_a_time(self, perturbed):
        platform = fully_heterogeneous()
        ops = _program(platform)

        def core():
            hook = _hook(platform) if perturbed else None
            return TimingCore(platform, perturb=hook)

        whole = core()
        records = []
        whole.run(list(ops), records)
        single = core()
        one_by_one = [
            single.compute(op.rank, op.mflops, op.sequential, op.label,
                           op.factor)
            if op.kind == "compute"
            else single.transfer(op.rank, op.dst, op.megabits)
            for op in ops
        ]
        assert records == one_by_one
        assert _state(whole) == _state(single)
        assert whole.ops == ops
        # The program did wait on a serial link and was perturbed.
        assert any(ledger.idle > 0 for ledger in whole.ledgers)
        if not perturbed:
            self_send = ops.index(Op("transfer", 0, 0, megabits=4.0))
            assert records[self_send].duration == 0.0

    def test_run_without_records_prices_the_same(self):
        platform = fully_heterogeneous()
        ops = _program(platform)
        silent, recorded = TimingCore(platform), TimingCore(platform)
        assert silent.run(list(ops)) is None
        records = []
        recorded.run(list(ops), records)
        assert len(records) == len(ops)
        assert _state(silent) == _state(recorded)

    def test_transfer_cost_is_the_networks_to_the_bit(self):
        platform = fully_heterogeneous()
        network = platform.network
        core = TimingCore(platform)
        for src in range(platform.size):
            for dst in range(platform.size):
                for megabits in (0.0, 0.37, 12.5):
                    # Twice: once pricing the route, once from its cache.
                    for _ in range(2):
                        record = core.transfer(src, dst, megabits)
                        assert record.duration == network.transfer_seconds(
                            src, dst, megabits
                        ), (src, dst, megabits)

    @pytest.mark.parametrize("op, error", [
        (Op("transfer", 0, 1, megabits=-1.0), ConfigurationError),
        (Op("compute", 0, mflops=-1.0), ConfigurationError),
        (Op("transfer", 0, 16, megabits=1.0), PlatformError),
        (Op("transfer", -1, 0, megabits=1.0), PlatformError),
        (Op("compute", 16, mflops=1.0), PlatformError),
        (Op("compute", -1, mflops=1.0), PlatformError),
    ], ids=["neg-megabits", "neg-mflops", "bad-dst", "neg-src",
            "bad-rank", "neg-rank"])
    def test_bad_ops_raise_from_run(self, op, error):
        core = TimingCore(fully_heterogeneous())
        # A cached route must not skip the checks either.
        core.run([Op("transfer", 0, 1, megabits=1.0)])
        with pytest.raises(error):
            core.run([op])
