"""Wall-clock in-process backend.

Runs the same SPMD programs as the virtual-time engine, but on real
threads with real time: :meth:`InprocContext.compute` charges nothing
(the actual numpy work *is* the computation) and message transfers cost
whatever the memory copy costs.  The rank launcher, the per-op hook
sequence and the nominal clock are :mod:`repro.cluster.runtime`'s, the
same code the engine runs.  Its ranks share one GIL and run on the
launcher's current CPU, as the engine's do, so they time-share one
processor rather than run in parallel; this backend is the reference
for *correctness* — algorithm outputs must be identical on both
backends.
"""

from __future__ import annotations

import dataclasses
import time
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro.cluster.mailbox import Router, payload_wire_megabits
from repro.cluster.platform import HeterogeneousPlatform
from repro.cluster.runtime import BaseRankContext, launch_ranks
from repro.cluster.simtime import ComputeRecord, TimingCore
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector
    from repro.obs import ObsSession

__all__ = ["InprocContext", "InprocResult", "run_inproc"]

#: Cap on how long the wall-clock backend actually sleeps for an
#: injected MessageDelay — delays are *modelled* (the nominal clock
#: advances by the full delay) but the test suite shouldn't stall.
_MAX_REAL_SLEEP_S = 0.05


class InprocContext(BaseRankContext):
    """Per-rank context for the wall-clock backend.

    Programs written for the virtual engine run unchanged: computation
    charges no time (the actual numpy work *is* the computation), and
    each rank emits the transfer spans it timed itself.
    """

    def _report_compute(
        self, mflops: float, sequential: bool, charge: ComputeRecord | None
    ) -> float:
        """The nominal mflops are still metered when observability is
        on, so both backends report comparable work counters."""
        if self.obs is not None and mflops > 0:
            self.obs.metrics.counter(
                "compute.mflops",
                rank=self.rank,
                kind="seq" if sequential else "compute",
            ).inc(float(mflops))
        return 0.0

    def _megabits(self, payload: Any) -> float:
        return payload_wire_megabits(payload)

    def _span_start(self) -> float | None:
        return None if self.obs is None else self.obs.tracer.now(self.rank)

    def _transfer_span(
        self, start: float, direction: str, peer: int, megabits: float
    ) -> None:
        tracer = self.obs.tracer
        tracer.add_span(
            "transfer", self.rank, start, tracer.now(self.rank),
            category="transfer", peer=peer, megabits=megabits,
            direction=direction,
        )

    def _charge_delay(self, delay: float) -> None:
        super()._charge_delay(delay)
        time.sleep(min(delay, _MAX_REAL_SLEEP_S))


@dataclasses.dataclass
class InprocResult:
    """Outcome of a wall-clock run."""

    return_values: list[Any]
    wall_seconds: float


def run_inproc(
    n_ranks: int,
    program: Callable[..., Any],
    kwargs_per_rank: Sequence[Mapping[str, Any]] | None = None,
    master_rank: int = 0,
    obs: "ObsSession | None" = None,
    faults: "FaultInjector | None" = None,
    platform: HeterogeneousPlatform | None = None,
    **common_kwargs: Any,
) -> InprocResult:
    """Run ``program(ctx, **kwargs)`` on ``n_ranks`` real threads.

    Args:
        n_ranks: degree of parallelism.
        program: SPMD body taking an :class:`InprocContext`.
        kwargs_per_rank: optional per-rank keyword arguments.
        master_rank: which rank plays master.
        obs: observability session (spans clocked by the wall).
        faults: fault injector; every context drives its hooks in the
            same sequence as on the virtual-time engine, so the same
            plan file produces the same fault sequence.
        platform: the platform the ranks stand for.  Given one, each
            rank keeps a *nominal clock* on a timing core (analytic
            compute cost plus injected delays, never a transfer):
            time-based fault triggers and windows are evaluated against
            it and the online health detector is fed from it.  Without
            one nominal time stays 0.0.
        common_kwargs: forwarded to every rank.

    Raises:
        The first rank's exception if any rank failed.
    """
    if n_ranks < 1:
        raise ConfigurationError(f"n_ranks must be >= 1, got {n_ranks}")
    core = None
    if platform is not None:
        if platform.size != n_ranks:
            raise ConfigurationError(
                f"platform {platform.name!r} has {platform.size} ranks, "
                f"not {n_ranks}"
            )
        core = TimingCore(
            platform,
            perturb=faults.perturb if faults is not None else None,
        )
    router = Router(n_ranks)
    start = time.perf_counter()
    results = launch_ranks(
        router,
        n_ranks,
        lambda rank: InprocContext(
            rank, n_ranks, master_rank, router, core=core, obs=obs, faults=faults
        ),
        program, kwargs_per_rank, common_kwargs,
    )
    return InprocResult(
        return_values=results, wall_seconds=time.perf_counter() - start
    )
