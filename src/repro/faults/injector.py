"""Fault-plan interpreter shared by both MPI backends.

The :class:`FaultInjector` is the single stateful object that turns a
declarative :class:`~repro.faults.plan.FaultPlan` into concrete
failures.  Both backends call its hooks from one place: the shared
rank context (:class:`repro.cluster.runtime.BaseRankContext`) runs
``before_op``/``on_send`` ahead of every compute/send/recv, and the
timing core prices every op through :attr:`FaultInjector.perturb` — the
plan's timing faults compiled once per attempt into a
:class:`~repro.cluster.perturb.PerturbationHook`, the same object a
what-if replay builds from the same faults.  The per-rank
*operation counters* (compute/send/recv, counted in program order) are
therefore the same on both clocks, so ``at_op_index`` crash triggers
fire at exactly the same operation; time-based triggers and windows
read the rank's nominal clock, never the wall.

Fault state is keyed by **original** rank ids.  When
checkpoint–restart recovery re-runs a program on a survivor subset,
:meth:`FaultInjector.attach` is called again with a ``rank_map``
translating the new (dense) rank numbering back to the original one —
so already-fired crashes stay fired, delay budgets keep their
remaining counts, and windows keep their absolute times.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Sequence

from repro.cluster.perturb import LinkScale, PerturbationHook, RankComputeScale
from repro.errors import FaultPlanError, RankFailedError
from repro.faults.plan import FaultPlan, MessageDelay

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.platform import HeterogeneousPlatform
    from repro.obs import ObsSession

__all__ = ["FaultInjector"]

#: A trace span needs a finite end, so a window open to the end of the
#: run is drawn to here (what the canned plans spell "whole run");
#: every reader of ``fault`` spans clamps them to the run.
_OPEN_WINDOW_SPAN_END_S = 1e9


class FaultInjector:
    """Deterministic interpreter for one :class:`FaultPlan`.

    One injector instance spans a whole (possibly multi-attempt)
    fault-tolerant run; call :meth:`attach` before each attempt to
    bind the current platform/rank numbering and observability
    session.  All hooks are thread-safe and take times on the caller's
    clock (virtual seconds on the engine, nominal compute seconds on
    the wall-clock backend).

    Attributes:
        perturb: the timing core's perturbation hook for the current
            attempt (slowdown and degrade windows under the attempt's
            rank numbering); rebuilt by :meth:`attach` before the rank
            threads start and read-only afterwards.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._lock = threading.Lock()
        # All persistent state below is keyed by ORIGINAL rank ids.
        self._op_counts: dict[int, int] = {}
        self._fired_crashes: set[int] = set()
        # Remaining delay budget per plan index (None = unlimited).
        self._remaining: dict[int, int | None] = {}
        for i, fault in enumerate(plan):
            if isinstance(fault, MessageDelay):
                self._remaining[i] = fault.count
        self._obs: "ObsSession | None" = None
        self._rank_map: tuple[int, ...] | None = None
        self._windows_emitted = False
        self.perturb = PerturbationHook(plan)

    # -- binding -------------------------------------------------------------
    def attach(
        self,
        platform: "HeterogeneousPlatform | None" = None,
        obs: "ObsSession | None" = None,
        rank_map: Sequence[int] | None = None,
    ) -> "FaultInjector":
        """Bind the injector to the platform/rank numbering of the next
        attempt.

        Args:
            platform: platform of the upcoming run (a first attempt
                validates the plan's ranks against it).
            obs: observability session for fault spans/counters.
            rank_map: ``rank_map[current_rank] == original_rank``; omit
                for the identity mapping of a first attempt.
        """
        with self._lock:
            self._obs = obs
            self._rank_map = tuple(rank_map) if rank_map is not None else None
            self.perturb = PerturbationHook(self.plan, self._rank_map)
            if platform is not None and self._rank_map is None:
                # The plan speaks original rank ids; validate it against
                # the full platform on the first (identity) attach only.
                self.plan.check_platform(
                    platform.size, master_rank=platform.master_rank
                )
            if obs is not None and not self._windows_emitted:
                self._emit_windows(obs)
                self._windows_emitted = True
        return self

    def _original(self, rank: int) -> int:
        if self._rank_map is None:
            return rank
        return self._rank_map[rank]

    def _emit_windows(self, obs: "ObsSession") -> None:
        """Record window faults as spans once, so traces show when the
        plan degrades which resource (category ``fault``)."""
        for fault in self.plan:
            if isinstance(fault, RankComputeScale):
                name, rank, attrs = "fault.slowdown", fault.rank, {}
            elif isinstance(fault, LinkScale):
                name, rank = "fault.link_degrade", 0
                attrs = {"link": "|".join(fault.pair)}
            else:
                continue
            end_s = (
                _OPEN_WINDOW_SPAN_END_S if fault.end_s is None else fault.end_s
            )
            obs.tracer.add_span(
                name, rank, fault.start_s, end_s,
                category="fault", factor=float(fault.factor), **attrs,
            )

    # -- hooks (called by the shared rank context) ---------------------------
    def before_op(self, rank: int, op: str, now: float) -> None:
        """Count one operation of ``rank`` and fire a due crash.

        Called before every compute/send/recv with the rank's current
        clock.  Raises :class:`~repro.errors.RankFailedError` with
        ``injected=True`` when a :class:`RankCrash` trigger is met.
        """
        with self._lock:
            orig = self._original(rank)
            count = self._op_counts.get(orig, 0) + 1
            self._op_counts[orig] = count
            for crash in self.plan.of_kind("rank_crash"):
                if crash.rank != orig or crash.rank in self._fired_crashes:
                    continue
                due = (
                    crash.at_op_index is not None and count >= crash.at_op_index
                ) or (
                    crash.at_virtual_s is not None and now >= crash.at_virtual_s
                )
                if not due:
                    continue
                self._fired_crashes.add(crash.rank)
                if self._obs is not None:
                    self._obs.metrics.counter(
                        "fault.injected", kind="rank_crash", rank=rank
                    ).inc()
                    self._obs.tracer.add_span(
                        "fault.crash", rank, now, now, category="fault",
                        op=op, original_rank=orig,
                    )
                raise RankFailedError(
                    rank,
                    f"rank {rank} (original rank {orig}) crashed by fault "
                    f"plan {self.plan.name!r} at op #{count} ({op}, "
                    f"t={now:.6f})",
                    injected=True,
                )

    def on_send(self, rank: int, dest: int, tag: int, now: float) -> float:
        """Apply delay faults to one send; returns the injected delay in
        seconds (0.0 when none applies).  Budgets are consumed under the
        injector lock in the caller's arrival order, so pin ``src`` in
        the plan for deterministic runs.
        """
        with self._lock:
            src = self._original(rank)
            dst = self._original(dest)
            delay = 0.0
            for i, fault in enumerate(self.plan):
                if not isinstance(fault, MessageDelay):
                    continue
                remaining = self._remaining.get(i)
                if remaining == 0 or not fault.matches(src, dst, tag):
                    continue
                if remaining is not None:
                    self._remaining[i] = remaining - 1
                delay += fault.delay_s
            if delay > 0 and self._obs is not None:
                self._obs.metrics.counter(
                    "fault.injected", kind="message_delay", rank=rank
                ).inc()
                self._obs.tracer.add_span(
                    "fault.delay", rank, now, now + delay, category="fault",
                    peer=dest, tag=tag,
                )
        return delay

    # -- introspection --------------------------------------------------------
    def fired_crashes(self) -> frozenset[int]:
        """Original ranks whose planned crashes have fired so far."""
        with self._lock:
            return frozenset(self._fired_crashes)


def injector_for(plan: FaultPlan | FaultInjector | None) -> FaultInjector | None:
    """Accept either a plan or a ready injector (or None)."""
    if plan is None:
        return None
    if isinstance(plan, FaultInjector):
        return plan
    if isinstance(plan, FaultPlan):
        return FaultInjector(plan)
    raise FaultPlanError(
        f"expected FaultPlan or FaultInjector, got {type(plan).__name__}"
    )
