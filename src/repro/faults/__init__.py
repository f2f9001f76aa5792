"""Deterministic fault injection + fault tolerance (``repro.faults``).

Layers, shared by both MPI backends:

1. **Plans** (:mod:`repro.faults.plan`) — declarative, seed-free fault
   schedules (:class:`RankCrash`, :class:`MessageDelay`,
   :class:`MessageDrop`, and the two timing faults
   :class:`RankComputeScale` / :class:`LinkScale`, which are
   :mod:`repro.cluster.perturb`'s what-if perturbations, spelled
   ``rank_slowdown`` / ``link_degrade`` in a plan file) that serialize
   to JSON; the same plan file produces the same fault sequence on the
   virtual-time engine and the wall-clock backend.
2. **Policies** (:mod:`repro.faults.policy`) — declarative
   :class:`RetryPolicy`/:class:`DeadlinePolicy` resilience settings,
   embeddable in a plan's ``policy`` block.
3. **Detection** (:mod:`repro.faults.detect`) — per-operation
   deadlines, :func:`send_with_retry` with exponential backoff for
   transient losses, and a router-derived :class:`LivenessView`.
4. **Recovery** (:mod:`repro.faults.recovery`) —
   :func:`run_with_recovery` re-runs WEA over the survivors after a
   confirmed rank loss and resumes iterative algorithms from in-memory
   master checkpoints (:class:`CheckpointStore`).
5. **Adaptation** (:mod:`repro.faults.adaptive`) — the same
   repartition seam driven by the online straggler detector:
   slowed-but-alive ranks trigger a coordinated
   :class:`RepartitionSignal` exit and a model-platform downgrade.

The interpreter tying plans to execution is
:class:`~repro.faults.injector.FaultInjector`; both backends drive its
hooks from the one rank context in :mod:`repro.cluster.runtime` and
price ops through its compiled ``perturb`` hook.
The chaos-sweep harness (:mod:`repro.faults.sweep`) and the umbrella
CLI (``python -m repro.faults``) sit on top.
"""

from repro.faults.adaptive import (
    AdaptationEvent,
    AdaptiveConfig,
    AdaptiveController,
    RepartitionSignal,
)
from repro.faults.detect import (
    DEFAULT_RETRY_POLICY,
    LivenessView,
    liveness_of,
    policy_of,
    recv_with_timeout,
    send_with_retry,
)
from repro.faults.injector import FaultInjector, injector_for
from repro.faults.plan import (
    FaultPlan,
    LinkScale,
    MessageDelay,
    MessageDrop,
    RankComputeScale,
    RankCrash,
    load_fault_plan,
)
from repro.faults.policy import (
    DEFAULT_POLICY,
    DeadlinePolicy,
    ResiliencePolicy,
    RetryPolicy,
    load_policy,
)
from repro.faults.recovery import (
    CheckpointStore,
    RecoveredRun,
    RecoveryAttempt,
    run_with_recovery,
)

__all__ = [
    # plans
    "FaultPlan",
    "RankCrash",
    "RankComputeScale",
    "LinkScale",
    "MessageDelay",
    "MessageDrop",
    "load_fault_plan",
    # injection
    "FaultInjector",
    "injector_for",
    # policies
    "RetryPolicy",
    "DeadlinePolicy",
    "ResiliencePolicy",
    "DEFAULT_RETRY_POLICY",
    "DEFAULT_POLICY",
    "load_policy",
    "policy_of",
    # detection
    "send_with_retry",
    "recv_with_timeout",
    "LivenessView",
    "liveness_of",
    # recovery
    "CheckpointStore",
    "RecoveryAttempt",
    "RecoveredRun",
    "run_with_recovery",
    # adaptation
    "AdaptiveConfig",
    "AdaptiveController",
    "AdaptationEvent",
    "RepartitionSignal",
]
