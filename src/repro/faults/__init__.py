"""Deterministic fault injection + fault tolerance (``repro.faults``).

Layers, shared by both MPI backends:

1. **Plans** (:mod:`repro.faults.plan`) — declarative, seed-free fault
   schedules (:class:`RankCrash`, :class:`MessageDelay`, and the two
   timing faults :class:`RankComputeScale` / :class:`LinkScale`, which are
   :mod:`repro.cluster.perturb`'s what-if perturbations, spelled
   ``rank_slowdown`` / ``link_degrade`` in a plan file) that serialize
   to JSON; the same plan file produces the same fault sequence on the
   virtual-time engine and the wall-clock backend.
2. **Recovery** (:mod:`repro.faults.recovery`) —
   :func:`run_with_recovery` re-runs WEA over the survivors after a
   rank loss — detected by the :class:`~repro.errors.RankFailedError`
   the crash raises, which ``Router.fail`` hands to every peer waiting
   on the crashed rank — and resumes iterative algorithms from
   in-memory master checkpoints (:class:`CheckpointStore`).
3. **Adaptation** (:mod:`repro.faults.adaptive`) — the same
   repartition seam driven by the online straggler detector:
   slowed-but-alive ranks trigger a coordinated
   :class:`RepartitionSignal` exit and a model-platform downgrade.

The interpreter tying plans to execution is
:class:`~repro.faults.injector.FaultInjector`; both backends drive its
hooks from the one rank context in :mod:`repro.cluster.runtime` and
price ops through its compiled ``perturb`` hook.
The chaos-sweep harness (:mod:`repro.faults.sweep`) sits on top; its
CLI and the plan checker's are ``python -m repro sweep`` and
``python -m repro plan``.
"""

from repro.faults.adaptive import (
    AdaptationEvent,
    AdaptiveConfig,
    AdaptiveController,
    RepartitionSignal,
)
from repro.faults.injector import FaultInjector, injector_for
from repro.faults.plan import (
    FaultPlan,
    LinkScale,
    MessageDelay,
    RankComputeScale,
    RankCrash,
    load_fault_plan,
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
    "load_fault_plan",
    # injection
    "FaultInjector",
    "injector_for",
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
