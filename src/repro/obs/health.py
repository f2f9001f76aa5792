"""Online straggler detection: the rank drift detector.

The :class:`HealthMonitor` consumes one ``(predicted, observed)``
duration pair per charged compute op — the cost model's nominal
duration and the duration the rank's timing core charged, possibly
dilated by an injected fault — and maintains one EWMA of the bounded
relative error ``|obs - pred| / max(obs, pred)`` per ``rank:<r>``
subject.  When a rank's EWMA crosses :data:`THRESHOLD` the monitor
records a :class:`HealthEvent` — surfaced as a ``"health"``-category
span in the trace and a ``health.events`` counter when the run has an
observability session — and flags the rank until the EWMA decays back
below ``THRESHOLD * CLEAR_RATIO`` (hysteresis, so one noisy op cannot
flap the flag).  Its one consumer is
:class:`repro.faults.adaptive.AdaptiveController`, which reads each
rank's own subject at iteration boundaries.

Determinism across backends: the error of an op slowed by factor ``f``
is ``(f - 1) / f`` regardless of the op's absolute duration, so the
EWMA trajectory — and hence the op index at which a rank is flagged —
is a pure function of the per-op factor sequence.  Both backends feed
the pair from the same :class:`~repro.cluster.simtime.TimingCore`
(virtual seconds on the engine, nominal seconds on the wall-clock
backend), so an injected ``rank_slowdown`` plan flags the same rank at
the same op index on both.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import ObsSession

__all__ = [
    "HealthEvent",
    "HealthMonitor",
]

#: EWMA smoothing factor (weight of the newest error).
ALPHA = 0.25
#: EWMA relative error above which a rank drifts.  A rank slowed by
#: factor ``f`` settles at error ``(f - 1)/f``, so 0.25 catches
#: ``f >= ~1.4``.
THRESHOLD = 0.25
#: A flagged rank recovers when its EWMA falls below
#: ``THRESHOLD * CLEAR_RATIO``.
CLEAR_RATIO = 0.5
#: Observations a rank needs before it may be flagged (the EWMA needs a
#: few samples to mean anything).
MIN_OPS = 3


@dataclasses.dataclass(frozen=True)
class HealthEvent:
    """One detector state change.

    Attributes:
        kind: ``"rank_drift"`` or ``"rank_recovered"``.
        subject: ``"rank:<r>"``.
        rank: the rank.
        op_index: 1-based observation index of the subject at firing —
            the cross-backend-comparable coordinate.
        ewma: the EWMA relative error at firing.
        threshold: the level that was crossed.
        at: rank clock time at firing (virtual seconds on the engine,
            nominal seconds on the wall-clock backend).
    """

    kind: str
    subject: str
    rank: int
    op_index: int
    ewma: float
    threshold: float
    at: float


class _SubjectState:
    __slots__ = ("ewma", "ops", "flagged", "last")

    def __init__(self) -> None:
        self.ewma = 0.0
        self.ops = 0
        self.flagged = False
        #: Most recent per-op relative error.  For a rank slowed by a
        #: constant factor ``f`` this is exactly ``(f - 1)/f`` on every
        #: slowed op, which makes it the exact inverse estimator
        #: ``f = 1/(1 - last)`` the adaptive repartitioner uses (the
        #: EWMA lags the settled value while it is still converging).
        self.last = 0.0


def relative_error(predicted: float, observed: float) -> float:
    """Bounded symmetric relative error in ``[0, 1]`` (the same metric
    :func:`repro.obs.profile.profile_trace` reports offline)."""
    p, o = abs(predicted), abs(observed)
    denominator = max(p, o)
    if denominator == 0.0:
        return 0.0
    return abs(o - p) / denominator


class HealthMonitor:
    """Per-rank EWMA drift detector over (predicted, observed) pairs.

    Thread-safe: observations arrive from the per-rank threads.  Attach
    one to a run with ``ObsSession.create(health=HealthMonitor())``;
    both backends then feed it from
    :meth:`repro.cluster.runtime.BaseRankContext.compute`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._subjects: dict[str, _SubjectState] = {}
        self._events: list[HealthEvent] = []

    def observe_compute(
        self,
        rank: int,
        predicted_s: float,
        observed_s: float,
        at: float,
        obs: "ObsSession | None" = None,
    ) -> None:
        """One compute op charged on ``rank``'s timing core, with the
        analytic duration before and after fault dilation.  An event
        it fires is recorded on ``obs`` (span + counter) when given."""
        subject = f"rank:{rank}"
        error = relative_error(predicted_s, observed_s)
        with self._lock:
            state = self._subjects.get(subject)
            if state is None:
                state = self._subjects[subject] = _SubjectState()
            state.ops += 1
            state.last = error
            if state.ops == 1:
                state.ewma = error
            else:
                state.ewma = ALPHA * error + (1.0 - ALPHA) * state.ewma
            event: HealthEvent | None = None
            if state.ops >= MIN_OPS:
                if not state.flagged and state.ewma > THRESHOLD:
                    state.flagged = True
                    event = HealthEvent(
                        kind="rank_drift", subject=subject, rank=rank,
                        op_index=state.ops, ewma=state.ewma,
                        threshold=THRESHOLD, at=at,
                    )
                elif state.flagged and state.ewma < THRESHOLD * CLEAR_RATIO:
                    state.flagged = False
                    event = HealthEvent(
                        kind="rank_recovered", subject=subject, rank=rank,
                        op_index=state.ops, ewma=state.ewma,
                        threshold=THRESHOLD * CLEAR_RATIO, at=at,
                    )
            if event is not None:
                self._events.append(event)
        if event is not None and obs is not None:
            obs.tracer.add_span(
                f"health.{event.kind}", rank, at, at,
                category="health", subject=subject,
                op_index=event.op_index, ewma_rel_error=event.ewma,
                threshold=event.threshold,
            )
            obs.metrics.counter(
                "health.events", kind=event.kind, subject=subject
            ).inc()

    @property
    def events(self) -> list[HealthEvent]:
        with self._lock:
            return list(self._events)

    def flagged_ranks(self) -> list[int]:
        """Currently-flagged ranks, sorted."""
        with self._lock:
            return sorted(
                int(subject.split(":", 1)[1])
                for subject, state in self._subjects.items()
                if state.flagged
            )

    def subject_snapshot(self, subject: str) -> dict[str, Any] | None:
        """One subject's current detector state (``None`` if unseen).

        The adaptive controller reads a rank's own ``rank:<r>`` subject
        at iteration boundaries; since that subject is only ever
        updated by rank ``r``'s own compute observations, the snapshot
        a rank takes of itself is deterministic on both backends.
        """
        with self._lock:
            state = self._subjects.get(subject)
            if state is None:
                return None
            return {
                "subject": subject,
                "ops": state.ops,
                "ewma_rel_error": state.ewma,
                "last_rel_error": state.last,
                "flagged": state.flagged,
            }
