"""Online health detection: straggler and link-drift monitoring.

The :class:`HealthMonitor` consumes ``(predicted, observed)`` duration
pairs for every charged compute op and every modelled transfer, scales
the prediction by the calibrated cost-model scale (the committed
``benchmarks/baselines/calibration.json`` may carry a ``"scales"``
block from :mod:`repro.obs.profile` fits), and maintains one EWMA of
the bounded relative error ``|obs - pred| / max(obs, pred)`` per
subject (``rank:<r>`` for compute, ``link:<label>`` for transfers).
When a subject's EWMA crosses the drift threshold the monitor emits a
structured :class:`HealthEvent` — surfaced as a ``"health"``-category
span in the trace and a ``health.events`` counter — and flags the
subject until the EWMA decays back below the clear level (hysteresis,
so one noisy op cannot flap the flag).

Determinism across backends: the error of an op slowed by factor ``f``
is ``(f - 1) / f`` regardless of the op's absolute duration, so the
EWMA trajectory — and hence the op index at which a rank is flagged —
is a pure function of the per-op factor sequence.  The virtual-time
engine feeds real charged durations and the wall-clock backend feeds
nominal (analytic) durations through the same code path, so an injected
``rank_slowdown`` plan flags the same rank at the same op index on both
backends.  This is the detection half of the ROADMAP's
performance-adaptive repartitioning seam.
"""

from __future__ import annotations

import dataclasses
import json
import threading
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.errors import ConfigurationError

__all__ = [
    "HealthConfig",
    "HealthEvent",
    "HealthMonitor",
    "scales_from_calibration",
]


@dataclasses.dataclass(frozen=True)
class HealthConfig:
    """Detector tuning.

    Attributes:
        alpha: EWMA smoothing factor (weight of the newest error).
        threshold: EWMA relative error above which a subject drifts.
            A rank slowed by factor ``f`` settles at error
            ``(f - 1)/f`` — the default 0.25 catches ``f >= ~1.4``.
        clear_ratio: a flagged subject recovers when its EWMA falls
            below ``threshold * clear_ratio`` (hysteresis).
        min_ops: observations required before a subject may be flagged
            (the EWMA needs a few samples to mean anything).
        compute_scale: calibrated multiplier applied to compute
            predictions before comparison.
        transfer_scale: likewise for transfer predictions.
    """

    alpha: float = 0.25
    threshold: float = 0.25
    clear_ratio: float = 0.5
    min_ops: int = 3
    compute_scale: float = 1.0
    transfer_scale: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigurationError(
                f"alpha must be in (0, 1], got {self.alpha}"
            )
        if self.threshold <= 0.0:
            raise ConfigurationError(
                f"threshold must be > 0, got {self.threshold}"
            )
        if not 0.0 <= self.clear_ratio < 1.0:
            raise ConfigurationError(
                f"clear_ratio must be in [0, 1), got {self.clear_ratio}"
            )
        if self.min_ops < 1:
            raise ConfigurationError(
                f"min_ops must be >= 1, got {self.min_ops}"
            )
        for name in ("compute_scale", "transfer_scale"):
            if getattr(self, name) <= 0.0:
                raise ConfigurationError(
                    f"{name} must be > 0, got {getattr(self, name)}"
                )


@dataclasses.dataclass(frozen=True)
class HealthEvent:
    """One detector state change.

    Attributes:
        kind: ``"rank_drift"``, ``"rank_recovered"``, ``"link_drift"``,
            or ``"link_recovered"``.
        subject: ``"rank:<r>"`` or ``"link:<label>"``.
        rank: the drifting rank for rank events, else ``None``.
        op_index: 1-based observation index of the subject at firing —
            the cross-backend-comparable coordinate.
        ewma: the EWMA relative error at firing.
        threshold: the level that was crossed.
        at: subject clock time at firing (virtual seconds on the
            engine, nominal seconds on the wall-clock backend).
    """

    kind: str
    subject: str
    rank: int | None
    op_index: int
    ewma: float
    threshold: float
    at: float

    def describe(self) -> str:
        return (
            f"{self.kind} {self.subject} at op {self.op_index}: "
            f"ewma_rel_error={self.ewma:.4f} "
            f"(threshold {self.threshold:.4f}, t={self.at:.6f}s)"
        )


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
    """Per-subject EWMA drift detector over (predicted, observed) pairs.

    Thread-safe: compute observations arrive from per-rank threads and
    transfer observations from the router's match path.  ``emit`` (set
    by the :class:`~repro.obs.live.LiveRuntime`) is called with each
    :class:`HealthEvent` after the state update, outside the monitor
    lock (the callback feeds the tracer, whose listeners may snapshot
    this monitor).
    """

    def __init__(
        self,
        config: HealthConfig | None = None,
        emit: Callable[[HealthEvent], None] | None = None,
    ) -> None:
        self.config = config or HealthConfig()
        self.emit = emit
        self._lock = threading.Lock()
        self._subjects: dict[str, _SubjectState] = {}
        self._events: list[HealthEvent] = []

    # -- observing --------------------------------------------------------
    def observe_compute(
        self, rank: int, predicted_s: float, observed_s: float, at: float
    ) -> None:
        self._observe(
            subject=f"rank:{rank}",
            rank=rank,
            predicted=predicted_s * self.config.compute_scale,
            observed=observed_s,
            at=at,
            kinds=("rank_drift", "rank_recovered"),
        )

    def observe_transfer(
        self, link: str, predicted_s: float, observed_s: float, at: float
    ) -> None:
        self._observe(
            subject=f"link:{link}",
            rank=None,
            predicted=predicted_s * self.config.transfer_scale,
            observed=observed_s,
            at=at,
            kinds=("link_drift", "link_recovered"),
        )

    def _observe(
        self,
        subject: str,
        rank: int | None,
        predicted: float,
        observed: float,
        at: float,
        kinds: tuple[str, str],
    ) -> None:
        error = relative_error(predicted, observed)
        cfg = self.config
        with self._lock:
            state = self._subjects.get(subject)
            if state is None:
                state = self._subjects[subject] = _SubjectState()
            state.ops += 1
            state.last = error
            if state.ops == 1:
                state.ewma = error
            else:
                state.ewma = cfg.alpha * error + (1.0 - cfg.alpha) * state.ewma
            event: HealthEvent | None = None
            if state.ops >= cfg.min_ops:
                if not state.flagged and state.ewma > cfg.threshold:
                    state.flagged = True
                    event = HealthEvent(
                        kind=kinds[0], subject=subject, rank=rank,
                        op_index=state.ops, ewma=state.ewma,
                        threshold=cfg.threshold, at=at,
                    )
                elif (
                    state.flagged
                    and state.ewma < cfg.threshold * cfg.clear_ratio
                ):
                    state.flagged = False
                    event = HealthEvent(
                        kind=kinds[1], subject=subject, rank=rank,
                        op_index=state.ops, ewma=state.ewma,
                        threshold=cfg.threshold * cfg.clear_ratio, at=at,
                    )
            if event is not None:
                self._events.append(event)
        # Emit outside the lock: the callback feeds the tracer, whose
        # listeners may snapshot this monitor's state.
        if event is not None and self.emit is not None:
            self.emit(event)

    # -- reading ----------------------------------------------------------
    @property
    def events(self) -> list[HealthEvent]:
        with self._lock:
            return list(self._events)

    def drift_events(self) -> list[HealthEvent]:
        return [e for e in self.events if e.kind.endswith("_drift")]

    def flagged_ranks(self) -> list[int]:
        """Currently-flagged ranks, sorted."""
        with self._lock:
            return sorted(
                int(subject.split(":", 1)[1])
                for subject, state in self._subjects.items()
                if state.flagged and subject.startswith("rank:")
            )

    def flagged_links(self) -> list[str]:
        with self._lock:
            return sorted(
                subject.split(":", 1)[1]
                for subject, state in self._subjects.items()
                if state.flagged and subject.startswith("link:")
            )

    def ewma_of(self, subject: str) -> float | None:
        with self._lock:
            state = self._subjects.get(subject)
            return state.ewma if state is not None else None

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

    def state(self) -> dict[str, Any]:
        """JSON-safe snapshot of all subjects and events."""
        with self._lock:
            subjects = [
                {
                    "subject": subject,
                    "ops": state.ops,
                    "ewma_rel_error": state.ewma,
                    "last_rel_error": state.last,
                    "flagged": state.flagged,
                }
                for subject, state in sorted(self._subjects.items())
            ]
            events = [dataclasses.asdict(e) for e in self._events]
            flagged_ranks = sorted(
                int(subject.split(":", 1)[1])
                for subject, state in self._subjects.items()
                if state.flagged and subject.startswith("rank:")
            )
            flagged_links = sorted(
                subject.split(":", 1)[1]
                for subject, state in self._subjects.items()
                if state.flagged and subject.startswith("link:")
            )
        return {
            "config": dataclasses.asdict(self.config),
            "subjects": subjects,
            "events": events,
            "flagged_ranks": flagged_ranks,
            "flagged_links": flagged_links,
        }


_IDENTITY_SCALES = {"compute": 1.0, "transfer": 1.0}


def scale_provenance_from_calibration(
    source: str | Path | Mapping[str, Any],
    backend: str = "sim",
) -> dict[str, Any] | None:
    """The ``scales_provenance`` entry for one backend, or ``None``.

    The committed calibration baseline records, per backend, *where*
    its fitted scales came from — the ledger commit, the run date, and
    the source artifact — so planner decisions built on those scales
    are auditable end to end (the planner stamps this block into every
    plan document and ``run.meta``, and it surfaces in
    ``analysis.json``).  Absent or malformed blocks return ``None``:
    provenance is advisory, never load-bearing.
    """
    if isinstance(source, (str, Path)):
        try:
            data: Mapping[str, Any] = json.loads(
                Path(source).read_text(encoding="utf-8")
            )
        except (OSError, json.JSONDecodeError):
            return None
    else:
        data = source
    block = data.get("scales_provenance")
    if not isinstance(block, Mapping):
        return None
    entry = block.get(backend)
    if not isinstance(entry, Mapping):
        return None
    out = {
        key: entry[key]
        for key in ("git_sha", "date", "source")
        if isinstance(entry.get(key), str)
    }
    return out or None


def scales_from_calibration(
    source: str | Path | Mapping[str, Any],
    backend: str = "sim",
    with_provenance: bool = False,
) -> dict[str, float] | tuple[dict[str, float], dict[str, Any] | None]:
    """Calibrated ``{"compute": ..., "transfer": ...}`` scales for one
    backend from the committed calibration baseline.

    Degrades gracefully: a calibration document without a ``"scales"``
    block (older exports), or with a malformed/non-numeric block, warns
    via :mod:`warnings` and returns neutral 1.0 scales instead of
    raising — detection should never be disabled by a stale baseline.
    Only a *present and numeric but non-positive* scale raises, since
    that indicates a corrupted fit rather than a missing one.

    With ``with_provenance=True`` returns ``(scales, provenance)``,
    where ``provenance`` is the baseline's per-backend
    ``scales_provenance`` entry (commit + date + source artifact from
    the run ledger) or ``None`` when the document does not carry one —
    degraded neutral scales always pair with ``None`` provenance.
    """
    import warnings

    if isinstance(source, (str, Path)):
        data: Mapping[str, Any] = json.loads(
            Path(source).read_text(encoding="utf-8")
        )
    else:
        data = source

    def _finish(
        scales: dict[str, float], provenance: dict[str, Any] | None
    ) -> dict[str, float] | tuple[dict[str, float], dict[str, Any] | None]:
        if with_provenance:
            return scales, provenance
        return scales

    def _degraded(
        reason: str,
    ) -> dict[str, float] | tuple[dict[str, float], dict[str, Any] | None]:
        warnings.warn(
            f"calibration has no usable scales for backend {backend!r} "
            f"({reason}); using neutral 1.0 scales",
            stacklevel=2,
        )
        return _finish(dict(_IDENTITY_SCALES), None)

    block = data.get("scales")
    if block is None:
        return _degraded('missing "scales" block')
    if not isinstance(block, Mapping):
        return _degraded(
            f'"scales" is {type(block).__name__}, expected a mapping'
        )
    scales = block.get(backend, {})
    if not isinstance(scales, Mapping):
        return _degraded(
            f'"scales.{backend}" is {type(scales).__name__}, '
            "expected a mapping"
        )
    out = {}
    for name in ("compute", "transfer"):
        try:
            out[name] = float(scales.get(name, 1.0))
        except (TypeError, ValueError):
            return _degraded(f'"scales.{backend}.{name}" is not a number')
    for name, value in out.items():
        if value <= 0:
            raise ConfigurationError(
                f"calibrated {name} scale must be > 0, got {value}"
            )
    return _finish(out, scale_provenance_from_calibration(data, backend))
