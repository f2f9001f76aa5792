"""Failure detection primitives: deadlines, retry, liveness.

Detection is *bounded*: every helper here either succeeds within a
configured budget or raises a specific :mod:`repro.errors` exception —
no operation silently hangs.  On the virtual-time engine, deadlines and
backoff are charged in virtual seconds, so detection behaviour is fully
deterministic and shows up in exported traces.

Budgets are declarative: helpers accept either a bare
:class:`~repro.faults.policy.RetryPolicy` (legacy) or a full
:class:`~repro.faults.policy.ResiliencePolicy` whose ``deadline`` block
supplies the per-op timeouts, so a JSON policy file — standalone or
embedded in a fault plan — configures the whole detection layer.
Attempt accounting is surfaced through the session metrics
(``fault.attempts`` / ``fault.retries`` / ``fault.backoff_s``) and a
``fault``-category ``fault.retry`` span per backoff.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.errors import (
    CommunicationTimeout,
    ConfigurationError,
    TransientNetworkError,
)
from repro.faults.policy import (
    DEFAULT_RETRY_POLICY,
    DeadlinePolicy,
    ResiliencePolicy,
    RetryPolicy,
    deadline_of,
    retry_of,
)

__all__ = [
    "RetryPolicy",
    "DeadlinePolicy",
    "ResiliencePolicy",
    "policy_of",
    "send_with_retry",
    "recv_with_timeout",
    "LivenessView",
    "liveness_of",
]


def _unwrapped(ctx: Any) -> Iterator[Any]:
    """``ctx`` and then each context it wraps: a ``Communicator`` holds
    its context as ``_ctx``, its deadline decorator holds the rank
    context as ``context``; a backend's rank context holds neither."""
    while ctx is not None:
        yield ctx
        ctx = getattr(ctx, "_ctx", None) or getattr(ctx, "context", None)


def policy_of(ctx: Any) -> ResiliencePolicy | None:
    """The resilience policy travelling with the context's fault plan.

    Reads ``faults`` (the rank context's injector) through any wrappers;
    returns ``None`` when its plan carries no ``policy`` block, so
    callers can fall back to their defaults.
    """
    for obj in _unwrapped(ctx):
        policy = getattr(getattr(obj, "faults", None), "policy", None)
        if policy is not None:
            return policy
    return None


def send_with_retry(
    ctx: Any,
    dest: int,
    payload: Any,
    tag: int = 0,
    policy: "RetryPolicy | ResiliencePolicy | None" = None,
    timeout_s: float | None = None,
) -> int:
    """Send, resending on :class:`TransientNetworkError` (lost message).

    ``policy`` may be a bare :class:`RetryPolicy` or a full
    :class:`ResiliencePolicy`; when ``None``, the policy embedded in
    the context's fault plan applies (falling back to the default
    retry budget).  An explicit ``timeout_s`` overrides the policy's
    ``send_timeout_s`` deadline.  The backoff between attempts is
    charged to the sender's clock via ``ctx.charge_seconds`` — virtual
    time on the engine (deterministic), the nominal clock on the
    wall-clock backend.  Returns the number of attempts used; re-raises
    the last error when the budget is spent.  Non-transient errors
    (peer failed, timeout) propagate immediately.
    """
    if policy is None:
        policy = policy_of(ctx)
    retry = retry_of(policy)
    if timeout_s is None:
        timeout_s = deadline_of(policy).send_timeout_s
    kwargs: dict[str, Any] = {}
    if timeout_s is not None:
        kwargs["timeout_s"] = timeout_s
    obs = getattr(ctx, "obs", None)
    for attempt in range(1, retry.max_attempts + 1):
        try:
            ctx.send(dest, payload, tag, **kwargs)
            if obs is not None:
                obs.metrics.counter(
                    "fault.attempts", rank=ctx.rank, peer=dest
                ).inc(attempt)
            return attempt
        except TransientNetworkError:
            if obs is not None:
                obs.metrics.counter(
                    "fault.retries", rank=ctx.rank, peer=dest
                ).inc()
            if attempt == retry.max_attempts:
                if obs is not None:
                    obs.metrics.counter(
                        "fault.attempts", rank=ctx.rank, peer=dest
                    ).inc(attempt)
                raise
            backoff = retry.backoff_for(attempt)
            start = getattr(ctx, "now", 0.0)
            ctx.charge_seconds(backoff)
            if obs is not None:
                obs.metrics.counter(
                    "fault.backoff_s", rank=ctx.rank
                ).inc(backoff)
                obs.tracer.add_span(
                    "fault.retry", ctx.rank, start, start + backoff,
                    category="fault", attempt=attempt, peer=dest, tag=tag,
                )
    raise AssertionError("unreachable")  # pragma: no cover


def recv_with_timeout(
    ctx: Any,
    source: int,
    tag: int = -1,
    timeout_s: float | None = None,
    policy: "ResiliencePolicy | None" = None,
) -> Any:
    """Receive with a per-operation deadline.

    Thin wrapper over ``ctx.recv(..., timeout_s=...)`` for contexts
    that support deadlines; the deadline comes from ``timeout_s``, else
    the policy's (or the fault plan's embedded policy's)
    ``recv_timeout_s``.  Raises
    :class:`~repro.errors.CommunicationTimeout` on expiry.
    """
    if timeout_s is None:
        if policy is None:
            policy = policy_of(ctx)
        timeout_s = deadline_of(policy).recv_timeout_s
    if timeout_s is None:
        return ctx.recv(source, tag)
    return ctx.recv(source, tag, timeout_s=timeout_s)


class LivenessView:
    """Heartbeat-style liveness snapshot derived from the router.

    The rendezvous router already observes every rank's lifecycle
    (explicit :meth:`~repro.cluster.mailbox.Router.fail` marks and
    program retirement), so no extra heartbeat messages are needed —
    this view just exposes that ground truth to recovery code.
    """

    def __init__(self, router: Any) -> None:
        self._router = router

    def failed(self) -> frozenset[int]:
        """Ranks confirmed crashed."""
        return self._router.failed_ranks()

    def retired(self) -> frozenset[int]:
        """Ranks whose programs finished (cleanly or not)."""
        return self._router.retired_ranks()

    def is_alive(self, rank: int) -> bool:
        """True while ``rank`` has neither crashed nor finished."""
        return rank not in self.failed() and rank not in self.retired()

    def suspects(self, ranks: Any) -> frozenset[int]:
        """Subset of ``ranks`` that are confirmed failed."""
        failed = self.failed()
        return frozenset(r for r in ranks if r in failed)


def liveness_of(ctx: Any) -> LivenessView:
    """Build a :class:`LivenessView` from any backend's rank context.

    Works with either backend's rank context and with the high-level
    ``Communicator`` wrapper around one.
    """
    for obj in _unwrapped(ctx):
        router = getattr(obj, "router", None)
        if router is not None:
            return LivenessView(router)
    raise ConfigurationError(
        f"cannot derive a liveness view from {type(ctx).__name__}: "
        "no router is reachable"
    )
