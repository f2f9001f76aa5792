"""Metrics registry: labelled counters and histograms.

The registry is the numeric side of the observability layer: the
communicator and backends populate it with per-peer message and byte
counts, per-kind collective counts, compute mflops charged, and (on the
virtual-time engine) COM/idle seconds — the raw material of the paper's
per-link volume accounting (Dongarra et al.'s master-worker analysis)
and MatlabMPI-style communication profiles.

Metrics are keyed by ``(name, sorted labels)``; label values are
stringified so exports are deterministic.  All mutation is lock-guarded
per metric.  On the virtual-time backend every update sequence is
deterministic (per-label-set updates happen either in one rank's
program order or under the router lock in receiver order), so exported
values are bit-stable across runs.
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Sequence

from repro.errors import ConfigurationError

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKET_BOUNDS",
]

MetricKey = tuple[str, tuple[tuple[str, str], ...]]


def _label_key(labels: dict[str, Any]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


#: Label value types whose equal values of one type have equal ``str``
#: (unlike ``0.0`` and ``-0.0``, or ``(1,)`` and ``(True,)``): only
#: requests made of these are memoised by their labels as passed.
_MEMO_TYPES = frozenset((str, int, bool))


class Counter:
    """A monotonically increasing sum."""

    kind = "counter"
    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError(f"counter increment must be >= 0, got {amount}")
        with self._lock:
            self.value += amount

    def snapshot(self) -> dict[str, float]:
        return {"value": self.value}


#: Default histogram bucket upper bounds (seconds-flavoured; spans both
#: the sub-millisecond inproc transfers and the hundreds-of-seconds
#: virtual-time grid cells).
DEFAULT_BUCKET_BOUNDS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0,
)


class Histogram:
    """Streaming count/sum/min/max summary plus fixed-bound buckets.

    Buckets follow the OpenMetrics convention: bound ``b`` counts every
    observation with ``value <= b`` (*le*, upper-bound inclusive), with
    an implicit ``+Inf`` bucket for the overflow.  A value exactly on a
    bucket edge therefore lands in the bucket whose bound it equals —
    the comparison is a single float ``<=`` resolved via
    :func:`bisect.bisect_left`, so the assignment is deterministic and
    identical on both backends (no accumulated-float drift is
    involved in the decision).
    """

    kind = "histogram"
    __slots__ = ("count", "total", "vmin", "vmax", "bounds",
                 "bucket_counts", "_lock")

    def __init__(self, bounds: Sequence[float] | None = None) -> None:
        chosen = tuple(float(b) for b in (
            DEFAULT_BUCKET_BOUNDS if bounds is None else bounds
        ))
        if any(b2 <= b1 for b1, b2 in zip(chosen, chosen[1:])):
            raise ConfigurationError(
                f"bucket bounds must be strictly increasing, got {chosen}"
            )
        self.bounds = chosen
        #: Non-cumulative per-bucket counts; the last slot is +Inf.
        self.bucket_counts = [0] * (len(chosen) + 1)
        self.count = 0
        self.total = 0.0
        self.vmin = float("inf")
        self.vmax = float("-inf")
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        v = float(value)
        # bisect_left on the bounds gives the first bound >= v, i.e.
        # the smallest bucket with v <= bound: an exact edge value maps
        # to the bucket it names, never the next one up.
        idx = bisect.bisect_left(self.bounds, v)
        with self._lock:
            self.count += 1
            self.total += v
            self.bucket_counts[idx] += 1
            if v < self.vmin:
                self.vmin = v
            if v > self.vmax:
                self.vmax = v

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ending at +Inf."""
        out: list[tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.bounds, self.bucket_counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), self.count))
        return out

    def snapshot(self) -> dict[str, Any]:
        buckets = [
            ["+Inf" if bound == float("inf") else bound, cum]
            for bound, cum in self.cumulative_buckets()
        ]
        if not self.count:
            return {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0,
                    "mean": 0.0, "buckets": buckets}
        return {
            "count": self.count,
            "total": self.total,
            "min": self.vmin,
            "max": self.vmax,
            "mean": self.mean,
            "buckets": buckets,
        }


class MetricsRegistry:
    """Get-or-create store of labelled metrics.

    Usage::

        metrics.counter("comm.megabits_sent", rank=0, peer=3).inc(1.5)
        metrics.histogram("sim.transfer_seconds", rank=0).observe(dt)
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[MetricKey, Counter | Histogram] = {}
        #: Each handle already handed out, keyed by the request as
        #: passed (kind, name, label items and their types), so a
        #: repeated request skips building the sorted key.
        self._memo: dict[tuple[Any, ...], Counter | Histogram] = {}

    def _get(self, cls: type, name: str, labels: dict[str, Any]):
        types = tuple(map(type, labels.values()))
        request = (cls, name, tuple(labels.items()), types)
        try:
            metric = self._memo.get(request)
        except TypeError:  # an unhashable label value
            metric = None
        if metric is not None:
            return metric
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls()
                self._metrics[key] = metric
            elif not isinstance(metric, cls):
                raise ConfigurationError(
                    f"metric {name!r} already registered as {metric.kind}, "
                    f"requested {cls.__name__.lower()}"
                )
            if _MEMO_TYPES.issuperset(types):
                self._memo[request] = metric
            return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        """Get-or-create a histogram over :data:`DEFAULT_BUCKET_BOUNDS`."""
        return self._get(Histogram, name, labels)

    # -- reading ----------------------------------------------------------
    def value(self, name: str, **labels: Any) -> float | None:
        """A counter value by exact name + labels, else ``None``."""
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
        if metric is None or isinstance(metric, Histogram):
            return None
        return metric.value

    def total(self, name: str) -> float:
        """Sum of a metric over all label sets (counter values,
        histogram totals)."""
        out = 0.0
        for record in self.records():
            if record["name"] != name:
                continue
            snap = record
            out += snap.get("value", snap.get("total", 0.0))
        return out

    def names(self) -> list[str]:
        with self._lock:
            return sorted({name for name, _ in self._metrics})

    def records(self) -> list[dict[str, Any]]:
        """Deterministic flat export: one dict per (name, labels) with
        the metric kind and its snapshot fields, sorted by key."""
        with self._lock:
            items = sorted(self._metrics.items())
        out: list[dict[str, Any]] = []
        for (name, labels), metric in items:
            record: dict[str, Any] = {
                "name": name,
                "labels": dict(labels),
                "kind": metric.kind,
            }
            record.update(metric.snapshot())
            out.append(record)
        return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def __repr__(self) -> str:
        return f"MetricsRegistry(metrics={len(self)})"
