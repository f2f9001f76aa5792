"""The streaming quantile sketch of the live observability runtime.

:class:`LatencySketch` is a fixed log-bucket histogram sketch.  Counts
are integers, so merging two sketches (across ranks, or across grid
cells) is exact bucket-count addition: merge is associative and
commutative, the empty sketch is the identity, and a merged sketch is
*bit-identical* to the sketch a single observer of the combined stream
would have built.  Quantile estimates carry a hard relative-error
bound of ``10**(1/buckets_per_decade) - 1`` (the bucket width) for any
value inside the configured range.

It is a deterministic, order-independent function of its observations
(counts only), so per-rank sketches merged in any order agree exactly —
the property the cross-rank merge-identity tests pin on both backends.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Mapping, Sequence

from repro.errors import ConfigurationError

__all__ = ["LatencySketch", "merge_sketches"]


class LatencySketch:
    """Mergeable log-bucket quantile sketch over ``(0, +inf)`` seconds.

    Bucket ``0`` collects values ``<= min_value`` (underflow), the last
    bucket values ``>= max_value`` (overflow), and between them each
    decade of the range is split into ``buckets_per_decade`` buckets of
    equal ratio.  Quantiles interpolate geometrically inside the
    selected bucket, so an estimate for any value in
    ``[min_value, max_value]`` is within a factor of
    ``10**(1/buckets_per_decade)`` of the exact sample quantile.

    The defaults span sub-nanosecond wall transfers up to ten-thousand
    virtual seconds at a guaranteed relative error of ~7.5%.
    """

    __slots__ = ("min_value", "max_value", "buckets_per_decade",
                 "_counts", "count", "total", "vmin", "vmax")

    def __init__(
        self,
        min_value: float = 1e-9,
        max_value: float = 1e4,
        buckets_per_decade: int = 32,
    ) -> None:
        if not (0 < min_value < max_value):
            raise ConfigurationError(
                f"need 0 < min_value < max_value, got "
                f"({min_value}, {max_value})"
            )
        if buckets_per_decade < 1:
            raise ConfigurationError(
                f"buckets_per_decade must be >= 1, got {buckets_per_decade}"
            )
        self.min_value = float(min_value)
        self.max_value = float(max_value)
        self.buckets_per_decade = int(buckets_per_decade)
        decades = math.log10(self.max_value / self.min_value)
        n_log = max(1, math.ceil(decades * self.buckets_per_decade))
        # [underflow] + n_log log-spaced buckets + [overflow]
        self._counts = [0] * (n_log + 2)
        self.count = 0
        self.total = 0.0
        self.vmin = math.inf
        self.vmax = -math.inf

    # -- configuration ----------------------------------------------------
    @property
    def config(self) -> tuple[float, float, int]:
        return (self.min_value, self.max_value, self.buckets_per_decade)

    @property
    def n_buckets(self) -> int:
        return len(self._counts)

    @property
    def relative_error_bound(self) -> float:
        """Guaranteed quantile relative error inside the range: one
        bucket's ratio minus one."""
        return 10.0 ** (1.0 / self.buckets_per_decade) - 1.0

    def _index(self, value: float) -> int:
        if value <= self.min_value:
            return 0
        if value >= self.max_value:
            return len(self._counts) - 1
        idx = 1 + int(
            math.log10(value / self.min_value) * self.buckets_per_decade
        )
        # Float round-off at the top edge may land one past the last
        # log bucket; clamp into the log range.
        return min(idx, len(self._counts) - 2)

    def _bucket_bounds(self, index: int) -> tuple[float, float]:
        """``(lo, hi)`` value bounds of bucket ``index``."""
        if index <= 0:
            return (0.0, self.min_value)
        if index >= len(self._counts) - 1:
            return (self.max_value, self.max_value)
        step = 10.0 ** (1.0 / self.buckets_per_decade)
        lo = self.min_value * step ** (index - 1)
        return (lo, min(lo * step, self.max_value))

    # -- observing --------------------------------------------------------
    def observe(self, value: float) -> None:
        v = float(value)
        if v < 0 or math.isnan(v):
            raise ConfigurationError(f"latency must be >= 0, got {value}")
        self._counts[self._index(v)] += 1
        self.count += 1
        self.total += v
        if v < self.vmin:
            self.vmin = v
        if v > self.vmax:
            self.vmax = v

    def observe_many(self, values: Iterable[float]) -> None:
        for v in values:
            self.observe(v)

    # -- reading ----------------------------------------------------------
    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The estimated ``q``-quantile (``q`` in ``[0, 1]``).

        Selects the bucket holding the ``ceil(q*count)``-th smallest
        observation — the same rank rule as an exact sorted-sample
        quantile, so estimate and exact value share a bucket — and
        interpolates geometrically inside it.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = max(1, math.ceil(q * self.count))
        cumulative = 0
        for index, n in enumerate(self._counts):
            if n == 0:
                continue
            if cumulative + n >= target:
                lo, hi = self._bucket_bounds(index)
                if lo <= 0.0:
                    return min(hi, self.vmax)
                frac = (target - cumulative - 0.5) / n
                frac = min(max(frac, 0.0), 1.0)
                est = lo * (hi / lo) ** frac
                # Never report outside the observed sample range.
                return min(max(est, self.vmin), self.vmax)
            cumulative += n
        return self.vmax  # pragma: no cover - count>0 always lands above

    def quantiles(self, qs: Sequence[float]) -> list[float]:
        return [self.quantile(q) for q in qs]

    # -- merging ----------------------------------------------------------
    def _check_mergeable(self, other: "LatencySketch") -> None:
        if not isinstance(other, LatencySketch):
            raise ConfigurationError(
                f"cannot merge LatencySketch with {type(other).__name__}"
            )
        if self.config != other.config:
            raise ConfigurationError(
                f"sketch configs differ: {self.config} vs {other.config}"
            )

    def update(self, other: "LatencySketch") -> "LatencySketch":
        """Fold ``other`` into this sketch in place (exact: integer
        bucket-count addition)."""
        self._check_mergeable(other)
        for i, n in enumerate(other._counts):
            self._counts[i] += n
        self.count += other.count
        self.total += other.total
        self.vmin = min(self.vmin, other.vmin)
        self.vmax = max(self.vmax, other.vmax)
        return self

    def __add__(self, other: "LatencySketch") -> "LatencySketch":
        merged = LatencySketch(*self.config)
        return merged.update(self).update(other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatencySketch):
            return NotImplemented
        return (
            self.config == other.config
            and self._counts == other._counts
            and self.count == other.count
        )

    def __hash__(self) -> int:  # pragma: no cover - unhashable by intent
        raise TypeError("LatencySketch is mutable and unhashable")

    # -- serialization ----------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Sparse JSON-safe encoding (non-zero buckets only)."""
        return {
            "min_value": self.min_value,
            "max_value": self.max_value,
            "buckets_per_decade": self.buckets_per_decade,
            "count": self.count,
            "total": self.total,
            "vmin": self.vmin if self.count else None,
            "vmax": self.vmax if self.count else None,
            "buckets": {
                str(i): n for i, n in enumerate(self._counts) if n
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LatencySketch":
        sketch = cls(
            min_value=data["min_value"],
            max_value=data["max_value"],
            buckets_per_decade=data["buckets_per_decade"],
        )
        for key, n in dict(data.get("buckets", {})).items():
            index = int(key)
            if not 0 <= index < len(sketch._counts):
                raise ConfigurationError(
                    f"bucket index {index} outside sketch of "
                    f"{len(sketch._counts)} buckets"
                )
            sketch._counts[index] = int(n)
        sketch.count = int(data.get("count", sum(sketch._counts)))
        sketch.total = float(data.get("total", 0.0))
        if data.get("vmin") is not None:
            sketch.vmin = float(data["vmin"])
        if data.get("vmax") is not None:
            sketch.vmax = float(data["vmax"])
        return sketch

    def __repr__(self) -> str:
        return (
            f"LatencySketch(count={self.count}, "
            f"p50={self.quantile(0.5):.3g}, p99={self.quantile(0.99):.3g})"
        )


def merge_sketches(sketches: Iterable[LatencySketch]) -> LatencySketch:
    """Exact merge of same-config sketches (empty input -> empty default
    sketch)."""
    merged: LatencySketch | None = None
    for sketch in sketches:
        if merged is None:
            merged = LatencySketch(*sketch.config)
        merged.update(sketch)
    return merged if merged is not None else LatencySketch()

