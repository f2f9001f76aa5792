"""Communication network model.

The platform graph's edges carry *capacities* expressed, as in the
paper's Table 2, as the time in **milliseconds to transfer a one-megabit
message** between a processor pair — i.e. seconds-per-megabit up to a
factor 1000, with ``c_ij`` the slowest physical link on the i→j path and
``c_ij = c_ji`` (symmetric costs).

The topology is segment-structured: processors within a communication
segment talk over a fast switched medium (parallel transfers fine),
while traffic *between* segments crosses a single serial link — the
engine serializes concurrent transfers that share an inter-segment
link via :meth:`CommunicationNetwork.link_resource`.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.errors import ConfigurationError, PlatformError
from repro.types import FloatArray, Megabits, Seconds

__all__ = ["CommunicationNetwork", "uniform_network", "segmented_network"]


class CommunicationNetwork:
    """Pairwise capacities + segment topology for ``n`` processors.

    Args:
        capacity_ms_per_megabit: ``(n, n)`` symmetric matrix; entry
            ``(i, j)`` is the Table 2 capacity between processors i and
            j.  The diagonal (self-transfer) is ignored and treated as 0.
        segments: mapping of segment name → processor indices.  Every
            processor must belong to exactly one segment.  If omitted,
            all processors share one segment (no serial bottleneck).
        latency_s: fixed per-message overhead in seconds.
    """

    def __init__(
        self,
        capacity_ms_per_megabit: FloatArray,
        segments: Mapping[str, Sequence[int]] | None = None,
        latency_s: float = 1e-3,
    ) -> None:
        cap = np.asarray(capacity_ms_per_megabit, dtype=float)
        if cap.ndim != 2 or cap.shape[0] != cap.shape[1]:
            raise PlatformError(f"capacity matrix must be square, got {cap.shape}")
        n = cap.shape[0]
        if n < 1:
            raise PlatformError("network needs at least one processor")
        off_diag = ~np.eye(n, dtype=bool)
        if np.any(cap[off_diag] <= 0):
            raise PlatformError("off-diagonal capacities must be positive")
        if not np.allclose(cap, cap.T):
            raise PlatformError("capacity matrix must be symmetric (c_ij = c_ji)")
        if latency_s < 0:
            raise ConfigurationError(f"latency must be >= 0, got {latency_s}")

        if segments is None:
            segments = {"s1": list(range(n))}
        seen: dict[int, str] = {}
        for seg_name, members in segments.items():
            for p in members:
                if not 0 <= p < n:
                    raise PlatformError(
                        f"segment {seg_name!r} references processor {p} "
                        f"outside [0, {n})"
                    )
                if p in seen:
                    raise PlatformError(
                        f"processor {p} in both segments {seen[p]!r} and "
                        f"{seg_name!r}"
                    )
                seen[p] = seg_name
        if len(seen) != n:
            missing = sorted(set(range(n)) - set(seen))
            raise PlatformError(f"processors {missing} belong to no segment")

        self._capacity = cap
        self._segments = {name: tuple(members) for name, members in segments.items()}
        self._segment_of = [seen[i] for i in range(n)]
        self.latency_s = float(latency_s)

    # -- basic queries -----------------------------------------------------
    @property
    def size(self) -> int:
        return self._capacity.shape[0]

    @property
    def capacity_matrix(self) -> FloatArray:
        """Read-only view of the ``(n, n)`` ms-per-megabit matrix."""
        view = self._capacity.view()
        view.flags.writeable = False
        return view

    @property
    def segments(self) -> dict[str, tuple[int, ...]]:
        return dict(self._segments)

    def segment_of(self, processor: int) -> str:
        self._check_index(processor)
        return self._segment_of[processor]

    def capacity(self, i: int, j: int) -> float:
        """Table 2 capacity (ms/megabit) between processors i and j."""
        self._check_index(i)
        self._check_index(j)
        return float(self._capacity[i, j]) if i != j else 0.0

    def transfer_seconds(self, i: int, j: int, megabits: Megabits) -> Seconds:
        """Time to move ``megabits`` from i to j (latency + volume cost)."""
        if megabits < 0:
            raise ConfigurationError(f"message size must be >= 0, got {megabits}")
        if i == j:
            return 0.0  # local move: memory copy, charged as compute if at all
        return self.latency_s + self.capacity(i, j) * 1e-3 * megabits

    def link_resource(self, i: int, j: int) -> tuple[str, str] | None:
        """Shared-resource key for the serial link a transfer crosses.

        Returns ``None`` for intra-segment traffic (switched, no shared
        bottleneck) and a canonical segment-pair key for inter-segment
        traffic; the engine serializes transfers with equal keys.
        """
        a, b = self.segment_of(i), self.segment_of(j)
        if a == b:
            return None
        return (a, b) if a <= b else (b, a)

    def is_uniform(self, rtol: float = 1e-9) -> bool:
        """True if all off-diagonal capacities are equal (homogeneous net)."""
        n = self.size
        if n < 2:
            return True
        vals = self._capacity[~np.eye(n, dtype=bool)]
        return bool(np.allclose(vals, vals[0], rtol=rtol))

    def mean_capacity(self) -> float:
        """Average off-diagonal capacity — the aggregate characteristic the
        Lastovetsky-Reddy equivalent homogeneous network preserves."""
        n = self.size
        if n < 2:
            return 0.0
        return float(self._capacity[~np.eye(n, dtype=bool)].mean())

    def _check_index(self, i: int) -> None:
        if not 0 <= i < self.size:
            raise PlatformError(f"processor index {i} outside [0, {self.size})")


def uniform_network(
    n: int, capacity_ms_per_megabit: float, latency_s: float = 1e-3
) -> CommunicationNetwork:
    """A fully homogeneous network: one segment, equal capacities."""
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    if capacity_ms_per_megabit <= 0:
        raise ConfigurationError("capacity must be positive")
    cap = np.full((n, n), float(capacity_ms_per_megabit))
    np.fill_diagonal(cap, 0.0)
    return CommunicationNetwork(cap, latency_s=latency_s)


def segmented_network(
    segment_sizes: Mapping[str, int],
    capacity_table: Mapping[tuple[str, str], float],
    latency_s: float = 1e-3,
) -> CommunicationNetwork:
    """Build a segment-block network from a Table 2-style capacity table.

    Args:
        segment_sizes: ordered mapping of segment name → processor count;
            processors are numbered consecutively segment by segment.
        capacity_table: capacities keyed by segment pair; ``(a, a)``
            entries give intra-segment capacity.  Pairs may be given in
            either order.

    Raises:
        PlatformError: if any needed pair is missing from the table.
    """
    names = list(segment_sizes)
    offsets: dict[str, range] = {}
    start = 0
    for name in names:
        count = segment_sizes[name]
        if count < 1:
            raise ConfigurationError(f"segment {name!r} must have >= 1 processor")
        offsets[name] = range(start, start + count)
        start += count
    n = start

    def lookup(a: str, b: str) -> float:
        for key in ((a, b), (b, a)):
            if key in capacity_table:
                return float(capacity_table[key])
        raise PlatformError(f"no capacity given for segment pair ({a}, {b})")

    cap = np.zeros((n, n))
    for a in names:
        for b in names:
            value = lookup(a, b)
            for i in offsets[a]:
                for j in offsets[b]:
                    if i != j:
                        cap[i, j] = value
    return CommunicationNetwork(
        cap, segments={name: list(offsets[name]) for name in names},
        latency_s=latency_s,
    )
