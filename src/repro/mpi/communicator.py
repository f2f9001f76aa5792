"""The communicator: MPI-flavoured API over a message context.

A *message context* is anything satisfying :class:`MessageContext` —
the virtual-time :class:`repro.cluster.engine.RankContext` or the
wall-clock :class:`repro.mpi.inproc.InprocContext`.  The communicator
adds tag discipline and collective operations (binomial broadcast and
reduce, star scatter/gather, allreduce, allgather, barrier), so the
parallel algorithms are written once and run on either backend.

Collective calls follow SPMD discipline: every rank must invoke the
same collectives in the same order.  An internal sequence number is
folded into the tags, so interleaving collectives with user-tagged
point-to-point traffic is safe.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.errors import CommunicationError
from repro.mpi import collectives as _coll
from repro.obs.trace import NULL_TRACER

__all__ = ["MessageContext", "Communicator", "sum_op", "max_op", "min_op", "concat_op"]

#: Tag space reserved for collectives (user tags must stay below this).
_COLLECTIVE_TAG_BASE = 1 << 20
_COLLECTIVE_TAG_SPAN = 1 << 16


@runtime_checkable
class MessageContext(Protocol):
    """What a backend must provide to host a :class:`Communicator`."""

    rank: int

    @property
    def size(self) -> int: ...

    @property
    def master_rank(self) -> int: ...

    @property
    def is_master(self) -> bool: ...

    def send(self, dest: int, payload: Any, tag: int = 0) -> None: ...

    def recv(self, source: int, tag: int = -1) -> Any: ...

    def compute(
        self, mflops: float, sequential: bool = False, label: str = ""
    ) -> float: ...

    def charge_seconds(self, seconds: float) -> None: ...


def sum_op(a: Any, b: Any) -> Any:
    """Elementwise/arithmetic sum (arrays and scalars)."""
    return a + b


def max_op(a: Any, b: Any) -> Any:
    """Elementwise maximum for arrays, builtin max otherwise."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.maximum(a, b)
    return max(a, b)


def min_op(a: Any, b: Any) -> Any:
    """Elementwise minimum for arrays, builtin min otherwise."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.minimum(a, b)
    return min(a, b)


def concat_op(a: Any, b: Any) -> Any:
    """List concatenation (wrap scalars in lists before reducing)."""
    la = a if isinstance(a, list) else [a]
    lb = b if isinstance(b, list) else [b]
    return la + lb


class Communicator:
    """Point-to-point plus collectives over a message context.

    Args:
        ctx: the backend context (one per rank).
    """

    def __init__(self, ctx: MessageContext) -> None:
        self._ctx = ctx
        self._collective_seq = 0
        self._obs = getattr(ctx, "obs", None)
        self._tracer = self._obs.tracer if self._obs is not None else NULL_TRACER

    # -- identity -----------------------------------------------------------
    @property
    def rank(self) -> int:
        return self._ctx.rank

    @property
    def size(self) -> int:
        return self._ctx.size

    @property
    def master_rank(self) -> int:
        return self._ctx.master_rank

    @property
    def is_master(self) -> bool:
        return self.rank == self.master_rank

    @property
    def context(self) -> MessageContext:
        return self._ctx

    # -- point-to-point ---------------------------------------------------------
    def send(self, dest: int, payload: Any, tag: int = 0) -> None:
        """Synchronous send to ``dest``.  User tags live in [0, 2^20)."""
        self._check_user_tag(tag)
        self._ctx.send(dest, payload, tag)

    def recv(self, source: int, tag: int = -1) -> Any:
        """Blocking receive from ``source``; tag -1 matches any user tag."""
        if tag != -1:
            self._check_user_tag(tag)
        return self._ctx.recv(source, tag)

    @staticmethod
    def _check_user_tag(tag: int) -> None:
        if not 0 <= tag < _COLLECTIVE_TAG_BASE:
            raise CommunicationError(
                f"user tag {tag} outside [0, {_COLLECTIVE_TAG_BASE})"
            )

    def _next_collective_tag(self) -> int:
        tag = _COLLECTIVE_TAG_BASE + (self._collective_seq % _COLLECTIVE_TAG_SPAN)
        self._collective_seq += 1
        return tag

    def _collective_span(self, kind: str):
        """Count the collective and bracket it with an ``"mpi"`` span.

        Composite collectives nest: an ``allreduce`` also counts (and
        spans) its inner ``reduce`` and ``bcast``.
        """
        if self._obs is not None:
            self._obs.metrics.counter(
                "mpi.collectives", rank=self.rank, kind=kind
            ).inc()
        return self._tracer.span(f"mpi.{kind}", rank=self.rank, category="mpi")

    def _account_payload(self, kind: str, obj: Any) -> None:
        """Meter this rank's contribution to a collective, in wire
        megabits — the byte side of the flop/byte profile that
        :mod:`repro.obs.profile` calibrates against the cost model."""
        if self._obs is None or obj is None:
            return
        from repro.cluster.mailbox import payload_wire_megabits

        self._obs.metrics.counter(
            "mpi.payload_megabits", rank=self.rank, kind=kind
        ).inc(payload_wire_megabits(obj))

    # -- collectives ---------------------------------------------------------------
    def bcast(self, obj: Any = None, root: int | None = None) -> Any:
        """Broadcast from ``root`` (default: master) via binomial tree."""
        root = self.master_rank if root is None else root
        with self._collective_span("bcast"):
            result = _coll.binomial_bcast(
                self._ctx, obj, root, self._next_collective_tag()
            )
        self._account_payload("bcast", result)
        return result

    def scatter(self, items: Sequence[Any] | None = None, root: int | None = None) -> Any:
        """Distribute ``items[i]`` to rank ``i`` (root supplies the list)."""
        root = self.master_rank if root is None else root
        with self._collective_span("scatter"):
            mine = _coll.flat_scatter(
                self._ctx, items, root, self._next_collective_tag()
            )
        self._account_payload("scatter", mine)
        return mine

    def gather(self, obj: Any, root: int | None = None) -> list[Any] | None:
        """Collect one object per rank at ``root`` (rank order)."""
        root = self.master_rank if root is None else root
        with self._collective_span("gather"):
            self._account_payload("gather", obj)
            return _coll.flat_gather(
                self._ctx, obj, root, self._next_collective_tag()
            )

    def reduce(
        self,
        value: Any,
        op: Callable[[Any, Any], Any] = sum_op,
        root: int | None = None,
    ) -> Any:
        """Tree-reduce ``value`` with commutative ``op``; result at root."""
        root = self.master_rank if root is None else root
        with self._collective_span("reduce"):
            self._account_payload("reduce", value)
            return _coll.binomial_reduce(
                self._ctx, value, op, root, self._next_collective_tag()
            )

    def allreduce(self, value: Any, op: Callable[[Any, Any], Any] = sum_op) -> Any:
        """Reduce then broadcast: every rank gets the combined value."""
        root = self.master_rank
        with self._collective_span("allreduce"):
            reduced = self.reduce(value, op, root)
            return self.bcast(reduced, root)

    def allgather(self, obj: Any) -> list[Any]:
        """Everyone gets the rank-ordered list of contributions."""
        root = self.master_rank
        with self._collective_span("allgather"):
            gathered = self.gather(obj, root)
            return self.bcast(gathered, root)

    def barrier(self) -> None:
        """Synchronize all ranks (reduce + broadcast of a token)."""
        with self._collective_span("barrier"):
            self.allreduce(0, sum_op)

    def __repr__(self) -> str:
        return f"Communicator(rank={self.rank}, size={self.size})"
