"""Virtual time: clocks, phase ledgers and the one timing core.

Each simulated rank owns a :class:`VirtualClock` that only moves
forward, and a :class:`PhaseLedger` that buckets elapsed virtual time
into the paper's Table 6 categories:

* **COM** — time inside data transfers the rank participates in;
* **SEQ** — computation flagged sequential (master-only steps with no
  parallel work outstanding);
* **PAR** — parallel computation *plus idle waiting*, matching the
  paper's note that PAR "includes the times in which the workers
  remain idle".

:class:`TimingCore` is the only place that advances them, and holds
the only copy of the per-op arithmetic.  It states the one-port
master-worker rule once: a compute charge of ``mflops`` on rank *i*
costs ``mflops × w_i`` (Table 1 cycle-times); a message of
``megabits`` from *i* to *j* costs ``latency + megabits × c_ij``
(Table 2) and starts when sender, receiver and — for inter-segment
traffic — the serial link between the two segments are all free.  The
threaded engine (:mod:`repro.cluster.engine`) calls it per charge and
per matched message and the core logs each as an :class:`Op`; the
analytic model (:mod:`repro.experiments.model`), the what-if replay
(:mod:`repro.obs.whatif`) and :func:`repro.cluster.engine.reprice` (an
engine run's log on another platform) hand it whole :class:`Op`
programs.

What a program's clocks and ledgers depend on is less than its global
op order.  A compute op reads and writes only its rank's clock and
ledger; a transfer reads and writes its two endpoints' and its serial
link's free time.  So two op programs with equal per-rank op
subsequences and equal transfer order on each serial link give
bit-equal clocks, ledgers and per-op records, however they interleave
across ranks.  That is why the model's program — each collective's
sends emitted in one go — times a detector exactly as the engine's
run-to-block log does.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import weakref
from typing import Any, Iterable, Mapping, NamedTuple

from repro.cluster.platform import HeterogeneousPlatform
from repro.errors import ConfigurationError, PlatformError
from repro.types import Megabits, Megaflops, Seconds

__all__ = [
    "Phase",
    "VirtualClock",
    "PhaseLedger",
    "Op",
    "ComputeRecord",
    "TransferRecord",
    "TimingCore",
]


class Phase(enum.Enum):
    """Table 6 time categories."""

    COM = "communication"
    SEQ = "sequential"
    PAR = "parallel"


class VirtualClock:
    """A monotone per-rank clock in simulated seconds."""

    __slots__ = ("_now",)

    def __init__(self, start: Seconds = 0.0) -> None:
        if start < 0:
            raise ConfigurationError(f"clock cannot start negative, got {start}")
        self._now = float(start)

    @property
    def now(self) -> Seconds:
        return self._now

    def advance(self, dt: Seconds) -> Seconds:
        """Move forward by ``dt`` (must be >= 0); returns the new time."""
        if dt < 0:
            raise ConfigurationError(f"cannot advance clock by {dt} < 0")
        self._now += dt
        return self._now

    def __repr__(self) -> str:
        return f"VirtualClock(now={self._now:.6f})"


@dataclasses.dataclass
class PhaseLedger:
    """Accumulated virtual time per phase for one rank."""

    com: Seconds = 0.0
    seq: Seconds = 0.0
    par: Seconds = 0.0

    def add(self, phase: Phase, dt: Seconds) -> None:
        if dt < 0:
            raise ConfigurationError(f"cannot record negative duration {dt}")
        if phase is Phase.COM:
            self.com += dt
        elif phase is Phase.SEQ:
            self.seq += dt
        else:
            self.par += dt

    @property
    def total(self) -> Seconds:
        return self.com + self.seq + self.par

    @property
    def busy(self) -> Seconds:
        """Compute + transfer time (idle excluded)."""
        return self.com + self.seq + self.par - self.idle

    @property
    def compute_busy(self) -> Seconds:
        """Computation-only time (SEQ + PAR, idle and transfers
        excluded) — the per-processor 'run time' of Table 7."""
        return self.seq + self.par - self.idle

    #: Idle wait time folded into PAR (tracked for busy-time computation).
    idle: Seconds = 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "com": self.com,
            "seq": self.seq,
            "par": self.par,
            "idle": self.idle,
            "total": self.total,
            "busy": self.busy,
        }


class Op(NamedTuple):
    """One engine-visible op: a compute charge or a point-to-point send.

    ``factor`` carries a fault dilation *recorded* in the source trace
    (the engine stamps it on slowed compute spans), so replaying a
    faulted trace without a plan reproduces the faulted run.

    Like the two records below a named tuple, not a frozen dataclass:
    op programs run to 10^4 records and are rebuilt for every model
    evaluation, and a frozen dataclass costs three times as much to
    construct (1.2 µs against 0.4 µs).
    """

    kind: str  # "compute" | "transfer"
    rank: int  # src for transfers
    dst: int = -1
    mflops: float = 0.0
    megabits: float = 0.0
    factor: float = 1.0
    sequential: bool = False
    label: str = ""


class ComputeRecord(NamedTuple):
    """What one compute charge cost.

    ``seconds`` is the charged duration (``end - start`` only up to
    rounding, so accumulators take this field); ``nominal`` is the
    cycle-time cost before any factor, and ``factor`` what the
    perturbation hook returned at ``start``.
    """

    start: Seconds
    end: Seconds
    seconds: Seconds
    nominal: Seconds
    factor: float


class TransferRecord(NamedTuple):
    """One message transfer with its scheduling context.

    These are the happens-before *edges* of a run.

    Attributes:
        src, dst: sender and receiver ranks.
        start, end: the transfer interval in virtual seconds (both
            endpoint clocks advance to ``end``).
        megabits: message volume.
        link: canonical serial-link key (``"s1|s4"``) for
            inter-segment traffic, or ``"intra:<segment>"`` for
            switched intra-segment traffic.
        src_wait, dst_wait: idle seconds each endpoint spent between
            becoming ready and the transfer actually starting (the
            receiver waiting on a slow sender, or either side waiting
            on a busy serial link).
        duration: the charged seconds (``end - start`` only up to
            rounding).
    """

    src: int
    dst: int
    start: Seconds
    end: Seconds
    megabits: Megabits
    link: str
    src_wait: Seconds
    dst_wait: Seconds
    duration: Seconds


#: What a (src, dst) pair crosses: the serial-link key (``None`` inside
#: a segment), the link label, the sorted segment-name pair, and what a
#: message costs there: latency and seconds per megabit.
_Route = tuple[tuple[str, str] | None, str, tuple[str, str], float, float]

#: Each network's route table, shared by every core on it: a route is a
#: function of the network alone, and networks are never mutated.
_ROUTES: "weakref.WeakKeyDictionary[Any, dict[tuple[int, int], _Route]]" = (
    weakref.WeakKeyDictionary()
)


@functools.lru_cache(maxsize=None)
def _route_names(
    where: str | tuple[str, str],
) -> tuple[tuple[str, str] | None, str, tuple[str, str]]:
    """A route's link key, label and segment pair, one copy per segment
    (``where`` its name) and per serial link (``where`` its key), shared
    by every route that stays in that segment or crosses that link."""
    if isinstance(where, str):
        return None, f"intra:{where}", (where, where)
    return where, "|".join(where), where


class TimingCore:
    """Per-rank clocks and ledgers plus the serial-link schedule.

    ``perturb`` is an optional duck-typed hook, asked at each op's
    computed *start* time:

    * ``compute_factor(rank, label, start) -> float`` dilates a compute
      charge;
    * ``transfer_factors(src, dst, pair, start) -> (capacity, latency)``
      scale a message's volume and latency terms separately (``pair``
      is the sorted segment-name pair of the endpoints).

    ``scales`` are calibration multipliers (``"compute"``,
    ``"transfer"``) applied last.  The floating-point order is fixed,
    because committed artefacts are compared byte for byte: a compute
    charge is ``cycle-time cost × recorded factor × hook factor ×
    compute scale``; a transfer is re-priced as ``latency factor ×
    latency + capacity factor × (cost − latency)`` only when a factor
    is not 1.0, then ``× transfer scale``.

    :meth:`compute` and :meth:`charge` touch one rank's clock and
    ledger, so rank threads may call them for their own rank without a
    lock; :meth:`transfer` touches both endpoints and the link table
    and must be serialised by the caller (the engine calls it under the
    Router lock, while both endpoints are blocked in the rendezvous).

    ``ops`` is the run's op log: every compute and transfer the core
    executed, as an :class:`Op`, in call order, so
    ``TimingCore(other_platform).run(core.ops)`` prices the same program
    on another platform.  :meth:`run` keeps the list it is handed
    instead of appending a copy.  A raw :meth:`charge` is not an op; it
    comes only from fault injection, whose runs are not replayable.
    """

    def __init__(
        self,
        platform: HeterogeneousPlatform,
        clock_start: Seconds = 0.0,
        perturb: Any = None,
        scales: Mapping[str, float] | None = None,
    ) -> None:
        n = platform.size
        self.clocks = [VirtualClock(clock_start) for _ in range(n)]
        self.ledgers = [PhaseLedger() for _ in range(n)]
        self._network = platform.network
        self._compute_seconds = [
            platform.processor(rank).compute_seconds for rank in range(n)
        ]
        self._perturb = perturb
        scales = scales or {}
        self._compute_scale = float(scales.get("compute", 1.0))
        self._transfer_scale = float(scales.get("transfer", 1.0))
        self._link_free: dict[tuple[str, str], Seconds] = {}
        self._routes = _ROUTES.setdefault(platform.network, {})
        self.ops: list[Op] = []

    def compute(
        self,
        rank: int,
        mflops: Megaflops,
        sequential: bool = False,
        label: str = "",
        factor: float = 1.0,
    ) -> ComputeRecord:
        """Charge ``mflops`` at ``rank``'s cycle-time (SEQ or PAR)."""
        op = Op("compute", rank, -1, mflops, 0.0, factor, sequential, label)
        records: list[ComputeRecord | TransferRecord] = []
        self._execute((op,), records)
        self.ops.append(op)
        return records[0]  # type: ignore[return-value]

    def charge(self, rank: int, seconds: Seconds, phase: Phase = Phase.PAR) -> None:
        """Charge a raw duration (I/O, an injected delay) to one rank."""
        self.clocks[rank].advance(seconds)
        self.ledgers[rank].add(phase, seconds)

    def transfer(self, src: int, dst: int, megabits: Megabits) -> TransferRecord:
        """Move ``megabits`` from ``src`` to ``dst``.

        The transfer starts when sender, receiver *and* any serial
        inter-segment link are all free; waiting is idle time (PAR),
        the transfer itself is COM for both endpoints.
        """
        op = Op("transfer", src, dst, 0.0, megabits)
        records: list[ComputeRecord | TransferRecord] = []
        self._execute((op,), records)
        self.ops.append(op)
        return records[0]  # type: ignore[return-value]

    def run(
        self,
        ops: Iterable[Op],
        records: list[ComputeRecord | TransferRecord] | None = None,
    ) -> None:
        """Execute an op program in order.

        Pricing reads only the clocks and ledgers, so no per-op record
        is built unless ``records`` is given: then one record per op is
        appended to it, in program order.  The program joins the op
        log: a list is kept as it is (the log of a fresh core *is* that
        list), anything else is copied once.
        """
        ops = ops if isinstance(ops, list) else list(ops)
        self._execute(ops, records)
        self.ops = [*self.ops, *ops] if self.ops else ops

    def _route(self, src: int, dst: int) -> _Route:
        # The network rejects ranks outside the platform (PlatformError).
        network = self._network
        link = network.link_resource(src, dst)
        link, label, pair = _route_names(
            network.segment_of(src) if link is None else link
        )
        # latency + per_mb × megabits is network.transfer_seconds's
        # float, term for term; a self-send costs nothing.
        if src == dst:
            latency = per_mb = 0.0
        else:
            latency, per_mb = network.latency_s, network.capacity(src, dst) * 1e-3
        route = self._routes[src, dst] = (link, label, pair, latency, per_mb)
        return route

    def _execute(
        self,
        ops: Iterable[Op],
        records: list[ComputeRecord | TransferRecord] | None,
    ) -> None:
        """The per-op arithmetic, the only copy: :meth:`run` hands it a
        program, :meth:`compute` and :meth:`transfer` one op.  Each
        op's record is appended to ``records`` unless it is ``None``.

        A compute op touches only its own rank's clock and ledger, so
        concurrent one-op calls for different ranks need no lock.
        """
        clocks, ledgers = self.clocks, self.ledgers
        n = len(clocks)
        compute_seconds = self._compute_seconds
        perturb = self._perturb
        compute_scale = self._compute_scale
        transfer_scale = self._transfer_scale
        link_free = self._link_free
        routes = self._routes
        latency_s = self._network.latency_s
        append = None if records is None else records.append
        for kind, rank, dst, mflops, megabits, factor, sequential, label in ops:
            if kind == "compute":
                if not 0 <= rank < n:
                    raise PlatformError(f"rank {rank} outside [0, {n})")
                nominal = compute_seconds[rank](mflops)
                clock = clocks[rank]
                start = clock._now
                hook = (
                    1.0 if perturb is None
                    else perturb.compute_factor(rank, label, start)
                )
                seconds = nominal * factor * hook * compute_scale
                end = clock._now = start + seconds
                if sequential:
                    ledgers[rank].seq += seconds
                else:
                    ledgers[rank].par += seconds
                if append is not None:
                    append(ComputeRecord(start, end, seconds, nominal, hook))
                continue
            if megabits < 0:
                raise ConfigurationError(
                    f"message size must be >= 0, got {megabits}"
                )
            link, link_label, pair, latency, per_mb = (
                routes.get((rank, dst)) or self._route(rank, dst)
            )
            clock_src, clock_dst = clocks[rank], clocks[dst]
            ready_src, ready_dst = clock_src._now, clock_dst._now
            start = ready_src if ready_src > ready_dst else ready_dst
            if link is not None:
                free = link_free.get(link, 0.0)
                if free > start:
                    start = free
            nominal = duration = latency + per_mb * megabits
            if perturb is not None:
                capacity, latency_factor = perturb.transfer_factors(
                    rank, dst, pair, start
                )
                if capacity != 1.0 or latency_factor != 1.0:
                    duration = latency_factor * latency_s + capacity * (
                        nominal - latency_s
                    )
            duration *= transfer_scale
            end = start + duration
            src_wait = start - ready_src
            dst_wait = start - ready_dst
            ledger_src, ledger_dst = ledgers[rank], ledgers[dst]
            # Idle waiting counts toward PAR and toward idle.
            if src_wait > 0:
                ledger_src.par += src_wait
                ledger_src.idle += src_wait
            if dst_wait > 0:
                ledger_dst.par += dst_wait
                ledger_dst.idle += dst_wait
            ledger_src.com += duration
            ledger_dst.com += duration
            clock_src._now = clock_dst._now = end
            if link is not None:
                link_free[link] = end
            if append is not None:
                append(TransferRecord(
                    rank, dst, start, end, float(megabits), link_label,
                    src_wait, dst_wait, duration,
                ))

    @property
    def finish_times(self) -> list[Seconds]:
        return [clock._now for clock in self.clocks]
