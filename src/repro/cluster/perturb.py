"""The perturbation vocabulary: timing edits, the hook they compile to,
and platform-table edits.

The paper's performance model is two tables, cycle-times ``w_i`` and
link capacities ``c_ij``.  A *timing perturbation* rescales entries of
those tables over a window of the run, and exists once:

* :class:`RankComputeScale` — one rank's compute cost × ``factor``;
* :class:`LinkScale` — one segment pair's capacity term × ``factor``
  (latency untouched);
* :class:`OpClassScale` — every compute op of one kernel class;
* :class:`LatencyScale` — the fixed per-message latency.

A fault plan's ``rank_slowdown`` / ``link_degrade`` and a what-if plan's
``rank_compute_scale`` / ``link_scale`` are these same classes; the
JSON spelling belongs to the plan (its kind table), not to the class.
:class:`PerturbationHook` compiles any sequence of them into the
duck-typed hook :class:`~repro.cluster.simtime.TimingCore` asks at each
op's start, so the engine under a fault plan and a what-if replay of
the same objects price every op through the same lookups.
:class:`PlanDocument` is the item-list half both plan types share.

The remaining helpers edit the *platform* and return a new
:class:`HeterogeneousPlatform` — the original is never mutated — so an
edited platform can be handed to the virtual-time engine and compared
against a replay (the validation contract of :mod:`repro.obs.whatif`).
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import Any, ClassVar, Iterable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

from repro.cluster.accelerator import AcceleratorSpec
from repro.cluster.network import CommunicationNetwork
from repro.cluster.platform import HeterogeneousPlatform
from repro.errors import ConfigurationError, PlatformError, require

__all__ = [
    "RankComputeScale",
    "LinkScale",
    "OpClassScale",
    "LatencyScale",
    "TimingPerturbation",
    "PerturbationHook",
    "PlanDocument",
    "upgrade_ranks",
    "scale_rank_compute",
    "scale_latency",
    "extend_platform",
]


# -- the four timing perturbations --------------------------------------------

def _check_factor(factor: float) -> None:
    require(
        math.isfinite(factor) and factor > 0,
        f"factor must be positive, got {factor}",
    )


def _check_window(start_s: float, end_s: float | None) -> None:
    require(
        math.isfinite(start_s) and start_s >= 0,
        f"start_s must be finite and >= 0, got {start_s}",
    )
    require(
        end_s is None or (math.isfinite(end_s) and end_s > start_s),
        f"end_s must be finite and > start_s (or null for the end of "
        f"the run), got {end_s}",
    )


@dataclasses.dataclass(frozen=True)
class RankComputeScale:
    """Scale one rank's compute durations by ``factor`` in the window
    ``[start_s, end_s)``; ``end_s=None`` means to the end of the run.

    ``factor == 3.0`` is a straggler running three times slow,
    ``factor == 0.5`` asks "what if this node were twice as fast".
    """

    rank: int
    factor: float
    start_s: float = 0.0
    end_s: float | None = None

    def validate(self) -> None:
        require(self.rank >= 0, f"rank must be >= 0, got {self.rank}")
        _check_factor(self.factor)
        _check_window(self.start_s, self.end_s)


@dataclasses.dataclass(frozen=True)
class LinkScale:
    """Scale the capacity term of a segment pair in the window
    ``[start_s, end_s)`` (latency unaffected); ``segment_a ==
    segment_b`` targets a switched segment's internal medium."""

    segment_a: str
    segment_b: str
    factor: float
    start_s: float = 0.0
    end_s: float | None = None

    def validate(self) -> None:
        require(
            bool(self.segment_a) and bool(self.segment_b),
            "both segment names are required",
        )
        _check_factor(self.factor)
        _check_window(self.start_s, self.end_s)

    @property
    def pair(self) -> tuple[str, str]:
        a, b = self.segment_a, self.segment_b
        return (a, b) if a <= b else (b, a)


@dataclasses.dataclass(frozen=True)
class OpClassScale:
    """Scale every compute op of one kernel class by ``factor``.

    ``op`` names a charged kernel (``"osp_scores"``,
    ``"brightest_search"``, ...) as recorded in the trace's ``kernel.*``
    spans / emitted op labels.
    """

    op: str
    factor: float

    def validate(self) -> None:
        require(bool(self.op), "op name is required")
        _check_factor(self.factor)


@dataclasses.dataclass(frozen=True)
class LatencyScale:
    """Scale the fixed per-message latency of every transfer."""

    factor: float

    def validate(self) -> None:
        require(
            math.isfinite(self.factor) and self.factor >= 0,
            f"factor must be >= 0, got {self.factor}",
        )


TimingPerturbation = RankComputeScale | LinkScale | OpClassScale | LatencyScale

_Window = tuple[float, float, float | None]  # (factor, start_s, end_s)


def _window_product(windows: Sequence[_Window], t: float) -> float:
    factor = 1.0
    for value, start_s, end_s in windows:
        if start_s <= t and (end_s is None or t < end_s):
            factor *= value
    return factor


class PerturbationHook:
    """Timing perturbations compiled into the timing core's hook.

    Per-rank and per-pair window tables are built once; a window is
    tested at the op's *start* time and the factors of all matching
    windows multiply, in the order the perturbations were given.  Items
    that are not timing perturbations (a fault plan's crashes, a
    what-if plan's structural edits) are applied elsewhere and skipped.

    ``rank_map[dense_rank] == original_rank`` translates the numbering
    of a recovery attempt's survivor platform back to the one the
    perturbations speak; a rank absent from the map is gone and its
    windows with it.
    """

    def __init__(
        self,
        perturbations: Iterable[Any] = (),
        rank_map: Sequence[int] | None = None,
    ) -> None:
        dense_of = (
            None if rank_map is None
            else {orig: dense for dense, orig in enumerate(rank_map)}
        )
        self._rank_windows: dict[int, list[_Window]] = {}
        self._link_windows: dict[tuple[str, str], list[_Window]] = {}
        self._op_scales: dict[str, float] = {}
        self._latency_factor = 1.0
        for p in perturbations:
            if not isinstance(p, TimingPerturbation):
                continue
            p.validate()
            if isinstance(p, RankComputeScale):
                rank = p.rank if dense_of is None else dense_of.get(p.rank)
                if rank is not None:
                    self._rank_windows.setdefault(rank, []).append(
                        (p.factor, p.start_s, p.end_s)
                    )
            elif isinstance(p, LinkScale):
                self._link_windows.setdefault(p.pair, []).append(
                    (p.factor, p.start_s, p.end_s)
                )
            elif isinstance(p, OpClassScale):
                self._op_scales[p.op] = (
                    self._op_scales.get(p.op, 1.0) * p.factor
                )
            else:
                self._latency_factor *= p.factor
        #: True when no op can be re-priced (callers may pass the
        #: timing core ``perturb=None`` instead).
        self.trivial = not (
            self._rank_windows or self._link_windows or self._op_scales
            or self._latency_factor != 1.0
        )

    def compute_factor(self, rank: int, label: str, start: float) -> float:
        factor = _window_product(self._rank_windows.get(rank, ()), start)
        if label:
            factor *= self._op_scales.get(label, 1.0)
        return factor

    def transfer_factors(
        self, src: int, dst: int, pair: tuple[str, str], start: float
    ) -> tuple[float, float]:
        return (
            _window_product(self._link_windows.get(pair, ()), start),
            self._latency_factor,
        )


# -- the plan document both plan types share ----------------------------------

_Plan = TypeVar("_Plan", bound="PlanDocument")


class PlanDocument:
    """What a fault plan and a what-if plan are: a named item list.

    A subclass is a frozen dataclass whose first field, named by
    :attr:`ITEMS`, is the ordered item tuple, plus a ``name``.  The
    JSON form is ``{ITEMS: [{"kind": ..., <fields>}, ...], "name":
    ...}`` (other top-level keys are ignored); :attr:`KINDS` maps each
    ``kind`` spelling of *this* plan type to the item class, both ways,
    so one class may be spelled differently by two plan types.  Every failure raises :attr:`ERROR`;
    messages name an item by :attr:`ITEMS` less its plural ``s``.
    """

    ITEMS: ClassVar[str]
    KINDS: ClassVar[Mapping[str, type]]
    ERROR: ClassVar[type[ConfigurationError]]

    name: str

    @property
    def _items(self) -> tuple[Any, ...]:
        return getattr(self, self.ITEMS)

    def __post_init__(self) -> None:
        object.__setattr__(self, self.ITEMS, tuple(self._items))
        for item in self._items:
            kind = self.kind_of(item)
            try:
                item.validate()
            except ConfigurationError as exc:
                raise self.ERROR(f"{kind}: {exc}") from exc

    def __iter__(self) -> Iterator[Any]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def kind_of(self, item: Any) -> str:
        """This plan type's ``kind`` spelling of ``item``."""
        for kind, item_cls in self.KINDS.items():
            if type(item) is item_cls:
                return kind
        raise self.ERROR(
            f"unknown {self.ITEMS[:-1]} object {item!r} in plan {self.name!r}"
        )

    def of_kind(self, kind: str) -> tuple[Any, ...]:
        item_cls = self.KINDS.get(kind)
        return tuple(i for i in self._items if type(i) is item_cls)

    def to_dict(self) -> dict[str, Any]:
        entries = []
        for item in self._items:
            entry: dict[str, Any] = {"kind": self.kind_of(item)}
            for field in dataclasses.fields(item):
                value = getattr(item, field.name)
                if value is not None:
                    entry[field.name] = (
                        list(value) if isinstance(value, tuple) else value
                    )
            entries.append(entry)
        out: dict[str, Any] = {self.ITEMS: entries}
        if self.name:
            out["name"] = self.name
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def write_json(self, path: str | Path) -> Path:
        out = Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(self.to_json(), encoding="utf-8")
        return out

    @classmethod
    def from_dict(cls: type[_Plan], doc: Any) -> _Plan:
        """Parse and validate a plan document."""
        noun = cls.ITEMS[:-1]
        if not isinstance(doc, Mapping) or cls.ITEMS not in doc:
            raise cls.ERROR(f'plan document needs a "{cls.ITEMS}" list')
        items = []
        for i, entry in enumerate(doc[cls.ITEMS]):
            if not isinstance(entry, Mapping) or "kind" not in entry:
                raise cls.ERROR(f'{noun} #{i} needs a "kind" field')
            kind = entry["kind"]
            item_cls = cls.KINDS.get(kind)
            if item_cls is None:
                raise cls.ERROR(
                    f"{noun} #{i}: unknown kind {kind!r} "
                    f"(expected one of {sorted(cls.KINDS)})"
                )
            kwargs = {k: v for k, v in entry.items() if k != "kind"}
            unknown = set(kwargs) - {
                f.name for f in dataclasses.fields(item_cls)
            }
            if unknown:
                raise cls.ERROR(
                    f"{noun} #{i} ({kind}): unknown fields {sorted(unknown)}"
                )
            try:
                items.append(item_cls(**kwargs))
            except TypeError as exc:
                raise cls.ERROR(f"{noun} #{i} ({kind}): {exc}") from exc
        return cls(tuple(items), name=str(doc.get("name", "")))


# -- platform edits -----------------------------------------------------------

def scale_rank_compute(
    platform: HeterogeneousPlatform,
    rank: int,
    factor: float,
    name: str | None = None,
) -> HeterogeneousPlatform:
    """Scale one rank's modelled compute cost (cycle time) by ``factor``.

    Factors above 1 downgrade the node's calibrated speed — the
    adaptive repartitioner's response to a detected straggler: the WEA
    fractions computed from the edited platform assign the slowed rank
    proportionally fewer rows, while memory bounds and the network are
    untouched.  The node is renamed ``<old>~x<factor>`` so partitions
    and reports show which calibration entries were adapted.
    """
    if not 0 <= rank < platform.size:
        raise PlatformError(f"rank {rank} outside [0, {platform.size})")
    if factor <= 0 or not np.isfinite(factor):
        raise PlatformError(
            f"compute scale factor must be positive and finite, got {factor}"
        )
    procs = list(platform.processors)
    procs[rank] = dataclasses.replace(
        procs[rank],
        name=f"{procs[rank].name}~x{factor:g}",
        cycle_time=procs[rank].cycle_time * factor,
    )
    return HeterogeneousPlatform(
        name=name or f"{platform.name} [rank {rank} ~x{factor:g}]",
        processors=procs,
        network=platform.network,
        master_rank=platform.master_rank,
    )


def upgrade_ranks(
    platform: HeterogeneousPlatform,
    ranks: Sequence[int],
    accelerator: AcceleratorSpec,
    name: str | None = None,
) -> HeterogeneousPlatform:
    """Replace the processors at ``ranks`` with an accelerator tier.

    Each upgraded node keeps its own memory (the accelerator is an
    attached device; partition-size limits still come from host RAM)
    and is renamed ``<old>+<accelerator>`` so reports show which nodes
    were upgraded.
    """
    ranks = list(ranks)
    if not ranks:
        raise PlatformError("tier upgrade needs at least one rank")
    for r in ranks:
        if not 0 <= r < platform.size:
            raise PlatformError(f"rank {r} outside [0, {platform.size})")
    if len(set(ranks)) != len(ranks):
        raise PlatformError("tier-upgrade ranks must be distinct")
    procs = list(platform.processors)
    for r in ranks:
        procs[r] = dataclasses.replace(
            accelerator,
            name=f"{procs[r].name}+{accelerator.name}",
            memory_mb=procs[r].memory_mb,
        )
    return HeterogeneousPlatform(
        name=name or f"{platform.name}+{accelerator.name}x{len(ranks)}",
        processors=procs,
        network=platform.network,
        master_rank=platform.master_rank,
    )


def scale_latency(
    platform: HeterogeneousPlatform,
    factor: float,
    name: str | None = None,
) -> HeterogeneousPlatform:
    """Scale the fixed per-message latency by ``factor``."""
    if factor < 0:
        raise PlatformError(f"latency factor must be >= 0, got {factor}")
    net = platform.network
    new_net = CommunicationNetwork(
        np.array(net.capacity_matrix, dtype=float, copy=True),
        segments=net.segments,
        latency_s=net.latency_s * factor,
    )
    return HeterogeneousPlatform(
        name=name or f"{platform.name} [latency x{factor:g}]",
        processors=platform.processors,
        network=new_net,
        master_rank=platform.master_rank,
    )


def extend_platform(
    platform: HeterogeneousPlatform,
    n: int,
    name: str | None = None,
) -> HeterogeneousPlatform:
    """A platform resized to exactly ``n`` ranks for capacity sweeps.

    ``n <= size`` keeps the first ``n`` ranks (a plain
    :meth:`~HeterogeneousPlatform.subset`).  ``n > size`` clones the
    existing non-master ranks round-robin: each clone joins its
    source's segment and inherits its source's capacity row; capacity
    between a clone and (a clone of) its own source uses the source
    segment's intra-segment capacity, falling back to the network mean
    when the segment had a single member.  Deterministic by
    construction.
    """
    if n < 1:
        raise PlatformError(f"platform size must be >= 1, got {n}")
    if n <= platform.size:
        return platform.subset(
            range(n), name=name or f"{platform.name}[{n} nodes]"
        )
    size = platform.size
    sources = [r for r in range(size) if r != platform.master_rank] or [
        platform.master_rank
    ]
    src_of = list(range(size)) + [
        sources[k % len(sources)] for k in range(n - size)
    ]
    net = platform.network

    def intra_capacity(segment: str) -> float:
        members = net.segments[segment]
        for i in members:
            for j in members:
                if i != j:
                    return net.capacity(i, j)
        return net.mean_capacity() or 1.0

    cap = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            si, sj = src_of[i], src_of[j]
            if si != sj:
                cap[i, j] = net.capacity(si, sj)
            else:
                cap[i, j] = intra_capacity(net.segment_of(si))
    segments: dict[str, list[int]] = {}
    for i in range(n):
        segments.setdefault(net.segment_of(src_of[i]), []).append(i)
    new_net = CommunicationNetwork(
        cap, segments=segments, latency_s=net.latency_s
    )
    return HeterogeneousPlatform(
        name=name or f"{platform.name}[{n} nodes]",
        processors=[platform.processors[src_of[i]] for i in range(n)],
        network=new_net,
        master_rank=platform.master_rank,
    )
