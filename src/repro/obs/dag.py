"""The happens-before DAG of a traced run.

Spans record *what happened when*; this module recovers *why*: every
``compute``/``seq``/``transfer`` span becomes an :class:`ActivityNode`,
the two endpoint spans of one message are unified into a single
transfer node, and edges encode the three scheduling constraints of the
virtual-time engine (and, approximately, of the wall-clock backend):

1. **program order** — activities on one rank execute in sequence;
2. **transfer synchronization** — a transfer cannot start before both
   endpoint ranks are ready (the unified node sits in *both* ranks'
   chains);
3. **serial-link order** — transfers crossing the same inter-segment
   link are serialized in start order (Table 2 semantics).

On the engine every node's start time equals the ``end`` of one of its
predecessors (the *binding* constraint), so walking back from the
latest-finishing node along maximal-``end`` predecessors yields the
critical path exactly; on the wall-clock backend the same walk gives a
best-effort path with any unexplained gap reported as untracked time.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping, Sequence

from repro.obs.export import spans_of
from repro.obs.trace import Span

__all__ = [
    "ActivityNode",
    "HappensBeforeDag",
    "build_dag",
    "critical_path_nodes",
    "node_slack",
    "path_increments",
    "path_rank_attribution",
]

#: Span categories that are *activities* (phase/mpi spans are wrappers).
ACTIVITY_CATEGORIES = ("compute", "seq", "transfer")


@dataclasses.dataclass
class ActivityNode:
    """One DAG node: a computation interval or one unified transfer.

    Attributes:
        key: deterministic node id, unique within a DAG.
        kind: ``"compute"``, ``"seq"``, or ``"transfer"``.
        ranks: the ranks whose clocks the activity occupies —
            ``(rank,)`` for computation, ``(src, dst)`` for a transfer.
        start, end: the activity interval (for an inproc transfer whose
            endpoint spans disagree, the envelope of both).
        megabits: transferred volume (transfers only).
        link: link label for transfers (``"s1|s4"`` serial,
            ``"intra:s2"`` switched, or ``"pair:src~dst"`` when the
            trace carries no link attribute).
        preds: keys of predecessor nodes (binding candidates).
    """

    key: str
    kind: str
    ranks: tuple[int, ...]
    start: float
    end: float
    megabits: float = 0.0
    link: str | None = None
    preds: list[str] = dataclasses.field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def is_transfer(self) -> bool:
        return self.kind == "transfer"

    @property
    def src(self) -> int:
        return self.ranks[0]

    @property
    def dst(self) -> int:
        return self.ranks[-1]


@dataclasses.dataclass
class HappensBeforeDag:
    """Nodes indexed by key, plus the per-rank activity chains."""

    nodes: dict[str, ActivityNode]
    rank_chains: dict[int, list[str]]

    @property
    def makespan(self) -> float:
        return max((n.end for n in self.nodes.values()), default=0.0)

    def sorted_nodes(self) -> list[ActivityNode]:
        return sorted(self.nodes.values(), key=lambda n: (n.start, n.key))

    def transfers(self) -> list[ActivityNode]:
        return [n for n in self.sorted_nodes() if n.is_transfer]

    def sink(self) -> ActivityNode | None:
        """The latest-finishing node (deterministic tie-break)."""
        if not self.nodes:
            return None
        return max(self.nodes.values(), key=lambda n: (n.end, n.key))


def _transfer_endpoints(span: Span) -> tuple[int, int]:
    """``(src, dst)`` of a transfer span from its direction/peer attrs."""
    peer = int(span.attrs.get("peer", span.rank))
    if span.attrs.get("direction") == "send":
        return span.rank, peer
    return peer, span.rank


def _unify_transfers(transfer_spans: Sequence[Span]) -> list[ActivityNode]:
    """Pair send/recv endpoint spans of one message into single nodes.

    Spans are grouped per directed channel ``(src, dst)`` and paired in
    start order — exact on the engine (both endpoints share one
    interval) and FIFO-approximate on the wall-clock backend.  An
    unpaired endpoint (e.g. a trace filtered to one rank) still yields
    a node.
    """
    channels: dict[tuple[int, int], dict[str, list[Span]]] = {}
    order = sorted(
        transfer_spans, key=lambda s: (s.start, s.end, s.rank, s.seq)
    )
    for span in order:
        src, dst = _transfer_endpoints(span)
        side = "send" if span.attrs.get("direction") == "send" else "recv"
        channels.setdefault((src, dst), {"send": [], "recv": []})[side].append(span)

    nodes: list[ActivityNode] = []
    for (src, dst) in sorted(channels):
        sides = channels[(src, dst)]
        sends, recvs = sides["send"], sides["recv"]
        for i in range(max(len(sends), len(recvs))):
            pair = [s for s in (
                sends[i] if i < len(sends) else None,
                recvs[i] if i < len(recvs) else None,
            ) if s is not None]
            start = min(s.start for s in pair)
            end = max(s.end for s in pair)
            first = pair[0]
            link = first.attrs.get("link")
            nodes.append(
                ActivityNode(
                    key=f"x:{src}>{dst}:{i}",
                    kind="transfer",
                    ranks=(src, dst) if src != dst else (src,),
                    start=start,
                    end=end,
                    megabits=float(first.attrs.get("megabits", 0.0)),
                    link=str(link) if link is not None else f"pair:{src}~{dst}",
                )
            )
    return nodes


def build_dag(source: Any) -> HappensBeforeDag:
    """Build the happens-before DAG from any span source.

    Accepts whatever :func:`repro.obs.export.spans_of` accepts: an
    ``ObsSession``, a tracer, a :class:`~repro.obs.export.LoadedTrace`
    read back from JSONL, or a raw span sequence.
    """
    spans = [s for s in spans_of(source) if s.category in ACTIVITY_CATEGORIES]
    compute = [s for s in spans if s.category != "transfer"]
    nodes: dict[str, ActivityNode] = {}
    for span in compute:
        node = ActivityNode(
            key=f"c:{span.rank}:{span.seq}",
            kind=span.category,
            ranks=(span.rank,),
            start=span.start,
            end=span.end,
            megabits=0.0,
        )
        nodes[node.key] = node
    for node in _unify_transfers([s for s in spans if s.category == "transfer"]):
        nodes[node.key] = node

    order = sorted(nodes.values(), key=lambda n: (n.start, n.end, n.key))
    # Program-order edges: chain each rank's activities.
    rank_chains: dict[int, list[str]] = {}
    for node in order:
        for rank in node.ranks:
            chain = rank_chains.setdefault(rank, [])
            if chain:
                node.preds.append(chain[-1])
            chain.append(node.key)

    # Serial-link edges: transfers sharing an inter-segment link queue up.
    link_last: dict[str, str] = {}
    for node in order:
        if not node.is_transfer or node.link is None:
            continue
        if "|" not in node.link:  # switched medium: no shared bottleneck
            continue
        prev = link_last.get(node.link)
        if prev is not None and prev not in node.preds:
            node.preds.append(prev)
        link_last[node.link] = node.key

    return HappensBeforeDag(nodes=nodes, rank_chains=rank_chains)


def critical_path_nodes(
    dag: HappensBeforeDag,
) -> tuple[list[ActivityNode], float]:
    """The binding chain ending at the latest-finishing node.

    Walks back from the sink, at each step following the predecessor
    with the greatest ``end`` (the binding constraint on the engine,
    where a node's start always equals one predecessor's end).  Returns
    the path in execution order plus the total *untracked* time — gaps
    the predecessors do not explain (zero on the engine; nonzero wall
    scheduling noise on the inproc backend).

    On the engine the path's nodes are disjoint in time; on the
    wall-clock backend blocking send/recv spans can overlap along the
    chain, so consumers should attribute *incremental* time (see
    :func:`path_increments`) rather than summing raw durations.
    """
    sink = dag.sink()
    if sink is None:
        return [], 0.0
    path = [sink]
    untracked = 0.0
    node = sink
    while node.preds:
        pred = max(
            (dag.nodes[k] for k in node.preds), key=lambda n: (n.end, n.key)
        )
        gap = node.start - pred.end
        if gap > 0:
            untracked += gap
        path.append(pred)
        node = pred
    untracked += max(path[-1].start, 0.0)  # time before the first activity
    path.reverse()
    return path, untracked


def node_slack(dag: HappensBeforeDag) -> dict[str, float]:
    """Per-node slack: how late each activity could finish without
    extending the makespan.

    A classic backward pass over the happens-before edges.  Each node's
    *latest allowed end* is the makespan if nothing depends on it, else
    the minimum over its successors of (successor's latest end minus
    successor's duration); slack is that bound minus the actual end,
    clamped at zero.  Nodes with zero slack form the critical
    sub-DAG — exactly the activities whose virtual speedup moves the
    end-to-end time, which is what the causal profiler cross-checks its
    replay-measured gains against.

    The sorted ``(start, end, key)`` order is a valid topological order
    (every engine edge points from an earlier-starting node; ties are
    simultaneous and edge-free on the engine), so its reverse drives
    the backward pass without an explicit toposort.
    """
    order = sorted(dag.nodes.values(), key=lambda n: (n.start, n.end, n.key))
    makespan = dag.makespan
    latest_end = {node.key: makespan for node in order}
    for node in reversed(order):
        bound = latest_end[node.key] - node.duration
        for pred_key in node.preds:
            if bound < latest_end[pred_key]:
                latest_end[pred_key] = bound
    return {
        node.key: max(0.0, latest_end[node.key] - node.end)
        for node in order
    }


def path_increments(path: Sequence[ActivityNode]) -> list[float]:
    """Incremental seconds each path node adds to the chain's end time.

    ``end - max(start, previous end)``, clamped at zero — equal to the
    node's duration on the engine (where chain nodes are disjoint) and
    overlap-free on the wall-clock backend, so the increments always
    telescope to at most the makespan.
    """
    increments: list[float] = []
    prev_end = path[0].start if path else 0.0
    for node in path:
        increments.append(max(0.0, node.end - max(node.start, prev_end)))
        prev_end = max(prev_end, node.end)
    return increments


def path_rank_attribution(
    path: Sequence[ActivityNode],
) -> Mapping[int, float]:
    """Per-rank incremental seconds on a path (in execution order).

    Computation is attributed to its rank; a transfer to its *receiver*
    (the rank whose progress the transfer feeds).  Sorted by rank for
    deterministic iteration.
    """
    shares: dict[int, float] = {}
    for node, inc in zip(path, path_increments(path)):
        owner = node.dst if node.is_transfer else node.ranks[0]
        shares[owner] = shares.get(owner, 0.0) + inc
    return dict(sorted(shares.items()))
