"""Hetero-ATDCA and Hetero-UFCLS (Algorithms 2 and 3): one program.

The paper presents Hetero-UFCLS as Hetero-ATDCA with a different
per-pixel score, and both as one master/worker round repeated ``t``
times over WEA row partitions:

1. every rank scores its own pixels and nominates its local argmax
   (position, signature, score);
2. the master gathers the nominations, selects the winner — a
   sequential step, charged as such — and appends it to the target
   matrix;
3. the master broadcasts the grown target matrix.

Round 0 scores by pixel energy (the brightest pixel); round ``k >= 1``
scores by the detector's own measure against the ``k`` targets found so
far — the orthogonal-subspace residual for ATDCA, the fully constrained
least-squares error for UFCLS.  What differs between the two detectors
is a :class:`DetectorSpec`; :data:`DETECTORS` is the only place that
knows the difference.

Produces *bit-identical* targets to :func:`repro.core.atdca.atdca` and
:func:`repro.core.ufcls.ufcls` on the same image: per-partition argmaxes
combined with lowest-global-index tie-breaking equal the global argmax.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import TYPE_CHECKING, Any, Callable, Mapping

import numpy as np

from repro.core.atdca import TargetDetectionResult, _check_new_target, atdca
from repro.core.parallel_common import (
    LocalBlock,
    charged_kernel,
    cost_model_of,
    distribute_row_blocks,
    master_only,
)
from repro.core.ufcls import ufcls
from repro.errors import ConfigurationError
from repro.hsi.cube import HyperspectralImage
from repro.linalg.fcls import IncrementalFCLS
from repro.linalg.osp import IncrementalOSP
from repro.mpi.communicator import Communicator, MessageContext
from repro.obs.trace import tracer_of
from repro.scheduling.static_part import RowPartition

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.adaptive import AdaptiveController
    from repro.faults.recovery import CheckpointStore

__all__ = [
    "DetectorSpec",
    "DETECTORS",
    "detector_program",
    "parallel_atdca_program",
    "parallel_ufcls_program",
]


@dataclasses.dataclass(frozen=True)
class DetectorSpec:
    """Everything that differs between the two target detectors.

    Attributes:
        name: algorithm name; also the prefix of its span names.
        score_kernel: the per-rank scoring charge of rounds ``k >= 1`` —
            both the ``kernel.*`` span name and the
            :class:`~repro.cluster.costs.CostModel` method
            ``(n_pixels, bands, k)`` that prices it.
        select_kernel: the master's sequential selection charge, named
            and priced the same way by ``(bands, k, size)``.
        scorer: the per-rank scoring state, built from the rank's
            pixels and grown by ``add_target`` once per round.
        scorer_method: the method of that state returning the per-pixel
            scores against the targets added so far.
        sequential: the sequential detector ``(image, n_targets)`` whose
            targets the program reproduces.
    """

    name: str
    score_kernel: str
    select_kernel: str
    scorer: Callable[[np.ndarray], Any]
    scorer_method: str
    sequential: Callable[[HyperspectralImage, int], TargetDetectionResult]


#: The paper's two target detectors, by algorithm name.
DETECTORS: Mapping[str, DetectorSpec] = {
    "atdca": DetectorSpec(
        "atdca", "osp_scores", "master_osp_selection",
        IncrementalOSP, "residual_energy", atdca,
    ),
    "ufcls": DetectorSpec(
        "ufcls", "fcls_scores", "master_scls_selection",
        IncrementalFCLS, "error_image", ufcls,
    ),
}


def _select_candidate(candidates: list[tuple[float, int, np.ndarray]]) -> int:
    """Pick the winning (score, global_index, signature) candidate:
    maximum score, ties to the lowest global index (matching the
    sequential argmax convention)."""
    best = None
    for i, (score, gidx, _sig) in enumerate(candidates):
        if best is None:
            best = i
            continue
        b_score, b_gidx, _ = candidates[best]
        if score > b_score or (score == b_score and gidx < b_gidx):
            best = i
    assert best is not None
    return best


def _round(
    ctx: MessageContext,
    comm: Communicator,
    block: LocalBlock,
    score_pixels: Callable[[], np.ndarray],
    score_charge: tuple[str, float],
    select_charge: tuple[str, float],
    state: dict[str, Any],
) -> None:
    """One master/worker round; grows ``state["u"]`` by one target.

    Local score → local argmax candidate → gather → the master selects
    under its sequential charge and appends to ``state`` → bcast.  A
    rank with an empty share charges zero work and nominates a sentinel
    that can never win, so it still takes part in both collectives.
    """
    local = block.core_pixels
    with charged_kernel(ctx, *score_charge):
        if local.shape[0]:
            values = score_pixels()
            lidx = int(np.argmax(values))
            candidate = (
                float(values[lidx]),
                block.global_flat_index(lidx),
                local[lidx].copy(),
            )
        else:
            candidate = (
                -np.inf, np.iinfo(np.int64).max, np.zeros(block.bands)
            )
    gathered = comm.gather(candidate)
    grown = None
    if comm.is_master:
        with charged_kernel(ctx, *select_charge, sequential=True):
            win = _select_candidate(gathered)
        score, gidx, signature = gathered[win]
        _check_new_target(gidx, state["indices"])
        state["indices"].append(gidx)
        state["signatures"].append(signature)
        state["scores"].append(score)
        found = signature[None, :]
        grown = found if state["u"] is None else np.vstack([state["u"], found])
    state["u"] = comm.bcast(grown)


def detector_program(
    spec: DetectorSpec,
    ctx: MessageContext,
    partition: RowPartition,
    n_targets: int,
    image: HyperspectralImage | None = None,
    checkpoint: "CheckpointStore | None" = None,
    adaptive: "AdaptiveController | None" = None,
) -> TargetDetectionResult | None:
    """SPMD body of a target detector; returns the result at the master.

    Args:
        spec: which detector (an entry of :data:`DETECTORS`).
        ctx: rank context (sim or in-process backend).
        partition: WEA row partition (same object on all ranks).
        n_targets: ``t``, the number of targets to extract.
        image: the scene — master rank only.
        checkpoint: optional in-memory master checkpoint store
            (fault-tolerant runs).  The master saves its selection
            state after every completed round; on restart the saved step
            is broadcast and extraction resumes mid-loop instead of from
            scratch.
        adaptive: optional straggler controller; when set, every rank
            runs one extra collective round after each round but the
            last (nothing left to rebalance) and a positive decision
            raises :class:`~repro.errors.RepartitionSignal` on all
            ranks.
    """
    if n_targets < 1:
        raise ConfigurationError(f"n_targets must be >= 1, got {n_targets}")
    comm = Communicator(ctx)
    cost = cost_model_of(ctx)
    tracer = tracer_of(ctx)
    master_only(ctx, image, "image")

    block = distribute_row_blocks(comm, image, partition)
    local = block.core_pixels
    bands = block.bands
    n_local = local.shape[0]

    # Master selection state, in checkpoint layout; ``u`` (the target
    # matrix) is the only part the workers hold too.
    state: dict[str, Any] = {
        "indices": [], "signatures": [], "scores": [], "u": None,
    }
    start_k = 0
    if checkpoint is not None:
        resume = None
        if comm.is_master:
            saved = checkpoint.load()
            if saved is not None:
                start_k, state = saved
                resume = (start_k, state["u"])
        resume = comm.bcast(resume)
        if resume is not None:
            start_k, state["u"] = resume

    # Per-rank scoring state: each broadcast appends exactly one row to
    # the target matrix, and the state carries its factorization across
    # rounds, folding in only the newest row.  A checkpoint resume
    # replays the saved rows in order — the same arithmetic as a live
    # run.
    scorer = None
    if n_local:
        scorer = spec.scorer(local)
        if state["u"] is not None:
            for row in state["u"]:
                scorer.add_target(row)
    score_against_targets = getattr(scorer, spec.scorer_method, None)

    for k in range(start_k, n_targets):
        if k == 0:
            span = tracer.span(f"{spec.name}.brightest", rank=ctx.rank)
            score_pixels = functools.partial(
                np.einsum, "ij,ij->i", local, local
            )
            score_charge = (
                "brightest_search", cost.brightest_search(n_local, bands)
            )
            select_charge = (
                "brightest_search", cost.brightest_search(comm.size, bands)
            )
        else:
            span = tracer.span(f"{spec.name}.iteration", rank=ctx.rank, k=k)
            score_pixels = score_against_targets
            score_charge = (
                spec.score_kernel,
                getattr(cost, spec.score_kernel)(n_local, bands, k),
            )
            # The paper's master re-scores the candidates itself (for
            # ATDCA with the explicit N×N projector) — a sequential step.
            select_charge = (
                spec.select_kernel,
                getattr(cost, spec.select_kernel)(bands, k, comm.size),
            )
        with span:
            _round(
                ctx, comm, block, score_pixels, score_charge, select_charge,
                state,
            )
            if scorer is not None:
                scorer.add_target(state["u"][-1])
        # Saved only after the round's closing broadcast completed, so a
        # restart from step ``k + 1`` is consistent on all ranks.
        if checkpoint is not None and comm.is_master:
            checkpoint.save(k + 1, state)
        if adaptive is not None and k + 1 < n_targets:
            adaptive.sync(ctx, comm, step=k + 1)

    if not comm.is_master:
        return None
    idx = np.asarray(state["indices"], dtype=np.int64)
    rows, cols = np.divmod(idx, block.cols)
    return TargetDetectionResult(
        flat_indices=idx,
        signatures=np.vstack(state["signatures"]),
        scores=np.asarray(state["scores"]),
        positions=np.stack([rows, cols], axis=1),
    )


def parallel_atdca_program(
    ctx: MessageContext, partition: RowPartition, n_targets: int, **options: Any
) -> TargetDetectionResult | None:
    """SPMD body of Hetero-ATDCA (Algorithm 2); ``options`` as for
    :func:`detector_program`."""
    return detector_program(
        DETECTORS["atdca"], ctx, partition, n_targets, **options
    )


def parallel_ufcls_program(
    ctx: MessageContext, partition: RowPartition, n_targets: int, **options: Any
) -> TargetDetectionResult | None:
    """SPMD body of Hetero-UFCLS (Algorithm 3); ``options`` as for
    :func:`detector_program`."""
    return detector_program(
        DETECTORS["ufcls"], ctx, partition, n_targets, **options
    )
