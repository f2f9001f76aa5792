"""SAD-based unique (spectrally distinct) signature sets.

Both classification algorithms build a small set of mutually distinct
signatures: Hetero-PCT step 2 forms "a unique spectral set by
calculating the SAD distance for all vector pairs", and Hetero-MORPH
step 3 merges worker candidates into "a unique spectral set of p ≤ c
pixel vectors".  This module provides the two operations they need:

* a greedy streaming selection that keeps a signature only when its
  SAD to everything already kept exceeds a threshold;
* an agglomerative reduction that merges the closest pair until at
  most ``c`` signatures remain (the paper's "combined, one pair at a
  time" step).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import ConfigurationError, DataError
from repro.hsi.metrics import sad_pairwise, sad_to_references
from repro.types import FloatArray, IntArray

__all__ = [
    "UniqueSet",
    "greedy_unique",
    "greedy_unique_reference",
    "reduce_to_count",
    "diversity_select",
    "merge_unique_sets",
]


@dataclasses.dataclass(frozen=True)
class UniqueSet:
    """A distinct-signature set with provenance.

    Attributes:
        signatures: ``(k, bands)`` representative spectra.
        indices: for each representative, the index (into whatever pool
            it was drawn from) of the pixel that represents it.
        scores: optional per-member quality score (e.g. MEI) used to
            order master-side merging.
    """

    signatures: FloatArray
    indices: IntArray
    scores: FloatArray | None = None

    def __post_init__(self) -> None:
        sig = np.asarray(self.signatures, dtype=float)
        idx = np.asarray(self.indices, dtype=np.int64)
        if sig.ndim != 2 or idx.ndim != 1 or sig.shape[0] != idx.shape[0]:
            raise DataError(
                f"inconsistent unique set: signatures {sig.shape}, "
                f"indices {idx.shape}"
            )
        object.__setattr__(self, "signatures", sig)
        object.__setattr__(self, "indices", idx)
        if self.scores is not None:
            sc = np.asarray(self.scores, dtype=float)
            if sc.shape != (sig.shape[0],):
                raise DataError(
                    f"scores shape {sc.shape} != ({sig.shape[0]},)"
                )
            object.__setattr__(self, "scores", sc)

    @property
    def count(self) -> int:
        return int(self.signatures.shape[0])


def greedy_unique(
    pixels: FloatArray,
    threshold: float,
    max_keep: int | None = None,
) -> UniqueSet:
    """Streaming distinct selection: keep pixel ``i`` iff its SAD to every
    kept signature exceeds ``threshold``.

    Scan order is pixel order (deterministic).  Vectorized as survivor
    filtering: each time a signature is kept, one batched
    :func:`sad_to_references` matrix product eliminates every remaining
    candidate within ``threshold`` of it — valid because the kept set
    only grows, so a candidate eliminated now could never be re-admitted
    later.  O(k·n·bands) for ``k`` kept signatures, no per-pixel Python
    loop, and the exact same set as the one-candidate-at-a-time scan
    (the per-pair angle test is unchanged, just batched).

    Args:
        pixels: ``(n, bands)`` candidate pool.
        threshold: minimum SAD (radians) between kept signatures.
        max_keep: optional hard cap on the number kept.
    """
    pix = np.asarray(pixels, dtype=float)
    if pix.ndim != 2 or pix.shape[0] == 0:
        raise DataError(f"expected non-empty (n, bands), got {pix.shape}")
    if threshold < 0:
        raise ConfigurationError(f"threshold must be >= 0, got {threshold}")
    if max_keep is not None and max_keep < 1:
        raise ConfigurationError(f"max_keep must be >= 1, got {max_keep}")
    limit = pix.shape[0] if max_keep is None else max_keep
    kept_rows: list[int] = [0]
    latest = 0
    survivors = np.arange(1, pix.shape[0])
    while survivors.size and len(kept_rows) < limit:
        angles = sad_to_references(pix[survivors], pix[latest : latest + 1])
        survivors = survivors[angles[:, 0] > threshold]
        if survivors.size:
            latest = int(survivors[0])
            kept_rows.append(latest)
            survivors = survivors[1:]
    idx = np.asarray(kept_rows)
    return UniqueSet(signatures=pix[idx].copy(), indices=idx)


def greedy_unique_reference(
    pixels: FloatArray,
    threshold: float,
    max_keep: int | None = None,
) -> UniqueSet:
    """The one-candidate-at-a-time scan :func:`greedy_unique` batches.

    Walks the pool in pixel order and keeps candidate ``i`` iff its SAD
    to *every* kept signature exceeds ``threshold`` — the literal
    reading of the paper's step.  O(k·n·bands) like the vectorized
    filter but with a Python-level loop over candidates; the oracle the
    tests check the vectorized survivor filtering against (the per-pair
    angle test is identical, so the kept sets match bit for bit).
    """
    pix = np.asarray(pixels, dtype=float)
    if pix.ndim != 2 or pix.shape[0] == 0:
        raise DataError(f"expected non-empty (n, bands), got {pix.shape}")
    if threshold < 0:
        raise ConfigurationError(f"threshold must be >= 0, got {threshold}")
    if max_keep is not None and max_keep < 1:
        raise ConfigurationError(f"max_keep must be >= 1, got {max_keep}")
    limit = pix.shape[0] if max_keep is None else max_keep
    kept_rows: list[int] = [0]
    for i in range(1, pix.shape[0]):
        if len(kept_rows) >= limit:
            break
        angles = sad_to_references(pix[i : i + 1], pix[kept_rows])
        if bool((angles[0] > threshold).all()):
            kept_rows.append(i)
    idx = np.asarray(kept_rows)
    return UniqueSet(signatures=pix[idx].copy(), indices=idx)


def reduce_to_count(unique: UniqueSet, count: int) -> UniqueSet:
    """Merge the closest pair (drop the later member) until ≤ ``count``.

    This is the paper's one-pair-at-a-time combination; keeping the
    earlier member of each closest pair makes the reduction
    deterministic and keeps provenance meaningful.
    """
    if count < 1:
        raise ConfigurationError(f"count must be >= 1, got {count}")
    sig = unique.signatures.copy()
    idx = unique.indices.copy()
    scores = None if unique.scores is None else unique.scores.copy()
    while sig.shape[0] > count:
        angles = sad_pairwise(sig)
        np.fill_diagonal(angles, np.inf)
        flat = int(np.argmin(angles))
        a, b = divmod(flat, sig.shape[0])
        drop = max(a, b)  # keep the earlier (first-seen / higher-score)
        keep_mask = np.ones(sig.shape[0], dtype=bool)
        keep_mask[drop] = False
        sig = sig[keep_mask]
        idx = idx[keep_mask]
        if scores is not None:
            scores = scores[keep_mask]
    return UniqueSet(signatures=sig, indices=idx, scores=scores)


def diversity_select(unique: UniqueSet, count: int) -> UniqueSet:
    """Farthest-point selection: keep ``count`` members maximizing the
    minimum pairwise SAD of the kept set.

    Seeded with the highest-score member (first member when unscored),
    then greedily adds the candidate whose minimum SAD to the kept set
    is largest.  Unlike closest-pair merging, this cannot cascade away
    a moderately distinct class while hoarding slots on a cluster of
    mutually extreme outliers — it is the standard reduction used by
    sequential endmember-extraction methods.
    """
    if count < 1:
        raise ConfigurationError(f"count must be >= 1, got {count}")
    k = unique.count
    if k <= count:
        return unique
    angles = sad_pairwise(unique.signatures)
    seed = 0 if unique.scores is None else int(np.argmax(unique.scores))
    chosen = [seed]
    min_dist = angles[seed].copy()
    min_dist[seed] = -np.inf
    while len(chosen) < count:
        nxt = int(np.argmax(min_dist))
        if min_dist[nxt] <= 0:
            break  # every remaining candidate is a duplicate of the kept set
        chosen.append(nxt)
        np.minimum(min_dist, angles[nxt], out=min_dist)
        min_dist[nxt] = -np.inf
    chosen_idx = np.asarray(sorted(chosen))
    return UniqueSet(
        signatures=unique.signatures[chosen_idx],
        indices=unique.indices[chosen_idx],
        scores=None if unique.scores is None else unique.scores[chosen_idx],
    )


def merge_unique_sets(
    sets: list[UniqueSet],
    threshold: float,
    count: int | None = None,
    strategy: str = "diversity",
) -> UniqueSet:
    """Combine per-worker unique sets into one (master-side step).

    Concatenates all members (indices are preserved as given — callers
    should pre-globalize them), re-applies the greedy distinctness
    filter across the union, then optionally reduces to ``count``.

    When every input set carries scores, the union is scanned in
    descending score order, so the greedy filter keeps the
    highest-quality representative of each signature cluster and the
    reduction prefers dropping low-score members.

    Args:
        strategy: ``"diversity"`` (farthest-point, default) or
            ``"merge"`` (one-closest-pair-at-a-time) for the final
            reduction to ``count``.
    """
    if strategy not in ("diversity", "merge"):
        raise ConfigurationError(f"unknown reduction strategy {strategy!r}")
    if not sets:
        raise DataError("no unique sets to merge")
    all_sig = np.vstack([s.signatures for s in sets])
    all_idx = np.concatenate([s.indices for s in sets])
    if all(s.scores is not None for s in sets):
        all_scores = np.concatenate([s.scores for s in sets])
        order = np.argsort(-all_scores, kind="stable")
        all_sig = all_sig[order]
        all_idx = all_idx[order]
        all_scores = all_scores[order]
    else:
        all_scores = None
    filtered = greedy_unique(all_sig, threshold)
    merged = UniqueSet(
        signatures=filtered.signatures,
        indices=all_idx[filtered.indices],
        scores=None if all_scores is None else all_scores[filtered.indices],
    )
    if count is not None and merged.count > count:
        if strategy == "diversity":
            merged = diversity_select(merged, count)
        else:
            merged = reduce_to_count(merged, count)
    return merged
