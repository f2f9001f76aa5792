"""The kernel-variant registry: one dispatch seam for every hot kernel.

PR 5 introduced fast paths (incremental OSP/FCLS state, the
pair-compressed MEI map, the vectorized unique-survivor filter) but
wired each one ad hoc: every algorithm hand-picked its implementation
at the call site.  This module replaces those hard-wired choices with
a registry: each kernel's variants are registered with **capability
metadata** — exactness class, memory footprint, and preconditions such
as rank-deficiency tolerance — and callers resolve a variant *by
name*, with the planner (:mod:`repro.tuning.planner`) choosing the
name from the metadata and the microbench (:mod:`repro.obs.microbench`)
enumerating all of them against the reference.

Implementation protocols (what ``KernelVariant.implementation()``
returns) per kernel:

==================  ========================================================
``osp_step``        a class ``C(pixels)`` with ``add_target(sig) -> bool``
                    and ``residual_energy() -> (n,)``
``fcls_solve``      a class ``C(pixels)`` with ``add_target(sig)`` and
                    ``error_image(max_iter=None) -> (n,)``
``morph_mei``       ``f(cube, se, iterations) -> (rows, cols)``
``unique_filter``   ``f(pixels, threshold, max_keep=None) -> UniqueSet``
==================  ========================================================

Factories import their implementations lazily so this module has **no**
top-level dependency on :mod:`repro.core` / :mod:`repro.linalg` — core
modules import the registry at module scope to dispatch through it, and
eager imports here would complete that cycle.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable

from repro.errors import ConfigurationError

__all__ = [
    "KERNEL_NAMES",
    "KernelVariant",
    "register",
    "variants_of",
    "resolve",
    "default_variant",
]

#: Every registered hot kernel, in registration order.
KERNEL_NAMES: tuple[str, ...] = (
    "osp_step",
    "fcls_solve",
    "morph_mei",
    "unique_filter",
)


@dataclasses.dataclass(frozen=True)
class KernelVariant:
    """One registered implementation of a kernel.

    Attributes:
        kernel: which kernel this implements (one of
            :data:`KERNEL_NAMES`).
        name: variant name; ``"reference"`` is reserved for the scratch
            baseline every other variant is verified against.
        exactness: ``"bit_identical"`` (same floats as the reference) or
            ``"pick_identical"`` (same discrete selections — target
            indices — with scores equal up to round-off).
        memory: footprint class of the carried state, as a human-readable
            expression (``n`` pixels, ``b`` bands, ``t`` targets).
        rank_tolerant: whether the variant's numerics are the primary,
            fully-exercised path for rank-deficient / near-collinear
            target sets.  Fast variants carry bypass guards but the
            planner routes degenerate inputs to the reference paths.
        min_pixels: smallest pixel count at which the variant's carried
            state pays for itself; the planner falls back to the
            reference below it (tiny scenes).
        speed_hint: coarse expected speedup over the reference, used
            only to order eligible variants (the microbench measures
            the truth; a hint > 1 marks a fast path).
        factory: zero-argument callable returning the implementation
            (lazily imported — see the module docstring).
    """

    kernel: str
    name: str
    exactness: str
    memory: str
    rank_tolerant: bool
    min_pixels: int
    speed_hint: float
    factory: Callable[[], Any]

    def implementation(self) -> Any:
        """Resolve the implementation callable/class (lazy import)."""
        return self.factory()


#: kernel -> {variant name -> KernelVariant}, insertion-ordered.
_REGISTRY: dict[str, dict[str, KernelVariant]] = {}


def register(variant: KernelVariant) -> KernelVariant:
    """Add a variant; re-registering a (kernel, name) pair replaces it."""
    _REGISTRY.setdefault(variant.kernel, {})[variant.name] = variant
    return variant


def variants_of(kernel: str) -> tuple[KernelVariant, ...]:
    """All variants of ``kernel``, in registration order."""
    try:
        return tuple(_REGISTRY[kernel].values())
    except KeyError:
        raise ConfigurationError(
            f"unknown kernel {kernel!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def resolve(kernel: str, name: str) -> KernelVariant:
    """The variant registered as ``name`` for ``kernel``."""
    table = _REGISTRY.get(kernel)
    if table is None:
        raise ConfigurationError(
            f"unknown kernel {kernel!r}; registered: {sorted(_REGISTRY)}"
        )
    variant = table.get(name)
    if variant is None:
        raise ConfigurationError(
            f"kernel {kernel!r} has no variant {name!r}; "
            f"registered: {sorted(table)}"
        )
    return variant


def default_variant(kernel: str) -> KernelVariant:
    """The fastest registered variant (highest ``speed_hint``; ties go
    to the earlier registration) — what an unplanned run dispatches to,
    preserving pre-registry behaviour."""
    best = None
    for variant in variants_of(kernel):
        if best is None or variant.speed_hint > best.speed_hint:
            best = variant
    assert best is not None  # variants_of raises on unknown kernels
    return best


# -- default registrations ----------------------------------------------------
#
# Factories import lazily; see the module docstring for why.

def _osp_reference() -> Any:
    from repro.linalg.osp import ScratchOSP

    return ScratchOSP


def _osp_incremental() -> Any:
    from repro.linalg.osp import IncrementalOSP

    return IncrementalOSP


def _fcls_reference() -> Any:
    from repro.linalg.fcls import ScratchFCLS

    return ScratchFCLS


def _fcls_incremental() -> Any:
    from repro.linalg.fcls import IncrementalFCLS

    return IncrementalFCLS


def _mei_reference() -> Any:
    from repro.core.morph import mei_map_reference

    return mei_map_reference


def _mei_paired() -> Any:
    from repro.core.morph import mei_map

    return mei_map


def _unique_reference() -> Any:
    from repro.core.unique import greedy_unique_reference

    return greedy_unique_reference


def _unique_vectorized() -> Any:
    from repro.core.unique import greedy_unique

    return greedy_unique


def _register_defaults() -> None:
    register(KernelVariant(
        kernel="osp_step", name="reference", exactness="pick_identical",
        memory="O(n + t·b)", rank_tolerant=True, min_pixels=0,
        speed_hint=1.0, factory=_osp_reference,
    ))
    register(KernelVariant(
        kernel="osp_step", name="incremental", exactness="pick_identical",
        memory="O(n + t·b)", rank_tolerant=False, min_pixels=64,
        speed_hint=8.0, factory=_osp_incremental,
    ))
    register(KernelVariant(
        kernel="fcls_solve", name="reference", exactness="pick_identical",
        memory="O(n·t)", rank_tolerant=True, min_pixels=0,
        speed_hint=1.0, factory=_fcls_reference,
    ))
    register(KernelVariant(
        kernel="fcls_solve", name="incremental", exactness="pick_identical",
        memory="O(n·t + t²)", rank_tolerant=False, min_pixels=64,
        speed_hint=3.0, factory=_fcls_incremental,
    ))
    register(KernelVariant(
        kernel="morph_mei", name="reference", exactness="bit_identical",
        memory="O(n·b)", rank_tolerant=True, min_pixels=0,
        speed_hint=1.0, factory=_mei_reference,
    ))
    register(KernelVariant(
        kernel="morph_mei", name="paired", exactness="bit_identical",
        memory="O(n·|B|)", rank_tolerant=True, min_pixels=64,
        speed_hint=2.0, factory=_mei_paired,
    ))
    register(KernelVariant(
        kernel="unique_filter", name="reference", exactness="bit_identical",
        memory="O(k·b)", rank_tolerant=True, min_pixels=0,
        speed_hint=1.0, factory=_unique_reference,
    ))
    register(KernelVariant(
        kernel="unique_filter", name="vectorized", exactness="bit_identical",
        memory="O(n + k·b)", rank_tolerant=True, min_pixels=64,
        speed_hint=10.0, factory=_unique_vectorized,
    ))


_register_defaults()
