"""Per-kernel wall-time microbenchmarks for the fast-path layer.

``python -m repro bench microbench`` times, for every hot kernel, the
scratch reference and the production fast path in the same process on
the same data, and records the measured **speedup ratio** — fast-path
gains expressed machine-portably, so the committed floor file gates on
"is the incremental update still ≥3× the scratch rebuild" rather than
on absolute seconds that vary per runner.

Kernels measured (reference → fast path, each imported by name):

* ``atdca`` — :class:`~repro.linalg.osp.ScratchOSP` →
  :class:`~repro.linalg.osp.IncrementalOSP`, both driven over the one
  target sequence :func:`~repro.core.atdca.atdca_pixels` picks.
* ``ufcls`` — :class:`~repro.linalg.fcls.ScratchFCLS` →
  :class:`~repro.linalg.fcls.IncrementalFCLS`, driven over the target
  sequence :func:`~repro.core.ufcls.ufcls_pixels` picks.
* ``mei_map`` — :func:`~repro.core.morph.mei_map_reference` →
  :func:`~repro.core.morph.mei_map` on a raw cube.
* ``unique`` — :func:`~repro.core.unique.greedy_unique_reference` →
  :func:`~repro.core.unique.greedy_unique` on a flat candidate pool.
* ``mailbox`` — deep :func:`~repro.cluster.mailbox.copy_payload` → the
  zero-copy read-only views of
  :func:`~repro.cluster.mailbox.freeze_payload`.

Every fast path is cross-checked against its reference — the detector
states by each step's argmax, the MEI map and the unique set bit for
bit; a disagreement marks the cell unverified and fails the gate — a
speedup that changes answers is a bug, not a win.

Reference and fast samples are taken in interleaved pairs, alternating
which side runs first, and a cell's ``speedup`` is the median of the
per-pair ratios: a stretch of host CPU steal slows both halves of a
pair, so it moves a pair's ratio far less than it moves either side's
own time.

The default scale fits CI; paper scale (614×512×224, the AVIRIS World
Trade Center cube) is one flag away::

    python -m repro bench microbench --gate
    python -m repro bench microbench --paper-scale --out micro.json

Paper scale allocates the full float64 cube (~563 MB, peak ~2 GB in the
reference MEI pass) — check available memory first.
"""

from __future__ import annotations

import dataclasses
import statistics
import time
from typing import Any, Callable, Mapping

import numpy as np

from repro.errors import ConfigurationError, ReproError
from repro.hsi.scene import SceneConfig, make_wtc_scene
from repro.types import FloatArray, IntArray

__all__ = [
    "MICRO_SCHEMA",
    "FLOORS_SCHEMA",
    "KERNELS",
    "MicrobenchConfig",
    "run_microbench",
    "gate_microbench",
    "microbench_report",
]

MICRO_SCHEMA = "repro.obs.microbench/1"
FLOORS_SCHEMA = "repro.obs.microbench-floors/1"

KERNELS: tuple[str, ...] = (
    "atdca", "ufcls", "mei_map", "unique", "mailbox"
)

#: Payload copies per timing sample for the mailbox kernel (a single
#: freeze is sub-microsecond; batching makes the clock resolution moot).
_MAILBOX_BATCH = 50


@dataclasses.dataclass(frozen=True)
class MicrobenchConfig:
    """Scale and repetition knobs for the kernel microbenchmarks.

    Defaults are CI-sized (a 96×64×64 scene) but keep the paper's loop
    depths — ``n_targets=30`` detector iterations and ``I_max=5`` MORPH
    passes — because the fast paths' advantage grows with iteration
    count, and those depths are what the acceptance floors encode.
    """

    rows: int = 96
    cols: int = 64
    bands: int = 64
    seed: int = 7
    n_targets: int = 30
    morph_iterations: int = 5
    #: Interleaved (reference, fast) pairs per cell; the gate reads the
    #: median of the per-pair ratios.
    repeats: int = 5
    #: Pixel subset for the ufcls kernel only.  Both states spend
    #: nearly all their time in the one active-set refinement they share
    #: (``linalg.fcls._active_set_refine``), so a change to its rounds
    #: moves both sides alike; the ratio sees what the fast path skips:
    #: the design matrix, and the refinement of each pixel that keeps
    #: its previous answer (``IncrementalFCLS``).  The number that times
    #: the kernel itself is ``linalg.fcls_px_per_s`` in
    #: ``benchmarks/wall``.  At 30 targets a sample costs ~1.5 s on 512
    #: pixels and ~8 s on the full 6144-pixel frame.
    ufcls_pixels: int = 512
    #: Candidate pool and SAD threshold for the unique kernel.
    unique_pixels: int = 4096
    unique_threshold: float = 0.05

    def __post_init__(self) -> None:
        if self.repeats < 1:
            raise ConfigurationError(
                f"repeats must be >= 1, got {self.repeats}"
            )
        if self.bands < self.n_targets:
            # ATDCA finds at most one target per spectral dimension.
            raise ConfigurationError(
                f"need bands >= {self.n_targets} (the detector kernels' "
                f"targets), got {self.bands}"
            )
        self.scene_config()  # raises on an invalid scene

    def scene_config(self) -> SceneConfig:
        return SceneConfig(
            rows=self.rows, cols=self.cols, bands=self.bands, seed=self.seed
        )

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


#: Paper-scale override: the AVIRIS WTC cube dimensions.
PAPER_SCALE = {"rows": 614, "cols": 512, "bands": 224}


def _time_pairs(
    reference: Callable[[], Any], fast: Callable[[], Any], repeats: int
) -> dict[str, float]:
    """Time ``repeats`` interleaved (reference, fast) pairs.

    Pair ``i`` runs the reference first when ``i`` is even and the fast
    path first when it is odd, so neither side always inherits the
    other's cache or frequency state.  Returns each side's median time
    and the median of the per-pair ``reference / fast`` ratios — the
    number the floor gate reads.
    """
    ref_samples: list[float] = []
    fast_samples: list[float] = []
    sides = [(reference, ref_samples), (fast, fast_samples)]
    for i in range(repeats):
        for fn, samples in sides if i % 2 == 0 else sides[::-1]:
            t0 = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - t0)
    ratios = [
        r / f if f > 0 else float("inf")
        for r, f in zip(ref_samples, fast_samples)
    ]
    return {
        "reference_s": statistics.median(ref_samples),
        "fast_s": statistics.median(fast_samples),
        "speedup": statistics.median(ratios),
    }


def _cell(
    reference: Callable[[], Any],
    fast: Callable[[], Any],
    agree: Callable[[Any, Any], bool],
    detail: str,
    repeats: int,
) -> dict[str, Any]:
    """Verify ``fast`` against ``reference`` once, then time the pair."""
    verified = bool(agree(reference(), fast()))
    return {
        **_time_pairs(reference, fast, repeats),
        "verified": verified,
        "detail": detail,
    }


def _step_picks(
    state: Any, method: str, targets: FloatArray
) -> list[int]:
    """Each step's argmax as a detector state grows by ``targets``.

    Step ``k`` adds target ``k`` and takes the argmax of ``method``'s
    scores against the ``k + 1`` targets so far — the per-round work of
    the sequential detectors, without their bookkeeping.
    """
    picks = []
    for signature in targets:
        state.add_target(signature)
        picks.append(int(np.argmax(getattr(state, method)())))
    return picks


def _detector_cell(
    reference: Callable[[FloatArray], Any],
    fast: Callable[[FloatArray], Any],
    method: str,
    pix: FloatArray,
    picks: IntArray,
    repeats: int,
) -> dict[str, Any]:
    """Drive both states over one target sequence (all picks but the
    last, whose scores no detector round computes)."""
    targets = pix[picks[:-1]]
    return _cell(
        lambda: _step_picks(reference(pix), method, targets),
        lambda: _step_picks(fast(pix), method, targets),
        lambda ref, out: ref == out,
        f"t={len(picks)} targets, {pix.shape[0]} pixels × "
        f"{pix.shape[1]} bands",
        repeats,
    )


def _bench_atdca(config: MicrobenchConfig, pix: FloatArray) -> dict[str, Any]:
    from repro.core.atdca import atdca_pixels
    from repro.linalg.osp import IncrementalOSP, ScratchOSP

    picks = atdca_pixels(pix, config.n_targets).flat_indices
    return _detector_cell(
        ScratchOSP, IncrementalOSP, "residual_energy", pix, picks,
        config.repeats,
    )


def _bench_ufcls(config: MicrobenchConfig, pix: FloatArray) -> dict[str, Any]:
    from repro.core.ufcls import ufcls_pixels
    from repro.linalg.fcls import IncrementalFCLS, ScratchFCLS

    picks = ufcls_pixels(pix, config.n_targets).flat_indices
    return _detector_cell(
        ScratchFCLS, IncrementalFCLS, "error_image", pix, picks,
        config.repeats,
    )


def _bench_mei_map(config: MicrobenchConfig, cube: FloatArray) -> dict[str, Any]:
    from repro.core.morph import mei_map, mei_map_reference
    from repro.morphology.structuring import square

    se = square(3)
    it = config.morph_iterations
    return _cell(
        lambda: mei_map_reference(cube, se, it),
        lambda: mei_map(cube, se, it),
        lambda ref, out: bool(np.array_equal(ref, out)),
        f"I_max={it}, 3×3 SE, "
        f"{cube.shape[0]}×{cube.shape[1]}×{cube.shape[2]} cube",
        config.repeats,
    )


def _bench_unique(config: MicrobenchConfig, pix: FloatArray) -> dict[str, Any]:
    from repro.core.unique import greedy_unique, greedy_unique_reference

    thr = config.unique_threshold
    return _cell(
        lambda: greedy_unique_reference(pix, thr),
        lambda: greedy_unique(pix, thr),
        lambda ref, out: bool(
            np.array_equal(ref.indices, out.indices)
            and np.array_equal(ref.signatures, out.signatures)
        ),
        f"threshold={thr}, {pix.shape[0]} pixels × {pix.shape[1]} bands",
        config.repeats,
    )


def _bench_mailbox(config: MicrobenchConfig, cube: FloatArray) -> dict[str, Any]:
    from repro.cluster.mailbox import copy_payload, freeze_payload

    # A representative broadcast payload: a band-rows slab plus metadata,
    # the shape the engines actually ship between ranks.
    slab = cube.reshape(-1, cube.shape[2])[: max(1, cube.shape[0] * 8)]
    payload = {"targets": slab.copy(), "round": 3, "tag": "bcast"}

    def _ref() -> None:
        for _ in range(_MAILBOX_BATCH):
            copy_payload(payload)

    def _fast() -> None:
        for _ in range(_MAILBOX_BATCH):
            freeze_payload(payload)

    frozen = freeze_payload(payload)
    copied = copy_payload(payload)
    verified = (
        np.array_equal(frozen["targets"], payload["targets"])
        and not frozen["targets"].flags.writeable
        and np.array_equal(copied["targets"], payload["targets"])
        and copied["targets"] is not payload["targets"]
    )
    mbytes = payload["targets"].nbytes / 1e6
    return {
        **_time_pairs(_ref, _fast, config.repeats),
        "verified": bool(verified),
        "detail": f"{_MAILBOX_BATCH}× transfer of a {mbytes:.1f} MB payload",
    }


def run_microbench(config: MicrobenchConfig, date: str) -> dict[str, Any]:
    """Run every kernel in :data:`KERNELS` and return the artifact
    document."""
    scene = make_wtc_scene(config.scene_config())
    cube = np.asarray(scene.image.values, dtype=float)
    pix = scene.image.flatten_pixels()
    runners: dict[str, Callable[[], dict[str, Any]]] = {
        "atdca": lambda: _bench_atdca(config, pix),
        "ufcls": lambda: _bench_ufcls(
            config, pix[: max(config.ufcls_pixels, config.n_targets + 1)]
        ),
        "mei_map": lambda: _bench_mei_map(config, cube),
        "unique": lambda: _bench_unique(
            config, pix[: max(config.unique_pixels, 1)]
        ),
        "mailbox": lambda: _bench_mailbox(config, cube),
    }
    return {
        "schema": MICRO_SCHEMA,
        "date": date,
        "config": config.to_dict(),
        "kernels": {name: runners[name]() for name in KERNELS},
    }


def gate_microbench(
    artifact: Mapping[str, Any], floors: Mapping[str, Any]
) -> list[str]:
    """Check measured speedups against the committed floors.

    Returns a list of failure descriptions (empty = gate passes).  Each
    floor names a kernel and the minimum acceptable reference/fast
    ratio; kernels must also have ``verified`` agreement between the two
    implementations.  Floors for kernels the artifact did not run fail —
    a gate that silently skips its subject gates nothing.
    """
    if floors.get("schema") != FLOORS_SCHEMA:
        raise ReproError(
            f"unsupported floors schema {floors.get('schema')!r} "
            f"(expected {FLOORS_SCHEMA!r})"
        )
    if artifact.get("schema") != MICRO_SCHEMA:
        raise ReproError(
            f"unsupported microbench schema {artifact.get('schema')!r} "
            f"(expected {MICRO_SCHEMA!r})"
        )
    cells = artifact.get("kernels", {})
    failures: list[str] = []
    for kernel, floor in sorted(floors.get("floors", {}).items()):
        cell = cells.get(kernel)
        if cell is None:
            failures.append(f"{kernel}: not measured (floor {floor}x)")
            continue
        if not cell.get("verified", False):
            failures.append(
                f"{kernel}: fast path disagrees with reference output"
            )
            continue
        speedup = float(cell["speedup"])
        if speedup < float(floor):
            failures.append(
                f"{kernel}: speedup {speedup:.2f}x below floor {floor}x "
                f"(reference {cell['reference_s']:.4f}s, "
                f"fast {cell['fast_s']:.4f}s)"
            )
    return failures


def microbench_report(artifact: Mapping[str, Any]) -> str:
    """Render a microbench artifact as a monospace table."""
    from repro.perf.report import format_table

    rows = []
    for kernel in sorted(artifact.get("kernels", {})):
        cell = artifact["kernels"][kernel]
        rows.append([
            kernel,
            cell["reference_s"],
            cell["fast_s"],
            cell["speedup"],
            "yes" if cell.get("verified") else "NO",
            cell.get("detail", ""),
        ])
    headers = ["kernel", "reference (s)", "fast (s)", "speedup", "verified",
               "detail"]
    return format_table(
        headers, rows,
        title=f"kernel microbenchmarks {artifact.get('date', '?')} "
              f"({artifact.get('schema')})",
        precision=4,
    )
