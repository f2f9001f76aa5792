"""Per-kernel wall-time microbenchmarks for the fast-path layer.

``python -m repro bench microbench`` enumerates, for every hot
kernel, **all** variants registered in
:mod:`repro.tuning.registry` — the scratch reference and each fast
path — times them in the same process on the same data, and records the
measured **speedup ratio** — fast-path gains expressed
machine-portably, so the committed floor file gates on "is the
incremental update still ≥3× the scratch rebuild" rather than on
absolute seconds that vary per runner.

Kernels measured (registry kernel → driving loop):

* ``atdca`` — ``osp_step`` variants driven through the full ATDCA
  target loop (:func:`~repro.core.atdca.atdca_pixels`).
* ``ufcls`` — ``fcls_solve`` variants driven through the UFCLS loop
  (:func:`~repro.core.ufcls.ufcls_pixels`).
* ``mei_map`` — ``morph_mei`` variants on a raw cube.
* ``unique`` — ``unique_filter`` variants on a flat candidate pool.
* ``mailbox`` — bespoke (not registry-dispatched): deep
  :func:`~repro.cluster.mailbox.copy_payload` vs the zero-copy
  read-only views of :func:`~repro.cluster.mailbox.freeze_payload`.

Every registry variant is cross-checked against the reference per its
registered exactness class (identical target picks / bit-identical
arrays); a disagreement marks the cell unverified and fails the gate —
a speedup that changes answers is a bug, not a win.  Each cell's
``variants`` sub-dict carries every variant's time, so the planner's
choice (:func:`repro.tuning.planner.choose_kernel_variants`) can be
checked against the measured winner; the top-level
``reference_s``/``fast_s``/``speedup`` keys summarize reference vs the
registry default and keep the floor gate stable.

The default scale fits CI; paper scale (614×512×224, the AVIRIS World
Trade Center cube) is one flag away::

    python -m repro bench microbench --gate
    python -m repro bench microbench --paper-scale --out micro.json

Paper scale allocates the full float64 cube (~563 MB, peak ~2 GB in the
reference MEI pass) — check available memory first.
"""

from __future__ import annotations

import dataclasses
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
    #: Five samples feed three sliding 3-medians per timing (the floor
    #: gate's jitter guard); below 3 the estimator is a plain minimum.
    repeats: int = 5
    #: Pixel subset for the ufcls kernel only.  Both variants spend
    #: nearly all their time in the one active-set refinement they share
    #: (``linalg.fcls._active_set_refine``; the fast path saves only the
    #: Gram inverse and the cross-products), so the ratio sits near 1 at
    #: any size and cannot see a change to that kernel — the number that
    #: does is ``linalg.fcls_px_per_s`` in ``benchmarks/wall``.  At 30
    #: targets a sample costs ~1.5 s on 512 pixels and ~8 s on the full
    #: 6144-pixel frame.
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


def _time_best(fn: Callable[[], Any], repeats: int) -> float:
    """Jitter-guarded wall-time estimator: best of sliding 3-medians.

    Collects ``repeats`` samples, takes the median of each run of three
    consecutive samples, and returns the smallest median.  A median
    discards one outlier (GC pause, CPU-frequency ramp, noisy
    neighbour) inside its window, and the min across windows picks the
    least-contaminated stretch — so a single wild sample can no longer
    move the value compared against the committed floors, unlike the
    plain best-of-N both sides used before.  With fewer than three
    samples the estimator degrades to the plain minimum.
    """
    samples: list[float] = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    if len(samples) < 3:
        return min(samples)
    return min(
        sorted(samples[i:i + 3])[1] for i in range(len(samples) - 2)
    )


def _registry_cell(
    kernel: str,
    run: Callable[[str], Any],
    agree: Callable[[Any, Any], bool],
    detail: str,
    repeats: int,
) -> dict[str, Any]:
    """Time every registered variant of ``kernel`` through ``run``.

    ``run(variant_name)`` drives the kernel end to end; ``agree``
    compares a variant's output to the reference's.  The returned cell
    keeps the historical ``reference_s``/``fast_s``/``verified`` keys
    (fast = the registry default, so the floor gate stays comparable
    across the registry refactor) and adds a
    ``variants`` sub-dict with every variant's time, agreement, and
    registered exactness class.
    """
    from repro.tuning.registry import default_variant, variants_of

    ref_out = run("reference")
    variants: dict[str, dict[str, Any]] = {}
    for variant in variants_of(kernel):
        out = run(variant.name)
        verified = (
            variant.name == "reference" or bool(agree(ref_out, out))
        )
        variants[variant.name] = {
            "time_s": _time_best(
                lambda name=variant.name: run(name), repeats
            ),
            "verified": verified,
            "exactness": variant.exactness,
        }
    fast_name = default_variant(kernel).name
    return {
        "reference_s": variants["reference"]["time_s"],
        "fast_s": variants[fast_name]["time_s"],
        "verified": all(v["verified"] for v in variants.values()),
        "detail": detail,
        "registry_kernel": kernel,
        "fast_variant": fast_name,
        "variants": variants,
    }


def _picks_equal(ref: IntArray, out: IntArray) -> bool:
    return bool(np.array_equal(ref, out))


def _bench_atdca(config: MicrobenchConfig, pix: FloatArray) -> dict[str, Any]:
    from repro.core.atdca import atdca_pixels

    t = config.n_targets
    return _registry_cell(
        "osp_step",
        lambda name: atdca_pixels(pix, t, osp_variant=name).flat_indices,
        _picks_equal,
        f"t={t} targets, {pix.shape[0]} pixels × {pix.shape[1]} bands",
        config.repeats,
    )


def _bench_ufcls(config: MicrobenchConfig, pix: FloatArray) -> dict[str, Any]:
    from repro.core.ufcls import ufcls_pixels

    t = config.n_targets
    return _registry_cell(
        "fcls_solve",
        lambda name: ufcls_pixels(pix, t, fcls_variant=name).flat_indices,
        _picks_equal,
        f"t={t} targets, {pix.shape[0]} pixels × {pix.shape[1]} bands",
        config.repeats,
    )


def _bench_mei_map(config: MicrobenchConfig, cube: FloatArray) -> dict[str, Any]:
    from repro.morphology.structuring import square
    from repro.tuning.registry import resolve

    se = square(3)
    it = config.morph_iterations
    return _registry_cell(
        "morph_mei",
        lambda name: resolve("morph_mei", name).implementation()(
            cube, se, it
        ),
        lambda ref, out: bool(np.array_equal(ref, out)),
        f"I_max={it}, 3×3 SE, "
        f"{cube.shape[0]}×{cube.shape[1]}×{cube.shape[2]} cube",
        config.repeats,
    )


def _bench_unique(config: MicrobenchConfig, pix: FloatArray) -> dict[str, Any]:
    from repro.tuning.registry import resolve

    thr = config.unique_threshold
    return _registry_cell(
        "unique_filter",
        lambda name: resolve("unique_filter", name).implementation()(
            pix, thr
        ),
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
        "reference_s": _time_best(_ref, config.repeats),
        "fast_s": _time_best(_fast, config.repeats),
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
    kernels: dict[str, dict[str, Any]] = {}
    for name in KERNELS:
        cell = runners[name]()
        cell["speedup"] = (
            cell["reference_s"] / cell["fast_s"] if cell["fast_s"] > 0
            else float("inf")
        )
        kernels[name] = cell
    return {
        "schema": MICRO_SCHEMA,
        "date": date,
        "config": config.to_dict(),
        "kernels": kernels,
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
