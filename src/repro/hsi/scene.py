"""Procedural generator for a WTC-like hyperspectral scene.

The real experiment data — the AVIRIS flight line over lower Manhattan
of 2001-09-16 (2133×512 pixels × 224 bands) — cannot be shipped, so we
synthesize a scene with the same *structure*: rivers flanking a street
grid of concrete/cement/asphalt city blocks, a vegetated park, a
dust/debris plume centred on the WTC site with the USGS debris classes,
a smoke plume drifting south, and seven thermal hot spots ('A'–'G',
700–1300 °F) at known positions.  Every pixel is a linear mixture of
library signatures plus AVIRIS-shaped sensor noise, and the generator
returns exact ground truth for both experiments (Tables 3 and 4).

The default size is laptop-scale; pass the paper's full 2133×512×224 to
:func:`make_wtc_scene` if you have the memory (~2 GB as float64).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import ConfigurationError
from repro.hsi.cube import HyperspectralImage
from repro.hsi.groundtruth import UNLABELLED, SceneGroundTruth, TargetSpot
from repro.hsi.noise import NoiseModel
from repro.hsi.spectra import (
    WTC_HOTSPOT_TEMPS_F,
    SpectralLibrary,
    build_wtc_library,
)
from repro.types import FloatArray, IntArray

__all__ = ["SceneConfig", "WTCScene", "make_wtc_scene", "DEBRIS_CLASS_NAMES"]

#: The seven USGS dust/debris classes of Table 4, in the paper's order.
DEBRIS_CLASS_NAMES: tuple[str, ...] = (
    "concrete_wtc01_37b",
    "concrete_wtc01_37am",
    "cement_wtc01_37a",
    "dust_wtc01_15",
    "dust_wtc01_28",
    "dust_wtc01_36",
    "gypsum_wallboard",
)

_BACKGROUND_NAMES = ("vegetation", "water", "asphalt", "smoke_plume", "soil")


@dataclasses.dataclass(frozen=True)
class SceneConfig:
    """Parameters of the synthetic WTC scene.

    Attributes:
        rows, cols: spatial dimensions (paper: 2133 × 512).
        bands: spectral channels (paper/AVIRIS: 224).
        seed: RNG seed controlling layout noise and sensor noise
            (non-negative, as numpy requires).
        noise_snr_scale: multiply the AVIRIS SNR profile (≥1 → cleaner).
        hotspot_brightness: radiometric scale of the *hottest* fire
            pixel relative to reflective materials; >1 makes it the
            scene's brightest pixel, as ATDCA's seeding step assumes.
            Cooler spots dim steeply (∝ T^2.4, Wien-like), which is what
            makes the coolest spot hard for error-driven UFCLS while
            direction-driven ATDCA still separates it — the paper's
            Table 3 failure mode.
        dust_plume_radius: plume extent as a fraction of scene diagonal.
        label_threshold: minimum debris abundance for a pixel to carry a
            class label in the ground truth.
    """

    rows: int = 96
    cols: int = 64
    bands: int = 48
    seed: int = 7
    noise_snr_scale: float = 1.0
    hotspot_brightness: float = 4.0
    dust_plume_radius: float = 0.22
    label_threshold: float = 0.55

    def __post_init__(self) -> None:
        if self.rows < 32 or self.cols < 8:
            raise ConfigurationError(
                f"scene must be at least 32x8, got {self.rows}x{self.cols}"
            )
        if self.bands < 8:
            raise ConfigurationError(f"need >= 8 bands, got {self.bands}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if self.noise_snr_scale <= 0 or self.hotspot_brightness <= 0:
            raise ConfigurationError("scale factors must be positive")
        if not 0 < self.label_threshold < 1:
            raise ConfigurationError("label_threshold must be in (0, 1)")


@dataclasses.dataclass(frozen=True)
class WTCScene:
    """The generated scene bundle: image + library + exact ground truth.

    Attributes:
        image: the noisy mixed cube, BIP layout.
        library: the spectral library used for mixing.
        truth: hot spots and class map (see :class:`SceneGroundTruth`).
        abundances: ``(rows, cols, n_endmembers)`` true mixing fractions
            over ``endmember_names`` (reflective members only).
        endmember_names: order of the abundance axis.
        config: the generating configuration.
    """

    image: HyperspectralImage
    library: SpectralLibrary
    truth: SceneGroundTruth
    abundances: FloatArray
    endmember_names: tuple[str, ...]
    config: SceneConfig

    @property
    def class_names(self) -> list[str]:
        return self.truth.class_names


def _block_ids(rows: int, cols: int, block: int, rng: np.random.Generator) -> IntArray:
    """Assign each pixel a pseudo-random 'city block' id on a grid."""
    br = np.arange(rows) // block
    bc = np.arange(cols) // block
    ids = br[:, None] * (cols // block + 2) + bc[None, :]
    # Permute block ids so neighbouring blocks get unrelated materials.
    perm = rng.permutation(int(ids.max()) + 1)
    return perm[ids]


def _radial_falloff(
    rows: int, cols: int, center: tuple[float, float], radius: float
) -> FloatArray:
    """Smooth [0, 1] bump centred at ``center`` with the given radius."""
    r = np.arange(rows)[:, None] - center[0]
    c = np.arange(cols)[None, :] - center[1]
    dist = np.sqrt(r * r + c * c)
    return np.exp(-0.5 * (dist / max(radius, 1e-9)) ** 2)


def make_wtc_scene(config: SceneConfig | None = None) -> WTCScene:
    """Generate the synthetic WTC scene.

    Deterministic for a fixed :class:`SceneConfig` (including seed).

    Returns:
        A :class:`WTCScene` whose ground truth contains the seven hot
        spots of Table 3 and the seven debris classes of Table 4.
    """
    cfg = config or SceneConfig()
    rng = np.random.default_rng(cfg.seed)
    rows, cols, bands = cfg.rows, cfg.cols, cfg.bands

    library = build_wtc_library(bands)
    reflective = list(library.reflective_names())
    name_to_idx = {name: i for i, name in enumerate(reflective)}
    n_end = len(reflective)

    # ---- background layout ---------------------------------------------------
    abundance = np.zeros((rows, cols, n_end), dtype=float)

    # Rivers: left and right strips (Hudson / East River).
    water_width = max(3, cols // 10)
    water_mask = np.zeros((rows, cols), dtype=bool)
    water_mask[:, :water_width] = True
    water_mask[:, cols - water_width:] = True

    # Park: a block in the southern quarter (Battery Park).
    park_mask = np.zeros((rows, cols), dtype=bool)
    park_mask[
        int(rows * 0.82): int(rows * 0.95),
        int(cols * 0.30): int(cols * 0.55),
    ] = True
    park_mask &= ~water_mask

    # Street grid: thin asphalt lines every ``block`` pixels.
    block = max(6, min(rows, cols) // 16)
    street_mask = np.zeros((rows, cols), dtype=bool)
    street_mask[::block, :] = True
    street_mask[:, ::block] = True
    street_mask &= ~(water_mask | park_mask)

    # City blocks: the remainder, assigned one dominant urban material each.
    urban_mask = ~(water_mask | park_mask | street_mask)
    ids = _block_ids(rows, cols, block, rng)
    urban_choices = [
        "concrete_wtc01_37b",
        "concrete_wtc01_37am",
        "cement_wtc01_37a",
        "asphalt",
        "soil",
    ]
    block_material = rng.integers(0, len(urban_choices), size=int(ids.max()) + 1)

    abundance[water_mask, name_to_idx["water"]] = 1.0
    abundance[park_mask, name_to_idx["vegetation"]] = 1.0
    abundance[street_mask, name_to_idx["asphalt"]] = 1.0
    for mat_idx, mat_name in enumerate(urban_choices):
        mask = urban_mask & (block_material[ids] == mat_idx)
        abundance[mask, name_to_idx[mat_name]] = 1.0

    # ---- WTC site: dust plume, gypsum patches, smoke ---------------------------
    site = (rows * 0.28, cols * 0.42)  # the collapse site
    diag = float(np.hypot(rows, cols))
    # Saturating the falloff gives each deposit lobe a *pure* core —
    # debris abundance 1.0 over a real area, as thick deposits are —
    # which is what endmember-extraction algorithms need to exist.
    plume = np.clip(
        1.8 * _radial_falloff(rows, cols, site, cfg.dust_plume_radius * diag),
        0.0, 1.0,
    )
    plume *= ~water_mask  # dust does not accumulate on open water

    # Split the plume among the dust/debris classes by angular sector around
    # the site, mimicking the lobed deposit pattern of the USGS map.
    r = np.arange(rows)[:, None] - site[0]
    c = np.arange(cols)[None, :] - site[1]
    angle = np.arctan2(r, c)  # [-pi, pi]
    sector = ((angle + np.pi) / (2 * np.pi) * len(DEBRIS_CLASS_NAMES)).astype(int)
    sector = np.clip(sector, 0, len(DEBRIS_CLASS_NAMES) - 1)
    # Jitter sector borders so classes interleave like real deposits.
    sector = (sector + (rng.random((rows, cols)) < 0.12).astype(int)) % len(
        DEBRIS_CLASS_NAMES
    )

    for class_idx, class_name in enumerate(DEBRIS_CLASS_NAMES):
        weight = plume * (sector == class_idx)
        idx = name_to_idx[class_name]
        abundance *= (1.0 - weight)[:, :, None]
        abundance[:, :, idx] += weight

    # Smoke plume: an elongated lobe south of the site (toward Battery Park).
    smoke = np.zeros((rows, cols))
    length = int(rows * 0.45)
    for step in range(length):
        centre = (site[0] + step, site[1] - step * 0.12)
        if centre[0] >= rows:
            break
        smoke += 0.9 * _radial_falloff(
            rows, cols, centre, max(2.0, cols * 0.05)
        ) * (1.0 - step / length)
    smoke = np.clip(smoke, 0.0, 0.85)
    abundance *= (1.0 - smoke)[:, :, None]
    abundance[:, :, name_to_idx["smoke_plume"]] += smoke

    # Normalize mixing fractions (guard against all-zero pixels).
    totals = abundance.sum(axis=2, keepdims=True)
    totals[totals <= 0] = 1.0
    abundance /= totals

    # ---- linear mixing -----------------------------------------------------------
    endmembers = library.to_matrix(reflective)  # (n_end, bands)
    cube = abundance.reshape(-1, n_end) @ endmembers
    cube = cube.reshape(rows, cols, bands)

    # ---- thermal hot spots ----------------------------------------------------------
    targets: dict[str, TargetSpot] = {}
    offsets = [(-2, -3), (-1, 2), (0, -1), (1, 3), (2, 0), (3, -2), (-3, 1)]
    for (label, temp_f), (dr, dc) in zip(sorted(WTC_HOTSPOT_TEMPS_F.items()), offsets):
        rr = int(np.clip(site[0] + dr * max(1, rows // 48), 0, rows - 1))
        cc = int(np.clip(site[1] + dc * max(1, cols // 48), 0, cols - 1))
        signature = library[f"hotspot_{label.lower()}"].values
        # Radiometric scale rises steeply with temperature (Wien-like):
        # the hottest spot is the scene's brightest pixel while the
        # coolest sits near background magnitude — dim enough to defeat
        # magnitude-driven UFCLS but not direction-driven ATDCA.
        scale = cfg.hotspot_brightness * (temp_f / 1300.0) ** 3.6
        cube[rr, cc] = 0.15 * cube[rr, cc] + scale * signature
        targets[label] = TargetSpot(
            label=label, row=rr, col=cc, temperature_f=temp_f,
            signature=cube[rr, cc].copy(),
        )

    # ---- sensor noise --------------------------------------------------------------
    noise = NoiseModel(
        library.wavelengths,
        vnir_snr=500.0 * cfg.noise_snr_scale,
        swir_snr=100.0 * cfg.noise_snr_scale,
        water_band_snr=10.0 * cfg.noise_snr_scale,
    )
    cube = noise.apply(cube, rng)
    np.clip(cube, 0.0, None, out=cube)
    # Refresh target signatures to their noisy, as-observed values: Table 3
    # scores detected pixels against "pixel vectors at the known target
    # positions", i.e. observed data, not the clean library entries.
    for label, spot in list(targets.items()):
        targets[label] = dataclasses.replace(
            spot, signature=cube[spot.row, spot.col].copy()
        )

    # ---- ground-truth class map ----------------------------------------------------
    debris_idx = np.array([name_to_idx[name] for name in DEBRIS_CLASS_NAMES])
    debris_ab = abundance[:, :, debris_idx]
    dominant = np.argmax(debris_ab, axis=2)
    strength = np.take_along_axis(debris_ab, dominant[:, :, None], axis=2)[:, :, 0]
    class_map = np.where(
        strength >= cfg.label_threshold, dominant, UNLABELLED
    ).astype(np.int32)
    # Hot-spot pixels are targets, not debris samples; unlabel them.
    for spot in targets.values():
        class_map[spot.row, spot.col] = UNLABELLED

    truth = SceneGroundTruth(
        targets=targets,
        class_map=class_map,
        class_names=list(DEBRIS_CLASS_NAMES),
    )
    image = HyperspectralImage(cube, wavelengths=library.wavelengths)
    return WTCScene(
        image=image,
        library=library,
        truth=truth,
        abundances=abundance,
        endmember_names=tuple(reflective),
        config=cfg,
    )
