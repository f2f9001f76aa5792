"""Hyperspectral imaging substrate: cubes, spectra, scenes, metrics."""

from repro.hsi.cube import HyperspectralImage
from repro.hsi.dimensionality import (
    VirtualDimensionalityResult,
    hfc_virtual_dimensionality,
)
from repro.hsi.evaluation import (
    ClassificationScore,
    majority_mapping,
    score_classification,
)
from repro.hsi.groundtruth import UNLABELLED, SceneGroundTruth, TargetSpot
from repro.hsi.metrics import (
    confusion_matrix,
    match_targets,
    overall_accuracy,
    per_class_accuracy,
    sad,
    sad_pairwise,
    sad_to_references,
)
from repro.hsi.noise import NoiseModel, add_sensor_noise, aviris_snr_profile
from repro.hsi.scene import (
    DEBRIS_CLASS_NAMES,
    SceneConfig,
    WTCScene,
    make_wtc_scene,
)
from repro.hsi.spectra import (
    AVIRIS_NUM_BANDS,
    AVIRIS_RANGE_UM,
    WTC_HOTSPOT_TEMPS_F,
    Signature,
    SpectralLibrary,
    aviris_wavelengths,
    blackbody_radiance,
    build_wtc_library,
    fahrenheit_to_kelvin,
    thermal_signature,
)

__all__ = [
    "AVIRIS_NUM_BANDS",
    "AVIRIS_RANGE_UM",
    "ClassificationScore",
    "DEBRIS_CLASS_NAMES",
    "majority_mapping",
    "score_classification",
    "HyperspectralImage",
    "NoiseModel",
    "SceneConfig",
    "SceneGroundTruth",
    "Signature",
    "SpectralLibrary",
    "TargetSpot",
    "UNLABELLED",
    "VirtualDimensionalityResult",
    "WTCScene",
    "WTC_HOTSPOT_TEMPS_F",
    "add_sensor_noise",
    "aviris_snr_profile",
    "aviris_wavelengths",
    "blackbody_radiance",
    "build_wtc_library",
    "confusion_matrix",
    "fahrenheit_to_kelvin",
    "hfc_virtual_dimensionality",
    "make_wtc_scene",
    "match_targets",
    "overall_accuracy",
    "per_class_accuracy",
    "sad",
    "sad_pairwise",
    "sad_to_references",
    "thermal_signature",
]
