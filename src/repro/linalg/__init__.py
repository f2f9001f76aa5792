"""Numerical kernels: OSP projection, constrained unmixing, PCT."""

from repro.linalg.fcls import fcls_abundances, reconstruction_error
from repro.linalg.osp import (
    brightest_pixel_index,
    orthonormal_basis,
    osp_projector,
    projected_energy,
    residual_energy,
)
from repro.linalg.pca import (
    apply_pct,
    combine_covariance_sums,
    covariance_matrix,
    mean_vector,
    partial_covariance_sums,
    pct_transform,
)

__all__ = [
    "apply_pct",
    "brightest_pixel_index",
    "combine_covariance_sums",
    "covariance_matrix",
    "fcls_abundances",
    "mean_vector",
    "orthonormal_basis",
    "osp_projector",
    "partial_covariance_sums",
    "pct_transform",
    "projected_energy",
    "reconstruction_error",
    "residual_energy",
]
