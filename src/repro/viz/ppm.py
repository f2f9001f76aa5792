"""Minimal binary PPM image writer (no external imaging deps)."""

from __future__ import annotations

import os

import numpy as np

from repro.errors import DataError, ShapeError
from repro.types import IntArray

__all__ = ["write_ppm"]


def _as_uint8(arr: np.ndarray, name: str) -> np.ndarray:
    a = np.asarray(arr)
    if a.dtype != np.uint8:
        if np.issubdtype(a.dtype, np.floating):
            if a.min(initial=0) < 0 or a.max(initial=0) > 1:
                raise DataError(
                    f"float {name} must be in [0, 1] to convert to uint8"
                )
            a = (a * 255.0 + 0.5).astype(np.uint8)
        elif np.issubdtype(a.dtype, np.integer):
            if a.min(initial=0) < 0 or a.max(initial=0) > 255:
                raise DataError(f"integer {name} must be in [0, 255]")
            a = a.astype(np.uint8)
        else:
            raise DataError(f"unsupported {name} dtype {a.dtype}")
    return a


def write_ppm(path: str | os.PathLike, rgb: IntArray) -> None:
    """Write an ``(rows, cols, 3)`` image as binary PPM (P6).

    Accepts uint8, [0, 255] integers, or [0, 1] floats.
    """
    img = _as_uint8(rgb, "rgb")
    if img.ndim != 3 or img.shape[2] != 3:
        raise ShapeError(f"expected (rows, cols, 3), got {img.shape}")
    rows, cols, _ = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{cols} {rows}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(img).tobytes())
