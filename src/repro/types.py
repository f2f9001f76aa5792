"""Shared type aliases and small value types used across subsystems."""

from __future__ import annotations

import enum
from typing import Sequence, Union

import numpy as np
import numpy.typing as npt

__all__ = [
    "FloatArray",
    "IntArray",
    "BoolArray",
    "ArrayLike",
    "Seconds",
    "Megaflops",
    "Megabits",
    "Interleave",
    "PixelIndex",
    "BLOCK_BYTES",
]

#: A floating point ndarray (any shape).
FloatArray = npt.NDArray[np.floating]
#: An integer ndarray (any shape).
IntArray = npt.NDArray[np.integer]
#: A boolean ndarray (any shape).
BoolArray = npt.NDArray[np.bool_]
#: Anything convertible to an ndarray.
ArrayLike = Union[npt.ArrayLike, Sequence[float]]

#: Virtual or wall-clock time, in seconds.
Seconds = float
#: Work measured in millions of floating point operations.
Megaflops = float
#: Message volume measured in megabits (the unit of Table 2 capacities).
Megabits = float

#: A (row, col) pixel coordinate in a hyperspectral scene.
PixelIndex = tuple[int, int]

#: Bytes a kernel's temporary block may take (FCLS refinement rounds,
#: MORPH pair gathers): glibc's default mmap threshold.  A temporary
#: under it never moves the threshold; a freed chunk over it raises the
#: threshold, and the trim threshold to twice that, for every thread, so
#: each rank thread's malloc arena then keeps what it frees up to there.
BLOCK_BYTES = 128 * 1024


class Interleave(enum.Enum):
    """Band-interleave layouts used by hyperspectral container formats.

    These mirror the ENVI ``interleave`` keyword:

    * ``BSQ`` — band sequential, shape ``(bands, rows, cols)``;
    * ``BIL`` — band interleaved by line, shape ``(rows, bands, cols)``;
    * ``BIP`` — band interleaved by pixel, shape ``(rows, cols, bands)``.
    """

    BSQ = "bsq"
    BIL = "bil"
    BIP = "bip"

    @classmethod
    def parse(cls, value: "str | Interleave") -> "Interleave":
        """Return the member for ``value``, accepting strings case-insensitively."""
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).strip().lower())
        except ValueError as exc:
            raise ValueError(
                f"unknown interleave {value!r}; expected one of "
                f"{[m.value for m in cls]}"
            ) from exc
