"""Level-to-knots maps: how many univariate nodes a discretization level gets."""

from __future__ import annotations

import enum

import numpy as np

__all__ = ["LevelMap", "apply_level_map"]

_GK_COUNTS = np.array([0, 1, 3, 9, 19, 35])


class LevelMap(str, enum.Enum):
    """Strictly increasing maps from level (>= 1) to node count.

    ``GK`` is defined only for levels 1..5.  Level 0 maps to 0 for every
    kind; the difference m(i) - m(i-1) then counts new nodes at the first
    level too.
    """

    LINEAR = "linear"
    TWO_STEP = "two_step"
    DOUBLING = "doubling"
    TRIPLING = "tripling"
    GK = "gk"


class UnsupportedLevelError(ValueError):
    pass


# the highest level of each map whose node count int64 holds (GK: its table)
_MAX_LEVEL = {LevelMap.LINEAR: 2**63 - 1, LevelMap.TWO_STEP: 2**62, LevelMap.DOUBLING: 63,
              LevelMap.TRIPLING: 40, LevelMap.GK: len(_GK_COUNTS) - 1}


def apply_level_map(level_map: LevelMap, level):
    """Node count of ``level``: an int for an int, an int64 array of the
    same shape for an integer array, entry by entry."""
    m = level_map if isinstance(level_map, LevelMap) else LevelMap(level_map)
    arr = np.asarray(level)
    if arr.dtype.kind not in "iu":
        raise TypeError(f"levels must be integers, got {level!r}")
    if arr.size and arr.min() < 0:
        raise UnsupportedLevelError("level must be >= 0")
    if arr.size and arr.max() > _MAX_LEVEL[m]:
        raise UnsupportedLevelError(f"{m.value} level map is defined only up to level "
                                    f"{_MAX_LEVEL[m]}")
    v = np.maximum(arr.astype(np.int64), 1)  # the formulas hold from level 1
    if m is LevelMap.LINEAR:
        out = v
    elif m is LevelMap.TWO_STEP:
        out = 2 * v - 1
    elif m is LevelMap.DOUBLING:
        out = (1 << (v - 1)) + (v > 1)
    elif m is LevelMap.TRIPLING:
        out = 3 ** (v - 1)
    else:
        out = _GK_COUNTS[v]
    out = np.where(arr > 0, out, 0)
    return int(out) if out.ndim == 0 else out
