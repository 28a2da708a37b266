"""Level-to-knots maps: how many univariate nodes a discretization level gets."""

from __future__ import annotations

import enum

__all__ = ["LevelMap", "apply_level_map"]

_GK_COUNTS = (1, 3, 9, 19, 35)


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


def apply_level_map(level_map: LevelMap, level: int) -> int:
    if level < 0:
        raise UnsupportedLevelError("level must be >= 0")
    if level == 0:
        return 0
    m = level_map if isinstance(level_map, LevelMap) else LevelMap(level_map)
    if m is LevelMap.LINEAR:
        return level
    if m is LevelMap.TWO_STEP:
        return 2 * (level - 1) + 1
    if m is LevelMap.DOUBLING:
        return 1 if level == 1 else 2 ** (level - 1) + 1
    if m is LevelMap.TRIPLING:
        return 3 ** (level - 1)
    if level > len(_GK_COUNTS):
        raise UnsupportedLevelError(f"gk level map is defined only up to level {len(_GK_COUNTS)}")
    return _GK_COUNTS[level - 1]
