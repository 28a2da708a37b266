"""Multi-index sets, margins, and combination-technique coefficients."""

from __future__ import annotations

import itertools
import math
import operator
from typing import Callable, Iterable, Iterator

import numpy as np

from .levels import LevelMap

__all__ = [
    "MultiIndexSet",
    "generate_rule_set",
    "box_set",
    "fast_td_set",
    "preset",
    "is_downward_closed",
    "reduced_margin",
    "combination_coefficients",
]


class ClosureError(ValueError):
    """Operation requires a downward-closed multi-index set."""


def _index_row(r) -> tuple[int, ...]:
    """One multi-index as ints; a non-integer entry (1.7, nan, inf) raises."""
    try:
        return tuple(map(operator.index, r))
    except TypeError:
        if not all(float(v).is_integer() for v in r):
            plain = [v.item() if isinstance(v, np.generic) else v for v in r]
            raise ValueError(f"multi-index {plain} has a non-integer entry") from None
        return tuple(int(v) for v in r)


def _index_matrix(rows, dim: int | None) -> np.ndarray:
    """``rows`` as an (n, d) integer matrix, d = ``dim`` if given: a 2D
    ndarray whose values int64 holds exactly (any signed or shorter
    unsigned integer type) as it is, anything else one ``_index_row`` per
    row."""
    if isinstance(rows, np.ndarray) and rows.ndim == 2 and np.can_cast(rows.dtype, np.int64):
        arr = rows
    else:
        rows = [_index_row(r) for r in rows]
        if not rows and dim is None:
            raise ValueError("cannot infer dim of an empty set")
        if any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("rows of mixed length")
        arr = np.array(rows, dtype=np.int64).reshape(len(rows), len(rows[0]) if rows else dim)
    if dim is not None and dim != arr.shape[1]:
        raise ValueError(f"rows have length {arr.shape[1]}, expected {dim}")
    return arr


class MultiIndexSet:
    """A lexicographically sorted set of integer multi-indices.

    Rows are stored as an immutable (n, dim) integer matrix; membership
    queries go through an internal set of tuples.  ``base`` records the
    smallest admissible entry (1 for collocation levels, 0 for polynomial
    degrees).  An (n, dim) integer ndarray is taken as it is; any other
    iterable of rows is read one row at a time.
    """

    __slots__ = ("_rows", "_members", "dim", "base")

    def __init__(self, rows: Iterable, dim: int | None = None, base: int = 1):
        arr = _index_matrix(rows, dim)
        self.dim = arr.shape[1]
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if base not in (0, 1):
            raise ValueError("base must be 0 or 1")
        if arr.size and arr.min() < base:
            raise ValueError(f"entries must be >= base ({base})")
        self.base = base
        arr = arr[np.lexsort(arr.T[::-1])].astype(np.int64, copy=False)
        if len(arr) > 1:  # drop each row equal to the one before it
            arr = arr[np.r_[True, (arr[1:] != arr[:-1]).any(axis=1)]]
        arr.flags.writeable = False
        self._rows = arr
        self._members = frozenset(map(tuple, arr.tolist()))

    @property
    def rows(self) -> np.ndarray:
        return self._rows

    def __len__(self) -> int:
        return self._rows.shape[0]

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return map(tuple, self._rows.tolist())

    def __contains__(self, idx) -> bool:
        return _index_row(idx) in self._members

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiIndexSet)
            and self.dim == other.dim
            and self._members == other._members
        )

    def __hash__(self):
        return hash((self.dim, self._members))

    def __repr__(self):
        return f"MultiIndexSet({self._rows.tolist()}, base={self.base})"

    def union(self, indices: Iterable) -> "MultiIndexSet":
        new = _index_matrix(indices, self.dim)
        return MultiIndexSet(np.concatenate([self._rows, new]), dim=self.dim, base=self.base)


def generate_rule_set(
    dim: int,
    rule: Callable[[tuple[int, ...]], float],
    level: float,
) -> MultiIndexSet:
    """All multi-indices with entries >= 1 satisfying rule(idx) <= level.

    ``rule`` must be non-decreasing in each argument and must stay above
    ``level`` when a prefix already is (it is called on partial prefixes
    during the recursive enumeration, mirroring anisotropic weight lookups
    that only consult the leading entries).
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rule((1,) * dim)  # a rule that cannot take dim entries fails here, not on a prefix
    rows: list[tuple[int, ...]] = []
    prefix: list[int] = []

    def descend():
        depth = len(prefix)
        i = 1
        while True:
            prefix.append(i)
            if rule(tuple(prefix)) > level:
                prefix.pop()
                break
            if depth + 1 == dim:
                rows.append(tuple(prefix))
            else:
                descend()
            prefix.pop()
            i += 1
            if i > 1_000_001:
                raise ValueError("rule admits too many levels in one dimension")

    descend()
    return MultiIndexSet(np.array(rows, dtype=np.int64).reshape(len(rows), dim), dim=dim)


def box_set(upper: Iterable[int]) -> MultiIndexSet:
    """The full box {idx : 1 <= idx <= upper}, sorted."""
    upper = [int(v) for v in upper]
    if any(v < 1 for v in upper):
        raise ValueError("box bounds must be >= 1")
    return MultiIndexSet(itertools.product(*[range(1, v + 1) for v in upper]), dim=len(upper))


def fast_td_set(dim: int, level: int) -> MultiIndexSet:
    """Total-degree set {idx >= 1 : sum(idx - 1) <= level}: the TD preset's
    rule set."""
    if dim < 1 or level < 0:
        raise ValueError("need dim >= 1 and level >= 0")
    return generate_rule_set(dim, preset("TD")[0], level)


_PRESETS = ("TP", "TD", "HC", "SM")


def preset(name: str, weights=None):
    """Named (rule, level map) pairs for the common constructions.

    TP: per-dimension maximum with linear map; TD: weighted sum of
    (i - 1) with linear map; HC: weighted product of i with linear map;
    SM: the TD rule with the doubling map.  ``weights`` are the
    anisotropy weights, one per dimension, defaulting to 1 in every
    dimension; only the leading entries are consulted for partial prefixes,
    and an index longer than the weight list raises a ValueError.
    """
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {_PRESETS}")
    if weights is not None:
        g = np.asarray(weights, dtype=float)
        for n, v in enumerate(g.tolist()):
            if not 0 < v < math.inf:  # others give the rule no usable level bound
                raise ValueError(f"anisotropy weight {n + 1} is {v!r}; weights must be "
                                 f"finite and > 0")

        def wof(idx):
            if len(idx) > g.size:
                raise ValueError(f"{g.size} anisotropy weights for a {len(idx)}-dimensional "
                                 f"index; give one weight per dimension")
            return g[: len(idx)]

    else:

        def wof(idx):
            return np.ones(len(idx))

    if name == "TP":
        rule = lambda idx: float(np.max(wof(idx) * (np.asarray(idx) - 1)))
    elif name in ("TD", "SM") and weights is None:
        # integer arithmetic is exact, so this is bitwise the weighted rule
        # at unit weights, without a numpy call per index
        rule = lambda idx: float(sum(idx) - len(idx))
    elif name in ("TD", "SM"):
        rule = lambda idx: float(np.sum(wof(idx) * (np.asarray(idx) - 1)))
    else:
        rule = lambda idx: float(np.prod(np.asarray(idx, dtype=float) ** wof(idx)))
    level_map = LevelMap.DOUBLING if name == "SM" else LevelMap.LINEAR
    return rule, level_map


def _forward_neighbours(idx: tuple[int, ...], dims: int) -> Iterator[tuple[int, ...]]:
    """idx + e_n for n < dims."""
    for n in range(dims):
        yield idx[:n] + (idx[n] + 1,) + idx[n + 1 :]


def _backward_closed(idx: tuple[int, ...], members, base: int = 1) -> bool:
    """True iff ``members`` (plain tuples) holds every idx - e_n with idx[n] > base."""
    return all(
        v == base or idx[:n] + (v - 1,) + idx[n + 1 :] in members
        for n, v in enumerate(idx)
    )


def _backward_neighbours(idx: tuple[int, ...], base: int) -> list[tuple[int, tuple[int, ...]]]:
    """(-1)**|j| and idx - j for each j in {0, 1}^d that keeps every entry
    >= base, in itertools.product order (idx itself, j = 0, first).

    Only dimensions with idx[n] > base can move, so a downward-closed set
    that holds idx holds every index yielded.  Each moving dimension, last
    first, doubles the list: its bumped copy goes after the unbumped one.
    """
    out = [(1, idx)]
    for n in reversed(range(len(idx))):
        if idx[n] > base:
            out += [(-sign, i[:n] + (i[n] - 1,) + i[n + 1 :]) for sign, i in out]
    return out


def _add_backward_terms(coeffs: dict, idx: tuple[int, ...], base: int) -> None:
    """Add the terms of ``idx`` to the combination coefficients ``coeffs``
    of a downward-closed set that holds it: (-1)**|j| at every idx - j."""
    for sign, neighbour in _backward_neighbours(idx, base):
        coeffs[neighbour] += sign


def is_downward_closed(index_set: MultiIndexSet) -> bool:
    """True iff every backward neighbor of every index is in the set."""
    members = index_set._members
    return all(_backward_closed(idx, members, index_set.base) for idx in members)


def reduced_margin(index_set: MultiIndexSet) -> MultiIndexSet:
    """Forward neighbors whose addition keeps the set downward closed."""
    if not is_downward_closed(index_set):
        raise ClosureError("reduced margin requires a downward-closed set")
    members = index_set._members
    out = {
        cand
        for idx in members
        for cand in _forward_neighbours(idx, index_set.dim)
        if cand not in members and _backward_closed(cand, members, index_set.base)
    }
    return MultiIndexSet(out, dim=index_set.dim, base=index_set.base)


def combination_coefficients(index_set: MultiIndexSet) -> dict[tuple[int, ...], int]:
    """Combination-technique coefficient of every index in the set.

    c[idx] = sum over binary offsets j with idx + j in the set of
    (-1)**|j|.  Indices with zero coefficient are kept in the mapping;
    callers filter.  The coefficients of any downward-closed set sum to 1.
    """
    if not is_downward_closed(index_set):
        raise ClosureError("combination coefficients require a downward-closed set")
    # i + j and i are both in the set exactly when the walk back from i + j
    # reaches i, so each index adds its own terms and no membership is tested
    coeffs = dict.fromkeys(index_set, 0)
    for idx in coeffs:
        _add_backward_terms(coeffs, idx, index_set.base)
    return coeffs
