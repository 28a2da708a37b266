"""Multi-index sets, margins, and combination-technique coefficients."""

from __future__ import annotations

import itertools
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


class MultiIndexSet:
    """A lexicographically sorted set of integer multi-indices.

    Rows are stored as an immutable (n, dim) integer matrix; membership
    queries go through an internal set of tuples.  ``base`` records the
    smallest admissible entry (1 for collocation levels, 0 for polynomial
    degrees).
    """

    __slots__ = ("_rows", "_members", "dim", "base")

    def __init__(self, rows: Iterable, dim: int | None = None, base: int = 1):
        rows = [tuple(int(v) for v in r) for r in rows]
        if not rows:
            if dim is None:
                raise ValueError("cannot infer dim of an empty set")
            self.dim = dim
        else:
            self.dim = len(rows[0])
            if any(len(r) != self.dim for r in rows):
                raise ValueError("rows of mixed length")
            if dim is not None and dim != self.dim:
                raise ValueError(f"rows have length {self.dim}, expected {dim}")
        if base not in (0, 1):
            raise ValueError("base must be 0 or 1")
        if any(v < base for r in rows for v in r):
            raise ValueError(f"entries must be >= base ({base})")
        self.base = base
        self._members = frozenset(rows)
        arr = np.array(sorted(self._members), dtype=np.int64)
        arr = arr.reshape(len(self._members), self.dim)
        arr.flags.writeable = False
        self._rows = arr

    @property
    def rows(self) -> np.ndarray:
        return self._rows

    def __len__(self) -> int:
        return self._rows.shape[0]

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return (tuple(int(v) for v in r) for r in self._rows)

    def __contains__(self, idx) -> bool:
        return tuple(int(v) for v in idx) in self._members

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
        extra = [tuple(int(v) for v in r) for r in indices]
        return MultiIndexSet(list(self._members) + extra, dim=self.dim, base=self.base)


def generate_rule_set(
    dim: int,
    rule: Callable[[tuple[int, ...]], float],
    level: float,
    base: int = 1,
) -> MultiIndexSet:
    """All multi-indices with entries >= base satisfying rule(idx) <= level.

    ``rule`` must be non-decreasing in each argument and must stay above
    ``level`` when a prefix already is (it is called on partial prefixes
    during the recursive enumeration, mirroring anisotropic weight lookups
    that only consult the leading entries).
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rows: list[tuple[int, ...]] = []
    prefix: list[int] = []

    def descend():
        depth = len(prefix)
        i = base
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
            if i - base > 1_000_000:
                raise ValueError("rule admits too many levels in one dimension")

    descend()
    return MultiIndexSet(rows, dim=dim, base=base)


def box_set(upper: Iterable[int]) -> MultiIndexSet:
    """The full box {idx : 1 <= idx <= upper}, sorted."""
    upper = [int(v) for v in upper]
    if any(v < 1 for v in upper):
        raise ValueError("box bounds must be >= 1")
    return MultiIndexSet(itertools.product(*[range(1, v + 1) for v in upper]), dim=len(upper))


def fast_td_set(dim: int, level: int) -> MultiIndexSet:
    """Total-degree set {idx >= 1 : sum(idx - 1) <= level} by direct
    enumeration (no rule callback)."""
    if dim < 1 or level < 0:
        raise ValueError("need dim >= 1 and level >= 0")
    rows: list[tuple[int, ...]] = []

    def build(prefix: list[int], remaining: int, depth: int):
        if depth == dim - 1:
            for j in range(remaining + 1):
                rows.append(tuple(prefix + [j + 1]))
            return
        for j in range(remaining + 1):
            build(prefix + [j + 1], remaining - j, depth + 1)

    build([], level, 0)
    return MultiIndexSet(rows, dim=dim)


_PRESETS = ("TP", "TD", "HC", "SM")


def preset(name: str, weights=None):
    """Named (rule, level map) pairs for the common constructions.

    TP: per-dimension maximum with linear map; TD: weighted sum of
    (i - 1) with linear map; HC: weighted product of i with linear map;
    SM: the TD rule with the doubling map.  ``weights`` are the
    anisotropy weights, defaulting to 1 in every dimension; only the
    leading entries are consulted for partial prefixes.
    """
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {_PRESETS}")
    if weights is not None:
        g = np.asarray(weights, dtype=float)

        def wof(idx):
            return g[: len(idx)]

    else:

        def wof(idx):
            return np.ones(len(idx))

    if name == "TP":
        rule = lambda idx: float(np.max(wof(idx) * (np.asarray(idx) - 1)))
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


def _signed_neighbours(idx: tuple[int, ...], contains: Callable[[tuple], bool],
                       step: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(-1)**|j| and idx + step * j for each j in {0, 1}^d, in
    itertools.product order, skipping neighbours that fail ``contains``
    (idx itself, j = 0, is always yielded).

    Depth-first, dimension 0 first, 0 branch before 1 branch; a branch is
    pruned at its first failing partial neighbour, which is exact for
    membership in a downward-closed set that contains idx.
    """
    dim = len(idx)
    stack = [(0, 1, idx)]
    while stack:
        n, sign, current = stack.pop()
        if n == dim:
            yield sign, current
            continue
        bumped = current[:n] + (current[n] + step,) + current[n + 1 :]
        if contains(bumped):
            stack.append((n + 1, -sign, bumped))
        stack.append((n + 1, sign, current))


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
    contains = index_set._members.__contains__
    return {
        idx: sum(sign for sign, _ in _signed_neighbours(idx, contains, 1))
        for idx in index_set
    }
