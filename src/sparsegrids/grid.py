"""Tensor and sparse grid construction and reduction.

A sparse grid is stored in *extended* format: the list of tensor grids
whose combination coefficient is nonzero; ``SparseGrid.extended`` lays out
their knots and coefficient-scaled weights.  ``reduce_grid`` produces the
*reduced* format: the deduplicated knot list with combined weights plus
the index maps between the two formats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .knots import KnotFamily, cc_family
from .levels import LevelMap, apply_level_map
from .midx import (
    MultiIndexSet,
    _add_backward_terms,
    _backward_closed,
    _index_row,
    combination_coefficients,
    generate_rule_set,
    preset,
)

__all__ = [
    "TensorGrid",
    "SparseGrid",
    "ReducedGrid",
    "build_tensor_grid",
    "build_sparse_grid",
    "build_sparse_grid_from_rule",
    "quick_preset",
    "add_one_index",
    "reduce_grid",
    "dedup_tolerances",
    "lattice_keys",
]

DEFAULT_DEDUP_TOL = 1e-14


@dataclass(frozen=True)
class TensorGrid:
    """One tensor grid of a sparse grid: its multi-index, the node count
    ``m[n]`` of each dimension and the combination coefficient.  Its knots
    are the tensor product of the rules ``SparseGrid.families[n](m[n])``,
    first dimension fastest (``SparseGrid.extended``)."""

    idx: tuple[int, ...]
    m: tuple[int, ...]
    coeff: int

    @property
    def size(self) -> int:
        return math.prod(self.m)


@dataclass(frozen=True)
class SparseGrid:
    """Extended-format sparse grid: tensor grids sorted by multi-index."""

    dim: int
    tensors: tuple[TensorGrid, ...]
    families: tuple[KnotFamily, ...]
    level_map: LevelMap
    index_set: MultiIndexSet

    @property
    def extended_size(self) -> int:
        return sum(t.size for t in self.tensors)

    def tensor_offsets(self) -> np.ndarray:
        """Start of each tensor grid in the concatenated extended order."""
        sizes = [t.size for t in self.tensors]
        return np.concatenate([[0], np.cumsum(sizes)])

    def extended(self) -> tuple[np.ndarray, np.ndarray]:
        """The knots (dim x ``extended_size``) and weights of all tensor grids
        end to end.  A weight is its 1D weights multiplied first dimension
        first, then the coefficient, bitwise ``coeff * _kron_rows(...)``."""
        sizes = [t.size for t in self.tensors]
        node_counts = np.array([t.m for t in self.tensors])
        knots, weights = np.empty((self.dim, sum(sizes))), np.ones(sum(sizes))
        for n, pos in enumerate(_extended_positions(self)):
            # dimension n's distinct rules end to end, and each knot's slot in them
            counts, which = np.unique(node_counts[:, n], return_inverse=True)
            rules = [self.families[n](int(c)) for c in counts]
            slot = np.repeat((np.cumsum(counts) - counts)[which], sizes) + pos
            knots[n] = np.concatenate([r.nodes for r in rules])[slot]
            weights *= np.concatenate([r.weights for r in rules])[slot]
        return knots, weights * np.repeat([t.coeff for t in self.tensors], sizes)


def _extended_positions(grid: SparseGrid):
    """Yield, dimension by dimension, each extended knot's position among
    its tensor's nodes in that dimension, the first dimension fastest."""
    sizes = [t.size for t in grid.tensors]
    node_counts = np.array([t.m for t in grid.tensors])
    local = np.arange(sum(sizes)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    for n in range(grid.dim):
        local, pos = np.divmod(local, np.repeat(node_counts[:, n], sizes))
        yield pos


@dataclass(frozen=True)
class ReducedGrid:
    """Deduplicated knots with combined weights and extended<->reduced maps.

    ``m[p]`` is the position in the concatenated extended knots of the
    first occurrence of reduced knot ``p``; ``n[e]`` is the reduced index
    of extended knot ``e``, so ``n[m[p]] == p``.
    """

    knots: np.ndarray
    weights: np.ndarray
    size: int
    m: np.ndarray
    n: np.ndarray
    tol: np.ndarray


def _normalize_families(families, dim: int) -> tuple[KnotFamily, ...]:
    if isinstance(families, KnotFamily):
        return (families,) * dim
    families = tuple(families)
    if len(families) == 1 and dim > 1:
        return families * dim
    if len(families) != dim:
        raise ValueError(f"need {dim} knot families, got {len(families)}")
    return families


def _tensor_product_columns(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Stack the cartesian product; first array varies fastest."""
    total = math.prod(a.size for a in arrays)
    out = np.empty((len(arrays), total), dtype=np.result_type(*arrays))
    inner = 1
    for row, a in zip(out, arrays):
        if total:
            row.reshape(-1, a.size, inner)[...] = a[:, None]
        inner *= a.size
    return out


def _kron_rows(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Row-wise Kronecker product of matrices; first factor varies fastest."""
    out = mats[0]
    for B in mats[1:]:
        out = (B[:, :, None] * out[:, None, :]).reshape(B.shape[0], -1)
    return out


def build_tensor_grid(idx, families, level_map: LevelMap, coeff: int = 1) -> TensorGrid:
    """The tensor grid of multi-index ``idx`` (``families`` is only checked for its count)."""
    idx = _index_row(idx)
    if any(v < 1 for v in idx):
        raise ValueError("tensor grid indices must be >= 1")
    _normalize_families(families, len(idx))
    m = apply_level_map(level_map, np.array(idx, dtype=np.int64))
    return TensorGrid(idx=idx, m=tuple(m.tolist()), coeff=coeff)


def build_sparse_grid(index_set: MultiIndexSet, families, level_map: LevelMap) -> SparseGrid:
    """Sparse grid over a downward-closed multi-index set."""
    if index_set.base != 1:
        raise ValueError("sparse grids require a base-1 multi-index set")
    if not len(index_set):
        raise ValueError("cannot build a sparse grid over an empty multi-index set")
    coeffs = combination_coefficients(index_set)
    return _assemble(index_set, coeffs, families, level_map)


def _assemble(index_set: MultiIndexSet, coeffs: dict[tuple[int, ...], int], families,
              level_map: LevelMap) -> SparseGrid:
    """Grid of the indices of ``index_set`` whose coefficient is nonzero,
    their node counts mapped in one pass over the index matrix."""
    families = _normalize_families(families, index_set.dim)
    coeff = [coeffs[idx] for idx in index_set]
    rows = index_set.rows[[c != 0 for c in coeff]]
    counts = apply_level_map(level_map, rows)
    tensors = tuple(TensorGrid(idx=tuple(i), m=tuple(m), coeff=c)
                    for i, m, c in zip(rows.tolist(), counts.tolist(), filter(None, coeff)))
    # each (dimension, node count) rule once, in first-use order: a count a family lacks fails here
    for fam, column in zip(families, counts.T.tolist()):
        for count in dict.fromkeys(column):
            fam(count)
    return SparseGrid(
        dim=index_set.dim,
        tensors=tensors,
        families=families,
        level_map=LevelMap(level_map),
        index_set=index_set,
    )


def build_sparse_grid_from_rule(
    dim: int,
    level: float,
    families,
    level_map: LevelMap,
    rule: Callable[[tuple[int, ...]], float],
) -> SparseGrid:
    """Generate the multi-index set from ``rule`` and build the grid."""
    return build_sparse_grid(generate_rule_set(dim, rule, level), families, level_map)


def quick_preset(dim: int, level: int):
    """Smolyak grid of Clenshaw-Curtis knots on [-1, 1]^dim; returns both
    the extended and the reduced format."""
    rule, level_map = preset("SM")
    grid = build_sparse_grid_from_rule(dim, level, cc_family(-1.0, 1.0), level_map, rule)
    return grid, reduce_grid(grid)


def add_one_index(new_idx, grid: SparseGrid) -> SparseGrid:
    """``grid`` over its index set plus ``new_idx``, with the same families
    and level map.

    Only the coefficients of the backward binary neighbours of ``new_idx``
    change; the others are read from ``grid.tensors``, so the result is
    the grid ``build_sparse_grid`` makes of the larger set.
    """
    new_idx = _index_row(new_idx)
    if new_idx in grid.index_set:
        raise ValueError(f"index {new_idx} is already in the set")
    new_set = grid.index_set.union([new_idx])
    if not _backward_closed(new_idx, grid.index_set, new_set.base):
        raise ValueError(f"adding {new_idx} violates downward closedness")
    coeffs = dict.fromkeys(new_set, 0)
    coeffs.update((t.idx, t.coeff) for t in grid.tensors)
    _add_backward_terms(coeffs, new_idx, new_set.base)
    return _assemble(new_set, coeffs, grid.families, grid.level_map)


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------


def dedup_tolerances(knots: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Per-dimension dedup tolerance: tol * max(1, coordinate range,
    largest coordinate magnitude), so lattice keys fit in int64 wherever
    the domain lies."""
    base = DEFAULT_DEDUP_TOL if tol is None else float(tol)
    if not 0 < base < math.inf:
        raise ValueError(f"dedup tolerance is {base!r}; it must be finite and above 0")
    if knots.size == 0:
        return np.full(knots.shape[0], base)
    lo, hi = knots.min(axis=1), knots.max(axis=1)
    return base * np.maximum(1.0, np.maximum(hi - lo, np.maximum(-lo, hi)))


def _lattice(points: np.ndarray, tols: np.ndarray) -> np.ndarray:
    """Integer matrix of ``points`` rounded onto the tolerance lattice."""
    return np.rint(points / tols[:, None]).astype(np.int64)


def lattice_keys(points: np.ndarray, tols: np.ndarray) -> list[tuple[int, ...]]:
    """Round each column of ``points`` onto the tolerance lattice."""
    return list(map(tuple, _lattice(points, tols).T.tolist()))


def _group_columns(keys: np.ndarray, values: np.ndarray):
    """Group the equal columns of the integer matrix ``keys``; return ``m``
    (``m[p]``: first column of group p, groups numbered by first occurrence),
    ``n`` (``n[e]``: group of column e), per group the sum of ``values``
    over its columns (last axis), from the first column on in column order,
    and ``lex``, the groups in lexicographic order of their keys."""
    order = np.lexsort(keys[::-1])  # stable: equal columns stay in order
    ordered = keys[:, order]
    start = np.ones(order.size, dtype=bool)
    start[1:] = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
    first = np.zeros(order.size, dtype=bool)
    first[order[start]] = True
    m = np.flatnonzero(first)
    lex = (np.cumsum(first) - 1)[order[start]]
    n = np.empty_like(order)
    n[order] = lex[np.cumsum(start) - 1]
    sums = values[..., m]
    np.add.at(sums, (..., n[~first]), values[..., ~first])
    return m, n, sums, lex


def reduce_grid(grid: SparseGrid, tol: float | None = None) -> ReducedGrid:
    """Deduplicate the extended knots and combine their weights."""
    if not grid.tensors:
        raise ValueError("cannot reduce an empty sparse grid")
    extended, ext_weights = grid.extended()
    return _reduce_extended(extended, ext_weights, dedup_tolerances(extended, tol))


def _reduce_extended(extended: np.ndarray, ext_weights: np.ndarray,
                     tols: np.ndarray) -> ReducedGrid:
    """The extended knots and weights deduplicated on the lattice of ``tols``."""
    m_arr, n_map, w, _ = _group_columns(_lattice(extended, tols), ext_weights)
    knots = extended[:, m_arr]
    for a in (knots, w, m_arr, n_map):
        a.flags.writeable = False
    return ReducedGrid(knots=knots, weights=w, size=m_arr.size, m=m_arr, n=n_map,
                       tol=tols)
