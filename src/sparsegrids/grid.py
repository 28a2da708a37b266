"""Tensor and sparse grid construction, reduction, and recycling.

A sparse grid is stored in *extended* format: the list of tensor grids
whose combination coefficient is nonzero, each carrying coefficient-scaled
quadrature weights.  ``reduce_grid`` produces the *reduced* format: the
deduplicated knot list with combined weights plus the index maps between
the two formats.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .knots import KnotFamily, cc_family
from .levels import LevelMap, apply_level_map
from .midx import (
    MultiIndexSet,
    _signed_neighbours,
    combination_coefficients,
    generate_rule_set,
    is_downward_closed,
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
    """One tensor grid of a sparse grid, with coefficient-scaled weights.

    ``knots`` has one column per grid point; the first dimension varies
    fastest in the column ordering.  ``weights`` already carry the
    combination coefficient, so summing duplicates across tensor grids is
    all the reduction step has to do.
    """

    idx: tuple[int, ...]
    knots: np.ndarray
    weights: np.ndarray
    size: int
    knots_per_dim: tuple[np.ndarray, ...]
    m: tuple[int, ...]
    coeff: int


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
    grids = np.meshgrid(*arrays, indexing="ij")
    return np.stack([g.reshape(-1, order="F") for g in grids], axis=0)


def _kron_rows(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Row-wise Kronecker product of matrices; first factor varies fastest."""
    out = mats[0]
    for B in mats[1:]:
        out = (B[:, :, None] * out[:, None, :]).reshape(B.shape[0], -1)
    return out


def _tensor_weights(rules, coeff: int) -> np.ndarray:
    """coeff times the tensor product of the 1D weights, first dim fastest."""
    weights = coeff * _kron_rows([r.weights[None, :] for r in rules])[0]
    weights.flags.writeable = False
    return weights


def build_tensor_grid(idx, families, level_map: LevelMap, coeff: int = 1) -> TensorGrid:
    """Materialize the tensor grid of multi-index ``idx``."""
    idx = tuple(int(v) for v in idx)
    if any(v < 1 for v in idx):
        raise ValueError("tensor grid indices must be >= 1")
    dim = len(idx)
    families = _normalize_families(families, dim)
    m = tuple(apply_level_map(level_map, v) for v in idx)
    rules = [families[n](m[n]) for n in range(dim)]
    knots = _tensor_product_columns([r.nodes for r in rules])
    knots.flags.writeable = False
    return TensorGrid(
        idx=idx,
        knots=knots,
        weights=_tensor_weights(rules, coeff),
        size=int(np.prod(m)),
        knots_per_dim=tuple(r.nodes for r in rules),
        m=m,
        coeff=coeff,
    )


def build_sparse_grid(
    index_set: MultiIndexSet,
    families,
    level_map: LevelMap,
    previous: SparseGrid | None = None,
) -> SparseGrid:
    """Sparse grid over a downward-closed multi-index set.

    Tensor grids of ``previous`` with a matching multi-index are reused
    provided the knot families and level map agree; a changed coefficient
    gets its weights recomputed, not rescaled, so they equal a cold build
    bitwise.
    """
    if index_set.base != 1:
        raise ValueError("sparse grids require a base-1 multi-index set")
    coeffs = combination_coefficients(index_set)
    return _assemble(index_set, coeffs, families, level_map, previous)


def _assemble(index_set: MultiIndexSet, coeffs: dict[tuple[int, ...], int], families,
              level_map: LevelMap, previous: SparseGrid | None) -> SparseGrid:
    """Grid of the indices with nonzero coefficient, reusing the tensors of
    ``previous`` as ``build_sparse_grid`` describes."""
    families = _normalize_families(families, index_set.dim)
    reuse: dict[tuple[int, ...], TensorGrid] = {}
    if (
        previous is not None
        and previous.level_map == level_map
        and tuple(previous.families) == families
    ):
        reuse = {t.idx: t for t in previous.tensors}
    tensors = []
    for idx in index_set:
        c = coeffs[idx]
        if c == 0:
            continue
        old = reuse.get(idx)
        if old is None:
            tensors.append(build_tensor_grid(idx, families, level_map, coeff=c))
        elif old.coeff != c:
            rules = [fam(m) for fam, m in zip(families, old.m)]
            tensors.append(replace(old, weights=_tensor_weights(rules, c), coeff=c))
        else:
            tensors.append(old)
    return SparseGrid(
        dim=index_set.dim,
        tensors=tuple(tensors),
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
    previous: SparseGrid | None = None,
) -> SparseGrid:
    """Generate the multi-index set from ``rule`` and build the grid."""
    index_set = generate_rule_set(dim, rule, level, base=1)
    return build_sparse_grid(index_set, families, level_map, previous=previous)


def quick_preset(dim: int, level: int):
    """Smolyak grid of Clenshaw-Curtis knots on [-1, 1]^dim; returns both
    the extended and the reduced format."""
    rule, level_map = preset("SM")
    grid = build_sparse_grid_from_rule(dim, level, cc_family(-1.0, 1.0), level_map, rule)
    return grid, reduce_grid(grid)


def add_one_index(
    new_idx,
    grid: SparseGrid,
    index_set: MultiIndexSet,
    coeffs: dict[tuple[int, ...], int],
    families,
    level_map: LevelMap,
) -> SparseGrid:
    """Grid over ``index_set + {new_idx}`` reusing the existing tensors.

    Only coefficients of backward binary neighbors of ``new_idx`` change;
    tensor grids are constructed only for indices whose coefficient turns
    nonzero (the new index, and occasionally a neighbor that previously
    cancelled out).
    """
    new_idx = tuple(int(v) for v in new_idx)
    if new_idx in index_set:
        raise ValueError(f"index {new_idx} is already in the set")
    new_set = index_set.union([new_idx])
    if not is_downward_closed(new_set):
        raise ValueError(f"adding {new_idx} violates downward closedness")
    new_coeffs = dict(coeffs)
    new_coeffs[new_idx] = 0
    for sign, neighbor in _signed_neighbours(new_idx, new_set._members.__contains__, -1):
        new_coeffs[neighbor] += sign
    return _assemble(new_set, new_coeffs, families, level_map, grid)


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------


def dedup_tolerances(knots: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Per-dimension dedup tolerance: tol * max(1, coordinate range,
    largest coordinate magnitude), so lattice keys fit in int64 wherever
    the domain lies."""
    base = DEFAULT_DEDUP_TOL if tol is None else float(tol)
    if knots.size == 0:
        return np.full(knots.shape[0], base)
    lo, hi = knots.min(axis=1), knots.max(axis=1)
    return base * np.maximum(1.0, np.maximum(hi - lo, np.maximum(-lo, hi)))


def lattice_keys(points: np.ndarray, tols: np.ndarray) -> list[tuple[int, ...]]:
    """Round each column of ``points`` onto the tolerance lattice."""
    scaled = np.rint(points / tols[:, None]).astype(np.int64)
    return list(map(tuple, scaled.T))


def reduce_grid(grid: SparseGrid, tol: float | None = None) -> ReducedGrid:
    """Deduplicate the extended knots and combine their weights."""
    if not grid.tensors:
        raise ValueError("cannot reduce an empty sparse grid")
    extended = np.concatenate([t.knots for t in grid.tensors], axis=1)
    ext_weights = np.concatenate([t.weights for t in grid.tensors])
    tols = dedup_tolerances(extended, tol)
    keys = lattice_keys(extended, tols)
    first: dict[tuple[int, ...], int] = {}
    n_map = np.empty(extended.shape[1], dtype=np.int64)
    m_list: list[int] = []
    weights: list[float] = []
    for e, key in enumerate(keys):
        p = first.get(key)
        if p is None:
            p = len(m_list)
            first[key] = p
            m_list.append(e)
            weights.append(ext_weights[e])
        else:
            weights[p] += ext_weights[e]
        n_map[e] = p
    m_arr = np.asarray(m_list, dtype=np.int64)
    knots = extended[:, m_arr].copy()
    w = np.asarray(weights)
    for a in (knots, w, m_arr, n_map):
        a.flags.writeable = False
    return ReducedGrid(knots=knots, weights=w, size=len(m_list), m=m_arr, n=n_map,
                       tol=tols)
