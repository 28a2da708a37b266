"""Orthonormal polynomial bases, modal conversion, and Sobol indices.

A sparse-grid interpolant is a polynomial; converting it to a modal
expansion over density-orthonormal polynomials changes only the basis,
not the function.  Conversion runs tensor grid by tensor grid: each
tensor interpolant is expressed in the orthonormal basis by solving
univariate Vandermonde-like systems dimension by dimension, and the
resulting coefficient blocks accumulate with the combination
coefficients.  Variance-based sensitivity indices then come from simple
sums of squared coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evalkit import Domain, _tensor_values, _value_matrix
from .grid import ReducedGrid, SparseGrid, _tensor_product_columns
from .knots import DistributionSpec, _native_to_standard, recurrence_coefficients
from .midx import MultiIndexSet

__all__ = [
    "PCExpansion",
    "eval_orthonormal",
    "convert_to_modal",
    "evaluate_pce",
    "sobol_indices",
]

# polynomial family -> the distribution kind it is orthonormal against
PCE_FAMILIES = {
    "legendre": "uniform",
    "hermite": "normal",
    "laguerre": "exponential",
    "generalized_laguerre": "gamma",
    "jacobi_prob": "beta",
    "chebyshev": "beta",
}


class DegenerateInputError(ValueError):
    pass


@dataclass
class PCExpansion:
    """Modal expansion: multi-degree set plus a coefficient matrix.

    ``params`` holds one parameter tuple per dimension, in the same
    conventions as DistributionSpec (chebyshev: the interval (a, b)).
    """

    family: str
    params: tuple[tuple[float, ...], ...]
    lambda_set: MultiIndexSet
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.atleast_2d(np.asarray(self.coeffs, dtype=float))
        if self.coeffs.shape[1] != len(self.lambda_set):
            raise ValueError("coefficient columns must match the degree set")

    @property
    def dim(self) -> int:
        return self.lambda_set.dim


def _family_dist(family: str, params) -> DistributionSpec:
    """The distribution whose orthonormal polynomials ``family`` names;
    chebyshev's ``params`` are the interval (a, b)."""
    if family not in PCE_FAMILIES:
        raise ValueError(f"unknown polynomial family {family!r}")
    if family == "chebyshev":
        return DistributionSpec.beta(params[0], params[1], -0.5, -0.5)
    return DistributionSpec(PCE_FAMILIES[family], tuple(params))


def _orthonormal_table(dist: DistributionSpec, max_degree: int, y: np.ndarray) -> np.ndarray:
    """P_d(y) for d = 0..max_degree; shape (max_degree + 1, len(y)).

    Three-term recurrence in orthonormal normalization:
    sqrt(beta[d+1]) P_{d+1} = (x - alpha[d]) P_d - sqrt(beta[d]) P_{d-1}.
    """
    x = _native_to_standard(dist, np.asarray(y, dtype=float))
    alpha, beta = recurrence_coefficients(dist, max_degree + 2)
    out = np.empty((max_degree + 1, x.size))
    out[0] = 1.0
    if max_degree >= 1:
        out[1] = (x - alpha[0]) / np.sqrt(beta[1])
    for d in range(1, max_degree):
        out[d + 1] = ((x - alpha[d]) * out[d] - np.sqrt(beta[d]) * out[d - 1]) / np.sqrt(
            beta[d + 1]
        )
    return out


def eval_orthonormal(family: str, degrees, points, params) -> np.ndarray:
    """Product of univariate orthonormal polynomials at each point.

    ``degrees`` is the multi-degree (one entry per dimension), ``points``
    is dim x Q, and ``params`` one parameter tuple per dimension.
    """
    if family not in PCE_FAMILIES:
        raise ValueError(f"unknown polynomial family {family!r}")
    degrees = tuple(int(d) for d in degrees)
    if any(d < 0 for d in degrees):
        raise ValueError("degrees must be >= 0")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.ones(points.shape[1])
    for n, d in enumerate(degrees):
        table = _orthonormal_table(_family_dist(family, params[n]), d, points[n])
        out = out * table[d]
    return out


def _params_from_grid(grid: SparseGrid, domain: Domain, family: str):
    """Per-dimension parameters, checked against the grid distributions."""
    params = []
    for n, fam in enumerate(grid.families):
        dist = fam.dist
        if family == "chebyshev":
            params.append((float(domain.lower[n]), float(domain.upper[n])))
            continue
        if dist is None or PCE_FAMILIES.get(family) != dist.kind:
            raise ValueError(
                f"family {family!r} does not match the grid distribution in dimension {n}"
            )
        params.append(dist.params)
    return tuple(params)


def convert_to_modal(grid: SparseGrid, reduced: ReducedGrid, values, domain: Domain,
                     family: str) -> PCExpansion:
    """Re-express the sparse-grid interpolant in an orthonormal basis.

    The multi-degree set is the union of the per-tensor degree boxes
    (degrees below the node count in each dimension), entirely determined
    by the grid's multi-index set and level-to-knots map.  The expansion
    is the same polynomial as the interpolant.
    """
    tensor_values = _tensor_values(grid, reduced, values)
    params = _params_from_grid(grid, domain, family)
    dists = [_family_dist(family, p) for p in params]
    coeff_map: dict[tuple[int, ...], np.ndarray] = {}
    for t, tv in tensor_values:
        n_out = tv.shape[0]
        block = tv.T.reshape(list(t.m) + [n_out], order="F")
        for n in range(grid.dim):
            nodes = t.knots_per_dim[n]
            table = _orthonormal_table(dists[n], t.m[n] - 1, nodes)
            vander = table.T  # rows: nodes, cols: degrees
            if nodes.size != np.unique(nodes).size:
                raise np.linalg.LinAlgError(
                    f"duplicate knots make the tensor {t.idx} system singular"
                )
            moved = np.moveaxis(block, n, 0)
            shape = moved.shape
            solved = np.linalg.solve(vander, moved.reshape(shape[0], -1))
            block = np.moveaxis(solved.reshape(shape), 0, n)
        flat = block.reshape(-1, n_out, order="F").T  # degree index, first dim fastest
        # multi-degrees of the block in flat order, first dim fastest
        degrees = _tensor_product_columns([np.arange(v) for v in t.m]).T.tolist()
        for pos, degree in enumerate(map(tuple, degrees)):
            acc = coeff_map.get(degree)
            if acc is None:
                coeff_map[degree] = t.coeff * flat[:, pos].copy()
            else:
                acc += t.coeff * flat[:, pos]
    lam = MultiIndexSet(coeff_map.keys(), dim=grid.dim, base=0)
    coeffs = np.stack([coeff_map[deg] for deg in lam], axis=1)
    return PCExpansion(family=family, params=params, lambda_set=lam, coeffs=coeffs)


def evaluate_pce(expansion: PCExpansion, points) -> np.ndarray:
    """Evaluate the modal expansion at points (dim x Q)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[0] != expansion.dim:
        raise ValueError(f"points must be {expansion.dim} x Q")
    degrees = expansion.lambda_set.rows
    max_deg = degrees.max(axis=0)
    tables = [
        _orthonormal_table(_family_dist(expansion.family, expansion.params[n]),
                           int(max_deg[n]), points[n])
        for n in range(expansion.dim)
    ]
    basis = np.ones((len(expansion.lambda_set), points.shape[1]))
    for n in range(expansion.dim):
        basis *= tables[n][degrees[:, n], :]
    return expansion.coeffs @ basis


def sobol_indices(grid: SparseGrid, reduced: ReducedGrid, values, domain: Domain,
                  family: str):
    """Principal and total variance-based sensitivity indices.

    Both are length-dim vectors in [0, 1]; the principal index of a
    dimension collects squared coefficients supported on that dimension
    alone, the total index all coefficients involving it.
    """
    vals = _value_matrix(values)
    if vals.shape[0] != 1:
        raise ValueError("sobol indices require a single-output value table")
    expansion = convert_to_modal(grid, reduced, vals, domain, family)
    degrees = expansion.lambda_set.rows
    c2 = expansion.coeffs[0] ** 2
    nonconstant = degrees.sum(axis=1) > 0
    variance = float(c2[nonconstant].sum())
    if variance <= 0.0:
        raise DegenerateInputError("function has zero variance on this grid")
    principal = np.empty(grid.dim)
    total = np.empty(grid.dim)
    for n in range(grid.dim):
        active = degrees[:, n] > 0
        alone = active & (degrees.sum(axis=1) == degrees[:, n])
        principal[n] = c2[alone].sum() / variance
        total[n] = c2[active].sum() / variance
    return principal, total
