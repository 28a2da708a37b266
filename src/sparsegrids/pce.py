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

from .evalkit import Domain, _value_matrix
from .grid import ReducedGrid, SparseGrid
from .knots import DistributionSpec, recurrence_coefficients
from .midx import MultiIndexSet

__all__ = [
    "PCExpansion",
    "eval_orthonormal",
    "convert_to_modal",
    "evaluate_pce",
    "sobol_indices",
]

PCE_FAMILIES = (
    "legendre",
    "hermite",
    "laguerre",
    "generalized_laguerre",
    "jacobi_prob",
    "chebyshev",
)

# family -> distribution kind it is orthonormal against
_FAMILY_OF_KIND = {
    "uniform": "legendre",
    "normal": "hermite",
    "exponential": "laguerre",
    "gamma": "generalized_laguerre",
    "beta": "jacobi_prob",
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


def _standardize(family: str, params, y: np.ndarray) -> np.ndarray:
    """Map points to the standard variable of the recurrence."""
    if family in ("legendre", "jacobi_prob", "chebyshev"):
        a, b = params[0], params[1]
        return (2.0 * y - a - b) / (b - a)
    if family == "hermite":
        mu, sigma = params
        return (y - mu) / sigma
    if family == "laguerre":
        return params[0] * y
    if family == "generalized_laguerre":
        return params[1] * y
    raise ValueError(f"unknown polynomial family {family!r}")


def _recurrence_for(family: str, params, n: int):
    if family == "legendre":
        dist = DistributionSpec.uniform(-1.0, 1.0)
    elif family == "hermite":
        dist = DistributionSpec.normal(0.0, 1.0)
    elif family == "laguerre":
        dist = DistributionSpec.exponential(1.0)
    elif family == "generalized_laguerre":
        dist = DistributionSpec.gamma(params[0], 1.0)
    elif family == "jacobi_prob":
        # orthonormal against the beta density; the (y-a) exponent plays
        # the classical Jacobi beta role after mapping to [-1, 1]
        dist = DistributionSpec.beta(-1.0, 1.0, params[2], params[3])
    elif family == "chebyshev":
        dist = DistributionSpec.beta(-1.0, 1.0, -0.5, -0.5)
    else:
        raise ValueError(f"unknown polynomial family {family!r}")
    return recurrence_coefficients(dist, n)


def _orthonormal_table(family: str, params, max_degree: int, y: np.ndarray) -> np.ndarray:
    """P_d(y) for d = 0..max_degree; shape (max_degree + 1, len(y)).

    Three-term recurrence in orthonormal normalization:
    sqrt(beta[d+1]) P_{d+1} = (x - alpha[d]) P_d - sqrt(beta[d]) P_{d-1}.
    """
    x = _standardize(family, params, np.asarray(y, dtype=float))
    alpha, beta = _recurrence_for(family, params, max_degree + 2)
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
        table = _orthonormal_table(family, tuple(params[n]), d, points[n])
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
        if dist is None or _FAMILY_OF_KIND.get(dist.kind) != family:
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
    vals = _value_matrix(values)
    if vals.shape[1] != reduced.size:
        raise ValueError("values do not conform to the reduced grid")
    params = _params_from_grid(grid, domain, family)
    n_out = vals.shape[0]
    offsets = grid.tensor_offsets()
    coeff_map: dict[tuple[int, ...], np.ndarray] = {}
    for t, start in zip(grid.tensors, offsets[:-1]):
        tv = vals[:, reduced.n[start : start + t.size]]
        block = tv.T.reshape(list(t.m) + [n_out], order="F")
        for n in range(grid.dim):
            nodes = t.knots_per_dim[n]
            table = _orthonormal_table(family, params[n], t.m[n] - 1, nodes)
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
        for pos, degree in enumerate(_degree_tuples(t.m)):
            acc = coeff_map.get(degree)
            if acc is None:
                coeff_map[degree] = t.coeff * flat[:, pos].copy()
            else:
                acc += t.coeff * flat[:, pos]
    lam = MultiIndexSet(coeff_map.keys(), dim=grid.dim, base=0)
    coeffs = np.stack([coeff_map[deg] for deg in lam], axis=1)
    return PCExpansion(family=family, params=params, lambda_set=lam, coeffs=coeffs)


def _degree_tuples(m):
    """Multi-degrees of a tensor block in flat order, first dim fastest."""
    grids = np.meshgrid(*[np.arange(v) for v in m], indexing="ij")
    flat = np.stack([g.reshape(-1, order="F") for g in grids], axis=1)
    return [tuple(row) for row in flat]


def evaluate_pce(expansion: PCExpansion, points) -> np.ndarray:
    """Evaluate the modal expansion at points (dim x Q)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[0] != expansion.dim:
        raise ValueError(f"points must be {expansion.dim} x Q")
    degrees = expansion.lambda_set.rows
    max_deg = degrees.max(axis=0)
    tables = [
        _orthonormal_table(expansion.family, expansion.params[n], int(max_deg[n]), points[n])
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
