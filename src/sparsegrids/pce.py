"""Orthonormal polynomial bases, modal conversion, and Sobol indices.

A sparse-grid interpolant is a polynomial; converting it to a modal
expansion over density-orthonormal polynomials changes only the basis,
not the function.  Conversion runs tensor grid by tensor grid: each
tensor interpolant is expressed in the orthonormal basis by solving one
univariate Vandermonde-like system along each active dimension (one
table per distinct 1D rule), and the resulting coefficient blocks
accumulate with the combination coefficients.  Variance-based
sensitivity indices then come from simple sums of squared coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evalkit import Domain, _compile, _value_matrix
from .grid import ReducedGrid, SparseGrid, _group_columns, _rule_slots
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
    params = _params_from_grid(grid, domain, family)
    tensors = _compile(grid, reduced, values)
    # rule key -> orthonormal Vandermonde matrix, rows: nodes, cols: degrees
    vanders = {(n, c): _orthonormal_table(_family_dist(family, params[n]), c - 1,
                                          grid.families[n]._barycentric(c)[0]).T
               for n, c in dict.fromkeys(key for _, _, keys in tensors for key in keys)}
    # tensors whose active rules have the same node counts, in order, solve
    # in lockstep: one stacked solve per dimension, each item of which is
    # the LAPACK call that solving the tensor on its own would make
    groups: dict[tuple[int, ...], list[int]] = {}
    for k, (_, _, keys) in enumerate(tensors):
        groups.setdefault(tuple(len(vanders[key]) for key in keys), []).append(k)
    terms = [None] * len(tensors)
    for counts, group in groups.items():
        # one-node dimensions solve a 1x1 system [[1.0]] exactly; skip them.
        # Each solve takes the fastest axis and puts it slowest, so after
        # every step the axes are back in order: one column per multi-degree
        # of the block, first dim fastest
        block = np.stack([tensors[k][1] for k in group])
        n_values = block.shape[1]
        for step, count in enumerate(counts):
            A = np.stack([vanders[tensors[k][2][step]] for k in group])
            block = np.linalg.solve(A, block.reshape(len(group), -1, count).transpose(0, 2, 1))
        coeffs = np.array([tensors[k][0] for k in group])[:, None, None]
        block = coeffs * block.reshape(len(group), -1, n_values).transpose(0, 2, 1)
        for k, term in zip(group, block):
            terms[k] = term
    # a column's degrees are its extended knot's node positions
    degrees = np.array([pos for _, _, pos in _rule_slots(grid)])
    m, _, sums, lex = _group_columns(degrees, np.concatenate(terms, axis=1))
    rows = degrees[:, m[lex]].T
    lam = MultiIndexSet(rows, dim=grid.dim, base=0)
    if not np.array_equal(lam.rows, rows):
        raise AssertionError("MultiIndexSet rows are not in lexicographic order")
    return PCExpansion(family=family, params=params, lambda_set=lam, coeffs=sums[:, lex])


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
