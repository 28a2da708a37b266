"""Evaluation, quadrature, interpolation, and surrogate derivatives.

Interpolation works tensor grid by tensor grid: values at each tensor's
knots are gathered from the reduced table through the extended->reduced
map, the tensor-product Lagrange interpolant is evaluated in barycentric
form over the tensor's active dimensions (those with more than one node),
and the results accumulate with the combination coefficients.  The 1D
bases are shared across tensors: an ``Interpolant`` computes the
barycentric weights of each distinct 1D rule once when it is built, and
each distinct rule's basis once per chunk of query points.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .grid import ReducedGrid, SparseGrid, _kron_rows, lattice_keys, reduce_grid
from ._bary import barycentric_weights, basis_matrix

__all__ = [
    "EvaluationTable",
    "Domain",
    "Interpolant",
    "evaluate_on_grid",
    "quadrature",
    "interpolate",
    "gradient",
    "hessian",
]

_QUERY_CHUNK = 512


class EvaluationError(RuntimeError):
    """A user function failed at a grid knot."""

    def __init__(self, knot, cause):
        super().__init__(f"function evaluation failed at knot {knot}: {cause}")
        self.knot = np.asarray(knot)
        self.cause = cause


@dataclass
class EvaluationTable:
    """Function values on a reduced grid, one column per knot."""

    values: np.ndarray
    new_evaluations: int = 0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[None, :]
        self.values = v

    @property
    def n_outputs(self) -> int:
        return self.values.shape[0]

    @property
    def n_points(self) -> int:
        return self.values.shape[1]


def _value_matrix(values) -> np.ndarray:
    """The (outputs x knots) matrix of an EvaluationTable or array-like."""
    if isinstance(values, EvaluationTable):
        return values.values
    return np.atleast_2d(np.asarray(values, dtype=float))


@dataclass(frozen=True)
class Domain:
    """Axis-aligned bounding box; rows are lower and upper bounds."""

    bounds: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.bounds, dtype=float)
        if b.ndim != 2 or b.shape[0] != 2:
            raise ValueError("bounds must be a 2 x dim matrix")
        finite = np.isfinite(b[0]) & np.isfinite(b[1])
        if np.any(b[0, finite] >= b[1, finite]):
            raise ValueError("lower bounds must be below upper bounds")
        object.__setattr__(self, "bounds", b)

    @property
    def dim(self) -> int:
        return self.bounds.shape[1]

    @property
    def lower(self) -> np.ndarray:
        return self.bounds[0]

    @property
    def upper(self) -> np.ndarray:
        return self.bounds[1]

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        return np.all((pts >= self.lower[:, None]) & (pts <= self.upper[:, None]), axis=0)


def _call_f(f, knot) -> np.ndarray:
    """f(knot) as a flat float vector; failures and non-finite values raise
    an EvaluationError naming the knot."""
    try:
        out = np.atleast_1d(np.asarray(f(knot), dtype=float)).ravel()
    except Exception as exc:  # attach the offending knot
        raise EvaluationError(knot, exc) from exc
    if not np.isfinite(out).all():
        raise EvaluationError(knot, ValueError(f"non-finite value {out}"))
    return out


def evaluate_on_grid(f, reduced: ReducedGrid, old=None, workers: int = 1) -> EvaluationTable:
    """Evaluate ``f`` at every reduced knot, recycling old evaluations.

    ``old`` is a previous (EvaluationTable, SparseGrid, ReducedGrid) triple
    (the grid entry may be None; only the reduced knots are matched).
    Columns whose knot already appears in the old reduced grid are copied
    bitwise; only genuinely new knots trigger calls of ``f``.  When
    ``workers`` exceeds one, distinct knots may be evaluated concurrently,
    so ``f`` must tolerate concurrent invocation.
    """
    knots = reduced.knots
    count = reduced.size
    copied: dict[int, np.ndarray] = {}
    if old is not None:
        old_table, _, old_reduced = old
        old_vals = _value_matrix(old_table)
        lookup = {
            key: p for p, key in enumerate(lattice_keys(old_reduced.knots, reduced.tol))
        }
        for p, key in enumerate(lattice_keys(knots, reduced.tol)):
            q = lookup.get(key)
            if q is not None:
                copied[p] = old_vals[:, q]
    todo = [p for p in range(count) if p not in copied]
    results: dict[int, np.ndarray] = {}
    if todo:
        # the first new knot alone: an output count that differs from the
        # old table's raises before any further call of f
        results[todo[0]] = _call_f(f, knots[:, todo[0]])
        if copied and results[todo[0]].size != old_vals.shape[0]:
            raise ValueError(f"function returns {results[todo[0]].size} outputs, "
                             f"the old table has {old_vals.shape[0]}")
        rest = todo[1:]
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                for p, col in zip(rest, pool.map(lambda p: _call_f(f, knots[:, p]), rest)):
                    results[p] = col
        else:
            for p in rest:
                results[p] = _call_f(f, knots[:, p])
    n_out = results[todo[0]].size if todo else old_vals.shape[0]
    values = np.empty((n_out, count))
    for p, col in copied.items():
        values[:, p] = col
    for p, col in results.items():
        if col.size != n_out:
            raise ValueError("function returned outputs of inconsistent length")
        values[:, p] = col
    return EvaluationTable(values, new_evaluations=len(todo))


def quadrature(values_or_f, grid_or_reduced):
    """Integral of the grid values against the reduced weights.

    With an EvaluationTable (or plain matrix), returns the length-V vector
    of integrals.  With a callable, evaluates it first and returns the pair
    (integrals, EvaluationTable).  A SparseGrid argument is reduced on the
    fly.
    """
    if isinstance(grid_or_reduced, SparseGrid):
        reduced = reduce_grid(grid_or_reduced)
    else:
        reduced = grid_or_reduced
    if callable(values_or_f):
        table = evaluate_on_grid(values_or_f, reduced)
        return quadrature(table, reduced), table
    vals = _value_matrix(values_or_f)
    if vals.shape[1] != reduced.size:
        raise ValueError(
            f"values have {vals.shape[1]} columns, reduced grid has {reduced.size} knots"
        )
    return vals @ reduced.weights


def _active_keys(rules: dict, per_dim) -> list[tuple[int, bytes]]:
    """Keys (dimension, node bytes) in ``rules`` of the 1D rules in
    ``per_dim`` with more than one node; ``rules`` maps each key to (nodes,
    barycentric weights), computed and checked for duplicate nodes once.
    A one-node dimension drops out: its basis is exactly 1.0."""
    keys = []
    for n, nodes in enumerate(per_dim):
        if nodes.size > 1:
            key = (n, nodes.tobytes())
            if key not in rules:
                if len(set(nodes.tolist())) < nodes.size:
                    raise np.linalg.LinAlgError(
                        f"duplicate knots {nodes} make the dimension {n + 1} system singular")
                rules[key] = (nodes, barycentric_weights(nodes))
            keys.append(key)
    return keys


def _compile(grid: SparseGrid, reduced: ReducedGrid, values) -> tuple[dict, list]:
    """The grid's signed sum of tensors: the rule table of ``_active_keys``
    and, per tensor grid, (coefficient, value matrix gathered from the
    reduced table, active rule keys); the values are checked up front."""
    vals = _value_matrix(values)
    if vals.shape[1] != reduced.size:
        raise ValueError("values do not conform to the reduced grid")
    rules: dict[tuple[int, bytes], tuple[np.ndarray, np.ndarray]] = {}
    return rules, [(t.coeff, vals[:, reduced.n[start : start + t.size]],
                    _active_keys(rules, t.knots_per_dim))
                   for t, start in zip(grid.tensors, grid.tensor_offsets())]


def _tensor_sum(rules: dict, tensors, points: np.ndarray) -> np.ndarray:
    """Sum over compiled (coefficient, value matrix, active keys) tensors of
    the coefficient times the tensor interpolant at ``points`` (dim x Q);
    each 1D basis a tensor uses is evaluated once and shared."""
    used = {key for _, _, keys in tensors for key in keys}
    bases = {key: basis_matrix(*rules[key], points[key[0]]) for key in used}
    out = np.zeros((tensors[0][1].shape[0], points.shape[1]))
    for coeff, tv, keys in tensors:
        basis = _kron_rows([bases[key] for key in keys]) if keys else np.ones((points.shape[1], 1))
        out += coeff * (tv @ basis.T)
    return out


class Interpolant:
    """Sparse-grid interpolant, compiled once from (grid, reduced, values).

    Holds the table of distinct multi-node 1D rules with their barycentric
    weights and the grid's compiled tensors (``_compile``).  Build it once
    and call it many times: each call evaluates every distinct 1D basis
    once per chunk of query points and shares it across the tensors.
    """

    def __init__(self, grid: SparseGrid, reduced: ReducedGrid, values):
        self.dim = grid.dim
        self._rules, self._tensors = _compile(grid, reduced, values)
        self.n_outputs = self._tensors[0][1].shape[0]

    def __call__(self, points) -> np.ndarray:
        """Interpolant values at query points (dim x Q); shape (V, Q)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[0] != self.dim:
            raise ValueError(f"points must be {self.dim} x Q")
        result = np.empty((self.n_outputs, points.shape[1]))
        for lo in range(0, points.shape[1], _QUERY_CHUNK):
            chunk = points[:, lo : lo + _QUERY_CHUNK]
            result[:, lo : lo + chunk.shape[1]] = _tensor_sum(self._rules, self._tensors, chunk)
        return result


def interpolate(grid: SparseGrid, reduced: ReducedGrid, values, points) -> np.ndarray:
    """Evaluate the sparse-grid interpolant at query points (dim x Q).

    Reproduces exactly any polynomial the grid spans; for nested knot
    families the interpolant matches the data at the grid knots.  To
    evaluate the same surrogate repeatedly, build an ``Interpolant`` once.
    """
    return Interpolant(grid, reduced, values)(points)


def _default_steps(domain: Domain, points: np.ndarray, h: float | None) -> np.ndarray:
    """Finite-difference steps, shape like ``points``.

    Bounded directions use (b - a) / 1e5; unbounded ones scale with the
    query coordinate.
    """
    if h is not None:
        if h <= 0:
            raise ValueError("finite-difference step must be positive")
        return np.full(points.shape, float(h))
    lo, hi = domain.lower, domain.upper
    steps = np.empty(points.shape)
    for n in range(domain.dim):
        if np.isfinite(lo[n]) and np.isfinite(hi[n]):
            steps[n, :] = (hi[n] - lo[n]) / 1e5
        else:
            steps[n, :] = 1e-5 * np.maximum(1.0, np.abs(points[n, :]))
    return steps


def _warn_outside(domain: Domain, points: np.ndarray, what: str):
    if not np.all(domain.contains(points)):
        warnings.warn(
            f"{what}: query points outside the domain; the global polynomial extrapolates",
            RuntimeWarning,
            stacklevel=3,
        )


def gradient(grid: SparseGrid, reduced: ReducedGrid, values, domain: Domain,
             points, h: float | None = None) -> np.ndarray:
    """Centered-difference gradient of the surrogate at each point.

    Returns shape (N, Q) for a single-output table and (V, N, Q) for a
    V-output one.  Points closer than one step to a finite boundary switch
    to one-sided second-order differences, keeping the error order
    uniform.
    """
    vals = _value_matrix(values)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    _warn_outside(domain, points, "gradient")
    N, Q = points.shape
    steps = _default_steps(domain, points, h)
    lo, hi = domain.lower, domain.upper
    # build all displaced points, then a single interpolate call
    batches = []
    plans = []  # (kind, n, q, step)
    for n in range(N):
        for q in range(Q):
            s = steps[n, q]
            x = points[:, q]
            if np.isfinite(hi[n]) and x[n] + s > hi[n]:
                kind = "backward"
                offs = (0.0, -s, -2.0 * s)
            elif np.isfinite(lo[n]) and x[n] - s < lo[n]:
                kind = "forward"
                offs = (0.0, s, 2.0 * s)
            else:
                kind = "centered"
                offs = (s, -s)
            for o in offs:
                p = x.copy()
                p[n] += o
                batches.append(p)
            plans.append((kind, n, q, s))
    fvals = interpolate(grid, reduced, vals, np.array(batches).T)
    out = np.empty((vals.shape[0], N, Q))
    pos = 0
    for kind, n, q, s in plans:
        if kind == "centered":
            out[:, n, q] = (fvals[:, pos] - fvals[:, pos + 1]) / (2.0 * s)
            pos += 2
        elif kind == "forward":
            out[:, n, q] = (-3.0 * fvals[:, pos] + 4.0 * fvals[:, pos + 1] - fvals[:, pos + 2]) / (2.0 * s)
            pos += 3
        else:
            out[:, n, q] = (3.0 * fvals[:, pos] - 4.0 * fvals[:, pos + 1] + fvals[:, pos + 2]) / (2.0 * s)
            pos += 3
    return out[0] if vals.shape[0] == 1 else out


def hessian(grid: SparseGrid, reduced: ReducedGrid, values, domain: Domain,
            point, h: float | None = None) -> np.ndarray:
    """Centered second-difference Hessian of a scalar surrogate at one point."""
    vals = _value_matrix(values)
    if vals.shape[0] != 1:
        raise ValueError("hessian requires a single-output value table")
    x = np.asarray(point, dtype=float).ravel()
    N = x.size
    _warn_outside(domain, x[:, None], "hessian")
    steps = _default_steps(domain, x[:, None], h)[:, 0]
    pts = [x]
    for n in range(N):
        for sgn in (1.0, -1.0):
            p = x.copy()
            p[n] += sgn * steps[n]
            pts.append(p)
    pairs = [(n, k) for n in range(N) for k in range(n + 1, N)]
    for n, k in pairs:
        for sn, sk in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            p = x.copy()
            p[n] += sn * steps[n]
            p[k] += sk * steps[k]
            pts.append(p)
    fv = interpolate(grid, reduced, vals, np.array(pts).T)[0]
    H = np.empty((N, N))
    f0 = fv[0]
    for n in range(N):
        fp, fm = fv[1 + 2 * n], fv[2 + 2 * n]
        H[n, n] = (fp - 2.0 * f0 + fm) / steps[n] ** 2
    base = 1 + 2 * N
    for j, (n, k) in enumerate(pairs):
        fpp, fpm, fmp, fmm = fv[base + 4 * j : base + 4 * j + 4]
        val = (fpp - fpm - fmp + fmm) / (4.0 * steps[n] * steps[k])
        H[n, k] = H[k, n] = val
    return H
