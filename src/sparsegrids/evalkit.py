"""Evaluation, quadrature, interpolation, and surrogate derivatives.

An ``Interpolant`` evaluates the sparse-grid interpolant along one of two
paths, chosen per chunk of query points.  Both take the nodes and
barycentric weights of the distinct 1D rules with more than one node from
the families' rule store (``KnotFamily._barycentric``), which computes
them once per process.

* Per tensor (``_tensor_sum``), for large chunks: each distinct rule's
  basis is evaluated once per chunk; each tensor gathers its values from
  the reduced table through the extended->reduced map, contracts them
  with its active dimensions' bases (those with more than one node) one
  dimension at a time, never forming their Kronecker product, and adds
  its share with the combination coefficient.
* Reduced weights (``_ReducedWeights``), for small chunks: the
  interpolant at Q points is ``V @ W`` with V the reduced value table and
  W (reduced knots x Q) the reduced-knot weights.  Each extended knot's
  weight is its coefficient times the product of its active dimensions'
  basis values; the weights of extended knots that reduce to the same
  knot are summed.  All rules of one dimension are evaluated in one
  barycentric pass, then W takes one gather-product per dimension and one
  segment sum, whatever the number of tensors.

The per-tensor path costs a fixed amount per tensor, the reduced-weight
path about one product per extended knot and query point; a chunk of Q
points takes the reduced weights when E * Q <= _REDUCED_WEIGHTS_PER_TENSOR * T
for E extended knots and T tensors.  Their tables are built on the first
chunk that takes them, so an interpolant that only sees large chunks
never builds them.  Both paths agree to round-off.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .grid import ReducedGrid, SparseGrid, _rule_slots, lattice_keys, reduce_grid
from ._bary import basis_matrix

__all__ = [
    "EvaluationTable",
    "Domain",
    "Interpolant",
    "evaluate_on_grid",
    "quadrature",
    "interpolate",
    "gradient",
    "hessian",
    "vectorized",
]

_QUERY_CHUNK = 512
# a chunk of Q query points on a grid of E extended knots and T tensors
# takes the reduced weights when E * Q <= _REDUCED_WEIGHTS_PER_TENSOR * T
# (module docstring); about where both paths took equal time on the d=10
# w=4 Smolyak grid (E * Q / T = 379: 11.8 against 12.0 ms a chunk; 421:
# 11.6 against 15.0 ms), while smaller grids cross over at larger E * Q / T
_REDUCED_WEIGHTS_PER_TENSOR = 400


class EvaluationError(RuntimeError):
    """A user function failed at a grid knot."""

    def __init__(self, knot, cause, block: int = 1):
        where = f"knot {knot}" if block == 1 else f"the block of {block} knots from knot {knot}"
        super().__init__(f"function evaluation failed at {where}: {cause}")
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


def _value_matrix(values, reduced: ReducedGrid | None = None) -> np.ndarray:
    """The (outputs x knots) matrix of an EvaluationTable or array-like; a
    ValueError unless it has one column per knot of ``reduced``, if given."""
    if isinstance(values, EvaluationTable):
        vals = values.values
    else:
        vals = np.atleast_2d(np.asarray(values, dtype=float))
    if reduced is not None and vals.shape[1] != reduced.size:
        raise ValueError(f"values have {vals.shape[1]} columns, "
                         f"reduced grid has {reduced.size} knots")
    return vals


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


class vectorized:
    """Mark ``f`` as a block function of the knots.

    ``evaluate_on_grid``, ``quadrature`` and ``adapt`` call a marked f once
    per block of at most 512 new knots, in knot order: it takes the
    dim x M matrix of the block's knots and returns the outputs x M matrix
    of their values (a length-M vector is one output), column j the value
    at knot column j.  Every column is checked as a one-knot value is, so
    a marked f whose columns are bitwise the one-knot values gives the
    same table and adaptive run as the unmarked f.  Calling the marker
    calls f.
    """

    __slots__ = ("f",)

    def __init__(self, f):
        self.f = f

    def __call__(self, knots):
        return self.f(knots)


def _call_f(f, knots: np.ndarray, cols, outputs: int | None):
    """Yield (i, checked values) for the knot columns ``cols`` in order, i
    the position in ``cols`` of the values' first column: a ``vectorized``
    f is called once per block of at most ``_QUERY_CHUNK`` columns
    (dim x M), any other f once per column, and each call gives an
    outputs x M float matrix.  A failure of f, a non-finite value or an
    output count other than ``outputs`` (None: that of the first value)
    raises an EvaluationError naming the knot, after the values of the
    columns before it were yielded; a failure of f on a block names the
    block's first knot and its size."""
    marked = isinstance(f, vectorized)
    step = _QUERY_CHUNK if marked else 1
    for lo in range(0, len(cols), step):
        block = cols[lo : lo + step]
        size = len(block)
        try:
            if marked:
                out = np.atleast_2d(np.array(f(knots[:, block]), dtype=float))
                if out.ndim != 2 or out.shape[1] != size:
                    raise ValueError(f"function returns a {out.shape} array for {size} knots, "
                                     f"not one column per knot")
            else:
                out = np.asarray(f(knots[:, block[0]]), dtype=float).reshape(-1, 1)
        except Exception as exc:  # attach the offending knot
            raise EvaluationError(knots[:, block[0]], exc, size) from exc
        finite = np.isfinite(out)
        n_ok = size if finite.all() else int(finite.all(axis=0).argmin())
        if n_ok and outputs is not None and out.shape[0] != outputs:
            raise EvaluationError(knots[:, block[0]], ValueError(
                f"function returns {out.shape[0]} outputs, the stored values have {outputs}"))
        outputs = out.shape[0]
        if n_ok:
            yield lo, out[:, :n_ok]
        if n_ok < size:
            raise EvaluationError(knots[:, block[n_ok]],
                                  ValueError(f"non-finite value {out[:, n_ok]}"))


def _gather(f, knots: np.ndarray, keys=None, store: dict | None = None) -> np.ndarray:
    """Values at the knot columns (outputs x knots) through ``_call_f``.
    ``store`` maps a key to (knot, value vector); a knot whose key is
    stored takes its vector, and the others are evaluated in knot order,
    each committed once its value passed the checks, so a failing ``f``
    leaves every earlier value stored.  Without a store every knot is new
    and the values go straight into the result."""
    if store is None:
        values = None
        for lo, vals in _call_f(f, knots, range(knots.shape[1]), None):
            if values is None:
                values = np.empty((vals.shape[0], knots.shape[1]))
            values[:, lo : lo + vals.shape[1]] = vals
        return values
    new: dict = {}  # each key not yet stored, at its first column
    for p, key in enumerate(keys):
        if key not in store:
            new.setdefault(key, p)
    cols, new_keys = list(new.values()), list(new)
    outputs = next(iter(store.values()))[1].size if store else None
    for i, vals in _call_f(f, knots, cols, outputs):
        for j, value in enumerate(vals.T, i):
            store[new_keys[j]] = knots[:, cols[j]].copy(), value
    # knots x outputs in Fortran order, so its transpose is C-contiguous
    return np.array([store[key][1] for key in keys], order="F").T


def evaluate_on_grid(f, reduced: ReducedGrid, old=None) -> EvaluationTable:
    """Evaluate ``f`` at every reduced knot through ``_gather``, recycling
    old evaluations.

    ``f`` takes one knot and returns its value vector, or, marked with
    ``vectorized``, takes blocks of at most 512 knots (dim x M) and returns
    outputs x M.  Either way the new knots are evaluated in knot order.
    ``old`` is a previous (EvaluationTable, SparseGrid, ReducedGrid) triple
    (the grid entry may be None; only the reduced knots are matched).  A
    knot of the old reduced grid is not evaluated again: its column is
    copied bitwise.  Every failure of ``f`` raises an EvaluationError.
    """
    if old is None:
        return EvaluationTable(_gather(f, reduced.knots), new_evaluations=reduced.size)
    old_table, _, old_reduced = old
    old_vals = _value_matrix(old_table, old_reduced)
    store = dict(zip(lattice_keys(old_reduced.knots, reduced.tol),
                     zip(old_reduced.knots.T, old_vals.T)))
    recycled = len(store)
    values = _gather(f, reduced.knots, lattice_keys(reduced.knots, reduced.tol), store)
    return EvaluationTable(values, new_evaluations=len(store) - recycled)


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
    return _value_matrix(values_or_f, reduced) @ reduced.weights


def _compile(grid: SparseGrid, reduced: ReducedGrid, values) -> list:
    """The grid's signed sum of tensors: per tensor grid, (coefficient, value
    matrix gathered from the reduced table, active rule keys), a key
    (dimension, node count) for each multi-node rule; a one-node rule drops
    out, its basis is exactly 1.0.  The values are checked up front."""
    vals = _value_matrix(values, reduced)
    return [(t.coeff, vals[:, reduced.n[start : start + t.size]],
             [(n, c) for n, c in enumerate(t.m) if c > 1])
            for t, start in zip(grid.tensors, grid.tensor_offsets())]


def _tensor_sum(families, tensors, points: np.ndarray) -> np.ndarray:
    """Sum over compiled (coefficient, value matrix, active keys) tensors of
    the coefficient times the tensor interpolant at ``points`` (dim x Q);
    each 1D basis the tensors use is evaluated once (nodes x Q) and shared,
    and a tensor contracts its values with them one dimension at a time."""
    used = {key for _, _, keys in tensors for key in keys}
    bases = {(n, c): basis_matrix(*families[n]._barycentric(c), points[n]).T for n, c in used}
    out = np.zeros((tensors[0][1].shape[0], points.shape[1]))
    for coeff, tv, keys in tensors:
        s = tv  # each step contracts the fastest remaining dimension
        for k, key in enumerate(keys):
            B = bases[key]
            s = s.reshape(-1, len(B)) @ B if k == 0 else (s.reshape(-1, *B.shape) * B).sum(axis=1)
        out += coeff * s
    return out


class _ReducedWeights:
    """The reduced-weight path of an ``Interpolant`` (module docstring).

    Per dimension with a multi-node rule: the nodes and barycentric weights
    of its multi-node rules end to end, each rule's first slot, the rule of
    each slot, and each extended knot's slot (``grid._rule_slots``), where
    -1, the extra last slot, stands for a one-node rule (basis 1.0).
    Extended knots are sorted by their reduced knot, so reduced knot p owns
    the segment from ``starts[p]``.
    """

    def __init__(self, grid: SparseGrid, reduced: ReducedGrid):
        order = np.argsort(reduced.n, kind="stable")
        sorted_n = reduced.n[order]
        self.starts = np.flatnonzero(np.r_[True, sorted_n[1:] != sorted_n[:-1]])
        sizes = [t.size for t in grid.tensors]
        self.coeff = np.repeat([float(t.coeff) for t in grid.tensors], sizes)[order]
        self.dims = []
        for n, (counts, slot, _) in enumerate(_rule_slots(grid)):
            # a one-node rule comes first and holds slot 0 alone: shift it to -1
            one = int(counts[0] == 1)
            counts = counts[one:].tolist()
            if not counts:
                continue
            rules = [grid.families[n]._barycentric(c) for c in counts]
            self.dims.append((n, np.concatenate([nodes for nodes, _ in rules]),
                              np.concatenate([bw for _, bw in rules]),
                              np.cumsum([0, *counts[:-1]]),
                              np.repeat(np.arange(len(counts)), counts), (slot - one)[order]))

    def __call__(self, values: np.ndarray, points: np.ndarray) -> np.ndarray:
        w = np.repeat(self.coeff[:, None], points.shape[1], axis=1)
        for n, nodes, bw, rule_starts, seg, slot in self.dims:
            w *= _stacked_basis(nodes, bw, rule_starts, seg, points[n])[slot]
        return values @ np.add.reduceat(w, self.starts, axis=0)


def _stacked_basis(nodes, bw, rule_starts, seg, pts) -> np.ndarray:
    """Barycentric bases of several 1D rules stored end to end, at ``pts``:
    row s is node s's basis function, the extra last row is 1.0.  As in
    ``basis_matrix``, a point on a node, or so near it that the weight over
    the distance overflows, gets the exact unit row of each rule holding
    that node."""
    out = np.empty((nodes.size + 1, pts.size))
    out[-1] = 1.0
    d = pts[None, :] - nodes[:, None]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        r = bw[:, None] / d
        np.divide(r, np.add.reduceat(r, rule_starts, axis=0)[seg], out=out[:-1])
    hit_s, hit_q = np.nonzero((d == 0.0) | np.isinf(r))
    if hit_s.size:
        # the rest of the hit rule's column is finite / inf = 0 already
        out[hit_s, hit_q] = 1.0
    return out


class Interpolant:
    """Sparse-grid interpolant, compiled once from (grid, reduced, values).

    Holds the grid's compiled tensors (``_compile``); the barycentric
    weights of their rules come from the families' process-wide store.
    Build it once and call it many times: each chunk of query points takes
    the per-tensor or the reduced-weight path by its size (module
    docstring).
    """

    def __init__(self, grid: SparseGrid, reduced: ReducedGrid, values):
        self.dim = grid.dim
        self._tensors = _compile(grid, reduced, values)
        self.n_outputs = self._tensors[0][1].shape[0]
        self._values = _value_matrix(values)
        self._grid, self._reduced = grid, reduced
        # the most query points a chunk may hold to take the reduced weights
        self._reduced_chunk = _REDUCED_WEIGHTS_PER_TENSOR * len(self._tensors) // reduced.n.size
        self._reduced_weights = None

    def _chunk(self, points: np.ndarray) -> np.ndarray:
        """Interpolant values at one chunk of query points."""
        if points.shape[1] > self._reduced_chunk:
            return _tensor_sum(self._grid.families, self._tensors, points)
        if self._reduced_weights is None:
            self._reduced_weights = _ReducedWeights(self._grid, self._reduced)
        return self._reduced_weights(self._values, points)

    def __call__(self, points) -> np.ndarray:
        """Interpolant values at query points (dim x Q); shape (V, Q)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[0] != self.dim:
            raise ValueError(f"points must be {self.dim} x Q")
        result = np.empty((self.n_outputs, points.shape[1]))
        for lo in range(0, points.shape[1], _QUERY_CHUNK):
            chunk = points[:, lo : lo + _QUERY_CHUNK]
            result[:, lo : lo + chunk.shape[1]] = self._chunk(chunk)
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


def _warn_outside(domain: Domain, points: np.ndarray, what: str, stacklevel: int = 3):
    if not np.all(domain.contains(points)):
        warnings.warn(
            f"{what}: query points outside the domain; the global polynomial extrapolates",
            RuntimeWarning,
            stacklevel=stacklevel,
        )


def gradient(grid: SparseGrid, reduced: ReducedGrid, values, domain: Domain,
             points, h: float | None = None) -> np.ndarray:
    """Centered-difference gradient of the surrogate at each point.

    Returns shape (N, Q) for a single-output table and (V, N, Q) for a
    V-output one.  Points closer than one step to a finite boundary switch
    to one-sided second-order differences, keeping the error order
    uniform.
    """
    return _gradient(Interpolant(grid, reduced, values), domain, points, h)


def _gradient(interp: Interpolant, domain: Domain, points, h: float | None = None) -> np.ndarray:
    """``gradient`` of a compiled surrogate."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    _warn_outside(domain, points, "gradient", stacklevel=4)
    N, Q = points.shape
    steps = _default_steps(domain, points, h)
    lo, hi = domain.lower, domain.upper
    # build all displaced points, then a single surrogate call
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
    fvals = interp(np.array(batches).T)
    out = np.empty((interp.n_outputs, N, Q))
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
    return out[0] if interp.n_outputs == 1 else out


def hessian(grid: SparseGrid, reduced: ReducedGrid, values, domain: Domain,
            point, h: float | None = None) -> np.ndarray:
    """Centered second-difference Hessian of a scalar surrogate at one point."""
    return _hessian(Interpolant(grid, reduced, values), domain, point, h)


def _hessian(interp: Interpolant, domain: Domain, point, h: float | None = None) -> np.ndarray:
    """``hessian`` of a compiled surrogate."""
    if interp.n_outputs != 1:
        raise ValueError("hessian requires a single-output value table")
    x = np.asarray(point, dtype=float).ravel()
    N = x.size
    _warn_outside(domain, x[:, None], "hessian", stacklevel=4)
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
    fv = interp(np.array(pts).T)[0]
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
