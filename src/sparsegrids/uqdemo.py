"""Forward and inverse UQ on a 1D stochastic diffusion problem.

The model is -(a u')' = rhs on (0, 1) with homogeneous Dirichlet data and
a piecewise-constant random diffusivity: independent uniform variables on
[-sqrt(3), sqrt(3)] scale the field on equal subintervals.  The quantity
of interest is the spatial integral of the solution.  The inverse problem
calibrates the random inputs from noisy point observations via a
least-squares fit on a sparse-grid surrogate, followed by a Gaussian
(Laplace) approximation of the posterior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .evalkit import (Domain, EvaluationTable, Interpolant, _gradient, evaluate_on_grid,
                      interpolate, quadrature, vectorized)
from .grid import ReducedGrid, SparseGrid, build_sparse_grid_from_rule, reduce_grid
from .knots import cc_family, gauss_family, leja_family, DistributionSpec
from .levels import LevelMap
from .midx import preset
from .pce import sobol_indices

__all__ = [
    "DiffusionModel",
    "InverseProblem",
    "ForwardConfig",
    "ForwardReport",
    "InverseReport",
    "fem_solve",
    "qoi_integral",
    "forward_uq",
    "make_synthetic_data",
    "build_solution_surrogate",
    "least_squares_objective",
    "negative_log_likelihood",
    "minimize",
    "posterior_covariance",
    "posterior_forward_uq",
    "run_inverse_pipeline",
]

SQRT3 = math.sqrt(3.0)


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class DiffusionModel:
    """Diffusion problem with a piecewise-constant random coefficient.

    The coefficient is mu + sum_n sigmas[n] * y_n on the n-th of
    ``n_random`` equal subintervals; it must stay positive over the whole
    input box [-sqrt(3), sqrt(3)]^n_random.  The sample-independent part
    of the FEM system (mesh, element midpoints and their subintervals,
    lumped load) is assembled once per model, so a custom ``rhs`` is
    evaluated once and must be a pure function of x.
    """

    n_random: int
    sigmas: tuple[float, ...]
    mu: float = 1.0
    mesh: int = 200
    rhs: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        object.__setattr__(self, "sigmas", tuple(float(s) for s in self.sigmas))
        if len(self.sigmas) != self.n_random:
            raise ModelError("need one sigma per random variable")
        if self.mesh < 2:
            raise ModelError("mesh must have at least 2 elements")
        if self.mu - SQRT3 * max(abs(s) for s in self.sigmas) <= 0.0:
            raise ModelError("coefficient can turn nonpositive on the input box")

    @cached_property
    def nodes(self) -> np.ndarray:
        """The uniform mesh on [0, 1], built once per model."""
        nodes = np.linspace(0.0, 1.0, self.mesh + 1)
        nodes.flags.writeable = False
        return nodes

    @cached_property
    def _assembly(self) -> _Assembly:
        xs = self.nodes
        h = xs[1] - xs[0]
        mids, dx = (xs[:-1] + xs[1:]) / 2.0, np.diff(xs)
        cells = self._cells(mids)
        load = h * self._rhs_values(xs[1:-1])
        for a in (mids, dx, cells, load):
            a.flags.writeable = False
        return _Assembly(h, mids, cells, load, dx)

    @cached_property
    def _sigma_array(self) -> np.ndarray:
        return np.asarray(self.sigmas)

    def domain(self) -> Domain:
        return Domain(np.array([[-SQRT3] * self.n_random, [SQRT3] * self.n_random]))

    def coefficient(self, x: np.ndarray, y) -> np.ndarray:
        """Diffusivity a(x, y) on the subinterval decomposition; for an
        n_random x M block ``y``, one column per sample."""
        y = np.asarray(y, dtype=float)
        y = y if y.ndim == 2 else y.ravel()
        assembly = self._assembly
        cell = assembly.cells if x is assembly.mids else self._cells(x)
        sigma = self._sigma_array[cell]
        a = y[cell]  # mu + sigma * y, in place
        a *= sigma if y.ndim == 1 else sigma[:, None]
        a += self.mu
        return a

    def _cells(self, x) -> np.ndarray:
        """The subinterval of each point of ``x``."""
        return np.minimum((np.asarray(x) * self.n_random).astype(int), self.n_random - 1)

    def _rhs_values(self, x: np.ndarray) -> np.ndarray:
        if self.rhs is None:
            return np.ones_like(x)
        return np.asarray(self.rhs(x), dtype=float)


class _Assembly(NamedTuple):
    """The sample-independent FEM data of one model."""

    h: float  # mesh width
    mids: np.ndarray  # element midpoints, where the coefficient is sampled
    cells: np.ndarray  # the subinterval of each midpoint
    load: np.ndarray  # lumped load at the interior nodes
    dx: np.ndarray  # node spacings of the trapezoid rule


def _tridiagonal_solve(diag, off, load):
    """Solution of the symmetric tridiagonal system with diagonal ``diag``
    and off-diagonal ``off`` for ``load``: Gaussian elimination without
    pivoting (the Thomas algorithm) in LAPACK ``gtsv``'s operation order,
    on lists of floats or elementwise on the rows of arrays.  Overwrites
    ``diag`` and ``load``."""
    d, b = diag[0], load[0]
    for i, e in enumerate(off, 1):
        fact = e / d
        diag[i] = d = diag[i] - fact * e
        load[i] = b = load[i] - fact * b
    load[-1] = x = b / d
    for i in range(len(off) - 1, -1, -1):
        load[i] = x = (load[i] - off[i] * x) / diag[i]
    return load


def fem_solve(model: DiffusionModel, y, query_points=None) -> np.ndarray:
    """Piecewise-linear FEM solution; nodal values or interpolated queries.

    The load vector uses trapezoid lumping, which keeps the nodal values
    exact for constant forcing.  The stiffness system is solved by
    Gaussian elimination without pivoting (the Thomas algorithm).  Only
    the coefficient and the solve depend on ``y``: the mesh and the lumped
    load are assembled once per model, so a custom ``rhs`` is evaluated
    once and must be a pure function of x.

    ``y`` is one sample, or an n_random x M block of samples (a 2D
    array), which one Thomas sweep solves together: the result then has
    one column per sample, each bitwise that of its one-sample solve.  An
    overridden ``coefficient`` is called once per sample.
    """
    y = np.asarray(y, dtype=float)
    block = y.ndim == 2
    y = y if block else y.reshape(-1, 1)  # one sample runs as a one-column block
    if y.shape[0] != model.n_random:
        raise ModelError(f"y has {y.shape[0]} entries, but the model has {model.n_random} "
                         "random variables")
    h, mids, _, load, _ = model._assembly
    if type(model).coefficient is not DiffusionModel.coefficient:
        a_el = np.column_stack([model.coefficient(mids, col) for col in np.ascontiguousarray(y.T)])
    else:
        a_el = model.coefficient(mids, y)
    bad = (a_el <= 0.0).any(axis=0)
    if bad.any():
        column = f" (column {bad.argmax()})" if block else ""
        raise ModelError(f"nonpositive diffusion coefficient for y = {y[:, bad.argmax()]}{column}")
    main = a_el[:-1] + a_el[1:]
    main /= h
    off = a_el[1:-1] / -h  # bitwise -a_el[1:-1] / h
    del a_el
    # bitwise as LAPACK gtsv, which never pivots here: pivot i = a_i/h + 1/sum_{e<i} h/a_e > |off_i|
    # the sweep runs over rows, elementwise on each sample's column, in place in u
    u = np.zeros((model.mesh + 1, y.shape[1]))
    u[1:-1] = load[:, None]
    _tridiagonal_solve(main, off, u[1:-1])
    if query_points is not None:
        query_points = np.asarray(query_points, dtype=float)
        u = np.stack([np.interp(query_points, model.nodes, col) for col in u.T], axis=-1)
    return u if block else u[..., 0]


def qoi_integral(model: DiffusionModel, y):
    """Spatial integral of the solution, by the trapezoid rule on the mesh;
    for an n_random x M block ``y``, the M integrals, each bitwise that of
    its one-sample call."""
    # one contiguous row per sample, so a block's sums run in one-sample order
    rows = np.ascontiguousarray(fem_solve(model, y).T)
    # np.trapezoid(u, model.nodes) with the node spacings taken from the model,
    # dx * (u[1:] + u[:-1]) / 2.0 in place
    terms = rows[..., 1:] + rows[..., :-1]
    terms *= model._assembly.dx
    terms /= 2.0
    q = terms.sum(axis=-1)
    return float(q) if q.ndim == 0 else q


# ---------------------------------------------------------------------------
# forward UQ
# ---------------------------------------------------------------------------


@dataclass
class ForwardConfig:
    """Grid and sampling choices of the forward analysis.

    ``knots`` picks the family on the input box: nested Clenshaw-Curtis
    with the doubling map (default), Gauss-Legendre or symmetric Leja with
    their natural maps.
    """

    w: int = 4
    samples: int = 5000
    seed: int = 0
    knots: str = "cc"


@dataclass
class ForwardReport:
    mean: float
    variance: float
    sobol_principal: np.ndarray
    sobol_total: np.ndarray
    pdf_samples: np.ndarray
    n_grid_points: int


def _input_box_grid(n_random: int, w: int, knots: str = "cc"):
    """Sparse grid on the input box for the requested knot family."""
    if knots == "cc":
        rule, level_map = preset("SM")
        family = cc_family(-SQRT3, SQRT3)
    elif knots == "gauss-legendre":
        rule, level_map = preset("TD")
        family = gauss_family(DistributionSpec.uniform(-SQRT3, SQRT3))
    elif knots == "leja":
        rule, _ = preset("TD")
        level_map = LevelMap.TWO_STEP
        family = leja_family(-SQRT3, SQRT3, "symmetric")
    else:
        raise ValueError(f"unknown demo knot family {knots!r}")
    grid = build_sparse_grid_from_rule(n_random, w, family, level_map, rule)
    return grid, reduce_grid(grid)


def forward_uq(model: DiffusionModel, config: ForwardConfig | None = None) -> ForwardReport:
    """Mean, variance, sensitivity indices, and pdf samples of the QoI."""
    config = config or ForwardConfig()
    grid, reduced = _input_box_grid(model.n_random, config.w, config.knots)
    table = evaluate_on_grid(vectorized(lambda ys: qoi_integral(model, ys)), reduced)
    mean = float(quadrature(table, reduced)[0])
    second = float(quadrature(table.values**2, reduced)[0])
    variance = second - mean**2
    domain = model.domain()
    principal, total = sobol_indices(grid, reduced, table, domain, "legendre")
    rng = np.random.default_rng(config.seed)
    ys = rng.uniform(-SQRT3, SQRT3, size=(model.n_random, config.samples))
    pdf_samples = interpolate(grid, reduced, table, ys)[0]
    return ForwardReport(
        mean=mean,
        variance=variance,
        sobol_principal=principal,
        sobol_total=total,
        pdf_samples=pdf_samples,
        n_grid_points=reduced.size,
    )


# ---------------------------------------------------------------------------
# inverse UQ
# ---------------------------------------------------------------------------


@dataclass
class InverseProblem:
    """Noisy point observations of the solution at the interior mesh nodes."""

    x_points: np.ndarray
    data: np.ndarray
    sigma_eps: float | None = None

    @property
    def n_data(self) -> int:
        return self.data.size


def make_synthetic_data(model: DiffusionModel, y_star, sigma_eps: float,
                        seed: int = 0) -> InverseProblem:
    """Observations at the interior nodes: truth plus iid normal noise."""
    xs = model.nodes[1:-1]
    truth = fem_solve(model, y_star, xs)
    rng = np.random.default_rng(seed)
    data = truth + sigma_eps * rng.standard_normal(xs.size)
    return InverseProblem(x_points=xs, data=data, sigma_eps=sigma_eps)


@dataclass
class SolutionSurrogate:
    """Sparse-grid approximation of the solution at the measurement points.

    The interpolant is compiled once, when the surrogate is built.
    """

    grid: SparseGrid
    reduced: ReducedGrid
    table: EvaluationTable
    domain: Domain

    def __post_init__(self):
        self._interpolant = Interpolant(self.grid, self.reduced, self.table)

    def __call__(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float).reshape(-1, 1)
        return self._interpolant(y)[:, 0]


def build_solution_surrogate(model: DiffusionModel, problem: InverseProblem,
                             w: int = 5, knots: str = "cc") -> SolutionSurrogate:
    """Vector surrogate of the solution values at all measurement points."""
    grid, reduced = _input_box_grid(model.n_random, w, knots)
    table = evaluate_on_grid(vectorized(lambda ys: fem_solve(model, ys, problem.x_points)),
                             reduced)
    return SolutionSurrogate(grid=grid, reduced=reduced, table=table,
                             domain=model.domain())


def _misfits(problem: InverseProblem, surrogate: SolutionSurrogate, y) -> np.ndarray:
    return problem.data - surrogate(y)


def least_squares_objective(problem: InverseProblem, surrogate: SolutionSurrogate):
    """Sum of squared data misfits as a function of the random inputs."""

    def objective(y) -> float:
        return float(np.sum(_misfits(problem, surrogate, y) ** 2))

    return objective


def negative_log_likelihood(problem: InverseProblem, surrogate: SolutionSurrogate,
                            sigma_eps: float):
    """Negative log-likelihood under iid normal noise of scale sigma_eps.

    Differs from the least-squares objective by 1/(2 sigma_eps^2) and an
    additive constant over all n_data observations, so both have the same
    minimizer.
    """
    ls = least_squares_objective(problem, surrogate)
    k = problem.n_data

    def objective(y) -> float:
        const = k * math.log(sigma_eps**2) + k * 0.5 * math.log(2.0 * math.pi)
        return ls(y) / (2.0 * sigma_eps**2) + const

    return objective


def _fold_into_box(point: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Reflect a point across the box boundary until it lies inside."""
    out = point.copy()
    for n in range(out.size):
        lo, hi = lower[n], upper[n]
        if not (np.isfinite(lo) and np.isfinite(hi)):
            continue
        width = hi - lo
        t = (out[n] - lo) % (2.0 * width)
        out[n] = lo + (t if t <= width else 2.0 * width - t)
    return out


def minimize(objective, start, bounds: Domain | None = None,
             diameter_tol: float = 1e-8, max_iter: int = 2000) -> np.ndarray:
    """Nelder-Mead simplex search; returns the best vertex.

    Stops when the simplex diameter drops below ``diameter_tol`` or after
    ``max_iter`` iterations.  With ``bounds``, trial points reflect back
    into the box.
    """
    x0 = np.asarray(start, dtype=float).ravel()
    n = x0.size

    def clip(p):
        return _fold_into_box(p, bounds.lower, bounds.upper) if bounds is not None else p

    def fun(p):
        v = objective(p)
        if not np.isfinite(v):
            raise ValueError(f"objective is not finite at {p}")
        return v

    simplex = [clip(x0)]
    for k in range(n):
        p = x0.copy()
        p[k] = p[k] + 0.05 if p[k] != 0.0 else 0.00025
        simplex.append(clip(p))
    fvals = [fun(p) for p in simplex]
    for _ in range(max_iter):
        order = np.argsort(fvals)
        simplex = [simplex[i] for i in order]
        fvals = [fvals[i] for i in order]
        spread = max(
            np.linalg.norm(simplex[i] - simplex[0]) for i in range(1, n + 1)
        )
        if spread < diameter_tol:
            break
        centroid = np.mean(simplex[:-1], axis=0)
        xr = clip(centroid + (centroid - simplex[-1]))
        fr = fun(xr)
        if fr < fvals[0]:
            xe = clip(centroid + 2.0 * (centroid - simplex[-1]))
            fe = fun(xe)
            simplex[-1], fvals[-1] = (xe, fe) if fe < fr else (xr, fr)
        elif fr < fvals[-2]:
            simplex[-1], fvals[-1] = xr, fr
        else:
            xc = clip(centroid + 0.5 * (simplex[-1] - centroid))
            fc = fun(xc)
            if fc < fvals[-1]:
                simplex[-1], fvals[-1] = xc, fc
            else:
                for i in range(1, n + 1):
                    simplex[i] = clip(simplex[0] + 0.5 * (simplex[i] - simplex[0]))
                    fvals[i] = fun(simplex[i])
    best = int(np.argmin(fvals))
    return simplex[best]


class SingularCovarianceError(RuntimeError):
    pass


def posterior_covariance(problem: InverseProblem, surrogate: SolutionSurrogate,
                         y_map) -> tuple[float, np.ndarray]:
    """Noise estimate and Laplace posterior covariance at the minimizer.

    The noise variance is the mean squared misfit; the covariance is its
    product with the inverse Gram matrix of the misfit Jacobian, computed
    from surrogate finite differences of all observations at once.
    """
    y_map = np.asarray(y_map, dtype=float).ravel()
    g = _gradient(surrogate._interpolant, surrogate.domain, y_map.reshape(-1, 1))
    jac = -g.reshape(problem.n_data, y_map.size)
    sigma2 = float(np.mean(_misfits(problem, surrogate, y_map) ** 2))
    gram = jac.T @ jac
    try:
        cov = sigma2 * np.linalg.inv(gram)
    except np.linalg.LinAlgError as exc:
        raise SingularCovarianceError("misfit Jacobian is rank deficient") from exc
    if not np.all(np.isfinite(cov)):
        raise SingularCovarianceError("misfit Jacobian is rank deficient")
    cov = (cov + cov.T) / 2.0
    if np.any(np.linalg.eigvalsh(cov) <= 0.0):
        raise SingularCovarianceError("posterior covariance is not positive definite")
    return math.sqrt(sigma2), cov


def posterior_forward_uq(model: DiffusionModel, y_map, cov: np.ndarray,
                         config: ForwardConfig | None = None) -> ForwardReport:
    """Forward analysis of the QoI under the Gaussian posterior.

    A Gauss rule in independent standard-normal coordinates is mapped
    through the covariance factor before each model call, so the model
    sees correlated inputs while the grid stays tensorized.
    """
    config = config or ForwardConfig(w=4)
    y_map = np.asarray(y_map, dtype=float).ravel()
    cov = np.asarray(cov, dtype=float)
    eig = np.linalg.eigvalsh((cov + cov.T) / 2.0)
    if np.any(eig <= 0.0):
        raise SingularCovarianceError("posterior covariance must be positive definite")
    chol_lower = np.linalg.cholesky(cov)

    def to_model_space(z: np.ndarray) -> np.ndarray:
        return y_map + chol_lower @ z

    rule, _ = preset("TD")
    grid = build_sparse_grid_from_rule(
        model.n_random, config.w,
        gauss_family(DistributionSpec.normal(0.0, 1.0)), LevelMap.LINEAR, rule,
    )
    reduced = reduce_grid(grid)
    # each column mapped on its own: one matrix product would round differently
    table = evaluate_on_grid(vectorized(lambda zs: qoi_integral(
        model, np.column_stack([to_model_space(z) for z in zs.T]))), reduced)
    mean = float(quadrature(table, reduced)[0])
    second = float(quadrature(table.values**2, reduced)[0])
    rng = np.random.default_rng(config.seed)
    zs = rng.standard_normal((model.n_random, config.samples))
    pdf_samples = interpolate(grid, reduced, table, zs)[0]
    return ForwardReport(
        mean=mean,
        variance=second - mean**2,
        sobol_principal=np.full(model.n_random, np.nan),
        sobol_total=np.full(model.n_random, np.nan),
        pdf_samples=pdf_samples,
        n_grid_points=reduced.size,
    )


@dataclass
class InverseReport:
    y_map: np.ndarray
    sigma_eps_estimate: float
    cov: np.ndarray
    posterior: ForwardReport


def run_inverse_pipeline(sigmas=(0.5, 0.5), y_star=(0.9, -1.1), sigma_eps: float = 0.01,
                         n_data: int = 80, surrogate_w: int = 5, seed: int = 0,
                         knots: str = "cc",
                         posterior_config: ForwardConfig | None = None) -> InverseReport:
    """End-to-end calibration: data, surrogate, MAP, Laplace, posterior UQ."""
    model = DiffusionModel(n_random=len(sigmas), sigmas=tuple(sigmas), mesh=n_data + 1)
    problem = make_synthetic_data(model, np.asarray(y_star, dtype=float), sigma_eps,
                                  seed=seed)
    surrogate = build_solution_surrogate(model, problem, w=surrogate_w, knots=knots)
    objective = least_squares_objective(problem, surrogate)
    y_map = minimize(objective, np.zeros(model.n_random), bounds=model.domain())
    sigma_est, cov = posterior_covariance(problem, surrogate, y_map)
    posterior = posterior_forward_uq(model, y_map, cov, posterior_config)
    return InverseReport(y_map=y_map, sigma_eps_estimate=sigma_est, cov=cov,
                         posterior=posterior)
