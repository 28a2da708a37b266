import itertools
import math

import numpy as np
import pytest

import sparsegrids as sg
from sparsegrids import evalkit, uqdemo
from sparsegrids.uqdemo import (
    DiffusionModel,
    ForwardConfig,
    ModelError,
    SQRT3,
    _input_box_grid,
    _tridiagonal_solve,
    build_solution_surrogate,
    fem_solve,
    forward_uq,
    least_squares_objective,
    make_synthetic_data,
    minimize,
    negative_log_likelihood,
    posterior_covariance,
    posterior_forward_uq,
    qoi_integral,
    run_inverse_pipeline,
)


def two_material_solution(a1, a2):
    """Closed-form solution of -(a u')' = 1 with a = a1 on [0, 1/2] and
    a2 on [1/2, 1]; returns (u(x), flux constant C with a u' = C - x)."""
    C = (a2 + 3.0 * a1) / (4.0 * (a1 + a2))

    def u(x):
        x = np.asarray(x, dtype=float)
        left = (C * x - x**2 / 2.0) / a1
        u_half = (C * 0.5 - 0.125) / a1
        right = u_half + (C * (x - 0.5) - (x**2 - 0.25) / 2.0) / a2
        return np.where(x <= 0.5, left, right)

    return u, C


class TestFEM:
    def test_nodal_exactness_constant_coefficient(self):
        model = DiffusionModel(n_random=2, sigmas=(0.0, 0.0), mesh=200)
        u = fem_solve(model, [0.0, 0.0])
        xs = model.nodes
        assert np.max(np.abs(u - xs * (1 - xs) / 2)) < 1e-10

    def test_boundary_conditions(self):
        model = DiffusionModel(n_random=2, sigmas=(0.5, 0.1))
        u = fem_solve(model, [1.0, -1.0])
        assert u[0] == 0.0 and u[-1] == 0.0

    def test_two_material_nodal_values_and_flux(self):
        model = DiffusionModel(n_random=2, sigmas=(0.5, 0.1), mesh=200)
        y = (SQRT3, -SQRT3)
        a1 = 1.0 + 0.5 * y[0]
        a2 = 1.0 + 0.1 * y[1]
        exact, C = two_material_solution(a1, a2)
        u = fem_solve(model, y)
        assert np.max(np.abs(u - exact(model.nodes))) < 1e-10
        # flux from the one-sided element slopes, corrected for the load
        # over the half element, is exact for the piecewise-quadratic truth
        h = 1.0 / model.mesh
        i = model.mesh // 2
        flux_left = a1 * (u[i] - u[i - 1]) / h - h / 2.0
        flux_right = a2 * (u[i + 1] - u[i]) / h + h / 2.0
        assert abs(flux_left - flux_right) < 1e-8
        assert flux_left == pytest.approx(C - 0.5, abs=1e-8)

    @pytest.mark.parametrize("mesh", [2, 3, 81, 200])
    @pytest.mark.parametrize("rhs", [None, lambda x: np.sin(3.0 * x) + x**2], ids=["const", "sin"])
    def test_matches_scipy_banded_solver(self, mesh, rhs):
        from scipy.linalg import solve_banded

        model = DiffusionModel(n_random=3, sigmas=(0.5, 0.1, 0.3), mesh=mesh, rhs=rhs)
        rng = np.random.default_rng(mesh)
        for y in rng.uniform(-SQRT3, SQRT3, (20, 3)):
            xs = model.nodes
            h = xs[1] - xs[0]
            a_el = model.coefficient((xs[:-1] + xs[1:]) / 2.0, y)
            ab = np.zeros((3, mesh - 1))
            ab[0, 1:] = ab[2, :-1] = -a_el[1:-1] / h
            ab[1, :] = (a_el[:-1] + a_el[1:]) / h
            b = h * (np.ones(mesh - 1) if rhs is None else rhs(xs[1:-1]))
            want = np.concatenate([[0.0], solve_banded((1, 1), ab, b), [0.0]])
            np.testing.assert_array_max_ulp(fem_solve(model, y), want, maxulp=4)

    def test_query_points_interpolation(self):
        model = DiffusionModel(n_random=2, sigmas=(0.0, 0.0), mesh=100)
        got = fem_solve(model, [0.0, 0.0], np.array([0.25, 0.5]))
        assert got == pytest.approx([0.25 * 0.75 / 2, 0.125], abs=1e-4)

    def test_positivity_guard(self):
        model = DiffusionModel(n_random=1, sigmas=(0.5,))
        with pytest.raises(ModelError):
            fem_solve(model, [-10.0])

    def test_invariant_checked_at_construction(self):
        with pytest.raises(ModelError):
            DiffusionModel(n_random=1, sigmas=(0.6,), mu=1.0)

    def test_mesh_convergence_second_order(self):
        # manufactured smooth coefficient, exercised through the same
        # solver path by overriding the random field
        class SmoothModel(DiffusionModel):
            def coefficient(self, x, y):
                return 1.0 + 0.5 * np.sin(2.0 * np.pi * np.asarray(x))

        errors = []
        for mesh in (25, 50, 100, 200):
            model = SmoothModel(n_random=1, sigmas=(0.0,), mesh=mesh)
            u = fem_solve(model, [0.0])
            fine = SmoothModel(n_random=1, sigmas=(0.0,), mesh=1600)
            u_ref = fem_solve(fine, [0.0], model.nodes)
            errors.append(np.max(np.abs(u - u_ref)))
        rates = [math.log2(errors[i] / errors[i + 1]) for i in range(3)]
        assert min(rates) > 1.6


def per_call_reference(model, y, query_points=None):
    """The FEM solve with every part of the system assembled in the call,
    and its trapezoid-rule integral by np.trapezoid."""
    xs = model.nodes
    h = xs[1] - xs[0]
    a_el = model.coefficient((xs[:-1] + xs[1:]) / 2.0, y)
    main = (a_el[:-1] + a_el[1:]) / h
    off = -a_el[1:-1] / h
    rhs = np.ones_like(xs[1:-1]) if model.rhs is None else model.rhs(xs[1:-1])
    b = h * np.asarray(rhs, dtype=float)
    u = np.array([0.0, *_tridiagonal_solve(main.tolist(), off.tolist(), b.tolist()), 0.0])
    values = u if query_points is None else np.interp(query_points, xs, u)
    return values, float(np.trapezoid(u, xs))


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def sin_rhs(x):
    return np.sin(3.0 * x) + x**2


class TestAssemblyOncePerModel:
    """The sample-independent assembly is built once per model; every
    solve must equal, bit for bit, one that assembles everything itself."""

    @pytest.mark.parametrize("mesh", [2, 3, 37, 200])
    @pytest.mark.parametrize("rhs", [None, sin_rhs], ids=["const", "sin"])
    def test_bitwise_equal_to_per_call_assembly(self, mesh, rhs):
        model = DiffusionModel(n_random=3, sigmas=(0.5, 0.1, 0.3), mesh=mesh, rhs=rhs)
        corners = [list(c) for c in itertools.product((-SQRT3, SQRT3), repeat=3)]
        draws = np.random.default_rng(mesh).uniform(-SQRT3, SQRT3, (10, 3))
        queries = np.array([0.0, 1.0 / 3.0, 0.5, 2.0 / 3.0, 0.99])
        samples = [[0.0, 0.0, 0.0], *corners, *draws]
        for y in samples:
            want_u, want_q = per_call_reference(model, y)
            assert_bitwise(fem_solve(model, y), want_u)
            assert_bitwise(qoi_integral(model, y), want_q)
            assert_bitwise(fem_solve(model, y, queries), per_call_reference(model, y, queries)[0])
        # the same samples as one block: one column each
        ys = np.array(samples).T
        u, uq, q = fem_solve(model, ys), fem_solve(model, ys, queries), qoi_integral(model, ys)
        assert u.shape == (mesh + 1, len(samples)) and uq.shape == (queries.size, len(samples))
        for j, y in enumerate(samples):
            want_u, want_q = per_call_reference(model, y)
            assert_bitwise(u[:, j], want_u)
            assert_bitwise(q[j], np.float64(want_q))
            assert_bitwise(uq[:, j], per_call_reference(model, y, queries)[0])

    def test_models_never_share_assembly(self):
        models = [DiffusionModel(3, (0.5, 0.1, 0.3), mesh=37),
                  DiffusionModel(3, (0.5, 0.1, 0.3), mesh=38),
                  DiffusionModel(3, (0.5, 0.1, 0.3), mesh=37, rhs=sin_rhs),
                  DiffusionModel(3, (0.5, 0.1, 0.3), mesh=37, rhs=lambda x: 2.0 * x)]
        y = [0.4, -1.2, 1.5]
        for _ in range(2):  # interleaved, after every model has built its assembly
            values = []
            for model in models:
                want_u, want_q = per_call_reference(model, y)
                assert_bitwise(fem_solve(model, y), want_u)
                assert_bitwise(qoi_integral(model, y), want_q)
                values.append(want_q)
            assert len(set(values)) == len(models)

    def test_grid_evaluation_equals_per_call_reference(self):
        # a fresh model: its first calls build the assembly, which later
        # calls share and must not write into
        _, reduced = _input_box_grid(3, 4, "cc")
        model = DiffusionModel(n_random=3, sigmas=(0.5, 0.3, 0.2), mesh=37, rhs=sin_rhs)
        table = sg.evaluate_on_grid(lambda y: qoi_integral(model, y), reduced)
        want = np.array([per_call_reference(model, y)[1] for y in reduced.knots.T])
        assert_bitwise(table.values[0], want)

    def test_demo_pipelines_solve_blocks(self, monkeypatch):
        model = DiffusionModel(n_random=3, sigmas=(0.5, 0.3, 0.2), mesh=37)
        blocks = []

        def recorded(model, y, query_points=None, solve=uqdemo.fem_solve):
            blocks.append(np.shape(y))
            return solve(model, y, query_points)

        monkeypatch.setattr(uqdemo, "fem_solve", recorded)
        report = forward_uq(model, ForwardConfig(w=4, samples=10))
        problem = make_synthetic_data(model, [0.9, -1.1, 0.3], 0.01)
        surrogate = build_solution_surrogate(model, problem, w=3)
        posterior = posterior_forward_uq(model, [0.1, 0.2, -0.3], 0.01 * np.eye(3),
                                         ForwardConfig(w=3, samples=10))
        sizes = [report.n_grid_points, 1, surrogate.reduced.size, posterior.n_grid_points]
        assert blocks == [(3, n) if n > 1 else (3,) for n in sizes]
        monkeypatch.undo()
        _, reduced = _input_box_grid(3, 4, "cc")
        want = sg.quadrature(lambda y: qoi_integral(model, y), reduced)[0][0]
        assert_bitwise(np.float64(report.mean), want)

    def test_overridden_coefficient_is_used(self):
        class Graded(DiffusionModel):
            def coefficient(self, x, y):
                return 1.0 + 0.5 * np.asarray(x) + 0.1 * float(np.sum(y))

        graded = Graded(n_random=2, sigmas=(0.5, 0.1), mesh=37)
        plain = DiffusionModel(n_random=2, sigmas=(0.5, 0.1), mesh=37)
        for y in ([0.0, 0.0], [1.0, -0.5]):
            want_u, want_q = per_call_reference(graded, y)
            assert_bitwise(fem_solve(graded, y), want_u)
            assert_bitwise(qoi_integral(graded, y), want_q)
            assert not np.array_equal(fem_solve(plain, y), want_u)
        # a block calls the override once per column
        ys = np.array([[0.0, 1.0, -1.5], [0.0, -0.5, 1.2]])
        u, q = fem_solve(graded, ys), qoi_integral(graded, ys)
        for j, y in enumerate(ys.T):
            want_u, want_q = per_call_reference(graded, y)
            assert_bitwise(u[:, j], want_u)
            assert_bitwise(q[j], np.float64(want_q))
            assert not np.array_equal(fem_solve(plain, ys)[:, j], want_u)

    @pytest.mark.parametrize("y", [[0.1], [0.1, 0.2, 0.9], []])
    def test_length_of_y_checked(self, y):
        model = DiffusionModel(n_random=2, sigmas=(0.5, 0.5))
        with pytest.raises(ModelError, match=rf"y has {len(y)} entries, but the model has 2 "):
            qoi_integral(model, y)
        with pytest.raises(ModelError, match=rf"y has {len(y)} entries"):
            make_synthetic_data(model, np.array(y), 0.01)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_row_count_of_a_block_checked(self, rows):
        model = DiffusionModel(n_random=2, sigmas=(0.5, 0.5))
        with pytest.raises(ModelError, match=rf"y has {rows} entries, but the model has 2 "):
            fem_solve(model, np.zeros((rows, 4)))
        with pytest.raises(ModelError, match=rf"y has {rows} entries"):
            qoi_integral(model, np.zeros((rows, 4)))

    def test_nonpositive_coefficient_names_its_column(self):
        model = DiffusionModel(n_random=2, sigmas=(0.5, 0.5))
        ys = np.array([[0.0, 1.0, 0.3, -10.0], [0.0, 0.5, -10.0, 0.0]])
        with pytest.raises(ModelError, match=r"nonpositive diffusion coefficient for "
                                             r"y = \[ *0\.3 -10\. *\] \(column 2\)"):
            fem_solve(model, ys)


class TestQoI:
    def test_unit_coefficient_integral(self):
        model = DiffusionModel(n_random=2, sigmas=(0.0, 0.0), mesh=400)
        assert qoi_integral(model, [0.0, 0.0]) == pytest.approx(1.0 / 12.0, abs=1e-6)

    def test_monotone_in_first_variable(self):
        model = DiffusionModel(n_random=2, sigmas=(0.5, 0.1))
        values = [qoi_integral(model, [y1, 0.0]) for y1 in np.linspace(-1.5, 1.5, 7)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_expected_value_regression(self):
        model = DiffusionModel(n_random=2, sigmas=(0.5, 0.1), mesh=200)
        rule, lm = sg.preset("SM")
        grid = sg.build_sparse_grid_from_rule(2, 4, sg.cc_family(-SQRT3, SQRT3), lm, rule)
        reduced = sg.reduce_grid(grid)
        q, _ = sg.quadrature(lambda y: qoi_integral(model, y), reduced)
        assert q[0] == pytest.approx(0.0935, abs=5e-4)


@pytest.fixture(scope="module")
def report():
    model = DiffusionModel(n_random=2, sigmas=(0.5, 0.1), mesh=200)
    return forward_uq(model, ForwardConfig(w=4, samples=2000, seed=7))


class TestForwardUQ:

    def test_mean_and_variance(self, report):
        assert report.mean == pytest.approx(0.0935, abs=5e-4)
        assert report.variance == pytest.approx(0.0010, abs=2e-4)

    def test_sobol_indices(self, report):
        assert report.sobol_principal == pytest.approx([0.9709, 0.0244], abs=5e-3)
        assert report.sobol_total == pytest.approx([0.9756, 0.0291], abs=5e-3)

    def test_pdf_samples_are_plausible(self, report):
        s = report.pdf_samples
        assert s.shape == (2000,)
        assert s.mean() == pytest.approx(report.mean, abs=0.005)

    def test_deterministic(self):
        model = DiffusionModel(n_random=2, sigmas=(0.5, 0.1), mesh=200)
        a = forward_uq(model, ForwardConfig(w=3, samples=100, seed=3))
        b = forward_uq(model, ForwardConfig(w=3, samples=100, seed=3))
        assert a.mean == b.mean and a.variance == b.variance
        assert np.array_equal(a.pdf_samples, b.pdf_samples)

    def test_mean_convergence_in_level(self):
        model = DiffusionModel(n_random=2, sigmas=(0.5, 0.1), mesh=200)
        rule, lm = sg.preset("SM")
        fam = sg.cc_family(-SQRT3, SQRT3)
        # in blocks: a one-sample solve runs as a one-column block, slow per sample
        qoi = sg.vectorized(lambda ys: qoi_integral(model, ys))
        grids = {}
        old = None
        for w in range(2, 11):
            grid = sg.build_sparse_grid_from_rule(2, w, fam, lm, rule)
            reduced = sg.reduce_grid(grid)
            table = sg.evaluate_on_grid(qoi, reduced, old=old)
            grids[w] = float(sg.quadrature(table, reduced)[0])
            old = (table, grid, reduced)
        reference = grids[10]
        errors = [abs(grids[w] - reference) for w in range(2, 9)]
        assert all(a > b for a, b in zip(errors, errors[1:]))


class TestMinimize:
    def test_quadratic_bowl(self):
        c = np.array([1.0, -2.0, 0.5])
        best = minimize(lambda y: float(np.sum((np.asarray(y) - c) ** 2)), np.zeros(3))
        assert np.max(np.abs(best - c)) < 1e-6

    def test_rosenbrock(self):
        f = lambda y: (1 - y[0]) ** 2 + 100.0 * (y[1] - y[0] ** 2) ** 2
        best = minimize(f, np.array([-1.2, 1.0]))
        assert np.max(np.abs(best - 1.0)) < 1e-4

    def test_bounds_are_respected(self):
        from sparsegrids.evalkit import Domain

        box = Domain(np.array([[-1.0, -1.0], [1.0, 1.0]]))
        seen = []

        def f(y):
            seen.append(np.array(y))
            return float(np.sum((np.asarray(y) - 5.0) ** 2))

        minimize(f, np.zeros(2), bounds=box)
        stacked = np.stack(seen)
        assert stacked.min() >= -1.0 - 1e-12 and stacked.max() <= 1.0 + 1e-12

    def test_non_finite_start_rejected(self):
        with pytest.raises(ValueError):
            minimize(lambda y: float("nan"), np.zeros(2))


@pytest.fixture(scope="module")
def setup():
    model = DiffusionModel(n_random=2, sigmas=(0.5, 0.5), mesh=81)
    problem = make_synthetic_data(model, np.array([0.9, -1.1]), 0.01, seed=0)
    surrogate = build_solution_surrogate(model, problem, w=5)
    return model, problem, surrogate


class TestInversePipeline:

    def test_data_shape(self, setup):
        _, problem, _ = setup
        assert problem.n_data == 80

    def test_zero_noise_objective_vanishes_at_truth(self):
        # with exact data the objective at the truth is pure surrogate
        # interpolation error
        model = DiffusionModel(n_random=2, sigmas=(0.5, 0.5), mesh=81)
        problem = make_synthetic_data(model, np.array([0.9, -1.1]), 0.0, seed=0)
        surrogate = build_solution_surrogate(model, problem, w=5)
        ls = least_squares_objective(problem, surrogate)
        assert ls(np.array([0.9, -1.1])) < 1e-4
        finer = build_solution_surrogate(model, problem, w=7)
        assert least_squares_objective(problem, finer)(np.array([0.9, -1.1])) < ls(
            np.array([0.9, -1.1])
        )

    def test_nll_differs_from_ls_by_constant(self, setup):
        _, problem, surrogate = setup
        ls = least_squares_objective(problem, surrogate)
        nll = negative_log_likelihood(problem, surrogate, 0.01)
        pts = [np.array([0.0, 0.0]), np.array([0.9, -1.1]), np.array([-0.3, 0.4])]
        consts = [nll(p) - ls(p) / (2 * 0.01**2) for p in pts]
        assert max(consts) - min(consts) < 1e-9

    def test_map_matches_lattice_minimum(self, setup):
        model, problem, surrogate = setup
        ls = least_squares_objective(problem, surrogate)
        y_map = minimize(ls, np.zeros(2), bounds=model.domain())
        span = np.linspace(-0.1, 0.1, 21)
        lattice = [
            (ls(y_map + np.array([a, b])), (a, b)) for a in span for b in span
        ]
        best_val, best_off = min(lattice)
        assert ls(y_map) <= best_val + 1e-12 or np.hypot(*best_off) <= 0.011

    def test_posterior_covariance_properties(self, setup):
        model, problem, surrogate = setup
        ls = least_squares_objective(problem, surrogate)
        y_map = minimize(ls, np.zeros(2), bounds=model.domain())
        sigma_est, cov = posterior_covariance(problem, surrogate, y_map)
        assert 0.005 <= sigma_est <= 0.02
        assert np.array_equal(cov, cov.T)
        assert np.all(np.linalg.eigvalsh(cov) > 0)

    def test_posterior_covariance_uses_the_compiled_surrogate(self, setup, monkeypatch):
        model, problem, surrogate = setup
        y_map = np.array([0.85, -1.05])
        jacobians, compiles = [], []
        gradient_, compile_ = evalkit._gradient, evalkit._compile

        def recorded_gradient(*args):
            jacobians.append(gradient_(*args))
            return jacobians[-1]

        def counted_compile(*args):
            compiles.append(args)
            return compile_(*args)

        monkeypatch.setattr(uqdemo, "_gradient", recorded_gradient)
        monkeypatch.setattr(evalkit, "_compile", counted_compile)
        posterior_covariance(problem, surrogate, y_map)
        assert compiles == []
        assert len(jacobians) == 1
        want = sg.gradient(surrogate.grid, surrogate.reduced, surrogate.table, surrogate.domain,
                           y_map.reshape(-1, 1))
        assert len(compiles) == 1
        assert_bitwise(jacobians[0], want)

    def test_zero_noise_sigma_estimate_below_floor(self):
        model = DiffusionModel(n_random=2, sigmas=(0.5, 0.5), mesh=81)
        problem = make_synthetic_data(model, np.array([0.9, -1.1]), 0.0, seed=0)
        surrogate = build_solution_surrogate(model, problem, w=5)
        ls = least_squares_objective(problem, surrogate)
        y_map = minimize(ls, np.zeros(2), bounds=model.domain())
        sigma_est, _ = posterior_covariance(problem, surrogate, y_map)
        assert sigma_est <= 1e-4

    def test_posterior_forward_reduces_variance(self, setup):
        model, problem, surrogate = setup
        ls = least_squares_objective(problem, surrogate)
        y_map = minimize(ls, np.zeros(2), bounds=model.domain())
        _, cov = posterior_covariance(problem, surrogate, y_map)
        prior = forward_uq(DiffusionModel(n_random=2, sigmas=(0.5, 0.5), mesh=81),
                           ForwardConfig(w=4, samples=500, seed=1))
        post = posterior_forward_uq(DiffusionModel(n_random=2, sigmas=(0.5, 0.5), mesh=81),
                                    y_map, cov, ForwardConfig(w=4, samples=500, seed=1))
        assert post.variance < 0.05 * prior.variance

    def test_degenerate_covariance_limit(self, setup):
        model, problem, surrogate = setup
        tiny = 1e-16 * np.eye(2)
        post = posterior_forward_uq(model, np.array([0.9, -1.1]), tiny,
                                    ForwardConfig(w=2, samples=100, seed=1))
        point_value = qoi_integral(model, [0.9, -1.1])
        assert post.mean == pytest.approx(point_value, abs=1e-10)
        assert post.variance == pytest.approx(0.0, abs=1e-12)

    def test_mapped_knots_have_requested_covariance(self, rng):
        cov = np.array([[0.004, -0.001], [-0.001, 0.0008]])
        chol = np.linalg.cholesky(cov)
        zs = rng.standard_normal((2, 200_000))
        ys = chol @ zs
        assert np.allclose(np.cov(ys), cov, atol=5e-5)

    def test_pipeline_reproducible(self):
        a = run_inverse_pipeline(seed=3, posterior_config=ForwardConfig(w=3, samples=50, seed=3))
        b = run_inverse_pipeline(seed=3, posterior_config=ForwardConfig(w=3, samples=50, seed=3))
        assert np.array_equal(a.y_map, b.y_map)
        assert a.sigma_eps_estimate == b.sigma_eps_estimate
        assert np.array_equal(a.cov, b.cov)


class TestDemoKnotChoices:
    @pytest.mark.parametrize("knots", ["cc", "gauss-legendre", "leja"])
    def test_forward_families_agree_on_the_mean(self, knots):
        model = DiffusionModel(n_random=2, sigmas=(0.5, 0.1), mesh=200)
        rep = forward_uq(model, ForwardConfig(w=4, samples=50, seed=0, knots=knots))
        assert rep.mean == pytest.approx(0.0935, abs=5e-4)

    def test_unknown_family_rejected(self):
        model = DiffusionModel(n_random=2, sigmas=(0.5, 0.1))
        with pytest.raises(ValueError):
            forward_uq(model, ForwardConfig(w=3, knots="mystery"))
