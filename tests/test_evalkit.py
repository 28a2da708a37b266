import math

import numpy as np
import pytest

import sparsegrids as sg
from sparsegrids._bary import barycentric_weights, basis_matrix
from sparsegrids.evalkit import (
    Domain,
    EvaluationError,
    EvaluationTable,
    Interpolant,
    evaluate_on_grid,
    gradient,
    hessian,
    interpolate,
    quadrature,
)
from sparsegrids.uqdemo import DiffusionModel, build_solution_surrogate, make_synthetic_data

EXPSUM = lambda y: math.exp(float(np.sum(y)))
EXACT_2D = (math.e - 1.0) ** 2


def product_lagrange_interpolate(knots_per_dim, values_fd, point):
    """Independent oracle: plain product-form Lagrange on one tensor grid.

    ``values_fd`` is flat with the first dimension fastest.
    """
    dims = len(knots_per_dim)
    shape = [k.size for k in knots_per_dim]
    total = 0.0
    for flat in range(int(np.prod(shape))):
        rem = flat
        basis = 1.0
        for n in range(dims):
            j = rem % shape[n]
            rem //= shape[n]
            nodes = knots_per_dim[n]
            for k in range(shape[n]):
                if k != j:
                    basis *= (point[n] - nodes[k]) / (nodes[j] - nodes[k])
        total += values_fd[flat] * basis
    return total


def loop_interpolate(grid, reduced, values, points):
    """Reference: every tensor computes its own 1D weights and bases."""
    vals = np.atleast_2d(np.asarray(values, dtype=float))
    points = np.atleast_2d(np.asarray(points, dtype=float))
    result = np.zeros((vals.shape[0], points.shape[1]))
    offsets = grid.tensor_offsets()
    for lo in range(0, points.shape[1], 512):
        chunk = points[:, lo : lo + 512]
        for t, start in zip(grid.tensors, offsets[:-1]):
            tv = vals[:, reduced.n[start : start + t.size]]
            basis = None
            for n in range(grid.dim):
                nodes = t.knots_per_dim[n]
                B = basis_matrix(nodes, barycentric_weights(nodes), chunk[n])
                if basis is None:
                    basis = B
                else:
                    basis = (B[:, :, None] * basis[:, None, :]).reshape(chunk.shape[1], -1)
            result[:, lo : lo + chunk.shape[1]] += t.coeff * (tv @ basis.T)
    return result


def three_outputs(y):
    return np.array([EXPSUM(y), math.sin(3.0 * y[0]), y[0] * y[-1] - 0.5])


def interpolant_case(kind):
    """(grid, reduced, table) for a nested, a non-nested and a 3-output case."""
    if kind == "gauss":
        rule, _ = sg.preset("TD")
        fam, lm, dim = sg.gauss_family(sg.DistributionSpec.uniform(0, 1)), sg.LevelMap.LINEAR, 2
    else:
        rule, lm = sg.preset("SM")
        fam, dim = sg.cc_family(0, 1), 3
    grid = sg.build_sparse_grid_from_rule(dim, 4, fam, lm, rule)
    reduced = sg.reduce_grid(grid)
    table = evaluate_on_grid(three_outputs if kind == "three-outputs" else EXPSUM, reduced)
    return grid, reduced, table


@pytest.fixture(scope="module")
def exp_grid_w5():
    rule, lm = sg.preset("SM")
    grid = sg.build_sparse_grid_from_rule(2, 5, sg.cc_family(0, 1), lm, rule)
    reduced = sg.reduce_grid(grid)
    table = evaluate_on_grid(EXPSUM, reduced)
    return grid, reduced, table


class TestEvaluateOnGrid:
    def test_recycle_same_grid_costs_nothing(self, smolyak_cc_unit_w3):
        grid, reduced = smolyak_cc_unit_w3
        first = evaluate_on_grid(EXPSUM, reduced)
        again = evaluate_on_grid(EXPSUM, reduced, old=(first, grid, reduced))
        assert again.new_evaluations == 0
        assert np.array_equal(again.values, first.values)

    def test_recycled_chain_matches_cold(self):
        rule, lm = sg.preset("SM")
        fam = sg.cc_family(0, 1)
        prev = None
        cumulative_new = 0
        total_without = 0
        for w in range(1, 7):
            grid = sg.build_sparse_grid_from_rule(2, w, fam, lm, rule)
            reduced = sg.reduce_grid(grid)
            table = evaluate_on_grid(EXPSUM, reduced, old=prev)
            cold = evaluate_on_grid(EXPSUM, reduced)
            assert np.array_equal(table.values, cold.values)
            cumulative_new += table.new_evaluations
            total_without += reduced.size
            prev = (table, grid, reduced)
        assert cumulative_new == prev[2].size  # nested chain reuses everything
        assert cumulative_new < total_without

    def test_vector_outputs(self, smolyak_cc_unit_w3):
        _, reduced = smolyak_cc_unit_w3
        table = evaluate_on_grid(lambda y: np.array([y[0], y[1], 1.0]), reduced)
        assert table.values.shape == (3, reduced.size)

    def test_failure_carries_knot(self, smolyak_cc_unit_w3):
        _, reduced = smolyak_cc_unit_w3

        def bad(y):
            if y[0] > 0.9:
                raise RuntimeError("boom")
            return 0.0

        with pytest.raises(EvaluationError) as err:
            evaluate_on_grid(bad, reduced)
        assert err.value.knot[0] > 0.9

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_value_names_knot(self, smolyak_cc_unit_w3, bad):
        _, reduced = smolyak_cc_unit_w3
        with pytest.raises(EvaluationError, match="non-finite") as err:
            quadrature(lambda y: bad if y[0] > 0.9 else 1.0, reduced)
        assert err.value.knot[0] > 0.9

    def test_workers_match_serial(self, smolyak_cc_unit_w3):
        _, reduced = smolyak_cc_unit_w3
        serial = evaluate_on_grid(EXPSUM, reduced)
        threaded = evaluate_on_grid(EXPSUM, reduced, workers=4)
        assert np.array_equal(serial.values, threaded.values)


class TestQuadrature:
    def test_constant(self, smolyak_cc_unit_w3):
        _, reduced = smolyak_cc_unit_w3
        table = evaluate_on_grid(lambda y: 1.0, reduced)
        assert quadrature(table, reduced)[0] == pytest.approx(1.0, abs=1e-12)

    def test_linear_exact(self, smolyak_cc_unit_w3):
        _, reduced = smolyak_cc_unit_w3
        table = evaluate_on_grid(lambda y: y[0], reduced)
        assert quadrature(table, reduced)[0] == pytest.approx(0.5, abs=1e-12)

    def test_expsum_w5(self, exp_grid_w5):
        _, reduced, table = exp_grid_w5
        assert quadrature(table, reduced)[0] == pytest.approx(EXACT_2D, abs=1e-6)

    def test_callable_form_returns_table(self, smolyak_cc_unit_w3):
        _, reduced = smolyak_cc_unit_w3
        q, table = quadrature(EXPSUM, reduced)
        assert isinstance(table, EvaluationTable)
        assert q[0] == pytest.approx(EXACT_2D, abs=5e-4)

    def test_size_mismatch(self, smolyak_cc_unit_w3):
        _, reduced = smolyak_cc_unit_w3
        with pytest.raises(ValueError):
            quadrature(np.ones((1, 5)), reduced)

    def test_order_independence(self, exp_grid_w5, rng):
        _, reduced, table = exp_grid_w5
        q = quadrature(table, reduced)[0]
        perm = rng.permutation(reduced.size)
        assert float(table.values[0, perm] @ reduced.weights[perm]) == pytest.approx(
            q, abs=1e-13
        )


class TestInterpolate:
    def test_reproduces_values_at_knots(self, exp_grid_w5):
        grid, reduced, table = exp_grid_w5
        got = interpolate(grid, reduced, table, reduced.knots)
        assert np.max(np.abs(got - table.values)) < 1e-10

    def test_linear_reproduction(self, rng):
        rule, lm = sg.preset("TD")
        grid = sg.build_sparse_grid_from_rule(
            2, 2, sg.gauss_family(sg.DistributionSpec.uniform(0, 1)), sg.LevelMap.LINEAR, rule)
        reduced = sg.reduce_grid(grid)
        table = evaluate_on_grid(lambda y: 2.0 * y[0] - 0.7 * y[1] + 0.3, reduced)
        pts = rng.uniform(0, 1, (2, 40))
        got = interpolate(grid, reduced, table, pts)
        want = 2.0 * pts[0] - 0.7 * pts[1] + 0.3
        assert np.max(np.abs(got[0] - want)) < 1e-12

    def test_convergence_at_w5(self, exp_grid_w5, rng):
        grid, reduced, table = exp_grid_w5
        pts = rng.uniform(0, 1, (2, 100))
        got = interpolate(grid, reduced, table, pts)[0]
        want = np.exp(pts.sum(axis=0))
        assert np.max(np.abs(got - want)) <= 1e-6

    def test_combination_equals_full_tensor_on_box(self, rng):
        # the combination over a box set telescopes to the corner tensor;
        # oracle is an independent product-form Lagrange evaluation
        fam = sg.gauss_family(sg.DistributionSpec.uniform(0, 1))
        box = sg.box_set([2, 2])
        grid = sg.build_sparse_grid(box, fam, sg.LevelMap.LINEAR)
        reduced = sg.reduce_grid(grid)
        f = lambda y: math.sin(3.0 * y[0]) + y[1] ** 3
        table = evaluate_on_grid(f, reduced)
        corner = sg.build_tensor_grid([2, 2], fam, sg.LevelMap.LINEAR)
        corner_vals = [f(corner.knots[:, j]) for j in range(corner.size)]
        pts = rng.uniform(0, 1, (2, 25))
        got = interpolate(grid, reduced, table, pts)[0]
        want = [
            product_lagrange_interpolate(corner.knots_per_dim, corner_vals, pts[:, q])
            for q in range(pts.shape[1])
        ]
        assert np.max(np.abs(got - np.asarray(want))) < 1e-12

    def test_quadrature_of_interpolant_consistent(self, exp_grid_w5):
        # integrating the interpolant with a dense reference rule matches
        # the sparse quadrature
        grid, reduced, table = exp_grid_w5
        q = quadrature(table, reduced)[0]
        ref = sg.gauss_knots(sg.DistributionSpec.uniform(0, 1), 40)
        g1, g2 = np.meshgrid(ref.nodes, ref.nodes, indexing="ij")
        pts = np.stack([g1.ravel(), g2.ravel()])
        wts = (ref.weights[:, None] * ref.weights[None, :]).ravel()
        vals = interpolate(grid, reduced, table, pts)[0]
        assert float(vals @ wts) == pytest.approx(q, abs=1e-8)

    def test_dimension_mismatch(self, exp_grid_w5):
        grid, reduced, table = exp_grid_w5
        with pytest.raises(ValueError):
            interpolate(grid, reduced, table, np.zeros((3, 4)))


class TestInterpolant:
    @pytest.mark.parametrize("kind", ["cc", "gauss", "three-outputs"])
    @pytest.mark.parametrize("query", ["one", "past-chunk", "knots"])
    def test_matches_per_tensor_loop(self, kind, query, rng):
        grid, reduced, table = interpolant_case(kind)
        pts = {
            "one": rng.uniform(0, 1, (grid.dim, 1)),
            "past-chunk": rng.uniform(0, 1, (grid.dim, 1300)),
            "knots": reduced.knots,
        }[query]
        want = loop_interpolate(grid, reduced, table.values, pts)
        got = Interpolant(grid, reduced, table)(pts)
        assert got.shape == want.shape == (table.n_outputs, pts.shape[1])
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        assert np.array_equal(interpolate(grid, reduced, table, pts), got)

    def test_rules_are_shared_across_tensors(self):
        grid, reduced, table = interpolant_case("cc")
        interp = Interpolant(grid, reduced, table)
        distinct = {(n, k.tobytes()) for t in grid.tensors for n, k in enumerate(t.knots_per_dim)}
        assert len(interp._rules) == len(distinct) < grid.dim * len(grid.tensors)

    def test_wrong_shapes_rejected(self):
        grid, reduced, table = interpolant_case("cc")
        with pytest.raises(ValueError):
            Interpolant(grid, reduced, table.values[:, :-1])
        with pytest.raises(ValueError):
            interpolate(grid, reduced, np.ones((1, reduced.size + 1)), reduced.knots)
        interp = Interpolant(grid, reduced, table)
        with pytest.raises(ValueError):
            interp(np.zeros((grid.dim + 1, 4)))

    def test_vector_gradient_stacks_scalar_gradients(self):
        grid, reduced, table = interpolant_case("three-outputs")
        domain = Domain(np.array([[0.0] * grid.dim, [1.0] * grid.dim]))
        # centered, forward and backward differences all occur
        pts = np.array([[0.0, 0.3, 1.0], [0.5, 1.0, 0.2], [0.4, 0.7, 0.0]])
        g = gradient(grid, reduced, table, domain, pts)
        assert g.shape == (3, grid.dim, pts.shape[1])
        h = 1e-5
        coeff_sum = sum(abs(t.coeff) for t in grid.tensors)
        for k in range(3):
            scalar = gradient(grid, reduced, table.values[k], domain, pts)
            assert scalar.shape == (grid.dim, pts.shape[1])
            # a few roundings per tensor term of the surrogate, amplified by 1/h
            tol = 4 * np.finfo(float).eps * coeff_sum * np.max(np.abs(table.values[k])) / h
            assert np.max(np.abs(g[k] - scalar)) <= tol

    def test_solution_surrogate_matches_interpolate(self, rng):
        model = DiffusionModel(n_random=2, sigmas=(0.5, 0.5), mesh=11)
        problem = make_synthetic_data(model, np.array([0.9, -1.1]), 0.01)
        surrogate = build_solution_surrogate(model, problem, w=4)
        for y in rng.uniform(-math.sqrt(3), math.sqrt(3), (3, 2)):
            want = interpolate(surrogate.grid, surrogate.reduced, surrogate.table, y[:, None])
            assert np.array_equal(surrogate(y), want[:, 0])


class TestGradientHessian:
    def _setup(self, f, w=5):
        rule, lm = sg.preset("SM")
        grid = sg.build_sparse_grid_from_rule(2, w, sg.cc_family(0, 1), lm, rule)
        reduced = sg.reduce_grid(grid)
        table = evaluate_on_grid(f, reduced)
        domain = Domain(np.array([[0.0, 0.0], [1.0, 1.0]]))
        return grid, reduced, table, domain

    def test_linear_surrogate(self, rng):
        grid, reduced, table, domain = self._setup(lambda y: 3.0 * y[0] + 2.0 * y[1])
        pts = rng.uniform(0.01, 0.99, (2, 10))
        g = gradient(grid, reduced, table, domain, pts)
        assert np.max(np.abs(g[0] - 3.0)) < 1e-8
        assert np.max(np.abs(g[1] - 2.0)) < 1e-8

    def test_exp_gradient_at_center(self):
        grid, reduced, table, domain = self._setup(EXPSUM)
        g = gradient(grid, reduced, table, domain, np.array([[0.5], [0.5]]))
        assert np.max(np.abs(g[:, 0] - math.e)) < 1e-4

    def test_halving_step_is_second_order(self):
        grid, reduced, table, domain = self._setup(lambda y: math.sin(3 * y[0]) * math.cos(2 * y[1]))
        pt = np.array([[0.4], [0.6]])
        exact = np.array([
            3 * math.cos(3 * 0.4) * math.cos(2 * 0.6),
            -2 * math.sin(3 * 0.4) * math.sin(2 * 0.6),
        ])
        # h large enough that truncation dominates the surrogate error
        e1 = np.abs(gradient(grid, reduced, table, domain, pt, h=2e-2)[:, 0] - exact)
        e2 = np.abs(gradient(grid, reduced, table, domain, pt, h=1e-2)[:, 0] - exact)
        ratio = e1 / e2
        assert np.all(ratio > 3.0) and np.all(ratio < 5.5)

    def test_one_sided_fallback_at_boundary(self):
        grid, reduced, table, domain = self._setup(lambda y: 3.0 * y[0] + 2.0 * y[1])
        pts = np.array([[0.0, 1.0], [0.5, 0.5]])
        g = gradient(grid, reduced, table, domain, pts)
        assert np.max(np.abs(g[0] - 3.0)) < 1e-7

    def test_outside_domain_warns(self):
        grid, reduced, table, domain = self._setup(EXPSUM)
        with pytest.warns(RuntimeWarning):
            gradient(grid, reduced, table, domain, np.array([[1.5], [0.5]]))

    def test_bad_step_rejected(self):
        grid, reduced, table, domain = self._setup(EXPSUM)
        with pytest.raises(ValueError):
            gradient(grid, reduced, table, domain, np.array([[0.5], [0.5]]), h=-1.0)

    def test_hessian_of_quadratic(self):
        # second differences are exact on quadratics; a moderate step keeps
        # the 1/h^2 roundoff amplification below the tolerance
        grid, reduced, table, domain = self._setup(lambda y: y[0] ** 2 + 3.0 * y[0] * y[1])
        H = hessian(grid, reduced, table, domain, np.array([0.5, 0.5]), h=1e-3)
        assert np.max(np.abs(H - np.array([[2.0, 3.0], [3.0, 0.0]]))) < 1e-6

    def test_hessian_symmetric(self):
        grid, reduced, table, domain = self._setup(EXPSUM)
        H = hessian(grid, reduced, table, domain, np.array([0.3, 0.7]))
        assert np.array_equal(H, H.T)

    def test_hessian_of_exp(self):
        grid, reduced, table, domain = self._setup(EXPSUM)
        H = hessian(grid, reduced, table, domain, np.array([0.5, 0.5]))
        center = interpolate(grid, reduced, table, np.array([[0.5], [0.5]]))[0, 0]
        assert np.max(np.abs(H - center)) < 1e-3

    def test_unbounded_default_step(self):
        rule, _ = sg.preset("TD")
        fam = sg.gauss_family(sg.DistributionSpec.normal(0, 1))
        grid = sg.build_sparse_grid_from_rule(2, 4, fam, sg.LevelMap.LINEAR, rule)
        reduced = sg.reduce_grid(grid)
        table = evaluate_on_grid(lambda y: y[0] ** 2 + y[1], reduced)
        domain = Domain(np.array([[-np.inf, -np.inf], [np.inf, np.inf]]))
        g = gradient(grid, reduced, table, domain, np.array([[1.0], [0.0]]))
        assert g[:, 0] == pytest.approx([2.0, 1.0], abs=1e-6)


class TestQuadratureGridArgument:
    def test_sparse_grid_is_reduced_on_the_fly(self, smolyak_cc_unit_w3):
        grid, reduced = smolyak_cc_unit_w3
        q1, _ = quadrature(EXPSUM, grid)
        table = evaluate_on_grid(EXPSUM, reduced)
        q2 = quadrature(table, reduced)
        assert q1 == pytest.approx(q2, abs=1e-15)
