import dataclasses
import math

import numpy as np
import pytest
from conftest import one_tensor_grid

import sparsegrids as sg
from sparsegrids import evalkit
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
from sparsegrids.grid import lattice_keys
from sparsegrids.uqdemo import (DiffusionModel, _input_box_grid, build_solution_surrogate,
                                make_synthetic_data)

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


def loop_interpolate(grid, reduced, values, points, magnitude=False):
    """Reference: every tensor computes its own 1D weights and bases.  With
    ``magnitude``, the same sum over the absolute values of its terms."""
    vals = np.atleast_2d(np.asarray(values, dtype=float))
    if magnitude:
        vals = np.abs(vals)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    result = np.zeros((vals.shape[0], points.shape[1]))
    offsets = grid.tensor_offsets()
    for lo in range(0, points.shape[1], 512):
        chunk = points[:, lo : lo + 512]
        for t, start in zip(grid.tensors, offsets[:-1]):
            tv = vals[:, reduced.n[start : start + t.size]]
            basis = None
            for n in range(grid.dim):
                nodes = grid.families[n](t.m[n]).nodes
                B = basis_matrix(nodes, barycentric_weights(nodes), chunk[n])
                if magnitude:
                    B = np.abs(B)
                if basis is None:
                    basis = B
                else:
                    basis = (B[:, :, None] * basis[:, None, :]).reshape(chunk.shape[1], -1)
            coeff = abs(t.coeff) if magnitude else t.coeff
            result[:, lo : lo + chunk.shape[1]] += coeff * (tv @ basis.T)
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

    @pytest.mark.parametrize("old_out, new_out", [
        (1.0, np.array([2.0, 3.0])),
        (np.array([2.0, 3.0]), 1.0),
    ], ids=["one-to-two", "two-to-one"])
    def test_recycling_rejects_a_changed_output_count(self, old_out, new_out):
        old_grid, old_reduced = sg.quick_preset(2, 2)
        grid, reduced = sg.quick_preset(2, 3)
        old = (evaluate_on_grid(lambda y: old_out, old_reduced), old_grid, old_reduced)
        n_old = old[0].values.shape[0]
        calls = []

        def new_f(y):
            calls.append(y)
            return new_out

        with pytest.raises(EvaluationError, match=f"returns {3 - n_old} outputs, the stored "
                                                  f"values have {n_old}") as err:
            evaluate_on_grid(new_f, reduced, old=old)
        assert len(calls) == 1  # raised before the other new knots were evaluated
        assert np.array_equal(err.value.knot, calls[0])

    def test_output_count_change_raises_at_once(self, smolyak_cc_unit_w3):
        _, reduced = smolyak_cc_unit_w3
        calls = []

        def f(y):
            calls.append(y)
            return [1.0, 2.0] if len(calls) == 3 else 1.0

        with pytest.raises(EvaluationError, match="returns 2 outputs, the stored values have 1"
                           ) as err:
            evaluate_on_grid(f, reduced)
        assert len(calls) == 3
        assert np.array_equal(calls[2], reduced.knots[:, 2])
        assert np.array_equal(err.value.knot, reduced.knots[:, 2])

    @pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
    def test_old_table_must_fit_its_reduced_grid(self, extra):
        old_grid, old_reduced = sg.quick_preset(2, 2)
        _, reduced = sg.quick_preset(2, 3)
        vals = evaluate_on_grid(EXPSUM, old_reduced).values
        vals = vals[:, :-1] if extra < 0 else np.hstack([vals, vals[:, :1]])
        calls = []
        with pytest.raises(ValueError, match=f"values have {old_reduced.size + extra} columns, "
                                             f"reduced grid has {old_reduced.size} knots"):
            evaluate_on_grid(lambda y: calls.append(y) or EXPSUM(y), reduced,
                             old=(EvaluationTable(vals), old_grid, old_reduced))
        assert not calls

    def test_new_knots_called_in_knot_order(self):
        old_grid, old_reduced = sg.quick_preset(2, 2)
        _, reduced = sg.quick_preset(2, 3)
        old = (evaluate_on_grid(EXPSUM, old_reduced), old_grid, old_reduced)
        calls = []
        table = evaluate_on_grid(lambda y: calls.append(y) or EXPSUM(y), reduced, old=old)
        old_keys = set(lattice_keys(old_reduced.knots, reduced.tol))
        new = [p for p, key in enumerate(lattice_keys(reduced.knots, reduced.tol))
               if key not in old_keys]
        assert table.new_evaluations == len(calls) == len(new) > 0
        assert np.array_equal(np.array(calls).T, reduced.knots[:, new])
        assert np.array_equal(table.values, evaluate_on_grid(EXPSUM, reduced).values)

    def test_all_recycled_keeps_the_old_output_count(self):
        grid, reduced = sg.quick_preset(2, 3)
        first = evaluate_on_grid(lambda y: np.array([2.0, 3.0]), reduced)
        again = evaluate_on_grid(lambda y: 1.0, reduced, old=(first, grid, reduced))
        assert again.new_evaluations == 0
        assert np.array_equal(again.values, first.values)

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


def two_outputs(y):
    """Two outputs of one knot, from correctly rounded operations only, so
    the block form below gives the same bits."""
    return np.array([y[0] * y[1] + y[2], (y[0] - y[2]) / (1.0 + y[1] * y[1])])


def two_outputs_block(ys):
    return np.array([ys[0] * ys[1] + ys[2], (ys[0] - ys[2]) / (1.0 + ys[1] * ys[1])])


@pytest.fixture(scope="module")
def cc_d3_w5_w6():
    """Nested CC grids on [0, 1]^3: 441 knots at w=5, 1,073 at w=6."""
    rule, lm = sg.preset("SM")
    grids = [sg.build_sparse_grid_from_rule(3, w, sg.cc_family(0, 1), lm, rule) for w in (5, 6)]
    return [(g, sg.reduce_grid(g)) for g in grids]


class CountedBlocks:
    """A ``vectorized`` function that records the size of each block and
    can fail on its ``fail_on``-th call."""

    def __init__(self, block_f, fail_on=None, failure=None):
        self.sizes, self.block_f, self.fail_on, self.failure = [], block_f, fail_on, failure

    def __call__(self, ys):
        self.sizes.append(ys.shape[1])
        out = self.block_f(ys)
        if len(self.sizes) == self.fail_on:
            return self.failure(ys, out)
        return out


class TestVectorized:
    @pytest.mark.parametrize("recycled", [False, True], ids=["cold", "old"])
    def test_blocks_equal_the_one_knot_loop_bitwise(self, cc_d3_w5_w6, recycled):
        (old_grid, old_reduced), (_, reduced) = cc_d3_w5_w6
        old = None
        if recycled:
            old = (evaluate_on_grid(two_outputs, old_reduced), old_grid, old_reduced)
        want = evaluate_on_grid(two_outputs, reduced, old=old)
        counted = CountedBlocks(two_outputs_block)
        got = evaluate_on_grid(sg.vectorized(counted), reduced, old=old)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.values.shape == (2, reduced.size)
        new = reduced.size - (old_reduced.size if recycled else 0)
        assert got.new_evaluations == want.new_evaluations == new
        assert counted.sizes == [512] * (new // 512) + [new % 512]  # 2 or 3 blocks

    def test_quadrature_takes_the_block_form(self, cc_d3_w5_w6):
        _, (_, reduced) = cc_d3_w5_w6
        counted = CountedBlocks(lambda ys: ys.sum(axis=0))
        integral, table = quadrature(sg.vectorized(counted), reduced)
        want, _ = quadrature(lambda y: y.sum(), reduced)
        assert integral.tobytes() == want.tobytes()
        assert len(counted.sizes) == 3 and table.values.shape == (1, reduced.size)

    @staticmethod
    def _failing_gather(reduced, failure):
        """``_gather`` into a fresh store of a block function whose second
        call goes through ``failure``; returns the error and the store."""
        keys = lattice_keys(reduced.knots, reduced.tol)
        store = {}
        f = sg.vectorized(CountedBlocks(two_outputs_block, 2, failure))
        with pytest.raises(EvaluationError) as err:
            evalkit._gather(f, reduced.knots, keys, store)
        return err.value, store, keys

    def _assert_prefix_stored(self, store, keys, reduced, n):
        assert list(store) == keys[:n]
        for p, key in enumerate(keys[:n]):
            knot, value = store[key]
            assert np.array_equal(knot, reduced.knots[:, p])
            assert value.tobytes() == two_outputs(reduced.knots[:, p]).tobytes()

    def test_a_raising_block_names_its_first_knot_and_size(self, cc_d3_w5_w6):
        _, (_, reduced) = cc_d3_w5_w6

        def boom(ys, out):
            raise RuntimeError("solver diverged")

        err, store, keys = self._failing_gather(reduced, boom)
        assert np.array_equal(err.knot, reduced.knots[:, 512])
        assert "the block of 512 knots from knot" in str(err) and "solver diverged" in str(err)
        assert isinstance(err.cause, RuntimeError)
        self._assert_prefix_stored(store, keys, reduced, 512)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_a_non_finite_column_names_its_knot(self, cc_d3_w5_w6, bad):
        _, (_, reduced) = cc_d3_w5_w6

        def poison(ys, out):
            out[1, 7] = bad
            return out

        err, store, keys = self._failing_gather(reduced, poison)
        assert np.array_equal(err.knot, reduced.knots[:, 519])
        assert "non-finite value" in str(err)
        self._assert_prefix_stored(store, keys, reduced, 519)

    def test_an_output_count_change_names_the_knot(self, cc_d3_w5_w6):
        _, (_, reduced) = cc_d3_w5_w6
        err, store, keys = self._failing_gather(reduced, lambda ys, out: out[:1])
        assert np.array_equal(err.knot, reduced.knots[:, 512])
        assert "returns 1 outputs, the stored values have 2" in str(err)
        self._assert_prefix_stored(store, keys, reduced, 512)

    def test_a_block_without_one_column_per_knot_is_an_error(self, smolyak_cc_unit_w3):
        _, reduced = smolyak_cc_unit_w3
        n = reduced.size
        with pytest.raises(EvaluationError, match=rf"the block of {n} knots from knot .* "
                                                  rf"for {n} knots, not one column per knot"
                           ) as err:
            evaluate_on_grid(sg.vectorized(lambda ys: ys.T), reduced)
        assert np.array_equal(err.value.knot, reduced.knots[:, 0])


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

    def test_a_one_dimensional_table_has_one_output(self, smolyak_cc_unit_w3):
        _, reduced = smolyak_cc_unit_w3
        row = evaluate_on_grid(EXPSUM, reduced).values[0]
        table = EvaluationTable(row)
        assert table.values.shape == (1, reduced.size) and table.n_outputs == 1
        assert np.array_equal(quadrature(table, reduced), quadrature(row[None, :], reduced))

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
        corner_grid = one_tensor_grid([2, 2], fam, sg.LevelMap.LINEAR)
        corner, corner_knots = corner_grid.tensors[0], corner_grid.extended()[0]
        corner_vals = [f(corner_knots[:, j]) for j in range(corner.size)]
        pts = rng.uniform(0, 1, (2, 25))
        got = interpolate(grid, reduced, table, pts)[0]
        want = [
            product_lagrange_interpolate([fam(m).nodes for m in corner.m], corner_vals, pts[:, q])
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

    @staticmethod
    def largest_reduced_weight_chunk(grid, reduced):
        """The most query points one chunk may hold and still take the
        reduced-weight path."""
        return evalkit._REDUCED_WEIGHTS_PER_TENSOR * len(grid.tensors) // reduced.n.size

    def assert_matches_loop(self, grid, reduced, table, pts, path):
        interp = Interpolant(grid, reduced, table)
        got = interp(pts)
        want = loop_interpolate(grid, reduced, table.values, pts)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        assert (interp._reduced_weights is not None) == (path == "reduced")

    @pytest.mark.parametrize("kind", ["cc", "gauss", "three-outputs"])
    def test_one_point_on_a_knot(self, kind, rng):
        grid, reduced, table = interpolant_case(kind)
        for p in rng.choice(reduced.size, 12, replace=False):
            knot = reduced.knots[:, p]
            self.assert_matches_loop(grid, reduced, table, knot[:, None], "reduced")
            for n in range(grid.dim):  # on the knot in dimension n only
                pt = rng.uniform(0, 1, grid.dim)
                pt[n] = knot[n]
                self.assert_matches_loop(grid, reduced, table, pt[:, None], "reduced")

    @pytest.mark.parametrize("kind", ["cc", "gauss", "three-outputs"])
    def test_queries_outside_the_domain(self, kind, rng):
        # outside the box the terms of the signed sum grow and cancel, so
        # the two summation orders differ by a rounding of the sum of the
        # terms' magnitudes, not of the result
        grid, reduced, table = interpolant_case(kind)
        for q in (1, 6):
            pts = rng.uniform(-0.6, 1.6, (grid.dim, q))
            pts[:, 0] = np.where(pts[:, 0] < 0.5, -0.3, 1.3)  # outside in every dimension
            interp = Interpolant(grid, reduced, table)
            got = interp(pts)
            assert interp._reduced_weights is not None
            want = loop_interpolate(grid, reduced, table.values, pts)
            magnitude = loop_interpolate(grid, reduced, table.values, pts, magnitude=True)
            assert np.all(np.abs(got - want) <= 16 * np.finfo(float).eps * magnitude)

    @pytest.mark.parametrize("kind", ["cc", "gauss", "three-outputs"])
    def test_both_sides_of_the_path_boundary(self, kind, rng):
        grid, reduced, table = interpolant_case(kind)
        largest = self.largest_reduced_weight_chunk(grid, reduced)
        assert 1 <= largest < 512
        pts = rng.uniform(0, 1, (grid.dim, largest + 1))
        self.assert_matches_loop(grid, reduced, table, pts[:, :largest], "reduced")
        self.assert_matches_loop(grid, reduced, table, pts, "tensor")

    def test_nested_knots_reproduce_the_table_one_at_a_time(self):
        grid, reduced, table = interpolant_case("three-outputs")
        interp = Interpolant(grid, reduced, table)
        got = np.concatenate([interp(reduced.knots[:, [p]]) for p in range(reduced.size)], axis=1)
        assert interp._reduced_weights is not None
        assert np.max(np.abs(got - table.values)) <= 1e-14 * np.max(np.abs(table.values))

    def test_per_tensor_path_on_the_d10_grid(self, rng):
        # 1,001 tensors with 0 to 4 active dimensions, so every step of the
        # contraction runs; a third of the points lie on knots in all
        # dimensions or in some
        grid, reduced = _input_box_grid(10, 4)
        assert {sum(m > 1 for m in t.m) for t in grid.tensors} == {0, 1, 2, 3, 4}
        values = rng.standard_normal((2, reduced.size))
        pts = rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), (grid.dim, 512))
        on = rng.choice(reduced.size, 170, replace=False)
        pts[:, :85] = reduced.knots[:, on[:85]]
        pts[:4, 85:170] = reduced.knots[:4, on[85:]]
        interp = Interpolant(grid, reduced, values)
        got = interp(pts)
        assert interp._reduced_weights is None
        want = loop_interpolate(grid, reduced, values, pts)
        magnitude = loop_interpolate(grid, reduced, values, pts, magnitude=True)
        assert np.all(np.abs(got - want) <= 16 * np.finfo(float).eps * magnitude)

    @pytest.mark.parametrize("case", ["forward-d10", "posterior"])
    def test_full_chunks_take_the_per_tensor_path(self, case, rng):
        if case == "forward-d10":
            grid, reduced = _input_box_grid(10, 4)
        else:
            rule, _ = sg.preset("TD")
            grid = sg.build_sparse_grid_from_rule(
                3, 4, sg.gauss_family(sg.DistributionSpec.normal(0.0, 1.0)), sg.LevelMap.LINEAR,
                rule)
            reduced = sg.reduce_grid(grid)
        assert self.largest_reduced_weight_chunk(grid, reduced) < 488
        values = rng.standard_normal((1, reduced.size))
        interp = Interpolant(grid, reduced, values)
        pts = rng.uniform(-1.0, 1.0, (grid.dim, 1000))  # chunks of 512 and 488
        want = np.concatenate([evalkit._tensor_sum(interp._rules, interp._tensors, pts[:, :512]),
                               evalkit._tensor_sum(interp._rules, interp._tensors, pts[:, 512:])],
                              axis=1)
        assert np.array_equal(interp(pts), want)
        assert interp._reduced_weights is None  # never built

    def test_a_dimension_of_one_node_rules_drops_out(self, rng):
        # the weight 10 keeps dimension 2 at its one-node rule in every
        # tensor, so the reduced-weight path has no factor for it
        rule, lm = sg.preset("TD", weights=(1, 10, 1))
        grid = sg.build_sparse_grid_from_rule(3, 4, sg.leja_family(0, 1), lm, rule)
        reduced = sg.reduce_grid(grid)
        interp = Interpolant(grid, reduced, evaluate_on_grid(three_outputs, reduced))
        pts = rng.uniform(0, 1, (3, 5))
        got = interp(pts)
        assert [n for n, *_ in interp._reduced_weights.dims] == [0, 2]
        want = evalkit._tensor_sum(interp._rules, interp._tensors, pts)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_rules_are_shared_across_tensors(self):
        grid, reduced, table = interpolant_case("cc")
        interp = Interpolant(grid, reduced, table)
        # one-node rules have the basis 1.0 and never enter the table
        distinct = {(n, fam(m).nodes.tobytes()) for t in grid.tensors
                    for n, (fam, m) in enumerate(zip(grid.families, t.m)) if m > 1}
        assert len(interp._rules) == len(distinct) < grid.dim * len(grid.tensors)

    def test_replaced_families_are_the_nodes_everywhere(self):
        # the families are a tensor's only source of nodes: after a replace,
        # the reduced knots and the interpolant both use the new rules
        rule, lm = sg.preset("SM")
        grid = sg.build_sparse_grid_from_rule(2, 3, sg.cc_family(0, 1), lm, rule)
        grid = dataclasses.replace(grid, families=(sg.cc_family(0, 2),) * 2)
        reduced = sg.reduce_grid(grid)
        assert reduced.knots.max() == 2.0
        table = evaluate_on_grid(EXPSUM, reduced)
        interp = Interpolant(grid, reduced, table)
        single = np.concatenate([interp(reduced.knots[:, [p]]) for p in range(reduced.size)],
                                axis=1)
        for got in (interp(reduced.knots), single):
            assert np.max(np.abs(got - table.values) / np.abs(table.values)) < 1e-12

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


class TestDomain:
    @pytest.mark.parametrize("bounds, message", [
        ([0.0, 1.0], "bounds must be a 2 x dim matrix"),
        ([[0.0], [1.0], [2.0]], "bounds must be a 2 x dim matrix"),
        ([[0.0, 1.0], [1.0, 1.0]], "lower bounds must be below upper bounds"),
        ([[2.0, -np.inf], [1.0, np.inf]], "lower bounds must be below upper bounds"),
    ], ids=["one-row", "three-rows", "empty-interval", "reversed-interval"])
    def test_malformed_bounds_rejected(self, bounds, message):
        with pytest.raises(ValueError, match=message):
            Domain(np.array(bounds))


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

    def test_hessian_of_a_compiled_surrogate(self):
        grid, reduced, table, domain = self._setup(EXPSUM)
        interp = Interpolant(grid, reduced, table)
        for point in ([0.3, 0.7], [0.0, 1.0]):
            assert np.array_equal(evalkit._hessian(interp, domain, np.array(point)),
                                  hessian(grid, reduced, table, domain, np.array(point)))

    def test_hessian_outside_the_domain_warns_at_the_caller(self):
        grid, reduced, table, domain = self._setup(EXPSUM)
        with pytest.warns(RuntimeWarning, match="hessian") as record:
            hessian(grid, reduced, table, domain, np.array([1.5, 0.5]))
        assert record[0].filename == __file__

    def test_hessian_needs_a_single_output(self):
        grid, reduced, table, domain = self._setup(lambda y: [EXPSUM(y), y[0]])
        with pytest.raises(ValueError, match="hessian requires a single-output value table"):
            hessian(grid, reduced, table, domain, np.array([0.5, 0.5]))

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
