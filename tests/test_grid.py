import numpy as np
import pytest
from conftest import downward_closed_sets
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sparsegrids as sg
from sparsegrids.grid import reduce_grid
from sparsegrids.midx import combination_coefficients, reduced_margin


class TestBuildTensorGrid:
    def test_cc_doubling_listing(self):
        t = sg.build_tensor_grid([1, 3], sg.cc_family(0, 1), sg.LevelMap.DOUBLING)
        assert t.m == (1, 5)
        assert t.size == 5
        assert t.knots_per_dim[0] == pytest.approx([0.5])
        assert t.knots_per_dim[1] == pytest.approx([1, 0.8536, 0.5, 0.1464, 0], abs=5e-5)

    def test_single_point(self):
        t = sg.build_tensor_grid([1, 1], sg.cc_family(0, 1), sg.LevelMap.DOUBLING)
        assert t.size == 1
        assert t.weights == pytest.approx([1.0])

    def test_product_size(self):
        t = sg.build_tensor_grid([2, 2], sg.cc_family(0, 1), sg.LevelMap.DOUBLING)
        assert t.size == 9

    def test_unrolling_first_dim_fastest(self):
        t = sg.build_tensor_grid([2, 2], sg.cc_family(0, 1), sg.LevelMap.DOUBLING)
        k0 = t.knots_per_dim[0]
        # the first three columns sweep dimension 1 with dimension 2 fixed
        assert t.knots[0, :3] == pytest.approx(k0)
        assert t.knots[1, :3] == pytest.approx([t.knots_per_dim[1][0]] * 3)

    def test_weights_sum_to_coeff(self):
        t = sg.build_tensor_grid([2, 3], sg.cc_family(0, 1), sg.LevelMap.DOUBLING, coeff=-2)
        assert t.weights.sum() == pytest.approx(-2.0, abs=1e-12)


class TestBuildSparseGrid:
    def test_listing_grid_shape(self, smolyak_cc_unit_w3):
        grid, reduced = smolyak_cc_unit_w3
        assert len(grid.tensors) == 7
        assert grid.extended_size == 67
        assert reduced.size == 29
        first = grid.tensors[0]
        assert first.idx == (1, 3)
        assert first.m == (1, 5)
        assert first.coeff == -1
        assert first.weights == pytest.approx(
            [-0.0333, -0.2667, -0.4, -0.2667, -0.0333], abs=5e-5
        )

    def test_example_set_drops_zero_coeff(self):
        s = sg.MultiIndexSet([[1, 1], [1, 2], [2, 1], [3, 1]])
        grid = sg.build_sparse_grid(s, sg.gauss_family(sg.DistributionSpec.uniform(0, 1)),
                                    sg.LevelMap.LINEAR)
        assert [t.idx for t in grid.tensors] == [(1, 1), (1, 2), (3, 1)]

    def test_single_index(self):
        grid = sg.build_sparse_grid(sg.MultiIndexSet([[1, 1]]), sg.cc_family(0, 1),
                                    sg.LevelMap.DOUBLING)
        assert len(grid.tensors) == 1 and grid.tensors[0].size == 1

    def test_unsorted_input_is_normalized(self):
        rows = [[2, 1], [1, 1], [1, 2], [3, 1]]
        s = sg.MultiIndexSet(rows)
        assert s.rows.tolist() == sorted(rows)

    def test_recycled_build_equals_cold(self):
        fam = sg.cc_family(0, 1)
        rule, lm = sg.preset("SM")
        prev = None
        for w in range(5):
            cold = sg.build_sparse_grid_from_rule(2, w, fam, lm, rule)
            warm = sg.build_sparse_grid_from_rule(2, w, fam, lm, rule, previous=prev)
            assert [t.idx for t in warm.tensors] == [t.idx for t in cold.tensors]
            for tw, tc in zip(warm.tensors, cold.tensors):
                assert tw.coeff == tc.coeff and tw.m == tc.m
                assert np.allclose(tw.knots, tc.knots, atol=1e-15, rtol=0)
                assert np.allclose(tw.weights, tc.weights, atol=1e-15, rtol=0)
            prev = warm

    def test_recycling_shares_arrays_when_possible(self):
        # consecutive SM levels in 2D flip every carried coefficient, so
        # reuse manifests as shared knot matrices with rescaled weights
        fam = sg.cc_family(0, 1)
        rule, lm = sg.preset("SM")
        a = sg.build_sparse_grid_from_rule(2, 3, fam, lm, rule)
        b = sg.build_sparse_grid_from_rule(2, 4, fam, lm, rule, previous=a)
        a_by_idx = {t.idx: t for t in a.tensors}
        carried = [t for t in b.tensors if t.idx in a_by_idx]
        assert carried, "consecutive levels share tensor indices"
        assert all(t.knots is a_by_idx[t.idx].knots for t in carried)


class TestQuickPreset:
    def test_counts(self):
        grid, reduced = sg.quick_preset(2, 3)
        assert reduced.size == 29
        assert np.all(grid.tensors[0].knots >= -1.0 - 1e-12)

    def test_single_point(self):
        grid, reduced = sg.quick_preset(1, 0)
        assert reduced.size == 1
        assert reduced.knots[0, 0] == pytest.approx(0.0)

    def test_reduction_matches_brute_force(self):
        grid, reduced = sg.quick_preset(3, 2)
        extended = np.concatenate([t.knots for t in grid.tensors], axis=1)
        unique = {tuple(np.round(extended[:, e], 12)) for e in range(extended.shape[1])}
        assert reduced.size == len(unique)


class TestAddOneIndex:
    def _family(self):
        return sg.gauss_family(sg.DistributionSpec.uniform(0, 1))

    def test_equals_cold_build(self):
        s = sg.MultiIndexSet([[1, 1], [1, 2], [2, 1], [3, 1]])
        fam = self._family()
        grid = sg.build_sparse_grid(s, fam, sg.LevelMap.LINEAR)
        coeffs = combination_coefficients(s)
        new = sg.add_one_index([4, 1], grid, s, coeffs, fam, sg.LevelMap.LINEAR)
        cold = sg.build_sparse_grid(s.union([(4, 1)]), fam, sg.LevelMap.LINEAR)
        assert [t.idx for t in new.tensors] == [t.idx for t in cold.tensors]
        for a, b in zip(new.tensors, cold.tensors):
            assert a.coeff == b.coeff
            assert np.allclose(a.knots, b.knots, atol=1e-15, rtol=0)
            assert np.allclose(a.weights, b.weights, atol=1e-15, rtol=0)

    def test_reawakens_zero_coefficient_neighbor(self):
        # adding [2,2] turns the dormant [2,1] back on
        s = sg.MultiIndexSet([[1, 1], [1, 2], [2, 1], [3, 1]])
        fam = self._family()
        grid = sg.build_sparse_grid(s, fam, sg.LevelMap.LINEAR)
        new = sg.add_one_index([2, 2], grid, s, combination_coefficients(s), fam,
                               sg.LevelMap.LINEAR)
        cold = sg.build_sparse_grid(s.union([(2, 2)]), fam, sg.LevelMap.LINEAR)
        assert {t.idx: t.coeff for t in new.tensors} == {t.idx: t.coeff for t in cold.tensors}
        assert {t.idx: t.coeff for t in new.tensors}[(2, 1)] == -1

    def test_one_active_dimension_telescopes(self):
        s = sg.MultiIndexSet([[1, 1]])
        fam = self._family()
        grid = sg.build_sparse_grid(s, fam, sg.LevelMap.LINEAR)
        new = sg.add_one_index([2, 1], grid, s, combination_coefficients(s), fam,
                               sg.LevelMap.LINEAR)
        assert {t.idx: t.coeff for t in new.tensors} == {(2, 1): 1}

    def test_rejects_duplicate_and_closure_violation(self):
        s = sg.MultiIndexSet([[1, 1]])
        fam = self._family()
        grid = sg.build_sparse_grid(s, fam, sg.LevelMap.LINEAR)
        coeffs = combination_coefficients(s)
        with pytest.raises(ValueError):
            sg.add_one_index([1, 1], grid, s, coeffs, fam, sg.LevelMap.LINEAR)
        with pytest.raises(ValueError):
            sg.add_one_index([3, 1], grid, s, coeffs, fam, sg.LevelMap.LINEAR)


class TestReduce:
    def test_weights_sum_to_one(self, smolyak_cc_unit_w3):
        _, reduced = smolyak_cc_unit_w3
        assert abs(reduced.weights.sum() - 1.0) < 1e-10

    def test_maps_are_consistent(self, smolyak_cc_unit_w3):
        grid, reduced = smolyak_cc_unit_w3
        assert reduced.n.size == grid.extended_size
        assert reduced.m.size == reduced.size
        for p in range(reduced.size):
            assert reduced.n[reduced.m[p]] == p
        extended = np.concatenate([t.knots for t in grid.tensors], axis=1)
        assert np.allclose(extended[:, reduced.m], reduced.knots, atol=0, rtol=0)

    def test_single_tensor_identity(self):
        grid = sg.build_sparse_grid(sg.MultiIndexSet([[2, 2]]).union([(1, 1), (1, 2), (2, 1)]),
                                    sg.cc_family(0, 1), sg.LevelMap.DOUBLING)
        single = sg.build_sparse_grid(sg.MultiIndexSet([[1, 1]]), sg.cc_family(0, 1),
                                      sg.LevelMap.DOUBLING)
        reduced = reduce_grid(single)
        assert reduced.size == single.tensors[0].size
        assert np.array_equal(reduced.knots, single.tensors[0].knots)

    def test_non_nested_dedup_count(self):
        # Gauss-Legendre tensors share only coordinates that repeat exactly
        rule, _ = sg.preset("TD")
        grid = sg.build_sparse_grid_from_rule(
            2, 2, sg.gauss_family(sg.DistributionSpec.uniform(0, 1)),
            sg.LevelMap.LINEAR, rule)
        reduced = reduce_grid(grid)
        extended = np.concatenate([t.knots for t in grid.tensors], axis=1)
        unique = {tuple(np.round(extended[:, e], 12)) for e in range(extended.shape[1])}
        assert reduced.size == len(unique)

    def test_reduction_preserves_quadrature(self, smolyak_cc_unit_w3, rng):
        grid, reduced = smolyak_cc_unit_w3
        values = rng.standard_normal(reduced.size)
        ext_weights = np.concatenate([t.weights for t in grid.tensors])
        ext_values = values[reduced.n]
        assert float(ext_weights @ ext_values) == pytest.approx(
            float(reduced.weights @ values), abs=1e-12
        )

    def test_quadrature_weight_sums(self):
        # every constructed grid integrates constants exactly
        rule, lm = sg.preset("SM")
        for dim in (1, 2, 3):
            for w in range(4):
                grid = sg.build_sparse_grid_from_rule(dim, w, sg.cc_family(-2, 5), lm, rule)
                assert abs(reduce_grid(grid).weights.sum() - 1.0) < 1e-10


class TestDedupToleranceIndependence:
    def test_interpolation_unaffected_for_nested_family(self, rng):
        # any sane dedup tolerance yields the same interpolant for nested knots
        rule, lm = sg.preset("SM")
        grid = sg.build_sparse_grid_from_rule(2, 3, sg.cc_family(0, 1), lm, rule)
        from sparsegrids.evalkit import evaluate_on_grid, interpolate

        f = lambda y: float(np.exp(y[0] + 0.5 * y[1]))
        pts = rng.uniform(0, 1, (2, 30))
        results = []
        for tol in (1e-14, 1e-12, 1e-10):
            reduced = reduce_grid(grid, tol=tol)
            table = evaluate_on_grid(f, reduced)
            results.append(interpolate(grid, reduced, table, pts))
        assert np.allclose(results[0], results[1], atol=1e-13, rtol=0)
        assert np.allclose(results[0], results[2], atol=1e-13, rtol=0)


class TestAddOneIndexProperty:
    # a coefficient of -3 turning into -2: rescaling the old weights by 2/3
    # rounds differently from a cold build
    @example(
        s=sg.MultiIndexSet([(1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 1, 3), (1, 1, 2, 1),
                            (1, 1, 2, 2), (1, 1, 3, 1), (1, 2, 1, 1), (1, 2, 2, 1),
                            (1, 3, 1, 1), (2, 1, 1, 1), (2, 1, 1, 2), (2, 1, 2, 1)]),
        lm=sg.LevelMap.DOUBLING,
        fam=sg.cc_family(0, 1),
    )
    @given(
        s=downward_closed_sets(max_extra=10),
        lm=st.sampled_from([sg.LevelMap.LINEAR, sg.LevelMap.DOUBLING]),
        fam=st.sampled_from([sg.cc_family(0, 1),
                             sg.gauss_family(sg.DistributionSpec.uniform(-1, 2))]),
    )
    @settings(max_examples=40, deadline=None)
    def test_equals_cold_build_on_the_union(self, s, lm, fam):
        grid = sg.build_sparse_grid(s, fam, lm)
        coeffs = combination_coefficients(s)
        for idx in reduced_margin(s):
            grown = sg.add_one_index(idx, grid, s, coeffs, fam, lm)
            cold = sg.build_sparse_grid(s.union([idx]), fam, lm)
            assert [(t.idx, t.coeff) for t in grown.tensors] == [
                (t.idx, t.coeff) for t in cold.tensors]
            for a, b in zip(grown.tensors, cold.tensors):
                assert np.array_equal(a.weights, b.weights)
                assert np.array_equal(a.knots, b.knots)


class TestAffineInvariance:
    # the dedup tolerance grows with the coordinates' magnitude, so lattice
    # keys of knots far from the origin stay within int64
    @example(shift=1e5, scale=1.0, make=sg.cc_family)
    @example(shift=-3e7, scale=1.0, make=sg.leja_family)
    @given(
        shift=st.floats(-1e7, 1e7),
        scale=st.floats(1e-2, 1e2),
        make=st.sampled_from([sg.cc_family, sg.leja_family]),
    )
    @settings(max_examples=30, deadline=None)
    def test_reduced_size_and_linear_integral(self, shift, scale, make):
        rule, lm = sg.preset("SM")
        a, b = shift, shift + scale
        unit = reduce_grid(sg.build_sparse_grid_from_rule(2, 3, make(0.0, 1.0), lm, rule))
        reduced = reduce_grid(sg.build_sparse_grid_from_rule(2, 3, make(a, b), lm, rule))
        assert reduced.size == unit.size
        integral, _ = sg.quadrature(lambda y: np.sum((y - a) / (b - a)), reduced)
        # the knots resolve the domain only to the float spacing at |shift|
        assert integral[0] == pytest.approx(1.0, abs=1e-13 * (1.0 + abs(shift) / scale))
