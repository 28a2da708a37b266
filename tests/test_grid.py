import numpy as np
import pytest
from conftest import downward_closed_sets, grown, one_tensor_grid
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sparsegrids as sg
from sparsegrids.grid import _tensor_product_columns, reduce_grid
from sparsegrids.knots import ParameterError
from sparsegrids.midx import reduced_margin


class TestBuildTensorGrid:
    def test_cc_doubling_listing(self):
        fam = sg.cc_family(0, 1)
        t = sg.build_tensor_grid([1, 3], fam, sg.LevelMap.DOUBLING)
        assert t.m == (1, 5)
        assert t.size == 5
        assert fam(t.m[0]).nodes == pytest.approx([0.5])
        assert fam(t.m[1]).nodes == pytest.approx([1, 0.8536, 0.5, 0.1464, 0], abs=5e-5)

    def test_single_point(self):
        grid = one_tensor_grid([1, 1], sg.cc_family(0, 1), sg.LevelMap.DOUBLING)
        assert grid.tensors[0].size == 1
        assert grid.extended()[1] == pytest.approx([1.0])

    def test_product_size(self):
        t = sg.build_tensor_grid([2, 2], sg.cc_family(0, 1), sg.LevelMap.DOUBLING)
        assert t.size == 9

    def test_unrolling_first_dim_fastest(self):
        grid = one_tensor_grid([2, 2], sg.cc_family(0, 1), sg.LevelMap.DOUBLING)
        t, knots = grid.tensors[0], grid.extended()[0]
        k0, k1 = (fam(m).nodes for fam, m in zip(grid.families, t.m))
        # the first three columns sweep dimension 1 with dimension 2 fixed
        assert knots[0, :3] == pytest.approx(k0)
        assert knots[1, :3] == pytest.approx([k1[0]] * 3)

    def test_weights_sum_to_coeff(self):
        grid = one_tensor_grid([2, 3], sg.cc_family(0, 1), sg.LevelMap.DOUBLING, coeff=-2)
        assert grid.extended()[1].sum() == pytest.approx(-2.0, abs=1e-12)

    def test_builds_past_32_dimensions(self):
        # np.meshgrid takes at most 32 arrays; the cartesian product does not use it
        grid = one_tensor_grid([1] * 32 + [2], sg.cc_family(0, 1), sg.LevelMap.DOUBLING)
        t, (knots, weights) = grid.tensors[0], grid.extended()
        assert t.m == (1,) * 32 + (3,) and knots.shape == (33, 3)
        assert np.array_equal(knots[32], grid.families[32](3).nodes)
        assert np.all(knots[:32] == 0.5)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("idx", [(2.7, 1.2), (2, 1.5), (np.nan, 1), (np.inf, 1)])
    def test_non_integer_index_rejected(self, idx):
        with pytest.raises(ValueError, match="non-integer"):
            sg.build_tensor_grid(idx, sg.cc_family(0, 1), sg.LevelMap.DOUBLING)

    @pytest.mark.parametrize("idx", [[2, 1], (np.int32(2), np.int64(1)),
                                     np.array([2, 1], dtype=np.uint8), (2.0, 1.0)])
    def test_integer_index_of_any_type(self, idx):
        grid = one_tensor_grid(idx, sg.cc_family(0, 1), sg.LevelMap.DOUBLING)
        want = one_tensor_grid((2, 1), sg.cc_family(0, 1), sg.LevelMap.DOUBLING)
        t = grid.tensors[0]
        assert t.idx == (2, 1) and all(type(v) is int for v in t.idx)
        for got, expected in zip(grid.extended(), want.extended()):
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("sizes", [(1,), (3, 1, 2), (2, 0, 3), (1, 4, 1, 1, 2)])
    def test_product_matches_meshgrid(self, sizes):
        rng = np.random.default_rng(len(sizes))
        arrays = [rng.standard_normal(m) for m in sizes]
        grids = np.meshgrid(*arrays, indexing="ij")
        want = np.stack([g.reshape(-1, order="F") for g in grids], axis=0)
        got = _tensor_product_columns(arrays)
        assert got.shape == want.shape and np.array_equal(got, want)
        ints = _tensor_product_columns([np.arange(m) for m in sizes])
        assert ints.dtype == np.arange(1).dtype


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
        start, end = grid.tensor_offsets()[:2]
        assert grid.extended()[1][start:end] == pytest.approx(
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
        # each level grown from the one before by add_one_index
        fam = sg.cc_family(0, 1)
        rule, lm = sg.preset("SM")
        warm = sg.build_sparse_grid_from_rule(2, 0, fam, lm, rule)
        for w in range(1, 5):
            cold = sg.build_sparse_grid_from_rule(2, w, fam, lm, rule)
            warm = grown(warm, cold.index_set)
            assert warm.index_set == cold.index_set
            assert [(t.idx, t.m, t.coeff) for t in warm.tensors] == [
                (t.idx, t.m, t.coeff) for t in cold.tensors]
            for got, want in zip(warm.extended(), cold.extended()):
                assert np.array_equal(got, want)


class TestQuickPreset:
    def test_counts(self):
        grid, reduced = sg.quick_preset(2, 3)
        assert reduced.size == 29
        start, end = grid.tensor_offsets()[:2]
        assert np.all(grid.extended()[0][:, start:end] >= -1.0 - 1e-12)

    def test_single_point(self):
        grid, reduced = sg.quick_preset(1, 0)
        assert reduced.size == 1
        assert reduced.knots[0, 0] == pytest.approx(0.0)

    def test_reduction_matches_brute_force(self):
        grid, reduced = sg.quick_preset(3, 2)
        extended = grid.extended()[0]
        unique = {tuple(np.round(extended[:, e], 12)) for e in range(extended.shape[1])}
        assert reduced.size == len(unique)


class TestAddOneIndex:
    def _family(self):
        return sg.gauss_family(sg.DistributionSpec.uniform(0, 1))

    def test_equals_cold_build(self):
        s = sg.MultiIndexSet([[1, 1], [1, 2], [2, 1], [3, 1]])
        fam = self._family()
        grid = sg.build_sparse_grid(s, fam, sg.LevelMap.LINEAR)
        new = sg.add_one_index([4, 1], grid)
        cold = sg.build_sparse_grid(s.union([(4, 1)]), fam, sg.LevelMap.LINEAR)
        assert [t.idx for t in new.tensors] == [t.idx for t in cold.tensors]
        for a, b in zip(new.tensors, cold.tensors):
            assert a.coeff == b.coeff
        for got, want in zip(new.extended(), cold.extended()):
            assert np.array_equal(got, want)

    def test_count_the_family_lacks_fails_at_build_time(self):
        # the tabulated nested normal rules have no 2-node member
        lm = sg.LevelMap.LINEAR
        with pytest.raises(ParameterError, match="got 2"):
            sg.build_sparse_grid_from_rule(2, 2, sg.gk_family(), lm, sg.preset("TD")[0])
        s = sg.MultiIndexSet([[1, 1]])
        grid = sg.build_sparse_grid(s, sg.gk_family(), lm)
        with pytest.raises(ParameterError, match="got 2"):
            sg.add_one_index([2, 1], grid)

    def test_reawakens_zero_coefficient_neighbor(self):
        # adding [2,2] turns the dormant [2,1] back on
        s = sg.MultiIndexSet([[1, 1], [1, 2], [2, 1], [3, 1]])
        fam = self._family()
        grid = sg.build_sparse_grid(s, fam, sg.LevelMap.LINEAR)
        new = sg.add_one_index([2, 2], grid)
        cold = sg.build_sparse_grid(s.union([(2, 2)]), fam, sg.LevelMap.LINEAR)
        assert {t.idx: t.coeff for t in new.tensors} == {t.idx: t.coeff for t in cold.tensors}
        assert {t.idx: t.coeff for t in new.tensors}[(2, 1)] == -1

    def test_one_active_dimension_telescopes(self):
        s = sg.MultiIndexSet([[1, 1]])
        fam = self._family()
        grid = sg.build_sparse_grid(s, fam, sg.LevelMap.LINEAR)
        new = sg.add_one_index([2, 1], grid)
        assert {t.idx: t.coeff for t in new.tensors} == {(2, 1): 1}

    def test_non_integer_index_rejected(self):
        s = sg.MultiIndexSet([[1, 1], [1, 2]])
        fam = self._family()
        grid = sg.build_sparse_grid(s, fam, sg.LevelMap.LINEAR)
        with pytest.raises(ValueError, match="non-integer"):
            sg.add_one_index((2.7, 1.0), grid)
        for idx in [(np.int64(2), np.int32(1)), np.array([2, 1]), (2.0, 1.0)]:
            new = sg.add_one_index(idx, grid)
            assert new.index_set == s.union([(2, 1)])

    def test_rejects_duplicate_and_closure_violation(self):
        s = sg.MultiIndexSet([[1, 1]])
        fam = self._family()
        grid = sg.build_sparse_grid(s, fam, sg.LevelMap.LINEAR)
        with pytest.raises(ValueError, match="already in the set"):
            sg.add_one_index([1, 1], grid)
        with pytest.raises(ValueError, match="downward closedness"):
            sg.add_one_index([3, 1], grid)

    def test_chain_of_forty_margin_steps_equals_cold_build(self, rng):
        # each call takes the grid the call before returned
        fams = (sg.cc_family(0, 1), sg.leja_family(-1, 2), self._family())
        grid = sg.build_sparse_grid(sg.MultiIndexSet([(1, 1, 1)]), fams, sg.LevelMap.LINEAR)
        for _ in range(40):
            margin = reduced_margin(grid.index_set).rows
            grid = sg.add_one_index(margin[rng.integers(len(margin))], grid)
        cold = sg.build_sparse_grid(grid.index_set, fams, sg.LevelMap.LINEAR)
        assert len(grid.index_set) == 41
        assert [(t.idx, t.m, t.coeff) for t in grid.tensors] == [
            (t.idx, t.m, t.coeff) for t in cold.tensors]
        for got, want in zip(grid.extended(), cold.extended()):
            assert got.tobytes() == want.tobytes()


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
        extended = grid.extended()[0]
        assert np.allclose(extended[:, reduced.m], reduced.knots, atol=0, rtol=0)

    @pytest.mark.parametrize("tol", [0.0, -1e-14, float("nan"), float("inf")])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        grid, _ = sg.quick_preset(2, 3)
        with pytest.raises(ValueError, match=f"tolerance is {tol!r}"):
            reduce_grid(grid, tol=tol)

    def test_single_tensor_identity(self):
        grid = sg.build_sparse_grid(sg.MultiIndexSet([[2, 2]]).union([(1, 1), (1, 2), (2, 1)]),
                                    sg.cc_family(0, 1), sg.LevelMap.DOUBLING)
        single = sg.build_sparse_grid(sg.MultiIndexSet([[1, 1]]), sg.cc_family(0, 1),
                                      sg.LevelMap.DOUBLING)
        reduced = reduce_grid(single)
        assert reduced.size == single.tensors[0].size
        assert np.array_equal(reduced.knots, single.extended()[0])

    def test_non_nested_dedup_count(self):
        # Gauss-Legendre tensors share only coordinates that repeat exactly
        rule, _ = sg.preset("TD")
        grid = sg.build_sparse_grid_from_rule(
            2, 2, sg.gauss_family(sg.DistributionSpec.uniform(0, 1)),
            sg.LevelMap.LINEAR, rule)
        reduced = reduce_grid(grid)
        extended = grid.extended()[0]
        unique = {tuple(np.round(extended[:, e], 12)) for e in range(extended.shape[1])}
        assert reduced.size == len(unique)

    def test_reduction_preserves_quadrature(self, smolyak_cc_unit_w3, rng):
        grid, reduced = smolyak_cc_unit_w3
        values = rng.standard_normal(reduced.size)
        ext_weights = grid.extended()[1]
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
        for idx in reduced_margin(s):
            new = sg.add_one_index(idx, grid)
            cold = sg.build_sparse_grid(s.union([idx]), fam, lm)
            assert [(t.idx, t.coeff) for t in new.tensors] == [
                (t.idx, t.coeff) for t in cold.tensors]
            for got, want in zip(new.extended(), cold.extended()):
                assert np.array_equal(got, want)


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


class TestCellBoundaryStraddle:
    """Shifted Gauss grids far from the origin: knots that agree to
    rounding never straddle a lattice cell boundary of ``reduce_grid`` and
    stay apart, and distinct knots are never merged."""

    @pytest.mark.parametrize("family", ["legendre", "hermite"])
    def test_shifted_total_degree_grids(self, family):
        rng = np.random.default_rng(0 if family == "legendre" else 1)
        rule, _ = sg.preset("TD")
        for _ in range(300):
            centre, scale = rng.uniform(-1e3, 1e3, 2), 10.0 ** rng.uniform(-2, 2, 2)
            if family == "legendre":
                dists = [sg.DistributionSpec.uniform(c - s, c + s) for c, s in zip(centre, scale)]
            else:
                dists = [sg.DistributionSpec.normal(c, s) for c, s in zip(centre, scale)]
            grid = sg.build_sparse_grid_from_rule(2, 4, [sg.gauss_family(d) for d in dists],
                                                  sg.LevelMap.LINEAR, rule)
            reduced = reduce_grid(grid)
            knots = reduced.knots
            size = np.maximum(1.0, np.abs(knots))
            near = (np.abs(knots[:, :, None] - knots[:, None, :])
                    <= 1e-10 * np.maximum(size[:, :, None], size[:, None, :])).all(axis=0)
            np.fill_diagonal(near, False)
            assert not near.any()
            extended = grid.extended()[0]
            if family == "legendre":
                assert np.array_equal(extended, knots[:, reduced.n])
            else:
                # the middle node of an odd Hermite rule from the eigensolver
                # lies a few ulps off the mean, the one-node rule: a merge
                # of the same point within one lattice cell
                assert np.all(np.abs(extended - knots[:, reduced.n]) <= reduced.tol[:, None])
