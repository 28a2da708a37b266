import itertools
import math
import re

import numpy as np
import pytest
from conftest import downward_closed_sets
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsegrids.levels import LevelMap
from sparsegrids.midx import (
    ClosureError,
    MultiIndexSet,
    _backward_neighbours,
    box_set,
    combination_coefficients,
    fast_td_set,
    generate_rule_set,
    is_downward_closed,
    preset,
    reduced_margin,
)

TD_RULE = lambda ii: sum(v - 1 for v in ii)


def brute_force_rule_set(dim, rule, level, base=1, cap=12):
    """Oracle: filter a big box enumeration."""
    rows = [
        idx
        for idx in itertools.product(range(base, cap + base), repeat=dim)
        if rule(idx) <= level
    ]
    return MultiIndexSet(rows, dim=dim, base=base)


def random_downward_closed(rng, dim, n_extra):
    """Grow a random downward-closed set by repeated margin additions."""
    s = MultiIndexSet([(1,) * dim])
    for _ in range(n_extra):
        margin = list(reduced_margin(s))
        s = s.union([margin[rng.integers(len(margin))]])
    return s


class TestMultiIndexSet:
    def test_sorted_and_deduplicated(self):
        s = MultiIndexSet([[2, 1], [1, 1], [2, 1], [1, 2]])
        assert s.rows.tolist() == [[1, 1], [1, 2], [2, 1]]

    def test_membership(self):
        s = MultiIndexSet([[1, 1], [1, 2]])
        assert (1, 2) in s and (2, 1) not in s

    def test_base_validation(self):
        with pytest.raises(ValueError):
            MultiIndexSet([[0, 1]], base=1)
        MultiIndexSet([[0, 1]], base=0)

    def test_rows_read_only(self):
        s = MultiIndexSet([[1, 1]])
        with pytest.raises(ValueError):
            s.rows[0, 0] = 5

    @pytest.mark.parametrize("bad", [1.7, math.nan, math.inf, np.float64(2.5)])
    def test_non_integer_entries_rejected(self, bad):
        with pytest.raises(ValueError, match=r"multi-index \[1, .*\] has a non-integer entry"):
            MultiIndexSet([[1, 1], [1, bad]])
        with pytest.raises(ValueError, match="non-integer entry"):
            MultiIndexSet([[1, 1]]).union([(bad, 1)])

    def test_integral_entries_of_any_type_accepted(self):
        rows = [[1, 2.0], np.array([2, 1]), np.array([1.0, 1.0]), (np.int32(3), True)]
        s = MultiIndexSet(rows)
        assert s.rows.tolist() == [[1, 1], [1, 2], [2, 1], [3, 1]]
        assert all(type(v) is int for idx in s for v in idx)

    @pytest.mark.parametrize("bad", [(1.7, 2.9), (1, 2.5), (np.float64(1.5), 2), (1, math.nan)])
    def test_membership_rejects_non_integer_queries(self, bad):
        s = MultiIndexSet([[1, 2]])
        with pytest.raises(ValueError, match="non-integer entry"):
            bad in s

    def test_membership_of_integral_queries(self):
        s = MultiIndexSet([[1, 2]])
        assert (1, 2) in s and [1.0, 2.0] in s and np.array([1, 2]) in s
        assert (np.int64(1), np.float64(2.0)) in s
        assert (2, 1) not in s and (1,) not in s and (1, 2, 1) not in s


class TestMatrixInput:
    """An integer matrix and the same rows as tuples give the same set."""

    CASES = {
        "duplicates": ([[2, 1], [1, 1], [2, 1], [1, 2], [1, 1]], 1),
        "unsorted": ([[3, 1, 2], [1, 2, 3], [2, 2, 2], [1, 1, 9], [1, 2, 1]], 1),
        "base0": ([[0, 1], [1, 0], [0, 0], [1, 0], [2, 0]], 0),
    }

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8, np.uint32])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_set_as_rows(self, case, dtype):
        rows, base = self.CASES[case]
        matrix = np.array(rows, dtype=dtype)
        got = MultiIndexSet(matrix, base=base)
        want = MultiIndexSet([tuple(r) for r in rows], base=base)
        assert got.rows.dtype == want.rows.dtype == np.int64
        assert got.rows.tobytes() == want.rows.tobytes()
        assert got.rows.tolist() == [list(r) for r in sorted({tuple(r) for r in rows})]
        assert got == want and hash(got) == hash(want) and got.base == want.base == base
        assert all(tuple(r) in got for r in rows) and (5,) * len(rows[0]) not in got
        assert not got.rows.flags.writeable
        assert matrix.flags.writeable and np.array_equal(matrix, np.array(rows, dtype=dtype))

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8])
    def test_empty_matrix(self, dtype):
        got = MultiIndexSet(np.empty((0, 3), dtype=dtype), dim=3)
        want = MultiIndexSet([], dim=3)
        assert got.rows.shape == want.rows.shape == (0, 3)
        assert got == want and hash(got) == hash(want) and len(got) == 0
        assert (1, 1, 1) not in got

    def test_union_of_a_matrix(self):
        s = MultiIndexSet([[1, 1], [2, 1]])
        got = s.union(np.array([[1, 2], [2, 1]], dtype=np.int32))
        want = s.union([(1, 2), (2, 1)])
        assert got.rows.tobytes() == want.rows.tobytes() and got == want
        assert s.union([]) == s == s.union(np.empty((0, 2), dtype=np.int64))

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8])
    def test_entries_below_base_rejected(self, dtype):
        with pytest.raises(ValueError, match=r"entries must be >= base \(1\)"):
            MultiIndexSet(np.array([[1, 1], [0, 2]], dtype=dtype))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="rows have length 3, expected 2"):
            MultiIndexSet(np.ones((2, 3), dtype=np.int64), dim=2)
        with pytest.raises(ValueError, match="rows have length 3, expected 2"):
            MultiIndexSet([[1, 1]]).union(np.ones((1, 3), dtype=np.int64))

    @pytest.mark.parametrize("bad", [1.7, math.nan, math.inf])
    def test_non_integer_matrix_rejected(self, bad):
        plain = re.escape(f"multi-index [1.0, {bad}] has a non-integer entry")
        with pytest.raises(ValueError, match=f"^{plain}$"):
            MultiIndexSet(np.array([[1.0, 1.0], [1.0, bad]]))
        with pytest.raises(ValueError, match="non-integer entry"):
            MultiIndexSet([[1, 1]]).union(np.array([[bad, 1.0]]))

    def test_integral_float_matrix_accepted(self):
        got = MultiIndexSet(np.array([[2.0, 1.0], [1.0, 1.0]]))
        assert got.rows.tolist() == [[1, 1], [2, 1]] and got == MultiIndexSet([[1, 1], [2, 1]])


class TestZeroDimensional:
    """A set of 0-dimensional indices is rejected where it is made."""

    @pytest.mark.parametrize("make", [
        lambda: MultiIndexSet([()]),
        lambda: MultiIndexSet([], dim=0),
        lambda: MultiIndexSet(np.ones((1, 0), dtype=np.int64)),
        lambda: MultiIndexSet([()], dim=0),
        lambda: box_set([]),
        lambda: generate_rule_set(0, TD_RULE, 2),
        lambda: fast_td_set(0, 2),
    ], ids=["rows", "empty", "matrix", "rows-dim0", "box_set", "generate_rule_set",
            "fast_td_set"])
    def test_rejected(self, make):
        with pytest.raises(ValueError, match=r"dim (must be )?>= 1"):
            make()


class TestGenerateRuleSet:
    def test_td_level_three(self):
        s = generate_rule_set(2, TD_RULE, 3)
        assert s.rows.tolist() == [
            [1, 1], [1, 2], [1, 3], [1, 4],
            [2, 1], [2, 2], [2, 3],
            [3, 1], [3, 2],
            [4, 1],
        ]

    def test_anisotropic_example(self):
        # doubling the weight of dimension 2 halves its admissible levels
        g = [1.0, 2.0]
        rule = lambda ii: sum(gv * (v - 1) for gv, v in zip(g, ii))
        s = generate_rule_set(2, rule, 4)
        assert s == brute_force_rule_set(2, rule, 4)
        assert s.rows.tolist() == [
            [1, 1], [1, 2], [1, 3],
            [2, 1], [2, 2],
            [3, 1], [3, 2],
            [4, 1],
            [5, 1],
        ]

    def test_single_root(self):
        s = generate_rule_set(1, TD_RULE, 0)
        assert s.rows.tolist() == [[1]]

    def test_base_is_not_a_parameter(self):
        # base 0 with the TD preset rule returned 5 of the 6 indices; sets start at 1
        with pytest.raises(TypeError):
            generate_rule_set(2, preset("TD")[0], 0, base=0)

    @given(
        dim=st.integers(1, 3),
        level=st.integers(0, 5),
        weights=st.lists(st.floats(0.5, 3.0), min_size=3, max_size=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, dim, level, weights):
        rule = lambda ii: sum(weights[k] * (v - 1) for k, v in enumerate(ii))
        got = generate_rule_set(dim, rule, level)
        assert got == brute_force_rule_set(dim, rule, level)
        assert is_downward_closed(got)

    def test_permutation_invariance_for_symmetric_rule(self):
        s = generate_rule_set(3, TD_RULE, 4)
        permuted = MultiIndexSet([(i3, i1, i2) for i1, i2, i3 in s])
        assert permuted == s


class TestBoxAndTD:
    def test_box_2x2(self):
        assert box_set([2, 2]).rows.tolist() == [[1, 1], [1, 2], [2, 1], [2, 2]]

    def test_box_3x1(self):
        assert box_set([3, 1]).rows.tolist() == [[1, 1], [2, 1], [3, 1]]

    def test_box_cardinality(self):
        assert len(box_set([2, 2, 2])) == 8

    def test_fast_td_equals_rule_enumeration(self):
        for dim, level in [(1, 5), (2, 3), (2, 4), (3, 4), (4, 3)]:
            assert fast_td_set(dim, level) == generate_rule_set(dim, TD_RULE, level)

    def test_td_cardinality(self):
        assert len(fast_td_set(2, 4)) == math.comb(6, 2)
        assert fast_td_set(3, 0).rows.tolist() == [[1, 1, 1]]


class TestPresets:
    def test_sm(self):
        rule, level_map = preset("SM")
        assert level_map is LevelMap.DOUBLING
        assert rule((2, 3)) == 3.0

    def test_hc(self):
        rule, level_map = preset("HC", weights=[1.0, 2.0])
        assert level_map is LevelMap.LINEAR
        assert rule((2, 3)) == pytest.approx(2.0 * 9.0)

    def test_tp_gives_boxes(self):
        rule, _ = preset("TP")
        for w in range(3):
            assert generate_rule_set(2, rule, w) == box_set([w + 1, w + 1])

    def test_unknown(self):
        with pytest.raises(ValueError):
            preset("XX")

    @pytest.mark.parametrize("name", ["TP", "TD", "HC", "SM"])
    @pytest.mark.parametrize("dim", [3, 5])
    def test_too_few_weights_name_both_counts(self, name, dim):
        rule, _ = preset(name, weights=[1.0, 2.0])
        with pytest.raises(ValueError, match=f"2 anisotropy weights for a {dim}-dimensional index"):
            generate_rule_set(dim, rule, 2)

    def test_one_weight_per_dimension_is_enough(self):
        rule, _ = preset("TD", weights=[1.0, 2.0, 3.0])
        assert generate_rule_set(3, rule, 2) == generate_rule_set(3, lambda i: sum(
            w * (v - 1) for w, v in zip([1.0, 2.0, 3.0], i)), 2)


def _unit_weight_boxes():
    """Per dimension 1..12, a box of at most about 4,000 indices, from 1 and from 0."""
    for dim in range(1, 13):
        side = max(2, int(3000 ** (1 / dim)))
        rows = box_set([side] * dim).rows
        yield dim, [tuple(r) for r in rows.tolist()] + [tuple(r) for r in (rows - 1).tolist()]


class TestUnweightedPresetRules:
    """Without weights, TD and SM sum the index in integers; with unit
    weights they sum floats through numpy, pairwise from 8 terms on."""

    @pytest.mark.parametrize("name", ["TD", "SM"])
    def test_bitwise_equal_to_unit_weights(self, name):
        rule, level_map = preset(name)
        for dim, indices in _unit_weight_boxes():
            weighted, weighted_map = preset(name, [1.0] * dim)
            assert level_map is weighted_map
            for idx in indices:
                got, want = rule(idx), weighted(idx)
                assert type(got) is type(want) is float
                assert np.float64(got).tobytes() == np.float64(want).tobytes(), idx

    @pytest.mark.parametrize("name", ["TD", "SM"])
    def test_same_rule_sets(self, name):
        rule, _ = preset(name)
        for dim in range(1, 13):
            weighted, _ = preset(name, [1.0] * dim)
            for level in (0, 2, 3.5):
                got = generate_rule_set(dim, rule, level)
                want = generate_rule_set(dim, weighted, level)
                assert got == want and got.rows.tobytes() == want.rows.tobytes()

    def test_fast_td_set_at_d60(self):
        assert fast_td_set(60, 2) == generate_rule_set(60, preset("TD")[0], 2)


class TestDownwardClosed:
    def test_example_true(self):
        assert is_downward_closed(MultiIndexSet([[1, 1], [1, 2], [2, 1], [3, 1]]))

    def test_example_false(self):
        assert not is_downward_closed(MultiIndexSet([[1, 1], [1, 2], [2, 1], [3, 1], [3, 2]]))

    def test_singleton(self):
        assert is_downward_closed(MultiIndexSet([[1, 1]]))

    def test_base_zero_sense(self):
        assert is_downward_closed(MultiIndexSet([[0, 0], [0, 1], [1, 0]], base=0))
        assert not is_downward_closed(MultiIndexSet([[0, 0], [1, 1]], base=0))


class TestReducedMargin:
    def test_root(self):
        assert reduced_margin(MultiIndexSet([[1, 1]])).rows.tolist() == [[1, 2], [2, 1]]

    def test_example_set(self):
        s = MultiIndexSet([[1, 1], [1, 2], [2, 1], [3, 1]])
        got = reduced_margin(s)
        # brute-force oracle over all candidates up to [5, 5]
        want = []
        for cand in itertools.product(range(1, 6), repeat=2):
            if cand in s:
                continue
            ok = all(
                cand[:n] + (v - 1,) + cand[n + 1 :] in s
                for n, v in enumerate(cand)
                if v > 1
            )
            if ok:
                want.append(list(cand))
        assert got.rows.tolist() == sorted(want)
        assert got.rows.tolist() == [[1, 3], [2, 2], [4, 1]]

    def test_rejects_non_closed(self):
        with pytest.raises(ClosureError):
            reduced_margin(MultiIndexSet([[1, 1], [3, 1]]))

    @given(st.integers(0, 12), st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_union_stays_downward_closed(self, n_extra, dim):
        rng = np.random.default_rng(n_extra * 7 + dim)
        s = random_downward_closed(rng, dim, n_extra)
        margin = reduced_margin(s)
        assert not set(margin) & set(s)
        assert is_downward_closed(s.union(margin))
        for idx in margin:
            assert is_downward_closed(s.union([idx]))


class TestCombinationCoefficients:
    def test_worked_example(self):
        s = MultiIndexSet([[1, 1], [1, 2], [2, 1], [3, 1]])
        assert combination_coefficients(s) == {
            (1, 1): -1,
            (1, 2): 1,
            (2, 1): 0,
            (3, 1): 1,
        }

    def test_singleton(self):
        assert combination_coefficients(MultiIndexSet([[1, 1]])) == {(1, 1): 1}

    def test_td3_nonzero_indices(self):
        coeffs = combination_coefficients(fast_td_set(2, 3))
        nonzero = sorted(idx for idx, c in coeffs.items() if c != 0)
        assert nonzero == [(1, 3), (1, 4), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)]

    def test_rejects_non_closed(self):
        with pytest.raises(ClosureError):
            combination_coefficients(MultiIndexSet([[1, 1], [2, 2]]))

    @given(st.integers(0, 15), st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_coefficients_sum_to_one(self, n_extra, dim):
        rng = np.random.default_rng(n_extra * 13 + dim)
        s = random_downward_closed(rng, dim, n_extra)
        assert sum(combination_coefficients(s).values()) == 1

    @given(st.integers(1, 3), st.integers(0, 2))
    @settings(max_examples=25, deadline=None)
    def test_telescoping_on_boxes(self, dim, bump):
        # combination sum over a box of random per-index values equals the
        # value at the box corner
        rng = np.random.default_rng(dim * 31 + bump)
        upper = tuple(int(v) for v in rng.integers(1, 4, size=dim))
        box = box_set(upper)
        coeffs = combination_coefficients(box)
        table = {idx: rng.standard_normal() for idx in box}
        total = sum(c * table[idx] for idx, c in coeffs.items())
        assert total == pytest.approx(table[upper], abs=1e-12)


def product_order_neighbours(idx, members, step):
    """Oracle: every binary offset in itertools.product order, filtered."""
    out = []
    for offsets in itertools.product((0, 1), repeat=len(idx)):
        neighbour = tuple(v + step * o for v, o in zip(idx, offsets))
        if neighbour in members:
            out.append((-1 if sum(offsets) % 2 else 1, neighbour))
    return out


class TestSignedNeighbours:
    @given(downward_closed_sets())
    @settings(max_examples=60, deadline=None)
    def test_walk_equals_product_order(self, s):
        members = s._members
        for idx in s:
            walked = _backward_neighbours(idx, s.base)
            assert walked == product_order_neighbours(idx, members, -1)

    @given(downward_closed_sets())
    @settings(max_examples=60, deadline=None)
    def test_coefficients_equal_brute_force_sum(self, s):
        coeffs = combination_coefficients(s)
        for idx in s:
            assert coeffs[idx] == sum(sign for sign, _ in product_order_neighbours(idx, s, 1))
        assert sum(coeffs.values()) == 1

    @given(downward_closed_sets())
    @settings(max_examples=60, deadline=None)
    def test_base0_coefficients_equal_brute_force_sum(self, s):
        # the walk must stop at the set's base, not at 1
        s0 = MultiIndexSet([[v - 1 for v in idx] for idx in s], dim=s.dim, base=0)
        coeffs = combination_coefficients(s0)
        for idx in s0:
            assert coeffs[idx] == sum(sign for sign, _ in product_order_neighbours(idx, s0, 1))

    def test_base0_corner(self):
        s0 = MultiIndexSet([[0, 0], [0, 1], [1, 0]], base=0)
        assert combination_coefficients(s0) == {(0, 0): -1, (0, 1): 1, (1, 0): 1}

    @pytest.mark.parametrize("dim, level", [(2, 5), (10, 4), (60, 2)])
    def test_total_degree_equals_smolyak_closed_form(self, dim, level):
        def closed_form(idx):
            k = level - sum(v - 1 for v in idx)
            return (-1) ** k * math.comb(dim - 1, k) if 0 <= k <= dim - 1 else 0

        s = fast_td_set(dim, level)
        assert combination_coefficients(s) == {idx: closed_form(idx) for idx in s}
