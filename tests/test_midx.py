import itertools
import math

import numpy as np
import pytest
from conftest import downward_closed_sets
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsegrids.levels import LevelMap
from sparsegrids.midx import (
    ClosureError,
    MultiIndexSet,
    _signed_neighbours,
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
            for step in (1, -1):
                walked = list(_signed_neighbours(idx, members.__contains__, step))
                assert walked == product_order_neighbours(idx, members, step)

    @given(downward_closed_sets())
    @settings(max_examples=60, deadline=None)
    def test_coefficients_equal_brute_force_sum(self, s):
        coeffs = combination_coefficients(s)
        for idx in s:
            assert coeffs[idx] == sum(sign for sign, _ in product_order_neighbours(idx, s, 1))
        assert sum(coeffs.values()) == 1
