import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsegrids.knots import (
    DistributionSpec,
    cc_knots,
    gk_knots,
    leja_knots,
    midpoint_knots,
    trap_knots,
    weighted_leja_knots,
)
from sparsegrids.levels import LevelMap, UnsupportedLevelError, apply_level_map


class TestLevelMaps:
    def test_values(self):
        assert [apply_level_map(LevelMap.DOUBLING, i) for i in range(1, 5)] == [1, 3, 5, 9]
        assert apply_level_map(LevelMap.TRIPLING, 3) == 9
        assert apply_level_map(LevelMap.LINEAR, 7) == 7
        assert [apply_level_map(LevelMap.TWO_STEP, i) for i in range(1, 5)] == [1, 3, 5, 7]
        assert [apply_level_map(LevelMap.GK, i) for i in range(1, 6)] == [1, 3, 9, 19, 35]

    def test_level_zero_maps_to_zero(self):
        for m in LevelMap:
            assert apply_level_map(m, 0) == 0

    def test_gk_bounded(self):
        with pytest.raises(UnsupportedLevelError):
            apply_level_map(LevelMap.GK, 6)

    @pytest.mark.parametrize("level_map, top", [(LevelMap.DOUBLING, 63),
                                                (LevelMap.TRIPLING, 40)])
    def test_counts_stop_before_int64_wraps(self, level_map, top):
        count = apply_level_map(level_map, top)
        assert count == apply_level_map(level_map, np.array([top]))[0] < 2**63
        for level in (top + 1, np.array([[1, top + 1]])):
            with pytest.raises(UnsupportedLevelError, match=f"up to level {top}"):
                apply_level_map(level_map, level)

    @pytest.mark.parametrize("level_map", list(LevelMap))
    @pytest.mark.parametrize("level", [2.5, 2.0, np.array([1.0, 2.0])])
    def test_non_integer_level_rejected(self, level_map, level):
        with pytest.raises(TypeError, match="integers"):
            apply_level_map(level_map, level)

    @pytest.mark.parametrize("level_map", list(LevelMap))
    def test_negative_level_rejected(self, level_map):
        for level in (-1, np.array([[2, -1]])):
            with pytest.raises(UnsupportedLevelError, match=">= 0"):
                apply_level_map(level_map, level)

    @pytest.mark.parametrize("level_map", list(LevelMap))
    def test_matrix_equals_scalar_map_entry_by_entry(self, level_map):
        levels = np.random.default_rng(7).integers(0, 6, size=(9, 4))
        counts = apply_level_map(level_map, levels)
        assert counts.dtype == np.int64 and counts.shape == levels.shape
        assert counts.tolist() == [[apply_level_map(level_map, v) for v in row]
                                   for row in levels.tolist()]
        assert all(type(apply_level_map(level_map, v)) is int
                   for v in (3, np.int32(3), np.uint8(3)))

    @given(st.sampled_from(list(LevelMap)), st.integers(1, 4))
    @settings(max_examples=50, deadline=None)
    def test_strictly_increasing(self, level_map, i):
        assert apply_level_map(level_map, i) < apply_level_map(level_map, i + 1)

    def test_doubling_ratio(self):
        # the nesting criterion: ratio of interval counts is a power of two
        for i in range(2, 7):
            m0 = apply_level_map(LevelMap.DOUBLING, i)
            m1 = apply_level_map(LevelMap.DOUBLING, i + 1)
            assert (m1 - 1) == 2 * (m0 - 1)

    def test_string_round_trip(self):
        for m in LevelMap:
            assert LevelMap(m.value) is m
            assert m.value == m.value.lower()


NESTED_PAIRS = [
    ("leja-std+linear", lambda n: leja_knots(n, 0, 1), LevelMap.LINEAR),
    ("leja-std+two_step", lambda n: leja_knots(n, 0, 1), LevelMap.TWO_STEP),
    ("leja-std+doubling", lambda n: leja_knots(n, 0, 1), LevelMap.DOUBLING),
    ("leja-sym+two_step", lambda n: leja_knots(n, 0, 1, "symmetric"), LevelMap.TWO_STEP),
    ("leja-sym+doubling", lambda n: leja_knots(n, 0, 1, "symmetric"), LevelMap.DOUBLING),
    ("leja-pdisk+linear", lambda n: leja_knots(n, -1, 1, "p_disk"), LevelMap.LINEAR),
    ("leja-pdisk+two_step", lambda n: leja_knots(n, -1, 1, "p_disk"), LevelMap.TWO_STEP),
    ("leja-pdisk+doubling", lambda n: leja_knots(n, -1, 1, "p_disk"), LevelMap.DOUBLING),
    ("cc+doubling", lambda n: cc_knots(n, 0, 1), LevelMap.DOUBLING),
    ("trap+doubling", lambda n: trap_knots(n, 0, 1), LevelMap.DOUBLING),
    ("midpoint+tripling", lambda n: midpoint_knots(n, 0, 1), LevelMap.TRIPLING),
    ("wleja-normal+linear", lambda n: weighted_leja_knots(n, DistributionSpec.normal(0, 1)), LevelMap.LINEAR),
    ("wleja-normal+two_step", lambda n: weighted_leja_knots(n, DistributionSpec.normal(0, 1)), LevelMap.TWO_STEP),
    ("wleja-normal+doubling", lambda n: weighted_leja_knots(n, DistributionSpec.normal(0, 1)), LevelMap.DOUBLING),
    ("wleja-normal-sym+two_step", lambda n: weighted_leja_knots(n, DistributionSpec.normal(0, 1), "symmetric"), LevelMap.TWO_STEP),
    ("wleja-normal-sym+doubling", lambda n: weighted_leja_knots(n, DistributionSpec.normal(0, 1), "symmetric"), LevelMap.DOUBLING),
    ("wleja-exp+linear", lambda n: weighted_leja_knots(n, DistributionSpec.exponential(1.0)), LevelMap.LINEAR),
    ("wleja-exp+two_step", lambda n: weighted_leja_knots(n, DistributionSpec.exponential(1.0)), LevelMap.TWO_STEP),
    ("wleja-exp+doubling", lambda n: weighted_leja_knots(n, DistributionSpec.exponential(1.0)), LevelMap.DOUBLING),
    ("wleja-gamma+linear", lambda n: weighted_leja_knots(n, DistributionSpec.gamma(2.0, 1.0)), LevelMap.LINEAR),
    ("wleja-gamma+two_step", lambda n: weighted_leja_knots(n, DistributionSpec.gamma(2.0, 1.0)), LevelMap.TWO_STEP),
    ("wleja-gamma+doubling", lambda n: weighted_leja_knots(n, DistributionSpec.gamma(2.0, 1.0)), LevelMap.DOUBLING),
    ("wleja-beta+linear", lambda n: weighted_leja_knots(n, DistributionSpec.beta(0, 1, 0.5, 1.5)), LevelMap.LINEAR),
    ("wleja-beta+two_step", lambda n: weighted_leja_knots(n, DistributionSpec.beta(0, 1, 0.5, 1.5)), LevelMap.TWO_STEP),
    ("wleja-beta+doubling", lambda n: weighted_leja_knots(n, DistributionSpec.beta(0, 1, 0.5, 1.5)), LevelMap.DOUBLING),
    ("wleja-beta-sym+two_step", lambda n: weighted_leja_knots(n, DistributionSpec.beta(0, 1, 0.5, 0.5), "symmetric"), LevelMap.TWO_STEP),
    ("wleja-beta-sym+doubling", lambda n: weighted_leja_knots(n, DistributionSpec.beta(0, 1, 0.5, 0.5), "symmetric"), LevelMap.DOUBLING),
    ("gk+gk", gk_knots, LevelMap.GK),
]


@pytest.mark.parametrize("name,maker,level_map", NESTED_PAIRS, ids=[p[0] for p in NESTED_PAIRS])
def test_nestedness_compatibility(name, maker, level_map):
    """Node sets grow monotonically along each flagged (family, map) pair."""
    for level in range(1, 5):
        m0 = apply_level_map(level_map, level)
        m1 = apply_level_map(level_map, level + 1)
        if name.startswith("trap") and m0 < 2:
            continue  # the trapezoid rule needs two nodes
        coarse = maker(m0).nodes
        fine = maker(m1).nodes
        dist = np.abs(coarse[:, None] - fine[None, :]).min(axis=1)
        assert dist.max() < 1e-12, (name, level)
