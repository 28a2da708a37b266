import json
import math
import os
import random
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparsegrids as sg
from sparsegrids import knots
from sparsegrids.knots import (
    DistributionSpec,
    KnotFamily,
    ParameterError,
    UnsupportedVariantError,
    cc_knots,
    family_from_descriptor,
    gauss_knots,
    gk_knots,
    leja_family,
    leja_knots,
    midpoint_knots,
    trap_family,
    trap_knots,
    weighted_leja_family,
    weighted_leja_knots,
)
from sparsegrids.gridio import GridFileError, load_grid, save_grid

SQRT3 = math.sqrt(3.0)

DISTS = [
    DistributionSpec.uniform(-1.0, 2.0),
    DistributionSpec.normal(0.5, 2.0),
    DistributionSpec.exponential(1.3),
    DistributionSpec.gamma(2.0, 1.5),
    DistributionSpec.beta(-1.0, 1.0, 0.5, 1.5),
]


def exact_moment(dist: DistributionSpec, k: int) -> float:
    """Closed-form monomial moments E[y^k], the independent oracle."""
    p = dist.params
    if dist.kind == "uniform":
        a, b = p
        return (b ** (k + 1) - a ** (k + 1)) / ((k + 1) * (b - a))
    if dist.kind == "normal":
        mu, sig = p
        total = 0.0
        for j in range(0, k // 2 + 1):
            total += (
                math.comb(k, 2 * j)
                * mu ** (k - 2 * j)
                * sig ** (2 * j)
                * math.prod(range(1, 2 * j, 2))
            )
        return total
    if dist.kind == "exponential":
        return math.factorial(k) / p[0] ** k
    if dist.kind == "gamma":
        alpha, beta = p
        return math.prod(alpha + j for j in range(1, k + 1)) / beta**k
    a, b, alpha, beta = p
    # standard Beta(alpha+1, beta+1) moments on [0,1], then the affine map
    def std_moment(j):
        out = 1.0
        for i in range(j):
            out *= (alpha + 1 + i) / (alpha + beta + 2 + i)
        return out

    return sum(
        math.comb(k, j) * a ** (k - j) * (b - a) ** j * std_moment(j) for j in range(k + 1)
    )


class TestDistributionSpec:
    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            DistributionSpec.uniform(1.0, 1.0)
        with pytest.raises(ParameterError):
            DistributionSpec.normal(0.0, 0.0)
        with pytest.raises(ParameterError):
            DistributionSpec.exponential(-1.0)
        with pytest.raises(ParameterError):
            DistributionSpec.gamma(-1.5, 1.0)
        with pytest.raises(ParameterError):
            DistributionSpec.beta(0.0, 1.0, -2.0, 0.0)

    @pytest.mark.parametrize("dist", DISTS, ids=lambda d: d.kind)
    def test_pdf_normalized(self, dist):
        from scipy.integrate import quad

        lo, hi = dist.support
        lo = max(lo, -40.0)
        hi = min(hi, 60.0)
        total, _ = quad(lambda y: float(dist.pdf(y)), lo, hi, limit=200)
        assert abs(total - 1.0) < 1e-10


class TestGauss:
    def test_one_point_uniform_is_midpoint(self):
        rule = gauss_knots(DistributionSpec.uniform(-1.0, 1.0), 1)
        assert rule.nodes == pytest.approx([0.0])
        assert rule.weights == pytest.approx([1.0])

    def test_two_point_uniform(self):
        # solve the 3-moment system by hand: nodes +-1/sqrt(3), weights 1/2
        rule = gauss_knots(DistributionSpec.uniform(-1.0, 1.0), 2)
        assert sorted(rule.nodes) == pytest.approx([-0.5773502691896258, 0.5773502691896258])
        assert rule.weights == pytest.approx([0.5, 0.5])

    def test_one_point_normal_is_mean(self):
        rule = gauss_knots(DistributionSpec.normal(0.0, 1.0), 1)
        assert rule.nodes == pytest.approx([0.0])
        assert rule.weights == pytest.approx([1.0])

    @pytest.mark.parametrize("dist", DISTS, ids=lambda d: d.kind)
    @pytest.mark.parametrize("k", range(1, 9))
    def test_exactness_2k_minus_1(self, dist, k):
        rule = gauss_knots(dist, k)
        for deg in range(2 * k):
            got = float(np.sum(rule.weights * rule.nodes**deg))
            want = exact_moment(dist, deg)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12), deg

    def test_degree_2k_not_exact(self):
        # sanity anti-test: k-point Gauss cannot integrate degree 2k
        dist = DistributionSpec.uniform(-1.0, 2.0)
        for k in (2, 3, 4):
            rule = gauss_knots(dist, k)
            got = float(np.sum(rule.weights * rule.nodes ** (2 * k)))
            assert abs(got - exact_moment(dist, 2 * k)) > 1e-8

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            gauss_knots(DistributionSpec.uniform(0.0, 1.0), 0)

    @pytest.mark.parametrize("dist", DISTS + [DistributionSpec.beta(-1.0, 2.0, -0.5, -0.5)],
                             ids=lambda d: f"{d.kind}{d.params}")
    def test_matches_scipy_tridiagonal_eigensolver(self, dist):
        # the dense symmetric eigensolver agrees with the tridiagonal one
        # (Golub-Welsch); native intervals sit off zero, so no node is a
        # rounding-level zero whose ulp distance would be meaningless
        from scipy.linalg import eigh_tridiagonal

        for count in range(1, 61):
            alpha, beta = knots.recurrence_coefficients(dist, count)
            x, vecs = eigh_tridiagonal(alpha, np.sqrt(beta[1:]))
            w = vecs[0, :] ** 2
            rule = gauss_knots(dist, count)
            np.testing.assert_array_max_ulp(rule.nodes, knots._standard_to_native(dist, x), maxulp=4)
            np.testing.assert_array_max_ulp(rule.weights, w / w.sum(), maxulp=4)


class TestClenshawCurtis:
    def test_five_point_listing(self):
        rule = cc_knots(5, 0.0, 1.0)
        assert rule.nodes == pytest.approx([1.0, 0.8536, 0.5, 0.1464, 0.0], abs=5e-5)
        assert rule.weights == pytest.approx([0.0333, 0.2667, 0.4, 0.2667, 0.0333], abs=5e-5)

    def test_single_point(self):
        rule = cc_knots(1, 0.0, 1.0)
        assert rule.nodes == pytest.approx([0.5])
        assert rule.weights == pytest.approx([1.0])

    @pytest.mark.parametrize("a,b", [(0.1, 0.7), (-0.3, 1.1), (-2.2, 0.7)])
    def test_single_point_nests_bitwise(self, a, b):
        # (a+b)/2 differs in the last bit here; dedup must see one knot
        assert cc_knots(1, a, b).nodes[0] == cc_knots(3, a, b).nodes[1]

    def test_domain_error(self):
        with pytest.raises(ParameterError):
            cc_knots(3, 1.0, 0.0)

    @pytest.mark.parametrize("count", [2, 3, 4, 5, 9, 17, 33])
    def test_interpolatory_exactness(self, count):
        # degree count-1 polynomials integrate exactly against 1/(b-a)
        rule = cc_knots(count, -1.0, 3.0)
        for deg in range(count):
            got = float(np.sum(rule.weights * rule.nodes**deg))
            want = exact_moment(DistributionSpec.uniform(-1.0, 3.0), deg)
            assert got == pytest.approx(want, rel=1e-11, abs=1e-12)


class TestLeja:
    def test_first_three(self):
        assert leja_knots(3, 0.0, 1.0).nodes == pytest.approx([1.0, 0.0, 0.5])

    def test_fourth_node_tie_breaks_right(self):
        # critical points of |t(t-1)(t-0.5)| are (3 +- sqrt(3))/6; rightmost wins
        rule = leja_knots(4, 0.0, 1.0)
        assert rule.nodes[3] == pytest.approx((3 + math.sqrt(3)) / 6, abs=1e-6)

    def test_p_disk_first_three(self):
        rule = leja_knots(3, -1.0, 1.0, "p_disk")
        assert rule.nodes == pytest.approx([1.0, -1.0, 0.0])

    def test_p_disk_angle_recursion(self):
        rule = leja_knots(6, -1.0, 1.0, "p_disk")
        want = np.cos([0.0, math.pi, math.pi / 2, math.pi / 4, 5 * math.pi / 4, math.pi / 8])
        assert rule.nodes == pytest.approx(want)

    def test_symmetric_mirrors(self):
        rule = leja_knots(5, 0.0, 1.0, "symmetric")
        assert rule.nodes[4] == 0.5 - (rule.nodes[3] - 0.5)

    def test_maximality_on_grid(self):
        rule = leja_knots(7, 0.0, 1.0)
        cand = np.linspace(0.0, 1.0, 1001)
        for j in range(3, 7):
            prev = rule.nodes[:j]
            with np.errstate(divide="ignore"):
                on_grid = np.sum(np.log(np.abs(cand[:, None] - prev[None, :])), axis=1)
                own = np.sum(np.log(np.abs(rule.nodes[j] - prev)))
            assert own >= on_grid.max() - 1e-9

    def test_domain_error(self):
        with pytest.raises(ParameterError):
            leja_knots(3, 2.0, 2.0)


class TestWeightedLeja:
    def test_first_node_is_mode(self):
        rule = weighted_leja_knots(1, DistributionSpec.normal(0.0, 1.0))
        assert rule.nodes == pytest.approx([0.0], abs=1e-12)

    def test_symmetric_mirror(self):
        rule = weighted_leja_knots(3, DistributionSpec.normal(0.0, 1.0), "symmetric")
        assert rule.nodes[2] == -rule.nodes[1]

    def test_weights_sum(self):
        rule = weighted_leja_knots(5, DistributionSpec.normal(0.0, 1.0))
        assert abs(rule.weights.sum() - 1.0) < 1e-12

    def test_interpolatory_moments(self):
        # a 5-node rule integrates degree <= 4 exactly; oracle: normal moments
        dist = DistributionSpec.normal(0.0, 1.0)
        rule = weighted_leja_knots(5, dist)
        for deg in range(5):
            got = float(np.sum(rule.weights * rule.nodes**deg))
            assert got == pytest.approx(exact_moment(dist, deg), rel=1e-8, abs=1e-8)

    def test_symmetric_starts_at_centre(self):
        rule = weighted_leja_knots(1, DistributionSpec.normal(0.3, 2.0), "symmetric")
        assert rule.nodes[0] == 0.3

    @pytest.mark.parametrize("zero_exponent,same", [
        (DistributionSpec.beta(-1.0, 1.0, 0.0, 0.0), DistributionSpec.uniform(-1.0, 1.0)),
        (DistributionSpec.beta(0.5, 2.0, 0.0, 0.0), DistributionSpec.uniform(0.5, 2.0)),
        (DistributionSpec.gamma(0.0, 1.5), DistributionSpec.exponential(1.5)),
    ], ids=["beta-unit", "beta-shifted", "gamma"])
    def test_zero_exponent_endpoint_is_in_the_support(self, zero_exponent, same):
        # a zero exponent leaves a finite density at its endpoint
        for n in range(1, 8):
            assert np.array_equal(weighted_leja_knots(n, zero_exponent).nodes,
                                  weighted_leja_knots(n, same).nodes), n

    def test_symmetric_flat_beta(self):
        rule = weighted_leja_knots(3, DistributionSpec.beta(-1.0, 1.0, 0.0, 0.0), "symmetric")
        assert np.allclose(rule.nodes, [0.0, 1.0, -1.0], rtol=0, atol=1e-12)
        assert np.allclose(rule.weights, [2 / 3, 1 / 6, 1 / 6], rtol=0, atol=1e-12)

    def test_symmetric_rejected_for_unsymmetric(self):
        with pytest.raises(UnsupportedVariantError):
            weighted_leja_knots(3, DistributionSpec.exponential(1.0), "symmetric")
        with pytest.raises(UnsupportedVariantError):
            weighted_leja_knots(3, DistributionSpec.gamma(1.0, 1.0), "symmetric")


class TestTrapMidpoint:
    def test_trap_three(self):
        rule = trap_knots(3, 0.0, 1.0)
        assert rule.nodes == pytest.approx([0.0, 0.5, 1.0])
        assert rule.weights == pytest.approx([0.25, 0.5, 0.25])

    def test_midpoint_three(self):
        rule = midpoint_knots(3, 0.0, 1.0)
        assert rule.nodes == pytest.approx([1 / 6, 0.5, 5 / 6])
        assert rule.weights == pytest.approx([1 / 3, 1 / 3, 1 / 3])

    def test_midpoint_one(self):
        rule = midpoint_knots(1, 0.0, 1.0)
        assert rule.nodes == pytest.approx([0.5])
        assert rule.weights == pytest.approx([1.0])

    def test_trap_needs_two(self):
        with pytest.raises(ParameterError):
            trap_knots(1, 0.0, 1.0)

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            trap_knots(3, 1.0, 1.0)
        with pytest.raises(ParameterError):
            midpoint_knots(3, 2.0, 1.0)


class TestNestedNormal:
    def test_first_level(self):
        rule = gk_knots(1)
        assert rule.nodes == pytest.approx([0.0])
        assert rule.weights == pytest.approx([1.0])

    def test_nesting_chain(self):
        sizes = (1, 3, 9, 19, 35)
        for small, large in zip(sizes, sizes[1:]):
            a = set(np.round(gk_knots(small).nodes, 12))
            b = set(np.round(gk_knots(large).nodes, 12))
            assert a <= b

    def test_nine_point_moments(self):
        rule = gk_knots(9)
        assert float(np.sum(rule.weights * rule.nodes**2)) == pytest.approx(1.0, abs=1e-10)
        assert float(np.sum(rule.weights * rule.nodes**4)) == pytest.approx(3.0, abs=1e-10)

    @pytest.mark.parametrize("count,degree", [(1, 1), (3, 5), (9, 15), (19, 29), (35, 51)])
    def test_degrees_of_exactness(self, count, degree):
        dist = DistributionSpec.normal(0.0, 1.0)
        rule = gk_knots(count)
        for deg in range(degree + 1):
            terms = rule.weights * rule.nodes**deg
            # error relative to the term magnitude: odd moments cancel huge
            # symmetric terms, which double precision cannot do exactly
            scale = max(1.0, float(np.abs(terms).max()))
            err = abs(float(terms.sum()) - exact_moment(dist, deg))
            assert err < 1e-9 * scale, deg

    def test_unsupported_size(self):
        with pytest.raises(ParameterError):
            gk_knots(5)


ALL_RULES = [
    ("gauss-uniform", lambda n: gauss_knots(DISTS[0], n), range(1, 11)),
    ("gauss-normal", lambda n: gauss_knots(DISTS[1], n), range(1, 11)),
    ("gauss-exponential", lambda n: gauss_knots(DISTS[2], n), range(1, 11)),
    ("gauss-gamma", lambda n: gauss_knots(DISTS[3], n), range(1, 11)),
    ("gauss-beta", lambda n: gauss_knots(DISTS[4], n), range(1, 11)),
    ("cc", lambda n: cc_knots(n, 0.0, 1.0), range(1, 11)),
    ("leja", lambda n: leja_knots(n, 0.0, 1.0), range(1, 11)),
    ("leja-sym", lambda n: leja_knots(n, 0.0, 1.0, "symmetric"), range(1, 11)),
    ("leja-pdisk", lambda n: leja_knots(n, 0.0, 1.0, "p_disk"), range(1, 11)),
    ("wleja-normal", lambda n: weighted_leja_knots(n, DistributionSpec.normal(0, 1)), range(1, 11)),
    ("wleja-exp", lambda n: weighted_leja_knots(n, DistributionSpec.exponential(1.0)), range(1, 11)),
    ("wleja-gamma", lambda n: weighted_leja_knots(n, DistributionSpec.gamma(2.0, 1.0)), range(1, 11)),
    ("wleja-beta", lambda n: weighted_leja_knots(n, DISTS[4]), range(1, 11)),
    ("wleja-sym-normal", lambda n: weighted_leja_knots(n, DistributionSpec.normal(0, 1), "symmetric"), range(1, 11)),
    ("wleja-flat-beta", lambda n: weighted_leja_knots(n, DistributionSpec.beta(-1, 1, 0, 0)), range(1, 11)),
    ("wleja-sym-flat-beta", lambda n: weighted_leja_knots(n, DistributionSpec.beta(-1, 1, 0, 0), "symmetric"), range(1, 11)),
    ("trap", lambda n: trap_knots(n, 0.0, 1.0), range(2, 11)),
    ("midpoint", lambda n: midpoint_knots(n, 0.0, 1.0), range(1, 11)),
    ("gk", gk_knots, (1, 3, 9)),
]


class TestCommonInvariants:
    @pytest.mark.parametrize("name,maker,counts", ALL_RULES, ids=lambda v: v if isinstance(v, str) else "")
    def test_weights_sum_to_one(self, name, maker, counts):
        for n in counts:
            rule = maker(n)
            assert abs(rule.weights.sum() - 1.0) < 1e-12, (name, n)

    @pytest.mark.parametrize("name,maker,counts", ALL_RULES, ids=lambda v: v if isinstance(v, str) else "")
    def test_nodes_distinct(self, name, maker, counts):
        for n in counts:
            nodes = maker(n).nodes
            if n == 1:
                continue
            spread = nodes.max() - nodes.min()
            gaps = np.diff(np.sort(nodes))
            assert gaps.min() > 1e-14 * spread, (name, n)

    @given(a=st.floats(-5, 5), width=st.floats(0.1, 10))
    @settings(max_examples=20, deadline=None)
    def test_affine_covariance_cc(self, a, width):
        b = a + width
        base = cc_knots(7, 0.0, 1.0)
        moved = cc_knots(7, a, b)
        assert np.allclose(moved.nodes, a + width * base.nodes, atol=1e-12 * max(1, abs(a), width))
        assert np.allclose(moved.weights, base.weights)

    def test_affine_covariance_other_families(self):
        a, b = -2.0, 3.0
        pairs = [
            (gauss_knots(DistributionSpec.uniform(0, 1), 5), gauss_knots(DistributionSpec.uniform(a, b), 5)),
            (trap_knots(5, 0, 1), trap_knots(5, a, b)),
            (midpoint_knots(5, 0, 1), midpoint_knots(5, a, b)),
            (leja_knots(5, 0, 1), leja_knots(5, a, b)),
        ]
        for base, moved in pairs:
            assert np.allclose(moved.nodes, a + (b - a) * base.nodes, atol=2e-9 * (b - a))
            assert np.allclose(moved.weights, base.weights, atol=1e-9)

    @pytest.mark.parametrize("name,maker,counts", ALL_RULES, ids=lambda v: v if isinstance(v, str) else "")
    def test_sparse_grid_integrates_constants(self, name, maker, counts):
        # a level map whose counts the rule supports; trap has no 1-node
        # rule, so its grid uses trap_family's midpoint fallback
        level_map = {"gk": sg.LevelMap.GK, "cc": sg.LevelMap.DOUBLING,
                     "midpoint": sg.LevelMap.TRIPLING}.get(name, sg.LevelMap.LINEAR)
        family = trap_family(0.0, 1.0) if name == "trap" else KnotFamily(name, (), None, maker)
        rule = sg.preset("SM")[0]
        for w in range(4):
            grid = sg.build_sparse_grid_from_rule(2, w, family, level_map, rule)
            integral, _ = sg.quadrature(lambda y: 1.0, sg.reduce_grid(grid))
            assert abs(integral[0] - 1.0) <= 1e-12, (name, w)


LEJA_RULES = [r for r in ALL_RULES if "leja" in r[0]]


class TestLejaPrefixStore:
    @staticmethod
    def empty_store(monkeypatch):
        monkeypatch.setattr(knots, "_LEJA_PREFIXES", {})
        monkeypatch.setattr(knots, "_RULES", {})

    @pytest.fixture
    def searches(self, monkeypatch):
        """Greedy node searches run from here on, on an empty store."""
        calls = []
        search = knots._next_leja_node

        def counted(*args):
            calls.append(args)
            return search(*args)

        monkeypatch.setattr(knots, "_next_leja_node", counted)
        self.empty_store(monkeypatch)
        return calls

    @pytest.mark.parametrize("name,maker,counts", LEJA_RULES, ids=lambda v: v if isinstance(v, str) else "")
    def test_shuffled_counts_equal_an_empty_store(self, name, maker, counts, monkeypatch):
        counts = list(range(1, 13))
        cold = {}
        for n in counts:
            self.empty_store(monkeypatch)
            cold[n] = maker(n)
        self.empty_store(monkeypatch)
        random.Random(name).shuffle(counts)
        for n in counts:
            rule = maker(n)
            assert rule.nodes.tobytes() == cold[n].nodes.tobytes(), (name, n)
            assert rule.weights.tobytes() == cold[n].weights.tobytes(), (name, n)

    def test_search_interval_resumes_where_it_stopped(self, monkeypatch):
        # exponential(1): the 14th node doubles the interval to [0, 80]
        dist = DistributionSpec.exponential(1.0)
        self.empty_store(monkeypatch)
        cold = weighted_leja_knots(16, dist)
        self.empty_store(monkeypatch)
        weighted_leja_knots(14, dist)
        assert knots._LEJA_PREFIXES[("weighted_leja", "exponential", 1.0, "standard")].hi == 80.0
        assert weighted_leja_knots(16, dist).nodes.tobytes() == cold.nodes.tobytes()

    # (family, top count, searches for the nodes up to it): the tabulated
    # families search only past their 65-node tables, the others from the start
    @pytest.mark.parametrize("make,top,expected", [
        (lambda: leja_family(0.0, 1.0), 70, 5),  # nodes 66..70
        (lambda: leja_family(-1.3, 1.7, "symmetric"), 70, 3),  # each search adds a mirrored pair
        (lambda: weighted_leja_family(DistributionSpec.normal(0.3, 2.0)), 68, 3),
        (lambda: weighted_leja_family(DistributionSpec.beta(0.5, 2.0, 0.5, 1.5)), 12, 12),
        (lambda: weighted_leja_family(DistributionSpec.gamma(2.0, 1.0)), 12, None),
        (lambda: weighted_leja_family(DistributionSpec.exponential(2.5)), 16, None),
    ], ids=["leja", "leja-sym", "wleja-normal", "wleja-beta", "wleja-gamma", "wleja-exp"])
    def test_equal_families_search_each_node_once(self, make, top, expected, searches,
                                                  monkeypatch):
        cold = make()(top)
        if expected is None:  # the anchor doubling may repeat a node's search
            expected = len(searches)
        assert len(searches) == expected
        self.empty_store(monkeypatch)
        searches.clear()
        first, second = make(), make()
        families = (first, second, family_from_descriptor(first.descriptor()))
        for n in (top - 7, 2, top, top - 4, 1, top - 1):
            for fam in families:
                fam(n)
        assert len(searches) == expected
        for fam in families:
            assert fam(top).nodes.tobytes() == cold.nodes.tobytes()

    @pytest.mark.parametrize("make", [
        lambda a, b: leja_family(a, b),
        lambda a, b: weighted_leja_family(DistributionSpec.beta(a, b, 0.5, 1.5)),
        lambda a, b: weighted_leja_family(DistributionSpec.normal(a, b - a)),
    ], ids=["leja", "wleja-beta", "wleja-normal"])
    def test_domains_share_one_sequence(self, make, searches):
        make(0.0, 1.0)(68)
        found = len(searches)
        for a, b in _adapt_leja_intervals(3):
            make(a, b)(68)
        assert len(searches) == found and len(knots._LEJA_PREFIXES) == 1

    def test_concurrent_requests_search_each_node_once(self, searches, monkeypatch):
        dist = DistributionSpec.beta(-1.0, 2.0, 0.5, 1.5)  # searched from its first node
        cold = weighted_leja_knots(12, dist).nodes
        self.empty_store(monkeypatch)
        searches.clear()
        results = []

        def request(counts):
            for n in counts:
                results.append((n, weighted_leja_knots(n, dist).nodes))

        orders = [list(range(4, 13)), list(range(12, 3, -1)), [8, 12, 5], [12], [6, 7, 11]]
        threads = [threading.Thread(target=request, args=(o,)) for o in orders]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == sum(map(len, orders))
        assert len(searches) == 12
        for n, nodes in results:
            assert nodes.tobytes() == cold[:n].tobytes()


def _direct_leja_sequence(key, count):
    """Reference: the greedy search from the same canonical prefix, summing
    log|grid - x_k| over the nodes afresh for every node, with no store."""
    from sparsegrids._leja_table import LEJA_TABLE

    prefix = knots._canonical_prefix(key, LEJA_TABLE)
    nodes, lo, hi, anchor = list(prefix.nodes), prefix.lo, prefix.hi, prefix.anchor
    log_weight, centre = prefix.log_weight, prefix.centre

    def objective(t, existing):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        with np.errstate(divide="ignore"):
            v = np.sum(np.log(np.abs(t[:, None] - existing[None, :])), axis=1)
        return v if log_weight is None else v + log_weight(t)

    def next_node(existing, lo, hi):
        grid = np.linspace(lo, hi, knots._LEJA_GRID)
        vals = np.zeros(grid.size)
        with np.errstate(divide="ignore"):
            for x in existing:
                vals += np.log(np.abs(grid - x))
        if log_weight is not None:
            vals = vals + log_weight(grid)
        j = knots._argmax_rightmost(vals)
        step = grid[1] - grid[0]
        blo, bhi = max(lo, grid[j] - step), min(hi, grid[j] + step)
        refined = knots._golden_max(lambda t: objective(t, existing)[0], blo, bhi)
        pair = objective(np.array([refined, grid[j]]), existing)
        noise = 1e-13 * max(1.0, float(np.max(np.abs(pair))))
        if grid[j] > refined and pair[1] >= pair[0] - noise:
            return float(grid[j])
        return refined

    while len(nodes) < count:
        arr = np.asarray(nodes)
        t = next_node(arr, lo, hi)
        while anchor is not None and (
            (hi > anchor and hi - t <= 0.01 * (hi - lo))
            or (lo < anchor and t - lo <= 0.01 * (hi - lo))
        ):
            lo, hi = anchor - 2 * (anchor - lo), anchor + 2 * (hi - anchor)
            t = next_node(arr, lo, hi)
        nodes.append(t)
        if centre is not None:
            nodes.append(centre - (t - centre))
    return np.asarray(nodes[:count])


def _adapt_leja_intervals(n):
    """Seeded domains [a, b] drawn as the adapt-leja benchmark draws them."""
    rng = random.Random("adapt-leja:running-sum")
    return [(round(rng.uniform(-2.0, -0.5), 6), round(rng.uniform(0.5, 2.0), 6))
            for _ in range(n)]


class TestRunningLogSum:
    """The Leja search keeps a running sum of log-distances over its grid
    instead of summing them afresh for every node."""

    # every case calls make(n) with n past its table (65 nodes) or, for the
    # searched shapes, from the first node on
    @pytest.mark.parametrize("make", [
        *(lambda n, a=a, b=b, v=v: leja_knots(n + 50, a, b, v)
          for a, b in _adapt_leja_intervals(6) for v in ("standard", "symmetric")),
        lambda n: weighted_leja_knots(n + 50, DistributionSpec.normal(0.3, 2.0)),
        lambda n: weighted_leja_knots(n + 50, DistributionSpec.normal(0.3, 2.0), "symmetric"),
        lambda n: weighted_leja_knots(n, DistributionSpec.gamma(2.0, 1.0)),
        lambda n: weighted_leja_knots(n, DistributionSpec.exponential(1.0)),  # doubles at node 14
    ])
    def test_nodes_bitwise_equal_the_direct_search(self, make, monkeypatch):
        TestLejaPrefixStore.empty_store(monkeypatch)
        fast = make(16).nodes
        with monkeypatch.context() as m:
            m.setattr(knots, "_leja_sequence", _direct_leja_sequence)
            direct = make(16).nodes
        assert fast.tobytes() == direct.tobytes()

    def test_beta_nodes_bitwise_equal_the_direct_search(self, monkeypatch):
        TestLejaPrefixStore.empty_store(monkeypatch)
        dist = DistributionSpec.beta(-1.0, 2.0, 0.5, 1.5)
        fast = weighted_leja_knots(16, dist).nodes
        monkeypatch.setattr(knots, "_leja_sequence", _direct_leja_sequence)
        assert fast.tobytes() == weighted_leja_knots(16, dist).nodes.tobytes()

    def test_extension_keeps_no_node_matrix(self, monkeypatch):
        TestLejaPrefixStore.empty_store(monkeypatch)
        dist = DistributionSpec.beta(-1.3, 1.7, 0.5, 1.5)  # searched, no anchor doubling
        weighted_leja_knots(3, dist)
        tracemalloc.start()
        try:
            weighted_leja_knots(13, dist)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one (grid x 10) float matrix alone would be 8 MB
        assert peak < 5e6

    def test_equal_families_build_each_rule_once(self, monkeypatch):
        TestLejaPrefixStore.empty_store(monkeypatch)
        built = []
        make = knots.leja_knots

        def counted(n, *args):
            built.append(n)
            return make(n, *args)

        monkeypatch.setattr(knots, "leja_knots", counted)
        first, second = leja_family(-0.7, 1.2), leja_family(-0.7, 1.2)
        families = (first, second, family_from_descriptor(first.descriptor()))
        for n in (5, 2, 12, 8, 1, 11, 5):
            rules = [fam(n) for fam in families]
            assert all(rule is rules[0] for rule in rules)
        assert sorted(built) == [1, 2, 5, 8, 11, 12]


_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestCanonicalLeja:
    """Every Leja family is the affine image loc + scale * t of one canonical
    sequence t per shape, apart from its exact start nodes and mirrors."""

    @given(a=st.floats(-1e3, 1e3), width=st.floats(1e-3, 1e3),
           variant=st.sampled_from(["standard", "symmetric"]))
    @settings(max_examples=30, deadline=None)
    def test_leja_is_the_image_of_the_canonical_sequence(self, a, width, variant):
        b = a + width
        t = knots._leja_sequence(("leja", variant), 33)
        nodes = leja_knots(33, a, b, variant).nodes
        mid = (a + b) / 2.0
        image = mid + (b - a) / 2.0 * t
        assert nodes[:3].tolist() == [b, a, mid]
        free = slice(3, None, 2 if variant == "symmetric" else 1)
        assert nodes[free].tobytes() == image[free].tobytes()
        if variant == "symmetric":
            assert nodes[4::2].tobytes() == (mid - (nodes[3:-1:2] - mid)).tobytes()

    @given(mu=st.floats(-1e3, 1e3), sigma=st.floats(1e-3, 1e3),
           variant=st.sampled_from(["standard", "symmetric"]))
    @settings(max_examples=30, deadline=None)
    def test_weighted_normal_is_the_image_of_the_canonical_sequence(self, mu, sigma, variant):
        t = knots._leja_sequence(("weighted_leja", "normal", 0.0, 1.0, variant), 33)
        nodes = weighted_leja_knots(33, DistributionSpec.normal(mu, sigma), variant).nodes
        image = mu + sigma * t
        assert nodes[0] == mu
        free = slice(1, None, 2 if variant == "symmetric" else 1)
        assert nodes[free].tobytes() == image[free].tobytes()
        if variant == "symmetric":
            assert nodes[2::2].tobytes() == (mu - (nodes[1:-1:2] - mu)).tobytes()

    def test_closed_form_nodes(self):
        # |t^3 - t| peaks at 1/sqrt(3); |t| exp(-t^2/4) at sqrt(2); exp(-t^2/4) at 0
        r3, r2 = 1.0 / math.sqrt(3.0), math.sqrt(2.0)
        assert abs(leja_knots(4, -1.0, 1.0).nodes[3] - r3) <= 2 * math.ulp(r3)
        sym = weighted_leja_knots(2, DistributionSpec.normal(0.0, 1.0), "symmetric")
        assert abs(sym.nodes[1] - r2) <= 2 * math.ulp(r2)
        assert weighted_leja_knots(1, DistributionSpec.normal(0.0, 1.0)).nodes[0] == 0.0

    def test_mirror_is_bitwise_on_a_shifted_domain(self):
        nodes = leja_knots(65, -1.3, 1.7, "symmetric").nodes
        mid = (-1.3 + 1.7) / 2.0
        for k in range(3, 64, 2):
            assert nodes[k + 1] == mid - (nodes[k] - mid), k

    def test_table_regenerates_bitwise(self):
        script = os.path.join(_ROOT, "scripts", "gen_leja_table.py")
        proc = subprocess.run([sys.executable, script, "--check"], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_table_is_imported_on_the_first_leja_call(self, tmp_path):
        code = "\n".join([
            "import sys",
            "import sparsegrids",
            "from sparsegrids.cli import cli_main",
            "table = 'sparsegrids._leja_table'",
            "assert table not in sys.modules",
            "assert cli_main(['build', '--dim', '2', '--preset', 'SM', '--w', '3', '--knots', 'cc',",
            "                 '--domain=-1,1', '-o', 'g.json']) == 0",
            "assert cli_main(['quad', '--grid', 'g.json', '--fn', 'expsum']) == 0",
            "assert table not in sys.modules",
            "sparsegrids.leja_knots(4, 0.0, 1.0)",
            "assert table in sys.modules",
        ])
        env = dict(os.environ, PYTHONPATH=os.path.join(_ROOT, "src"))
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestTrapFamilyFallback:
    def test_single_node_is_midpoint(self):
        from sparsegrids.knots import trap_family

        fam = trap_family(0.0, 1.0)
        rule = fam(1)
        assert rule.nodes == pytest.approx([0.5])
        assert rule.weights == pytest.approx([1.0])
        # nested into the proper equispaced rules
        assert 0.5 in set(fam(3).nodes)


# one family from every factory: Gauss on each distribution kind, then the
# interval, Leja and Genz-Keister families
EVERY_FAMILY = [sg.gauss_family(d) for d in DISTS] + [
    sg.cc_family(-1.0, 2.0),
    leja_family(-1.0, 2.0, "standard"),
    leja_family(0.0, 1.0, "symmetric"),
    leja_family(-0.5, 3.0, "p_disk"),
    weighted_leja_family(DistributionSpec.normal(0.5, 2.0), "standard"),
    weighted_leja_family(DistributionSpec.normal(0.0, 1.0), "symmetric"),
    trap_family(0.0, 1.0),
    sg.midpoint_family(-2.0, 2.0),
    sg.gk_family(),
]


class TestDescriptor:
    @pytest.mark.parametrize("fam", EVERY_FAMILY, ids=repr)
    def test_round_trip(self, fam):
        assert family_from_descriptor(fam.descriptor()) == fam
        assert family_from_descriptor(json.loads(json.dumps(fam.descriptor()))) == fam

    @pytest.mark.parametrize("fam", EVERY_FAMILY, ids=repr)
    def test_wrong_param_count_is_a_grid_file_error(self, fam, tmp_path):
        path = tmp_path / "g.json"
        save_grid(path, sg.build_sparse_grid(sg.MultiIndexSet([[1]]), fam, sg.LevelMap.LINEAR))
        doc = json.loads(path.read_text())
        params = doc["families"][0]["params"]
        for wrong in ([params + [1.0], params[:-1]] if params else [[1.0]]):
            doc["families"][0]["params"] = wrong
            path.write_text(json.dumps(doc))
            with pytest.raises(GridFileError, match="structurally invalid"):
                load_grid(path)

    def test_unknown_tag(self):
        with pytest.raises(ParameterError, match="unknown knot family tag 'spline'"):
            family_from_descriptor({"family": "spline", "params": []})
