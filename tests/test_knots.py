import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsegrids.knots import (
    DistributionSpec,
    ParameterError,
    UnsupportedVariantError,
    cc_knots,
    gauss_knots,
    gk_knots,
    leja_knots,
    midpoint_knots,
    trap_knots,
    weighted_leja_knots,
)

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


class TestTrapFamilyFallback:
    def test_single_node_is_midpoint(self):
        from sparsegrids.knots import trap_family

        fam = trap_family(0.0, 1.0)
        rule = fam(1)
        assert rule.nodes == pytest.approx([0.5])
        assert rule.weights == pytest.approx([1.0])
        # nested into the proper equispaced rules
        assert 0.5 in set(fam(3).nodes)
