import math

import numpy as np
import pytest

import sparsegrids as sg
from sparsegrids.adaptive import (
    AdaptControls,
    AdaptState,
    ConfigurationError,
    adapt,
    error_indicator_point,
    error_indicator_quad,
    restore_state,
    serialize_state,
    work_indicator,
)
from sparsegrids.evalkit import EvaluationError, evaluate_on_grid, quadrature
from sparsegrids.midx import is_downward_closed, reduced_margin

EXPSUM = lambda y: math.exp(float(np.sum(y)))
EXACT_2D = (math.e - 1.0) ** 2


def make_state(f, dim=2, profit="Linf_per_new_points", nested=True, **kw):
    fam = sg.cc_family(0, 1)
    controls = AdaptControls(nested=nested, profit=profit, **kw)
    return AdaptState(dim=dim, families=(fam,) * dim, level_map=sg.LevelMap.DOUBLING,
                      controls=controls, f=f)


class TestWorkIndicator:
    def test_nested_doubling(self):
        assert work_indicator((2, 2), True, sg.LevelMap.DOUBLING) == 4

    def test_root_is_one(self):
        assert work_indicator((1, 1, 1), True, sg.LevelMap.DOUBLING) == 1

    def test_non_nested_linear(self):
        assert work_indicator((3, 2), False, sg.LevelMap.LINEAR) == 6

    def test_counts_new_knots_exactly_for_nested(self):
        fam = sg.cc_family(0, 1)
        rule, lm = sg.preset("SM")
        for w in range(4):
            small = sg.build_sparse_grid_from_rule(2, w, fam, lm, rule)
            r_small = sg.reduce_grid(small)
            for idx in reduced_margin(small.index_set):
                bigger = sg.build_sparse_grid(small.index_set.union([idx]), fam, lm)
                gained = sg.reduce_grid(bigger).size - r_small.size
                assert gained == work_indicator(idx, True, lm)

    def test_upper_bound_for_non_nested(self):
        fam = sg.gauss_family(sg.DistributionSpec.uniform(0, 1))
        rule = sg.preset("TD")[0]
        small = sg.build_sparse_grid_from_rule(2, 2, fam, sg.LevelMap.LINEAR, rule)
        r_small = sg.reduce_grid(small)
        for idx in reduced_margin(small.index_set):
            bigger = sg.build_sparse_grid(small.index_set.union([idx]), fam, sg.LevelMap.LINEAR)
            gained = sg.reduce_grid(bigger).size - r_small.size
            assert gained <= work_indicator(idx, False, sg.LevelMap.LINEAR)


class TestErrorIndicators:
    def test_constant_function_zero(self):
        state = make_state(lambda y: 1.0)
        assert error_indicator_quad((2, 1), state) == pytest.approx(0.0, abs=1e-14)
        assert error_indicator_point((2, 1), state) == pytest.approx(0.0, abs=1e-14)

    def test_quad_indicator_equals_two_grid_difference(self):
        state = make_state(EXPSUM)
        fam = sg.cc_family(0, 1)
        small = sg.build_sparse_grid(sg.MultiIndexSet([[1, 1]]), fam, sg.LevelMap.DOUBLING)
        big = sg.build_sparse_grid(sg.MultiIndexSet([[1, 1], [2, 1]]), fam, sg.LevelMap.DOUBLING)
        qs = quadrature(evaluate_on_grid(EXPSUM, sg.reduce_grid(small)), sg.reduce_grid(small))
        qb = quadrature(evaluate_on_grid(EXPSUM, sg.reduce_grid(big)), sg.reduce_grid(big))
        assert error_indicator_quad((2, 1), state) == pytest.approx(
            abs(float(qb[0] - qs[0])), abs=1e-13
        )

    def test_symmetric_candidates_equal(self):
        state = make_state(EXPSUM)
        a = error_indicator_quad((2, 1), state)
        b = error_indicator_quad((1, 2), state)
        assert a == pytest.approx(b, rel=1e-10)

    def test_point_indicator_zero_when_exactly_represented(self):
        f = lambda y: 1.0 + 2.0 * y[0] - 0.5 * y[1]
        state = make_state(f)
        # [3,1] only refines dimension 1 beyond quadratic exactness
        assert error_indicator_point((3, 1), state) < 1e-12

    def test_weight_function_of_one_matches_plain(self):
        plain = make_state(EXPSUM, profit="Linf")
        weighted = make_state(EXPSUM, profit="weighted_Linf", pdf_weight=lambda y: 1.0)
        for cand in [(2, 1), (2, 2), (1, 3)]:
            assert error_indicator_point(cand, plain) == pytest.approx(
                error_indicator_point(cand, weighted), rel=1e-12
            )

    def test_weighted_requires_pdf(self):
        with pytest.raises(ConfigurationError):
            AdaptControls(nested=True, profit="weighted_Linf")


class TestAdapt:
    def test_defaults_reach_paper_target(self):
        res = adapt(EXPSUM, 2, sg.cc_family(0, 1), sg.LevelMap.DOUBLING,
                    controls=AdaptControls(nested=True))
        assert abs(res.intf[0] - EXACT_2D) <= 5e-4
        assert res.nb_pts <= 300
        assert res.nb_pts_visited == res.num_evals == res.nb_pts  # nested, cold

    def test_constant_stops_immediately(self):
        res = adapt(lambda y: 1.0, 2, sg.cc_family(0, 1), sg.LevelMap.DOUBLING,
                    controls=AdaptControls(nested=True))
        assert res.internal.accepted == [(1, 1)]
        assert all(c.profit <= 1e-14 for c in res.internal.margin.values())

    def test_result_grid_covers_accepted_and_margin(self):
        res = adapt(EXPSUM, 2, sg.cc_family(0, 1), sg.LevelMap.DOUBLING,
                    controls=AdaptControls(nested=True, max_pts=60))
        got = set(res.extended.index_set)
        assert got == set(res.internal.accepted) | set(res.internal.margin)
        assert is_downward_closed(res.extended.index_set)
        accepted = sg.MultiIndexSet(res.internal.accepted)
        assert is_downward_closed(accepted)
        assert not set(res.internal.margin) & set(accepted)
        assert set(res.internal.margin) == set(reduced_margin(accepted))

    def test_max_pts_budget_stops(self):
        res = adapt(EXPSUM, 2, sg.cc_family(0, 1), sg.LevelMap.DOUBLING,
                    controls=AdaptControls(nested=True, max_pts=40))
        # the budget check runs before each enlargement
        assert res.nb_pts_visited <= 40 + 4 * 9  # one margin extension may overshoot

    def test_intf_matches_reduced_quadrature(self):
        res = adapt(EXPSUM, 2, sg.cc_family(0, 1), sg.LevelMap.DOUBLING,
                    controls=AdaptControls(nested=True, max_pts=50))
        assert res.intf == pytest.approx(quadrature(res.values_on_reduced, res.reduced))
        assert res.nb_pts == res.reduced.size

    def test_resume_equals_single_run(self):
        fam = sg.cc_family(0, 1)
        loose = adapt(EXPSUM, 2, fam, sg.LevelMap.DOUBLING,
                      controls=AdaptControls(nested=True, prof_tol=1e-4))
        resumed = adapt(EXPSUM, 2, fam, sg.LevelMap.DOUBLING, previous=loose,
                        controls=AdaptControls(nested=True, prof_tol=1e-10))
        single = adapt(EXPSUM, 2, fam, sg.LevelMap.DOUBLING,
                       controls=AdaptControls(nested=True, prof_tol=1e-10))
        assert set(resumed.internal.accepted) == set(single.internal.accepted)
        assert set(resumed.internal.margin) == set(single.internal.margin)
        assert resumed.intf == pytest.approx(single.intf, abs=1e-14)

    def test_serialize_restore_round_trip(self):
        fam = sg.cc_family(0, 1)
        first = adapt(EXPSUM, 2, fam, sg.LevelMap.DOUBLING,
                      controls=AdaptControls(nested=True, prof_tol=1e-3))
        blob = serialize_state(first.internal)
        controls = AdaptControls(nested=True, prof_tol=1e-10)
        state = restore_state(blob, fam, sg.LevelMap.DOUBLING, controls, EXPSUM)
        resumed = adapt(EXPSUM, 2, fam, sg.LevelMap.DOUBLING, previous=state,
                        controls=controls)
        single = adapt(EXPSUM, 2, fam, sg.LevelMap.DOUBLING, controls=controls)
        assert set(resumed.internal.accepted) == set(single.internal.accepted)
        assert resumed.intf == pytest.approx(single.intf, abs=1e-14)

    def test_non_nested_gauss(self):
        fam = sg.gauss_family(sg.DistributionSpec.uniform(0, 1))
        res = adapt(EXPSUM, 2, fam, sg.LevelMap.LINEAR,
                    controls=AdaptControls(nested=False, profit="deltaint_per_new_points",
                                           max_pts=120))
        assert abs(res.intf[0] - EXACT_2D) < 1e-6
        assert res.nb_pts_visited >= res.nb_pts
        # coincident knots across tensors are evaluated once
        assert res.num_evals == res.nb_pts_visited

    def test_vector_valued_function(self):
        f = lambda y: np.array([math.exp(y[0] + y[1]), y[0]])
        res = adapt(f, 2, sg.cc_family(0, 1), sg.LevelMap.DOUBLING,
                    controls=AdaptControls(nested=True, max_pts=80))
        assert res.intf.shape == (2,)
        assert res.intf[0] == pytest.approx(EXACT_2D, abs=1e-3)
        assert res.intf[1] == pytest.approx(0.5, abs=1e-12)

    def test_buffering_restricts_dimensions(self):
        calls = []

        def f(y):
            calls.append(np.array(y))
            return math.exp(y[0] + 0.5 * y[1] + 0.25 * y[2] + 0.125 * y[3])

        res = adapt(f, 4, sg.cc_family(0, 1), sg.LevelMap.DOUBLING,
                    controls=AdaptControls(nested=True, max_pts=25, var_buffer_size=1))
        assert is_downward_closed(sg.MultiIndexSet(res.internal.accepted))
        # every index respects the sliding window: non-unit entries only in
        # dimensions up to (active + buffer)
        window = res.internal.visible_dims()
        for idx in list(res.internal.margin) + res.internal.accepted:
            beyond = [n for n, v in enumerate(idx) if v > 1]
            assert all(n < window for n in beyond)

    def test_controls_required(self):
        with pytest.raises(ConfigurationError):
            adapt(EXPSUM, 2, sg.cc_family(0, 1), sg.LevelMap.DOUBLING)


class TestStoppingInvariant:
    def test_all_margin_profits_below_tolerance_at_termination(self):
        controls = AdaptControls(nested=True, prof_tol=1e-6)
        res = adapt(EXPSUM, 2, sg.cc_family(0, 1), sg.LevelMap.DOUBLING,
                    controls=controls)
        # terminated by tolerance, not by budget
        assert res.nb_pts_visited <= controls.max_pts
        assert all(c.profit <= controls.prof_tol for c in res.internal.margin.values())


class TestFailureRecovery:
    def test_failure_carries_resumable_state(self):
        from sparsegrids.adaptive import AdaptEvaluationError

        budget = {"left": 12}

        def flaky(y):
            if budget["left"] <= 0:
                raise RuntimeError("quota exhausted")
            budget["left"] -= 1
            return EXPSUM(y)

        with pytest.raises(AdaptEvaluationError) as err:
            adapt(flaky, 2, sg.cc_family(0, 1), sg.LevelMap.DOUBLING,
                  controls=AdaptControls(nested=True, max_pts=200))
        state = err.value.state
        assert state.accepted  # made some progress before failing
        # margin and accepted stayed consistent: resume and finish
        budget["left"] = 10_000
        resumed = adapt(flaky, 2, sg.cc_family(0, 1), sg.LevelMap.DOUBLING,
                        previous=state,
                        controls=AdaptControls(nested=True, max_pts=200))
        single = adapt(EXPSUM, 2, sg.cc_family(0, 1), sg.LevelMap.DOUBLING,
                       controls=AdaptControls(nested=True, max_pts=200))
        assert set(resumed.internal.accepted) == set(single.internal.accepted)
        assert resumed.intf == pytest.approx(single.intf, abs=1e-14)


    def test_non_finite_value_stops_with_resumable_state(self):
        from sparsegrids.adaptive import AdaptEvaluationError

        controls = AdaptControls(nested=True, max_pts=200)
        nan_at_right_edge = lambda y: float("nan") if y[0] > 0.9 else EXPSUM(y)
        with pytest.raises(AdaptEvaluationError) as err:
            adapt(nan_at_right_edge, 2, sg.cc_family(0, 1), sg.LevelMap.DOUBLING,
                  controls=controls)
        assert isinstance(err.value.cause, EvaluationError)
        assert err.value.cause.knot[0] > 0.9
        resumed = adapt(EXPSUM, 2, sg.cc_family(0, 1), sg.LevelMap.DOUBLING,
                        previous=err.value.state, controls=controls)
        single = adapt(EXPSUM, 2, sg.cc_family(0, 1), sg.LevelMap.DOUBLING, controls=controls)
        assert resumed.internal.history == single.internal.history
        assert np.array_equal(resumed.intf, single.intf)


class TestResumeMismatch:
    @pytest.mark.parametrize("dim, family, level_map", [
        (2, sg.cc_family(-5, 5), sg.LevelMap.DOUBLING),
        (2, sg.cc_family(0, 1), sg.LevelMap.LINEAR),
        (3, sg.cc_family(0, 1), sg.LevelMap.DOUBLING),
    ])
    def test_rejected_before_the_loop(self, dim, family, level_map):
        controls = AdaptControls(nested=True, max_pts=30)
        first = adapt(EXPSUM, 2, sg.cc_family(0, 1), sg.LevelMap.DOUBLING, controls=controls)
        history = list(first.internal.history)
        calls = []
        with pytest.raises(ConfigurationError, match="cannot resume"):
            adapt(lambda y: calls.append(y) or 1.0, dim, family, level_map,
                  previous=first, controls=AdaptControls(nested=True, max_pts=60))
        assert not calls and first.internal.history == history


class TestTabulatedFamilySaturation:
    def test_refinement_saturates_at_the_table_end(self):
        # the tabulated normal family has five levels; refinement must
        # stop proposing deeper candidates instead of failing
        f = lambda y: math.exp(float(np.sum(y)) + 0.5 * float(np.sum(np.asarray(y) ** 2)))
        res = adapt(f, 1, sg.gk_family(), sg.LevelMap.GK,
                    controls=AdaptControls(nested=True, max_pts=80, prof_tol=1e-30))
        assert max(i[0] for i in res.internal.accepted) <= 5
        assert all(i[0] <= 5 for i in res.internal.margin)
        assert res.nb_pts == 35  # the full table got used
