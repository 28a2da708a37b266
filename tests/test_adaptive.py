import dataclasses
import functools
import itertools
import json
import math
import re

import numpy as np
import pytest
from conftest import one_tensor_grid

import sparsegrids as sg
from sparsegrids import adaptive
from sparsegrids._bary import barycentric_weights, basis_matrix
from sparsegrids.adaptive import (
    AdaptControls,
    AdaptEvaluationError,
    AdaptState,
    ConfigurationError,
    StateError,
    adapt,
    error_indicator_point,
    error_indicator_quad,
    restore_state,
    serialize_state,
    work_indicator,
)
from sparsegrids.evalkit import (EvaluationError, _active_keys, _tensor_sum, evaluate_on_grid,
                                 quadrature)
from sparsegrids.cli import cli_main
from sparsegrids.gridio import load_grid
from sparsegrids.grid import _tensor_product_columns
from sparsegrids.midx import is_downward_closed, reduced_margin
from sparsegrids.testfunctions import get_test_function

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

    def test_product_past_int64_is_exact(self):
        # an int64 product would wrap
        assert work_indicator((2,) * 100, False, sg.LevelMap.DOUBLING) == 3**100

    @pytest.mark.parametrize("candidate", [(0, 1), (2, -1)])
    def test_entries_below_one_rejected(self, candidate):
        with pytest.raises(ValueError, match="candidate entries must be >= 1"):
            work_indicator(candidate, True, sg.LevelMap.DOUBLING)

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


class TestNonIntegerCandidates:
    """A non-integer candidate raises instead of being truncated; integer
    entries of any type give the integer candidate's result."""

    def test_work_indicator(self):
        with pytest.raises(ValueError, match="non-integer"):
            work_indicator((2.7, 1.2), True, sg.LevelMap.DOUBLING)
        for cand in [(np.int64(2), np.int32(2)), np.array([2, 2]), (2.0, 2.0)]:
            assert work_indicator(cand, True, sg.LevelMap.DOUBLING) == 4

    @pytest.mark.parametrize("indicator", [error_indicator_quad, error_indicator_point])
    def test_error_indicators(self, indicator):
        state = make_state(EXPSUM)
        with pytest.raises(ValueError, match="non-integer"):
            indicator((2.7, 1.2), state)
        want = indicator((2, 1), state)
        for cand in [(np.int64(2), np.int32(1)), np.array([2, 1], dtype=np.uint8), (2.0, 1.0)]:
            assert indicator(cand, state) == want


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

    @pytest.mark.parametrize("controls, option, message", [
        (dict(profit="bogus"), "--prof=bogus", "unknown profit 'bogus'; choose from"),
        (dict(max_pts=0), "--max-pts=0", "max_pts must be >= 1"),
        (dict(prof_tol=-1e-3), "--prof-tol=-1e-3", "prof_tol must be >= 0"),
        (dict(var_buffer_size=-1), "--buffer=-1", "var_buffer_size must be >= 0"),
    ], ids=["unknown-profit", "max-pts-below-one", "negative-prof-tol", "negative-buffer"])
    def test_invalid_controls_rejected(self, controls, option, message, tmp_path, capsys):
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            AdaptControls(nested=True, **controls)
        out = tmp_path / "A.json"
        assert cli_main(["adapt", "--dim", "2", "--fn", "expsum", "--nested", option,
                         "-o", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()


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

    def test_a_failing_block_leaves_a_resumable_state(self):
        controls = AdaptControls(nested=True, max_pts=200)
        calls = []

        def blocks(ys):
            calls.append(ys.shape[1])
            out = np.array([EXPSUM(y) for y in ys.T])
            if len(calls) == 6:  # a non-finite column inside the sixth block
                assert ys.shape[1] > 2
                out[2] = float("nan")
            return out

        with pytest.raises(AdaptEvaluationError) as err:
            adapt(sg.vectorized(blocks), 2, sg.cc_family(0, 1), sg.LevelMap.DOUBLING,
                  controls=controls)
        state = err.value.state
        # every column before the bad one was committed, the bad one was not
        assert state.num_evals == sum(calls[:5]) + 2
        resumed = adapt(sg.vectorized(lambda ys: np.array([EXPSUM(y) for y in ys.T])), 2,
                        sg.cc_family(0, 1), sg.LevelMap.DOUBLING, previous=state,
                        controls=controls)
        single = adapt(EXPSUM, 2, sg.cc_family(0, 1), sg.LevelMap.DOUBLING, controls=controls)
        assert resumed.internal.history == single.internal.history
        assert np.array_equal(resumed.intf, single.intf)

    def test_runs_past_32_dimensions(self):
        f = lambda y: math.exp(float(np.sum(y)) / 33)
        res = adapt(f, 33, sg.cc_family(0, 1), sg.LevelMap.DOUBLING,
                    controls=AdaptControls(nested=True, max_pts=100))
        # the root's 33 forward neighbours enter the margin at once
        assert res.num_evals == res.nb_pts >= 1 + 2 * 33
        assert res.intf[0] == pytest.approx((33 * math.expm1(1 / 33)) ** 33, rel=1e-6)


class TestVectorizedAdapt:
    """A ``vectorized`` f is called once per candidate's new knots, and the
    run is bitwise that of the one-knot f."""

    RUNS = {
        "leja-nested": (3, sg.leja_family(-1.3, 1.7), sg.LevelMap.LINEAR, True),
        "cc-nested": (2, sg.cc_family(0, 1), sg.LevelMap.DOUBLING, True),
        "gauss": (2, sg.gauss_family(sg.DistributionSpec.uniform(0, 1)), sg.LevelMap.LINEAR,
                  False),
    }

    @pytest.mark.parametrize("run", list(RUNS))
    def test_blocks_give_the_one_knot_run_bitwise(self, run):
        dim, family, level_map, nested = self.RUNS[run]
        controls = AdaptControls(nested=nested, max_pts=300)
        sizes = []

        def blocks(ys):
            sizes.append(ys.shape[1])
            return np.array([EXPSUM(y) for y in ys.T])

        want = adapt(EXPSUM, dim, family, level_map, controls=controls)
        got = adapt(sg.vectorized(blocks), dim, family, level_map, controls=controls)
        assert got.internal.history == want.internal.history
        assert got.intf.tobytes() == want.intf.tobytes()
        assert got.nb_pts == want.nb_pts
        assert got.num_evals == want.num_evals == sum(sizes)


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


class TestNestedCheck:
    @pytest.mark.parametrize("family", [sg.cc_family(0, 1),
                                        sg.gauss_family(sg.DistributionSpec.uniform(0, 1))],
                             ids=["cc", "gauss-legendre"])
    def test_non_nested_levels_rejected(self, family):
        # linear map: one node at level 1, two at level 2, neither of them
        # the midpoint
        calls = []
        with pytest.raises(ConfigurationError, match="dimension 1 nodes of level 1 are not "
                                                     "all among those of level 2"):
            adapt(lambda y: calls.append(y) or 1.0, 2, family, sg.LevelMap.LINEAR,
                  controls=AdaptControls(nested=True, max_pts=50))
        assert len(calls) == 1  # the level-1 knot only

    def test_error_names_the_dimension_and_levels_before_f_runs_there(self):
        # doubling midpoint rules: 1 and 3 nodes share 0.5, but 3 and 5 share none
        families = (sg.cc_family(0, 1), sg.midpoint_family(0, 1))
        level_2 = sg.midpoint_family(0, 1)(3).nodes
        calls = []
        with pytest.raises(ConfigurationError, match="dimension 2 nodes of level 2 are not "
                                                     "all among those of level 3"):
            adapt(lambda y: calls.append(y) or float(np.sum(y)), 2, families,
                  sg.LevelMap.DOUBLING, controls=AdaptControls(nested=True, max_pts=200))
        assert calls and all(np.isin(y[1], level_2) for y in calls)

    @pytest.mark.parametrize("knots", ["cc", "gauss-legendre"])
    def test_cli_exits_1(self, tmp_path, capsys, knots):
        out = tmp_path / "a.json"
        assert cli_main(["adapt", "--dim", "2", "--fn", "expsum", "--knots", knots,
                         "--domain=0,1", "--lev2knots", "linear", "--nested", "--max-pts", "50",
                         "-o", str(out)]) == 1
        assert "error: controls say nested" in capsys.readouterr().err
        assert not out.exists()


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


class TestSelectBest:
    @staticmethod
    def _state_with_margin(profits):
        state = make_state(EXPSUM, dim=3)
        for idx, profit in profits.items():
            state.margin[idx] = adaptive._Candidate(error=profit, work=1, profit=profit)
        return state

    def test_equal_profits_pick_the_smallest_index(self):
        profits = {(2, 1, 3): 0.5, (1, 3, 1): 0.5, (3, 1, 1): 0.25, (1, 2, 2): 0.5,
                   (2, 2, 1): 0.5, (1, 1, 4): 0.125}
        state = self._state_with_margin(profits)
        assert adaptive._select_best(state) == ((1, 2, 2), state.margin[1, 2, 2])

    def test_equals_the_first_maximum_in_sorted_order(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            idxs = {tuple(int(v) for v in rng.integers(1, 5, size=3)) for _ in range(12)}
            # few distinct profits, so most draws hold ties
            profits = {idx: float(rng.integers(0, 3)) / 4 for idx in idxs}
            state = self._state_with_margin(profits)
            best = max(profits.values())
            want = next(idx for idx in sorted(profits) if profits[idx] == best)
            assert adaptive._select_best(state)[0] == want


def _new_nodes_by_tolerance(fine, coarse):
    """Nodes of ``fine`` not within 1e-10 of a node of ``coarse``."""
    return np.array([x for x in fine if not np.any(np.abs(coarse - x) <= 1e-10)])


def _direct_point_indicator(state, candidate):
    """error_indicator_point from the tensor detail: the signed per-tensor
    sum over the candidate's backward neighbours (product order, the
    candidate first) on a fresh rule table, at the candidate's test points
    (for nested families, its new knots)."""
    fams, lm = state.families, state.level_map
    rules, terms = {}, []
    moving = [n for n, v in enumerate(candidate) if v > 1]
    for j in itertools.product((0, 1), repeat=len(moving)):
        idx = list(candidate)
        for n, step in zip(moving, j):
            idx[n] -= step
        grid = one_tensor_grid(idx, fams, lm)
        terms.append(((-1) ** sum(j), adaptive._values_at(state, grid.extended()[0]),
                      _active_keys(rules, fams, grid.tensors[0].m)))
    per_dim = []
    for n, v in enumerate(candidate):
        nodes = fams[n](sg.apply_level_map(lm, v)).nodes
        if state.controls.nested and v > 1:
            nodes = _new_nodes_by_tolerance(nodes, fams[n](sg.apply_level_map(lm, v - 1)).nodes)
        per_dim.append(nodes)
    pts = _tensor_product_columns(per_dim)
    err = np.max(np.abs(_tensor_sum(rules, terms, pts)), axis=0)
    if state.controls.profit.startswith("weighted"):
        err = err * np.array([state.controls.pdf_weight(pts[:, q]) for q in range(pts.shape[1])])
    return float(np.max(err))


def _max_abs_value(state):
    return max(float(np.max(np.abs(v))) for _, v in state.evaluations.values())


class TestRuleTablePath:
    """Every run scores from the values on each candidate's box: a stored
    error equals its recomputation on a fresh store bitwise, and the
    tensor detail to round-off."""

    RUNS = {
        # several test points per candidate
        "cc-doubling": (3, sg.cc_family(-1, 2), sg.LevelMap.DOUBLING,
                        dict(nested=True, max_pts=200), 1),
        # two outputs, so the value matrices hold more than one row
        "leja-two-step": (3, sg.leja_family(0, 1), sg.LevelMap.TWO_STEP,
                          dict(nested=True, max_pts=150), 2),
        "gauss-weighted": (2, sg.gauss_family(sg.DistributionSpec.uniform(0, 1)),
                           sg.LevelMap.LINEAR,
                           dict(nested=False, profit="weighted_Linf_per_new_points",
                                pdf_weight=lambda y: 1.0 + y[0], max_pts=80), 1),
    }

    @pytest.mark.parametrize("run", RUNS)
    def test_indicator_equals_the_direct_sum_bitwise(self, run):
        dim, family, level_map, controls, outputs = self.RUNS[run]

        def f(y):
            s = float(y[0] + 0.6 * np.sum(y[1:]))
            return [math.exp(s), math.sin(3.0 * s)][:outputs]

        controls = AdaptControls(**controls)
        state = adapt(f, dim, family, level_map, controls=controls).internal
        assert len(state.margin) >= 4
        assert any(max(c) > 2 for c in state.margin)
        evals = state.num_evals
        fresh = restore_state(serialize_state(state), family, level_map, controls, f)
        for cand, rec in state.margin.items():
            got = error_indicator_point(cand, state)
            assert got == rec.error, cand
            assert got == error_indicator_point(cand, fresh), cand
            assert got == pytest.approx(_direct_point_indicator(state, cand), rel=0,
                                        abs=1e-13 * _max_abs_value(state)), cand
        assert state.num_evals == fresh.num_evals == evals
        assert all(v.flags.c_contiguous for v in state.box_values.values())


class TestTensorValueCache:
    """The scoring caches (the node table and the box values) change
    nothing but the gathers: a run whose caches are dropped before every
    indicator call is bitwise the same run."""

    RUNS = {
        "leja-point": (3, sg.leja_family(0, 1), sg.LevelMap.LINEAR,
                       dict(nested=True, max_pts=120)),
        "cc-quad": (3, sg.cc_family(0, 1), sg.LevelMap.DOUBLING,
                    dict(nested=True, profit="deltaint", max_pts=150)),
        "gauss-weighted": (2, sg.gauss_family(sg.DistributionSpec.uniform(0, 1)), sg.LevelMap.LINEAR,
                           dict(nested=False, profit="weighted_Linf_per_new_points",
                                pdf_weight=lambda y: 1.0 + y[0], max_pts=80)),
        # a different interval per dimension, so no two dimensions share new nodes
        "cc-mixed-point": (3, (sg.cc_family(0, 1), sg.cc_family(-2, 3), sg.cc_family(0.5, 4)),
                           sg.LevelMap.DOUBLING, dict(nested=True, max_pts=150)),
    }

    @staticmethod
    def _run(monkeypatch, dim, family, level_map, controls, cleared):
        calls, gathers = [], []

        def counted_gather(state, knots, gather=adaptive._values_at):
            gathers.append(knots.shape[1])
            return gather(state, knots)

        monkeypatch.setattr(adaptive, "_values_at", counted_gather)
        if cleared:
            for name in ("error_indicator_point", "error_indicator_quad"):
                def clearing(candidate, state, indicator=getattr(adaptive, name)):
                    state.levels.clear()
                    state.box_values.clear()
                    return indicator(candidate, state)
                monkeypatch.setattr(adaptive, name, clearing)

        def f(y):
            calls.append(np.array(y))
            return math.exp(float(y[0] + 0.6 * np.sum(y[1:])))

        res = adapt(f, dim, family, level_map, controls=AdaptControls(**controls))
        monkeypatch.undo()
        return res, np.array(calls), sum(gathers)  # knots keyed

    @pytest.mark.parametrize("run", RUNS)
    def test_cache_changes_nothing_but_the_gathers(self, run, monkeypatch):
        kept, kept_calls, kept_gathers = self._run(monkeypatch, *self.RUNS[run], cleared=False)
        cold, cold_calls, cold_gathers = self._run(monkeypatch, *self.RUNS[run], cleared=True)
        assert kept.internal.history == cold.internal.history
        assert np.array_equal(kept.intf, cold.intf)
        assert kept.num_evals == cold.num_evals
        assert np.array_equal(kept_calls, cold_calls)
        assert kept_gathers < cold_gathers

    def test_failing_function_leaves_no_entry_for_its_tensor(self):
        fam, lm = sg.cc_family(0, 1), sg.LevelMap.DOUBLING
        controls = AdaptControls(nested=True, max_pts=200)
        budget = {"left": 30}
        failed = []

        def flaky(y):
            if budget["left"] <= 0:
                failed.append(np.array(y))
                raise RuntimeError("quota exhausted")
            budget["left"] -= 1
            return EXPSUM(y)

        with pytest.raises(AdaptEvaluationError) as err:
            adapt(flaky, 2, fam, lm, controls=controls)
        state = err.value.state
        assert state.box_values
        calls = []
        fresh = restore_state(serialize_state(state), fam, lm, controls,
                              lambda y: calls.append(y) or EXPSUM(y))
        for idx, vals in state.box_values.items():
            levels = [adaptive._level(state, n, v) for n, v in enumerate(idx)]
            knots = _tensor_product_columns([e.rule.nodes[e.order] for e in levels])
            assert not np.all(knots == failed[-1][:, None], axis=0).any(), idx
            assert np.array_equal(vals, adaptive._values_at(state, knots)), idx
            # a fresh store refills it bitwise from the stored values
            assert np.array_equal(vals, adaptive._terms(fresh, idx)[1]), idx
        assert not calls
        budget["left"] = 10_000
        resumed = adapt(flaky, 2, fam, lm, previous=state, controls=controls)
        single = adapt(EXPSUM, 2, fam, lm, controls=controls)
        assert resumed.internal.history == single.internal.history
        assert np.array_equal(resumed.intf, single.intf)
        assert resumed.num_evals == single.num_evals


class TestOneRecord:
    def test_each_fact_is_kept_once(self):
        names = {f.name for f in dataclasses.fields(AdaptState)}
        assert not names & {"points", "values", "history", "num_evals"}
        res = adapt(EXPSUM, 2, sg.cc_family(0, 1), sg.LevelMap.DOUBLING,
                    controls=AdaptControls(nested=True, max_pts=50))
        state = res.internal
        assert state.history is state.accepted
        assert res.num_evals == state.num_evals == state.nb_pts_visited == len(state.evaluations)

    def test_changed_output_count_stops_with_resumable_state(self):
        fam, lm = sg.leja_family(0, 1), sg.LevelMap.LINEAR
        controls = AdaptControls(nested=True, max_pts=60)
        calls = []

        def f(y):
            calls.append(np.array(y))
            return EXPSUM(y) if len(calls) < 6 else [EXPSUM(y), 0.0]

        with pytest.raises(AdaptEvaluationError) as err:
            adapt(f, 2, fam, lm, controls=controls)
        assert isinstance(err.value.cause, EvaluationError)
        assert np.array_equal(err.value.cause.knot, calls[5])
        assert f"knot {calls[5]}: function returns 2 outputs, the stored values have 1" in str(
            err.value)
        state = err.value.state
        assert state.num_evals == 5
        resumed = adapt(EXPSUM, 2, fam, lm, previous=state, controls=controls)
        cold = adapt(EXPSUM, 2, fam, lm, controls=controls)
        assert resumed.internal.history == cold.internal.history
        assert np.array_equal(resumed.intf, cold.intf)
        assert resumed.num_evals == cold.num_evals


_ADAPT_3D = ["adapt", "--dim", "3", "--fn", "expsum", "--knots", "leja", "--domain=-1.3,1.7",
             "--lev2knots", "linear", "--nested"]
_LEJA_3D = (sg.leja_family(-1.3, 1.7), sg.LevelMap.LINEAR)


class TestResumeRescoring:
    def test_cli_resume_equals_library_resume(self, tmp_path, capsys):
        first_path, path = str(tmp_path / "A.json"), str(tmp_path / "P.json")
        assert cli_main(_ADAPT_3D + ["--max-pts", "300", "-o", first_path]) == 0
        assert cli_main(_ADAPT_3D + ["--max-pts", "450", "--prof", "deltaint_per_new_points",
                                     "--resume", first_path, "-o", path]) == 0
        printed = capsys.readouterr().out.split("integral: ")[-1].split()
        f = get_test_function("expsum")
        first = adapt(f, 3, *_LEJA_3D, controls=AdaptControls(nested=True, max_pts=300))
        lib = adapt(f, 3, *_LEJA_3D, previous=first,
                    controls=AdaptControls(nested=True, profit="deltaint_per_new_points",
                                           max_pts=450))
        assert load_grid(path).adapt_state["accepted"] == [list(i) for i in lib.internal.accepted]
        assert printed == [repr(float(v)) for v in lib.intf]

    # a nested record resumed as non-nested, then a non-nested one resumed as nested
    @pytest.mark.parametrize("via, nested", [("library", False), ("cli", False),
                                             ("library", True), ("cli", True)],
                             ids=["library", "cli", "library-to-nested", "cli-to-nested"])
    def test_flipped_nested_rescores_every_margin_entry(self, via, nested, tmp_path, capsys):
        # the first run stopped past 100 points, so the resume stops at once
        # and its margin is the first run's, rescored
        f = get_test_function("expsum")
        controls = AdaptControls(nested=nested, max_pts=100)
        if via == "library":
            first = adapt(f, 3, *_LEJA_3D, controls=AdaptControls(nested=not nested, max_pts=100))
            record = serialize_state(adapt(f, 3, *_LEJA_3D, previous=first,
                                           controls=controls).internal)
        else:
            first, path = str(tmp_path / "A.json"), str(tmp_path / "B.json")
            args = {True: _ADAPT_3D, False: _ADAPT_3D[:-1]}
            assert cli_main(args[not nested] + ["--max-pts", "100", "-o", first]) == 0
            assert cli_main(args[nested] + ["--max-pts", "100", "--resume", first,
                                            "-o", path]) == 0
            record = load_grid(path).adapt_state
        state = restore_state(record, *_LEJA_3D, controls, f)  # a fresh rule table
        assert state.controls.nested is nested and len(state.margin) >= 6
        for cand, rec in state.margin.items():
            assert adaptive._profit_of(state, cand) == rec, cand

    def test_restore_keeps_the_records_nested_and_profit(self):
        res = adapt(EXPSUM, 2, sg.cc_family(0, 1), sg.LevelMap.DOUBLING,
                    controls=AdaptControls(nested=True, profit="deltaint", max_pts=40))
        pdf = lambda y: 1.0
        state = restore_state(serialize_state(res.internal), sg.cc_family(0, 1),
                              sg.LevelMap.DOUBLING,
                              AdaptControls(nested=False, profit="weighted_Linf", pdf_weight=pdf,
                                            max_pts=77), EXPSUM)
        assert (state.controls.nested, state.controls.profit) == (True, "deltaint")
        assert (state.controls.max_pts, state.controls.pdf_weight) == (77, pdf)

    def test_failed_rescore_keeps_the_old_scores_and_controls(self):
        fam, lm = sg.cc_family(0, 1), sg.LevelMap.DOUBLING
        first = adapt(EXPSUM, 2, fam, lm, controls=AdaptControls(nested=True, max_pts=40))
        state = first.internal
        controls, margin = state.controls, dict(state.margin)

        def no_weight(y):
            raise RuntimeError("no weight here")

        with pytest.raises(RuntimeError, match="no weight here"):
            adapt(EXPSUM, 2, fam, lm, previous=first,
                  controls=AdaptControls(nested=True, profit="weighted_Linf", pdf_weight=no_weight,
                                         max_pts=80))
        assert state.controls is controls and state.margin == margin
        resumed = adapt(EXPSUM, 2, fam, lm, previous=first,
                        controls=AdaptControls(nested=True, max_pts=80))
        single = adapt(EXPSUM, 2, fam, lm, controls=AdaptControls(nested=True, max_pts=80))
        assert resumed.internal.history == single.internal.history
        assert np.array_equal(resumed.intf, single.intf)


_ADAPT_4D = ["adapt", "--dim", "4", "--fn", "expsum", "--knots", "leja", "--domain=0,1",
             "--lev2knots", "linear", "--nested"]
_LEJA_4D = (sg.leja_family(0, 1), sg.LevelMap.LINEAR)


class TestResumeWindow:
    """The window: the dimensions ``var_buffer_size`` lets the margin grow
    into.  A resume under a wider window than the record's grows the margin
    around every accepted index, as the loop does when its window slides."""

    @pytest.mark.parametrize("first_pts", [1, 2, 5])
    def test_wider_window_ends_where_a_cold_run_ends(self, first_pts):
        f = get_test_function("expsum")
        first = adapt(f, 4, *_LEJA_4D, controls=AdaptControls(nested=True, var_buffer_size=1,
                                                              max_pts=first_pts))
        assert first.internal.visible_dims() < 4
        controls = AdaptControls(nested=True, max_pts=200)
        resumed = adapt(f, 4, *_LEJA_4D, previous=first, controls=controls)
        cold = adapt(f, 4, *_LEJA_4D, controls=controls)
        assert sorted(resumed.internal.accepted) == sorted(cold.internal.accepted)
        assert np.array_equal(resumed.intf, cold.intf)
        assert resumed.num_evals == cold.num_evals

    def test_cli_resume_reads_the_records_window(self, tmp_path, capsys):
        first, path = str(tmp_path / "W.json"), str(tmp_path / "W2.json")
        assert cli_main(_ADAPT_4D + ["--buffer", "1", "--max-pts", "5", "-o", first]) == 0
        record = load_grid(first).adapt_state
        f = get_test_function("expsum")
        state = restore_state(record, *_LEJA_4D, AdaptControls(nested=True), f)
        assert state.controls.var_buffer_size == 1 and state.visible_dims() == 3
        assert cli_main(_ADAPT_4D + ["--max-pts", "200", "--resume", first, "-o", path]) == 0
        printed = capsys.readouterr().out.split("integral: ")[-1].split()
        cold = adapt(f, 4, *_LEJA_4D, controls=AdaptControls(nested=True, max_pts=200))
        assert printed == [repr(float(v)) for v in cold.intf]

    def test_failed_growth_keeps_the_old_margin_and_controls(self):
        first = adapt(EXPSUM, 4, *_LEJA_4D, controls=AdaptControls(nested=True,
                                                                   var_buffer_size=1, max_pts=5))
        state = first.internal
        controls, margin, evals = state.controls, dict(state.margin), state.num_evals

        def fails(y):
            raise RuntimeError("no more evaluations")

        with pytest.raises(AdaptEvaluationError) as err:
            adapt(fails, 4, *_LEJA_4D, previous=first,
                  controls=AdaptControls(nested=True, max_pts=200))
        assert err.value.state is state
        assert state.controls is controls and state.margin == margin
        assert state.num_evals == evals
        controls = AdaptControls(nested=True, max_pts=200)
        resumed = adapt(EXPSUM, 4, *_LEJA_4D, previous=state, controls=controls)
        cold = adapt(EXPSUM, 4, *_LEJA_4D, controls=controls)
        assert np.array_equal(resumed.intf, cold.intf)

    def test_narrower_window_keeps_the_margin(self):
        # the first run stopped past its budget, so the resume stops at once
        first = adapt(EXPSUM, 4, *_LEJA_4D, controls=AdaptControls(nested=True, max_pts=1))
        margin = dict(first.internal.margin)
        assert any(idx[3] > 1 for idx in margin)
        resumed = adapt(EXPSUM, 4, *_LEJA_4D, previous=first,
                        controls=AdaptControls(nested=True, var_buffer_size=1, max_pts=1))
        assert resumed.internal.visible_dims() == 1
        assert resumed.internal.margin == margin


def _with(s, **fields):
    return {**s, **fields}


def _edit(rows, k, **fields):
    return rows[:k] + [{**rows[k], **fields}] + rows[k + 1 :]


def _without(s, key):
    return {k: v for k, v in s.items() if k != key}


class TestRestoreValidation:
    """A grid file's adapt_state is outside input: every inconsistency
    raises a StateError naming the field, and the CLI exits 1."""

    ADAPT = ["adapt", "--dim", "2", "--fn", "expsum", "--knots", "leja", "--domain=-1,1",
             "--lev2knots", "linear", "--nested"]
    CASES = {
        # id: (field named, corrupted state)
        "not-an-object": ("adapt_state", lambda s: [s]),
        "no-margin": ("margin", lambda s: _without(s, "margin")),
        "no-margin-profit": ("margin[0].profit", lambda s: _with(
            s, margin=[_without(s["margin"][0], "profit")] + s["margin"][1:])),
        "no-controls-profit": ("controls.profit", lambda s: _with(
            s, controls=_without(s["controls"], "profit"))),
        "unknown-profit": ("controls.profit", lambda s: _with(
            s, controls={**s["controls"], "profit": "biggest"})),
        "weighted-profit-without-pdf-weight": ("controls.profit", lambda s: _with(
            s, controls={**s["controls"], "profit": "weighted_Linf"})),
        "non-integer-var-buffer-size": ("controls.var_buffer_size", lambda s: _with(
            s, controls={**s["controls"], "var_buffer_size": 0.5})),
        "negative-var-buffer-size": ("controls.var_buffer_size", lambda s: _with(
            s, controls={**s["controls"], "var_buffer_size": -1})),
        "values-short": ("values", lambda s: _with(s, values=[r[:-1] for r in s["values"]])),
        "non-finite-value": ("values", lambda s: _with(
            s, values=[[math.inf] + r[1:] for r in s["values"]])),
        "non-numeric-point": ("points", lambda s: _with(
            s, points=[["a"] + s["points"][0][1:]] + s["points"][1:])),
        "ragged-points": ("points", lambda s: _with(
            s, points=[s["points"][0][:-1]] + s["points"][1:])),
        "non-finite-point": ("points", lambda s: _with(
            s, points=[[math.nan] + s["points"][0][1:]] + s["points"][1:])),
        "points-of-another-dim": ("points", lambda s: _with(
            s, points=s["points"] + s["points"][:1])),
        "two-points-one-key": ("points", lambda s: _with(
            s, points=[[r[0], r[0]] + r[2:] for r in s["points"]])),
        "empty-accepted": ("accepted", lambda s: _with(s, accepted=[])),
        "index-of-wrong-length": ("accepted[1]", lambda s: _with(
            s, accepted=[s["accepted"][0], s["accepted"][1] + [1]] + s["accepted"][2:])),
        "not-downward-closed": ("accepted", lambda s: _with(s, accepted=[[1, 1], [1, 3]])),
        "repeated-index": ("accepted", lambda s: _with(
            s, accepted=s["accepted"] + s["accepted"][-1:])),
        "margin-index-accepted": ("margin[0].idx", lambda s: _with(
            s, margin=_edit(s["margin"], 0, idx=s["accepted"][1]))),
        "margin-profit-not-a-number": ("margin[0]", lambda s: _with(
            s, margin=_edit(s["margin"], 0, profit="high"))),
    }

    @pytest.fixture
    def saved_run(self, tmp_path, capsys):
        path = tmp_path / "A.json"
        assert cli_main(self.ADAPT + ["--max-pts", "40", "-o", str(path)]) == 0
        capsys.readouterr()
        return path, json.loads(path.read_text())

    def test_the_saved_run_resumes(self, saved_run):
        path, doc = saved_run
        state = restore_state(doc["adapt_state"], sg.leja_family(-1, 1), sg.LevelMap.LINEAR,
                              AdaptControls(nested=True, max_pts=40), EXPSUM)
        # derived from 'accepted': the saved run refines dimension 2
        assert state.active_dims == 2
        assert len(state.accepted) >= 2 and len(state.margin) >= 1
        assert {**serialize_state(state), "fn": "expsum"} == doc["adapt_state"]

    @pytest.mark.parametrize("case", CASES)
    def test_inconsistent_state_is_named(self, saved_run, case, tmp_path, capsys):
        path, doc = saved_run
        name, corrupt = self.CASES[case]
        doc["adapt_state"] = corrupt(doc["adapt_state"])
        with pytest.raises(StateError, match=re.escape(f"'{name}'")):
            restore_state(doc["adapt_state"], (sg.leja_family(-1, 1),) * 2, sg.LevelMap.LINEAR,
                          AdaptControls(nested=True), EXPSUM)
        path.write_text(json.dumps(doc))
        out = str(tmp_path / "B.json")
        assert cli_main(self.ADAPT + ["--max-pts", "60", "--resume", str(path), "-o", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'{name}'" in err


def _new_knots(candidate, families, level_map, nested=True):
    """The knots of ``candidate``'s tensor grid that no lower index holds,
    or all of them unless ``nested``."""
    per_dim = []
    for fam, v in zip(families, candidate):
        nodes = fam(sg.apply_level_map(level_map, v)).nodes
        if nested and v > 1:
            nodes = _new_nodes_by_tolerance(nodes, fam(sg.apply_level_map(level_map, v - 1)).nodes)
        per_dim.append(nodes)
    return _tensor_product_columns(per_dim)


def _on(indices, f, families, level_map):
    grid = sg.build_sparse_grid(sg.MultiIndexSet(sorted(indices)), families, level_map)
    reduced = sg.reduce_grid(grid)
    return grid, reduced, evaluate_on_grid(f, reduced)


class TestSurplusOracle:
    """The indicators against references outside the scoring code: the
    change of ``interpolate`` at the candidate's testing points (its new
    knots if nested, its whole tensor grid otherwise), and of
    ``quadrature``, when the candidate joins the accepted set."""

    RUNS = {
        "leja-linear": (3, sg.leja_family(0, 1), sg.LevelMap.LINEAR,
                        dict(max_pts=60), 1),
        "leja-two-step-two-outputs": (3, sg.leja_family(-1, 1), sg.LevelMap.TWO_STEP,
                                      dict(max_pts=80), 2),
        "cc-doubling": (3, sg.cc_family(-1, 2), sg.LevelMap.DOUBLING, dict(max_pts=120), 1),
        # levels up to 3; levels 4 and 5 are in test_ill_conditioned_levels
        "nested-normal-table": (5, sg.gk_family(), sg.LevelMap.GK, dict(max_pts=12), 1),
        "weighted-leja-normal": (2, sg.weighted_leja_family(sg.DistributionSpec.normal(0, 1)),
                                 sg.LevelMap.LINEAR, dict(max_pts=60), 1),
        # rules that do not integrate the level below's interpolant exactly
        "trap-doubling-deltaint": (2, sg.trap_family(0, 1), sg.LevelMap.DOUBLING,
                                   dict(profit="deltaint", max_pts=80), 1),
        "midpoint-tripling-deltaint": (3, sg.midpoint_family(0, 1), sg.LevelMap.TRIPLING,
                                       dict(profit="deltaint_per_new_points", max_pts=40), 1),
        "weighted": (2, sg.cc_family(0, 1), sg.LevelMap.DOUBLING,
                     dict(profit="weighted_Linf_per_new_points", pdf_weight=lambda y: 1.0 + y[0],
                          max_pts=60), 1),
        # the four-node Leja rule integrates like Simpson's, so every level-4 change is
        # round-off; prof_tol 0 refines past it
        "deltaint": (3, sg.leja_family(0, 1), sg.LevelMap.LINEAR,
                     dict(profit="deltaint", prof_tol=0.0, max_pts=60), 1),
        # non-nested runs
        "gauss-legendre-two-outputs": (3, sg.gauss_family(sg.DistributionSpec.uniform(0, 1)),
                                       sg.LevelMap.LINEAR, dict(nested=False, max_pts=80), 2),
        "gauss-hermite-deltaint": (2, sg.gauss_family(sg.DistributionSpec.normal(0.3, 2)),
                                   sg.LevelMap.LINEAR,
                                   dict(nested=False, profit="deltaint", max_pts=60), 1),
        # Clenshaw-Curtis rules under the linear map share only some nodes
        "cc-linear": (3, sg.cc_family(-1, 2), sg.LevelMap.LINEAR,
                      dict(nested=False, max_pts=80), 1),
        "midpoint-doubling-deltaint": (3, sg.midpoint_family(0, 1), sg.LevelMap.DOUBLING,
                                       dict(nested=False, profit="deltaint_per_new_points",
                                            max_pts=60), 1),
        "gauss-legendre-weighted": (2, sg.gauss_family(sg.DistributionSpec.uniform(0, 1)),
                                    sg.LevelMap.LINEAR,
                                    dict(nested=False, profit="weighted_Linf_per_new_points",
                                         pdf_weight=lambda y: 1.0 + y[0], max_pts=60), 1),
    }

    @pytest.mark.parametrize("run", RUNS)
    def test_indicators_equal_the_grid_differences(self, run):
        dim, family, level_map, controls, outputs = self.RUNS[run]
        families = (family,) * dim

        def f(y):
            s = float(0.8 * y[0] + 0.5 * np.sum(y[1:]))
            return [math.exp(s), math.cos(2.0 * s)][:outputs]

        controls = AdaptControls(**{"nested": True} | controls)
        state = adapt(f, dim, families, level_map, controls=controls).internal
        assert len(state.margin) >= 4
        assert {v.shape[0] for v in state.box_values.values()} == {outputs}
        bound = 1e-13 * _max_abs_value(state)
        small = _on(state.accepted, f, families, level_map)
        for cand in state.margin:
            big = _on(state.accepted + [cand], f, families, level_map)
            pts = _new_knots(cand, families, level_map, controls.nested)
            change = np.abs(sg.interpolate(*big, pts) - sg.interpolate(*small, pts)).max(axis=0)
            if controls.profit.startswith("weighted"):
                change = change * np.array([controls.pdf_weight(y) for y in pts.T])
            assert error_indicator_point(cand, state) == pytest.approx(
                float(change.max()), rel=0, abs=bound), cand
            quad = np.abs(quadrature(big[2], big[1]) - quadrature(small[2], small[1])).max()
            assert error_indicator_quad(cand, state) == pytest.approx(float(quad), rel=0,
                                                                      abs=bound), cand

    ILL_CONDITIONED = {
        # levels 4 and 5 put nodes beyond the hull of the level below
        "nested-normal-table": (sg.gk_family(), sg.LevelMap.GK),
        # 27, then 81 equispaced midpoints
        "midpoint-tripling": (sg.midpoint_family(0, 1), sg.LevelMap.TRIPLING),
    }

    @pytest.mark.parametrize("run", ILL_CONDITIONED)
    def test_ill_conditioned_levels(self, run):
        """Where the level below's Lagrange basis is large at the new nodes,
        a surplus is a sum of large terms that cancel, however it is
        computed.  Up to level 5, the point indicator agrees with the
        reference and with the tensor detail to 1e-14 times the sum of
        those terms' magnitudes; the quadrature indicator stays within
        1e-13 x max|f|."""
        family, level_map = self.ILL_CONDITIONED[run]
        families = (family,)
        m = functools.partial(sg.apply_level_map, level_map)

        def f(y):
            return [math.exp(0.8 * y[0])]

        state = adapt(f, 1, families, level_map,
                      controls=AdaptControls(nested=True, profit="Linf", max_pts=m(4) + 1)).internal
        assert state.accepted == [(1,), (2,), (3,), (4,)] and list(state.margin) == [(5,)]
        bound_quad = 1e-13 * _max_abs_value(state)
        for v in range(2, 6):
            low = family(m(v - 1)).nodes
            new = _new_nodes_by_tolerance(family(m(v)).nodes, low)
            f_low, f_new = (np.abs([f([x])[0] for x in nodes]) for nodes in (low, new))
            terms = np.abs(basis_matrix(low, barycentric_weights(low), new)) @ f_low + f_new
            bound = 1e-14 * float(terms.max())
            small = _on([(u,) for u in range(1, v)], f, families, level_map)
            big = _on([(u,) for u in range(1, v + 1)], f, families, level_map)
            change = float(np.abs(sg.interpolate(*big, new[None, :])
                                  - sg.interpolate(*small, new[None, :])).max())
            got = error_indicator_point((v,), state)
            assert got == pytest.approx(change, rel=0, abs=bound), v
            assert got == pytest.approx(_direct_point_indicator(state, (v,)), rel=0, abs=bound), v
            quad = float(np.abs(quadrature(big[2], big[1]) - quadrature(small[2], small[1])).max())
            assert error_indicator_quad((v,), state) == pytest.approx(quad, rel=0,
                                                                      abs=bound_quad), v


_ANISO = ["adapt", "--dim", "3", "--fn", "expsum", "--knots", "leja",
          "--domain=0,1x-0.5,1.5x-1,0.25", "--lev2knots", "linear", "--nested"]
_ANISO_DOMAIN = ((0, 1), (-0.5, 1.5), (-1, 0.25))


def _gauss_legendre(a, b):
    return sg.gauss_family(sg.DistributionSpec.uniform(a, b))


class TestPinnedHistory:
    """Runs without exact ties between profits, pinned to the histories
    and integrals the tensor-detail scoring gave."""

    RUNS = {
        "leja-linear": (sg.leja_family, sg.LevelMap.LINEAR, "Linf_per_new_points", 200,
                        "111 121 112 211 122 221 212 222 131 132 231 113 123 232 311 213 321 "
                        "223 312 322 141 133 142 241 331 233 242 332 114 313 124 151 323 214 "
                        "411 152 224 251 421 412 252 422 143 341 243 134 333 342 115 125 234 "
                        "431 215 225 153 432 511 314 521 324 413 351 512 253 423 522 352 161 "
                        "135 144 162 343 261 235 244 262 441 531 334 315 433 442 325 532 513 "
                        "154 523 353 171 414 116 145 254 424 172 126 451 163 271 216 245 452 "
                        "361 272 226 335 263 541 344 362 611 443 533 542 621 612 155 622 434 "
                        "136 415 255 425 514 173 524 236 551 354 117 371 127 453 181 273 552 "
                        "316 345 631 164 372 217 326 363 182 227 281 632 543 264 461 282 613 "
                        "435 623 711 444 534 462 146 721 515 712 525 137 722 355 246 336 237 "
                        "553 165 174 373 641", 2.440104718423872),
        "cc-doubling": (sg.cc_family, sg.LevelMap.DOUBLING, "Linf", 300,
                        "111 121 112 122 211 221 212 222 131 132 231 232 113 123 213 223 311 "
                        "321 312 322 133 141 142 233 241 331 242 332 313 323 114 124 214 224 "
                        "411 421 412", 2.440105071986236),
        # non-nested
        "gauss-legendre-linear": (_gauss_legendre, sg.LevelMap.LINEAR, "Linf_per_new_points", 300,
                                  "111 121 112 211 122 221 131 212 113 222 311 132 231 123 141 "
                                  "321 213 312 232 114 142 223 133 241 322 411 331 151 124 421 "
                                  "313 214 242 233 412", 2.4401050624925813),
        "gauss-legendre-deltaint": (_gauss_legendre, sg.LevelMap.LINEAR, "deltaint", 300,
                                    "111 121 112 211 122 221 131 212 113 222 132 311 231 123 321 "
                                    "141 213 312 232 223 322 133 142 114 241 331 411 124 151 313 "
                                    "233 242 421 214 332 412", 2.4401050624925813),
    }

    @pytest.mark.parametrize("run", RUNS)
    def test_history_and_integral(self, run):
        family, level_map, profit, max_pts, history, intf = self.RUNS[run]
        res = adapt(get_test_function("expsum"), 3, tuple(family(a, b) for a, b in _ANISO_DOMAIN),
                    level_map, controls=AdaptControls(nested=family is not _gauss_legendre,
                                                      profit=profit, max_pts=max_pts))
        assert " ".join("".join(map(str, i)) for i in res.internal.history) == history
        assert float(res.intf[0]) == intf


class TestSurplusResume:
    """The box store is a cache: a resumed run refills it from the stored
    values without calling f and scores bitwise like an uninterrupted
    run."""

    FAMILIES = tuple(sg.leja_family(a, b) for a, b in _ANISO_DOMAIN)

    def test_restored_margin_rescores_bitwise_without_calls(self, tmp_path):
        path = str(tmp_path / "A.json")
        assert cli_main(_ANISO + ["--max-pts", "150", "-o", path]) == 0
        record = load_grid(path).adapt_state
        calls = []
        f = get_test_function("expsum")
        state = restore_state(record, self.FAMILIES, sg.LevelMap.LINEAR,
                              AdaptControls(nested=True), lambda y: calls.append(y) or f(y))
        assert len(state.margin) >= 20
        for cand, rec in state.margin.items():
            assert adaptive._profit_of(state, cand) == rec, cand
        assert not calls
        # the refill stores what the scores need: the margin and the indices below it
        assert set(state.margin) <= set(state.box_values) <= set(state.accepted) | set(
            state.margin)

    def test_cli_resume_scores_like_an_uninterrupted_run(self, tmp_path):
        first, path = str(tmp_path / "A.json"), str(tmp_path / "B.json")
        assert cli_main(_ANISO + ["--max-pts", "100", "-o", first]) == 0
        assert cli_main(_ANISO + ["--max-pts", "250", "--resume", first, "-o", path]) == 0
        record = load_grid(path).adapt_state
        single = adapt(get_test_function("expsum"), 3, self.FAMILIES, sg.LevelMap.LINEAR,
                       controls=AdaptControls(nested=True, max_pts=250)).internal
        want = serialize_state(single)
        assert record["accepted"] == want["accepted"]
        assert record["margin"] == want["margin"]

    def test_resume_after_an_evaluation_error_scores_like_an_uninterrupted_run(self):
        f = get_test_function("expsum")
        budget = {"left": 90}

        def flaky(y):
            if budget["left"] <= 0:
                raise RuntimeError("quota exhausted")
            budget["left"] -= 1
            return f(y)

        controls = AdaptControls(nested=True, max_pts=250)
        with pytest.raises(AdaptEvaluationError) as err:
            adapt(flaky, 3, self.FAMILIES, sg.LevelMap.LINEAR, controls=controls)
        state = restore_state(serialize_state(err.value.state), self.FAMILIES,
                              sg.LevelMap.LINEAR, controls, f)
        resumed = adapt(f, 3, self.FAMILIES, sg.LevelMap.LINEAR, previous=state,
                        controls=controls).internal
        single = adapt(f, 3, self.FAMILIES, sg.LevelMap.LINEAR, controls=controls).internal
        assert resumed.history == single.history
        assert resumed.margin == single.margin


class TestResumeUnderAnotherFunction:
    ADAPT = ["adapt", "--dim", "3", "--knots", "leja", "--domain=0,1", "--lev2knots", "linear",
             "--nested"]

    def test_cli_refuses_a_resume_under_another_fn(self, tmp_path, capsys):
        first, out = str(tmp_path / "E.json"), tmp_path / "F.json"
        assert cli_main(self.ADAPT + ["--fn", "expsum", "--max-pts", "100", "-o", first]) == 0
        assert load_grid(first).adapt_state["fn"] == "expsum"
        capsys.readouterr()
        assert cli_main(self.ADAPT + ["--fn", "runge", "--max-pts", "200", "--resume", first,
                                      "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "expsum" in err and "runge" in err
        assert not out.exists()
        assert cli_main(self.ADAPT + ["--fn", "expsum", "--max-pts", "200", "--resume", first,
                                      "-o", str(out)]) == 0

    def test_a_record_without_a_name_resumes(self, tmp_path):
        # records written before the name was kept cannot be checked
        first, out = tmp_path / "E.json", str(tmp_path / "F.json")
        assert cli_main(self.ADAPT + ["--fn", "expsum", "--max-pts", "30", "-o", str(first)]) == 0
        doc = json.loads(first.read_text())
        del doc["adapt_state"]["fn"]
        first.write_text(json.dumps(doc))
        assert cli_main(self.ADAPT + ["--fn", "runge", "--max-pts", "60", "--resume", str(first),
                                      "-o", out]) == 0
        assert load_grid(out).adapt_state["fn"] == "runge"
