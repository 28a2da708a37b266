"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured numbers."""

import math
import time

import numpy as np
import pytest
from conftest import grown

import sparsegrids as sg
from sparsegrids.adaptive import AdaptControls, adapt
from sparsegrids.evalkit import Domain, evaluate_on_grid, gradient, hessian, interpolate, quadrature
from sparsegrids.knots import (
    DistributionSpec,
    cc_knots,
    gauss_knots,
    gk_knots,
    leja_knots,
    midpoint_knots,
    trap_knots,
    weighted_leja_knots,
)
from sparsegrids.levels import LevelMap, apply_level_map
from sparsegrids.midx import MultiIndexSet, box_set, combination_coefficients
from sparsegrids.pce import convert_to_modal, evaluate_pce
from sparsegrids.uqdemo import (
    DiffusionModel,
    ForwardConfig,
    build_solution_surrogate,
    forward_uq,
    least_squares_objective,
    make_synthetic_data,
    minimize,
    posterior_covariance,
)

EXACT_2D = (math.e - 1.0) ** 2


class _Criterion:
    """Prints one PASS/FAIL line per criterion, re-raising on failure."""

    def __init__(self, number, label):
        self.number = number
        self.label = label
        self.notes = []

    def note(self, text):
        self.notes.append(text)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        detail = f" ({'; '.join(self.notes)})" if self.notes else ""
        print(f"[{status}] criterion {self.number}: {self.label}{detail}")
        return False


def test_criterion_1_combination_coefficients():
    with _Criterion(1, "combination coefficients of the worked example") as c:
        s = MultiIndexSet([[1, 1], [1, 2], [2, 1], [3, 1]])
        combination_coefficients(s)  # warm-up
        t0 = time.perf_counter()
        coeffs = combination_coefficients(s)
        elapsed = time.perf_counter() - t0
        assert coeffs == {(1, 1): -1, (1, 2): 1, (2, 1): 0, (3, 1): 1}
        assert elapsed < 1e-3
        c.note(f"runtime {elapsed * 1e6:.0f} us")


def test_criterion_2_extended_reduced_counts():
    with _Criterion(2, "extended and reduced layout of the reference grid") as c:
        rule, lm = sg.preset("SM")
        grid = sg.build_sparse_grid_from_rule(2, 3, sg.cc_family(0, 1), lm, rule)
        reduced = sg.reduce_grid(grid)
        assert len(grid.tensors) == 7
        assert grid.extended_size == 67
        assert reduced.size == 29
        first = grid.tensors[0]
        assert first.idx == (1, 3)
        assert first.m == (1, 5)
        assert first.coeff == -1
        nodes = [fam(m).nodes for fam, m in zip(grid.families, first.m)]
        assert np.allclose(nodes[0], [0.5], atol=5e-5)
        assert np.allclose(nodes[1], [1, 0.8536, 0.5, 0.1464, 0], atol=5e-5)
        start, end = grid.tensor_offsets()[:2]
        assert np.allclose(grid.extended()[1][start:end],
                           [-0.0333, -0.2667, -0.4, -0.2667, -0.0333], atol=5e-5)
        c.note("7 tensors, 67 extended, 29 reduced")


def test_criterion_3_quadrature_targets():
    with _Criterion(3, "a-priori and adaptive quadrature of exp(y1+y2)") as c:
        t0 = time.perf_counter()
        rule, lm = sg.preset("SM")
        grid = sg.build_sparse_grid_from_rule(2, 5, sg.cc_family(0, 1), lm, rule)
        reduced = sg.reduce_grid(grid)
        q, _ = quadrature(lambda y: math.exp(float(np.sum(y))), reduced)
        apriori_err = abs(float(q[0]) - EXACT_2D)
        assert apriori_err <= 1e-6
        res = adapt(lambda y: math.exp(float(np.sum(y))), 2, sg.cc_family(0, 1),
                    LevelMap.DOUBLING, controls=AdaptControls(nested=True))
        adaptive_err = abs(float(res.intf[0]) - EXACT_2D)
        assert adaptive_err <= 5e-4
        assert res.nb_pts <= 300
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0
        c.note(f"w=5 err {apriori_err:.1e}; adaptive err {adaptive_err:.1e} "
               f"at {res.nb_pts} pts; {elapsed:.2f}s")


def _exact_moment(dist, k):
    p = dist.params
    if dist.kind == "uniform":
        a, b = p
        return (b ** (k + 1) - a ** (k + 1)) / ((k + 1) * (b - a))
    if dist.kind == "normal":
        mu, sig = p
        return sum(
            math.comb(k, 2 * j) * mu ** (k - 2 * j) * sig ** (2 * j)
            * math.prod(range(1, 2 * j, 2))
            for j in range(k // 2 + 1)
        )
    if dist.kind == "exponential":
        return math.factorial(k) / p[0] ** k
    if dist.kind == "gamma":
        alpha, beta = p
        return math.prod(alpha + j for j in range(1, k + 1)) / beta**k
    a, b, alpha, beta = p

    def std(j):
        out = 1.0
        for i in range(j):
            out *= (alpha + 1 + i) / (alpha + beta + 2 + i)
        return out

    return sum(math.comb(k, j) * a ** (k - j) * (b - a) ** j * std(j) for j in range(k + 1))


NESTED_SUITE = [
    ("leja+linear", lambda n: leja_knots(n, 0, 1), LevelMap.LINEAR),
    ("leja+two_step", lambda n: leja_knots(n, 0, 1), LevelMap.TWO_STEP),
    ("leja+doubling", lambda n: leja_knots(n, 0, 1), LevelMap.DOUBLING),
    ("leja-sym+two_step", lambda n: leja_knots(n, 0, 1, "symmetric"), LevelMap.TWO_STEP),
    ("leja-sym+doubling", lambda n: leja_knots(n, 0, 1, "symmetric"), LevelMap.DOUBLING),
    ("leja-pdisk+linear", lambda n: leja_knots(n, -1, 1, "p_disk"), LevelMap.LINEAR),
    ("leja-pdisk+two_step", lambda n: leja_knots(n, -1, 1, "p_disk"), LevelMap.TWO_STEP),
    ("leja-pdisk+doubling", lambda n: leja_knots(n, -1, 1, "p_disk"), LevelMap.DOUBLING),
    ("cc+doubling", lambda n: cc_knots(n, 0, 1), LevelMap.DOUBLING),
    ("trap+doubling", lambda n: trap_knots(n, 0, 1), LevelMap.DOUBLING),
    ("midpoint+tripling", lambda n: midpoint_knots(n, 0, 1), LevelMap.TRIPLING),
    ("wleja-normal+linear",
     lambda n: weighted_leja_knots(n, DistributionSpec.normal(0, 1)), LevelMap.LINEAR),
    ("wleja-normal+two_step",
     lambda n: weighted_leja_knots(n, DistributionSpec.normal(0, 1)), LevelMap.TWO_STEP),
    ("wleja-normal+doubling",
     lambda n: weighted_leja_knots(n, DistributionSpec.normal(0, 1)), LevelMap.DOUBLING),
    ("wleja-normal-sym+two_step",
     lambda n: weighted_leja_knots(n, DistributionSpec.normal(0, 1), "symmetric"),
     LevelMap.TWO_STEP),
    ("wleja-normal-sym+doubling",
     lambda n: weighted_leja_knots(n, DistributionSpec.normal(0, 1), "symmetric"),
     LevelMap.DOUBLING),
    ("wleja-exp+linear",
     lambda n: weighted_leja_knots(n, DistributionSpec.exponential(1.0)), LevelMap.LINEAR),
    ("wleja-exp+two_step",
     lambda n: weighted_leja_knots(n, DistributionSpec.exponential(1.0)), LevelMap.TWO_STEP),
    ("wleja-exp+doubling",
     lambda n: weighted_leja_knots(n, DistributionSpec.exponential(1.0)), LevelMap.DOUBLING),
    ("wleja-gamma+linear",
     lambda n: weighted_leja_knots(n, DistributionSpec.gamma(2.0, 1.0)), LevelMap.LINEAR),
    ("wleja-gamma+two_step",
     lambda n: weighted_leja_knots(n, DistributionSpec.gamma(2.0, 1.0)), LevelMap.TWO_STEP),
    ("wleja-gamma+doubling",
     lambda n: weighted_leja_knots(n, DistributionSpec.gamma(2.0, 1.0)), LevelMap.DOUBLING),
    ("wleja-beta+linear",
     lambda n: weighted_leja_knots(n, DistributionSpec.beta(0, 1, 0.5, 1.5)), LevelMap.LINEAR),
    ("wleja-beta+two_step",
     lambda n: weighted_leja_knots(n, DistributionSpec.beta(0, 1, 0.5, 1.5)), LevelMap.TWO_STEP),
    ("wleja-beta+doubling",
     lambda n: weighted_leja_knots(n, DistributionSpec.beta(0, 1, 0.5, 1.5)), LevelMap.DOUBLING),
    ("wleja-beta-sym+two_step",
     lambda n: weighted_leja_knots(n, DistributionSpec.beta(0, 1, 0.5, 0.5), "symmetric"),
     LevelMap.TWO_STEP),
    ("wleja-beta-sym+doubling",
     lambda n: weighted_leja_knots(n, DistributionSpec.beta(0, 1, 0.5, 0.5), "symmetric"),
     LevelMap.DOUBLING),
    ("gk+gk", gk_knots, LevelMap.GK),
]


def test_criterion_4_gauss_exactness_and_nestedness():
    with _Criterion(4, "Gauss exactness and nestedness suites") as c:
        t0 = time.perf_counter()
        dists = [
            DistributionSpec.uniform(-1.0, 2.0),
            DistributionSpec.normal(0.5, 2.0),
            DistributionSpec.exponential(1.3),
            DistributionSpec.gamma(2.0, 1.5),
            DistributionSpec.beta(-1.0, 1.0, 0.5, 1.5),
        ]
        for dist in dists:
            for k in range(1, 9):
                rule = gauss_knots(dist, k)
                for deg in range(2 * k):
                    got = float(np.sum(rule.weights * rule.nodes**deg))
                    want = _exact_moment(dist, deg)
                    err = abs(got - want) / max(1.0, abs(want))
                    assert err <= 1e-10, (dist.kind, k, deg)
        for name, maker, level_map in NESTED_SUITE:
            for level in range(1, 5):
                m0 = apply_level_map(level_map, level)
                m1 = apply_level_map(level_map, level + 1)
                if name.startswith("trap") and m0 < 2:
                    continue
                coarse, fine = maker(m0).nodes, maker(m1).nodes
                gap = np.abs(coarse[:, None] - fine[None, :]).min(axis=1).max()
                assert gap < 1e-12, (name, level)
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0
        c.note(f"5 distributions x k<=8; {len(NESTED_SUITE)} nested pairs; {elapsed:.2f}s")


def test_criterion_5_pce_equivalence():
    with _Criterion(5, "modal expansion equals the interpolant; variance identity") as c:
        rule, lm = sg.preset("SM")
        worst_eq, worst_var = 0.0, 0.0
        for seed in range(5):
            for dim in (2, 3):
                grid = sg.build_sparse_grid_from_rule(dim, 4, sg.cc_family(-1, 1), lm, rule)
                reduced = sg.reduce_grid(grid)
                domain = Domain(np.vstack([-np.ones(dim), np.ones(dim)]))
                rng = np.random.default_rng(seed)
                a = rng.uniform(0.05, 0.2, dim)
                b = rng.uniform(-0.5, 0.5, dim)
                cc = rng.uniform(-0.3, 0.3)
                f = lambda y: float(
                    math.exp(float(a @ np.asarray(y)))
                    + b @ (np.asarray(y) ** 2) + cc * y[0]
                )
                table = evaluate_on_grid(f, reduced)
                expansion = convert_to_modal(grid, reduced, table, domain, "legendre")
                pts = rng.uniform(-1, 1, (dim, 100))
                eq_err = float(np.max(np.abs(
                    evaluate_pce(expansion, pts) - interpolate(grid, reduced, table, pts)
                )))
                assert eq_err <= 1e-10
                c2 = expansion.coeffs[0] ** 2
                mask = np.array([deg != (0,) * dim for deg in expansion.lambda_set])
                var_pce = float(c2[mask].sum())
                q1 = float(quadrature(table, reduced)[0])
                q2 = float(quadrature(table.values**2, reduced)[0])
                var_err = abs(var_pce - (q2 - q1**2))
                assert var_err <= 1e-8
                worst_eq, worst_var = max(worst_eq, eq_err), max(worst_var, var_err)
        c.note(f"worst agreement {worst_eq:.1e}; worst variance gap {worst_var:.1e}")


def test_criterion_6_forward_uq_regression():
    with _Criterion(6, "forward analysis of the diffusion quantity of interest") as c:
        t0 = time.perf_counter()
        model = DiffusionModel(n_random=2, sigmas=(0.5, 0.1), mesh=200)
        report = forward_uq(model, ForwardConfig(w=4, samples=1000, seed=0))
        assert report.mean == pytest.approx(0.0935, abs=5e-4)
        assert report.variance == pytest.approx(0.0010, abs=2e-4)
        assert report.sobol_principal == pytest.approx([0.9709, 0.0244], abs=5e-3)
        assert report.sobol_total == pytest.approx([0.9756, 0.0291], abs=5e-3)
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0
        c.note(f"mean {report.mean:.4f}, var {report.variance:.4f}, {elapsed:.2f}s")


def test_criterion_7_inverse_uq_statistics():
    with _Criterion(7, "calibration statistics over 20 noise realizations") as c:
        t0 = time.perf_counter()
        y_star = np.array([0.9, -1.1])
        model = DiffusionModel(n_random=2, sigmas=(0.5, 0.5), mesh=81)
        problem0 = make_synthetic_data(model, y_star, 0.01, seed=0)
        surrogate = build_solution_surrogate(model, problem0, w=5)
        hits = 0
        for seed in range(20):
            problem = make_synthetic_data(model, y_star, 0.01, seed=seed)
            ls = least_squares_objective(problem, surrogate)
            y_map = minimize(ls, np.zeros(2), bounds=model.domain())
            sigma_est, cov = posterior_covariance(problem, surrogate, y_map)
            assert 0.005 <= sigma_est <= 0.02, seed
            eig = np.linalg.eigvalsh(cov)
            assert np.all(eig > 0), seed
            band = 3.0 * math.sqrt(float(np.max(np.diag(cov))))
            if float(np.max(np.abs(y_map - y_star))) <= band:
                hits += 1
        assert hits >= 19
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0
        c.note(f"{hits}/20 inside the band; {elapsed:.1f}s")


def test_criterion_8_recycling_equivalence():
    with _Criterion(8, "recycled chains equal cold builds and save evaluations") as c:
        rule, lm = sg.preset("SM")
        f = lambda y: math.exp(float(np.sum(y)))
        savings = {}
        for dim in (2, 4):
            fam = sg.cc_family(0, 1)
            warm = sg.build_sparse_grid_from_rule(dim, 0, fam, lm, rule)
            old = None
            cumulative_new = 0
            total_cold = 0
            for w in range(1, 7):
                # each level grown from the one before by add_one_index
                cold = sg.build_sparse_grid_from_rule(dim, w, fam, lm, rule)
                warm = grown(warm, cold.index_set)
                assert [t.idx for t in warm.tensors] == [t.idx for t in cold.tensors]
                for tw, tc in zip(warm.tensors, cold.tensors):
                    assert tw.coeff == tc.coeff and tw.m == tc.m
                for got, want in zip(warm.extended(), cold.extended()):
                    assert np.array_equal(got, want)
                reduced = sg.reduce_grid(warm)
                table = evaluate_on_grid(f, reduced, old=old)
                cold_table = evaluate_on_grid(f, reduced)
                assert np.array_equal(table.values, cold_table.values)
                cumulative_new += table.new_evaluations
                total_cold += reduced.size
                old = (table, warm, reduced)
            assert cumulative_new < total_cold
            savings[dim] = 1.0 - cumulative_new / total_cold
        c.note("saved " + ", ".join(f"{100 * v:.0f}% (N={k})" for k, v in savings.items()))


def test_criterion_9_telescoping_identity():
    with _Criterion(9, "combination sums telescope to the corner tensor") as c:
        rng = np.random.default_rng(42)
        cases = 0
        for dim in (1, 2, 3):
            for trial in range(8):
                upper = tuple(int(v) for v in rng.integers(1, 4, size=dim))
                box = box_set(upper)
                coeffs = combination_coefficients(box)
                table = {idx: rng.standard_normal() for idx in box}
                total = sum(cv * table[idx] for idx, cv in coeffs.items())
                assert abs(total - table[upper]) <= 1e-12
                cases += 1
        c.note(f"{cases} random tables up to box (3,3,3)")


def test_criterion_10_derivative_checks():
    with _Criterion(10, "surrogate gradients and Hessians") as c:
        rule, lm = sg.preset("SM")
        grid = sg.build_sparse_grid_from_rule(2, 5, sg.cc_family(0, 1), lm, rule)
        reduced = sg.reduce_grid(grid)
        domain = Domain(np.array([[0.0, 0.0], [1.0, 1.0]]))
        exp_table = evaluate_on_grid(lambda y: math.exp(float(np.sum(y))), reduced)
        center = np.array([[0.5], [0.5]])
        g = gradient(grid, reduced, exp_table, domain, center)
        grad_err = float(np.max(np.abs(g[:, 0] - math.e)))
        assert grad_err <= 1e-4
        quad_table = evaluate_on_grid(lambda y: y[0] ** 2 + 3.0 * y[0] * y[1], reduced)
        H = hessian(grid, reduced, quad_table, domain, np.array([0.5, 0.5]), h=1e-3)
        hess_err = float(np.max(np.abs(H - np.array([[2.0, 3.0], [3.0, 0.0]]))))
        assert hess_err <= 1e-6
        smooth = evaluate_on_grid(
            lambda y: math.sin(3 * y[0]) * math.cos(2 * y[1]), reduced)
        pt = np.array([[0.4], [0.6]])
        exact = np.array([
            3 * math.cos(1.2) * math.cos(1.2),
            -2 * math.sin(1.2) * math.sin(1.2),
        ])
        e1 = np.abs(gradient(grid, reduced, smooth, domain, pt, h=2e-2)[:, 0] - exact)
        e2 = np.abs(gradient(grid, reduced, smooth, domain, pt, h=1e-2)[:, 0] - exact)
        ratio = e1 / e2
        assert np.all(ratio > 3.0) and np.all(ratio < 5.5)
        c.note(f"grad err {grad_err:.1e}; hess err {hess_err:.1e}; "
               f"halving ratios {ratio[0]:.2f}, {ratio[1]:.2f}")
