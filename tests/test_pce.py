import math

import numpy as np
import pytest

import sparsegrids as sg
from sparsegrids import pce
from sparsegrids.adaptive import AdaptControls, adapt
from sparsegrids.evalkit import Domain, _compile, evaluate_on_grid, interpolate, quadrature
from sparsegrids.grid import _extended_positions, _group_columns
from sparsegrids.pce import (
    DegenerateInputError,
    convert_to_modal,
    eval_orthonormal,
    evaluate_pce,
    sobol_indices,
)


def unit_domain(dim):
    return Domain(np.vstack([-np.ones(dim), np.ones(dim)]))


@pytest.fixture(scope="module")
def cc_grid_w4():
    rule, lm = sg.preset("SM")
    grid = sg.build_sparse_grid_from_rule(2, 4, sg.cc_family(-1, 1), lm, rule)
    return grid, sg.reduce_grid(grid)


FAMILY_SETUPS = [
    ("legendre", (-1.0, 1.0), sg.DistributionSpec.uniform(-1, 1)),
    ("hermite", (0.0, 1.0), sg.DistributionSpec.normal(0, 1)),
    ("laguerre", (1.5,), sg.DistributionSpec.exponential(1.5)),
    ("generalized_laguerre", (2.0, 1.5), sg.DistributionSpec.gamma(2.0, 1.5)),
    ("jacobi_prob", (-1.0, 1.0, 0.5, 1.5), sg.DistributionSpec.beta(-1, 1, 0.5, 1.5)),
    ("chebyshev", (-1.0, 1.0), sg.DistributionSpec.beta(-1, 1, -0.5, -0.5)),
]


class TestOrthonormalPolynomials:
    def test_constant_is_one(self):
        out = eval_orthonormal("legendre", [0], [[0.3]], [(-1, 1)])
        assert out == pytest.approx([1.0])

    def test_legendre_degree_one(self):
        out = eval_orthonormal("legendre", [1], [[1.0]], [(-1, 1)])
        assert out == pytest.approx([math.sqrt(3.0)])

    def test_hermite_degree_two_at_zero(self):
        out = eval_orthonormal("hermite", [2], [[0.0]], [(0.0, 1.0)])
        assert out == pytest.approx([-1.0 / math.sqrt(2.0)])

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            eval_orthonormal("fourier", [1], [[0.0]], [(-1, 1)])

    @pytest.mark.parametrize("family,params,dist", FAMILY_SETUPS, ids=lambda v: v if isinstance(v, str) else "")
    def test_orthonormality(self, family, params, dist):
        # quadrature oracle with twice the max degree of exactness
        rule = sg.gauss_knots(dist, 10)
        for i in range(9):
            for j in range(i, 9):
                pi = eval_orthonormal(family, [i], rule.nodes[None, :], [params])
                pj = eval_orthonormal(family, [j], rule.nodes[None, :], [params])
                got = float(np.sum(rule.weights * pi * pj))
                assert got == pytest.approx(1.0 if i == j else 0.0, abs=1e-10), (i, j)

    def test_multivariate_product(self):
        pts = np.array([[0.3, -0.2], [0.1, 0.9]])
        out = eval_orthonormal("legendre", [1, 2], pts, [(-1, 1), (-1, 1)])
        p1 = eval_orthonormal("legendre", [1], pts[:1], [(-1, 1)])
        p2 = eval_orthonormal("legendre", [2], pts[1:], [(-1, 1)])
        assert out == pytest.approx(p1 * p2)


class TestConvertToModal:
    def test_coordinate_function(self, cc_grid_w4):
        grid, reduced = cc_grid_w4
        table = evaluate_on_grid(lambda y: y[0], reduced)
        exp = convert_to_modal(grid, reduced, table, unit_domain(2), "legendre")
        for deg, c in zip(exp.lambda_set, exp.coeffs[0]):
            want = 1.0 / math.sqrt(3.0) if deg == (1, 0) else 0.0
            assert c == pytest.approx(want, abs=1e-12), deg

    def test_constant_function(self, cc_grid_w4):
        grid, reduced = cc_grid_w4
        table = evaluate_on_grid(lambda y: 1.0, reduced)
        exp = convert_to_modal(grid, reduced, table, unit_domain(2), "legendre")
        for deg, c in zip(exp.lambda_set, exp.coeffs[0]):
            want = 1.0 if deg == (0, 0) else 0.0
            assert c == pytest.approx(want, abs=1e-13), deg

    def test_degree_set_from_levels(self):
        # union of per-tensor degree boxes for the w=3 Smolyak grid
        rule, lm = sg.preset("SM")
        grid = sg.build_sparse_grid_from_rule(2, 3, sg.cc_family(-1, 1), lm, rule)
        reduced = sg.reduce_grid(grid)
        table = evaluate_on_grid(lambda y: y[0] * y[1], reduced)
        exp = convert_to_modal(grid, reduced, table, unit_domain(2), "legendre")
        want = set()
        for m1, m2 in [(1, 5), (1, 9), (3, 3), (3, 5), (5, 1), (5, 3), (9, 1)]:
            want |= {(p1, p2) for p1 in range(m1) for p2 in range(m2)}
        assert set(exp.lambda_set) == want
        assert len(exp.lambda_set) == reduced.size == 29

    def test_family_distribution_mismatch(self, cc_grid_w4):
        grid, reduced = cc_grid_w4
        table = evaluate_on_grid(lambda y: y[0], reduced)
        with pytest.raises(ValueError):
            convert_to_modal(grid, reduced, table, unit_domain(2), "hermite")

    def test_hermite_conversion(self):
        rule, _ = sg.preset("TD")
        fam = sg.gauss_family(sg.DistributionSpec.normal(0, 1))
        grid = sg.build_sparse_grid_from_rule(2, 3, fam, sg.LevelMap.LINEAR, rule)
        reduced = sg.reduce_grid(grid)
        table = evaluate_on_grid(lambda y: y[0] ** 2, reduced)
        dom = Domain(np.array([[-np.inf, -np.inf], [np.inf, np.inf]]))
        exp = convert_to_modal(grid, reduced, table, dom, "hermite")
        coeffs = dict(zip(exp.lambda_set, exp.coeffs[0]))
        # y^2 = 1 + sqrt(2) * P2(y) in the orthonormal basis
        assert coeffs[(0, 0)] == pytest.approx(1.0, abs=1e-12)
        assert coeffs[(2, 0)] == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_duplicate_knots_rejected(self):
        # a family whose 3-node rule repeats a node: the only way a tensor's
        # rule can hold duplicates
        def maker(count):
            rule = sg.cc_knots(count, -1, 1)
            return sg.Rule1D(rule.nodes[[0, 1, 1]], rule.weights) if count == 3 else rule

        fam = sg.KnotFamily("cc-duplicate-node", (-1, 1), sg.DistributionSpec.uniform(-1, 1),
                            maker)
        rule, lm = sg.preset("SM")
        grid = sg.build_sparse_grid_from_rule(2, 4, fam, lm, rule)
        reduced = sg.reduce_grid(grid)
        ones = np.ones((1, reduced.size))
        with pytest.raises(np.linalg.LinAlgError, match="duplicate knots"):
            convert_to_modal(grid, reduced, ones, unit_domain(2), "legendre")
        with pytest.raises(np.linalg.LinAlgError, match="duplicate knots"):
            interpolate(grid, reduced, ones, reduced.knots)
        with pytest.raises(np.linalg.LinAlgError, match="duplicate knots"):
            adapt(lambda y: 1.0, 2, fam, lm, controls=AdaptControls(nested=False, max_pts=50))

    def test_one_table_per_distinct_rule(self, monkeypatch, rng):
        rule, lm = sg.preset("SM")
        fams = (sg.cc_family(-1, 1), sg.leja_family(-1, 1, "symmetric"), sg.cc_family(-1, 1))
        grid = sg.build_sparse_grid_from_rule(3, 4, fams, lm, rule)
        reduced = sg.reduce_grid(grid)
        table = evaluate_on_grid(lambda y: math.exp(y[0] - 0.5 * y[1] + 0.25 * y[2]), reduced)
        want = convert_to_modal(grid, reduced, table, unit_domain(3), "legendre")
        calls = []
        real = pce._orthonormal_table
        monkeypatch.setattr(pce, "_orthonormal_table",
                            lambda dist, deg, y: calls.append(1) or real(dist, deg, y))
        got = convert_to_modal(grid, reduced, table, unit_domain(3), "legendre")
        distinct = {(n, fam(m).nodes.tobytes()) for t in grid.tensors
                    for n, (fam, m) in enumerate(zip(grid.families, t.m))}
        assert 0 < len(calls) <= len(distinct) < grid.dim * len(grid.tensors)
        assert np.array_equal(got.coeffs, want.coeffs)
        pts = rng.uniform(-1, 1, (3, 25))
        assert np.allclose(evaluate_pce(got, pts), interpolate(grid, reduced, table, pts),
                           rtol=0, atol=1e-12)


def per_tensor_modal(grid, reduced, values, domain, family):
    """convert_to_modal's (degree rows, coefficients), one solve per tensor
    and active dimension."""
    params = pce._params_from_grid(grid, domain, family)
    rules, tensors = _compile(grid, reduced, values)
    vanders = {key: pce._orthonormal_table(pce._family_dist(family, params[key[0]]),
                                           nodes.size - 1, nodes).T
               for key, (nodes, _) in rules.items()}
    terms = []
    for coeff, tv, keys in tensors:
        block = tv
        for key in keys:
            block = np.linalg.solve(vanders[key], block.reshape(-1, len(vanders[key])).T)
        terms.append(coeff * block.reshape(-1, tv.shape[0]).T)
    degrees = np.array(list(_extended_positions(grid)))
    m, _, sums, lex = _group_columns(degrees, np.concatenate(terms, axis=1))
    return degrees[:, m[lex]].T, sums[:, lex]


class TestLockstepSolves:
    @pytest.mark.parametrize("setup", ["cc-smolyak-d4", "gauss-legendre-td-d3", "cc-leja-d3"])
    def test_bitwise_equal_to_per_tensor_solves(self, setup):
        if setup == "cc-smolyak-d4":
            rule, lm = sg.preset("SM")
            grid = sg.build_sparse_grid_from_rule(4, 4, sg.cc_family(-1, 1), lm, rule)
        elif setup == "gauss-legendre-td-d3":
            rule, lm = sg.preset("TD")
            fam = sg.gauss_family(sg.DistributionSpec.uniform(-1, 1))
            grid = sg.build_sparse_grid_from_rule(3, 5, fam, lm, rule)
        else:
            rule, lm = sg.preset("SM")
            fams = (sg.cc_family(-1, 1), sg.leja_family(-1, 1, "symmetric"), sg.cc_family(-1, 1))
            grid = sg.build_sparse_grid_from_rule(3, 4, fams, lm, rule)
        reduced = sg.reduce_grid(grid)
        x = reduced.knots
        values = np.vstack([np.exp(0.4 * x.sum(axis=0)), np.sin(x[0] - x[-1] ** 2),
                            np.cos(2 * x[1])])
        # tensors of one (active node counts) group are spread over the grid,
        # so the columns must be put back in tensor order
        rules, tensors = _compile(grid, reduced, values)
        counts = [tuple(rules[key][0].size for key in keys) for _, _, keys in tensors]
        sizes = {counts.count(c) for c in counts}
        assert 1 in sizes and max(sizes) > 2
        assert any(counts[k - 1] == counts[k + 1] != counts[k] for k in range(1, len(counts) - 1))
        rows, coeffs = per_tensor_modal(grid, reduced, values, unit_domain(grid.dim), "legendre")
        got = convert_to_modal(grid, reduced, values, unit_domain(grid.dim), "legendre")
        assert got.lambda_set.rows.tobytes() == rows.astype(np.int64).tobytes()
        assert got.coeffs.shape == coeffs.shape == (3, len(rows))
        assert got.coeffs.tobytes() == coeffs.tobytes()


class TestEvaluatePCE:
    def test_matches_interpolant(self, cc_grid_w4, rng):
        grid, reduced = cc_grid_w4
        f = lambda y: math.exp(0.3 * y[0] - 0.2 * y[1]) + y[0] ** 3 * y[1]
        table = evaluate_on_grid(f, reduced)
        exp = convert_to_modal(grid, reduced, table, unit_domain(2), "legendre")
        pts = rng.uniform(-1, 1, (2, 50))
        assert np.max(np.abs(evaluate_pce(exp, pts) - interpolate(grid, reduced, table, pts))) < 1e-10

    def test_chebyshev_takes_the_domain_as_its_interval(self, rng):
        rule, lm = sg.preset("SM")
        grid = sg.build_sparse_grid_from_rule(2, 3, sg.cc_family(-1, 2), lm, rule)
        reduced = sg.reduce_grid(grid)
        table = evaluate_on_grid(lambda y: math.exp(0.3 * y[0] - 0.2 * y[1]) + y[0] ** 3 * y[1],
                                 reduced)
        exp = convert_to_modal(grid, reduced, table, Domain(np.array([[-1.0, -1.0], [2.0, 2.0]])),
                               "chebyshev")
        pts = rng.uniform(-1, 2, (2, 50))
        want = interpolate(grid, reduced, table, pts)
        assert np.max(np.abs(evaluate_pce(exp, pts) - want)) <= 1e-12 * np.max(np.abs(want))

    def test_constant_expansion(self, cc_grid_w4):
        grid, reduced = cc_grid_w4
        table = evaluate_on_grid(lambda y: 4.2, reduced)
        exp = convert_to_modal(grid, reduced, table, unit_domain(2), "legendre")
        out = evaluate_pce(exp, np.array([[0.1], [0.9]]))
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(4.2)

    def test_linearity(self, cc_grid_w4, rng):
        grid, reduced = cc_grid_w4
        f = lambda y: math.sin(y[0]) + y[1]
        t1 = evaluate_on_grid(f, reduced)
        t2 = EvaluationTableTimes(t1, 3.5)
        e1 = convert_to_modal(grid, reduced, t1, unit_domain(2), "legendre")
        e2 = convert_to_modal(grid, reduced, t2.values, unit_domain(2), "legendre")
        assert np.allclose(3.5 * e1.coeffs, e2.coeffs, atol=1e-12)


class EvaluationTableTimes:
    def __init__(self, table, factor):
        self.values = factor * table.values


class TestParseval:
    def test_variance_matches_quadrature(self, cc_grid_w4):
        grid, reduced = cc_grid_w4
        f = lambda y: math.exp(0.2 * y[0] + 0.1 * y[1])
        table = evaluate_on_grid(f, reduced)
        exp = convert_to_modal(grid, reduced, table, unit_domain(2), "legendre")
        c2 = exp.coeffs[0] ** 2
        mask = np.array([deg != (0, 0) for deg in exp.lambda_set])
        var_pce = float(c2[mask].sum())
        q1 = float(quadrature(table, reduced)[0])
        q2 = float(quadrature(table.values**2, reduced)[0])
        assert var_pce == pytest.approx(q2 - q1**2, abs=1e-8)


class TestSobolIndices:
    def test_interaction_only(self, cc_grid_w4):
        grid, reduced = cc_grid_w4
        table = evaluate_on_grid(lambda y: y[0] * y[1], reduced)
        principal, total = sobol_indices(grid, reduced, table, unit_domain(2), "legendre")
        assert principal == pytest.approx([0.0, 0.0], abs=1e-12)
        assert total == pytest.approx([1.0, 1.0], abs=1e-12)

    def test_additive_function(self, cc_grid_w4):
        grid, reduced = cc_grid_w4
        table = evaluate_on_grid(lambda y: math.sin(y[0]) + y[1] ** 3, reduced)
        principal, total = sobol_indices(grid, reduced, table, unit_domain(2), "legendre")
        assert principal == pytest.approx(total, abs=1e-12)

    def test_ranges_and_ordering(self, cc_grid_w4):
        grid, reduced = cc_grid_w4
        table = evaluate_on_grid(lambda y: math.exp(y[0] + 0.3 * y[1]), reduced)
        principal, total = sobol_indices(grid, reduced, table, unit_domain(2), "legendre")
        assert np.all(principal >= 0) and np.all(total <= 1.0 + 1e-12)
        assert np.all(principal <= total + 1e-12)
        assert principal.sum() <= 1.0 + 1e-12

    def test_zero_variance_rejected(self, cc_grid_w4):
        grid, reduced = cc_grid_w4
        table = evaluate_on_grid(lambda y: 7.0, reduced)
        with pytest.raises(DegenerateInputError):
            sobol_indices(grid, reduced, table, unit_domain(2), "legendre")
