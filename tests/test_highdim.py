"""Sparse grids past numpy's 32-array broadcasting limit: build, reduce,
integrate, interpolate, convert to a modal expansion and take Sobol
indices, all checked against closed forms."""

import numpy as np
import pytest

import sparsegrids as sg
from sparsegrids.evalkit import Domain, Interpolant, evaluate_on_grid, quadrature
from sparsegrids.pce import convert_to_modal, evaluate_pce, sobol_indices

# f(y) = 1 + sum_n c_n (y_n + y_n^2) [+ y_1 y_2 when w = 2] on [-1, 1]^d lies
# in the span of the SM grid, so every step below is exact up to rounding.
# Under the uniform density: E[y + y^2] = 1/3, Var(y + y^2) = 1/3 + 4/45,
# and y_1 y_2 has mean 0, variance 1/9 and no main effect.
VAR_MAIN = 1.0 / 3.0 + 4.0 / 45.0


def coefficients(dim):
    return 1.0 / (np.arange(dim) + 1.0)


def model(c, cross):
    def f(y):
        return 1.0 + c @ (y + y**2) + (y[0] * y[1] if cross else 0.0)
    return f


@pytest.mark.parametrize("dim, w", [(33, 2), (40, 2), (70, 1), (100, 1)])
def test_pipeline_past_32_dimensions(dim, w, rng):
    rule, level_map = sg.preset("SM")
    grid = sg.build_sparse_grid_from_rule(dim, w, sg.cc_family(-1.0, 1.0), level_map, rule)
    reduced = sg.reduce_grid(grid)
    c, cross = coefficients(dim), w >= 2
    f = model(c, cross)
    table = evaluate_on_grid(f, reduced)
    # the signed combination sum cancels; its rounding grows with sum |coeff|
    tol = 100 * np.finfo(float).eps * sum(abs(t.coeff) for t in grid.tensors)

    mean = 1.0 + c.sum() / 3.0
    assert quadrature(table, reduced)[0] == pytest.approx(mean, rel=tol)

    pts = rng.uniform(-1.0, 1.0, (dim, 40))
    got = Interpolant(grid, reduced, table)(pts)[0]
    want = np.array([f(pts[:, q]) for q in range(pts.shape[1])])
    assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))

    domain = Domain(np.vstack([-np.ones(dim), np.ones(dim)]))
    expansion = convert_to_modal(grid, reduced, table, domain, "legendre")
    assert np.max(np.abs(evaluate_pce(expansion, pts)[0] - got)) <= tol * np.max(np.abs(got))

    principal, total = sobol_indices(grid, reduced, table, domain, "legendre")
    variance = VAR_MAIN * np.sum(c**2) + (1.0 / 9.0 if cross else 0.0)
    want_principal = VAR_MAIN * c**2 / variance
    want_total = want_principal.copy()
    if cross:
        want_total[:2] += 1.0 / 9.0 / variance
    assert np.allclose(principal, want_principal, rtol=0, atol=tol)
    assert np.allclose(total, want_total, rtol=0, atol=tol)
