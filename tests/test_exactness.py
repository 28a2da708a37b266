"""Polynomial exactness: the sparse interpolant of a downward-closed index
set I reproduces every polynomial with degrees in

    Lambda(I) = union over i in I of {k : 0 <= k_n <= m(i_n) - 1},

for nested and non-nested rules alike (Barthelmann, Novak & Ritter, "High
dimensional polynomial interpolation on sparse grids", Adv. Comput. Math.
12, 2000).  A random polynomial on Lambda(I), written in the grid's
orthonormal basis, is therefore an oracle that needs no reference data:
both ``Interpolant`` paths must reproduce it at random points, and
``convert_to_modal`` must return its coefficients.
"""

import itertools

import numpy as np
import pytest

import sparsegrids as sg
from sparsegrids.evalkit import Domain, Interpolant, interpolate, quadrature
from sparsegrids.levels import apply_level_map
from sparsegrids.midx import MultiIndexSet
from sparsegrids.pce import PCExpansion, convert_to_modal, evaluate_pce

# the measured gaps are at most 7.3e-15 relative on every case
TOL = 1e-13


def _case(name):
    """(grid, orthonormal family, per-dimension params, domain, point sampler)."""
    if name == "leja-linear-td3":
        fam, dist = sg.leja_family(-1, 1), sg.DistributionSpec.uniform(-1, 1)
        rule, lm, dim, w = *sg.preset("TD"), 3, 5
    elif name == "gauss-legendre-td3":
        dist = sg.DistributionSpec.uniform(0, 1)
        fam, (rule, lm), dim, w = sg.gauss_family(dist), sg.preset("TD"), 3, 4
    elif name == "cc-doubling-shifted":
        fam, dist = sg.cc_family(-1, 2), sg.DistributionSpec.uniform(-1, 2)
        rule, lm, dim, w = *sg.preset("SM"), 3, 3
    else:
        dist = sg.DistributionSpec.normal(0.3, 2)
        fam, (rule, lm), dim, w = sg.gauss_family(dist), sg.preset("TD"), 2, 5
    grid = sg.build_sparse_grid_from_rule(dim, w, fam, lm, rule)
    if dist.kind == "normal":
        domain = Domain(np.full((2, dim), [[-np.inf], [np.inf]]))
        sample = lambda rng, q: rng.normal(*dist.params, (dim, q))
        return grid, "hermite", dist.params, domain, sample
    lo, hi = dist.params
    domain = Domain(np.array([[lo] * dim, [hi] * dim]))
    return grid, "legendre", dist.params, domain, lambda rng, q: rng.uniform(lo, hi, (dim, q))


CASES = ["leja-linear-td3", "gauss-legendre-td3", "cc-doubling-shifted", "gauss-hermite-d2"]


def degree_set(grid) -> MultiIndexSet:
    """Lambda(I) from the index set and the level map alone."""
    degrees = set()
    for idx in grid.index_set:
        degrees.update(itertools.product(*(range(apply_level_map(grid.level_map, i))
                                           for i in idx)))
    return MultiIndexSet(degrees, dim=grid.dim, base=0)


def random_polynomial(name, seed):
    """(grid, reduced, domain, sampler, the polynomial as a PCExpansion, its
    values at the reduced knots) for one case and seed."""
    grid, family, params, domain, sample = _case(name)
    reduced = sg.reduce_grid(grid)
    lam = degree_set(grid)
    rng = np.random.default_rng(seed)
    poly = PCExpansion(family, (params,) * grid.dim, lam, rng.standard_normal((2, len(lam))))
    values = evaluate_pce(poly, reduced.knots)
    return grid, reduced, domain, sample, poly, values


def assert_reproduces(got, want):
    assert np.max(np.abs(got - want)) <= TOL * np.max(np.abs(want))


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", CASES)
class TestPolynomialExactness:
    def test_per_tensor_path(self, name, seed):
        grid, reduced, _, sample, poly, values = random_polynomial(name, seed)
        pts = sample(np.random.default_rng(seed + 10), 600)  # a full chunk, then a short one
        interp = Interpolant(grid, reduced, values)
        assert interp._reduced_chunk < 88
        assert_reproduces(interp(pts), evaluate_pce(poly, pts))
        assert interp._reduced_weights is None

    def test_reduced_weight_path(self, name, seed):
        grid, reduced, _, sample, poly, values = random_polynomial(name, seed)
        interp = Interpolant(grid, reduced, values)
        q = interp._reduced_chunk
        assert q >= 1
        pts = sample(np.random.default_rng(seed + 20), 5 * q)
        got = np.concatenate([interp(pts[:, lo : lo + q]) for lo in range(0, pts.shape[1], q)],
                             axis=1)
        assert interp._reduced_weights is not None
        assert_reproduces(got, evaluate_pce(poly, pts))
        assert_reproduces(interpolate(grid, reduced, values, pts[:, :1]),
                          evaluate_pce(poly, pts[:, :1]))

    def test_modal_coefficients(self, name, seed):
        grid, reduced, domain, _, poly, values = random_polynomial(name, seed)
        got = convert_to_modal(grid, reduced, values, domain, poly.family)
        assert np.array_equal(got.lambda_set.rows, poly.lambda_set.rows)
        assert got.params == poly.params
        assert_reproduces(got.coeffs, poly.coeffs)

    def test_quadrature_is_the_constant_coefficient(self, name, seed):
        grid, reduced, _, _, poly, values = random_polynomial(name, seed)
        # the orthonormal basis's degree-0 polynomial is 1 and the others
        # have mean 0 under the grid's distribution
        want = poly.coeffs[:, 0]
        got = quadrature(values, reduced)
        assert np.max(np.abs(got - want)) <= TOL * np.max(np.abs(poly.coeffs))
