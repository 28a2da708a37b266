"""The array-level grid bookkeeping (one-pass ``SparseGrid.extended``,
sort-based ``reduce_grid``, grouped modal sums) against reference copies
of the per-tensor and per-knot loops it replaced: every output must be
bitwise equal, not merely close."""

import dataclasses

import numpy as np
import pytest
from conftest import grown

import sparsegrids as sg
import sparsegrids.pce
from sparsegrids.adaptive import AdaptControls, adapt
from sparsegrids.evalkit import Domain, _compile
from sparsegrids.grid import _kron_rows, _tensor_product_columns, dedup_tolerances, lattice_keys
from sparsegrids.pce import _family_dist, _orthonormal_table, convert_to_modal


def reference_extended(grid):
    """Extended knots and weights built tensor by tensor: the cartesian
    product of each tensor's 1D rule nodes, and its coefficient times the
    Kronecker product of their weights."""
    knots, weights = [], []
    for t in grid.tensors:
        rules = [fam(m) for fam, m in zip(grid.families, t.m)]
        knots.append(_tensor_product_columns([r.nodes for r in rules]))
        weights.append(t.coeff * _kron_rows([r.weights[None, :] for r in rules])[0])
    return np.concatenate(knots, axis=1), np.concatenate(weights)


def reference_reduce(grid):
    """Knots, weights, m and n of the dict-and-loop reduction."""
    extended, ext_weights = reference_extended(grid)
    scaled = np.rint(extended / dedup_tolerances(extended)[:, None]).astype(np.int64)
    first, m_list, weights = {}, [], []
    n_map = np.empty(extended.shape[1], dtype=np.int64)
    for e, key in enumerate(map(tuple, scaled.T)):
        p = first.get(key)
        if p is None:
            p = first[key] = len(m_list)
            m_list.append(e)
            weights.append(ext_weights[e])
        else:
            weights[p] += ext_weights[e]
        n_map[e] = p
    return extended[:, m_list], np.asarray(weights), np.asarray(m_list), n_map


def reference_modal(grid, reduced, values, params, family):
    """Degree rows and coefficients of the dict-and-loop modal accumulation."""
    tensors = _compile(grid, reduced, values)
    vanders = {(n, c): _orthonormal_table(_family_dist(family, params[n]), c - 1,
                                          grid.families[n](c).nodes).T
               for _, _, keys in tensors for n, c in keys}
    coeff_map = {}
    for t, (coeff, tv, keys) in zip(grid.tensors, tensors):
        n_out = tv.shape[0]
        block = tv.T.reshape([len(vanders[key]) for key in keys] + [n_out], order="F")
        for axis, key in enumerate(keys):
            moved = np.moveaxis(block, axis, 0)
            solved = np.linalg.solve(vanders[key], moved.reshape(moved.shape[0], -1))
            block = np.moveaxis(solved.reshape(moved.shape), 0, axis)
        flat = block.reshape(-1, n_out, order="F").T
        degrees = _tensor_product_columns([np.arange(v) for v in t.m]).T.tolist()
        for pos, degree in enumerate(map(tuple, degrees)):
            term = coeff * flat[:, pos]
            coeff_map[degree] = coeff_map[degree] + term if degree in coeff_map else term
    rows = sorted(coeff_map)
    return np.array(rows), np.stack([coeff_map[deg] for deg in rows], axis=1)


def _grid(dim, level, preset, family, level_map=None):
    rule, default_map = sg.preset(preset)
    return sg.build_sparse_grid_from_rule(dim, level, family, level_map or default_map, rule)


CASES = {
    "sm-cc": lambda: _grid(3, 4, "SM", sg.cc_family(0.0, 1.0)),
    "td-cc": lambda: _grid(3, 4, "TD", sg.cc_family(-1.0, 1.0)),
    "sm-leja": lambda: _grid(3, 4, "SM", sg.leja_family(-1.0, 2.0)),
    "td-leja": lambda: _grid(4, 4, "TD", sg.leja_family(0.0, 1.0)),
    "td-gauss": lambda: _grid(3, 4, "TD", sg.gauss_family(sg.DistributionSpec.uniform(-1, 1))),
    "sm-gauss": lambda: _grid(2, 4, "SM", sg.gauss_family(sg.DistributionSpec.uniform(0, 3))),
    "shifted": lambda: _grid(3, 4, "SM", sg.cc_family(-7.5, -2.25)),
    "d1": lambda: _grid(1, 5, "SM", sg.cc_family(-1.0, 1.0)),
    "d33": lambda: _grid(33, 2, "SM", sg.cc_family(-1.0, 1.0)),
}


_NORMAL = sg.DistributionSpec.normal(0.5, 2.0)

EXTENDED_CASES = {
    **CASES,
    "sm-cc-d10": lambda: _grid(10, 3, "SM", sg.cc_family(-1.0, 1.0)),
    "td-leja-sym": lambda: _grid(3, 5, "TD", sg.leja_family(-1.0, 1.0, "symmetric"),
                                 sg.LevelMap.LINEAR),
    "td-gauss-hermite": lambda: _grid(3, 4, "TD", sg.gauss_family(_NORMAL), sg.LevelMap.LINEAR),
    "td-weighted-leja": lambda: _grid(3, 5, "TD", sg.weighted_leja_family(_NORMAL),
                                      sg.LevelMap.LINEAR),
    "mixed-anisotropic": lambda: sg.build_sparse_grid_from_rule(
        3, 4, (sg.cc_family(0.0, 1.0), sg.leja_family(-1.0, 2.0), sg.gauss_family(_NORMAL)),
        sg.LevelMap.LINEAR, sg.preset("TD", [1.0, 2.0, 1.5])[0]),
    "adaptive": lambda: adapt(lambda y: np.exp(y.sum()), 3, sg.leja_family(-1.0, 1.0),
                              sg.LevelMap.LINEAR,
                              controls=AdaptControls(nested=True, max_pts=200)).extended,
}


@pytest.mark.parametrize("case", sorted(EXTENDED_CASES))
def test_extended_bitwise_equals_tensor_by_tensor(case):
    grid = EXTENDED_CASES[case]()
    for got, want in zip(grid.extended(), reference_extended(grid)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_previous_chain_flips_carried_coefficients():
    # each level grown from the one before by add_one_index: a carried
    # tensor whose coefficient changes sign must still give a cold build's
    # weights bitwise
    family = sg.leja_family(0.0, 1.0)
    grids = [_grid(3, 0, "SM", family)]
    for w in range(1, 5):
        grids.append(grown(grids[-1], _grid(3, w, "SM", family).index_set))
    flips = 0
    for before, after in zip(grids, grids[1:]):
        old = {t.idx: t.coeff for t in before.tensors}
        flips += sum(old.get(t.idx, 0) * t.coeff < 0 for t in after.tensors)
    assert flips > 0
    cold = _grid(3, 4, "SM", family)
    for got, want, ref in zip(grids[-1].extended(), cold.extended(),
                              reference_extended(grids[-1])):
        assert got.tobytes() == want.tobytes() == ref.tobytes()


def test_replaced_tensor_tuple_reduces_to_the_remaining_tensors():
    grid = CASES["td-leja"]()
    kept = dataclasses.replace(grid, tensors=grid.tensors[:-1])
    end = grid.tensor_offsets()[-2]
    for got, full in zip(kept.extended(), grid.extended()):
        assert got.tobytes() == full[..., :end].tobytes()
    reduced = sg.reduce_grid(kept)
    knots, weights, m, n = reference_reduce(kept)
    assert reduced.size == m.size < sg.reduce_grid(grid).size
    for got, want in ((reduced.knots, knots), (reduced.weights, weights),
                      (reduced.m, m), (reduced.n, n)):
        assert got.tobytes() == want.tobytes()


def _values(reduced):
    y = reduced.knots
    return np.vstack([np.exp(0.3 * y.sum(axis=0)), np.cos(y[0]) + y[-1] ** 2])


@pytest.mark.parametrize("case", sorted(CASES))
def test_reduce_grid_bitwise_equals_dict_loop(case):
    grid = CASES[case]()
    reduced = sg.reduce_grid(grid)
    knots, weights, m, n = reference_reduce(grid)
    assert reduced.size == m.size
    for got, want in ((reduced.knots, knots), (reduced.weights, weights),
                      (reduced.m, m), (reduced.n, n)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("case", sorted(CASES))
def test_modal_coefficients_bitwise_equal_dict_loop(case):
    grid = CASES[case]()
    reduced = sg.reduce_grid(grid)
    values = _values(reduced)
    domain = Domain(np.array([[f.dist.params[0] for f in grid.families],
                              [f.dist.params[1] for f in grid.families]], dtype=float))
    expansion = convert_to_modal(grid, reduced, values, domain, "legendre")
    rows, coeffs = reference_modal(grid, reduced, values, expansion.params, "legendre")
    assert np.array_equal(expansion.lambda_set.rows, rows)
    assert expansion.coeffs.shape == coeffs.shape
    assert expansion.coeffs.tobytes() == coeffs.tobytes()


def test_modal_rejects_a_set_that_reorders_its_rows(monkeypatch):
    class Reversed(sg.MultiIndexSet):
        rows = property(lambda self: self._rows[::-1])

    monkeypatch.setattr(sparsegrids.pce, "MultiIndexSet", Reversed)
    grid = CASES["td-cc"]()
    reduced = sg.reduce_grid(grid)
    domain = Domain(np.array([[-1.0] * 3, [1.0] * 3]))
    with pytest.raises(AssertionError, match="lexicographic"):
        convert_to_modal(grid, reduced, _values(reduced), domain, "legendre")


def test_shifted_domain_has_negative_lattice_keys():
    reduced = sg.reduce_grid(CASES["shifted"]())
    keys = lattice_keys(reduced.knots, reduced.tol)
    assert max(max(k) for k in keys) < 0


def test_lattice_keys_are_tuples_of_python_ints():
    _, reduced = sg.quick_preset(2, 3)
    keys = lattice_keys(reduced.knots, reduced.tol)
    assert len(keys) == reduced.size == len(set(keys))
    assert all(type(k) is tuple and all(type(v) is int for v in k) for k in keys)
    scaled = np.rint(reduced.knots / reduced.tol[:, None]).astype(np.int64)
    assert keys == list(map(tuple, scaled.T))
    assert [hash(k) for k in keys] == [hash(tuple(r)) for r in scaled.T]
