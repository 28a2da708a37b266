"""Grid serialization and plot-data export.

Grids are stored as JSON with decimal floats (Python's shortest
round-trip representation, at most 17 significant digits), so numeric
arrays survive a save/load cycle bitwise.  Exports are plain CSV: comma
separator, '.' decimal, LF line endings, mandatory header row.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .evalkit import EvaluationTable, Interpolant
from .grid import ReducedGrid, SparseGrid, build_sparse_grid
from .knots import family_from_descriptor
from .levels import LevelMap
from .midx import MultiIndexSet

__all__ = ["GridBundle", "save_grid", "load_grid", "export_points", "FORMAT_VERSION"]

FORMAT_VERSION = 1


class GridFileError(ValueError):
    pass


@dataclass
class GridBundle:
    """Everything a grid file can carry."""

    grid: SparseGrid
    reduced: ReducedGrid | None = None
    values: EvaluationTable | None = None
    adapt_state: dict | None = None


def _reduced_to_json(reduced: ReducedGrid) -> dict:
    return {
        "knots": reduced.knots.tolist(),
        "weights": reduced.weights.tolist(),
        "m": reduced.m.tolist(),
        "n": reduced.n.tolist(),
        "tol": reduced.tol.tolist(),
    }


def _fields(obj: dict, where: str, *keys: str) -> list:
    """``obj[key]`` for each of ``keys``; a missing one raises a KeyError
    naming it as ``where + key``."""
    for key in keys:
        if key not in obj:
            raise KeyError(where + key)
    return [obj[key] for key in keys]


def _reduced_from_json(obj: dict) -> ReducedGrid:
    knots, weights, m, n, tol = _fields(obj, "reduced.", "knots", "weights", "m", "n", "tol")
    knots = np.asarray(knots, dtype=float)
    weights = np.asarray(weights, dtype=float)
    m = np.asarray(m, dtype=np.int64)
    n = np.asarray(n, dtype=np.int64)
    tol = np.asarray(tol, dtype=float)
    for a in (knots, weights, m, n):
        a.flags.writeable = False
    return ReducedGrid(knots=knots, weights=weights, size=weights.size, m=m, n=n, tol=tol)


def _check_reduced(grid: SparseGrid, reduced: ReducedGrid, values) -> None:
    """Check a stored reduced form (and values) against the rebuilt grid."""
    knots, weights = grid.extended()
    m, n, size = reduced.m, reduced.n, reduced.size
    tol = reduced.tol
    if tol.shape != (grid.dim,) or not np.all(np.isfinite(tol) & (tol > 0)):
        raise GridFileError(f"reduced 'tol' is not {grid.dim} finite values above 0")
    if values is not None and values.n_points != size:
        raise GridFileError(f"'values' has {values.n_points} columns for {size} reduced knots")
    if n.shape != weights.shape or np.any((n < 0) | (n >= size)):
        raise GridFileError(f"reduced 'n' does not map {weights.size} knots onto {size}")
    if m.shape != (size,) or np.any((m < 0) | (m >= n.size)) or np.any(n[m] != np.arange(size)):
        raise GridFileError("reduced 'm' is not the first occurrence of each reduced knot")
    if reduced.knots.shape != (grid.dim, size) or not np.allclose(reduced.knots, knots[:, m],
                                                                   rtol=0, atol=1e-12):
        raise GridFileError("reduced 'knots' do not match the grid's knots")
    error = np.abs(reduced.weights - np.bincount(n, weights, minlength=size)).max()
    if error > 1e-12 * np.abs(weights).sum():
        raise GridFileError(f"reduced 'weights' are off the summed tensor weights by {error:.3g}")


def save_grid(path, grid: SparseGrid, reduced: ReducedGrid | None = None,
              values: EvaluationTable | None = None,
              adapt_state: dict | None = None) -> None:
    """Write a grid (and optional reduced form, values, adaptive state)."""
    doc = {
        "format_version": FORMAT_VERSION,
        "dim": grid.dim,
        "families": [fam.descriptor() for fam in grid.families],
        "level_map": LevelMap(grid.level_map).value,
        "multi_index_set": grid.index_set.rows.tolist(),
        "tensors": [
            {
                "idx": list(t.idx),
                "m": list(t.m),
                "coeff": t.coeff,
                "knots_per_dim": [fam(c).nodes.tolist() for fam, c in zip(grid.families, t.m)],
            }
            for t in grid.tensors
        ],
    }
    if reduced is not None:
        doc["reduced"] = _reduced_to_json(reduced)
    if values is not None:
        doc["values"] = values.values.tolist()
    if adapt_state is not None:
        doc["adapt_state"] = adapt_state
    text = json.dumps(doc) + "\n"  # json.dump would run the pure-Python encoder
    with open(path, "w") as fh:
        fh.write(text)


def load_grid(path) -> GridBundle:
    """Read a grid file; the grid is rebuilt and checked against the stored data."""
    with open(path) as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GridFileError(f"malformed grid file {path}: {exc.msg} at byte {exc.pos}") from exc
    if not isinstance(doc, dict):
        raise GridFileError(f"grid file {path} is structurally invalid: not a JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise GridFileError(
            f"grid file version {version!r} not supported (expected {FORMAT_VERSION})"
        )
    try:
        families = tuple(family_from_descriptor(d) for d in doc["families"])
        level_map = LevelMap(doc["level_map"])
        index_set = MultiIndexSet(doc["multi_index_set"], dim=doc["dim"])
        stored = {}
        for k, rec in enumerate(_fields(doc, "", "tensors")[0]):
            idx, *meta, nodes = _fields(rec, f"tensors[{k}].", "idx", "coeff", "m", "knots_per_dim")
            stored[tuple(idx)] = *meta, [np.asarray(v, dtype=float) for v in nodes]
        reduced = _reduced_from_json(doc["reduced"]) if "reduced" in doc else None
    except KeyError as exc:
        raise GridFileError(f"grid file {path} is structurally invalid: "
                            f"missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise GridFileError(f"grid file {path} is structurally invalid: {exc}") from exc
    grid = build_sparse_grid(index_set, families, level_map)
    # cross-check the regenerated univariate knots against the stored ones
    if set(stored) != {t.idx for t in grid.tensors}:
        raise GridFileError("stored tensors do not match the multi-index set")
    checked = set()  # (dimension, node count, stored shape and bytes) already compared
    for t in grid.tensors:
        coeff, m, stored_nodes = stored[t.idx]
        if coeff != t.coeff or list(t.m) != m or len(stored_nodes) != grid.dim:
            raise GridFileError(f"tensor {t.idx} metadata mismatch")
        for n, (fam, c, theirs) in enumerate(zip(grid.families, t.m, stored_nodes)):
            key = (n, c, theirs.shape, theirs.tobytes())
            if key in checked:
                continue
            ours = fam(c).nodes
            if theirs.shape != ours.shape or not np.allclose(ours, theirs, rtol=0, atol=1e-12):
                raise GridFileError(f"stored knots of tensor {t.idx} do not match")
            checked.add(key)
    values = EvaluationTable(np.asarray(doc["values"], dtype=float)) if "values" in doc else None
    if reduced is not None:
        _check_reduced(grid, reduced, values)
    return GridBundle(grid=grid, reduced=reduced, values=values,
                      adapt_state=doc.get("adapt_state"))


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

_EXPORT_KINDS = ("knots", "knots3d_projection", "interp_samples", "midx_set")


def default_domain(grid: SparseGrid) -> np.ndarray:
    """Bounding box for sampling: exact for bounded supports, a few
    standard deviations otherwise."""
    lo, hi = [], []
    for fam in grid.families:
        dist = fam.dist
        a, b = dist.support
        if math.isinf(b):
            if dist.kind == "normal":
                mu, sig = dist.params
                a, b = mu - 3 * sig, mu + 3 * sig
            elif dist.kind == "exponential":
                a, b = 0.0, 4.0 / dist.params[0]
            else:
                a, b = 0.0, 4.0 * (dist.params[0] + 1.0) / dist.params[1]
        lo.append(a)
        hi.append(b)
    return np.array([lo, hi])


def _write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, (float, np.floating)) else str(v) for v in row) + "\n")


def _sample_cuts(dim: int, resolution: int, cuts=None) -> list[tuple[int, ...]]:
    """The cuts ``interp_samples`` samples on a grid of dimension ``dim``,
    with ``resolution`` and ``cuts`` checked: the whole domain for one or
    two dimensions, else each two-dimensional cut (default (1, 2))."""
    if resolution < 1:
        raise ValueError(f"resolution {resolution} is below 1 lattice point per axis")
    if dim <= 2:
        return [tuple(range(1, dim + 1))]
    cut_list = [(1, 2)] if cuts is None else [tuple(int(v) for v in c) for c in cuts]
    for c in cut_list:
        if len(c) != 2 or any(d < 1 or d > dim for d in c):
            raise ValueError(f"cut {c} out of range for dim {dim}")
    return cut_list


def export_points(bundle: GridBundle, what: str, path, dims=None, resolution: int = 15,
                  cuts=None) -> None:
    """Write grid knots, projections, interpolant samples, or the
    multi-index set as CSV.

    ``interp_samples`` samples each two-dimensional cut on a cartesian
    lattice of ``resolution``^2 points, fixing the remaining coordinates
    at the domain midpoints; for one or two dimensions the whole domain is
    sampled and the cut columns are omitted.
    """
    if what not in _EXPORT_KINDS:
        raise ValueError(f"unknown export kind {what!r}; choose from {_EXPORT_KINDS}")
    grid = bundle.grid
    cut_list = _sample_cuts(grid.dim, resolution, cuts)
    if what == "midx_set":
        header = [f"i{n + 1}" for n in range(grid.dim)]
        _write_csv(path, header, grid.index_set.rows.tolist())
        return
    if bundle.reduced is None:
        raise ValueError(f"export {what!r} needs the reduced grid in the bundle")
    reduced = bundle.reduced
    if what == "knots":
        header = [f"y{n + 1}" for n in range(grid.dim)] + ["weight"]
        rows = (
            list(reduced.knots[:, p]) + [reduced.weights[p]] for p in range(reduced.size)
        )
        _write_csv(path, header, rows)
        return
    if what == "knots3d_projection":
        if dims is None:
            dims = (1, 2, 3)
        dims = tuple(int(d) for d in dims)
        if len(dims) != 3 or any(d < 1 or d > grid.dim for d in dims):
            raise ValueError(f"projection dims out of range for dim {grid.dim}")
        sel = [d - 1 for d in dims]
        header = [f"y{d}" for d in dims]
        _write_csv(path, header, reduced.knots[sel, :].T.tolist())
        return
    # interp_samples
    if bundle.values is None:
        raise ValueError("interp_samples needs function values in the bundle")
    box = default_domain(grid)
    mid = box.mean(axis=0)
    n_out = bundle.values.n_outputs
    cut_cols = ["cut_dim1", "cut_dim2"] if grid.dim > 2 else []
    header = cut_cols + [f"y{n + 1}" for n in range(grid.dim)] + [
        f"value{k + 1}" if n_out > 1 else "value" for k in range(n_out)
    ]
    surrogate = Interpolant(grid, reduced, bundle.values)
    rows = []
    for cut in cut_list:
        axes = [np.linspace(box[0, d - 1], box[1, d - 1], resolution) for d in cut]
        if len(cut) == 1:
            pts = axes[0][None, :]
        else:
            g1, g2 = np.meshgrid(axes[0], axes[1], indexing="ij")
            pts_cut = np.stack([g1.ravel(), g2.ravel()])
            pts = np.tile(mid[:, None], (1, pts_cut.shape[1]))
            for row, d in enumerate(cut):
                pts[d - 1, :] = pts_cut[row]
        vals = surrogate(pts)
        for q in range(pts.shape[1]):
            row = list(cut) if cut_cols else []
            row += list(pts[:, q]) + list(vals[:, q])
            rows.append(row)
    _write_csv(path, header, rows)
