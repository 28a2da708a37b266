"""Grid serialization and plot-data export.

Grids are stored as JSON with decimal floats (Python's shortest
round-trip representation, at most 17 significant digits), so numeric
arrays survive a save/load cycle bitwise.  A file stores each fact once;
``load_grid`` rebuilds what follows from the stored fields and checks the
stored rules and reduced form against it, and reads format-1 files too.
Exports are plain CSV: comma separator, '.' decimal, LF line endings,
mandatory header row.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .evalkit import EvaluationTable, Interpolant
from .grid import ReducedGrid, SparseGrid, _reduce_extended, build_sparse_grid
from .knots import family_from_descriptor
from .levels import LevelMap
from .midx import MultiIndexSet

__all__ = ["GridBundle", "save_grid", "load_grid", "export_points", "FORMAT_VERSION"]

FORMAT_VERSION = 2


class GridFileError(ValueError):
    pass


@dataclass
class GridBundle:
    """Everything a grid file can carry."""

    grid: SparseGrid
    reduced: ReducedGrid | None = None
    values: EvaluationTable | None = None
    adapt_state: dict | None = None


def _fields(obj: dict, where: str, *keys: str) -> list:
    """``obj[key]`` for each of ``keys``; a missing one raises a KeyError
    naming it as ``where + key``."""
    for key in keys:
        if key not in obj:
            raise KeyError(where + key)
    return [obj[key] for key in keys]


def _format_1_rules(doc: dict, dim: int) -> list:
    """Format 2's ``rules`` from a format-1 file: each distinct node list
    of each tensor's ``knots_per_dim``, keyed by its length."""
    rules = [{} for _ in range(dim)]
    for k, rec in enumerate(_fields(doc, "", "tensors")[0]):
        per_dim = _fields(rec, f"tensors[{k}].", "knots_per_dim")[0]
        if len(per_dim) != dim:
            raise ValueError(f"'tensors[{k}].knots_per_dim' has {len(per_dim)} node lists "
                             f"for {dim} dimensions")
        for entries, nodes in zip(rules, per_dim):
            entries.setdefault(repr(nodes), [len(nodes), nodes])
    return [list(entries.values()) for entries in rules]


def _check_rules(grid: SparseGrid, rules: list) -> None:
    """Each stored rule against its family, and every node count the grid
    uses against the stored ones."""
    if len(rules) != grid.dim:
        raise GridFileError(f"'rules' has {len(rules)} entries for {grid.dim} dimensions")
    counts = zip(*(t.m for t in grid.tensors))
    for n, (fam, entries, used) in enumerate(zip(grid.families, rules, counts), 1):
        used = set(used)
        for count, theirs in entries:
            if type(count) is not int or count not in used:
                raise GridFileError(f"'rules' holds a {count!r}-node rule of dimension {n}, "
                                    "which the grid does not use")
            ours = fam(count).nodes
            if theirs.shape != ours.shape or not np.allclose(ours, theirs, rtol=0, atol=1e-12):
                off = (f"largest deviation {np.abs(ours - theirs).max():.3g} > 1e-12"
                       if theirs.shape == ours.shape else f"{theirs.size} stored")
                raise GridFileError(
                    f"stored rule does not match: dimension {n}, "
                    f"{count} nodes of {json.dumps(fam.descriptor())}, {off}")
        missing = used - {count for count, _ in entries}
        if missing:
            raise GridFileError(f"'rules' holds no {min(missing)}-node rule of dimension {n}")


def _check_reduced(grid: SparseGrid, knots, weights, tol, values) -> ReducedGrid:
    """The reduced form of ``grid`` on the stored lattice ``tol``, carrying
    the stored knots and weights once they match it (and the values' width)."""
    if tol.shape != (grid.dim,) or not np.all(np.isfinite(tol) & (tol > 0)):
        raise GridFileError(f"reduced 'tol' is not {grid.dim} finite values above 0")
    ext_knots, ext_weights = grid.extended()
    ours = _reduce_extended(ext_knots, ext_weights, tol)
    if knots.shape != ours.knots.shape:
        raise GridFileError(f"reduced 'knots' has shape {knots.shape}, but reduced 'tol' leaves "
                            f"{ours.size} distinct knots of the grid")
    if not np.allclose(knots, ours.knots, rtol=0, atol=1e-12):
        raise GridFileError("reduced 'knots' do not match the grid's knots")
    error = np.abs(weights - ours.weights).max() if weights.shape == ours.weights.shape else np.inf
    if not error <= 1e-12 * np.abs(ext_weights).sum():
        raise GridFileError(f"reduced 'weights' are off the summed tensor weights by {error:.3g}")
    if values is not None and values.n_points != ours.size:
        raise GridFileError(f"'values' has {values.n_points} columns for {ours.size} reduced knots")
    knots.flags.writeable = weights.flags.writeable = False
    return replace(ours, knots=knots, weights=weights)


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
        "rules": [[[c, fam(c).nodes.tolist()] for c in sorted(set(counts))]
                  for fam, counts in zip(grid.families, zip(*(t.m for t in grid.tensors)))],
    }
    if reduced is not None:
        doc["reduced"] = {"knots": reduced.knots.tolist(), "weights": reduced.weights.tolist(),
                          "tol": reduced.tol.tolist()}
    if values is not None:
        doc["values"] = values.values.tolist()
    if adapt_state is not None:
        doc["adapt_state"] = adapt_state
    text = json.dumps(doc) + "\n"  # json.dump would run the pure-Python encoder
    with open(path, "w") as fh:
        fh.write(text)


def load_grid(path) -> GridBundle:
    """Read a grid file of format 2 or 1; the grid, its reduced maps and
    the rest of the derived data are rebuilt and checked against the stored
    rules, reduced knots and weights."""
    with open(path) as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GridFileError(f"malformed grid file {path}: {exc.msg} at byte {exc.pos}") from exc
    if not isinstance(doc, dict):
        raise GridFileError(f"grid file {path} is structurally invalid: not a JSON object")
    version = doc.get("format_version")
    if version not in (1, FORMAT_VERSION):
        raise GridFileError(
            f"grid file version {version!r} not supported (expected 1 or {FORMAT_VERSION})"
        )
    state = doc.get("adapt_state")
    try:
        families = tuple(family_from_descriptor(d) for d in doc["families"])
        level_map = LevelMap(doc["level_map"])
        index_set = MultiIndexSet(doc["multi_index_set"], dim=doc["dim"])
        if version == 1:
            doc["rules"] = _format_1_rules(doc, index_set.dim)
            if isinstance(state, dict):  # these follow from its other fields
                state = {k: v for k, v in state.items()
                         if k not in ("history", "num_evals", "active_dims")}
        rules = [[(c, np.asarray(nodes, dtype=float)) for c, nodes in entries]
                 for entries in doc["rules"]]
        stored = None if "reduced" not in doc else [
            np.asarray(v, dtype=float)
            for v in _fields(doc["reduced"], "reduced.", "knots", "weights", "tol")]
        values = EvaluationTable(np.asarray(doc["values"], dtype=float)) if "values" in doc else None
    except KeyError as exc:
        raise GridFileError(f"grid file {path} is structurally invalid: "
                            f"missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise GridFileError(f"grid file {path} is structurally invalid: {exc}") from exc
    grid = build_sparse_grid(index_set, families, level_map)
    _check_rules(grid, rules)
    reduced = None if stored is None else _check_reduced(grid, *stored, values)
    return GridBundle(grid=grid, reduced=reduced, values=values, adapt_state=state)


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
