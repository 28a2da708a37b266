"""A-posteriori adaptive sparse-grid construction.

The algorithm grows a downward-closed multi-index set greedily: starting
from the root index, it repeatedly promotes the reduced-margin candidate
with the largest profit (error indicator, optionally divided by a work
indicator).  Error indicators are computed through the hierarchical detail
operator of each candidate, which only involves tensor grids below it and
is therefore fixed once the candidate enters the margin.  The returned
grid is built over the accepted set united with its reduced margin, since
all those evaluations are available anyway.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .evalkit import EvaluationTable, _call_f, _rule_key, quadrature
from .grid import (
    ReducedGrid,
    SparseGrid,
    _kron_rows,
    _normalize_families,
    _tensor_product_columns,
    build_sparse_grid,
    build_tensor_grid,
    dedup_tolerances,
    lattice_keys,
    reduce_grid,
)
from .knots import KnotFamily
from .levels import LevelMap, UnsupportedLevelError, apply_level_map
from .midx import MultiIndexSet, _backward_closed, _forward_neighbours, _signed_neighbours
from ._bary import basis_matrix

__all__ = [
    "AdaptControls",
    "AdaptResult",
    "AdaptState",
    "AdaptEvaluationError",
    "adapt",
    "error_indicator_quad",
    "error_indicator_point",
    "work_indicator",
    "serialize_state",
    "restore_state",
]

PROFIT_KINDS = (
    "deltaint",
    "deltaint_per_new_points",
    "Linf",
    "Linf_per_new_points",
    "weighted_Linf",
    "weighted_Linf_per_new_points",
)


class ConfigurationError(ValueError):
    pass


class AdaptEvaluationError(RuntimeError):
    """The target function failed mid-run; ``state`` resumes the loop."""

    def __init__(self, state, cause):
        super().__init__(f"function evaluation failed during adaptation: {cause}")
        self.state = state
        self.cause = cause


@dataclass
class AdaptControls:
    """Controls of the adaptive loop.

    ``nested`` is mandatory and must be consistent with the knot families.
    ``pdf_weight`` is required by the weighted profits.  ``var_buffer_size``
    of zero disables dimension buffering.
    """

    nested: bool
    profit: str = "Linf_per_new_points"
    pdf_weight: Callable[[np.ndarray], float] | None = None
    max_pts: int = 1000
    prof_tol: float = 1e-14
    var_buffer_size: int = 0

    def __post_init__(self):
        if self.profit not in PROFIT_KINDS:
            raise ConfigurationError(
                f"unknown profit {self.profit!r}; choose from {PROFIT_KINDS}"
            )
        if self.profit.startswith("weighted") and self.pdf_weight is None:
            raise ConfigurationError("weighted profits require pdf_weight")
        if self.max_pts < 1:
            raise ConfigurationError("max_pts must be >= 1")
        if self.prof_tol < 0:
            raise ConfigurationError("prof_tol must be >= 0")
        if self.var_buffer_size < 0:
            raise ConfigurationError("var_buffer_size must be >= 0")


@dataclass
class _Candidate:
    error: float
    work: int
    profit: float


@dataclass
class AdaptState:
    """Mutable internals of one adaptive run; reusable for resuming."""

    dim: int
    families: tuple[KnotFamily, ...]
    level_map: LevelMap
    controls: AdaptControls
    f: Callable
    accepted: list[tuple[int, ...]] = field(default_factory=list)
    margin: dict[tuple[int, ...], _Candidate] = field(default_factory=dict)
    points: dict[tuple[int, ...], np.ndarray] = field(default_factory=dict)
    values: dict[tuple[int, ...], np.ndarray] = field(default_factory=dict)
    history: list[tuple[int, ...]] = field(default_factory=list)
    num_evals: int = 0
    active_dims: int = 0
    tols: np.ndarray | None = None
    rules: dict = field(default_factory=dict, init=False, repr=False, compare=False)  # evalkit._rule_key

    @property
    def nb_pts_visited(self) -> int:
        return len(self.points)

    def visible_dims(self) -> int:
        if self.controls.var_buffer_size == 0:
            return self.dim
        return min(self.dim, self.active_dims + self.controls.var_buffer_size)


@dataclass
class AdaptResult:
    """Outcome of an adaptive run; ``internal`` allows resuming."""

    dim: int
    extended: SparseGrid
    reduced: ReducedGrid
    values_on_reduced: EvaluationTable
    nb_pts: int
    nested: bool
    nb_pts_visited: int
    num_evals: int
    intf: np.ndarray
    internal: AdaptState


def work_indicator(candidate, nested: bool, level_map: LevelMap) -> int:
    """Estimated number of new evaluations a candidate index costs.

    Exact for nested families; a worst-case upper bound otherwise.
    """
    candidate = tuple(int(v) for v in candidate)
    if any(v < 1 for v in candidate):
        raise ValueError("candidate entries must be >= 1")
    if nested:
        out = 1
        for v in candidate:
            out *= apply_level_map(level_map, v) - apply_level_map(level_map, v - 1)
        return out
    out = 1
    for v in candidate:
        out *= apply_level_map(level_map, v)
    return out


# ---------------------------------------------------------------------------
# state plumbing
# ---------------------------------------------------------------------------


def _reference_tolerances(state: AdaptState) -> np.ndarray:
    # fixed per-dimension lattice from the level-2 univariate spread, so
    # keys stay comparable as the grid grows
    if state.tols is None:
        spreads = []
        for fam in state.families:
            nodes = fam(apply_level_map(state.level_map, 2)).nodes
            spreads.append(np.array([[nodes.min()], [nodes.max()]]))
        probe = np.concatenate(spreads, axis=1).T
        state.tols = dedup_tolerances(probe)
    return state.tols


def _values_at(state: AdaptState, knots: np.ndarray) -> np.ndarray:
    """Values at the knot columns (outputs x knots), calling f only where
    no value is cached.

    The cache entry is committed only after a successful evaluation, so a
    failing function leaves the state resumable.
    """
    cols = []
    for key, col in zip(lattice_keys(knots, _reference_tolerances(state)), knots.T):
        if key not in state.values:
            state.values[key] = _call_f(state.f, col)
            state.points[key] = col.copy()
            state.num_evals += 1
        cols.append(state.values[key])
    return np.stack(cols, axis=1)


def _tensor_rule(state: AdaptState, idx):
    return build_tensor_grid(idx, state.families, state.level_map, coeff=1)


def _detail_terms(state: AdaptState, candidate):
    """(sign, tensor) pairs of the candidate's hierarchical detail."""
    return [(sign, _tensor_rule(state, neighbor))
            for sign, neighbor in _signed_neighbours(candidate, lambda i: min(i) >= 1, -1)]


def _new_knots_of(state: AdaptState, candidate) -> np.ndarray:
    """Hierarchy surplus points of a nested candidate: the tensor product
    of per-dimension nodes new at each level."""
    tols = _reference_tolerances(state)
    per_dim = []
    for n, v in enumerate(candidate):
        nodes = state.families[n](apply_level_map(state.level_map, v)).nodes
        prev_count = apply_level_map(state.level_map, v - 1)
        if prev_count:
            tol = tols[n : n + 1]
            old_keys = set(lattice_keys(state.families[n](prev_count).nodes[None, :], tol))
            nodes = nodes[[key not in old_keys for key in lattice_keys(nodes[None, :], tol)]]
        per_dim.append(nodes)
    return _tensor_product_columns(per_dim)


def error_indicator_quad(candidate, state: AdaptState) -> float:
    """Absolute quadrature change if the candidate joined the accepted set.

    Vector-valued outputs reduce with the max norm.
    """
    candidate = tuple(int(v) for v in candidate)
    total = None
    for sign, tensor in _detail_terms(state, candidate):
        vals = _values_at(state, tensor.knots)
        q = vals @ tensor.weights
        total = sign * q if total is None else total + sign * q
    return float(np.max(np.abs(total)))


def error_indicator_point(candidate, state: AdaptState) -> float:
    """Max interpolant change over the testing points, optionally
    pdf-weighted.

    The testing set is the candidate's genuinely new knots for nested
    families and its full tensor grid otherwise.
    """
    candidate = tuple(int(v) for v in candidate)
    if state.controls.nested:
        test_pts = _new_knots_of(state, candidate)
    else:
        test_pts = _tensor_rule(state, candidate).knots
    bases = {}  # the detail terms share two 1D rules per dimension
    delta = None
    for sign, tensor in _detail_terms(state, candidate):
        vals = _values_at(state, tensor.knots)
        keys = [_rule_key(state.rules, n, nodes) for n, nodes in enumerate(tensor.knots_per_dim)]
        for key in keys:
            if key not in bases:
                nodes, bw = state.rules[key]
                bases[key] = basis_matrix(nodes, bw, test_pts[key[0]])
        term = sign * (vals @ _kron_rows([bases[key] for key in keys]).T)
        delta = term if delta is None else delta + term
    err = np.max(np.abs(delta), axis=0)  # max over outputs
    if state.controls.profit.startswith("weighted"):
        xi = np.atleast_1d(
            np.asarray([state.controls.pdf_weight(test_pts[:, q]) for q in range(test_pts.shape[1])])
        )
        err = err * xi
    return float(np.max(err))


def _profit_of(state: AdaptState, candidate) -> _Candidate:
    kind = state.controls.profit
    if kind.startswith("deltaint"):
        err = error_indicator_quad(candidate, state)
    else:
        err = error_indicator_point(candidate, state)
    work = work_indicator(candidate, state.controls.nested, state.level_map)
    profit = err / work if kind.endswith("per_new_points") else err
    return _Candidate(error=err, work=work, profit=profit)


def _margin_additions(state: AdaptState, accepted: set, visible: int, around_list):
    """Profits of the newly admissible forward neighbors.

    Pure computation (except for caching function values), so a failure of
    the target function leaves the margin and accepted set untouched.
    """
    out = {}
    for around in around_list:
        for cand in _forward_neighbours(around, visible):
            if cand in accepted or cand in state.margin or cand in out:
                continue
            if _backward_closed(cand, accepted):
                try:
                    out[cand] = _profit_of(state, cand)
                except UnsupportedLevelError:
                    # tabulated families run out of levels: refinement
                    # saturates in that direction instead of failing
                    continue
    return out


def _select_best(state: AdaptState):
    """Margin candidate with maximal profit; ties break lexicographically."""
    best_idx, best = None, None
    for idx in sorted(state.margin):
        cand = state.margin[idx]
        if best is None or cand.profit > best.profit:
            best_idx, best = idx, cand
    return best_idx, best


def _assemble_result(state: AdaptState) -> AdaptResult:
    full = MultiIndexSet(state.accepted + list(state.margin), dim=state.dim)
    grid = build_sparse_grid(full, state.families, state.level_map)
    reduced = reduce_grid(grid)
    values = EvaluationTable(_values_at(state, reduced.knots))
    intf = quadrature(values, reduced)
    return AdaptResult(
        dim=state.dim,
        extended=grid,
        reduced=reduced,
        values_on_reduced=values,
        nb_pts=reduced.size,
        nested=state.controls.nested,
        nb_pts_visited=state.nb_pts_visited,
        num_evals=state.num_evals,
        intf=intf,
        internal=state,
    )


def serialize_state(state: AdaptState) -> dict:
    """JSON-ready snapshot of an adaptive run (without f and pdf_weight)."""
    pts = np.stack(list(state.points.values()), axis=1) if state.points else np.empty((state.dim, 0))
    vals = np.stack(list(state.values.values()), axis=1) if state.values else np.empty((0, 0))
    return {
        "accepted": [list(i) for i in state.accepted],
        "margin": [
            {"idx": list(i), "error": c.error, "work": c.work, "profit": c.profit}
            for i, c in state.margin.items()
        ],
        "history": [list(i) for i in state.history],
        "num_evals": state.num_evals,
        "active_dims": state.active_dims,
        "points": pts.tolist(),
        "values": vals.tolist(),
        "controls": {
            "nested": state.controls.nested,
            "profit": state.controls.profit,
            "max_pts": state.controls.max_pts,
            "prof_tol": state.controls.prof_tol,
            "var_buffer_size": state.controls.var_buffer_size,
        },
    }


def restore_state(data: dict, families, level_map: LevelMap,
                  controls: AdaptControls, f) -> AdaptState:
    """Rebuild an AdaptState from its serialized form."""
    pts = np.asarray(data["points"], dtype=float)
    dim = pts.shape[0]
    state = AdaptState(dim=dim, families=_normalize_families(families, dim),
                       level_map=LevelMap(level_map), controls=controls, f=f)
    vals = np.asarray(data["values"], dtype=float)
    keys = lattice_keys(pts, _reference_tolerances(state))
    for key, point, value in zip(keys, pts.T, vals.T, strict=True):
        state.points[key] = point
        state.values[key] = value
    state.accepted = [tuple(i) for i in data["accepted"]]
    state.margin = {
        tuple(rec["idx"]): _Candidate(rec["error"], rec["work"], rec["profit"])
        for rec in data["margin"]
    }
    state.history = [tuple(i) for i in data["history"]]
    state.num_evals = data["num_evals"]
    state.active_dims = data["active_dims"]
    return state


def adapt(
    f,
    dim: int,
    families,
    level_map: LevelMap,
    previous: AdaptResult | AdaptState | None = None,
    controls: AdaptControls | None = None,
) -> AdaptResult:
    """Adaptively build a sparse-grid approximation of ``f``.

    Starting from the root index (or from ``previous``), the candidate with
    the largest profit moves from the reduced margin into the accepted set
    until every margin profit drops to ``prof_tol`` or the visited-point
    budget ``max_pts`` is exhausted.  ``f`` is evaluated only at knots not
    seen before.  With buffering enabled, only the leading
    (active + var_buffer_size) dimensions may refine.
    """
    if controls is None:
        raise ConfigurationError("adapt requires controls with the nested flag set")
    families = _normalize_families(families, dim)
    if previous is not None:
        state = previous if isinstance(previous, AdaptState) else previous.internal
        have = (state.dim, tuple(state.families), LevelMap(state.level_map))
        wanted = (dim, families, LevelMap(level_map))
        if have != wanted:
            raise ConfigurationError(f"cannot resume a run on (dim, families, level map) "
                                     f"{have} as {wanted}")
        state.f = f
        old_controls = state.controls
        state.controls = controls
        if controls.profit != old_controls.profit:
            for cand in state.margin:
                state.margin[cand] = _profit_of(state, cand)
    else:
        state = AdaptState(dim=dim, families=families, level_map=LevelMap(level_map),
                           controls=controls, f=f)
    try:
        if not state.accepted:
            root = (1,) * dim
            _values_at(state, _tensor_rule(state, root).knots)
            additions = _margin_additions(state, {root}, state.visible_dims(), [root])
            state.accepted.append(root)
            state.history.append(root)
            state.margin.update(additions)
        while True:
            if not state.margin:
                break
            best_idx, best = _select_best(state)
            if best.profit <= state.controls.prof_tol:
                break
            if state.nb_pts_visited > state.controls.max_pts:
                break
            # compute the margin extension before committing anything, so
            # a failing function evaluation leaves a resumable state
            accepted = set(state.accepted) | {best_idx}
            active = state.active_dims
            if any(v > 1 for v in best_idx):
                active = max(active, max(n + 1 for n, v in enumerate(best_idx) if v > 1))
            buffer_size = state.controls.var_buffer_size
            visible = state.dim if buffer_size == 0 else min(state.dim, active + buffer_size)
            slid = visible > state.visible_dims()
            around = list(accepted) if slid else [best_idx]
            additions = _margin_additions(state, accepted, visible, around)
            del state.margin[best_idx]
            state.accepted.append(best_idx)
            state.history.append(best_idx)
            state.active_dims = active
            state.margin.update(additions)
    except (ConfigurationError, KeyboardInterrupt):
        raise
    except Exception as exc:
        raise AdaptEvaluationError(state, exc) from exc
    return _assemble_result(state)
