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

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from ._bary import basis_matrix
from .evalkit import (EvaluationError, EvaluationTable, _active_key, _gather, _signed_sum,
                      quadrature)
from .gridio import _fields
from .grid import (
    ReducedGrid,
    SparseGrid,
    _kron_rows,
    _normalize_families,
    _tensor_product_columns,
    build_sparse_grid,
    dedup_tolerances,
    lattice_keys,
    reduce_grid,
)
from .knots import KnotFamily, Rule1D
from .levels import LevelMap, UnsupportedLevelError, apply_level_map
from .midx import (MultiIndexSet, _backward_closed, _backward_neighbours, _forward_neighbours,
                   _index_row)

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
    "StateError",
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

    ``nested`` is mandatory and must be consistent with the knot families:
    a nested run raises where a level's nodes miss some of the level below.
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
class _Level:
    """One (dimension, level) entry of a run's rule table."""

    rule: Rule1D
    key: tuple[int, int] | None  # in AdaptState.rules; None for a one-node rule
    test_nodes: np.ndarray  # the nodes new at the level if nested, else all nodes
    bases: dict  # active key of the dimension -> its basis at test_nodes


@dataclass
class AdaptState:
    """The one record of an adaptive run, each fact kept once; reusable for
    resuming."""

    dim: int
    families: tuple[KnotFamily, ...]
    level_map: LevelMap
    controls: AdaptControls
    f: Callable
    accepted: list[tuple[int, ...]] = field(default_factory=list)  # in acceptance order
    margin: dict[tuple[int, ...], _Candidate] = field(default_factory=dict)
    # lattice key -> (knot, value vector), one entry per evaluation of f
    evaluations: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    active_dims: int = 0
    tols: np.ndarray | None = None
    rules: dict = field(default_factory=dict, init=False, repr=False, compare=False)  # evalkit._active_key
    # multi-index -> value matrix of its tensor grid, from _tensor_values
    tensor_values: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # (dimension, level) -> _Level, from _level
    new_nodes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    # read-only views of the records above
    history = property(lambda self: self.accepted)
    num_evals = nb_pts_visited = property(lambda self: len(self.evaluations))

    def visible_dims(self, active: int | None = None) -> int:
        """Dimensions that may refine once ``active`` (default: the run's
        ``active_dims``) leading dimensions have refined."""
        if self.controls.var_buffer_size == 0:
            return self.dim
        active = self.active_dims if active is None else active
        return min(self.dim, active + self.controls.var_buffer_size)


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
    candidate = _index_row(candidate)
    if any(v < 1 for v in candidate):
        raise ValueError("candidate entries must be >= 1")
    out = 1
    for v in candidate:
        out *= apply_level_map(level_map, v) - (apply_level_map(level_map, v - 1) if nested else 0)
    return out


# ---------------------------------------------------------------------------
# state plumbing
# ---------------------------------------------------------------------------


def _reference_tolerances(state: AdaptState) -> np.ndarray:
    # fixed per-dimension lattice from the level-2 univariate spread, so
    # keys stay comparable as the grid grows
    if state.tols is None:
        rules = [fam(apply_level_map(state.level_map, 2)).nodes for fam in state.families]
        state.tols = dedup_tolerances(np.array([[x.min(), x.max()] for x in rules]))
    return state.tols


def _values_at(state: AdaptState, knots: np.ndarray) -> np.ndarray:
    """``evalkit._gather`` from the run's knot store."""
    keys = lattice_keys(knots, _reference_tolerances(state))
    return _gather(state.f, knots, keys, state.evaluations)


def _level(state: AdaptState, n: int, v: int) -> _Level:
    """The run's rule table entry of dimension ``n`` at level ``v``, made on
    first use."""
    entry = state.new_nodes.get((n, v))
    if entry is None:
        rule = state.families[n](apply_level_map(state.level_map, v))
        nodes = rule.nodes
        if state.controls.nested and v > 1:
            tol = _reference_tolerances(state)[n : n + 1]
            old_keys = set(lattice_keys(_level(state, n, v - 1).rule.nodes[None, :], tol))
            keys = lattice_keys(nodes[None, :], tol)
            if not old_keys.issubset(keys):
                raise ConfigurationError(f"controls say nested, but the dimension {n + 1} nodes "
                                         f"of level {v - 1} are not all among those of level {v}")
            nodes = nodes[[key not in old_keys for key in keys]]
        entry = _Level(rule, _active_key(state.rules, n, state.families[n], rule.nodes.size),
                       nodes, {})
        state.new_nodes[n, v] = entry
    return entry


def _tensor_values(state: AdaptState, idx, levels) -> np.ndarray:
    """Values on the tensor grid of ``idx`` with table entries ``levels``
    (outputs x knots), gathered once per run.  The entry is committed only
    after every value arrived, so a failing function leaves none for the
    tensor."""
    vals = state.tensor_values.get(idx)
    if vals is None:
        vals = _values_at(state, _tensor_product_columns([e.rule.nodes for e in levels]))
        state.tensor_values[idx] = vals
    return vals


def _detail_terms(state: AdaptState, candidate):
    """(sign, table entries, values) of each tensor in the candidate's
    hierarchical detail, the candidate's own tensor first."""
    # every rule first: a level beyond a tabulated family raises before f runs
    terms = [(sign, idx, [_level(state, n, v) for n, v in enumerate(idx)])
             for sign, idx in _backward_neighbours(candidate, 1)]
    return [(sign, levels, _tensor_values(state, idx, levels)) for sign, idx, levels in terms]


def error_indicator_quad(candidate, state: AdaptState) -> float:
    """Absolute quadrature change if the candidate joined the accepted set.

    Vector-valued outputs reduce with the max norm.
    """
    candidate = _index_row(candidate)
    total = None
    for sign, levels, vals in _detail_terms(state, candidate):
        q = vals @ _kron_rows([e.rule.weights[None, :] for e in levels])[0]
        total = sign * q if total is None else total + sign * q
    return float(np.max(np.abs(total)))


def error_indicator_point(candidate, state: AdaptState) -> float:
    """Max interpolant change over the testing points, optionally
    pdf-weighted.

    The testing set is the candidate's genuinely new knots for nested
    families and its full tensor grid otherwise: the tensor product of its
    table entries' test nodes.  Each rule's basis at an entry's test nodes
    is computed once per run; the testing points gather its rows.
    """
    candidate = _index_row(candidate)
    detail = _detail_terms(state, candidate)
    own = detail[0][1]
    rows = _tensor_product_columns([np.arange(e.test_nodes.size) for e in own])
    terms, bases = [], {}
    for sign, levels, vals in detail:
        keys = [e.key for e in levels if e.key is not None]
        for key in keys:
            if key not in bases:
                entry = own[key[0]]
                basis = entry.bases.get(key)
                if basis is None:
                    basis = entry.bases[key] = basis_matrix(*state.rules[key], entry.test_nodes)
                bases[key] = basis[rows[key[0]]]
        terms.append((sign, vals, keys))
    err = np.max(np.abs(_signed_sum(terms, bases, rows.shape[1])), axis=0)  # max over outputs
    if state.controls.profit.startswith("weighted"):
        test_pts = _tensor_product_columns([e.test_nodes for e in own])
        err = err * np.array([state.controls.pdf_weight(y) for y in test_pts.T])
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
    best_idx = min(state.margin, key=lambda idx: (-state.margin[idx].profit, idx))
    return best_idx, state.margin[best_idx]


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
    knots, vals = zip(*state.evaluations.values()) if state.evaluations else ((), ())
    pts = np.stack(knots, axis=1) if knots else np.empty((state.dim, 0))
    vals = np.stack(vals, axis=1) if vals else np.empty((0, 0))
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


class StateError(ValueError):
    """A serialized adaptive state that is not one consistent run."""


def _check(ok: bool, name: str, problem: str) -> None:
    if not ok:
        raise StateError(f"invalid adaptive state: field {name!r} {problem}")


def _index(row, name: str, dim: int) -> tuple[int, ...]:
    _check(isinstance(row, list) and len(row) == dim
           and all(type(v) is int and v >= 1 for v in row),
           name, f"is not a multi-index of {dim} integers >= 1")
    return tuple(row)


def _matrix(rows, name: str) -> np.ndarray:
    try:
        a = np.asarray(rows, dtype=float)
    except (TypeError, ValueError):
        a = np.empty(0)
    _check(a.ndim == 2 and np.isfinite(a).all(), name, "is not a matrix of finite numbers")
    return a


def restore_state(data: dict, families, level_map: LevelMap,
                  controls: AdaptControls, f) -> AdaptState:
    """Rebuild an AdaptState from its serialized form.

    The state keeps the record's ``nested``, ``profit`` and
    ``var_buffer_size``, so ``adapt`` rescores or widens the margin when
    the caller's differ; ``controls`` supplies the rest.  A record that is
    not one consistent run raises a StateError naming the field.
    """
    _check(isinstance(data, dict), "adapt_state", "is not an object")
    try:
        accepted, margin, history, num_evals, active, pts, vals, stored = _fields(
            data, "", "accepted", "margin", "history", "num_evals", "active_dims", "points",
            "values", "controls")
        _check(isinstance(stored, dict), "controls", "is not an object")
        nested, profit, buffer = _fields(stored, "controls.", "nested", "profit",
                                         "var_buffer_size")
        _check(isinstance(margin, list), "margin", "is not a list")
        for k, rec in enumerate(margin):
            _check(isinstance(rec, dict), f"margin[{k}]", "is not an object")
            _fields(rec, f"margin[{k}].", "idx", "error", "work", "profit")
    except KeyError as exc:
        raise StateError(f"invalid adaptive state: missing field {exc.args[0]!r}") from None
    _check(type(nested) is bool, "controls.nested", "is not true or false")
    _check(profit in PROFIT_KINDS, "controls.profit", f"is not one of {PROFIT_KINDS}")
    _check(not profit.startswith("weighted") or controls.pdf_weight is not None,
           "controls.profit", f"is {profit!r}, which needs a pdf_weight to resume")
    _check(type(buffer) is int and buffer >= 0, "controls.var_buffer_size",
           "is not an integer >= 0")
    pts, vals = _matrix(pts, "points"), _matrix(vals, "values")
    dim, size = pts.shape
    _check(vals.shape[1] == size, "values", f"has {vals.shape[1]} columns for {size} points")
    _check(num_evals == size, "num_evals", f"is {num_evals!r} for {size} points")
    try:
        families = _normalize_families(families, dim)
    except ValueError as exc:
        raise StateError(f"invalid adaptive state: field 'points' has {dim} rows: {exc}") from None
    state = AdaptState(dim=dim, families=families, level_map=LevelMap(level_map),
                       controls=replace(controls, nested=nested, profit=profit,
                                        var_buffer_size=buffer), f=f)
    keys = lattice_keys(pts, _reference_tolerances(state))
    state.evaluations = dict(zip(keys, zip(pts.T, vals.T)))
    _check(len(state.evaluations) == size, "points", "holds two knots on one lattice key")
    _check(isinstance(accepted, list) and len(accepted) > 0, "accepted", "is empty or not a list")
    state.accepted = [_index(row, f"accepted[{k}]", dim) for k, row in enumerate(accepted)]
    members = set(state.accepted)
    _check(len(members) == len(accepted) and all(_backward_closed(i, members) for i in members),
           "accepted", "is not a downward-closed set without repeats")
    _check(history == accepted, "history", "differs from 'accepted'")
    state.active_dims = max((n + 1 for idx in members for n, v in enumerate(idx) if v > 1),
                            default=0)
    _check(type(active) is int and active == state.active_dims, "active_dims",
           f"is {active!r}, but the last dimension 'accepted' refines is {state.active_dims}")
    for k, rec in enumerate(margin):
        idx = _index(rec["idx"], f"margin[{k}].idx", dim)
        _check(idx not in members and idx not in state.margin and _backward_closed(idx, members),
               f"margin[{k}].idx", "is accepted, repeated or not admissible")
        numbers = [rec[name] for name in ("error", "work", "profit")]
        _check(all(type(v) in (int, float) and np.isfinite(v) for v in numbers),
               f"margin[{k}]", "has an error, work or profit that is not a finite number")
        state.margin[idx] = _Candidate(*numbers)
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
    else:
        state = AdaptState(dim=dim, families=families, level_map=LevelMap(level_map),
                           controls=controls, f=f)
    try:
        # new controls act on a copy with fresh tables; margin and controls commit together
        trial, margin = replace(state, controls=controls), state.margin
        if (controls.nested, controls.profit) != (state.controls.nested, state.controls.profit):
            margin = {cand: _profit_of(trial, cand) for cand in margin}  # error and work use both
        if trial.visible_dims() > state.visible_dims():
            # a wider window: the margin grows around every accepted index, as in the loop
            members = set(state.accepted)
            margin.update(_margin_additions(trial, members, trial.visible_dims(), list(members)))
        state.controls, state.margin = controls, margin
        state.new_nodes.clear()  # test nodes depend on nested
        if not state.accepted:
            root = (1,) * dim
            _detail_terms(state, root)  # the root's detail is its own tensor
            additions = _margin_additions(state, {root}, state.visible_dims(), [root])
            state.accepted.append(root)
            state.margin.update(additions)
        # this call's own set: a resume rebuilds it from state.accepted
        accepted = set(state.accepted)
        while state.margin:
            best_idx, best = _select_best(state)
            if best.profit <= state.controls.prof_tol:
                break
            if state.nb_pts_visited > state.controls.max_pts:
                break
            # compute the margin extension before committing anything to the
            # state, so a failing function evaluation leaves it resumable
            accepted.add(best_idx)
            active = max([state.active_dims] + [n + 1 for n, v in enumerate(best_idx) if v > 1])
            visible = state.visible_dims(active)
            slid = visible > state.visible_dims()
            # a fresh set's iteration order, which fixes the order of the
            # margin and of the points in the grid file
            around = list(set(state.accepted) | {best_idx}) if slid else [best_idx]
            additions = _margin_additions(state, accepted, visible, around)
            del state.margin[best_idx]
            state.accepted.append(best_idx)
            state.active_dims = active
            state.margin.update(additions)
    except EvaluationError as exc:
        raise AdaptEvaluationError(state, exc) from exc
    return _assemble_result(state)
