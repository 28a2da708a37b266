"""A-posteriori adaptive sparse-grid construction.

The algorithm grows a downward-closed multi-index set greedily: starting
from the root index, it repeatedly promotes the reduced-margin candidate
with the largest profit (error indicator, optionally divided by a work
indicator).  A candidate's error indicator measures its hierarchical
detail, the tensor product of its levels' 1D details, which only
involves the tensor grids below it and is therefore fixed once the
candidate enters the margin.  It is one product of the values on the
candidate's box (``_box_values``, a cache that a resume refills without
calling f) with the Kronecker product of its levels' detail rows
(``_level``), applied one dimension at a time.  Each dimension's box axis
holds the level below's nodes, then the nodes the level adds: the new
ones for nested families, all of the level's own otherwise, so that the
box is the union of the 2^k tensor grids the detail sums.
The returned grid covers the accepted set and its reduced margin,
fully evaluated.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from ._bary import basis_matrix
from .evalkit import EvaluationError, EvaluationTable, _gather, quadrature
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
from .midx import MultiIndexSet, _backward_closed, _forward_neighbours, _index_row

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
    """One (dimension, level) entry of a run's node table: the level's box
    axis.  Its first positions hold the last m(v - 1) of the level below's
    axis, the rest are ``x``: the nodes new at the level for nested
    families, all of its nodes otherwise.  The rule's nodes are the last
    m(v) of the axis, in the order ``order``."""

    rule: Rule1D
    order: np.ndarray  # the rule's node positions, in axis order
    x: np.ndarray  # the nodes the level adds to its axis
    # one row per node of x: a function's value there minus the level
    # below's interpolant there, as weights of its values on the axis
    detail: np.ndarray
    dweights: np.ndarray  # axis: the rule's weights minus those of the level below


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
    # caches, not serialized
    # (dimension, level) -> _Level, from _level; its axis layout follows controls.nested
    levels: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # multi-index -> values on its box in axis order, from _box_values; follows levels
    box_values: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
    candidate = np.array(_index_row(candidate), dtype=np.int64)
    if np.any(candidate < 1):
        raise ValueError("candidate entries must be >= 1")
    counts = apply_level_map(level_map, candidate)
    if nested:
        counts -= apply_level_map(level_map, candidate - 1)
    # Python ints: the product of many counts overflows int64
    return math.prod(counts.tolist())


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
    """The node table entry of dimension ``n`` at level ``v``, made on
    first use, after the level below."""
    entry = state.levels.get((n, v))
    if entry is None:
        family = state.families[n]
        rule = family(apply_level_map(state.level_map, v))
        m = rule.nodes.size
        family._barycentric(m)  # the duplicate-node check
        fresh = order = np.arange(m)
        if v == 1:
            detail, dweights = np.eye(m), rule.weights
        else:
            low = _level(state, n, v - 1)
            k = low.rule.nodes.size
            if state.controls.nested:
                tol = _reference_tolerances(state)[n : n + 1]
                where = {key: p for p, key in enumerate(lattice_keys(rule.nodes[None, :], tol))}
                old = [where.get(key) for key in lattice_keys(low.rule.nodes[low.order][None, :],
                                                              tol)]
                if None in old:
                    raise ConfigurationError(f"controls say nested, but the dimension {n + 1} "
                                             f"nodes of level {v - 1} are not all among those "
                                             f"of level {v}")
                new = np.ones(m, dtype=bool)
                new[old] = False
                fresh = np.flatnonzero(new)
                order = np.concatenate([old, fresh])
            # the level below's Lagrange basis at x, in its axis order
            basis = basis_matrix(*family._barycentric(k), rule.nodes[fresh])[:, low.order]
            detail = np.hstack([-basis, np.eye(fresh.size)])
            size = k + fresh.size
            dweights = (np.pad(rule.weights[order], (size - m, 0))
                        - np.pad(low.rule.weights[low.order], (0, size - k)))
        entry = state.levels[n, v] = _Level(rule, order, rule.nodes[fresh], detail, dweights)
    return entry


def _box_values(state: AdaptState, idx, levels) -> np.ndarray:
    """Values on the box of ``idx`` with table entries ``levels``, in axis
    order (outputs x knots, first dimension fastest), stored once per run.
    Only the corner of the ``x`` nodes is gathered; the rest is copied from
    the boxes just below, which a fresh store (a resume) first fills from
    the stored values."""
    store = state.box_values
    vals = store.get(idx)
    if vals is not None:
        return vals
    below = [(n, idx[:n] + (v - 1,) + idx[n + 1:]) for n, v in enumerate(idx) if v > 1]
    if any(low not in store for _, low in below):
        # a fresh store: every index below, each after those below it
        box = _tensor_product_columns([np.arange(1, v + 1) for v in idx])
        for low in map(tuple, box.T[:-1].tolist()):
            if low not in store:
                _box_values(state, low, [_level(state, n, v) for n, v in enumerate(low)])
    own = _values_at(state, _tensor_product_columns([e.x for e in levels]))
    # the last dimension first, so that the first varies fastest
    vals = np.empty((own.shape[0], *(e.dweights.size for e in reversed(levels))))
    for n, low in below:
        # the first k positions of the axis are the last k of the level below's
        k = levels[n].dweights.size - levels[n].x.size
        part, take, shape = [slice(None)] * vals.ndim, [slice(None)] * vals.ndim, list(vals.shape)
        part[-1 - n], take[-1 - n], shape[-1 - n] = slice(k), slice(-k, None), -1
        vals[tuple(part)] = store[low].reshape(shape)[tuple(take)]
    corner = tuple(slice(e.dweights.size - e.x.size, None) for e in reversed(levels))
    vals[(slice(None),) + corner] = own.reshape(vals[(slice(None),) + corner].shape)
    vals = store[idx] = vals.reshape(own.shape[0], -1)
    return vals


def _terms(state: AdaptState, candidate) -> tuple[list[_Level], np.ndarray]:
    """The candidate's table entries and the values on its box: a fixed
    function of the candidate and the stored values, however the store
    was filled."""
    # every rule first: a level beyond a tabulated family raises before f runs
    levels = [_level(state, n, v) for n, v in enumerate(candidate)]
    return levels, _box_values(state, candidate, levels)


def error_indicator_quad(candidate, state: AdaptState) -> float:
    """Absolute quadrature change if the candidate joined the accepted set.

    Vector-valued outputs reduce with the max norm.  The change is the
    candidate's box values against the Kronecker product of its levels'
    weight differences, for every rule, interpolatory or not.
    """
    levels, vals = _terms(state, _index_row(candidate))
    total = vals @ _kron_rows([e.dweights[None, :] for e in levels])[0]
    return float(np.max(np.abs(total)))


def error_indicator_point(candidate, state: AdaptState) -> float:
    """Max interpolant change over the testing points, optionally
    pdf-weighted.

    The testing points are the tensor product of the levels' ``x``: the
    candidate's new knots for nested families, its whole tensor grid
    otherwise.  The change there is the hierarchical detail (module
    docstring), which weighs each lower rule's Lagrange basis once, so it
    carries that basis's round-off where new nodes leave a lower rule's
    hull.
    """
    levels, vals = _terms(state, _index_row(candidate))
    # one dimension at a time: contract the fastest axis with its detail
    # rows and move the result to the slowest
    s = vals
    for e in levels:
        s = (s.reshape(-1, e.dweights.size) @ e.detail.T).T
    err = np.abs(s.reshape(-1, vals.shape[0])).max(axis=1)  # max over outputs
    if state.controls.profit.startswith("weighted"):
        test_pts = _tensor_product_columns([e.x for e in levels])
        err = err * np.array([state.controls.pdf_weight(y) for y in test_pts.T])
    return float(np.max(err))


def _profit_of(state: AdaptState, candidate) -> _Candidate:
    kind = state.controls.profit
    if kind.startswith("deltaint"):
        err = error_indicator_quad(candidate, state)
    else:
        err = error_indicator_point(candidate, state)
    # work_indicator: the knots the candidate adds, the new ones if nested
    work = math.prod(_level(state, n, v).x.size for n, v in enumerate(candidate))
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
        accepted, margin, pts, vals, stored = _fields(
            data, "", "accepted", "margin", "points", "values", "controls")
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
    state.active_dims = max((n + 1 for idx in members for n, v in enumerate(idx) if v > 1),
                            default=0)
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

    A resume takes the values stored in ``previous`` as values of ``f``:
    the library cannot know a function's identity, so resuming under
    another function mixes the two without a word.  The CLI records its
    ``--fn`` name with the state and refuses such a resume.
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
        # new controls act on a copy that shares the records and caches;
        # margin, controls and the caches that follow nested commit together
        trial, margin = copy.copy(state), state.margin
        trial.controls = controls
        if controls.nested != state.controls.nested:
            trial.levels, trial.box_values = {}, {}
        if (controls.nested, controls.profit) != (state.controls.nested, state.controls.profit):
            margin = {cand: _profit_of(trial, cand) for cand in margin}  # error and work use both
        if trial.visible_dims() > state.visible_dims():
            # a wider window: the margin grows around every accepted index, as in the loop
            members = set(state.accepted)
            margin.update(_margin_additions(trial, members, trial.visible_dims(), list(members)))
        state.controls, state.margin = controls, margin
        state.levels, state.box_values = trial.levels, trial.box_values
        if not state.accepted:
            root = (1,) * dim
            # f runs at the root's knots first
            _values_at(state, _tensor_product_columns(
                [fam(apply_level_map(state.level_map, 1)).nodes for fam in state.families]))
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
