"""Combination-technique sparse grids for interpolation, quadrature, and UQ."""

from .knots import (
    DistributionSpec,
    KnotFamily,
    Rule1D,
    cc_family,
    cc_knots,
    family_from_descriptor,
    gauss_family,
    gauss_knots,
    gk_family,
    gk_knots,
    leja_family,
    leja_knots,
    midpoint_family,
    midpoint_knots,
    trap_family,
    trap_knots,
    weighted_leja_family,
    weighted_leja_knots,
)
from .levels import LevelMap, apply_level_map
from .midx import (
    MultiIndexSet,
    box_set,
    combination_coefficients,
    fast_td_set,
    generate_rule_set,
    is_downward_closed,
    preset,
    reduced_margin,
)
from .grid import (
    ReducedGrid,
    SparseGrid,
    TensorGrid,
    add_one_index,
    build_sparse_grid,
    build_sparse_grid_from_rule,
    build_tensor_grid,
    quick_preset,
    reduce_grid,
)
from .evalkit import (
    Domain,
    EvaluationTable,
    Interpolant,
    evaluate_on_grid,
    gradient,
    hessian,
    interpolate,
    quadrature,
    vectorized,
)
from .adaptive import (
    AdaptControls,
    AdaptResult,
    adapt,
    error_indicator_point,
    error_indicator_quad,
    work_indicator,
)
from .pce import PCExpansion, convert_to_modal, eval_orthonormal, evaluate_pce, sobol_indices
from .gridio import load_grid, save_grid, export_points

__version__ = "0.1.0"
