"""Command-line interface.

Every subcommand is a thin composition of library calls; no numerical
logic lives here.  Exit codes: 0 success, 1 user error, 2 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial

import numpy as np

from . import adaptive, gridio, uqdemo
from .adaptive import AdaptControls, adapt
from .evalkit import Domain, evaluate_on_grid, quadrature
from .grid import build_sparse_grid_from_rule, reduce_grid
from .gridio import GridBundle, _sample_cuts, _write_csv, export_points, load_grid, save_grid
from .knots import (
    DistributionSpec,
    cc_family,
    gauss_family,
    gk_family,
    leja_family,
    midpoint_family,
    trap_family,
    weighted_leja_family,
)
from .levels import LevelMap
from .midx import preset
from .pce import convert_to_modal, sobol_indices
from .testfunctions import get_test_function

__all__ = ["cli_main", "main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_domain(text: str, dim: int) -> list[tuple[float, float]]:
    parts = text.split("x")
    if len(parts) == 1 and dim > 1:
        parts = parts * dim
    if len(parts) != dim:
        raise UsageError(f"--domain needs {dim} comma-separated intervals joined by 'x'")
    out = []
    for part in parts:
        try:
            a, b = (float(v) for v in part.split(","))
        except ValueError:
            raise UsageError(f"bad interval {part!r} in --domain") from None
        out.append((a, b))
    return out


# --knots name -> (family factory, True if it takes each --domain interval
# (a, b), False if it takes the normal distribution of --mu and --sigma)
_KNOTS = {
    "cc": (cc_family, True),
    "leja": (partial(leja_family, variant="standard"), True),
    "leja-sym": (partial(leja_family, variant="symmetric"), True),
    "leja-pdisk": (partial(leja_family, variant="p_disk"), True),
    "trap": (trap_family, True),
    "midpoint": (midpoint_family, True),
    "gauss-legendre": (lambda a, b: gauss_family(DistributionSpec.uniform(a, b)), True),
    "gauss-hermite": (gauss_family, False),
    "gk": (lambda dist: gk_family(), False),
    "wleja-normal": (partial(weighted_leja_family, variant="standard"), False),
    "wleja-normal-sym": (partial(weighted_leja_family, variant="symmetric"), False),
}


def _families(args, dim: int):
    factory, on_domain = _KNOTS[args.knots]
    for opt in ("mu", "sigma") if on_domain else ("domain",):
        if getattr(args, opt) is not None:
            raise UsageError(f"--{opt} does not apply to --knots {args.knots}")
    if on_domain:
        domain = "-1,1" if args.domain is None else args.domain
        return tuple(factory(a, b) for a, b in _parse_domain(domain, dim))
    dist = DistributionSpec.normal(0.0 if args.mu is None else args.mu,
                                   1.0 if args.sigma is None else args.sigma)
    if args.knots == "gk" and dist.params != (0.0, 1.0):
        raise UsageError("gk knots are tabulated for the standard normal only")
    return (factory(dist),) * dim


def _add_knot_args(p):
    p.add_argument("--knots", default="cc", choices=_KNOTS, help="knot family (default cc)")
    p.add_argument("--domain", default=None,
                   help="per-dim intervals of the interval families (default -1,1), e.g. "
                        "0,1x0,1; write --domain=-2,1 when the first value is negative")
    p.add_argument("--mu", type=float, default=None, help="normal mean (default 0)")
    p.add_argument("--sigma", type=float, default=None, help="normal std (default 1)")


def _cmd_build(args) -> int:
    if args.g is not None and len(args.g) != args.dim:
        raise UsageError(f"--g has {len(args.g)} weights, but --dim is {args.dim}")
    rule, level_map = preset(args.preset, args.g)
    if args.lev2knots:
        level_map = LevelMap(args.lev2knots)
    fams = _families(args, args.dim)
    grid = build_sparse_grid_from_rule(args.dim, args.w, fams, level_map, rule)
    save_grid(args.output, grid)
    print(f"built grid: dim={grid.dim} tensors={len(grid.tensors)} "
          f"extended={grid.extended_size}")
    return 0


def _cmd_reduce(args) -> int:
    bundle = load_grid(args.grid)
    reduced = reduce_grid(bundle.grid)
    save_grid(args.grid, bundle.grid, reduced, bundle.values, bundle.adapt_state)
    print(f"reduced size: {reduced.size}")
    return 0


def _grid(args, evaluate=True, export=False) -> GridBundle:
    """Load --grid, reduce it unless the file holds the reduced form, and put
    the values of --fn on the reduced knots into ``bundle.values``: always
    if ``evaluate`` is True, only when the file stores none if it is None.
    With ``export``, --res and --cuts are checked against the grid first."""
    bundle = load_grid(args.grid)
    if export:
        _sample_cuts(bundle.grid.dim, args.res, _parse_cuts(args.cuts))
    if bundle.reduced is None:
        bundle.reduced = reduce_grid(bundle.grid)
    if evaluate or (evaluate is None and bundle.values is None):
        if not args.fn:
            raise UsageError("interp_samples needs stored values or --fn")
        bundle.values = evaluate_on_grid(get_test_function(args.fn), bundle.reduced)
    return bundle


def _cmd_quad(args) -> int:
    bundle = _grid(args)
    q = quadrature(bundle.values, bundle.reduced)
    print(" ".join(repr(float(v)) for v in q))
    if args.output:
        save_grid(args.output, bundle.grid, bundle.reduced, bundle.values)
    if args.csv:
        _write_csv(args.csv, ["component", "value"], enumerate(q, start=1))
    return 0


def _cmd_interp(args) -> int:
    export_points(_grid(args, export=True), "interp_samples", args.output, resolution=args.res,
                  cuts=_parse_cuts(args.cuts))
    print(f"wrote {args.output}")
    return 0


def _parse_cuts(text):
    if not text:
        return None
    return [tuple(int(v) for v in part.split(",")) for part in text.split("x")]


def _cmd_adapt(args) -> int:
    fams = _families(args, args.dim)
    controls = AdaptControls(
        nested=args.nested,
        profit=args.prof,
        max_pts=args.max_pts,
        prof_tol=args.prof_tol,
        var_buffer_size=args.buffer,
    )
    f = get_test_function(args.fn)
    level_map = LevelMap(args.lev2knots)
    previous = None
    if args.resume:
        prev_bundle = load_grid(args.resume)
        if prev_bundle.adapt_state is None:
            raise UsageError(f"{args.resume} carries no adaptive state")
        stored = prev_bundle.grid
        if (stored.families, stored.level_map) != (fams, level_map):
            raise UsageError(f"--dim/--knots/--domain/--lev2knots do not match {args.resume}: "
                             f"{list(stored.families)}, {stored.level_map.value}")
        previous = adaptive.restore_state(prev_bundle.adapt_state, fams, level_map,
                                          controls, f)
    result = adapt(f, args.dim, fams, level_map, previous=previous, controls=controls)
    save_grid(args.output, result.extended, result.reduced, result.values_on_reduced,
              adaptive.serialize_state(result.internal))
    print(f"points: {result.nb_pts}  evaluations: {result.num_evals}  "
          f"integral: {' '.join(repr(float(v)) for v in result.intf)}")
    return 0


def _cmd_pce(args) -> int:
    bundle = _grid(args)
    domain = Domain(gridio.default_domain(bundle.grid))
    expansion = convert_to_modal(bundle.grid, bundle.reduced, bundle.values, domain, args.family)
    degrees = expansion.lambda_set.rows
    order = np.lexsort(tuple(degrees[:, n] for n in reversed(range(degrees.shape[1]))) + (degrees.sum(axis=1),))
    header = [f"p{n + 1}" for n in range(degrees.shape[1])] + ["coeff"]
    _write_csv(args.output, header,
               (list(degrees[i]) + [expansion.coeffs[0, i]] for i in order))
    print(f"wrote {len(order)} coefficients to {args.output}")
    return 0


def _cmd_sobol(args) -> int:
    if args.demo:
        if args.family is not None:
            raise UsageError("--family does not apply to sobol --demo")
        if args.grid is not None or args.fn is not None:
            raise UsageError("--grid and --fn do not apply to sobol --demo")
        model = uqdemo.DiffusionModel(n_random=2, sigmas=(0.5, 0.1), mesh=args.mesh)
        report = uqdemo.forward_uq(model, uqdemo.ForwardConfig(w=args.w))
        principal, total = report.sobol_principal, report.sobol_total
    else:
        if not args.grid or not args.fn:
            raise UsageError("sobol needs --grid and --fn (or --demo)")
        bundle = _grid(args)
        domain = Domain(gridio.default_domain(bundle.grid))
        principal, total = sobol_indices(bundle.grid, bundle.reduced, bundle.values, domain,
                                         args.family or "legendre")
    print("principal: " + " ".join(f"{v:.4f}" for v in principal))
    print("total:     " + " ".join(f"{v:.4f}" for v in total))
    return 0


def _cmd_export(args) -> int:
    bundle = _grid(args, evaluate=None if args.what == "interp_samples" else False, export=True)
    dims = tuple(int(v) for v in args.dims.split(",")) if args.dims else None
    export_points(bundle, args.what, args.output, dims=dims, resolution=args.res,
                  cuts=_parse_cuts(args.cuts))
    print(f"wrote {args.output}")
    return 0


def _emit(args, doc: dict, samples) -> int:
    """Print a demo report as JSON; write it to -o and its samples to --samples-csv."""
    print(json.dumps(doc, indent=2))
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(doc, fh, indent=2)
    if args.samples_csv:
        _write_csv(args.samples_csv, ["sample"], ((v,) for v in samples))
    return 0


def _cmd_demo(args) -> int:
    default = "0.5,0.1" if args.mode == "forward" else "0.5,0.5"
    sigmas = tuple(float(v) for v in (args.sigmas or default).split(","))
    if args.N is not None and args.N != len(sigmas):
        raise UsageError(f"--N {args.N} does not match the {len(sigmas)} --sigmas")
    if args.mode == "forward":
        model = uqdemo.DiffusionModel(n_random=len(sigmas), sigmas=sigmas, mesh=args.mesh)
        report = uqdemo.forward_uq(
            model, uqdemo.ForwardConfig(w=args.w, samples=args.samples, seed=args.seed,
                                        knots=args.knots)
        )
        return _emit(args, {
            "mean": report.mean,
            "variance": report.variance,
            "sobol_principal": report.sobol_principal.tolist(),
            "sobol_total": report.sobol_total.tolist(),
            "grid_points": report.n_grid_points,
        }, report.pdf_samples)
    y_star = tuple(float(v) for v in args.y_star.split(","))
    if len(y_star) != len(sigmas):
        raise UsageError(f"--y-star has {len(y_star)} entries, "
                         f"but there are {len(sigmas)} --sigmas")
    report = uqdemo.run_inverse_pipeline(
        sigmas=sigmas, y_star=y_star, sigma_eps=args.noise, n_data=args.K,
        surrogate_w=args.w, seed=args.seed, knots=args.knots,
        posterior_config=uqdemo.ForwardConfig(w=4, samples=args.samples, seed=args.seed),
    )
    return _emit(args, {
        "y_map": report.y_map.tolist(),
        "sigma_eps_estimate": report.sigma_eps_estimate,
        "posterior_covariance": report.cov.tolist(),
        "posterior_mean": report.posterior.mean,
        "posterior_variance": report.posterior.variance,
    }, report.posterior.pdf_samples)


def _build_parser() -> _Parser:
    parser = _Parser(prog="sparsegrids",
                     description="Combination-technique sparse grids")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build an a-priori grid")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--preset", default="SM", choices=("TP", "TD", "HC", "SM"))
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--g", type=lambda s: [float(v) for v in s.split(",")], default=None,
                   help="anisotropy weights, comma separated, one per dimension; write "
                        "--g=-2,1 when the first value is negative")
    p.add_argument("--lev2knots", default=None, choices=[m.value for m in LevelMap],
                   help="override the preset's level-to-knots map")
    _add_knot_args(p)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn_impl=_cmd_build)

    p = sub.add_parser("reduce", help="attach the reduced form to a grid file")
    p.add_argument("--grid", required=True)
    p.set_defaults(fn_impl=_cmd_reduce)

    p = sub.add_parser("quad", help="integrate a test function on a grid")
    p.add_argument("--grid", required=True)
    p.add_argument("--fn", required=True)
    p.add_argument("-o", "--output", default=None, help="store values back to a file")
    p.add_argument("--csv", default=None, help="write the integral values as CSV")
    p.set_defaults(fn_impl=_cmd_quad)

    p = sub.add_parser("interp", help="sample the interpolant on a lattice")
    p.add_argument("--grid", required=True)
    p.add_argument("--fn", required=True)
    p.add_argument("--res", type=int, default=15)
    p.add_argument("--cuts", default=None, help="e.g. 1,2x3,4")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn_impl=_cmd_interp)

    p = sub.add_parser("adapt", help="adaptively build a grid")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--fn", required=True)
    _add_knot_args(p)
    p.add_argument("--lev2knots", default="doubling",
                   choices=[m.value for m in LevelMap])
    p.add_argument("--nested", action="store_true")
    p.add_argument("--prof", default="Linf_per_new_points")
    p.add_argument("--prof-tol", type=float, default=1e-14, dest="prof_tol")
    p.add_argument("--max-pts", type=int, default=1000, dest="max_pts")
    p.add_argument("--buffer", type=int, default=0)
    p.add_argument("--resume", default=None, help="grid file with adaptive state")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn_impl=_cmd_adapt)

    p = sub.add_parser("pce", help="export modal coefficients as CSV")
    p.add_argument("--grid", required=True)
    p.add_argument("--fn", required=True)
    p.add_argument("--family", default="legendre")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn_impl=_cmd_pce)

    p = sub.add_parser("sobol", help="sensitivity indices")
    p.add_argument("--grid", default=None)
    p.add_argument("--fn", default=None)
    p.add_argument("--family", default=None, help="default: legendre")
    p.add_argument("--demo", action="store_true", help="use the diffusion demo model")
    p.add_argument("--mesh", type=int, default=200)
    p.add_argument("--w", type=int, default=4)
    p.set_defaults(fn_impl=_cmd_sobol)

    p = sub.add_parser("export", help="write grid data as CSV")
    p.add_argument("--grid", required=True)
    p.add_argument("--what", required=True,
                   choices=("knots", "knots3d_projection", "interp_samples", "midx_set"))
    p.add_argument("--dims", default=None, help="projection dims, e.g. 1,2,3")
    p.add_argument("--res", type=int, default=15)
    p.add_argument("--cuts", default=None)
    p.add_argument("--fn", default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn_impl=_cmd_export)

    p = sub.add_parser("demo", help="diffusion forward/inverse analysis")
    p.add_argument("mode", choices=("forward", "inverse"))
    p.add_argument("--N", type=int, default=None,
                   help="number of random variables (default: the number of --sigmas)")
    p.add_argument("--sigmas", default=None,
                   help="defaults: 0.5,0.1 (forward), 0.5,0.5 (inverse)")
    p.add_argument("--knots", default="cc", choices=("cc", "gauss-legendre", "leja"))
    p.add_argument("--mesh", type=int, default=200)
    p.add_argument("--w", type=int, default=4)
    p.add_argument("--K", type=int, default=80, help="number of observations (inverse)")
    p.add_argument("--y-star", default="0.9,-1.1", dest="y_star")
    p.add_argument("--noise", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=5000)
    p.add_argument("--samples-csv", default=None, dest="samples_csv")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn_impl=_cmd_demo)
    return parser


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn_impl(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ArithmeticError, np.linalg.LinAlgError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
