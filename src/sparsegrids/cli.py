"""Command-line interface.

Every subcommand is a thin composition of library calls; no numerical
logic lives here.  Exit codes: 0 success, 1 user error, 2 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import adaptive, gridio, uqdemo
from .adaptive import AdaptControls, adapt
from .evalkit import Domain, evaluate_on_grid, quadrature
from .grid import build_sparse_grid_from_rule, reduce_grid
from .gridio import GridBundle, export_points, load_grid, save_grid
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


def _families(args, dim: int):
    tag = args.knots
    if tag in ("cc", "leja", "leja-sym", "leja-pdisk", "trap", "midpoint", "gauss-legendre"):
        domain = _parse_domain(args.domain, dim)
        fams = []
        for a, b in domain:
            if tag == "cc":
                fams.append(cc_family(a, b))
            elif tag == "leja":
                fams.append(leja_family(a, b, "standard"))
            elif tag == "leja-sym":
                fams.append(leja_family(a, b, "symmetric"))
            elif tag == "leja-pdisk":
                fams.append(leja_family(a, b, "p_disk"))
            elif tag == "trap":
                fams.append(trap_family(a, b))
            elif tag == "midpoint":
                fams.append(midpoint_family(a, b))
            else:
                fams.append(gauss_family(DistributionSpec.uniform(a, b)))
        return tuple(fams)
    dist = DistributionSpec.normal(args.mu, args.sigma)
    if tag == "gauss-hermite":
        return (gauss_family(dist),) * dim
    if tag == "gk":
        if (args.mu, args.sigma) != (0.0, 1.0):
            raise UsageError("gk knots are tabulated for the standard normal only")
        return (gk_family(),) * dim
    if tag == "wleja-normal":
        return (weighted_leja_family(dist, "standard"),) * dim
    if tag == "wleja-normal-sym":
        return (weighted_leja_family(dist, "symmetric"),) * dim
    raise UsageError(f"unknown knot family {args.knots!r}")


def _add_knot_args(p):
    p.add_argument("--knots", default="cc", help="knot family (default cc)")
    p.add_argument("--domain", default="-1,1", help="per-dim intervals, e.g. 0,1x0,1")
    p.add_argument("--mu", type=float, default=0.0, help="normal mean (hermite/wleja)")
    p.add_argument("--sigma", type=float, default=1.0, help="normal std (hermite/wleja)")


def _threads(args) -> int:
    if args.threads is not None:
        return args.threads
    return int(os.environ.get("SPARSEGRIDS_THREADS", "1"))


def _cmd_build(args) -> int:
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


def _bundle_with_reduced(path) -> GridBundle:
    bundle = load_grid(path)
    if bundle.reduced is None:
        bundle.reduced = reduce_grid(bundle.grid)
    return bundle


def _cmd_quad(args) -> int:
    bundle = _bundle_with_reduced(args.grid)
    f = get_test_function(args.fn)
    table = evaluate_on_grid(f, bundle.reduced, workers=_threads(args))
    q = quadrature(table, bundle.reduced)
    print(" ".join(repr(float(v)) for v in q))
    if args.output:
        save_grid(args.output, bundle.grid, bundle.reduced, table)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            fh.write("component,value\n")
            for k, v in enumerate(q):
                fh.write(f"{k + 1},{float(v)!r}\n")
    return 0


def _cmd_interp(args) -> int:
    bundle = _bundle_with_reduced(args.grid)
    f = get_test_function(args.fn)
    table = evaluate_on_grid(f, bundle.reduced, workers=_threads(args))
    bundle.values = table
    export_points(bundle, "interp_samples", args.output, resolution=args.res,
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
    bundle = _bundle_with_reduced(args.grid)
    f = get_test_function(args.fn)
    table = evaluate_on_grid(f, bundle.reduced, workers=_threads(args))
    domain = Domain(gridio.default_domain(bundle.grid))
    expansion = convert_to_modal(bundle.grid, bundle.reduced, table, domain, args.family)
    degrees = expansion.lambda_set.rows
    order = np.lexsort(tuple(degrees[:, n] for n in reversed(range(degrees.shape[1]))) + (degrees.sum(axis=1),))
    with open(args.output, "w", newline="") as fh:
        fh.write(",".join(f"p{n + 1}" for n in range(degrees.shape[1])) + ",coeff\n")
        for i in order:
            row = ",".join(str(v) for v in degrees[i])
            fh.write(f"{row},{float(expansion.coeffs[0, i])!r}\n")
    print(f"wrote {len(order)} coefficients to {args.output}")
    return 0


def _cmd_sobol(args) -> int:
    if args.demo:
        model = uqdemo.DiffusionModel(n_random=2, sigmas=(0.5, 0.1), mesh=args.mesh)
        report = uqdemo.forward_uq(model, uqdemo.ForwardConfig(w=args.w))
        principal, total = report.sobol_principal, report.sobol_total
    else:
        if not args.grid or not args.fn:
            raise UsageError("sobol needs --grid and --fn (or --demo)")
        bundle = _bundle_with_reduced(args.grid)
        f = get_test_function(args.fn)
        table = evaluate_on_grid(f, bundle.reduced, workers=_threads(args))
        domain = Domain(gridio.default_domain(bundle.grid))
        principal, total = sobol_indices(bundle.grid, bundle.reduced, table, domain,
                                         args.family)
    print("principal: " + " ".join(f"{v:.4f}" for v in principal))
    print("total:     " + " ".join(f"{v:.4f}" for v in total))
    return 0


def _cmd_export(args) -> int:
    bundle = _bundle_with_reduced(args.grid)
    dims = tuple(int(v) for v in args.dims.split(",")) if args.dims else None
    if args.what == "interp_samples" and bundle.values is None:
        if not args.fn:
            raise UsageError("interp_samples needs stored values or --fn")
        bundle.values = evaluate_on_grid(get_test_function(args.fn), bundle.reduced)
    export_points(bundle, args.what, args.output, dims=dims, resolution=args.res,
                  cuts=_parse_cuts(args.cuts))
    print(f"wrote {args.output}")
    return 0


def _write_samples_csv(path, samples: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("sample\n")
        for v in samples:
            fh.write(f"{float(v)!r}\n")


def _cmd_demo(args) -> int:
    default = "0.5,0.1" if args.mode == "forward" else "0.5,0.5"
    sigmas = tuple(float(v) for v in (args.sigmas or default).split(","))
    if args.mode == "forward":
        model = uqdemo.DiffusionModel(n_random=args.N, sigmas=sigmas, mesh=args.mesh)
        report = uqdemo.forward_uq(
            model, uqdemo.ForwardConfig(w=args.w, samples=args.samples, seed=args.seed,
                                        knots=args.knots)
        )
        doc = {
            "mean": report.mean,
            "variance": report.variance,
            "sobol_principal": report.sobol_principal.tolist(),
            "sobol_total": report.sobol_total.tolist(),
            "grid_points": report.n_grid_points,
        }
        print(json.dumps(doc, indent=2))
        if args.output:
            with open(args.output, "w") as fh:
                json.dump(doc, fh, indent=2)
        if args.samples_csv:
            _write_samples_csv(args.samples_csv, report.pdf_samples)
        return 0
    y_star = tuple(float(v) for v in args.y_star.split(","))
    report = uqdemo.run_inverse_pipeline(
        sigmas=sigmas, y_star=y_star, sigma_eps=args.noise, n_data=args.K,
        surrogate_w=args.w, seed=args.seed, knots=args.knots,
        posterior_config=uqdemo.ForwardConfig(w=4, samples=args.samples, seed=args.seed),
    )
    doc = {
        "y_map": report.y_map.tolist(),
        "sigma_eps_estimate": report.sigma_eps_estimate,
        "posterior_covariance": report.cov.tolist(),
        "posterior_mean": report.posterior.mean,
        "posterior_variance": report.posterior.variance,
    }
    print(json.dumps(doc, indent=2))
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(doc, fh, indent=2)
    if args.samples_csv:
        _write_samples_csv(args.samples_csv, report.posterior.pdf_samples)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="sparsegrids",
                     description="Combination-technique sparse grids")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build an a-priori grid")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--preset", default="SM", choices=("TP", "TD", "HC", "SM"))
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--g", type=lambda s: [float(v) for v in s.split(",")], default=None,
                   help="anisotropy weights, comma separated")
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
    p.add_argument("--family", default="legendre")
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
    p.add_argument("--N", type=int, default=2)
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

    for sp in sub.choices.values():
        sp.add_argument("--threads", type=int, default=None,
                        help="concurrent function evaluations")
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
