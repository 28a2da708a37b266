"""Span tracing of one CLI process, installed from outside the library.

``Tracer.install`` replaces each function in ``TARGETS`` by a wrapper in
every ``sparsegrids`` module namespace that binds it (``evalkit``,
``adaptive`` and ``knots`` import the ``_bary`` helpers by name), and wraps
the built-in test functions in their registry.  Each call records a span
(name, start, end, parent span) in memory; calls that carry layer counts
also keep their arguments, which are read only by ``summary`` at exit, so
the spans themselves stay cheap.
"""

import functools
import os
import sys
import time

import numpy as np

TARGETS = {
    "knots": ("gauss_knots", "cc_knots", "leja_knots", "weighted_leja_knots",
              "trap_knots", "midpoint_knots", "gk_knots"),
    "midx": ("generate_rule_set", "combination_coefficients"),
    "grid": ("build_sparse_grid_from_rule", "build_sparse_grid", "add_one_index",
             "build_tensor_grid", "reduce_grid", "lattice_keys"),
    "_bary": ("barycentric_weights", "basis_matrix"),
    "evalkit": ("evaluate_on_grid", "quadrature", "interpolate", "gradient", "hessian"),
    "adaptive": ("adapt", "restore_state", "serialize_state", "error_indicator_point",
                 "error_indicator_quad"),
    "pce": ("convert_to_modal", "sobol_indices"),
    "uqdemo": ("run_inverse_pipeline", "forward_uq", "build_solution_surrogate",
               "minimize", "posterior_covariance", "posterior_forward_uq", "fem_solve"),
    "gridio": ("save_grid", "load_grid"),
}

# calls whose arguments (and result) summary() needs
_RECORDED = {"grid.build_tensor_grid", "grid.reduce_grid", "evalkit.interpolate",
             "evalkit.evaluate_on_grid", "gridio.save_grid"}


def rebind(orig, replacement):
    """Point every name bound to ``orig`` in a sparsegrids module at ``replacement``."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "sparsegrids" or name.startswith("sparsegrids.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, replacement)


class Tracer:
    def __init__(self, op: int):
        self.op = op
        self.spans = []      # (name, start, end, parent index or -1)
        self.records = []    # (span index, args, kwargs, result)
        self.objective_calls = 0
        self._stack = []

    def wrap(self, name: str, fn):
        spans, stack, records = self.spans, self._stack, self.records
        clock = time.perf_counter
        record = name in _RECORDED or name.startswith("knots.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (name, t0, t1, parent)
            if record:
                records.append((sid, args, kwargs, out))
            return out

        return wrapper

    def root(self, fn):
        return self.wrap("cli.cli_main", fn)

    def install(self):
        for layer, names in TARGETS.items():
            home = sys.modules[f"sparsegrids.{layer}"]
            for fname in names:
                orig = getattr(home, fname)
                wrapped = self.wrap(f"{layer}.{fname}", orig)
                if fname == "minimize":
                    wrapped = self._count_objective(wrapped)
                rebind(orig, wrapped)
        registry = sys.modules["sparsegrids.testfunctions"].TEST_FUNCTIONS
        for fname, fn in list(registry.items()):
            registry[fname] = self.wrap(f"testfunctions.{fname}", fn)

    def _count_objective(self, minimize):
        def wrapper(objective, *args, **kwargs):
            def counted(y):
                self.objective_calls += 1
                return objective(y)
            return minimize(counted, *args, **kwargs)
        return wrapper

    def summary(self) -> dict:
        """Per-function calls, total and self time, plus layer counts."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, t0, t1, parent in spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        fns = {}
        for sid, (name, t0, t1, parent) in enumerate(spans):
            entry = fns.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += t1 - t0
            entry[2] += t1 - t0 - covered[sid]
        out = {"op": self.op, "fn": fns, "rule_keys": [], "tensor_keys": [],
               "reduce_extended": 0, "reduce_reduced": 0, "interp_points": 0,
               "eval_requested": 0, "eval_new": 0, "file_bytes": 0,
               "objective_calls": self.objective_calls}
        for sid, args, kwargs, result in self.records:
            name, parent = spans[sid][0], spans[sid][3]
            if name.startswith("knots."):
                # a rule made inside another rule (Leja's auxiliary Gauss rule) is
                # part of that rule's cost, not a rule the grid asked for
                if parent < 0 or not spans[parent][0].startswith("knots."):
                    plain = tuple(v.item() if isinstance(v, np.generic) else v for v in args)
                    out["rule_keys"].append(repr((name, plain, sorted(kwargs.items()))))
            elif name == "grid.build_tensor_grid":
                idx, families, level_map = args[:3]
                fams = tuple(families) if isinstance(families, (list, tuple)) else (families,)
                out["tensor_keys"].append(repr((tuple(int(v) for v in idx), fams, str(level_map))))
            elif name == "grid.reduce_grid":
                out["reduce_extended"] += args[0].extended_size
                out["reduce_reduced"] += result.size
            elif name == "evalkit.interpolate":
                points = args[3] if len(args) > 3 else kwargs["points"]
                out["interp_points"] += np.atleast_2d(np.asarray(points)).shape[1]
            elif name == "evalkit.evaluate_on_grid":
                out["eval_requested"] += args[1].size
                out["eval_new"] += result.new_evaluations
            elif name == "gridio.save_grid":
                out["file_bytes"] += os.path.getsize(args[0])
        return out
