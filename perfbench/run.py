"""Benchmark of the ``sparsegrids`` CLI: three workloads, one client, closed loop.

    python3 perfbench/run.py --workload inverse --seed 0 --seconds 35 --trace 0

Each op starts fresh CLI processes through ``launch.py``, one at a time,
with single-threaded BLAS, and checks their outputs.  Ops repeat until
``--seconds`` have passed.  Every end-to-end timing is a mean over all the
ops (or all the processes) of the run, never a single sample.  It is the
children's CPU time, which leaves out the time the host takes the virtual
CPU away (steal), scaled to a reference CPU speed by a probe the children
read every 50 ms of CPU time, because this machine's CPU speed wanders
over seconds to minutes.

With ``--trace 0`` the result carries the end-to-end metrics.  With
``--trace 1`` each op runs twice on the same inputs, untraced and then
traced, and the result carries the per-layer metrics of the traced
processes plus the tracing overhead.  The last line of stdout is the JSON
result; the lines before it are the environment record and a readable
table.
"""

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
DEFAULT_SEED = 0
CHILD_TIMEOUT_S = 150
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# relative tolerance against reference.json: wide enough for reordered
# round-off (and a Nelder-Mead path that moves by it), far below the change
# that dropping one tensor makes
REFERENCE_RTOL = 1e-6
REFERENCE_ATOL = 1e-12
# the speed probe's time, in ms, that the scaled timings are expressed at;
# about its mean reading on the machine the benchmark was written on, so
# that the scaled times read about as CPU seconds there
PROBE_REF_MS = 0.165
# the 601-point adaptive grid's own quadrature error reaches 1.8e-6 on
# [-2, 2]^3, the widest domain drawn, and stays below 4e-7 for widths <= 3.5
ADAPT_INTEGRAL_RTOL = 1e-5


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# workloads: inputs from the seed, CLI lines, output checks
# ---------------------------------------------------------------------------


def inverse_inputs(rng):
    return {"noise_seed": rng.randrange(2**31)}


def inverse_argvs(p, _opdir):
    return [["demo", "inverse", "--N", "3", "--sigmas", "0.5,0.5,0.5",
             "--y-star", "0.9,-1.1,0.3", "--w", "4", "--seed", str(p["noise_seed"])]]


def inverse_outputs(stdouts):
    doc = json.loads(stdouts[0])
    return {k: doc[k] for k in ("y_map", "sigma_eps_estimate", "posterior_covariance",
                                "posterior_mean", "posterior_variance")}


def inverse_check(_p, out, _reports):
    errors = []
    if len(out["y_map"]) != 3 or any(abs(y) > math.sqrt(3.0) for y in out["y_map"]):
        errors.append(f"y_map {out['y_map']} is outside the box [-sqrt 3, sqrt 3]^3")
    cov = out["posterior_covariance"]
    if any(cov[i][j] != cov[j][i] for i in range(3) for j in range(3)):
        errors.append("posterior covariance is not symmetric")
    elif not _positive_definite(cov):
        errors.append("posterior covariance is not positive definite")
    return errors


def forward_inputs(rng):
    s0, ratio = rng.uniform(0.3, 0.5), rng.uniform(0.5, 0.8)
    return {"sigmas": [round(s0 * ratio**k, 6) for k in range(10)],
            "sample_seed": rng.randrange(2**31)}


def forward_argvs(p, _opdir):
    return [["demo", "forward", "--N", "10", "--w", "4", "--samples", "1000",
             "--sigmas", ",".join(repr(s) for s in p["sigmas"]),
             "--seed", str(p["sample_seed"])]]


def forward_outputs(stdouts):
    doc = json.loads(stdouts[0])
    return {k: doc[k] for k in ("mean", "variance", "sobol_principal", "sobol_total",
                                "grid_points")}


def forward_check(_p, out, _reports):
    errors = []
    if out["grid_points"] != 8801:
        errors.append(f"grid_points {out['grid_points']} != 8801")
    if not out["variance"] > 0.0:
        errors.append(f"variance {out['variance']} is not positive")
    for n, (s, t) in enumerate(zip(out["sobol_principal"], out["sobol_total"])):
        if not 0.0 <= s <= t:
            errors.append(f"Sobol index {n}: principal {s}, total {t}")
    return errors


def adapt_inputs(rng):
    return {"a": round(rng.uniform(-2.0, -0.5), 6), "b": round(rng.uniform(0.5, 2.0), 6)}


def adapt_argvs(p, opdir):
    first, second = os.path.join(opdir, "A.json"), os.path.join(opdir, "B.json")
    base = ["adapt", "--dim", "3", "--fn", "expsum", "--knots", "leja",
            f"--domain={p['a']!r},{p['b']!r}", "--lev2knots", "linear", "--nested"]
    return [base + ["--max-pts", "300", "-o", first],
            base + ["--max-pts", "600", "--resume", first, "-o", second]]


def adapt_outputs(stdouts):
    out = {}
    for name, text in zip(("first", "second"), stdouts):
        words = text.split()
        out[name] = {"points": int(words[words.index("points:") + 1]),
                     "evaluations": int(words[words.index("evaluations:") + 1]),
                     "integral": float(words[words.index("integral:") + 1])}
    return out


def adapt_check(p, out, reports):
    a, b = p["a"], p["b"]
    exact = ((math.exp(b) - math.exp(a)) / (b - a)) ** 3
    errors = []
    rel = abs(out["second"]["integral"] - exact) / exact
    if not rel <= ADAPT_INTEGRAL_RTOL:
        errors.append(f"integral {out['second']['integral']} vs exact {exact}: rel {rel:.2e}")
    for name in ("first", "second"):
        if out[name]["evaluations"] != out[name]["points"]:
            errors.append(f"{name}: {out[name]['evaluations']} evaluations for "
                          f"{out[name]['points']} points")
    # resume must re-evaluate nothing: the two processes' new model calls add
    # up to the final point count
    calls = [r["model_calls"] for r in reports]
    if sum(calls) != out["second"]["points"]:
        errors.append(f"model calls {calls} do not add up to {out['second']['points']} points")
    return errors


WORKLOADS = {
    "inverse": (inverse_inputs, inverse_argvs, inverse_outputs, inverse_check),
    "forward-d10": (forward_inputs, forward_argvs, forward_outputs, forward_check),
    "adapt-leja": (adapt_inputs, adapt_argvs, adapt_outputs, adapt_check),
}


def _positive_definite(a) -> bool:
    """Cholesky without pivoting succeeds."""
    n = len(a)
    low = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            s = a[i][j] - sum(low[i][k] * low[j][k] for k in range(j))
            if i == j:
                if not s > 0.0:
                    return False
                low[i][i] = math.sqrt(s)
            else:
                low[i][j] = s / low[j][j]
    return True


def compare_reference(expected, actual, path="") -> list:
    """Differences between two output documents beyond the tolerance."""
    if isinstance(expected, dict):
        return [e for k in expected for e in compare_reference(expected[k], actual.get(k),
                                                                f"{path}.{k}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: {actual!r} vs reference {expected!r}"]
        return [e for i, (x, y) in enumerate(zip(expected, actual))
                for e in compare_reference(x, y, f"{path}[{i}]")]
    if not isinstance(actual, (int, float)) or not math.isclose(
            actual, expected, rel_tol=REFERENCE_RTOL, abs_tol=REFERENCE_ATOL):
        return [f"{path}: {actual!r} vs reference {expected!r}"]
    return []


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in BLAS_VARS})
    return env


def run_process(argv, op, trace, report_path, launcher, env):
    """One launcher process; returns (exit code, stdout, stderr, report or None)."""
    spawn = time.perf_counter()
    cmd = launcher + [report_path, repr(spawn), "1" if trace else "0", str(op), "--"] + argv
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        return -1, "", f"timed out after {exc.timeout} s", None
    report = None
    if os.path.exists(report_path):
        with open(report_path) as fh:
            report = json.load(fh)
        os.remove(report_path)
    return proc.returncode, proc.stdout, proc.stderr, report


def run_op(workload, params, op, trace, launcher, env, work):
    """All processes of one op; returns (reports, error messages, outputs)."""
    _, make_argvs, outputs_of, check = WORKLOADS[workload]
    opdir = os.path.join(work, f"op{op}-{'t' if trace else 'p'}")
    os.makedirs(opdir, exist_ok=True)
    reports, stdouts = [], []
    try:
        for i, argv in enumerate(make_argvs(params, opdir)):
            code, out, err, report = run_process(
                argv, op, trace, os.path.join(opdir, f"report{i}.json"), launcher, env)
            if code != 0 or report is None:
                tail = err.strip().splitlines()[-1:] or ["no output"]
                return reports, [f"process {i} exited with {code}: {tail[0]}"], None
            reports.append(report)
            stdouts.append(out)
        try:
            outputs = outputs_of(stdouts)
        except (ValueError, KeyError, IndexError) as exc:
            return reports, [f"unreadable output: {exc!r}"], None
        return reports, check(params, outputs, reports), outputs
    finally:
        shutil.rmtree(opdir, ignore_errors=True)


def warm_up(env):
    """Compile the package's bytecode once and pull it into the file cache,
    as an installed package would have it, before any timed process."""
    subprocess.run([sys.executable, "-c",
                    f"import sys; sys.path.insert(0, {os.path.join(ROOT, 'src')!r}); "
                    "import sparsegrids.cli"],
                   cwd=ROOT, env=env, check=True, timeout=CHILD_TIMEOUT_S,
                   stdout=subprocess.DEVNULL)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

END_TO_END_UNITS = {"op_s": "s", "setup_s": "s", "evals_per_op": "count",
                    "peak_rss_mb": "MB"}


def speed_scale(procs) -> float:
    """PROBE_REF_MS over the mean speed-probe reading of the processes
    (``launch.SpeedSampler``): the factor that turns the run's CPU times
    into times at the reference speed."""
    mean_ms = 1e3 * sum(r["probe_cpu_s"] for r in procs) / sum(r["probe_n"] for r in procs)
    return PROBE_REF_MS / mean_ms


def end_to_end(ops) -> dict:
    procs = [r for reports in ops for r in reports]
    scale = speed_scale(procs)
    return {
        "op_s": scale * sum(r["work_cpu_s"] for r in procs) / len(ops),
        "setup_s": scale * sum(r["setup_cpu_s"] for r in procs) / len(procs),
        "evals_per_op": sum(r["model_calls"] for r in procs) / len(ops),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in procs),
    }


PER_LAYER_UNITS = {
    "knots.rule_calls": "count", "knots.rule_distinct_frac": "ratio", "knots.self_s": "s",
    "midx.self_s": "s",
    "grid.tensor_builds": "count", "grid.tensor_distinct_frac": "ratio", "grid.self_s": "s",
    "grid.reduce_ratio": "ratio",
    "bary.weights_calls": "count", "bary.basis_calls": "count", "bary.self_s": "s",
    "evalkit.interpolate_calls": "count", "evalkit.interpolate_points": "count",
    "evalkit.interpolate_self_s": "s", "evalkit.evaluate_self_s": "s",
    "evalkit.recycled_frac": "ratio",
    "adaptive.indicator_calls": "count", "adaptive.self_s": "s", "adaptive.restore_s": "s",
    "pce.self_s": "s",
    "uqdemo.fem_calls": "count", "uqdemo.fem_s": "s", "uqdemo.objective_calls": "count",
    "uqdemo.minimize_self_s": "s",
    "testfunctions.self_s": "s",
    "gridio.save_s": "s", "gridio.load_s": "s", "gridio.file_mb": "MB",
    "cli.import_s": "s", "cli.self_s": "s",
    "trace.op_s": "s", "trace.overhead_frac": "ratio",
}


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(plain_ops, traced_ops) -> dict:
    n = len(traced_ops)
    traces = [r["trace"] for reports in traced_ops for r in reports]
    fn = {}
    for t in traces:
        for name, (calls, total, self_s) in t["fn"].items():
            entry = fn.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += self_s

    def calls(name):
        return fn.get(name, [0])[0] / n

    def total(name):
        return fn.get(name, [0, 0.0])[1] / n

    def self_time(prefix):
        return sum(v[2] for k, v in fn.items() if k.startswith(prefix)) / n

    def per_op_distinct(key):
        distinct = 0
        for reports in traced_ops:
            distinct += len({k for r in reports for k in r["trace"][key]})
        return distinct

    def summed(key):
        return sum(t[key] for t in traces)

    rules = sum(len(t["rule_keys"]) for t in traces)
    builds = sum(len(t["tensor_keys"]) for t in traces)
    requested = summed("eval_requested")
    plain_work = sum(r["work_s"] for reports in plain_ops for r in reports)
    traced_work = sum(r["work_s"] for reports in traced_ops for r in reports)
    procs = [r for ops in (plain_ops, traced_ops) for reports in ops for r in reports]
    return {
        "knots.rule_calls": rules / n,
        "knots.rule_distinct_frac": _ratio(per_op_distinct("rule_keys"), rules),
        "knots.self_s": self_time("knots."),
        "midx.self_s": self_time("midx."),
        "grid.tensor_builds": builds / n,
        "grid.tensor_distinct_frac": _ratio(per_op_distinct("tensor_keys"), builds),
        "grid.self_s": self_time("grid."),
        "grid.reduce_ratio": _ratio(summed("reduce_extended"), summed("reduce_reduced")),
        "bary.weights_calls": calls("_bary.barycentric_weights"),
        "bary.basis_calls": calls("_bary.basis_matrix"),
        "bary.self_s": self_time("_bary."),
        "evalkit.interpolate_calls": calls("evalkit.interpolate"),
        "evalkit.interpolate_points": summed("interp_points") / n,
        "evalkit.interpolate_self_s": self_time("evalkit.interpolate"),
        "evalkit.evaluate_self_s": self_time("evalkit.evaluate_on_grid"),
        "evalkit.recycled_frac": _ratio(requested - summed("eval_new"), requested),
        "adaptive.indicator_calls": calls("adaptive.error_indicator_point")
        + calls("adaptive.error_indicator_quad"),
        "adaptive.self_s": self_time("adaptive."),
        "adaptive.restore_s": total("adaptive.restore_state"),
        "pce.self_s": self_time("pce."),
        "uqdemo.fem_calls": calls("uqdemo.fem_solve"),
        "uqdemo.fem_s": total("uqdemo.fem_solve"),
        "uqdemo.objective_calls": summed("objective_calls") / n,
        "uqdemo.minimize_self_s": self_time("uqdemo.minimize"),
        "testfunctions.self_s": self_time("testfunctions."),
        "gridio.save_s": total("gridio.save_grid"),
        "gridio.load_s": total("gridio.load_grid"),
        "gridio.file_mb": summed("file_bytes") / 1e6 / n,
        "cli.import_s": sum(r["import_s"] for r in procs) / len(procs),
        "cli.self_s": self_time("cli."),
        "trace.op_s": traced_work / n,
        "trace.overhead_frac": _ratio(traced_work, plain_work) - 1.0,
    }


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def steal_ticks() -> int:
    """Steal ticks summed over CPUs, from /proc/stat (read only)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return -1


def environment(env) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": {name: env.get(name) for name in BLAS_VARS},
        "loadavg_start": os.getloadavg(),
        "steal_ticks_start": steal_ticks(),
    }


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


def measure(workload, seed, seconds, trace, launcher=None):
    """Run the closed loop; returns (result dict, environment dict, messages)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "sparsegrids", "cli.py")):
        raise BenchError(f"no sparsegrids sources under {ROOT}/src")
    launcher = launcher or [sys.executable, os.path.join(HERE, "launch.py")]
    env = child_env()
    reference = None
    if seed == DEFAULT_SEED:
        with open(REFERENCE) as fh:
            reference = json.load(fh)[workload]
    work = tempfile.mkdtemp(prefix=".perfbench_work-", dir=ROOT)
    try:
        warm_up(env)
        record = environment(env)
        make_inputs = WORKLOADS[workload][0]
        rng = random.Random(f"{workload}:{seed}")
        plain_ops, traced_ops, messages = [], [], []
        attempted = failed = 0
        start = time.perf_counter()
        while True:
            params = make_inputs(rng)
            op = attempted
            passes = [(False, plain_ops)] + ([(True, traced_ops)] if trace else [])
            op_failed = False
            for traced, sink in passes:
                reports, errors, outputs = run_op(workload, params, op, traced, launcher, env, work)
                if outputs is not None and reference is not None and op == 0:
                    errors += compare_reference(reference, outputs, "reference")
                if errors:
                    op_failed = True
                    messages.append(f"op {op} {params}: " + "; ".join(errors[:3]))
                if reports:
                    sink.append(reports)
            attempted += 1
            failed += op_failed
            if time.perf_counter() - start >= seconds:
                break
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record.update(loadavg_end=os.getloadavg(), steal_ticks_end=steal_ticks(),
                  ops=attempted, elapsed_s=elapsed)
    procs = [r for reports in plain_ops for r in reports]
    if procs:
        # the unscaled run means, to tell a slow machine from a slow program
        record.update(probe_ms_mean=PROBE_REF_MS / speed_scale(procs),
                      probe_n=sum(r["probe_n"] for r in procs),
                      op_wall_s=sum(r["work_s"] for r in procs) / len(plain_ops),
                      op_cpu_s=sum(r["work_cpu_s"] for r in procs) / len(plain_ops),
                      setup_wall_s=sum(r["setup_s"] for r in procs) / len(procs),
                      setup_cpu_s=sum(r["setup_cpu_s"] for r in procs) / len(procs))
    if trace:
        values = per_layer(plain_ops, traced_ops) if traced_ops and plain_ops else {}
        units = PER_LAYER_UNITS
    else:
        values = end_to_end(plain_ops) if plain_ops else {}
        units = END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units if k in values},
    }
    return result, record, messages


def table(workload, result) -> str:
    """The result as a readable table; traced self times also as a share of
    the traced op."""
    metrics = result["metrics"]
    traced_op = metrics.get("trace.op_s", {}).get("value")
    lines = [f"{workload}: {result['attempted']} ops, {result['failed']} failed"]
    for name, m in metrics.items():
        share = ""
        if traced_op and name.endswith("_s") and not name.startswith(("cli.import", "trace.")):
            share = f"  {100 * m['value'] / traced_op:5.1f}% of traced op"
        lines.append(f"  {name:28s} {m['value']:14.6g} {m['unit']:6s}{share}")
    lines.append(f"  {'fail_frac':28s} {result['failed'] / result['attempted']:14.6g} ratio")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, record, messages = measure(args.workload, args.seed, args.seconds,
                                           bool(args.trace))
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    for message in messages:
        print(message, file=sys.stderr)
    print("environment " + json.dumps(record))
    print(table(args.workload, result))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
