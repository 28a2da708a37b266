"""One CLI process of the benchmark: import the CLI, run it once, report.

Usage (``run.py`` builds this line):

    python3 perfbench/launch.py REPORT SPAWN_T TRACE OP -- CLI_ARGS...

REPORT is the JSON file the launcher writes at exit; SPAWN_T is the
parent's ``time.perf_counter()`` just before it started this process, so
``setup_s`` spans spawn to ``sparsegrids.cli`` imported (``setup_cpu_s`` is
the process's CPU time up to the same point); TRACE is 0 or 1;
OP is the op id its trace summary carries.  The CLI's own stdout and stderr
pass through unchanged, and the exit code is the CLI's.
"""

import json
import os
import resource
import signal
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class SpeedSampler:
    """A speed probe read every ``INTERVAL_S`` of process CPU time (SIGPROF)
    while the CLI runs: a fixed pure-Python loop and small numpy operations,
    about 0.17 ms of work.  Its mean time reads how fast the CPU ran, weighted
    as the CLI's own CPU time is; ``run.py`` scales the run's times by it.
    The probe's own time is thread CPU time, because the process CPU clock
    only advances at scheduler ticks while a CPU timer is armed."""

    INTERVAL_S = 0.05

    def __init__(self):
        import numpy as np

        self.a = np.linspace(0.0, 1.0, 16)
        self.n = 0
        self.cpu_s = 0.0

    def _tick(self, _signum, _frame):
        c0 = time.thread_time()
        total = 0.0
        for i in range(500):
            total += i * i
        for i in range(20):
            total += float((self.a * i + 1.0).sum())
        self.cpu_s += time.thread_time() - c0
        self.n += 1

    def start(self):
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)


def _count_model_calls():
    """Wrap every model entry with a bare counter; return the counter."""
    from sparsegrids import testfunctions, uqdemo

    calls = [0]

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    uqdemo.fem_solve = counted(uqdemo.fem_solve)
    for name, fn in list(testfunctions.TEST_FUNCTIONS.items()):
        testfunctions.TEST_FUNCTIONS[name] = counted(fn)
    return calls


def main(argv, patch=None):
    """Run one CLI invocation; ``patch(sparsegrids)`` is applied after import."""
    report_path, spawn_t, trace, op = argv[0], float(argv[1]), argv[2] == "1", int(argv[3])
    cli_argv = argv[5:]
    sys.path.insert(0, os.path.join(_ROOT, "src"))
    t_import = time.perf_counter()
    import sparsegrids.cli as cli
    t_imported = time.perf_counter()
    cpu_imported = time.process_time()

    import sparsegrids
    if patch is not None:
        patch(sparsegrids)
    calls = _count_model_calls()
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer(op)
        tracer.install()
    cli_main = tracer.root(cli.cli_main) if tracer else cli.cli_main
    sampler = SpeedSampler()
    t0, c0 = time.perf_counter(), time.process_time()
    sampler.start()
    try:
        code = cli_main(cli_argv)
    finally:
        sampler.stop()
    t1, c1 = time.perf_counter(), time.process_time()
    sys.stdout.flush()
    report = {
        "exit": code,
        "setup_s": t_imported - spawn_t,
        "import_s": t_imported - t_import,
        "work_s": t1 - t0,
        "setup_cpu_s": cpu_imported,
        "work_cpu_s": c1 - c0 - sampler.cpu_s,
        "probe_n": sampler.n,
        "probe_cpu_s": sampler.cpu_s,
        "model_calls": calls[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if tracer is not None:
        report["trace"] = tracer.summary()
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
