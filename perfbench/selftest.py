"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs one op of every workload at the default seed, untraced and traced,
and requires every check (including the comparison with reference.json)
to pass.  Then runs the same ops with a build that drops the last tensor
of every sparse grid, and requires every workload to report the op as
failed.  Exits non-zero if either expectation does not hold.
"""

import dataclasses
import os
import sys

import run


def drop_one_tensor(sparsegrids):
    """Make every sparse grid built by the library lose its last tensor."""
    from tracing import rebind

    build = sparsegrids.grid.build_sparse_grid

    def build_without_last(*args, **kwargs):
        grid = build(*args, **kwargs)
        return dataclasses.replace(grid, tensors=grid.tensors[:-1])

    rebind(build, build_without_last)


def main() -> int:
    mutated = [sys.executable, os.path.abspath(__file__), "--child"]
    problems = []
    for workload in run.WORKLOADS:
        for trace in (False, True):
            result, _, messages = run.measure(workload, run.DEFAULT_SEED, 0, trace)
            print(run.table(workload, result))
            if result["failed"]:
                problems.append(f"{workload} (trace {int(trace)}): {messages}")
        result, _, messages = run.measure(workload, run.DEFAULT_SEED, 0, False, mutated)
        print(f"{workload} with one tensor dropped: {result['failed']} of "
              f"{result['attempted']} ops failed; {messages}")
        if result["failed"] == 0:
            problems.append(f"{workload}: dropping a tensor went unnoticed")
    for problem in problems:
        print("FAIL", problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        import launch
        sys.exit(launch.main(sys.argv[2:], patch=drop_one_tensor))
    sys.exit(main())
