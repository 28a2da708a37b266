"""Every workload in one command, as readable tables.

    python3 perfbench/report.py                 # end-to-end metrics, fail_frac
    python3 perfbench/report.py --trace 1       # per-layer metrics and overhead

Runs ``run.measure`` for each workload in turn with the same seed and
length; the output checks apply as in ``run.py``.
"""

import argparse
import json
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    failed = 0
    for workload in run.WORKLOADS:
        result, record, messages = run.measure(workload, args.seed, args.seconds,
                                               bool(args.trace))
        for message in messages:
            print(message, file=sys.stderr)
        print(run.table(workload, result))
        print("  environment " + json.dumps(record))
        failed += result["failed"]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
