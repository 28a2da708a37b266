"""Generate the canonical Leja sequences of ``src/sparsegrids/_leja_table.py``.

Four sequences of COUNT nodes each: uniform Leja on [-1, 1] and weighted
Leja for N(0, 1), each ``standard`` and ``symmetric``.  Every new node is
found by the library's own greedy search (``knots._LejaPrefix.extend``) on
the prefix polished so far, then polished to the double nearest the root
of the derivative of the log objective,

    g(t) = sum_k 1 / (t - x_k)        (uniform)
    g(t) = sum_k 1 / (t - x_k) - t/2  (normal: log sqrt(pdf) = -t^2/4 + c).

Newton's method brings t to within a few ulps; then g's sign, evaluated in
exact rational arithmetic, picks the double: g falls strictly between two
neighbouring nodes, so the result does not depend on where the search
stopped.  The table also records the search interval where the normal
sequences' anchor doubling stopped, so that the library continues past a
table exactly as this search would.

Usage:

    python scripts/gen_leja_table.py            # rewrite the table
    python scripts/gen_leja_table.py --check    # exit 1 unless it matches bitwise
"""

import math
import os
import sys
from fractions import Fraction

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))

from sparsegrids import knots  # noqa: E402

PATH = os.path.join(_ROOT, "src", "sparsegrids", "_leja_table.py")
COUNT = 65  # level 7 of the doubling map
KEYS = [
    ("leja", "standard"),
    ("leja", "symmetric"),
    ("weighted_leja", "normal", 0.0, 1.0, "standard"),
    ("weighted_leja", "normal", 0.0, 1.0, "symmetric"),
]


def _polisher(weighted: bool):
    """polish(nodes, t): the double nearest the root of g next to ``t``."""

    def g(nodes, t):
        s = math.fsum(1.0 / (t - x) for x in nodes)
        return s - t / 2.0 if weighted else s

    def dg(nodes, t):
        return -math.fsum(1.0 / (t - x) ** 2 for x in nodes) - (0.5 if weighted else 0.0)

    def exact(nodes, t):
        t = Fraction(t)
        s = sum((1 / (t - Fraction(x)) for x in nodes), Fraction(0))
        return s - t / 2 if weighted else s

    def polish(nodes, t0):
        t = t0 = float(t0)
        for _ in range(60):
            step = g(nodes, t) / dg(nodes, t)
            if t - step == t:
                break
            t -= step
        while exact(nodes, t) < 0:  # g falls: step left until g(t) >= 0
            t = math.nextafter(t, -math.inf)
        while exact(nodes, up := math.nextafter(t, math.inf)) >= 0:
            t = up
        # the root lies in [t, up): keep the end where |g| is smaller
        if -exact(nodes, up) < exact(nodes, t):
            t = up
        assert abs(t - t0) <= 1e-6 * max(1.0, abs(t0)), (t0, t)
        return t

    return polish


def generate(count: int = COUNT) -> dict:
    """key -> (lo, hi, nodes) for the first ``count`` nodes of each sequence."""
    out = {}
    for key in KEYS:
        prefix = knots._canonical_prefix(key, {})
        prefix.extend(count, _polisher(key[0] == "weighted_leja"))
        out[key] = (prefix.lo, prefix.hi, prefix.nodes[:count])
    return out


def render(table: dict) -> str:
    lines = [
        '"""Canonical Leja sequences: uniform Leja on [-1, 1] and weighted Leja',
        'for N(0, 1), standard and symmetric.',
        "",
        "Each key names a sequence as ``knots._canonical_prefix`` does and maps",
        "to (lo, hi, nodes): the search interval where the sequence's anchor",
        "doubling stopped, and its first nodes.  Imported on the first Leja call.",
        'Regenerate with ``scripts/gen_leja_table.py``.',
        '"""',
        "",
        "# generated by scripts/gen_leja_table.py -- do not edit",
        "LEJA_TABLE = {",
    ]
    for key, (lo, hi, nodes) in table.items():
        lines.append(f"    {key!r}: ({lo!r}, {hi!r}, [")
        lines.extend(f"        {x!r}," for x in nodes)
        lines.append("    ]),")
    lines.append("}")
    return "\n".join(lines) + "\n"


def main(argv) -> int:
    text = render(generate())
    if "--check" in argv:
        with open(PATH) as fh:
            same = fh.read() == text
        print(f"{PATH}: {'matches' if same else 'DIFFERS from'} the regenerated tables")
        return 0 if same else 1
    with open(PATH, "w") as fh:
        fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
