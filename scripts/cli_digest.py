"""Print the sha256 of the stdout and of every output file of a fixed list
of CLI runs, so that two commits can be compared bitwise.

Usage:

    python scripts/cli_digest.py [SRC]
    python scripts/cli_digest.py OLD_SRC NEW_SRC

SRC is the directory that holds the ``sparsegrids`` package (default: the
``src`` directory next to this script), so the same list runs against any
checkout, e.g. one made with ``git archive``.  Every CLI line runs in a
fresh process inside one temporary directory, in the order listed; each
output line reads ``<run> <stdout|file> <sha256>``.  Two commits are
bitwise equal on these runs when the printed lines are identical.  Given
two directories, the script runs the list against each and prints only
the lines that differ, as a ``-`` line of OLD_SRC and a ``+`` line of
NEW_SRC, each pair followed by the size of the difference: how many of
the numbers in that stdout or file changed and the largest relative
change among them (or that the text around the numbers differs); it
exits 1 if any differ.
"""

import hashlib
import os
import re
import subprocess
import sys
import tempfile

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_SIGMAS_D10 = ",".join(repr(round(0.4 * 0.7**k, 6)) for k in range(10))
_ADAPT = ["adapt", "--dim", "3", "--fn", "expsum", "--knots", "leja", "--domain=-1.3,1.7",
          "--lev2knots", "linear", "--nested"]
_ADAPT_4D = ["adapt", "--dim", "4", "--fn", "expsum", "--knots", "leja", "--domain=0,1",
             "--lev2knots", "linear", "--nested"]

# (run name, CLI arguments, output files it writes)
RUNS = [
    ("forward", ["demo", "forward", "-o", "forward.json", "--samples-csv", "forward.csv"],
     ["forward.json", "forward.csv"]),
    ("forward-d10", ["demo", "forward", "--N", "10", "--w", "4", "--samples", "1000",
                     "--sigmas", _SIGMAS_D10, "-o", "d10.json", "--samples-csv", "d10.csv"],
     ["d10.json", "d10.csv"]),
    ("forward-leja", ["demo", "forward", "--N", "3", "--sigmas", "0.5,0.3,0.2", "--knots", "leja",
                      "--samples", "1000", "-o", "leja.json"], ["leja.json"]),
    ("forward-mesh37", ["demo", "forward", "--N", "3", "--sigmas", "0.5,0.3,0.2", "--mesh", "37",
                        "--knots", "gauss-legendre", "-o", "mesh37.json"], ["mesh37.json"]),
    ("forward-gauss", ["demo", "forward", "--N", "3", "--sigmas", "0.5,0.3,0.2", "--knots",
                       "gauss-legendre", "-o", "gauss.json"], ["gauss.json"]),
    ("inverse", ["demo", "inverse", "--N", "3", "--sigmas", "0.5,0.5,0.5",
                 "--y-star", "0.9,-1.1,0.3", "-o", "inverse.json",
                 "--samples-csv", "inverse.csv"],
     ["inverse.json", "inverse.csv"]),
    ("inverse-leja", ["demo", "inverse", "--N", "3", "--sigmas", "0.5,0.5,0.5",
                      "--y-star", "0.9,-1.1,0.3", "--knots", "leja", "-o", "inverse-leja.json"],
     ["inverse-leja.json"]),
    ("inverse-gauss", ["demo", "inverse", "--N", "3", "--sigmas", "0.5,0.5,0.5",
                       "--y-star", "0.9,-1.1,0.3", "--knots", "gauss-legendre",
                       "-o", "inverse-gauss.json"], ["inverse-gauss.json"]),
    ("adapt", _ADAPT + ["--max-pts", "300", "-o", "A.json"], ["A.json"]),
    ("adapt-resume", _ADAPT + ["--max-pts", "600", "--resume", "A.json", "-o", "B.json"],
     ["B.json"]),
    # a resume under another profit rescores the stored margin first
    ("adapt-resume-prof", _ADAPT + ["--max-pts", "450", "--prof", "deltaint_per_new_points",
                                    "--resume", "A.json", "-o", "P.json"], ["P.json"]),
    ("adapt-cc", ["adapt", "--dim", "3", "--fn", "expsum", "--knots", "cc", "--domain=-1,1",
                  "--lev2knots", "doubling", "--nested", "--prof", "deltaint", "--max-pts", "300",
                  "-o", "C.json"], ["C.json"]),
    # dimension buffering: the margin slides to each newly visible dimension
    ("adapt-buffer", ["adapt", "--dim", "4", "--fn", "runge", "--knots", "leja",
                      "--domain=0,1", "--lev2knots", "linear", "--nested", "--buffer", "1",
                      "--max-pts", "300", "-o", "U.json"], ["U.json"]),
    # a buffered run, then its resume under the wider window of no buffer, which
    # grows the margin around every accepted index into the new dimensions
    ("adapt-window", _ADAPT_4D + ["--buffer", "1", "--max-pts", "5", "-o", "W.json"],
     ["W.json"]),
    ("adapt-window-resume", _ADAPT_4D + ["--max-pts", "200", "--resume", "W.json",
                                         "-o", "W2.json"], ["W2.json"]),
    # nested, tie-free: one interval per dimension, so no two candidates score alike
    ("adapt-aniso", ["adapt", "--dim", "3", "--fn", "expsum", "--knots", "leja",
                     "--domain=0,1x-0.5,1.5x-1,0.25", "--lev2knots", "linear", "--nested",
                     "--max-pts", "200", "-o", "N.json"], ["N.json"]),
    ("adapt-gauss", ["adapt", "--dim", "2", "--fn", "expsum", "--knots", "gauss-legendre",
                     "--domain=0,1", "--max-pts", "200", "--prof", "Linf", "-o", "G.json"],
     ["G.json"]),
    # non-nested, tie-free: one interval per dimension
    ("adapt-gauss-aniso", ["adapt", "--dim", "3", "--fn", "expsum", "--knots", "gauss-legendre",
                           "--domain=0,1x-0.5,1.5x-1,0.25", "--max-pts", "400", "-o", "GA.json"],
     ["GA.json"]),
    ("build", ["build", "--dim", "3", "--preset", "SM", "--w", "4", "--knots", "cc",
               "--domain=-1,1", "-o", "grid.json"], ["grid.json"]),
    ("pce", ["pce", "--grid", "grid.json", "--fn", "expsum", "-o", "pce.csv"], ["pce.csv"]),
    ("sobol", ["sobol", "--grid", "grid.json", "--fn", "expsum"], []),
    ("interp", ["interp", "--grid", "grid.json", "--fn", "expsum", "--res", "7",
                "-o", "interp.csv"], ["interp.csv"]),
    # d > 32: a high-dimensional coefficient walk and grid file under the same check
    ("build-d40", ["build", "--dim", "40", "--preset", "SM", "--w", "2", "--knots", "cc",
                   "--domain=-1,1", "-o", "hd.json"], ["hd.json"]),
    ("quad-d40", ["quad", "--grid", "hd.json", "--fn", "expsum", "-o", "hdq.json"],
     ["hdq.json"]),
    ("quad-csv", ["quad", "--grid", "grid.json", "--fn", "runge", "--csv", "quad.csv",
                  "-o", "gq.json"], ["quad.csv", "gq.json"]),
    ("export-knots", ["export", "--grid", "grid.json", "--what", "knots", "-o", "knots.csv"],
     ["knots.csv"]),
    # interp_samples from the values quad stored, then from --fn
    ("export-stored", ["export", "--grid", "gq.json", "--what", "interp_samples", "--res", "5",
                       "--cuts", "1,3", "-o", "stored.csv"], ["stored.csv"]),
    # two cuts through one interpolant
    ("export-cuts", ["export", "--grid", "gq.json", "--what", "interp_samples", "--res", "5",
                     "--cuts", "1,2x2,3", "-o", "cuts2.csv"], ["cuts2.csv"]),
    ("export-fn", ["export", "--grid", "grid.json", "--what", "interp_samples", "--fn", "linear",
                   "--res", "5", "-o", "fn.csv"], ["fn.csv"]),
    ("sobol-demo", ["sobol", "--demo"], []),
    ("build-leja-sym", ["build", "--dim", "2", "--preset", "TD", "--w", "3", "--knots",
                        "leja-sym", "--domain=-1,1x0,2.5", "-o", "ls.json"], ["ls.json"]),
    ("build-wleja-sym", ["build", "--dim", "2", "--preset", "TD", "--w", "3", "--knots",
                         "wleja-normal-sym", "--mu", "0.5", "--sigma", "2", "-o", "wl.json"],
     ["wl.json"]),
    ("quad-wleja-sym", ["quad", "--grid", "wl.json", "--fn", "expsum"], []),
    # anisotropic Leja with one interval per dimension, then the reduced form attached
    ("build-leja-aniso", ["build", "--dim", "4", "--preset", "TD", "--w", "4", "--g=1,2,1.5,3",
                          "--knots", "leja", "--domain=-1,1x0,2x-3,-1x0.5,4", "-o", "la.json"],
     ["la.json"]),
    ("reduce-leja-aniso", ["reduce", "--grid", "la.json"], ["la.json"]),
    # different rules with equal node counts across dimensions: the interpolant's
    # reduced-weight path and the modal conversion key each rule by its dimension
    ("interp-leja-aniso", ["interp", "--grid", "la.json", "--fn", "expsum", "--res", "5",
                           "--cuts", "1,4x2,3", "-o", "la-interp.csv"], ["la-interp.csv"]),
    ("pce-leja-aniso", ["pce", "--grid", "la.json", "--fn", "runge", "-o", "la-pce.csv"],
     ["la-pce.csv"]),
    ("build-gauss-hermite", ["build", "--dim", "3", "--preset", "SM", "--w", "3", "--knots",
                             "gauss-hermite", "--mu", "0.5", "--sigma", "2", "-o", "gh.json"],
     ["gh.json"]),
    ("reduce-gauss-hermite", ["reduce", "--grid", "gh.json"], ["gh.json"]),
]


_NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan)\b")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _size(old: bytes, new: bytes) -> str:
    """How many numbers differ between two outputs, and the largest
    relative change |new - old| / max(|old|, |new|) among them with the
    pair of numbers it was read from."""
    a, b = _NUMBER.findall(old), _NUMBER.findall(new)
    if len(a) != len(b) or _NUMBER.sub(b"#", old) != _NUMBER.sub(b"#", new):
        return "the text around the numbers differs"
    # not empty: equal numbers in equal surrounding text would be equal bytes
    changed = [(x.decode(), y.decode()) for x, y in zip(a, b) if x != y]

    def rel(pair):
        x, y = map(float, pair)
        return abs(y - x) / max(abs(x), abs(y)) if x != y else 0.0

    worst = max(changed, key=rel)
    return (f"{len(changed)} of {len(a)} numbers changed, largest relative change "
            f"{rel(worst):.2g} ({worst[0]} -> {worst[1]})")


def _digest(src: str) -> list[tuple[str, bytes]] | None:
    """The output lines of every run against ``src``, each with the bytes
    it hashes; None if a run fails."""
    env = dict(os.environ, PYTHONPATH=src)
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, args, outputs in RUNS:
            proc = subprocess.run([sys.executable, "-m", "sparsegrids.cli", *args], cwd=tmp,
                                  env=env, capture_output=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr.decode())
                print(f"{name} failed with exit code {proc.returncode}", file=sys.stderr)
                return None
            lines.append((f"{name} stdout {_sha256(proc.stdout)}", proc.stdout))
            for path in outputs:
                with open(os.path.join(tmp, path), "rb") as fh:
                    data = fh.read()
                lines.append((f"{name} {path} {_sha256(data)}", data))
    return lines


def main(argv) -> int:
    digests = [_digest(os.path.abspath(src)) for src in argv or [_SRC]]
    if None in digests:
        return 1
    if len(digests) == 1:
        print("\n".join(line for line, _ in digests[0]))
        return 0
    changed = [(a, b) for a, b in zip(*digests) if a[0] != b[0]]
    for (a, old), (b, new) in changed:
        print(f"- {a}\n+ {b}\n  {_size(old, new)}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
