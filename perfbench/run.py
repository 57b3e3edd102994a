"""entcost benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload eof-qubit --seed 1 --seconds 25 --trace 0

Run from the repository root; the program is imported from `src/`.  Each item
is a serial, in-process call of `entcost.cli.main(argv)` on input files that
set-up generates from the seed (a closed loop with one client).  With
`--trace 0` the run repeats its corpus until `--seconds` have passed (at least
one full pass) and prints the end-to-end metrics; with `--trace 1` it makes
one untraced and one traced pass and prints the per-layer metrics.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  See perfbench/README.md for every metric.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _pin_blas_threads():
    """Pin BLAS threads to at most the usable cores; must run before numpy loads."""
    cores = len(os.sched_getaffinity(0))
    requested = os.environ.get("OPENBLAS_NUM_THREADS", "")
    threads = min(int(requested), cores) if requested.isdigit() and int(requested) > 0 else cores
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return cores, threads


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def prepare():
    """Pin BLAS threads and put `src/` first on the path; None without sources."""
    cores, threads = _pin_blas_threads()
    if not (SRC / "entcost" / "__init__.py").is_file():
        print(f"error: no entcost sources under {SRC}", file=sys.stderr)
        return None
    sys.path.insert(0, str(SRC))
    return cores, threads


def main(argv=None):
    args = _parse(argv)
    pinned = prepare()
    if pinned is None:
        return 2

    import harness   # only after prepare(): numpy must see the BLAS pin

    return harness.run(args, cores=pinned[0], threads=pinned[1])


if __name__ == "__main__":
    sys.exit(main())
