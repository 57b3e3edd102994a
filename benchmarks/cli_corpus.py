"""Fingerprints of `entcost.cli.main` over a fixed command corpus.

Writes seeded inputs into DIR with `save_object`, runs each command of the
corpus through `entcost.cli.main` in-process with DIR as the working
directory, and prints one line per command: its exit code and the sha256
(first 16 hex digits) of its stdout, of its first stderr line and of every
file it wrote, then the command.  Two trees that print the same lines give
the same reports, tables, exit codes and error messages on the corpus:

    PYTHONPATH=parent/src python benchmarks/cli_corpus.py /tmp/a > a.txt
    PYTHONPATH=src python benchmarks/cli_corpus.py /tmp/b > b.txt
    diff a.txt b.txt

The corpus covers every subcommand, `--output` and `--csv`, usage and input
errors (a missing file, an invalid state, a bad ENTCOST_SEED, unwritable
output paths), the work limits the CLI reaches (START_CAP, ROW_WORK_CAP,
EXACT_WORK_CAP, TYPICAL_CAP, SPECTRUM_CAP, the typical-set walk's total
work) and criterion 6's ensemble at `--n 1` to `--n 10`.  One BLAS thread
(`OPENBLAS_NUM_THREADS=1`) keeps the floats of two runs comparable.
"""

import contextlib
import hashlib
import io
import itertools
import os
import sys
from pathlib import Path

import numpy as np

from entcost import cli
from entcost.qcore import (
    Ensemble,
    PureState,
    RandomSource,
    basis_pure,
    sample_density_matrix,
    sample_pure_state,
    singlet,
)
from entcost.serialize import save_object


def _inputs():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    rng = RandomSource(41)
    three = tuple(sample_pure_state((2, 2), rng.split()) for _ in range(3))
    return {
        "singlet.json": singlet(),
        "mixed.json": sample_density_matrix((2, 2), 2, RandomSource(11)),
        "rank4.json": sample_density_matrix((2, 2), 4, RandomSource(1)),
        "full44.json": sample_density_matrix((4, 4), 16, RandomSource(2)),
        "psi.json": sample_pure_state((2, 2), RandomSource(5)),
        "psi33.json": sample_pure_state((3, 3), RandomSource(5)),
        "product12.json": PureState((1, 2), np.array([0.6, 0.8])),
        "zero22.json": basis_pure((2, 2), 0, 0),
        "zero12.json": PureState((1, 2), np.array([1.0, 0.0])),
        "criterion6.json": Ensemble(np.array([0.5, 0.5]),
                                    (PureState((2, 2), bell),
                                     basis_pure((2, 2), 0, 0))),
        "three.json": Ensemble(np.array([0.5, 0.3, 0.2]), three),
        "narrow.json": Ensemble(np.array([0.98, 0.01, 0.01]),
                                (basis_pure((2, 2), 0, 0),) * 3),
        "thin.json": Ensemble(np.array([1 - 1e-6, 1e-6]),
                              (basis_pure((2, 2), 0, 0),
                               basis_pure((2, 2), 1, 1))),
    }


CORPUS = [
    # eof
    ["eof", "singlet.json", "--seed", "3"],
    ["eof", "mixed.json", "--ensemble-size", "5", "--restarts", "3"],
    ["eof", "rank4.json", "--output", "eof.json"],
    ["eof", "three.json", "--tol", "1e-4"],
    ["eof", "zero22.json"],
    ["eof", "mixed.json", "--ensemble-size", "1"],
    ["eof", "mixed.json", "--tol", "nan"],
    ["eof", "mixed.json", "--restarts", "20000"],
    ["eof", "full44.json", "--restarts", "5"],
    ["eof", "missing.json"],
    ["eof", "invalid.json"],
    ["eof", "mixed.json", "--output", "no-such-dir/eof.json"],
    # metrics
    ["metrics", "singlet.json", "mixed.json"],
    ["metrics", "mixed.json", "rank4.json", "--output", "metrics.json"],
    ["metrics", "singlet.json", "product12.json"],
    # regularize
    ["regularize", "mixed.json", "--csv", "rates.csv"],
    ["regularize", "singlet.json", "--n-max", "2", "--restarts", "0",
     "--output", "reg.json", "--csv", "reg.csv"],
    ["regularize", "mixed.json", "--n-max", "7"],
    ["regularize", "mixed.json", "--csv", "no-such-dir/rates.csv"],
    # formation
    ["formation", "criterion6.json", "--n", "4", "--csv", "sweep.csv"],
    ["formation", "criterion6.json", "--n", "5", "--window", "plain",
     "--output", "plain.json", "--csv", "plain.csv"],
    ["formation", "criterion6.json", "--n", "3", "--csv", "no-such-dir/s.csv"],
    ["formation", "criterion6.json", "--output", "no-such-dir/f.json"],
    ["formation", "mixed.json", "--n", "2", "--restarts", "2", "--seed", "5"],
    ["formation", "three.json", "--n", "3", "--delta2", "600"],
    ["formation", "three.json", "--n", "3", "--delta2", "1.7e308"],
    ["formation", "three.json", "--n", "3", "--delta1", "1e308"],
    ["formation", "psi.json", "--n", "22", "--delta2", "0.1"],
    ["formation", "psi.json", "--n", "300", "--delta2", "0.1"],
    ["formation", "psi.json", "--n", "1100", "--delta2", "0"],
    ["formation", "psi33.json", "--n", "400"],
    ["formation", "product12.json", "--n", "200"],
    ["formation", "criterion6.json", "--n", "10", "--delta1", "0.3"],
    ["formation", "criterion6.json", "--n", "11", "--delta1", "0.3"],
    ["formation", "criterion6.json", "--n", "23"],
    ["formation", "narrow.json", "--n", "37"],
    ["formation", "zero22.json", "--n", "2047"],
    ["formation", "zero22.json", "--n", "2048"],
    ["formation", "zero12.json", "--n", "2048"],
    ["formation", "thin.json", "--n", "2000", "--delta1", "0.01"],
    ["formation", "product12.json", "--n", "100000"],
    # verify
    ["verify", "--pairs", "20", "--channels", "4", "--perturbed", "4",
     "--quadruples", "4", "--seed", "2"],
    ["verify", "--pairs", "-1"],
    # demo-divergence
    ["demo-divergence"],
    ["demo-divergence", "--fidelity", "0.9", "--k-max", "20",
     "--output", "div.csv"],
    ["demo-divergence", "--format", "json", "--k-max", "3", "--seed", "2"],
    ["demo-divergence", "--format", "json", "--output", "div.json"],
    ["demo-divergence", "--fidelity", "1.5"],
    # ENTCOST_SEED
    ["ENTCOST_SEED=7", "eof", "mixed.json"],
    ["ENTCOST_SEED=banana", "eof", "mixed.json"],
    ["ENTCOST_SEED=7", "eof", "mixed.json", "--seed", "1"],
] + [["formation", "criterion6.json", "--n", str(n)] for n in range(1, 11)]


def _sha(data):
    return hashlib.sha256(data).hexdigest()[:16]


def run(command):
    """(exit code, stdout, stderr, {path: bytes written}) of one command,
    run in the current directory; a leading NAME=VALUE sets that variable
    for this command alone."""
    env = dict(a.split("=", 1) for a in itertools.takewhile(lambda a: "=" in a, command))
    argv = command[len(env):]
    before = set(Path(".").rglob("*"))
    saved = {name: os.environ.get(name) for name in env}
    os.environ.update(env)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:       # argparse exits on usage errors
                code = exc.code
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name)
            else:
                os.environ[name] = value
    written = {str(p): p.read_bytes()
               for p in sorted(set(Path(".").rglob("*")) - before) if p.is_file()}
    return code, out.getvalue(), err.getvalue(), written


def main(directory):
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    os.chdir(root)
    for name, obj in _inputs().items():
        save_object(name, obj)
    Path("invalid.json").write_text('{"dims": [2, 2], "vector": [[1.0, 0.0]]}')
    for command in CORPUS:
        code, out, err, written = run(command)
        first = err.splitlines()[0] if err else ""
        files = " ".join(f"{path}={_sha(data)}" for path, data in written.items())
        print(f"exit={code} stdout={_sha(out.encode())} "
              f"stderr={_sha(first.encode())} files=[{files}] "
              f"{' '.join(command)}", flush=True)
        for path in written:
            os.remove(path)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} DIR")
    main(sys.argv[1])
