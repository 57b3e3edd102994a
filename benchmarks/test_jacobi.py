"""Per-layer timings of the Jacobi E_f optimizer (pytest-benchmark).

Outside the tier-1 suite: `testpaths` collects only `tests/`.  Run with

    PYTHONPATH=src python -m pytest benchmarks/test_jacobi.py \
        --benchmark-json=bench.json

Layers, at dims (2, 2) and (4, 4):
- one pair line search: building the objective of rows 0 and 1 with the
  complex phase and minimizing it over the rotation angle, as one sweep does;
- the bounded search alone, on that pair's objective built once;
- one lockstep round at dims (4, 4): the first round-robin round of the
  start's nine rows (four disjoint pairs), every pair's line search with the
  complex phase run in lockstep, one `eigvalsh` call per step;
- one `_jacobi_refine` sweep (max_cycles=1) over every pair of a seeded
  random start;
- one raced `eof_optimize` call with three random starts, the later two
  stopped once they cannot beat the best (dims (2, 2) only);
- the regularize n = 2 step of four rank-2 states: `eof_optimize` on each
  square, warm-started from the product of its single-copy ensemble, with
  one random start raced against the warm start (dims (4, 4) only).

The inputs mirror the benchmark workloads: a rank-3 two-qubit state with five
rows (eof-qubit), and the square of a rank-2 two-qubit state, dims (4, 4),
rank 4, with nine rows (the A_2 step of regularize-n2).
"""

import numpy as np
import pytest

from entcost.eof import (
    _jacobi_refine,
    _pair_objective,
    _round_searches,
    _rounds,
    _row_blocks,
    eof_optimize,
    minimize_scalar,
)
from entcost.qcore import RandomSource, sample_density_matrix, tensor_product
from entcost.regcost import product_ensemble

# (dims, rank of the state, rows), matching the eof-qubit and regularize-n2 items
CASES = {(2, 2): (3, 5), (4, 4): (4, 9)}


def _start(dims):
    """Rows of a random isometry start, built as eof_optimize builds them."""
    rank, rows = CASES[dims]
    if dims == (2, 2):
        rho = sample_density_matrix((2, 2), rank, RandomSource(1))
    else:
        one = sample_density_matrix((2, 2), 2, RandomSource(1))
        rho = tensor_product(one, one)
    evals, evecs = np.linalg.eigh(rho.matrix)
    keep = evals > 1e-12
    base = (evecs[:, keep] * np.sqrt(evals[keep])).T
    g = RandomSource(2).gen
    x = g.standard_normal((rows, rank)) + 1j * g.standard_normal((rows, rank))
    q, _ = np.linalg.qr(x)
    return q @ base


def _objective(W, dims):
    return _pair_objective(*_row_blocks(W[[0, 1]], *dims), 1.0j)


def _search(objective):
    # the bounds and options of _jacobi_refine
    return minimize_scalar(objective, (-np.pi / 2, np.pi / 2),
                           xatol=1e-5, maxiter=40)


@pytest.mark.parametrize("dims", list(CASES), ids=str)
def test_pair_line_search(benchmark, dims):
    W = _start(dims)
    res = benchmark(lambda: _search(_objective(W, dims)))
    assert np.isfinite(res.fun)


@pytest.mark.parametrize("dims", list(CASES), ids=str)
def test_search_only(benchmark, dims):
    objective = _objective(_start(dims), dims)
    res = benchmark(_search, objective)
    assert np.isfinite(res.fun)


def test_lockstep_round(benchmark):
    W = _start((4, 4))
    pairs = np.array(_rounds(len(W))[0])
    results = benchmark(_round_searches, W, pairs, 4, 4, 1.0j)
    assert len(results) == 4 and all(np.isfinite(r.fun) for r in results)


@pytest.mark.parametrize("dims", list(CASES), ids=str)
def test_jacobi_sweep(benchmark, dims):
    W = _start(dims)
    total = benchmark(lambda: _jacobi_refine(W.copy(), *dims, 1e-6, 1))[0]
    assert 0.0 <= total


def test_raced_eof_optimize(benchmark):
    rho = sample_density_matrix((2, 2), 3, RandomSource(1))
    res = benchmark(lambda: eof_optimize(rho, ensemble_size=5, restarts=3,
                                         rng=RandomSource(2)))
    assert len(res.value_history) == 3


def test_regularize_n2_step(benchmark):
    # the A_2 step of an entcost regularize item (--restarts 1,
    # --ensemble-size 3, regularized_sequence's max_cycles of 60) on four
    # rank-2 states; the random start of the first converges before the race
    # can stop it, the other three are stopped
    steps = []
    for seed in range(1, 5):
        rho = sample_density_matrix((2, 2), 2, RandomSource(seed))
        one = eof_optimize(rho, ensemble_size=3, restarts=1,
                           rng=RandomSource(2), max_cycles=60).ensemble
        steps.append((tensor_product(rho, rho), product_ensemble(one, one)))

    def run():
        return [eof_optimize(square, ensemble_size=max(4, len(seed)),
                             restarts=1, rng=RandomSource(3),
                             seed_ensembles=[seed], max_cycles=60)
                for square, seed in steps]
    results = benchmark(run)
    assert all(len(res.value_history) == 2 for res in results)
