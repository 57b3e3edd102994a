"""Per-layer timings of the Jacobi E_f optimizer (pytest-benchmark).

Outside the tier-1 suite: `testpaths` collects only `tests/`.  Run with

    PYTHONPATH=src python -m pytest benchmarks/test_jacobi.py \
        --benchmark-json=bench.json

Layers, at dims (2, 2) and (4, 4):
- one pair line search: the bounded scalar minimization over the rotation
  angle of rows 0 and 1 with the complex phase, as one sweep performs it;
- one `_jacobi_refine` sweep (max_cycles=1) over every pair of a seeded
  random start.

The inputs mirror the benchmark workloads: a rank-3 two-qubit state with five
rows (eof-qubit), and the square of a rank-2 two-qubit state, dims (4, 4),
rank 4, with nine rows (the A_2 step of regularize-n2).
"""

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from entcost.eof import _jacobi_refine, _pair_objective, _row_blocks
from entcost.qcore import RandomSource, sample_density_matrix, tensor_product

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


def _line_search(W, dims):
    Ma, Mb = _row_blocks(W[[0, 1]], *dims)
    return minimize_scalar(_pair_objective(Ma, Mb, 1.0j),
                           bounds=(-np.pi / 2, np.pi / 2), method="bounded",
                           options={"xatol": 1e-5, "maxiter": 40})


@pytest.mark.parametrize("dims", list(CASES), ids=str)
def test_pair_line_search(benchmark, dims):
    W = _start(dims)
    res = benchmark(_line_search, W, dims)
    assert np.isfinite(res.fun)


@pytest.mark.parametrize("dims", list(CASES), ids=str)
def test_jacobi_sweep(benchmark, dims):
    W = _start(dims)
    total, _, _ = benchmark(lambda: _jacobi_refine(W.copy(), *dims, 1e-6, 1))
    assert 0.0 <= total
