"""Per-layer timings of the L-BFGS E_f optimizer (pytest-benchmark).

Outside the tier-1 suite: `testpaths` collects only `tests/`.  Run with

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest \
        benchmarks/test_eof.py --benchmark-json=bench.json

Layers, at dims (2, 2) and (4, 4):
- one `_objective` call, which gives the value and the gradient together,
  on the path the refine takes: at (2, 2), k = 2, from the rows' Pauli
  forms (`pauli`), timed also on the `eigh` path it replaced (`eigh`); at
  (4, 4), k = 4, the `eigh` path;
- one line-search trial: the retraction of a step and the objective there,
  on the path the refine takes;
- one L-BFGS iteration (`MAX_ITERATIONS` set to 1);
- one start, refined until it stops;
- one joint refine of three random starts at (2, 2), stacked as one
  3 x L x r stack of isometries, as `eof_optimize` refines an eof-qubit
  item's starts;
- one `eof_optimize` call: three random starts at (2, 2) (an eof-qubit
  item), and at (4, 4) the A_2 step of a regularize-n2 item, the Kronecker
  square of the single-copy isometry refined alone as its warm start.  That
  warm start is stationary to rounding: its slope is within 16 ulps of its
  value, so the refine stops at its first evaluation (iterations and
  evaluations in `extra_info`: 0 / 1, where a stop at a zero slope took
  2 / 7), and this layer's time follows that count, not the cost of a step;
- one step of the regularization trace at n = 3 and n = 4: the warm start
  alone on the Kronecker rows, as `regularized_sequence` runs every step
  past n = 1, with its iterations and evaluations in `extra_info` (0 / 1 at
  both, where a stop at a zero slope took 2 / 6).

The inputs mirror the benchmark workloads: a rank-3 two-qubit state with five
rows (eof-qubit), and the square of a rank-2 two-qubit state, dims (4, 4),
rank 4, with nine rows (the A_2 step of regularize-n2).  The trace steps
take the rank-2 state of ROADMAP direction 7 with the default four rows per
copy: (8, 8) with 64 rows of rank 8, and (16, 16) with 256 rows of rank 16.
"""

import numpy as np
import pytest

import entcost.eof
from entcost.eof import (
    _eigen_rows,
    _minimize_rows,
    _objective,
    _pauli_forms,
    _refine,
    _retract,
    _tangent,
    eof_optimize,
)
from entcost.qcore import RandomSource, sample_density_matrix, tensor_product, tensor_rows

# dims -> (rank of the state, rows), matching the eof-qubit and regularize-n2 items
CASES = {(2, 2): (3, 5), (4, 4): (4, 9)}


def _state(dims):
    if dims == (2, 2):
        return sample_density_matrix((2, 2), CASES[dims][0], RandomSource(1))
    one = sample_density_matrix((2, 2), 2, RandomSource(1))
    return tensor_product(one, one)


def _start(dims, starts=1):
    """(U, B) of `starts` random isometry starts stacked, built as
    eof_optimize builds them."""
    rank, rows = CASES[dims]
    evals, evecs = np.linalg.eigh(_state(dims).matrix)
    keep = evals > 1e-12
    B = (evecs[:, keep] * np.sqrt(evals[keep])).T
    g = RandomSource(2).gen
    blocks = []
    for _ in range(starts):
        x = g.standard_normal((rows, rank)) + 1j * g.standard_normal((rows, rank))
        blocks.append(np.linalg.qr(x)[0])
    return np.stack(blocks), B


def _forms(B, dims, eigh=False):
    """`_objective`'s forms argument: the Pauli forms at k = 2, where the
    refine takes them, unless the eigh path is asked for."""
    return None if eigh or min(dims) != 2 else _pauli_forms(B, *dims)


@pytest.mark.parametrize("dims, path", [((2, 2), "pauli"), ((2, 2), "eigh"),
                                        ((4, 4), "eigh")], ids=str)
def test_objective(benchmark, dims, path):
    U, B = _start(dims)
    value = benchmark(_objective, U, B, *dims, _forms(B, dims, path == "eigh"))[0]
    assert np.isfinite(value)


@pytest.mark.parametrize("dims", list(CASES), ids=str)
def test_line_search_trial(benchmark, dims):
    U, B = _start(dims)
    forms = _forms(B, dims)
    step = -0.1 * _tangent(U, _objective(U, B, *dims, forms)[-1])
    value = benchmark(lambda: _objective(_retract(U + step), B, *dims, forms))[0]
    assert np.isfinite(value)


@pytest.mark.parametrize("dims", list(CASES), ids=str)
def test_lbfgs_iteration(benchmark, monkeypatch, dims):
    U, B = _start(dims)
    monkeypatch.setattr(entcost.eof, "MAX_ITERATIONS", 1)
    _, _, outcome, (iterations, _) = benchmark(_refine, U, B, *dims, 1e-6)
    assert (outcome, iterations) == ("iteration_cap", 1)


@pytest.mark.parametrize("dims", list(CASES), ids=str)
def test_start(benchmark, dims):
    U, B = _start(dims)
    outcome = benchmark(_refine, U, B, *dims, 1e-6)[2]
    assert outcome == "converged"


def test_joint_starts(benchmark):
    U, B = _start((2, 2), starts=3)
    outcome = benchmark(_refine, U, B, 2, 2, 1e-6)[2]
    assert outcome == "converged"


@pytest.mark.parametrize("dims", list(CASES), ids=str)
def test_eof_optimize(benchmark, dims):
    if dims == (2, 2):
        rho = _state(dims)
        res = benchmark(lambda: eof_optimize(rho, ensemble_size=5, restarts=3,
                                             rng=RandomSource(2)))
        assert len(res.starts) == 3
        return
    one = _eigen_rows(sample_density_matrix((2, 2), 2, RandomSource(1)))
    _, U1, _ = _minimize_rows(one, (2, 2), 3, 1, RandomSource(2))
    square, dims2 = tensor_rows(one, (2, 2), one, (2, 2))
    _, _, (warm,) = benchmark(lambda: _minimize_rows(
        square, dims2, None, 0, RandomSource(3), warm=np.kron(U1, U1)))
    assert warm.kind == "warm"
    benchmark.extra_info.update(iterations=warm.iterations,
                                evaluations=warm.evaluations)


def _trace_step(n):
    """(B_n, dims, warm) of step n of the trace."""
    B1 = _eigen_rows(sample_density_matrix((2, 2), 2, RandomSource(1)))
    _, U1, _ = _minimize_rows(B1, (2, 2), None, 1, RandomSource(2))
    B, dims, U = B1, (2, 2), U1
    for m in range(2, n + 1):
        B, dims = tensor_rows(B, dims, B1, (2, 2))
        warm = np.kron(U, U1)
        if m < n:
            U = _minimize_rows(B, dims, None, 0, RandomSource(3), warm=warm)[1]
    return B, dims, warm


@pytest.mark.parametrize("n", [3, 4])
def test_trace_step(benchmark, n):
    B, dims, warm = _trace_step(n)
    _, _, (start,) = benchmark(lambda: _minimize_rows(B, dims, None, 0,
                                                      RandomSource(3), warm=warm))
    assert start.kind == "warm" and len(warm) == 4 ** n
    benchmark.extra_info.update(iterations=start.iterations,
                                evaluations=start.evaluations)
