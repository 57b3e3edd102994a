"""Per-layer timings of the conjugate-gradient E_f optimizer (pytest-benchmark).

Outside the tier-1 suite: `testpaths` collects only `tests/`.  Run with

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest \
        benchmarks/test_eof.py --benchmark-json=bench.json

Layers, at dims (2, 2) and (4, 4):
- one `_objective` call, which gives the value and the gradient together;
- one line-search trial: the retraction of a step and the objective there;
- one conjugate-gradient iteration (`MAX_ITERATIONS` set to 1);
- one start, refined until it stops;
- one `eof_optimize` call: three random starts at (2, 2) (an eof-qubit
  item), and at (4, 4) the A_2 step of a regularize-n2 item, warm-started
  from the square of the single-copy ensemble with one random start.

The inputs mirror the benchmark workloads: a rank-3 two-qubit state with five
rows (eof-qubit), and the square of a rank-2 two-qubit state, dims (4, 4),
rank 4, with nine rows (the A_2 step of regularize-n2).
"""

import numpy as np
import pytest

import entcost.eof
from entcost.eof import (
    _objective,
    _refine,
    _retract,
    _tangent,
    eof_optimize,
)
from entcost.qcore import RandomSource, sample_density_matrix, tensor_product
from entcost.regcost import product_ensemble

# dims -> (rank of the state, rows), matching the eof-qubit and regularize-n2 items
CASES = {(2, 2): (3, 5), (4, 4): (4, 9)}


def _state(dims):
    if dims == (2, 2):
        return sample_density_matrix((2, 2), CASES[dims][0], RandomSource(1))
    one = sample_density_matrix((2, 2), 2, RandomSource(1))
    return tensor_product(one, one)


def _start(dims):
    """(U, B) of a random isometry start, built as eof_optimize builds it."""
    rank, rows = CASES[dims]
    evals, evecs = np.linalg.eigh(_state(dims).matrix)
    keep = evals > 1e-12
    B = (evecs[:, keep] * np.sqrt(evals[keep])).T
    g = RandomSource(2).gen
    x = g.standard_normal((rows, rank)) + 1j * g.standard_normal((rows, rank))
    return np.linalg.qr(x)[0], B


@pytest.mark.parametrize("dims", list(CASES), ids=str)
def test_objective(benchmark, dims):
    U, B = _start(dims)
    value, _ = benchmark(_objective, U, B, *dims)
    assert np.isfinite(value)


@pytest.mark.parametrize("dims", list(CASES), ids=str)
def test_line_search_trial(benchmark, dims):
    U, B = _start(dims)
    step = -0.1 * _tangent(U, _objective(U, B, *dims)[1])
    value, _ = benchmark(lambda: _objective(_retract(U + step), B, *dims))
    assert np.isfinite(value)


@pytest.mark.parametrize("dims", list(CASES), ids=str)
def test_iteration(benchmark, monkeypatch, dims):
    U, B = _start(dims)
    monkeypatch.setattr(entcost.eof, "MAX_ITERATIONS", 1)
    _, _, outcome, (iterations, _) = benchmark(_refine, U, B, *dims, 1e-6)
    assert (outcome, iterations) == ("iteration_cap", 1)


@pytest.mark.parametrize("dims", list(CASES), ids=str)
def test_start(benchmark, dims):
    U, B = _start(dims)
    outcome = benchmark(_refine, U, B, *dims, 1e-6)[2]
    assert outcome == "converged"


@pytest.mark.parametrize("dims", list(CASES), ids=str)
def test_eof_optimize(benchmark, dims):
    if dims == (2, 2):
        rho = _state(dims)
        res = benchmark(lambda: eof_optimize(rho, ensemble_size=5, restarts=3,
                                             rng=RandomSource(2)))
        assert len(res.starts) == 3
        return
    one = sample_density_matrix((2, 2), 2, RandomSource(1))
    ens = eof_optimize(one, ensemble_size=3, restarts=1,
                       rng=RandomSource(2)).ensemble
    seed = product_ensemble(ens, ens)
    square = _state(dims)
    res = benchmark(lambda: eof_optimize(square, ensemble_size=max(4, len(seed)),
                                         restarts=1, rng=RandomSource(3),
                                         seed_ensembles=[seed]))
    assert [r.kind for r in res.starts] == ["warm", "random"]
