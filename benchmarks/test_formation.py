"""Per-layer timings of the formation protocol (pytest-benchmark).

Outside the tier-1 suite: `testpaths` collects only `tests/`.  Run with

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest \
        benchmarks/test_formation.py --benchmark-json=bench.json

Layers:
- `dilution_fidelity` at counts 2-6 and at 22, where the 2^22 Schmidt
  weights of a two-qubit power reach `SPECTRUM_CAP`;
- `dilute_pure_state` at counts 1-5;
- `typical_set` over k^n = 2^16 sequences (k = 2, n = 16).

The dilution input is one seeded member of the formation-exact corpus, diluted
at the budget `ceil(count * E)` that `--delta2 0` charges, so the dilution is
lossy and its cut falls inside the spectrum.
"""

import math

import pytest

from entcost.formation import (
    SPECTRUM_CAP,
    dilute_pure_state,
    dilution_fidelity,
    typical_set,
)
from entcost.qcore import RandomSource, pure_entanglement, sample_pure_state

PSI = sample_pure_state((2, 2), RandomSource(41).split())


def _budget(count):
    return math.ceil(count * pure_entanglement(PSI))


@pytest.mark.parametrize("count", [2, 3, 4, 5, 6, 22])
def test_dilution_fidelity(benchmark, count):
    assert count < 22 or 2 ** count == SPECTRUM_CAP
    fid = benchmark(dilution_fidelity, PSI, count, _budget(count))
    assert 0.0 < fid <= 1.0


@pytest.mark.parametrize("count", [1, 2, 3, 4, 5])
def test_dilute_pure_state(benchmark, count):
    approx, fid = benchmark(dilute_pure_state, PSI, count, _budget(count))
    assert approx.dims == (2 ** count, 2 ** count)
    assert 0.0 < fid <= 1.0


def test_typical_set(benchmark):
    tset = benchmark(typical_set, [0.7, 0.3], 16, 0.5)
    assert 0 < len(tset.sequences) < 2 ** 16
