"""Per-layer timings of the formation protocol (pytest-benchmark).

Outside the tier-1 suite: `testpaths` collects only `tests/`.  Run with

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest \
        benchmarks/test_formation.py --benchmark-json=bench.json

Layers:
- `dilution_fidelity` at counts 2-6, at 22 (the largest count the deleted
  r^c spectrum array allowed at r = 2) and at 1000, a walk over the 1001
  occupation patterns of a two-qubit power;
- `_kept_terms`, the dilution spectra: the kept rows and amplitudes of one
  block arranged from its walk's head, on the Bell block of criterion 6 at
  n = 10 with delta1 = 0.3 (count 7, all 2^7 terms tie and are kept) and
  on the 20-copy block of `sample_pure_state((2, 2), RandomSource(5))` at
  the budget `--delta2 0.1` charges (2^4 of 2^20 terms kept);
- `typical_set` at (0.7, 0.3), n = 16 (k^n = 2^16 sequences), at
  (0.9, 0.1), n = 21, whose thin window admits 7547 of 2^21 sequences, and
  at (0.5, 0.5), n = 20, which admits 1,036,184 of 2^20;
- the exact-mode factor build, `support_factors`: the per-composition
  products and gathers, and the block QR of R_t and R_y (kept-term
  selection included; the single-copy basis is its input);
- each fidelity of the chain from those factors, as `formation_protocol`
  forms it: fid1 = ||R_t Lam||_1, fid2 = ||R_t R_y^dag||_1, and
  exact_bures from ||R_y Lam||_1.

The dilution input is one seeded member of the formation-exact corpus, diluted
at the budget `ceil(count * E)` that `--delta2 0` charges, so the dilution is
lossy and its cut falls inside the spectrum.  The factor and fidelity layers
run on a seeded (0.5, 0.3, 0.2) ensemble at n = 4, as the formation-exact
corpus does (rank 3, 81 rows, 56 typical sequences), and on the 16-member
`eof_optimize` ensemble of a full-rank two-qubit state at n = 3 (64 rows,
3360 typical sequences, so R_t and R_y are QR-compressed), and at the
exact-mode work limit: criterion 6 at n = 10 with delta1 = 0.3 (1024 rows,
912 typical sequences, work 8.5e8 of `qcore.EXACT_WORK_CAP` = 1e9).  The
narrow case, three copies of |00> at weights (0.98, 0.01, 0.01) and n = 30
(one row, 190,591 typical sequences in 9 compositions), shows the cost per
sequence: the grouping, the gathers and the row stack, with one QR per
`formation.QR_ROWS` rows.  Its fidelities are 1 to within the rounding of
p_T, which `math.fsum` rounds once.
"""

import functools
import math

import numpy as np
import pytest

from entcost.eof import eof_optimize
from entcost.formation import (
    _kept_terms,
    _ranked_patterns,
    _schmidt,
    _truncation,
    dilution_fidelity,
    dilution_plan,
    support_basis,
    support_factors,
    typical_set,
)
from entcost.metrics import bures_from_fidelity, nuclear_norm
from entcost.qcore import (
    Ensemble,
    PureState,
    RandomSource,
    basis_pure,
    ensemble_average,
    pure_entanglement,
    sample_density_matrix,
    sample_pure_state,
)

PSI = sample_pure_state((2, 2), RandomSource(41).split())


def _budget(count):
    return math.ceil(count * pure_entanglement(PSI))


@pytest.mark.parametrize("count", [2, 3, 4, 5, 6, 22, 1000])
def test_dilution_fidelity(benchmark, count):
    fid = benchmark(dilution_fidelity, PSI, count, _budget(count))
    assert 0.0 < fid <= 1.0


def _walk(psi, count, budget):
    """(Schmidt weights, keep, head) of diluting psi^(x)count from `budget`
    singlets, as formation_protocol walks each block once."""
    mu = _schmidt(psi)[1]
    keep, _, head = _truncation(_ranked_patterns(mu, count), budget)
    return mu, keep, head


def _kept_term_block(case):
    if case == "criterion6-bell-c7":
        ens, n, delta1 = _ensemble("criterion6-n10")
        plan = dilution_plan(ens, typical_set(ens.weights, n, delta1), 0.25)
        count = plan.entries[0].count
        return _walk(ens.states[0], count, plan.entries[0].singlets)
    psi = sample_pure_state((2, 2), RandomSource(5))
    return _walk(psi, 20, math.ceil(20 * (pure_entanglement(psi) + 0.1)))


@pytest.mark.parametrize("case", ["criterion6-bell-c7", "pure-c20"])
def test_kept_terms(benchmark, case):
    mu, keep, head = _kept_term_block(case)
    terms, amplitudes = benchmark(_kept_terms, mu.size, keep, head)
    assert terms.shape == (keep, len(head[0][2])) and amplitudes.shape == (keep,)


@pytest.mark.parametrize("p, n", [((0.7, 0.3), 16), ((0.9, 0.1), 21),
                                  ((0.5, 0.5), 20)], ids=str)
def test_typical_set(benchmark, p, n):
    tset = benchmark(typical_set, list(p), n, 0.5)
    assert 0 < len(tset.sequences) < 2 ** n


def _ensemble(case):
    """(ensemble, n, delta1)"""
    if case == "ens3-n4":
        rng = RandomSource(41)
        states = tuple(sample_pure_state((2, 2), rng.split()) for _ in range(3))
        return Ensemble(np.array([0.5, 0.3, 0.2]), states), 4, 0.5
    if case == "criterion6-n10":
        v = np.zeros(4, dtype=complex)
        v[0] = v[3] = 1 / np.sqrt(2)
        return Ensemble(np.array([0.5, 0.5]), (PureState((2, 2), v),
                                               basis_pure((2, 2), 0, 0))), 10, 0.3
    if case == "identical-n30":
        return Ensemble(np.array([0.98, 0.01, 0.01]),
                        (basis_pure((2, 2), 0, 0),) * 3), 30, 0.5
    rho = sample_density_matrix((2, 2), 4, RandomSource(11))
    return eof_optimize(rho, rng=RandomSource(11)).ensemble, 3, 0.5


@functools.cache
def _protocol_inputs(case):
    """Ensemble, typical set, Schmidt decompositions, kept-term selection
    (walk included), support basis and unit-trace factors, with delta2 = 0.25
    as the formation-exact items."""
    ens, n, delta1 = _ensemble(case)
    tset = typical_set(ens.weights, n, delta1)
    plan = dilution_plan(ens, tset, 0.25)
    schmidt = [_schmidt(psi) for psi in ens.states]
    kept = lambda i, c: _kept_terms(schmidt[i][1].size, *_truncation(
        _ranked_patterns(schmidt[i][1], c), plan.entries[i].singlets)[::2])
    support = support_basis(ensemble_average(ens), ens.states)
    lam_n, r_t, r_y = support_factors(ens, tset, schmidt, kept, support)
    scale = 1.0 / np.sqrt(tset.total_weight)
    return ens, tset, schmidt, kept, support, lam_n, r_t * scale, r_y * scale


CASES = ["ens3-n4", "sixteen-n3", "criterion6-n10", "identical-n30"]


@pytest.mark.parametrize("case", CASES)
def test_factor_build(benchmark, case):
    ens, tset, schmidt, kept, support, *_ = _protocol_inputs(case)
    lam_n, r_t, r_y = benchmark(support_factors, ens, tset, schmidt, kept, support)
    assert r_t.shape[1] == r_y.shape[1] == lam_n.size


@pytest.mark.parametrize("case", CASES)
def test_fid1(benchmark, case):
    *_, lam_n, r_t, _ = _protocol_inputs(case)
    assert 0.0 < benchmark(lambda: nuclear_norm(r_t * lam_n)) <= 1.0 + 1e-12


@pytest.mark.parametrize("case", CASES)
def test_fid2(benchmark, case):
    *_, r_t, r_y = _protocol_inputs(case)
    assert 0.0 < benchmark(lambda: nuclear_norm(r_t @ r_y.conj().T)) <= 1.0 + 1e-12


@pytest.mark.parametrize("case", CASES)
def test_exact_bures(benchmark, case):
    *_, lam_n, _, r_y = _protocol_inputs(case)
    assert 0.0 <= benchmark(lambda: bures_from_fidelity(nuclear_norm(r_y * lam_n))) < 2.0
