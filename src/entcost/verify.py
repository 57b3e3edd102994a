"""Seeded property-fuzzing suite: monotonicity, continuity, metric chain,
and fidelity multiplicativity.  Deterministic given the seed, so repeated
runs produce identical reports."""

from __future__ import annotations

import numpy as np

from .eof import (
    LOCC_KINDS,
    check_monotonicity,
    continuity_bound,
    eof_two_qubit_closed_form,
    sample_locc,
)
from .metrics import metric_relation_check, uhlmann_fidelity
from .qcore import (
    QuantumState,
    RandomSource,
    sample_density_matrix,
    tensor_matrix,
)

CONTINUITY_SCALE = 0.02        # first perturbation step of a continuity pair
CONTINUITY_MAX_DISTANCE = 0.2  # Bures distance a continuity pair must land within
MULTIPLICATIVITY_TOL = 1e-8    # |F(joint) - F F| counted as a violation above it


def perturbed_pair(rho: QuantumState, rng: RandomSource, scale):
    """rho plus scaled Hermitian traceless Gaussian noise, clipped back to PSD."""
    d = rho.dim
    g = rng.gen
    h = g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))
    h = (h + h.conj().T) / 2.0
    h -= np.trace(h).real / d * np.eye(d)
    m = rho.matrix + scale * h
    evals, evecs = np.linalg.eigh(m)
    evals = np.clip(evals, 0.0, None)
    m = (evecs * evals) @ evecs.conj().T
    return QuantumState(rho.dims, m / np.trace(m).real)


def fuzz_monotonicity(count, rng: RandomSource):
    """Random (two-qubit state, LOCC-by-construction channel) pairs."""
    violations = 0
    worst = 0.0
    for i in range(count):
        rank = 1 + i % 4
        rho = sample_density_matrix((2, 2), rank, rng.split())
        kind = LOCC_KINDS[i % len(LOCC_KINDS)]
        ch = sample_locc((2, 2), kind, rng.split())
        rep = check_monotonicity(rho, ch)
        worst = max(worst, rep.after - rep.before)
        if not rep.holds:
            violations += 1
    return {"count": count, "violations": violations, "worst_increase": worst}


def fuzz_continuity(count, rng: RandomSource):
    """Perturbed two-qubit pairs against the continuity bound.

    The bound is only claimed for small Bures distance, so the perturbation
    is shrunk until each pair lands within CONTINUITY_MAX_DISTANCE.
    """
    violations = 0
    max_distance = 0.0
    for i in range(count):
        rho = sample_density_matrix((2, 2), 1 + i % 4, rng.split())
        noise = rng.split()
        step = CONTINUITY_SCALE
        for _ in range(30):
            rho2 = perturbed_pair(rho, noise.replay(), step)
            chk = continuity_bound(rho, rho2,
                                   eof_two_qubit_closed_form(rho),
                                   eof_two_qubit_closed_form(rho2))
            if chk.distance <= CONTINUITY_MAX_DISTANCE:
                break
            step /= 2.0
        max_distance = max(max_distance, chk.distance)
        if not chk.holds:
            violations += 1
    return {"count": count, "violations": violations,
            "max_distance": max_distance}


def fuzz_metric_chain(count, rng: RandomSource):
    """Random pairs in dims (2,2) and (3,3) against 1 - F <= d <= sqrt(1-F^2)."""
    violations = 0
    for i in range(count):
        dims = (2, 2) if i % 2 == 0 else (3, 3)
        d = dims[0] * dims[1]
        a = sample_density_matrix(dims, 1 + i % d, rng.split())
        b = sample_density_matrix(dims, 1 + (i // 2) % d, rng.split())
        if not metric_relation_check(a, b).chain_holds:
            violations += 1
    return {"count": count, "violations": violations}


def fuzz_multiplicativity(count, rng: RandomSource):
    """F(rho (x) rho', sigma (x) sigma') against F(rho,sigma) F(rho',sigma')."""
    violations = 0
    worst = 0.0
    for i in range(count):
        states = [sample_density_matrix((2, 2), 1 + (i + j) % 4, rng.split())
                  for j in range(4)]
        r1, s1, r2, s2 = states
        big_r, dims = tensor_matrix(r1.matrix, r1.dims, r2.matrix, r2.dims)
        big_s, _ = tensor_matrix(s1.matrix, s1.dims, s2.matrix, s2.dims)
        joint = uhlmann_fidelity(QuantumState(dims, big_r),
                                 QuantumState(dims, big_s))
        product = uhlmann_fidelity(r1, s1) * uhlmann_fidelity(r2, s2)
        err = abs(joint - product)
        worst = max(worst, err)
        if err > MULTIPLICATIVITY_TOL:
            violations += 1
    return {"count": count, "violations": violations, "worst_error": worst}


def run_verification(seed, *, pairs=1000, channels=100, perturbed=100,
                     quadruples=100):
    """Run all four property suites; returns (report, all_clean)."""
    rng = RandomSource(seed)
    report = {
        "monotonicity": fuzz_monotonicity(channels, rng.split()),
        "continuity": fuzz_continuity(perturbed, rng.split()),
        "metric_chain": fuzz_metric_chain(pairs, rng.split()),
        "multiplicativity": fuzz_multiplicativity(quadruples, rng.split()),
    }
    clean = all(section["violations"] == 0 for section in report.values())
    return report, clean
