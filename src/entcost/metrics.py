"""Distance and fidelity functions on density matrices.

Conventions: F(rho, sigma) = Tr sqrt(sqrt(rho) sigma sqrt(rho)) is the
square-root (Uhlmann) fidelity, the Bures distance is D = 2 sqrt(1 - F) and
the trace distance is d = Tr|rho - sigma| / 2.  With those normalizations
the two metrics are sandwiched as 1 - F <= d <= sqrt(1 - F^2).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .qcore import (
    DENSE_WORK_CAP,
    RANK_TOL,
    DimensionError,
    QuantumState,
    tensor_matrix,
)

CHAIN_TOL = 1e-9
CROSS_CHECK_TOL = 1e-8    # direct tensor-power fidelity against F^k
DIRECT_DIM = round(DENSE_WORK_CAP ** (1 / 3))   # 1000: largest dimension checked


def _matrices(rho, sigma):
    a = rho.matrix if isinstance(rho, QuantumState) else np.asarray(rho)
    b = sigma.matrix if isinstance(sigma, QuantumState) else np.asarray(sigma)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    if isinstance(rho, QuantumState) and isinstance(sigma, QuantumState):
        if rho.dims != sigma.dims:
            raise DimensionError(f"dims mismatch: {rho.dims} vs {sigma.dims}")
    return a, b


def sqrtm_psd(matrix) -> np.ndarray:
    """Hermitian square root with eigenvalues clipped at zero."""
    evals, evecs = np.linalg.eigh(matrix)
    return (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.conj().T


def nuclear_norm(m) -> float:
    """Sum of the singular values of m."""
    return float(np.linalg.svd(m, compute_uv=False).sum())


def fidelity_factors(fa, fb) -> float:
    """Uhlmann fidelity of a = A A^dag and b = B B^dag from the factors alone.

    The singular values of B^dag A are the square roots of the eigenvalues of
    sqrt(a) b sqrt(a), so the fidelity is the nuclear norm of B^dag A.  Any
    factorization works: the columns need not be orthogonal or independent.
    """
    return nuclear_norm(fb.conj().T @ fa)


def psd_factor(m) -> np.ndarray:
    """F with F F^dag = m, from the eigendecomposition of m.

    Eigenvalues at most RANK_TOL times the largest are zeroed first, so
    eigenvalue-level noise never reaches a square root; real weight that
    small is dropped with it, which can move a fidelity by up to about
    sqrt(RANK_TOL) per dropped eigenvalue.
    """
    evals, evecs = np.linalg.eigh(m)
    evals = np.where(evals > RANK_TOL * max(evals.max(), 0.0), evals, 0.0)
    return evecs * np.sqrt(evals)


def fidelity_matrices(a, b) -> float:
    """Uhlmann fidelity of two PSD matrices (unit trace not required), from
    their `psd_factor`s."""
    return fidelity_factors(psd_factor(a), psd_factor(b))


def uhlmann_fidelity(rho, sigma) -> float:
    """F(rho, sigma) = Tr sqrt(sqrt(rho) sigma sqrt(rho)), clamped to [0, 1]."""
    a, b = _matrices(rho, sigma)
    f = fidelity_matrices(a, b)
    if f > 1.0 + 1e-7:
        warnings.warn(f"fidelity {f!r} exceeds 1 beyond numerical noise",
                      stacklevel=2)
    return float(min(max(f, 0.0), 1.0))


def bures_from_fidelity(f) -> float:
    """D = 2 sqrt(1 - F), 1 - F clipped at zero.  F rounded j float steps
    below 1 (2^-53 each) gives D = 2.1e-8 sqrt(j); exact fidelities of 1
    have come out six steps low, D = 5.2e-8, so D below BURES_TOL is noise."""
    return 2.0 * np.sqrt(max(0.0, 1.0 - f))


# D of a fidelity 16 eps = 3.6e-15 below 1, about 1.2e-7.  Since
# 2 sqrt(x + e) <= 2 sqrt(x) + 2 sqrt(e), it covers that much rounding in
# any fidelity a Bures distance is formed from, not only near F = 1.
BURES_TOL = bures_from_fidelity(1.0 - 16 * np.finfo(float).eps)


def bures_distance(rho, sigma) -> float:
    """D(rho, sigma) = 2 sqrt(1 - F(rho, sigma))."""
    return bures_from_fidelity(uhlmann_fidelity(rho, sigma))


def trace_distance(rho, sigma) -> float:
    """d(rho, sigma) = Tr|rho - sigma| / 2."""
    a, b = _matrices(rho, sigma)
    evals = np.linalg.eigvalsh(a - b)
    return float(np.abs(evals).sum() / 2.0)


@dataclass(frozen=True)
class DistanceReport:
    """Fidelity plus both distances, with the metric-equivalence chain."""

    fidelity: float
    bures: float
    trace: float
    chain_lower: float   # 1 - F
    chain_upper: float   # sqrt(1 - F^2)
    chain_holds: bool


def metric_relation_check(rho, sigma) -> DistanceReport:
    """Check 1 - F <= d <= sqrt(1 - F^2) alongside all three quantities."""
    f = uhlmann_fidelity(rho, sigma)
    d = trace_distance(rho, sigma)
    lower = 1.0 - f
    upper = float(np.sqrt(max(0.0, 1.0 - f * f)))
    holds = (lower - CHAIN_TOL) <= d <= (upper + CHAIN_TOL)
    return DistanceReport(
        fidelity=f,
        bures=bures_from_fidelity(f),
        trace=d,
        chain_lower=lower,
        chain_upper=upper,
        chain_holds=bool(holds),
    )


class Divergence(NamedTuple):
    k: int
    fidelity: float      # F^k
    bures: float         # 2 sqrt(1 - F^k)


def divergence_sequence(f1, k_max):
    """Divergence rows for k = 1..k_max from a per-copy fidelity F."""
    return [Divergence(k, f1 ** k, bures_from_fidelity(f1 ** k))
            for k in range(1, k_max + 1)]


def tensor_power_divergence(rho, sigma, k_max):
    """Per-copy fidelity raised to tensor powers: (k, F^k, 2 sqrt(1 - F^k)).

    Fidelity is multiplicative under tensor products, so F_k = F(rho, sigma)^k;
    the Bures distance 2 sqrt(1 - F_k) tends to 2 whenever F < 1.  Up to total
    dimension DIRECT_DIM, F_k is cross-checked against the dense fidelity.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    a, b = _matrices(rho, sigma)
    if isinstance(rho, QuantumState):
        dims = rho.dims
    else:
        raise TypeError("tensor_power_divergence requires QuantumState inputs")
    f1 = uhlmann_fidelity(rho, sigma)
    entries = []
    pa, pb, pdims = a, b, dims
    for k, fk, dk in divergence_sequence(f1, k_max):
        direct = None
        if k == 1:
            direct = f1
        elif (dims[0] * dims[1]) ** k <= DIRECT_DIM:
            # dim^k only grows with k: past the cap, the analytic sequence only
            pa, _ = tensor_matrix(pa, pdims, a, dims)
            pb, pdims = tensor_matrix(pb, pdims, b, dims)
            direct = fidelity_matrices(pa, pb)
            if abs(direct - fk) > CROSS_CHECK_TOL:
                raise RuntimeError(
                    f"tensor-power fidelity at k={k} disagrees with F^k: "
                    f"{direct!r} vs {fk!r}")
        entries.append({"k": k, "fidelity": fk, "bures": dk,
                        "direct_fidelity": direct})
    return entries
