"""Finite-n probes of the regularized entanglement of formation.

A_n = E_f(rho^(x)n)/n is estimated for n = 1..n_max with the ensemble
optimizer, always warm-starting the (n+m)-fold problem from the product of
the best n-fold and m-fold ensembles.  That converts the subadditivity
argument a_n + a_m >= a_{n+m} into a property the computed values satisfy by
construction.  The n -> infinity limit itself is never extrapolated; every
report carries a caveat saying only finite-n certificates are produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .eof import eof_optimize
from .qcore import (
    DIMENSION_CAP,
    RANK_TOL,
    Ensemble,
    QuantumState,
    RandomSource,
    tensor_product,
    tensor_pure,
)
from .serialize import INTERNAL

LIMIT_CAVEAT = ("finite-n certificate only: the n -> infinity limit is not "
                "computable and these entries bound it from above, not estimate it")


@dataclass(frozen=True)
class TraceEntry:
    n: int
    rate: float          # A_n = E_f(rho^(x)n)/n in ebits
    warm_started: bool


class Gap(NamedTuple):
    n: int
    m: int
    gap: float           # n*A_n + m*A_m - (n+m)*A_{n+m}


@dataclass(frozen=True)
class RegularizationTrace:
    entries: tuple                 # TraceEntry per n = 1..n_max
    subadditivity_checks: tuple    # Gap per n <= m with n + m <= n_max
    ensembles: tuple = field(metadata=INTERNAL)   # best ensemble per n
    caveat: str = field(default=LIMIT_CAVEAT, init=False)

    def rate(self, n: int) -> float:
        return self.entries[n - 1].rate


def product_ensemble(e1: Ensemble, e2: Ensemble) -> Ensemble:
    """Ensemble for rho1 (x) rho2 built from all pairwise tensor products."""
    weights = []
    states = []
    for p, s in zip(e1.weights, e1.states):
        for q, t in zip(e2.weights, e2.states):
            weights.append(p * q)
            states.append(tensor_pure(s, t))
    return Ensemble(np.array(weights), tuple(states))


def regularized_sequence(rho: QuantumState, n_max: int, *,
                         rng: RandomSource | None = None,
                         restarts=2, ensemble_size=None,
                         max_cycles=60) -> RegularizationTrace:
    """Compute A_n = E_f(rho^(x)n)/n for n = 1..n_max with warm starts.

    `ensemble_size` applies to the single-copy problem; higher powers size
    their search to the warm-start product ensemble.  `restarts` counts
    random starts per n; for n > 1 it may be 0, in which case only the warm
    start is refined (which already pins A_2 <= A_1 by construction).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if rho.dim ** n_max > DIMENSION_CAP:
        raise ValueError(
            f"dim^n_max = {rho.dim ** n_max} exceeds the cap {DIMENSION_CAP}")
    if rng is None:
        rng = RandomSource(0)
    rank1 = int(np.sum(np.linalg.eigvalsh(rho.matrix) > RANK_TOL))

    entries = []
    ensembles = []
    state_n = rho
    for n in range(1, n_max + 1):
        if n > 1:
            state_n = tensor_product(state_n, rho)
        seeds = []
        if n == 1:
            size = ensemble_size
            n_restarts = max(int(restarts), 1)
        else:
            seeds.append(product_ensemble(ensembles[n - 2], ensembles[0]))
            size = max(rank1 ** n, len(seeds[0]))
            n_restarts = int(restarts)
        res = eof_optimize(state_n, ensemble_size=size,
                           restarts=n_restarts, rng=rng.split(),
                           seed_ensembles=seeds, max_cycles=max_cycles)
        entries.append(TraceEntry(n, res.value / n, warm_started=bool(seeds)))
        ensembles.append(res.ensemble)

    checks = []
    for n in range(1, n_max + 1):
        for m in range(n, n_max + 1):
            if n + m <= n_max:
                a_n = n * entries[n - 1].rate
                a_m = m * entries[m - 1].rate
                a_nm = (n + m) * entries[n + m - 1].rate
                checks.append(Gap(n, m, float(a_n + a_m - a_nm)))
    return RegularizationTrace(tuple(entries), tuple(checks), tuple(ensembles))


@dataclass(frozen=True)
class FeketeReport:
    linear_bound_holds: bool       # a_n <= c n for all entries
    c: float
    triples: tuple                 # the trace's Gap entries
    subadditive_within_tol: bool
    tolerance: float


def fekete_check(trace: RegularizationTrace, c: float, tol: float = 1e-3) -> FeketeReport:
    """Verify a_n <= c n on the entries and a_n + a_m >= a_{n+m} - tol on the
    subadditivity gaps the trace already carries."""
    linear = all(e.n * e.rate <= c * e.n + 1e-9 for e in trace.entries)
    triples = trace.subadditivity_checks
    ok = all(g >= -tol for _, _, g in triples)
    return FeketeReport(bool(linear), float(c), triples, bool(ok), tol)


@dataclass(frozen=True)
class AdditivityReport:
    eof_sum: float          # E_f(rho) + E_f(sigma)
    eof_joint: float        # E_f(rho (x) sigma)
    gap: float              # sum - joint
    candidate: bool         # gap beyond 1e-2: flagged, never asserted as truth


def additivity_probe(rho: QuantumState, sigma: QuantumState, *,
                     rng: RandomSource | None = None, restarts=2,
                     max_cycles=60) -> AdditivityReport:
    """Compare E_f(rho) + E_f(sigma) with E_f(rho (x) sigma).

    The joint optimizer is warm-started from the product of the two best
    marginal ensembles, so joint <= sum up to optimizer tolerance.  A gap
    beyond 1e-2 is only a non-additivity candidate, never ground truth.
    """
    if rho.dim * sigma.dim > DIMENSION_CAP:
        raise ValueError("joint dimension exceeds the cap")
    if rng is None:
        rng = RandomSource(0)
    res_a = eof_optimize(rho, restarts=restarts, rng=rng.split(),
                         max_cycles=max_cycles)
    res_b = eof_optimize(sigma, restarts=restarts, rng=rng.split(),
                         max_cycles=max_cycles)
    joint_state = tensor_product(rho, sigma)
    seed = product_ensemble(res_a.ensemble, res_b.ensemble)
    res_joint = eof_optimize(joint_state, restarts=restarts, rng=rng.split(),
                             seed_ensembles=[seed], max_cycles=max_cycles)
    total = res_a.value + res_b.value
    gap = total - res_joint.value
    return AdditivityReport(float(total), float(res_joint.value), float(gap),
                            bool(gap > 1e-2))


@dataclass(frozen=True)
class CostBracket:
    upper_on_regularized: float    # min over computed A_n
    achievable_rate: float         # A_1 = E_f(rho): protocol-achievable cost
    n_max: int
    caveat: str = field(default=LIMIT_CAVEAT, init=False)


def cost_bracket(rho: QuantumState, n_max: int, *,
                 rng: RandomSource | None = None, restarts=2,
                 ensemble_size=None, max_cycles=60):
    """Finite-n bracket on the asymptotic singlet cost of preparing rho.

    Returns (trace, bracket): min_n A_n is an upper bound on the regularized
    value, and A_1 is the rate the constructive formation protocol achieves.
    """
    trace = regularized_sequence(rho, n_max, rng=rng, restarts=restarts,
                                 ensemble_size=ensemble_size,
                                 max_cycles=max_cycles)
    upper = min(e.rate for e in trace.entries)
    bracket = CostBracket(float(upper), float(trace.rate(1)), n_max)
    return trace, bracket
