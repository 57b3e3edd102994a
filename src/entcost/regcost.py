"""Finite-n probes of the regularized entanglement of formation.

A_n = E_f(rho^(x)n)/n is estimated for n = 1..n_max with the ensemble
optimizer, always warm-starting the n-fold problem from the product of the
best (n-1)-fold and single-copy ensembles.  That converts the subadditivity
argument a_(n-1) + a_1 >= a_n into a property the computed values satisfy up
to rounding.  rho^(x)n is never formed: its rows are the Kronecker power of
rho's eigen rows, and the warm start is the Kronecker product of the winning
isometries.  The n -> infinity limit itself is never extrapolated; every
report carries a caveat saying only finite-n certificates are produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .eof import _eigen_rows, _minimize_rows, _ensemble_size
from .qcore import ROW_WORK_CAP, QuantumState, RandomSource, tensor_rows
from .serialize import INTERNAL

FEKETE_TOL = 1e-3   # slack on a_n + a_m >= a_{n+m}, optimizer values
LIMIT_CAVEAT = ("finite-n certificate only: the n -> infinity limit is not "
                "computable and these entries bound it from above, not estimate it")

# perfbench/tracing.py wraps these names when a traced run starts; nothing
# calls them, and they go when its wrap list drops them (ROADMAP direction 1).
eof_optimize = product_ensemble = tensor_product = tensor_pure = None


@dataclass(frozen=True)
class TraceEntry:
    """A_n and its step's refine work: deterministic counters of the one
    stack the step refines (its `StartRecord`s share them), 0 and 0 at rank
    1, where no start is refined."""
    n: int
    rate: float          # A_n = E_f(rho^(x)n)/n in ebits
    warm_started: bool
    iterations: int      # L-BFGS iterations of the step's refine
    evaluations: int     # its objective evaluations, value and gradient each


class Gap(NamedTuple):
    n: int
    m: int
    gap: float           # n*A_n + m*A_m - (n+m)*A_{n+m}


@dataclass(frozen=True)
class RegularizationTrace:
    """A_n, the gaps, and each step's isometry U_n: n A_n is the value of U_n B_n."""
    entries: tuple                 # TraceEntry per n = 1..n_max
    subadditivity_checks: tuple    # Gap per n <= m with n + m <= n_max
    isometries: tuple = field(metadata=INTERNAL)  # winning U_n per n
    caveat: str = field(default=LIMIT_CAVEAT, init=False)

    def rate(self, n: int) -> float:
        return self.entries[n - 1].rate


def _entry(n, rate, warm_started, records):
    """The TraceEntry of a step from the StartRecords of its one stack."""
    work = (records[0].iterations, records[0].evaluations) if records else (0, 0)
    return TraceEntry(n, rate, warm_started, *work)


def regularized_sequence(rho: QuantumState, n_max: int, *,
                         rng: RandomSource | None = None,
                         restarts=2, ensemble_size=None) -> RegularizationTrace:
    """Compute A_n = E_f(rho^(x)n)/n for n = 1..n_max with warm starts.

    `ensemble_size` applies to the single-copy problem, which refines
    max(restarts, 1) random starts as one stack of isometries.  For n > 1
    the rows are B_n = B_(n-1) (x) B_1, and the warm start U_(n-1) (x) U_1
    is an isometry whose rows U_n B_n are those of the product ensemble, so
    the n-fold search has L_(n-1) L_1 rows.
    It is refined alone: random starts there never ended below it by more
    than 4 eps on the 105 steps of ROADMAP direction 12, and cost most of a
    trace.  Refining only lowers its value, so n A_n <= (n-1) A_(n-1) + A_1
    up to rounding, A_2 <= A_1 in particular (tested at 1e-9).  n A_n is the
    refine's value of the exact decomposition U_n B_n, all rows kept, so an
    upper bound on E_f(rho^(x)n); steps keep U_n, no ensemble.  Each entry
    carries its step's iterations and evaluations; a warm start whose
    gradient is already within the refine's tolerance takes 0 and 1.
    ValueError when the row work of the deepest step, (L_1 r d)^n_max for
    the L_1 x r isometry on r x d eigen rows, passes qcore.ROW_WORK_CAP, or
    when the single-copy random starts pass qcore.START_CAP.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if rng is None:
        rng = RandomSource(0)
    B1 = _eigen_rows(rho)
    r, d = B1.shape
    L = _ensemble_size(ensemble_size, r, d)
    if (L * r * d) ** n_max > ROW_WORK_CAP:
        raise ValueError(f"row work {L * r * d}^{n_max} exceeds "
                         f"the limit {ROW_WORK_CAP:.0e}")
    value, U1, records = _minimize_rows(B1, rho.dims, ensemble_size,
                                        max(int(restarts), 1), rng.split())
    entries = [_entry(1, value, False, records)]
    isometries = [U1]
    B, dims, U = B1, rho.dims, U1
    for n in range(2, n_max + 1):
        B, dims = tensor_rows(B, dims, B1, rho.dims)
        value, U, records = _minimize_rows(B, dims, None, 0, rng,
                                           warm=np.kron(U, U1))
        entries.append(_entry(n, value / n, True, records))
        isometries.append(U)

    checks = []
    for n in range(1, n_max + 1):
        for m in range(n, n_max + 1):
            if n + m <= n_max:
                a_n = n * entries[n - 1].rate
                a_m = m * entries[m - 1].rate
                a_nm = (n + m) * entries[n + m - 1].rate
                checks.append(Gap(n, m, float(a_n + a_m - a_nm)))
    return RegularizationTrace(tuple(entries), tuple(checks), tuple(isometries))


@dataclass(frozen=True)
class FeketeReport:
    linear_bound_holds: bool       # a_n <= c n for all entries
    c: float
    triples: tuple                 # the trace's Gap entries
    subadditive_within_tol: bool
    tolerance: float


def fekete_check(trace: RegularizationTrace, c: float) -> FeketeReport:
    """Verify a_n <= c n on the entries and a_n + a_m >= a_{n+m} - FEKETE_TOL
    on the subadditivity gaps the trace already carries."""
    linear = all(e.n * e.rate <= c * e.n + 1e-9 for e in trace.entries)
    triples = trace.subadditivity_checks
    ok = all(g >= -FEKETE_TOL for _, _, g in triples)
    return FeketeReport(bool(linear), float(c), triples, bool(ok), FEKETE_TOL)


@dataclass(frozen=True)
class CostBracket:
    """Refine values over all rows of U_n B_n: `achievable_rate` counts rows
    of weight at most 1e-12, which the ensemble `eof` prints drops."""
    upper_on_regularized: float    # min over computed A_n
    achievable_rate: float         # A_1 = E_f(rho): protocol-achievable cost
    n_max: int
    caveat: str = field(default=LIMIT_CAVEAT, init=False)


def cost_bracket(rho: QuantumState, n_max: int, *,
                 rng: RandomSource | None = None, restarts=2,
                 ensemble_size=None):
    """Finite-n bracket on the asymptotic singlet cost of preparing rho.

    Returns (trace, bracket): min_n A_n is an upper bound on the regularized
    value, and A_1 is the rate the constructive formation protocol achieves.
    `restarts` counts the single-copy step's random starts, as in
    `regularized_sequence`; every later step refines its warm start alone.
    """
    trace = regularized_sequence(rho, n_max, rng=rng, restarts=restarts,
                                 ensemble_size=ensemble_size)
    upper = min(e.rate for e in trace.entries)
    bracket = CostBracket(float(upper), float(trace.rate(1)), n_max)
    return trace, bracket
