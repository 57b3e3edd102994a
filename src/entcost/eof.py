"""Entanglement of formation: closed-form two-qubit oracle, general ensemble
optimizer, continuity bound, and LOCC monotonicity testing.

E_f(rho) is the minimum of sum_i p_i E(psi_i) over pure-state decompositions
of rho.  The optimizer parameterizes decompositions through the purification:
every size-L ensemble has rows W = U B, with B the r x d factor whose rows are
sqrt(lam_j) e_j (the rank-r eigen-ensemble) and U an L x r isometry, so every
iterate is feasible by construction.  Each seeded start is refined by
Riemannian conjugate gradient over the isometries (Audenaert, Verstraete &
De Moor, PRA 64, 052304 (2001); Edelman, Arias & Smith, SIAM J. Matrix Anal.
Appl. 20, 303 (1998)); one stacked `eigh` of the rows' reduced Gram matrices
gives both the objective and its gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import bures_distance, sqrtm_psd
from .qcore import (
    DimensionError,
    Ensemble,
    PureState,
    QuantumState,
    RandomSource,
    RANK_TOL,
    StateValidationError,
    binary_entropy,
    ensemble_average,
    pure_entanglement,
    sample_pure_state,
    sample_unitary,
)

OPTIMIZER_TOL = 1e-3          # default slack when comparing optimizer outputs
DEFAULT_IMPROVEMENT_TOL = 1e-6
MAX_ITERATIONS = 500          # conjugate-gradient iterations per start
_STALLS = 5                   # iterations in a row gaining < improvement_tol
_ARMIJO = 1e-4                # sufficient-decrease fraction of the slope
_BACKTRACKS = 30              # step halvings before a search gives up

# perfbench/tracing.py wraps this name when a traced run starts; nothing
# calls it, and it goes when its wrap list drops it (ROADMAP direction 1).
minimize_scalar = None

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y).real


# ---------------------------------------------------------------------------
# Two-qubit closed form
# ---------------------------------------------------------------------------

def concurrence(rho: QuantumState) -> float:
    """Two-qubit concurrence max(0, l1 - l2 - l3 - l4).

    The l_i are the square roots of the eigenvalues of rho rho~ in decreasing
    order.  They equal the singular values of sqrt(rho) (sy x sy) sqrt(rho)^T,
    which the SVD delivers without taking square roots of eigenvalue-level
    noise, keeping small l_i accurate to machine precision.
    """
    if rho.dims != (2, 2):
        raise DimensionError(f"concurrence requires dims (2, 2), got {rho.dims}")
    root = sqrtm_psd(rho.matrix)
    lam = np.linalg.svd(root @ _YY @ root.T, compute_uv=False)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def eof_two_qubit_closed_form(rho: QuantumState) -> float:
    """E_f of a two-qubit state via the concurrence closed form."""
    c = concurrence(rho)
    return binary_entropy((1.0 + np.sqrt(max(0.0, 1.0 - c * c))) / 2.0)


# ---------------------------------------------------------------------------
# Ensemble optimizer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StartRecord:
    """Deterministic work counters of one optimizer start."""
    kind: str                 # "warm" (a seed ensemble) or "random"
    iterations: int           # conjugate-gradient iterations run
    evaluations: int          # `_objective` calls, value and gradient each
    value: float              # sum_i p_i E_i the start ended at
    outcome: str              # "converged" or "iteration_cap"


@dataclass(frozen=True)
class EofResult:
    """Best value over the starts, its ensemble, and one record per start.

    `converged` means no start hit the iteration cap.
    """
    value: float
    ensemble: Ensemble
    restarts_used: int
    converged: bool
    value_history: tuple   # best value reached by each start, in order
    starts: tuple = ()     # StartRecord per start, in order


def _row_blocks(W, dA, dB):
    """Each row of W (last axis) as a k x m matrix, k = min(dA, dB).

    Its Gram matrix M M^dag is the reduced state on the smaller factor, which
    has the same nonzero spectrum as the reduced state on the larger one.
    """
    M = W.reshape(W.shape[:-1] + (dA, dB))
    return M if dA <= dB else np.swapaxes(M, -1, -2)


def _objective(U, B, dA, dB):
    """sum_i p_i E(psi_i) over the rows of W = U B, and its gradient in U.

    Row i, as the block M_i of `_row_blocks`, has Gram matrix
    G_i = M_i M_i^dag, weight p_i = tr G_i and p_i E(psi_i) =
    p_i log2 p_i - tr G_i log2 G_i.  One stacked `eigh` of the G_i gives both
    the value and the gradient -2 (log2 G_i - log2 p_i) M_i in M_i, with
    log2 G_i - log2 p_i taken as 0 on the null space of G_i, where M_i has
    no component; W = U B maps it to U by B^dag.
    The gradient g is Euclidean: the value changes by Re tr(g^dag X) along X.
    Eigenvalues at or below 1e-18 are noise.
    """
    W = U @ B
    M = _row_blocks(W, dA, dB)
    mu, V = np.linalg.eigh(M @ np.swapaxes(M, -1, -2).conj())
    mu = np.where(mu > 1e-18, mu, 0.0)
    p = mu.sum(axis=-1, keepdims=True)
    # log2 mu_j - log2 p_i, and 0 where mu_j = 0; sum_ij mu_j of it is -value
    shift = np.log2(mu / np.where(p > 0.0, p, 1.0), where=mu > 0.0,
                    out=np.zeros_like(mu))
    value = -float(np.vdot(mu, shift))
    grad = -2.0 * (V * shift[:, None, :]) @ (np.swapaxes(V, -1, -2).conj() @ M)
    if dA > dB:
        grad = np.swapaxes(grad, -1, -2)
    return value, grad.reshape(W.shape) @ B.conj().T


def _inner(X, Y):
    """The real inner product Re tr(X^dag Y)."""
    return float(np.vdot(X, Y).real)


def _tangent(U, X):
    """X projected on the tangent space of the isometries at U."""
    H = U.conj().T @ X
    return X - U @ ((H + H.conj().T) / 2.0)


def _retract(Y):
    """The isometry Q of Y = Q R with R's diagonal real and positive.

    R is the adjoint of the Cholesky factor of Y^dag Y.  For Y = U + t D,
    with D tangent at the isometry U, Y^dag Y = I + t^2 D^dag D, whose
    eigenvalues are at least 1, so forming it loses no accuracy.
    """
    return Y @ np.linalg.inv(np.linalg.cholesky(Y.conj().T @ Y)).conj().T


def _refine(U, B, dA, dB, improvement_tol):
    """Minimize `_objective` over isometries U by Riemannian conjugate gradient.

    Returns (value, U, outcome, (iterations, evaluations)).  Directions are
    Polak-Ribiere+, the previous one carried over by tangent projection; a
    step of length t retracts U + t D (`_retract`).  The line search is
    Armijo backtracking: the first trial step is followed by one trial at
    the minimizer of the parabola through f(0), f'(0) and that trial, and the
    better of the two is kept, or halved until it decreases enough.  The
    start stops ("converged") after `_STALLS` iterations in a row that each
    gain less than improvement_tol, or once no decrease is found; otherwise
    after MAX_ITERATIONS ("iteration_cap").
    """
    value, g = _objective(U, B, dA, dB)
    evaluations = 1

    def trial(t):
        nonlocal evaluations
        evaluations += 1
        U_t = _retract(U + t * direction)
        return (t, *_objective(U_t, B, dA, dB), U_t)

    grad = _tangent(U, g)
    direction = -grad
    step = 1.0
    stalls = iterations = 0
    outcome = "iteration_cap"
    while iterations < MAX_ITERATIONS:
        slope = _inner(grad, direction)
        if slope >= 0.0:
            # not a descent direction: restart from the gradient
            direction, slope = -grad, -_inner(grad, grad)
        if slope == 0.0:
            outcome = "converged"
            break
        best = trial(step)
        curve = (best[1] - value - slope * step) / (step * step)
        if curve > 0.0:
            best = min(best, trial(-slope / (2.0 * curve)), key=lambda b: b[1])
        for _ in range(_BACKTRACKS):
            if best[1] <= value + _ARMIJO * best[0] * slope:
                break
            best = trial(best[0] / 2.0)
        if not best[1] <= value + _ARMIJO * best[0] * slope:
            outcome = "converged"
            break
        iterations += 1
        step, new_value, g, U = best
        new_grad = _tangent(U, g)
        # new_grad is tangent at U, so its inner product with grad equals
        # that with grad carried over to U
        beta = max(0.0, _inner(new_grad, new_grad - grad) / _inner(grad, grad))
        direction = -new_grad + beta * _tangent(U, direction)
        stalls = stalls + 1 if value - new_value < improvement_tol else 0
        value, grad = new_value, new_grad
        step *= 2.0
        if stalls >= _STALLS:
            outcome = "converged"
            break
    return value, U, outcome, (iterations, evaluations)


def _rounds(L):
    """Round-robin schedule of the pairs of L rows (circle method).

    L - 1 rounds for even L, L for odd L: the pairs inside a round are
    disjoint, and each of the L (L - 1) / 2 pairs comes up once.  Row 0 stays
    put while the others turn one place per round; at odd L the row paired
    with a dummy row L sits the round out.  Nothing calls it since `_refine`
    replaced the Jacobi sweeps that ran in these rounds; ROADMAP direction 2
    has its deletion.
    """
    n = L + L % 2
    ring = list(range(n))
    rounds = []
    for _ in range(n - 1):
        pairs = [tuple(sorted((ring[i], ring[n - 1 - i]))) for i in range(n // 2)]
        rounds.append(tuple(p for p in pairs if p[1] < L))
        ring = ring[:1] + ring[-1:] + ring[1:-1]
    return tuple(r for r in rounds if r)


def _rows_from_ensemble(ensemble, L, d):
    rows = np.zeros((max(L, len(ensemble)), d), dtype=complex)
    for i, (p, s) in enumerate(zip(ensemble.weights, ensemble.states)):
        rows[i] = np.sqrt(p) * s.vector
    return rows


def _ensemble_from_rows(W, dims):
    p = np.array([float(np.vdot(w, w).real) for w in W])
    keep = p > 1e-12
    p = p[keep]
    states = tuple(PureState(dims, W[i] / np.sqrt(p_i))
                   for p_i, i in zip(p, np.flatnonzero(keep)))
    return Ensemble(p / p.sum(), states)


def eof_optimize(rho: QuantumState, ensemble_size=None, restarts=4,
                 rng: RandomSource | None = None, seed_ensembles=(),
                 improvement_tol=DEFAULT_IMPROVEMENT_TOL) -> EofResult:
    """Minimize sum_i p_i E(psi_i) over size-L pure-state decompositions of rho.

    The returned value is always an upper bound on E_f: the achieving ensemble
    is stored and reproduces rho exactly.  `seed_ensembles` are used as warm
    starts, run first, alongside `restarts` random isometry starts; each
    start is refined on its own (`_refine`) and the lowest value wins.
    The default ensemble size is rank(rho)^2 capped at (dA dB)^2.
    """
    if rng is None:
        rng = RandomSource(0)
    dA, dB = rho.dims
    d = dA * dB
    evals, evecs = np.linalg.eigh(rho.matrix)
    keep = evals > RANK_TOL
    lam = evals[keep]
    vecs = evecs[:, keep]
    r = int(lam.size)
    if r == 1:
        psi = PureState(rho.dims, vecs[:, 0])
        value = pure_entanglement(psi)
        return EofResult(value, Ensemble(np.array([1.0]), (psi,)),
                         0, True, ())
    L = int(ensemble_size) if ensemble_size is not None else min(r * r, d * d)
    if L < r:
        raise ValueError(f"ensemble size {L} below rank {r}: no such decomposition")

    base = (vecs * np.sqrt(lam)).T    # B, r x d: rows sqrt(lam_j) e_j
    inverse = vecs.conj() / np.sqrt(lam)    # B B^+ = I

    starts = []       # (kind, isometry U)
    for ens in seed_ensembles:
        if ens.dims != rho.dims:
            raise DimensionError("seed ensemble dims do not match the state")
        avg = ensemble_average(ens)
        if np.abs(avg.matrix - rho.matrix).max() > 1e-6:
            raise StateValidationError("seed ensemble does not realize the state")
        starts.append(("warm", _retract(_rows_from_ensemble(ens, L, d) @ inverse)))
    for _ in range(int(restarts)):
        g = rng.gen
        x = g.standard_normal((L, r)) + 1j * g.standard_normal((L, r))
        starts.append(("random", np.linalg.qr(x)[0]))
    if not starts:
        raise ValueError("need at least one start (restarts >= 1 or a seed)")

    best_value = np.inf
    best_rows = None
    records = []
    for kind, U in starts:
        value, U, outcome, work = _refine(U, base, dA, dB, improvement_tol)
        records.append(StartRecord(kind, *work, value, outcome))
        if value < best_value:
            best_value = value
            best_rows = U @ base
    ensemble = _ensemble_from_rows(best_rows, rho.dims)
    # report the value the stored ensemble actually achieves
    value = float(np.dot(ensemble.weights,
                         [pure_entanglement(s) for s in ensemble.states]))
    return EofResult(value, ensemble, len(starts),
                     all(r.outcome != "iteration_cap" for r in records),
                     tuple(r.value for r in records), tuple(records))

# ---------------------------------------------------------------------------
# Continuity bound
# ---------------------------------------------------------------------------

def eta(x: float) -> float:
    """-x log2 x, continuously extended by eta(0) = 0."""
    return 0.0 if x <= 0.0 else float(-x * np.log2(x))


@dataclass(frozen=True)
class ContinuityCheck:
    distance: float
    bound: float
    observed_gap: float
    holds: bool


def continuity_bound(rho: QuantumState, rho2: QuantumState,
                     eof_rho: float, eof_rho2: float,
                     tol: float = OPTIMIZER_TOL) -> ContinuityCheck:
    """|E_f(rho) - E_f(rho')| against 5 D log2(dim) + 2 eta(D), D the Bures distance."""
    if rho.dims != rho2.dims:
        raise DimensionError(f"dims mismatch: {rho.dims} vs {rho2.dims}")
    d = bures_distance(rho, rho2)
    bound = 5.0 * d * np.log2(rho.dim) + 2.0 * eta(d)
    gap = abs(eof_rho - eof_rho2)
    return ContinuityCheck(d, float(bound), float(gap), bool(gap <= bound + tol))


# ---------------------------------------------------------------------------
# LOCC channels (LOCC-implementable by construction)
# ---------------------------------------------------------------------------

LOCC_KINDS = ("local-unitary", "measure-prepare", "measure-prepare-both")


@dataclass(frozen=True)
class LoccChannel:
    """Channel given by explicit product elements (A_j, B_j).

    Completeness sum_j A_j^dag A_j (x) B_j^dag B_j = I is enforced, and every
    element is a product, so the map is LOCC-implementable by construction.
    """

    kind: str
    elements: tuple

    def __post_init__(self):
        elems = tuple((np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
                      for a, b in self.elements)
        if not elems:
            raise StateValidationError("channel needs at least one element")
        dA = elems[0][0].shape[0]
        dB = elems[0][1].shape[0]
        total = np.zeros((dA * dB, dA * dB), dtype=complex)
        for a, b in elems:
            if a.shape != (dA, dA) or b.shape != (dB, dB):
                raise DimensionError("all elements must be square and same-sized")
            total += np.kron(a.conj().T @ a, b.conj().T @ b)
        if np.abs(total - np.eye(dA * dB)).max() > 1e-8:
            raise StateValidationError("channel completeness violated beyond 1e-8")
        object.__setattr__(self, "elements", elems)

    @property
    def dims(self):
        return (self.elements[0][0].shape[0], self.elements[0][1].shape[0])


def apply_locc(channel: LoccChannel, rho: QuantumState) -> QuantumState:
    """sum_j (A_j (x) B_j) rho (A_j (x) B_j)^dag."""
    if channel.dims != rho.dims:
        raise DimensionError(f"channel dims {channel.dims} vs state {rho.dims}")
    out = np.zeros_like(rho.matrix)
    for a, b in channel.elements:
        k = np.kron(a, b)
        out = out + k @ rho.matrix @ k.conj().T
    return QuantumState(rho.dims, out)


def sample_locc(dims, kind, rng: RandomSource) -> LoccChannel:
    """Seeded random LOCC channel of the requested kind."""
    dA, dB = dims
    if kind == "local-unitary":
        u = sample_unitary(dA, rng)
        v = sample_unitary(dB, rng)
        return LoccChannel(kind, ((u, v),))
    if kind == "measure-prepare":
        # Alice measures a Haar basis and re-prepares a random pure state;
        # Bob applies an outcome-conditioned unitary (one-way communication)
        basis = sample_unitary(dA, rng)
        elems = []
        for j in range(dA):
            prep = sample_pure_state((dA, 1), rng).vector
            a = np.outer(prep, basis[:, j].conj())
            elems.append((a, sample_unitary(dB, rng)))
        return LoccChannel(kind, tuple(elems))
    if kind == "measure-prepare-both":
        # both sides measure and re-prepare: entanglement breaking
        basis_a = sample_unitary(dA, rng)
        basis_b = sample_unitary(dB, rng)
        a_elems = [(np.outer(sample_pure_state((dA, 1), rng).vector,
                             basis_a[:, j].conj())) for j in range(dA)]
        b_elems = [(np.outer(sample_pure_state((dB, 1), rng).vector,
                             basis_b[:, j].conj())) for j in range(dB)]
        elems = tuple((a, b) for a in a_elems for b in b_elems)
        return LoccChannel(kind, elems)
    raise ValueError(f"unsupported channel kind {kind!r}; choose from {LOCC_KINDS}")


@dataclass(frozen=True)
class MonotonicityReport:
    before: float
    after: float
    tolerance: float
    holds: bool


def check_monotonicity(rho: QuantumState, channel: LoccChannel,
                       rng: RandomSource | None = None) -> MonotonicityReport:
    """Test E_f(rho) >= E_f(L(rho)) for an LOCC-by-construction channel.

    Two-qubit states use the closed form on both sides with tolerance 1e-9;
    otherwise the ensemble optimizer with its 1e-3 tolerance.
    """
    out = apply_locc(channel, rho)
    if rho.dims == (2, 2):
        before = eof_two_qubit_closed_form(rho)
        after = eof_two_qubit_closed_form(out)
        tol = 1e-9
    else:
        if rng is None:
            rng = RandomSource(0)
        before = eof_optimize(rho, rng=rng.split()).value
        after = eof_optimize(out, rng=rng.split()).value
        tol = OPTIMIZER_TOL
    return MonotonicityReport(before, after, tol, bool(after <= before + tol))
