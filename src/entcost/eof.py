"""Entanglement of formation: closed-form two-qubit oracle, general ensemble
optimizer, continuity bound, and LOCC monotonicity testing.

E_f(rho) is the minimum of sum_i p_i E(psi_i) over pure-state decompositions
of rho.  The optimizer parameterizes decompositions through the purification:
every size-L ensemble has rows W = U B, with B the r x d factor whose rows are
sqrt(lam_j) e_j (the rank-r eigen-ensemble) and U an L x r isometry, so every
iterate is feasible by construction.  Starts are refined by Riemannian L-BFGS
over the isometries (Audenaert, Verstraete & De Moor, PRA 64, 052304 (2001);
Huang, Gallivan & Absil, SIAM J. Optim. 25, 1660 (2015)): a call's seeded
random starts as one stack of isometries, and a warm start alone, without
random starts.
Where the smaller factor is a qubit, k = min(dA, dB) = 2 (every eof-qubit
item and the n = 1 step of a two-qubit trace), each evaluation reads the
rows' Pauli components off one product U P and takes no `eigh`.  At any
other k (the trace's steps past n = 1 have k >= 4) one stacked `eigh` of the
rows' reduced Gram matrices gives the objective and its gradient.
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
    START_CAP,
    StateValidationError,
    binary_entropy,
    entanglement_entropies,
    sample_pure_state,
    sample_unitary,
)

OPTIMIZER_TOL = 1e-3          # default slack when comparing optimizer outputs
DEFAULT_IMPROVEMENT_TOL = 1e-6
MAX_ITERATIONS = 500          # L-BFGS iterations per refine
_MEMORY = 3                   # step pairs the L-BFGS direction remembers
_STALLS = 5                   # iterations in a row gaining < improvement_tol
_ARMIJO = 1e-4                # sufficient-decrease fraction of the slope
_BACKTRACKS = 30              # step halvings before a search gives up
_EPS = np.finfo(float).eps

# perfbench/tracing.py wraps these names when a traced run starts; nothing
# calls them, and they go when its wrap list drops them (ROADMAP direction 1).
minimize_scalar = ensemble_average = None

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
    """Deterministic work counters of one optimizer start.

    A call's starts are refined as one stack and share its `iterations`,
    `evaluations` and `outcome`; each evaluation evaluates every start of
    the stack once, and `value` is the start's own share of the stack's
    last accepted evaluation.
    """
    kind: str                 # "warm" (a given isometry) or "random"
    iterations: int           # L-BFGS iterations of its stack
    evaluations: int          # evaluations of its stack, value and gradient each
    value: float              # sum_i p_i E_i the start ended at
    outcome: str              # "converged" or "iteration_cap"


@dataclass(frozen=True)
class EofResult:
    """Best value over the starts, its ensemble, and one record per start.

    Each start keeps its own value and record, though all are refined as
    one stack.  `converged` means the stack did not hit the iteration cap.
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


def _adjoint(X):
    """The conjugate transpose of each matrix in the stack X."""
    return X.conj().swapaxes(-1, -2)


def _objective(U, B, dA, dB, forms=None):
    """sum_i p_i E(psi_i) over the rows of W = U B, the S starts' own sums,
    and its gradient in U, for a stack U of S isometries, S x L x r.

    With `forms`, the rows' Pauli forms `_pauli_forms(B, dA, dB)` at
    k = min(dA, dB) = 2, `_pauli_objective` evaluates it without forming W.
    Else row i, as the block M_i of `_row_blocks`, has Gram matrix
    G_i = M_i M_i^dag, weight p_i = tr G_i and p_i E(psi_i) =
    p_i log2 p_i - tr G_i log2 G_i.  One stacked `eigh` of the G_i gives both
    the value and the gradient -2 (log2 G_i - log2 p_i) M_i in M_i, with
    log2 G_i - log2 p_i taken as 0 on the null space of G_i, where M_i has
    no component; W = U B maps it to U by B^dag.
    The gradient g is Euclidean: the value changes by Re tr(g^dag X) along X.
    Eigenvalues at or below 1e-18 are noise.
    """
    if forms is not None:
        return _pauli_objective(U, forms)
    W = U @ B
    M = _row_blocks(W, dA, dB)
    mu, V = np.linalg.eigh(M @ _adjoint(M))
    mu = np.where(mu > 1e-18, mu, 0.0)
    p = mu.sum(axis=-1, keepdims=True)
    # log2 mu_j - log2 p_i, and 0 where mu_j = 0; sum_ij mu_j of it is -value
    shift = np.log2(mu / np.where(p > 0.0, p, 1.0), where=mu > 0.0,
                    out=np.zeros_like(mu))
    value = -float(np.vdot(mu, shift))
    values = [-float(np.vdot(mu_s, shift_s)) for mu_s, shift_s in zip(mu, shift)]
    grad = -2.0 * (V * shift[..., None, :]) @ (_adjoint(V) @ M)
    if dA > dB:
        grad = np.swapaxes(grad, -1, -2)
    return value, values, grad.reshape(W.shape) @ B.conj().T


def _pauli_forms(B, dA, dB):
    """The Hermitian forms P_mu, r x r, with u P_mu u^dag = tr(sigma_mu G),
    G the 2 x 2 Gram block of the row u B at k = 2 (sigma_0 = I), as one
    real 2r x 8r matrix Q: with complex rows read as reals (real and
    imaginary parts interleaved, as `.view(np.float64)` reads them), u Q is
    u [P_0 P_1 P_2 P_3].  Built once per refine.
    """
    M = _row_blocks(B, dA, dB)
    T = np.einsum("jab,kcb->acjk", M, M.conj())    # T[a, c]_jk = M_j,a . M_k,c^*
    P = np.concatenate([T[0, 0] + T[1, 1], T[0, 1] + T[1, 0],
                        1j * (T[0, 1] - T[1, 0]), T[0, 0] - T[1, 1]], axis=1)
    return np.stack([P, 1j * P], axis=1).reshape(2 * len(B), -1).view(np.float64)


def _pauli_objective(U, forms):
    """`_objective` at k = 2 from each row's Pauli components x_mu = u P_mu u^dag.

    G has eigenvalues l+- = (p +- n) / 2, p = x_0 and n = |x_1..3|, so a row
    adds -(l+ log2(l+/p) + l- log2(l-/p)); with c = dE/dx its gradient is
    2 sum_mu c_mu u P_mu, where c_0 = -(log2(l+/p) + log2(l-/p)) / 2 and
    c_k = -x_k ln(l+/l-) / (2 n ln 2), taken as -x_k / (p ln 2) at n = 0.
    Rows with l- <= 1e-18 add 0 and get gradient 0, as on the `eigh` path.
    """
    # a warm start may be real; read as reals, each row u is 2r long
    V = np.ascontiguousarray(U, complex).view(np.float64)
    F = (V @ forms).reshape(V.shape[:-1] + (4, -1))    # the u P_mu, as reals
    x = (F @ V[..., None])[..., 0]
    p = x[..., 0]
    n = np.sqrt((x[..., 1:] ** 2).sum(-1))
    live = p - n > 2e-18                               # l- > 1e-18
    p, n = np.where(live, p, 1.0), np.where(live, n, 0.0)
    lp, lm = (p + n) / 2.0, (p - n) / 2.0
    sp, sm = np.log2(lp / p), np.log2(lm / p)
    values = -((lp * sp + lm * sm) * live).sum(-1)
    # ln(l+/l-) / n = log1p(n / l-) / n, which is 1 / l- at n = 0
    ratio = np.divide(np.log1p(n / lm), n, out=1.0 / lm, where=n > 0.0)
    c2 = x * (ratio / -np.log(2.0))[..., None]         # 2 c, row by row
    c2[..., 0] = -(sp + sm)
    c2 *= live[..., None]
    grad = (c2[..., None, :] @ F)[..., 0, :]
    return float(values.sum()), values.tolist(), grad.view(complex)


def _inner(X, Y):
    """The real inner product Re tr(X^dag Y), summed over a stack."""
    return float(np.vdot(X, Y).real)


def _tangent(U, X):
    """X projected on the tangent space of the isometries at U, per start."""
    H = _adjoint(U) @ X
    return X - U @ ((H + _adjoint(H)) / 2.0)


def _retract(Y):
    """The isometry Q of Y = Q R, R's diagonal real and positive, per start.

    R is the adjoint of the Cholesky factor of Y^dag Y.  For Y = U + t D,
    with D tangent at the isometry U, Y^dag Y = I + t^2 D^dag D, whose
    eigenvalues are at least 1, so forming it loses no accuracy.
    """
    R = np.linalg.cholesky(_adjoint(Y) @ Y)
    return Y @ _adjoint(np.linalg.inv(R))


def _lbfgs_direction(U, grad, pairs):
    """-H grad, tangent at U, by the two-loop recursion over the pairs (s, y,
    s.y) of steps and gradient changes, H_0 = s.y / y.y of the newest pair."""
    if not pairs:
        return -grad
    q, alphas = grad, []
    for s, y, sy in reversed(pairs):
        alphas.append(_inner(s, q) / sy)
        q = q - alphas[-1] * y
    _, y, sy = pairs[-1]
    q = q * (sy / _inner(y, y))
    for (s, y, sy), alpha in zip(pairs, reversed(alphas)):
        q = q + (alpha - _inner(y, q) / sy) * s
    return -_tangent(U, q)


def _refine(U, B, dA, dB, improvement_tol):
    """Minimize `_objective` over the stack U of isometries by Riemannian
    L-BFGS.

    The starts of the stack are refined together as one problem on the
    product of their isometry manifolds, with one line search on the summed
    value.  Returns (values, U, outcome, (iterations, evaluations)), values
    the starts' own values at the returned U, from its evaluation.
    Directions come from the last _MEMORY steps, stored without transport;
    one that does not descend clears them and falls back to -grad.  A step t
    retracts U + t D.  The line search keeps t = 1 if it meets Armijo, else
    the better of it and the parabola's minimizer through f(0), f'(0), f(1),
    halved until Armijo holds or the decrease asked for is below rounding.
    The starts stop together ("converged") after `_STALLS` iterations in a
    row each gaining less than improvement_tol, or once the slope is within
    16 ulps of the value or no decrease is found; else at MAX_ITERATIONS.
    """
    forms = _pauli_forms(B, dA, dB) if min(dA, dB) == 2 else None
    value, values, g = _objective(U, B, dA, dB, forms)
    evaluations = 1

    def trial(t):
        nonlocal evaluations
        evaluations += 1
        U_t = _retract(U + t * direction)
        return (t, *_objective(U_t, B, dA, dB, forms), U_t)

    grad = _tangent(U, g)
    pairs = []
    stalls = iterations = 0
    outcome = "iteration_cap"
    while iterations < MAX_ITERATIONS:
        direction = _lbfgs_direction(U, grad, pairs)
        slope = _inner(grad, direction)
        if slope >= 0.0:
            # not a descent direction: forget the pairs, take the gradient
            pairs.clear()
            direction, slope = -grad, -_inner(grad, grad)
        # no trial passes t = 1 (where Armijo fails there, the parabola's step
        # is below 1/2 and halvings shrink it), so -slope bounds the
        # first-order decrease of every trial: below 16 ulps none can show
        if -slope <= 16 * _EPS * abs(value):
            outcome = "converged"
            break
        best = trial(1.0)
        curve = best[1] - value - slope
        if best[1] > value + _ARMIJO * slope and curve > 0.0:
            best = min(best, trial(-slope / (2.0 * curve)), key=lambda b: b[1])
        for _ in range(_BACKTRACKS):
            target = _ARMIJO * best[0] * slope
            # a decrease below the rounding of value cannot be seen
            if best[1] <= value + target or -target <= _EPS * abs(value):
                break
            best = trial(best[0] / 2.0)
        if not best[1] <= value + _ARMIJO * best[0] * slope:
            outcome = "converged"
            break
        iterations += 1
        t, new_value, values, g, U = best
        new_grad = _tangent(U, g)
        s, y = t * direction, new_grad - grad
        sy = _inner(s, y)
        if sy > 0.0:
            pairs = (pairs + [(s, y, sy)])[-_MEMORY:]
        stalls = stalls + 1 if value - new_value < improvement_tol else 0
        value, grad = new_value, new_grad
        if stalls >= _STALLS:
            outcome = "converged"
            break
    return values, U, outcome, (iterations, evaluations)


def _rounds(L):
    """Round-robin schedule of the pairs of L rows (circle method).

    L - 1 rounds for even L, L for odd L: the pairs inside a round are
    disjoint, and each of the L (L - 1) / 2 pairs comes up once.  Row 0 stays
    put while the others turn one place per round; at odd L the row paired
    with a dummy row L sits the round out.  Nothing calls it since `_refine`
    replaced the Jacobi sweeps that ran in these rounds; ROADMAP direction
    9(a) has its deletion.
    """
    n = L + L % 2
    ring = list(range(n))
    rounds = []
    for _ in range(n - 1):
        pairs = [tuple(sorted((ring[i], ring[n - 1 - i]))) for i in range(n // 2)]
        rounds.append(tuple(p for p in pairs if p[1] < L))
        ring = ring[:1] + ring[-1:] + ring[1:-1]
    return tuple(r for r in rounds if r)


def _ensemble_from_rows(W, dims):
    p = np.array([float(np.vdot(w, w).real) for w in W])
    keep = p > 1e-12
    p = p[keep]
    states = tuple(PureState(dims, W[i] / np.sqrt(p_i))
                   for p_i, i in zip(p, np.flatnonzero(keep)))
    return Ensemble(p / p.sum(), states)


def _eigen_rows(rho: QuantumState) -> np.ndarray:
    """B, r x d: the rows sqrt(lam_j) e_j of rho's eigen-ensemble, lam_j > RANK_TOL.

    At rank 1 the row is e_1 itself: lam_1 differs from 1 only by rounding.
    """
    evals, evecs = np.linalg.eigh(rho.matrix)
    keep = evals > RANK_TOL
    scale = np.sqrt(evals[keep]) if keep.sum() > 1 else 1.0
    return (evecs[:, keep] * scale).T


def eof_optimize(rho: QuantumState, ensemble_size=None, restarts=4,
                 rng: RandomSource | None = None,
                 improvement_tol=DEFAULT_IMPROVEMENT_TOL) -> EofResult:
    """Minimize sum_i p_i E(psi_i) over size-L pure-state decompositions of rho.

    The returned value is always an upper bound on E_f: the achieving ensemble
    is stored and reproduces rho exactly.  `restarts` random isometry starts
    are refined (`_minimize_rows`) as one stack of isometries; the lowest
    value wins, by more than 4 eps over earlier ones.  Its ensemble is the
    rows of weight above 1e-12 of the winner's U B, renormalized.
    The default ensemble size is rank(rho)^2 capped at (dA dB)^2, and
    restarts sqrt(L r d) may not pass qcore.START_CAP.
    """
    if rng is None:
        rng = RandomSource(0)
    B = _eigen_rows(rho)
    _, U, records = _minimize_rows(B, rho.dims, ensemble_size, restarts, rng,
                                   improvement_tol)
    ensemble = _ensemble_from_rows(U @ B, rho.dims)
    # report the value the stored ensemble actually achieves
    value = float(np.dot(ensemble.weights, entanglement_entropies(
        np.stack([s.vector for s in ensemble.states]), rho.dims)))
    return EofResult(value, ensemble, len(records),
                     all(s.outcome != "iteration_cap" for s in records),
                     tuple(s.value for s in records), records)


def _ensemble_size(ensemble_size, r, d):
    """L for r x d eigen rows: `ensemble_size` if given, else min(r^2, d^2)."""
    return int(ensemble_size) if ensemble_size is not None else min(r * r, d * d)


def _minimize_rows(B, dims, ensemble_size, restarts, rng: RandomSource,
                   improvement_tol=DEFAULT_IMPROVEMENT_TOL, warm=None):
    """Minimize sum_i p_i E(psi_i) over the decompositions U B of the state
    sum_j |b_j><b_j| of the r x d rows b_j of B, U an L x r isometry.

    `warm`, an L x r isometry, is refined alone as the "warm" start and sets
    L; without it, `restarts` random starts are drawn and refined as one
    stack of isometries.  Never both: a call with a warm start and random
    ones is a ValueError, and so are random starts whose work
    restarts sqrt(L r d) passes qcore.START_CAP, before any refine.  Returns
    the winner's refine value over all L rows of U B, its U, and a
    StartRecord per start; no ensemble.  Rank 1 has one: W = B, no start.
    """
    dA, dB = dims
    r, d = B.shape
    if r == 1:
        return _objective(np.ones((1, 1, 1)), B, dA, dB)[0], np.ones((1, 1)), ()
    restarts = int(restarts)
    if warm is not None:
        if restarts:
            raise ValueError("a warm start is refined alone, without random starts")
        kind, U = "warm", warm[None]
    else:
        L = _ensemble_size(ensemble_size, r, d)
        if L < r:
            raise ValueError(f"ensemble size {L} below rank {r}: no such decomposition")
        if restarts < 1:
            raise ValueError("need at least one start (restarts >= 1 or a warm start)")
        if restarts * np.sqrt(L * r * d) > START_CAP:
            raise ValueError(f"random-start work {restarts} x sqrt({L * r * d}) "
                             f"exceeds the limit {START_CAP}")
        # start s draws its real parts, then its imaginary ones
        Z = rng.gen.standard_normal((restarts, 2, L, r))
        kind, U = "random", np.linalg.qr(Z[:, 0] + 1j * Z[:, 1])[0]

    values, U, outcome, (iterations, evaluations) = _refine(
        U, B, dA, dB, improvement_tol)
    best = 0
    for i, value in enumerate(values):
        # a start a few ulps below an earlier one does not displace it
        if value < values[best] - 4 * _EPS * abs(values[best]):
            best = i
    return values[best], U[best], tuple(
        StartRecord(kind, iterations, evaluations, v, outcome) for v in values)

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
                     eof_rho: float, eof_rho2: float) -> ContinuityCheck:
    """|E_f(rho) - E_f(rho')| against 5 D log2(dim) + 2 eta(D), D the Bures
    distance, up to OPTIMIZER_TOL."""
    if rho.dims != rho2.dims:
        raise DimensionError(f"dims mismatch: {rho.dims} vs {rho2.dims}")
    d = bures_distance(rho, rho2)
    bound = 5.0 * d * np.log2(rho.dim) + 2.0 * eta(d)
    gap = abs(eof_rho - eof_rho2)
    return ContinuityCheck(d, float(bound), float(gap), bool(gap <= bound + OPTIMIZER_TOL))


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
