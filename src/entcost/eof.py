"""Entanglement of formation: closed-form two-qubit oracle, general ensemble
optimizer, continuity bound, and LOCC monotonicity testing.

E_f(rho) is the minimum of sum_i p_i E(psi_i) over pure-state decompositions
of rho.  The optimizer parameterizes decompositions through the purification:
every size-L ensemble arises from an L x r isometry applied to the rank-r
eigen-ensemble, so every iterate is feasible by construction.  The search is
a seeded multi-start Jacobi sweep: cyclic two-row plane rotations (real and
phased) with a bounded scalar line search on the objective, which each pair
evaluates from three Gram blocks of its two rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .metrics import bures_distance
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
DEFAULT_MAX_CYCLES = 500

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
    evals, evecs = np.linalg.eigh(rho.matrix)
    root = (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.conj().T
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
class EofResult:
    value: float
    ensemble: Ensemble
    restarts_used: int
    converged: bool
    value_history: tuple   # best value reached by each start, in order

    def to_json_obj(self):
        from .serialize import ensemble_to_json_obj
        return {
            "value": self.value,
            "ensemble": ensemble_to_json_obj(self.ensemble),
            "restarts_used": self.restarts_used,
            "converged": self.converged,
            "value_history": list(self.value_history),
        }


def _row_blocks(W, dA, dB):
    """Each row of W (last axis) as a k x m matrix, k = min(dA, dB).

    Its Gram matrix M M^dag is the reduced state on the smaller factor, which
    has the same nonzero spectrum as the reduced state on the larger one.
    """
    M = W.reshape(W.shape[:-1] + (dA, dB))
    return M if dA <= dB else np.swapaxes(M, -1, -2)


def _spectrum_entropy(mu):
    """p E(psi) of a subnormalized pure state from its reduced spectrum mu.

    Python floats: with p = sum mu, the entropy of mu / p times p is
    p log2 p - sum mu log2 mu.  Eigenvalues at or below 1e-18 are noise.
    """
    p = e = 0.0
    for m in mu:
        if m > 1e-18:
            p += m
            e -= m * math.log2(m)
    return e + p * math.log2(p) if p > 1e-15 else 0.0


def _pauli(g):
    """Components (t, x, y, z) of 2 x 2 Hermitian g = (t I + x X + y Y + z Z) / 2.

    g is a stack; each component comes back as a list of Python floats.
    """
    d0, d1, off = g[..., 0, 0].real, g[..., 1, 1].real, g[..., 0, 1]
    return ((d0 + d1).tolist(), (2.0 * off.real).tolist(),
            (-2.0 * off.imag).tolist(), (d0 - d1).tolist())


def _qubit_gram_entropy(t, x, y, z):
    """_spectrum_entropy of (t I + x X + y Y + z Z) / 2, on Python floats.

    Its eigenvalues are (t -+ |(x, y, z)|) / 2; no eigensolver is called.
    """
    r = math.sqrt(x * x + y * y + z * z)
    return _spectrum_entropy(((t - r) / 2.0, (t + r) / 2.0))


def _gram_entropy(g):
    """_spectrum_entropy of each Gram matrix M M^dag in the stack g (n, k, k)."""
    if g.shape[-1] == 2:
        return [_qubit_gram_entropy(*c) for c in zip(*_pauli(g))]
    return [_spectrum_entropy(mu) for mu in np.linalg.eigvalsh(g).tolist()]


def _entropy_contrib(W, dA, dB):
    """Weighted entanglement p_i E(psi_i) of each subnormalized row of W."""
    M = _row_blocks(W.reshape(-1, W.shape[-1]), dA, dB)
    g = M @ np.swapaxes(M, -1, -2).conj()
    return np.reshape(_gram_entropy(g), W.shape[:-1])


def _pair_objective(Ma, Mb, phase):
    """theta -> entanglement of the rows with blocks Ma, Mb after the rotation
    a -> c a + s phase b, b -> -s conj(phase) a + c b (c, s = cos, sin theta).

    With P = Ma Ma^dag, Q = Mb Mb^dag and H = phase Mb Ma^dag + h.c., the
    rotated rows have Gram matrices c^2 P + s^2 Q +- cs H, that is
    (P + Q)/2 +- (cos 2theta (P - Q) + sin 2theta H)/2.  The three k x k blocks
    are built once and serve every theta.  Shifting theta by pi/2 swaps the
    two Gram matrices, so the objective has period pi/2.
    """
    C = phase * (Mb @ Ma.conj().T)
    P = Ma @ Ma.conj().T
    Q = Mb @ Mb.conj().T
    blocks = np.stack([P + Q, P - Q, C + C.conj().T]) / 2.0
    if blocks.shape[-1] == 2:
        (mt, dt, ht), (mx, dx, hx), (my, dy, hy), (mz, dz, hz) = _pauli(blocks)

        def objective(theta):
            c, s = math.cos(2.0 * theta), math.sin(2.0 * theta)
            t, x = c * dt + s * ht, c * dx + s * hx
            y, z = c * dy + s * hy, c * dz + s * hz
            return (_qubit_gram_entropy(mt + t, mx + x, my + y, mz + z)
                    + _qubit_gram_entropy(mt - t, mx - x, my - y, mz - z))
        return objective

    mean = blocks[0]
    sign = np.array([1.0, -1.0])[:, None, None]
    diff, herm = sign * blocks[1], sign * blocks[2]

    def objective(theta):
        g = diff * math.cos(2.0 * theta)
        g += herm * math.sin(2.0 * theta)
        g += mean
        return sum(_gram_entropy(g))
    return objective


def _jacobi_refine(W, dA, dB, improvement_tol, max_cycles):
    """Minimize sum_i p_i E_i over plane rotations of the rows of W in place."""
    L = W.shape[0]
    contrib = _entropy_contrib(W, dA, dB)
    converged = False
    total = float(contrib.sum())
    bounds = (-np.pi / 2.0, np.pi / 2.0)
    for _ in range(max_cycles):
        start_total = total
        for a in range(L - 1):
            for b in range(a + 1, L):
                # rotations only touch rows a and b, whose contributions are
                # nonnegative; nothing to gain if both already vanish
                if contrib[a] + contrib[b] < 1e-13:
                    continue
                for phase in (1.0, 1.0j):
                    wa, wb = pair = W[[a, b]]
                    Ma, Mb = _row_blocks(pair, dA, dB)
                    cur = contrib[a] + contrib[b]
                    res = minimize_scalar(_pair_objective(Ma, Mb, phase),
                                          bounds=bounds, method="bounded",
                                          options={"xatol": 1e-5, "maxiter": 40})
                    if res.fun < cur - 1e-13:
                        c, s = math.cos(res.x), math.sin(res.x)
                        W[a] = c * wa + s * phase * wb
                        W[b] = -s * np.conj(phase) * wa + c * wb
                        contrib[[a, b]] = _entropy_contrib(W[[a, b]], dA, dB)
        total = float(contrib.sum())
        if start_total - total < improvement_tol:
            converged = True
            break
    return total, W, converged


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
                 improvement_tol=DEFAULT_IMPROVEMENT_TOL,
                 max_cycles=DEFAULT_MAX_CYCLES) -> EofResult:
    """Minimize sum_i p_i E(psi_i) over size-L pure-state decompositions of rho.

    The returned value is always an upper bound on E_f: the achieving ensemble
    is stored and reproduces rho exactly.  `seed_ensembles` are used as warm
    starts alongside `restarts` random isometry starts.  The default ensemble
    size is rank(rho)^2 capped at (dA dB)^2.
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
                         0, True, (value,))
    L = int(ensemble_size) if ensemble_size is not None else min(r * r, d * d)
    if L < r:
        raise ValueError(f"ensemble size {L} below rank {r}: no such decomposition")

    base = (vecs * np.sqrt(lam)).T    # r x d, rows sqrt(lam_j) e_j

    starts = []
    for ens in seed_ensembles:
        if ens.dims != rho.dims:
            raise DimensionError("seed ensemble dims do not match the state")
        avg = ensemble_average(ens)
        if np.abs(avg.matrix - rho.matrix).max() > 1e-6:
            raise StateValidationError("seed ensemble does not realize the state")
        starts.append(_rows_from_ensemble(ens, L, d))
    for _ in range(int(restarts)):
        g = rng.gen
        x = g.standard_normal((L, r)) + 1j * g.standard_normal((L, r))
        q, _ = np.linalg.qr(x)
        starts.append(q @ base)
    if not starts:
        raise ValueError("need at least one start (restarts >= 1 or a seed)")

    best_value = np.inf
    best_rows = None
    all_converged = True
    history = []
    for W in starts:
        value, W, conv = _jacobi_refine(W, dA, dB, improvement_tol, max_cycles)
        history.append(value)
        all_converged = all_converged and conv
        if value < best_value:
            best_value = value
            best_rows = W
    ensemble = _ensemble_from_rows(best_rows, rho.dims)
    # report the value the stored ensemble actually achieves
    value = float(np.dot(ensemble.weights,
                         [pure_entanglement(s) for s in ensemble.states]))
    return EofResult(value, ensemble, len(starts), all_converged, tuple(history))


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

    def to_json_obj(self):
        return {"distance": self.distance, "bound": self.bound,
                "observed_gap": self.observed_gap, "holds": self.holds}


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

    def to_json_obj(self):
        return {"before": self.before, "after": self.after,
                "tolerance": self.tolerance, "holds": self.holds}


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
