"""Entanglement of formation: closed-form two-qubit oracle, general ensemble
optimizer, continuity bound, and LOCC monotonicity testing.

E_f(rho) is the minimum of sum_i p_i E(psi_i) over pure-state decompositions
of rho.  The optimizer parameterizes decompositions through the purification:
every size-L ensemble arises from an L x r isometry applied to the rank-r
eigen-ensemble, so every iterate is feasible by construction.  The search is
a seeded multi-start Jacobi sweep: two-row plane rotations (real and phased)
with a bounded scalar line search on the objective, which each pair
evaluates from three Gram blocks of its two rows.  A sweep visits the pairs in
round-robin rounds of disjoint pairs (the circle method; Brent & Luk, SIAM J.
Sci. Stat. Comput. 6, 69 (1985)); rotations of disjoint pairs commute, so a
round's line searches run in lockstep and share one eigensolver call per
step.  The line search is bounded Brent minimization (fminbound) on Python
floats, written once as a coroutine (`_brent`) that `minimize_scalar` and the
lockstep rounds drive.  The starts race: every start after the first is
stopped once the limit its sweeps are heading for cannot beat the best value
found so far.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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
    cycles: int               # Jacobi sweeps run
    line_searches: int
    accepted_rotations: int
    value: float              # sum_i p_i E_i the start ended at
    outcome: str              # "converged", "abandoned" or "cycle_cap"


@dataclass(frozen=True)
class EofResult:
    """Best value over the starts, its ensemble, and one record per start.

    `converged` means no start hit the cycle cap: a start abandoned because
    it could not beat the best value does not count as unconverged.
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

    Its eigenvalues are lo, hi = (t -+ |(x, y, z)|) / 2; no eigensolver is
    called.  The same operations in the same order as `_spectrum_entropy`
    on (lo, hi), unrolled: once lo is dropped as noise, hi alone has
    entropy 0.
    """
    r = math.sqrt(x * x + y * y + z * z)
    lo, hi = (t - r) / 2.0, (t + r) / 2.0
    if lo > 1e-18:
        p = lo + hi
        if p > 1e-15:
            return (0.0 - lo * math.log2(lo) - hi * math.log2(hi)
                    + p * math.log2(p))
    return 0.0


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


def _pair_blocks(rows, dA, dB, phase):
    """The three k x k Gram blocks of each row pair in the stack `rows`.

    `rows` has shape (n, 2, dA dB): rows a and b of n pairs.  Returns shape
    (n, 3, k, k): (P + Q)/2, (P - Q)/2 and H/2, with P = Ma Ma^dag,
    Q = Mb Mb^dag and H = phase Mb Ma^dag + h.c., all from one stacked
    matmul of each pair's 2k x m block [Ma; Mb] with its adjoint.
    """
    M = _row_blocks(rows, dA, dB)
    n, _, k, m = M.shape
    R = M.reshape(n, 2 * k, m)
    G = R @ np.swapaxes(R, -1, -2).conj()
    P, Q, C = G[:, :k, :k], G[:, k:, k:], phase * G[:, k:, :k]
    return np.stack([P + Q, P - Q, C + np.swapaxes(C, -1, -2).conj()],
                    axis=1) / 2.0


def _qubit_objective(components):
    """theta -> objective of one k = 2 pair (see `_stacked_objective`), on
    Python floats.

    `components` holds the Pauli components (t, x, y, z) of the pair's three
    blocks (`_pauli`), each a (mean, diff, herm) triple.
    """
    (mt, dt, ht), (mx, dx, hx), (my, dy, hy), (mz, dz, hz) = components

    def objective(theta):
        c, s = math.cos(2.0 * theta), math.sin(2.0 * theta)
        t, x = c * dt + s * ht, c * dx + s * hx
        y, z = c * dy + s * hy, c * dz + s * hz
        return (_qubit_gram_entropy(mt + t, mx + x, my + y, mz + z)
                + _qubit_gram_entropy(mt - t, mx - x, my - y, mz - z))
    return objective


def _stacked_objective(blocks):
    """evaluate(lanes, thetas): the objective of each listed pair at its theta.

    `blocks` is `_pair_blocks` output with k > 2; the rotation
    a -> c a + s phase b, b -> -s conj(phase) a + c b (c, s = cos, sin theta)
    gives the two rows Gram matrices c^2 P + s^2 Q +- cs H, that is
    (P + Q)/2 +- (cos 2theta (P - Q) + sin 2theta H)/2.  Shifting theta by
    pi/2 swaps them, so each objective has period pi/2.  The listed pairs'
    Gram matrices are formed by one stacked matmul and one add, and
    diagonalized by one `eigvalsh` call on the (lanes, 2, k, k) stack.
    """
    # as real numbers: row j of `terms` holds the +- (P - Q)/2 (j = 0) or
    # +- H/2 (j = 1) parts of both Gram matrices, so (cos, sin) @ terms + mean
    # forms them all in two operations
    re = blocks.view(np.float64)
    n, _, k, k2 = re.shape
    sign = np.array([1.0, -1.0])[:, None, None]
    mean = re[:, 0, None]
    terms = np.stack([sign * re[:, 1, None], sign * re[:, 2, None]],
                     axis=1).reshape(n, 2, -1)

    def evaluate(lanes, thetas):
        cs = np.array([(math.cos(2.0 * t), math.sin(2.0 * t)) for t in thetas])
        sel = slice(None) if len(lanes) == n else lanes
        g = (cs[:, None] @ terms[sel]).reshape(-1, 2, k, k2)
        g += mean[sel]
        spectra = np.linalg.eigvalsh(g.view(complex)).tolist()
        return [sum(map(_spectrum_entropy, pair)) for pair in spectra]
    return evaluate


def _pair_objective(Ma, Mb, phase):
    """theta -> entanglement of the rows with blocks Ma, Mb after the rotation
    a -> c a + s phase b, b -> -s conj(phase) a + c b: the objective of one
    pair, scored exactly as `_round_searches` scores it."""
    blocks = _pair_blocks(np.stack([Ma, Mb]).reshape(1, 2, -1), *Ma.shape, phase)
    if blocks.shape[-1] == 2:
        return _qubit_objective(next(zip(*_pauli(blocks))))
    evaluate = _stacked_objective(blocks)
    return lambda theta: evaluate([0], [theta])[0]


class ScalarMinimum(NamedTuple):
    x: float       # best point found
    fun: float     # func(x)


_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))


def _brent(bounds, xatol, maxiter):
    """Bounded Brent minimization over the interval bounds, as a coroutine.

    It yields each point x to evaluate and is sent func(x); it returns
    (through StopIteration) the ScalarMinimum.  A transcription of scipy
    1.17's `_minimize_scalar_bounded` onto Python floats: the same IEEE
    operations in the same order, so each search visits the same points and
    returns the same x and fun as `scipy.optimize.minimize_scalar(
    method="bounded")` with these options.  Stops once the bracket around x
    is within about xatol, or after maxiter evaluations.
    """
    a, b = bounds
    xf = nfc = fulc = a + _GOLDEN_MEAN * (b - a)
    rat = e = 0.0
    fx = fnfc = ffulc = yield xf
    num = 1
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        # parabola through xf, nfc and fulc, if the last steps moved enough
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if (abs(p) < abs(0.5 * q * r)) and (p > q * (a - xf)) and (
                    p < q * (b - xf)):
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    rat = tol1 if xm >= xf else -tol1
            else:
                golden = True
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN_MEAN * e
        # scipy steps by sign(rat) + (rat == 0), which is +1 at rat = -0.0
        step = max(abs(rat), tol1)
        x = xf - step if rat < 0.0 else xf + step
        fu = yield x
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxiter:
            break
    return ScalarMinimum(xf, fx)


def _search_lanes(evaluate, n, bounds, xatol, maxiter):
    """n bounded Brent searches (`_brent`) run in lockstep.

    Each step calls evaluate(lanes, xs) once for every search still running
    (lane i at xs[j] for i = lanes[j]), which returns their values in order.
    Returns the ScalarMinimum of each search.
    """
    searches = [_brent(bounds, xatol, maxiter) for _ in range(n)]
    lanes, xs = list(range(n)), [next(s) for s in searches]
    results = [None] * n
    while lanes:
        running, points = [], []
        for i, f in zip(lanes, evaluate(lanes, xs)):
            try:
                points.append(searches[i].send(f))
                running.append(i)
            except StopIteration as stop:
                results[i] = stop.value
        lanes, xs = running, points
    return results


def minimize_scalar(func, bounds, xatol, maxiter):
    """Bounded Brent minimization of func over the interval bounds (fminbound).

    Drives one `_brent` search: the same iterates, x and fun as
    `scipy.optimize.minimize_scalar(method="bounded")` with these options.
    """
    search = _brent(bounds, xatol, maxiter)
    x = next(search)
    try:
        while True:
            x = search.send(func(x))
    except StopIteration as stop:
        return stop.value


_BOUNDS = (-math.pi / 2.0, math.pi / 2.0)


def _rounds(L):
    """Round-robin schedule of the pairs of L rows (circle method).

    L - 1 rounds for even L, L for odd L: the pairs inside a round are
    disjoint, and each of the L (L - 1) / 2 pairs comes up once.  Row 0 stays
    put while the others turn one place per round; at odd L the row paired
    with a dummy row L sits the round out.
    """
    n = L + L % 2
    ring = list(range(n))
    rounds = []
    for _ in range(n - 1):
        pairs = [tuple(sorted((ring[i], ring[n - 1 - i]))) for i in range(n // 2)]
        rounds.append(tuple(p for p in pairs if p[1] < L))
        ring = ring[:1] + ring[-1:] + ring[1:-1]
    return tuple(r for r in rounds if r)


def _round_searches(W, pairs, dA, dB, phase):
    """Line search of every row pair (a, b) of W listed in `pairs` (m, 2).

    The pairs are disjoint; above k = 2 their searches run in lockstep
    (`_search_lanes`).  Returns one ScalarMinimum per pair, the same as
    `minimize_scalar` on that pair's `_pair_objective`.
    """
    blocks = _pair_blocks(W[pairs], dA, dB, phase)
    if blocks.shape[-1] == 2:
        # qubit pairs share no eigensolver call, so each runs on its own
        return [minimize_scalar(f, _BOUNDS, xatol=1e-5, maxiter=40)
                for f in map(_qubit_objective, zip(*_pauli(blocks)))]
    return _search_lanes(_stacked_objective(blocks), len(pairs), _BOUNDS,
                         xatol=1e-5, maxiter=40)


def _jacobi_refine(W, dA, dB, improvement_tol, max_cycles, incumbent=math.inf):
    """Minimize sum_i p_i E_i over plane rotations of the rows of W in place.

    Returns (total, W, outcome, (cycles, line searches, accepted rotations)).
    A sweep runs the `_rounds` of the rows; in each round, for the real and
    then the complex phase, every pair's line search runs in lockstep and
    the accepted rotations, which touch disjoint rows, are applied at once.
    The sweeps stop once one gains less than improvement_tol ("converged"),
    or after max_cycles ("cycle_cap").  They converge linearly, so from the
    third sweep on, a gain g after a larger gain g_prev projects the limit
    total - g q / (1 - q), q = g / g_prev; once that cannot beat `incumbent`
    by improvement_tol the start is stopped ("abandoned") with the rows and
    total it has reached.  (The first two gains do not shrink geometrically
    yet, so a projection from them underestimates what is left.)
    """
    contrib = _entropy_contrib(W, dA, dB)
    total = float(contrib.sum())
    rounds = [np.array(pairs) for pairs in _rounds(W.shape[0])]
    searches = accepted = cycles = 0
    gain, outcome = math.inf, "cycle_cap"
    while cycles < max_cycles:
        cycles += 1
        start_total = total
        for pairs in rounds:
            # a rotation only touches its pair's rows, whose contributions
            # are nonnegative; nothing to gain if both already vanish
            pairs = pairs[contrib[pairs].sum(axis=1) >= 1e-13]
            if not len(pairs):
                continue
            for phase in (1.0, 1.0j):
                results = _round_searches(W, pairs, dA, dB, phase)
                searches += len(results)
                cur = (contrib[pairs].sum(axis=1) - 1e-13).tolist()
                better = [r.fun < c for r, c in zip(results, cur)]
                if not any(better):
                    continue
                accepted += sum(better)
                moved = pairs if all(better) else pairs[better]
                angles = [r.x for r, ok in zip(results, better) if ok]
                # a -> c a + s phase b, b -> -s conj(phase) a + c b
                rot = np.array([((c, s * phase), (-s * phase.conjugate(), c))
                                for c, s in zip(map(math.cos, angles),
                                                map(math.sin, angles))])
                rows = rot @ W[moved]
                W[moved] = rows
                contrib[moved] = _entropy_contrib(rows, dA, dB)
        total = float(contrib.sum())
        prev, gain = gain, start_total - total
        if gain < improvement_tol:
            outcome = "converged"
            break
        if cycles >= 3 and 0.0 <= gain < prev:
            q = gain / prev
            if total - gain * q / (1.0 - q) > incumbent - improvement_tol:
                outcome = "abandoned"
                break
    return total, W, outcome, (cycles, searches, accepted)


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
    starts, run first, alongside `restarts` random isometry starts.  The first
    start runs until it converges or hits max_cycles; every later one is
    abandoned once its projected limit cannot beat the best value so far by
    improvement_tol (see `_jacobi_refine`), keeping the value it reached.
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

    base = (vecs * np.sqrt(lam)).T    # r x d, rows sqrt(lam_j) e_j

    starts = []       # (kind, rows)
    for ens in seed_ensembles:
        if ens.dims != rho.dims:
            raise DimensionError("seed ensemble dims do not match the state")
        avg = ensemble_average(ens)
        if np.abs(avg.matrix - rho.matrix).max() > 1e-6:
            raise StateValidationError("seed ensemble does not realize the state")
        starts.append(("warm", _rows_from_ensemble(ens, L, d)))
    for _ in range(int(restarts)):
        g = rng.gen
        x = g.standard_normal((L, r)) + 1j * g.standard_normal((L, r))
        q, _ = np.linalg.qr(x)
        starts.append(("random", q @ base))
    if not starts:
        raise ValueError("need at least one start (restarts >= 1 or a seed)")

    best_value = np.inf
    best_rows = None
    records = []
    for kind, W in starts:
        # every start after the first races the best value found so far
        value, W, outcome, work = _jacobi_refine(W, dA, dB, improvement_tol,
                                                 max_cycles, best_value)
        records.append(StartRecord(kind, *work, value, outcome))
        if value < best_value:
            best_value = value
            best_rows = W
    ensemble = _ensemble_from_rows(best_rows, rho.dims)
    # report the value the stored ensemble actually achieves
    value = float(np.dot(ensemble.weights,
                         [pure_entanglement(s) for s in ensemble.states]))
    return EofResult(value, ensemble, len(starts),
                     all(r.outcome != "cycle_cap" for r in records),
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
