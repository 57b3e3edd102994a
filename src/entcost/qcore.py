"""Dense linear algebra for bipartite quantum states.

States are value objects: a density matrix or state vector together with the
local dimensions (dA, dB).  The A factor is always the slow (row-major outer)
index, which fixes the partial-trace and tensor-regrouping conventions used
everywhere else in the package.  All entropies are base-2 (bits/ebits).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

HERMITICITY_TOL = 1e-9
TRACE_TOL = 1e-9
EIG_ERROR_FLOOR = -1e-6   # eigenvalues below this signal a caller bug
EIG_WARN_FLOOR = -1e-9    # [-1e-6, -1e-9): warn and repair; [-1e-9, 0): clip
RANK_TOL = 1e-12
WEIGHT_FLOOR = 1e-12

# Work limits, one per engine, each on a formula evaluated before the work;
# past one, exact formation turns analytic, the dense check stops, the rest
# raise ValueError.  Time at the limit, one BLAS thread, 2-core VM (BENCH_*):
EXACT_WORK_CAP = 10 ** 9   # r^n T min(T, r^n) + 2048 T + 32 sum (c rows + r^c keep): 3.7 s
DENSE_WORK_CAP = 10 ** 9   # (d^k)^3 of the direct tensor-power fidelity: 4.0 s
ROW_WORK_CAP = 10 ** 8     # (L_1 r d)^n_max of the deepest warm refine: 3.1 s
START_CAP = 1024           # restarts sqrt(L r d) of one call's random starts: 1.8 s
TYPICAL_CAP = 1 << 25      # prefixes that fit at one place x max(k, 8), and prefixes x (place + 64) summed / 32: 1.2 s
SPECTRUM_CAP = 1 << 22     # C(c + r - 1, c) c per dilution walk, r nonzero Schmidt weights: 1.0 s


class DimensionError(ValueError):
    """Matrix/vector size inconsistent with the declared local dimensions."""


class StateValidationError(ValueError):
    """Input violates a state invariant beyond repair thresholds."""


def _as_dims(dims):
    if len(dims) != 2:
        raise DimensionError(f"expected two local dimensions, got {tuple(dims)}")
    dA, dB = int(dims[0]), int(dims[1])
    if dA < 1 or dB < 1:
        raise DimensionError(f"local dimensions must be positive, got {(dA, dB)}")
    return (dA, dB)


def repair_psd(matrix):
    """Clip tiny negative eigenvalues and renormalize the trace to 1.

    Eigenvalues below -1e-6 raise; values in [-1e-6, -1e-9) trigger a warning
    before repair; values in [-1e-9, 0) are clipped silently.
    """
    evals, evecs = np.linalg.eigh(matrix)
    lo = float(evals.min())
    if lo < EIG_ERROR_FLOOR:
        raise StateValidationError(
            f"density matrix has eigenvalue {lo:.3e} below {EIG_ERROR_FLOOR:g}")
    if lo < EIG_WARN_FLOOR:
        warnings.warn(
            f"density matrix has eigenvalue {lo:.3e}; clipping to 0 and renormalizing",
            stacklevel=3)
    if lo < 0.0:
        evals = np.clip(evals, 0.0, None)
        matrix = (evecs * evals) @ evecs.conj().T
        matrix = matrix / np.trace(matrix).real
    return matrix


@dataclass(frozen=True)
class QuantumState:
    """Density matrix on C^dA (x) C^dB with the A factor as the slow index."""

    dims: tuple
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        dims = _as_dims(self.dims)
        m = np.asarray(self.matrix, dtype=complex)
        d = dims[0] * dims[1]
        if m.shape != (d, d):
            raise DimensionError(
                f"matrix of shape {m.shape} does not match dims {dims} (order {d})")
        if not np.isfinite(m).all():
            raise StateValidationError("matrix has non-finite entries")
        if np.abs(m - m.conj().T).max() > HERMITICITY_TOL:
            raise StateValidationError("matrix is not Hermitian within 1e-9")
        m = (m + m.conj().T) / 2.0
        tr = np.trace(m).real
        if abs(tr - 1.0) > TRACE_TOL:
            raise StateValidationError(f"trace {tr!r} differs from 1 beyond 1e-9")
        m = repair_psd(m / tr)
        m.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self):
        return self.dims[0] * self.dims[1]


@dataclass(frozen=True)
class PureState:
    """Unit vector on C^dA (x) C^dB."""

    dims: tuple
    vector: np.ndarray = field(repr=False)

    def __post_init__(self):
        dims = _as_dims(self.dims)
        v = np.asarray(self.vector, dtype=complex)
        d = dims[0] * dims[1]
        if v.shape != (d,):
            raise DimensionError(
                f"vector of shape {v.shape} does not match dims {dims} (length {d})")
        if not np.isfinite(v).all():
            raise StateValidationError("vector has non-finite entries")
        nrm = float(np.linalg.norm(v))
        if abs(nrm - 1.0) > HERMITICITY_TOL:
            raise StateValidationError(f"norm {nrm!r} differs from 1 beyond 1e-9")
        v = v / nrm
        v.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "vector", v)

    @property
    def dim(self):
        return self.dims[0] * self.dims[1]

    def density_matrix(self):
        return np.outer(self.vector, self.vector.conj())

    def to_state(self):
        return QuantumState(self.dims, self.density_matrix())


@dataclass(frozen=True)
class Ensemble:
    """Weighted list of bipartite pure states; weights below 1e-12 are pruned."""

    weights: np.ndarray = field(repr=False)
    states: tuple = field(repr=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        states = tuple(self.states)
        if w.ndim != 1 or w.size != len(states):
            raise StateValidationError("weights and states must have equal length")
        if w.size == 0:
            raise StateValidationError("ensemble must be non-empty")
        if not np.isfinite(w).all():
            raise StateValidationError("ensemble weights must be finite")
        if np.any(w < 0):
            raise StateValidationError("ensemble weights must be non-negative")
        total = float(w.sum())
        if abs(total - 1.0) > 1e-9:
            raise StateValidationError(f"weights sum to {total!r}, not 1")
        dims = states[0].dims
        for s in states:
            if s.dims != dims:
                raise DimensionError("all ensemble states must share one dims pair")
        keep = w > WEIGHT_FLOOR
        if not keep.all():
            w = w[keep]
            states = tuple(s for s, k in zip(states, keep) if k)
            if len(states) == 0:
                raise StateValidationError("all weights below the pruning floor")
        w = w / w.sum()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "states", states)

    @property
    def dims(self):
        return self.states[0].dims

    def __len__(self):
        return len(self.states)


# ---------------------------------------------------------------------------
# Core operations
# ---------------------------------------------------------------------------

def partial_trace_matrix(matrix, dims, keep):
    """Partial trace of a (possibly subnormalized) matrix over one factor."""
    dA, dB = _as_dims(dims)
    d = dA * dB
    m = np.asarray(matrix)
    if m.shape != (d, d):
        raise DimensionError(
            f"matrix of shape {m.shape} does not match dims {(dA, dB)}")
    r = m.reshape(dA, dB, dA, dB)
    if keep in ("A", "a"):
        return np.einsum("abcb->ac", r)
    if keep in ("B", "b"):
        return np.einsum("abad->bd", r)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def partial_trace(state: QuantumState, keep):
    """Reduced density matrix of `state` on the kept factor ('A' or 'B')."""
    return partial_trace_matrix(state.matrix, state.dims, keep)


def von_neumann_entropy(sigma) -> float:
    """S(sigma) = -sum lambda log2 lambda in bits, with 0 log 0 = 0."""
    m = sigma.matrix if isinstance(sigma, QuantumState) else np.asarray(sigma)
    evals = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    if evals.min() < EIG_ERROR_FLOOR:
        raise StateValidationError(
            f"eigenvalue {evals.min():.3e} below {EIG_ERROR_FLOOR:g}")
    evals = np.clip(evals, 0.0, None)
    nz = evals[evals > 0]
    return float(-(nz * np.log2(nz)).sum())


def pure_entanglement(psi: PureState) -> float:
    """Entanglement of a bipartite pure state: entropy of either reduction."""
    return float(entanglement_entropies(psi.vector, psi.dims))


def entanglement_entropies(vectors, dims) -> np.ndarray:
    """`pure_entanglement` of each unit vector along the last axis, from one
    stacked SVD: -sum mu log2 mu over the squared Schmidt coefficients
    mu > 1e-18."""
    sv = np.linalg.svd(vectors.reshape(vectors.shape[:-1] + tuple(dims)),
                       compute_uv=False)
    mu = sv * sv
    return -(mu * np.log2(np.where(mu > 1e-18, mu, 1.0))).sum(-1)


def ensemble_average(ensemble: Ensemble) -> QuantumState:
    """The density matrix sum_i p_i |psi_i><psi_i| realized by the ensemble.

    The terms p_i |psi_i><psi_i| are formed as one stack per block of members
    (at most 2^16 entries) and summed over the leading axis, which numpy adds
    in order, so the sum is rounded exactly as a member-by-member loop
    rounds it.  A matrix product would round it differently, and the exact
    formation fidelities follow rho to the last bits.
    """
    V = np.stack([s.vector for s in ensemble.states])
    w = ensemble.weights
    d = V.shape[1]
    step = max(1, 2 ** 16 // (d * d))
    acc = np.zeros((1, d, d), dtype=complex)
    for i in range(0, len(V), step):
        b = slice(i, i + step)
        terms = w[b, None, None] * (V[b, :, None] * V[b, None, :].conj())
        acc = np.concatenate((acc, terms)).sum(axis=0, keepdims=True)
    return QuantumState(ensemble.dims, acc[0])


# ---------------------------------------------------------------------------
# Tensor products with bipartite regrouping (A factors stay together)
# ---------------------------------------------------------------------------

def tensor_rows(r1, dims1, r2, dims2):
    """Kron of two stacks of bipartite rows, each regrouped to ((A1 A2), (B1 B2)).

    Row i * len(r2) + j is row i of r1 times row j of r2, as in np.kron.
    """
    a1, b1 = _as_dims(dims1)
    a2, b2 = _as_dims(dims2)
    r1 = np.asarray(r1).reshape(-1, a1, b1)
    r2 = np.asarray(r2).reshape(-1, a2, b2)
    k = r1[:, None, :, None, :, None] * r2[None, :, None, :, None, :]
    return (k.reshape(len(r1) * len(r2), a1 * a2 * b1 * b2),
            (a1 * a2, b1 * b2))


def tensor_pure(p1: PureState, p2: PureState) -> PureState:
    rows, dims = tensor_rows(p1.vector, p1.dims, p2.vector, p2.dims)
    return PureState(dims, rows[0])


def tensor_matrix(m1, dims1, m2, dims2):
    """Kron of two bipartite matrices, regrouped to ((A1 A2), (B1 B2))."""
    a1, b1 = _as_dims(dims1)
    a2, b2 = _as_dims(dims2)
    k = np.kron(np.asarray(m1), np.asarray(m2))
    k = k.reshape(a1, b1, a2, b2, a1, b1, a2, b2)
    k = k.transpose(0, 2, 1, 3, 4, 6, 5, 7)
    d = a1 * a2 * b1 * b2
    return k.reshape(d, d), (a1 * a2, b1 * b2)


def tensor_product(s1: QuantumState, s2: QuantumState) -> QuantumState:
    m, dims = tensor_matrix(s1.matrix, s1.dims, s2.matrix, s2.dims)
    return QuantumState(dims, m)


def tensor_power(state: QuantumState, n: int) -> QuantumState:
    if n < 1:
        raise ValueError("n must be >= 1")
    out = state
    for _ in range(n - 1):
        out = tensor_product(out, state)
    return out


def pure_power(psi: PureState, n: int) -> PureState:
    if n < 1:
        raise ValueError("n must be >= 1")
    out = psi
    for _ in range(n - 1):
        out = tensor_pure(out, psi)
    return out


def singlet() -> PureState:
    """(|01> - |10>)/sqrt(2)."""
    v = np.zeros(4, dtype=complex)
    v[1] = 1 / np.sqrt(2)
    v[2] = -1 / np.sqrt(2)
    return PureState((2, 2), v)


def basis_pure(dims, a, b) -> PureState:
    dA, dB = _as_dims(dims)
    v = np.zeros(dA * dB, dtype=complex)
    v[a * dB + b] = 1.0
    return PureState((dA, dB), v)


# ---------------------------------------------------------------------------
# Seeded random sampling
# ---------------------------------------------------------------------------

class RandomSource:
    """Deterministic random stream with explicit splitting.

    The same seed always yields the same sequence of samples; independent
    substreams for concurrent work are obtained with split().
    """

    def __init__(self, seed, _key=()):
        self.seed = int(seed)
        self._key = tuple(_key)
        self._children = 0
        self.gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(self.seed, spawn_key=self._key)))

    def split(self) -> "RandomSource":
        child = RandomSource(self.seed, self._key + (self._children,))
        self._children += 1
        return child

    def replay(self) -> "RandomSource":
        """A fresh stream with this source's identity, restarted from the top."""
        return RandomSource(self.seed, self._key)

    def __repr__(self):
        return f"RandomSource(seed={self.seed}, key={self._key})"


def _complex_gaussian(gen, shape):
    return gen.standard_normal(shape) + 1j * gen.standard_normal(shape)


def sample_pure_state(dims, rng: RandomSource) -> PureState:
    """Haar-uniform pure state on the bipartite space."""
    dA, dB = _as_dims(dims)
    v = _complex_gaussian(rng.gen, dA * dB)
    return PureState((dA, dB), v / np.linalg.norm(v))


def sample_density_matrix(dims, rank, rng: RandomSource) -> QuantumState:
    """Random density matrix GG^dag/Tr with G a (d x rank) Gaussian matrix."""
    dA, dB = _as_dims(dims)
    d = dA * dB
    rank = int(rank)
    if not 1 <= rank <= d:
        raise ValueError(f"rank must lie in [1, {d}], got {rank}")
    g = _complex_gaussian(rng.gen, (d, rank))
    m = g @ g.conj().T
    return QuantumState((dA, dB), m / np.trace(m).real)


def sample_unitary(dim, rng: RandomSource) -> np.ndarray:
    """Haar-random unitary via phase-fixed QR of a Gaussian matrix."""
    q, r = np.linalg.qr(_complex_gaussian(rng.gen, (int(dim), int(dim))))
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2 (1-x)."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return float(-x * np.log2(x) - (1 - x) * np.log2(1 - x))
