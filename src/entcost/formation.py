"""Exact small-n simulation of the constructive formation protocol.

Given an ensemble {p_i, psi_i} realizing rho, the protocol keeps only the
strongly typical sequences of ensemble members, prepares each typical
product state by entanglement dilution (the 2^budget heaviest Kronecker
products of each member's own Schmidt vectors), and mixes the diluted states.
At desk scale everything is computed exactly, so the fidelity chain

    F(rho^(x)n, rho_T) >= sqrt(1 - eps1)
    F(rho_T, rho'_T)  >= (1 - eps2)^k = 1 - eps3
    D(rho^(x)n, rho'_T) <= 2 sqrt(1 - sqrt(1 - eps1)) + 2 sqrt(eps3)

is verifiable number by number rather than asymptotically, and
`formation_protocol` judges each of the three links once.  Exact mode works
in support coordinates: a single-copy basis E (r columns) spans supp(rho) and
the members, and every mixture is held on span(E)^(x)n, r^n rows in place of
(dA dB)^n.  There rho^(x)n has the diagonal factor sqrt(lam)^(x)n, and rho_T
and rho'_T have triangular factors R_t, R_y of the columns sqrt(p_s) v_s, each
v_s gathered from a product built once per composition of s.  Every fidelity
is the nuclear norm of a product of two factors, so neither a d^n x d^n
matrix nor a T x T one for T > r^n typical sequences is built.  The
fidelities agree with dense matrices to 1e-12 (tests/test_formation.py).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .metrics import BURES_TOL, bures_from_fidelity, nuclear_norm
from .qcore import (
    EXACT_WORK_CAP,
    RANK_TOL,
    SPECTRUM_CAP,
    TYPICAL_CAP,
    Ensemble,
    PureState,
    QuantumState,
    StateValidationError,
    ensemble_average,
    pure_entanglement,
)
from .serialize import INTERNAL

WINDOW_KINDS = ("paper", "plain")

# perfbench/tracing.py wraps these names when a traced run starts; nothing
# calls them, and they go when its wrap list drops them (ROADMAP direction 1).
truncated_state = fidelity_matrices = tensor_power = None
tensor_pure = pure_power = dilute_pure_state = None


# ---------------------------------------------------------------------------
# Typical set
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TypicalSet:
    """Strongly typical index sequences, array rows, and their weights p_s."""

    n: int
    delta1: float
    k: int
    window: str
    num_sequences: int
    sequences: np.ndarray = field(metadata=INTERNAL)   # (T, n), read-only
    weights: np.ndarray = field(metadata=INTERNAL)     # (T,), read-only
    total_weight: float            # p_T
    entropy: float                 # H(p) in bits
    weight_bounds: tuple           # guaranteed (min, max) admitted weight
    count_windows: tuple           # integer (lo_i, hi_i) per ensemble index


def typical_count_windows(p, n, delta1, window="paper"):
    """Integer per-index count windows, rounded outward and clipped to [0, n].

    The default half-width is delta1 * n / (k |log2 p_i|), whose per-index
    contributions to log2 p_s sum to at most delta1 * n, so every admitted
    sequence weight obeys the two-sided 2^{-n(H +/- delta1)} bounds.  The
    plain window uses half-width delta1 * n instead.  A unit weight (a pure
    state, one member) gets the window (n, n) in both kinds.
    """
    p = np.asarray(p, dtype=float)
    k = p.size
    if window not in WINDOW_KINDS:
        raise ValueError(f"window must be one of {WINDOW_KINDS}, got {window!r}")
    windows = []
    for pi in p:
        if not 0.0 < pi <= 1.0:
            raise StateValidationError(
                f"typicality needs every p_i in (0, 1]; got {pi!r}")
        if pi == 1.0:
            half = 0.0      # a pure state: its one sequence gets window (n, n)
        elif window == "paper":
            half = delta1 * n / (k * abs(np.log2(pi)))
        else:
            half = delta1 * n
        # beyond n the window is [0, n] anyway; a huge delta1 gives inf here
        half = min(half, n)
        lo = max(0, math.floor(pi * n - half))
        hi = min(n, math.ceil(pi * n + half))
        windows.append((lo, hi))
    return tuple(windows)


def typical_set(p, n, delta1, window="paper") -> TypicalSet:
    """Every length-n index sequence whose type fits the window, in base-k
    order, as rows of the smallest unsigned dtype that holds k - 1; their
    weights p_s, products of p_i from the left; and p_T = math.fsum(p_s).
    ValueError once fitting prefixes x max(k, 8) pass qcore.TYPICAL_CAP."""
    p = np.asarray(p, dtype=float)
    if abs(p.sum() - 1.0) > 1e-9:
        raise StateValidationError("probabilities must sum to 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    if not delta1 > 0:
        raise ValueError("delta1 must be positive")
    k = p.size
    windows = typical_count_windows(p, n, delta1, window)
    entropy = float(-(p * np.log2(p)).sum())

    # the prefixes grow one place at a time, by every index in order, each
    # with its digits, counts and weight; a prefix stays while its counts
    # can still fit: none above its window, and no more missing below them
    # than places left, tested on the parent's counts at the new index.
    # Counts, windows and the missing sums (at most sum lo <= n) share the
    # smallest unsigned dtype that holds n, and lo - min(c, lo) never wraps
    count = np.min_scalar_type(n)
    lo, hi = np.array(windows, dtype=count).T
    digits = np.zeros((1, 0), dtype=np.min_scalar_type(k - 1))
    counts, weights = np.zeros((1, k), dtype=count), np.ones(1)
    for left in range(n - 1, -1, -1):
        fits = (((lo - np.minimum(counts, lo)).sum(axis=1, dtype=count)[:, None]
                 - (counts < lo) <= left) & (counts < hi))
        if np.count_nonzero(fits) * max(k, 8) > TYPICAL_CAP:
            raise ValueError(f"more than {TYPICAL_CAP // max(k, 8)} typical "
                             f"prefixes to list for {k} members")
        prefix, index = np.divmod(np.flatnonzero(fits), k)
        digits = np.column_stack([digits[prefix], index.astype(digits.dtype)])
        counts = counts[prefix] + np.eye(k, dtype=count)[index]
        weights = weights[prefix] * p[index]
    digits.flags.writeable = weights.flags.writeable = False
    # two-sided weight bounds implied by the integer windows themselves; with
    # exact (unrounded) windows these equal 2^{-n(H +/- delta1)}, and the
    # outward rounding can only widen them
    logs = np.abs(np.log2(p))
    bounds = (2.0 ** (-float(sum(hi * g for (_, hi), g in zip(windows, logs)))),
              min(1.0, 2.0 ** (-float(sum(lo * g for (lo, _), g
                                          in zip(windows, logs))))))
    return TypicalSet(n, float(delta1), k, window, len(digits), digits, weights,
                      math.fsum(weights), entropy, bounds, windows)


# ---------------------------------------------------------------------------
# Support coordinates
# ---------------------------------------------------------------------------

SUPPORT_TOL = 1e-13    # largest member part left outside the single-copy basis


def support_basis(rho: QuantumState, states):
    """Single-copy basis E (d x r, orthonormal columns) and sqrt(lam) in it.

    E spans supp(rho), the eigenvectors whose eigenvalues exceed RANK_TOL,
    and, with sqrt(lam) = 0, the directions of the members' part outside it
    whose singular values exceed SUPPORT_TOL.  So rho^(x)n = F F^dag for
    F = E^(x)n Lam with Lam = sqrt(lam)^(x)n, and every member leaves at most
    SUPPORT_TOL of its norm outside span(E).
    """
    evals, evecs = np.linalg.eigh(rho.matrix)
    inside = evals > RANK_TOL
    lam = evals[inside] / evals[inside].sum()
    null = evecs[:, ~inside]
    members = np.stack([psi.vector for psi in states], axis=1)
    u, s, _ = np.linalg.svd(null.conj().T @ members, full_matrices=False)
    extra = null @ u[:, s > SUPPORT_TOL]
    return (np.hstack([evecs[:, inside], extra]),
            np.concatenate([np.sqrt(lam), np.zeros(extra.shape[1])]))


# Fewest rows a QR compresses: each QR is a LAPACK call at any height, and
# every 2 r^n = 2 rows (|00> x3, n = 30) made 381,180 in 5.1 s; from here 6
QR_ROWS = 4096


class _RowStack:
    """Rows whose R factor is wanted, appended as whole blocks and replaced
    by their R (rows = Q R gives the same R^T conj(R) from R) once they pass
    both twice the row width and QR_ROWS."""

    def __init__(self, width):
        self.blocks, self.held, self.width = [], 0, width
        self.limit = max(2 * width, QR_ROWS)

    def add(self, block):
        self.blocks.append(block)
        self.held += len(block)
        if self.held > self.limit:
            self.blocks = [self.r()]
            self.held = len(self.blocks[0])

    def r(self):
        rows = np.concatenate(self.blocks)
        return np.linalg.qr(rows, mode="r") if len(rows) > self.width else rows


def _kron(a, b):
    """The Kronecker product of the vectors a and b."""
    return np.multiply.outer(a, b).ravel()


def composition_factor(blocks, dim, sequences, weights):
    """One R per function in `blocks`, R^T conj(R) = sum_s w_s |v_s><v_s|
    with at most dim^n rows, from one grouping of the sequences.

    `sequences` (T, n) and `weights` (T,) are as in a `TypicalSet`.  v_s, on
    dim coordinates per copy, is the product over members i of block(i, c_i),
    the c_i-copy block of member i (length dim^c_i), its copies placed where
    i occurs in s.  Each product is built once per composition and block;
    each v_s is gathered from it by a digit permutation all blocks share.
    """
    blocks = [functools.cache(block) for block in blocks]
    n = sequences.shape[1]
    # a product holds member 0's copies first, then member 1's, ...: its
    # slot m is copy order[m] of s, so copy j of s has the stride of slot
    # inv[j]; the sorted sequence, compared as bytes, names the composition,
    # and in composition order (by_group) each composition is one slice
    order = np.argsort(sequences, axis=1, kind="stable")
    comps = np.take_along_axis(sequences, order, axis=1)
    _, first, group = np.unique(comps.view(np.dtype((np.void, comps[0].nbytes)))[:, 0],
                                return_index=True, return_inverse=True)
    by_group = np.argsort(group, kind="stable")
    strides = dim ** np.arange(n - 1, -1, -1)
    places = strides[np.argsort(order[by_group], axis=1)]   # strides[inv]
    roots = np.sqrt(weights[by_group])[:, None]
    digits = np.arange(dim ** n) // strides[:, None] % dim
    stacks = [_RowStack(dim ** n) for _ in blocks]
    ends = np.cumsum(np.bincount(group)).tolist()
    for comp, start, end in zip(comps[first].tolist(), [0, *ends], ends):
        counts = [(i, comp.count(i)) for i in sorted(set(comp))]
        gather = places[start:end] @ digits
        for block, stack in zip(blocks, stacks):
            product = functools.reduce(_kron, [block(i, c) for i, c in counts])
            stack.add(product[gather] * roots[start:end])
    return [stack.r() for stack in stacks]


# ---------------------------------------------------------------------------
# Entanglement dilution by Schmidt truncation
# ---------------------------------------------------------------------------

def _schmidt(psi: PureState):
    """Schmidt vectors and weights of psi: psi = sum_j sqrt(mu_j) u_j (x) vh_j."""
    u, s, vh = np.linalg.svd(psi.vector.reshape(psi.dims), full_matrices=False)
    return u, s * s, vh


def _times(count: int, weight: float) -> float:
    """count * weight rounded once, also for counts past the float range."""
    return float(count * Fraction(weight)) if count >> 53 else count * weight


def _ranked_patterns(mu, count: int):
    """(weight, arrangements, pattern) per occupation pattern of psi^(x)count,
    heaviest first.  Refused past SPECTRUM_CAP work, or when the walked mass
    misses (sum mu)^count by more than 1e-12: rounding alone misses by about
    count ulp at most, so only weights that underflowed get there."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if math.comb(count + mu.size - 1, count) * count > SPECTRUM_CAP:
        raise ValueError("Schmidt occupation patterns too many to walk")
    weights, orderings, ranked = mu.tolist(), math.factorial(count), []
    for pattern in itertools.combinations_with_replacement(range(mu.size), count):
        arrangements = orderings // math.prod(
            math.factorial(pattern.count(j)) for j in set(pattern))
        ranked.append((math.prod(map(weights.__getitem__, pattern)), arrangements, pattern))
    ranked.sort(key=lambda term: -term[0])
    if abs(math.fsum(_times(a, w) for w, a, _ in ranked)
           - math.fsum(weights) ** count) > 1e-12:
        raise ValueError(f"the Schmidt weights of psi^(x){count} underflow a float")
    return ranked


def _truncation(ranked, singlet_budget: int):
    """(keep, sqrt(1 - dropped), head) when 2^budget singlets keep the first
    `keep` terms of `ranked`, 2^budget never formed past the term count, and
    `head` is `ranked` down to the weight the cut falls in.  A pattern's
    arrangements share one weight, so a cut inside one drops exact weight."""
    if singlet_budget < 0:
        raise ValueError("singlet budget must be >= 0")
    ends = list(itertools.accumulate(a for _, a, _ in ranked))
    keep = min(ends[-1], 1 << min(singlet_budget, ends[-1].bit_length()))
    dropped = math.fsum(_times(min(a, max(0, end - keep)), w)
                        for (w, a, _), end in zip(ranked, ends))
    cut = next(w for (w, _, _), end in zip(ranked, ends) if end >= keep)
    head = list(itertools.takewhile(lambda term: term[0] >= cut, ranked))
    return keep, math.sqrt(max(0.0, 1.0 - dropped)), head


def dilution_fidelity(psi: PureState, count: int, singlet_budget: int) -> float:
    """Square-root fidelity of diluting psi^(x)count from `singlet_budget`
    singlets, which keep its 2^budget heaviest Schmidt terms: sqrt(1 - dropped)."""
    return _truncation(_ranked_patterns(_schmidt(psi)[1], count), singlet_budget)[1]


def _kept_terms(r: int, keep: int, head):
    """(terms, amplitudes): one row of Schmidt indices per term that a
    `_truncation` (keep, head) on r Schmidt weights keeps, amplitudes at unit
    norm.  The rows are the head's arrangements, grown one place at a time,
    in (-weight, index tuple) order: the rows a stable sort of all r^c
    tuples by weight keeps, ties across patterns in index order."""
    count = len(head[0][2])
    # a row: how often each index is still to place, its pattern, its indices
    rows = np.zeros((len(head), r + 1 + count),
                    np.min_scalar_type(max(count, len(head), r)))
    rows[:, :r] = [[pattern.count(j) for j in range(r)] for _, _, pattern in head]
    rows[:, r] = np.arange(len(head))
    for place in range(r + 1, r + 1 + count):
        prefix, index = np.nonzero(rows[:, :r])
        rows = rows[prefix]
        rows[np.arange(len(rows)), index] -= 1
        rows[:, place] = index
    terms, weights = rows[:, r + 1:], np.array([w for w, _, _ in head])[rows[:, r]]
    kept = np.lexsort((*terms.T[::-1], -weights))[:keep]
    amplitudes = np.sqrt(weights[kept])
    amplitudes /= np.linalg.norm(amplitudes)
    return terms[kept], amplitudes


def _kron_columns(x, terms, amplitudes):
    """One column amplitude_t (x)_m x[:, t_m] per row t of `terms`, the
    copies in Kronecker order."""
    cols = amplitudes[None, :]
    for j in terms.T:
        cols = (cols[:, None, :] * x[:, j]).reshape(-1, len(amplitudes))
    return cols


def support_factors(rho: QuantumState, ensemble: Ensemble, tset, schmidt, kept, support):
    """(lam_n, R_t, R_y): the factors of rho^(x)n, rho_T and rho'_T in
    coordinates of span(E)^(x)n, `support` = (E, sqrt(lam)) from `support_basis`.

    rho^(x)n is diag(lam_n)^2, lam_n = sqrt(lam)^(x)n.  R_t and R_y are the
    `composition_factor`s of the typical set `tset` with undiluted blocks
    (E^dag psi_i)^(x)c and diluted blocks sum_t a_t (x)_m E^dag (u_{t_m} (x)
    vh_{t_m}): (u, mu, vh) = schmidt[i], and t, a_t from kept(i, c), a
    `_kept_terms` result.  Every fidelity of the protocol pairs rho'_T or a
    factor in span(E)^(x)n with a factor in span(E)^(x)n, so the coordinates
    lose nothing but the members' parts outside span(E): at most sqrt(n)
    SUPPORT_TOL on fid2, none on the others.
    """
    basis, sqrt_lam = support
    dim, to_basis = basis.shape[1], basis.conj().T
    coords = to_basis @ np.stack([psi.vector for psi in ensemble.states], axis=1)
    # column j of member i's pairs: the coordinates of u_j (x) vh_j
    pairs = [to_basis @ (u[:, None, :] * vh.T[None]).reshape(rho.dim, -1)
             for u, _, vh in schmidt]

    def diluted(i, count):
        return _kron_columns(pairs[i], *kept(i, count)).sum(axis=1)

    r_t, r_y = composition_factor(
        [lambda i, count: functools.reduce(_kron, [coords[:, i]] * count), diluted],
        dim, tset.sequences, tset.weights)
    return functools.reduce(_kron, [sqrt_lam] * tset.n), r_t, r_y


# ---------------------------------------------------------------------------
# Dilution plan and full protocol
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlanEntry:
    index: int
    count: int              # worst-case typical multiplicity
    entanglement: float     # per-copy E(psi_i) in ebits
    delta2: float
    singlets: int           # ceil(count * (E + delta2)); 0 for unentangled states


@dataclass(frozen=True)
class DilutionPlan:
    entries: tuple
    total_singlets: int
    delta1: float
    delta2: float


def dilution_plan(ensemble: Ensemble, tset: TypicalSet, delta2: float) -> DilutionPlan:
    """Singlet budget per ensemble member, charged at the worst typical count."""
    counts = [hi for _, hi in tset.count_windows]
    ents = [pure_entanglement(psi) for psi in ensemble.states]
    # unentangled members cost nothing to prepare
    needs = [0.0 if e < 1e-12 else c * (e + delta2) for c, e in zip(counts, ents)]
    if not math.isfinite(sum(needs)):
        raise ValueError(f"delta2 = {delta2!r} makes the singlet count overflow")
    entries = tuple(PlanEntry(i, c, e, float(delta2), math.ceil(x))
                    for i, (c, e, x) in enumerate(zip(counts, ents, needs)))
    return DilutionPlan(entries, sum(e.singlets for e in entries), tset.delta1,
                        float(delta2))


@dataclass(frozen=True)
class FormationResult:
    n: int
    m: int
    rate: float
    mean_entanglement: float    # sum_i p_i E_i of the input ensemble
    slack: float                # rate - mean_entanglement (the delta1/delta2 cost)
    eps1: float                 # 1 - p_T
    eps2: float                 # worst per-block dilution infidelity
    eps3: float                 # 1 - (1 - eps2)^k
    bures_bound: float          # 2 sqrt(1 - sqrt(1 - eps1)) + 2 sqrt(eps3)
    exact_mode: bool
    exact_bures: float | None
    fid1_fidelity: float | None          # F(rho^(x)n, rho_T), unit-trace rho_T
    fid1_holds: bool | None
    fid2_fidelity: float | None          # F(rho_T, rho'_T), both unit-trace
    fid2_holds: bool | None
    triangle_holds: bool | None          # exact_bures <= D(fid1) + D(fid2)
    plan: DilutionPlan
    typical_set: TypicalSet


def formation_protocol(rho: QuantumState, ensemble: Ensemble, n: int,
                       delta1: float, delta2: float, *,
                       window="paper") -> FormationResult:
    """Run the typical-set formation protocol for rho^(x)n and account its cost.

    eps2 is the worst dilution infidelity over the (member, count) blocks
    that occur in some typical sequence, read off the count windows.
    Exact mode judges the whole fidelity chain on fidelities from
    `support_factors` of rho^(x)n, rho_T and rho'_T: fid1_holds, fid2_holds,
    and triangle_holds, the Bures triangle through rho_T up to BURES_TOL of
    rounding.  It runs while its work, r^n T min(T, r^n) + 2048 T on r^n
    support coordinates and T typical sequences plus 32 (c rows + r^c keep)
    per block of c copies, its walk's head arranged in rows and cut to keep
    terms, stays within qcore.EXACT_WORK_CAP; past it only the analytic
    bounds from p_T and the dilution fidelities are emitted and the three
    flags are None.

    exact_bures and the 2 sqrt(eps3) term of bures_bound share the rounding
    floor of `bures_from_fidelity`; a lossless dilution gives eps2 = eps3 = 0
    exactly.
    """
    avg = ensemble_average(ensemble)
    if avg.dims != rho.dims or np.abs(avg.matrix - rho.matrix).max() > 1e-7:
        raise StateValidationError("ensemble does not realize the given state")

    tset = typical_set(ensemble.weights, n, delta1, window)
    plan = dilution_plan(ensemble, tset, delta2)
    k = len(ensemble)
    eps1 = max(0.0, 1.0 - tset.total_weight)
    p_t = 1.0 - eps1

    # member i holds c >= 1 copies in some typical sequence exactly when c
    # fits its window and the other members' windows can make up n - c
    los, his = map(sum, zip(*tset.count_windows))
    blocks = [(i, c) for i, (lo, hi) in enumerate(tset.count_windows)
              for c in range(max(lo, 1), hi + 1) if los - lo <= n - c <= his - hi]
    # one Schmidt decomposition per member, one walk per block in both modes
    schmidt = [_schmidt(psi) for psi in ensemble.states]
    walk = functools.cache(lambda i, count: _truncation(
        _ranked_patterns(schmidt[i][1], count), plan.entries[i].singlets))
    # exact mode's work: the factors' QR and norms, the grouping per sequence,
    # and per block its kept rows and their r^c-per-term Kronecker table
    support = support_basis(rho, ensemble.states)
    r, t = support[0].shape[1], tset.num_sequences
    eps2 = max((1.0 - walk(i, c)[1] for i, c in blocks), default=0.0)
    dilution = sum(c * sum(a for _, a, _ in walk(i, c)[2]) + r ** c * walk(i, c)[0]
                   for i, c in blocks)
    exact = r ** n * t * min(t, r ** n) + 2048 * t + 32 * dilution <= EXACT_WORK_CAP
    eps3 = 1.0 - (1.0 - eps2) ** k
    bound = bures_from_fidelity(np.sqrt(max(0.0, 1.0 - eps1))) + 2.0 * np.sqrt(eps3)

    m = plan.total_singlets
    rate = m / n
    mean_ent = float(np.dot(ensemble.weights,
                            [e.entanglement for e in plan.entries]))
    slack = rate - mean_ent

    exact_bures = fid1 = fid2 = None
    fid1_holds = fid2_holds = triangle_holds = None
    if exact:
        kept = lambda i, count: _kept_terms(schmidt[i][1].size, *walk(i, count)[::2])
        lam_n, r_t, r_y = support_factors(rho, ensemble, tset, schmidt, kept, support)
        # unit trace: 1 / sqrt(p_T) scales the factors of the weights p_s
        r_t, r_y = r_t / np.sqrt(p_t), r_y / np.sqrt(p_t)
        fid1 = nuclear_norm(r_t * lam_n)
        fid2 = nuclear_norm(r_t @ r_y.conj().T)
        exact_bures = bures_from_fidelity(nuclear_norm(r_y * lam_n))
        fid1_holds = bool(fid1 >= np.sqrt(p_t) - 1e-9)
        fid2_holds = bool(fid2 >= (1.0 - eps3) - 1e-9)
        triangle_holds = bool(exact_bures <= bures_from_fidelity(fid1)
                              + bures_from_fidelity(fid2) + BURES_TOL)

    return FormationResult(
        n=n, m=m, rate=float(rate), mean_entanglement=mean_ent,
        slack=float(slack), eps1=float(eps1), eps2=float(eps2),
        eps3=float(eps3), bures_bound=float(bound), exact_mode=bool(exact),
        exact_bures=None if exact_bures is None else float(exact_bures),
        fid1_fidelity=None if fid1 is None else float(fid1),
        fid1_holds=fid1_holds, fid2_fidelity=None if fid2 is None else float(fid2),
        fid2_holds=fid2_holds, triangle_holds=triangle_holds, plan=plan,
        typical_set=tset)

