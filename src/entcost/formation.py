"""Exact small-n simulation of the constructive formation protocol.

Given an ensemble {p_i, psi_i} realizing rho, the protocol keeps only the
strongly typical sequences of ensemble members, prepares each typical
product state by entanglement dilution (the 2^budget heaviest Kronecker
products of each member's own Schmidt vectors), and mixes the diluted states.
At desk scale everything is computed exactly, so the fidelity chain

    F(rho^(x)n, rho_T) >= sqrt(1 - eps1)
    F(rho_T, rho'_T)  >= (1 - eps2)^k = 1 - eps3
    D(rho^(x)n, rho'_T) <= 2 sqrt(1 - sqrt(1 - eps1)) + 2 sqrt(eps3)

is verifiable number by number rather than asymptotically.  Every mixture is
held as a factor whose columns are sqrt(p_s) v_s, and every fidelity is the
nuclear norm of B^dag A for two such factors, so no d^n x d^n matrix is built.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .metrics import fidelity_factors
from .qcore import (
    DIMENSION_CAP,
    Ensemble,
    PureState,
    QuantumState,
    StateValidationError,
    ensemble_average,
    pure_entanglement,
    pure_power,
    purify,
    tensor_pure,
)

ENUMERATION_CAP = 10_000_000
SPECTRUM_CAP = 1 << 22

WINDOW_KINDS = ("paper", "plain")

# perfbench/tracing.py wraps these names when a traced run starts; nothing
# calls them, and they go when its wrap list drops them (ROADMAP item 6).
truncated_state = fidelity_matrices = tensor_power = None


# ---------------------------------------------------------------------------
# Typical set
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TypicalSet:
    """Strongly typical index sequences with their product weights."""

    n: int
    delta1: float
    k: int
    window: str
    sequences: tuple               # ((s_0, ..., s_{n-1}), p_s)
    total_weight: float            # p_T
    entropy: float                 # H(p) in bits
    weight_bounds: tuple           # guaranteed (min, max) admitted weight
    count_windows: tuple           # integer (lo_i, hi_i) per ensemble index

    def to_json_obj(self):
        return {
            "n": self.n,
            "delta1": self.delta1,
            "k": self.k,
            "window": self.window,
            "num_sequences": len(self.sequences),
            "total_weight": self.total_weight,
            "entropy": self.entropy,
            "weight_bounds": list(self.weight_bounds),
            "count_windows": [list(w) for w in self.count_windows],
        }


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
        lo = max(0, math.floor(pi * n - half))
        hi = min(n, math.ceil(pi * n + half))
        windows.append((lo, hi))
    return tuple(windows)


def typical_set(p, n, delta1, window="paper") -> TypicalSet:
    """Enumerate every length-n index sequence whose type fits the window."""
    p = np.asarray(p, dtype=float)
    if abs(p.sum() - 1.0) > 1e-9:
        raise StateValidationError("probabilities must sum to 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    if delta1 <= 0:
        raise ValueError("delta1 must be positive")
    k = p.size
    if k ** n > ENUMERATION_CAP:
        raise ValueError(f"{k}^{n} sequences exceed the enumeration cap")
    windows = typical_count_windows(p, n, delta1, window)
    entropy = float(-(p * np.log2(p)).sum())

    sequences = []
    total = 0.0
    for seq in itertools.product(range(k), repeat=n):
        if all(lo <= seq.count(i) <= hi for i, (lo, hi) in enumerate(windows)):
            ps = float(np.prod(p[list(seq)]))
            sequences.append((seq, ps))
            total += ps
    # two-sided weight bounds implied by the integer windows themselves; with
    # exact (unrounded) windows these equal 2^{-n(H +/- delta1)}, and the
    # outward rounding can only widen them
    logs = np.abs(np.log2(p))
    bounds = (2.0 ** (-float(sum(hi * g for (_, hi), g in zip(windows, logs)))),
              min(1.0, 2.0 ** (-float(sum(lo * g for (lo, _), g
                                          in zip(windows, logs))))))
    return TypicalSet(n, float(delta1), k, window, tuple(sequences),
                      float(total), entropy, bounds, windows)


def mixture_factor(states, sequences, block=None):
    """Factor of sum_s w_s |v_s><v_s|: one column sqrt(w_s) v_s per sequence.

    `sequences` holds (s, w_s) pairs, s a sequence of member indices.  The
    vector v_s is the product over members i of block(i, c_i), the c_i-copy
    block of member i, with its copies placed on the positions where i occurs
    in s; v_s lives on (dA^n, dB^n) with copies in sequence order.  The default
    block is the undiluted power psi_i^(x)c_i.  Each block and each product of
    blocks is built once per composition (c_0, ..., c_{k-1}).

    With more sequences than the dimension d = (dA dB)^n, the rows are
    compressed by QR as they come in (rows = Q R gives the same mixture from
    R), so the factor has at most d columns and memory stays O(d^2).
    """
    block = functools.cache(block or (lambda i, c: pure_power(states[i], c)))
    dA, dB = states[0].dims
    n = len(sequences[0][0])
    d = (dA * dB) ** n
    if d > DIMENSION_CAP:
        raise ValueError(f"total dimension {d} exceeds the cap {DIMENSION_CAP}")
    products = {}
    rows = np.empty((min(len(sequences), 2 * d), d), dtype=complex)
    filled = 0
    for seq, w in sequences:
        if filled == len(rows):
            rows[:d] = np.linalg.qr(rows, mode="r")
            filled = d
        counts = tuple(seq.count(i) for i in range(len(states)))
        if sum(counts) != n:
            raise StateValidationError(
                "sequence indexes a member the ensemble does not have")
        if counts not in products:
            vec = None
            for i, c in enumerate(counts):
                if c:
                    vec = block(i, c) if vec is None else tensor_pure(vec, block(i, c))
            products[counts] = vec.vector.reshape((dA,) * n + (dB,) * n)
        # the product holds member 0's copies first, then member 1's, ...
        order = sorted(range(n), key=lambda pos: seq[pos])
        inv = [int(j) for j in np.argsort(order)]
        rows[filled] = np.sqrt(w) * products[counts].transpose(
            inv + [n + j for j in inv]).reshape(-1)
        filled += 1
    if filled > d:
        return np.linalg.qr(rows[:filled], mode="r").T
    return rows.T


# ---------------------------------------------------------------------------
# Entanglement dilution by Schmidt truncation
# ---------------------------------------------------------------------------

def _power_spectrum(mu, count):
    """Sorted (desc) Schmidt weights of psi^(x)count from per-copy weights."""
    acc = np.array([1.0])
    for _ in range(count):
        acc = np.outer(acc, mu).ravel()
        if acc.size > SPECTRUM_CAP:
            raise ValueError("Schmidt spectrum too large to enumerate")
    return np.sort(acc)[::-1]


def _schmidt(psi: PureState):
    """Schmidt vectors and weights of psi: psi = sum_j sqrt(mu_j) u_j (x) vh_j."""
    u, s, vh = np.linalg.svd(psi.vector.reshape(psi.dims), full_matrices=False)
    return u, s * s, vh


def _truncation(ranked, count: int, singlet_budget: int):
    """(kept terms, fidelity) when 2^budget singlets keep the head of `ranked`,
    the Schmidt weights of psi^(x)count in keep order.  The keep count never
    forms 2^budget past the term count; the fidelity is sqrt(1 - dropped)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if singlet_budget < 0:
        raise ValueError("singlet budget must be >= 0")
    keep = min(ranked.size, 1 << min(singlet_budget, ranked.size.bit_length()))
    return keep, float(np.sqrt(max(0.0, 1.0 - ranked[keep:].sum())))


def dilution_fidelity(psi: PureState, count: int, singlet_budget: int) -> float:
    """Square-root fidelity of diluting psi^(x)count from `singlet_budget` singlets.

    The dilution keeps the 2^budget largest Schmidt weights of the tensor
    power, so the fidelity is the square root of one minus the dropped weight.
    """
    return _truncation(_power_spectrum(_schmidt(psi)[1], count), count,
                       singlet_budget)[1]


def dilute_pure_state(psi: PureState, count: int, singlet_budget: int):
    """Schmidt-truncated approximation of psi^(x)count on (dA^count, dB^count),
    with its fidelity (its overlap with psi^(x)count).

    Each term of psi^(x)count is a Kronecker product of psi's own Schmidt
    vectors, one per index tuple, weighed once per occupation pattern (the
    sorted tuple): permuted tuples tie exactly, and ties keep index order.
    """
    if psi.dim ** count > DIMENSION_CAP:
        raise ValueError("total dimension exceeds the cap")
    u, mu, vh = _schmidt(psi)
    terms = list(itertools.product(range(mu.size), repeat=count))
    weight = functools.cache(lambda occupation: math.prod(mu[list(occupation)]))
    w = np.array([weight(tuple(sorted(t))) for t in terms])
    order = np.argsort(-w, kind="stable")
    keep, fidelity = _truncation(w[order], count, singlet_budget)
    kept = order[:keep]
    left, right = np.sqrt(w[kept])[None, :], np.ones((keep, 1))
    for j in np.array(terms)[kept].T:      # copy by copy, in Kronecker order
        left = (left[:, None, :] * u[:, j]).reshape(-1, keep)
        right = (right[:, :, None] * vh[j][:, None, :]).reshape(keep, -1)
    vec = (left @ right).reshape(-1)
    return PureState((left.shape[0], right.shape[1]), vec / np.linalg.norm(vec)), fidelity


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

    def to_json_obj(self):
        return {
            "entries": [{"index": e.index, "count": e.count,
                         "entanglement": e.entanglement,
                         "delta2": e.delta2, "singlets": e.singlets}
                        for e in self.entries],
            "total_singlets": self.total_singlets,
            "delta1": self.delta1,
            "delta2": self.delta2,
        }


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
    plan: DilutionPlan
    typical: TypicalSet
    overlap_aggregate: float    # sum_s (p_s / p_T) |<psi_s|psi'_s>|, not serialized

    def to_json_obj(self):
        return {
            "n": self.n,
            "m": self.m,
            "rate": self.rate,
            "mean_entanglement": self.mean_entanglement,
            "slack": self.slack,
            "eps1": self.eps1,
            "eps2": self.eps2,
            "eps3": self.eps3,
            "bures_bound": self.bures_bound,
            "exact_mode": self.exact_mode,
            "exact_bures": self.exact_bures,
            "fid1_fidelity": self.fid1_fidelity,
            "fid1_holds": self.fid1_holds,
            "fid2_fidelity": self.fid2_fidelity,
            "fid2_holds": self.fid2_holds,
            "plan": self.plan.to_json_obj(),
            "typical_set": self.typical.to_json_obj(),
        }


def formation_protocol(rho: QuantumState, ensemble: Ensemble, n: int,
                       delta1: float, delta2: float, *,
                       window="paper") -> FormationResult:
    """Run the typical-set formation protocol for rho^(x)n and account its cost.

    Exact fidelities (and therefore the exact Bures distance and the bounds
    fid1/fid2) are computed whenever (dA dB)^n <= DIMENSION_CAP, from
    factors of rho^(x)n, rho_T and rho'_T; above the cap only the analytic
    bounds from p_T and the dilution fidelities are emitted.

    exact_bures = 2 sqrt(max(0, 1 - F)) has a rounding floor: near F = 1 a
    one-ulp change in F (about 1.1e-16) moves it by about 2e-8, so values
    below about 3e-8 are rounding noise rather than a distance.  bures_bound
    has the same floor in its 2 sqrt(eps3) term; a lossless dilution gives
    eps2 = eps3 = 0 exactly.
    """
    avg = ensemble_average(ensemble)
    if avg.dims != rho.dims or np.abs(avg.matrix - rho.matrix).max() > 1e-7:
        raise StateValidationError("ensemble does not realize the given state")

    tset = typical_set(ensemble.weights, n, delta1, window)
    plan = dilution_plan(ensemble, tset, delta2)
    k = len(ensemble)
    eps1 = max(0.0, 1.0 - tset.total_weight)
    p_t = 1.0 - eps1

    # per-block dilution fidelities, shared across sequences of the same type
    block_fidelity = functools.cache(lambda i, count: dilution_fidelity(
        ensemble.states[i], count, plan.entries[i].singlets))

    eps2 = 0.0
    overlap_aggregate = 0.0
    for seq, ps in tset.sequences:
        o = 1.0
        for i in sorted(set(seq)):
            f = block_fidelity(i, seq.count(i))
            eps2 = max(eps2, 1.0 - f)
            o *= f
        overlap_aggregate += ps / p_t * o
    eps3 = 1.0 - (1.0 - eps2) ** k
    bound = 2.0 * np.sqrt(max(0.0, 1.0 - np.sqrt(max(0.0, 1.0 - eps1)))) \
        + 2.0 * np.sqrt(eps3)

    m = plan.total_singlets
    rate = m / n
    mean_ent = float(np.dot(ensemble.weights,
                            [e.entanglement for e in plan.entries]))
    slack = rate - mean_ent

    exact = rho.dim ** n <= DIMENSION_CAP
    exact_bures = fid1 = fid2 = None
    fid1_holds = fid2_holds = None
    if exact:
        # rho^(x)n is the reduced state of purify(rho)^(x)n, whose slots
        # (A1 B1 A2 B2 ... An Bn, R1 ... Rn) regroup to (A1 ... An B1 ... Bn)
        # by rows; rho_T and rho'_T at unit trace from the typical sequences,
        # undiluted and diluted
        dA, dB = rho.dims
        f_n = pure_power(purify(rho), n).vector.reshape((dA, dB) * n + (-1,))
        f_n = f_n.transpose([*range(0, 2 * n, 2), *range(1, 2 * n, 2), 2 * n])
        f_n = f_n.reshape(rho.dim ** n, -1)
        unit = [(seq, ps / p_t) for seq, ps in tset.sequences]
        f_t = mixture_factor(ensemble.states, unit)
        f_approx = mixture_factor(ensemble.states, unit, lambda i, c: dilute_pure_state(
            ensemble.states[i], c, plan.entries[i].singlets)[0])
        fid1 = fidelity_factors(f_n, f_t)
        fid2 = fidelity_factors(f_t, f_approx)
        exact_bures = 2.0 * np.sqrt(max(0.0, 1.0 - fidelity_factors(f_n, f_approx)))
        fid1_holds = bool(fid1 >= np.sqrt(p_t) - 1e-9)
        fid2_holds = bool(fid2 >= (1.0 - eps3) - 1e-9)

    return FormationResult(
        n=n, m=m, rate=float(rate), mean_entanglement=mean_ent,
        slack=float(slack), eps1=float(eps1), eps2=float(eps2),
        eps3=float(eps3), bures_bound=float(bound), exact_mode=bool(exact),
        exact_bures=None if exact_bures is None else float(exact_bures),
        fid1_fidelity=None if fid1 is None else float(fid1),
        fid1_holds=fid1_holds, fid2_fidelity=None if fid2 is None else float(fid2),
        fid2_holds=fid2_holds, plan=plan, typical=tset,
        overlap_aggregate=float(overlap_aggregate))


def verify_fid_bounds(result: FormationResult) -> dict:
    """Re-check the fidelity chain of an exact-mode run on its own fidelities.

    Reports the protocol's F(rho^(x)n, rho_T) >= sqrt(1 - eps1) check, checks
    the aggregate per-sequence overlap against 1 - eps3, and the Bures
    triangle inequality through rho_T.
    """
    if not result.exact_mode:
        raise ValueError("exact-mode fidelities are required")
    aggregate = result.overlap_aggregate
    fid2_ok = aggregate >= (1.0 - result.eps3) - 1e-9

    d_left = result.exact_bures
    d_a = 2.0 * np.sqrt(max(0.0, 1.0 - result.fid1_fidelity))
    d_b = 2.0 * np.sqrt(max(0.0, 1.0 - result.fid2_fidelity))
    triangle_ok = d_left <= d_a + d_b + 1e-8

    return {
        "fid1_fidelity": result.fid1_fidelity,
        "fid1_holds": result.fid1_holds,
        "overlap_aggregate": aggregate,
        "fid2_holds": bool(fid2_ok),
        "bures_left": float(d_left),
        "bures_via_truncation": float(d_a + d_b),
        "triangle_holds": bool(triangle_ok),
        "all_hold": bool(result.fid1_holds and fid2_ok and triangle_ok),
    }
