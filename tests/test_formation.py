import functools
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import entcost.formation
from entcost.eof import eof_optimize
from entcost.formation import (
    SUPPORT_TOL,
    _kept_terms,
    _kron_columns,
    _ranked_patterns,
    _schmidt,
    _truncation,
    composition_factor,
    dilution_fidelity,
    dilution_plan,
    formation_protocol,
    support_basis,
    typical_count_windows,
    typical_set,
)
from entcost.metrics import (
    BURES_TOL,
    bures_from_fidelity,
    fidelity_factors,
    nuclear_norm,
    psd_factor,
)
from entcost.qcore import (
    Ensemble,
    PureState,
    QuantumState,
    RandomSource,
    StateValidationError,
    basis_pure,
    binary_entropy,
    ensemble_average,
    pure_power,
    sample_density_matrix,
    sample_pure_state,
    singlet,
    tensor_power,
    tensor_pure,
)


def bell_phi_plus():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return PureState((2, 2), v)


def schmidt_state(w):
    v = np.zeros(4, dtype=complex)
    v[0], v[3] = np.sqrt(w), np.sqrt(1 - w)
    return PureState((2, 2), v)


def half_half_ensemble():
    """1/2 maximally entangled plus 1/2 product: the workhorse mixed example."""
    return Ensemble(np.array([0.5, 0.5]),
                    (bell_phi_plus(), basis_pure((2, 2), 0, 0)))


class TestCountWindows:
    def test_paper_window_on_fair_coin(self):
        # half-width delta1 * n / (k |log2 p_i|) = 0.5 * 4 / 2 = 1
        windows = typical_count_windows([0.5, 0.5], 4, 0.5, "paper")
        assert windows == ((1, 3), (1, 3))

    def test_plain_window_is_wider(self):
        windows = typical_count_windows([0.5, 0.5], 4, 0.5, "plain")
        assert windows == ((0, 4), (0, 4))

    def test_clipped_to_valid_counts(self):
        windows = typical_count_windows([0.9, 0.1], 3, 2.0, "paper")
        for lo, hi in windows:
            assert 0 <= lo <= hi <= 3

    @pytest.mark.parametrize("window", ["paper", "plain"])
    def test_unit_weight_gets_the_full_window(self, window):
        # a pure state: its one sequence is typical, in both window kinds
        assert typical_count_windows([1.0], 4, 0.5, window) == ((4, 4),)
        tset = typical_set([1.0], 4, 0.5, window)
        assert pairs(tset) == (((0, 0, 0, 0), 1.0),)
        assert tset.total_weight == 1.0
        assert tset.entropy == 0.0
        assert tset.weight_bounds == (1.0, 1.0)
        with pytest.raises(StateValidationError):
            typical_count_windows([0.0, 1.0], 4, 0.5)

    def test_unknown_window_kind(self):
        with pytest.raises(ValueError):
            typical_count_windows([0.5, 0.5], 4, 0.5, "gaussian")


def pairs(tset):
    """The typical set as ((s_0, ..., s_{n-1}), p_s) tuples, in its order."""
    return tuple(zip(map(tuple, tset.sequences.tolist()), tset.weights.tolist()))


def scanned_typical_set(p, n, delta1, window):
    """Brute-force reference: (sequences, p_T) from a scan of all k^n
    sequences in product order, each weighed on its own; p_T is their
    correctly rounded sum, which no summation order changes."""
    p = np.asarray(p, dtype=float)
    windows = typical_count_windows(p, n, delta1, window)
    sequences = []
    for seq in itertools.product(range(p.size), repeat=n):
        if all(lo <= seq.count(i) <= hi for i, (lo, hi) in enumerate(windows)):
            sequences.append((seq, float(np.prod(p[list(seq)]))))
    return tuple(sequences), math.fsum(ps for _, ps in sequences)


class TestTypicalSet:
    def test_wide_window_admits_everything(self):
        tset = typical_set([0.5, 0.5], 4, 1.5)
        assert len(tset.sequences) == 16
        assert tset.total_weight == pytest.approx(1.0, abs=1e-12)

    def test_fair_coin_keeps_fourteen_of_sixteen(self):
        tset = typical_set([0.5, 0.5], 4, 0.5)
        assert len(tset.sequences) == 14
        assert tset.total_weight == pytest.approx(0.875, abs=1e-12)
        assert tset.entropy == pytest.approx(1.0, abs=1e-12)
        lo, hi = tset.weight_bounds
        for seq, ps in pairs(tset):
            assert ps == pytest.approx(1.0 / 16.0, abs=1e-15)
            assert lo - 1e-15 <= ps <= hi + 1e-15

    def test_membership_agrees_with_direct_count_filter(self):
        p = [0.7, 0.2, 0.1]
        n, delta1 = 5, 0.4
        tset = typical_set(p, n, delta1)
        admitted = {seq for seq, _ in pairs(tset)}
        windows = tset.count_windows
        total = 0.0
        for seq in itertools.product(range(3), repeat=n):
            counts = [seq.count(j) for j in range(3)]
            inside = all(lo <= c <= hi
                         for c, (lo, hi) in zip(counts, windows))
            assert (seq in admitted) == inside
            if inside:
                total += float(np.prod([p[j] for j in seq]))
        assert tset.total_weight == pytest.approx(total, abs=1e-12)
        lo, hi = tset.weight_bounds
        for _, ps in pairs(tset):
            assert lo - 1e-15 <= ps <= hi + 1e-15

    @pytest.mark.parametrize("seed", range(6))
    def test_enumeration_matches_the_full_scan(self, seed):
        # the admitted sequences, their weights and p_T, bit for bit
        g = np.random.default_rng(seed)
        for _ in range(10):
            k = int(g.integers(1, 5))
            n = int(g.integers(1, {1: 12, 2: 12, 3: 8, 4: 6}[k]))
            p, delta1 = g.dirichlet(np.ones(k)), float(g.uniform(0.05, 1.0))
            for window in ("paper", "plain"):
                tset = typical_set(p, n, delta1, window)
                sequences, total = scanned_typical_set(p, n, delta1, window)
                assert pairs(tset) == sequences
                assert tset.num_sequences == len(sequences)
                assert tset.total_weight == total

    def test_a_thin_window_is_cheap_at_large_n(self):
        # 7547 of the 2^21 sequences are admitted, and only they are formed
        tset = typical_set([0.9, 0.1], 21, 0.5)
        assert tset.num_sequences == 7547
        assert tset.count_windows == ((0, 21), (0, 4))
        # the cap is on the prefixes held at one place, not on k^n
        tset = typical_set([0.9, 0.1], 24, 0.5)
        assert tset.num_sequences == 55_455

    def test_coverage_is_high_at_moderate_n(self):
        p = [0.7, 0.3]
        tset = typical_set(p, 12, 0.3, "plain")
        assert 0.99 <= tset.total_weight <= 1.0 + 1e-12

    def test_input_validation(self):
        with pytest.raises(StateValidationError):
            typical_set([0.6, 0.6], 3, 0.5)
        with pytest.raises(ValueError):
            typical_set([0.5, 0.5], 0, 0.5)
        with pytest.raises(ValueError):
            typical_set([0.5, 0.5], 3, 0.0)
        with pytest.raises(ValueError, match="delta1 must be positive"):
            typical_set([0.5, 0.5], 3, float("nan"))
        with pytest.raises(ValueError, match="typical prefixes"):
            # 10^7 prefixes fit at place 7, past the prefix cap
            typical_set([0.1] * 10, 8, 0.5, "plain")

    def test_arrays_are_read_only(self):
        tset = typical_set([0.5, 0.3, 0.2], 4, 0.5)
        with pytest.raises(ValueError):
            tset.sequences[0, 0] = 1
        with pytest.raises(ValueError):
            tset.weights[0] = 0.5

    def test_a_million_sequences_take_one_byte_per_index(self):
        # 1,036,184 of the 2^20 sequences are admitted; each index is held
        # in one byte, and no per-sequence object is built
        tset = typical_set([0.5, 0.5], 20, 0.5)
        assert (tset.num_sequences == len(tset.sequences) == len(tset.weights)
                == 1_036_184)
        assert tset.sequences.nbytes == 1_036_184 * 20

    def test_the_walk_counts_in_the_smallest_dtype_that_holds_n(self):
        # at n = 300 the counts take two bytes; index 0 must reach its
        # lower window edge 91, so the missing sums lo - min(c, lo) matter
        tset = typical_set([0.999, 0.001], 300, 0.002)
        assert tset.count_windows == ((91, 300), (0, 1))
        assert tset.num_sequences == 301
        assert sorted(tset.sequences.sum(axis=1).tolist()) == [0] + [1] * 300
        # 1,814,400 sequences of 8 one-byte indices: one-byte counts keep
        # the walk's peak near the 29 MB result, where int64 counts took 450 MB
        tracemalloc.start()
        try:
            tset = typical_set([0.1] * 10, 8, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tset.num_sequences == 1_814_400
        assert peak < 200e6


def undiluted_blocks(ens, basis):
    """block(i, c) = (E^dag psi_i)^(x)c, as formation_protocol builds rho_T."""
    coords = basis.conj().T @ np.stack([psi.vector for psi in ens.states], axis=1)
    return lambda i, c: functools.reduce(np.kron, [coords[:, i]] * c)


class TestTruncatedState:
    """rho_T, built as an R factor in support coordinates by composition_factor."""

    def test_full_window_reproduces_tensor_power(self):
        # in coordinates of span(E)^(x)n, rho^(x)n is diag(lam)^(x)n
        ens = half_half_ensemble()
        rho = ensemble_average(ens)
        tset = typical_set(ens.weights, 3, 2.0)
        assert tset.total_weight == pytest.approx(1.0, abs=1e-12)
        basis, sqrt_lam = support_basis(rho, ens.states)
        assert basis.shape == (4, 2)
        assert np.abs((basis * sqrt_lam ** 2) @ basis.conj().T
                      - rho.matrix).max() < 1e-12
        r, = composition_factor([undiluted_blocks(ens, basis)], 2, tset.sequences,
                                tset.weights)
        lam_n = functools.reduce(np.kron, [sqrt_lam ** 2] * 3)
        assert np.abs(r.T @ r.conj() - np.diag(lam_n)).max() < 1e-12
        # back on (A1 B1 A2 B2 A3 B3), regrouped as tensor_power's (A1 A2 A3 B1 B2 B3)
        full = functools.reduce(np.kron, [basis] * 3) @ r.T
        mix = (full @ full.conj().T).reshape((2,) * 12)
        mix = mix.transpose(0, 2, 4, 1, 3, 5, 6, 8, 10, 7, 9, 11).reshape(64, 64)
        assert np.abs(mix - tensor_power(rho, 3).matrix).max() < 1e-12

    def test_subnormalized_trace_is_total_weight(self):
        ens = half_half_ensemble()
        tset = typical_set(ens.weights, 4, 0.5)
        basis, _ = support_basis(ensemble_average(ens), ens.states)
        r, = composition_factor([undiluted_blocks(ens, basis)], 2, tset.sequences,
                                tset.weights)
        assert r.shape == (len(tset.sequences), 16)
        assert (np.abs(r) ** 2).sum() == pytest.approx(tset.total_weight,
                                                       abs=1e-12)

    def test_singleton_set_gives_pure_power(self):
        # identity coordinates hold the copies as (A1 B1 A2 B2 A3 B3);
        # pure_power regroups them to (A1 A2 A3 B1 B2 B3)
        psi = schmidt_state(0.9)
        ens = Ensemble(np.array([1.0]), (psi,))
        r, = composition_factor([undiluted_blocks(ens, np.eye(4))], 4,
                                np.zeros((1, 3), dtype=np.uint8), np.ones(1))
        assert r.shape == (1, 64)
        regrouped = r[0].reshape((2, 2) * 3).transpose(0, 2, 4, 1, 3, 5)
        assert np.abs(regrouped.reshape(-1) - pure_power(psi, 3).vector).max() < 1e-15

    def test_more_sequences_than_dimension_give_a_square_factor(self):
        # nine members on 2x2: 81 sequences at n = 2, against r^n = 16 rows;
        # one grouping feeds both block functions, each its own factor
        rng = RandomSource(3)
        ens = Ensemble(np.full(9, 1 / 9),
                       tuple(sample_pure_state((2, 2), rng.split())
                             for _ in range(9)))
        tset = typical_set(ens.weights, 2, 2.0, "plain")
        assert len(tset.sequences) == 81
        basis, sqrt_lam = support_basis(ensemble_average(ens), ens.states)
        blocks = undiluted_blocks(ens, basis)
        # 2^c times each c-copy block scales every v_s by 2^n = 4
        r, doubled = composition_factor([blocks, lambda i, c: 2 ** c * blocks(i, c)],
                                        4, tset.sequences, tset.weights)
        assert r.shape == doubled.shape == (16, 16)
        lam_n = np.kron(sqrt_lam ** 2, sqrt_lam ** 2)
        assert np.abs(r.T @ r.conj() - np.diag(lam_n)).max() < 1e-12
        assert np.abs(doubled.T @ doubled.conj() - 16 * np.diag(lam_n)).max() < 1e-12


def _sequence_vector(blocks, seq, dims):
    """Dense reference: the blocks' product permuted into sequence order,
    with the permutation applied as an explicit basis-index map."""
    n = len(seq)
    vec = None
    for i in sorted(set(seq)):
        blk = blocks(i, seq.count(i))
        vec = blk if vec is None else tensor_pure(vec, blk)
    order = [pos for i in sorted(set(seq)) for pos in range(n) if seq[pos] == i]
    dA, dB = dims
    out = np.zeros_like(vec.vector)
    for idx in itertools.product(*([range(dA)] * n + [range(dB)] * n)):
        a_digits, b_digits = idx[:n], idx[n:]
        src_a = sum(a_digits[order[j]] * dA ** (n - 1 - j) for j in range(n))
        src_b = sum(b_digits[order[j]] * dB ** (n - 1 - j) for j in range(n))
        dst_a = sum(a_digits[j] * dA ** (n - 1 - j) for j in range(n))
        dst_b = sum(b_digits[j] * dB ** (n - 1 - j) for j in range(n))
        out[dst_a * dB ** n + dst_b] = vec.vector[src_a * dB ** n + src_b]
    return out


def kept_terms(psi, count, budget):
    """(u, vh, terms, amplitudes, fidelity): psi's Schmidt vectors, and the
    kept terms and fidelity of diluting psi^(x)count from `budget` singlets,
    from one walk as formation_protocol takes them."""
    u, mu, vh = _schmidt(psi)
    keep, fidelity, head = _truncation(_ranked_patterns(mu, count), budget)
    return (u, vh, *_kept_terms(mu.size, keep, head), fidelity)


def diluted_state(psi, count, budget):
    """Dense reference: the kept terms of `kept_terms` summed as the vector
    on (dA^count, dB^count), each a Kronecker product of psi's own Schmidt
    vectors, and the fidelity."""
    u, vh, terms, amplitudes, fidelity = kept_terms(psi, count, budget)
    left = _kron_columns(u, terms, amplitudes)
    right = _kron_columns(vh.T, terms, np.ones(len(terms))).T
    return PureState((left.shape[0], right.shape[1]), (left @ right).ravel()), fidelity


def _nonzero_factor(m):
    """The `psd_factor` of m behind fidelity_matrices, less its zero columns."""
    f = psd_factor(m)
    return f[:, np.any(f != 0.0, axis=0)]


def dense_reference(rho, ens, res):
    """fid1, fid1_sub, fid2 and the fidelity behind exact_bures from dense
    matrices: tensor_power, outer products of sequence vectors, and the
    floored factors of fidelity_matrices, each matrix factored once."""
    rho_n = tensor_power(rho, res.n).matrix
    d = rho_n.shape[0]
    rho_t = np.zeros((d, d), dtype=complex)
    rho_approx = np.zeros((d, d), dtype=complex)
    exact = lambda i, c: pure_power(ens.states[i], c)
    diluted = lambda i, c: diluted_state(
        ens.states[i], c, res.plan.entries[i].singlets)[0]
    for seq, ps in pairs(res.typical_set):
        v = _sequence_vector(exact, seq, rho.dims)
        w = _sequence_vector(diluted, seq, rho.dims)
        rho_t += ps * np.outer(v, v.conj())
        rho_approx += ps * np.outer(w, w.conj())
    p_t = np.trace(rho_t).real
    f_n = _nonzero_factor(rho_n)
    f_sub = _nonzero_factor(rho_t)          # rho_t = f_sub f_sub^dag
    f_t = f_sub / np.sqrt(p_t)              # rho_t / p_t
    f_approx = _nonzero_factor(rho_approx / np.trace(rho_approx).real)
    return (fidelity_factors(f_n, f_t),
            fidelity_factors(f_n, f_sub),
            fidelity_factors(f_t, f_approx),
            fidelity_factors(f_n, f_approx))


def _seeded_ensembles():
    """Six seeded (0.5, 0.3, 0.2) ensembles of random two-qubit states."""
    rng = RandomSource(41)
    return [Ensemble(np.array([0.5, 0.3, 0.2]),
                     tuple(sample_pure_state((2, 2), rng.split())
                           for _ in range(3)))
            for _ in range(6)]


def _equivalence_cases():
    for n in (3, 4, 5):
        yield pytest.param(half_half_ensemble(), n, 0.25, id=f"criterion6-n{n}")
    for j, ens in enumerate(_seeded_ensembles()):
        for n in (3, 4):
            yield pytest.param(ens, n, 0.25, id=f"ens3-{j}-n{n}")
    lossy = Ensemble(np.array([0.5, 0.5]),
                     (schmidt_state(0.9), basis_pure((2, 2), 0, 1)))
    yield pytest.param(lossy, 3, 0.0, id="lossy-n3")


def assert_matches_dense_reference(ens, n, delta2):
    rho = ensemble_average(ens)
    res = formation_protocol(rho, ens, n, 0.5, delta2)
    assert res.exact_mode
    fid1, fid1_sub, fid2, fid_bures = dense_reference(rho, ens, res)
    assert res.fid1_fidelity == pytest.approx(fid1, abs=1e-12)
    assert np.sqrt(1.0 - res.eps1) * res.fid1_fidelity == pytest.approx(
        fid1_sub, abs=1e-12)
    assert res.fid2_fidelity == pytest.approx(fid2, abs=1e-12)
    assert 1.0 - (res.exact_bures / 2.0) ** 2 == pytest.approx(fid_bures,
                                                               abs=1e-12)
    return res


@pytest.mark.parametrize("ens,n,delta2", _equivalence_cases())
def test_factored_fidelities_match_dense_reference(ens, n, delta2):
    assert_matches_dense_reference(ens, n, delta2)


def test_factored_fidelities_match_dense_reference_with_more_members_than_dimension():
    # the CLI's density-matrix path: eof_optimize gives a rank-3 state nine
    # members, more than the dimension 4, so the typical sequences at n = 3
    # outnumber the dimension 64 and the factors are compressed.  Their
    # count depends on the optimizer's weights, so it is counted here by
    # walking all 9^3 sequences against the count windows
    rho = sample_density_matrix((2, 2), 3, RandomSource(5))
    ens = eof_optimize(rho, rng=RandomSource(5)).ensemble
    assert len(ens) == 9
    res = assert_matches_dense_reference(ens, 3, 0.25)
    windows = typical_count_windows(ens.weights, 3, 0.5)
    count = sum(all(lo <= seq.count(i) <= hi for i, (lo, hi) in enumerate(windows))
                for seq in itertools.product(range(9), repeat=3))
    assert len(res.typical_set.sequences) == res.typical_set.num_sequences == count
    assert count > 4 ** 3


@pytest.mark.parametrize("n", [3, 4])
def test_factored_fidelities_match_dense_reference_when_members_leave_the_support(n):
    # the ensemble realizes rho only to about 1e-8: one member has a part of
    # norm 5e-8 outside supp(rho), while the diluted blocks lie mostly
    # outside it.  The single-copy basis takes that direction in, so each
    # member leaves at most SUPPORT_TOL outside it; projecting onto
    # supp(rho)^(x)n alone would move fid2 by about 1e-8
    rng = RandomSource(23)
    states = [sample_pure_state((2, 2), rng.split()) for _ in range(2)]
    ens = Ensemble(np.array([0.5, 0.5]), tuple(states))
    rho = ensemble_average(ens)
    q, _ = np.linalg.qr(np.stack([psi.vector for psi in states]
                                 + [sample_pure_state((2, 2), rng.split()).vector],
                                 axis=1))
    v = states[0].vector + 5e-8 * q[:, 2]
    ens = Ensemble(ens.weights, (PureState((2, 2), v / np.linalg.norm(v)), states[1]))
    assert 1e-9 < np.abs(ensemble_average(ens).matrix - rho.matrix).max() < 1e-7
    basis, sqrt_lam = support_basis(rho, ens.states)
    assert basis.shape[1] == 3 and sqrt_lam[2] == 0.0
    for psi in ens.states:
        outside = psi.vector - basis @ (basis.conj().T @ psi.vector)
        assert np.linalg.norm(outside) <= SUPPORT_TOL
    res = formation_protocol(rho, ens, n, 0.5, 0.0)
    assert res.exact_mode and res.eps2 > 0.0
    fid1, _, fid2, fid_bures = dense_reference(rho, ens, res)
    assert res.fid1_fidelity == pytest.approx(fid1, abs=1e-12)
    assert res.fid2_fidelity == pytest.approx(fid2, abs=1e-12)
    assert 1.0 - (res.exact_bures / 2.0) ** 2 == pytest.approx(fid_bures,
                                                               abs=1e-12)


@pytest.mark.parametrize("n", [3, 4])
def test_tiny_perturbations_do_not_move_the_diluted_fidelities(n):
    # delta2 = 0 cuts the Schmidt terms of psi^(x)c inside groups of permuted
    # index tuples of equal weight; the cut must not depend on rounding
    rng = np.random.default_rng(7)

    def nudge(psi):
        v = psi.vector + 1e-13 * (rng.standard_normal(4)
                                  + 1j * rng.standard_normal(4))
        return PureState((2, 2), v / np.linalg.norm(v))

    for ens in _seeded_ensembles():
        moved = Ensemble(ens.weights, tuple(nudge(psi) for psi in ens.states))
        a, b = (formation_protocol(ensemble_average(e), e, n, 0.5, 0.0)
                for e in (ens, moved))
        assert abs(a.fid2_fidelity - b.fid2_fidelity) < 1e-10
        assert abs(a.exact_bures - b.exact_bures) < 1e-10


class TestDilution:
    def test_product_state_needs_no_singlets(self):
        psi = basis_pure((2, 2), 0, 1)
        assert dilution_fidelity(psi, 3, 0) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_entangled_single_copy(self):
        psi = bell_phi_plus()
        assert dilution_fidelity(psi, 1, 1) == pytest.approx(1.0, abs=1e-12)
        assert dilution_fidelity(psi, 1, 0) == pytest.approx(
            np.sqrt(0.5), abs=1e-12)

    def test_binomial_oracle_small_count(self):
        w = 0.9
        count = 3
        psi = schmidt_state(w)
        weights = sorted((w ** (count - j) * (1 - w) ** j
                          for j in range(count + 1)
                          for _ in range(math.comb(count, j))), reverse=True)
        for budget in range(count + 1):
            keep = min(2 ** budget, len(weights))
            expect = math.sqrt(min(1.0, sum(weights[:keep])))
            assert dilution_fidelity(psi, count, budget) == pytest.approx(
                expect, abs=1e-12)

    def test_fidelity_monotone_in_budget(self):
        psi = schmidt_state(0.8)
        fids = [dilution_fidelity(psi, 4, b) for b in range(5)]
        assert all(f2 >= f1 - 1e-15 for f1, f2 in zip(fids, fids[1:]))
        assert fids[-1] == pytest.approx(1.0, abs=1e-12)

    def test_kept_terms_match_reported_fidelity(self):
        psi = schmidt_state(0.9)
        for budget in (0, 1, 2):
            approx, fid = diluted_state(psi, 2, budget)
            assert approx.dims == (4, 4)
            target = pure_power(psi, 2)
            overlap = abs(np.vdot(target.vector, approx.vector))
            assert overlap == pytest.approx(fid, abs=1e-12)
            assert fid == dilution_fidelity(psi, 2, budget)

    def test_ties_keep_index_order(self):
        # weights 0.81, 0.09, 0.09, 0.01 for tuples (0,0), (0,1), (1,0), (1,1):
        # two kept terms are (0,0) and (0,1), on basis states |00>|00> and |01>|01>
        approx, fid = diluted_state(schmidt_state(0.9), 2, 1)
        expect = np.zeros(16)
        expect[0], expect[5] = 0.9, 0.1
        assert np.abs(approx.vector) ** 2 == pytest.approx(expect, abs=1e-12)
        assert fid == pytest.approx(np.sqrt(0.9), abs=1e-12)

    def test_lossless_dilution_is_exactly_lossless(self):
        for psi in (schmidt_state(0.9), bell_phi_plus(),
                    sample_pure_state((2, 3), RandomSource(5))):
            for count in (1, 2, 3):
                assert dilution_fidelity(psi, count, count) == 1.0
                assert kept_terms(psi, count, count)[-1] == 1.0
        assert dilution_fidelity(basis_pure((2, 2), 0, 1), 4, 0) == 1.0

    def test_huge_budget_keeps_everything(self):
        psi = sample_pure_state((2, 2), RandomSource(5))
        assert dilution_fidelity(psi, 3, 10 ** 300) == 1.0
        assert kept_terms(psi, 3, 10 ** 300)[-1] == 1.0

    def test_walked_mass_sums_to_one(self):
        # each weight carries at most `count` roundings and psi's Schmidt
        # weights sum to 1 within a few ulp, so the mass stays within
        # count * 1e-15 of 1
        for dims, counts in (((2, 2), (1, 22, 1000, 2000)), ((3, 3), (1, 13, 200))):
            psi = sample_pure_state(dims, RandomSource(5))
            mu = np.linalg.svd(psi.vector.reshape(dims), compute_uv=False) ** 2
            for count in counts:
                ranked = _ranked_patterns(mu, count)
                assert sum(a for _, a, _ in ranked) == mu.size ** count
                assert [w for w, _, _ in ranked] == sorted(
                    (w for w, _, _ in ranked), reverse=True)
                mass = math.fsum(float(a * Fraction(w)) for w, a, _ in ranked)
                assert abs(mass - 1.0) <= count * 1e-15

    def test_walk_refuses_what_it_cannot_do(self):
        # the cap counts patterns x count before any enumeration; weights of
        # (0.55, 0.45) at count 1100 fall below the smallest normal float and
        # their multiplicities pass 2^1024
        with pytest.raises(ValueError, match="too many"):
            dilution_fidelity(sample_pure_state((3, 3), RandomSource(5)), 400, 10)
        with pytest.raises(ValueError, match="underflow"):
            dilution_fidelity(schmidt_state(0.55), 1100, 0)

    def test_binomial_oracle_at_count_1000(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 60
        count = 1000
        for psi in (sample_pure_state((2, 2), RandomSource(5)),
                    schmidt_state(0.7), schmidt_state(0.55)):
            mu = np.linalg.svd(psi.vector.reshape(2, 2), compute_uv=False) ** 2
            heavy, light = (mpmath.mpf(float(x)) for x in mu)
            # k copies of the lighter weight, heaviest pattern first
            patterns = [(math.comb(count, k), heavy ** (count - k) * light ** k)
                        for k in range(count + 1)]
            for budget in (0, 68, 168, 880, 950):
                left, dropped = 2 ** budget, mpmath.mpf(0)
                for a, w in patterns:
                    dropped += max(0, a - left) * w
                    left = max(0, left - a)
                expect = float(1 - dropped)
                assert dilution_fidelity(psi, count, budget) ** 2 == \
                    pytest.approx(expect, abs=1e-12)

    def test_input_validation(self):
        psi = schmidt_state(0.9)
        with pytest.raises(ValueError):
            dilution_fidelity(psi, 0, 1)
        with pytest.raises(ValueError):
            dilution_fidelity(psi, 1, -1)
        with pytest.raises(ValueError):
            kept_terms(psi, 0, 1)
        with pytest.raises(ValueError):
            kept_terms(psi, 1, -1)


def _sorted_spectrum(mu, count):
    """All r^count Schmidt weights of psi^(x)count, one per index tuple."""
    acc = np.array([1.0])
    for _ in range(count):
        acc = np.outer(acc, mu).ravel()
    return np.sort(acc)[::-1]


@pytest.mark.parametrize("dims,max_count,seed", [
    ((2, 2), 22, 0), ((2, 2), 22, 5), ((2, 3), 22, 1),
    ((3, 3), 13, 0), ((3, 3), 13, 5)])
def test_pattern_walk_matches_the_sorted_spectrum(dims, max_count, seed):
    # F^2, not F: the square root magnifies rounding by 1 / (2F)
    psi = sample_pure_state(dims, RandomSource(seed))
    mu = np.linalg.svd(psi.vector.reshape(dims), full_matrices=False)[1] ** 2
    for count in range(1, max_count + 1):
        spectrum = _sorted_spectrum(mu, count)
        for budget in range(2 * count + 1):
            expect = 1.0 - spectrum[min(spectrum.size, 2 ** budget):].sum()
            assert abs(dilution_fidelity(psi, count, budget) ** 2 - expect) <= 1e-15


def table_kept_terms(mu, count, keep):
    """The deleted selection: every r^count index tuple, weighed by mu over
    its sorted tuple factor by factor, kept by a stable sort on weight."""
    terms = np.indices((mu.size,) * count).reshape(count, -1).T
    w = functools.reduce(np.multiply, mu[np.sort(terms, axis=1)].T)
    kept = np.argsort(-w, kind="stable")[:keep]
    return terms[kept], np.sqrt(w[kept]) / np.linalg.norm(np.sqrt(w[kept]))


def _kept_term_spectra():
    """Seeded Schmidt spectra, and spectra whose patterns tie: all of them
    (Bell, uniform on (3, 3)), with zero weights, or across patterns."""
    seeded = [_schmidt(sample_pure_state(dims, RandomSource(seed)))[1]
              for dims in ((2, 2), (2, 3), (3, 3)) for seed in (0, 5)]
    ties = [(0.5, 0.5), (0.5, 0.5, 0.0), (1 / 3,) * 3, (0.5, 0.25, 0.25)]
    return seeded + [np.array(mu) for mu in ties]


@pytest.mark.parametrize("mu", _kept_term_spectra(),
                         ids=lambda mu: ",".join(f"{x:.3g}" for x in mu))
def test_kept_rows_equal_the_sorted_term_table(mu):
    # row for row and amplitude for amplitude, bit for bit, at counts 1-8
    # (r = 2) or 1-5 (r = 3) and budgets up to ceil(c log2 r) + 2, and 10^3
    r = mu.size
    for count in range(1, 9 if r == 2 else 6):
        ranked = _ranked_patterns(mu, count)
        for budget in [*range(math.ceil(count * math.log2(r)) + 3), 10 ** 3]:
            keep, _, head = _truncation(ranked, budget)
            assert keep == min(r ** count, 2 ** budget)
            terms, amplitudes = _kept_terms(r, keep, head)
            expect_terms, expect_amplitudes = table_kept_terms(mu, count, keep)
            assert np.array_equal(terms, expect_terms), (count, budget)
            assert np.array_equal(amplitudes, expect_amplitudes), (count, budget)


class TestDilutionPlan:
    def test_unentangled_members_cost_nothing(self):
        ens = half_half_ensemble()
        tset = typical_set(ens.weights, 4, 0.5)
        plan = dilution_plan(ens, tset, 0.25)
        assert plan.entries[0].entanglement == pytest.approx(1.0, abs=1e-12)
        assert plan.entries[0].singlets == math.ceil(3 * 1.25)
        assert plan.entries[1].entanglement == pytest.approx(0.0, abs=1e-12)
        assert plan.entries[1].singlets == 0
        assert plan.total_singlets == 4

    def test_budget_uses_worst_typical_count(self):
        ens = Ensemble(np.array([0.5, 0.5]), (bell_phi_plus(), singlet()))
        tset = typical_set(ens.weights, 4, 0.5)
        plan = dilution_plan(ens, tset, 0.1)
        for entry, (lo, hi) in zip(plan.entries, tset.count_windows):
            assert entry.count == hi


class TestFormationProtocol:
    def test_mixed_example_accounting(self):
        ens = half_half_ensemble()
        rho = ensemble_average(ens)
        res = formation_protocol(rho, ens, 4, 0.5, 0.25)
        assert res.exact_mode
        assert res.m == 4
        assert res.rate == pytest.approx(1.0, abs=1e-12)
        assert res.mean_entanglement == pytest.approx(0.5, abs=1e-12)
        assert res.slack == res.rate - res.mean_entanglement
        assert res.eps1 == pytest.approx(0.125, abs=1e-12)
        # budgets cover every typical block exactly, so the dilution is lossless
        assert res.eps2 == pytest.approx(0.0, abs=1e-12)
        assert res.eps3 == pytest.approx(0.0, abs=1e-12)
        assert res.fid1_fidelity >= np.sqrt(0.875) - 1e-9
        assert res.fid1_holds and res.fid2_holds
        assert res.exact_bures <= res.bures_bound + 1e-12

    def test_pure_state_degenerates_to_dilution(self):
        psi = schmidt_state(0.9)
        ens = Ensemble(np.array([1.0]), (psi,))
        res = formation_protocol(psi.to_state(), ens, 2, 0.5, 0.6)
        h = binary_entropy(0.9)
        assert res.m == math.ceil(2 * (h + 0.6))
        assert res.eps1 == 0.0
        # the budget covers the full Schmidt rank, so everything is exact
        assert res.exact_bures == pytest.approx(0.0, abs=1e-7)
        assert res.fid1_holds and res.fid2_holds

    def test_separable_ensemble_costs_nothing(self):
        ens = Ensemble(np.array([0.5, 0.5]),
                       (basis_pure((2, 2), 0, 0), basis_pure((2, 2), 1, 1)))
        rho = ensemble_average(ens)
        res = formation_protocol(rho, ens, 4, 0.5, 0.25)
        assert res.m == 0
        assert res.rate == 0.0
        assert res.fid2_holds

    def test_analytic_mode_beyond_the_work_cap(self):
        # criterion 6 at n = 10: 2^10 x 1002 x 1002 = 1.03e9 factor work
        # exceeds EXACT_WORK_CAP
        ens = half_half_ensemble()
        rho = ensemble_average(ens)
        res = formation_protocol(rho, ens, 10, 0.5, 0.25)
        assert not res.exact_mode
        assert res.exact_bures is None
        assert res.fid1_fidelity is None
        assert res.bures_bound > 0.0
        assert (res.fid1_holds, res.fid2_holds, res.triangle_holds) == (None,) * 3

    def test_tight_budget_still_meets_the_bound(self):
        # delta2 = 0 charges ceil(count * E) singlets: ceil(3 h(0.9)) = 2
        # covers only 4 of the 8 Schmidt weights, so the dilution is lossy
        ens = Ensemble(np.array([0.5, 0.5]),
                       (schmidt_state(0.9), basis_pure((2, 2), 0, 1)))
        rho = ensemble_average(ens)
        res = formation_protocol(rho, ens, 3, 0.5, 0.0)
        assert res.exact_mode
        assert res.eps2 > 0.0
        assert res.exact_bures <= res.bures_bound + 1e-12
        assert res.fid1_holds and res.fid2_holds and res.triangle_holds

    def test_wrong_ensemble_rejected(self):
        ens = half_half_ensemble()
        other = sample_density_matrix((2, 2), 2, RandomSource(3))
        with pytest.raises(StateValidationError):
            formation_protocol(other, ens, 3, 0.5, 0.25)

    def test_fid1_is_checked_against_the_unit_trace_bound(self):
        # unit-trace rho_T: sqrt(p_T) F(rho^(x)n, rho_T) = 0.926 would miss
        # the bound sqrt(p_T) = 0.935, but F itself is compared with it
        ens = half_half_ensemble()
        rho = ensemble_average(ens)
        res = formation_protocol(rho, ens, 4, 0.5, 0.25)
        assert np.sqrt(1.0 - res.eps1) * res.fid1_fidelity < np.sqrt(0.875)
        assert res.fid1_holds is bool(res.fid1_fidelity
                                      >= np.sqrt(1.0 - res.eps1) - 1e-9)
        assert res.fid1_holds
        with pytest.raises(TypeError):
            formation_protocol(rho, ens, 3, 0.5, 0.25, normalization="sub")


@pytest.mark.parametrize("n", [4, 7])
def test_each_dilution_is_ranked_once(monkeypatch, n):
    # one pattern walk per (member, count) block in both modes gives eps2
    # and the exact-mode work; exact mode (n = 4) arranges each block's kept
    # terms from that walk, and analytic mode (n = 7) arranges none
    calls = {"_ranked_patterns": [], "_kept_terms": [], "dilution_fidelity": []}
    for name, seen in calls.items():
        original = getattr(entcost.formation, name)
        monkeypatch.setattr(entcost.formation, name,
                            lambda *args, seen=seen, original=original:
                            seen.append(args) or original(*args))
    ens = Ensemble(np.array([0.5, 0.3, 0.2]),
                   tuple(sample_pure_state((2, 2), RandomSource(139 + j))
                         for j in range(3)))
    res = formation_protocol(ensemble_average(ens), ens, n, 0.5, 0.25)
    blocks = {(i, seq.count(i)) for seq, _ in pairs(res.typical_set)
              for i in set(seq)}
    members = {tuple(_schmidt(psi)[1]): i for i, psi in enumerate(ens.states)}
    walks = [(members[tuple(mu)], c) for mu, c in calls["_ranked_patterns"]]
    assert res.exact_mode is (n == 4)
    assert len(walks) == len(blocks) and set(walks) == blocks
    assert len(calls["_kept_terms"]) == (len(blocks) if n == 4 else 0)
    assert not calls["dilution_fidelity"]


def test_exact_mode_finishes_at_the_work_cap():
    # criterion 6 at n = 9, 2^9 x 492 x 492 = 1.2e8 factor work, is the
    # largest n it runs exactly at these deltas; n = 10 is analytic
    ens = half_half_ensemble()
    res = formation_protocol(ensemble_average(ens), ens, 9, 0.5, 0.25)
    assert res.exact_mode
    assert res.fid1_holds and res.fid2_holds
    assert res.exact_bures <= res.bures_bound
    assert res.triangle_holds


@pytest.mark.parametrize("n, exact", [(101, True), (102, False)])
def test_a_pure_state_turns_analytic_past_its_kept_row_limit(
        monkeypatch, n, exact):
    # r = T = 1, so the work is 1 + 32 n rows, the rows being the
    # arrangements of the patterns down to the cut weight: 2^17 kept terms
    # of 171,802 rows at n = 101 (5.6e8), and 2^18 at n = 102, whose cut
    # falls in a pattern of C(102, 4) arrangements (4,426,529 rows, 1.4e10).
    # Exact mode's first step after the work test arranges kept terms
    class ExactMode(Exception):
        pass

    def selected(*args):
        raise ExactMode

    monkeypatch.setattr(entcost.formation, "_kept_terms", selected)
    psi = sample_pure_state((2, 2), RandomSource(5))
    ens = Ensemble(np.array([1.0]), (psi,))
    if exact:
        with pytest.raises(ExactMode):
            formation_protocol(psi.to_state(), ens, n, 0.5, 0.1)
    else:
        assert not formation_protocol(psi.to_state(), ens, n, 0.5, 0.1).exact_mode


def test_a_pure_state_holds_only_its_kept_rows():
    # psi^(x)20 keeps 2^4 of its 2^20 Schmidt terms; the r^c term table
    # that selected them peaked at 518 MB of process memory here
    psi = sample_pure_state((2, 2), RandomSource(5))
    ens = Ensemble(np.array([1.0]), (psi,))
    tracemalloc.start()
    try:
        res = formation_protocol(psi.to_state(), ens, 20, 0.5, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.exact_mode and res.fid1_holds and res.fid2_holds
    assert res.triangle_holds
    assert peak < 4 * 2 ** 20


@pytest.mark.parametrize("w, n, delta2", [(0.5, 19, 0.25), (0.7, 20, 0.0)])
def test_a_block_past_its_kronecker_table_limit_is_analytic(
        monkeypatch, w, n, delta2):
    # sqrt(w)|00> + sqrt(1 - w)|11> at weight 0.99 and |00>, r = 2 and
    # n + 1 typical sequences: the factor work is 2.1e8 at n = 19 and 4.6e8
    # at n = 20, and the kept rows 32 n keep or fewer, but the diluted
    # block of n copies is a 2^n x keep table of complex entries: 2^19 x
    # 2^19 at (0.5, 19) and 2^20 x 2^18 at (0.7, 20), 4 TiB each
    class ExactMode(Exception):
        pass

    def built(*args):
        raise ExactMode

    monkeypatch.setattr(entcost.formation, "support_factors", built)
    ens = Ensemble(np.array([0.99, 0.01]),
                   (schmidt_state(w), basis_pure((2, 2), 0, 0)))
    res = formation_protocol(ensemble_average(ens), ens, n, 0.5, delta2)
    assert not res.exact_mode and res.typical_set.num_sequences == n + 1


def identical_members(weights):
    """Copies of |00> at the given weights: r = 1, so every factor is one
    column wide and only the typical sequences cost anything."""
    return Ensemble(np.array(weights), (basis_pure((2, 2), 0, 0),) * len(weights))


def test_a_narrow_factor_is_compressed_once_per_composition_at_most(monkeypatch):
    # (0.98, 0.01, 0.01) at n = 30: 190,591 typical sequences in 9
    # compositions, one column wide.  Compressing every 2 r^n = 2 rows took
    # 381,180 QR calls; whole blocks and QR_ROWS take at most one per
    # composition and one at the end, per factor
    calls = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr",
                        lambda *args, **kw: calls.append(args) or qr(*args, **kw))
    ens = identical_members((0.98, 0.01, 0.01))
    res = formation_protocol(ensemble_average(ens), ens, 30, 0.5, 0.25)
    assert res.exact_mode and res.typical_set.num_sequences == 190_591
    assert res.fid1_holds and res.fid2_holds and res.triangle_holds
    assert 0 < len(calls) <= 2 * (9 + 1)


def test_an_exact_run_groups_its_sequences_once(monkeypatch):
    # R_t and R_y come from one composition_factor call, one grouping
    calls = []
    original = entcost.formation.composition_factor
    monkeypatch.setattr(entcost.formation, "composition_factor",
                        lambda blocks, *args: calls.append(len(blocks))
                        or original(blocks, *args))
    ens = half_half_ensemble()
    assert formation_protocol(ensemble_average(ens), ens, 4, 0.5, 0.25).exact_mode
    assert calls == [2]


def test_a_narrow_run_has_unit_fidelities():
    # (0.98, 0.01, 0.01) of |00> at n = 30: rho_T is rho^(x)n, so both
    # fidelities are 1, up to the rounding of p_T; summed one by one over the
    # 190,591 weights, p_T put them 6863 and 13,726 eps above 1
    ens = identical_members((0.98, 0.01, 0.01))
    res = formation_protocol(ensemble_average(ens), ens, 30, 0.5, 0.25)
    eps = np.finfo(float).eps
    assert abs(res.fid1_fidelity - 1.0) <= 4 * eps
    assert abs(res.fid2_fidelity - 1.0) <= 4 * eps


@pytest.mark.parametrize("n, exact", [(37, True), (38, False)])
def test_typical_sequences_past_their_work_limit_are_analytic(monkeypatch, n, exact):
    # identical members at (0.98, 0.01, 0.01), r = 1: the factor work is T
    # and the blocks' 32 sum (c rows + r^c keep) about 160 n, so 2048 T
    # decides: 445,629 sequences at n = 37 (9.1e8) and 496,395 at n = 38
    # (1.02e9).  Grouping and gathering take a few microseconds a sequence
    class ExactMode(Exception):
        pass

    def built(*args):
        raise ExactMode

    monkeypatch.setattr(entcost.formation, "support_factors", built)
    ens = identical_members((0.98, 0.01, 0.01))
    if exact:
        with pytest.raises(ExactMode):
            formation_protocol(ensemble_average(ens), ens, n, 0.5, 0.25)
    else:
        res = formation_protocol(ensemble_average(ens), ens, n, 0.5, 0.25)
        assert not res.exact_mode and res.typical_set.num_sequences == 496_395


def _compressing_cases():
    rho = sample_density_matrix((2, 2), 4, RandomSource(11))
    sixteen = eof_optimize(rho, rng=RandomSource(11)).ensemble
    for n in (1, 2, 3):
        yield pytest.param(sixteen, n, 0.25, id=f"sixteen-n{n}")
    for k in (7, 8, 9, 10):
        rng = RandomSource(k)
        ens = Ensemble(np.full(k, 1 / k), tuple(sample_pure_state((2, 2), rng.split())
                                                for _ in range(k)))
        for n in (2, 3):
            yield pytest.param(ens, n, 0.0, id=f"uniform{k}-n{n}")


@pytest.mark.parametrize("ens, n, delta2", _compressing_cases())
def test_compressing_the_factors_moves_no_fidelity(monkeypatch, ens, n, delta2):
    # T > 2 r^n typical sequences: rows compressed every 2 r^n rows
    # (QR_ROWS = 0), from QR_ROWS on, and only once at the end give the
    # same fidelities to 1e-14 and the same flags
    rho = ensemble_average(ens)
    runs = []
    for rows in (0, entcost.formation.QR_ROWS, 10 ** 9):
        monkeypatch.setattr(entcost.formation, "QR_ROWS", rows)
        runs.append(formation_protocol(rho, ens, n, 0.5, delta2))
    r = support_basis(rho, ens.states)[0].shape[1]
    assert runs[0].exact_mode and runs[0].typical_set.num_sequences > 2 * r ** n
    for res in runs[1:]:
        for name in ("fid1_fidelity", "fid2_fidelity", "exact_bures"):
            assert getattr(res, name) == pytest.approx(getattr(runs[0], name),
                                                       abs=1e-14), name
        assert ((res.fid1_holds, res.fid2_holds, res.triangle_holds)
                == (runs[0].fid1_holds, runs[0].fid2_holds, runs[0].triangle_holds))


class TestFidelityChain:
    def test_exact_run_passes_all_checks(self):
        ens = half_half_ensemble()
        rho = ensemble_average(ens)
        res = formation_protocol(rho, ens, 4, 0.5, 0.25)
        assert res.fid1_holds and res.fid2_holds and res.triangle_holds
        assert res.exact_bures <= (bures_from_fidelity(res.fid1_fidelity)
                                   + bures_from_fidelity(res.fid2_fidelity)
                                   + 1e-8)

    def test_lossy_run_still_passes(self):
        ens = Ensemble(np.array([0.5, 0.5]),
                       (schmidt_state(0.7), schmidt_state(0.95)))
        rho = ensemble_average(ens)
        res = formation_protocol(rho, ens, 3, 0.5, 0.0)
        assert res.fid1_holds and res.fid2_holds and res.triangle_holds

    def test_triangle_holds_at_the_rounding_floor(self):
        # one-member ensembles; where the dilution is lossless the distance
        # is 0, and F has come out up to six float steps below 1 there:
        # exact_bures 5.2e-8 against a bures_bound of 0.0
        floor = 0.0
        for s in range(10):
            psi = sample_pure_state((2, 2), RandomSource(s))
            ens = Ensemble(np.array([1.0]), (psi,))
            for n, delta2 in itertools.product(range(1, 7), (0.1, 0.0)):
                res = formation_protocol(psi.to_state(), ens, n, 0.5, delta2)
                assert res.exact_mode and res.triangle_holds, (s, n, delta2)
                if res.bures_bound == 0.0:
                    floor = max(floor, res.exact_bures)
        assert 2e-8 < floor < BURES_TOL

    def test_triangle_is_judged_on_the_fidelities(self, monkeypatch):
        # exact_bures, the triangle's left side, is the last nuclear norm
        ens = half_half_ensemble()
        rho = ensemble_average(ens)
        norms = iter([nuclear_norm, nuclear_norm, lambda m: 0.5])
        monkeypatch.setattr(entcost.formation, "nuclear_norm",
                            lambda m: next(norms)(m))
        res = formation_protocol(rho, ens, 3, 0.5, 0.25)
        assert res.fid1_holds and res.fid2_holds
        assert res.exact_bures == bures_from_fidelity(0.5)
        assert res.triangle_holds is False


@pytest.mark.parametrize("seed", range(6))
def test_eps2_covers_exactly_the_blocks_of_typical_sequences(seed):
    # the count windows name each (member, count) block that occurs, so
    # eps2 matches the worst block over the enumerated sequences
    rng = RandomSource(300 + seed)
    k = 2 + seed % 3
    weights = rng.gen.dirichlet(np.ones(k))
    ens = Ensemble(weights, tuple(sample_pure_state((2, 2), rng.split())
                                  for _ in range(k)))
    res = formation_protocol(ensemble_average(ens), ens, 7 - k, 0.3 * (1 + seed),
                             0.0, window=("paper", "plain")[seed % 2])
    blocks = {(i, seq.count(i)) for seq, _ in pairs(res.typical_set)
              for i in set(seq)}
    assert res.eps2 == max(1.0 - dilution_fidelity(ens.states[i], c,
                                                   res.plan.entries[i].singlets)
                           for i, c in blocks)


def _seeded_members(dims, k, seed):
    """k seeded members on dims, with seeded Dirichlet weights."""
    rng = RandomSource(1000 * k + seed)
    return Ensemble(rng.gen.dirichlet(np.ones(k)),
                    tuple(sample_pure_state(dims, rng.split()) for _ in range(k)))


@pytest.mark.parametrize("dims, n_top", [((2, 3), 4), ((3, 3), 3)], ids=str)
def test_exact_chain_holds_beyond_two_qubits(dims, n_top):
    # 2-4 seeded members at two seeds, every n up to n_top, lossless and
    # lossy dilution: all three flags hold.  Where the bound is
    # 0.0, exact_bures carries up to BURES_TOL of rounding
    for k, seed, n, delta2 in itertools.product((2, 3, 4), (0, 1),
                                               range(1, n_top + 1), (0.0, 0.25)):
        ens = _seeded_members(dims, k, seed)
        res = formation_protocol(ensemble_average(ens), ens, n, 0.5, delta2)
        case = (k, seed, n, delta2)
        assert res.exact_mode, case
        assert res.fid1_holds and res.fid2_holds and res.triangle_holds, case
        assert res.exact_bures <= res.bures_bound + BURES_TOL, case


def test_factored_fidelities_match_dense_reference_beyond_two_qubits():
    ens = _seeded_members((2, 3), 3, 0)
    res = assert_matches_dense_reference(ens, 3, 0.25)
    assert len(res.typical_set.sequences)
