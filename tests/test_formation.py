import itertools
import math

import numpy as np
import pytest

from entcost.eof import eof_optimize
from entcost.formation import (
    dilute_pure_state,
    dilution_fidelity,
    dilution_plan,
    formation_protocol,
    mixture_factor,
    typical_count_windows,
    typical_set,
    verify_fid_bounds,
)
from entcost.metrics import fidelity_matrices
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
        assert tset.sequences == (((0, 0, 0, 0), 1.0),)
        assert tset.total_weight == 1.0
        assert tset.entropy == 0.0
        assert tset.weight_bounds == (1.0, 1.0)
        with pytest.raises(StateValidationError):
            typical_count_windows([0.0, 1.0], 4, 0.5)

    def test_unknown_window_kind(self):
        with pytest.raises(ValueError):
            typical_count_windows([0.5, 0.5], 4, 0.5, "gaussian")


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
        for seq, ps in tset.sequences:
            assert ps == pytest.approx(1.0 / 16.0, abs=1e-15)
            assert lo - 1e-15 <= ps <= hi + 1e-15

    def test_membership_agrees_with_direct_count_filter(self):
        p = [0.7, 0.2, 0.1]
        n, delta1 = 5, 0.4
        tset = typical_set(p, n, delta1)
        admitted = {seq for seq, _ in tset.sequences}
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
        for _, ps in tset.sequences:
            assert lo - 1e-15 <= ps <= hi + 1e-15

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
        with pytest.raises(ValueError):
            typical_set([0.1] * 10, 8, 0.5)   # 10^8 sequences, over the cap


class TestTruncatedState:
    """rho_T, built as a factor by mixture_factor."""

    def test_full_window_reproduces_tensor_power(self):
        ens = half_half_ensemble()
        rho = ensemble_average(ens)
        tset = typical_set(ens.weights, 3, 2.0)
        assert tset.total_weight == pytest.approx(1.0, abs=1e-12)
        f = mixture_factor(ens.states, tset.sequences)
        expect = tensor_power(rho, 3).matrix
        assert np.abs(f @ f.conj().T - expect).max() < 1e-12

    def test_subnormalized_trace_is_total_weight(self):
        ens = half_half_ensemble()
        tset = typical_set(ens.weights, 4, 0.5)
        f = mixture_factor(ens.states, tset.sequences)
        assert f.shape == (256, len(tset.sequences))
        assert (np.abs(f) ** 2).sum() == pytest.approx(tset.total_weight,
                                                       abs=1e-12)

    def test_singleton_set_gives_pure_power(self):
        psi = schmidt_state(0.9)
        f = mixture_factor((psi,), [((0, 0, 0), 1.0)])
        expect = pure_power(psi, 3).density_matrix()
        assert np.abs(f @ f.conj().T - expect).max() < 1e-12

    def test_more_sequences_than_dimension_give_a_square_factor(self):
        # nine members on 2x2: 81 sequences at n = 2, against dimension 16
        rng = RandomSource(3)
        ens = Ensemble(np.full(9, 1 / 9),
                       tuple(sample_pure_state((2, 2), rng.split())
                             for _ in range(9)))
        tset = typical_set(ens.weights, 2, 2.0, "plain")
        assert len(tset.sequences) == 81
        f = mixture_factor(ens.states, tset.sequences)
        assert f.shape == (16, 16)
        expect = tensor_power(ensemble_average(ens), 2).matrix
        assert np.abs(f @ f.conj().T - expect).max() < 1e-12

    def test_mismatched_ensemble_rejected(self):
        ens = half_half_ensemble()
        tset = typical_set([0.5, 0.3, 0.2], 3, 0.5)
        with pytest.raises(StateValidationError):
            mixture_factor(ens.states, tset.sequences)


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


def dense_reference(rho, ens, res):
    """fid1, fid1_sub, fid2 and the fidelity behind exact_bures from dense
    matrices: tensor_power, outer products of sequence vectors, and the
    floored fidelity_matrices."""
    rho_n = tensor_power(rho, res.n).matrix
    d = rho_n.shape[0]
    rho_t = np.zeros((d, d), dtype=complex)
    rho_approx = np.zeros((d, d), dtype=complex)
    exact = lambda i, c: pure_power(ens.states[i], c)
    diluted = lambda i, c: dilute_pure_state(
        ens.states[i], c, res.plan.entries[i].singlets)[0]
    for seq, ps in res.typical.sequences:
        v = _sequence_vector(exact, seq, rho.dims)
        w = _sequence_vector(diluted, seq, rho.dims)
        rho_t += ps * np.outer(v, v.conj())
        rho_approx += ps * np.outer(w, w.conj())
    p_t = np.trace(rho_t).real
    rho_approx /= np.trace(rho_approx).real
    return (fidelity_matrices(rho_n, rho_t / p_t),
            fidelity_matrices(rho_n, rho_t),
            fidelity_matrices(rho_t / p_t, rho_approx),
            fidelity_matrices(rho_n, rho_approx))


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
    # members, more than the dimension 4, so 504 typical sequences at n = 3
    # outnumber the dimension 64 and the factors are compressed
    rho = sample_density_matrix((2, 2), 3, RandomSource(5))
    ens = eof_optimize(rho, rng=RandomSource(5)).ensemble
    assert len(ens) == 9
    res = assert_matches_dense_reference(ens, 3, 0.25)
    assert len(res.typical.sequences) == 504


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

    def test_dilute_pure_state_matches_reported_fidelity(self):
        psi = schmidt_state(0.9)
        for budget in (0, 1, 2):
            approx, fid = dilute_pure_state(psi, 2, budget)
            assert approx.dims == (4, 4)
            target = pure_power(psi, 2)
            overlap = abs(np.vdot(target.vector, approx.vector))
            assert overlap == pytest.approx(fid, abs=1e-12)
            assert fid == pytest.approx(dilution_fidelity(psi, 2, budget),
                                        abs=1e-12)

    def test_ties_keep_index_order(self):
        # weights 0.81, 0.09, 0.09, 0.01 for tuples (0,0), (0,1), (1,0), (1,1):
        # two kept terms are (0,0) and (0,1), on basis states |00>|00> and |01>|01>
        approx, fid = dilute_pure_state(schmidt_state(0.9), 2, 1)
        expect = np.zeros(16)
        expect[0], expect[5] = 0.9, 0.1
        assert np.abs(approx.vector) ** 2 == pytest.approx(expect, abs=1e-12)
        assert fid == pytest.approx(np.sqrt(0.9), abs=1e-12)

    def test_lossless_dilution_is_exactly_lossless(self):
        for psi in (schmidt_state(0.9), bell_phi_plus(),
                    sample_pure_state((2, 3), RandomSource(5))):
            for count in (1, 2, 3):
                assert dilution_fidelity(psi, count, count) == 1.0
                assert dilute_pure_state(psi, count, count)[1] == 1.0
        assert dilution_fidelity(basis_pure((2, 2), 0, 1), 4, 0) == 1.0

    def test_huge_budget_keeps_everything(self):
        psi = sample_pure_state((2, 2), RandomSource(5))
        assert dilution_fidelity(psi, 3, 10 ** 300) == 1.0
        assert dilute_pure_state(psi, 3, 10 ** 300)[1] == 1.0

    def test_input_validation(self):
        psi = schmidt_state(0.9)
        with pytest.raises(ValueError):
            dilution_fidelity(psi, 0, 1)
        with pytest.raises(ValueError):
            dilution_fidelity(psi, 1, -1)
        with pytest.raises(ValueError):
            dilute_pure_state(psi, 8, 2)   # 4^8 exceeds the dimension cap
        with pytest.raises(ValueError):
            dilute_pure_state(psi, 0, 1)
        with pytest.raises(ValueError):
            dilute_pure_state(psi, 1, -1)


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

    def test_analytic_mode_beyond_dimension_cap(self):
        ens = half_half_ensemble()
        rho = ensemble_average(ens)
        res = formation_protocol(rho, ens, 7, 0.5, 0.25)
        assert not res.exact_mode
        assert res.exact_bures is None
        assert res.fid1_fidelity is None
        assert res.bures_bound > 0.0
        with pytest.raises(ValueError):
            verify_fid_bounds(res)

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
        assert res.fid1_holds and res.fid2_holds
        assert verify_fid_bounds(res)["all_hold"]

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


def test_exact_mode_finishes_at_the_dimension_cap():
    # the criterion-6 ensemble at n = 6 has dimension 4^6 = 4096, the cap
    ens = half_half_ensemble()
    res = formation_protocol(ensemble_average(ens), ens, 6, 0.5, 0.25)
    assert res.exact_mode
    assert res.fid1_holds and res.fid2_holds
    assert res.exact_bures <= res.bures_bound
    assert verify_fid_bounds(res)["all_hold"]


class TestVerifyFidBounds:
    def test_exact_run_passes_all_checks(self):
        ens = half_half_ensemble()
        rho = ensemble_average(ens)
        res = formation_protocol(rho, ens, 4, 0.5, 0.25)
        rep = verify_fid_bounds(res)
        assert rep["all_hold"]
        assert rep["fid1_holds"] and rep["fid2_holds"] and rep["triangle_holds"]
        assert rep["fid1_fidelity"] == pytest.approx(res.fid1_fidelity, abs=1e-12)
        assert rep["bures_left"] <= rep["bures_via_truncation"] + 1e-8

    def test_overlap_aggregate_is_the_weighted_sequence_overlap(self):
        ens = Ensemble(np.array([0.5, 0.5]),
                       (schmidt_state(0.9), basis_pure((2, 2), 0, 1)))
        rho = ensemble_average(ens)
        res = formation_protocol(rho, ens, 4, 0.5, 0.0)
        p_t = 1.0 - res.eps1
        assert p_t < 1.0
        expect = 0.0
        for seq, ps in res.typical.sequences:
            o = 1.0
            for i in set(seq):
                target = pure_power(ens.states[i], seq.count(i))
                approx, _ = dilute_pure_state(ens.states[i], seq.count(i),
                                              res.plan.entries[i].singlets)
                o *= abs(np.vdot(target.vector, approx.vector))
            expect += ps / p_t * o
        assert expect < 1.0 - 1e-3     # the budget is lossy
        assert res.overlap_aggregate == pytest.approx(expect, abs=1e-12)
        assert verify_fid_bounds(res)["overlap_aggregate"] == res.overlap_aggregate

    def test_lossy_run_still_passes(self):
        ens = Ensemble(np.array([0.5, 0.5]),
                       (schmidt_state(0.7), schmidt_state(0.95)))
        rho = ensemble_average(ens)
        res = formation_protocol(rho, ens, 3, 0.5, 0.0)
        rep = verify_fid_bounds(res)
        assert rep["all_hold"]
