import json

import numpy as np
import pytest

import entcost.eof
from entcost.eof import (
    LOCC_KINDS,
    LoccChannel,
    StartRecord,
    _rounds,
    apply_locc,
    check_monotonicity,
    concurrence,
    continuity_bound,
    eof_optimize,
    eof_two_qubit_closed_form,
    eta,
    sample_locc,
)
from entcost.qcore import (
    DimensionError,
    Ensemble,
    PureState,
    QuantumState,
    RandomSource,
    StateValidationError,
    basis_pure,
    binary_entropy,
    ensemble_average,
    pure_entanglement,
    sample_density_matrix,
    sample_pure_state,
    sample_unitary,
    singlet,
    tensor_pure,
)
from entcost.serialize import dumps_canonical


def bell_phi_plus():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return PureState((2, 2), v)


class TestClosedForm:
    def test_singlet_is_one_ebit(self):
        assert concurrence(singlet().to_state()) == pytest.approx(1.0, abs=1e-12)
        assert eof_two_qubit_closed_form(singlet().to_state()) == pytest.approx(
            1.0, abs=1e-12)

    def test_product_states_are_free(self):
        rho = basis_pure((2, 2), 0, 1).to_state()
        assert concurrence(rho) == pytest.approx(0.0, abs=1e-12)
        assert eof_two_qubit_closed_form(rho) == pytest.approx(0.0, abs=1e-12)

    def test_classical_mixture_is_free(self):
        rho = QuantumState((2, 2), np.diag([0.4, 0.3, 0.2, 0.1]))
        assert eof_two_qubit_closed_form(rho) == pytest.approx(0.0, abs=1e-12)

    def test_bell_diagonal_mixture(self):
        # p Phi+ mixed with (1-p) singlet has concurrence 2 max(p, 1-p) - 1
        p = 0.8
        m = (p * bell_phi_plus().density_matrix()
             + (1 - p) * singlet().density_matrix())
        rho = QuantumState((2, 2), m)
        assert concurrence(rho) == pytest.approx(0.6, abs=1e-12)
        # E_f = h((1 + sqrt(1 - 0.36))/2) = h(0.9)
        assert eof_two_qubit_closed_form(rho) == pytest.approx(
            0.4689955935892812, abs=1e-12)

    def test_local_unitary_invariance(self):
        rng = RandomSource(41)
        for i in range(15):
            rho = sample_density_matrix((2, 2), 1 + i % 4, rng.split())
            u = np.kron(sample_unitary(2, rng.split()), sample_unitary(2, rng.split()))
            rotated = QuantumState((2, 2), u @ rho.matrix @ u.conj().T)
            assert eof_two_qubit_closed_form(rotated) == pytest.approx(
                eof_two_qubit_closed_form(rho), abs=1e-10)

    def test_pure_state_matches_entropy_of_reduction(self):
        rng = RandomSource(43)
        for _ in range(10):
            psi = sample_pure_state((2, 2), rng.split())
            assert eof_two_qubit_closed_form(psi.to_state()) == pytest.approx(
                pure_entanglement(psi), abs=1e-9)

    def test_wrong_dims_rejected(self):
        with pytest.raises(DimensionError):
            concurrence(QuantumState((2, 3), np.eye(6) / 6))


class TestOptimizer:
    def test_pure_input_short_circuits(self):
        res = eof_optimize(singlet().to_state(), rng=RandomSource(0))
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.converged
        assert len(res.ensemble) == 1
        # one history entry per start, and no start ran
        assert res.starts == () and res.value_history == ()

    def test_separable_mixture_found_free(self):
        rng = RandomSource(47)
        states = []
        for _ in range(4):
            a = sample_pure_state((2, 1), rng.split()).vector
            b = sample_pure_state((2, 1), rng.split()).vector
            states.append(PureState((2, 2), np.kron(a, b)))
        ens = Ensemble(np.full(4, 0.25), tuple(states))
        rho = ensemble_average(ens)
        res = eof_optimize(rho, ensemble_size=6, restarts=3, rng=RandomSource(1))
        assert res.value <= 1e-3

    def test_matches_two_qubit_oracle(self):
        rng = RandomSource(53)
        for i in range(10):
            rank = 1 + i % 4
            rho = sample_density_matrix((2, 2), rank, rng.split())
            oracle = eof_two_qubit_closed_form(rho)
            res = eof_optimize(rho, ensemble_size=max(5, rank), restarts=3,
                               rng=rng.split())
            assert abs(res.value - oracle) <= 1e-3, (i, res.value, oracle)
            # optimizer values are upper bounds on the closed form
            assert res.value >= oracle - 1e-9

    def test_result_ensemble_is_feasible_and_consistent(self):
        rng = RandomSource(59)
        rho = sample_density_matrix((2, 2), 3, rng.split())
        res = eof_optimize(rho, ensemble_size=6, restarts=2, rng=rng.split())
        avg = ensemble_average(res.ensemble)
        assert np.abs(avg.matrix - rho.matrix).max() < 1e-7
        recomputed = float(np.dot(res.ensemble.weights,
                                  [pure_entanglement(s)
                                   for s in res.ensemble.states]))
        assert res.value == pytest.approx(recomputed, abs=1e-12)

    def test_seed_ensemble_never_hurts(self):
        rng = RandomSource(61)
        rho = sample_density_matrix((2, 2), 2, rng.split())
        evals, evecs = np.linalg.eigh(rho.matrix)
        keep = evals > 1e-12
        eigen = Ensemble(evals[keep] / evals[keep].sum(),
                         tuple(PureState((2, 2), evecs[:, j])
                               for j in np.flatnonzero(keep)))
        seed_value = float(np.dot(eigen.weights,
                                  [pure_entanglement(s) for s in eigen.states]))
        res = eof_optimize(rho, ensemble_size=4, restarts=0,
                           seed_ensembles=[eigen], rng=rng.split())
        assert res.value <= seed_value + 1e-9

    def test_bad_seed_ensemble_rejected(self):
        rng = RandomSource(67)
        rho = sample_density_matrix((2, 2), 2, rng.split())
        other = sample_density_matrix((2, 2), 2, rng.split())
        evals, evecs = np.linalg.eigh(other.matrix)
        keep = evals > 1e-12
        wrong = Ensemble(evals[keep] / evals[keep].sum(),
                         tuple(PureState((2, 2), evecs[:, j])
                               for j in np.flatnonzero(keep)))
        with pytest.raises(StateValidationError):
            eof_optimize(rho, seed_ensembles=[wrong], rng=rng.split())

    def test_size_below_rank_rejected(self):
        rho = QuantumState((2, 2), np.eye(4) / 4)
        with pytest.raises(ValueError):
            eof_optimize(rho, ensemble_size=2, rng=RandomSource(0))

    def test_needs_at_least_one_start(self):
        rho = QuantumState((2, 2), np.eye(4) / 4)
        with pytest.raises(ValueError):
            eof_optimize(rho, restarts=0, rng=RandomSource(0))

    def test_deterministic_given_seed(self):
        rho = sample_density_matrix((2, 2), 2, RandomSource(71))
        r1 = eof_optimize(rho, ensemble_size=4, restarts=2, rng=RandomSource(5))
        r2 = eof_optimize(rho, ensemble_size=4, restarts=2, rng=RandomSource(5))
        assert r1.value == r2.value
        assert r1.value_history == r2.value_history


class TestStartRecords:
    """Every start is refined on its own, and each leaves one record."""

    def test_records_count_every_start(self, monkeypatch):
        # every objective call is one evaluation
        calls = []
        objective = entcost.eof._objective
        monkeypatch.setattr(entcost.eof, "_objective",
                            lambda *a: calls.append(1) or objective(*a))
        rng = RandomSource(127)
        rho = sample_density_matrix((2, 2), 2, rng.split())
        evals, evecs = np.linalg.eigh(rho.matrix)
        keep = evals > 1e-12
        eigen = Ensemble(evals[keep] / evals[keep].sum(),
                         tuple(PureState((2, 2), evecs[:, j])
                               for j in np.flatnonzero(keep)))
        res = eof_optimize(rho, ensemble_size=4, restarts=3,
                           seed_ensembles=[eigen], rng=rng.split())
        assert [r.kind for r in res.starts] == ["warm"] + ["random"] * 3
        assert res.restarts_used == len(res.starts) == 4
        assert res.value_history == tuple(r.value for r in res.starts)
        assert sum(r.evaluations for r in res.starts) == len(calls)
        for r in res.starts:
            assert isinstance(r, StartRecord)
            assert r.outcome == "converged"
            # one evaluation at the start, then at least one per iteration
            assert 1 <= r.iterations < r.evaluations
        assert res.converged
        assert json.loads(dumps_canonical(res))["starts"] == [
            {"kind": r.kind, "iterations": r.iterations,
             "evaluations": r.evaluations, "value": r.value,
             "outcome": r.outcome} for r in res.starts]

    def test_only_the_iteration_cap_makes_a_run_unconverged(self, monkeypatch):
        rng = RandomSource(131)
        rho = sample_density_matrix((2, 2), 3, rng.split())
        opt = rng.split()
        res = eof_optimize(rho, ensemble_size=5, restarts=4, rng=opt.replay())
        assert [r.outcome for r in res.starts] == ["converged"] * 4
        assert res.converged
        monkeypatch.setattr(entcost.eof, "MAX_ITERATIONS", 1)
        capped = eof_optimize(rho, ensemble_size=5, restarts=4,
                              rng=opt.replay())
        assert [r.outcome for r in capped.starts] == ["iteration_cap"] * 4
        assert [r.iterations for r in capped.starts] == [1] * 4
        assert not capped.converged


class TestRoundRobin:
    """The circle-method schedule of row pairs."""

    @pytest.mark.parametrize("L", range(2, 27))
    def test_every_pair_once_in_disjoint_rounds(self, L):
        rounds = _rounds(L)
        assert len(rounds) == (L - 1 if L % 2 == 0 else L)
        pairs = [p for r in rounds for p in r]
        assert sorted(pairs) == [(a, b) for a in range(L) for b in range(a + 1, L)]
        for r in rounds:
            rows = [i for p in r for i in p]
            assert len(rows) == len(set(rows))


class TestContinuity:
    def test_eta_values(self):
        assert eta(0.0) == 0.0
        assert eta(0.5) == pytest.approx(0.5)
        assert eta(0.1) == pytest.approx(0.33219280948873625, abs=1e-12)

    def test_identical_states_trivially_hold(self):
        rho = sample_density_matrix((2, 2), 2, RandomSource(73))
        e = eof_two_qubit_closed_form(rho)
        chk = continuity_bound(rho, rho, e, e)
        assert chk.observed_gap == 0.0
        assert chk.holds

    def test_bound_formula(self):
        rng = RandomSource(79)
        a = sample_density_matrix((2, 2), 2, rng.split())
        b = sample_density_matrix((2, 2), 3, rng.split())
        chk = continuity_bound(a, b, 0.0, 0.0)
        expect = 5.0 * chk.distance * 2.0 + 2.0 * eta(chk.distance)
        assert chk.bound == pytest.approx(expect, abs=1e-12)

    def test_dims_mismatch(self):
        a = QuantumState((2, 2), np.eye(4) / 4)
        b = QuantumState((2, 3), np.eye(6) / 6)
        with pytest.raises(DimensionError):
            continuity_bound(a, b, 0.0, 0.0)


class TestLocc:
    def test_completeness_enforced(self):
        a = 0.5 * np.eye(2)
        with pytest.raises(StateValidationError):
            LoccChannel("local-unitary", ((a, np.eye(2)),))

    def test_identity_channel_is_noop(self):
        ch = LoccChannel("local-unitary", ((np.eye(2), np.eye(2)),))
        rho = sample_density_matrix((2, 2), 3, RandomSource(83))
        out = apply_locc(ch, rho)
        assert np.abs(out.matrix - rho.matrix).max() < 1e-12

    def test_local_unitaries_preserve_eof(self):
        rng = RandomSource(89)
        for _ in range(10):
            rho = sample_density_matrix((2, 2), 2, rng.split())
            ch = sample_locc((2, 2), "local-unitary", rng.split())
            out = apply_locc(ch, rho)
            assert eof_two_qubit_closed_form(out) == pytest.approx(
                eof_two_qubit_closed_form(rho), abs=1e-10)

    def test_double_measure_prepare_breaks_entanglement(self):
        rng = RandomSource(97)
        for _ in range(5):
            ch = sample_locc((2, 2), "measure-prepare-both", rng.split())
            out = apply_locc(ch, singlet().to_state())
            assert eof_two_qubit_closed_form(out) <= 1e-9

    def test_sample_locc_deterministic(self):
        c1 = sample_locc((2, 2), "measure-prepare", RandomSource(3))
        c2 = sample_locc((2, 2), "measure-prepare", RandomSource(3))
        for (a1, b1), (a2, b2) in zip(c1.elements, c2.elements):
            assert np.array_equal(a1, a2)
            assert np.array_equal(b1, b2)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            sample_locc((2, 2), "teleport", RandomSource(0))

    def test_monotonicity_on_random_channels(self):
        rng = RandomSource(101)
        for i in range(20):
            rho = sample_density_matrix((2, 2), 1 + i % 4, rng.split())
            kind = LOCC_KINDS[i % len(LOCC_KINDS)]
            ch = sample_locc((2, 2), kind, rng.split())
            rep = check_monotonicity(rho, ch)
            assert rep.holds, (i, kind, rep)
            assert rep.tolerance == 1e-9

    def test_monotonicity_beyond_two_qubits_uses_optimizer(self):
        rng = RandomSource(103)
        rho = sample_density_matrix((2, 3), 2, rng.split())
        ch = sample_locc((2, 3), "local-unitary", rng.split())
        rep = check_monotonicity(rho, ch, rng=rng.split())
        assert rep.tolerance == pytest.approx(1e-3)
        assert rep.holds


def test_entanglement_additive_for_product_pure_states():
    rng = RandomSource(107)
    p1 = sample_pure_state((2, 2), rng.split())
    p2 = sample_pure_state((2, 2), rng.split())
    joint = tensor_pure(p1, p2)
    assert pure_entanglement(joint) == pytest.approx(
        pure_entanglement(p1) + pure_entanglement(p2), abs=1e-9)
    # and the binary entropy agrees on a Schmidt pair (0.9, 0.1)
    v = np.zeros(4, dtype=complex)
    v[0], v[3] = np.sqrt(0.9), np.sqrt(0.1)
    assert pure_entanglement(PureState((2, 2), v)) == pytest.approx(
        binary_entropy(0.9), abs=1e-12)
