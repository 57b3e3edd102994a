import json
import math

import numpy as np
import pytest

import entcost.eof
from entcost.eof import (
    LOCC_KINDS,
    LoccChannel,
    StartRecord,
    _jacobi_refine,
    _pair_objective,
    _qubit_gram_entropy,
    _round_searches,
    _rounds,
    _row_blocks,
    _spectrum_entropy,
    apply_locc,
    check_monotonicity,
    concurrence,
    continuity_bound,
    eof_optimize,
    eof_two_qubit_closed_form,
    eta,
    minimize_scalar,
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


def _random_start(rho, rows, seed):
    """Rows of a Haar-isometry start, as eof_optimize builds them."""
    evals, evecs = np.linalg.eigh(rho.matrix)
    keep = evals > 1e-12
    base = (evecs[:, keep] * np.sqrt(evals[keep])).T
    g = RandomSource(seed).gen
    x = (g.standard_normal((rows, base.shape[0]))
         + 1j * g.standard_normal((rows, base.shape[0])))
    return np.linalg.qr(x)[0] @ base


class TestRacedStarts:
    """A start is stopped only once its projected limit cannot beat the
    incumbent; the first start always runs to the end."""

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_start_stops_where_its_projected_limit_cannot_win(self, seed):
        rho = sample_density_matrix((2, 2), 3, RandomSource(seed))
        W = _random_start(rho, 5, 100 + seed)
        free, _, outcome, (cycles, _, _) = _jacobi_refine(
            W.copy(), 2, 2, 1e-6, 500)
        assert outcome == "converged" and cycles >= 4
        # the total after each sweep: a run capped at k sweeps repeats the
        # first k sweeps of the free run
        totals = [_jacobi_refine(W.copy(), 2, 2, 1e-6, k)[0]
                  for k in range(cycles + 1)]
        gains = [a - b for a, b in zip(totals, totals[1:])]
        # the limit projected after sweep c >= 3 when its gain g is below
        # the gain before, q their ratio: total - g q / (1 - q)
        projected = {}
        for c in range(3, cycles):
            g, prev = gains[c - 1], gains[c - 2]
            if 0.0 <= g < prev:
                projected[c] = totals[c] - g * (g / prev) / (1 - g / prev)
        # incumbents around the limit, and 5e-7 above each projection, where
        # only the improvement_tol margin of 1e-6 stops the start
        incumbents = [free + m for m in (-1e-3, -1e-5, 2e-6, 1e-5, 1e-3)]
        incumbents += [p + 5e-7 for p in projected.values()]
        for incumbent in incumbents:
            expect = min((c for c, p in projected.items()
                          if p > incumbent - 1e-6), default=cycles)
            total, rows, outcome, (stopped, _, _) = _jacobi_refine(
                W.copy(), 2, 2, 1e-6, 500, incumbent=incumbent)
            assert stopped == expect, incumbent - free
            assert outcome == ("converged" if expect == cycles else "abandoned")
            # a stopped start keeps the rows and the value it reached
            assert total == totals[stopped]
            assert float(_entropy_rows(rows).sum()) == pytest.approx(total, abs=1e-12)
        # an incumbent far below the limit stops the start early; one far
        # above never does
        assert _jacobi_refine(W.copy(), 2, 2, 1e-6, 500, free - 1e-3)[3][0] < cycles
        assert _jacobi_refine(W.copy(), 2, 2, 1e-6, 500, free + 1e-3)[0] == free

    def test_far_above_incumbent_rarely_stops_a_start(self):
        # an incumbent 1e-3 above a start's own limit should never stop it;
        # projecting from the second sweep's gain ratio stopped 10 of these
        # 40 starts, 9 of them at sweep 2
        stopped = 0
        for seed in range(1, 41):
            rho = sample_density_matrix((2, 2), 3, RandomSource(seed))
            W = _random_start(rho, 5, 100 + seed)
            free = _jacobi_refine(W.copy(), 2, 2, 1e-6, 500)[0]
            outcome = _jacobi_refine(W.copy(), 2, 2, 1e-6, 500, free + 1e-3)[2]
            stopped += outcome == "abandoned"
        assert stopped <= 5

    def test_abandoned_start_can_still_win(self):
        # found by a seed scan (the first of seeds 0-199 where the best
        # start was abandoned): the race stops the last start 1.5e-7 below
        # the first start's converged value, and the stopped start wins
        rng = RandomSource(57)
        rho = sample_density_matrix((2, 2), 3, rng.split())
        res = eof_optimize(rho, ensemble_size=5, restarts=3, rng=rng.split())
        best = min(res.starts, key=lambda r: r.value)
        assert best.outcome == "abandoned"
        assert res.starts[0].value - best.value > 1e-8
        assert res.value == pytest.approx(best.value, abs=1e-12)

    def test_first_start_always_runs_to_the_end(self):
        rng = RandomSource(113)
        abandoned = 0
        for i in range(12):
            rho = sample_density_matrix((2, 2), 2 + i % 3, rng.split())
            res = eof_optimize(rho, ensemble_size=5, restarts=3,
                               rng=rng.split())
            assert res.starts[0].outcome != "abandoned"
            abandoned += sum(r.outcome == "abandoned" for r in res.starts)
        assert abandoned > 0

    def test_records_count_every_start(self, monkeypatch):
        # every line search is one Brent coroutine
        searches = []
        search = entcost.eof._brent
        monkeypatch.setattr(entcost.eof, "_brent",
                            lambda *a, **k: searches.append(1) or search(*a, **k))
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
        assert sum(r.line_searches for r in res.starts) == len(searches)
        for r in res.starts:
            assert isinstance(r, StartRecord)
            assert r.outcome in ("converged", "abandoned", "cycle_cap")
            assert 0 <= r.accepted_rotations <= r.line_searches
            assert r.line_searches <= r.cycles * 2 * 6
        assert res.converged
        assert json.loads(dumps_canonical(res))["starts"] == [
            {"kind": r.kind, "cycles": r.cycles, "line_searches": r.line_searches,
             "accepted_rotations": r.accepted_rotations, "value": r.value,
             "outcome": r.outcome} for r in res.starts]

    def test_only_the_cycle_cap_makes_a_run_unconverged(self):
        rng = RandomSource(131)
        rho = sample_density_matrix((2, 2), 3, rng.split())
        opt = rng.split()
        res = eof_optimize(rho, ensemble_size=5, restarts=4, rng=opt.replay())
        assert "abandoned" in [r.outcome for r in res.starts]
        assert "cycle_cap" not in [r.outcome for r in res.starts]
        assert res.converged
        capped = eof_optimize(rho, ensemble_size=5, restarts=4,
                              rng=opt.replay(), max_cycles=1)
        assert [r.outcome for r in capped.starts] == ["cycle_cap"] * 4
        assert [r.cycles for r in capped.starts] == [1] * 4
        assert not capped.converged


def _entropy_rows(rows):
    return np.array([pure_entanglement(PureState((2, 2), w / np.linalg.norm(w)))
                     * float(np.vdot(w, w).real) for w in rows])


def _seeded_pair_objective(dims, seed, phase, second_row_scale=1.0):
    g = np.random.default_rng(seed)
    d = dims[0] * dims[1]
    W = g.standard_normal((2, d)) + 1j * g.standard_normal((2, d))
    W[1] *= second_row_scale
    return _pair_objective(*_row_blocks(W, *dims), phase)


# id -> (objective, maxiter, evaluations expected or None)
LINE_SEARCH_CASES = {
    f"pair{dims}-{name}-seed{seed}": (_seeded_pair_objective(dims, seed, phase),
                                      40, None)
    for dims in [(2, 2), (4, 4)]
    for name, phase in [("real", 1.0), ("phased", 1.0j)]
    for seed in range(3)
}
LINE_SEARCH_CASES.update({
    "near-zero-second-row": (_seeded_pair_objective((2, 2), 5, 1.0j, 1e-12),
                             40, None),
    "constant": (lambda theta: 1.0, 40, None),
    # converges after 11 evaluations at maxiter 40; stopped at 8
    "hits-maxiter": (_seeded_pair_objective((2, 2), 6, 1.0), 8, 8),
})


class TestLineSearch:
    """The bounded Brent line search takes scipy's iterates exactly."""

    @pytest.mark.parametrize("case", list(LINE_SEARCH_CASES))
    def test_matches_scipy_bounded(self, case):
        scipy_optimize = pytest.importorskip("scipy.optimize")
        func, maxiter, evaluations = LINE_SEARCH_CASES[case]
        bounds = (-np.pi / 2.0, np.pi / 2.0)
        ours, theirs = [], []
        res = minimize_scalar(lambda t: ours.append(t) or func(t), bounds,
                              xatol=1e-5, maxiter=maxiter)
        ref = scipy_optimize.minimize_scalar(
            lambda t: theirs.append(t) or func(t), bounds=bounds,
            method="bounded", options={"xatol": 1e-5, "maxiter": maxiter})
        assert ours == theirs
        assert res.x == ref.x and res.fun == ref.fun
        assert res.fun == func(res.x)
        if evaluations is not None:
            assert len(ours) == evaluations

    def test_stays_within_bounds(self):
        # needs no scipy
        res = minimize_scalar(lambda t: (t - 5.0) ** 2, (-1.0, 2.0),
                              xatol=1e-5, maxiter=500)
        assert 2.0 - 1e-4 < res.x <= 2.0
        assert res.fun == pytest.approx(9.0, abs=1e-3)
        res = minimize_scalar(math.cos, (0.0, 2.0 * math.pi), xatol=1e-8,
                              maxiter=500)
        assert res.x == pytest.approx(math.pi, abs=1e-6)


def _pair_rows(dims, rows, seed):
    g = np.random.default_rng(seed)
    d = dims[0] * dims[1]
    return g.standard_normal((rows, d)) + 1j * g.standard_normal((rows, d))


class TestRoundRobin:
    """Sweeps run the pairs of rows round by round; the line searches of one
    round's disjoint pairs run in lockstep."""

    @pytest.mark.parametrize("L", range(2, 27))
    def test_every_pair_once_in_disjoint_rounds(self, L):
        rounds = _rounds(L)
        assert len(rounds) == (L - 1 if L % 2 == 0 else L)
        pairs = [p for r in rounds for p in r]
        assert sorted(pairs) == [(a, b) for a in range(L) for b in range(a + 1, L)]
        for r in rounds:
            rows = [i for p in r for i in p]
            assert len(rows) == len(set(rows))

    @pytest.mark.parametrize("dims", [(2, 2), (4, 4)], ids=str)
    @pytest.mark.parametrize("phase", [1.0, 1.0j], ids=["real", "phased"])
    def test_lanes_match_the_scalar_search(self, dims, phase):
        W = _pair_rows(dims, 8, 11)
        pairs = np.array([(0, 7), (6, 1), (2, 5), (3, 4)])
        lanes = _round_searches(W, pairs, *dims, phase)
        for (i, j), lane in zip(pairs, lanes):
            scalar = minimize_scalar(
                _pair_objective(*_row_blocks(W[[i, j]], *dims), phase),
                (-np.pi / 2.0, np.pi / 2.0), xatol=1e-5, maxiter=40)
            assert lane.x == scalar.x and lane.fun == scalar.fun

    def test_one_eigvalsh_call_per_lockstep_step(self, monkeypatch):
        W = _pair_rows((4, 4), 8, 13)
        pairs = np.array([(0, 4), (1, 5), (2, 6), (3, 7)])
        steps = []
        for i, j in pairs:
            objective = _pair_objective(*_row_blocks(W[[i, j]], 4, 4), 1.0j)
            points = []
            minimize_scalar(lambda t: points.append(t) or objective(t),
                            (-np.pi / 2.0, np.pi / 2.0), xatol=1e-5, maxiter=40)
            steps.append(len(points))
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda g: calls.append(g.shape) or eigvalsh(g))
        _round_searches(W, pairs, 4, 4, 1.0j)
        assert len(set(steps)) > 1
        assert len(calls) == max(steps) < sum(steps)
        assert calls[0] == (4, 2, 4, 4)
        assert sum(shape[0] for shape in calls) == sum(steps)


def test_qubit_entropy_is_the_unrolled_spectrum_entropy():
    # same operations in the same order, so equal bit for bit, also where
    # the smaller eigenvalue crosses the 1e-18 noise floor
    g = np.random.default_rng(7)
    for scale in (1.0, 1e-6, 1e-14, 1e-17, 1e-19):
        for _ in range(100):
            x, y, z = (g.standard_normal(3) * scale).tolist()
            r = math.sqrt(x * x + y * y + z * z)
            for t in (r, 2.0 * r, r + 1e-18, r + 3e-18, r + scale * g.random()):
                assert _qubit_gram_entropy(t, x, y, z) == _spectrum_entropy(
                    ((t - r) / 2.0, (t + r) / 2.0))


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
