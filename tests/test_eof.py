import json

import numpy as np
import pytest

import entcost.eof
from entcost.eof import (
    LOCC_KINDS,
    LoccChannel,
    StartRecord,
    _eigen_rows,
    _inner,
    _minimize_rows,
    _objective,
    _pauli_forms,
    _refine,
    _retract,
    _rounds,
    _tangent,
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
    tensor_matrix,
    tensor_pure,
    tensor_rows,
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

    @pytest.mark.parametrize("seed", range(4))
    def test_flagged_mixture_matches_its_exact_value(self, seed):
        # rho = sum_i p_i rho_i (x) |i><i|_A' (x) |i><i|_B' has the exact
        # E_f = sum_i p_i E_f(rho_i): dims (6, 6), rank 6, L r d = 7776
        rng = RandomSource(100 + seed)
        rhos = [sample_density_matrix((2, 2), 2, rng.split()) for _ in range(3)]
        p = rng.gen.dirichlet(np.ones(3))
        matrix = 0.0
        for i, (p_i, rho_i) in enumerate(zip(p, rhos)):
            flag = np.zeros((9, 9))
            flag[4 * i, 4 * i] = 1.0
            matrix = matrix + p_i * tensor_matrix(rho_i.matrix, (2, 2), flag, (3, 3))[0]
        exact = sum(p_i * eof_two_qubit_closed_form(rho_i)
                    for p_i, rho_i in zip(p, rhos))
        res = eof_optimize(QuantumState((6, 6), matrix), restarts=3,
                           rng=RandomSource(seed))
        assert res.value >= exact - 1e-12
        # the one stack of three starts ended 1.6e-7 to 1.4e-5 above it
        assert res.value - exact < 2e-5

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
        # the eigen-ensemble as a seed, padded to four rows: the warm
        # isometry [I; 0]
        rng = RandomSource(61)
        rho = sample_density_matrix((2, 2), 2, rng.split())
        evals, evecs = np.linalg.eigh(rho.matrix)
        keep = evals > 1e-12
        eigen = Ensemble(evals[keep] / evals[keep].sum(),
                         tuple(PureState((2, 2), evecs[:, j])
                               for j in np.flatnonzero(keep)))
        seed_value = float(np.dot(eigen.weights,
                                  [pure_entanglement(s) for s in eigen.states]))
        B = _eigen_rows(rho)
        value, _, starts = _minimize_rows(B, rho.dims, None, 0, rng.split(),
                                          warm=np.eye(4, len(B)))
        assert [r.kind for r in starts] == ["warm"]
        assert value <= seed_value + 1e-9

    def test_stationary_warm_start_stops_within_a_few_evaluations(self):
        # the Kronecker square of a converged single-copy isometry is
        # stationary to rounding: once the slope is within 16 ulps of the
        # value, no trial can show a decrease, and the refine stops
        rho = sample_density_matrix((2, 2), 2, RandomSource(1))
        B = _eigen_rows(rho)
        value1, U, _ = _minimize_rows(B, rho.dims, None, 1, RandomSource(0))
        B2, dims2 = tensor_rows(B, rho.dims, B, rho.dims)
        value2, _, (warm,) = _minimize_rows(B2, dims2, None, 0, RandomSource(0),
                                            warm=np.kron(U, U))
        assert warm.outcome == "converged" and warm.evaluations <= 2
        assert value2 == pytest.approx(2 * value1, abs=1e-12)

    def test_size_below_rank_rejected(self):
        rho = QuantumState((2, 2), np.eye(4) / 4)
        with pytest.raises(ValueError):
            eof_optimize(rho, ensemble_size=2, rng=RandomSource(0))

    def test_needs_at_least_one_start(self):
        rho = QuantumState((2, 2), np.eye(4) / 4)
        with pytest.raises(ValueError):
            eof_optimize(rho, restarts=0, rng=RandomSource(0))

    @pytest.mark.parametrize("restarts, admitted", [(181, True), (182, False),
                                                    (20000, False)])
    def test_random_starts_are_capped(self, monkeypatch, restarts, admitted):
        # restarts sqrt(L r d) against START_CAP = 1024, before any refine:
        # a rank-2 two-qubit state has L r d = 4 * 2 * 4, so 181 starts fit
        class Refined(Exception):
            pass

        def refine(*args, **kwargs):
            raise Refined

        monkeypatch.setattr(entcost.eof, "_refine", refine)
        rho = sample_density_matrix((2, 2), 2, RandomSource(1))
        with pytest.raises(Refined if admitted else ValueError,
                           match=None if admitted else "random-start work"):
            eof_optimize(rho, restarts=restarts, rng=RandomSource(0))

    def test_deterministic_given_seed(self):
        rho = sample_density_matrix((2, 2), 2, RandomSource(71))
        r1 = eof_optimize(rho, ensemble_size=4, restarts=2, rng=RandomSource(5))
        r2 = eof_optimize(rho, ensemble_size=4, restarts=2, rng=RandomSource(5))
        assert r1.value == r2.value
        assert r1.value_history == r2.value_history


class TestStartRecords:
    """The warm start is refined alone and the random starts together, as
    one stack of isometries; each start leaves one record, and an objective
    call evaluates every start of its stack once, so the records'
    evaluations add up to the starts held, summed over the calls."""

    @staticmethod
    def count_starts_per_call(monkeypatch):
        """The number of starts each objective call holds, U being S x L x r."""
        calls = []
        objective = entcost.eof._objective
        monkeypatch.setattr(
            entcost.eof, "_objective",
            lambda U, *a: calls.append(len(U)) or objective(U, *a))
        return calls

    def test_records_count_every_start(self, monkeypatch):
        calls = self.count_starts_per_call(monkeypatch)
        rng = RandomSource(127)
        rho = sample_density_matrix((2, 2), 2, rng.split())
        opt = rng.split()
        res = eof_optimize(rho, restarts=3, rng=opt)
        assert [r.kind for r in res.starts] == ["random"] * 3
        assert res.restarts_used == len(res.starts) == 3
        assert res.value_history == tuple(r.value for r in res.starts)
        assert sum(r.evaluations for r in res.starts) == sum(calls)
        assert max(calls) == 3
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
        # they are the records of _minimize_rows on the eigen rows
        value, _, starts = _minimize_rows(_eigen_rows(rho), rho.dims, None, 3,
                                          opt.replay())
        assert starts == res.starts and value in res.value_history

    def test_a_warm_start_is_refined_without_random_starts(self, monkeypatch):
        calls = self.count_starts_per_call(monkeypatch)
        rho = sample_density_matrix((2, 2), 2, RandomSource(127))
        B = _eigen_rows(rho)
        with pytest.raises(ValueError, match="alone"):
            _minimize_rows(B, rho.dims, None, 1, RandomSource(0),
                           warm=np.eye(4, len(B)))
        assert calls == []
        _, _, starts = _minimize_rows(B, rho.dims, None, 0, RandomSource(0),
                                      warm=np.eye(4, len(B)))
        assert [r.kind for r in starts] == ["warm"]
        assert set(calls) == {1} and starts[0].evaluations == len(calls)

    def test_large_starts_are_refined_as_one_stack(self, monkeypatch):
        calls = self.count_starts_per_call(monkeypatch)
        # full rank at (2, 3): L r d = 36 * 6 * 6 = 1296
        rho = sample_density_matrix((2, 3), 6, RandomSource(137))
        res = eof_optimize(rho, restarts=2, rng=RandomSource(139))
        assert [r.kind for r in res.starts] == ["random"] * 2
        assert set(calls) == {2}
        assert [r.evaluations for r in res.starts] == [len(calls)] * 2

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


class TestLbfgs:
    """The L-BFGS refine: its unit step is usually accepted at the first
    trial, a direction that does not descend falls back to -grad, and a
    later start must win by more than rounding."""

    def test_about_one_evaluation_per_iteration(self):
        rho = sample_density_matrix((2, 2), 3, RandomSource(131))
        res = eof_optimize(rho, ensemble_size=5, restarts=3, rng=RandomSource(131))
        for r in res.starts:
            assert r.evaluations <= 1.3 * r.iterations + 2

    def test_ascent_direction_falls_back_to_the_gradient(self, monkeypatch):
        # at the third iteration the two-loop recursion is handed the pair
        # s = grad, y = -grad, with s.y < 0, which the refine never stores:
        # the direction it gives is +grad
        rho = sample_density_matrix((2, 3), 3, RandomSource(157))
        B = _eigen_rows(rho)
        g = np.random.default_rng(157)
        U0 = np.linalg.qr(g.standard_normal((6, 3)) + 1j * g.standard_normal((6, 3)))[0]
        direction = entcost.eof._lbfgs_direction
        stored, values = [], []

        def forced(U, grad, pairs):
            stored.append(len(pairs))
            values.append(_objective(U, B, *rho.dims)[0])
            if len(stored) == 3:
                pairs = [(grad, -grad, -_inner(grad, grad))]
                ascent = direction(U, grad, pairs)
                assert _inner(grad, ascent) > 0.0
                return ascent
            return direction(U, grad, pairs)

        monkeypatch.setattr(entcost.eof, "_lbfgs_direction", forced)
        (value,), _, outcome, (iterations, _) = _refine(U0[None], B, *rho.dims, 1e-6)
        assert outcome == "converged" and iterations > 3
        # the memory was cleared, then the -grad step stored one pair
        assert stored[:4] == [0, 1, 2, 1]
        assert values[3] < values[2]
        assert value < values[0]

    def test_a_later_start_needs_more_than_rounding_to_win(self, monkeypatch):
        # two random starts refined together end one ulp apart, and the
        # first keeps its ensemble; 1e-12 lower is a win
        rho = sample_density_matrix((2, 2), 2, RandomSource(163))
        B = _eigen_rows(rho)
        joint = []
        for second, winner in ((np.nextafter(0.3, 0.0), 0), (0.3 - 1e-12, 1)):
            monkeypatch.setattr(
                entcost.eof, "_refine", lambda U, *a, second=second: joint.append(U)
                or ([0.3, second], U, "converged", (0, 1)))
            value, U, starts = _minimize_rows(B, rho.dims, 4, 2, RandomSource(167))
            assert tuple(r.value for r in starts) == (0.3, second)
            assert value == (0.3, second)[winner]
            assert np.array_equal(U, joint[-1][winner])


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


class TestIsometryStack:
    """Starts stacked as U = [U_1, U_2, U_3], S x L x r, give each start its
    own objective, on the `eigh` path and on the Pauli one (k = 2 at (2, 3)),
    projection and retraction, and `_refine` each start's own value."""

    @staticmethod
    def stack(seed, L=7):
        rho = sample_density_matrix((2, 3), 3, RandomSource(seed))
        B = _eigen_rows(rho)
        g = np.random.default_rng(seed)

        def draw(*shape):
            return g.standard_normal(shape) + 1j * g.standard_normal(shape)

        return rho, B, np.linalg.qr(draw(3, L, len(B)))[0], draw

    def test_three_blocks_match_the_blocks_one_by_one(self):
        rho, B, U, draw = self.stack(151)
        X = draw(*U.shape)
        D = _tangent(U, X)
        assert np.allclose(D, [_tangent(U_s[None], X_s[None])[0]
                               for U_s, X_s in zip(U, X)], rtol=0.0, atol=1e-14)
        Y = U + 0.3 * D
        Q = _retract(Y)
        assert np.allclose(Q, [_retract(Y_s[None])[0] for Y_s in Y],
                           rtol=0.0, atol=1e-14)
        assert np.allclose(np.swapaxes(Q, 1, 2).conj() @ Q, np.eye(len(B)),
                           rtol=0.0, atol=1e-14)
        for forms in (None, _pauli_forms(B, *rho.dims)):
            value, values, grad = _objective(U, B, *rho.dims, forms)
            parts = [_objective(U_s[None], B, *rho.dims, forms) for U_s in U]
            assert values == pytest.approx([v for v, _, _ in parts], rel=0.0,
                                           abs=1e-14)
            assert value == pytest.approx(sum(values), rel=0.0, abs=1e-14)
            for (v, (v_s,), _) in parts:
                assert v_s == v
            assert np.allclose(grad, [g_s[0] for _, _, g_s in parts],
                               rtol=0.0, atol=1e-14)

    def test_refined_values_are_the_returned_starts_values(self):
        rho, B, U, _ = self.stack(173)
        values, U, outcome, _ = _refine(U, B, *rho.dims, 1e-6)
        assert outcome == "converged" and len(values) == len(U) == 3
        for value, U_s in zip(values, U):
            assert value == pytest.approx(_objective(U_s[None], B, *rho.dims)[0],
                                          rel=0.0, abs=1e-14)


class TestPauliPath:
    """At k = min(dA, dB) = 2 the refine evaluates each row from its Pauli
    components: it agrees with the `eigh` path, which stays the reference,
    and takes no `eigh`."""

    @staticmethod
    def rows(dims, seed):
        """Two generic rows, a zero row, a product row, a Bell row (n = 0),
        weights summing to one.  The product row is e_0 on the two-level
        factor, so its Gram block is exactly rank 1 and both paths take
        their l- = 0 branch; off the axes its l- is rounding, where the two
        agree only to about eps |log2 eps|."""
        dA, dB = dims
        g = np.random.default_rng(seed)

        def draw(size):
            return g.standard_normal(size) + 1j * g.standard_normal(size)

        e0 = lambda d: np.eye(d, 1).ravel()
        product = (np.kron(draw(dA), e0(dB)) if dA > dB
                   else np.kron(e0(dA), draw(dB)))
        bell = np.zeros((dA, dB), dtype=complex)
        bell[0, 0] = bell[1, 1] = 1.0
        rows = np.stack([draw(dA * dB), draw(dA * dB), np.zeros(dA * dB),
                         product, bell.ravel()])
        weights = np.array([0.3, 0.2, 0.0, 0.3, 0.2])
        norms = np.maximum(np.linalg.norm(rows, axis=1), 1e-300)
        return rows * (np.sqrt(weights) / norms)[:, None]

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (4, 2)], ids=str)
    def test_pauli_path_matches_the_eigh_path(self, dims):
        # three starts: the rows as they are, permuted with phases, and a
        # random unitary mixing them
        B = self.rows(dims, 211)
        g = np.random.default_rng(223)
        phases = np.exp(2j * np.pi * g.random(5))
        mixed = np.linalg.qr(g.standard_normal((5, 5)) + 1j * g.standard_normal((5, 5)))[0]
        U = np.stack([np.eye(5, dtype=complex), (phases * np.eye(5))[[2, 4, 0, 1, 3]],
                      mixed])
        value, values, grad = _objective(U, B, *dims)
        p_value, p_values, p_grad = _objective(U, B, *dims, _pauli_forms(B, *dims))
        assert p_value == pytest.approx(value, rel=0.0, abs=1e-14)
        assert p_values == pytest.approx(values, rel=0.0, abs=1e-14)
        assert np.abs(p_grad - grad).max() <= 1e-14
        # alone, the zero, product and Bell rows add 0, 0 and the Bell row's
        # weight 0.2; the first two, of rank below 2, get gradient 0
        one = _objective(np.eye(3, dtype=complex)[None], B[2:], *dims,
                         _pauli_forms(B[2:], *dims))
        assert one[0] == pytest.approx(0.2, rel=0.0, abs=1e-15)
        assert np.abs(one[2][0, :2]).max() == 0.0

    @pytest.mark.parametrize("dims", [(2, 2), (3, 2), (3, 3)], ids=str)
    def test_two_level_blocks_take_no_eigh(self, monkeypatch, dims):
        # `_eigen_rows` takes one eigh; past k = 2 each joint evaluation
        # of the two starts takes one more
        rho = sample_density_matrix(dims, 3, RandomSource(227))
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda a, *args: calls.append(a.shape) or eigh(a, *args))
        res = eof_optimize(rho, ensemble_size=5, restarts=2, rng=RandomSource(229))
        assert len(calls) == 1 + (min(dims) > 2) * res.starts[0].evaluations

    @pytest.mark.parametrize("dims, small", [((2, 2), True), ((2, 3), False)], ids=str)
    def test_random_starts_are_drawn_start_by_start(self, monkeypatch, dims, small):
        # one stacked draw and QR give each start the isometry that its own
        # draw, real parts then imaginary ones, gives
        refined = []
        monkeypatch.setattr(
            entcost.eof, "_refine", lambda U, *a: refined.append(U)
            or ([0.5] * len(U), U, "converged", (0, 1)))
        rho = sample_density_matrix(dims, 3 if small else 6, RandomSource(233))
        B = _eigen_rows(rho)
        L = 5 if small else 36
        _minimize_rows(B, dims, L, 3, RandomSource(239))
        g = RandomSource(239).gen
        expect = [np.linalg.qr(g.standard_normal((L, len(B)))
                               + 1j * g.standard_normal((L, len(B))))[0]
                  for _ in range(3)]
        assert [len(U) for U in refined] == [3]
        assert np.array_equal(np.concatenate(refined), np.stack(expect))

    @pytest.mark.parametrize("dims, rank", [((2, 2), 3), ((2, 3), 4), ((4, 4), 5)],
                             ids=str)
    def test_reported_value_is_the_members_entanglement(self, dims, rank):
        rho = sample_density_matrix(dims, rank, RandomSource(241))
        res = eof_optimize(rho, restarts=1, rng=RandomSource(251))
        assert res.value == float(np.dot(res.ensemble.weights,
                                         [pure_entanglement(s)
                                          for s in res.ensemble.states]))


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
