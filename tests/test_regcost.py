import json

import numpy as np
import pytest

import entcost.eof
import entcost.qcore
import entcost.regcost
from entcost.eof import (
    DEFAULT_IMPROVEMENT_TOL,
    _EPS,
    _eigen_rows,
    _ensemble_from_rows,
    _inner,
    _minimize_rows,
    _objective,
    _tangent,
    eof_two_qubit_closed_form,
)
from entcost.qcore import (
    Ensemble,
    PureState,
    RandomSource,
    basis_pure,
    binary_entropy,
    ensemble_average,
    sample_density_matrix,
    singlet,
    tensor_power,
    tensor_product,
    tensor_pure,
    tensor_rows,
)
from entcost.regcost import (
    LIMIT_CAVEAT,
    cost_bracket,
    fekete_check,
    regularized_sequence,
)
from entcost.serialize import dumps_canonical


def partially_entangled():
    v = np.zeros(4, dtype=complex)
    v[0], v[3] = np.sqrt(0.9), np.sqrt(0.1)
    return PureState((2, 2), v)


def ensemble_rows(ens):
    """Rows sqrt(p_i) psi_i of an ensemble."""
    return np.stack([np.sqrt(p) * s.vector for p, s in zip(ens.weights, ens.states)])


def row_mixture(rows):
    """sum_i |w_i><w_i| over the rows w_i."""
    return rows.T @ rows.conj()


def regularize_n2_corpus():
    """(rho, CLI seed) of the 26 items of the regularize-n2 benchmark corpus
    at seed 1."""
    rng = RandomSource(1)
    cli_seeds = rng.split().gen.integers(0, 2 ** 31, size=26).tolist()
    return [(sample_density_matrix((2, 2), 2, rng.split()), seed)
            for seed in cli_seeds]


def test_product_ensemble_realizes_tensor_product():
    # the product ensemble's rows are the tensor_rows of the two ensembles' rows
    e1 = Ensemble(np.array([0.6, 0.4]),
                  (basis_pure((2, 2), 0, 0), singlet()))
    e2 = Ensemble(np.array([1.0]), (partially_entangled(),))
    rows, dims = tensor_rows(ensemble_rows(e1), e1.dims, ensemble_rows(e2), e2.dims)
    assert rows.shape == (2, 16) and dims == (4, 4)
    expect = tensor_product(ensemble_average(e1), ensemble_average(e2))
    assert np.abs(row_mixture(rows) - expect.matrix).max() < 1e-12


@pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
def test_kronecker_rows_realize_tensor_power(dims):
    # B_n = B_(n-1) (x) B_1 holds the rows of rho^(x)n, the trace's input
    rho = sample_density_matrix(dims, 3, RandomSource(7))
    B1 = _eigen_rows(rho)
    B, dims_n = B1, dims
    for n in (1, 2, 3):
        if n > 1:
            B, dims_n = tensor_rows(B, dims_n, B1, dims)
        assert B.shape == (3 ** n, (dims[0] * dims[1]) ** n)
        assert dims_n == (dims[0] ** n, dims[1] ** n)
        expect = tensor_power(rho, n).matrix
        assert np.abs(row_mixture(B) - expect).max() < 1e-12


def test_warm_rows_are_the_product_ensemble():
    # (U (x) U1)(B (x) B1) = (U B) (x) (U1 B1): the warm start's rows are the
    # tensor_pure products of the two ensembles' members, weights multiplied,
    # each ensemble built from its isometry's rows as eof_optimize builds it
    rho = sample_density_matrix((2, 3), 2, RandomSource(11))
    B1 = _eigen_rows(rho)
    _, U1, _ = _minimize_rows(B1, rho.dims, None, 1, RandomSource(0))
    B2, dims2 = tensor_rows(B1, rho.dims, B1, rho.dims)
    _, U2, _ = _minimize_rows(B2, dims2, None, 0, RandomSource(0),
                              warm=np.kron(U1, U1))
    ens1 = _ensemble_from_rows(U1 @ B1, rho.dims)
    ens2 = _ensemble_from_rows(U2 @ B2, dims2)
    assert len(ens1) == len(U1) and len(ens2) == len(U2)
    B3, dims3 = tensor_rows(B2, dims2, B1, rho.dims)
    warm_rows = np.kron(U2, U1) @ B3
    expect = [np.sqrt(p * q) * tensor_pure(s, t).vector
              for p, s in zip(ens2.weights, ens2.states)
              for q, t in zip(ens1.weights, ens1.states)]
    assert dims3 == (8, 27)
    assert np.abs(warm_rows - np.array(expect)).max() < 1e-12


@pytest.mark.parametrize("rank, n", [(2, 2), (3, 2), (4, 2), (2, 3)])
def test_random_starts_never_beat_the_warm_start(rank, n):
    # the trace refines only the warm start past n = 1; two cold random
    # starts at the same L_n = L_1^n never end below it by more than 1e-9
    # (L_1 = r keeps the problems small)
    for seed in range(3):
        rho = sample_density_matrix((2, 2), rank, RandomSource(500 + seed))
        trace = regularized_sequence(rho, n, rng=RandomSource(seed),
                                     restarts=1, ensemble_size=rank)
        B1 = _eigen_rows(rho)
        B, dims = B1, rho.dims
        for _ in range(n - 1):
            B, dims = tensor_rows(B, dims, B1, rho.dims)
        cold, _, starts = _minimize_rows(B, dims, rank ** n, 2, RandomSource(seed))
        assert [r.kind for r in starts] == ["random"] * 2
        assert cold >= n * trace.rate(n) - 1e-9, (rank, n, seed)


class TestRegularizedSequence:
    def test_singlet_rates_are_exactly_one(self):
        trace = regularized_sequence(singlet().to_state(), 2,
                                     rng=RandomSource(0), restarts=1)
        assert trace.rate(1) == pytest.approx(1.0, abs=1e-12)
        assert trace.rate(2) == pytest.approx(1.0, abs=1e-12)
        assert [e.warm_started for e in trace.entries] == [False, True]
        # rank 1: no start is refined
        assert [(e.iterations, e.evaluations) for e in trace.entries] == [(0, 0)] * 2

    def test_pure_state_rate_is_reduction_entropy(self):
        rho = partially_entangled().to_state()
        trace = regularized_sequence(rho, 2, rng=RandomSource(0), restarts=1)
        h = binary_entropy(0.9)
        assert trace.rate(1) == pytest.approx(h, abs=1e-9)
        assert trace.rate(2) == pytest.approx(h, abs=1e-9)

    def test_warm_start_pins_rate_two_below_rate_one(self):
        # the 26 rank-2 states, CLI seeds and --ensemble-size 3 of the
        # regularize-n2 benchmark corpus at seed 1, warm start alone at n = 2:
        # the warm start is the Kronecker square of the single-copy isometry,
        # so A_2 <= A_1 holds up to rounding, within the benchmark's bound of
        # 1e-9
        for i, (rho, seed) in enumerate(regularize_n2_corpus()):
            trace = regularized_sequence(rho, 2, rng=RandomSource(seed),
                                         restarts=0, ensemble_size=3)
            a1, a2 = trace.rate(1), trace.rate(2)
            assert a2 <= a1 + 1e-9, (i, a1, a2)
            assert abs(a1 - eof_two_qubit_closed_form(rho)) <= 1e-3
            # the stored subadditivity gap matches the rates
            (n, m, gap), = trace.subadditivity_checks
            assert (n, m) == (1, 1)
            assert gap == pytest.approx(a1 + a1 - 2 * a2, abs=1e-12)

    def test_a_step_stationary_to_rounding_stops_at_once(self):
        # corpus items whose n = 2 step gains under 1e-14: the warm start's
        # slope is within 16 ulps of its value, so the refine stops after at
        # most one trial, where a stop at a zero slope took 4-7 evaluations
        corpus = regularize_n2_corpus()
        for i in (1, 7, 14, 15, 19):
            rho, seed = corpus[i]
            rng = RandomSource(seed)
            B1 = _eigen_rows(rho)
            _, U1, _ = _minimize_rows(B1, rho.dims, 3, 1, rng.split())
            B2, dims2 = tensor_rows(B1, rho.dims, B1, rho.dims)
            warm = np.kron(U1, U1)
            start = _objective(warm[None], B2, *dims2)[0]
            value, _, (record,) = _minimize_rows(B2, dims2, None, 0, rng,
                                                 warm=warm)
            assert record.outcome == "converged" and record.evaluations <= 2, i
            assert abs(value - start) <= 1e-14, i

    def test_a_warm_start_within_the_gradient_tolerance_is_not_iterated(self):
        # corpus items whose warm start has a Riemannian gradient below the
        # default tol but above the rounding stop's sqrt(16 eps |value|): the
        # gradient stop ends the refine before its first trial, where five
        # stalled iterations (6 evaluations) ended it before
        corpus = regularize_n2_corpus()
        for i in (0, 10, 18):
            rho, seed = corpus[i]
            rng = RandomSource(seed)
            B1 = _eigen_rows(rho)
            _, U1, _ = _minimize_rows(B1, rho.dims, 3, 1, rng.split())
            B2, dims2 = tensor_rows(B1, rho.dims, B1, rho.dims)
            warm = np.kron(U1, U1)
            start, _, g = _objective(warm[None], B2, *dims2)
            grad = _tangent(warm[None], g)
            norm = np.sqrt(_inner(grad, grad))
            assert np.sqrt(16 * _EPS * start) < norm <= DEFAULT_IMPROVEMENT_TOL, i
            value, _, (record,) = _minimize_rows(B2, dims2, None, 0, rng,
                                                 warm=warm)
            assert (record.iterations, record.evaluations) == (0, 1), i
            assert record.outcome == "converged" and value == start, i

    def test_the_corpus_n2_steps_make_at_most_60_evaluations(self):
        # a deterministic work count: the n = 2 steps of the 26 corpus items
        # made 104 evaluations when only the stall and rounding rules
        # stopped them (100 through the CLI, whose states pass through a
        # file); the gradient stop brings them to 45 either way
        total = 0
        for rho, seed in regularize_n2_corpus():
            trace = regularized_sequence(rho, 2, rng=RandomSource(seed),
                                         restarts=1, ensemble_size=3)
            total += trace.entries[1].evaluations
        assert total <= 60

    def test_default_tol_rates_stay_at_the_closed_form(self):
        # every A_1 and A_2 at the default tol lies within 1e-6 above E_f and
        # never below it beyond rounding, on the 26 corpus states and on
        # ROADMAP Baseline's rank-2 and rank-3 states; its rank-4 states end
        # up to 7.5e-6 above E_f, with or without the gradient stop, which
        # is ROADMAP direction 12's stall residue
        states = [(rho, seed, 3) for rho, seed in regularize_n2_corpus()]
        states += [(sample_density_matrix((2, 2), rank, RandomSource(500 + seed)),
                    seed, None) for rank in (2, 3) for seed in (1, 2, 3)]
        for rho, seed, size in states:
            trace = regularized_sequence(rho, 2, rng=RandomSource(seed),
                                         restarts=2, ensemble_size=size)
            oracle = eof_two_qubit_closed_form(rho)
            for e in trace.entries:
                assert -1e-12 <= e.rate - oracle <= 1e-6, (seed, e.n, e.rate, oracle)

    def test_steps_build_no_ensemble(self, monkeypatch):
        # a step keeps its isometry and its refine value: no PureState,
        # Ensemble or entanglement_entropies call, at rank 2 or rank 1
        states = [sample_density_matrix((2, 2), 2, RandomSource(1)),
                  partially_entangled().to_state()]
        calls = []
        for module in (entcost.eof, entcost.qcore):
            for name in ("PureState", "Ensemble", "entanglement_entropies"):
                monkeypatch.setattr(module, name,
                                    lambda *a, name=name, f=getattr(module, name):
                                        calls.append(name) or f(*a))
        for rho in states:
            trace = regularized_sequence(rho, 3, rng=RandomSource(0), restarts=1)
            assert len(trace.isometries) == 3
        assert calls == []
        # the counters do see the ensemble eof_optimize builds
        entcost.eof.eof_optimize(states[0], restarts=1, rng=RandomSource(0))
        assert set(calls) == {"PureState", "Ensemble", "entanglement_entropies"}

    def test_rates_are_the_refine_values(self, monkeypatch):
        # n A_n is the value _minimize_rows returns at step n, and the trace
        # keeps that step's isometry
        returned = []
        minimize = entcost.regcost._minimize_rows
        monkeypatch.setattr(entcost.regcost, "_minimize_rows",
                            lambda *a, **kw: returned.append(minimize(*a, **kw))
                            or returned[-1])
        rho = sample_density_matrix((2, 2), 3, RandomSource(5))
        trace = regularized_sequence(rho, 3, rng=RandomSource(0), restarts=2,
                                     ensemble_size=4)
        assert len(returned) == 3
        for n, (value, U, records) in enumerate(returned, start=1):
            assert trace.rate(n) == value / n
            assert trace.isometries[n - 1] is U
            # the entry carries its step's work, which its records share
            entry = trace.entries[n - 1]
            assert {(r.iterations, r.evaluations) for r in records} == {
                (entry.iterations, entry.evaluations)}

    def test_rates_to_n4_match_the_closed_form(self):
        # the state of the ROADMAP's trace timings: every A_n equals E_f(rho),
        # the product warm start is optimal and only rounding moves it
        rho = sample_density_matrix((2, 2), 2, RandomSource(1))
        trace = regularized_sequence(rho, 4, rng=RandomSource(0), restarts=0)
        oracle = eof_two_qubit_closed_form(rho)
        assert [e.n for e in trace.entries] == [1, 2, 3, 4]
        for e in trace.entries:
            assert abs(e.rate - oracle) <= 1e-9, (e.n, e.rate, oracle)

    def test_trace_builds_no_tensor_power_matrix(self, monkeypatch):
        # rho^(x)3 on (2, 2) is 64 x 64; the trace diagonalizes rho once and
        # then only the rows' 8 x 8 reduced Gram matrices
        sizes = []
        for name in ("eigh", "eigvalsh", "svd"):
            kernel = getattr(np.linalg, name)
            monkeypatch.setattr(
                np.linalg, name,
                lambda a, *args, kernel=kernel, **kw:
                    sizes.append(np.shape(a)[-2:]) or kernel(a, *args, **kw))
        rho = sample_density_matrix((2, 2), 2, RandomSource(1))
        regularized_sequence(rho, 3, rng=RandomSource(0), restarts=1)
        assert sizes and max(max(s) for s in sizes) <= 8, sorted(set(sizes))

    def test_row_work_cap_enforced(self, monkeypatch):
        # (L_1 r d)^n_max against ROW_WORK_CAP = 1e8, judged before the
        # first refine; random starts run only at n = 1, so they add nothing
        class Refined(Exception):
            pass

        def refine(*args, **kwargs):
            raise Refined

        monkeypatch.setattr(entcost.regcost, "_minimize_rows", refine)
        rank1 = sample_density_matrix((8, 8), 1, RandomSource(9))
        rank2 = sample_density_matrix((2, 2), 2, RandomSource(1))
        rank4 = sample_density_matrix((2, 2), 4, RandomSource(1))
        # rank 2 at n = 5: 32^5 = 3.4e7 at any restarts; the rank-1 (8, 8)
        # state has one row: 64^3 = 2.6e5
        for rho, n_max, restarts in [(rank2, 5, 0), (rank2, 5, 1), (rank1, 3, 2)]:
            with pytest.raises(Refined):
                regularized_sequence(rho, n_max, restarts=restarts)
        # 32^6 = 1.1e9; 256^4 = 4.3e9
        for rho, n_max, restarts in [(rank2, 6, 0), (rank4, 4, 0)]:
            with pytest.raises(ValueError, match="row work"):
                regularized_sequence(rho, n_max, restarts=restarts)

    @pytest.mark.parametrize("restarts, admitted", [(181, True), (182, False),
                                                    (20000, False)])
    def test_single_copy_random_starts_are_capped(self, monkeypatch, restarts,
                                                  admitted):
        # the n = 1 step's restarts sqrt(L r d) against START_CAP = 1024,
        # L r d = 4 * 2 * 4 for a rank-2 two-qubit state, before any refine
        class Refined(Exception):
            pass

        def refine(*args, **kwargs):
            raise Refined

        monkeypatch.setattr(entcost.eof, "_refine", refine)
        rho = sample_density_matrix((2, 2), 2, RandomSource(1))
        with pytest.raises(Refined if admitted else ValueError,
                           match=None if admitted else "random-start work"):
            regularized_sequence(rho, 1, rng=RandomSource(0), restarts=restarts)

    def test_steps_past_one_refine_the_warm_start_alone(self, monkeypatch):
        # every n >= 2 call of _minimize_rows has a warm start and draws no
        # random start, at any restarts
        calls = []
        minimize = entcost.regcost._minimize_rows

        def recording(B, dims, size, restarts, rng, *args, warm=None, **kw):
            calls.append((restarts, warm is not None))
            return minimize(B, dims, size, restarts, rng, *args, warm=warm, **kw)

        monkeypatch.setattr(entcost.regcost, "_minimize_rows", recording)
        rho = sample_density_matrix((2, 2), 2, RandomSource(1))
        for restarts in (0, 3):
            calls.clear()
            trace = regularized_sequence(rho, 3, rng=RandomSource(0),
                                         restarts=restarts)
            assert calls == [(max(restarts, 1), False), (0, True), (0, True)]
            assert [e.warm_started for e in trace.entries] == [False, True, True]

    def test_bad_n_max(self):
        with pytest.raises(ValueError):
            regularized_sequence(singlet().to_state(), 0)

    def test_json_carries_the_caveat(self):
        trace = regularized_sequence(singlet().to_state(), 1,
                                     rng=RandomSource(0), restarts=1)
        obj = json.loads(dumps_canonical(trace))
        assert obj["caveat"] == LIMIT_CAVEAT
        assert obj["entries"][0]["n"] == 1


class TestFekete:
    def test_singlet_trace_is_subadditive_with_linear_bound(self):
        trace = regularized_sequence(singlet().to_state(), 2,
                                     rng=RandomSource(0), restarts=1)
        rep = fekete_check(trace, c=1.0)
        assert rep.linear_bound_holds
        assert rep.subadditive_within_tol
        assert rep.triples[0][:2] == (1, 1)
        assert rep.triples[0][2] == pytest.approx(0.0, abs=1e-9)

    def test_linear_bound_can_fail(self):
        trace = regularized_sequence(singlet().to_state(), 1,
                                     rng=RandomSource(0), restarts=1)
        rep = fekete_check(trace, c=0.5)
        assert not rep.linear_bound_holds

    def test_random_state_gaps_above_negative_tolerance(self):
        rng = RandomSource(15)
        rho = sample_density_matrix((2, 2), 2, rng.split())
        trace = regularized_sequence(rho, 2, rng=rng.split(), restarts=0,
                                     ensemble_size=4)
        rep = fekete_check(trace, c=1.0)
        assert rep.subadditive_within_tol
        assert all(g >= -1e-3 for _, _, g in rep.triples)


class TestCostBracket:
    def test_singlet_bracket_is_tight_at_one(self):
        trace, bracket = cost_bracket(singlet().to_state(), 2,
                                      rng=RandomSource(0), restarts=1)
        assert bracket.upper_on_regularized == pytest.approx(1.0, abs=1e-9)
        assert bracket.achievable_rate == pytest.approx(1.0, abs=1e-9)
        assert json.loads(dumps_canonical(bracket))["caveat"] == LIMIT_CAVEAT

    def test_upper_never_exceeds_achievable(self):
        rng = RandomSource(23)
        rho = sample_density_matrix((2, 2), 2, rng.split())
        trace, bracket = cost_bracket(rho, 2, rng=rng.split(), restarts=0,
                                      ensemble_size=4)
        assert bracket.upper_on_regularized <= bracket.achievable_rate + 1e-12
        assert bracket.upper_on_regularized == min(e.rate for e in trace.entries)
