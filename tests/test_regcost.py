import json

import numpy as np
import pytest

from entcost.eof import eof_two_qubit_closed_form
from entcost.qcore import (
    Ensemble,
    PureState,
    QuantumState,
    RandomSource,
    basis_pure,
    binary_entropy,
    ensemble_average,
    sample_density_matrix,
    singlet,
    tensor_product,
)
from entcost.regcost import (
    LIMIT_CAVEAT,
    additivity_probe,
    cost_bracket,
    fekete_check,
    product_ensemble,
    regularized_sequence,
)
from entcost.serialize import dumps_canonical


def partially_entangled():
    v = np.zeros(4, dtype=complex)
    v[0], v[3] = np.sqrt(0.9), np.sqrt(0.1)
    return PureState((2, 2), v)


def test_product_ensemble_realizes_tensor_product():
    e1 = Ensemble(np.array([0.6, 0.4]),
                  (basis_pure((2, 2), 0, 0), singlet()))
    e2 = Ensemble(np.array([1.0]), (partially_entangled(),))
    prod = product_ensemble(e1, e2)
    assert len(prod) == 2
    avg = ensemble_average(prod)
    expect = tensor_product(ensemble_average(e1), ensemble_average(e2))
    assert np.abs(avg.matrix - expect.matrix).max() < 1e-12


class TestRegularizedSequence:
    def test_singlet_rates_are_exactly_one(self):
        trace = regularized_sequence(singlet().to_state(), 2,
                                     rng=RandomSource(0), restarts=1)
        assert trace.rate(1) == pytest.approx(1.0, abs=1e-12)
        assert trace.rate(2) == pytest.approx(1.0, abs=1e-12)
        assert [e.warm_started for e in trace.entries] == [False, True]

    def test_pure_state_rate_is_reduction_entropy(self):
        rho = partially_entangled().to_state()
        trace = regularized_sequence(rho, 2, rng=RandomSource(0), restarts=1)
        h = binary_entropy(0.9)
        assert trace.rate(1) == pytest.approx(h, abs=1e-9)
        assert trace.rate(2) == pytest.approx(h, abs=1e-9)

    def test_warm_start_pins_rate_two_below_rate_one(self):
        rng = RandomSource(5)
        for i in range(3):
            rho = sample_density_matrix((2, 2), 2, rng.split())
            trace = regularized_sequence(rho, 2, rng=rng.split(), restarts=0,
                                         ensemble_size=4, max_cycles=40)
            a1, a2 = trace.rate(1), trace.rate(2)
            assert a2 <= a1 + 1e-9, (i, a1, a2)
            assert abs(a1 - eof_two_qubit_closed_form(rho)) <= 1e-3
            # the stored subadditivity gap matches the rates
            (n, m, gap), = trace.subadditivity_checks
            assert (n, m) == (1, 1)
            assert gap == pytest.approx(a1 + a1 - 2 * a2, abs=1e-12)

    def test_dimension_cap_enforced(self):
        rho = sample_density_matrix((8, 8), 1, RandomSource(9))
        with pytest.raises(ValueError):
            regularized_sequence(rho, 3)

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
                                     ensemble_size=4, max_cycles=40)
        rep = fekete_check(trace, c=1.0)
        assert rep.subadditive_within_tol
        assert all(g >= -1e-3 for _, _, g in rep.triples)


class TestAdditivityProbe:
    def test_product_with_unentangled_state_has_no_gap(self):
        rng = RandomSource(19)
        rho = sample_density_matrix((2, 2), 2, rng.split())
        sigma = basis_pure((2, 2), 0, 0).to_state()
        rep = additivity_probe(rho, sigma, rng=rng.split(), restarts=1,
                               max_cycles=40)
        assert rep.eof_joint <= rep.eof_sum + 1e-9
        assert abs(rep.gap) <= 1e-3
        assert not rep.candidate

    def test_singlet_pair_is_additive(self):
        rho = singlet().to_state()
        rep = additivity_probe(rho, rho, rng=RandomSource(0), restarts=1,
                               max_cycles=40)
        assert rep.eof_sum == pytest.approx(2.0, abs=1e-9)
        assert rep.eof_joint <= 2.0 + 1e-9
        assert not rep.candidate


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
                                      ensemble_size=4, max_cycles=40)
        assert bracket.upper_on_regularized <= bracket.achievable_rate + 1e-12
        assert bracket.upper_on_regularized == min(e.rate for e in trace.entries)
