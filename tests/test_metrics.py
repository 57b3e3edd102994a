import json

import numpy as np
import pytest

import entcost.metrics
from entcost.metrics import (
    DistanceReport,
    bures_distance,
    fidelity_factors,
    fidelity_matrices,
    metric_relation_check,
    sqrtm_psd,
    tensor_power_divergence,
    trace_distance,
    uhlmann_fidelity,
)
from entcost.qcore import (
    DimensionError,
    QuantumState,
    RandomSource,
    basis_pure,
    sample_density_matrix,
    sample_pure_state,
    sample_unitary,
    singlet,
)
from entcost.serialize import dumps_canonical
from entcost.verify import run_verification

MIXED = QuantumState((2, 1), np.eye(2) / 2)
GROUND = basis_pure((2, 1), 0, 0).to_state()


def test_sqrtm_psd_squares_back():
    rng = RandomSource(2)
    for i in range(8):
        rho = sample_density_matrix((2, 2), 1 + i % 4, rng.split())
        root = sqrtm_psd(rho.matrix)
        assert np.abs(root @ root - rho.matrix).max() < 1e-12


class TestFidelity:
    def test_self_fidelity_is_one(self):
        rng = RandomSource(4)
        for i in range(20):
            rho = sample_density_matrix((2, 2), 1 + i % 4, rng.split())
            assert uhlmann_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        a = basis_pure((2, 2), 0, 0).to_state()
        b = basis_pure((2, 2), 1, 1).to_state()
        assert uhlmann_fidelity(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_mixed_versus_ground_state(self):
        # F(I/2, |0><0|) = sqrt(1/2)
        assert uhlmann_fidelity(MIXED, GROUND) == pytest.approx(
            0.7071067811865476, abs=1e-12)

    def test_pure_pure_overlap(self):
        rng = RandomSource(8)
        for _ in range(10):
            p1 = sample_pure_state((2, 3), rng.split())
            p2 = sample_pure_state((2, 3), rng.split())
            f = uhlmann_fidelity(p1.to_state(), p2.to_state())
            assert f == pytest.approx(abs(np.vdot(p1.vector, p2.vector)), abs=1e-9)

    def test_unitary_invariance(self):
        rng = RandomSource(12)
        for i in range(10):
            a = sample_density_matrix((2, 2), 1 + i % 4, rng.split())
            b = sample_density_matrix((2, 2), 1 + (i + 1) % 4, rng.split())
            u = sample_unitary(4, rng.split())
            ra = QuantumState((2, 2), u @ a.matrix @ u.conj().T)
            rb = QuantumState((2, 2), u @ b.matrix @ u.conj().T)
            # re-validation of the rotated matrices perturbs rank-deficient
            # states at the 1e-9 level, so the tolerance is a touch looser
            assert uhlmann_fidelity(ra, rb) == pytest.approx(
                uhlmann_fidelity(a, b), abs=1e-7)

    def test_symmetry(self):
        rng = RandomSource(14)
        for i in range(10):
            a = sample_density_matrix((3, 2), 1 + i % 6, rng.split())
            b = sample_density_matrix((3, 2), 1 + (i * 2) % 6, rng.split())
            assert uhlmann_fidelity(a, b) == pytest.approx(
                uhlmann_fidelity(b, a), abs=1e-11)

    def test_multiplicative_under_tensor_products(self):
        from entcost.qcore import tensor_product
        rng = RandomSource(16)
        for i in range(20):
            r1 = sample_density_matrix((2, 2), 1 + i % 4, rng.split())
            s1 = sample_density_matrix((2, 2), 1 + (i + 1) % 4, rng.split())
            r2 = sample_density_matrix((2, 2), 1 + (i + 2) % 4, rng.split())
            s2 = sample_density_matrix((2, 2), 1 + (i + 3) % 4, rng.split())
            joint = uhlmann_fidelity(tensor_product(r1, r2), tensor_product(s1, s2))
            marginal = uhlmann_fidelity(r1, s1) * uhlmann_fidelity(r2, s2)
            assert abs(joint - marginal) < 1e-8

    def test_shape_mismatch_raises(self):
        with pytest.raises(DimensionError):
            uhlmann_fidelity(MIXED, singlet().to_state())

    def test_factor_fidelity_matches_matrices(self):
        rng = RandomSource(21)
        a = rng.gen.standard_normal((9, 3)) + 1j * rng.gen.standard_normal((9, 3))
        b = rng.gen.standard_normal((9, 5)) + 1j * rng.gen.standard_normal((9, 5))
        assert fidelity_factors(a, b) == pytest.approx(
            fidelity_matrices(a @ a.conj().T, b @ b.conj().T), abs=1e-12)

    def test_multiplicativity_fuzz_is_clean_on_seed_30(self):
        # rank-deficient 16 x 16 products: unfloored eigenvalue noise made
        # the joint fidelity miss the product by 1.2e-8 here
        report, clean = run_verification(30, pairs=0, channels=0, perturbed=0)
        assert clean
        assert report["multiplicativity"]["worst_error"] < 1e-12


class TestDistances:
    def test_bures_on_known_pair(self):
        expect = 2.0 * np.sqrt(1.0 - np.sqrt(0.5))
        assert bures_distance(MIXED, GROUND) == pytest.approx(expect, abs=1e-12)
        assert bures_distance(MIXED, MIXED) == pytest.approx(0.0, abs=1e-7)

    def test_trace_distance_diagonal_example(self):
        a = QuantumState((2, 1), np.diag([0.7, 0.3]))
        b = QuantumState((2, 1), np.diag([0.5, 0.5]))
        assert trace_distance(a, b) == pytest.approx(0.2, abs=1e-14)

    def test_trace_distance_extremes(self):
        a = basis_pure((2, 2), 0, 0).to_state()
        b = basis_pure((2, 2), 1, 1).to_state()
        assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-14)
        assert trace_distance(a, a) == pytest.approx(0.0, abs=1e-14)

    def test_triangle_inequalities(self):
        rng = RandomSource(21)
        for i in range(30):
            states = [sample_density_matrix((2, 2), 1 + (i + j) % 4, rng.split())
                      for j in range(3)]
            a, b, c = states
            assert trace_distance(a, c) <= (trace_distance(a, b)
                                            + trace_distance(b, c) + 1e-12)
            assert bures_distance(a, c) <= (bures_distance(a, b)
                                            + bures_distance(b, c) + 1e-9)


class TestMetricChain:
    def test_report_fields_consistent(self):
        rep = metric_relation_check(MIXED, GROUND)
        assert isinstance(rep, DistanceReport)
        assert rep.chain_lower == pytest.approx(1.0 - rep.fidelity, abs=1e-15)
        assert rep.chain_upper == pytest.approx(
            np.sqrt(1.0 - rep.fidelity ** 2), abs=1e-15)
        assert rep.chain_holds
        obj = json.loads(dumps_canonical(rep))
        assert set(obj) == {"fidelity", "bures", "trace", "chain_lower",
                            "chain_upper", "chain_holds"}

    def test_chain_on_random_pairs(self):
        rng = RandomSource(27)
        for i in range(200):
            dims = (2, 2) if i % 2 == 0 else (3, 3)
            d = dims[0] * dims[1]
            a = sample_density_matrix(dims, 1 + i % d, rng.split())
            b = sample_density_matrix(dims, 1 + (i * 3) % d, rng.split())
            rep = metric_relation_check(a, b)
            assert rep.chain_holds, (i, rep)

    def test_chain_tight_at_pure_states(self):
        # for pure states the trace distance saturates the upper bound
        rng = RandomSource(29)
        for _ in range(10):
            a = sample_pure_state((2, 2), rng.split()).to_state()
            b = sample_pure_state((2, 2), rng.split()).to_state()
            rep = metric_relation_check(a, b)
            assert rep.trace == pytest.approx(rep.chain_upper, abs=1e-9)


class TestTensorPowerDivergence:
    def test_identical_states_stay_at_zero(self):
        rho = singlet().to_state()
        entries = tensor_power_divergence(rho, rho, 4)
        for e in entries:
            assert e["fidelity"] == pytest.approx(1.0, abs=1e-12)
            assert e["bures"] == pytest.approx(0.0, abs=1e-6)

    def test_direct_cross_check_within_cap(self):
        rng = RandomSource(31)
        a = sample_density_matrix((2, 2), 2, rng.split())
        b = sample_density_matrix((2, 2), 3, rng.split())
        entries = tensor_power_divergence(a, b, 4)
        f1 = entries[0]["fidelity"]
        for e in entries:
            assert e["fidelity"] == pytest.approx(f1 ** e["k"], abs=1e-12)
            assert e["direct_fidelity"] is not None
            assert abs(e["direct_fidelity"] - e["fidelity"]) < 1e-8
        assert entries[-1]["bures"] > entries[0]["bures"]

    def test_cross_check_disabled_beyond_cap(self, monkeypatch):
        monkeypatch.setattr(entcost.metrics, "DIRECT_DIM", 256)
        rng = RandomSource(33)
        a = sample_density_matrix((2, 2), 2, rng.split())
        b = sample_density_matrix((2, 2), 2, rng.split())
        entries = tensor_power_divergence(a, b, 8)
        assert entries[3]["direct_fidelity"] is not None   # 4^4 = 256
        assert entries[4]["direct_fidelity"] is None

    def test_default_cap_is_the_dense_work_cap(self):
        # (4^k)^3 dense work is 1.7e7 at k = 4 and 1.1e9 at k = 5, past
        # DENSE_WORK_CAP
        rng = RandomSource(33)
        a = sample_density_matrix((2, 2), 2, rng.split())
        b = sample_density_matrix((2, 2), 2, rng.split())
        entries = tensor_power_divergence(a, b, 6)
        assert [e["direct_fidelity"] is not None for e in entries] == (
            [True] * 4 + [False] * 2)

    def test_divergence_approaches_two(self, monkeypatch):
        monkeypatch.setattr(entcost.metrics, "DIRECT_DIM", 64)
        rng = RandomSource(35)
        a = sample_density_matrix((2, 2), 4, rng.split())
        b = sample_density_matrix((2, 2), 4, rng.split())
        entries = tensor_power_divergence(a, b, 200)
        assert entries[-1]["bures"] > 1.9

    def test_invalid_k_max(self):
        rho = singlet().to_state()
        with pytest.raises(ValueError):
            tensor_power_divergence(rho, rho, 0)
