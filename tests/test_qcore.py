import ast
import re
from pathlib import Path

import numpy as np
import pytest

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
    partial_trace,
    partial_trace_matrix,
    pure_entanglement,
    pure_power,
    sample_density_matrix,
    sample_pure_state,
    sample_unitary,
    singlet,
    tensor_matrix,
    tensor_product,
    tensor_pure,
    von_neumann_entropy,
)


def naive_partial_trace(m, dims, keep):
    """Four-loop reference implementation, independent of the einsum route."""
    dA, dB = dims
    if keep == "A":
        out = np.zeros((dA, dA), dtype=complex)
        for a in range(dA):
            for c in range(dA):
                for b in range(dB):
                    out[a, c] += m[a * dB + b, c * dB + b]
    else:
        out = np.zeros((dB, dB), dtype=complex)
        for b in range(dB):
            for d in range(dB):
                for a in range(dA):
                    out[b, d] += m[a * dB + b, a * dB + d]
    return out


class TestPartialTrace:
    def test_singlet_reductions_are_maximally_mixed(self):
        rho = singlet().to_state()
        for keep in ("A", "B"):
            assert np.allclose(partial_trace(rho, keep), np.eye(2) / 2)

    def test_product_state_reductions(self):
        psi = basis_pure((2, 3), 1, 2).to_state()
        ra = partial_trace(psi, "A")
        rb = partial_trace(psi, "B")
        assert np.isclose(ra[1, 1], 1.0)
        assert np.isclose(rb[2, 2], 1.0)

    def test_matches_naive_loops(self):
        rng = RandomSource(11)
        for i, dims in enumerate([(2, 2), (2, 3), (3, 2), (4, 2), (3, 3)] * 4):
            rho = sample_density_matrix(dims, 1 + i % 4, rng.split())
            for keep in ("A", "B"):
                fast = partial_trace(rho, keep)
                slow = naive_partial_trace(rho.matrix, dims, keep)
                assert np.abs(fast - slow).max() < 1e-12

    def test_subnormalized_input_passes_through(self):
        m = 0.25 * singlet().density_matrix()
        red = partial_trace_matrix(m, (2, 2), "A")
        assert np.isclose(np.trace(red).real, 0.25)

    def test_bad_keep_and_shape(self):
        rho = singlet().to_state()
        with pytest.raises(ValueError):
            partial_trace(rho, "C")
        with pytest.raises(DimensionError):
            partial_trace_matrix(np.eye(3), (2, 2), "A")


class TestEntropy:
    def test_known_values(self):
        assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0)
        assert von_neumann_entropy(np.diag([1.0, 0.0])) == pytest.approx(0.0)
        assert von_neumann_entropy(np.eye(4) / 4) == pytest.approx(2.0)
        assert von_neumann_entropy(np.diag([0.9, 0.1])) == pytest.approx(
            0.4689955935892812, abs=1e-12)

    def test_additive_under_tensor_products(self):
        rng = RandomSource(3)
        for i in range(10):
            a = sample_density_matrix((2, 2), 1 + i % 4, rng.split())
            b = sample_density_matrix((2, 3), 1 + i % 3, rng.split())
            joint = tensor_product(a, b)
            assert von_neumann_entropy(joint) == pytest.approx(
                von_neumann_entropy(a) + von_neumann_entropy(b), abs=1e-9)

    def test_rejects_clearly_negative_spectrum(self):
        with pytest.raises(StateValidationError):
            von_neumann_entropy(np.diag([1.1, -0.1]))


class TestPureEntanglement:
    def test_extremes(self):
        assert pure_entanglement(singlet()) == pytest.approx(1.0)
        assert pure_entanglement(basis_pure((2, 2), 0, 0)) == pytest.approx(0.0)

    def test_partially_entangled_value(self):
        v = np.zeros(4, dtype=complex)
        v[0], v[3] = np.sqrt(0.9), np.sqrt(0.1)
        psi = PureState((2, 2), v)
        assert pure_entanglement(psi) == pytest.approx(binary_entropy(0.9), abs=1e-12)

    def test_matches_reduction_entropy(self):
        rng = RandomSource(5)
        for dims in [(2, 2), (2, 3), (3, 4)] * 5:
            psi = sample_pure_state(dims, rng.split())
            red = partial_trace(psi.to_state(), "A")
            assert pure_entanglement(psi) == pytest.approx(
                von_neumann_entropy(red), abs=1e-9)

    def test_additive_under_tensor_products(self):
        rng = RandomSource(6)
        for _ in range(8):
            p1 = sample_pure_state((2, 2), rng.split())
            p2 = sample_pure_state((2, 3), rng.split())
            joint = tensor_pure(p1, p2)
            assert joint.dims == (4, 6)
            assert pure_entanglement(joint) == pytest.approx(
                pure_entanglement(p1) + pure_entanglement(p2), abs=1e-9)


class TestEnsemble:
    def test_average_reproduces_convex_mixture(self):
        p0 = basis_pure((2, 2), 0, 0)
        p1 = basis_pure((2, 2), 1, 1)
        ens = Ensemble(np.array([0.7, 0.3]), (p0, p1))
        avg = ensemble_average(ens)
        assert np.allclose(avg.matrix, np.diag([0.7, 0.0, 0.0, 0.3]))

    def test_prunes_tiny_weights(self):
        states = (basis_pure((2, 2), 0, 0), basis_pure((2, 2), 1, 1),
                  basis_pure((2, 2), 0, 1))
        ens = Ensemble(np.array([0.6, 0.4 - 1e-13, 1e-13]), states)
        assert len(ens) == 2
        assert np.isclose(ens.weights.sum(), 1.0)

    def test_rejects_bad_weights(self):
        s = (basis_pure((2, 2), 0, 0),)
        with pytest.raises(StateValidationError):
            Ensemble(np.array([0.5]), s)
        with pytest.raises(StateValidationError):
            Ensemble(np.array([-0.2, 1.2]), s + s)
        with pytest.raises(DimensionError):
            Ensemble(np.array([0.5, 0.5]),
                     (basis_pure((2, 2), 0, 0), basis_pure((2, 3), 0, 0)))


class TestTensorRegrouping:
    def test_product_of_reductions(self):
        rng = RandomSource(23)
        for _ in range(6):
            a = sample_density_matrix((2, 3), 2, rng.split())
            b = sample_density_matrix((2, 2), 3, rng.split())
            joint = tensor_product(a, b)
            assert joint.dims == (4, 6)
            ra = partial_trace(joint, "A")
            expect = np.kron(partial_trace(a, "A"), partial_trace(b, "A"))
            assert np.abs(ra - expect).max() < 1e-12

    def test_tensor_matrix_dims(self):
        m, dims = tensor_matrix(np.eye(4) / 4, (2, 2), np.eye(6) / 6, (2, 3))
        assert dims == (4, 6)
        assert m.shape == (24, 24)

    def test_pure_power_entanglement_scales(self):
        v = np.zeros(4, dtype=complex)
        v[0], v[3] = np.sqrt(0.9), np.sqrt(0.1)
        psi = PureState((2, 2), v)
        cubed = pure_power(psi, 3)
        assert cubed.dims == (8, 8)
        assert pure_entanglement(cubed) == pytest.approx(
            3 * binary_entropy(0.9), abs=1e-9)


class TestValidation:
    def test_rejects_non_hermitian(self):
        m = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        m[0, 1] = 0.1
        with pytest.raises(StateValidationError):
            QuantumState((2, 2), m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(StateValidationError):
            QuantumState((2, 2), np.eye(4) / 2)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionError):
            QuantumState((2, 3), np.eye(4) / 4)

    def test_tiny_negative_eigenvalue_clipped_silently(self):
        m = np.diag([0.6, 0.4 + 5e-10, -5e-10, 0.0])
        rho = QuantumState((2, 2), m)
        assert np.linalg.eigvalsh(rho.matrix).min() >= -1e-15

    def test_moderate_negative_eigenvalue_warns(self):
        m = np.diag([0.6, 0.4 + 5e-8, -5e-8, 0.0])
        with pytest.warns(UserWarning):
            rho = QuantumState((2, 2), m)
        assert np.linalg.eigvalsh(rho.matrix).min() >= -1e-15
        assert np.isclose(np.trace(rho.matrix).real, 1.0)

    def test_large_negative_eigenvalue_raises(self):
        m = np.diag([0.6, 0.4 + 1e-5, -1e-5, 0.0])
        with pytest.raises(StateValidationError):
            QuantumState((2, 2), m)

    def test_matrix_is_write_protected(self):
        rho = singlet().to_state()
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0

    def test_pure_state_norm_enforced(self):
        with pytest.raises(StateValidationError):
            PureState((2, 2), np.array([1.0, 1.0, 0.0, 0.0]))

    def test_non_finite_entries_rejected(self):
        m = np.eye(4, dtype=complex) / 4
        m[1, 1] = np.nan
        with pytest.raises(StateValidationError, match="non-finite"):
            QuantumState((2, 2), m)
        m[1, 1] = np.inf
        with pytest.raises(StateValidationError, match="non-finite"):
            QuantumState((2, 2), m)
        with pytest.raises(StateValidationError, match="non-finite"):
            PureState((2, 2), np.array([1.0, np.nan, 0.0, 0.0]))

    def test_non_finite_ensemble_weight_rejected(self):
        s = (basis_pure((2, 2), 0, 0), basis_pure((2, 2), 1, 1))
        for bad in (np.nan, np.inf):
            with pytest.raises(StateValidationError, match="finite"):
                Ensemble(np.array([1.0, bad]), s)


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a = RandomSource(42).gen.standard_normal(5)
        b = RandomSource(42).gen.standard_normal(5)
        assert np.array_equal(a, b)

    def test_split_streams_differ_and_are_reproducible(self):
        r1 = RandomSource(7)
        c1, c2 = r1.split(), r1.split()
        x1 = c1.gen.standard_normal(4)
        x2 = c2.gen.standard_normal(4)
        assert not np.array_equal(x1, x2)
        r2 = RandomSource(7)
        assert np.array_equal(r2.split().gen.standard_normal(4), x1)
        assert np.array_equal(r2.split().gen.standard_normal(4), x2)

    def test_replay_restarts_the_stream(self):
        src = RandomSource(9).split()
        first = src.gen.standard_normal(3)
        again = src.replay().gen.standard_normal(3)
        assert np.array_equal(first, again)

    def test_samplers_deterministic(self):
        psi1 = sample_pure_state((2, 3), RandomSource(1))
        psi2 = sample_pure_state((2, 3), RandomSource(1))
        assert np.array_equal(psi1.vector, psi2.vector)
        u1 = sample_unitary(4, RandomSource(2))
        u2 = sample_unitary(4, RandomSource(2))
        assert np.array_equal(u1, u2)

    def test_sample_unitary_is_unitary(self):
        rng = RandomSource(13)
        for d in (2, 3, 5):
            u = sample_unitary(d, rng.split())
            assert np.abs(u @ u.conj().T - np.eye(d)).max() < 1e-12

    def test_sample_density_matrix_rank(self):
        rng = RandomSource(19)
        for rank in (1, 2, 3, 4):
            rho = sample_density_matrix((2, 2), rank, rng.split())
            evals = np.linalg.eigvalsh(rho.matrix)
            assert np.sum(evals > 1e-10) == rank
        with pytest.raises(ValueError):
            sample_density_matrix((2, 2), 5, rng.split())


def test_binary_entropy_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0)
    assert binary_entropy(0.9) == pytest.approx(0.4689955935892812, abs=1e-12)
    assert binary_entropy(0.1) == pytest.approx(binary_entropy(0.9), abs=1e-15)


def test_every_cap_is_defined_in_qcore_and_tabled_in_the_readme():
    # the work limits are defined in one place and listed in one table; the
    # total-dimension and k^n caps they replaced stay gone
    root = Path(__file__).resolve().parents[1]
    defined = {}
    for path in sorted((root / "src" / "entcost").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            for target in getattr(node, "targets", ()):
                if isinstance(target, ast.Name) and target.id.endswith("_CAP"):
                    defined[target.id] = path.name
    assert defined and set(defined.values()) == {"qcore.py"}, defined
    readme = (root / "README.md").read_text()
    rows = [line for line in readme.splitlines() if line.startswith("| `")]
    for name in defined:
        assert sum(line.startswith(f"| `{name}`") for line in rows) == 1, name
    # each table formula opens the comment of its cap in qcore, word for
    # word: "NAME = value   # formula[ what it counts]: time"
    comments = dict(re.findall(r"^(\w+_CAP) = [^#]*# (.*): [\d.]+ s$",
                               (root / "src" / "entcost" / "qcore.py").read_text(),
                               re.MULTILINE))
    assert comments.keys() == defined.keys(), comments
    for line in rows:
        name, formula = (cell.strip().replace("`", "") for cell in line.split("|")[1:3])
        if name in comments:
            assert comments[name] == formula or comments[name].startswith(
                formula + " "), (name, formula, comments[name])
    stale = ("DIMENSION" + "_CAP", "ENUMERATION" + "_CAP")
    for path in [root / "README.md", *(root / "src").rglob("*.py"),
                 *(root / "tests").glob("*.py"), *(root / "benchmarks").glob("*.py")]:
        assert not any(name in path.read_text() for name in stale), path
