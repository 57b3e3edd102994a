"""Property tests: hypothesis draws the inputs, derandomized and bounded.

Each numpy array is generated from a drawn integer seed, so every example is
reproducible from the seed hypothesis prints on failure.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entcost.eof import (
    _inner,
    _objective,
    _tangent,
    eof_optimize,
    eof_two_qubit_closed_form,
)
from entcost.formation import dilute_pure_state, dilution_fidelity
from entcost.qcore import (
    Ensemble,
    PureState,
    QuantumState,
    RandomSource,
    StateValidationError,
    basis_pure,
    ensemble_average,
    pure_entanglement,
    pure_power,
    sample_unitary,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=25)
SEEDS = st.integers(0, 2 ** 32 - 1)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


# ---------------------------------------------------------------------------
# Constructors reject non-finite input
# ---------------------------------------------------------------------------

@PROPERTY
@given(index=st.integers(0, 15), bad=NON_FINITE, imaginary=st.booleans())
def test_quantum_state_rejects_non_finite_entry(index, bad, imaginary):
    m = np.eye(4, dtype=complex) / 4.0
    m.flat[index] += 1j * bad if imaginary else bad
    with pytest.raises(StateValidationError):
        QuantumState((2, 2), m)


@PROPERTY
@given(seed=SEEDS, index=st.integers(0, 3), bad=NON_FINITE,
       imaginary=st.booleans())
def test_pure_state_rejects_non_finite_entry(seed, index, bad, imaginary):
    v = np.random.default_rng(seed).standard_normal(4).astype(complex)
    v /= np.linalg.norm(v)
    v[index] = 1j * bad if imaginary else bad
    with pytest.raises(StateValidationError):
        PureState((2, 2), v)


@PROPERTY
@given(size=st.integers(1, 4), index=st.integers(0, 3), bad=NON_FINITE)
def test_ensemble_rejects_non_finite_weight(size, index, bad):
    w = np.full(size, 1.0 / size)
    w[index % size] = bad
    states = tuple(basis_pure((2, 2), i % 2, i // 2) for i in range(size))
    with pytest.raises(StateValidationError):
        Ensemble(w, states)


# ---------------------------------------------------------------------------
# The optimizer on rank-deficient and near-singular two-qubit states
# ---------------------------------------------------------------------------

@st.composite
def two_qubit_spectra(draw):
    """Two or three eigenvalues of order one, then zeros (rank deficient) or
    one eigenvalue in [1e-11, 1e-6] and zeros (near singular)."""
    rank = draw(st.integers(2, 3))
    weights = [draw(st.floats(0.05, 1.0)) for _ in range(rank)]
    tiny = draw(st.one_of(st.just(0.0), st.floats(1e-11, 1e-6)))
    lam = np.array(weights + [tiny] + [0.0] * (3 - rank))
    return lam / lam.sum()


@PROPERTY
@given(lam=two_qubit_spectra(), seed=SEEDS)
def test_optimizer_ensemble_and_value_on_degenerate_spectra(lam, seed):
    u = sample_unitary(4, RandomSource(seed))
    rho = QuantumState((2, 2), (u * lam) @ u.conj().T)
    res = eof_optimize(rho, restarts=2, rng=RandomSource(seed))
    rebuilt = ensemble_average(res.ensemble)
    assert np.abs(rebuilt.matrix - rho.matrix).max() <= 1e-7
    oracle = eof_two_qubit_closed_form(rho)
    assert oracle - 1e-9 <= res.value <= oracle + 1e-3


# ---------------------------------------------------------------------------
# The optimizer's objective and its gradient
# ---------------------------------------------------------------------------

OBJECTIVE_DIMS = st.sampled_from([(2, 2), (2, 3), (3, 2), (4, 4)])


def _two_rows(dims, seed, split, product_row):
    """Two subnormalized rows whose weights sum to one, as in the optimizer."""
    dA, dB = dims
    g = np.random.default_rng(seed)
    wa, wb = g.standard_normal((2, dA * dB)) + 1j * g.standard_normal((2, dA * dB))
    if product_row:
        # an unentangled row: its Gram matrix has exact zeros
        wa = np.kron(wa[:dA], wb[:dB])
    wa *= math.sqrt(split) / np.linalg.norm(wa)
    wb *= math.sqrt(1.0 - split) / np.linalg.norm(wb)
    return np.stack([wa, wb]), g


@PROPERTY
@given(dims=OBJECTIVE_DIMS, seed=SEEDS, split=st.floats(0.0, 1.0),
       product_row=st.booleans())
def test_objective_matches_explicit_rows(dims, seed, split, product_row):
    B, _ = _two_rows(dims, seed, split, product_row)
    # the rows W = U B with U = I, an isometry
    value, _ = _objective(np.eye(2, dtype=complex), B, *dims)
    reference = sum(float(np.vdot(w, w).real)
                    * pure_entanglement(PureState(dims, w / np.linalg.norm(w)))
                    for w in B if np.linalg.norm(w) > 0.0)
    assert value == pytest.approx(reference, abs=1e-12)


@PROPERTY
@given(dims=OBJECTIVE_DIMS, seed=SEEDS, split=st.floats(0.01, 0.99),
       product_row=st.booleans())
def test_objective_gradient_matches_central_difference(dims, seed, split,
                                                       product_row):
    # rows of weight at least 0.01, so a step of 1e-5 stays small beside both;
    # at a product row the central difference cancels the h^2 log h^2 part
    B, g = _two_rows(dims, seed, split, product_row)
    U = np.eye(2, dtype=complex)
    _, grad = _objective(U, B, *dims)
    X = _tangent(U, g.standard_normal((2, 2)) + 1j * g.standard_normal((2, 2)))
    h = 1e-5
    central = (_objective(U + h * X, B, *dims)[0]
               - _objective(U - h * X, B, *dims)[0]) / (2.0 * h)
    assert _inner(grad, X) == pytest.approx(central, rel=1e-6, abs=1e-9)


# ---------------------------------------------------------------------------
# Entanglement dilution of a tensor power
# ---------------------------------------------------------------------------

DILUTION_DIMS = st.sampled_from([(2, 2), (2, 3)])


def _random_pure(dims, seed):
    g = np.random.default_rng(seed)
    v = g.standard_normal(dims[0] * dims[1]) + 1j * g.standard_normal(dims[0] * dims[1])
    return PureState(dims, v / np.linalg.norm(v))


@PROPERTY
@given(dims=DILUTION_DIMS, seed=SEEDS, count=st.integers(1, 5), data=st.data())
def test_dilution_fidelity_matches_brute_force_ranking(dims, seed, count, data):
    budget = data.draw(st.integers(0, 2 * count))
    psi = _random_pure(dims, seed)
    mu = np.linalg.svd(psi.vector.reshape(dims), compute_uv=False) ** 2
    # every index tuple of psi^(x)count, weighed and sorted on its own
    weights = sorted((math.prod(mu[list(t)])
                      for t in itertools.product(range(mu.size), repeat=count)),
                     reverse=True)
    expect = math.sqrt(sum(weights[:2 ** budget]))
    assert dilution_fidelity(psi, count, budget) == pytest.approx(expect, abs=1e-12)


@PROPERTY
@given(dims=DILUTION_DIMS, seed=SEEDS, count=st.integers(1, 4), data=st.data())
def test_diluted_state_overlap_is_its_fidelity(dims, seed, count, data):
    budget = data.draw(st.integers(0, 2 * count))
    psi = _random_pure(dims, seed)
    approx, fid = dilute_pure_state(psi, count, budget)
    assert approx.dims == (dims[0] ** count, dims[1] ** count)
    overlap = abs(np.vdot(pure_power(psi, count).vector, approx.vector))
    assert overlap == pytest.approx(fid, abs=1e-12)
    assert fid == dilution_fidelity(psi, count, budget)
