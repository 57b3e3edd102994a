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
    _entropy_contrib,
    _pair_objective,
    _row_blocks,
    eof_optimize,
    eof_two_qubit_closed_form,
    minimize_scalar,
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
# The Gram-block pair objective
# ---------------------------------------------------------------------------

def _rotated_rows_value(wa, wb, phase, theta, dA, dB):
    c, s = math.cos(theta), math.sin(theta)
    return float(_entropy_contrib(c * wa + s * phase * wb, dA, dB)
                 + _entropy_contrib(-s * np.conj(phase) * wa + c * wb, dA, dB))


@PROPERTY
@given(dims=st.sampled_from([(2, 2), (2, 3), (3, 2), (4, 4)]), seed=SEEDS,
       phase=st.sampled_from([1.0, 1.0j]),
       theta=st.floats(-math.pi / 2, math.pi / 2),
       split=st.floats(0.0, 1.0), product_row=st.booleans())
def test_pair_objective_matches_rotated_rows(dims, seed, phase, theta, split,
                                             product_row):
    dA, dB = dims
    g = np.random.default_rng(seed)
    wa, wb = g.standard_normal((2, dA * dB)) + 1j * g.standard_normal((2, dA * dB))
    if product_row:
        # an unentangled row: its reduced spectrum has exact zeros
        wa = np.kron(wa[:dA], wb[:dB])
    # subnormalized rows whose weights sum to one, as in the optimizer
    wa *= math.sqrt(split) / np.linalg.norm(wa)
    wb *= math.sqrt(1.0 - split) / np.linalg.norm(wb)
    objective = _pair_objective(*_row_blocks(np.stack([wa, wb]), dA, dB), phase)
    reference = _rotated_rows_value(wa, wb, phase, theta, dA, dB)
    assert objective(theta) == pytest.approx(reference, abs=1e-12)
    assert objective(theta + math.pi / 2) == pytest.approx(objective(theta),
                                                           abs=1e-12)


# ---------------------------------------------------------------------------
# The bounded Brent line search
# ---------------------------------------------------------------------------

@PROPERTY
@given(seed=SEEDS, lo=st.floats(-5.0, 5.0), width=st.floats(1e-3, 10.0),
       xatol=st.sampled_from([1e-8, 1e-5, 1e-3]), maxiter=st.integers(1, 60))
def test_line_search_matches_scipy_on_smooth_functions(seed, lo, width, xatol,
                                                       maxiter):
    scipy_optimize = pytest.importorskip("scipy.optimize")
    # a random trigonometric polynomial plus a quadratic
    c = np.random.default_rng(seed).standard_normal(8).tolist()

    def func(t):
        return (c[0] * math.sin(c[1] * t + c[2]) + c[3] * math.cos(3.0 * t)
                + c[4] * math.sin(c[5] * 5.0 * t) + c[6] * t * t + c[7] * t)

    bounds = (lo, lo + width)
    res = minimize_scalar(func, bounds, xatol=xatol, maxiter=maxiter)
    ref = scipy_optimize.minimize_scalar(
        func, bounds=bounds, method="bounded",
        options={"xatol": xatol, "maxiter": maxiter})
    assert res.x == ref.x and res.fun == ref.fun
    assert bounds[0] <= res.x <= bounds[1]


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
