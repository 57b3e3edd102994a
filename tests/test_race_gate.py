"""Gate for racing the optimizer's starts: every raced value stays within a
stated tolerance of the same seeded starts each refined to the end.

The unraced reference replaces `entcost.eof._jacobi_refine` by a call that
drops the incumbent, so `eof_optimize` builds the same starts from the same
random stream and refines every one of them until it converges or hits the
cycle cap.
"""

from contextlib import contextmanager

import pytest

import entcost.eof
from entcost.eof import eof_optimize
from entcost.qcore import RandomSource, sample_density_matrix
from entcost.regcost import regularized_sequence


@contextmanager
def unraced():
    """No start is abandoned inside this context."""
    refine = entcost.eof._jacobi_refine
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(entcost.eof, "_jacobi_refine",
                   lambda W, dA, dB, tol, cycles, incumbent:
                   refine(W, dA, dB, tol, cycles))
        yield


def _rates_both_ways(rho, rng, **kwargs):
    raced = regularized_sequence(rho, 2, rng=rng.replay(), **kwargs)
    with unraced():
        full = regularized_sequence(rho, 2, rng=rng.replay(), **kwargs)
    return ([e.rate for e in raced.entries], [e.rate for e in full.entries])


def test_criterion_7_rates_match_unraced():
    # the states and arguments of acceptance criterion 7
    rng = RandomSource(1007)
    for i in range(10):
        rho = sample_density_matrix((2, 2), 1 + i % 4, rng.split())
        raced, full = _rates_both_ways(rho, rng.split(), restarts=1,
                                       ensemble_size=5, max_cycles=40)
        for a, b in zip(raced, full):
            assert abs(a - b) <= 1e-6, (i, raced, full)


def test_rank_2_regularize_n2_rates_match_unraced():
    # the arguments of the regularize-n2 benchmark items
    rng = RandomSource(137)
    for i in range(8):
        rho = sample_density_matrix((2, 2), 2, rng.split())
        raced, full = _rates_both_ways(rho, rng.split(), restarts=1,
                                       ensemble_size=3)
        for a, b in zip(raced, full):
            assert abs(a - b) <= 1e-6, (i, raced, full)


def test_criterion_1_rank_2_and_3_values_match_unraced():
    # the states and arguments of acceptance criterion 1, ranks 2 and 3
    rng = RandomSource(1001)
    checked = 0
    for i in range(50):
        rank = 1 + i % 4
        rho = sample_density_matrix((2, 2), rank, rng.split())
        opt = rng.split()
        if rank not in (2, 3):
            continue
        raced = eof_optimize(rho, ensemble_size=5, restarts=3, rng=opt.replay())
        with unraced():
            full = eof_optimize(rho, ensemble_size=5, restarts=3,
                                rng=opt.replay())
        assert abs(raced.value - full.value) <= 1e-5, (i, raced.value, full.value)
        checked += 1
    assert checked == 25
