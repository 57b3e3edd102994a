"""End-to-end acceptance checks, one printed PASS/FAIL line per criterion.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines alongside the pytest output.  Every check is seeded and deterministic.
"""

import json
import math
import time

import numpy as np

from entcost.cli import main as cli_main
from entcost.eof import eof_optimize, eof_two_qubit_closed_form
from entcost.formation import (
    dilution_fidelity,
    formation_protocol,
)
from entcost.metrics import tensor_power_divergence
from entcost.qcore import (
    Ensemble,
    PureState,
    RandomSource,
    basis_pure,
    ensemble_average,
    sample_density_matrix,
    singlet,
)
from entcost.regcost import fekete_check, regularized_sequence
from entcost.verify import (
    fuzz_continuity,
    fuzz_metric_chain,
    fuzz_monotonicity,
    fuzz_multiplicativity,
)


def report(label, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {label}{suffix}")
    assert ok, f"{label}{suffix}"


def test_criterion_1_optimizer_agrees_with_two_qubit_oracle():
    t0 = time.perf_counter()
    rng = RandomSource(1001)
    worst = 0.0
    for i in range(50):
        rank = 1 + i % 4
        rho = sample_density_matrix((2, 2), rank, rng.split())
        oracle = eof_two_qubit_closed_form(rho)
        res = eof_optimize(rho, ensemble_size=max(5, rank), restarts=3,
                           rng=rng.split())
        worst = max(worst, abs(res.value - oracle))
    elapsed = time.perf_counter() - t0
    report("criterion 1: optimizer within 1e-3 of the closed form on 50 states",
           worst <= 1e-3 and elapsed <= 120.0,
           f"worst error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_monotonicity_fuzzing_is_clean():
    t0 = time.perf_counter()
    out = fuzz_monotonicity(100, RandomSource(1002))
    elapsed = time.perf_counter() - t0
    report("criterion 2: no LOCC monotonicity violations beyond 1e-9 "
           "on 100 channel pairs",
           out["violations"] == 0 and elapsed <= 30.0,
           f"worst increase {out['worst_increase']:.2e}, {elapsed:.1f}s")


def test_criterion_3_continuity_bound_holds_on_perturbed_pairs():
    t0 = time.perf_counter()
    out = fuzz_continuity(100, RandomSource(1003))
    elapsed = time.perf_counter() - t0
    report("criterion 3: continuity bound holds on 100 perturbed pairs "
           "within distance 0.2",
           out["violations"] == 0 and out["max_distance"] <= 0.2
           and elapsed <= 30.0,
           f"max distance {out['max_distance']:.4f}, {elapsed:.1f}s")


def test_criterion_4_metric_chain_and_multiplicativity():
    t0 = time.perf_counter()
    chain = fuzz_metric_chain(1000, RandomSource(1004))
    mult = fuzz_multiplicativity(100, RandomSource(1005))
    elapsed = time.perf_counter() - t0
    report("criterion 4: metric chain on 1000 pairs and fidelity "
           "multiplicativity on 100 quadruples",
           chain["violations"] == 0 and mult["violations"] == 0
           and elapsed <= 60.0,
           f"multiplicativity worst {mult['worst_error']:.2e}, {elapsed:.1f}s")


def test_criterion_5_tensor_power_divergence():
    # closed form at fixed per-copy fidelity 0.99
    ks = [k for k in range(1, 461)
          if 2.0 * np.sqrt(1.0 - 0.99 ** k) > 1.99]
    crossed = bool(ks) and ks[0] <= 460
    # direct tensor-power cross-check at k = 3
    rng = RandomSource(1006)
    a = sample_density_matrix((2, 2), 2, rng.split())
    b = sample_density_matrix((2, 2), 3, rng.split())
    entries = tensor_power_divergence(a, b, 3)
    e3 = entries[2]
    direct_ok = (e3["direct_fidelity"] is not None
                 and abs(e3["direct_fidelity"]
                         - entries[0]["fidelity"] ** 3) <= 1e-8)
    report("criterion 5: Bures divergence passes 1.99 by k=460 at F=0.99 "
           "and matches the direct k=3 tensor power within 1e-8",
           crossed and direct_ok,
           f"first crossing k={ks[0] if ks else None}")


def test_criterion_6_formation_protocol_at_n_4():
    t0 = time.perf_counter()
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    ens = Ensemble(np.array([0.5, 0.5]),
                   (PureState((2, 2), v), basis_pure((2, 2), 0, 0)))
    rho = ensemble_average(ens)
    res = formation_protocol(rho, ens, 4, 0.5, 0.25)
    lo, hi = res.typical_set.weight_bounds
    weights_ok = all(lo - 1e-15 <= ps <= hi + 1e-15
                     for ps in res.typical_set.weights.tolist())
    slack_ok = res.slack == res.rate - res.mean_entanglement
    bound_ok = res.exact_bures is not None and \
        res.exact_bures <= res.bures_bound + 1e-12
    elapsed = time.perf_counter() - t0
    report("criterion 6: exact n=4 formation run (dimension 256) verifies "
           "the fidelity chain and typicality bounds",
           res.exact_mode and res.fid1_holds and res.fid2_holds
           and res.triangle_holds and weights_ok and slack_ok
           and bound_ok and elapsed <= 120.0,
           f"exact Bures {res.exact_bures:.6f} <= bound {res.bures_bound:.6f}, "
           f"{elapsed:.1f}s")


def test_criterion_7_regularization_with_warm_starts():
    t0 = time.perf_counter()
    rng = RandomSource(1007)
    ok = True
    detail = []
    for i in range(10):
        rho = sample_density_matrix((2, 2), 1 + i % 4, rng.split())
        trace = regularized_sequence(rho, 2, rng=rng.split(), restarts=1,
                                     ensemble_size=5)
        a1, a2 = trace.rate(1), trace.rate(2)
        if a2 > a1 + 1e-9:
            ok = False
            detail.append(f"state {i}: A2={a2:.6f} > A1={a1:.6f}")
        rep = fekete_check(trace, c=1.0)
        if not (rep.linear_bound_holds and rep.subadditive_within_tol):
            ok = False
            detail.append(f"state {i}: Fekete check failed")
    s_trace = regularized_sequence(singlet().to_state(), 2,
                                   rng=rng.split(), restarts=1)
    singlet_ok = (abs(s_trace.rate(1) - 1.0) <= 1e-6
                  and abs(s_trace.rate(2) - 1.0) <= 1e-6)
    elapsed = time.perf_counter() - t0
    report("criterion 7: warm-started A_2 <= A_1 on 10 states with Fekete "
           "gaps above -1e-3, singlet rates pinned at 1",
           ok and singlet_ok and elapsed <= 600.0,
           "; ".join(detail) or f"{elapsed:.1f}s")


def test_criterion_8_dilution_matches_binomial_oracle():
    w, count = 0.9, 6
    v = np.zeros(4, dtype=complex)
    v[0], v[3] = np.sqrt(w), np.sqrt(1 - w)
    psi = PureState((2, 2), v)
    weights = sorted((w ** (count - j) * (1 - w) ** j
                      for j in range(count + 1)
                      for _ in range(math.comb(count, j))), reverse=True)
    worst = 0.0
    fids = []
    for budget in range(7):
        keep = min(2 ** budget, len(weights))
        oracle = math.sqrt(min(1.0, sum(weights[:keep])))
        got = dilution_fidelity(psi, count, budget)
        fids.append(got)
        worst = max(worst, abs(got - oracle))
    monotone = all(b >= a - 1e-15 for a, b in zip(fids, fids[1:]))
    report("criterion 8: six-copy dilution fidelities match the binomial "
           "oracle within 1e-9 for budgets 0..6",
           worst <= 1e-9 and monotone and abs(fids[-1] - 1.0) <= 1e-12,
           f"worst deviation {worst:.2e}")


def test_criterion_9_reports_are_byte_identical(tmp_path):
    args = ["verify", "--pairs", "60", "--channels", "15", "--perturbed", "10",
            "--quadruples", "10", "--seed", "12"]
    out1 = tmp_path / "run1.json"
    out2 = tmp_path / "run2.json"
    code1 = cli_main(args + ["--output", str(out1)])
    code2 = cli_main(args + ["--output", str(out2)])
    b1 = out1.read_bytes()
    b2 = out2.read_bytes()
    clean = code1 == 0 and code2 == 0
    doc = json.loads(b1)
    report("criterion 9: repeated seeded verify runs emit byte-identical "
           "clean reports",
           clean and b1 == b2 and doc["seed"] == 12,
           f"{len(b1)} bytes")
