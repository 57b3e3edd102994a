"""Seeded workloads: input files, CLI argument lists and per-item output checks.

Every input is generated from the workload seed with `entcost`'s own seeded
samplers and written through `entcost.serialize.save_object`, so the program
under test receives only files and CLI flags.  Each item is one call of
`entcost.cli.main(argv)`; its check reads the JSON report the call wrote.

A workload's corpus size is a fixed function of `--seconds`, sized so one
pass takes 12-17 s on a 2-core Xeon at 20 s; traced runs at the same seed and
length therefore repeat their deterministic counts exactly.  The `small` corpora are
for the harness self-test and shrink every size while keeping each code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from entcost import (
    Ensemble,
    PureState,
    RandomSource,
    basis_pure,
    ensemble_average,
    eof_two_qubit_closed_form,
    sample_density_matrix,
    sample_pure_state,
    save_object,
)
from entcost.serialize import object_from_json_obj

ENSEMBLE_TOL = 1e-7       # the optimizer's ensemble must reproduce the state
ORACLE_TOL = 1e-3         # optimizer E_f against the two-qubit closed form
MONOTONE_TOL = 1e-9       # A_2 <= A_1 + tol
FEKETE_TOL = 1e-3         # subadditivity gaps >= -tol


@dataclass(frozen=True)
class Item:
    name: str
    argv: tuple
    # (exit code, parsed report or None) -> (output correct, excess ebits or None)
    check: Callable
    # how much of the calibration kernel's slowdown this item feels (harness)
    speed_exponent: float = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable       # (seed, seconds, workdir, write, small) -> [Item]
    # why the workload is left out of BENCHMARK.json; empty when it is listed
    held_out: str = ""


def _count(seconds, per_second, least):
    return max(least, math.ceil(seconds * per_second))


def _cli_seeds(rng, count):
    return [int(s) for s in rng.gen.integers(0, 2 ** 31, size=count)]


def _write(write, path, obj):
    if write:
        save_object(path, obj)
    return str(path)


# ---------------------------------------------------------------------------
# eof-qubit
# ---------------------------------------------------------------------------

# (rank, E_f band) strata, cycled, so every corpus holds the same mix.
# Rank-3 states near the separable boundary converge slowly: at E_f < 0.005
# one item took 0.36-1.26 s against about 0.25 s elsewhere, so that band is a
# stratum of its own, holding the quarter of the E_f < 0.05 share that a
# plain rank-3 draw puts there.  Rank 4 is left out: its 0.2-6.5 s per-state
# tail made per-run totals differ by up to 2x between seeds.
EOF_STRATA = ((2, 0.0, np.inf), (3, 0.0, 0.005), (2, 0.0, np.inf), (3, 0.005, 0.05),
              (2, 0.0, np.inf), (3, 0.05, np.inf), (2, 0.0, np.inf), (3, 0.05, np.inf),
              (2, 0.0, np.inf), (3, 0.005, 0.05), (2, 0.0, np.inf), (3, 0.05, np.inf),
              (2, 0.0, np.inf), (3, 0.005, 0.05), (2, 0.0, np.inf), (3, 0.05, np.inf))
EOF_ITEMS_PER_S = 2.5


def _draw_state(rank, lo, hi, rng):
    while True:
        rho = sample_density_matrix((2, 2), rank, rng.split())
        if lo <= eof_two_qubit_closed_form(rho) < hi:
            return rho


def _check_eof(rho, code, report):
    if code != 0 or report is None:
        return False, None
    res = report["result"]
    oracle = eof_two_qubit_closed_form(rho)
    rebuilt = ensemble_average(object_from_json_obj(res["ensemble"]))
    ok = (abs(res["value"] - oracle) <= ORACLE_TOL
          and float(np.abs(rebuilt.matrix - rho.matrix).max()) <= ENSEMBLE_TOL)
    return ok, res["value"] - oracle


def build_eof_qubit(seed, seconds, workdir, write, small=False):
    count = 4 if small else _count(seconds, EOF_ITEMS_PER_S, 20)
    rng = RandomSource(seed)
    cli_seeds = _cli_seeds(rng.split(), count)
    items = []
    for i in range(count):
        rank, lo, hi = EOF_STRATA[i % len(EOF_STRATA)]
        rho = _draw_state(rank, lo, hi, rng)
        path = _write(write, workdir / f"eof-{i:03d}.json", rho)
        argv = ("eof", path, "--ensemble-size", "5", "--restarts", "3",
                "--seed", str(cli_seeds[i]))
        items.append(Item(f"eof-{i:03d}-rank{rank}", argv,
                          lambda code, rep, rho=rho: _check_eof(rho, code, rep)))
    return items


# ---------------------------------------------------------------------------
# regularize-n2
# ---------------------------------------------------------------------------

REG_RANK = 2
REG_ENSEMBLE_SIZE = 3
REG_ITEMS_PER_S = 1.3


def _check_regularize(rho, code, report):
    if code != 0 or report is None:
        return False, None
    trace = report["result"]["trace"]
    rates = {e["n"]: e["rate"] for e in trace["entries"]}
    gaps = [c["gap"] for c in trace["subadditivity_checks"]]
    ok = (rates[2] <= rates[1] + MONOTONE_TOL
          and all(g >= -FEKETE_TOL for g in gaps))
    oracle = eof_two_qubit_closed_form(rho)
    # the optimizer value at n is n A_n; its reference is n E_f
    excess = float(np.mean([n * (a - oracle) for n, a in rates.items()]))
    return ok, excess


def build_regularize_n2(seed, seconds, workdir, write, small=False):
    count = 2 if small else _count(seconds, REG_ITEMS_PER_S, 12)
    rng = RandomSource(seed)
    cli_seeds = _cli_seeds(rng.split(), count)
    items = []
    for i in range(count):
        rho = sample_density_matrix((2, 2), REG_RANK, rng.split())
        path = _write(write, workdir / f"reg-{i:03d}.json", rho)
        argv = ("regularize", path, "--n-max", "2", "--restarts", "1",
                "--ensemble-size", str(REG_ENSEMBLE_SIZE),
                "--seed", str(cli_seeds[i]))
        items.append(Item(f"reg-{i:03d}", argv,
                          lambda code, rep, rho=rho: _check_regularize(rho, code, rep)))
    return items


# ---------------------------------------------------------------------------
# formation-exact
# ---------------------------------------------------------------------------

FORMATION_ITEMS_PER_S = 2.0   # seeded n=4 items
FORMATION_LARGE_ITEM_S = 14.0  # the criterion-6 n=5 item
FORMATION_WEIGHTS = (0.5, 0.3, 0.2)
# Over ten runs, n=4 item times grew as the kernel time to the power 0.3-0.4
# (1.16x for a 1.47x slower kernel); scaling by the full ratio overcorrected.
DENSE_SPEED_EXPONENT = 0.3


def criterion6_ensemble():
    """(|00> + |11>)/sqrt(2) and |00>, equal weights."""
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return Ensemble(np.array([0.5, 0.5]),
                    (PureState((2, 2), v), basis_pure((2, 2), 0, 0)))


def _three_member_ensemble(rng):
    # fixed weights keep the typical-set size, and with it the item cost,
    # the same for every seed; the members are seeded
    states = tuple(sample_pure_state((2, 2), rng.split()) for _ in range(3))
    return Ensemble(np.array(FORMATION_WEIGHTS), states)


def _check_formation(code, report):
    if code != 0 or report is None:
        return False, None
    res = report["result"]
    ok = (res["exact_mode"] is True and res["fid1_holds"] is True
          and res["fid2_holds"] is True
          and res["exact_bures"] <= res["bures_bound"])
    return ok, None


def build_formation_exact(seed, seconds, workdir, write, small=False):
    # not n=2 when small: there the criterion-6 bound is exactly 0 and
    # exact_bures carries ~3e-8 of rounding, so the check cannot pass
    n_small, n_large = (3, 3) if small else (4, 5)
    # the n_large item fills most of a 20 s pass; seeded three-member
    # ensembles at n_small fill the rest
    count = 2 if small else _count(seconds - FORMATION_LARGE_ITEM_S,
                                   FORMATION_ITEMS_PER_S, 12)
    rng = RandomSource(seed)
    cli_seeds = _cli_seeds(rng.split(), count + 2)
    items = []
    for i in range(count):
        path = _write(write, workdir / f"ens3-{i:03d}.json",
                      _three_member_ensemble(rng.split()))
        items.append(Item(f"ens3-{i:03d}-n{n_small}",
                          ("formation", path, "--n", str(n_small),
                           "--delta1", "0.5", "--delta2", "0.25",
                           "--seed", str(cli_seeds[i])),
                          _check_formation, DENSE_SPEED_EXPONENT))
    crit6 = _write(write, workdir / "criterion6.json", criterion6_ensemble())
    # the large item runs last, so items after the first pass stay small
    for j, n in enumerate((n_small, n_large)):
        items.append(Item(f"criterion6-n{n}",
                          ("formation", crit6, "--n", str(n),
                           "--delta1", "0.5", "--delta2", "0.25",
                           "--seed", str(cli_seeds[count + j])),
                          _check_formation, DENSE_SPEED_EXPONENT))
    return items


# ---------------------------------------------------------------------------
# verify-fuzz
# ---------------------------------------------------------------------------

VERIFY_ITEMS_PER_S = 1.2
VERIFY_SMALL_COUNTS = ("--pairs", "20", "--channels", "6",
                       "--perturbed", "6", "--quadruples", "4")


def _check_verify(code, report):
    if code != 0 or report is None:
        return False, None
    sections = report["result"]
    ok = len(sections) == 4 and all(s["violations"] == 0 for s in sections.values())
    return ok, None


def build_verify_fuzz(seed, seconds, workdir, write, small=False):
    count = 2 if small else _count(seconds, VERIFY_ITEMS_PER_S, 20)
    cli_seeds = _cli_seeds(RandomSource(seed), count)
    extra = VERIFY_SMALL_COUNTS if small else ()
    return [Item(f"verify-{i:03d}", ("verify", "--seed", str(s)) + extra,
                 _check_verify)
            for i, s in enumerate(cli_seeds)]


WORKLOADS = {w.name: w for w in (
    Workload("eof-qubit",
             "Jacobi E_f sweep on the dA=2 closed-form spectrum path, where "
             "per-call Python and minimize_scalar overhead dominate; "
             "bypasses regcost and formation",
             build_eof_qubit),
    Workload("regularize-n2",
             "A_2 step at dA=4, where each objective evaluation is a 4x4 "
             "eigvalsh; only workload with the product warm start and a "
             "random restart at n=2",
             build_regularize_n2),
    Workload("formation-exact",
             "exact typical-set protocol on dense 256 and 1024 matrices, "
             "where large eigh dominates; ensemble input, so eof is never "
             "called",
             build_formation_exact),
    Workload("verify-fuzz",
             "metrics and qcore on thousands of 4x4 and 9x9 matrices plus "
             "the closed-form and LOCC path; small-matrix twin of "
             "formation-exact",
             build_verify_fuzz,
             held_out="entcost verify reports a multiplicativity violation "
                      "(error ~1.1e-8 > tol 1e-8) for about one seed in "
                      "four, so its items fail"),
)}
