"""The exact keys of every report the CLI writes.

Reports are written from their dataclasses, so a new field reaches the JSON
unless it is marked INTERNAL.  These tests pin each subcommand's `config`,
`result` and nested report objects, so any change to the format shows here.
"""

import json

import numpy as np
import pytest

from entcost.cli import EXIT_OK, main
from entcost.qcore import (
    Ensemble,
    PureState,
    RandomSource,
    basis_pure,
    sample_density_matrix,
    singlet,
)
from entcost.serialize import save_object

ENVELOPE = {"tool_version", "seed", "config", "result"}
STATE = {"dims", "vector"}
START = {"kind", "iterations", "evaluations", "value", "outcome"}
FORMATION = {"n", "m", "rate", "mean_entanglement", "slack", "eps1", "eps2",
             "eps3", "bures_bound", "exact_mode", "exact_bures",
             "fid1_fidelity", "fid1_holds", "fid2_fidelity", "fid2_holds",
             "triangle_holds", "plan", "typical_set"}
PLAN = {"entries", "total_singlets", "delta1", "delta2"}
PLAN_ENTRY = {"index", "count", "entanglement", "delta2", "singlets"}
TYPICAL_SET = {"n", "delta1", "k", "window", "num_sequences", "total_weight",
               "entropy", "weight_bounds", "count_windows"}
FORMATION_CONFIG = {"subcommand", "state", "n", "delta1", "delta2", "window",
                    "restarts"}


def _report(tmp_path, argv):
    out = tmp_path / "report.json"
    assert main(argv + ["--output", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert set(doc) == ENVELOPE
    return doc["config"], doc["result"]


def _write(tmp_path, name, obj):
    path = tmp_path / name
    save_object(path, obj)
    return str(path)


@pytest.fixture
def ensemble_file(tmp_path):
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return _write(tmp_path, "ens.json", Ensemble(
        np.array([0.5, 0.5]), (PureState((2, 2), v), basis_pure((2, 2), 0, 0))))


def test_eof(tmp_path):
    state = _write(tmp_path, "rho.json",
                   sample_density_matrix((2, 2), 2, RandomSource(11)))
    config, result = _report(tmp_path, ["eof", state, "--restarts", "2"])
    assert set(config) == {"subcommand", "state", "ensemble_size", "restarts",
                           "tol"}
    assert set(result) == {"value", "ensemble", "restarts_used", "converged",
                           "value_history", "starts"}
    assert set(result["ensemble"]) == {"weights", "states"}
    assert result["ensemble"]["states"]
    for psi in result["ensemble"]["states"]:
        assert set(psi) == STATE
    assert result["starts"]
    for start in result["starts"]:
        assert set(start) == START


def test_metrics(tmp_path):
    a = _write(tmp_path, "a.json", sample_density_matrix((2, 2), 2, RandomSource(1)))
    b = _write(tmp_path, "b.json", singlet())
    config, result = _report(tmp_path, ["metrics", a, b])
    assert set(config) == {"subcommand", "state_a", "state_b"}
    assert set(result) == {"fidelity", "bures", "trace", "chain_lower",
                           "chain_upper", "chain_holds"}


def test_regularize(tmp_path):
    state = _write(tmp_path, "psi.json", singlet())
    config, result = _report(tmp_path, ["regularize", state, "--n-max", "2",
                                        "--restarts", "1",
                                        "--csv", str(tmp_path / "rates.csv")])
    assert set(config) == {"subcommand", "state", "n_max", "restarts",
                           "ensemble_size"}
    assert set(result) == {"trace", "bracket"}
    trace = result["trace"]
    assert set(trace) == {"entries", "subadditivity_checks", "caveat"}
    assert len(trace["entries"]) == 2
    for entry in trace["entries"]:
        assert set(entry) == {"n", "rate", "warm_started"}
    assert len(trace["subadditivity_checks"]) == 1
    for check in trace["subadditivity_checks"]:
        assert set(check) == {"n", "m", "gap"}
    assert set(result["bracket"]) == {"upper_on_regularized", "achievable_rate",
                                      "n_max", "caveat"}


def _check_formation(result):
    assert set(result) == FORMATION
    assert set(result["plan"]) == PLAN
    assert result["plan"]["entries"]
    for entry in result["plan"]["entries"]:
        assert set(entry) == PLAN_ENTRY
    assert set(result["typical_set"]) == TYPICAL_SET


def test_formation_exact(tmp_path, ensemble_file):
    config, result = _report(tmp_path, ["formation", ensemble_file, "--n", "3",
                                        "--csv", str(tmp_path / "sweep.csv")])
    assert set(config) == FORMATION_CONFIG
    _check_formation(result)
    assert result["exact_mode"] is True
    assert result["triangle_holds"] is True


def test_formation_analytic(tmp_path, ensemble_file):
    # 2^10 x 1002 x 1002 factor work is past the exact-mode cap
    config, result = _report(tmp_path, ["formation", ensemble_file, "--n", "10"])
    assert set(config) == FORMATION_CONFIG
    _check_formation(result)
    assert result["exact_mode"] is False
    for key in ("exact_bures", "fid1_fidelity", "fid1_holds", "fid2_fidelity",
                "fid2_holds", "triangle_holds"):
        assert result[key] is None


def test_verify(tmp_path):
    config, result = _report(tmp_path, ["verify", "--pairs", "4", "--channels",
                                        "3", "--perturbed", "2",
                                        "--quadruples", "2"])
    assert set(config) == {"subcommand", "pairs", "channels", "perturbed",
                           "quadruples"}
    assert set(result) == {"monotonicity", "continuity", "metric_chain",
                           "multiplicativity"}
    assert set(result["monotonicity"]) == {"count", "violations",
                                           "worst_increase"}
    assert set(result["continuity"]) == {"count", "violations", "max_distance"}
    assert set(result["metric_chain"]) == {"count", "violations"}
    assert set(result["multiplicativity"]) == {"count", "violations",
                                               "worst_error"}


def test_demo_divergence(tmp_path):
    config, result = _report(tmp_path, ["demo-divergence", "--format", "json",
                                        "--k-max", "3"])
    assert set(config) == {"subcommand", "fidelity", "k_max"}
    assert len(result) == 3
    for row in result:
        assert set(row) == {"k", "fidelity", "bures"}
