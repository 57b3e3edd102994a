import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import entcost
import entcost.regcost
from entcost import __version__
from entcost import cli
from entcost.cli import (
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_VIOLATION,
    main,
)
from entcost.qcore import (
    Ensemble,
    RandomSource,
    basis_pure,
    sample_density_matrix,
    singlet,
)
from entcost.serialize import save_object


@pytest.fixture
def singlet_file(tmp_path):
    path = tmp_path / "singlet.json"
    save_object(path, singlet())
    return str(path)


@pytest.fixture
def mixed_file(tmp_path):
    path = tmp_path / "mixed.json"
    save_object(path, sample_density_matrix((2, 2), 2, RandomSource(11)))
    return str(path)


def run_to_json(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--output", str(out)])
    return code, json.loads(out.read_text()) if out.exists() else None


class TestEofCommand:
    def test_singlet_value_and_envelope(self, singlet_file, tmp_path):
        code, doc = run_to_json(["eof", singlet_file, "--seed", "3"], tmp_path)
        assert code == EXIT_OK
        assert doc["tool_version"] == __version__
        assert doc["seed"] == 3
        assert doc["config"]["subcommand"] == "eof"
        assert doc["result"]["value"] == pytest.approx(1.0, abs=1e-9)

    def test_product_state_prints_positive_zero(self, tmp_path):
        path = tmp_path / "product.json"
        save_object(path, basis_pure((2, 2), 0, 1))
        out = tmp_path / "out.json"
        assert main(["eof", str(path), "--output", str(out)]) == EXIT_OK
        text = out.read_text()
        assert '"value": 0.0' in text
        assert "-0.0" not in text

    def test_mixed_state_within_oracle_tolerance(self, mixed_file, tmp_path):
        from entcost.eof import eof_two_qubit_closed_form
        from entcost.serialize import load_state
        rho = load_state(mixed_file)
        code, doc = run_to_json(
            ["eof", mixed_file, "--ensemble-size", "5", "--restarts", "3"],
            tmp_path)
        assert code == EXIT_OK
        assert abs(doc["result"]["value"]
                   - eof_two_qubit_closed_form(rho)) <= 1e-3

    def test_report_records_each_start(self, mixed_file, tmp_path):
        code, doc = run_to_json(
            ["eof", mixed_file, "--ensemble-size", "5", "--restarts", "3"],
            tmp_path)
        assert code == EXIT_OK
        res = doc["result"]
        starts = res["starts"]
        assert [s["kind"] for s in starts] == ["random"] * 3
        assert [s["value"] for s in starts] == res["value_history"]
        assert all(s["outcome"] in ("converged", "iteration_cap")
                   and 1 <= s["iterations"] < s["evaluations"]
                   for s in starts)
        assert res["converged"] is all(s["outcome"] != "iteration_cap"
                                       for s in starts)

    def test_pure_input_reports_no_start(self, singlet_file, tmp_path):
        # the pure-state short cut runs no start, so it has no history either
        code, doc = run_to_json(["eof", singlet_file], tmp_path)
        assert code == EXIT_OK
        res = doc["result"]
        assert res["value"] == pytest.approx(1.0, abs=1e-12)
        assert res["restarts_used"] == 0
        assert res["starts"] == [] and res["value_history"] == []
        assert res["converged"] is True

    def test_ensemble_input_is_averaged(self, tmp_path):
        ens = Ensemble(np.array([0.5, 0.5]),
                       (basis_pure((2, 2), 0, 0), basis_pure((2, 2), 1, 1)))
        path = tmp_path / "ens.json"
        save_object(path, ens)
        code, doc = run_to_json(["eof", str(path)], tmp_path)
        assert code == EXIT_OK
        assert doc["result"]["value"] <= 1e-6


class TestMetricsCommand:
    def test_reports_chain(self, singlet_file, mixed_file, tmp_path):
        code, doc = run_to_json(["metrics", singlet_file, mixed_file], tmp_path)
        assert code == EXIT_OK
        res = doc["result"]
        assert res["chain_holds"]
        assert res["chain_lower"] == pytest.approx(1.0 - res["fidelity"], abs=1e-12)

    def test_dims_mismatch_is_an_input_error(self, singlet_file, tmp_path):
        other = tmp_path / "wide.json"
        save_object(other, sample_density_matrix((2, 3), 2, RandomSource(1)))
        assert main(["metrics", singlet_file, str(other),
                     "--output", str(tmp_path / "x.json")]) == EXIT_INPUT


class TestInputErrors:
    def test_missing_file(self, tmp_path):
        assert main(["eof", str(tmp_path / "nope.json")]) == EXIT_INPUT

    def test_invalid_state_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dims": [2, 1],
                                   "matrix": [[[0.2, 0.0], [0.0, 0.0]],
                                              [[0.0, 0.0], [0.2, 0.0]]]}))
        assert main(["eof", str(bad)]) == EXIT_INPUT

    def test_unparseable_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["eof", str(bad)]) == EXIT_INPUT

    def test_bad_seed_env(self, singlet_file, monkeypatch, tmp_path):
        monkeypatch.setenv("ENTCOST_SEED", "banana")
        assert main(["eof", singlet_file,
                     "--output", str(tmp_path / "x.json")]) == EXIT_INPUT

    @pytest.mark.parametrize("dims", [[2, 2.5], [2.9, 2.2], ["2", "2"],
                                      [True, 4]])
    def test_non_integer_dims_are_an_input_error(self, tmp_path, dims):
        # int() would read these as (2, 2), or [true, 4] as (1, 4)
        from entcost.qcore import StateValidationError
        from entcost.serialize import load_state
        path = tmp_path / "dims.json"
        path.write_text(json.dumps({"dims": dims, "matrix": [
            [[0.25 if i == j else 0.0, 0.0] for j in range(4)]
            for i in range(4)]}))
        with pytest.raises(StateValidationError, match="dims"):
            load_state(path)
        assert main(["eof", str(path)]) == EXIT_INPUT

    def test_string_weight_is_an_input_error(self, tmp_path):
        # float() would read "0.5" as 0.5
        path = tmp_path / "weights.json"
        bell = {"dims": [2, 2], "vector": [[0.7071067811865476, 0.0], [0.0, 0.0],
                                           [0.0, 0.0], [0.7071067811865476, 0.0]]}
        path.write_text(json.dumps({"weights": ["0.5", "0.5"],
                                    "states": [bell, bell]}))
        assert main(["eof", str(path)]) == EXIT_INPUT

    def test_nan_entry_is_an_input_error(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"dims": [2, 2], "vector": '
                        '[[1.0, 0.0], [NaN, 0.0], [0.0, 0.0], [0.0, 0.0]]}')
        assert main(["eof", str(path)]) == EXIT_INPUT

    def test_unexpected_exception_is_an_internal_error(self, singlet_file,
                                                       monkeypatch, capsys):
        def crash(args):
            raise RuntimeError("boom")
        monkeypatch.setattr(cli, "_cmd_eof", crash)
        assert main(["eof", singlet_file]) == EXIT_INTERNAL
        assert capsys.readouterr().err.startswith("internal error: ")

    def test_removed_normalize_flag_is_a_usage_error(self, singlet_file):
        with pytest.raises(SystemExit) as exc:
            main(["formation", singlet_file, "--normalize", "sub"])
        assert exc.value.code == EXIT_INPUT

    def test_bad_demo_fidelity(self):
        assert main(["demo-divergence", "--fidelity", "1.5"]) == EXIT_INPUT


class TestSeedResolution:
    def test_env_variable_supplies_default(self, singlet_file, monkeypatch,
                                           tmp_path):
        monkeypatch.setenv("ENTCOST_SEED", "99")
        code, doc = run_to_json(["eof", singlet_file], tmp_path)
        assert code == EXIT_OK
        assert doc["seed"] == 99

    def test_flag_overrides_env(self, singlet_file, monkeypatch, tmp_path):
        monkeypatch.setenv("ENTCOST_SEED", "99")
        code, doc = run_to_json(["eof", singlet_file, "--seed", "7"], tmp_path)
        assert doc["seed"] == 7

    def test_default_is_zero(self, singlet_file, tmp_path):
        code, doc = run_to_json(["eof", singlet_file], tmp_path)
        assert doc["seed"] == 0


class TestRegularizeCommand:
    def test_singlet_trace_and_csv(self, singlet_file, tmp_path):
        csv_path = tmp_path / "rates.csv"
        out = tmp_path / "reg.json"
        code = main(["regularize", singlet_file, "--n-max", "2",
                     "--restarts", "1", "--output", str(out),
                     "--csv", str(csv_path)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        rates = [e["rate"] for e in doc["result"]["trace"]["entries"]]
        assert rates == pytest.approx([1.0, 1.0], abs=1e-9)
        assert doc["result"]["bracket"]["upper_on_regularized"] == pytest.approx(
            1.0, abs=1e-9)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "n,rate"
        assert lines[1].startswith("1,")
        assert len(lines) == 3


class TestFormationCommand:
    def test_ensemble_input_runs_protocol(self, tmp_path):
        v = np.zeros(4, dtype=complex)
        v[0] = v[3] = 1 / np.sqrt(2)
        from entcost.qcore import PureState
        ens = Ensemble(np.array([0.5, 0.5]),
                       (PureState((2, 2), v), basis_pure((2, 2), 0, 0)))
        path = tmp_path / "ens.json"
        save_object(path, ens)
        code, doc = run_to_json(["formation", str(path), "--n", "4"], tmp_path)
        assert code == EXIT_OK
        res = doc["result"]
        assert res["m"] == 4
        assert res["rate"] == pytest.approx(1.0)
        assert res["fid1_holds"] and res["fid2_holds"]
        assert res["typical_set"]["num_sequences"] == 14

    @pytest.mark.parametrize("flag", ["fid1_holds", "fid2_holds",
                                      "triangle_holds"])
    def test_a_broken_link_of_the_chain_exits_1(self, flag, mixed_file,
                                               monkeypatch, tmp_path):
        protocol = cli.formation_protocol
        monkeypatch.setattr(cli, "formation_protocol", lambda *a, **kw:
                            dataclasses.replace(protocol(*a, **kw), **{flag: False}))
        code, doc = run_to_json(["formation", mixed_file, "--n", "2"], tmp_path)
        assert code == EXIT_VIOLATION
        assert doc["result"][flag] is False

    def test_density_input_optimizes_first(self, mixed_file, tmp_path):
        code, doc = run_to_json(
            ["formation", mixed_file, "--n", "2", "--restarts", "2"], tmp_path)
        assert code == EXIT_OK
        assert doc["result"]["exact_mode"]

    def test_csv_sweep(self, tmp_path):
        from entcost.qcore import PureState
        v = np.zeros(4, dtype=complex)
        v[0], v[3] = np.sqrt(0.9), np.sqrt(0.1)
        path = tmp_path / "psi.json"
        save_object(path, PureState((2, 2), v))
        csv_path = tmp_path / "sweep.csv"
        code = main(["formation", str(path), "--n", "3",
                     "--output", str(tmp_path / "f.json"),
                     "--csv", str(csv_path)])
        assert code == EXIT_OK
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("n,m,rate")
        assert len(lines) == 4

    def test_lossless_pure_state_prints_a_zero_bound(self, tmp_path):
        from entcost.qcore import sample_pure_state
        path = tmp_path / "psi.json"
        save_object(path, sample_pure_state((2, 2), RandomSource(5)))
        code, doc = run_to_json(["formation", str(path), "--n", "1",
                                 "--delta2", "0.1"], tmp_path)
        assert code == EXIT_OK
        res = doc["result"]
        assert (res["eps2"], res["eps3"], res["bures_bound"]) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("n,bound,rate", [(22, 0.35252, 4 / 22),
                                              (100, 0.18778, 0.17),
                                              (300, 0.041189, 0.17),
                                              (1000, 7.8785e-4, 0.168)])
    def test_pure_state_asymptotics(self, tmp_path, n, bound, rate):
        # one typical sequence; the dilution walks the n + 1 occupation
        # patterns of psi^(x)n, so the bound falls as n grows
        from entcost.qcore import sample_pure_state
        path = tmp_path / "psi.json"
        save_object(path, sample_pure_state((2, 2), RandomSource(5)))
        start = time.perf_counter()
        code, doc = run_to_json(["formation", str(path), "--n", str(n),
                                 "--delta2", "0.1"], tmp_path)
        assert time.perf_counter() - start < 10.0
        assert code == EXIT_OK
        res = doc["result"]
        assert res["bures_bound"] == pytest.approx(bound, rel=1e-4)
        assert res["rate"] == pytest.approx(rate, abs=1e-12)
        assert res["slack"] <= 0.1 + 1.0 / n

    @pytest.mark.parametrize("n", [64, 200])
    def test_a_product_state_on_one_by_two_runs_exactly_at_any_n(self, tmp_path, n):
        # one Schmidt weight per copy: one kept term of n indices, and a
        # support basis of width 1, neither bounded by numpy's 64 axes
        from entcost.qcore import PureState
        path = tmp_path / "psi.json"
        save_object(path, PureState((1, 2), np.array([0.6, 0.8])))
        code, doc = run_to_json(["formation", str(path), "--n", str(n)], tmp_path)
        assert code == EXIT_OK
        res = doc["result"]
        assert res["exact_mode"] is True
        assert res["fid1_holds"] and res["fid2_holds"] and res["triangle_holds"]
        assert (res["eps2"], res["m"]) == (0.0, 0)

    @pytest.mark.parametrize("dims,weights,args", [
        ((3, 3), None, ["--n", "400"]),
        ((2, 2), (0.55, 0.45), ["--n", "1100", "--delta2", "0"])])
    def test_dilution_past_the_walk_is_an_input_error(self, tmp_path, dims,
                                                      weights, args):
        # (3,3) at n = 400 has too many occupation patterns to walk; the
        # Schmidt weights of (0.55, 0.45) at 1100 copies underflow a float
        from entcost.qcore import PureState, sample_pure_state
        if weights is None:
            psi = sample_pure_state(dims, RandomSource(5))
        else:
            v = np.zeros(4, dtype=complex)
            v[0], v[3] = np.sqrt(weights[0]), np.sqrt(weights[1])
            psi = PureState(dims, v)
        path = tmp_path / "psi.json"
        save_object(path, psi)
        start = time.perf_counter()
        code, doc = run_to_json(["formation", str(path)] + args, tmp_path)
        assert time.perf_counter() - start < 2.0
        assert code == EXIT_INPUT and doc is None

    def test_typical_set_past_the_prefix_cap_is_an_input_error(self, tmp_path,
                                                                capsys):
        # (0.5, 0.5) at n = 23 fits more than 2^22 prefixes at place 23
        path = tmp_path / "ens.json"
        save_object(path, Ensemble(np.array([0.5, 0.5]),
                                   (singlet(), basis_pure((2, 2), 0, 0))))
        code, doc = run_to_json(["formation", str(path), "--n", "23"], tmp_path)
        assert code == EXIT_INPUT and doc is None
        assert capsys.readouterr().err.startswith("error: more than 4194304")

    @pytest.mark.parametrize("delta2,expect", [("600", EXIT_OK),
                                               ("1e300", EXIT_OK),
                                               ("1.7e308", EXIT_INPUT)])
    def test_large_delta2(self, tmp_path, delta2, expect):
        # budgets far past the Schmidt rank keep everything; a singlet count
        # that overflows a float is an input error, not a crash
        from entcost.qcore import sample_pure_state
        rng = RandomSource(41)
        ens = Ensemble(np.array([0.5, 0.3, 0.2]),
                       tuple(sample_pure_state((2, 2), rng.split())
                             for _ in range(3)))
        path = tmp_path / "ens.json"
        save_object(path, ens)
        start = time.perf_counter()
        code, doc = run_to_json(["formation", str(path), "--n", "3",
                                 "--delta2", delta2], tmp_path)
        assert time.perf_counter() - start < 60.0
        assert code == expect
        if expect == EXIT_OK:
            res = doc["result"]
            assert res["eps2"] == 0.0 and res["eps3"] == 0.0
            assert res["m"] == sum(e["singlets"] for e in res["plan"]["entries"])
            assert res["fid1_holds"] and res["fid2_holds"]
        else:
            assert doc is None

    @pytest.mark.parametrize("window", ["paper", "plain"])
    def test_huge_delta1_admits_every_sequence(self, tmp_path, window):
        # delta1 * n overflows to inf; the count window is [0, n] all the same
        from entcost.qcore import sample_pure_state
        rng = RandomSource(41)
        ens = Ensemble(np.array([0.5, 0.3, 0.2]),
                       tuple(sample_pure_state((2, 2), rng.split())
                             for _ in range(3)))
        path = tmp_path / "ens.json"
        save_object(path, ens)
        code, doc = run_to_json(["formation", str(path), "--n", "3",
                                 "--delta1", "1e308", "--window", window],
                                tmp_path)
        assert code == EXIT_OK
        assert doc["result"]["eps1"] == 0.0

    def test_csv_last_row_is_the_reported_run(self, tmp_path):
        from entcost.qcore import PureState
        v = np.zeros(4, dtype=complex)
        v[0] = v[3] = 1 / np.sqrt(2)
        ens = Ensemble(np.array([0.5, 0.5]),
                       (PureState((2, 2), v), basis_pure((2, 2), 0, 0)))
        path = tmp_path / "ens.json"
        save_object(path, ens)
        csv_path = tmp_path / "sweep.csv"
        code, doc = run_to_json(["formation", str(path), "--n", "4",
                                 "--csv", str(csv_path)], tmp_path)
        assert code == EXIT_OK
        lines = csv_path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header == ["n", "m", "rate", "eps1", "eps3", "bures_bound",
                          "exact_bures"]
        assert [int(line.split(",")[0]) for line in lines[1:]] == [1, 2, 3, 4]
        last = dict(zip(header, lines[-1].split(",")))
        res = doc["result"]
        assert int(last["m"]) == res["m"]
        for key in header[2:]:
            assert float(last[key]) == res[key]


class TestVerifyCommand:
    def test_small_run_is_clean(self, tmp_path):
        out = tmp_path / "verify.json"
        code = main(["verify", "--pairs", "40", "--channels", "12",
                     "--perturbed", "8", "--quadruples", "8",
                     "--seed", "5", "--output", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        for section in ("monotonicity", "continuity", "metric_chain",
                        "multiplicativity"):
            assert doc["result"][section]["violations"] == 0


class TestDemoDivergence:
    def test_csv_matches_closed_form(self, tmp_path):
        out = tmp_path / "div.csv"
        code = main(["demo-divergence", "--fidelity", "0.99", "--k-max", "200",
                     "--output", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "k,fidelity,bures"
        assert len(lines) == 201
        k, fk, dk = lines[-1].split(",")
        assert int(k) == 200
        assert float(fk) == pytest.approx(0.99 ** 200, abs=1e-12)
        assert float(dk) == pytest.approx(
            2.0 * np.sqrt(1.0 - 0.99 ** 200), abs=1e-12)

    def test_json_format(self, tmp_path):
        code, doc = run_to_json(["demo-divergence", "--format", "json",
                                 "--k-max", "3"], tmp_path)
        assert code == EXIT_OK
        assert [row["k"] for row in doc["result"]] == [1, 2, 3]


    def test_rows_equal_tensor_power_divergence(self, tmp_path, monkeypatch):
        monkeypatch.setattr(entcost.metrics, "DIRECT_DIM", 16)
        rho = sample_density_matrix((2, 2), 2, RandomSource(8))
        sigma = sample_density_matrix((2, 2), 3, RandomSource(9))
        entries = entcost.metrics.tensor_power_divergence(rho, sigma, 6)
        fid = repr(entries[0]["fidelity"])
        code, doc = run_to_json(["demo-divergence", "--fidelity", fid,
                                 "--k-max", "6", "--format", "json"], tmp_path)
        assert code == EXIT_OK
        assert doc["result"] == [
            {key: e[key] for key in ("k", "fidelity", "bures")} for e in entries]


class TestNumericFlags:
    """Out-of-range numbers are usage errors (exit 2) before any work runs."""

    @pytest.mark.parametrize("argv", [
        ["eof", "{state}", "--tol", "nan"],
        ["eof", "{state}", "--tol", "inf"],
        ["eof", "{state}", "--tol", "-1"],
        ["eof", "{state}", "--restarts", "0"],
        ["eof", "{state}", "--ensemble-size", "0"],
        ["eof", "{state}", "--seed", "-1"],
        ["regularize", "{state}", "--n-max", "0"],
        ["regularize", "{state}", "--restarts", "-1"],
        ["formation", "{state}", "--restarts", "0"],
        ["formation", "{state}", "--delta1", "nan"],
        ["formation", "{state}", "--delta2", "-0.5"],
        ["verify", "--pairs", "-1"],
        ["demo-divergence", "--k-max", "-3"],
        ["demo-divergence", "--k-max", "2.5"],
    ])
    def test_rejected_by_the_parser(self, argv, mixed_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main([mixed_file if a == "{state}" else a for a in argv])
        assert exc.value.code == EXIT_INPUT
        assert "expected" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        # the mixed state has rank 2, so no one-member ensemble realizes it
        ["eof", "{state}", "--ensemble-size", "1"],
        ["regularize", "{state}", "--ensemble-size", "1"],
        # 32^7 rows exceeds the row-work cap
        ["regularize", "{state}", "--n-max", "7"],
        # 20000 random starts x sqrt(32) exceed the random-start cap
        ["eof", "{state}", "--restarts", "20000"],
        ["regularize", "{state}", "--n-max", "1", "--restarts", "20000"],
    ])
    def test_rejected_by_the_state(self, argv, mixed_file, capsys):
        assert main([mixed_file if a == "{state}" else a for a in argv]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("rank, n_max", [(4, "4"), (2, "6")])
    def test_regularize_past_the_row_work_cap_runs_no_refine(
            self, rank, n_max, tmp_path, monkeypatch, capsys):
        def refine(*args, **kwargs):
            raise AssertionError("refined past the cap")
        monkeypatch.setattr(entcost.regcost, "_minimize_rows", refine)
        path = tmp_path / "rho.json"
        save_object(path, sample_density_matrix((2, 2), rank, RandomSource(1)))
        assert main(["regularize", str(path), "--n-max", n_max,
                     "--restarts", "0"]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: row work")

    def test_negative_seed_env(self, monkeypatch):
        monkeypatch.setenv("ENTCOST_SEED", "-1")
        assert main(["demo-divergence", "--k-max", "1"]) == EXIT_INPUT

    def test_zero_restarts_at_n_two_still_runs(self, mixed_file, tmp_path):
        code, doc = run_to_json(["regularize", mixed_file, "--restarts", "0"],
                                tmp_path)
        assert code == EXIT_OK
        assert doc["config"]["restarts"] == 0
        # n = 1 refines max(restarts, 1) random starts and n = 2 the warm
        # start alone, so --restarts 0 and 1 differ only in config.restarts
        one = tmp_path / "one.json"
        assert main(["regularize", mixed_file, "--restarts", "1",
                     "--output", str(one)]) == EXIT_OK
        zero = (tmp_path / "out.json").read_bytes()
        assert zero.count(b'"restarts": 0,') == 1
        assert zero.replace(b'"restarts": 0,', b'"restarts": 1,') == one.read_bytes()

    def test_linear_algebra_failure_stays_internal(self, singlet_file,
                                                   monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")
        monkeypatch.setattr(cli, "eof_optimize", fail)
        assert main(["eof", singlet_file]) == EXIT_INTERNAL


def test_one_parser_serves_many_calls(singlet_file, mixed_file, tmp_path,
                                      capsys):
    # main builds its parser on the first call and keeps it; each call must
    # report and exit as it does through a freshly built parser
    ens_file = tmp_path / "ens.json"
    save_object(ens_file, Ensemble(np.array([0.5, 0.5]),
                                   (singlet(), basis_pure((2, 2), 0, 0))))
    calls = [
        ["eof", singlet_file, "--seed", "5"],
        ["eof", singlet_file],
        ["metrics", singlet_file, mixed_file],
        ["formation", str(ens_file), "--n", "2", "--window", "plain"],
        ["formation", str(ens_file), "--n", "0"],
        ["demo-divergence", "--k-max", "3", "--format", "json", "--seed", "2"],
        ["demo-divergence", "--k-max", "3"],
        ["eof", singlet_file, "--restarts", "2", "--seed", "1"],
    ]

    def run(argv, out):
        try:
            code = main(argv + ["--output", str(out)])
        except SystemExit as exc:       # argparse exits on usage errors
            code = exc.code
        return code, out.read_bytes() if out.exists() else None

    kept = [run(argv, tmp_path / f"kept-{j}") for j, argv in enumerate(calls)]
    fresh = []
    for j, argv in enumerate(calls):
        cli._parser.cache_clear()
        fresh.append(run(argv, tmp_path / f"fresh-{j}"))
    assert kept == fresh
    assert [code for code, _ in kept] == [0, 0, 0, 0, EXIT_INPUT, 0, 0, 0]
    assert json.loads(kept[0][1])["seed"] == 5
    assert json.loads(kept[1][1])["seed"] == 0
    assert json.loads(kept[3][1])["config"]["window"] == "plain"


def test_violation_exit_code_is_distinct():
    assert {EXIT_OK, EXIT_VIOLATION, EXIT_INPUT, EXIT_INTERNAL} == {0, 1, 2, 3}


def test_import_does_not_load_scipy():
    # every CLI call pays for its imports: scipy.optimize added about 0.5 s
    # and 50 MB to `import entcost.cli` (2-core Xeon, Python 3.11)
    src = str(Path(entcost.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, entcost.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"
