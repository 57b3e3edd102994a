import json

import numpy as np
import pytest

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


    def test_rows_equal_tensor_power_divergence(self, tmp_path):
        from entcost.metrics import tensor_power_divergence
        rho = sample_density_matrix((2, 2), 2, RandomSource(8))
        sigma = sample_density_matrix((2, 2), 3, RandomSource(9))
        entries = tensor_power_divergence(rho, sigma, 6, dim_cap=16)
        fid = repr(entries[0]["fidelity"])
        code, doc = run_to_json(["demo-divergence", "--fidelity", fid,
                                 "--k-max", "6", "--format", "json"], tmp_path)
        assert code == EXIT_OK
        assert doc["result"] == [
            {key: e[key] for key in ("k", "fidelity", "bures")} for e in entries]


def test_violation_exit_code_is_distinct():
    assert {EXIT_OK, EXIT_VIOLATION, EXIT_INPUT, EXIT_INTERNAL} == {0, 1, 2, 3}
