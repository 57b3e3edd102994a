import json

import numpy as np
import pytest

from entcost.qcore import (
    Ensemble,
    PureState,
    QuantumState,
    RandomSource,
    StateValidationError,
    basis_pure,
    sample_density_matrix,
    sample_pure_state,
    singlet,
)
from entcost.serialize import (
    dumps_canonical,
    load_state,
    object_from_json_obj,
    save_object,
)


class TestRoundTrips:
    def test_density_matrix(self, tmp_path):
        rho = sample_density_matrix((2, 3), 3, RandomSource(1))
        path = tmp_path / "rho.json"
        save_object(path, rho)
        back = load_state(path)
        assert isinstance(back, QuantumState)
        assert back.dims == rho.dims
        assert np.abs(back.matrix - rho.matrix).max() < 1e-15

    def test_pure_state(self, tmp_path):
        psi = sample_pure_state((3, 2), RandomSource(2))
        path = tmp_path / "psi.json"
        save_object(path, psi)
        back = load_state(path)
        assert isinstance(back, PureState)
        assert np.abs(back.vector - psi.vector).max() < 1e-15

    def test_ensemble(self, tmp_path):
        ens = Ensemble(np.array([0.25, 0.75]),
                       (singlet(), basis_pure((2, 2), 0, 0)))
        path = tmp_path / "ens.json"
        save_object(path, ens)
        back = load_state(path)
        assert isinstance(back, Ensemble)
        assert np.allclose(back.weights, ens.weights)
        for s1, s2 in zip(back.states, ens.states):
            assert np.abs(s1.vector - s2.vector).max() < 1e-15

    def test_in_memory_objects_round_trip(self):
        rho = sample_density_matrix((2, 2), 2, RandomSource(3))
        again = object_from_json_obj(json.loads(dumps_canonical(rho)))
        assert np.abs(again.matrix - rho.matrix).max() < 1e-15
        psi = singlet()
        assert np.abs(object_from_json_obj(
            json.loads(dumps_canonical(psi))).vector - psi.vector).max() < 1e-15


_BELL = {"dims": [2, 2], "vector": [[0.7071067811865476, 0.0], [0.0, 0.0],
                                    [0.0, 0.0], [0.7071067811865476, 0.0]]}


class TestObjectParsing:
    def test_detects_kind_by_fields(self):
        assert isinstance(object_from_json_obj(
            {"dims": [2, 2], "matrix": json.loads(dumps_canonical(
                singlet().to_state()))["matrix"]}), QuantumState)
        assert isinstance(object_from_json_obj(
            json.loads(dumps_canonical(singlet()))), PureState)
        ens = Ensemble(np.array([1.0]), (singlet(),))
        assert isinstance(object_from_json_obj(json.loads(dumps_canonical(ens))),
                          Ensemble)

    def test_rejects_malformed_objects(self):
        with pytest.raises(StateValidationError):
            object_from_json_obj([1, 2, 3])
        with pytest.raises(StateValidationError):
            object_from_json_obj({"matrix": []})
        with pytest.raises(StateValidationError):
            object_from_json_obj({"dims": [2, 2]})
        with pytest.raises(StateValidationError):
            # ensemble states must be pure-state objects, not density matrices
            object_from_json_obj({"weights": [1.0],
                                  "states": [json.loads(dumps_canonical(
                                      singlet().to_state()))]})

    @pytest.mark.parametrize("obj", [
        {"weights": ["0.5", "0.5"], "states": [_BELL, _BELL]},
        {"weights": [True], "states": [_BELL]},
        {"dims": [2, 2], "vector": [["1", 0], [0, 0], [0, 0], [0, 0]]},
        {"dims": [2, 2], "vector": [[True, 0], [0, 0], [0, 0], [0, 0]]},
        {"dims": [1, 1], "matrix": [[["1", "0"]]]},
    ], ids=["string-weights", "bool-weight", "string-entry", "bool-entry",
            "string-matrix-entry"])
    def test_only_json_numbers_are_numbers(self, obj):
        # float() would read each of these as a number
        with pytest.raises(StateValidationError, match="JSON number"):
            object_from_json_obj(obj)

    def test_load_enforces_state_invariants(self, tmp_path):
        path = tmp_path / "bad.json"
        bad = {"dims": [2, 1],
               "matrix": [[[0.25, 0.0], [0.0, 0.0]],
                          [[0.0, 0.0], [0.25, 0.0]]]}
        path.write_text(json.dumps(bad))
        with pytest.raises(StateValidationError):
            load_state(path)


class TestCanonicalJson:
    def test_floats_use_seventeen_significant_digits(self):
        assert dumps_canonical(1.0 / 3.0) == "0.33333333333333331"
        assert dumps_canonical(0.1) == "0.10000000000000001"

    def test_integral_floats_keep_a_decimal_point(self):
        assert dumps_canonical(1.0) == "1.0"
        assert dumps_canonical(-2.0) == "-2.0"
        assert dumps_canonical(3) == "3"

    def test_keys_are_sorted(self):
        out = dumps_canonical({"b": 1, "a": 2})
        assert out.index('"a"') < out.index('"b"')

    def test_handles_numpy_scalars_and_arrays(self):
        out = dumps_canonical({"x": np.float64(0.5), "n": np.int64(4),
                               "flag": np.bool_(True), "v": np.array([1.0, 2.0])})
        parsed = json.loads(out)
        assert parsed == {"x": 0.5, "n": 4, "flag": True, "v": [1.0, 2.0]}

    def test_negative_zero_prints_as_zero(self):
        assert dumps_canonical(-0.0) == "0.0"
        assert dumps_canonical(np.float64(-0.0)) == "0.0"
        assert dumps_canonical([-0.0, 0.0]) == dumps_canonical([0.0, 0.0])

    def test_rejects_non_finite_floats(self):
        with pytest.raises(ValueError):
            dumps_canonical(float("nan"))
        with pytest.raises(ValueError):
            dumps_canonical(float("inf"))

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            dumps_canonical(object())

    def test_output_is_valid_json_and_deterministic(self):
        payload = {"values": [0.1, 0.2, 1.0], "nested": {"z": 0, "a": [True]},
                   "empty": [], "none": None}
        first = dumps_canonical(payload)
        second = dumps_canonical(json.loads(first))
        assert first == second
        assert json.loads(first)["none"] is None
