"""JSON file formats for states and ensembles, plus canonical report output.

Density matrices: {"dims": [dA, dB], "matrix": [[[re, im], ...], ...]} with
row-major rows.  Pure states: {"dims": [dA, dB], "vector": [[re, im], ...]}.
Ensembles: {"weights": [...], "states": [pure-state objects]}.  Reports are
emitted with floats at 17 significant digits and sorted keys so identical
runs produce byte-identical files.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .qcore import Ensemble, PureState, QuantumState, StateValidationError


def _complex_to_pair(z):
    return [float(np.real(z)), float(np.imag(z))]


def _pair_to_complex(pair):
    re, im = pair
    return complex(float(re), float(im))


def state_to_json_obj(state: QuantumState):
    return {
        "dims": list(state.dims),
        "matrix": [[_complex_to_pair(z) for z in row] for row in state.matrix],
    }


def pure_to_json_obj(psi: PureState):
    return {
        "dims": list(psi.dims),
        "vector": [_complex_to_pair(z) for z in psi.vector],
    }


def ensemble_to_json_obj(ensemble: Ensemble):
    return {
        "weights": [float(w) for w in ensemble.weights],
        "states": [pure_to_json_obj(s) for s in ensemble.states],
    }


def object_from_json_obj(obj):
    """Rebuild a QuantumState, PureState, or Ensemble from its JSON form."""
    if not isinstance(obj, dict):
        raise StateValidationError("expected a JSON object")
    if "weights" in obj and "states" in obj:
        states = tuple(object_from_json_obj(s) for s in obj["states"])
        if not all(isinstance(s, PureState) for s in states):
            raise StateValidationError("ensemble states must be pure-state objects")
        return Ensemble(np.asarray(obj["weights"], dtype=float), states)
    if "dims" not in obj:
        raise StateValidationError("missing 'dims' field")
    dims = tuple(int(d) for d in obj["dims"])
    if "vector" in obj:
        vec = np.array([_pair_to_complex(p) for p in obj["vector"]])
        return PureState(dims, vec)
    if "matrix" in obj:
        mat = np.array([[_pair_to_complex(p) for p in row]
                        for row in obj["matrix"]])
        return QuantumState(dims, mat)
    raise StateValidationError("object has neither 'matrix', 'vector' nor ensemble fields")


def load_state(path):
    """Load and validate a state/ensemble file (invariants enforced on load)."""
    with open(path, "r", encoding="utf-8") as fh:
        return object_from_json_obj(json.load(fh))


def save_object(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        if isinstance(obj, QuantumState):
            payload = state_to_json_obj(obj)
        elif isinstance(obj, PureState):
            payload = pure_to_json_obj(obj)
        elif isinstance(obj, Ensemble):
            payload = ensemble_to_json_obj(obj)
        else:
            payload = obj
        fh.write(dumps_canonical(payload))
        fh.write("\n")


# ---------------------------------------------------------------------------
# Canonical JSON with 17-significant-digit floats
# ---------------------------------------------------------------------------

def _format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    x += 0.0    # -0.0 + 0.0 is +0.0, so negative zero prints as 0.0
    if x == int(x) and abs(x) < 1e16:
        return format(x, ".1f")
    return format(x, ".17g")


def dumps_canonical(obj, indent=0) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [dumps_canonical(x, indent + 1) for x in obj]
        if not items:
            return "[]"
        return "[\n" + ",\n".join(inner + it for it in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = []
        for key in sorted(obj):
            parts.append(f"{inner}{json.dumps(str(key))}: "
                         f"{dumps_canonical(obj[key], indent + 1)}")
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize object of type {type(obj)!r}")
