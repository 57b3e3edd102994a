"""JSON file formats for states and ensembles, plus canonical report output.

Density matrices: {"dims": [dA, dB], "matrix": [[[re, im], ...], ...]} with
row-major rows.  Pure states: {"dims": [dA, dB], "vector": [[re, im], ...]}.
Ensembles: {"weights": [...], "states": [pure-state objects]}.  Each is its
dataclass's fields, written like any report: floats at 17 significant digits
and sorted keys, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math

import numpy as np

from .qcore import Ensemble, PureState, QuantumState, StateValidationError

# field(metadata=INTERNAL) keeps a dataclass field out of its JSON form
INTERNAL = {"internal": True}


def _number(x):
    # bools are ints to Python, and float() would parse "0.5"
    if type(x) not in (int, float):
        raise StateValidationError(f"expected a JSON number, got {x!r}")
    return float(x)


def _pair_to_complex(pair):
    re, im = pair
    return complex(_number(re), _number(im))


def object_from_json_obj(obj):
    """Rebuild a QuantumState, PureState, or Ensemble from its JSON form."""
    if not isinstance(obj, dict):
        raise StateValidationError("expected a JSON object")
    if "weights" in obj and "states" in obj:
        states = tuple(object_from_json_obj(s) for s in obj["states"])
        if not all(isinstance(s, PureState) for s in states):
            raise StateValidationError("ensemble states must be pure-state objects")
        return Ensemble(np.array([_number(w) for w in obj["weights"]]), states)
    if "dims" not in obj:
        raise StateValidationError("missing 'dims' field")
    dims = obj["dims"]
    # int() would truncate 2.5, parse "2" or read true as 1
    if not (isinstance(dims, list) and len(dims) == 2
            and all(type(d) is int for d in dims)):
        raise StateValidationError(f"'dims' must be two JSON integers, got {dims!r}")
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
        fh.write(dumps_canonical(obj))
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


@functools.cache
def _fields(cls):
    """Field names a dataclass or NamedTuple type writes, else None (cached)."""
    if dataclasses.is_dataclass(cls):
        return tuple(f.name for f in dataclasses.fields(cls)
                     if not f.metadata.get("internal"))
    if issubclass(cls, tuple) and hasattr(cls, "_fields"):
        return cls._fields
    return None


def dumps_canonical(obj, indent=0) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits.

    Dataclasses (less INTERNAL fields) and NamedTuples become objects of
    their fields, complex numbers [re, im] pairs.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    # primitives first: reports are mostly floats
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
    names = _fields(type(obj))
    if names is not None:
        obj = {name: getattr(obj, name) for name in names}
    elif isinstance(obj, (complex, np.complexfloating)):
        obj = [obj.real, obj.imag]
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
