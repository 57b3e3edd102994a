"""The traced benchmark run wraps names it looks up without a default.

`perfbench/tracing.py` replaces each (module, attribute) in its WRAPPED list
by a recording wrapper, reading the original with a plain `getattr`.  A name
renamed or deleted in the package would crash every traced run, so each one
must still resolve.  This test only reads perfbench.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


@pytest.mark.parametrize("module, attr, span", _wrapped())
def test_wrapped_name_resolves(module, attr, span):
    assert hasattr(importlib.import_module(module), attr), (
        f"{module}.{attr} (span {span}) is missing")
