"""The traced benchmark run wraps names it looks up without a default.

`perfbench/tracing.py` replaces each (module, attribute) in its WRAPPED list
by a recording wrapper, reading the original with a plain `getattr`.  A name
renamed or deleted in the package would crash every traced run, so each one
must still resolve, and a `None` placeholder kept for it must still be
wrapped.  The tracer's observers also read attributes of the
results they see, which only a traced run exercises, so the harness
self-test runs here too.  These tests only read perfbench.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


@pytest.mark.parametrize("module, attr, span", _wrapped())
def test_wrapped_name_resolves(module, attr, span):
    assert hasattr(importlib.import_module(module), attr), (
        f"{module}.{attr} (span {span}) is missing")


@pytest.mark.parametrize("module", ["entcost.eof", "entcost.formation",
                                    "entcost.regcost"])
def test_placeholders_are_still_wrapped(module):
    # a module-level None stands in for a name only the tracer still wraps;
    # once WRAPPED drops the name, the placeholder goes too
    names = vars(importlib.import_module(module))
    placeholders = {name for name, value in names.items()
                    if value is None and not name.startswith("__")}
    wrapped = {attr for mod, attr, _ in _wrapped() if mod == module}
    assert placeholders <= wrapped, f"unwrapped placeholders: {placeholders - wrapped}"


def test_harness_selftest_passes():
    done = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          cwd=PERFBENCH.parent, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
