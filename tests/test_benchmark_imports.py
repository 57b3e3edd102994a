"""Every per-layer benchmark module still imports against the package.

The modules under `benchmarks/` sit outside the tier-1 suite (`testpaths`
collects only `tests/`), so a name they import that the package deletes would
otherwise go unnoticed until someone runs them.  Importing needs no
pytest-benchmark; only running them does.
"""

import importlib.util
from pathlib import Path

import pytest

BENCHMARKS = sorted((Path(__file__).resolve().parents[1] / "benchmarks").glob("*.py"))


def test_benchmarks_exist():
    assert BENCHMARKS


@pytest.mark.parametrize("path", BENCHMARKS, ids=lambda p: p.name)
def test_benchmark_module_imports(path):
    spec = importlib.util.spec_from_file_location(f"benchmark_{path.stem}", path)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
