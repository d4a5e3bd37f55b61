"""Every function the benchmark tracer wraps still exists in flowinv.

The tracer reports a per-layer metric as None when its function is gone,
so a rename would otherwise go unnoticed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, name) for module, name, _ in tracer.TRACED]


@pytest.mark.parametrize("module, name", _traced(),
                         ids=lambda part: part)
def test_traced_name_resolves(module, name):
    obj = importlib.import_module(f"flowinv.{module}")
    for attr in name.split("."):
        obj = getattr(obj, attr)
    assert callable(obj)
