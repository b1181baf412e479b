"""The traced benchmark run looks up each layer by (module, attribute) at
call time; a refactor that moves one of those names must fail here, not only
under `bench/run.py --trace 1`."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

RUN_PY = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def _layers():
    spec = importlib.util.spec_from_file_location("bench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return [(name, attr) for name, attr, *_ in module.LAYERS]


@pytest.mark.parametrize("module_name,attr", _layers())
def test_traced_layer_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))
