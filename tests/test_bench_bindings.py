"""The benchmark tracer's bindings name functions that exist.

``bench/tracer.py`` wraps doctype functions where the calling modules bound
them. A refactor that drops one of those imports breaks a traced benchmark
run, so every binding is resolved here without installing the tracer.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_wraps():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPS


WRAPS = load_wraps()


@pytest.mark.parametrize("bindings", [b for _, _, b in WRAPS], ids=lambda b: ".".join(b[0]))
def test_bindings_resolve_to_one_function(bindings):
    targets = [getattr(importlib.import_module(module), name) for module, name in bindings]
    assert all(callable(target) for target in targets)
    assert all(target is targets[0] for target in targets), bindings
