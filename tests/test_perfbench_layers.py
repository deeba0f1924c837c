"""Every layer that the benchmark's tracer wraps still exists.

perfbench/layers.py names each traced layer by (module, qualified name).  A
layer whose function was deleted or renamed is skipped at trace time with a
"layers not found" note, and its per-layer metrics read 0, which looks like
a free layer.  The tracer's own table and resolver are loaded by file path,
as the benchmark loads them, so a renamed function fails here instead.
"""
import importlib.util
from pathlib import Path

import pytest

LAYERS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _layers_module():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = _layers_module()


@pytest.mark.parametrize("metric, module, path", LAYERS.LAYERS, ids=[m for m, _, _ in LAYERS.LAYERS])
def test_traced_layer_resolves(metric, module, path):
    assert LAYERS._resolve(module, path) is not None, f"{metric}: {module}.{path} no longer exists"
