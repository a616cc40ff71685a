"""The benchmark's tracer wraps layer functions by their names in boldkit.pipeline."""

import importlib
import importlib.util
import os

from boldkit import pipeline

TRACING_PY = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "bench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves_in_pipeline():
    layers = load_tracing().LAYERS
    assert layers
    for module, name, _ in layers:
        home = importlib.import_module(f"boldkit.{module}")
        assert getattr(pipeline, name) is getattr(home, name), f"{module}.{name}"
