"""The benchmark's workloads run against the flows as they are called.

``bench/workloads.py`` wraps ``pipeline.analyze_volume`` positionally to
capture the concatenated condition's rejection mask; a flow that calls it
another way leaves the mask uncaptured and the benchmark's check fails.
Each workload runs here once at its tiny size, in-process.
"""

import importlib.util
import os

import pytest

WORKLOADS_PY = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                            "bench", "workloads.py")


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["duration-realistic", "analyze-default"])
def test_tiny_workload_passes_its_check(tmp_path, name):
    workload = load_workloads().WORKLOADS[name](3, str(tmp_path), tiny=True)
    workload.prepare()
    workload.execute()
    assert workload.check() == []
