"""What ``repro.serve`` exports, and who may import it."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.serve
import repro.serve.gateway

PACKAGES = [repro.serve, repro.serve.gateway]
#: The retired sweep layer; perfbench is the one benchmark system.
RETIRED_SUFFIXES = ("Point", "Report", "_sweep", "_point")
RETIRED_NAMES = ("serve_session", "mixed_traffic_session", "export_report",
                 "sequential_throughput", "engine_throughput",
                 "stream_latency", "dataclass_to_dict")


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve_and_are_unique(package):
    assert len(set(package.__all__)) == len(package.__all__)
    for name in package.__all__:
        assert getattr(package, name) is not None


def test_sweep_layer_and_cli_are_gone():
    for package in PACKAGES:
        for name in dir(package):
            assert not name.endswith(RETIRED_SUFFIXES), name
        for name in RETIRED_NAMES:
            assert not hasattr(package, name), name
    for module in ("repro.serve.__main__", "repro.serve.bench",
                   "repro.serve.gateway.bench"):
        assert importlib.util.find_spec(module) is None, module


def test_offline_half_does_not_import_serving():
    """Quantization, evaluation, experiments and the accelerator model
    load without the engine, the gateway, sqlite3 or http.server."""
    code = ("import sys, repro.eval, repro.experiments, repro.quant, "
            "repro.hw; print([m for m in sys.modules "
            "if m.startswith('repro.serve')])")
    src = str(Path(repro.serve.__file__).parents[2])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
