"""The benchmark's span tracer must find every binding it wraps.

``perfbench/layers.py`` times the package by replacing module-level bindings
(``phase.bfs_forest``, ``verify.multi_source_bfs``, ...).  A binding the
package no longer has makes every benchmark run incorrect, so a change that
drops one fails here, in the test suite, rather than only in the benchmark.
"""

import importlib.util
import sys
from pathlib import Path

import strongcluster
import strongcluster.cli

_LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", _LAYERS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_wrapped_binding():
    layers = _load_layers()
    original = strongcluster.phase.bfs_forest
    tracer = layers.Tracer()
    try:
        layers.install(tracer, strongcluster)
        assert tracer.missing == []
    finally:
        tracer.restore()
    assert strongcluster.phase.bfs_forest is original
