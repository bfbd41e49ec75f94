"""The benchmark's span tracer still finds every function it wraps in the sppot package."""

import importlib.util
import sys
from pathlib import Path

import sppot.bench
import sppot.graph
from sppot.graph import SemanticGraph

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves_and_uninstall_restores(monkeypatch):
    originals = (sppot.graph.build_knn_graph, sppot.bench.build_knn_graph, SemanticGraph.to_dense)
    tracer = load_tracing(monkeypatch).Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
        wrapped = (sppot.graph.build_knn_graph, sppot.bench.build_knn_graph, SemanticGraph.to_dense)
        assert all(w is not o for w, o in zip(wrapped, originals))
    finally:
        tracer.uninstall()
    restored = (sppot.graph.build_knn_graph, sppot.bench.build_knn_graph, SemanticGraph.to_dense)
    assert all(r is o for r, o in zip(restored, originals))
