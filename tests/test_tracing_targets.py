"""The benchmark's span tracer still finds every function it wraps in the sppot package,
and its probes read the counts of every solve."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

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


def test_kernel_probes_report_each_solve(monkeypatch):
    # the kernel spans' counts come from the kernels' positional arguments and
    # result tuples; they must match the plans the solvers return
    from conftest import random_pred
    from sppot import ot_core, p2ot, sp2ot

    cfg = ot_core.ScalingConfig(epsilon=0.1, tol=1e-7, max_iter=777)
    P = random_pred(40, 4, seed=0)
    A = np.eye(40, k=1) + np.eye(40, k=-1)
    tracer = load_tracing(monkeypatch).Tracer()
    solves = {
        "balanced": lambda: ot_core.solve_balanced_ot(P, cfg),
        "p2ot_fast": lambda: p2ot.solve_p2ot_fast(p2ot.P2otProblem(P, 0.5, 1.0, cfg)),
        "p2ot_gsa": lambda: p2ot.solve_p2ot_gsa(p2ot.P2otProblem(P, 0.5, 1.0, cfg)),
        "sla": lambda: ot_core.solve_sla(P, 0.5, 0.2, cfg),
        "sp2ot": lambda: sp2ot.solve_sp2ot(sp2ot.Sp2otProblem(P, A, 0.01, 1.0, 0.5, 0.1, inner=cfg)),
    }
    kernel_spans, results = {}, {}
    try:
        tracer.install()
        tracer.on = True
        for name, solve in solves.items():
            start = len(tracer.spans)
            results[name] = solve()
            kernel_spans[name] = [s for s in tracer.spans[start:] if s.name.startswith("kernels.")]
    finally:
        tracer.uninstall()
    assert tracer.probe_errors == {}
    plan, trace = results.pop("sp2ot")
    spans = kernel_spans.pop("sp2ot")
    assert [s.info["iters"] for s in spans] == trace.inner_iterations
    assert spans[-1].info["converged"] == plan.converged
    for name, plan in results.items():
        (span,) = kernel_spans[name]
        assert (span.info["iters"], span.info["converged"]) == (plan.iterations, plan.converged)
    for span in spans + [s for group in kernel_spans.values() for s in group]:
        parent = tracer.spans[span.parent].info
        assert (span.info["iters"], span.info["converged"]) == (parent["iters"], parent["converged"])
        assert span.info["max_iter"] == cfg.max_iter
