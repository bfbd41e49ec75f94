"""In-memory span tracer for the sppot benchmark.

The tracer wraps public functions of the sppot modules at the name where
their callers look them up (a module attribute or a class attribute), so a
call made by the program itself is seen as well as one made by the
benchmark. Each call becomes a span: name, start, end, parent span, and the
benchmark pass it ran in. Spans stay in memory and are written out by the
benchmark when it ends.

A target that cannot be resolved (the module or attribute was renamed or
removed) is recorded in `missing` and skipped; it never stops a run.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field

# (span name, module, attribute path). One span name may be listed under
# several modules when callers import the function into their own namespace.
TARGETS = [
    ("kernels.scaling_weighted_kl", "sppot._kernels.py", "scaling_weighted_kl"),
    ("kernels.gsa_total_mass", "sppot._kernels.py", "gsa_total_mass"),
    ("ot_core.solve_balanced_ot", "sppot.ot_core", "solve_balanced_ot"),
    ("ot_core.solve_uot", "sppot.ot_core", "solve_uot"),
    ("ot_core.solve_pot", "sppot.ot_core", "solve_pot"),
    ("ot_core.solve_sla", "sppot.ot_core", "solve_sla"),
    ("ot_core.entropic_objective", "sppot.ot_core", "entropic_objective"),
    ("ot_core.entropic_objective", "sppot.p2ot", "entropic_objective"),
    ("p2ot.solve_p2ot_fast", "sppot.p2ot", "solve_p2ot_fast"),
    ("p2ot.solve_p2ot_fast", "sppot.sp2ot", "solve_p2ot_fast"),
    ("p2ot.solve_p2ot_gsa", "sppot.p2ot", "solve_p2ot_gsa"),
    ("sp2ot.solve_sp2ot", "sppot.sp2ot", "solve_sp2ot"),
    ("sp2ot.sp2ot_gradient", "sppot.sp2ot", "sp2ot_gradient"),
    ("sp2ot.sp2ot_objective", "sppot.sp2ot", "sp2ot_objective"),
    ("graph.median_bandwidth", "sppot.graph", "median_bandwidth"),
    ("graph.median_bandwidth", "sppot.bench", "median_bandwidth"),
    ("graph.gaussian_similarity", "sppot.graph", "gaussian_similarity"),
    ("graph.gaussian_similarity", "sppot.bench", "gaussian_similarity"),
    ("graph.build_knn_graph", "sppot.graph", "build_knn_graph"),
    ("graph.build_knn_graph", "sppot.bench", "build_knn_graph"),
    ("graph.to_dense", "sppot.graph", "SemanticGraph.to_dense"),
    ("bench.train", "sppot.bench", "train"),
    ("bench.predict_probs", "sppot.bench", "predict_probs"),
    ("bench.buffer_concat", "sppot.bench", "MemoryBuffer.concat"),
    ("bench.buffer_push", "sppot.bench", "MemoryBuffer.push"),
    ("bench.pseudo_label_quality", "sppot.bench", "pseudo_label_quality"),
    ("metrics.evaluate", "sppot.metrics", "evaluate"),
    ("io.write_json", "sppot.io", "write_json"),
    ("io.write_csv_rows", "sppot.io", "write_csv_rows"),
]


def _kernel_info(max_iter_pos):
    def probe(args, kwargs, result):
        m, n = args[0].shape
        return {"m": m, "n": n, "iters": int(result[1]), "converged": bool(result[2]),
                "max_iter": int(args[max_iter_pos])}
    return probe


def _plan_info(args, kwargs, result):
    return {"iters": int(result.iterations), "converged": bool(result.converged)}


def _sp2ot_info(args, kwargs, result):
    objs = list(result[1].objectives)
    return {"outer": len(objs), "ascents": sum(b > a + 1e-12 for a, b in zip(objs, objs[1:]))}


# Optional per-target count extraction from the call's arguments and result.
PROBES = {
    "kernels.scaling_weighted_kl": _kernel_info(6),
    "kernels.gsa_total_mass": _kernel_info(7),
    "ot_core.solve_balanced_ot": _plan_info,
    "ot_core.solve_uot": _plan_info,
    "ot_core.solve_pot": _plan_info,
    "ot_core.solve_sla": _plan_info,
    "p2ot.solve_p2ot_fast": _plan_info,
    "p2ot.solve_p2ot_gsa": _plan_info,
    "sp2ot.solve_sp2ot": _sp2ot_info,
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    run: str = ""
    info: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps the TARGETS while installed; records spans only while `on`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.probe_errors: dict[str, str] = {}
        self.on = False
        self.run = ""
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def install(self):
        for name, module, attr in TARGETS:
            try:
                owner = importlib.import_module(module)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}:{attr}")
                continue
            self._patched.append((owner, leaf, fn))
            setattr(owner, leaf, self._wrap(name, fn))

    def uninstall(self):
        for owner, leaf, fn in reversed(self._patched):
            setattr(owner, leaf, fn)
        self._patched.clear()

    def _wrap(self, name, fn):
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            span = Span(name, 0.0, parent=self._stack[-1] if self._stack else None, run=self.run)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.info["error"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if probe is not None:
                try:
                    span.info.update(probe(args, kwargs, result))
                except (AttributeError, IndexError, TypeError, ValueError) as exc:
                    self.probe_errors[name] = f"{type(exc).__name__}: {exc}"
            return result

        return traced

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [s.dur for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.dur
        return own

    def dump(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "run": s.run, **s.info}
                for s in self.spans]
