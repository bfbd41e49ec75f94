"""Per-layer metrics computed from the spans of a traced run.

Sums and counts are per pass (totals over the traced passes divided by their
number), so they do not depend on how many passes `--seconds` asks for.
Medians are per call. A layer the workload does not exercise reads 0.
Flops and bytes are computed from array shapes and iteration counts, not
measured: a scaling iteration is two mat-vecs over the N x (K+1) kernel
(4*N*(K+1) flops, reads 2*N*(K+1) + 2*(N+K+1) doubles); a GSA iteration adds
a third mat-vec for the mass rescale.
"""

from __future__ import annotations

import statistics

# name -> (unit, end-to-end metric and workload it should move)
LAYER_METRICS = {
    "kernels.scaling_calls": ("count", "op_ms_* on solve-p2ot; op_ms_* on train-p2ot"),
    "kernels.scaling_ms_sum": ("ms", "op_ms_* on solve-p2ot (nearly all); op_ms_* on train-p2ot (~30%)"),
    "kernels.scaling_iters_sum": ("count", "op_ms_* on solve-p2ot and train-p2ot"),
    "kernels.scaling_us_per_iter": ("us", "op_ms_* on solve-p2ot and train-p2ot (cheaper iterations)"),
    "kernels.scaling_max_iter_hits": ("count", "op_ms_p90 on solve-p2ot"),
    "kernels.gsa_ms_sum": ("ms", "op_ms_* on solve-p2ot"),
    "kernels.gsa_iters_sum": ("count", "op_ms_* on solve-p2ot"),
    "kernels.gflop_computed": ("GFLOP", "op_ms_* on solve-p2ot and train-p2ot"),
    "kernels.gb_computed": ("GB", "op_ms_* on solve-p2ot and train-p2ot"),
    "kernels.gflop_per_s": ("GFLOP/s", "op_ms_* on solve-p2ot and train-p2ot"),
    "p2ot.fast_ms_p50": ("ms", "op_ms_* on solve-p2ot; op_ms_* on train-p2ot"),
    "p2ot.fast_self_ms_sum": ("ms", "op_ms_* on solve-p2ot and train-p2ot"),
    "p2ot.fast_iters_p50": ("count", "op_ms_* on solve-p2ot and train-p2ot"),
    "p2ot.fast_iters_max": ("count", "op_ms_p90 on solve-p2ot"),
    "p2ot.nonconverged": ("count", "op_ms_p90 on solve-p2ot; op_ms_* on train-p2ot"),
    "p2ot.gsa_over_fast.flat.rho0.9": ("x", "README speed claim on solve-p2ot"),
    "p2ot.gsa_over_fast.flat.rho1.0": ("x", "README speed claim on solve-p2ot"),
    "p2ot.gsa_over_fast.peaked.rho0.9": ("x", "README speed claim on solve-p2ot"),
    "p2ot.gsa_over_fast.peaked.rho1.0": ("x", "README speed claim on solve-p2ot"),
    "ot_core.balanced_ms": ("ms", "op_ms_p50 on solve-p2ot"),
    "ot_core.uot_ms": ("ms", "op_ms_p50 on solve-p2ot"),
    "ot_core.pot_ms": ("ms", "op_ms_p50 on solve-p2ot"),
    "ot_core.sla_ms": ("ms", "op_ms_* on solve-p2ot"),
    "ot_core.balanced_iters": ("count", "op_ms_p50 on solve-p2ot"),
    "ot_core.uot_iters": ("count", "op_ms_p50 on solve-p2ot"),
    "ot_core.pot_iters": ("count", "op_ms_p50 on solve-p2ot"),
    "ot_core.sla_iters": ("count", "op_ms_* on solve-p2ot"),
    "ot_core.objective_ms_sum": ("ms", "op_ms_p50 on solve-p2ot"),
    "sp2ot.gradient_ms_sum": ("ms", "op_ms_* on solve-sp2ot only"),
    "sp2ot.objective_ms_sum": ("ms", "op_ms_* on solve-sp2ot only"),
    "sp2ot.inner_ms_sum": ("ms", "op_ms_* on solve-sp2ot only"),
    "sp2ot.self_ms_sum": ("ms", "op_ms_* on solve-sp2ot only"),
    "sp2ot.outer_iters": ("count", "op_ms_* on solve-sp2ot only"),
    "sp2ot.inner_iters_sum": ("count", "op_ms_* on solve-sp2ot only"),
    "sp2ot.inner_nonconverged": ("count", "op_ms_* on solve-sp2ot only"),
    "sp2ot.ascents": ("count", "op_ms_* on solve-sp2ot only"),
    "graph.median_bandwidth_ms": ("ms", "setup_s and peak_rss_mb on solve-sp2ot; op_ms_* on train-p2ot"),
    "graph.gaussian_similarity_ms": ("ms", "setup_s and peak_rss_mb on solve-sp2ot; op_ms_* on train-p2ot"),
    "graph.build_knn_graph_ms": ("ms", "setup_s and peak_rss_mb on solve-sp2ot; op_ms_* on train-p2ot"),
    "graph.to_dense_ms": ("ms", "setup_s and peak_rss_mb on solve-sp2ot; op_ms_* on train-p2ot"),
    "bench.train_self_s": ("s", "op_ms_* and peak_rss_mb on train-p2ot"),
    "bench.predict_probs_ms_sum": ("ms", "op_ms_* on train-p2ot"),
    "bench.buffer_concat_ms_sum": ("ms", "op_ms_* and peak_rss_mb on train-p2ot"),
    "bench.buffer_push_ms_sum": ("ms", "op_ms_* on train-p2ot"),
    "bench.pseudo_label_quality_ms_sum": ("ms", "op_ms_* on train-p2ot"),
    "bench.steps": ("count", "op_ms_* on train-p2ot"),
    "bench.skipped_steps": ("count", "op_ms_* on train-p2ot"),
    "metrics.evaluate_ms_sum": ("ms", "op_ms_* on train-p2ot (small)"),
    "io.write_ms_sum": ("ms", "op_ms_* on train-p2ot (small)"),
    "trace.overhead_pct": ("%", "none: traced minus untraced pass wall time"),
}

_MATVECS = {"kernels.scaling_weighted_kl": 2, "kernels.gsa_total_mass": 3}


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(tracer, passes, op_ms, overhead_pct) -> dict:
    """Compute every LAYER_METRICS entry.

    passes: the traced PassResults, whose run ids are "pass<i>"; op_ms maps an
    operation label to the wall times the benchmark measured around it.
    """
    spans = tracer.spans
    own = tracer.self_times()
    runs = {f"pass{i}" for i, p in passes}
    n_pass = max(len(runs), 1)

    def idx(name, passes_only=True):
        return [i for i, s in enumerate(spans) if s.name == name and (not passes_only or s.run in runs)]

    def ms_sum(name):
        return sum(spans[i].dur for i in idx(name)) * 1e3 / n_pass

    def ms_med(name, passes_only=True):
        return _median([spans[i].dur * 1e3 for i in idx(name, passes_only)])

    def info(i, key, default=0):
        return spans[i].info.get(key, default)

    m = {}
    sc, gs = idx("kernels.scaling_weighted_kl"), idx("kernels.gsa_total_mass")
    sc_iters = sum(info(i, "iters") for i in sc)
    m["kernels.scaling_calls"] = len(sc) / n_pass
    m["kernels.scaling_ms_sum"] = ms_sum("kernels.scaling_weighted_kl")
    m["kernels.scaling_iters_sum"] = sc_iters / n_pass
    m["kernels.scaling_us_per_iter"] = sum(spans[i].dur for i in sc) * 1e6 / sc_iters if sc_iters else 0.0
    m["kernels.scaling_max_iter_hits"] = sum(
        1 for i in sc if not info(i, "converged", True) and info(i, "iters") >= info(i, "max_iter")) / n_pass
    m["kernels.gsa_ms_sum"] = ms_sum("kernels.gsa_total_mass")
    m["kernels.gsa_iters_sum"] = sum(info(i, "iters") for i in gs) / n_pass
    flop = byte = 0.0
    for i in sc + gs:
        mm, nn, it = info(i, "m"), info(i, "n"), info(i, "iters")
        mv = _MATVECS[spans[i].name]
        flop += 2 * mv * mm * nn * it
        byte += 8 * (mv * mm * nn + 2 * (mm + nn)) * it
    kernel_s = sum(spans[i].dur for i in sc + gs)
    m["kernels.gflop_computed"] = flop / 1e9 / n_pass
    m["kernels.gb_computed"] = byte / 1e9 / n_pass
    m["kernels.gflop_per_s"] = flop / 1e9 / kernel_s if kernel_s else 0.0

    fast, gsa = idx("p2ot.solve_p2ot_fast"), idx("p2ot.solve_p2ot_gsa")
    m["p2ot.fast_ms_p50"] = ms_med("p2ot.solve_p2ot_fast")
    m["p2ot.fast_self_ms_sum"] = sum(own[i] for i in fast) * 1e3 / n_pass
    m["p2ot.fast_iters_p50"] = _median([info(i, "iters") for i in fast])
    m["p2ot.fast_iters_max"] = float(max((info(i, "iters") for i in fast), default=0))
    m["p2ot.nonconverged"] = sum(1 for i in fast + gsa if not info(i, "converged", True)) / n_pass
    for regime in ("flat", "peaked"):
        for rho in (0.9, 1.0):
            f = _median(op_ms.get(f"fast/{regime}/rho{rho}", []))
            g = _median(op_ms.get(f"gsa/{regime}/rho{rho}", []))
            m[f"p2ot.gsa_over_fast.{regime}.rho{rho}"] = g / f if f else 0.0

    for short in ("balanced", "uot", "pot", "sla"):
        name = "ot_core.solve_balanced_ot" if short == "balanced" else f"ot_core.solve_{short}"
        m[f"ot_core.{short}_ms"] = ms_med(name)
        m[f"ot_core.{short}_iters"] = _median([info(i, "iters") for i in idx(name)])
    m["ot_core.objective_ms_sum"] = ms_sum("ot_core.entropic_objective")

    outer = idx("sp2ot.solve_sp2ot")
    outer_set = set(outer)
    inner = [i for i in fast if spans[i].parent in outer_set]
    m["sp2ot.gradient_ms_sum"] = ms_sum("sp2ot.sp2ot_gradient")
    m["sp2ot.objective_ms_sum"] = ms_sum("sp2ot.sp2ot_objective")
    m["sp2ot.inner_ms_sum"] = sum(spans[i].dur for i in inner) * 1e3 / n_pass
    m["sp2ot.self_ms_sum"] = sum(own[i] for i in outer) * 1e3 / n_pass
    m["sp2ot.outer_iters"] = sum(info(i, "outer") for i in outer) / n_pass
    m["sp2ot.inner_iters_sum"] = sum(info(i, "iters") for i in inner) / n_pass
    m["sp2ot.inner_nonconverged"] = sum(1 for i in inner if not info(i, "converged", True)) / n_pass
    m["sp2ot.ascents"] = sum(info(i, "ascents") for i in outer) / n_pass

    # the graph is built once, in set-up (solve-sp2ot) or at the start of train()
    for short in ("median_bandwidth", "gaussian_similarity", "build_knn_graph", "to_dense"):
        m[f"graph.{short}_ms"] = ms_med(f"graph.{short}", passes_only=False)

    m["bench.train_self_s"] = _median([own[i] for i in idx("bench.train")])
    m["bench.predict_probs_ms_sum"] = ms_sum("bench.predict_probs")
    m["bench.buffer_concat_ms_sum"] = ms_sum("bench.buffer_concat")
    m["bench.buffer_push_ms_sum"] = ms_sum("bench.buffer_push")
    m["bench.pseudo_label_quality_ms_sum"] = ms_sum("bench.pseudo_label_quality")
    m["bench.steps"] = sum(p.counts.get("steps", 0) for _, p in passes) / n_pass
    m["bench.skipped_steps"] = sum(p.counts.get("skipped_steps", 0) for _, p in passes) / n_pass
    m["metrics.evaluate_ms_sum"] = ms_sum("metrics.evaluate")
    m["io.write_ms_sum"] = ms_sum("io.write_json") + ms_sum("io.write_csv_rows")
    m["trace.overhead_pct"] = overhead_pct
    return {name: {"value": float(m[name]), "unit": unit} for name, (unit, _) in LAYER_METRICS.items()}
