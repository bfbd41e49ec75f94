"""The three benchmark workloads and the per-operation correctness check.

Each workload makes its inputs from the seed in `setup` and runs one fixed
sequence of operations per `run_pass`. Repeating a pass repeats the same
inputs, so iteration counts must repeat exactly between passes. The program
is reached only through public entry points: `sppot.cli.main`,
`ot_core.solve_*`, `p2ot.solve_p2ot_fast/_gsa`, `sp2ot.solve_sp2ot` and
`graph.*`.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sppot import bench, cli, graph, ot_core, p2ot, sp2ot
from sppot.curriculum import default_hyperparameters

# Relative tolerance on every stated constraint of a returned plan: each row
# sum against its 1/N cap or equality, each column sum against its target,
# and the total mass against rho. One value for every solver.
CONSTRAINT_RTOL = 1e-2

# Training-step shape at the harness defaults: batch 512 + buffer 5120 rows.
N_ROWS, N_CLUSTERS = 5632, 10
EPSILON, TOL, MAX_ITER, LAMBDA2 = 0.1, 1e-6, 1000, 1.0


@dataclass
class PassResult:
    samples_ms: list = field(default_factory=list)  # one per timed operation
    labels: list = field(default_factory=list)  # operation label per sample
    attempted: int = 0
    failures: list = field(default_factory=list)  # "label: reason" per failed operation
    signature: list = field(default_factory=list)  # counts that must repeat across passes
    counts: dict = field(default_factory=dict)  # workload-level counts for the trace
    wall_s: float = 0.0
    traced: bool = False

    def fail(self, label, reason):
        self.failures.append(f"{label}: {reason}")


def check_plan(Q, mass, rows="le", cols=None):
    """Return None when the plan meets its constraints, else the first violation.

    rows: "eq" (row sums = 1/N) or "le" (row sums <= 1/N). cols: None (soft
    columns) or (kind, target) with kind "eq" or "le". mass: total-mass target.
    """
    Q = np.asarray(Q, dtype=float)
    if not np.all(np.isfinite(Q)):
        return "non-finite plan"
    if Q.min() < 0:
        return f"negative entry {Q.min():.3e}"
    N = Q.shape[0]
    row_err = Q.sum(axis=1) * N - 1.0
    worst = np.abs(row_err).max() if rows == "eq" else row_err.max()
    if worst > CONSTRAINT_RTOL:
        return f"row {'equality' if rows == 'eq' else 'cap'} off by {worst:.3e} (relative)"
    if cols is not None:
        kind, target = cols
        col_err = Q.sum(axis=0) / target - 1.0
        worst = np.abs(col_err).max() if kind == "eq" else col_err.max()
        if worst > CONSTRAINT_RTOL:
            return f"column {'equality' if kind == 'eq' else 'cap'} off by {worst:.3e} (relative)"
    mass_err = abs(Q.sum() / mass - 1.0)
    if mass_err > CONSTRAINT_RTOL:
        return f"total mass {Q.sum():.6g} against {mass:.6g} ({mass_err:.3e} relative)"
    return None


def _timed_solve(result, label, solve, check):
    """Time one solve, check its plan, and record a failure instead of raising."""
    result.attempted += 1
    result.labels.append(label)
    t0 = time.perf_counter()
    try:
        out = solve()
    except Exception as exc:  # a raising solve is one failed operation, not the end of the run
        result.fail(label, f"raised {type(exc).__name__}: {exc}")
        result.signature.append((label, "raised"))
        return None
    finally:
        result.samples_ms.append((time.perf_counter() - t0) * 1e3)
    plan = out[0] if isinstance(out, tuple) else out
    reason = check(plan.coupling)
    if reason is not None:
        result.fail(label, reason)
    result.signature.append((label, plan.iterations, bool(plan.converged)))
    return out


def _softmax(logits):
    z = np.exp(logits - logits.max(axis=1, keepdims=True))
    return z / z.sum(axis=1, keepdims=True)


class SolveP2ot:
    """Independent pseudo-label solves at 5632x10 over the rho curriculum."""

    name = "solve-p2ot"
    setup_rounds = 5
    warmup_passes = 1  # a pass takes a few seconds; the first one pays first-call costs
    pass_seconds = 3.1  # nominal pass time on a 2-core x86-64 VM; sets the pass count
    RHOS = (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)
    REGIMES = (("flat", 1.0), ("peaked", 0.3))  # logit temperature
    DRAWS = 2  # independent posteriors per regime, so no single instance sets a percentile

    def setup(self, seed, out_dir):
        rng = np.random.default_rng(seed)
        return [(name, _softmax(rng.normal(size=(N_ROWS, N_CLUSTERS)) / T))
                for name, T in self.REGIMES for _ in range(self.DRAWS)]

    def run_pass(self, posteriors):
        res = PassResult()
        cfg = ot_core.ScalingConfig(epsilon=EPSILON, tol=TOL, max_iter=MAX_ITER)
        K = N_CLUSTERS
        for regime, P in posteriors:
            # each point: both P2OT solvers plus one solve of each other family member
            for rho in self.RHOS:
                tag = f"{regime}/rho{rho}"
                _timed_solve(res, f"fast/{tag}",
                             lambda: p2ot.solve_p2ot_fast(p2ot.P2otProblem(P, rho, LAMBDA2, cfg)),
                             lambda Q: check_plan(Q, rho))
                _timed_solve(res, f"gsa/{tag}",
                             lambda: p2ot.solve_p2ot_gsa(p2ot.P2otProblem(P, rho, LAMBDA2, cfg)),
                             lambda Q: check_plan(Q, rho))
                _timed_solve(res, f"balanced/{tag}", lambda: ot_core.solve_balanced_ot(P, cfg),
                             lambda Q: check_plan(Q, 1.0, rows="eq", cols=("eq", 1.0 / K)))
                _timed_solve(res, f"uot/{tag}", lambda: ot_core.solve_uot(P, LAMBDA2, cfg),
                             lambda Q: check_plan(Q, 1.0, rows="eq"))
                _timed_solve(res, f"pot/{tag}", lambda: ot_core.solve_pot(P, rho, cfg),
                             lambda Q: check_plan(Q, rho, cols=("eq", rho / K)))
                _timed_solve(res, f"sla/{tag}", lambda: ot_core.solve_sla(P, rho, 1.0 / K, cfg),
                             lambda Q: check_plan(Q, rho, cols=("le", 1.0 / K)))
        return res


class SolveSp2ot:
    """SP2OT solves over a kNN graph of 5632 seeded mixture features."""

    name = "solve-sp2ot"
    setup_rounds = 3
    warmup_passes = 0
    pass_seconds = 25.0
    RHOS = (0.2, 0.5, 0.9)
    LAMBDA1_0, KNN_K = 1000.0, 20

    def setup(self, seed, out_dir):
        rng = np.random.default_rng(seed)
        ds = bench.generate_imbalanced_mixture(K=N_CLUSTERS, R=10.0, N=N_ROWS, dim=16, separation=10.0,
                                               seed=int(rng.integers(2**63)))
        # the harness's graph recipe: Gaussian kernel, median bandwidth, k nearest neighbours
        feats = graph.FeatureSet(ds.features)
        A = graph.build_knn_graph(graph.gaussian_similarity(feats, graph.median_bandwidth(feats)),
                                  self.KNN_K).to_dense()
        # posteriors of a partly trained prototype model: noisy class directions
        means = np.stack([ds.features[ds.labels == k].mean(axis=0) for k in range(N_CLUSTERS)])
        protos = 0.3 * means / np.linalg.norm(means, axis=1, keepdims=True)
        protos = protos + rng.normal(scale=0.1, size=protos.shape)
        P = bench.predict_probs(bench.PrototypeModel(protos, temperature=0.5, learning_rate=1.0), ds.features)
        return P, A

    def run_pass(self, state):
        P, A = state
        res = PassResult()
        inner = ot_core.ScalingConfig(epsilon=EPSILON, tol=TOL, max_iter=MAX_ITER)
        for rho in self.RHOS:
            lam1 = sp2ot.lambda1_decayed(self.LAMBDA1_0, rho)
            out = _timed_solve(
                res, f"sp2ot/rho{rho}",
                lambda: sp2ot.solve_sp2ot(sp2ot.Sp2otProblem(P, A, lam1, LAMBDA2, rho, EPSILON, inner=inner)),
                lambda Q: check_plan(Q, rho))
            if out is not None:
                res.signature.append((f"sp2ot/rho{rho}/inner", tuple(out[1].inner_iterations)))
        return res


class TrainP2ot:
    """`sppot cluster run` on the criterion-10 mixture with the P2OT solver."""

    name = "train-p2ot"
    setup_rounds = 5
    warmup_passes = 0
    pass_seconds = 11.0
    EPOCHS, N_SAMPLES = 12, 2000
    ACC_FLOOR = 0.80  # criterion 10's floor on final accuracy

    def setup(self, seed, out_dir):
        run_dir = Path(out_dir) / f"{self.name}-seed{seed}"
        run_dir.mkdir(parents=True, exist_ok=True)
        config = {
            "dataset": {"n": self.N_SAMPLES, "k": 10, "imbalance": 10.0, "separation": 10.0},
            "solver": "P2OT",
            "seed": seed,
            "train": {"epochs": self.EPOCHS},
        }
        config_path = run_dir / "run.json"
        config_path.write_text(json.dumps(config))
        return config_path, run_dir / "run_out.json"

    def run_pass(self, state):
        config_path, out_path = state
        res = PassResult()
        steps_per_epoch = max(1, self.N_SAMPLES // default_hyperparameters()["batch_size"])
        expected_steps = self.EPOCHS * steps_per_epoch
        res.attempted = expected_steps + self.EPOCHS  # training steps plus epoch evaluations
        t0 = time.perf_counter()
        try:
            cli.main(["cluster", "run", "--config", str(config_path), "--out", str(out_path)])
            run = json.loads(out_path.read_text())
        except (Exception, SystemExit) as exc:  # a failed run fails every operation it held
            res.samples_ms.append((time.perf_counter() - t0) * 1e3 / self.EPOCHS)
            res.labels.append("epoch")
            res.failures.extend([f"cluster run: {type(exc).__name__}: {exc}"] * res.attempted)
            return res
        res.samples_ms.append((time.perf_counter() - t0) * 1e3 / self.EPOCHS)
        res.labels.append("epoch")
        steps = len(run["loss_trace"])
        for _ in range(expected_steps - steps):
            res.fail("step", "skipped")
        for rec in run["epochs"]:
            bad = [k for k, v in rec.items() if isinstance(v, float) and not math.isfinite(v)]
            if bad:
                res.fail(f"epoch {rec['epoch']}", f"non-finite {bad}")
        final_acc = run["epochs"][-1]["acc"]
        if final_acc < self.ACC_FLOOR:
            res.fail("final epoch", f"acc {final_acc:.4f} under the {self.ACC_FLOOR} floor")
        res.counts = {"steps": steps, "skipped_steps": expected_steps - steps, "final_acc": final_acc}
        res.signature = [("steps", steps), ("epochs", len(run["epochs"])), ("final_acc", final_acc)]
        return res


WORKLOADS = {w.name: w for w in (SolveP2ot, TrainP2ot, SolveSp2ot)}
