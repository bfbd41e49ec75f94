"""Command-line entry point: solver runs, graph building, clustering
experiments, metric evaluation, and oracle cross-checks.

Exit codes: 0 success, 1 validation/input error or a non-finite plan
(NumericalOverflowError), 2 solver non-convergence under --strict. All
artifacts are written atomically; every output JSON embeds the resolved
configuration and seed.
"""

from __future__ import annotations

import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, replace
from pathlib import Path

import click
from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for
import numpy as np

from . import bench as bench_mod
from . import io as io_mod
from . import metrics as metrics_mod
from . import ot_core, oracle, p2ot, sp2ot
from .graph import FeatureSet, SemanticGraph, build_knn_graph, cosine_similarity, gaussian_similarity, median_bandwidth

SCHEMA_VERSION = 1


class NonConvergenceError(RuntimeError):
    pass


def _out_dir(path) -> Path:
    """Resolve an output path against SPPOT_OUTPUT_DIR when one is set."""
    base = os.environ.get("SPPOT_OUTPUT_DIR")
    path = Path(path)
    if base and not path.is_absolute():
        return Path(base) / path
    return path


def _load_config(path, schema) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise click.ClickException(f"cannot read config {path}: {exc}") from exc
    # the schemas are constants, checked against their metaschema by a test
    # (`jsonschema.validate` re-checks the schema on every call, ~14 ms)
    error = best_match(validator_for(schema)(schema).iter_errors(cfg))
    if error is not None:
        raise click.ClickException(f"config {path} invalid: {error.message}")
    return cfg


def _summary(payload: dict, config: dict, seed) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "config": config,
        "seed": seed,
        **payload,
    }


@click.group()
def cli():
    """Optimal-transport pseudo-label solvers and tooling."""


# ---------------------------------------------------------------- p2ot


@cli.group("p2ot")
def p2ot_group():
    """Partial-transport pseudo-label solver."""


@p2ot_group.command("solve")
@click.option("--pred", "pred_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--rho", type=float, required=True)
@click.option("--lambda", "lam", type=float, default=1.0, show_default=True)
@click.option("--eps", type=float, default=0.1, show_default=True)
@click.option("--tol", type=float, default=1e-6, show_default=True)
@click.option("--max-iter", type=int, default=1000, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--strict", is_flag=True, help="Exit 2 if the solver does not converge.")
def p2ot_solve(pred_path, rho, lam, eps, tol, max_iter, out_path, strict):
    """Solve one instance from a prediction matrix file."""
    try:
        P = io_mod.read_matrix(pred_path)
        cfg = ot_core.ScalingConfig(epsilon=eps, tol=tol, max_iter=max_iter)
        problem = p2ot.P2otProblem(P, rho, lam, cfg)
        plan = p2ot.solve_p2ot_fast(problem)
    except (io_mod.FormatError, ValueError, ot_core.DimensionMismatchError, ot_core.NumericalOverflowError) as exc:
        raise click.ClickException(str(exc)) from exc
    if strict and not plan.converged:
        raise NonConvergenceError(f"solver stopped after {plan.iterations} iterations without converging")
    out_path = _out_dir(out_path)
    io_mod.write_matrix(out_path, plan.coupling)
    residuals = {
        "max_row_excess": float(np.max(plan.row_marginal() - 1.0 / P.shape[0])),
        "total_mass_gap": float(plan.total_mass() - rho),
    }
    config = {"pred": str(pred_path), "rho": rho, "lambda": lam, "eps": eps, "tol": tol, "max_iter": max_iter}
    io_mod.write_json(
        Path(out_path).with_suffix(".json"),
        _summary(
            {
                "objective": plan.objective,
                "iterations": plan.iterations,
                "converged": plan.converged,
                "residuals": residuals,
            },
            config,
            seed=None,
        ),
    )
    click.echo(f"objective={plan.objective:.6f} iterations={plan.iterations} converged={plan.converged}")
    click.echo(f"max_row_excess={residuals['max_row_excess']:.3e} total_mass_gap={residuals['total_mass_gap']:.3e}")


# ---------------------------------------------------------------- sp2ot


@cli.group("sp2ot")
def sp2ot_group():
    """Semantic-regularized solver (majorize-minimize outer loop)."""


@sp2ot_group.command("solve")
@click.option("--pred", "pred_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--lambda1", type=float, required=True)
@click.option("--lambda2", type=float, default=1.0, show_default=True)
@click.option("--rho", type=float, required=True)
@click.option("--eps", type=float, default=0.1, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--strict", is_flag=True)
def sp2ot_solve(pred_path, graph_path, lambda1, lambda2, rho, eps, out_path, strict):
    """Solve one instance from a prediction matrix and a triplet adjacency."""
    try:
        P = io_mod.read_matrix(pred_path)
        rows, cols, vals = io_mod.read_triplets_csv(graph_path)
        A = SemanticGraph.from_triplets(rows, cols, vals, P.shape[0]).adjacency
        problem = sp2ot.Sp2otProblem(P, A, lambda1, lambda2, rho, eps)
        plan, trace = sp2ot.solve_sp2ot(problem)
    except (io_mod.FormatError, ValueError, ot_core.DimensionMismatchError,
            ot_core.NumericalOverflowError) as exc:
        raise click.ClickException(str(exc)) from exc
    if strict and not plan.converged:
        raise NonConvergenceError("inner solver did not converge at the final outer iteration")
    out_path = _out_dir(out_path)
    io_mod.write_matrix(out_path, plan.coupling)
    config = {
        "pred": str(pred_path), "graph": str(graph_path), "lambda1": lambda1,
        "lambda2": lambda2, "rho": rho, "eps": eps,
    }
    io_mod.write_json(
        Path(out_path).with_suffix(".json"),
        _summary(
            {
                "objective": plan.objective,
                "outer_objectives": trace.objectives,
                "inner_iterations": trace.inner_iterations,
                "plan_changes": trace.frobenius_changes,
                "ascents": trace.ascents,
            },
            config,
            seed=None,
        ),
    )
    click.echo(f"objective={plan.objective:.6f} outer_iterations={len(trace.objectives)}")


# ---------------------------------------------------------------- graph


@cli.group("graph")
def graph_group():
    """Nearest-neighbor semantic graphs."""


@graph_group.command("build")
@click.option("--features", "feat_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--kernel", type=click.Choice(["gaussian", "cosine"]), default="gaussian", show_default=True)
@click.option("--sigma", default="median", show_default=True, help="Bandwidth value, or 'median'.")
@click.option("--k", type=int, default=20, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
def graph_build(feat_path, kernel, sigma, k, out_path):
    """Build a top-k similarity graph from a feature matrix file."""
    try:
        feats = FeatureSet(io_mod.read_matrix(feat_path))
        if kernel == "gaussian":
            bw = median_bandwidth(feats) if sigma == "median" else float(sigma)
            gram = gaussian_similarity(feats, bw)
        else:
            gram = cosine_similarity(feats)
        graph = build_knn_graph(gram, k)
    except (io_mod.FormatError, ValueError) as exc:
        raise click.ClickException(str(exc)) from exc
    if kernel == "gaussian" and graph.values.size and not np.any(graph.values > 0):
        raise click.ClickException(f"sigma {bw:g} gives every kNN edge weight 0: it is far below the "
                                   "distances between the points (try --sigma median)")
    io_mod.write_triplets_csv(_out_dir(out_path), graph.rows, graph.cols, graph.values)
    click.echo(f"wrote {graph.values.size} edges for {feats.n} nodes (kernel={kernel}, k={k})")


# ---------------------------------------------------------------- cluster

SCHEDULE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "kind": {"type": "string", "enum": ["sigmoid", "linear", "fixed"]},
        "rho0": {"type": "number", "minimum": 0, "maximum": 1},
    },
}

DATASET_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["n", "k"],
    "properties": {
        "n": {"type": "integer", "minimum": 4},
        "k": {"type": "integer", "minimum": 2},
        "imbalance": {"type": "number", "minimum": 1},
        "dim": {"type": "integer", "minimum": 1},
        "separation": {"type": "number", "exclusiveMinimum": 0},
    },
}

TRAIN_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "epochs": {"type": "integer", "minimum": 1},
        "batch_size": {"type": "integer", "minimum": 1},
        "buffer_size": {"type": "integer", "minimum": 0},
        "eps": {"type": "number", "exclusiveMinimum": 0},
        "lambda2": {"type": "number", "minimum": 0},
        "lambda1_0": {"type": "number", "minimum": 0},
        "sla_upper": {"type": "number", "exclusiveMinimum": 0},
        "knn_k": {"type": "integer", "minimum": 1},
        "temperature": {"type": "number", "exclusiveMinimum": 0},
        "learning_rate": {"type": "number", "exclusiveMinimum": 0},
        "tol": {"type": "number", "exclusiveMinimum": 0},
        "max_iter": {"type": "integer", "minimum": 1},
    },
}

RUN_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["dataset", "solver", "seed"],
    "properties": {
        "dataset": DATASET_SCHEMA,
        "solver": {"type": "string", "enum": list(bench_mod.SOLVER_CHOICES)},
        "seed": {"type": "integer"},
        "schedule": SCHEDULE_SCHEMA,
        "train": TRAIN_SCHEMA,
    },
}

ABLATE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["dataset", "solvers", "seeds"],
    "properties": {
        "dataset": DATASET_SCHEMA,
        "solvers": {
            "type": "array",
            "minItems": 1,
            "items": {"type": "string", "enum": list(bench_mod.SOLVER_CHOICES)},
        },
        "seeds": {"type": "array", "minItems": 1, "items": {"type": "integer"}},
        "schedule": SCHEDULE_SCHEMA,
        "train": TRAIN_SCHEMA,
        "workers": {"type": "integer", "minimum": 1},
    },
}


def _run_from_config(cfg: dict, solver: str, seed: int) -> tuple:
    """Generate the dataset and train on it. A config that passes the schema
    but cannot run (a ValueError from the dataset or a solve) raises
    click.ClickException, so the command exits 1 before writing anything."""
    ds = cfg["dataset"]
    root = np.random.default_rng(np.random.SeedSequence(seed))
    data_seed = int(root.integers(2**63))
    train_opts = dict(cfg.get("train", {}))
    if "eps" in train_opts:
        train_opts["epsilon"] = train_opts.pop("eps")
    sched = cfg.get("schedule", {})
    tc = bench_mod.TrainConfig.from_defaults(
        solver=solver,
        seed=int(root.integers(2**63)),
        schedule_kind=sched.get("kind", "sigmoid"),
        **train_opts,
    )
    if "rho0" in sched:
        tc = replace(tc, rho0=sched["rho0"])
    try:
        dataset = bench_mod.generate_imbalanced_mixture(
            K=ds["k"],
            R=ds.get("imbalance", 10.0),
            N=ds["n"],
            dim=ds.get("dim", 16),
            separation=ds.get("separation", 6.0),
            seed=data_seed,
        )
        return dataset, bench_mod.train(dataset, tc), tc
    except ValueError as exc:
        raise click.ClickException(f"cannot run config: {exc}") from exc


@cli.group("cluster")
def cluster_group():
    """Synthetic imbalanced-clustering experiments."""


@cluster_group.command("run")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_path", required=True, type=click.Path())
def cluster_run(config_path, out_path):
    """One training run; emits history JSON and a per-epoch metrics CSV."""
    cfg = _load_config(config_path, RUN_SCHEMA)
    dataset, history, tc = _run_from_config(cfg, cfg["solver"], cfg["seed"])
    out_path = _out_dir(out_path)
    payload = _summary(
        {
            "class_counts": dataset.class_counts.tolist(),
            "epochs": history.epochs,
            "loss_trace": history.loss_trace,
            "resolved_train_config": asdict(tc),
        },
        cfg,
        seed=cfg["seed"],
    )
    io_mod.write_json(out_path, payload)
    fields = ["epoch", "acc", "nmi", "f1", "ari", "acc_head", "acc_medium", "acc_tail",
              "rho", "precision", "recall", "weighted_precision", "weighted_recall"]
    rows = [["schema_version"] + fields]
    rows += [[SCHEMA_VERSION] + [rec[f] for f in fields] for rec in history.epochs]
    io_mod.write_csv_rows(Path(out_path).with_suffix(".csv"), rows)
    final = history.final
    click.echo(f"final acc={final['acc']:.4f} nmi={final['nmi']:.4f} f1={final['f1']:.4f}")


@cluster_group.command("ablate")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_path", required=True, type=click.Path())
def cluster_ablate(config_path, out_path):
    """Sweep solvers over seeds; one comparison-table row per (solver, seed)."""
    cfg = _load_config(config_path, ABLATE_SCHEMA)
    jobs = [(solver, seed) for solver in cfg["solvers"] for seed in cfg["seeds"]]

    def one(job):
        solver, seed = job
        _, history, _ = _run_from_config(cfg, solver, seed)
        f = history.final
        return [SCHEMA_VERSION, solver, seed, f["acc"], f["nmi"], f["f1"], f["ari"],
                f["acc_head"], f["acc_medium"], f["acc_tail"]]

    workers = cfg.get("workers", 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one, jobs))
    else:
        results = [one(j) for j in jobs]
    header = ["schema_version", "solver", "seed", "acc", "nmi", "f1", "ari",
              "acc_head", "acc_medium", "acc_tail"]
    io_mod.write_csv_rows(_out_dir(out_path), [header] + results)
    click.echo(f"wrote {len(results)} rows to {out_path}")


# ---------------------------------------------------------------- metrics


@cli.group("metrics")
def metrics_group():
    """Clustering metrics."""


@metrics_group.command("eval")
@click.option("--predicted", "pred_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--truth", "truth_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_path", type=click.Path(), default=None)
def metrics_eval(pred_path, truth_path, out_path):
    """Evaluate a predicted label file against a ground-truth label file."""
    try:
        predicted = io_mod.read_labels(pred_path)
        truth = io_mod.read_labels(truth_path)
        record = metrics_mod.evaluate(predicted, truth)
    except (io_mod.FormatError, ValueError) as exc:
        raise click.ClickException(str(exc)) from exc
    for key, value in record.items():
        click.echo(f"{key}={value:.6f}")
    if out_path:
        config = {"predicted": str(pred_path), "truth": str(truth_path)}
        io_mod.write_json(_out_dir(out_path), _summary({"metrics": record}, config, seed=None))


# ---------------------------------------------------------------- oracle


@cli.group("oracle")
def oracle_group():
    """Slow independent verification solvers."""


@oracle_group.command("check")
@click.option("--pred", "pred_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--rho", type=float, required=True)
@click.option("--lambda", "lam", type=float, default=1.0, show_default=True)
@click.option("--eps", type=float, default=0.1, show_default=True)
@click.option("--tol", type=float, default=1e-7, show_default=True)
def oracle_check(pred_path, rho, lam, eps, tol):
    """Cross-check the fast solver against projected gradient descent."""
    try:
        P = io_mod.read_matrix(pred_path)
        problem = p2ot.P2otProblem(P, rho, lam, ot_core.ScalingConfig(epsilon=eps, tol=1e-10, max_iter=100000))
        plan = p2ot.solve_p2ot_fast(problem)
    except (io_mod.FormatError, ValueError, ot_core.DimensionMismatchError, ot_core.NumericalOverflowError) as exc:
        raise click.ClickException(str(exc)) from exc
    n, k = P.shape
    cost = -np.log(ot_core.clamp_probabilities(P))
    caps = np.full(n, 1.0 / n)
    col_kl = (np.full(k, rho / k), lam)
    try:
        ref = oracle.pgd_entropic(
            cost, eps,
            row_cap=caps,
            col_kl=col_kl,
            total_mass=rho,
            slack_entropy=True,
            cfg=oracle.OracleConfig(tol=tol),
        )
    except oracle.OracleFailure as exc:
        raise click.ClickException(str(exc)) from exc
    # compare on the objective the virtual-column solver actually minimizes
    # (the dropped column's entropy shows up as entropy of the row slacks)
    solver_obj = oracle.oracle_objective(plan.coupling, cost, eps, col_kl, caps)
    denom = max(abs(ref.objective), 1.0)
    rel = abs(solver_obj - ref.objective) / denom
    click.echo(f"solver_objective={solver_obj:.8f} oracle_objective={ref.objective:.8f}")
    click.echo(f"relative_gap={rel:.3e}")


def main(argv=None):
    try:
        return cli.main(args=argv, standalone_mode=False)
    except click.ClickException as exc:
        exc.show(file=sys.stderr)
        sys.exit(1)
    except click.exceptions.Abort:
        sys.exit(1)
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
