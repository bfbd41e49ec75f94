import copy
import csv
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import random_pred
from sppot import io as io_mod
from sppot.cli import cli, main
from sppot.metrics import evaluate
from sppot.ot_core import ScalingConfig


@pytest.fixture
def runner():
    return CliRunner()


def write_pred(path, n=12, k=3, seed=0):
    io_mod.write_matrix_csv(path, random_pred(n, k, seed))
    return path


def assert_out_collision_refused(capsys, argv, out):
    """`--out` also names the command's companion file, which would overwrite it:
    the command exits 1 with one error line and writes nothing."""
    before = sorted(out.parent.iterdir())
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "companion" in err[0], err
    assert sorted(out.parent.iterdir()) == before


class TestP2otSolve:
    def test_happy_path_artifacts(self, runner, tmp_path):
        pred = write_pred(tmp_path / "pred.csv")
        out = tmp_path / "plan.csv"
        result = runner.invoke(cli, ["p2ot", "solve", "--pred", str(pred), "--rho", "0.5", "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert "objective=" in result.output
        plan = io_mod.read_matrix(out)
        assert plan.shape == (12, 3)
        summary = json.loads(out.with_suffix(".json").read_text())
        assert summary["schema_version"] == 1
        assert summary["config"]["rho"] == 0.5
        assert summary["converged"] is True
        # a cold solve takes the kernel's Newton phase; the summary and the echo line count its steps
        assert summary["newton_steps"] > 0
        assert f"newton_steps={summary['newton_steps']} " in result.output

    def test_binary_output(self, runner, tmp_path):
        pred = write_pred(tmp_path / "pred.csv")
        out = tmp_path / "plan.bin"
        result = runner.invoke(cli, ["p2ot", "solve", "--pred", str(pred), "--rho", "0.9", "--out", str(out)])
        assert result.exit_code == 0
        plan = io_mod.read_matrix(out)
        assert abs(plan.sum() - 0.9) < 1e-6

    def test_invalid_rho_exits_1(self, tmp_path):
        pred = write_pred(tmp_path / "pred.csv")
        with pytest.raises(SystemExit) as exc:
            main(["p2ot", "solve", "--pred", str(pred), "--rho", "1.5", "--out", str(tmp_path / "o.csv")])
        assert exc.value.code == 1

    def test_malformed_matrix_exits_1(self, tmp_path):
        bad = tmp_path / "pred.csv"
        bad.write_text("not,a\nmatrix\n")
        with pytest.raises(SystemExit) as exc:
            main(["p2ot", "solve", "--pred", str(bad), "--rho", "0.5", "--out", str(tmp_path / "o.csv")])
        assert exc.value.code == 1

    def test_truncated_binary_matrix_exits_1_with_one_line(self, capsys, tmp_path):
        bad = tmp_path / "short.bin"
        bad.write_bytes(b"OTM1" + b"\x00" * 3)
        with pytest.raises(SystemExit) as exc:
            main(["p2ot", "solve", "--pred", str(bad), "--rho", "0.5", "--out", str(tmp_path / "o.csv")])
        assert exc.value.code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "truncated header" in err[0], err

    def test_non_finite_plan_exits_1_without_output(self, monkeypatch, tmp_path):
        # at eps = 1e-4 and rho 0.5 this instance's kernel underflows and the plan of the sweeps
        # alone turns NaN (the Newton phase converges it, so it takes no step here)
        from sppot._kernels import py as kernels

        monkeypatch.setattr(kernels, "NEWTON_MAX_STEPS", 0)
        pred = tmp_path / "pred.csv"
        io_mod.write_matrix_csv(pred, random_pred(512, 10, seed=0))
        out = tmp_path / "o.csv"
        with np.errstate(all="ignore"), pytest.raises(SystemExit) as exc:
            main(["p2ot", "solve", "--pred", str(pred), "--rho", "0.5", "--eps", "1e-4", "--out", str(out)])
        assert exc.value.code == 1
        assert not out.exists()

    def test_negative_entry_exits_1_without_output(self, runner, tmp_path):
        # the row [1.5, -0.5] sums to 1: the command exited 0 with converged=True
        P = random_pred(6, 2, seed=0)
        P[3] = [1.5, -0.5]
        pred = tmp_path / "pred.csv"
        io_mod.write_matrix_csv(pred, P)
        out = tmp_path / "o.csv"
        result = runner.invoke(cli, ["p2ot", "solve", "--pred", str(pred), "--rho", "0.5", "--out", str(out)])
        assert result.exit_code == 1
        assert "pred entries must be >= 0" in result.output
        assert not out.exists() and not out.with_suffix(".json").exists()

    def test_nan_tol_exits_1_without_output(self, runner, tmp_path):
        # a NaN tol never stops the loop: the solve ran to max_iter and exited 0
        pred = write_pred(tmp_path / "pred.csv")
        out = tmp_path / "o.csv"
        result = runner.invoke(cli, ["p2ot", "solve", "--pred", str(pred), "--rho", "0.5", "--tol", "nan",
                                     "--out", str(out)])
        assert result.exit_code == 1
        assert "tol must be finite and > 0" in result.output
        assert not out.exists()

    def test_out_colliding_with_summary_exits_1(self, capsys, tmp_path):
        pred = write_pred(tmp_path / "pred.csv")
        assert_out_collision_refused(capsys, ["p2ot", "solve", "--pred", str(pred), "--rho", "0.5"],
                                     tmp_path / "plan.json")

    def test_strict_nonconvergence_exits_2(self, tmp_path):
        pred = write_pred(tmp_path / "pred.csv", n=32, k=5, seed=1)
        with pytest.raises(SystemExit) as exc:
            main([
                "p2ot", "solve", "--pred", str(pred), "--rho", "0.5",
                "--max-iter", "1", "--tol", "1e-12", "--strict",
                "--out", str(tmp_path / "o.csv"),
            ])
        assert exc.value.code == 2

    def test_output_dir_env_override(self, runner, tmp_path, monkeypatch):
        pred = write_pred(tmp_path / "pred.csv")
        outdir = tmp_path / "artifacts"
        monkeypatch.setenv("SPPOT_OUTPUT_DIR", str(outdir))
        result = runner.invoke(cli, ["p2ot", "solve", "--pred", str(pred), "--rho", "0.5", "--out", "plan.csv"])
        assert result.exit_code == 0, result.output
        assert (outdir / "plan.csv").exists()

    def test_env_override_ignores_absolute_paths(self, runner, tmp_path, monkeypatch):
        pred = write_pred(tmp_path / "pred.csv")
        monkeypatch.setenv("SPPOT_OUTPUT_DIR", str(tmp_path / "elsewhere"))
        out = tmp_path / "abs_plan.csv"
        result = runner.invoke(cli, ["p2ot", "solve", "--pred", str(pred), "--rho", "0.5", "--out", str(out)])
        assert result.exit_code == 0
        assert out.exists()


class TestRemovedBench:
    def test_bench_command_is_gone(self, runner, tmp_path):
        cfg_path = tmp_path / "bench.json"
        cfg_path.write_text(json.dumps({"sizes": [[12, 3]], "rhos": [0.5], "seeds": [0]}))
        out = tmp_path / "b.csv"
        result = runner.invoke(cli, ["p2ot", "bench", "--config", str(cfg_path), "--out", str(out)])
        assert "No such command" in result.output
        with pytest.raises(SystemExit) as exc:
            main(["p2ot", "bench", "--config", str(cfg_path), "--out", str(out)])
        assert exc.value.code == 1
        assert not out.exists()


class TestGraphBuild:
    def test_build_and_reuse(self, runner, tmp_path):
        feats = np.random.default_rng(0).normal(size=(10, 4))
        fpath = tmp_path / "feats.csv"
        io_mod.write_matrix_csv(fpath, feats)
        out = tmp_path / "graph.csv"
        result = runner.invoke(cli, ["graph", "build", "--features", str(fpath), "--k", "3", "--out", str(out)])
        assert result.exit_code == 0, result.output
        r, c, v = io_mod.read_triplets_csv(out)
        assert r.size == 10 * 3

    def test_cosine_kernel(self, runner, tmp_path):
        feats = np.random.default_rng(1).normal(size=(8, 4))
        fpath = tmp_path / "feats.csv"
        io_mod.write_matrix_csv(fpath, feats)
        out = tmp_path / "graph.csv"
        result = runner.invoke(
            cli, ["graph", "build", "--features", str(fpath), "--kernel", "cosine", "--k", "2", "--out", str(out)]
        )
        assert result.exit_code == 0, result.output

    def test_bad_sigma_exits_1(self, tmp_path):
        feats = np.random.default_rng(2).normal(size=(6, 2))
        fpath = tmp_path / "feats.csv"
        io_mod.write_matrix_csv(fpath, feats)
        with pytest.raises(SystemExit) as exc:
            main(["graph", "build", "--features", str(fpath), "--sigma", "-1", "--out", str(tmp_path / "g.csv")])
        assert exc.value.code == 1

    # 2 sigma^2 overflows at 1e160, is subnormal at 1e-160 and underflows to 0 at 1e-170
    @pytest.mark.parametrize("sigma", ["inf", "nan", "-inf", "1e160", "1e-160", "1e-170"])
    def test_non_finite_sigma_exits_1_without_output(self, runner, tmp_path, sigma):
        # with sigma = inf every similarity was 1, and node 2 of (0,0), (1,1), (3,3) linked to node 0
        fpath = tmp_path / "feats.csv"
        io_mod.write_matrix_csv(fpath, np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 3.0]]))
        out = tmp_path / "g.csv"
        result = runner.invoke(
            cli, ["graph", "build", "--features", str(fpath), "--sigma", sigma, "--k", "1", "--out", str(out)]
        )
        assert result.exit_code == 1
        assert "sigma must be finite and > 0" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("sigma", ["1e-10", "0.01"])
    def test_sigma_giving_only_zero_weights_exits_1_without_output(self, runner, tmp_path, sigma):
        # far below the point spacing the Gaussian gram is the identity: every edge had weight 0
        fpath = tmp_path / "feats.csv"
        io_mod.write_matrix_csv(fpath, np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 3.0]]))
        out = tmp_path / "g.csv"
        result = runner.invoke(
            cli, ["graph", "build", "--features", str(fpath), "--sigma", sigma, "--k", "1", "--out", str(out)]
        )
        assert result.exit_code == 1
        assert f"sigma {float(sigma):g} gives every kNN edge weight 0" in result.output
        assert not out.exists()

    def test_small_sigma_with_one_positive_weight_builds(self, runner, tmp_path):
        # points 0 and 1 are close enough for exp(-0.5 / (2 * 0.1^2)) > 0; node 2 links at weight 0
        fpath = tmp_path / "feats.csv"
        io_mod.write_matrix_csv(fpath, np.array([[0.0, 0.0], [0.5, 0.5], [300.0, 300.0]]))
        out = tmp_path / "g.csv"
        result = runner.invoke(
            cli, ["graph", "build", "--features", str(fpath), "--sigma", "0.1", "--k", "1", "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        _, _, vals = io_mod.read_triplets_csv(out)
        assert vals.size == 3 and np.count_nonzero(vals) == 2


class TestSp2otSolve:
    def test_happy_path(self, runner, tmp_path):
        pred = write_pred(tmp_path / "pred.csv", n=10, k=3, seed=2)
        rng = np.random.default_rng(3)
        rows, cols, vals = [], [], []
        for i in range(10):
            for j in rng.choice([x for x in range(10) if x != i], size=3, replace=False):
                rows.append(i)
                cols.append(int(j))
                vals.append(float(rng.uniform(0.1, 1.0)))
        gpath = tmp_path / "graph.csv"
        io_mod.write_triplets_csv(gpath, rows, cols, vals)
        out = tmp_path / "plan.csv"
        result = runner.invoke(
            cli,
            ["sp2ot", "solve", "--pred", str(pred), "--graph", str(gpath),
             "--lambda1", "5.0", "--rho", "0.5", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        summary = json.loads(out.with_suffix(".json").read_text())
        assert len(summary["outer_objectives"]) >= 1
        objs = summary["outer_objectives"]
        tol = ScalingConfig(epsilon=0.1).tol  # the command's inner tolerance
        assert summary["ascents"] == sum(b - a > tol * max(abs(a), abs(b)) for a, b in zip(objs, objs[1:]))
        newton = summary["inner_newton_steps"]
        assert len(newton) == len(summary["inner_iterations"]) == len(objs)
        assert all(isinstance(steps, int) and steps >= 0 for steps in newton)
        assert newton[0] > 0  # the first inner solve is cold, and takes the Newton phase too
        assert summary["inner_converged"] == [True] * len(objs)
        assert len(summary["plan_changes"]) == len(objs)

    def test_nonfinite_edge_exits_1(self, runner, tmp_path):
        pred = write_pred(tmp_path / "pred.csv", n=4, k=2, seed=3)
        gpath = tmp_path / "graph.csv"
        io_mod.write_triplets_csv(gpath, [0, 1], [1, 2], [1.0, float("nan")])
        assert "nan" in gpath.read_text()
        out = tmp_path / "o.csv"
        result = runner.invoke(cli, ["sp2ot", "solve", "--pred", str(pred), "--graph", str(gpath),
                                     "--lambda1", "1.0", "--rho", "0.5", "--out", str(out)])
        assert result.exit_code == 1
        assert "adjacency entries must be finite" in result.output
        assert not out.exists()

    def test_repeated_edge_keeps_last_value(self, runner, tmp_path):
        # (0, 1) and (2, 3) appear twice: the file means the value written last
        pred = write_pred(tmp_path / "pred.csv", n=6, k=2, seed=4)
        graphs = {
            "repeated": ([0, 1, 2, 3, 4, 5, 0, 2], [1, 2, 3, 4, 5, 0, 1, 3],
                         [0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.1, 0.2]),
            "last": ([0, 1, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0], [0.1, 0.8, 0.2, 0.6, 0.5, 0.4]),
        }
        plans = []
        for name, (rows, cols, vals) in graphs.items():
            gpath = tmp_path / f"{name}.csv"
            io_mod.write_triplets_csv(gpath, rows, cols, vals)
            out = tmp_path / f"{name}_plan.csv"
            result = runner.invoke(cli, ["sp2ot", "solve", "--pred", str(pred), "--graph", str(gpath),
                                         "--lambda1", "5.0", "--rho", "0.5", "--out", str(out)])
            assert result.exit_code == 0, result.output
            plans.append(io_mod.read_matrix(out))
        assert np.array_equal(plans[0], plans[1])

    def test_out_colliding_with_summary_exits_1(self, capsys, tmp_path):
        pred = write_pred(tmp_path / "pred.csv", n=4, k=2, seed=3)
        gpath = tmp_path / "graph.csv"
        io_mod.write_triplets_csv(gpath, [0, 1, 2], [1, 2, 3], [1.0, 0.5, 0.25])
        argv = ["sp2ot", "solve", "--pred", str(pred), "--graph", str(gpath), "--lambda1", "1.0", "--rho", "0.5"]
        assert_out_collision_refused(capsys, argv, tmp_path / "plan.json")

    def test_invalid_rho_exits_1_with_one_line(self, capsys, tmp_path):
        pred = write_pred(tmp_path / "pred.csv", n=4, k=2, seed=3)
        gpath = tmp_path / "graph.csv"
        io_mod.write_triplets_csv(gpath, [0, 1, 2], [1, 2, 3], [1.0, 0.5, 0.25])
        with pytest.raises(SystemExit) as exc:
            main(["sp2ot", "solve", "--pred", str(pred), "--graph", str(gpath),
                  "--lambda1", "1.0", "--rho", "1.5", "--out", str(tmp_path / "o.csv")])
        assert exc.value.code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "rho must be in (0, 1]" in err[0], err

    def test_strict_nonconvergence_exits_2(self, tmp_path, monkeypatch):
        # the command has no iteration budget to cut, so the solve reports its last inner solve unconverged
        from sppot import sp2ot

        real = sp2ot.solve_sp2ot

        def unconverged(problem):
            plan, trace = real(problem)
            plan.converged = False
            return plan, trace

        monkeypatch.setattr(sp2ot, "solve_sp2ot", unconverged)
        pred = write_pred(tmp_path / "pred.csv", n=4, k=2, seed=3)
        gpath = tmp_path / "graph.csv"
        io_mod.write_triplets_csv(gpath, [0, 1, 2], [1, 2, 3], [1.0, 0.5, 0.25])
        out = tmp_path / "o.csv"
        with pytest.raises(SystemExit) as exc:
            main(["sp2ot", "solve", "--pred", str(pred), "--graph", str(gpath),
                  "--lambda1", "1.0", "--rho", "0.5", "--strict", "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists() and not out.with_suffix(".json").exists()

    def test_out_of_range_edge_exits_1(self, tmp_path):
        pred = write_pred(tmp_path / "pred.csv", n=4, k=2, seed=3)
        gpath = tmp_path / "graph.csv"
        io_mod.write_triplets_csv(gpath, [0], [9], [1.0])  # node 9 does not exist
        with pytest.raises(SystemExit) as exc:
            main(["sp2ot", "solve", "--pred", str(pred), "--graph", str(gpath),
                  "--lambda1", "1.0", "--rho", "0.5", "--out", str(tmp_path / "o.csv")])
        assert exc.value.code == 1


class TestMetricsEval:
    def test_eval_output(self, runner, tmp_path):
        truth = tmp_path / "truth.txt"
        pred = tmp_path / "pred.txt"
        io_mod.write_labels(truth, [0, 0, 1, 1, 2, 2])
        io_mod.write_labels(pred, [1, 1, 0, 0, 2, 2])
        out = tmp_path / "metrics.json"
        result = runner.invoke(
            cli, ["metrics", "eval", "--predicted", str(pred), "--truth", str(truth), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        assert "acc=1.000000" in result.output
        record = json.loads(out.read_text())["metrics"]
        assert record["acc"] == 1.0

    def test_large_label_id(self, runner, tmp_path):
        # one predicted id of 40,000 among 2,000 labels: the record of the compacted labels
        rng = np.random.default_rng(40)
        truth = rng.integers(0, 10, size=2000)
        pred = np.where(rng.random(2000) < 0.8, truth, rng.integers(0, 10, size=2000))
        pred[3] = 40_000
        io_mod.write_labels(tmp_path / "truth.txt", truth)
        io_mod.write_labels(tmp_path / "pred.txt", pred)
        result = runner.invoke(cli, ["metrics", "eval", "--predicted", str(tmp_path / "pred.txt"),
                                     "--truth", str(tmp_path / "truth.txt")])
        assert result.exit_code == 0, result.output
        compacted = evaluate(np.unique(pred, return_inverse=True)[1], truth)
        assert result.output.splitlines() == [f"{k}={v:.6f}" for k, v in compacted.items()]

    def test_empty_labels_exit_1(self, tmp_path):
        truth = tmp_path / "truth.txt"
        truth.write_text("")
        with pytest.raises(SystemExit) as exc:
            main(["metrics", "eval", "--predicted", str(truth), "--truth", str(truth)])
        assert exc.value.code == 1

    @pytest.mark.parametrize("side", ["predicted", "truth"])
    def test_negative_label_exits_1(self, capsys, tmp_path, side):
        labels = {"predicted": [0, 1, 1], "truth": [0, 1, 1]}
        labels[side] = [0, 1, -1]
        for name, values in labels.items():
            io_mod.write_labels(tmp_path / f"{name}.txt", values)
        with pytest.raises(SystemExit) as exc:
            main(["metrics", "eval", "--predicted", str(tmp_path / "predicted.txt"),
                  "--truth", str(tmp_path / "truth.txt")])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert "labels must be nonnegative integers" in captured.err and "acc=" not in captured.out


def loaded_modules(code, *args, prefixes=("scipy.optimize", "scipy.sparse")):
    """Run `code` in a fresh interpreter that imports sppot from this checkout; the modules
    named by `prefixes` (by default scipy.optimize and scipy.sparse) loaded when it ends."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    probe = f"; import sys; print(sorted(m for m in sys.modules if m.startswith({tuple(prefixes)!r})))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code + probe, *args], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


@pytest.mark.parametrize("module", ["sppot", "sppot.cli"])
def test_import_leaves_scipy_optimize_unloaded(module):
    """Of a ~0.7 s `import sppot.cli`, scipy.optimize took ~0.3 s and scipy.sparse ~0.1 s.
    Only `oracle.lp_exact_tiny` needs the first, and only graph and SP2OT code the second.
    The configs are checked in the package: jsonschema and its `referencing` took
    another ~50 ms, and only the tests use them."""
    prefixes = ("scipy.optimize", "scipy.sparse", "jsonschema", "referencing")
    assert loaded_modules(f"import {module}", prefixes=prefixes) == "[]"


def test_p2ot_cluster_run_leaves_scipy_sparse_unloaded(tmp_path):
    """A P2OT `cluster run` builds no graph, so the process never loads scipy.sparse."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "dataset": {"n": 60, "k": 3, "imbalance": 4.0, "dim": 4, "separation": 8.0},
        "solver": "P2OT",
        "seed": 5,
        "train": {"epochs": 2, "batch_size": 30, "buffer_size": 0},
    }))
    out = tmp_path / "out.json"
    code = "import sys; from sppot.cli import main; main(sys.argv[1:])"
    loaded = loaded_modules(code, "cluster", "run", "--config", str(cfg), "--out", str(out))
    assert len(json.loads(out.read_text())["epochs"]) == 2
    assert loaded == "[]"


def test_sp2ot_gradient_and_objective_on_a_dense_graph_leave_scipy_sparse_unloaded():
    """The gradient multiplies the graph it is given; only `Sp2otProblem` converts one to CSR."""
    code = ("import numpy as np; from sppot.ot_core import TransportPlan, entropic_objective; "
            "from sppot.sp2ot import sp2ot_gradient, sp2ot_objective; "
            "A = np.ones((6, 6)) - np.eye(6); Q = np.full((6, 3), 0.5 / 18); C0 = np.ones((6, 3)); "
            "plan = TransportPlan(Q, entropic_objective(Q, C0, 0.5 / 3, 1.0, 0.1), 0, True); "
            "sp2ot_objective(plan, C0, C0, sp2ot_gradient(C0, A, 2.0, Q), 0.1)")
    assert loaded_modules(code) == "[]"


UNRUNNABLE = {
    # configs that pass the schema: more clusters than samples, and a fixed schedule selecting no mass
    "n_below_k": ({"dataset": {"n": 5, "k": 10}}, "need K >= 2, R >= 1 and N >= K"),
    "fixed_rho0_zero": ({"schedule": {"kind": "fixed", "rho0": 0}}, "rho must be in (0, 1]"),
}


def assert_cannot_run(capsys, command, cfg_path, message):
    """`cluster <command>` exits 1 with one error line and no traceback, and writes nothing."""
    with pytest.raises(SystemExit) as exc:
        main(["cluster", command, "--config", str(cfg_path), "--out", str(cfg_path.parent / "out.json")])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err and "Traceback" not in err
    assert list(cfg_path.parent.iterdir()) == [cfg_path]


class TestClusterRun:
    def run_config(self, tmp_path, extra=None):
        cfg = {
            "dataset": {"n": 60, "k": 3, "imbalance": 4.0, "dim": 4, "separation": 8.0},
            "solver": "P2OT",
            "seed": 5,
            "train": {"epochs": 2, "batch_size": 30, "buffer_size": 0, "knn_k": 4},
        }
        if extra:
            cfg.update(extra)
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        return cfg_path

    def test_run_artifacts(self, runner, tmp_path):
        cfg_path = self.run_config(tmp_path)
        out = tmp_path / "run.json.out"
        result = runner.invoke(cli, ["cluster", "run", "--config", str(cfg_path), "--out", str(out)])
        assert result.exit_code == 0, result.output
        payload = json.loads(out.read_text())
        assert payload["seed"] == 5
        assert len(payload["epochs"]) == 2
        assert payload["resolved_train_config"]["solver"] == "P2OT"
        with out.with_suffix(".csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["schema_version", "epoch", "acc", "nmi", "f1", "ari", "acc_head", "acc_medium",
                           "acc_tail", "rho", "precision", "recall", "weighted_precision", "weighted_recall"]
        assert len(rows) == 3

    def test_out_colliding_with_csv_exits_1(self, capsys, tmp_path):
        cfg_path = self.run_config(tmp_path)
        assert_out_collision_refused(capsys, ["cluster", "run", "--config", str(cfg_path)], tmp_path / "out.csv")

    def test_deterministic_across_invocations(self, runner, tmp_path):
        cfg_path = self.run_config(tmp_path)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        r1 = runner.invoke(cli, ["cluster", "run", "--config", str(cfg_path), "--out", str(out1)])
        r2 = runner.invoke(cli, ["cluster", "run", "--config", str(cfg_path), "--out", str(out2)])
        assert r1.exit_code == 0 and r2.exit_code == 0
        assert out1.read_text() == out2.read_text()

    def test_integral_floats_run_as_integers(self, runner, tmp_path):
        # the check counts 4.0 as an integer, as jsonschema does; the run must get 4, which
        # SeedSequence and range need, and echo the config as the all-integer one
        outputs = []
        for number in (int, float):
            cfg = {"dataset": {"n": number(60), "k": number(3), "dim": number(4)}, "solver": "P2OT",
                   "seed": number(4), "train": {"epochs": number(1), "batch_size": 30, "buffer_size": 0}}
            cfg_path, out = tmp_path / f"{number.__name__}.json", tmp_path / f"{number.__name__}_out.json"
            cfg_path.write_text(json.dumps(cfg))
            result = runner.invoke(cli, ["cluster", "run", "--config", str(cfg_path), "--out", str(out)])
            assert result.exit_code == 0, result.output
            outputs.append((out.read_bytes(), out.with_suffix(".csv").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_schedule_override(self, runner, tmp_path):
        cfg_path = self.run_config(tmp_path, {"schedule": {"kind": "fixed", "rho0": 0.25}})
        out = tmp_path / "run.json.out"
        result = runner.invoke(cli, ["cluster", "run", "--config", str(cfg_path), "--out", str(out)])
        assert result.exit_code == 0, result.output
        payload = json.loads(out.read_text())
        assert all(e["rho"] == 0.25 for e in payload["epochs"])

    @pytest.mark.parametrize("case", sorted(UNRUNNABLE))
    def test_config_that_cannot_run_exits_1_without_output(self, capsys, tmp_path, case):
        extra, message = UNRUNNABLE[case]
        assert_cannot_run(capsys, "run", self.run_config(tmp_path, extra), message)

    def test_unknown_train_key_rejected(self, tmp_path):
        cfg_path = self.run_config(tmp_path)
        cfg = json.loads(cfg_path.read_text())
        cfg["train"]["mystery"] = 1
        cfg_path.write_text(json.dumps(cfg))
        with pytest.raises(SystemExit) as exc:
            main(["cluster", "run", "--config", str(cfg_path), "--out", str(cfg_path) + ".out"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("command", ["run", "ablate"])
    @pytest.mark.parametrize("content", [b"{not json", b"\xff\xfe\x00{", b"[" * 100_000],
                             ids=["malformed", "not-utf8", "nested-too-deep"])
    def test_invalid_json_rejected(self, capsys, tmp_path, command, content):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_bytes(content)
        with pytest.raises(SystemExit) as exc:
            main(["cluster", command, "--config", str(cfg_path), "--out", str(tmp_path / "run.out")])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"cannot read config {cfg_path}: " in err, err

    @pytest.mark.parametrize("solver, section, key, value", [
        ("P2OT", "dataset", "imbalance", math.inf),  # ran, and exited 0
        ("SLA", "train", "sla_upper", math.inf),  # ran, and exited 0
        ("P2OT", "dataset", "separation", math.inf),
        ("P2OT", "dataset", "imbalance", math.nan),
        ("SP2OT", "train", "lambda1_0", math.inf),
    ])
    def test_non_finite_number_rejected(self, capsys, tmp_path, solver, section, key, value):
        """Python's `json` reads `Infinity` and `NaN`, which are not JSON; jsonschema
        passes them wherever a number is due, and the run then failed far from the cause."""
        cfg = {"dataset": {"n": 200, "k": 3, "separation": 10.0}, "solver": solver, "seed": 1,
               "train": {"epochs": 2}}
        cfg[section][key] = value
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        with pytest.raises(SystemExit) as exc:
            main(["cluster", "run", "--config", str(cfg_path), "--out", str(tmp_path / "run.out")])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"config {cfg_path} invalid: {value!r} is not a finite number" in err, err
        assert list(tmp_path.iterdir()) == [cfg_path]

    @pytest.mark.parametrize("schema", ["RUN_SCHEMA", "ABLATE_SCHEMA"])
    def test_config_schemas_are_valid(self, schema):
        # `_load_config` does not check the schema against its metaschema on each call
        from jsonschema.validators import validator_for

        from sppot import cli as cli_mod

        schema = getattr(cli_mod, schema)
        validator_for(schema).check_schema(schema)

    def test_invalid_config_message_is_jsonschemas(self, runner, tmp_path):
        import jsonschema

        from sppot.cli import RUN_SCHEMA

        cfg = json.loads(self.run_config(tmp_path).read_text())
        cfg["train"]["epochs"] = "three"
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        with pytest.raises(jsonschema.ValidationError) as exc:
            jsonschema.validate(cfg, RUN_SCHEMA)
        result = runner.invoke(cli, ["cluster", "run", "--config", str(cfg_path), "--out", str(tmp_path / "o.json")])
        assert result.exit_code == 1
        assert f"config {cfg_path} invalid: {exc.value.message}" in result.output


# every property of the two config schemas, each at a valid value
VALID_CONFIGS = {
    "RUN_SCHEMA": {
        "dataset": {"n": 60, "k": 3, "imbalance": 4.0, "dim": 4, "separation": 8.0},
        "solver": "P2OT",
        "seed": 5,
        "schedule": {"kind": "linear", "rho0": 0.5},
        "train": {"epochs": 2, "batch_size": 30, "buffer_size": 0, "eps": 0.1, "lambda2": 1.0, "lambda1_0": 10.0,
                  "sla_upper": 0.5, "knn_k": 4, "temperature": 0.5, "learning_rate": 0.1, "tol": 1e-6,
                  "max_iter": 100},
    },
}
VALID_CONFIGS["ABLATE_SCHEMA"] = {
    **{key: VALID_CONFIGS["RUN_SCHEMA"][key] for key in ("dataset", "schedule", "train")},
    "solvers": ["OT", "P2OT"],
    "seeds": [0, 1],
    "workers": 2,
}


def subschemas(schema, path=()):
    """(path, subschema) for `schema` and every schema nested in it; a list item's path ends in 0."""
    yield path, schema
    for key, subschema in schema.get("properties", {}).items():
        yield from subschemas(subschema, path + (key,))
    if "items" in schema:
        yield from subschemas(schema["items"], path + (0,))


def edits(schema):
    """(path, value) edits that put one fault, or a value at a bound, at each keyword and
    property of `schema`; value None deletes the key at `path`. Type edits include True where
    a number is due, a fractional float where an integer is, and an integral float (4.0)."""
    for path, sub in subschemas(schema):
        kind = sub["type"]
        wrong = {"object": [[], "x"], "array": [{}, "x"], "string": [1, True], "number": ["x", True, [1.0]],
                 "integer": ["x", True, 4.5, 4.0, 7.0]}[kind]
        yield from ((path, value) for value in wrong)
        if "enum" in sub:
            yield path, "nope"
        if "minimum" in sub:
            low = sub["minimum"]
            yield from ((path, v) for v in (low - 1, low, float(low), math.nextafter(low, -math.inf)))
        if "exclusiveMinimum" in sub:
            low = sub["exclusiveMinimum"]
            yield from ((path, v) for v in (math.nextafter(low, -math.inf), low, math.nextafter(low, math.inf)))
        if "maximum" in sub:
            high = sub["maximum"]
            yield from ((path, v) for v in (high, math.nextafter(high, math.inf), high + 1))
        yield from ((path + (key,), None) for key in sub.get("required", ()))
        if "additionalProperties" in sub:
            yield path + ("mystery",), 1
        if "minItems" in sub:
            yield path, []


def at(config, path):
    for key in path:
        config = config[key]
    return config


def edited(config, path, value):
    if not path:
        return value
    config = copy.deepcopy(config)
    target = at(config, path[:-1])
    last = path[-1]
    if value is None:
        del target[last]
    else:
        target[last] = value
    return config


class TestConfigChecker:
    """`cli._schema_faults` interprets the config schemas itself; jsonschema is the reference."""

    @pytest.mark.parametrize("schema", ["RUN_SCHEMA", "ABLATE_SCHEMA"])
    def test_uses_only_checked_keywords(self, schema):
        from sppot import cli as cli_mod

        for _, sub in subschemas(getattr(cli_mod, schema)):
            assert set(sub) <= set(cli_mod.SCHEMA_KEYWORDS), sub
            assert sub.get("additionalProperties", False) is False

    @pytest.mark.parametrize("schema", ["RUN_SCHEMA", "ABLATE_SCHEMA"])
    def test_single_faults_match_jsonschema(self, schema):
        """Both accept and reject the same configs, with the same message: the valid config
        and one edit of it at each keyword and property (see `edits`)."""
        from jsonschema.exceptions import best_match
        from jsonschema.validators import validator_for

        from sppot import cli as cli_mod

        config, schema = VALID_CONFIGS[schema], getattr(cli_mod, schema)
        for path, _ in subschemas(schema):
            at(config, path)  # the valid config sets every property
        validator = validator_for(schema)(schema)
        cases = [config] + [edited(config, path, value) for path, value in edits(schema)]
        accepted = []
        for cfg in cases:
            reference = best_match(validator.iter_errors(cfg))
            expected = None if reference is None else reference.message
            assert next(cli_mod._schema_faults(cfg, schema), None) == expected, cfg
            accepted.append(expected is None)
        assert accepted[0] and 10 < accepted.count(True) < len(cases) - 10


class TestSemanticClusterRun:
    """SP2OT at the default lambda1_0 (1000): the gradient cost C0 - lambda1 (A + A^T) Q
    runs far negative, where exp(-C/eps) used to overflow."""

    def run(self, tmp_path, seed):
        cfg = {
            "dataset": {"n": 1200, "k": 10, "imbalance": 10.0, "separation": 10.0},
            "solver": "SP2OT",
            "seed": seed,
            "train": {"epochs": 3},
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "run_out.json"
        main(["cluster", "run", "--config", str(cfg_path), "--out", str(out)])
        return out

    def test_no_step_skipped(self, tmp_path):
        # this seed skipped one of its 6 steps with "non-finite plan"
        payload = json.loads(self.run(tmp_path, seed=5).read_text())
        assert len(payload["loss_trace"]) == 6

    def test_run_completes_and_writes_output(self, tmp_path):
        # this seed's epoch-end solve raised and ended the run without output
        out = self.run(tmp_path, seed=1)
        payload = json.loads(out.read_text())
        assert len(payload["epochs"]) == 3
        assert out.with_suffix(".csv").exists()


class TestClusterAblate:
    def ablate(self, runner, tmp_path, workers, seeds=(0, 1)):
        cfg = {
            "dataset": {"n": 60, "k": 3, "imbalance": 4.0, "dim": 4, "separation": 8.0},
            "solvers": ["OT", "P2OT"],
            "seeds": list(seeds),
            "train": {"epochs": 1, "batch_size": 30, "buffer_size": 0, "knn_k": 4},
            "workers": workers,
        }
        cfg_path = tmp_path / f"ablate{workers}.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / f"table{workers}.csv"
        result = runner.invoke(cli, ["cluster", "ablate", "--config", str(cfg_path), "--out", str(out)])
        assert result.exit_code == 0, result.output
        return out

    def test_ablation_table(self, runner, tmp_path):
        with self.ablate(runner, tmp_path, workers=2).open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["schema_version", "solver", "seed", "acc", "nmi", "f1", "ari",
                           "acc_head", "acc_medium", "acc_tail"]
        assert len(rows) == 1 + 4
        assert [(r[1], r[2]) for r in rows[1:]] == [("OT", "0"), ("OT", "1"), ("P2OT", "0"), ("P2OT", "1")]

    def test_workers_do_not_change_the_table(self, runner, tmp_path):
        one, two = (self.ablate(runner, tmp_path, workers) for workers in (1, 2))
        assert one.read_bytes() == two.read_bytes()

    def test_integral_floats_run_as_integers(self, runner, tmp_path):
        # 2.0 workers and 0.0 seeds pass the check, as in jsonschema, and run as 2 and 0
        ints = self.ablate(runner, tmp_path, 2).read_bytes()
        assert self.ablate(runner, tmp_path, 2.0, seeds=(0.0, 1.0)).read_bytes() == ints

    @pytest.mark.parametrize("case", sorted(UNRUNNABLE))
    def test_config_that_cannot_run_exits_1_without_output(self, capsys, tmp_path, case):
        extra, message = UNRUNNABLE[case]
        cfg = {
            "dataset": {"n": 60, "k": 3, "imbalance": 4.0, "dim": 4, "separation": 8.0},
            "solvers": ["OT", "P2OT"],
            "seeds": [0, 1],
            "train": {"epochs": 1, "batch_size": 30, "buffer_size": 0, "knn_k": 4},
            "workers": 2,
            **extra,
        }
        cfg_path = tmp_path / "ablate.json"
        cfg_path.write_text(json.dumps(cfg))
        assert_cannot_run(capsys, "ablate", cfg_path, message)


class TestOracleCheck:
    def test_agreement_reported(self, runner, tmp_path):
        pred = write_pred(tmp_path / "pred.csv", n=6, k=3, seed=4)
        result = runner.invoke(
            cli, ["oracle", "check", "--pred", str(pred), "--rho", "0.5", "--eps", "0.5", "--tol", "1e-5"]
        )
        assert result.exit_code == 0, result.output
        gap = float(result.output.split("relative_gap=")[1].strip())
        assert gap < 1e-5

    def test_defaults_converge(self, runner, tmp_path):
        # the defaults lie where PGD converges; at eps 0.1 (and at tol 1e-7 with
        # PGD step 0.05) it stops short of tol on this input and the command exits 1
        pred = write_pred(tmp_path / "pred.csv", n=6, k=3, seed=0)
        result = runner.invoke(cli, ["oracle", "check", "--pred", str(pred), "--rho", "0.5"])
        assert result.exit_code == 0, result.output
        gap = float(result.output.split("relative_gap=")[1].strip())
        assert gap < 1e-8


def test_readme_commands_parse():
    # every `sppot ...` line of the README's command-line block names a real
    # command and real options; --help makes each a parse with no run
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [ln for ln in block.splitlines() if ln.startswith("sppot ")]
    assert lines
    for line in lines:
        result = CliRunner().invoke(cli, shlex.split(line)[1:] + ["--help"])
        assert result.exit_code == 0, f"{line}\n{result.output}"
