import csv
import json
import shlex
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import random_pred
from sppot import io as io_mod
from sppot.cli import cli, main
from sppot.p2ot import random_problem


@pytest.fixture
def runner():
    return CliRunner()


def write_pred(path, n=12, k=3, seed=0):
    io_mod.write_matrix_csv(path, random_pred(n, k, seed))
    return path


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

    def test_non_finite_plan_exits_1_without_output(self, tmp_path):
        # at eps = 3e-4 and rho 0.5 this instance's kernel underflows and the plan turns NaN
        pred = tmp_path / "pred.csv"
        io_mod.write_matrix_csv(pred, random_problem(512, 10, 0.5, seed=0).pred)
        out = tmp_path / "o.csv"
        with np.errstate(all="ignore"), pytest.raises(SystemExit) as exc:
            main(["p2ot", "solve", "--pred", str(pred), "--rho", "0.5", "--eps", "3e-4", "--out", str(out)])
        assert exc.value.code == 1
        assert not out.exists()

    def test_nan_tol_exits_1_without_output(self, runner, tmp_path):
        # a NaN tol never stops the loop: the solve ran to max_iter and exited 0
        pred = write_pred(tmp_path / "pred.csv")
        out = tmp_path / "o.csv"
        result = runner.invoke(cli, ["p2ot", "solve", "--pred", str(pred), "--rho", "0.5", "--tol", "nan",
                                     "--out", str(out)])
        assert result.exit_code == 1
        assert "tol must be finite and > 0" in result.output
        assert not out.exists()

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

    @pytest.mark.parametrize("sigma", ["inf", "nan", "-inf", "1e160", "1e-170"])
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
        assert summary["ascents"] == sum(b > a + 1e-12 for a, b in zip(objs, objs[1:]))

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

    def test_empty_labels_exit_1(self, tmp_path):
        truth = tmp_path / "truth.txt"
        truth.write_text("")
        with pytest.raises(SystemExit) as exc:
            main(["metrics", "eval", "--predicted", str(truth), "--truth", str(truth)])
        assert exc.value.code == 1


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
        assert rows[0][:3] == ["schema_version", "epoch", "acc"]
        assert len(rows) == 3

    def test_deterministic_across_invocations(self, runner, tmp_path):
        cfg_path = self.run_config(tmp_path)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        r1 = runner.invoke(cli, ["cluster", "run", "--config", str(cfg_path), "--out", str(out1)])
        r2 = runner.invoke(cli, ["cluster", "run", "--config", str(cfg_path), "--out", str(out2)])
        assert r1.exit_code == 0 and r2.exit_code == 0
        assert out1.read_text() == out2.read_text()

    def test_schedule_override(self, runner, tmp_path):
        cfg_path = self.run_config(tmp_path, {"schedule": {"kind": "fixed", "rho0": 0.25}})
        out = tmp_path / "run.json.out"
        result = runner.invoke(cli, ["cluster", "run", "--config", str(cfg_path), "--out", str(out)])
        assert result.exit_code == 0, result.output
        payload = json.loads(out.read_text())
        assert all(e["rho"] == 0.25 for e in payload["epochs"])

    def test_unknown_train_key_rejected(self, tmp_path):
        cfg_path = self.run_config(tmp_path)
        cfg = json.loads(cfg_path.read_text())
        cfg["train"]["mystery"] = 1
        cfg_path.write_text(json.dumps(cfg))
        with pytest.raises(SystemExit) as exc:
            main(["cluster", "run", "--config", str(cfg_path), "--out", str(cfg_path) + ".out"])
        assert exc.value.code == 1

    def test_invalid_json_rejected(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text("{not json")
        with pytest.raises(SystemExit) as exc:
            main(["cluster", "run", "--config", str(cfg_path), "--out", str(tmp_path / "run.out")])
        assert exc.value.code == 1

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
    def test_ablation_table(self, runner, tmp_path):
        cfg = {
            "dataset": {"n": 60, "k": 3, "imbalance": 4.0, "dim": 4, "separation": 8.0},
            "solvers": ["OT", "P2OT"],
            "seeds": [0, 1],
            "train": {"epochs": 1, "batch_size": 30, "buffer_size": 0, "knn_k": 4},
            "workers": 2,
        }
        cfg_path = tmp_path / "ablate.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "table.csv"
        result = runner.invoke(cli, ["cluster", "ablate", "--config", str(cfg_path), "--out", str(out)])
        assert result.exit_code == 0, result.output
        with out.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:4] == ["schema_version", "solver", "seed", "acc"]
        assert len(rows) == 1 + 4
        assert {(r[1], r[2]) for r in rows[1:]} == {("OT", "0"), ("OT", "1"), ("P2OT", "0"), ("P2OT", "1")}


class TestOracleCheck:
    def test_agreement_reported(self, runner, tmp_path):
        pred = write_pred(tmp_path / "pred.csv", n=6, k=3, seed=4)
        result = runner.invoke(
            cli, ["oracle", "check", "--pred", str(pred), "--rho", "0.5", "--eps", "0.5", "--tol", "1e-5"]
        )
        assert result.exit_code == 0, result.output
        gap = float(result.output.split("relative_gap=")[1].strip())
        assert gap < 1e-5


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
