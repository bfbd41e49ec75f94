"""Run alternated parent/change pairs of one perfbench workload and record them in a BENCH file.

Usage, from the root of a git checkout of the repository:

    python3 scripts/bench_pairs.py --parent acc8cf8 --change HEAD --workload solve-p2ot \\
        --seeds 301-310 --seconds 25 --trace 0 --out BENCH_36.json

Each side is the tree of its commit, exported with `git archive` into a
fresh directory, so no uncommitted file enters a run. Pair i runs both
sides on the i-th seed, the parent first in even pairs and the change first
in odd ones. A run is `python3 perfbench/run.py --workload W --seed S
--seconds T --trace X` in that side's tree, and what is recorded comes from
the run's record in the tree's `.perfbench_out/`: its end-to-end (or,
traced, per-layer) metrics, environment, and the median time of each
operation label over its repeats. Runs are appended to
`--out` (a file for another pair of commits is refused), and its summary is
recomputed over all of them. The layout is described in README.md
("Benchmark records").
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LAYOUT = 1
SIDES = ("parent", "change")


def parse_seeds(spec):
    """Seeds from "301-310", "5,7,9" or a mix of both."""
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_order(pair):
    """The sides of pair `pair` in the order they run: the parent first in even pairs."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def metric_directions(benchmark_json):
    """{metric name: "lower" or "higher"}, the better direction of every metric BENCHMARK.json names."""
    spec = json.loads(Path(benchmark_json).read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def metric_bounds(benchmark_json):
    """{metric name: bound}, the largest relative worsening BENCHMARK.json allows each bounded metric."""
    spec = json.loads(Path(benchmark_json).read_text())
    return {m["name"]: m["bound"] for m in spec["end_to_end"] + spec["per_layer"] if "bound" in m}


def _spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarize(runs, directions, bounds=None):
    """Per workload, trace setting and metric: each side's median and quartiles, and the pairs the change wins.

    A pair counts when both of its sides report the metric; the change wins
    it when its value is better in the metric's direction, and a tie counts
    for neither side. Quartiles are
    `statistics.quantiles(..., n=4, method="inclusive")`. A metric with a
    direction is a `gain` when the change wins at least 9 in 10 of the pairs
    and its median is better than the parent's by more than the parent's
    quartile distance. A metric with a bound in `bounds` is `unresolved`
    when the parent's quartile distance exceeds the bound times the
    parent's median and not every change run is better than every parent
    run: the runs spread too widely to tell a change within the bound.
    """
    groups = {}
    for run in runs:
        groups.setdefault(f"{run['workload']}/trace{run['trace']}", []).append(run)
    summary = {}
    for group, members in sorted(groups.items()):
        pairs = {}
        for run in members:
            pairs.setdefault(run["pair"], {})[run["side"]] = run
        names = sorted({name for run in members for name in run["metrics"]})
        out = {}
        for name in names:
            both = [p for _, p in sorted(pairs.items())
                    if all(name in p.get(side, {}).get("metrics", {}) for side in SIDES)]
            if not both:
                continue
            values = {side: [p[side]["metrics"][name]["value"] for p in both] for side in SIDES}
            entry = {"pairs": len(both), **{side: _spread(values[side]) for side in SIDES}}
            better = directions.get(name)
            if better is not None:
                sign = 1 if better == "lower" else -1
                entry["better"] = better
                entry["change_wins"] = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
                parent = entry["parent"]
                entry["gain"] = (10 * entry["change_wins"] >= 9 * len(both)
                                 and sign * (parent["median"] - entry["change"]["median"]) > parent["q3"] - parent["q1"])
                if name in (bounds or {}):
                    separated = all(sign * (c - p) < 0 for p in values["parent"] for c in values["change"])
                    entry["unresolved"] = (parent["q3"] - parent["q1"] > bounds[name] * abs(parent["median"])
                                           and not separated)
            out[name] = entry
        summary[group] = {"correct": all(run["correct"] for run in members),
                          "failed": sum(run["failed"] for run in members), "metrics": out}
    return summary


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def _export(commit, dest):
    """The tree of `commit`, written into the directory `dest`."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def _run(tree, workload, seed, seconds, trace):
    """One perfbench run in `tree`; returns its record from the tree's .perfbench_out/."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    subprocess.run(cmd, cwd=tree, check=True, stdout=subprocess.DEVNULL)
    return json.loads((tree / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True, help="commit of the parent side")
    p.add_argument("--change", required=True, help="commit of the change side")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, type=parse_seeds, help='e.g. "301-310"')
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True, type=Path)
    args = p.parse_args(argv)
    commits = {"parent": _git("rev-parse", f"{args.parent}^{{commit}}"),
               "change": _git("rev-parse", f"{args.change}^{{commit}}")}
    doc = {"layout": LAYOUT, **commits, "runs": []}
    if args.out.exists():
        doc = json.loads(args.out.read_text())
        if (doc.get("layout"), doc.get("parent"), doc.get("change")) != (LAYOUT, commits["parent"], commits["change"]):
            p.error(f"{args.out} records another layout or pair of commits")
    work = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        trees = {side: _export(commits[side], work / side) for side in SIDES}
        first_pair = 1 + max((r["pair"] for r in doc["runs"] if r["workload"] == args.workload
                              and r["trace"] == args.trace), default=-1)
        for i, seed in enumerate(args.seeds):
            pair = first_pair + i
            for side in run_order(pair):
                record = _run(trees[side], args.workload, seed, args.seconds, args.trace)
                doc["runs"].append({
                    "workload": args.workload, "seed": seed, "seconds": args.seconds, "trace": args.trace,
                    "pair": pair, "side": side, "order": len(doc["runs"]), "commit": commits[side],
                    "correct": record["correct"], "attempted": record["attempted"], "failed": record["failed"],
                    "metrics": record["metrics"], "environment": record["environment"],
                    "operation_ms_median": {label: statistics.median(op["ms"])
                                            for label, op in record["operations"].items()},
                })
                doc["summary"] = summarize(doc["runs"], metric_directions(ROOT / "BENCHMARK.json"),
                                           metric_bounds(ROOT / "BENCHMARK.json"))
                args.out.write_text(json.dumps(doc, indent=1) + "\n")
                value = record["metrics"].get("op_ms_p50", {}).get("value")
                print(f"pair {pair} seed {seed} {side}: correct {record['correct']} failed {record['failed']} "
                      f"op_ms_p50 {value}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
