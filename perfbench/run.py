"""Run one sppot benchmark workload and print its metrics.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload solve-p2ot --seed 1 --seconds 10 --trace 0

Workloads: solve-p2ot, train-p2ot, solve-sp2ot (see perfbench/README.md).
The program is imported from `src/` of the same checkout. Inputs come from
`--seed`. The run sets up `setup_rounds` times, then repeats whole passes of
the workload's fixed operation sequence, as many as fill `--seconds` at the
workload's nominal pass time, and checks every operation's output. With
`--trace 0` the last line of standard output is a JSON object holding the
end-to-end metrics; with `--trace 1` passes alternate between traced and
untraced and the line holds the per-layer metrics. A full record
(environment, per-operation results, failures, spans) is written under
`.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("solve-p2ot", "train-p2ot", "solve-sp2ot")  # workloads.WORKLOADS, known before importing it


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def tail_percentile(samples):
    """Highest of p90/p75 with at least ten samples beyond it, else the median.

    Below 40 samples no percentile above the median has ten samples beyond
    it, so the tail falls back to the median; the caller prints which.
    """
    import numpy as np

    n = len(samples)
    for q in (90, 75):
        if n * (100 - q) / 100 >= 10:
            return q, float(np.percentile(samples, q))
    return 50, float(np.percentile(samples, 50))


def pass_count(seconds, pass_seconds, paired=False):
    """Passes that fill `seconds` at the nominal pass time: at least one, even when paired.

    The count depends only on the arguments, never on measured time, so
    every run of a seed attempts the same operations and fails the same ones.
    """
    n = max(1, round(seconds / pass_seconds))
    return n + n % 2 if paired else n


def operation_times(passes):
    """One time per operation of a pass, and the name of how it was taken.

    Passes repeat the same operations on the same inputs, so the fastest
    repeat is the operation's cost with the least interference from the
    rest of the machine. With fewer than three repeats the minimum of so few
    is itself noisy, and the median is taken instead.
    """
    name, pick = ("fastest", min) if len(passes) >= 3 else ("median", statistics.median)
    return name, [pick(repeats) for repeats in zip(*(p.samples_ms for p in passes))]


def import_seconds():
    """Time to import the program in a fresh interpreter, as a user of the CLI pays it."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import sppot.cli; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")], capture_output=True, text=True,
                         timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None when it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args):
    import numpy
    import scipy
    import sppot

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, AttributeError):
        blas = {"name": "unknown", "version": "unknown"}
    backend = getattr(sppot, "active_backend", None)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "sppot_backend": backend() if callable(backend) else "missing: sppot.active_backend",
        "git_commit": _git_commit(),
    }


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "sppot" / "__init__.py").is_file():
        print(f"perfbench: no sppot sources under {src}; run from a full checkout", file=sys.stderr)
        return 2
    # one process with BLAS threads <= nproc, unless the caller chose otherwise
    threads = str(min(2, os.cpu_count() or 1))
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, threads)
    sys.path.insert(0, str(src))

    import layers
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    OUT_DIR.mkdir(exist_ok=True)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.on, tracer.run = True, "setup"

    # set-up (importing the program in a fresh interpreter, then making the
    # inputs) is repeated and its median reported, so work moved into it shows
    rounds = 1 if tracer else workload.setup_rounds
    setup_times = []
    state = None
    for _ in range(rounds):
        state = None  # release the previous round's inputs before building the next
        child_import_s = 0.0 if tracer else import_seconds()
        t = time.perf_counter()
        state = workload.setup(args.seed, OUT_DIR)
        setup_times.append(child_import_s + time.perf_counter() - t)
    setup_s = statistics.median(setup_times)

    if tracer:
        tracer.on = False
    for _ in range(workload.warmup_passes):
        workload.run_pass(state)

    # a fixed number of whole passes, so a seed always attempts the same
    # operations; traced runs alternate traced (even) and untraced (odd)
    # passes and end on a complete pair
    n_passes = pass_count(args.seconds, workload.pass_seconds, paired=tracer is not None)
    passes = []
    start = time.perf_counter()
    for i in range(n_passes):
        traced = tracer is not None and i % 2 == 0
        if tracer:
            tracer.on, tracer.run = traced, f"pass{i}"
        t = time.perf_counter()
        res = workload.run_pass(state)
        res.wall_s, res.traced = time.perf_counter() - t, traced
        passes.append(res)
    elapsed = time.perf_counter() - start
    if tracer:
        tracer.on = False
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    estimator, samples = operation_times(passes)
    op_ms = {}
    for p in passes:
        for label, ms in zip(p.labels, p.samples_ms):
            op_ms.setdefault(label, []).append(ms)
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    # identical inputs must give identical iteration and convergence counts
    repeatable = all(p.signature == passes[0].signature for p in passes)
    correct = repeatable and attempted >= 1 and len(samples) >= 1

    p50 = statistics.median(samples)
    q, tail = tail_percentile(samples)
    print(f"# {args.workload} seed={args.seed}: {len(passes)} passes of {len(samples)} timed operations "
          f"in {elapsed:.2f} s; repeatable counts across passes: {repeatable}; "
          f"an operation's time is the {estimator} of its {len(passes)} repeats")
    if args.trace:
        pairs = [(passes[i].wall_s, passes[i + 1].wall_s) for i in range(0, len(passes) - 1, 2)]
        overhead_pct = 100.0 * (sum(a for a, _ in pairs) - sum(b for _, b in pairs)) / sum(b for _, b in pairs)
        traced_passes = [(i, p) for i, p in enumerate(passes) if p.traced]
        metrics = layers.layer_metrics(tracer, traced_passes, op_ms, overhead_pct)
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
        if tracer.missing:
            print(f"# trace targets missing: {', '.join(tracer.missing)}")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_ms_p50": {"value": p50, "unit": "ms"},
            "op_ms_p90": {"value": tail, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        print(f"setup_s {setup_s:.4f} s (median of {rounds} set-ups, each a fresh-interpreter import plus inputs)")
        alias = "solve_ms" if args.workload.startswith("solve") else "op_ms"
        print(f"{alias}_p50 {p50:.4f} ms (op_ms_p50; median of n={len(samples)})")
        print(f"{alias}_p90 {tail:.4f} ms (op_ms_p90; p{q} of n={len(samples)})")
        if args.workload == "train-p2ot":
            accs = [p.counts["final_acc"] for p in passes if "final_acc" in p.counts]
            print(f"epoch_s {p50 / 1e3:.4f} s (op_ms_p50 / 1000; {len(passes)} cluster runs)")
            if accs:
                print(f"final_acc {statistics.median(accs):.4f} (floor {workloads.TrainP2ot.ACC_FLOOR})")
        print(f"fail_rate {len(failures) / attempted:.6f} ({len(failures)} failed / {attempted} attempted)")
        print(f"peak_rss_mb {peak_rss_mb:.1f} MB")
    for reason in sorted(set(failures))[:20]:
        print(f"# failed x{failures.count(reason)}: {reason}")

    env = environment(args)
    record = {
        "environment": env,
        "constraint_rtol": workloads.CONSTRAINT_RTOL,
        "max_iter": workloads.MAX_ITER,
        "setup_round_s": setup_times,
        "tail_percentile": q,
        "metrics": metrics,
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "passes": [{"wall_s": p.wall_s, "traced": p.traced, "attempted": p.attempted,
                    "failed": len(p.failures), "counts": p.counts} for p in passes],
        "operations": {label: {"ms": v, "signature": [s for s in passes[0].signature if s[0] == label]}
                       for label, v in op_ms.items()},
    }
    if tracer:
        record.update(spans=tracer.dump(), missing=tracer.missing, probe_errors=tracer.probe_errors)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, default=str))
    print(f"# environment {json.dumps(env)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
