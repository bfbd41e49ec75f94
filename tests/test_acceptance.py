"""Acceptance gate: one test per release criterion, each emitting a single
PASS/FAIL line (echoed in the terminal summary).

Criterion 2 compares the fast virtual-column solver with the
generalized-scaling baseline. Both minimize one entropic program, in which
the entropy also covers the row slack 1/N - Q 1 (the mass of the dropped
virtual column); criterion 3 and the oracle tests in test_p2ot.py check
each solver against projected gradient descent on it. A baseline with
entropy on the selected plan only would solve a different program, which
equals the virtual-column one only at full selected mass (rho = 1) or as
eps -> 0; at eps = 0.1 that program gap is ~1e-2 relative.
"""

import itertools
import math
import time

import numpy as np
import numpy.testing as npt
import pytest
from scipy.cluster.vq import kmeans2

import conftest
from conftest import random_pred
from sppot import bench, metrics, oracle
from sppot.curriculum import Schedule, rho_at
from sppot.ot_core import ScalingConfig, clamp_probabilities, solve_balanced_ot, solve_uot
from sppot.p2ot import P2otProblem, solve_p2ot_fast, solve_p2ot_gsa
from sppot.sp2ot import Sp2otProblem, lambda1_decayed, solve_sp2ot, sp2ot_gradient


def check(num: int, desc: str, ok: bool, detail: str, elapsed: float, budget_s: float):
    in_budget = elapsed < budget_s
    verdict = "PASS" if (ok and in_budget) else "FAIL"
    conftest.record_acceptance(
        f"[criterion {num:2d}] {verdict}: {desc} ({detail}; {elapsed:.1f}s of {budget_s:.0f}s budget)"
    )
    assert ok, f"criterion {num}: {desc}: {detail}"
    assert in_budget, f"criterion {num}: runtime {elapsed:.1f}s exceeds {budget_s:.0f}s"


def test_criterion_01_feasibility_suite():
    t0 = time.monotonic()
    combos = list(itertools.product((8, 64, 512), (2, 10, 50), (0.1, 0.5, 0.9, 1.0)))
    worst_row, worst_mass, solved, converged = 0.0, 0.0, 0, 0
    seed = 0
    while solved < 200:
        n, k, rho = combos[solved % len(combos)]
        prob = P2otProblem(
            random_pred(n, k, seed=1000 + seed), rho, 1.0,
            ScalingConfig(epsilon=0.1, tol=1e-13, max_iter=300000),
        )
        seed += 1
        solved += 1
        plan = solve_p2ot_fast(prob)
        if not plan.converged:
            continue
        converged += 1
        worst_row = max(worst_row, float(np.max(plan.row_marginal() - 1.0 / n)))
        worst_mass = max(worst_mass, abs(plan.total_mass() - rho))
    ok = converged >= 150 and worst_row <= 1e-8 and worst_mass <= 1e-6
    check(
        1, "feasibility on 200 random instances", ok,
        f"{converged}/200 converged, max row excess {worst_row:.2e} (<=1e-8), "
        f"max mass gap {worst_mass:.2e} (<=1e-6)",
        time.monotonic() - t0, 120,
    )


def test_criterion_02_fast_vs_baseline_objective():
    t0 = time.monotonic()
    combos = list(itertools.product((64, 128, 256), (10, 20), (0.1, 0.5, 0.9, 1.0)))
    gaps = []
    for i in range(50):
        n, k, rho = combos[i % len(combos)]
        prob = P2otProblem(
            random_pred(n, k, seed=2000 + i), rho, 1.0,
            ScalingConfig(epsilon=0.1, tol=1e-8, max_iter=50000),
        )
        fast = solve_p2ot_fast(prob)
        gsa = solve_p2ot_gsa(prob)
        gaps.append(abs(fast.objective - gsa.objective) / max(abs(gsa.objective), 1e-12))
    worst, median = max(gaps), float(np.median(gaps))
    ok = worst <= 1e-4
    check(
        2, "fast solver vs generalized-scaling baseline objective agreement", ok,
        f"worst rel gap {worst:.2e}, median {median:.2e} (<=1e-4 demanded; both solvers minimize "
        f"one program, so the gap is solve tolerance — see module docstring)",
        time.monotonic() - t0, 60,
    )


@pytest.mark.slow
def test_criterion_03_oracle_equivalence():
    t0 = time.monotonic()
    # part A: fast solver vs projected-gradient minimizer of the same program
    shapes = [(4, 2), (6, 3), (8, 3)]
    rhos = (0.4, 0.7, 0.9)
    epss = (0.3, 0.5)
    worst = 0.0
    rng = np.random.default_rng(7)
    for i in range(20):
        n, k = shapes[i % len(shapes)]
        rho = rhos[i % len(rhos)]
        eps = epss[i % len(epss)]
        P = rng.dirichlet(np.full(k, 2.0), size=n)
        prob = P2otProblem(P, rho, 1.0, ScalingConfig(epsilon=eps, tol=1e-11, max_iter=200000))
        plan = solve_p2ot_fast(prob)
        C = -np.log(clamp_probabilities(P))
        caps = np.full(n, 1.0 / n)
        col_kl = (np.full(k, rho / k), 1.0)
        ref = oracle.pgd_entropic(
            C, eps, row_cap=caps, col_kl=col_kl, total_mass=rho, slack_entropy=True,
            cfg=oracle.OracleConfig(step_size=0.5, tol=5e-6, max_iter=60000),
        )
        solver_obj = oracle.oracle_objective(plan.coupling, C, eps, col_kl, caps)
        worst = max(worst, abs(solver_obj - ref.objective) / max(abs(ref.objective), 1e-12))
    # part B: balanced solver's transport cost approaches the exact LP from above
    P = np.random.default_rng(8).dirichlet(np.full(3, 2.0), size=8)
    C = -np.log(clamp_probabilities(P))
    lp = oracle.lp_exact_tiny(C, row_eq=np.full(8, 1 / 8), col_eq=np.full(3, 1 / 3))
    lp_gaps = []
    for eps in (0.5, 0.1, 0.02):
        plan = solve_balanced_ot(P, ScalingConfig(epsilon=eps, tol=1e-11, max_iter=200000))
        lp_gaps.append(float(np.sum(plan.coupling * C)) - lp.objective)
    monotone = lp_gaps[0] > lp_gaps[1] > lp_gaps[2] > -1e-12
    ok = worst <= 1e-5 and monotone
    check(
        3, "independent-oracle agreement", ok,
        f"worst PGD rel gap {worst:.2e} (<=1e-5), LP gaps {lp_gaps[0]:.2e}>{lp_gaps[1]:.2e}>{lp_gaps[2]:.2e}",
        time.monotonic() - t0, 300,
    )


@pytest.mark.slow
def test_criterion_04_efficiency_ratio():
    t0 = time.monotonic()
    n, k = 4096, 100
    rng = np.random.default_rng(42)
    # peaked classifier-style posteriors: the regime the speed claim targets
    logits = rng.normal(size=(n, k)) / 0.3
    P = np.exp(logits - logits.max(axis=1, keepdims=True))
    P /= P.sum(axis=1, keepdims=True)
    ratios = {}
    for rho in (0.9, 1.0):
        prob = P2otProblem(P, rho, 1.0, ScalingConfig(epsilon=0.1, tol=1e-6, max_iter=20000))
        solve_p2ot_fast(prob)  # warmup (allocation, code paths)
        solve_p2ot_gsa(prob)
        tf, tg = [], []
        for _ in range(5):
            s = time.perf_counter()
            solve_p2ot_fast(prob)
            m = time.perf_counter()
            solve_p2ot_gsa(prob)
            tf.append(m - s)
            tg.append(time.perf_counter() - m)
        ratios[rho] = float(np.median(tg) / np.median(tf))
    ok = all(r >= 1.5 for r in ratios.values())
    check(
        4, "wall-time ratio baseline/fast at N=4096, K=100", ok,
        f"measured ratio {ratios[0.9]:.2f} at rho=0.9, {ratios[1.0]:.2f} at rho=1.0 (>=1.5)",
        time.monotonic() - t0, 600,
    )


def test_criterion_05_gradient_check():
    t0 = time.monotonic()
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(4, 17))
        k = int(rng.integers(2, 6))
        C = rng.normal(size=(n, k))
        A = np.abs(rng.normal(size=(n, n)))
        np.fill_diagonal(A, 0.0)
        lam1 = float(rng.uniform(0.1, 5.0))
        Q = rng.uniform(0.01, 0.1, size=(n, k))

        def f(Qx):
            return float(np.sum(Qx * C)) - lam1 * float(np.sum(A * (Qx @ Qx.T)))

        grad = sp2ot_gradient(C, A, lam1, Q)
        h = 1e-5
        num = np.zeros_like(Q)
        for i in range(n):
            for j in range(k):
                E = np.zeros_like(Q)
                E[i, j] = h
                num[i, j] = (f(Q + E) - f(Q - E)) / (2 * h)
        scale = max(1.0, float(np.max(np.abs(num))))
        worst = max(worst, float(np.max(np.abs(grad - num))) / scale)
    ok = worst <= 1e-5
    check(
        5, "analytic gradient vs central differences", ok,
        f"worst rel error {worst:.2e} (<=1e-5) on 20 instances", time.monotonic() - t0, 60,
    )


def test_criterion_06_mm_descent():
    t0 = time.monotonic()
    rng = np.random.default_rng(6)
    worst_rise = -np.inf
    for _ in range(10):
        n = int(rng.integers(10, 21))
        k = int(rng.integers(3, 6))
        P = rng.dirichlet(np.full(k, 2.0), size=n)
        G = np.abs(rng.normal(size=(n, n)))
        A = G.T @ G  # symmetric PSD, entrywise nonnegative
        problem = Sp2otProblem(
            P, A, float(rng.uniform(0.05, 0.5)), 1.0, 0.5, 0.1,
            inner=ScalingConfig(epsilon=0.1, tol=1e-9, max_iter=20000),
            outer_tol=1e-10, outer_max_iter=10,
        )
        _, trace = solve_sp2ot(problem)
        if len(trace.objectives) >= 2:
            worst_rise = max(worst_rise, float(np.max(np.diff(trace.objectives))))
    ok = worst_rise <= 1e-9
    check(
        6, "outer-loop objective nonincreasing for PSD similarity", ok,
        f"largest increase {worst_rise:.2e} (<=1e-9) over 10 instances", time.monotonic() - t0, 120,
    )


def test_criterion_07_schedule_values():
    t0 = time.monotonic()
    s = Schedule("sigmoid", 0.1, 100)
    start = rho_at(s, 0)
    end = rho_at(s, 100)
    decayed = lambda1_decayed(1000.0, 0.1)
    ok = abs(start - 0.106064) <= 1e-6 and end == 1.0 and decayed == 900.0
    check(
        7, "schedule endpoint and decay values", ok,
        f"rho(0)={start:.8f} (0.106064±1e-6), rho(T)={end!r} (==1.0), decay={decayed!r} (==900)",
        time.monotonic() - t0, 10,
    )


def test_criterion_08_metric_correctness():
    t0 = time.monotonic()
    rng = np.random.default_rng(8)
    matching_ok = True
    for _ in range(100):
        k = int(rng.integers(2, 7))
        conf = rng.integers(0, 25, size=(k, k))
        mapping = metrics.hungarian_match(conf)
        score = sum(conf[r, c] for r, c in mapping.items())
        best = max(
            sum(conf[i, perm[i]] for i in range(k))
            for perm in itertools.permutations(range(k))
        )
        matching_ok = matching_ok and score == best

    pred = rng.integers(0, 4, size=300)
    truth = rng.integers(0, 3, size=300)
    n = pred.size

    # counting oracles, written from the definitions
    mi = 0.0
    for a in np.unique(pred):
        for b in np.unique(truth):
            nij = int(np.sum((pred == a) & (truth == b)))
            if nij:
                mi += (nij / n) * math.log(n * nij / (int(np.sum(pred == a)) * int(np.sum(truth == b))))
    ent = lambda labels: -sum(
        (c / n) * math.log(c / n) for c in np.bincount(labels) if c
    )
    nmi_oracle = 2 * mi / (ent(pred) + ent(truth))

    comb2 = lambda x: x * (x - 1) // 2
    same_p = sum(comb2(c) for c in np.bincount(pred))
    same_t = sum(comb2(c) for c in np.bincount(truth))
    both = sum(
        comb2(int(np.sum((pred == a) & (truth == b))))
        for a in np.unique(pred)
        for b in np.unique(truth)
    )
    total = comb2(n)
    expected = same_p * same_t / total
    ari_oracle = (both - expected) / ((same_p + same_t) / 2 - expected)

    assignment = metrics.LabelAssignment.build(pred, truth)
    mapped = metrics.mapped_predictions(assignment)
    f1s = []
    for c in np.unique(truth):
        tp = int(np.sum((mapped == c) & (truth == c)))
        fp = int(np.sum((mapped == c) & (truth != c)))
        fn = int(np.sum((mapped != c) & (truth == c)))
        f1s.append(2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0)
    f1_oracle = float(np.mean(f1s))

    err = max(
        abs(metrics.nmi(pred, truth) - nmi_oracle),
        abs(metrics.ari(pred, truth) - ari_oracle),
        abs(metrics.macro_f1(assignment) - f1_oracle),
    )
    ok = matching_ok and err <= 1e-12
    check(
        8, "matching vs brute force and metrics vs counting oracles", ok,
        f"matching exact on 100 matrices: {matching_ok}, max metric error {err:.1e} (<=1e-12)",
        time.monotonic() - t0, 60,
    )


def test_criterion_09_reduction_chain():
    t0 = time.monotonic()
    P = random_pred(32, 5, seed=9)
    cfg = ScalingConfig(epsilon=0.1, tol=1e-10, max_iter=50000)

    # semantic solver with the similarity term off == partial solver
    sem, _ = solve_sp2ot(Sp2otProblem(P, np.zeros((32, 32)), 0.0, 1.3, 0.7, 0.1, inner=cfg))
    partial = solve_p2ot_fast(P2otProblem(P, 0.7, 1.3, cfg))
    d1 = float(np.max(np.abs(sem.coupling - partial.coupling)))

    # partial solver at full mass == soft-column solver
    full = solve_p2ot_fast(P2otProblem(P, 1.0, 1.3, cfg))
    uot = solve_uot(P, 1.3, cfg)
    d2 = float(np.max(np.abs(full.coupling - uot.coupling)))

    # soft-column solver with an infinite penalty == hard balanced solver
    pinned = solve_uot(P, np.inf, cfg)
    balanced = solve_balanced_ot(P, cfg)
    d3 = float(np.max(np.abs(pinned.coupling - balanced.coupling)))

    ok = max(d1, d2, d3) <= 1e-6
    check(
        9, "reduction chain between the solver family members", ok,
        f"plan gaps {d1:.1e}, {d2:.1e}, {d3:.1e} (each <=1e-6)", time.monotonic() - t0, 60,
    )


def test_criterion_10_end_to_end_clustering():
    t0 = time.monotonic()
    ds = bench.generate_imbalanced_mixture(K=10, R=10.0, N=2000, dim=16, separation=10.0, seed=2026)
    kmeans_acc = max(
        metrics.evaluate(kmeans2(ds.features, 10, minit="++", seed=s)[1], ds.labels)["acc"]
        for s in range(5)
    )
    cfg = bench.TrainConfig.from_defaults(solver="P2OT", epochs=12, seed=7)
    history = bench.train(ds, cfg)
    final_acc = history.final["acc"]

    # degenerate-assignment check: upper-bounded variant with a column bound
    # larger than the early selected mass concentrates into one cluster
    collapses = 0
    for seed in (0, 1, 2):
        sla_cfg = bench.TrainConfig.from_defaults(
            solver="SLA", epochs=1, seed=seed, sla_upper=0.2,
            schedule_kind="fixed", batch_size=128, buffer_size=0, temperature=2.0,
        )
        h = bench.train(ds, sla_cfg)
        if h.epochs[0]["max_cluster_share"] >= 0.9:
            collapses += 1

    ok = kmeans_acc >= 0.95 and final_acc >= 0.80 and collapses >= 2
    check(
        10, "end-to-end clustering sanity on the separable mixture", ok,
        f"kmeans oracle acc {kmeans_acc:.3f} (>=0.95), pipeline acc {final_acc:.3f} (>=0.80), "
        f"first-epoch collapse on {collapses}/3 seeds (>=2)",
        time.monotonic() - t0, 600,
    )


def test_criterion_11_weighted_precision():
    t0 = time.monotonic()
    ds = bench.generate_imbalanced_mixture(K=10, R=10.0, N=2000, dim=16, separation=6.0, seed=12345)
    cfg = bench.TrainConfig.from_defaults(solver="P2OT", epochs=1, seed=7, schedule_kind="fixed")
    history = bench.train(ds, cfg)
    rec = history.epochs[0]
    ok = rec["weighted_precision"] >= rec["precision"] - 0.01
    check(
        11, "mass-weighted precision tracks unweighted precision", ok,
        f"weighted {rec['weighted_precision']:.3f} vs unweighted {rec['precision']:.3f} (allowance 0.01)",
        time.monotonic() - t0, 120,
    )
