"""Partial transport with a KL cluster-size penalty and progressive mass.

The fast solver is `ot_core.solve_virtual` at (rho, lam): it appends a
zero-cost virtual column that absorbs the 1-rho unselected mass, turns the
total-mass constraint into a column marginal with a per-column weighted KL
penalty (sentinel weight on the virtual column), and runs the stabilized
scaling recursion, the same solve as balanced, unbalanced and partial OT.
Its entropy covers the virtual column too, i.e. the row slack 1/N - Q 1 of
the selected plan.

The generalized scaling baseline, kept for cross-checks and benchmarking,
minimizes the same program on the unextended plan Q = s diag(a) M diag(b):

    a <- alpha/(1 + s M b)      (rho < 1; the slack equals a at optimality)
    a <- min(alpha/(s M b), 1)  (rho = 1; no slack)
    b <- (beta/(s M^T a))^f
    s <- rho/(a^T M b)          (scalar total-mass rescale)

Its fixed point is the virtual-column one with virtual scaling 1/s, so the
two solvers differ only in how they iterate towards it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ._kernels import py as kernels
from .ot_core import (
    DimensionMismatchError,
    ScalingConfig,
    TransportPlan,
    clamp_probabilities,
    entropic_objective,
    solve_virtual,
)


@dataclass(frozen=True)
class P2otProblem:
    pred: np.ndarray
    rho: float
    lam: float
    cfg: ScalingConfig

    def __post_init__(self):
        P = np.asarray(self.pred, dtype=float)
        if P.ndim != 2:
            raise ValueError("pred must be a 2-D probability matrix")
        if not np.allclose(P.sum(axis=1), 1.0, atol=1e-6):
            raise ValueError("pred rows must sum to 1 within 1e-6")
        if not 0 < self.rho <= 1:
            raise ValueError("rho must be in (0, 1]")
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        object.__setattr__(self, "pred", P)


def solve_p2ot_fast(problem: P2otProblem, cost: np.ndarray | None = None) -> TransportPlan:
    """Virtual-column solver; returns the plan with the virtual column dropped.

    `cost` overrides the default -log P (used when the cost is a linearized
    gradient rather than the raw prediction cost).
    """
    if cost is None:
        cost = -np.log(clamp_probabilities(problem.pred))
    elif np.shape(cost) != problem.pred.shape:
        raise DimensionMismatchError(f"cost shape {np.shape(cost)} differs from pred {problem.pred.shape}")
    return solve_virtual(cost, problem.rho, problem.lam, problem.cfg)


def solve_p2ot_gsa(problem: P2otProblem, cost: np.ndarray | None = None) -> TransportPlan:
    """Generalized scaling baseline on the unextended problem."""
    P = clamp_probabilities(problem.pred)
    N, K = P.shape
    C = -np.log(P) if cost is None else np.asarray(cost, dtype=float)
    cfg = problem.cfg
    eps = cfg.epsilon
    alpha = np.full(N, 1.0 / N)
    beta = np.full(K, problem.rho / K)
    f = np.full(K, problem.lam / (problem.lam + eps))
    Q, iters, converged, errs = kernels.gsa_total_mass(
        np.ascontiguousarray(C), alpha, beta, f, problem.rho, eps, cfg.tol, cfg.max_iter
    )
    obj = entropic_objective(Q, C, [(1, beta, np.full(K, problem.lam))], eps)
    return TransportPlan(Q, obj, iters, converged, np.asarray(errs))


def random_problem(n: int, k: int, rho: float, seed: int, lam: float = 1.0, epsilon: float = 0.1,
                   cfg: ScalingConfig | None = None) -> P2otProblem:
    """Seeded random instance: row-softmax of Gaussian logits."""
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(n, k))
    P = np.exp(logits - logits.max(axis=1, keepdims=True))
    P /= P.sum(axis=1, keepdims=True)
    if cfg is None:
        cfg = ScalingConfig(epsilon=epsilon)
    return P2otProblem(P, rho, lam, cfg)


@dataclass
class BenchmarkRow:
    solver: str
    n: int
    k: int
    rho: float
    seed: int
    wall_ms: float
    iters: int
    objective: float


@dataclass
class BenchmarkReport:
    rows: list[BenchmarkRow] = field(default_factory=list)

    def to_csv_rows(self):
        header = ["schema_version", "solver", "N", "K", "rho", "seed", "wall_ms", "iters", "objective"]
        out = [header]
        for r in self.rows:
            out.append(["2", r.solver, str(r.n), str(r.k), repr(float(r.rho)), str(r.seed),
                        f"{r.wall_ms:.3f}", str(r.iters), repr(float(r.objective))])
        return out

    def speedup(self, n=None, k=None, rho=None, seed=None) -> float:
        """wall(gsa) / wall(fast), median over the matching rows.

        With no arguments this is the overall median ratio across the sweep.
        """

        def med(solver):
            vals = [r.wall_ms for r in self.rows
                    if r.solver == solver
                    and (n is None or r.n == n)
                    and (k is None or r.k == k)
                    and (rho is None or r.rho == rho)
                    and (seed is None or r.seed == seed)]
            if not vals:
                raise ValueError("no benchmark rows match the requested configuration")
            return float(np.median(vals))

        return med("gsa") / med("fast")


def benchmark_p2ot(sizes, rhos, seeds, lam: float = 1.0, epsilon: float = 0.1,
                   tol: float = 1e-6, max_iter: int = 1000, repeats: int = 1) -> BenchmarkReport:
    """Time the fast solver against the generalized-scaling baseline.

    Timing covers the solve call including kernel exponentiation; instance
    generation is excluded. Runs are sequential to keep timings honest.
    """
    report = BenchmarkReport()
    for n, k in sizes:
        for rho in rhos:
            for seed in seeds:
                problem = random_problem(n, k, rho, seed, lam=lam, epsilon=epsilon,
                                         cfg=ScalingConfig(epsilon=epsilon, tol=tol, max_iter=max_iter))
                for _ in range(repeats):
                    t0 = time.perf_counter()
                    plan = solve_p2ot_fast(problem)
                    dt = (time.perf_counter() - t0) * 1e3
                    report.rows.append(BenchmarkRow("fast", n, k, rho, seed, dt, plan.iterations, plan.objective))
                    t0 = time.perf_counter()
                    plan = solve_p2ot_gsa(problem)
                    dt = (time.perf_counter() - t0) * 1e3
                    report.rows.append(BenchmarkRow("gsa", n, k, rho, seed, dt, plan.iterations, plan.objective))
    return report
