"""Partial transport with a KL cluster-size penalty and progressive mass.

The fast solver is `ot_core.solve_virtual` at (rho, lam): it appends a
zero-cost virtual column that absorbs the 1-rho unselected mass, turns the
total-mass constraint into that column's hard marginal, prices the K real
columns with one KL weight lam, and runs the stabilized scaling recursion,
the same solve as balanced, unbalanced and partial OT.
Its entropy covers the virtual column too, i.e. the row slack 1/N - Q 1 of
the selected plan. After each column update it takes a scalar mass step
that rescales the K real columns to total mass rho (the virtual column is
hard, so the rows leave them exactly rho).

The generalized scaling baseline, kept for cross-checks, minimizes the same
program on the unextended plan Q = s diag(a) M diag(b):

    a <- alpha/(1 + s M b)      (rho < 1; the slack equals a at optimality)
    a <- min(alpha/(s M b), 1)  (rho = 1; no slack)
    b <- (beta/(s M^T a))^f
    s <- rho/(a^T M b)          (scalar total-mass rescale)

Its fixed point is the virtual-column one with virtual scaling 1/s. Both
solvers thus take one scalar mass step a sweep towards the same fixed
point: the baseline rescales the whole plan by s, the fast solver its real
columns, leaving the row and virtual-column updates to the scaling kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import py as kernels
from .ot_core import (
    DimensionMismatchError,
    ScalingConfig,
    TransportPlan,
    _check_finite,
    _exponent,
    entropic_objective,
    prediction_cost,
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
        if P.shape[0] == 0:  # no rows to label: every row check below would pass vacuously
            raise ValueError("pred must have at least one row")
        # the tolerance of np.allclose(row sums, 1, atol=1e-6), its default rtol 1e-5 included,
        # with the row sums as one mat-vec; a NaN row fails the comparison
        if not np.all(np.abs(P @ np.ones(P.shape[1]) - 1.0) <= 1e-6 + 1e-5):
            raise ValueError("pred rows must sum to 1 within 1e-6")
        if P.min() < 0:
            raise ValueError("pred entries must be >= 0")
        if not 0 < self.rho <= 1:
            raise ValueError("rho must be in (0, 1]")
        if not self.lam >= 0:  # NaN fails too
            raise ValueError("lam must be >= 0 (np.inf: hard columns)")
        object.__setattr__(self, "pred", P)


def _cost(problem: P2otProblem, cost: np.ndarray | None) -> np.ndarray:
    """-log P when `cost` is None; else `cost`, which must have pred's shape."""
    if cost is not None and np.shape(cost) != problem.pred.shape:
        raise DimensionMismatchError(f"cost shape {np.shape(cost)} differs from pred {problem.pred.shape}")
    return prediction_cost(problem.pred) if cost is None else np.asarray(cost, dtype=float)


def solve_p2ot_fast(problem: P2otProblem, cost: np.ndarray | None = None,
                    init: np.ndarray | None = None) -> TransportPlan:
    """Virtual-column solver; returns the plan with the virtual column dropped.

    `cost` overrides the default -log P (used when the cost is a linearized
    gradient rather than the raw prediction cost). `init`, the
    `col_potential` of an earlier plan, warm-starts the solve (see
    `ot_core.solve_virtual`).
    """
    return solve_virtual(_cost(problem, cost), problem.rho, problem.lam, problem.cfg, init)


def solve_p2ot_gsa(problem: P2otProblem, cost: np.ndarray | None = None) -> TransportPlan:
    """Generalized scaling baseline on the unextended problem; `cost` as in `solve_p2ot_fast`.

    Raises ValueError on a non-finite cost, NumericalOverflowError on a non-finite plan.
    """
    C = _cost(problem, cost)
    if not np.all(np.isfinite(C)):
        raise ValueError("cost matrix entries must be finite")
    N, K = C.shape
    cfg = problem.cfg
    eps = cfg.epsilon
    Q, iters, converged = kernels.gsa_total_mass(C, np.full(N, 1.0 / N), np.full(K, problem.rho / K),
                                                 _exponent(problem.lam, eps), problem.rho, eps, cfg.tol, cfg.max_iter)
    _check_finite(Q, iters, eps)
    return TransportPlan(Q, entropic_objective(Q, C, problem.rho / K, problem.lam, eps), iters, converged)
