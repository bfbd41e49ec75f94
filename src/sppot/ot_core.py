"""Entropic matrix-scaling solvers for pseudo-label transport problems.

Implements the solver variants used for pseudo-label generation: balanced
OT, unbalanced OT with a KL penalty on cluster sizes, partial OT with a
hard total-mass constraint, the partial solver with a KL penalty on cluster
sizes (P2OT), and the upper-bounded relaxation (SLA).

All five are one solve, `solve_virtual`, with two parameters: the
selected mass rho and the column penalty weight lam (np.inf is the
sentinel for a hard column). It appends a zero-cost virtual column that
absorbs the unselected 1-rho mass, runs the row-equality scaling kernel
once on the extended plan, and drops the virtual column again. Balanced OT
is (1, inf), unbalanced OT (1, lam), partial OT (rho, inf) and P2OT
(rho, lam). Each sweep of that kernel ends with an exact scalar mass step
that sets the total of the soft (finite-lam) columns to the mass that the
rows and hard columns leave them, so unbalanced OT and P2OT converge in
tens of sweeps at every rho (see `_kernels.py.scaling_weighted_kl`). SLA
is (rho, inf) with the real columns upper-bounded instead of pinned; the
kernel's one other column update is the prox of that bound.

All solvers work on Q = diag(a) * M * diag(b) with M = exp(-C/eps) and
support log-domain absorption of the scaling vectors to avoid overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import py as kernels

PROB_FLOOR = 1e-8
MASS_RTOL = 1e-12


class DimensionMismatchError(ValueError):
    pass


class InfeasibleProblemError(ValueError):
    pass


class NumericalOverflowError(ArithmeticError):
    """The plan turned non-finite: exp(-C/epsilon) under- or overflowed at this
    epsilon, which the stabilized kernel could not absorb."""


@dataclass(frozen=True)
class ScalingConfig:
    """Entropic regularization and stopping rule of one scaling solve.

    Every solver (balanced, UOT, POT, SLA, the virtual-column P2OT solver
    and its baseline) stops once the largest relative change of the column
    scaling in the last sweep is below `tol`. `converged=True` then means
    the L1 row-marginal error is at most tol times the row mass and hard or
    upper-bounded columns hold exactly, so the selected mass of a partial
    plan is within tol of rho.

    `epsilon` and `tol` must be finite and > 0. The kernel absorbs its
    scalings into log-domain potentials past `kernels.ABSORB_THRESHOLD`,
    which leaves the iterates unchanged and so is not a setting here.
    """

    epsilon: float
    tol: float = 1e-6
    max_iter: int = 1000

    def __post_init__(self):
        # NaN fails every comparison, so these reject it too
        if not (0 < self.epsilon < np.inf):
            raise ValueError("epsilon must be finite and > 0")
        if not (0 < self.tol < np.inf):
            raise ValueError("tol must be finite and > 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class TransportPlan:
    """The plan of one solve, its objective, the kernel sweeps it took (summed
    over the inner solves for SP2OT), and whether the last sweep's change fell
    under `tol` (see `ScalingConfig`).

    The objective is `entropic_objective(Q, C, rho / K, lam, eps)`, which the
    kernel-backed solvers read from the final scalings (equal up to rounding).
    SP2OT's is `sp2ot_objective`, built on its last inner plan's objective."""

    coupling: np.ndarray
    objective: float
    iterations: int
    converged: bool
    # final column potential of the solved (virtual-column) problem; pass it
    # as `init=` to warm-start a nearby solve. None from the GSA baseline.
    col_potential: np.ndarray | None = None
    # the kernel's Newton steps (summed over the inner solves for SP2OT); 0 where
    # its Newton phase did not run, as in SLA and every solve that converged first
    newton_steps: int = 0

    def row_marginal(self) -> np.ndarray:
        return self.coupling.sum(axis=1)

    def col_marginal(self) -> np.ndarray:
        return self.coupling.sum(axis=0)

    def total_mass(self) -> float:
        return float(self.coupling.sum())


def entropic_objective(plan: np.ndarray, cost: np.ndarray, target, lam: float, epsilon: float) -> float:
    """<Q,C> + KL penalty on the column marginal - eps*H(Q), with 0 log 0 := 0.

    The penalty is `weighted_kl_value(Q^T 1, target, lam)`: lam times the
    x*log(x/target) form (entries with x = 0 contribute 0); at the sentinel
    lam = np.inf the columns are hard constraints the solver enforces, and
    contribute 0.
    """
    Q = np.asarray(plan, dtype=float)
    C = np.asarray(cost, dtype=float)
    if Q.shape != C.shape:
        raise DimensionMismatchError("plan and cost shapes differ")
    # einsum, not np.vdot: a BLAS ddot here had a tail of milliseconds after its threads slept
    val = float(np.einsum("ij,ij->", Q, C))
    # a BLAS mat-vec with a ones vector: several times faster than Q.sum on a tall, narrow Q
    val += weighted_kl_value(np.ones(Q.shape[0]) @ Q, target, lam)
    val += epsilon * float(np.sum(xlogx(Q)))  # a NaN entry, which xlogx counts as 0, already makes <Q,C> NaN
    return val


def xlogx(x: np.ndarray) -> np.ndarray:
    """x log x where x > 0, else 0."""
    x = np.asarray(x, dtype=float)
    # log and multiply in full, then zero the rest: masked (`where=`) ufuncs run ~1.5x slower
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(x, out=np.empty_like(x))
        out *= x
    np.copyto(out, 0.0, where=~(x > 0))  # zero, negative and NaN entries
    return out


def weighted_kl_value(x: np.ndarray, target, lam: float) -> float:
    """lam * sum_i x_i * log(x_i / t_i) with 0 log 0 := 0, the target t one value or one per entry.

    The sentinel lam = np.inf stands for hard equalities: their
    contribution is 0 (they are enforced by the solver, not priced).
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(target, dtype=float)
    lam = float(lam)
    if t.ndim and t.shape != x.shape:
        raise DimensionMismatchError(f"marginal and target shapes differ: {x.shape}, {t.shape}")
    pos = x > 0
    if lam == np.inf or not np.any(pos):
        return 0.0
    return float(np.sum(lam * x[pos] * np.log(x[pos] / (t[pos] if t.ndim else t))))


def prediction_cost(pred: np.ndarray) -> np.ndarray:
    """The pseudo-label cost -log(max(P, PROB_FLOOR)), computed in one buffer.

    Raises DimensionMismatchError unless `pred` is 2-D.
    """
    P = np.asarray(pred, dtype=float)
    if P.ndim != 2:
        raise DimensionMismatchError("prediction matrix must be 2-D")
    C = np.maximum(P, PROB_FLOOR)
    np.log(C, out=C)
    return np.negative(C, out=C)


def _exponent(lam: float, epsilon: float) -> float:
    """Hadamard exponent f = lam/(lam+eps) of KL-weighted columns; 1 at lam = inf (hard)."""
    return 1.0 if lam == np.inf else lam / (lam + epsilon)


def solve_virtual(C0: np.ndarray, rho: float, lam: float, cfg: ScalingConfig,
                  init: np.ndarray | None = None, upper: float | None = None) -> TransportPlan:
    """Rows <= 1/N (= 1/N at rho = 1), total mass rho, KL(column marginal,
    rho/K) with weight lam (np.inf: hard columns).

    One kernel solve on the virtual-column extension; returns the plan
    without the virtual column, the objective of that plan, and the final
    column potential of the extension. The extension is C0 with a zero-cost
    virtual column appended, which holds the unselected 1-rho mass under a
    hard equality; at rho = 1 its target is 0, so it is left out. It is
    written straight into this thread's cost buffer (`kernels.workspace`),
    and the kernel forms only the plan's real columns, in its own kernel
    buffer, and copies them out, so the plan is the only N x K array the
    solve keeps. The objective is the kernel's entropic term, read from the
    final scalings, plus the column penalty on the column sums the kernel's
    last sweep computed: `entropic_objective` of the plan up to rounding
    (those sums and the plan's own agree to ~1e-14 relative; the penalty is
    zero on hard columns). `init`, the
    `col_potential` of an earlier plan, warm-starts the kernel; an `init`
    whose length is not the extension's column count (K+1 for rho < 1, K at
    rho = 1) is ignored. A solve without `upper`, warm or cold, may end with
    the kernel's Newton phase, whose steps the plan counts in `newton_steps`.

    `upper` (SLA; lam must be np.inf) bounds each real column's mass by
    `upper` instead of pinning it at rho/K. It must be > 0, and K * upper
    must reach rho (to 1e-12), else InfeasibleProblemError. When
    K * upper <= rho (1 + MASS_RTOL) every bound binds, so the program is
    partial OT's and the columns are solved as hard ones. Otherwise an
    `init` whose largest upper-bounded entry is far from 0, where every
    such solution holds it, is a cold start (see
    `kernels.scaling_weighted_kl`).

    Raises ValueError on rho outside (0, 1], a negative or NaN lam, a
    non-finite cost entry or a bad `upper`, DimensionMismatchError unless
    C0 is 2-D and nonempty, and NumericalOverflowError rather than return a
    plan with a non-finite entry.
    """
    if not 0 < rho <= 1:
        raise ValueError("rho must be in (0, 1]")
    if not lam >= 0:  # NaN fails too
        raise ValueError("lam must be >= 0 (np.inf: hard columns)")
    C0 = np.asarray(C0, dtype=float)
    if C0.ndim != 2 or C0.shape[0] < 1 or C0.shape[1] < 1:
        raise DimensionMismatchError(f"cost matrix must be 2-D and nonempty, got shape {C0.shape}")
    # NaN propagates through both reductions: two passes, no N x K mask
    if not (math.isfinite(C0.min()) and math.isfinite(C0.max())):
        raise ValueError("cost matrix entries must be finite")
    N, K = C0.shape
    if upper is not None:
        if not upper > 0:  # NaN fails too
            raise ValueError("upper must be > 0")
        if lam != np.inf:
            raise ValueError("an upper column bound needs hard columns (lam = np.inf)")
        if K * upper < rho - 1e-12:
            raise InfeasibleProblemError(f"column bound too small: K*upper = {K * upper} < rho = {rho}")
    n = K + 1 if rho < 1 else K
    C = kernels.workspace("cost", (N, n))
    C[:, :K] = C0
    C[:, K:] = 0.0  # the virtual column
    beta = np.append(np.full(K, rho / K), 1.0 - rho)[:n]
    f = np.append(np.full(K, _exponent(lam, cfg.epsilon)), 1.0)[:n]
    up_col = None
    if upper is not None and K * upper > rho * (1 + MASS_RTOL):
        beta[:K] = upper
        up_col = np.arange(n) < K
    Q, iters, converged, v, entropic, newton_steps, col_mass = kernels.scaling_weighted_kl(
        C, np.full(N, 1.0 / N), beta, f, cfg.epsilon, cfg.tol, cfg.max_iter, init, up_col, n_real=K)
    _check_finite(entropic, iters, cfg.epsilon)  # non-finite where any entry of the plan is
    obj = entropic + weighted_kl_value(col_mass, rho / K, lam)
    return TransportPlan(Q, obj, iters, converged, v, newton_steps)


def _check_finite(Q, iters: int, epsilon: float) -> None:
    """Raise NumericalOverflowError unless every entry of the plan `Q` (or the scalar standing for it) is finite."""
    if not np.all(np.isfinite(Q)):
        raise NumericalOverflowError(
            f"non-finite plan after {iters} iterations at epsilon={epsilon}; "
            "the kernel exp(-C/epsilon) under- or overflows at this scale"
        )


def solve_balanced_ot(pred: np.ndarray, cfg: ScalingConfig, init: np.ndarray | None = None) -> TransportPlan:
    """Balanced OT pseudo-labels: uniform row mass 1/N, uniform columns 1/K."""
    return solve_virtual(prediction_cost(pred), 1.0, np.inf, cfg, init)


def solve_uot(pred: np.ndarray, lam: float, cfg: ScalingConfig, init: np.ndarray | None = None) -> TransportPlan:
    """Unbalanced OT: hard uniform rows, KL(column marginal, 1/K) with weight lam."""
    return solve_virtual(prediction_cost(pred), 1.0, lam, cfg, init)


def solve_pot(pred: np.ndarray, rho: float, cfg: ScalingConfig, init: np.ndarray | None = None) -> TransportPlan:
    """Partial OT: row sums <= 1/N, column sums = rho/K, total mass rho."""
    return solve_virtual(prediction_cost(pred), rho, np.inf, cfg, init)


def solve_sla(pred: np.ndarray, rho: float, upper: float, cfg: ScalingConfig,
              init: np.ndarray | None = None) -> TransportPlan:
    """Upper-bounded selective assignment: row sums <= 1/N, column sums <= upper,
    total mass rho. Degenerates to a single dominant cluster when the bound
    is slack relative to rho.

    `solve_virtual` with partial OT's extension and the real columns
    upper-bounded instead of pinned to rho/K. `init` warm-starts it as it
    does `solve_virtual`.
    """
    return solve_virtual(prediction_cost(pred), rho, np.inf, cfg, init, upper)
