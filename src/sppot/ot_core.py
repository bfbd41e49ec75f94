"""Entropic matrix-scaling solvers for pseudo-label transport problems.

Implements the solver variants used for pseudo-label generation: balanced
OT, unbalanced OT with a KL penalty on cluster sizes, partial OT with a
hard total-mass constraint, the partial solver with a KL penalty on cluster
sizes (P2OT), and the upper-bounded relaxation (SLA).

Balanced, unbalanced, partial and P2OT are one solve, `solve_virtual`,
with two parameters: the selected mass rho and the column penalty weight
lam (np.inf is the sentinel for a hard column). It appends a zero-cost
virtual column that absorbs the unselected 1-rho mass, runs the
row-equality scaling kernel once on the extended plan, and drops the
virtual column again. Balanced OT is (1, inf), unbalanced OT (1, lam),
partial OT (rho, inf) and P2OT (rho, lam). Each sweep of that kernel
ends with an exact scalar mass step that sets the total of the soft
(finite-lam) columns to the mass that the rows and hard columns leave
them, so unbalanced OT and P2OT converge in tens of sweeps at every rho
(see `_kernels.py.scaling_weighted_kl`). SLA runs the same kernel on the
same extension, with the real columns upper-bounded instead of penalized;
the kernel's one other column update is the prox of that bound.

All solvers work on Q = diag(a) * M * diag(b) with M = exp(-C/eps) and
support log-domain absorption of the scaling vectors to avoid overflow.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    `epsilon` and `tol` must be finite and > 0, `stabilization_threshold`
    > 0 (np.inf: never absorb).
    """

    epsilon: float
    tol: float = 1e-6
    max_iter: int = 1000
    stabilization_threshold: float = 1e6

    def __post_init__(self):
        # NaN fails every comparison, so these reject it too
        if not (0 < self.epsilon < np.inf):
            raise ValueError("epsilon must be finite and > 0")
        if not (0 < self.tol < np.inf):
            raise ValueError("tol must be finite and > 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not (self.stabilization_threshold > 0):
            raise ValueError("stabilization_threshold must be > 0")


@dataclass
class TransportPlan:
    coupling: np.ndarray
    objective: float
    iterations: int
    converged: bool
    b_change: np.ndarray = field(default_factory=lambda: np.empty(0))
    # final column potential of the solved (virtual-column) problem; pass it
    # as `init=` to warm-start a nearby solve. None where a solver has none.
    col_potential: np.ndarray | None = None

    def row_marginal(self) -> np.ndarray:
        return self.coupling.sum(axis=1)

    def col_marginal(self) -> np.ndarray:
        return self.coupling.sum(axis=0)

    def total_mass(self) -> float:
        return float(self.coupling.sum())


def _solve_row_eq(C, alpha, beta, f, cfg, v0=None, upper=None) -> tuple:
    """Row-equality scaling with stabilization: columns with Hadamard
    exponents `f`, or upper-bounded where the boolean mask `upper` is set
    (None: no such column; f must be 1 there). Every target in `beta` is
    > 0. `v0` is the column potential the kernel starts from (None: zeros).
    Raises NumericalOverflowError rather than return a plan with a
    non-finite entry.
    """
    Q, iters, conv, errs, v = kernels.scaling_weighted_kl(
        np.asfortranarray(C, dtype=np.float64),
        np.ascontiguousarray(alpha, dtype=np.float64),
        np.ascontiguousarray(beta, dtype=np.float64),
        np.ascontiguousarray(f, dtype=np.float64),
        cfg.epsilon,
        cfg.tol,
        cfg.max_iter,
        cfg.stabilization_threshold,
        v0,
        upper,
    )
    if not np.all(np.isfinite(Q)):
        raise NumericalOverflowError(
            f"non-finite plan after {iters} iterations at epsilon={cfg.epsilon}; "
            "the kernel exp(-C/epsilon) under- or overflows at this scale"
        )
    return Q, iters, conv, errs, v


def entropic_objective(plan: np.ndarray, cost: np.ndarray, penalties, epsilon: float) -> float:
    """<Q,C> + sum of KL penalties - eps*H(Q), with 0 log 0 := 0.

    `penalties` is a list of (axis, target, weights) triples; axis 0 penalizes
    the row marginal Q 1, axis 1 the column marginal Q^T 1. The KL terms use
    the x*log(x/target) form (entries with x = 0 contribute 0); entries with
    the sentinel infinite weight are hard constraints the solver enforces,
    and contribute 0.
    """
    Q = np.asarray(plan, dtype=float)
    C = np.asarray(cost, dtype=float)
    if Q.shape != C.shape:
        raise DimensionMismatchError("plan and cost shapes differ")
    val = float(np.sum(Q * C))
    for axis, target, weights in penalties or []:
        if axis not in (0, 1):
            raise ValueError(f"penalty axis must be 0 (rows) or 1 (columns), got {axis!r}")
        marg = Q.sum(axis=1 - axis)
        val += weighted_kl_value(marg, target, weights)
    val += epsilon * float(np.sum(xlogx(Q)))
    return val


def xlogx(x: np.ndarray) -> np.ndarray:
    """x log x where x > 0, else 0."""
    x = np.asarray(x, dtype=float)
    pos = x > 0
    out = np.log(x, out=np.zeros_like(x), where=pos)
    return np.multiply(x, out, out=out, where=pos)


def weighted_kl_value(x: np.ndarray, target: np.ndarray, weights) -> float:
    """sum_i lam_i * x_i * log(x_i / t_i) with 0 log 0 := 0.

    Sentinel entries (lam = inf) are treated as hard equalities: their
    contribution is 0 (they are enforced by the solver, not priced).
    """
    x = np.asarray(x, dtype=float)
    target = np.asarray(target, dtype=float)
    w = np.asarray(weights, dtype=float)
    if not x.shape == target.shape == w.shape:
        raise DimensionMismatchError(
            f"marginal, target and weights shapes differ: {x.shape}, {target.shape}, {w.shape}")
    finite = ~np.isinf(w)
    pos = (x > 0) & finite
    val = 0.0
    if np.any(pos):
        val = float(np.sum(w[pos] * x[pos] * np.log(x[pos] / target[pos])))
    return val


def clamp_probabilities(pred: np.ndarray) -> np.ndarray:
    """Floor probabilities so -log stays finite."""
    P = np.asarray(pred, dtype=float)
    if P.ndim != 2:
        raise DimensionMismatchError("prediction matrix must be 2-D")
    return np.maximum(P, PROB_FLOOR)


@dataclass(frozen=True)
class ExtendedProblem:
    cost_ext: np.ndarray  # N x (K+1) in Fortran order, last column identically zero; N x K at rho = 1
    beta: np.ndarray  # [rho/K * 1_K ; 1-rho]
    weights: np.ndarray  # [lam, ..., lam, inf]
    alpha: np.ndarray  # (1/N) * 1_N


def extend_virtual(C0: np.ndarray, rho: float, lam: float) -> ExtendedProblem:
    """Append the zero-cost virtual column and build the extended marginals.

    The virtual column absorbs the unselected 1-rho mass under a hard
    (sentinel-weight) equality. At rho = 1 its target is 0, so it is left out.
    The extended cost is built in Fortran order, the kernel's layout.
    """
    if not 0 < rho <= 1:
        raise ValueError("rho must be in (0, 1]")
    if not lam >= 0:  # NaN fails too
        raise ValueError("lam must be >= 0 (np.inf: hard columns)")
    C0 = np.asarray(C0, dtype=float)
    if C0.ndim != 2 or C0.shape[0] < 1 or C0.shape[1] < 1:
        raise DimensionMismatchError(f"cost matrix must be 2-D and nonempty, got shape {C0.shape}")
    if not np.all(np.isfinite(C0)):
        raise ValueError("cost matrix entries must be finite")
    N, K = C0.shape
    beta = np.full(K, rho / K)
    weights = np.full(K, float(lam))
    if rho < 1:
        C = np.zeros((N, K + 1), order="F")
        C[:, :K] = C0
        beta = np.append(beta, 1.0 - rho)
        weights = np.append(weights, np.inf)
    else:
        C = np.asfortranarray(C0)
    return ExtendedProblem(C, beta, weights, np.full(N, 1.0 / N))


def _exponents(weights: np.ndarray, epsilon: float) -> np.ndarray:
    """Hadamard exponents f = lam/(lam+eps) of KL-weighted columns; 1 where lam = inf (hard)."""
    hard = np.isinf(weights)
    return np.divide(weights, weights + epsilon, out=np.ones_like(weights), where=~hard)


def solve_virtual(C0: np.ndarray, rho: float, lam: float, cfg: ScalingConfig,
                  init: np.ndarray | None = None) -> TransportPlan:
    """Rows <= 1/N (= 1/N at rho = 1), total mass rho, KL(column marginal,
    rho/K) with weight lam (np.inf: hard columns).

    One kernel solve on the virtual-column extension; returns the plan with
    the virtual column dropped, the objective of that plan, and the final
    column potential of the extension. `init`, the `col_potential` of an
    earlier plan, warm-starts the kernel; an `init` whose length is not the
    extension's column count (K+1 for rho < 1, K at rho = 1) is ignored.
    """
    C0 = np.asarray(C0, dtype=float)  # validated by extend_virtual
    ext = extend_virtual(C0, rho, lam)
    f = _exponents(ext.weights, cfg.epsilon)
    v0 = None if init is None or np.shape(init) != ext.beta.shape else init
    Q, iters, converged, errs, v = _solve_row_eq(ext.cost_ext, ext.alpha, ext.beta, f, cfg, v0)
    K = C0.shape[1]
    if Q.shape[1] > K:
        Q = Q[:, :K].copy()
    penalties = [(1, ext.beta[:K], ext.weights[:K])]
    obj = entropic_objective(Q, C0, penalties, cfg.epsilon)  # C-order cost, like Q: the fast product
    return TransportPlan(Q, obj, iters, converged, np.asarray(errs), v)


def solve_balanced_ot(pred: np.ndarray, cfg: ScalingConfig, init: np.ndarray | None = None) -> TransportPlan:
    """Balanced OT pseudo-labels: uniform row mass 1/N, uniform columns 1/K."""
    return solve_virtual(-np.log(clamp_probabilities(pred)), 1.0, np.inf, cfg, init)


def solve_uot(pred: np.ndarray, lam: float, cfg: ScalingConfig, init: np.ndarray | None = None) -> TransportPlan:
    """Unbalanced OT: hard uniform rows, KL(column marginal, 1/K) with weight lam."""
    return solve_virtual(-np.log(clamp_probabilities(pred)), 1.0, lam, cfg, init)


def solve_pot(pred: np.ndarray, rho: float, cfg: ScalingConfig, init: np.ndarray | None = None) -> TransportPlan:
    """Partial OT: row sums <= 1/N, column sums = rho/K, total mass rho."""
    return solve_virtual(-np.log(clamp_probabilities(pred)), rho, np.inf, cfg, init)


def solve_sla(pred: np.ndarray, rho: float, upper: float, cfg: ScalingConfig) -> TransportPlan:
    """Upper-bounded selective assignment: row sums <= 1/N, column sums <= upper,
    total mass rho. Degenerates to a single dominant cluster when the bound
    is slack relative to rho.

    One kernel solve on the virtual-column extension of partial OT, with the
    real columns upper-bounded instead of pinned to rho/K. When
    K * upper <= rho (1 + MASS_RTOL) every bound binds, so the program is
    partial OT's and the real columns are solved as hard ones at rho/K. The
    plan carries no column potential.
    """
    if not 0 < rho <= 1:
        raise ValueError("rho must be in (0, 1]")
    if not upper > 0:  # NaN fails too
        raise ValueError("upper must be > 0")
    P = clamp_probabilities(pred)
    K = P.shape[1]
    if K * upper < rho - 1e-12:
        raise InfeasibleProblemError(f"column bound too small: K*upper = {K * upper} < rho = {rho}")
    C0 = -np.log(P)
    ext = extend_virtual(C0, rho, np.inf)  # the virtual column (absent at rho = 1) is hard at 1-rho
    beta, up_col = ext.beta, None
    if K * upper > rho * (1 + MASS_RTOL):
        beta = np.append(np.full(K, upper), ext.beta[K:])
        up_col = np.arange(beta.size) < K
    Q, iters, converged, errs, _ = _solve_row_eq(ext.cost_ext, ext.alpha, beta, np.ones(beta.size), cfg, upper=up_col)
    real = Q[:, :K].copy()
    obj = entropic_objective(real, C0, [], cfg.epsilon)
    return TransportPlan(real, obj, iters, converged, np.asarray(errs))
