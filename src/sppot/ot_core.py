"""Entropic matrix-scaling solvers for pseudo-label transport problems.

Implements the generic scaling loop (alternating KL-proximal updates of the
row/column scaling vectors) together with the solver variants used for
pseudo-label generation: balanced OT, unbalanced OT with a KL penalty on
cluster sizes, partial OT with a hard total-mass constraint, the partial
solver with a KL penalty on cluster sizes (P2OT), and the upper-bounded
relaxation (SLA).

Balanced, unbalanced, partial and P2OT are one solve, `solve_virtual`,
with two parameters: the selected mass rho and the column penalty weight
lam (np.inf is the sentinel for a hard column). It appends a zero-cost
virtual column that absorbs the unselected 1-rho mass, runs the
row-equality scaling kernel once on the extended plan, and drops the
virtual column again. Balanced OT is (1, inf), unbalanced OT (1, lam),
partial OT (rho, inf) and P2OT (rho, lam). SLA's upper-bounded columns
need the generic loop.

All solvers work on Q = diag(a) * M * diag(b) with M = exp(-C/eps) and
support log-domain absorption of the scaling vectors to avoid overflow.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._kernels import py as kernels

PROB_FLOOR = 1e-8
KERNEL_FLOOR = 1e-300
MASS_RTOL = 1e-12


class DimensionMismatchError(ValueError):
    pass


class InfeasibleProblemError(ValueError):
    pass


class NumericalOverflowError(ArithmeticError):
    """Non-finite intermediate; enable stabilization (finite threshold)."""


@dataclass(frozen=True)
class CostMatrix:
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise DimensionMismatchError(f"cost matrix must be 2-D and nonempty, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("cost matrix entries must be finite")
        object.__setattr__(self, "values", v)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class MarginalConstraint:
    """One-sided marginal constraint.

    kind is one of "equality", "upper", "kl", "weighted_kl". For "kl" the
    scalar penalty weight is in `weight`; for "weighted_kl" the per-entry
    weights are in `weights`, where np.inf marks the sentinel that enforces
    hard equality for that entry.
    """

    kind: str
    target: np.ndarray
    weight: float | None = None
    weights: np.ndarray | None = None

    def __post_init__(self):
        t = np.asarray(self.target, dtype=float).ravel()
        if np.any(t < 0):
            raise ValueError("constraint target entries must be >= 0")
        object.__setattr__(self, "target", t)
        if self.kind not in ("equality", "upper", "kl", "weighted_kl"):
            raise ValueError(f"unknown constraint kind {self.kind!r}")
        if self.kind == "kl":
            if self.weight is None or self.weight < 0:
                raise ValueError("kl constraint needs weight >= 0")
        if self.kind == "weighted_kl":
            w = np.asarray(self.weights, dtype=float).ravel()
            if w.shape != t.shape:
                raise DimensionMismatchError("weights length must equal target length")
            if np.any(w < 0):
                raise ValueError("kl weights must be >= 0")
            object.__setattr__(self, "weights", w)

    @classmethod
    def equality(cls, target) -> "MarginalConstraint":
        return cls("equality", target)

    @classmethod
    def upper(cls, target) -> "MarginalConstraint":
        return cls("upper", target)

    @classmethod
    def kl(cls, target, weight: float) -> "MarginalConstraint":
        return cls("kl", target, weight=weight)

    @classmethod
    def weighted_kl(cls, target, weights) -> "MarginalConstraint":
        return cls("weighted_kl", target, weights=weights)

    def exponents(self, epsilon: float) -> np.ndarray | None:
        """Per-entry Hadamard exponents f = lam/(lam+eps), or None if the
        constraint is not representable this way (inequality)."""
        n = self.target.size
        if self.kind == "equality":
            return np.ones(n)
        if self.kind == "kl":
            if np.isinf(self.weight):
                return np.ones(n)
            return np.full(n, self.weight / (self.weight + epsilon))
        if self.kind == "weighted_kl":
            f = np.empty(n)
            inf = np.isinf(self.weights)
            f[inf] = 1.0
            f[~inf] = self.weights[~inf] / (self.weights[~inf] + epsilon)
            return f
        return None


@dataclass(frozen=True)
class ScalingConfig:
    """Entropic regularization and stopping rule of one scaling solve.

    In the kernels (balanced, UOT, POT, the virtual-column P2OT solver and
    its baseline) `tol` bounds the largest relative change of the column
    scaling in the last sweep. `converged=True` then means the L1
    row-marginal error is at most tol times the row mass and hard columns
    hold exactly, so the selected mass of a partial plan is within tol of
    rho. The generic loop (SLA and other inequality constraints) stops on
    the absolute change max|b_new - b|, which carries no such guarantee.
    """

    epsilon: float
    tol: float = 1e-6
    max_iter: int = 1000
    stabilization_threshold: float = 1e6

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        if self.tol <= 0:
            raise ValueError("tol must be > 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class TransportPlan:
    coupling: np.ndarray
    objective: float
    iterations: int
    converged: bool
    b_change: np.ndarray = field(default_factory=lambda: np.empty(0))

    def row_marginal(self) -> np.ndarray:
        return self.coupling.sum(axis=1)

    def col_marginal(self) -> np.ndarray:
        return self.coupling.sum(axis=0)

    def total_mass(self) -> float:
        return float(self.coupling.sum())


def prox_equality(z: np.ndarray, target: np.ndarray) -> np.ndarray:
    """KL-prox of the indicator of {x = target}; independent of z."""
    z = np.asarray(z, dtype=float)
    target = np.asarray(target, dtype=float)
    if z.shape != target.shape:
        raise DimensionMismatchError("z and target must have the same length")
    if np.any(z <= 0):
        raise ValueError("z must be strictly positive")
    return target.copy()


def prox_weighted_kl(z, target, weights, epsilon: float) -> np.ndarray:
    """Minimizer of sum_i lam_i x_i log(x_i/t_i) - lam_i x_i + eps KL(x, z).

    Closed form target^f * z^(1-f) with f = lam/(lam+eps); sentinel inf
    weights give f = 1 exactly (hard equality).
    """
    z = np.asarray(z, dtype=float)
    target = np.asarray(target, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if z.shape != target.shape or weights.shape != target.shape:
        raise DimensionMismatchError("z, target, weights must share length")
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.where(np.isinf(weights), 1.0, weights / (weights + epsilon))
        out = np.where(f == 1.0, target, target**f * z ** (1.0 - f))
    return out


def _side_spec(con: MarginalConstraint, epsilon: float):
    """Per-entry update spec (f exponents, upper-bound mask) for one side."""
    f = con.exponents(epsilon)
    n = con.target.size
    if f is not None:
        return f, np.zeros(n, dtype=bool)
    if con.kind == "upper":
        return np.ones(n), np.ones(n, dtype=bool)
    raise ValueError(f"unsupported constraint kind {con.kind!r}")


def _side_update(Mx, target, f, is_upper, pot, epsilon):
    """One scaling-vector update in the absorbed frame.

    Exponent entries: s = exp(pot*(f-1)/eps) * (target/Mx)^f.
    Upper-bound entries: s = min(exp(-pot/eps), target/Mx).
    """
    ratio = target / Mx
    with np.errstate(over="ignore", under="ignore"):
        s = np.exp(pot * (f - 1.0) / epsilon) * ratio**f
        if np.any(is_upper):
            cap = np.exp(-pot[is_upper] / epsilon)
            s[is_upper] = np.minimum(cap, ratio[is_upper])
    return s


def _check_masses(row: MarginalConstraint, col: MarginalConstraint):
    if row.kind == "equality" and col.kind == "equality":
        sr, sc = row.target.sum(), col.target.sum()
        if abs(sr - sc) > MASS_RTOL * max(sr, sc, 1.0):
            raise InfeasibleProblemError(f"equality marginals disagree in total mass: {sr} vs {sc}")


def scaling_solve(
    cost: CostMatrix | np.ndarray,
    row: MarginalConstraint,
    col: MarginalConstraint,
    cfg: ScalingConfig,
) -> TransportPlan:
    """Generic scaling loop: a <- prox_row(Mb)/(Mb), b <- prox_col(M^T a)/(M^T a).

    Fast path: when the row constraint is a hard equality and the column
    constraint is expressible through Hadamard exponents (equality / KL /
    weighted KL), the update collapses to b <- w * (target/(M^T a))^f and
    runs in the row-equality kernel. The fully generic path (needed for
    inequality constraints) uses the same log-domain absorption.
    """
    C = cost.values if isinstance(cost, CostMatrix) else CostMatrix(cost).values
    m, n = C.shape
    if row.target.size != m or col.target.size != n:
        raise DimensionMismatchError("marginal lengths must match cost shape")
    _check_masses(row, col)

    col_f = col.exponents(cfg.epsilon)
    if row.kind == "equality" and col_f is not None:
        Q, iters, converged, errs = _solve_row_eq(C, row.target, col.target, col_f, cfg)
    else:
        Q, iters, converged, errs = _solve_generic(C, row, col, cfg)

    obj = entropic_objective(Q, C, _penalties_for(row, col), cfg.epsilon)
    return TransportPlan(Q, obj, iters, converged, np.asarray(errs))


def _solve_row_eq(C, alpha, beta, f, cfg) -> tuple:
    """Row-equality / column-Hadamard-exponent scaling with stabilization.

    Columns with zero target mass carry zero in any feasible plan; they are
    removed up front so logs and divisions stay clean, and reinserted as
    zero columns at the end. Raises NumericalOverflowError rather than
    return a plan with a non-finite entry.
    """
    active = beta > 0
    if not np.all(active):
        Qa, iters, conv, errs = _solve_row_eq(C[:, active], alpha, beta[active], f[active], cfg)
        Q = np.zeros_like(C)
        Q[:, active] = Qa
        return Q, iters, conv, errs
    Q, iters, conv, errs = kernels.scaling_weighted_kl(
        np.ascontiguousarray(C, dtype=np.float64),
        np.ascontiguousarray(alpha, dtype=np.float64),
        np.ascontiguousarray(beta, dtype=np.float64),
        np.ascontiguousarray(f, dtype=np.float64),
        cfg.epsilon,
        cfg.tol,
        cfg.max_iter,
        cfg.stabilization_threshold,
    )
    if not np.all(np.isfinite(Q)):
        raise NumericalOverflowError(
            f"non-finite plan after {iters} iterations at epsilon={cfg.epsilon}; "
            "the kernel exp(-C/epsilon) under- or overflows at this scale"
        )
    return Q, iters, conv, errs


def _solve_generic(C, row, col, cfg):
    eps = cfg.epsilon
    f_row, up_row = _side_spec(row, eps)
    f_col, up_col = _side_spec(col, eps)
    return _generic_loop(C, row.target, f_row, up_row, col.target, f_col, up_col, cfg)


def _generic_loop(C, mu, f_row, up_row, nu, f_col, up_col, cfg):
    eps = cfg.epsilon
    m, n = C.shape
    # zero-target exponent entries carry zero mass in any feasible plan
    dead_col = (nu == 0) & ~up_col
    if np.any(dead_col):
        keep = ~dead_col
        Qa, iters, conv, errs = _generic_loop(
            C[:, keep], mu, f_row, up_row, nu[keep], f_col[keep], up_col[keep], cfg
        )
        Q = np.zeros_like(C)
        Q[:, keep] = Qa
        return Q, iters, conv, errs

    M = np.maximum(np.exp(-C / eps), KERNEL_FLOOR)
    a = np.ones(m)
    b = np.ones(n)
    u = np.zeros(m)
    v = np.zeros(n)
    errs = []
    converged = False
    it = 0
    for it in range(1, cfg.max_iter + 1):
        a = _side_update(M @ b, mu, f_row, up_row, u, eps)
        b_new = _side_update(M.T @ a, nu, f_col, up_col, v, eps)
        err = float(np.max(np.abs(b_new - b)))
        errs.append(err)
        b = b_new
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise NumericalOverflowError("scaling vectors overflowed; enable stabilization")
        if err < cfg.tol:
            converged = True
            break
        if max(a.max(initial=0.0), b.max(initial=0.0)) > cfg.stabilization_threshold:
            with np.errstate(divide="ignore"):
                u = u + eps * np.log(a)
                v = v + eps * np.log(b)
            M = np.exp((u[:, None] - C + v[None, :]) / eps)
            a = np.ones(m)
            b = np.ones(n)
    Q = a[:, None] * M * b[None, :]
    return Q, it, converged, errs


def _penalties_for(row: MarginalConstraint, col: MarginalConstraint):
    pens = []
    for axis, con in ((0, row), (1, col)):
        if con.kind == "kl":
            pens.append((axis, con.target, np.full_like(con.target, con.weight)))
        elif con.kind == "weighted_kl":
            pens.append((axis, con.target, con.weights))
    return pens


def entropic_objective(plan: np.ndarray, cost: np.ndarray, penalties, epsilon: float) -> float:
    """<Q,C> + sum of KL penalties - eps*H(Q), with 0 log 0 := 0.

    `penalties` is a list of (axis, target, weights) triples; axis 0 penalizes
    the row marginal Q 1, axis 1 the column marginal Q^T 1. The KL terms use
    the x*log(x/target) form (entries with x = 0 contribute 0); sentinel
    infinite weights contribute 0 when the marginal matches its target
    exactly and +inf otherwise is avoided by clamping to the converged value.
    """
    Q = np.asarray(plan, dtype=float)
    C = np.asarray(cost, dtype=float)
    if Q.shape != C.shape:
        raise DimensionMismatchError("plan and cost shapes differ")
    val = float(np.sum(Q * C))
    for axis, target, weights in penalties or []:
        marg = Q.sum(axis=1 - axis)
        val += weighted_kl_value(marg, target, weights)
    val += epsilon * float(np.sum(xlogx(Q)))
    return val


def xlogx(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x, dtype=float)
    pos = x > 0
    out[pos] = x[pos] * np.log(x[pos])
    return out


def weighted_kl_value(x: np.ndarray, target: np.ndarray, weights) -> float:
    """sum_i lam_i * x_i * log(x_i / t_i) with 0 log 0 := 0.

    Sentinel entries (lam = inf) are treated as hard equalities: their
    contribution is 0 (they are enforced by the solver, not priced).
    """
    x = np.asarray(x, dtype=float)
    target = np.asarray(target, dtype=float)
    w = np.asarray(weights, dtype=float)
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
    cost_ext: np.ndarray  # N x (K+1), last column identically zero; N x K at rho = 1
    beta: np.ndarray  # [rho/K * 1_K ; 1-rho]
    weights: np.ndarray  # [lam, ..., lam, inf]
    alpha: np.ndarray  # (1/N) * 1_N


def extend_virtual(C0: np.ndarray, rho: float, lam: float) -> ExtendedProblem:
    """Append the zero-cost virtual column and build the extended marginals.

    The virtual column absorbs the unselected 1-rho mass under a hard
    (sentinel-weight) equality. At rho = 1 its target is 0, so it is left out.
    """
    if not 0 < rho <= 1:
        raise ValueError("rho must be in (0, 1]")
    C = CostMatrix(C0).values
    N, K = C.shape
    beta = np.full(K, rho / K)
    weights = np.full(K, float(lam))
    if rho < 1:
        C = np.hstack([C, np.zeros((N, 1))])
        beta = np.append(beta, 1.0 - rho)
        weights = np.append(weights, np.inf)
    return ExtendedProblem(C, beta, weights, np.full(N, 1.0 / N))


def solve_virtual(C0: np.ndarray, rho: float, lam: float, cfg: ScalingConfig) -> TransportPlan:
    """Rows <= 1/N (= 1/N at rho = 1), total mass rho, KL(column marginal,
    rho/K) with weight lam (np.inf: hard columns).

    One kernel solve on the virtual-column extension; returns the plan with
    the virtual column dropped and the objective of that plan.
    """
    ext = extend_virtual(C0, rho, lam)
    f = MarginalConstraint.weighted_kl(ext.beta, ext.weights).exponents(cfg.epsilon)
    Q, iters, converged, errs = _solve_row_eq(ext.cost_ext, ext.alpha, ext.beta, f, cfg)
    K = np.shape(C0)[1]
    if Q.shape[1] > K:
        Q = Q[:, :K].copy()
    penalties = [(1, ext.beta[:K], ext.weights[:K])]
    obj = entropic_objective(Q, ext.cost_ext[:, :K], penalties, cfg.epsilon)
    return TransportPlan(Q, obj, iters, converged, np.asarray(errs))


def solve_balanced_ot(pred: np.ndarray, cfg: ScalingConfig) -> TransportPlan:
    """Balanced OT pseudo-labels: uniform row mass 1/N, uniform columns 1/K."""
    return solve_virtual(-np.log(clamp_probabilities(pred)), 1.0, np.inf, cfg)


def solve_uot(pred: np.ndarray, lam: float, cfg: ScalingConfig) -> TransportPlan:
    """Unbalanced OT: hard uniform rows, KL(column marginal, 1/K) with weight lam."""
    return solve_virtual(-np.log(clamp_probabilities(pred)), 1.0, lam, cfg)


def solve_pot(pred: np.ndarray, rho: float, cfg: ScalingConfig) -> TransportPlan:
    """Partial OT: row sums <= 1/N, column sums = rho/K, total mass rho."""
    return solve_virtual(-np.log(clamp_probabilities(pred)), rho, np.inf, cfg)


def solve_sla(pred: np.ndarray, rho: float, upper: float, cfg: ScalingConfig) -> TransportPlan:
    """Upper-bounded selective assignment: row sums <= 1/N, column sums <= upper,
    total mass rho. Degenerates to a single dominant cluster when the bound
    is slack relative to rho."""
    if not 0 < rho <= 1:
        raise ValueError("rho must be in (0, 1]")
    if upper <= 0:
        raise ValueError("upper must be > 0")
    P = clamp_probabilities(pred)
    N, K = P.shape
    if K * upper < rho - 1e-12:
        raise InfeasibleProblemError(f"column bound too small: K*upper = {K * upper} < rho = {rho}")
    C = np.hstack([-np.log(P), np.zeros((N, 1))])
    # mixed per-column rule: real columns upper-bounded, virtual column
    # pinned to 1-rho by a hard equality (exponent 1)
    mu = np.full(N, 1.0 / N)
    nu = np.append(np.full(K, upper), 1.0 - rho)
    f_row = np.ones(N)
    up_row = np.zeros(N, dtype=bool)
    f_col = np.ones(K + 1)
    up_col = np.append(np.ones(K, dtype=bool), False)
    Q, iters, converged, errs = _generic_loop(C, mu, f_row, up_row, nu, f_col, up_col, cfg)
    real = Q[:, :K].copy()
    obj = entropic_objective(real, -np.log(P), [], cfg.epsilon)
    return TransportPlan(real, obj, iters, converged, np.asarray(errs))
