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
`scaling_solve` takes general one-sided constraints and also runs that
kernel, on the transposed problem where only the columns are an equality.

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

    Every solver (balanced, UOT, POT, SLA, the virtual-column P2OT solver,
    its baseline and `scaling_solve`) stops once the largest relative
    change of the column scaling in the last sweep is below `tol`.
    `converged=True` then means the L1 row-marginal error is at most tol
    times the row mass and hard or upper-bounded columns hold exactly, so
    the selected mass of a partial plan is within tol of rho.
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
    # final column potential of the solved (virtual-column) problem; pass it
    # as `init=` to warm-start a nearby solve. None where a solver has none.
    col_potential: np.ndarray | None = None

    def row_marginal(self) -> np.ndarray:
        return self.coupling.sum(axis=1)

    def col_marginal(self) -> np.ndarray:
        return self.coupling.sum(axis=0)

    def total_mass(self) -> float:
        return float(self.coupling.sum())


def _side_spec(con: MarginalConstraint, epsilon: float):
    """Kernel column spec of one side: (f exponents, upper-bound mask or None)."""
    f = con.exponents(epsilon)
    if f is not None:
        return f, None
    n = con.target.size
    return np.ones(n), np.ones(n, dtype=bool)  # "upper", the one kind without exponents


def _check_masses(eq: MarginalConstraint, other: MarginalConstraint, epsilon: float):
    """Raise InfeasibleProblemError where no plan meets the equality side's
    mass: it exceeds the other side's upper bounds or falls short of its hard
    targets (entries the kernel holds exactly, f == 1), or, with every entry
    of the other side hard, differs from their total."""
    mass, total = eq.target.sum(), other.target.sum()
    slack = MASS_RTOL * max(mass, total, 1.0)
    f = other.exponents(epsilon)
    if f is None:
        if mass > total + slack:
            raise InfeasibleProblemError(f"equality mass {mass} exceeds the upper bounds' total {total}")
        return
    hard = f == 1
    if hard.all():
        if abs(mass - total) > slack:
            raise InfeasibleProblemError(f"hard marginals disagree in total mass: {mass} vs {total}")
    elif (hard_total := other.target[hard].sum()) > mass + slack:
        raise InfeasibleProblemError(f"hard targets' total {hard_total} exceeds the equality mass {mass}")


def scaling_solve(
    cost: CostMatrix | np.ndarray,
    row: MarginalConstraint,
    col: MarginalConstraint,
    cfg: ScalingConfig,
) -> TransportPlan:
    """Scaling solve of one equality side against any one-sided constraint.

    One side must be an equality: the rows give a <- alpha/(M b), and the
    other side's columns take their KL-prox update, b <- w * (target/(M^T a))^f
    for an equality, KL or weighted-KL side and the upper-bound prox for an
    "upper" side, in the one row-equality kernel. Where only the columns are
    an equality the transposed problem is solved and its plan transposed
    back. Raises ValueError when neither side is an equality, and
    InfeasibleProblemError when the equality side's mass cannot be met (see
    `_check_masses`).
    """
    C = cost.values if isinstance(cost, CostMatrix) else CostMatrix(cost).values
    m, n = C.shape
    if row.target.size != m or col.target.size != n:
        raise DimensionMismatchError("marginal lengths must match cost shape")
    if "equality" not in (row.kind, col.kind):
        raise ValueError(f"scaling_solve needs an equality side, got rows {row.kind!r} and columns {col.kind!r}")
    flip = row.kind != "equality"  # solve the transpose, whose rows are the equality side
    eq, other = (col, row) if flip else (row, col)
    _check_masses(eq, other, cfg.epsilon)
    f, upper = _side_spec(other, cfg.epsilon)
    Q, iters, converged, errs, _ = _solve_row_eq(C.T if flip else C, eq.target, other.target, f, cfg, upper=upper)
    if flip:
        Q = np.ascontiguousarray(Q.T)

    obj = entropic_objective(Q, C, _penalties_for(row, col), cfg.epsilon)
    return TransportPlan(Q, obj, iters, converged, np.asarray(errs))


def _solve_row_eq(C, alpha, beta, f, cfg, v0=None, upper=None) -> tuple:
    """Row-equality scaling with stabilization: columns with Hadamard
    exponents `f`, or upper-bounded where the boolean mask `upper` is set
    (None: no such column; f must be 1 there).

    Columns with zero target mass, upper-bounded ones included, carry zero
    in any feasible plan; they are removed up front so logs and divisions
    stay clean, and reinserted as zero columns at the end; such a solve
    starts cold and returns no column potential. Otherwise `v0` is the
    column potential the kernel starts from (None: zeros). Raises
    NumericalOverflowError rather than return a plan with a non-finite entry.
    """
    active = beta > 0
    if not np.all(active):
        Qa, iters, conv, errs, _ = _solve_row_eq(C[:, active], alpha, beta[active], f[active], cfg,
                                                 upper=None if upper is None else upper[active])
        Q = np.zeros(C.shape)
        Q[:, active] = Qa
        return Q, iters, conv, errs, None
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
    C0 = CostMatrix(C0).values
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
    f = MarginalConstraint.weighted_kl(ext.beta, ext.weights).exponents(cfg.epsilon)
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
    if upper <= 0:
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
