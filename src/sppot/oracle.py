"""Independent verification solvers.

Projected gradient descent on the entropic convex programs (with Euclidean
alternating projections onto the transport constraints) and an exact LP
reference for tiny instances. Deliberately slow and simple; these exist to
cross-check the scaling solvers, not to compete with them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ot_core import weighted_kl_value, xlogx


class OracleFailure(RuntimeError):
    """PGD did not reach its tolerance; treat the check as inconclusive."""


# Euclidean projections: entry floor, Dykstra's round budget and its stop
# change. The floor keeps the entropy gradient finite at the boundary.
DELTA = 1e-12
PROJ_ROUNDS = 2_000
PROJ_TOL = 1e-14


@dataclass(frozen=True)
class OracleConfig:
    step_size: float = 0.05  # maximum (initial) step; backtracking shrinks it
    max_iter: int = 50_000
    tol: float = 1e-6

    def __post_init__(self):
        if self.step_size <= 0:
            raise ValueError("step_size must be > 0")


@dataclass
class OracleResult:
    plan: np.ndarray
    objective: float
    iterations: int
    converged: bool
    objective_trace: list = field(default_factory=list)


def _row_thresholds(Y, sums, lo):
    """Per row i, the shift tau_i with sum_j max(Y_ij - tau_i, lo) = sums_i.

    One descending sort and cumsum per row (Held, Wolfe & Crowder 1974). The
    count of active entries is clamped at >= 1, so a row whose sum is at most
    K*lo gets a tau that puts every entry at lo.
    """
    k = Y.shape[1]
    U = np.sort(Y - lo, axis=1)[:, ::-1]
    css = np.cumsum(U, axis=1)
    budget = np.asarray(sums, dtype=float) - k * lo
    active = U - (css - budget[:, None]) / np.arange(1, k + 1) > 0  # a True prefix
    count = np.maximum(active.sum(axis=1), 1)
    return (css[np.arange(len(count)), count - 1] - budget) / count


def _project_rows(Y, sums, lo, equality):
    """Row-wise projection onto {x >= lo, sum(x) = s_i}, or sum(x) <= s_i
    when `equality` is False (then the shift is never negative)."""
    tau = _row_thresholds(Y, sums, lo)
    if not equality:
        tau = np.maximum(tau, 0.0)
    # shifted by lo, so that every clamped entry is lo exactly
    return np.maximum(Y - lo - tau[:, None], 0.0) + lo


def _project_cap_mass(Y, caps, mass, lo):
    """Exact projection onto {Q >= lo, row sums <= caps, total mass = mass}.

    Dualizing the mass constraint with multiplier tau leaves per-row capped
    projections of Y - tau, which are max(Y - max(tau, r_i), lo) with r_i the
    row's cap threshold. Their total is continuous, nonincreasing and linear
    in tau between the knots {Y - lo} and {r_i} (Condat 2016), so a binary
    search over the sorted knots finds the piece where it crosses the mass,
    and tau is solved on that piece.
    """
    n, k = Y.shape
    if n * k * lo > mass or float(np.sum(caps)) < mass - 1e-12:
        raise ValueError("mass constraint infeasible for the given caps")
    W = Y - lo
    r = _row_thresholds(Y, caps, lo)
    excess = mass - n * k * lo  # the mass above the floor

    def above_floor(tau):
        return np.maximum(W - np.maximum(tau, r)[:, None], 0.0)

    knots = np.sort(np.concatenate([W.ravel(), r]))
    a, b = 0, knots.size - 1  # every entry is at the floor from knots[-1] on
    t_a = float(above_floor(knots[a]).sum())
    if t_a <= excess:
        tau = knots[a]
    else:
        while b - a > 1:  # invariant: total(knots[a]) > excess >= total(knots[b])
            mid = (a + b) // 2
            t_mid = float(above_floor(knots[mid]).sum())
            if t_mid > excess:
                a, t_a = mid, t_mid
            else:
                b = mid
        # entries that move with tau on the piece: in uncapped rows, above the floor
        slope = int(((r <= knots[a])[:, None] & (W >= knots[b])).sum())
        tau = min(knots[a] + (t_a - excess) / slope, knots[b])
    Q = above_floor(tau) + lo
    # absorb the residual rounding on unclamped entries
    free = (Q > lo) & (Q < caps[:, None])
    n_free = int(free.sum())
    if n_free:
        Q[free] += (mass - Q.sum()) / n_free
    return Q


def _project_feasible(Q, row_eq, row_cap, col_eq, total_mass):
    """Exact Euclidean projection onto the intersection of the requested
    constraint sets. The row-cap + total-mass pair (the partial-transport
    feasible set) has a direct dual solution; other combinations use
    Dykstra's cyclic scheme (plain alternating projections find a feasible
    point, not the nearest one, which biases gradient steps)."""
    n, k = Q.shape
    if row_cap is not None and total_mass is not None and row_eq is None and col_eq is None:
        return _project_cap_mass(Q, row_cap, total_mass, DELTA)
    sets = []
    if row_eq is not None:
        sets.append(("row_eq", row_eq))
    if row_cap is not None:
        sets.append(("row_cap", row_cap))
    if col_eq is not None:
        sets.append(("col_eq", col_eq))
    if total_mass is not None:
        sets.append(("mass", total_mass))
    if not sets:
        return np.maximum(Q, DELTA)
    corrections = [np.zeros_like(Q) for _ in sets]
    for _ in range(PROJ_ROUNDS):
        Q_prev_round = Q.copy()
        for idx, (kind, target) in enumerate(sets):
            Y = Q + corrections[idx]
            if kind == "row_eq":
                Q = _project_rows(Y, target, DELTA, equality=True)
            elif kind == "row_cap":
                Q = _project_rows(Y, target, DELTA, equality=False)
            elif kind == "col_eq":
                Q = _project_rows(Y.T, target, DELTA, equality=True).T
            else:
                # affine set {sum Q = target}: projection is a uniform shift;
                # nonnegativity is carried by the row/column sets
                Q = Y + (target - Y.sum()) / (n * k)
            corrections[idx] = Y - Q
        if float(np.max(np.abs(Q - Q_prev_round))) <= PROJ_TOL:
            break
    return Q


def oracle_objective(Q, cost, epsilon, col_kl=None, slack_entropy=None) -> float:
    """Same convention as the production objective: <Q,C> + KL penalty - eps H.

    `slack_entropy`, when set to the row-cap vector, adds the (negated)
    entropy of the row slacks cap - row_sum; this matches the virtual-column
    formulation where the dropped column also carries entropy.
    """
    val = float(np.sum(Q * cost))
    if col_kl is not None:
        target, lam = col_kl
        val += weighted_kl_value(Q.sum(axis=0), target, lam)
    val += epsilon * float(np.sum(xlogx(Q)))
    if slack_entropy is not None:
        val += epsilon * float(np.sum(xlogx(slack_entropy - Q.sum(axis=1))))
    return val


def pgd_entropic(
    cost: np.ndarray,
    epsilon: float,
    *,
    row_eq: np.ndarray | None = None,
    row_cap: np.ndarray | None = None,
    col_eq: np.ndarray | None = None,
    col_kl: tuple | None = None,
    total_mass: float | None = None,
    slack_entropy: bool = False,
    cfg: OracleConfig | None = None,
    track_objective: bool = False,
) -> OracleResult:
    """Projected gradient descent with backtracking on the entropic objective.

    Constraint options: hard row sums (`row_eq`), row caps (`row_cap`),
    hard column sums (`col_eq`), a soft column KL penalty
    (`col_kl = (target, lam)`), and a total-mass equality. With
    `slack_entropy`, the row slacks cap - row_sum also carry an entropy
    term, matching the virtual-column solver's implicit objective.

    The step length is found by backtracking from `cfg.step_size` until the
    quadratic sufficient-decrease condition holds; a fixed step cannot work
    here because the entropy gradient is unbounded near zero entries.
    Raises OracleFailure if the gradient-mapping norm never reaches tol.
    """
    if slack_entropy and row_cap is None:
        raise ValueError("slack_entropy requires row_cap")
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0 for a strictly convex objective")
    cfg = cfg or OracleConfig()
    C = np.asarray(cost, dtype=float)
    n, k = C.shape
    if total_mass is not None:
        Q = np.full((n, k), total_mass / (n * k))
    elif row_eq is not None:
        Q = np.tile((row_eq / k)[:, None], (1, k))
    else:
        Q = np.full((n, k), 1.0 / (n * k))
    Q = _project_feasible(Q, row_eq, row_cap, col_eq, total_mass)

    slack_cap = row_cap if slack_entropy else None

    def objective(Qx):
        return oracle_objective(Qx, C, epsilon, col_kl, slack_cap)

    def gradient(Qx):
        g = C + epsilon * (np.log(np.maximum(Qx, DELTA)) + 1.0)
        if col_kl is not None:
            target, lam = col_kl
            col = np.maximum(Qx.sum(axis=0), DELTA)
            g = g + lam * (np.log(col / target) + 1.0)[None, :]
        if slack_entropy:
            slack = np.maximum(row_cap - Qx.sum(axis=1), DELTA)
            g = g - epsilon * (np.log(slack) + 1.0)[:, None]
        return g

    trace = []
    eta = cfg.step_size
    f_val = objective(Q)
    converged = False
    gap = np.inf
    it = 0
    for it in range(1, cfg.max_iter + 1):
        grad = gradient(Q)
        eta = min(eta * 2.0, cfg.step_size)
        while True:
            Q_new = _project_feasible(Q - eta * grad, row_eq, row_cap, col_eq, total_mass)
            diff = Q_new - Q
            f_new = objective(Q_new)
            model = f_val + float(np.sum(grad * diff)) + float(np.sum(diff * diff)) / (2.0 * eta)
            if f_new <= model + 1e-15 or eta < 1e-14:
                break
            eta *= 0.5
        gap = float(np.max(np.abs(diff))) / eta
        Q = Q_new
        f_val = f_new
        if track_objective and (it % 50 == 0 or it == 1):
            trace.append(f_val)
        if gap <= cfg.tol:
            converged = True
            break
    if not converged:
        raise OracleFailure(f"PGD gradient mapping {gap:.3e} > tol {cfg.tol:.1e} after {it} iterations")
    return OracleResult(Q, objective(Q), it, converged, trace)


def lp_exact_tiny(
    cost: np.ndarray,
    *,
    row_eq: np.ndarray | None = None,
    row_cap: np.ndarray | None = None,
    col_eq: np.ndarray | None = None,
    col_cap: np.ndarray | None = None,
    total_mass: float | None = None,
) -> OracleResult:
    """Exact (eps = 0) linear-program reference for instances with <= 24 cells."""
    C = np.asarray(cost, dtype=float)
    n, k = C.shape
    if n * k > 24:
        raise ValueError("lp_exact_tiny is restricted to N*K <= 24 variables")
    # imported when called: scipy.optimize would add ~0.3 s to every `import sppot`
    from scipy.optimize import linprog

    A_eq, b_eq, A_ub, b_ub = [], [], [], []

    def row_indicator(i):
        z = np.zeros((n, k))
        z[i, :] = 1.0
        return z.ravel()

    def col_indicator(j):
        z = np.zeros((n, k))
        z[:, j] = 1.0
        return z.ravel()

    if row_eq is not None:
        for i in range(n):
            A_eq.append(row_indicator(i))
            b_eq.append(row_eq[i])
    if row_cap is not None:
        for i in range(n):
            A_ub.append(row_indicator(i))
            b_ub.append(row_cap[i])
    if col_eq is not None:
        for j in range(k):
            A_eq.append(col_indicator(j))
            b_eq.append(col_eq[j])
    if col_cap is not None:
        for j in range(k):
            A_ub.append(col_indicator(j))
            b_ub.append(col_cap[j])
    if total_mass is not None:
        A_eq.append(np.ones(n * k))
        b_eq.append(total_mass)

    res = linprog(
        C.ravel(),
        A_eq=np.asarray(A_eq) if A_eq else None,
        b_eq=np.asarray(b_eq) if b_eq else None,
        A_ub=np.asarray(A_ub) if A_ub else None,
        b_ub=np.asarray(b_ub) if b_ub else None,
        bounds=(0, None),
        method="highs",
    )
    if not res.success:
        raise ValueError(f"LP infeasible or failed: {res.message}")
    return OracleResult(res.x.reshape(n, k), float(res.fun), int(res.nit), True)
