"""Independent verification solvers.

Projected gradient descent on the two entropic programs the scaling solvers
are checked against: partial transport (row caps and a total mass, with an
optional soft column KL and slack entropy), projected exactly through its
dual, and balanced transport (row and column sums), projected by Dykstra's
scheme. And an exact LP reference for tiny instances, its constraint rows
taken from two Kronecker-product tables (one per row, one per column).
Deliberately slow and simple; these exist to cross-check the scaling
solvers, not to compete with them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ot_core import MASS_RTOL, weighted_kl_value, xlogx


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


def _project_rows(Y, sums, lo):
    """Row-wise projection onto {x >= lo, sum(x) = s_i}."""
    tau = _row_thresholds(Y, sums, lo)
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
    """Exact Euclidean projection onto the feasible set of one of the two
    programs. The partial program's row caps and total mass have a direct
    dual solution; the balanced program's row and column equalities use
    Dykstra's cyclic scheme (plain alternating projections find a feasible
    point, not the nearest one, which biases gradient steps)."""
    if row_cap is not None:
        return _project_cap_mass(Q, row_cap, total_mass, DELTA)
    row_fix = col_fix = np.zeros_like(Q)  # Dykstra's corrections of the row and the column step
    for _ in range(PROJ_ROUNDS):
        Q_prev_round = Q
        Y = Q + row_fix
        Q = _project_rows(Y, row_eq, DELTA)
        row_fix = Y - Q
        Y = Q + col_fix
        Q = _project_rows(Y.T, col_eq, DELTA).T
        col_fix = Y - Q
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
) -> OracleResult:
    """Projected gradient descent with backtracking on the entropic objective.

    Two programs are accepted. Partial: row caps (`row_cap`) and a
    total-mass equality (`total_mass`), optionally with a soft column KL
    penalty (`col_kl = (target, lam)`) and, with `slack_entropy`, an
    entropy term on the row slacks cap - row_sum, matching the
    virtual-column solver's implicit objective. Balanced: hard row sums
    (`row_eq`) and hard column sums (`col_eq`), whose totals must agree
    to a relative `MASS_RTOL`. Any other combination, or balanced sums
    that disagree, raises ValueError.

    The step length is found by backtracking from `cfg.step_size` until the
    quadratic sufficient-decrease condition holds; a fixed step cannot work
    here because the entropy gradient is unbounded near zero entries.
    The objective is recorded at iteration 1 and every 50th iteration in
    `objective_trace`. Raises OracleFailure if the gradient-mapping norm
    never reaches tol.
    """
    partial = row_cap is not None and total_mass is not None and row_eq is None and col_eq is None
    balanced = (row_eq is not None and col_eq is not None and row_cap is None and total_mass is None
                and col_kl is None and not slack_entropy)
    if not (partial or balanced):
        raise ValueError(
            "pgd_entropic solves two programs: partial (row_cap and total_mass, optionally col_kl and "
            "slack_entropy) or balanced (row_eq and col_eq)"
        )
    if balanced and not np.isclose(np.sum(row_eq), np.sum(col_eq), rtol=MASS_RTOL, atol=0.0):
        raise ValueError(f"row_eq sums to {np.sum(row_eq)!r} and col_eq to {np.sum(col_eq)!r}: no plan meets both")
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0 for a strictly convex objective")
    cfg = cfg or OracleConfig()
    C = np.asarray(cost, dtype=float)
    n, k = C.shape
    if partial:
        Q = np.full((n, k), total_mass / (n * k))
    else:
        Q = np.tile((row_eq / k)[:, None], (1, k))
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
        if it % 50 == 0 or it == 1:
            trace.append(f_val)
        if gap <= cfg.tol:
            converged = True
            break
    if not converged:
        raise OracleFailure(f"PGD gradient mapping {gap:.3e} > tol {cfg.tol:.1e} after {it} iterations")
    return OracleResult(Q, f_val, it, converged, trace)


def _stack(blocks):
    """The constraint rows and right-hand sides of the (table, bounds) pairs whose bounds are set."""
    blocks = [(table, bounds) for table, bounds in blocks if bounds is not None]
    if not blocks:
        return None, None
    return np.vstack([table for table, _ in blocks]), np.concatenate([np.asarray(b, dtype=float) for _, b in blocks])


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

    rows = np.kron(np.eye(n), np.ones(k))  # rows[i] sums row i of the flattened plan
    cols = np.kron(np.ones(n), np.eye(k))  # cols[j] sums column j
    mass = None if total_mass is None else [total_mass]
    A_eq, b_eq = _stack([(rows, row_eq), (cols, col_eq), (np.ones((1, n * k)), mass)])
    A_ub, b_ub = _stack([(rows, row_cap), (cols, col_cap)])
    res = linprog(C.ravel(), A_eq=A_eq, b_eq=b_eq, A_ub=A_ub, b_ub=b_ub, bounds=(0, None), method="highs")
    if not res.success:
        raise ValueError(f"LP infeasible or failed: {res.message}")
    return OracleResult(res.x.reshape(n, k), float(res.fun), int(res.nit), True)
