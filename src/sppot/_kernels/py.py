"""NumPy scaling kernels, the only implementation of the two hot loops.

The stabilized row-equality scaling recursion, whose columns each carry a
Hadamard exponent or an upper bound on their mass, runs every balanced,
unbalanced, partial, P2OT and SLA solve, through `ot_core._solve_row_eq`.
The generalized scaling baseline serves `p2ot.solve_p2ot_gsa` only. Both
end a sweep with one exact scalar mass step: the recursion rescales its
soft (KL-penalized) columns to the mass that the rows and hard columns
leave them, the baseline rescales the whole plan to the total mass rho.
Each sweep is two (baseline: three) BLAS mat-vecs over the N x K kernel,
which both hold in Fortran order; the recursion's step and its momentum
cost O(K) more.

Callers look these functions up on the module (`kernels.scaling_weighted_kl`)
at call time, never through a name bound at import, so a wrapper installed
on this module (the perfbench tracer) sees every call.
"""

import math

import numpy as np

KERNEL_FLOOR = 1e-300
LOG_FLOOR = math.log(KERNEL_FLOOR)

# Heavy-ball extrapolation of the column scaling (see `_Momentum`): plain
# sweeps before a rate estimate, the smallest rate worth accelerating, and
# the rise of the change over its best that restarts the estimate.
MOMENTUM_WARMUP = 3
MOMENTUM_MIN_RATE = 0.3
MOMENTUM_RESTART = 2.0


def scaling_weighted_kl(C, alpha, beta, f, epsilon, tol, max_iter, threshold, v0=None, upper=None):
    """Stabilized scaling recursion, started from a column potential.

    a <- alpha/(M b); b <- w * (beta/(M^T a))^f, then the mass step below,
    with log-domain absorption of (a, b) into potentials (u, v) whenever
    either vector exceeds `threshold`. Targets in `beta` must be strictly
    positive.

    Upper-bounded columns. `upper` (default None: none) is a boolean column
    mask; a masked column holds a mass of at most beta_j, and its entry of f
    must be 1. Its update is the KL prox of that bound in the absorbed frame,
    b_j <- min(exp(-v_j/eps), beta_j/(M^T a)_j): the column's absolute
    scaling exp(v_j/eps) b_j never exceeds 1, and it reaches beta_j exactly
    where the bound binds (Chizat, Peyre, Schmitzer & Vialard, "Scaling
    algorithms for unbalanced optimal transport problems", Math. Comp. 2018).
    With `upper` None the sweep does no extra work.

    Mass step. On the feasible set the rows and the hard columns (f == 1)
    fix the total mass of the soft columns (f < 1) at
    m_soft = sum(alpha) - sum(beta[f == 1]): rho on the virtual-column
    extension of P2OT, sum(alpha) for UOT. After each column update the
    soft entries of b are multiplied by the one scalar
    t = m_soft / sum_soft b_j (M^T a)_j, which sets that mass exactly; it
    reuses the sweep's M^T a, so it costs O(K). Without it the soft mass is
    the recursion's slowest mode, contracting by about 1 - rho (1 - f) a
    sweep: hundreds of sweeps at small rho. The step is exact: a fixed point
    of the stepped recursion is one of the step-free recursion with every
    soft column's cost shifted by one constant, which on the feasible set
    changes the objective by a constant, so the plan is the same. The
    iterates settle with the column potentials off the step-free ones by a
    uniform offset (t tends to a constant, not always 1); the returned
    column potential has the offset removed, so a soft column j holds
    lam log(beta_j / x_j) with x_j its column mass and lam = eps f/(1 - f),
    the potential of the step-free fixed point. The step is skipped, and the
    loop is the step-free recursion bit for bit, when there is no soft
    column (balanced and partial OT), when the soft columns' exponents
    differ (the shift argument needs one shared exponent), when
    m_soft <= 0 (hard targets above the row mass: no feasible plan), and
    in a sweep whose soft mass is not positive and finite. It is also
    skipped when any column is upper-bounded: such a column's mass is not
    fixed, so neither is the soft columns'.

    Momentum. The recursion contracts linearly, and slowly where the plan is
    hard to balance: balanced OT and POT on peaked posteriors, SLA at small
    rho, every solve at small eps. Each sweep computes the plain update
    b_plain (the column update, the upper-bound prox and the mass step) and,
    unless that sweep ends the loop, moves on to the heavy-ball point
    b (b_plain/b)^relax (b/b_prev)^inertia, capped and mass-stepped again
    (Thibault, Chizat, Dossal & Papadakis, "Overrelaxed Sinkhorn-Knopp
    Algorithm for Regularized Optimal Transport", Algorithms 2021; Lehmann,
    von Renesse, Sambale & Uschmajew, "A note on overrelaxation in the
    Sinkhorn algorithm", Optim. Lett. 2022). `_Momentum` sets the weights
    from the contraction rate of the plain sweeps, and keeps the move plain
    where that rate is small. When the change rises to twice its best since
    the acceleration began, it restarts: the loop drops the move that led
    there, goes back to the plain update of the previous iterate, and
    estimates the rate again.
    The move costs O(K): powers of K-vectors, no N-vector. The momentum
    b/b_prev is kept as a ratio of absolute scalings exp(v/eps) b, which an
    absorption leaves unchanged, and so it leaves the iterates. The sweep
    that ends the loop (converged, non-finite, or the last of `max_iter`)
    keeps b_plain, so a returned plan meets its constraints as one of the
    plain recursion does (below), and the loop converges to the plain
    recursion's fixed point. Its decisions depend on the changes alone, so
    a repeated call repeats its sweeps exactly.

    The solve starts from the column potential `v0` (default zeros) and the
    row potential u0_i = min_j (C_ij - v0_j), so the first kernel
    M = exp((u0 - C + v0)/eps) has largest entry 1 in every row and cannot
    overflow, whatever the cost or `v0`. The row scaling absorbs u0 exactly:
    from v0 = 0 the iterates are those of a start from exp(-C/eps), unless
    a column is lifted. A hard column that is not upper-bounded and has
    every kernel entry under the floor (a cluster that no row predicts, at
    small eps) is lifted: its start potential rises until its largest entry
    is 1. The column scaling takes the difference up, so the fixed point is
    the same; unlifted, the first absorption zeroed the column and the plan
    turned NaN. Other columns start as they are. Soft columns (f < 1) start
    from the weight w0 = exp(v0 (f-1)/eps). A `v0` the recursion could not
    recover from is ignored, and the solve starts from zeros: one that is
    not finite, whose soft-column weights lie beyond `threshold` in either
    direction, or that leaves a column with every kernel entry under the
    floor that the lift does not raise (an absorption would zero it).

    The loop stops once the largest relative change of the column scaling,
    max|b_plain/b - 1|, falls below `tol`; the measure does not depend on the
    scale of b. Each row of the returned plan is then within a factor
    1 +- tol of its target, so the L1 row-marginal error is at most
    tol * sum(alpha), and hard columns (f == 1) are exact after their own
    update, as are upper-bounded columns where their bound binds. For the
    virtual-column extension, `converged` therefore means
    that the selected mass is within tol * sum(alpha) of its target; where
    the mass step runs, the soft columns' total mass is exact after every
    sweep, converged or not. The change is measured after the step. The
    loop also stops at the first sweep whose change is not finite, so a
    plan that has turned NaN is returned (not converged) without running on
    to `max_iter`.

    C and the kernel are held in Fortran order, where the two BLAS mat-vecs
    of a sweep over a tall, narrow matrix are fastest; the plan is returned
    C-contiguous.

    Returns (Q, iterations, converged, b_change_history, col_potential),
    where the history holds max|b_plain/b - 1| of every sweep (how far the
    plain update lies from the sweep's iterate; after a momentum move the
    iterate itself changes by more) and col_potential = v + eps log(b) is
    the final column potential, the `v0` that warm-starts a solve of a
    nearby problem.
    """
    C = np.asfortranarray(C, dtype=np.float64)
    m, n = C.shape
    hard = f == 1.0
    u, v, M = _start(C, v0, f, hard if upper is None else hard & ~upper, epsilon, threshold)
    w = np.where(hard, 1.0, np.exp(v * (f - 1.0) / epsilon))
    soft = np.flatnonzero(~hard)  # the mass step's columns, None where it is skipped
    m_soft = float(alpha.sum() - beta[hard].sum())
    if soft.size == 0 or m_soft <= 0 or np.any(f[soft] != f[soft[0]]) or upper is not None:
        soft = None
    cap = None if upper is None else _upper_cap(v, upper, epsilon)
    a_bound = _row_scaling_bound(alpha, M)
    a = np.ones(m)
    b = np.ones(n)
    step = np.ones(n)  # the last move of the absolute column scaling, as a ratio: the momentum
    last_plain = step  # the last sweep's b_plain / b
    momentum = _Momentum()
    errs = np.empty(max_iter)
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        a = alpha / (M @ b)
        a_may_pass = not a_bound < threshold * b.min()  # False proves max(a) <= threshold unread
        col = M.T @ a
        b_new = w * (beta / col) ** f
        _project(b_new, col, cap, upper, soft, m_soft)
        ratio = b_new / b
        err = float(np.abs(ratio - 1.0).max())
        errs[it - 1] = err
        # a non-finite change: the scalings have under- or overflowed
        if err < tol or not math.isfinite(err) or it == max_iter:
            b = b_new
            converged = err < tol
            break
        weights = momentum.weights(err)
        if momentum.restarted:  # drop the failed move: the previous iterate's plain update
            b_new = b * last_plain / step
        elif weights is not None:
            relax, inertia = weights
            b_new = b * ratio**relax * step**inertia
            _project(b_new, col, cap, upper, soft, m_soft)
        last_plain = ratio
        step = b_new / b
        b = b_new
        if b.max() > threshold or (a_may_pass and a.max() > threshold):
            u += epsilon * np.log(a)
            v += epsilon * np.log(b)
            w = np.where(hard, 1.0, w * b ** (f - 1.0))
            M = np.exp((u[:, None] - C + v[None, :]) / epsilon)
            a_bound = _row_scaling_bound(alpha, M)
            a = np.ones(m)
            b = np.ones(n)
            if upper is not None:
                cap = _upper_cap(v, upper, epsilon)
    Q = np.multiply(a[:, None], M, order="C")
    Q *= b
    with np.errstate(divide="ignore", invalid="ignore"):
        potential = v + epsilon * np.log(b)
        if soft is not None:  # remove the offset the mass step leaves (see the docstring)
            lam = epsilon * f[soft] / (1.0 - f[soft])
            potential -= np.mean(potential[soft] - lam * np.log(beta[soft] / (b[soft] * col[soft])))
    return Q, it, converged, errs[:it].copy(), potential


def _project(b, col, cap, upper, soft, m_soft):
    """Cap the upper-bounded columns of `b` and take the mass step, in place.

    `cap` and `upper` are None where no column is upper-bounded, `soft` where
    the mass step is skipped; `col` is the sweep's M^T a.
    """
    if upper is not None:
        b[upper] = np.minimum(cap, b[upper])
    if soft is not None:
        soft_mass = float(b[soft] @ col[soft])
        if 0.0 < soft_mass < math.inf:
            b[soft] *= m_soft / soft_mass


class _Momentum:
    """Heavy-ball weights of the column-scaling update, set from the observed contraction rate.

    Fed the plain change of every sweep that does not end the loop, it
    returns None (take the plain update, or after a restart the plain
    update of the previous iterate) or the weights (relax, inertia) of
    the move b <- b (b_plain/b)^relax (b/b_prev)^inertia. From the plain
    sweep after the first MOMENTUM_WARMUP on, the rate is the median of the
    last MOMENTUM_WARMUP ratios of consecutive changes. For a rate between
    MOMENTUM_MIN_RATE and 1, with s = sqrt(1 - rate), the weights are
    Polyak's heavy-ball 4/(1+s)^2 and ((1-s)/(1+s))^2, kept until the change
    exceeds MOMENTUM_RESTART times its smallest value since the acceleration
    began. That sweep restarts: `restarted` is set, the loop drops the move
    that led to the sweep's iterate and goes back to the plain update of the
    previous one, and the rate is estimated again from the plain sweeps
    that follow.
    """

    __slots__ = ("plain", "current", "best", "restarted")

    def __init__(self):
        self.plain = []  # the last changes of plain sweeps, oldest first
        self.current = None  # (relax, inertia) while accelerating
        self.best = math.inf
        self.restarted = False

    def weights(self, err):
        self.restarted = False
        if self.current is not None:
            if err <= MOMENTUM_RESTART * self.best:
                self.best = min(self.best, err)
                return self.current
            self.current, self.plain, self.restarted = None, [], True
            return None
        self.plain = self.plain[-MOMENTUM_WARMUP:] + [err]
        if len(self.plain) > MOMENTUM_WARMUP:
            e = self.plain
            rate = sorted(e[i + 1] / e[i] for i in range(MOMENTUM_WARMUP))[MOMENTUM_WARMUP // 2]
            if MOMENTUM_MIN_RATE < rate < 1.0:
                s = math.sqrt(1.0 - rate)
                self.current = (4.0 / (1.0 + s) ** 2, ((1.0 - s) / (1.0 + s)) ** 2)
                self.best = err
        return self.current


def _row_scaling_bound(alpha, M):
    """R with alpha / (M b) <= R / min(b) entrywise for every b > 0: max_i alpha_i / rowsum_i(M).

    Since (M b)_i >= min(b) rowsum_i(M) for a nonnegative kernel, a sweep
    whose R < threshold * min(b) cannot have a row scaling above `threshold`,
    and the loop skips reading all N of them. R is widened by 1e-12 plus a
    few units in the last place per column, more than the rounding of the two
    row sums, so the skip never hides an absorption. A zero row sum or a NaN
    makes R inf or NaN, and then no sweep skips.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = float(np.max(alpha / M.sum(axis=1)))
    return bound * (1.0 + 1e-12 + 4.0 * M.shape[1] * np.finfo(np.float64).eps)


def _upper_cap(v, upper, epsilon):
    """exp(-v/eps) on the upper-bounded columns: the largest scaling their prox allows."""
    with np.errstate(over="ignore"):
        return np.exp(-v[upper] / epsilon)


def _start(C, v0, f, lift, epsilon, threshold):
    """Row potential, column potential and Fortran-order kernel a solve starts from.

    From `v0` when the recursion can recover from it (see
    `scaling_weighted_kl`), else from zeros. A column in the boolean mask
    `lift` whose every kernel entry would fall under the floor has its
    potential raised so that its largest entry is 1.
    """
    if v0 is not None:
        v = np.array(v0, dtype=np.float64)  # a copy: the loop updates it in place
        log_w = v * (f - 1.0) / epsilon
        if not np.all(np.isfinite(v)) or np.any(np.abs(log_w) > math.log(threshold)):
            v0 = None
    if v0 is None:
        v = np.zeros(C.shape[1])
    shifted = v[None, :] - C  # Fortran order, like C
    row_max = shifted.max(axis=1)  # the row potential is u0 = min_j (C_ij - v_j) = -row_max
    shifted -= row_max[:, None]
    col_max = shifted.max(axis=0)  # <= 0, as every row's largest entry is 0
    lifted = np.where(lift & (col_max / epsilon < LOG_FLOOR), -col_max, 0.0)
    v += lifted
    shifted += lifted[None, :]
    col_max += lifted
    if v0 is not None and col_max.min() / epsilon < LOG_FLOOR:
        return _start(C, None, f, lift, epsilon, threshold)
    M = np.maximum(np.exp(shifted / epsilon, out=shifted), KERNEL_FLOOR)
    return -row_max, v, M


def gsa_total_mass(C, alpha, beta, f, rho, epsilon, tol, max_iter):
    """Generalized scaling baseline with scalar total-mass rescale.

    Minimizes the same entropic program as the virtual-column solver: the
    entropy also covers the row slack alpha - Q 1 (the unselected mass that
    the virtual column holds there). With Q = s diag(a) M diag(b) and the
    slack equal to a at row optimality, one sweep is

        a <- alpha/(1 + s M b)          (rho < 1)
        a <- min(alpha/(s M b), 1)      (rho = 1, slack forced to zero)
        b <- (beta/(s M^T a))^f
        s <- rho/(a^T M b)

    The fixed point is the virtual-column one with virtual scaling 1/s.
    The loop stops once the largest relative change of the effective column
    scaling s*b falls below `tol`; the total mass is exact after every
    sweep, and for rho < 1 the L1 error of the row marginal plus slack is
    then at most tol * sum(alpha).

    Returns (Q, iterations, converged, b_change_history), where the history
    holds the relative change of every sweep.
    """
    C = np.asfortranarray(C, dtype=np.float64)
    m, n = C.shape
    M = np.maximum(np.exp(-C / epsilon), KERNEL_FLOOR)
    b = np.ones(n)
    s = 1.0
    relaxed = rho < 1.0
    errs = np.empty(max_iter)
    converged = False
    it = 0
    a = np.ones(m)
    for it in range(1, max_iter + 1):
        if relaxed:
            a = alpha / (1.0 + s * (M @ b))
        else:
            a = np.minimum(alpha / (s * (M @ b)), 1.0)
        b_new = (beta / (s * (M.T @ a))) ** f
        s_new = rho / float(a @ (M @ b_new))
        err = float(np.max(np.abs(s_new * b_new / (s * b) - 1.0)))
        errs[it - 1] = err
        b = b_new
        s = s_new
        if err < tol:
            converged = True
            break
    Q = np.multiply(s * a[:, None], M, order="C")
    Q *= b
    return Q, it, converged, errs[:it].copy()
