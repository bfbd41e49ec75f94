"""NumPy scaling kernels, the only implementation of the two hot loops.

The stabilized row-equality scaling recursion, whose columns each carry a
Hadamard exponent or an upper bound on their mass, runs every balanced,
unbalanced, partial, P2OT and SLA solve, through `ot_core.solve_virtual`.
The generalized scaling baseline serves `p2ot.solve_p2ot_gsa` only. Both
end a sweep with one exact scalar mass step: the recursion rescales its
soft (KL-penalized) columns to the mass that the rows and hard columns
leave them, the baseline rescales the whole plan to the total mass rho.
Each sweep is two BLAS mat-vecs over the N x K kernel, which both hold in
Fortran order; the recursion's step and its momentum cost O(K) more.

One floored exponentiation, `_floored_exp`, builds every kernel: the
baseline's, and the recursion's in the one `_frame` call that builds all a
sweep reads, at its start and at each of its absorptions.

The recursion allocates only the plan it returns. Each thread keeps
Fortran-order N x n float64 buffers (`workspace`): the kernel, which the
start and every absorption write in place, the extended cost, which
`ot_core.solve_virtual` writes into, and, once a solve has run the Newton
phase, its scaled copy of the kernel. A buffer is kept while the
shape fits it and replaced by one of the shape's size when it does not, so
a thread holds at most its largest solve's three buffers, a solve no larger
than an earlier one maps no fresh N x n memory, and threads never share a
buffer. No returned array is a view of a buffer.

Callers look these functions up on the module (`kernels.scaling_weighted_kl`)
at call time, never through a name bound at import, so a wrapper installed
on this module (the perfbench tracer) sees every call.
"""

import math
import threading

import numpy as np

KERNEL_FLOOR = 1e-300
LOG_FLOOR = math.log(KERNEL_FLOOR)

# A scaling above this is absorbed into its potential, which leaves the
# iterates unchanged up to rounding. `scaling_weighted_kl` reads it at call
# time, so a test may set it on the module.
ABSORB_THRESHOLD = 1e6

# Heavy-ball extrapolation of the column scaling (see `_Momentum`): plain
# sweeps before a rate estimate, the smallest rate worth accelerating, and
# the rise of the change over its best that restarts the estimate.
MOMENTUM_WARMUP = 3
MOMENTUM_MIN_RATE = 0.3
MOMENTUM_RESTART = 2.0

# Damped Newton on the column potentials (see `_newton`): the plain sweep after
# which it runs, the most steps it takes, the relative column residual, as a
# fraction of tol, at which it hands back to the sweep, the Armijo fraction of
# its line search, the most halvings of one search, and the largest change of
# any log(b_j) in one step.
NEWTON_ENTRY = 3
NEWTON_MAX_STEPS = 20
NEWTON_STOP = 0.1
NEWTON_ARMIJO = 1e-4
NEWTON_HALVINGS = 20
NEWTON_MAX_MOVE = 100.0

_buffers = threading.local()


def workspace(slot, shape):
    """This thread's buffer `slot` ("kernel", "cost" or "newton"), as a Fortran-order float64 array of `shape`.

    A view of the front of one flat array per slot and thread, kept while
    the shape fits in it and replaced by one of the shape's size otherwise,
    so a thread holds at most its largest solve's buffers. Its entries
    are what its last user left; the caller writes every one.
    """
    size = shape[0] * shape[1]
    flat = getattr(_buffers, slot, None)
    if flat is None or flat.size < size:
        flat = np.empty(size)
        setattr(_buffers, slot, flat)
    return flat[:size].reshape(shape, order="F")


def scaling_weighted_kl(C, alpha, beta, f, epsilon, tol, max_iter, v0=None, upper=None, n_real=None):
    """Stabilized scaling recursion, started from a column potential.

    a <- alpha/(M b); b <- w * (beta/(M^T a))^f, then the mass step below,
    with log-domain absorption of (a, b) into potentials (u, v) whenever
    either vector exceeds ABSORB_THRESHOLD. Targets in `beta` must be strictly
    positive. Where every column is hard (f == 1, so w == 1), the update is
    beta/(M^T a) itself, which the power and the product would return bit
    for bit.

    The absorption test reads max(b) every sweep but max(a), an N-vector,
    only where a bound does not settle it. Every kernel row holds an entry
    of exactly 1 (the frame, below), so each (M b)_i, a sum of nonnegative
    terms, is at least min(b) in floating point and max(a) <=
    max(alpha)/min(b), rounded: where that is within ABSORB_THRESHOLD, so is
    a. On the solve-p2ot workload (seeds 201 and 207) the bound settles 1575
    of 1579 tests.

    Column model. The soft columns (f < 1) are one contiguous run sharing
    one exponent, as `ot_core.solve_virtual` passes them (the K real columns
    at lam/(lam+eps), then the hard virtual column); the kernel relies on it,
    and derives the model once a solve: the hard mask, the run and its lam.

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
    column (balanced and partial OT), when m_soft <= 0 (hard targets above
    the row mass: no feasible plan; or rounding, -2.2e-16 at rho = 1e-17 and
    N = 7), and in a sweep whose soft mass is not positive and finite. It is also
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

    Newton phase. A solve with no upper-bounded column and every f > 0 that
    has not converged after NEWTON_ENTRY plain sweeps takes damped Newton
    steps on the column potentials there (`_newton`), whether it started
    from `v0` or from zeros: the semi-dual in the kernel frame, with M kept
    and b the scaling, whose gradient is the column residual beta s - c and
    whose (K+1) x (K+1) Hessian costs one N x n scaled copy of M (Brauer,
    Clason, Lorenz & Wirth, 2017; Tang et al., "Accelerating Sinkhorn
    algorithm with sparse Newton iterations", ICLR 2024). Newton takes a
    few steps where the plain recursion contracts slowly: the 48 cold
    P2OT solves of solve-p2ot seeds 201 and 207 take 192 sweeps and 178
    Newton steps, where the sweeps alone take 1225. The phase then hands
    its iterate back to the plain sweep, with the momentum started afresh
    (kept when the phase took no step), and the sweep's stop rule decides
    `converged`, so it means what it means without the phase; absorption
    works as before. An upper-bounded solve (SLA, unless every bound binds
    and it is solved as partial OT) never enters, so its sweeps are those
    of the recursion alone.

    The frame. The solve holds a column potential v, from which the start
    and every absorption build what the sweep reads with one `_frame` call:
    the row potential u_i = min_j (C_ij - v_j); the kernel
    M = exp((u - C + v)/eps), as v - C less its row maxima, divided by eps,
    exponentiated and floored at KERNEL_FLOOR (`_floored_exp`) in this
    thread's kernel buffer (`workspace`); the soft columns' weights
    w = exp(v (f-1)/eps); and the caps, exp(-v/eps) on the upper-bounded
    columns and inf on the others. Every kernel row holds an entry of
    exactly 1, so no kernel overflows, whatever the cost or v. The solve
    starts from v = v0 (default zeros); an absorption moves v to
    v + eps log(b), resets b to 1 and builds the frame again, and the next
    sweep's row scaling takes up the change of u (Schmitzer,
    "Stabilized sparse scaling algorithms for entropy regularized transport
    problems", SIAM J. Sci. Comput. 2019). From v0 = 0 the iterates are
    those of a start from exp(-C/eps), unless a column is lifted: a hard
    column that is not upper-bounded and has every kernel entry under the
    floor (a cluster that no row predicts, at small eps) has its potential
    raised until its largest entry is 1, and the column scaling takes the
    difference up, so the fixed point is the same. A soft or upper-bounded
    column with every entry at the floor climbs off it through the
    absorptions, and at eps 1e-3 a soft one overflows first. The floor keeps
    a column whose entries all underflow nonzero, so its update never
    divides by a zero mass; where no entry falls under it, it moves no
    iterate. A `v0` the recursion could not recover from is ignored, and
    the solve starts from zeros: one of the wrong length or not finite,
    whose soft-column weights lie beyond ABSORB_THRESHOLD in either
    direction, whose largest upper-bounded potential lies further than
    eps log(ABSORB_THRESHOLD) from 0 (the cap keeps each such potential at
    most 0, a column whose bound is slack holds 0, and a binding one may lie
    far under it, so every upper-bounded solution has largest potential 0
    there), or that leaves a column with every kernel entry under the floor
    that the lift does not raise. The plan is the only N x K array a solve
    allocates.

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
    C-contiguous. M b, the row scaling a and M^T a are written into vectors
    allocated once a call, and the soft columns are read through a slice,
    so a sweep allocates only K-vectors. The sweep's K-vector reductions
    (the change, and min(b) and max(b) for the absorption test) are read
    through `_min_max`, at a fraction of numpy's call cost.

    Returns (Q, iterations, converged, col_potential, entropic, newton_steps,
    col_mass). iterations counts the plain sweeps, newton_steps the Newton
    steps (0 where the phase did not run). Q is the plan's first `n_real`
    columns (default: all), formed as a[:, None] * M[:, :n_real], then
    times b[:n_real], in those columns of the kernel buffer, and copied out
    to C order (`_plan`); the columns after them (the virtual column) are
    never formed. col_mass = b * (M^T a) over the same columns is the
    plan's column sums as the last sweep computed them: equal to Q's up to
    rounding. col_potential = v + eps
    log(b) is the final column potential, the `v0` that warm-starts a solve
    of a nearby problem. entropic is <Q, C> - eps H(Q) over the returned
    columns, with 0 log 0 := 0, read from the final scalings in O(N + K):
    in the absorbed frame eps log Q_ij = U_i - C_ij + V_j with
    U = u + eps log(a) and V = v + eps log(b) (before the mass step's
    offset is removed), so the term is sum_i U_i r_i + sum_j V_j c_j over
    the returned plan's row sums r and column sums c. An entry clamped at
    KERNEL_FLOOR is off that identity by at most ~1e-288. A non-finite
    entry of the plan makes entropic non-finite, so one scalar checks the
    whole plan: the returned columns through their row sums, the others
    through their mass b_j (M^T a)_j, which the last sweep computed.
    """
    C = np.asfortranarray(C, dtype=np.float64)
    m, n = C.shape
    hard = f == 1.0  # the column model: the hard mask, the soft run as a slice and its KL weight
    soft = np.flatnonzero(~hard)
    soft = slice(soft[0], soft[-1] + 1) if soft.size else slice(0, 0)
    lam = epsilon * f[soft] / (1.0 - f[soft])
    u, v, M, w, cap = _start(C, v0, f, hard, upper, epsilon)
    newton = upper is None and f.min() > 0  # f = 0 (lam = 0) fixes a soft potential at 0
    newton_steps = 0
    m_soft = float(alpha.sum() - beta[hard].sum())
    stepped = soft if lam.size and m_soft > 0 and upper is None else None  # the mass step's columns; None: no step
    alpha_max = float(alpha.max())
    a = np.ones(m)
    Mb = np.empty(m)  # M b, written in place every sweep, as are a and col
    col = np.empty(n)
    b = np.ones(n)
    step = np.ones(n)  # the last move of the absolute column scaling, as a ratio: the momentum
    last_plain = step  # the last sweep's b_plain / b
    momentum = _Momentum()
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        np.divide(alpha, np.dot(M, b, out=Mb), out=a)
        np.dot(M.T, a, out=col)
        b_new = beta / col if w is None else w * (beta / col) ** f  # all hard: w = 1 and f = 1, bit for bit
        _project(b_new, col, cap, stepped, m_soft)
        ratio = b_new / b
        low, high = _min_max(ratio)
        err = max(high - 1.0, 1.0 - low)  # max|ratio - 1|, bit for bit; NaN where ratio holds one
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
            _project(b_new, col, cap, stepped, m_soft)
        last_plain = ratio
        step = b_new / b
        b = b_new
        if newton and it == NEWTON_ENTRY:  # the momentum starts afresh from Newton's iterate
            b, newton_steps = _newton(M, alpha, beta, v, b, epsilon, tol, hard, soft, lam)
            if newton_steps:
                momentum, step, last_plain = _Momentum(), np.ones(n), np.ones(n)
        b_min, b_max = _min_max(b)
        if b_max > ABSORB_THRESHOLD or (_may_exceed(alpha_max, b_min) and a.max() > ABSORB_THRESHOLD):
            v += epsilon * np.log(b)
            u, M, w, cap, _ = _frame(C, v, f, hard, upper, epsilon)
            b = np.ones(n)
    k = n if n_real is None else n_real
    Q = _plan(a, M[:, :k], b[:k])
    col_mass = b[:k] * col[:k]
    with np.errstate(divide="ignore", invalid="ignore"):
        potential = v + epsilon * np.log(b)
        entropic = _entropic_term(Q, u + epsilon * np.log(a), potential[:k], col_mass)
        if k < n and not math.isfinite(float(b[k:] @ col[k:])):  # the unformed columns' mass
            entropic = math.nan
        if stepped is not None:  # remove the offset the mass step leaves (see the docstring)
            potential -= np.mean(potential[soft] - lam * np.log(beta[soft] / (b[soft] * col[soft])))
    return Q, it, converged, potential, entropic, newton_steps, col_mass


def _may_exceed(alpha_max, b_min):
    """False where a = alpha/(M b) certainly lies under ABSORB_THRESHOLD without reading it.

    Every kernel row holds an entry of 1 (`_frame`), so each (M b)_i, a sum
    of nonnegative terms one of which is at least min(b), is at least min(b)
    in floating point too, and max(a) <= max(alpha)/min(b), rounded.
    """
    return not (b_min > 0 and alpha_max / b_min <= ABSORB_THRESHOLD)


def _min_max(x):
    """min and max of the nonnegative K-vector `x`, both NaN where it holds a NaN, as numpy's reductions give them.

    Read through a list of floats, which at K+1 entries costs a fraction of
    two reduction calls. A sum of nonnegative floats is NaN only where one is.
    """
    xs = x.tolist()
    if math.isnan(sum(xs)):
        return math.nan, math.nan
    return min(xs), max(xs)


def _newton(M, alpha, beta, v, b, epsilon, tol, hard, soft, lam):
    """Damped Newton steps on the column potentials from the column scaling `b`; returns (b, steps).

    The rows are eliminated in closed form (a = alpha/(M b)), which leaves
    the semi-dual, a smooth concave function of the column potentials
    V = v + eps log(b) (Cuturi & Peyre, SIAM J. Imaging Sci. 2016):

        F = -eps sum_i alpha_i log (M b)_i + sum_hard beta_j V_j
            - sum_soft lam beta_j s_j,   s_j = exp(-V_j/lam),

    with lam = eps f/(1-f), up to a constant. Its gradient is the column
    residual beta s - c, with c = b * (M^T a) the column masses and s = 1 on
    the hard columns; its negative Hessian is H/eps, with

        H = diag(c) - W^T W + diag(eps beta s/lam)  (the last on soft columns only),
        W = diag(sqrt(alpha)/(M b)) M diag(b)

    (Brauer, Clason, Lorenz & Wirth, "A Sinkhorn-Newton method for entropic
    optimal transport", 2017). A step moves log(b) by x = H^{-1}(beta s - c):
    one N x n scaled copy of M (in this thread's "newton" buffer), one n x n
    product and an n x n solve. With hard columns only, F is constant along
    V + t, so the last column's potential is pinned. A backtracking line
    search halves the step (first capped at NEWTON_MAX_MOVE in log(b))
    until F rises by NEWTON_ARMIJO of the predicted rise. A trial costs a
    sweep's two mat-vecs, M b for the rise and M^T a for the column masses,
    which the accepted one hands to the next step; one whose arithmetic
    over- or underflows (a rise that is not finite, or a column mass that
    is not finite and positive) counts as rejected, without a warning. The
    loop stops once every column's residual is within NEWTON_STOP * tol of
    beta s, after NEWTON_MAX_STEPS steps, or when the system cannot be
    solved or a line search fails after NEWTON_HALVINGS halvings, and
    returns the last accepted iterate. M and v are left as they are: the
    caller's next plain sweep goes on from the returned b, and its stop rule
    decides `converged`.
    """
    n = b.size
    free = slice(0, n - 1 if hard.all() else n)  # the potentials that move: all but a pinned gauge column
    W = workspace("newton", M.shape)
    steps = 0
    with np.errstate(all="ignore"):  # every value a decision reads is checked to be finite
        s = np.ones(n)
        s[soft] = np.exp(-(v[soft] + epsilon * np.log(b[soft])) / lam)
        Mb = M @ b
        c = b * (M.T @ (alpha / Mb))
        while steps < NEWTON_MAX_STEPS:
            target = beta * s
            g = target - c
            if not np.max(np.abs(g) / target) > NEWTON_STOP * tol:  # NaN stops too
                break
            np.multiply(M, b, out=W)  # W_ij = sqrt(alpha_i) Q_ij / alpha_i
            W *= (np.sqrt(alpha) / Mb)[:, None]
            H = -(W.T @ W)
            diagonal = H.reshape(-1)[:: n + 1]  # a view: H is its own contiguous array
            diagonal += c
            diagonal[soft] += epsilon * target[soft] / lam
            x = np.zeros(n)
            try:
                x[free] = np.linalg.solve(H[free, free], g[free])
            except np.linalg.LinAlgError:
                break
            move = np.abs(x).max()
            if move > NEWTON_MAX_MOVE:
                x *= NEWTON_MAX_MOVE / move
            slope = float(g @ x)  # the rise of F/eps along x, per unit step
            if not 0 < slope < math.inf:
                break
            tau = 1.0
            for _ in range(NEWTON_HALVINGS):
                e = tau * x
                b_t = b * np.exp(e)
                Mb_t = M @ b_t
                c_t = b_t * (M.T @ (alpha / Mb_t))
                s_t = s.copy()
                s_t[soft] *= np.exp(-epsilon * e[soft] / lam)
                rise = (float(beta[hard] @ e[hard]) - float(alpha @ np.log(Mb_t / Mb))
                        - float((lam * beta[soft]) @ (s_t[soft] - s[soft])) / epsilon)
                # the sweep goes on from an accepted iterate: its column masses must be finite and positive
                if rise >= NEWTON_ARMIJO * tau * slope and rise < math.inf and 0 < c_t.min() and c_t.max() < math.inf:
                    break
                tau *= 0.5
            else:
                break
            b, Mb, c, s = b_t, Mb_t, c_t, s_t
            steps += 1
    return b, steps


def _plan(a, M, b):
    """diag(a) M diag(b), C-contiguous and its own array, formed in M's columns, which it overwrites.

    a[:, None] * M, then times b, as the plan is defined; the products run
    down M's Fortran-order columns, and one copy takes them to C order. At
    5632 x 10 that takes about half the time of a broadcast that writes C
    order from M (100 against 200 us on a 2-core x86-64 VM).
    """
    np.multiply(a[:, None], M, out=M)
    M *= b
    return M.copy(order="C")


def _entropic_term(Q, U, V, c):
    """sum_i U_i r_i + sum_j V_j c_j, r the row sums of Q, with 0 log 0 := 0 on empty rows and columns.

    A non-finite entry of Q makes its row sum, and so the term, non-finite.
    U is overwritten.
    """
    r = Q @ np.ones(Q.shape[1])
    U[r == 0] = 0.0
    return float(U.dot(r) + np.where(c == 0, 0.0, V) @ c)


def _project(b, col, cap, soft, m_soft):
    """Cap the upper-bounded columns of `b` and take the mass step, in place.

    `cap` is None where no column is upper-bounded (see `_frame`), `soft`
    where the mass step is skipped; `col` is the sweep's M^T a.
    """
    if cap is not None:
        np.minimum(b, cap, out=b)
    if soft is not None:
        soft_mass = float(b[soft].dot(col[soft]))  # the method: ~0.6 us less per call than @ on a K-vector
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


def _start(C, v0, f, hard, upper, epsilon):
    """(u, v, M, w, cap): the `_frame` of `v0` where it has one entry per column and the recursion can
    recover from it (see `scaling_weighted_kl`), else of zeros, so a rejected `v0` is the cold start.
    """
    if v0 is not None and np.shape(v0) != f.shape:
        v0 = None
    if v0 is not None:
        v = np.array(v0, dtype=np.float64)  # a copy: the loop updates it in place
        log_w = v * (f - 1.0) / epsilon
        if not np.all(np.isfinite(v)) or np.any(np.abs(log_w) > math.log(ABSORB_THRESHOLD)):
            v0 = None
        elif upper is not None and abs(v[upper].max()) / epsilon > math.log(ABSORB_THRESHOLD):
            v0 = None  # an upper-bounded solution's largest potential is 0 there
    if v0 is None:
        v = np.zeros(C.shape[1])
    u, M, w, cap, col_max = _frame(C, v, f, hard, upper, epsilon)
    if v0 is not None and col_max.min() / epsilon < LOG_FLOOR:
        return _start(C, None, f, hard, upper, epsilon)
    return u, v, M, w, cap


def _frame(C, v, f, hard, upper, epsilon):
    """(u, M, w, cap, col_max) of the column potential `v`: all a sweep reads, and each column's largest exponent.

    M is `_floored_exp` of v - C less its row maxima, in this thread's
    buffer. A hard column that is not upper-bounded and whose every entry
    would fall under the floor has its potential raised, in `v`, until its
    largest entry is 1; w and cap (see "The frame" in `scaling_weighted_kl`)
    are of the lifted `v`, w None where every column is hard, cap where
    `upper` is None.
    """
    M = workspace("kernel", C.shape)  # the argument, which becomes the kernel in place
    np.subtract(v[None, :], C, out=M)
    row_max = M.max(axis=1)
    M -= row_max[:, None]
    col_max = M.max(axis=0)  # each column's largest entry, <= 0 as every row's largest is 0
    lift = hard if upper is None else hard & ~upper
    low = lift & (col_max / epsilon < LOG_FLOOR)
    if low.any():
        lifted = np.where(low, -col_max, 0.0)
        v += lifted
        M += lifted[None, :]
        col_max += lifted
    w = None if hard.all() else np.where(hard, 1.0, np.exp(v * (f - 1.0) / epsilon))
    with np.errstate(over="ignore"):
        cap = None if upper is None else np.where(upper, np.exp(-v / epsilon), math.inf)
    return -row_max, _floored_exp(M, epsilon), w, cap, col_max


def _floored_exp(M, epsilon):
    """M <- max(exp(M/eps), KERNEL_FLOOR) in place, and M: a kernel from its exponent's argument.

    The one build of every kernel: the recursion's start and absorptions,
    and the baseline's. The floor keeps a column whose entries all underflow
    nonzero, so its scaling update never divides by a zero mass.
    """
    M /= epsilon
    np.exp(M, out=M)
    if M.min() < KERNEL_FLOOR:  # else the floor moves no entry; the reduction costs half its pass
        np.maximum(M, KERNEL_FLOOR, out=M)
    return M


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
    then at most tol * sum(alpha). Like the recursion, it also stops at the
    first sweep whose change is not finite. The mass step's M b_new is the
    next sweep's M b, so a sweep runs two mat-vecs, not three.

    Returns (Q, iterations, converged).
    """
    C = np.asfortranarray(C, dtype=np.float64)
    m, n = C.shape
    M = _floored_exp(np.negative(C), epsilon)
    b = np.ones(n)
    Mb = M @ b
    s = 1.0
    relaxed = rho < 1.0
    converged = False
    it = 0
    a = np.ones(m)
    for it in range(1, max_iter + 1):
        if relaxed:
            a = alpha / (1.0 + s * Mb)
        else:
            a = np.minimum(alpha / (s * Mb), 1.0)
        b_new = (beta / (s * (M.T @ a))) ** f
        Mb = M @ b_new
        s_new = rho / float(a @ Mb)
        err = float(np.max(np.abs(s_new * b_new / (s * b) - 1.0)))
        b = b_new
        s = s_new
        # a non-finite change: the scalings have under- or overflowed
        if err < tol or not math.isfinite(err):
            converged = err < tol
            break
    return _plan(s * a, M, b), it, converged
