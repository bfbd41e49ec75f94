"""NumPy scaling kernels, the only implementation of the two hot loops.

The stabilized row-equality / column-exponent scaling recursion runs every
balanced, unbalanced, partial and P2OT solve, through
`ot_core._solve_row_eq`. The generalized scaling baseline enforces the
total-mass constraint through an extra scalar rescale each sweep and serves
`p2ot.solve_p2ot_gsa` only. Each sweep is two (baseline: three) BLAS
mat-vecs over the N x K kernel.

Callers look these functions up on the module (`kernels.scaling_weighted_kl`)
at call time, never through a name bound at import, so a wrapper installed
on this module (the perfbench tracer) sees every call.
"""

import numpy as np

KERNEL_FLOOR = 1e-300


def scaling_weighted_kl(C, alpha, beta, f, epsilon, tol, max_iter, threshold):
    """Stabilized scaling recursion.

    a <- alpha/(M b); b <- w * (beta/(M^T a))^f, with log-domain absorption
    of (a, b) into potentials (u, v) whenever either vector exceeds
    `threshold`. Targets in `beta` must be strictly positive.

    The loop stops once the largest relative change of the column scaling,
    max|b_new/b - 1|, falls below `tol`; the measure does not depend on the
    scale of b. Each row of the returned plan is then within a factor
    1 +- tol of its target, so the L1 row-marginal error is at most
    tol * sum(alpha), and hard columns (f == 1) are exact after their own
    update. For the virtual-column extension, `converged` therefore means
    that the selected mass is within tol * sum(alpha) of its target.

    Returns (Q, iterations, converged, b_change_history), where the history
    holds the relative change of every sweep.
    """
    m, n = C.shape
    M = np.maximum(np.exp(-C / epsilon), KERNEL_FLOOR)
    a = np.ones(m)
    b = np.ones(n)
    u = np.zeros(m)
    v = np.zeros(n)
    w = np.ones(n)
    hard = f == 1.0
    errs = np.empty(max_iter)
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        a = alpha / (M @ b)
        b_new = w * (beta / (M.T @ a)) ** f
        err = float(np.max(np.abs(b_new / b - 1.0)))
        errs[it - 1] = err
        b = b_new
        if err < tol:
            converged = True
            break
        if max(a.max(), b.max()) > threshold:
            u += epsilon * np.log(a)
            v += epsilon * np.log(b)
            w = np.where(hard, 1.0, w * b ** (f - 1.0))
            M = np.exp((u[:, None] - C + v[None, :]) / epsilon)
            a = np.ones(m)
            b = np.ones(n)
    Q = a[:, None] * M * b[None, :]
    return Q, it, converged, errs[:it].copy()


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
    Q = s * a[:, None] * M * b[None, :]
    return Q, it, converged, errs[:it].copy()
