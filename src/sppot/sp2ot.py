"""Semantic-regularized partial transport via projected mirror descent.

The objective is P2OT's entropic program minus one graph term,
lambda1 <A, Q Q^T>. The outer loop alternates linearization of the smooth
part f(Q) = <Q, C0> - lambda1 <A, Q Q^T>, C0 = -log P (whose gradient serves
as the cost) with a KL projection onto the partial-transport polytope,
realized by the fast virtual-column solver. When A is PSD, f is concave on
the feasible set and each outer step is a majorization-minimization descent
step. `Sp2otProblem` holds the graph as CSR, as given, and is the only part
of this module that loads `scipy.sparse`; `sp2ot_gradient` alone multiplies
it. Each step's objective takes its P2OT part from the inner plan.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .graph import dense_to_csr
from .ot_core import ScalingConfig, TransportPlan, prediction_cost, xlogx
from .p2ot import P2otProblem, solve_p2ot_fast

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Sp2otProblem:
    pred: np.ndarray
    # N x N finite nonnegative weights, dense ndarray or scipy sparse, held as CSR and never
    # written to: a float64 CSR as given, sharing its arrays (products sum its duplicates and
    # explicit zeros in stored order), another sparse format converted in O(nnz), a dense one
    # scanned once (`graph.dense_to_csr`, O(N^2)). Diagonal and asymmetric entries are kept.
    adjacency: sparse.csr_array
    lambda1: float
    lambda2: float
    rho: float
    epsilon: float
    outer_tol: float = 1e-5
    outer_max_iter: int = 10
    inner: ScalingConfig | None = None  # the inner solves' stopping rule; its epsilon must be `epsilon`
    # the P2OT problem every inner solve projects onto; building it checks pred and rho
    projection: P2otProblem = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        from scipy import sparse  # here, not at import: P2OT and the OT family never load it

        if not (self.lambda1 >= 0 and self.lambda2 >= 0):  # NaN fails too
            raise ValueError("lambda1 and lambda2 must be >= 0")
        if not self.outer_max_iter >= 1:
            raise ValueError("outer_max_iter must be >= 1")
        if not self.outer_tol >= 0:  # NaN fails too
            raise ValueError("outer_tol must be >= 0")
        if self.inner is not None and self.inner.epsilon != self.epsilon:
            raise ValueError(f"inner.epsilon {self.inner.epsilon} differs from epsilon {self.epsilon}")
        if self.inner is None:
            object.__setattr__(self, "inner", ScalingConfig(epsilon=self.epsilon))
        # pred, rho and lambda2 are checked here, before the graph's O(N^2) or O(nnz) conversion
        projection = P2otProblem(self.pred, self.rho, self.lambda2, self.inner)
        N = projection.pred.shape[0]
        if sparse.issparse(self.adjacency):
            A = sparse.csr_array(self.adjacency, dtype=float)
        else:
            A = dense_to_csr(self.adjacency)
        if A.shape != (N, N):
            raise ValueError("adjacency must be N x N for N samples")
        if not np.all(np.isfinite(A.data)):
            raise ValueError("adjacency entries must be finite")
        if np.any(A.data < 0):
            raise ValueError("adjacency entries must be nonnegative")
        object.__setattr__(self, "pred", projection.pred)
        object.__setattr__(self, "adjacency", A)
        object.__setattr__(self, "projection", projection)


@dataclass
class PmdTrace:
    objectives: list[float] = field(default_factory=list)
    inner_iterations: list[int] = field(default_factory=list)
    inner_newton_steps: list[int] = field(default_factory=list)
    inner_converged: list[bool] = field(default_factory=list)
    frobenius_changes: list[float] = field(default_factory=list)

    def ascents(self, tol: float) -> int:  # rises above tol * max(|F_t|, |F_t+1|); a smaller one may be inner inexactness
        return sum(b - a > tol * max(abs(a), abs(b)) for a, b in zip(self.objectives, self.objectives[1:]))


def sp2ot_gradient(cost0: np.ndarray, adjacency, lambda1: float, plan: np.ndarray) -> np.ndarray:
    """Gradient of the smooth part: C0 - lambda1 (A Q + A^T Q), a new array (C0 bit for bit at lambda1 = 0).

    `adjacency` is multiplied as given: O(nnz K) for the CSR graph of
    `Sp2otProblem.adjacency`, O(N^2 K) for a dense array.
    """
    C0 = np.asarray(cost0, dtype=float)
    Q = np.asarray(plan, dtype=float)
    return C0 - lambda1 * (adjacency @ Q + adjacency.T @ Q)


def sp2ot_objective(plan: TransportPlan, cost0, cost_in, cost, epsilon) -> float:
    """<Q,C0> - lambda1 <A, QQ^T> + lambda2 KL(col(Q), rho/K) - eps H(Q, xi).

    `plan` is the inner P2OT solve on `cost_in`, whose `objective` is
    <Q, cost_in> + lambda2 KL(col(Q), rho/K) - eps H(Q): only its linear term
    is swapped, with no pass over log Q. The entropy also covers the per-row
    slack xi = 1/N - row(Q), as in the inner virtual-column program; dropping
    it would break the outer loop's monotone descent by its variation.

    `cost` is the plan's `sp2ot_gradient(C0, A, lambda1, Q)`: as <A, QQ^T> =
    1/2 <Q, (A + A^T) Q>, the semantic term is 1/2 <Q, cost - C0>.
    """
    Q = plan.coupling
    # einsum, not np.vdot: a BLAS ddot here had a tail of milliseconds after its threads slept
    val = plan.objective + 0.5 * float(np.einsum("ij,ij->", Q, cost0) + np.einsum("ij,ij->", Q, cost))
    val -= float(np.einsum("ij,ij->", Q, cost_in))
    return val + epsilon * float(np.sum(xlogx(1.0 / Q.shape[0] - Q @ np.ones(Q.shape[1]))))  # row sums as a BLAS mat-vec


def lambda1_decayed(lambda1_0: float, rho: float) -> float:
    """Semantic weight decay: lambda1_0 * (1 - rho)."""
    if not lambda1_0 >= 0:  # NaN fails too
        raise ValueError("lambda1_0 must be >= 0")
    if not 0 <= rho <= 1:
        raise ValueError("rho must be in [0, 1]")
    return lambda1_0 * (1.0 - rho)


def solve_sp2ot(problem: Sp2otProblem) -> tuple[TransportPlan, PmdTrace]:
    """Outer linearize-then-project loop.

    Q starts uniform with total mass rho; each outer step projects the cost
    C = C0 - lambda1 (A + A^T) Q via the fast partial-transport solver,
    warm-started from the previous step's column potential. The inner plan
    and the new plan's C give its objective; that C is the next step's cost.
    Stops when the relative Frobenius change of Q drops below outer_tol or
    outer_max_iter is hit.
    """
    C0 = prediction_cost(problem.pred)
    Q = np.full(C0.shape, problem.rho / C0.size)
    trace = PmdTrace()
    plan = None
    semantic_on = problem.lambda1 != 0 and problem.adjacency.data.any()  # explicit zeros leave it off
    C = sp2ot_gradient(C0, problem.adjacency, problem.lambda1, Q)
    for _ in range(problem.outer_max_iter):
        plan = solve_p2ot_fast(problem.projection, cost=C, init=None if plan is None else plan.col_potential)
        change = float(np.linalg.norm(plan.coupling - Q) / max(np.linalg.norm(Q), 1e-300))
        Q = plan.coupling
        C_in, C = C, sp2ot_gradient(C0, problem.adjacency, problem.lambda1, Q)
        trace.objectives.append(sp2ot_objective(plan, C0, C_in, C, problem.epsilon))
        trace.inner_iterations.append(plan.iterations)
        trace.inner_converged.append(plan.converged)
        trace.inner_newton_steps.append(plan.newton_steps)
        trace.frobenius_changes.append(change)
        if not semantic_on or change < problem.outer_tol:
            break
    if ascents := trace.ascents(problem.inner.tol):
        log.warning("objective increased in %d of %d outer steps (largest rise %.3e); adjacency may not be PSD",
                    ascents, len(trace.objectives), float(np.max(np.diff(trace.objectives))))
    return TransportPlan(Q, trace.objectives[-1], sum(trace.inner_iterations), plan.converged, plan.col_potential,
                         sum(trace.inner_newton_steps)), trace
