"""Semantic-regularized partial transport via projected mirror descent.

The outer loop alternates linearization of the smooth objective
f(Q) = <Q, -log P> - lambda1 <A, Q Q^T> (whose gradient serves as the cost)
with a KL projection onto the partial-transport polytope, realized by the
fast virtual-column solver. When A is PSD, f is concave on the feasible set
and each outer step is a majorization-minimization descent step.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .graph import dense_to_csr
from .ot_core import ScalingConfig, TransportPlan, clamp_probabilities, weighted_kl_value, xlogx
from .p2ot import P2otProblem, solve_p2ot_fast

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Sp2otProblem:
    pred: np.ndarray
    # N x N finite nonnegative weights, dense ndarray or scipy sparse; stored as a canonical
    # CSR copy (sorted indices, duplicates summed) without explicit zeros. A dense matrix is
    # scanned once (`graph.dense_to_csr`, O(N^2)); a sparse one is copied in O(nnz). Diagonal
    # and asymmetric entries are kept.
    adjacency: sparse.csr_array
    lambda1: float
    lambda2: float
    rho: float
    epsilon: float
    outer_tol: float = 1e-5
    outer_max_iter: int = 10
    inner: ScalingConfig | None = None  # the inner solves' stopping rule; its epsilon must be `epsilon`

    def __post_init__(self):
        P = np.asarray(self.pred, dtype=float)
        A = _as_csr(self.adjacency, copy=True)  # never alias the caller's arrays
        A.eliminate_zeros()
        A.sum_duplicates()  # fixes the summation order of every product with A
        if A.shape != (P.shape[0], P.shape[0]):
            raise ValueError("adjacency must be N x N for N samples")
        if not np.all(np.isfinite(A.data)):
            raise ValueError("adjacency entries must be finite")
        if np.any(A.data < 0):
            raise ValueError("adjacency entries must be nonnegative")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("lambda1 and lambda2 must be >= 0")
        if self.inner is not None and self.inner.epsilon != self.epsilon:
            raise ValueError(f"inner.epsilon {self.inner.epsilon} differs from epsilon {self.epsilon}")
        object.__setattr__(self, "pred", P)
        object.__setattr__(self, "adjacency", A)
        if self.inner is None:
            object.__setattr__(self, "inner", ScalingConfig(epsilon=self.epsilon))


@dataclass
class PmdTrace:
    objectives: list[float] = field(default_factory=list)
    inner_iterations: list[int] = field(default_factory=list)
    frobenius_changes: list[float] = field(default_factory=list)
    ascents: int = 0  # outer steps whose objective rose by more than 1e-12 over the previous one


def sp2ot_gradient(cost0: np.ndarray, adjacency, lambda1: float, plan: np.ndarray) -> np.ndarray:
    """Gradient of the smooth part: C0 - lambda1 (A Q + A^T Q).

    `adjacency` is a dense ndarray or a scipy sparse matrix; the products cost
    O(nnz K) on CSR input. A dense one is first converted by `graph.dense_to_csr`,
    an O(N^2) scan on every call: pass CSR (`Sp2otProblem.adjacency`) in a loop.
    """
    C0 = np.asarray(cost0, dtype=float)
    A = _as_csr(adjacency)
    Q = np.asarray(plan, dtype=float)
    if lambda1 == 0:
        return C0.copy()
    return C0 - lambda1 * (A @ Q + A.T @ Q)


def sp2ot_objective(plan, pred, adjacency, lambda1, lambda2, rho, epsilon) -> float:
    """<Q,-log P> - lambda1 <A, QQ^T> + lambda2 KL(col(Q), rho/K) - eps H(Q, xi).

    The entropy covers both the plan and the per-row slack xi = 1/N - row(Q),
    matching the program the inner virtual-column solver minimizes; dropping
    the slack term would break the monotone-descent guarantee of the outer
    loop by exactly its variation between iterates.

    `adjacency` is a dense ndarray or a scipy sparse matrix; the semantic
    term <A, Q Q^T> = sum(Q * (A Q)) costs O(nnz K) on CSR input. A dense one
    is first converted by `graph.dense_to_csr`, an O(N^2) scan on every call.
    """
    Q = np.asarray(plan, dtype=float)
    P = clamp_probabilities(pred)
    N, K = Q.shape
    val = float(np.sum(Q * -np.log(P)))
    if lambda1 != 0:
        A = _as_csr(adjacency)
        val -= lambda1 * float(np.sum(Q * (A @ Q)))
    col = Q.sum(axis=0)
    val += weighted_kl_value(col, np.full(K, rho / K), np.full(K, lambda2))
    val += epsilon * float(np.sum(xlogx(Q)))
    slack = np.maximum(1.0 / N - Q.sum(axis=1), 0.0)
    val += epsilon * float(np.sum(xlogx(slack)))
    return val


def _as_csr(adjacency, copy: bool = False) -> sparse.csr_array:
    if sparse.issparse(adjacency):
        return sparse.csr_array(adjacency, dtype=float, copy=copy)
    return dense_to_csr(adjacency)  # owns its arrays


def lambda1_decayed(lambda1_0: float, rho: float) -> float:
    """Semantic weight decay: lambda1_0 * (1 - rho)."""
    if lambda1_0 < 0:
        raise ValueError("lambda1_0 must be >= 0")
    if not 0 <= rho <= 1:
        raise ValueError("rho must be in [0, 1]")
    return lambda1_0 * (1.0 - rho)


def solve_sp2ot(problem: Sp2otProblem) -> tuple[TransportPlan, PmdTrace]:
    """Outer linearize-then-project loop.

    Q starts uniform with total mass rho; each outer step builds the cost
    C = C0 - lambda1 (A + A^T) Q and projects via the fast partial-transport
    solver, warm-started from the previous step's column potential. Stops
    when the relative Frobenius change of Q drops below outer_tol or
    outer_max_iter is hit.
    """
    P = clamp_probabilities(problem.pred)
    N, K = P.shape
    C0 = -np.log(P)
    Q = np.full((N, K), problem.rho / (N * K))
    inner_problem = P2otProblem(problem.pred, problem.rho, problem.lambda2, problem.inner)
    trace = PmdTrace()
    plan = None
    semantic_on = problem.lambda1 != 0 and problem.adjacency.nnz > 0
    prev_obj = np.inf
    for _ in range(problem.outer_max_iter):
        C = sp2ot_gradient(C0, problem.adjacency, problem.lambda1, Q)
        plan = solve_p2ot_fast(inner_problem, cost=C, init=None if plan is None else plan.col_potential)
        change = float(np.linalg.norm(plan.coupling - Q) / max(np.linalg.norm(Q), 1e-300))
        Q = plan.coupling
        obj = sp2ot_objective(Q, P, problem.adjacency, problem.lambda1, problem.lambda2,
                              problem.rho, problem.epsilon)
        trace.objectives.append(obj)
        trace.inner_iterations.append(plan.iterations)
        trace.frobenius_changes.append(change)
        if obj > prev_obj + 1e-12:
            trace.ascents += 1
        prev_obj = obj
        if not semantic_on or change < problem.outer_tol:
            break
    if trace.ascents:
        log.warning("objective increased in %d of %d outer steps (largest rise %.3e); adjacency may not be PSD",
                    trace.ascents, len(trace.objectives), float(np.max(np.diff(trace.objectives))))
    final = TransportPlan(Q, trace.objectives[-1], sum(trace.inner_iterations), plan.converged, plan.col_potential)
    return final, trace
