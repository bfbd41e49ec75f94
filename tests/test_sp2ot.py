import re

import numpy as np
import numpy.testing as npt
import pytest
from scipy import sparse

from conftest import random_pred
from sppot.ot_core import ScalingConfig, TransportPlan, entropic_objective, prediction_cost, weighted_kl_value, xlogx
from sppot.p2ot import P2otProblem, solve_p2ot_fast
from sppot.sp2ot import (
    PmdTrace,
    Sp2otProblem,
    lambda1_decayed,
    solve_sp2ot,
    sp2ot_gradient,
    sp2ot_objective,
)


def knn_like_adjacency(n, seed, k=4):
    """Random nonnegative adjacency with zero diagonal."""
    rng = np.random.default_rng(seed)
    A = np.zeros((n, n))
    for i in range(n):
        cols = rng.choice([j for j in range(n) if j != i], size=min(k, n - 1), replace=False)
        A[i, cols] = rng.uniform(0.1, 1.0, size=cols.size)
    return A


def inner_plan(Q, cost_in, lambda2, rho, eps):
    """The plan of an inner P2OT solve on `cost_in`: its objective is `entropic_objective` there."""
    return TransportPlan(Q, entropic_objective(Q, cost_in, rho / Q.shape[1], lambda2, eps), 0, True)


def unsorted_csr_with_duplicate_and_zero(n, seed):
    """Three CSR forms of one random graph: `A` stores every row's columns descending, row 0's
    first edge as two duplicate entries, and an explicit zero on node 2's diagonal;
    `without_zero` is `A`'s storage less that zero; `summed` is the canonical, zero-free
    matrix of both."""
    dense = knn_like_adjacency(n, seed)
    indptr, indices, data = [0], [], []
    for i, row in enumerate(dense):
        cols = np.flatnonzero(row)[::-1]
        vals = row[cols]
        if i == 0:  # 0.3 v + 0.7 v, a sum that can round away from v
            cols, vals = np.r_[cols[:1], cols], np.r_[0.3 * vals[:1], 0.7 * vals[:1], vals[1:]]
        if i == 2:
            cols, vals = np.r_[cols[:1], 2, cols[1:]], np.r_[vals[:1], 0.0, vals[1:]]
        indices.extend(cols)
        data.extend(vals)
        indptr.append(len(indices))
    A = sparse.csr_array((np.array(data), np.array(indices, dtype=np.int32), np.array(indptr, dtype=np.int32)),
                         shape=(n, n))
    zero = indptr[2] + 1
    without_zero = sparse.csr_array((np.delete(A.data, zero), np.delete(A.indices, zero),
                                     A.indptr - (np.arange(n + 1) > 2)), shape=(n, n))
    summed = A.copy()
    summed.sum_duplicates()
    summed.eliminate_zeros()
    assert not A.has_sorted_indices and A.nnz == summed.nnz + 2 == without_zero.nnz + 1
    return A, without_zero, summed


def psd_adjacency(n, seed):
    rng = np.random.default_rng(seed)
    G = np.abs(rng.normal(size=(n, n)))
    return G.T @ G


class TestValidation:
    def test_adjacency_shape(self):
        with pytest.raises(ValueError):
            Sp2otProblem(random_pred(4, 2, 0), np.zeros((3, 3)), 1.0, 1.0, 0.5, 0.1)

    def test_adjacency_nonnegative(self):
        A = np.zeros((4, 4))
        A[0, 1] = -1.0
        with pytest.raises(ValueError):
            Sp2otProblem(random_pred(4, 2, 0), A, 1.0, 1.0, 0.5, 0.1)

    def test_sparse_adjacency_nonnegative(self):
        A = sparse.csr_array(([1.0, -0.5], ([0, 2], [1, 3])), shape=(4, 4))
        with pytest.raises(ValueError):
            Sp2otProblem(random_pred(4, 2, 0), A, 1.0, 1.0, 0.5, 0.1)

    def test_sparse_adjacency_shape(self):
        with pytest.raises(ValueError):
            Sp2otProblem(random_pred(4, 2, 0), sparse.csr_array((4, 5)), 1.0, 1.0, 0.5, 0.1)

    def test_csr_held_as_given_and_left_unchanged(self):
        A, _, _ = unsorted_csr_with_duplicate_and_zero(8, seed=5)
        before = [a.copy() for a in (A.data, A.indices, A.indptr)]
        problem = Sp2otProblem(random_pred(8, 2, 0), A, 5.0, 1.0, 0.5, 0.1)
        held = problem.adjacency
        for mine, theirs in ((held.data, A.data), (held.indices, A.indices), (held.indptr, A.indptr)):
            assert np.shares_memory(mine, theirs)
        assert held.format == "csr" and held.nnz == A.nnz
        solve_sp2ot(problem)
        for after, was in zip((A.data, A.indices, A.indptr), before):
            assert after.dtype == was.dtype and np.array_equal(after, was)
        # a dense graph is still scanned into the CSR of its nonzeros
        dense = Sp2otProblem(random_pred(8, 2, 0), A.toarray(), 5.0, 1.0, 0.5, 0.1).adjacency
        assert dense.format == "csr" and dense.has_canonical_format and np.all(dense.data != 0)

    def test_inner_epsilon_must_be_epsilon(self):
        # the objective is evaluated at `epsilon`, the inner solves run at inner.epsilon
        P, A = np.full((4, 2), 0.5), np.eye(4)
        with pytest.raises(ValueError, match="inner.epsilon 0.01 differs from epsilon 0.1"):
            Sp2otProblem(P, A, 1.0, 1.0, 0.5, 0.1, inner=ScalingConfig(epsilon=0.01))
        problem = Sp2otProblem(P, A, 1.0, 1.0, 0.5, 0.1, inner=ScalingConfig(epsilon=0.1, tol=1e-9))
        assert problem.inner.tol == 1e-9
        assert Sp2otProblem(P, A, 1.0, 1.0, 0.5, 0.1).inner == ScalingConfig(epsilon=0.1)

    def test_negative_weights_rejected(self):
        A = np.zeros((4, 4))
        with pytest.raises(ValueError):
            Sp2otProblem(random_pred(4, 2, 0), A, -1.0, 1.0, 0.5, 0.1)

    @pytest.mark.parametrize("lambda1, lambda2", [(np.nan, 1.0), (1.0, np.nan), (-np.inf, 1.0), (1.0, -np.inf)])
    def test_nan_weights_rejected(self, lambda1, lambda2):
        # NaN passed `< 0`: lambda1 failed later on a finite-cost check, lambda2 at solve time
        A = np.zeros((4, 4))
        with pytest.raises(ValueError, match="lambda1 and lambda2 must be >= 0"):
            Sp2otProblem(random_pred(4, 2, 0), A, lambda1, lambda2, 0.5, 0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("fmt", ["dense", "csr"])
    def test_nonfinite_adjacency_rejected(self, bad, fmt):
        # NaN passed the nonnegativity check and the solve failed later on a finite-cost check
        A = knn_like_adjacency(30, seed=3)
        A[4, 7] = bad
        with pytest.raises(ValueError, match="adjacency entries must be finite"):
            Sp2otProblem(random_pred(30, 3, 0), A if fmt == "dense" else sparse.csr_array(A), 1.0, 1.0, 0.5, 0.1)

    @pytest.mark.parametrize("shape", [(4,), (4, 4, 1), (4, 5)])
    def test_dense_adjacency_not_square_rejected(self, shape):
        with pytest.raises(ValueError):
            Sp2otProblem(random_pred(4, 2, 0), np.ones(shape), 1.0, 1.0, 0.5, 0.1)

    @pytest.mark.parametrize("outer_max_iter", [0, -2])
    def test_outer_max_iter_below_one_rejected(self, outer_max_iter):
        # the solve used to raise IndexError on an empty trace
        with pytest.raises(ValueError, match="outer_max_iter must be >= 1"):
            Sp2otProblem(random_pred(4, 2, 0), np.eye(4), 1.0, 1.0, 0.5, 0.1, outer_max_iter=outer_max_iter)

    @pytest.mark.parametrize("outer_tol", [np.nan, -1e-5, -np.inf])
    def test_outer_tol_below_zero_rejected(self, outer_tol):
        # a NaN tolerance used to be accepted, and no change is below it
        with pytest.raises(ValueError, match="outer_tol must be >= 0"):
            Sp2otProblem(random_pred(4, 2, 0), np.eye(4), 1.0, 1.0, 0.5, 0.1, outer_tol=outer_tol)

    @pytest.mark.parametrize("pred, rho, message", [
        (random_pred(4, 2, 0), 1.5, "rho must be in (0, 1]"),
        (random_pred(4, 2, 0), 0.0, "rho must be in (0, 1]"),
        (random_pred(4, 2, 0), np.nan, "rho must be in (0, 1]"),
        (0.6 * random_pred(4, 2, 0), 0.5, "pred rows must sum to 1 within 1e-6"),
        (np.full(4, 0.25), 0.5, "pred must be a 2-D probability matrix"),
        (np.array(1.0), 0.5, "pred must be a 2-D probability matrix"),
        (np.full(3, 1 / 3), 0.5, "pred must be a 2-D probability matrix"),  # its length does not match the graph
    ])
    def test_projection_inputs_rejected_at_construction(self, pred, rho, message):
        # construction checks pred and rho, as the inner P2OT problem does, before it reads the graph
        with pytest.raises(ValueError, match=re.escape(message)):
            Sp2otProblem(pred, np.eye(4), 1.0, 1.0, rho, 0.1)

    def test_projection_is_the_inner_p2ot_problem(self):
        inner = ScalingConfig(epsilon=0.1, tol=1e-9)
        problem = Sp2otProblem(random_pred(4, 2, 0), np.eye(4), 1.0, 2.0, 0.5, 0.1, inner=inner)
        projection = problem.projection
        assert isinstance(projection, P2otProblem)
        assert projection.pred is problem.pred
        assert (projection.rho, projection.lam, projection.cfg) == (0.5, 2.0, inner)

    def test_dense_adjacency_copied(self):
        A = knn_like_adjacency(6, seed=4)
        before = A.copy()
        problem = Sp2otProblem(random_pred(6, 2, 0), A, 1.0, 1.0, 0.5, 0.1)
        problem.adjacency.data[:] = 7.0
        npt.assert_array_equal(A, before)


class TestGradient:
    def test_zero_lambda_returns_cost(self):
        C = np.arange(12.0).reshape(4, 3)
        A = knn_like_adjacency(4, seed=0)
        out = sp2ot_gradient(C, A, 0.0, np.ones((4, 3)))
        npt.assert_array_equal(out, C)
        assert out is not C  # defensive copy

    @pytest.mark.parametrize("lam1", [0.5, 1000.0])
    def test_graph_without_edges_returns_cost(self, lam1):
        C = np.arange(12.0).reshape(4, 3) - 5.0
        Q = np.random.default_rng(3).uniform(0.01, 0.1, size=(4, 3))
        explicit_zeros = sparse.csr_array((np.zeros(3), ([0, 1, 3], [1, 2, 0])), shape=(4, 4))
        assert explicit_zeros.nnz == 3
        for A in (explicit_zeros, sparse.csr_array((4, 4)), np.zeros((4, 4))):
            out = sp2ot_gradient(C, A, lam1, Q)
            assert np.array_equal(out, C)
            assert out is not C

    def test_leaves_the_callers_graph_as_it_was(self):
        A = sparse.csr_array(([1.0, 2.0, 0.5], [2, 0, 2], [0, 3, 3, 3]), shape=(3, 3))
        C, Q = np.zeros((3, 2)), np.full((3, 2), 0.1)
        out = sp2ot_gradient(C, A, 2.0, Q)
        npt.assert_array_equal(A.indices, [2, 0, 2])
        dense = A.toarray()
        npt.assert_allclose(out, -2.0 * (dense @ Q + dense.T @ Q), rtol=1e-15)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(1)
        n, k = 8, 3
        C = rng.normal(size=(n, k))
        A = knn_like_adjacency(n, seed=2)
        lam1 = 2.5
        Q = rng.uniform(0.01, 0.1, size=(n, k))

        def f(Qx):
            return float(np.sum(Qx * C)) - lam1 * float(np.sum(A * (Qx @ Qx.T)))

        grad = sp2ot_gradient(C, A, lam1, Q)
        h = 1e-6
        num = np.zeros_like(Q)
        for i in range(n):
            for j in range(k):
                E = np.zeros_like(Q)
                E[i, j] = h
                num[i, j] = (f(Q + E) - f(Q - E)) / (2 * h)
        npt.assert_allclose(grad, num, rtol=1e-6, atol=1e-7)


class TestDenseAndSparseAgree:
    def setup_method(self):
        rng = np.random.default_rng(17)
        self.A = knn_like_adjacency(30, seed=18, k=5)
        self.C = rng.normal(size=(30, 4))
        self.Q = rng.uniform(0.001, 0.01, size=(30, 4))
        self.P = random_pred(30, 4, seed=19)

    @pytest.mark.parametrize("fmt", ["csr", "csc", "coo"])
    def test_gradient(self, fmt):
        dense = sp2ot_gradient(self.C, self.A, 3.0, self.Q)
        sp = sp2ot_gradient(self.C, sparse.csr_array(self.A).asformat(fmt), 3.0, self.Q)
        npt.assert_allclose(sp, dense, rtol=1e-12, atol=0)

    def test_objective(self):
        C0 = prediction_cost(self.P)
        plan = inner_plan(self.Q, self.C, 1.0, 0.5, 0.1)
        dense = sp2ot_objective(plan, C0, self.C, sp2ot_gradient(C0, self.A, 3.0, self.Q), 0.1)
        sp = sp2ot_objective(plan, C0, self.C, sp2ot_gradient(C0, sparse.csr_array(self.A), 3.0, self.Q), 0.1)
        npt.assert_allclose(sp, dense, rtol=1e-12, atol=0)

    def test_gradient_rejects_non_square_dense(self):
        with pytest.raises(ValueError):
            sp2ot_gradient(self.C, np.ones((30, 29)), 3.0, self.Q)

    def test_solve_bit_identical(self):
        cfg = ScalingConfig(epsilon=0.1, tol=1e-9, max_iter=5000)
        runs = [solve_sp2ot(Sp2otProblem(self.P, A, 5.0, 1.0, 0.5, 0.1, inner=cfg))
                for A in (self.A, sparse.csr_array(self.A))]
        (d_plan, d_trace), (s_plan, s_trace) = runs
        assert np.array_equal(d_plan.coupling, s_plan.coupling)
        assert d_plan.objective == s_plan.objective
        assert d_trace.objectives == s_trace.objectives
        assert d_trace.inner_iterations == s_trace.inner_iterations

    def test_unsorted_duplicate_and_zero_give_the_summed_gradient(self):
        A, _, summed = unsorted_csr_with_duplicate_and_zero(30, seed=21)
        held = Sp2otProblem(self.P, A, 3.0, 1.0, 0.5, 0.1).adjacency
        npt.assert_allclose(sp2ot_gradient(self.C, held, 3.0, self.Q), sp2ot_gradient(self.C, summed, 3.0, self.Q),
                            rtol=1e-12, atol=0)

    def test_explicit_zero_leaves_the_solve_bit_identical(self):
        A, without_zero, _ = unsorted_csr_with_duplicate_and_zero(30, seed=21)
        cfg = ScalingConfig(epsilon=0.1, tol=1e-9, max_iter=5000)
        (plan, trace), (ref_plan, ref_trace) = (solve_sp2ot(Sp2otProblem(self.P, G, 5.0, 1.0, 0.5, 0.1, inner=cfg))
                                                for G in (A, without_zero))
        assert len(trace.objectives) > 1
        assert np.array_equal(plan.coupling, ref_plan.coupling)
        assert plan.objective == ref_plan.objective and trace.objectives == ref_trace.objectives
        assert trace.inner_iterations == ref_trace.inner_iterations and plan.converged == ref_plan.converged

    def test_explicit_zeros_leave_semantic_term_off(self):
        A = sparse.csr_array(([0.0, 0.0], ([0, 1], [1, 0])), shape=(30, 30))
        _, trace = solve_sp2ot(Sp2otProblem(self.P, A, 5.0, 1.0, 0.5, 0.1))
        assert len(trace.objectives) == 1


class TestDecay:
    def test_values(self):
        assert lambda1_decayed(1000.0, 0.1) == 900.0
        assert lambda1_decayed(1000.0, 1.0) == 0.0
        assert lambda1_decayed(0.0, 0.5) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            lambda1_decayed(-1.0, 0.5)
        with pytest.raises(ValueError):
            lambda1_decayed(1.0, 1.5)

    @pytest.mark.parametrize("lambda1_0", [-np.inf, np.nan])
    def test_rejects_nan_weight(self, lambda1_0):
        # NaN passed `< 0` and decayed to NaN
        with pytest.raises(ValueError, match="lambda1_0 must be >= 0"):
            lambda1_decayed(lambda1_0, 0.5)


class TestObjective:
    def test_reduces_to_entropic_parts(self):
        rng = np.random.default_rng(3)
        P = random_pred(6, 3, seed=4)
        Q = rng.uniform(0.01, 0.05, size=(6, 3))
        A = np.zeros((6, 6))
        C0 = prediction_cost(P)
        val = sp2ot_objective(inner_plan(Q, C0, 1.0, 0.5, 0.1), C0, C0, sp2ot_gradient(C0, A, 0.0, Q), 0.1)
        Pc = np.maximum(P, 1e-8)
        col = Q.sum(axis=0)
        slack = 1.0 / 6 - Q.sum(axis=1)
        expected = (
            float(np.sum(Q * -np.log(Pc)))
            + float(np.sum(col * np.log(col / (0.5 / 3))))
            + 0.1 * float(np.sum(Q * np.log(Q)))
            + 0.1 * float(np.sum(slack * np.log(slack)))
        )
        npt.assert_allclose(val, expected)

    def test_semantic_term_sign(self):
        rng = np.random.default_rng(5)
        P = random_pred(6, 3, seed=6)
        Q = rng.uniform(0.01, 0.05, size=(6, 3))
        A = knn_like_adjacency(6, seed=7)
        C0 = prediction_cost(P)
        plan = inner_plan(Q, C0, 1.0, 0.5, 0.1)
        with_sem = sp2ot_objective(plan, C0, C0, sp2ot_gradient(C0, A, 2.0, Q), 0.1)
        without = sp2ot_objective(plan, C0, C0, sp2ot_gradient(C0, A, 0.0, Q), 0.1)
        assert with_sem < without  # similarity reward is subtracted

    @pytest.mark.parametrize("lambda2", [0.0, 1.0, np.inf])
    @pytest.mark.parametrize("fmt", ["dense", "csr", "csc", "coo"])
    def test_matches_the_written_out_formula(self, fmt, lambda2):
        # <Q,C0> - lambda1 <Q, A Q> + lambda2 KL(col, rho/K) + eps (H(Q) + H(slack)), term by term, from
        # the plan of an inner solve on the cost linearized at another plan, as in an outer step
        rng = np.random.default_rng(21)
        n, k, lam1, rho, eps = 40, 4, 3.0, 0.5, 0.1
        P = random_pred(n, k, seed=22)
        Q = rng.uniform(0.0, 0.3 / (n * k), size=(n, k))
        Q[rng.random(Q.shape) < 0.1] = 0.0
        A = knn_like_adjacency(n, seed=23, k=5)
        C0 = prediction_cost(P)
        slack = np.maximum(1.0 / n - Q.sum(axis=1), 0.0)
        expected = (np.sum(Q * C0) - lam1 * np.sum(Q * (A @ Q))
                    + weighted_kl_value(Q.sum(axis=0), rho / k, lambda2)
                    + eps * np.sum(xlogx(Q)) + eps * np.sum(xlogx(slack)))
        graph = A if fmt == "dense" else sparse.csr_array(A).asformat(fmt)
        cost_in = sp2ot_gradient(C0, graph, lam1, rng.uniform(0.0, 1.0 / (n * k), size=(n, k)))
        plan = inner_plan(Q, cost_in, lambda2, rho, eps)
        val = sp2ot_objective(plan, C0, cost_in, sp2ot_gradient(C0, graph, lam1, Q), eps)
        assert abs(val - expected) <= 1e-13 * abs(expected)


class TestSolve:
    def test_zero_lambda1_matches_inner_solver(self):
        P = random_pred(20, 4, seed=8)
        cfg = ScalingConfig(epsilon=0.1, tol=1e-9, max_iter=5000)
        problem = Sp2otProblem(P, np.zeros((20, 20)), 0.0, 1.0, 0.6, 0.1, inner=cfg)
        plan, trace = solve_sp2ot(problem)
        direct = solve_p2ot_fast(P2otProblem(P, 0.6, 1.0, cfg))
        npt.assert_allclose(plan.coupling, direct.coupling, atol=1e-12)
        assert len(trace.objectives) == 1  # no semantic term: single outer step

    def test_feasibility_with_semantic_term(self):
        n = 24
        P = random_pred(n, 4, seed=9)
        A = knn_like_adjacency(n, seed=10)
        problem = Sp2otProblem(P, A, 5.0, 1.0, 0.5, 0.1,
                               inner=ScalingConfig(epsilon=0.1, tol=1e-9, max_iter=5000))
        plan, trace = solve_sp2ot(problem)
        assert np.all(plan.row_marginal() <= 1 / n + 1e-8)
        npt.assert_allclose(plan.total_mass(), 0.5, atol=1e-6)
        assert len(trace.objectives) >= 2

    def test_descent_with_psd_adjacency(self):
        n = 16
        P = random_pred(n, 3, seed=11)
        A = psd_adjacency(n, seed=12)
        problem = Sp2otProblem(P, A, 0.5, 1.0, 0.5, 0.1,
                               inner=ScalingConfig(epsilon=0.1, tol=1e-9, max_iter=10000),
                               outer_tol=1e-8)
        _, trace = solve_sp2ot(problem)
        objs = np.asarray(trace.objectives)
        assert np.all(np.diff(objs) <= 1e-9)

    def test_semantic_term_changes_plan(self):
        n = 24
        P = random_pred(n, 4, seed=13)
        A = knn_like_adjacency(n, seed=14)
        cfg = ScalingConfig(epsilon=0.1, tol=1e-9, max_iter=5000)
        base, _ = solve_sp2ot(Sp2otProblem(P, A, 0.0, 1.0, 0.5, 0.1, inner=cfg))
        sem, _ = solve_sp2ot(Sp2otProblem(P, A, 20.0, 1.0, 0.5, 0.1, inner=cfg))
        assert np.max(np.abs(base.coupling - sem.coupling)) > 1e-4

    def test_inner_convergence_recorded(self):
        n = 24
        P, A = random_pred(n, 4, seed=9), knn_like_adjacency(n, seed=10)
        _, trace = solve_sp2ot(Sp2otProblem(P, A, 5.0, 1.0, 0.5, 0.1, outer_tol=0.0, outer_max_iter=3))
        assert trace.inner_converged == [True] * 3
        # two sweeps cannot reach tol 1e-12
        _, trace = solve_sp2ot(Sp2otProblem(P, A, 5.0, 1.0, 0.5, 0.1, outer_tol=0.0, outer_max_iter=3,
                                            inner=ScalingConfig(0.1, 1e-12, 2)))
        assert trace.inner_converged == [False] * 3

    def test_outer_iteration_cap(self):
        n = 12
        P = random_pred(n, 3, seed=15)
        A = knn_like_adjacency(n, seed=16)
        problem = Sp2otProblem(P, A, 50.0, 1.0, 0.5, 0.1, outer_tol=0.0, outer_max_iter=4)
        _, trace = solve_sp2ot(problem)
        assert len(trace.objectives) == 4

    def test_outer_stop_fires_once_the_change_is_under_outer_tol(self):
        n = 40
        A = np.eye(n, k=1) + np.eye(n, k=-1)  # a path graph
        problem = Sp2otProblem(random_pred(n, 4, seed=0), A, 0.1, 1.0, 0.5, 0.1, outer_max_iter=50,
                               inner=ScalingConfig(epsilon=0.1, tol=1e-9))
        _, trace = solve_sp2ot(problem)
        *before, last = trace.frobenius_changes
        assert len(trace.objectives) < problem.outer_max_iter
        assert last < problem.outer_tol <= before[-1]  # the stop ends the loop at its first change under tol


class TestOneProductSite:
    def test_objective_reads_the_next_steps_cost(self, monkeypatch):
        # the graph is multiplied once per outer step plus once before the loop; a step's objective
        # reads the plan and the cost of its inner solve, and its own cost is the very array the next
        # inner solve projects
        from sppot import sp2ot

        gradients, objective_args, inner_calls = [], [], []

        def spy(calls, real, pick):
            def wrapped(*args, **kwargs):
                out = real(*args, **kwargs)
                calls.append(pick(out, args, kwargs))
                return out
            return wrapped

        monkeypatch.setattr(sp2ot, "sp2ot_gradient", spy(gradients, sp2ot.sp2ot_gradient, lambda out, a, k: out))
        monkeypatch.setattr(sp2ot, "sp2ot_objective", spy(objective_args, sp2ot.sp2ot_objective,
                                                          lambda out, a, k: a))
        monkeypatch.setattr(sp2ot, "solve_p2ot_fast", spy(inner_calls, sp2ot.solve_p2ot_fast,
                                                          lambda out, a, k: (out, k["cost"])))
        problem = Sp2otProblem(random_pred(30, 4, seed=0), knn_like_adjacency(30, seed=100, k=5), 20.0, 1.0,
                               0.5, 0.1, outer_tol=0.0, outer_max_iter=6)
        _, trace = solve_sp2ot(problem)
        steps = len(trace.objectives)
        assert steps == 6
        assert len(gradients) == steps + 1 and len(objective_args) == len(inner_calls) == steps
        assert inner_calls[0][1] is gradients[0]
        for step, (plan, cost0, cost_in, cost, epsilon) in enumerate(objective_args):
            assert plan is inner_calls[step][0] and cost_in is inner_calls[step][1]
            assert cost0 is objective_args[0][1] and epsilon == problem.epsilon
            assert cost is gradients[step + 1]
            if step + 1 < steps:
                assert cost is inner_calls[step + 1][1]

    def test_graph_arguments_rejected(self):
        Q, C0 = np.full((4, 2), 0.05), np.ones((4, 2))
        with pytest.raises(TypeError):
            sp2ot_objective(Q, C0, np.eye(4), 2.0, 1.0, 0.5, 0.1)
        with pytest.raises(TypeError):  # the plan-array form that took lambda2 and rho
            sp2ot_objective(Q, C0, C0, 1.0, 0.5, 0.1)


class TestAscents:
    def test_counted_and_logged_once(self, caplog):
        # an asymmetric (not PSD) adjacency at a large lambda1: the outer loop is not a descent
        cfg = ScalingConfig(epsilon=0.1, tol=1e-9, max_iter=5000)
        problem = Sp2otProblem(random_pred(30, 4, seed=0), knn_like_adjacency(30, seed=100, k=5), 20.0, 1.0,
                               0.5, 0.1, outer_max_iter=20, inner=cfg)
        with caplog.at_level("WARNING", logger="sppot.sp2ot"):
            _, trace = solve_sp2ot(problem)
        objs = trace.objectives
        rises = sum(b - a > cfg.tol * max(abs(a), abs(b)) for a, b in zip(objs, objs[1:]))
        assert trace.ascents(cfg.tol) == rises > 1
        assert len(caplog.records) == 1
        assert f"increased in {rises} of {len(trace.objectives)} outer steps" in caplog.records[0].getMessage()

    def test_descent_counts_none(self, caplog):
        P = random_pred(20, 3, seed=5)
        with caplog.at_level("WARNING", logger="sppot.sp2ot"):
            problem = Sp2otProblem(P, psd_adjacency(20, seed=6), 0.05, 1.0, 0.5, 0.1)
            _, trace = solve_sp2ot(problem)
        assert trace.ascents(problem.inner.tol) == 0 and not caplog.records

    def test_a_rise_within_the_inner_tolerance_is_not_counted(self):
        # 1e-7 on an objective of 2 is under tol 1e-6 of it: inexact inner solves can make it
        trace = PmdTrace(objectives=[-2.0, -2.0 + 1e-7, -2.0 + 1e-5, -1.0, -1.5])
        assert trace.ascents(1e-6) == 2
        assert trace.ascents(1e-12) == 3


class TestWarmStart:
    def test_outer_steps_warm_start_their_inner_solves(self, monkeypatch):
        from sppot import sp2ot

        n = 120
        P = random_pred(n, 4, seed=40, temperature=0.5)
        problem = Sp2otProblem(P, knn_like_adjacency(n, seed=41), 5.0, 1.0, 0.5, 0.1,
                               inner=ScalingConfig(epsilon=0.1, tol=1e-9, max_iter=20000))
        warm, warm_trace = solve_sp2ot(problem)

        real = sp2ot.solve_p2ot_fast
        monkeypatch.setattr(sp2ot, "solve_p2ot_fast", lambda prob, cost=None, init=None: real(prob, cost))
        cold, cold_trace = solve_sp2ot(problem)

        # every inner solve, warm or cold, takes the Newton phase after the same plain sweeps;
        # the warm ones take fewer Newton steps (12 against 24)
        assert warm_trace.inner_iterations == cold_trace.inner_iterations
        assert warm_trace.inner_newton_steps[0] == cold_trace.inner_newton_steps[0]
        assert sum(warm_trace.inner_newton_steps) < sum(cold_trace.inner_newton_steps)
        npt.assert_allclose(warm.coupling, cold.coupling, rtol=0, atol=1e-8 / n)
        assert warm.col_potential.shape == (5,)


def _knn_mixture_problem(rho, n=400, seed=0):
    """SP2OT as the solve-sp2ot benchmark poses it, at n points: the Gaussian kNN graph (k = 10,
    median bandwidth) of a seeded imbalanced mixture and the posteriors of a noisy prototype model."""
    from sppot import bench, graph

    rng = np.random.default_rng(seed)
    data = bench.generate_imbalanced_mixture(K=10, R=10.0, N=n, dim=16, separation=10.0, seed=seed)
    feats = graph.FeatureSet(data.features)
    A = graph.build_knn_graph(graph.gaussian_similarity(feats, graph.median_bandwidth(feats)), 10).adjacency
    means = np.stack([data.features[data.labels == k].mean(axis=0) for k in range(10)])
    protos = 0.3 * means / np.linalg.norm(means, axis=1, keepdims=True) + rng.normal(scale=0.1, size=means.shape)
    P = bench.predict_probs(bench.PrototypeModel(protos, temperature=0.5, learning_rate=1.0), data.features)
    return Sp2otProblem(P, A, lambda1_decayed(70.0, rho), 1.0, rho, 0.1,
                        inner=ScalingConfig(epsilon=0.1, tol=1e-6, max_iter=1000))


class TestNewtonInnerSolves:
    # The kernel's Newton phase finishes every inner solve (see `_kernels.py._newton`): the cold
    # first one, and each later one, warm-started from the last one's column potential.
    @pytest.mark.parametrize("rho", [0.2, 0.5, 0.9])
    def test_warm_inner_solves_enter_the_newton_phase(self, monkeypatch, rho):
        from sppot import sp2ot
        from sppot._kernels import py as kernels

        problem = _knn_mixture_problem(rho)
        monkeypatch.setattr(kernels, "NEWTON_ENTRY", 0)  # no sweep is sweep 0: the plain kernel
        _, plain = solve_sp2ot(problem)
        monkeypatch.undo()

        plans, entered = [], []
        newton, solve = kernels._newton, sp2ot.solve_p2ot_fast
        monkeypatch.setattr(kernels, "_newton", lambda *args: entered.append(len(plans)) or newton(*args))
        monkeypatch.setattr(sp2ot, "solve_p2ot_fast", lambda *args, **kw: plans.append(solve(*args, **kw)) or plans[-1])
        _, trace = solve_sp2ot(problem)
        assert len(plans) == len(trace.objectives) >= 5
        assert all(plan.converged for plan in plans)
        assert trace.inner_newton_steps == [plan.newton_steps for plan in plans]
        assert trace.inner_converged == [plan.converged for plan in plans]
        # a solve, the cold first one included, enters unless it converged within NEWTON_ENTRY sweeps
        assert entered == [i for i, plan in enumerate(plans) if plan.iterations > kernels.NEWTON_ENTRY]
        if rho < 0.9:
            assert entered == list(range(len(plans)))
        assert all(plan.iterations <= kernels.NEWTON_ENTRY + 1 for plan in plans)  # plain: 2-121 sweeps
        tol = problem.inner.tol
        assert trace.ascents(tol) <= plain.ascents(tol)  # 4 and 4, 0 and 0, 0 and 0 at rho 0.2, 0.5, 0.9


class TestObjectiveOfASolve:
    @pytest.mark.parametrize("rho", [0.2, 0.5, 0.9])
    def test_each_step_matches_the_written_out_formula(self, monkeypatch, rho):
        # every outer objective, read from its inner plan, is the SP2OT objective of that plan
        from sppot import sp2ot

        problem = _knn_mixture_problem(rho)
        plans, solve = [], sp2ot.solve_p2ot_fast
        monkeypatch.setattr(sp2ot, "solve_p2ot_fast", lambda *args, **kw: plans.append(solve(*args, **kw)) or plans[-1])
        _, trace = solve_sp2ot(problem)
        assert len(plans) == len(trace.objectives) >= 2
        C0, A = prediction_cost(problem.pred), problem.adjacency
        N, K = C0.shape
        for plan, objective in zip(plans, trace.objectives):
            Q = plan.coupling
            expected = (np.sum(Q * C0) - problem.lambda1 * np.sum(Q * (A @ Q))
                        + weighted_kl_value(Q.sum(axis=0), rho / K, problem.lambda2)
                        + problem.epsilon * (np.sum(xlogx(Q)) + np.sum(xlogx(1.0 / N - Q.sum(axis=1)))))
            assert abs(objective - expected) <= 1e-13 * abs(expected)
