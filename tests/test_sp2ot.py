import numpy as np
import numpy.testing as npt
import pytest
from scipy import sparse

from conftest import random_pred
from sppot.ot_core import ScalingConfig
from sppot.p2ot import P2otProblem, solve_p2ot_fast
from sppot.sp2ot import (
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

    def test_stored_as_csr_without_explicit_zeros(self):
        A = sparse.csr_array(([0.0, 2.0], ([0, 1], [1, 0])), shape=(3, 3))
        problem = Sp2otProblem(random_pred(3, 2, 0), A, 1.0, 1.0, 0.5, 0.1)
        assert problem.adjacency.format == "csr" and problem.adjacency.nnz == 1
        assert A.nnz == 2  # the caller's matrix is left as it was
        dense = Sp2otProblem(random_pred(3, 2, 0), A.toarray(), 1.0, 1.0, 0.5, 0.1)
        assert dense.adjacency.format == "csr" and dense.adjacency.nnz == 1

    def test_stored_in_canonical_form(self):
        # row 0 holds unsorted columns and a duplicate
        A = sparse.csr_array(([1.0, 2.0, 0.5], [2, 0, 2], [0, 3, 3, 3]), shape=(3, 3))
        problem = Sp2otProblem(random_pred(3, 2, 0), A, 1.0, 1.0, 0.5, 0.1)
        assert problem.adjacency.has_canonical_format
        npt.assert_array_equal(problem.adjacency.indices, [0, 2])
        npt.assert_array_equal(problem.adjacency.data, [2.0, 1.5])
        npt.assert_array_equal(A.indices, [2, 0, 2])  # the caller's matrix is left as it was

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
        dense = sp2ot_objective(self.Q, self.P, self.A, 3.0, 1.0, 0.5, 0.1)
        sp = sp2ot_objective(self.Q, self.P, sparse.csr_array(self.A), 3.0, 1.0, 0.5, 0.1)
        npt.assert_allclose(sp, dense, rtol=1e-12, atol=0)

    def test_gradient_and_objective_bit_equal_on_dense_input(self):
        A = self.A.copy()
        A[3, 3], A[5, 9] = -0.0, 0.0
        csr = sparse.csr_array(A)
        csr.eliminate_zeros()
        assert np.array_equal(sp2ot_gradient(self.C, A, 3.0, self.Q), sp2ot_gradient(self.C, csr, 3.0, self.Q))
        assert (sp2ot_objective(self.Q, self.P, A, 3.0, 1.0, 0.5, 0.1)
                == sp2ot_objective(self.Q, self.P, csr, 3.0, 1.0, 0.5, 0.1))

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


class TestObjective:
    def test_reduces_to_entropic_parts(self):
        rng = np.random.default_rng(3)
        P = random_pred(6, 3, seed=4)
        Q = rng.uniform(0.01, 0.05, size=(6, 3))
        A = np.zeros((6, 6))
        val = sp2ot_objective(Q, P, A, 0.0, 1.0, 0.5, 0.1)
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
        with_sem = sp2ot_objective(Q, P, A, 2.0, 1.0, 0.5, 0.1)
        without = sp2ot_objective(Q, P, A, 0.0, 1.0, 0.5, 0.1)
        assert with_sem < without  # similarity reward is subtracted


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

    def test_outer_iteration_cap(self):
        n = 12
        P = random_pred(n, 3, seed=15)
        A = knn_like_adjacency(n, seed=16)
        problem = Sp2otProblem(P, A, 50.0, 1.0, 0.5, 0.1, outer_tol=0.0, outer_max_iter=4)
        _, trace = solve_sp2ot(problem)
        assert len(trace.objectives) == 4


class TestAscents:
    def test_counted_and_logged_once(self, caplog):
        # an asymmetric (not PSD) adjacency at a large lambda1: the outer loop is not a descent
        cfg = ScalingConfig(epsilon=0.1, tol=1e-9, max_iter=5000)
        problem = Sp2otProblem(random_pred(30, 4, seed=0), knn_like_adjacency(30, seed=100, k=5), 20.0, 1.0,
                               0.5, 0.1, outer_max_iter=20, inner=cfg)
        with caplog.at_level("WARNING", logger="sppot.sp2ot"):
            _, trace = solve_sp2ot(problem)
        rises = sum(b > a + 1e-12 for a, b in zip(trace.objectives, trace.objectives[1:]))
        assert trace.ascents == rises > 1
        assert len(caplog.records) == 1
        assert f"increased in {rises} of {len(trace.objectives)} outer steps" in caplog.records[0].getMessage()

    def test_descent_counts_none(self, caplog):
        P = random_pred(20, 3, seed=5)
        with caplog.at_level("WARNING", logger="sppot.sp2ot"):
            _, trace = solve_sp2ot(Sp2otProblem(P, psd_adjacency(20, seed=6), 0.05, 1.0, 0.5, 0.1))
        assert trace.ascents == 0 and not caplog.records


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

        assert warm_trace.inner_iterations[0] == cold_trace.inner_iterations[0]
        assert sum(warm_trace.inner_iterations) < sum(cold_trace.inner_iterations)
        npt.assert_allclose(warm.coupling, cold.coupling, rtol=0, atol=1e-8 / n)
        assert warm.col_potential.shape == (5,)
