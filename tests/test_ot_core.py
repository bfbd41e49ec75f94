import subprocess
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from conftest import _kernel_call, dead_cluster_pred, random_pred
import sppot
from sppot import ot_core
from sppot._kernels import py as kernels
from sppot.ot_core import (
    DimensionMismatchError,
    InfeasibleProblemError,
    ScalingConfig,
    entropic_objective,
    prediction_cost,
    solve_balanced_ot,
    solve_pot,
    solve_sla,
    solve_uot,
    weighted_kl_value,
    xlogx,
)


class TestValidation:
    def test_cost_matrix_rejects_1d(self):
        with pytest.raises(DimensionMismatchError):
            ot_core.solve_virtual(np.ones(4), 0.5, 1.0, ScalingConfig(epsilon=0.1))

    def test_cost_matrix_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ot_core.solve_virtual(np.array([[1.0, np.inf]]), 0.5, 1.0, ScalingConfig(epsilon=0.1))

    def test_config_rejects_bad_epsilon(self):
        for eps in (0.0, -0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match="epsilon must be finite and > 0"):
                ScalingConfig(epsilon=eps)

    @pytest.mark.parametrize("kwargs", [
        {"tol": np.nan}, {"tol": np.inf}, {"tol": 0.0}, {"tol": -1e-6}, {"max_iter": 0},
    ], ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()))
    def test_config_rejects_bad_stopping_rule(self, kwargs):
        with pytest.raises(ValueError):
            ScalingConfig(epsilon=0.1, **kwargs)

    def test_constraint_rejects_negative_target(self):
        # rho > 1 asks the virtual column for 1 - rho < 0; rho <= 0 gives the
        # real columns a target rho/K <= 0; an SLA bound must be > 0
        C = np.zeros((3, 2))
        for rho in (1.5, 0.0, -0.5, np.nan):
            with pytest.raises(ValueError, match="rho must be in"):
                ot_core.solve_virtual(C, rho, 1.0, ScalingConfig(epsilon=0.1))
        P = random_pred(10, 4, seed=12)
        for upper in (0.0, -0.1, np.nan):
            with pytest.raises(ValueError, match="upper must be > 0"):
                solve_sla(P, 0.5, upper, ScalingConfig(epsilon=0.1))

    def test_kl_constraint_needs_weight(self):
        # a negative weight rewards piling mass into one column and a NaN one
        # poisons the exponents: both were solved (or overflowed) before
        P = random_pred(10, 3, seed=0)
        for lam in (-1.0, -0.05, np.nan):
            with pytest.raises(ValueError, match="lam must be >= 0"):
                solve_uot(P, lam, ScalingConfig(epsilon=0.1))
        for lam in (0.0, np.inf):  # no column penalty; hard columns
            assert solve_uot(P, lam, ScalingConfig(epsilon=0.1)).converged

    def test_weighted_kl_shape_mismatch(self):
        # a target of another length; the weight is one value, and an array of them is refused
        for x, t in ((np.ones(3), np.ones(2)), (np.ones(2), np.ones(3))):
            with pytest.raises(DimensionMismatchError, match="shapes differ"):
                weighted_kl_value(x, t, 1.0)
        with pytest.raises(TypeError):
            weighted_kl_value(np.ones(3), np.ones(3), np.ones(3))

    def test_marginal_length_mismatch(self):
        # a row-length target against the column marginal of a 2x3 plan
        Q = np.full((2, 3), 1 / 6)
        with pytest.raises(DimensionMismatchError, match="shapes differ"):
            entropic_objective(Q, np.zeros((2, 3)), np.full(2, 1 / 2), 1.0, 0.1)
        assert np.isfinite(entropic_objective(Q, np.zeros((2, 3)), np.full(3, 1 / 3), 1.0, 0.1))
        assert np.isfinite(entropic_objective(Q, np.zeros((2, 3)), 1 / 3, 1.0, 0.1))  # one target for all

    def test_inconsistent_equality_masses_infeasible(self):
        # rows carry mass rho; K column bounds below rho/K cannot hold it, and
        # bounds of exactly rho/K pin every column there (with and without
        # the virtual column)
        P = random_pred(20, 4, seed=54)
        cfg = ScalingConfig(epsilon=0.1, tol=1e-9, max_iter=5000)
        for rho in (1.0, 0.6):
            with pytest.raises(InfeasibleProblemError, match="column bound too small"):
                solve_sla(P, rho, rho / 4 * (1 - 1e-9), cfg)
            plan = solve_sla(P, rho, rho / 4, cfg)
            assert plan.converged
            npt.assert_allclose(plan.col_marginal(), np.full(4, rho / 4), rtol=0, atol=1e-9)


class TestHelpers:
    def test_xlogx_zero_safe(self):
        out = xlogx(np.array([0.0, 1.0, np.e]))
        npt.assert_allclose(out, [0.0, 0.0, np.e])

    def test_weighted_kl_value_matches_formula(self):
        x = np.array([0.2, 0.0, 0.3])
        t = np.array([0.1, 0.5, 0.3])
        expected = 2.0 * 0.2 * np.log(2.0)  # the zero entry and the matched entry drop out
        npt.assert_allclose(weighted_kl_value(x, t, 2.0), expected)
        # one target for every entry equals that target repeated, bit for bit
        assert weighted_kl_value(x, 0.1, 2.0) == weighted_kl_value(x, np.full(3, 0.1), 2.0)

    def test_weighted_kl_sentinel_contributes_zero(self):
        x = np.array([0.4, 0.2])
        t = np.array([0.1, 0.3])
        assert weighted_kl_value(x, t, np.inf) == 0.0
        assert weighted_kl_value(x, 0.1, np.inf) == 0.0

    def test_prediction_cost_floor(self):
        P = np.array([[0.0, 1.0]])
        out = prediction_cost(P)
        assert out.max() == -np.log(ot_core.PROB_FLOOR)

    def test_entropic_objective_shape_check(self):
        with pytest.raises(DimensionMismatchError):
            entropic_objective(np.ones((2, 2)), np.ones((2, 3)), np.ones(3), 0.0, 0.1)

    def test_entropic_objective_value(self):
        Q = np.array([[0.25, 0.25], [0.25, 0.25]])
        C = np.array([[1.0, 2.0], [3.0, 4.0]])
        val = entropic_objective(Q, C, 0.5, 1.0, 1.0)  # columns on target: no penalty
        expected = 2.5 + np.sum(Q * np.log(Q))
        npt.assert_allclose(val, expected)

    @pytest.mark.parametrize("lam", [2.0, np.inf])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_entropic_objective_matches_plain_reference(self, order, lam):
        # exact zeros, an empty column, a finite and the sentinel (hard) weight, and both memory orders
        rng = np.random.default_rng(3)
        Q = rng.random((50, 7)) / 350
        Q[rng.random(Q.shape) < 0.2] = 0.0
        Q[:, 4] = 0.0
        C = rng.normal(size=Q.shape)
        target, eps = np.full(7, 1 / 7), 0.1
        col = Q.sum(axis=0)
        pos = col > 0
        penalty = 0.0 if lam == np.inf else lam * np.sum(col[pos] * np.log(col[pos] / target[pos]))
        expected = np.sum(Q * C) + penalty + eps * np.sum(xlogx(Q))
        Q, C = np.asarray(Q, order=order), np.asarray(C, order=order)
        for plan, cost in ((Q, C), (Q, np.asfortranarray(C)), (np.ascontiguousarray(Q), C)):
            for t in (target, 1 / 7):
                val = entropic_objective(plan, cost, t, lam, eps)
                assert abs(val - expected) <= 1e-13 * abs(expected)

    def test_prediction_cost_is_negative_log_of_clamped(self):
        P = random_pred(30, 4, seed=5)
        P[0, 1] = 0.0
        P[3, 2] = 1e-12
        before = P.copy()
        C = ot_core.prediction_cost(P)
        npt.assert_array_equal(C, -np.log(np.maximum(P, ot_core.PROB_FLOOR)))
        npt.assert_array_equal(P, before)  # the input is not written
        assert C[0, 1] == -np.log(ot_core.PROB_FLOOR)
        with pytest.raises(DimensionMismatchError):
            ot_core.prediction_cost(np.ones(3))


class TestBalanced:
    def test_uniform_cost_gives_uniform_plan(self):
        P = np.full((4, 4), 0.25)
        plan = solve_balanced_ot(P, ScalingConfig(epsilon=0.5))
        npt.assert_allclose(plan.coupling, np.full((4, 4), 1 / 16), atol=1e-10)

    def test_marginals(self):
        P = random_pred(20, 5, seed=1)
        plan = solve_balanced_ot(P, ScalingConfig(epsilon=0.1, tol=1e-9, max_iter=5000))
        assert plan.converged
        npt.assert_allclose(plan.row_marginal(), np.full(20, 1 / 20), atol=1e-7)
        npt.assert_allclose(plan.col_marginal(), np.full(5, 1 / 5), atol=1e-7)
        npt.assert_allclose(plan.total_mass(), 1.0, atol=1e-8)

    def test_deterministic_rerun_bit_identical(self):
        P = random_pred(16, 4, seed=2)
        cfg = ScalingConfig(epsilon=0.2)
        a = solve_balanced_ot(P, cfg)
        b = solve_balanced_ot(P, cfg)
        npt.assert_array_equal(a.coupling, b.coupling)
        assert a.objective == b.objective

    def test_small_epsilon_stabilized_stays_finite(self):
        P = random_pred(12, 4, seed=3)
        plan = solve_balanced_ot(P, ScalingConfig(epsilon=0.005, tol=1e-8, max_iter=20000))
        assert np.all(np.isfinite(plan.coupling))
        npt.assert_allclose(plan.total_mass(), 1.0, atol=1e-6)

    def test_lower_epsilon_lowers_linear_cost(self):
        P = random_pred(10, 4, seed=4)
        C = prediction_cost(P)
        costs = []
        for eps in (0.5, 0.1, 0.02):
            plan = solve_balanced_ot(P, ScalingConfig(epsilon=eps, tol=1e-10, max_iter=50000))
            costs.append(float(np.sum(plan.coupling * C)))
        assert costs[0] > costs[1] > costs[2]


class TestUot:
    def test_rows_hard_columns_soft(self):
        P = random_pred(30, 6, seed=5, temperature=0.3)
        plan = solve_uot(P, lam=1.0, cfg=ScalingConfig(epsilon=0.1, tol=1e-9, max_iter=5000))
        npt.assert_allclose(plan.row_marginal(), np.full(30, 1 / 30), atol=1e-7)
        # columns may deviate from uniform: that is the point of the KL relaxation
        assert np.max(np.abs(plan.col_marginal() - 1 / 6)) > 1e-4

    def test_zero_weight_decouples_columns(self):
        # with lam = 0 each row is independently the softmax of -C/eps scaled to 1/N
        P = random_pred(8, 3, seed=6)
        eps = 0.3
        plan = solve_uot(P, lam=0.0, cfg=ScalingConfig(epsilon=eps, tol=1e-12, max_iter=2000))
        C = prediction_cost(P)
        M = np.exp(-C / eps)
        expected = (M / M.sum(axis=1, keepdims=True)) / 8
        npt.assert_allclose(plan.coupling, expected, atol=1e-9)

    def test_large_weight_approaches_balanced(self):
        P = random_pred(12, 4, seed=7)
        cfg = ScalingConfig(epsilon=0.1, tol=1e-10, max_iter=20000)
        relaxed = solve_uot(P, lam=1e6, cfg=cfg)
        hard = solve_balanced_ot(P, cfg)
        npt.assert_allclose(relaxed.coupling, hard.coupling, atol=1e-5)

    def test_sentinel_weight_equals_balanced(self):
        P = random_pred(12, 4, seed=8)
        cfg = ScalingConfig(epsilon=0.1, tol=1e-10, max_iter=20000)
        npt.assert_allclose(
            solve_uot(P, lam=np.inf, cfg=cfg).coupling,
            solve_balanced_ot(P, cfg).coupling,
            atol=1e-12,
        )


class TestPot:
    @pytest.mark.parametrize("rho", [0.3, 0.7, 1.0])
    def test_feasibility(self, rho):
        P = random_pred(40, 5, seed=9)
        plan = solve_pot(P, rho, ScalingConfig(epsilon=0.1, tol=1e-9, max_iter=5000))
        assert np.all(plan.row_marginal() <= 1 / 40 + 1e-8)
        npt.assert_allclose(plan.col_marginal(), np.full(5, rho / 5), atol=1e-7)
        npt.assert_allclose(plan.total_mass(), rho, atol=1e-7)

    def test_rejects_bad_rho(self):
        P = random_pred(4, 2, seed=10)
        with pytest.raises(ValueError):
            solve_pot(P, 0.0, ScalingConfig(epsilon=0.1))
        with pytest.raises(ValueError):
            solve_pot(P, 1.5, ScalingConfig(epsilon=0.1))

    def test_selects_confident_rows(self):
        # two very confident rows and two near-uniform rows; at rho = 0.5 the
        # confident rows should carry (nearly) full row mass
        P = np.array(
            [
                [0.98, 0.01, 0.01],
                [0.01, 0.98, 0.01],
                [0.34, 0.33, 0.33],
                [0.33, 0.34, 0.33],
            ]
        )
        plan = solve_pot(P, 0.5, ScalingConfig(epsilon=0.05, tol=1e-10, max_iter=20000))
        rows = plan.row_marginal()
        assert rows[0] > rows[2] and rows[1] > rows[3]
        assert rows[0] > 0.15  # close to the rho/K = 1/6 column budget


class TestSla:
    def test_feasibility(self):
        P = random_pred(30, 5, seed=11, temperature=0.5)
        rho, upper = 0.4, 0.2
        plan = solve_sla(P, rho, upper, ScalingConfig(epsilon=0.1, tol=1e-9, max_iter=5000))
        assert np.all(plan.row_marginal() <= 1 / 30 + 1e-7)
        assert np.all(plan.col_marginal() <= upper + 1e-7)
        npt.assert_allclose(plan.total_mass(), rho, atol=1e-6)

    def test_infeasible_bound_raises(self):
        P = random_pred(10, 4, seed=12)
        with pytest.raises(InfeasibleProblemError):
            solve_sla(P, rho=0.9, upper=0.1, cfg=ScalingConfig(epsilon=0.1))

    def test_slack_bounds_at_small_epsilon_give_the_row_softmax(self):
        # every bound is slack, so each row is (1/N) softmax(-C/eps); a kernel
        # taken from exp(-C/eps) floors whole rows at eps = 1e-3
        P = random_pred(512, 10, seed=0)
        eps = 1e-3
        plan = solve_sla(P, 1.0, 0.2, ScalingConfig(epsilon=eps))
        z = -prediction_cost(P) / eps
        ref = np.exp(z - z.max(axis=1, keepdims=True))
        ref /= 512 * ref.sum(axis=1, keepdims=True)
        assert plan.converged
        assert np.all(plan.col_marginal() < 0.2)
        npt.assert_allclose(plan.coupling, ref, rtol=0, atol=1e-12 * ref.max())

    @pytest.mark.parametrize("n, k, seed, rho, upper", [(60, 5, 50, 0.4, 0.1), (40, 4, 51, 0.7, 0.2)])
    def test_follows_the_upper_bound_recursion(self, monkeypatch, n, k, seed, rho, upper):
        cfg = ScalingConfig(epsilon=0.1, tol=1e-9, max_iter=5000)
        P = random_pred(n, k, seed=seed, temperature=0.5)
        plan = solve_sla(P, rho, upper, cfg)
        (C, alpha, *_), _ = _kernel_call(monkeypatch, lambda: solve_sla(P, rho, upper, cfg))
        beta = np.append(np.full(k, upper), 1.0 - rho)
        ref, ref_iters = _reference_upper_bound_recursion(C, alpha, beta, np.arange(k + 1) < k,
                                                          cfg.epsilon, cfg.tol, cfg.max_iter)
        assert plan.converged and plan.iterations == ref_iters
        assert np.any(plan.col_marginal() < upper * (1 - 1e-3))  # some bound is slack, some binds
        assert np.any(plan.col_marginal() > upper * (1 - 1e-6))
        npt.assert_allclose(plan.coupling, ref[:, :k], rtol=0, atol=1e-12 * ref.max())

    def test_absorption_leaves_the_iterates_unchanged(self, monkeypatch):
        # a threshold of 1 absorbs the scalings into the potentials in most
        # sweeps; the upper bound's cap exp(-v/eps) must follow the potential
        P = random_pred(25, 2, seed=1074, temperature=0.3)
        plans = []
        for threshold in (np.inf, 1.0):
            monkeypatch.setattr(kernels, "ABSORB_THRESHOLD", threshold)
            plans.append(solve_sla(P, 0.2, 0.105, ScalingConfig(epsilon=0.1, tol=1e-9, max_iter=3000)))
        assert plans[0].converged and plans[1].iterations == plans[0].iterations
        ref = plans[0].coupling
        npt.assert_allclose(plans[1].coupling, ref, rtol=0, atol=1e-12 * ref.max())

    @pytest.mark.parametrize("rho", [0.5, 1.0])
    def test_tight_bound_is_partial_ot(self, rho):
        # K * upper = rho: every bound binds, so the program is partial OT's (balanced at rho = 1)
        P = random_pred(50, 5, seed=52)
        cfg = ScalingConfig(epsilon=0.1, tol=1e-9, max_iter=5000)
        sla = solve_sla(P, rho, rho / 5, cfg)
        ref = solve_pot(P, rho, cfg) if rho < 1 else solve_balanced_ot(P, cfg)
        assert np.array_equal(sla.coupling, ref.coupling)
        assert sla.iterations == ref.iterations and sla.objective == ref.objective
        assert np.array_equal(sla.col_potential, ref.col_potential)

    def test_upper_bound_needs_hard_columns(self):
        # the kernel's upper-bound prox holds only for columns with exponent 1
        with pytest.raises(ValueError, match="upper column bound needs hard columns"):
            ot_core.solve_virtual(np.zeros((4, 2)), 0.5, 1.0, ScalingConfig(epsilon=0.1), upper=0.3)

    def test_solve_virtual_rejects_a_bound_under_rho_over_k(self):
        # K * upper = 0.1 < rho = 0.9: the bound was solved as partial OT's
        # equality, a converged plan with every column at 0.09 > upper
        C = prediction_cost(random_pred(100, 10, seed=1))
        with pytest.raises(InfeasibleProblemError, match="column bound too small"):
            ot_core.solve_virtual(C, 0.9, np.inf, ScalingConfig(epsilon=0.1), upper=0.01)

    @pytest.mark.parametrize("upper", [np.nan, 0.0, -1.0])
    def test_solve_virtual_rejects_a_non_positive_bound(self, upper):
        C = prediction_cost(random_pred(100, 10, seed=1))
        with pytest.raises(ValueError, match="upper must be > 0"):
            ot_core.solve_virtual(C, 0.9, np.inf, ScalingConfig(epsilon=0.1), upper=upper)

    def test_slack_bound_concentrates(self):
        # one globally preferred column and a bound larger than the mass:
        # nearly everything should land in that column
        n = 20
        P = np.full((n, 4), 0.05)
        P[:, 0] = 0.85
        plan = solve_sla(P, rho=0.2, upper=0.5, cfg=ScalingConfig(epsilon=0.05, tol=1e-10, max_iter=20000))
        share = plan.col_marginal()[0] / plan.total_mass()
        assert share > 0.95


def _reference_upper_bound_recursion(C, alpha, beta, upper, eps, tol, max_iter):
    """Row-equality scaling whose `upper` columns take the upper-bound prox
    min(1, beta/(M^T a)) and the others are hard, started from exp(-C/eps),
    without absorption, with the kernel's momentum."""
    M = np.maximum(np.exp(-C / eps), kernels.KERNEL_FLOOR)
    b = step = np.ones(C.shape[1])
    momentum = kernels._Momentum()
    for it in range(1, max_iter + 1):
        a = alpha / (M @ b)
        b_new = beta / (M.T @ a)
        b_new[upper] = np.minimum(1.0, b_new[upper])
        ratio = b_new / b
        err = np.max(np.abs(ratio - 1.0))
        if err < tol or it == max_iter:
            b = b_new
            break
        weights = momentum.weights(err)
        if momentum.restarted:
            b_new = b * last_plain / step
        elif weights is not None:
            b_new = b * ratio ** weights[0] * step ** weights[1]
            b_new[upper] = np.minimum(1.0, b_new[upper])
        last_plain, step, b = ratio, b_new / b, b_new
    return a[:, None] * M * b[None, :], it


def _reference_cold_kernel(C, alpha, beta, f, eps, tol, max_iter):
    """The scaling recursion with its mass step and momentum, started from
    exp(-C/eps), without absorption."""
    M = np.maximum(np.exp(-C / eps), kernels.KERNEL_FLOOR)
    soft = f < 1
    m_soft = alpha.sum() - beta[~soft].sum()
    b = step = np.ones(C.shape[1])
    momentum = kernels._Momentum()
    for it in range(1, max_iter + 1):
        a = alpha / (M @ b)
        col = M.T @ a
        b_new = (beta / col) ** f
        b_new[soft] *= m_soft / (b_new[soft] @ col[soft])
        ratio = b_new / b
        err = np.max(np.abs(ratio - 1.0))
        if err < tol or it == max_iter:
            b = b_new
            break
        weights = momentum.weights(err)
        if momentum.restarted:
            b_new = b * last_plain / step
        elif weights is not None:
            b_new = b * ratio ** weights[0] * step ** weights[1]
            b_new[soft] *= m_soft / (b_new[soft] @ col[soft])
        last_plain, step, b = ratio, b_new / b, b_new
    return a[:, None] * M * b[None, :], it


def _sweep_kernel(monkeypatch, *args, **kwargs):
    """The kernel's outputs with no Newton step: the sweeps alone."""
    monkeypatch.setattr(kernels, "NEWTON_MAX_STEPS", 0)
    return kernels.scaling_weighted_kl(*args, **kwargs)


def _virtual_kernel_args(monkeypatch, P, rho, lam, cfg):
    """(C, alpha, beta, f, eps, tol, max_iter) of the kernel call of the virtual-column solve at (rho, lam)."""
    args, _ = _kernel_call(monkeypatch, lambda: ot_core.solve_virtual(prediction_cost(P), rho, lam, cfg))
    return args[:7]


def _nearby(P, seed, scale=0.05):
    """P with each entry perturbed by a factor exp(scale * N(0, 1)), rows renormalized."""
    Q = P * np.exp(scale * np.random.default_rng(seed).normal(size=P.shape))
    return Q / Q.sum(axis=1, keepdims=True)


SOLVES = {
    # name: (rho, lam) of the virtual-column solve
    "balanced": (1.0, np.inf),
    "uot": (1.0, 1.0),
    "pot": (0.4, np.inf),
    "p2ot": (0.4, 1.0),
}


def solve_virtual_named(name, P, cfg, init=None):
    rho, lam = SOLVES[name]
    return ot_core.solve_virtual(prediction_cost(P), rho, lam, cfg, init)


# SOLVES and SLA at rho 0.4 with its bound at 1.2 rho/K, where some bounds bind and some are slack
WARM_SOLVES = {**SOLVES, "sla": (0.4, np.inf)}


def solve_warm_named(name, P, cfg, init=None):
    if name == "sla":
        rho, _ = WARM_SOLVES[name]
        return solve_sla(P, rho, 1.2 * rho / P.shape[1], cfg, init)
    return solve_virtual_named(name, P, cfg, init)


class TestKernelLayout:
    def test_c_and_fortran_order_input_agree_exactly(self, monkeypatch):
        from sppot._kernels import py as kernels

        cfg = ScalingConfig(epsilon=0.1, tol=1e-9, max_iter=5000)
        C, *rest = _virtual_kernel_args(monkeypatch, random_pred(40, 5, seed=30), 0.6, 1.0, cfg)
        assert C.flags.f_contiguous
        out_f = kernels.scaling_weighted_kl(C, *rest)
        out_c = kernels.scaling_weighted_kl(np.ascontiguousarray(C), *rest)
        for x, y in zip(out_f, out_c):
            npt.assert_array_equal(x, y)
        gsa_args = (rest[0], np.full(5, 0.6 / 5), np.full(5, 1.0 / 1.1), 0.6, 0.1, 1e-9, 5000)
        gsa_f = kernels.gsa_total_mass(C[:, :5], *gsa_args)
        gsa_c = kernels.gsa_total_mass(np.ascontiguousarray(C[:, :5]), *gsa_args)
        for x, y in zip(gsa_f, gsa_c):
            npt.assert_array_equal(x, y)

    def test_returned_couplings_are_c_contiguous(self):
        from sppot import p2ot, sp2ot

        P = random_pred(30, 4, seed=31)
        cfg = ScalingConfig(epsilon=0.1, tol=1e-8, max_iter=5000)
        plans = [solve_virtual_named(name, P, cfg) for name in SOLVES]
        plans.append(solve_sla(P, 0.5, 0.25, cfg))
        plans.append(p2ot.solve_p2ot_gsa(p2ot.P2otProblem(P, 0.5, 1.0, cfg)))
        A = np.ones((30, 30)) - np.eye(30)
        plans.append(sp2ot.solve_sp2ot(sp2ot.Sp2otProblem(P, A, 0.01, 1.0, 0.5, 0.1, inner=cfg))[0])
        for plan in plans:
            assert plan.coupling.flags.c_contiguous

    def test_cold_start_follows_the_unshifted_recursion(self, monkeypatch):
        # the row shift u0 = min_j C_ij is absorbed by the row scaling, so a
        # cold solve takes the sweeps of a start from exp(-C/eps)
        cfg = ScalingConfig(epsilon=0.1, tol=1e-9, max_iter=5000)
        args = _virtual_kernel_args(monkeypatch, random_pred(60, 5, seed=32, temperature=0.5), 0.5, 1.0, cfg)
        Q, iters, converged, *_ = _sweep_kernel(monkeypatch, *args)
        ref, ref_iters = _reference_cold_kernel(*args)
        assert converged and iters == ref_iters
        npt.assert_allclose(Q, ref, rtol=0, atol=1e-12 * ref.max())


class TestWarmStart:
    @pytest.mark.parametrize("name", sorted(WARM_SOLVES))
    def test_warm_and_cold_agree(self, name):
        tol = 1e-9
        cfg = ScalingConfig(epsilon=0.1, tol=tol, max_iter=20000)
        P = random_pred(300, 6, seed=33)
        P_next = _nearby(P, seed=34)
        previous = solve_warm_named(name, P, cfg)
        cold = solve_warm_named(name, P_next, cfg)
        warm = solve_warm_named(name, P_next, cfg, init=previous.col_potential)
        assert cold.converged and warm.converged
        if name == "sla":  # an upper-bounded solve takes no Newton phase
            assert warm.newton_steps == cold.newton_steps == 0
        else:  # both starts take the Newton phase after the same plain sweeps
            assert warm.iterations == cold.iterations == kernels.NEWTON_ENTRY + 1
            assert warm.newton_steps > 0 and cold.newton_steps > 0
        rho = WARM_SOLVES[name][0]
        for plan in (cold, warm):
            assert np.all(plan.row_marginal() <= (1 + tol) / 300)
            assert abs(plan.total_mass() - rho) <= tol
        # each stops once a sweep changes the scaling by under tol; with slow
        # contraction (hundreds of sweeps) the distance to the fixed point is
        # a larger multiple of tol
        npt.assert_allclose(warm.row_marginal(), cold.row_marginal(), rtol=0, atol=1e2 * tol / 300)
        npt.assert_allclose(warm.col_marginal(), cold.col_marginal(), rtol=0, atol=1e2 * tol)
        assert abs(warm.objective - cold.objective) <= 1e2 * tol * abs(cold.objective)

    @pytest.mark.parametrize("name", sorted(WARM_SOLVES))
    @pytest.mark.parametrize("value", [1e3, -1e3])
    def test_far_off_init_still_gives_a_feasible_plan(self, name, value):
        tol = 1e-9
        cfg = ScalingConfig(epsilon=0.1, tol=tol, max_iter=20000)
        P = random_pred(200, 5, seed=35)
        rho, _ = WARM_SOLVES[name]
        n_cols = 5 if rho == 1 else 6
        alternating = np.where(np.arange(n_cols) % 2, value, -value)
        cold = solve_warm_named(name, P, cfg)
        for init in (np.full(n_cols, value), alternating):
            plan = solve_warm_named(name, P, cfg, init=init)
            assert np.all(np.isfinite(plan.coupling))
            assert plan.converged
            assert np.all(plan.row_marginal() <= (1 + tol) / 200)
            assert abs(plan.total_mass() - rho) <= tol
            if name == "sla":  # its largest upper-bounded potential is 1e4 eps from 0: the cold start
                npt.assert_array_equal(plan.coupling, cold.coupling)
                assert plan.iterations == cold.iterations
            elif np.isinf(SOLVES[name][1]):
                npt.assert_allclose(plan.col_marginal(), np.full(5, rho / 5), rtol=0, atol=tol)

    @pytest.mark.parametrize("name", sorted(WARM_SOLVES))
    def test_mismatched_init_is_a_cold_start(self, name):
        # a potential from the other side of rho = 1 (K+1 columns against K)
        cfg = ScalingConfig(epsilon=0.1, tol=1e-8, max_iter=5000)
        P = random_pred(50, 4, seed=36)
        rho, _ = WARM_SOLVES[name]
        init = np.full(4 if rho < 1 else 5, 0.3)
        cold = solve_warm_named(name, P, cfg)
        warm = solve_warm_named(name, P, cfg, init=init)
        npt.assert_array_equal(warm.coupling, cold.coupling)
        npt.assert_array_equal(warm.col_potential, cold.col_potential)
        assert warm.iterations == cold.iterations

    @pytest.mark.parametrize("name, eps, dead", [(name, 0.1, False) for name in sorted(SOLVES)]
                             + [("balanced", 1e-2, True)])  # the lift raises the dead column's potential
    def test_a_start_from_zeros_builds_the_cold_start(self, monkeypatch, name, eps, dead):
        P = random_pred(60, 5, seed=39)
        if dead:
            P = dead_cluster_pred(P)
        rho, lam = SOLVES[name]
        C, _, _, f, *_ = _virtual_kernel_args(monkeypatch, P, rho, lam, ScalingConfig(epsilon=eps))
        hard = f == 1.0
        u, v, M, w, cap = kernels._start(C, None, f, hard, None, eps)
        M = M.copy()  # the kernel is this thread's buffer, which the next start overwrites
        u0, v0, M0, w0, cap0 = kernels._start(C, np.zeros(f.size), f, hard, None, eps)
        npt.assert_array_equal(u0, u)
        npt.assert_array_equal(v0, v)
        npt.assert_array_equal(M0, M)
        npt.assert_array_equal(w0, w)
        assert cap is None and cap0 is None
        assert (v[0] > 0) == dead

    def test_init_leaving_a_soft_column_under_the_floor_is_a_cold_start(self, monkeypatch):
        # soft column 0 sits 26/eps under the others: its kernel entries fall under
        # KERNEL_FLOOR in every row, and a soft column is not lifted, so the start
        # rejects the init and builds the cold kernel, Newton phase and all
        cfg = ScalingConfig(epsilon=0.01)
        C = prediction_cost(random_pred(60, 4, seed=3))
        cold = ot_core.solve_virtual(C, 0.5, 1.0, cfg)
        starts = []
        real = kernels._start

        def spy(C, v0, *rest):
            starts.append(v0)
            return real(C, v0, *rest)

        monkeypatch.setattr(kernels, "_start", spy)
        warm = ot_core.solve_virtual(C, 0.5, 1.0, cfg, init=np.array([-13.0, 13.0, 13.0, 13.0, 0.0]))
        assert len(starts) == 2 and starts[0] is not None and starts[1] is None
        npt.assert_array_equal(warm.coupling, cold.coupling)
        assert warm.iterations == cold.iterations
        assert warm.newton_steps == cold.newton_steps > 0

    def test_col_potential_length(self):
        from sppot import p2ot

        P = random_pred(20, 4, seed=37)
        cfg = ScalingConfig(epsilon=0.1)
        assert solve_pot(P, 0.5, cfg).col_potential.shape == (5,)
        assert solve_balanced_ot(P, cfg).col_potential.shape == (4,)
        assert solve_uot(P, 1.0, cfg).col_potential.shape == (4,)
        assert solve_sla(P, 0.5, 0.25, cfg).col_potential.shape == (5,)
        assert p2ot.solve_p2ot_gsa(p2ot.P2otProblem(P, 0.5, 1.0, cfg)).col_potential is None


class _NewtonSpy:
    """Wraps the kernel's `_newton`: `calls` holds the (entry, returned) column scalings and the steps of each call."""

    def __init__(self, monkeypatch):
        self.calls = []
        real = kernels._newton

        def spy(M, alpha, beta, v, b, *rest):
            entry = b.copy()
            out = real(M, alpha, beta, v, b, *rest)
            self.calls.append((entry, out[0].copy(), out[1]))
            return out

        monkeypatch.setattr(kernels, "_newton", spy)


def _warm_pair(name, cfg, temperature=1.0):
    """The potential of a solve on one posterior and a nearby posterior to warm-start from it."""
    P = random_pred(300, 6, seed=33, temperature=temperature)
    return solve_virtual_named(name, P, cfg).col_potential, _nearby(P, seed=34)


class TestNewtonPhase:
    # A solve without an upper bound that has not converged after NEWTON_ENTRY plain
    # sweeps takes Newton steps on the column potentials, from a warm start or a cold
    # one, then one plain sweep, whose stop rule decides `converged`.
    @pytest.mark.parametrize("eps, temperature", [(0.1, 1.0), (0.01, 0.3)])
    @pytest.mark.parametrize("name", sorted(SOLVES))
    def test_warm_solves_end_no_further_from_the_reference_than_the_kernel(self, monkeypatch, name, eps,
                                                                          temperature):
        cfg = ScalingConfig(epsilon=eps, tol=1e-6, max_iter=20000)
        init, P = _warm_pair(name, cfg, temperature)
        with monkeypatch.context() as sweeps_only:
            sweeps_only.setattr(kernels, "NEWTON_MAX_STEPS", 0)
            cold = solve_virtual_named(name, P, cfg)
        ref = solve_virtual_named(name, P, ScalingConfig(epsilon=eps, tol=1e-12, max_iter=200000))
        spy = _NewtonSpy(monkeypatch)
        warm = solve_virtual_named(name, P, cfg, init=init)
        (_, _, steps), = spy.calls
        assert warm.newton_steps == steps > 0 and cold.newton_steps == 0
        assert warm.converged and ref.converged
        assert warm.iterations == kernels.NEWTON_ENTRY + 1
        tol = cfg.tol
        assert np.all(warm.row_marginal() <= (1 + tol) / 300)
        assert abs(warm.total_mass() - SOLVES[name][0]) <= tol
        npt.assert_array_less(np.abs(warm.coupling - ref.coupling).max(),
                              np.abs(cold.coupling - ref.coupling).max())

    @pytest.mark.parametrize("name", sorted(SOLVES))
    def test_far_off_starts_raise_no_warning_and_hard_columns_pin_the_gauge(self, monkeypatch, name):
        # a start 10 N(0, 1) off at eps 0.01 on a peaked posterior: P2OT's and UOT's trials
        # overflow, divide by zero and turn NaN (seen with np.seterrcall), and every such trial is
        # rejected without a warning, which tier-1 would turn into an error
        tol = 1e-9
        cfg = ScalingConfig(epsilon=0.01, tol=tol, max_iter=5000)
        P = random_pred(60, 3, seed=35, temperature=0.3)
        rho, lam = SOLVES[name]
        init = 10 * np.random.default_rng(1).normal(size=3 if rho == 1 else 4)
        spy = _NewtonSpy(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plan = solve_virtual_named(name, P, cfg, init=init)
        (entry, returned, steps), = spy.calls
        assert steps > 0 and plan.converged
        assert np.all(plan.row_marginal() <= (1 + tol) / 60)
        assert abs(plan.total_mass() - rho) <= tol
        if np.isinf(lam):  # hard columns only: the last column's potential is pinned
            assert returned[-1] == entry[-1]
            npt.assert_allclose(plan.col_marginal(), np.full(3, rho / 3), rtol=0, atol=tol)

    @pytest.mark.parametrize("name", sorted(SOLVES))
    def test_a_failed_line_search_hands_back_the_last_accepted_iterate(self, monkeypatch, name):
        cfg = ScalingConfig(epsilon=0.1, tol=1e-9, max_iter=20000)
        init, P = _warm_pair(name, cfg)
        monkeypatch.setattr(kernels, "NEWTON_ARMIJO", np.inf)  # no trial rises enough
        spy = _NewtonSpy(monkeypatch)
        plan = solve_virtual_named(name, P, cfg, init=init)
        (entry, returned, steps), = spy.calls
        assert steps == 0 and plan.newton_steps == 0
        npt.assert_array_equal(returned, entry)
        ref = solve_virtual_named(name, P, cfg)
        assert plan.converged and ref.converged
        npt.assert_allclose(plan.coupling, ref.coupling, rtol=0, atol=1e-7 * ref.coupling.max())

    @pytest.mark.parametrize("seed", [1301, 1302])  # 1301 found the cell; 1302, the same recipe, is held out
    def test_a_cold_solve_the_sweeps_alone_leave_unconverged_converges(self, monkeypatch, seed):
        # POT at rho 0.9 on a peaked posterior at eps 1e-2: the sweeps alone stop at max_iter
        # unconverged, and given the sweeps to converge at this tol end 5e-5 of the reference's
        # largest entry off it. The Newton phase converges it within 10 tol of that entry.
        P = random_pred(2048, 10, seed=seed, temperature=0.3)
        cfg = ScalingConfig(epsilon=1e-2, tol=1e-6, max_iter=1000)
        with monkeypatch.context() as sweeps_only:
            sweeps_only.setattr(kernels, "NEWTON_MAX_STEPS", 0)
            assert not solve_pot(P, 0.9, cfg).converged
        plan = solve_pot(P, 0.9, cfg)
        assert plan.converged and plan.newton_steps > 0
        ref = _log_domain_reference(prediction_cost(P), 0.9, np.inf, cfg.epsilon)
        assert np.abs(plan.coupling - ref).max() <= 10 * cfg.tol * ref.max()

    def test_sla_never_enters_and_a_rejected_start_is_the_cold_start(self, monkeypatch):
        cfg = ScalingConfig(epsilon=0.1, tol=1e-9, max_iter=20000)
        init, P = _warm_pair("pot", cfg)
        C = prediction_cost(P)
        spy = _NewtonSpy(monkeypatch)
        sla = [ot_core.solve_virtual(C, 0.4, np.inf, cfg, init=init, upper=0.1),  # a warm start
               solve_sla(P, 0.4, 0.1, cfg)]
        assert spy.calls == [] and all(plan.newton_steps == 0 for plan in sla)
        cold = {name: solve_virtual_named(name, P, cfg) for name in SOLVES}
        assert [steps for _, _, steps in spy.calls] == [plan.newton_steps for plan in cold.values()]
        assert all(plan.converged and plan.newton_steps > 0 for plan in cold.values())
        cold_pot = cold["pot"]
        for rejected in (init[:-1], np.where(np.arange(init.size) == 2, np.nan, init)):  # wrong length, non-finite
            plan = solve_virtual_named("pot", P, cfg, init=rejected)
            npt.assert_array_equal(plan.coupling, cold_pot.coupling)
            npt.assert_array_equal(plan.col_potential, cold_pot.col_potential)
            assert plan.iterations == cold_pot.iterations
            assert plan.newton_steps == cold_pot.newton_steps


class TestSlaStopping:
    def test_converged_means_mass_holds_on_a_flat_posterior(self):
        # on flat posteriors the absolute |b_new - b| rule stopped with the
        # mass 4-17% short of rho; the relative rule bounds it by tol
        tol = 1e-6
        P = random_pred(5632, 10, seed=38)
        plan = solve_sla(P, 0.5, 0.1, ScalingConfig(epsilon=0.1, tol=tol, max_iter=1000))
        assert plan.converged
        assert abs(plan.total_mass() - 0.5) <= 10 * tol
        assert np.all(plan.col_marginal() <= 0.1 * (1 + tol))


def _step_free_kernel(C, alpha, beta, f, eps, tol, max_iter):
    """The scaling kernel's loop without the mass step: the same start,
    momentum and log-domain absorption, which builds the frame of the
    absorbed column potential as the start does, and the unshifted column
    potential."""
    from sppot._kernels import py as kernels

    C = np.asfortranarray(C)
    m, n = C.shape
    hard = f == 1.0
    threshold = kernels.ABSORB_THRESHOLD
    u, v, M, w, _ = kernels._start(C, None, f, hard, None, eps)
    a, b, step = np.ones(m), np.ones(n), np.ones(n)
    momentum = kernels._Momentum()
    for it in range(1, max_iter + 1):
        a = alpha / (M @ b)
        b_new = (1.0 if w is None else w) * (beta / (M.T @ a)) ** f  # w is None where every column is hard
        ratio = b_new / b
        err = float(np.abs(ratio - 1.0).max())
        if err < tol or not np.isfinite(err) or it == max_iter:
            b = b_new
            break
        weights = momentum.weights(err)
        if momentum.restarted:
            b_new = b * last_plain / step
        elif weights is not None:
            b_new = b * ratio ** weights[0] * step ** weights[1]
        last_plain, step, b = ratio, b_new / b, b_new
        if max(a.max(), b.max()) > threshold:
            v += eps * np.log(b)
            u, M, w, _, _ = kernels._frame(C, v, f, hard, None, eps)
            b = np.ones(n)
    Q = np.multiply(a[:, None], M, order="C")
    Q *= b
    return Q, it, err < tol, v + eps * np.log(b)


def _hard_targets_over_row_mass():
    """20x4 kernel arguments whose hard columns ask for 0.6 + 0.5 of a row mass of 1."""
    C = prediction_cost(random_pred(20, 4, seed=39))
    beta = np.array([0.6, 0.5, 0.2, 0.2])
    f = np.array([1.0, 1.0, 1.0 / 1.1, 1.0 / 1.1])  # two hard columns, then two soft ones at lam = 1, eps = 0.1
    return C, np.full(20, 1 / 20), beta, f


class TestMassStep:
    @pytest.mark.parametrize("eps", [0.1, 0.01])
    @pytest.mark.parametrize("name", ["balanced", "pot"])
    def test_no_soft_column_is_the_step_free_recursion(self, monkeypatch, name, eps):
        from sppot._kernels import py as kernels

        cfg = ScalingConfig(epsilon=eps, tol=1e-8, max_iter=3000)
        rho, lam = SOLVES[name]
        args = _virtual_kernel_args(monkeypatch, random_pred(200, 6, seed=40, temperature=0.5), rho, lam, cfg)
        for x, y in zip(_sweep_kernel(monkeypatch, *args), _step_free_kernel(*args)):
            npt.assert_array_equal(x, y)

    def test_hard_targets_over_row_mass_take_no_step(self, monkeypatch):
        # no feasible plan: the hard columns leave the soft ones a mass of -0.1
        C, alpha, beta, f = _hard_targets_over_row_mass()
        args = (C, alpha, beta, f, 0.1, 1e-6, 1000)
        out = _sweep_kernel(monkeypatch, *args)
        for x, y in zip(out, _step_free_kernel(*args)):
            npt.assert_array_equal(x, y)

    @pytest.mark.parametrize("name", ["uot", "p2ot"])
    def test_same_plan_and_potential_as_the_step_free_recursion(self, monkeypatch, name):
        # the step moves the iterates, not the fixed point: at a tight tol the
        # plan, and the column potential a warm start is taken from, agree
        from sppot._kernels import py as kernels

        cfg = ScalingConfig(epsilon=0.1, tol=1e-13, max_iter=20000)
        rho, lam = SOLVES[name]
        args = _virtual_kernel_args(monkeypatch, random_pred(300, 6, seed=42), rho, lam, cfg)
        Q, iters, converged, v, *_ = _sweep_kernel(monkeypatch, *args)
        ref_Q, ref_iters, ref_converged, ref_v = _step_free_kernel(*args)
        assert converged and ref_converged and iters < ref_iters
        npt.assert_allclose(Q, ref_Q, rtol=0, atol=1e-10 * ref_Q.max())
        npt.assert_allclose(v, ref_v, rtol=0, atol=1e-8)

    def test_row_mass_rounding_under_the_virtual_target_takes_no_step(self):
        # at rho = 1e-17 the rows' 7 x 1/7 rounds under the virtual column's 1 - rho: the soft
        # columns are left a mass of -2.2e-16, so the step is skipped and the solve still converges
        assert np.full(7, 1 / 7).sum() - (1 - 1e-17) < 0
        plan = ot_core.solve_virtual(prediction_cost(random_pred(7, 4, seed=46)), 1e-17, 1.0, ScalingConfig(0.1))
        assert plan.converged and plan.iterations == 3
        assert np.all(np.isfinite(plan.coupling)) and np.isfinite(plan.objective)
        assert 0 < plan.total_mass() < 1e-15

    @pytest.mark.parametrize("rho", [0.1, 0.5, 1.0])
    def test_total_mass_is_exact(self, rho):
        # after the step the soft columns hold exactly the mass the rows and
        # hard columns leave them, whatever the sweep count
        cfg = ScalingConfig(epsilon=0.1, tol=1e-3)
        plan = ot_core.solve_virtual(-np.log(random_pred(500, 8, seed=43)), rho, 1.0, cfg)
        assert abs(plan.total_mass() - rho) <= 1e-12


COLUMN_MODEL_SOLVES = {
    # name: (rho, solve(P, rho, cfg)) with one kernel call each
    "balanced": (1.0, lambda P, rho, cfg: solve_balanced_ot(P, cfg)),
    "uot": (1.0, lambda P, rho, cfg: solve_uot(P, 1.0, cfg)),
    "pot": (0.4, lambda P, rho, cfg: solve_pot(P, rho, cfg)),
    "p2ot": (0.4, lambda P, rho, cfg: ot_core.solve_virtual(prediction_cost(P), rho, 1.0, cfg)),
    "sla-slack": (0.4, lambda P, rho, cfg: solve_sla(P, rho, 1.2 * rho / P.shape[1], cfg)),
    "sla-binding": (0.4, lambda P, rho, cfg: solve_sla(P, rho, rho / P.shape[1], cfg)),
    "sp2ot-inner": (0.4, lambda P, rho, cfg: _one_sp2ot_inner_solve(P, rho, cfg)),
}


def _one_sp2ot_inner_solve(P, rho, cfg):
    from sppot.sp2ot import Sp2otProblem, solve_sp2ot

    N = P.shape[0]
    A = np.ones((N, N)) - np.eye(N)
    return solve_sp2ot(Sp2otProblem(P, A, 0.5, 1.0, rho, cfg.epsilon, outer_max_iter=1, inner=cfg))


class TestColumnModel:
    # the mass step reads the soft columns as one slice and prices them with one exponent:
    # every solve passes K real columns sharing one exponent, then the hard virtual column
    @pytest.mark.parametrize("name", sorted(COLUMN_MODEL_SOLVES))
    def test_real_columns_share_one_exponent_before_the_virtual_column(self, monkeypatch, name):
        K = 5
        P = random_pred(40, K, seed=47)
        rho, solve = COLUMN_MODEL_SOLVES[name]
        args, _ = _kernel_call(monkeypatch, lambda: solve(P, rho, ScalingConfig(epsilon=0.1)))
        beta, f = args[2], args[3]
        assert np.all(f[:K] == f[0])
        if rho < 1:
            assert f.shape == (K + 1,) and f[K] == 1.0 and beta[K] == 1.0 - rho
        else:
            assert f.shape == (K,)
        soft = np.flatnonzero(f < 1)
        assert soft.size == 0 or np.array_equal(soft, np.arange(K))
        assert soft.size == (K if name in ("uot", "p2ot", "sp2ot-inner") else 0)


def _record_absorptions(monkeypatch):
    """A list that collects (max(a), max(b)) of every absorption the kernel makes from here on.

    An absorption builds the frame of the absorbed column potential; the
    wrapper reads the loop's row and column scalings from its locals there.
    The start's build, which `_start` calls, is not recorded."""
    absorbed = []
    build = kernels._frame

    def spy(*args):
        loop = sys._getframe(1)
        if loop.f_code.co_name == "scaling_weighted_kl":
            absorbed.append((float(loop.f_locals["a"].max()), float(loop.f_locals["b"].max())))
        return build(*args)

    monkeypatch.setattr(kernels, "_frame", spy)
    return absorbed


ABSORPTION_SOLVES = ["balanced", "p2ot", "sla"]


def _absorbing_solve(monkeypatch, name, threshold):
    """The eps-0.002 solve of `name` on a peaked 200 x 6 posterior, at absorption threshold `threshold`."""
    monkeypatch.setattr(kernels, "ABSORB_THRESHOLD", threshold)
    P = random_pred(200, 6, seed=44, temperature=0.3)
    cfg = ScalingConfig(epsilon=0.002, tol=1e-12, max_iter=3000)
    return solve_sla(P, 0.4, 0.1, cfg) if name == "sla" else solve_virtual_named(name, P, cfg)


class TestAbsorption:
    # At eps 0.002 and threshold 10 the balanced solve absorbs 65 times, P2OT 37 and
    # SLA 9; the row scaling alone triggers none of the first two's absorptions (every
    # kernel row holds a 1, so a stays under max(alpha)/min(b)) and all 9 of SLA's,
    # whose caps hold b down. Against threshold inf (no absorption) each takes the same sweeps.
    # The counts are the sweeps' own: the Newton phase ends P2OT's solve after 3 absorptions.
    @pytest.mark.parametrize("name, absorptions, row_triggered", [("balanced", 65, 0), ("p2ot", 37, 0), ("sla", 9, 9)],
                             ids=ABSORPTION_SOLVES)
    def test_absorptions_leave_the_iterates_unchanged(self, monkeypatch, name, absorptions, row_triggered):
        monkeypatch.setattr(kernels, "NEWTON_MAX_STEPS", 0)  # the sweeps alone
        ref = _absorbing_solve(monkeypatch, name, np.inf)
        # every kernel build after the start's is an absorption; a bound that skipped
        # reading the row scaling where it crossed the threshold would drop some
        builds = []
        build = kernels._floored_exp
        monkeypatch.setattr(kernels, "_floored_exp", lambda M, eps: builds.append(1) or build(M, eps))
        absorbed = _record_absorptions(monkeypatch)
        plan = _absorbing_solve(monkeypatch, name, 10.0)
        assert ref.converged and plan.iterations == ref.iterations
        npt.assert_allclose(plan.coupling, ref.coupling, rtol=0, atol=1e-12 * ref.coupling.max())
        assert len(builds) == 1 + absorptions == 1 + len(absorbed)
        assert sum(a_max > 10.0 >= b_max for a_max, b_max in absorbed) == row_triggered

    @pytest.mark.parametrize("name", ABSORPTION_SOLVES)
    def test_every_kernel_row_holds_a_one(self, monkeypatch, name):
        # the absorption test's bound max(a) <= max(alpha)/min(b) rests on it: the start's
        # kernel and every absorption's have largest entry exactly 1 in every row
        row_maxima = []
        build = kernels._floored_exp
        monkeypatch.setattr(kernels, "_floored_exp", lambda M, eps: row_maxima.append(build(M, eps).max(axis=1)) or M)
        plan = _absorbing_solve(monkeypatch, name, 10.0)
        assert plan.converged and len(row_maxima) > 1
        for maxima in row_maxima:
            npt.assert_array_equal(maxima, 1.0)


@pytest.mark.parametrize("x", [[0.5, 2.0, 1.0], [1.0, np.inf, 0.0], [1.0, np.nan, 3.0], [np.inf, np.nan]])
def test_min_max_reads_as_numpy_does(x):
    # the sweep's change and absorption test read K-vectors through it: NaN must propagate
    x = np.array(x)
    npt.assert_array_equal(kernels._min_max(x), (x.min(), x.max()))


MOMENTUM_FAMILY = {
    # name: solve(P, rho, cfg); balanced and UOT keep every row, so they run at rho = 1 only
    "balanced": lambda P, rho, cfg: solve_balanced_ot(P, cfg),
    "uot": lambda P, rho, cfg: solve_uot(P, 1.0, cfg),
    "pot": lambda P, rho, cfg: solve_pot(P, rho, cfg),
    "p2ot": lambda P, rho, cfg: ot_core.solve_virtual(prediction_cost(P), rho, 1.0, cfg),
    "sla": lambda P, rho, cfg: solve_sla(P, rho, 1.0 / P.shape[1], cfg),
}
MOMENTUM_GRID = [(name, eps, temperature, rho)
                 for name in MOMENTUM_FAMILY
                 for eps in (0.1, 0.01, 1e-3)
                 for temperature in (1.0, 0.3)  # flat and peaked posteriors
                 for rho in ((1.0,) if name in ("balanced", "uot") else (0.1, 0.5, 1.0))]
# At eps 1e-3 on the peaked posterior the balanced program (POT and SLA at
# rho = 1 are that program) converges sublinearly: the plain change is still
# ~1e-5 after 100,000 sweeps, so neither loop reaches tol 1e-12.
SUBLINEAR = {(name, 1e-3, 0.3, 1.0) for name in ("balanced", "pot", "sla")}


def _plain_kernel(monkeypatch, *args, **kwargs):
    """The kernel's outputs with no momentum: the plain recursion."""
    monkeypatch.setattr(kernels, "MOMENTUM_MIN_RATE", 1.0)  # no rate qualifies
    return kernels.scaling_weighted_kl(*args, **kwargs)


class TestMomentum:
    @pytest.mark.parametrize("name, eps, temperature, rho", MOMENTUM_GRID)
    def test_reaches_the_plain_fixed_point_in_no_more_sweeps(self, monkeypatch, name, eps, temperature, rho):
        tol = 1e-12
        cfg = ScalingConfig(epsilon=eps, tol=tol, max_iter=30000)
        P = random_pred(300, 4, seed=61, temperature=temperature)
        args, kwargs = _kernel_call(monkeypatch, lambda: MOMENTUM_FAMILY[name](P, rho, cfg))
        Q, iters, converged, v, entropic, *_ = kernels.scaling_weighted_kl(*args, **kwargs)
        again = kernels.scaling_weighted_kl(*args, **kwargs)
        assert again[1] == iters
        for x, y in zip(again, (Q, iters, converged, v, entropic)):
            npt.assert_array_equal(x, y)
        ref_Q, ref_iters, ref_converged, *_ = _plain_kernel(monkeypatch, *args, **kwargs)
        assert iters <= ref_iters
        alpha = args[1]
        if converged:  # each row within a factor 1 +- tol of its target, to rounding
            assert np.abs(Q.sum(axis=1) / alpha - 1.0).max() <= tol + 1e-14
        assert ref_converged != ((name, eps, temperature, rho) in SUBLINEAR)
        if ref_converged:
            assert converged
            npt.assert_allclose(Q, ref_Q, rtol=0, atol=1e-8 * ref_Q.max())

    def test_restart_goes_plain_and_estimates_again(self):
        momentum = kernels._Momentum()
        assert [momentum.weights(e) for e in (1.0, 0.5, 0.25)] == [None, None, None]
        s = np.sqrt(1 - 0.5)
        weights = (4 / (1 + s) ** 2, ((1 - s) / (1 + s)) ** 2)
        npt.assert_allclose(momentum.weights(0.125), weights, rtol=1e-15)  # rate 0.5 from three ratios
        assert momentum.weights(0.1) == momentum.weights(0.2) == momentum.current  # within 2x the best, 0.1
        assert momentum.weights(0.21) is None and momentum.restarted  # over it: the move is dropped
        assert [momentum.weights(e) for e in (0.2, 0.19, 0.18)] == [None] * 3  # three plain ratios first
        assert not momentum.restarted and momentum.weights(0.17) is not None
        fast = kernels._Momentum()
        assert [fast.weights(e) for e in (1.0, 0.1, 0.01, 0.001, 1e-4)] == [None] * 5  # rate 0.1: no momentum

    def test_restarts_in_a_solve_keep_its_fixed_point(self, monkeypatch):
        # SLA's prox switches its bounds on and off, and the momentum restarts
        restarts = []
        weights = kernels._Momentum.weights

        def spy(self, err):
            was = self.current
            out = weights(self, err)
            restarts.extend([err] if was is not None and out is None else [])
            return out

        cfg = ScalingConfig(epsilon=0.1, tol=1e-12, max_iter=30000)
        P = random_pred(300, 4, seed=61, temperature=1.0)
        args, kwargs = _kernel_call(monkeypatch, lambda: solve_sla(P, 0.1, 0.25, cfg))
        monkeypatch.setattr(kernels._Momentum, "weights", spy)
        Q, iters, converged, *_ = kernels.scaling_weighted_kl(*args, **kwargs)
        ref_Q, ref_iters, ref_converged, *_ = _plain_kernel(monkeypatch, *args, **kwargs)
        assert restarts and converged and ref_converged and iters < ref_iters
        npt.assert_allclose(Q, ref_Q, rtol=0, atol=1e-8 * ref_Q.max())


class TestSweepBudget:
    # A count, not a clock: the sweeps and Newton steps that every kernel-backed
    # solver takes on seeded 1000x10 flat and peaked posteriors at the benchmark's
    # settings (eps 0.1, tol 1e-6, the solve-p2ot rhos). 424 sweeps and 108 Newton
    # steps; 1241 and 108 without the momentum, 1333 and 0 without the Newton
    # phase. Each ceiling is the measured count + 10%, so a change that drops
    # either acceleration fails here.
    CEILING = 466
    NEWTON_CEILING = 118

    def test_total_sweeps_stay_under_the_ceiling(self):
        from sppot import p2ot

        n, k = 1000, 10
        cfg = ScalingConfig(epsilon=0.1, tol=1e-6, max_iter=1000)
        rng = np.random.default_rng(0)
        plans = []
        for temperature in (1.0, 0.3):
            z = rng.normal(size=(n, k)) / temperature
            P = np.exp(z - z.max(axis=1, keepdims=True))
            P /= P.sum(axis=1, keepdims=True)
            plans += [solve_balanced_ot(P, cfg), solve_uot(P, 1.0, cfg)]
            for rho in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
                plans += [p2ot.solve_p2ot_fast(p2ot.P2otProblem(P, rho, 1.0, cfg)), solve_pot(P, rho, cfg),
                          solve_sla(P, rho, 1.0 / k, cfg)]
        assert all(plan.converged for plan in plans)
        assert sum(plan.iterations for plan in plans) <= self.CEILING
        assert sum(plan.newton_steps for plan in plans) <= self.NEWTON_CEILING


# MOMENTUM_FAMILY at K = 10 columns, with SLA's bound at 1.2 rho/K, where it
# binds on the popular clusters.
KERNEL_FAMILY = {**MOMENTUM_FAMILY, "sla": lambda P, rho, cfg: solve_sla(P, rho, 1.2 * rho / 10, cfg)}
POSTERIORS = {
    "flat": lambda: random_pred(512, 10, seed=0),
    "peaked": lambda: random_pred(512, 10, seed=0, temperature=0.3),
    "dead": lambda: dead_cluster_pred(random_pred(512, 10, seed=0)),  # no row predicts cluster 0
}
OBJECTIVE_GRID = [f"{name}-{eps}-{posterior}-{rho}"
                  for name in KERNEL_FAMILY
                  for eps in (0.1, 1e-2, 1e-3)
                  for posterior in POSTERIORS
                  for rho in ((1.0,) if name in ("balanced", "uot") else (0.1, 0.5, 1.0))]
# Cells that raise: the soft dead column is not lifted at the start
# (ROADMAP direction 8).
RAISES = {f"{name}-0.001-dead-{rho}" for name, rhos in (("uot", (1.0,)), ("p2ot", (0.1, 0.5, 1.0)))
          for rho in rhos}


class TestObjectiveFromScalings:
    @pytest.mark.parametrize("cell", OBJECTIVE_GRID)
    def test_equals_the_entropic_objective_of_the_plan(self, cell):
        name, eps, posterior, rho = cell.split("-")
        eps, rho = float(eps), float(rho)
        P = POSTERIORS[posterior]()
        cfg = ScalingConfig(epsilon=eps)
        if cell in RAISES:
            with np.errstate(all="ignore"), pytest.raises(ot_core.NumericalOverflowError):
                KERNEL_FAMILY[name](P, rho, cfg)
            return
        plan = KERNEL_FAMILY[name](P, rho, cfg)
        K = P.shape[1]
        lam = 1.0 if name in ("uot", "p2ot") else np.inf
        ref = entropic_objective(plan.coupling, ot_core.prediction_cost(P), rho / K, lam, eps)
        assert np.isfinite(plan.objective)
        assert abs(plan.objective - ref) <= 1e-12 * abs(ref)
        if name == "sla" and rho < 1:  # the bound holds and binds
            upper = 1.2 * rho / K
            col = plan.col_marginal()
            assert col.max() <= upper * (1 + 1e-12) and np.any(col >= upper * (1 - cfg.tol))


    def test_a_non_finite_virtual_column_still_raises(self, monkeypatch):
        # the kernel never forms the virtual column, yet a NaN there raises:
        # a zero virtual kernel column sends its scaling to inf in sweep 1
        start = kernels._start

        def zero_virtual_column(*args):
            u, v, M, w, cap = start(*args)
            M[:, -1] = 0.0
            return u, v, M, w, cap

        monkeypatch.setattr(kernels, "_start", zero_virtual_column)
        with np.errstate(all="ignore"), pytest.raises(ot_core.NumericalOverflowError, match="after 1 iterations"):
            solve_pot(random_pred(50, 4, seed=66), 0.5, ScalingConfig(epsilon=0.1))


# Cells that raised or warned before absorption rebuilt the kernel with the
# start's floor, and P2OT at eps 3e-4 on the flat posterior, which raised too.
MENDED = ["uot-0.01-dead-1.0", "p2ot-0.01-dead-0.1", "p2ot-0.01-dead-0.5", "p2ot-0.01-dead-1.0",
          "sla-0.01-dead-0.1", "sla-0.01-dead-0.5", "sla-0.001-dead-0.1", "sla-0.001-dead-0.5",
          "sla-0.001-dead-1.0", "p2ot-0.0003-flat-0.5"]
# Where the recursion contracts slowly, a change under tol 1e-10 still leaves
# the plan 1.1e-8 (eps 1e-2) and 4.8e-8 (eps 1e-3) of its largest entry off
# the fixed point; at tol 1e-12 these read 1.1e-10 and 4.8e-10.
SETTLES_SLOWLY = {"sla-0.01-dead-0.1", "sla-0.001-dead-0.1"}


def _lse(T, axis):
    """log sum exp of T along `axis`, overwriting T."""
    m = T.max(axis=axis, keepdims=True)
    T -= m
    # terms under exp(-700) change no sum that holds exp(0) = 1, and their subnormal exps are slow
    np.maximum(T, -700.0, out=T)
    np.exp(T, out=T)
    return (m + np.log(T.sum(axis=axis, keepdims=True))).squeeze(axis)


def _log_domain_reference(C0, rho, lam, eps, upper=None, tol=1e-12, max_iter=100000):
    """The N x K plan of the virtual-column program, solved on the log potentials.

    Log-sum-exp row and column updates of x = g/eps and y = h/eps, log Q = x_i - C_ij/eps + y_j:
    hard columns y = log beta - lse, soft ones f (log beta - lse), upper-bounded ones
    min(0, log beta - lse), then the shift of the soft columns' y that sets their mass to
    what the rows and hard columns leave them. No kernel, no floor, no absorption. The
    kernel's heavy-ball weights move y (a plain solve takes up to ~74,000 sweeps here),
    and the sweep that ends the loop, once the plain change is under tol, is plain.
    """
    N, K = C0.shape
    n = K + 1 if rho < 1 else K
    Z = np.zeros((n, N))  # -C/eps of the extension, one column per row
    Z[:K] = -C0.T / eps
    beta = np.append(np.full(K, rho / K), 1.0 - rho)[:n]
    f = np.ones(n)
    if lam < np.inf:
        f[:K] = lam / (lam + eps)
    if upper is not None:
        beta[:K] = upper
    soft = f < 1
    log_m_soft = np.log(1.0 - beta[~soft].sum()) if soft.any() else 0.0

    def rows(y):
        return -np.log(N) - _lse(Z + y[:, None], axis=0)

    def plain(y):
        col = _lse(Z + rows(y), axis=1)
        y_new = f * (np.log(beta) - col)
        if upper is not None:
            y_new[:K] = np.minimum(0.0, y_new[:K])
        if soft.any():
            y_new[soft] += log_m_soft - _lse(y_new[soft] + col[soft], axis=0)
        return y_new

    y = step = last = np.zeros(n)
    momentum = kernels._Momentum()
    for _ in range(max_iter):
        y_plain = plain(y)
        d = y_plain - y
        err = np.abs(d).max()
        if err < tol:
            y = y_plain
            break
        weights = momentum.weights(err)
        if momentum.restarted:
            y_new = y + last - step
        elif weights is not None:
            y_new = y + weights[0] * d + weights[1] * step
            if upper is not None:
                y_new[:K] = np.minimum(0.0, y_new[:K])
        else:
            y_new = y_plain
        last, step, y = d, y_new - y, y_new
    assert err < tol
    return np.exp(rows(y)[:, None] + Z[:K].T + y[:K])


class TestMendedCells:
    @pytest.mark.parametrize("cell", MENDED)
    def test_matches_the_log_domain_reference(self, cell):
        name, eps, posterior, rho = cell.split("-")
        eps, rho = float(eps), float(rho)
        P = POSTERIORS[posterior]()
        plan = KERNEL_FAMILY[name](P, rho, ScalingConfig(epsilon=eps, tol=1e-10, max_iter=20000))
        lam = 1.0 if name in ("uot", "p2ot") else np.inf
        upper = 1.2 * rho / 10 if name == "sla" else None
        ref = _log_domain_reference(prediction_cost(P), rho, lam, eps, upper)
        assert plan.converged
        bound = 1e-7 if cell in SETTLES_SLOWLY else 1e-8
        assert np.abs(plan.coupling - ref).max() <= bound * ref.max()


class TestAllocation:
    # A warm solve allocates the cost -log P, the plan it returns and
    # vectors; the extended cost and the kernel live in this thread's
    # workspace, which N x K (rho = 1) and N x (K+1) solves share. Before
    # the workspace and the real-column plan it peaked at 5.25-5.55x the
    # plan's bytes.
    @pytest.mark.parametrize("name", ["balanced", "uot", "pot", "sla", "p2ot"])
    def test_a_warm_solve_peaks_under_3_5_plans(self, name):
        P = random_pred(2000, 10, seed=62)
        cfg = ScalingConfig(epsilon=0.1)
        KERNEL_FAMILY[name](P, 0.5, cfg)
        KERNEL_FAMILY["p2ot"](P, 0.5, cfg)  # the last solve before the traced one extends the cost
        tracemalloc.start()
        try:
            plan = KERNEL_FAMILY[name](P, 0.5, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * plan.coupling.nbytes


def _p2ot_solve(P):
    return ot_core.solve_virtual(ot_core.prediction_cost(P), 0.5, 1.0, ScalingConfig(epsilon=0.1))


def _assert_owns_its_arrays(plan):
    """Neither the plan nor its potential is a view of this thread's workspace, in any slot it has made.

    The kernel forms the plan in its own buffer and then copies it out."""
    for slot in ("kernel", "cost", "newton"):
        buf = getattr(kernels._buffers, slot, None)  # "newton" exists once a warm start has run the phase
        if buf is not None:
            assert not np.shares_memory(plan.coupling, buf)
            assert not np.shares_memory(plan.col_potential, buf)


class TestWorkspace:
    def test_threads_solving_at_once_get_the_serial_plans(self):
        inputs = [random_pred(512, 10, seed=63), random_pred(512, 10, seed=64)]
        serial = [_p2ot_solve(P) for P in inputs]

        def solve_many(P):
            plans = []
            for _ in range(100):
                plans.append(_p2ot_solve(P))
                _assert_owns_its_arrays(plans[-1])
            return plans

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(solve_many, P) for P in inputs]
                results = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for ref, plans in zip(serial, results):
            assert len(plans) == 100
            for plan in plans:
                npt.assert_array_equal(plan.coupling, ref.coupling)
                npt.assert_array_equal(plan.col_potential, ref.col_potential)
                assert plan.iterations == ref.iterations and plan.objective == ref.objective

    def test_a_warm_solve_owns_its_arrays(self):
        P = random_pred(512, 10, seed=63)
        C = prediction_cost(P)
        cfg = ScalingConfig(epsilon=0.1)
        cold = ot_core.solve_virtual(C, 0.5, 1.0, cfg)
        warm = ot_core.solve_virtual(1.01 * C, 0.5, 1.0, cfg, init=cold.col_potential)
        assert warm.newton_steps > 0  # so this thread holds all three slots
        assert all(getattr(kernels._buffers, slot, None) is not None for slot in ("kernel", "cost", "newton"))
        for plan in (cold, warm):
            _assert_owns_its_arrays(plan)

    def test_a_shape_change_gives_the_plans_of_fresh_processes(self, tmp_path):
        # the workspace is replaced at 5632 rows and kept at 512, whose solve uses its front
        sizes = (512, 5632, 512)
        plans = [_p2ot_solve(random_pred(n, 10, seed=65)) for n in sizes]
        for plan in plans:
            _assert_owns_its_arrays(plan)
        src = Path(sppot.__file__).resolve().parents[1]
        tests = Path(__file__).resolve().parent
        for n in sorted(set(sizes)):
            script = (f"import sys; sys.path[:0] = [{str(src)!r}, {str(tests)!r}]\n"
                      "import numpy as np\n"
                      "from conftest import random_pred\n"
                      "from test_ot_core import _p2ot_solve\n"
                      f"plan = _p2ot_solve(random_pred({n}, 10, seed=65))\n"
                      f"np.savez({str(tmp_path / f'{n}.npz')!r}, Q=plan.coupling, v=plan.col_potential)\n")
            subprocess.run([sys.executable, "-c", script], check=True, timeout=120)
        for n, plan in zip(sizes, plans):
            with np.load(tmp_path / f"{n}.npz") as fresh:
                npt.assert_array_equal(plan.coupling, fresh["Q"])
                npt.assert_array_equal(plan.col_potential, fresh["v"])
