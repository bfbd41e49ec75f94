import re
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from conftest import _kernel_call, dead_cluster_pred, random_pred
import sppot
from sppot import oracle, p2ot
from sppot.ot_core import (
    DimensionMismatchError,
    NumericalOverflowError,
    ScalingConfig,
    prediction_cost,
    solve_balanced_ot,
    solve_pot,
    solve_uot,
    solve_virtual,
)
from sppot.p2ot import (
    P2otProblem,
    solve_p2ot_fast,
    solve_p2ot_gsa,
)


def make_problem(n, k, rho, seed, lam=1.0, eps=0.1, tol=1e-8, max_iter=5000):
    return P2otProblem(random_pred(n, k, seed), rho, lam, ScalingConfig(epsilon=eps, tol=tol, max_iter=max_iter))


def random_problem(n, k, rho, seed, lam=1.0, epsilon=0.1):
    """Seeded instance on `random_pred(n, k, seed)` at the default stopping rule."""
    return P2otProblem(random_pred(n, k, seed), rho, lam, ScalingConfig(epsilon=epsilon))


class TestValidation:
    def test_rejects_non_stochastic_rows(self):
        with pytest.raises(ValueError):
            P2otProblem(np.ones((3, 3)), 0.5, 1.0, ScalingConfig(epsilon=0.1))

    @pytest.mark.parametrize("off, accepted", [(1.05e-5, True), (-1.05e-5, True), (1.15e-5, False),
                                               (-1.15e-5, False), (np.nan, False)])
    def test_row_sum_tolerance_is_allclose(self, off, accepted):
        # the row check accepts and rejects what np.allclose(row sums, 1, atol=1e-6) did
        P = random_pred(6, 3, seed=0)
        P[2] *= 1.0 + off
        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-6) == accepted
        if accepted:
            P2otProblem(P, 0.5, 1.0, ScalingConfig(epsilon=0.1))
        else:
            with pytest.raises(ValueError, match="rows must sum to 1"):
                P2otProblem(P, 0.5, 1.0, ScalingConfig(epsilon=0.1))

    @pytest.mark.parametrize("shape", [(0, 3), (0, 0)])
    def test_rejects_a_pred_with_no_rows(self, shape):
        # it used to construct: solve_p2ot_gsa then raised a bare ZeroDivisionError and
        # solve_p2ot_fast a DimensionMismatchError
        with pytest.raises(ValueError, match="pred must have at least one row"):
            P2otProblem(np.zeros(shape), 0.5, 1.0, ScalingConfig(epsilon=0.1))

    def test_rejects_negative_entries(self):
        # the row [1.5, -0.5] sums to 1, and the solve used to return converged=True
        P = random_pred(6, 2, seed=0)
        P[3] = [1.5, -0.5]
        with pytest.raises(ValueError, match="pred entries must be >= 0"):
            P2otProblem(P, 0.5, 1.0, ScalingConfig(epsilon=0.1))

    def test_rejects_bad_rho(self):
        P = random_pred(4, 2, 0)
        for rho in (0.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                P2otProblem(P, rho, 1.0, ScalingConfig(epsilon=0.1))

    def test_rejects_negative_lam(self):
        with pytest.raises(ValueError):
            P2otProblem(random_pred(4, 2, 0), 0.5, -1.0, ScalingConfig(epsilon=0.1))

    @pytest.mark.parametrize("lam", [-np.inf, np.nan])
    def test_rejects_nan_lam(self, lam):
        # NaN passed `lam < 0` and solved to a NaN plan
        with pytest.raises(ValueError, match="lam must be >= 0"):
            P2otProblem(random_pred(4, 2, 0), 0.5, lam, ScalingConfig(epsilon=0.1))


class TestExtension:
    def test_extended_shapes_and_values(self, monkeypatch):
        # the kernel's arguments: the extended cost, row and column targets and column exponents
        C0 = np.arange(18.0).reshape(6, 3)
        eps = 0.1
        (C, alpha, beta, f, *_), _ = _kernel_call(
            monkeypatch, lambda: solve_virtual(C0, 0.4, 2.0, ScalingConfig(epsilon=eps)))
        assert C.shape == (6, 4)
        npt.assert_array_equal(C[:, :3], C0)
        npt.assert_array_equal(C[:, 3], np.zeros(6))
        npt.assert_allclose(beta, [0.4 / 3] * 3 + [0.6])
        npt.assert_array_equal(f, [2.0 / (2.0 + eps)] * 3 + [1.0])
        npt.assert_allclose(alpha, np.full(6, 1 / 6))

    def test_full_mass_has_no_virtual_column(self, monkeypatch):
        # at rho = 1 the virtual column's target is 0, so it is left out
        C0 = np.arange(8.0).reshape(4, 2)
        eps = 0.1
        (C, _, beta, f, *_), _ = _kernel_call(
            monkeypatch, lambda: solve_virtual(C0, 1.0, 3.0, ScalingConfig(epsilon=eps)))
        npt.assert_array_equal(C, C0)
        npt.assert_allclose(beta, [0.5, 0.5])
        npt.assert_array_equal(f, [3.0 / (3.0 + eps)] * 2)

    def test_cost_override(self):
        prob = make_problem(4, 2, 0.5, seed=2)
        C = np.arange(8.0).reshape(4, 2)
        plan = solve_p2ot_fast(prob, cost=C)
        ref = solve_virtual(C, 0.5, prob.lam, prob.cfg)
        assert np.array_equal(plan.coupling, ref.coupling)
        assert plan.objective == ref.objective
        with pytest.raises(ValueError):
            solve_p2ot_fast(prob, cost=np.zeros((4, 3)))
        with pytest.raises(ValueError, match="must be finite"):
            solve_p2ot_fast(prob, cost=np.where(C == 5.0, np.inf, C))

    def test_virtual_column_absorbs_unselected_mass(self):
        prob = make_problem(10, 4, 0.3, seed=3)
        npt.assert_allclose(1.0 - solve_p2ot_fast(prob).total_mass(), 0.7, atol=1e-6)

    def test_pot_is_p2ot_with_hard_columns(self):
        # partial OT is the virtual-column solve at lam = inf: same plan and
        # objective to the bit
        P = random_pred(30, 5, seed=12)
        cfg = ScalingConfig(epsilon=0.1, tol=1e-9, max_iter=5000)
        pot = solve_pot(P, 0.6, cfg)
        fast = solve_p2ot_fast(P2otProblem(P, 0.6, np.inf, cfg))
        assert np.array_equal(pot.coupling, fast.coupling)
        assert pot.objective == fast.objective


class TestFastSolver:
    @pytest.mark.parametrize("rho", [0.1, 0.5, 0.9, 1.0])
    def test_feasibility(self, rho):
        prob = make_problem(50, 7, rho, seed=4)
        plan = solve_p2ot_fast(prob)
        assert plan.converged
        assert np.all(plan.row_marginal() <= 1 / 50 + 1e-8)
        npt.assert_allclose(plan.total_mass(), rho, atol=1e-6)

    def test_rho_one_keeps_rows_saturated(self):
        prob = make_problem(20, 4, 1.0, seed=5)
        plan = solve_p2ot_fast(prob)
        npt.assert_allclose(plan.row_marginal(), np.full(20, 1 / 20), atol=1e-8)

    def test_deterministic(self):
        prob = make_problem(16, 4, 0.6, seed=6)
        a = solve_p2ot_fast(prob)
        b = solve_p2ot_fast(prob)
        npt.assert_array_equal(a.coupling, b.coupling)

    def test_large_lam_approaches_hard_columns(self):
        P = random_pred(24, 4, seed=7)
        cfg = ScalingConfig(epsilon=0.1, tol=1e-10, max_iter=20000)
        soft = solve_p2ot_fast(P2otProblem(P, 0.5, 1e7, cfg))
        hard = solve_pot(P, 0.5, cfg)
        npt.assert_allclose(soft.coupling, hard.coupling, atol=1e-5)

    def test_converged_means_mass_within_tol(self):
        # column scalings here sit near 1e-5, where an absolute |db| < tol
        # stopping rule fired with the mass still 4.5e-4 short of rho
        tol = 1e-8
        prob = P2otProblem(random_pred(64, 20, seed=2004), 0.1, 1.0,
                           ScalingConfig(epsilon=0.1, tol=tol, max_iter=50000))
        plan = solve_p2ot_fast(prob)
        assert plan.converged
        assert abs(plan.total_mass() - 0.1) <= tol

    def test_non_finite_plan_raises(self, monkeypatch):
        # at eps = 1e-4 and rho < 1 the zero-cost virtual column is every
        # row's cheapest, so the real columns of the kernel underflow and the
        # plan of the sweeps alone turns NaN after 7 of them. The solvers
        # raise instead of returning the plan. The Newton phase converges
        # this instance, so it takes no step here.
        # Balanced OT on a cluster that no row predicts no longer turns NaN
        # (the start lifts that column, see the test below), so a kernel
        # entry is set to NaN there.
        from sppot._kernels import py as kernels

        prob = random_problem(512, 10, 0.5, seed=0, epsilon=1e-4)
        plan = solve_p2ot_fast(prob)
        assert plan.converged and plan.newton_steps > 0 and np.all(np.isfinite(plan.coupling))
        monkeypatch.setattr(kernels, "NEWTON_MAX_STEPS", 0)
        with np.errstate(all="ignore"), pytest.raises(NumericalOverflowError):
            solve_p2ot_fast(prob)
        start = kernels._start

        def nan_start(*args):
            u, v, M, w, cap = start(*args)
            M[0, 0] = np.nan
            return u, v, M, w, cap

        monkeypatch.setattr(kernels, "_start", nan_start)
        with np.errstate(all="ignore"), pytest.raises(NumericalOverflowError):
            solve_balanced_ot(dead_cluster_pred(prob.pred), prob.cfg)

    @pytest.mark.parametrize("eps", [1e-2, 1e-3])
    def test_dead_cluster_balanced_plan_is_finite_and_feasible(self, eps):
        # every start-kernel entry of the dead column sat under the floor, the
        # first absorption zeroed the column, and the solve raised after 2
        # sweeps; the start now lifts that column's largest entry to 1
        tol = 1e-6
        P = dead_cluster_pred(random_problem(512, 10, 0.5, seed=0).pred)
        plan = solve_balanced_ot(P, ScalingConfig(epsilon=eps, tol=tol, max_iter=5000))
        assert plan.converged and np.all(np.isfinite(plan.coupling))
        assert np.abs(plan.row_marginal() * 512 - 1.0).max() <= tol
        npt.assert_allclose(plan.col_marginal(), np.full(10, 0.1), rtol=1e-12)

    def test_nan_sweep_stops_the_kernel(self, monkeypatch):
        # the kernel stops at the first NaN sweep instead of running to max_iter
        from sppot._kernels import py as kernels

        prob = random_problem(512, 10, 0.5, seed=0, epsilon=1e-4)
        monkeypatch.setattr(kernels, "NEWTON_MAX_STEPS", 0)  # the sweeps alone turn NaN (see above)
        real = kernels.scaling_weighted_kl
        iterations = []

        def spy(*args, **kwargs):
            out = real(*args, **kwargs)
            iterations.append(out[1])
            return out

        monkeypatch.setattr(kernels, "scaling_weighted_kl", spy)
        with np.errstate(all="ignore"), pytest.raises(NumericalOverflowError) as exc:
            solve_p2ot_fast(prob)
        assert iterations and iterations[0] < prob.cfg.max_iter
        assert f"after {iterations[0]} iterations" in str(exc.value)

    def test_small_epsilon_full_mass_plan_is_finite(self, monkeypatch):
        # this instance used to turn NaN: exp(-C/eps) underflowed in rows
        # whose cheapest cost is far from 0. The start from potentials puts
        # 1 at every row's largest kernel entry, so the plan stays finite. The
        # Newton phase makes it converge within max_iter (4 sweeps and 8
        # Newton steps; the plain recursion takes over 10,000 sweeps), to the
        # objective of a long plain solve; cut short before the phase, it
        # reports honestly that it did not converge
        from sppot._kernels import py as kernels

        prob = random_problem(512, 10, 1.0, seed=0, epsilon=1e-3)
        plan = solve_p2ot_fast(prob)
        assert np.all(np.isfinite(plan.coupling))
        assert plan.converged
        assert np.abs(plan.row_marginal() * 512 - 1.0).max() <= prob.cfg.tol
        cut = solve_p2ot_fast(P2otProblem(prob.pred, prob.rho, prob.lam,
                                          replace(prob.cfg, max_iter=kernels.NEWTON_ENTRY)))
        assert np.all(np.isfinite(cut.coupling))
        assert not cut.converged
        monkeypatch.setattr(kernels, "NEWTON_MAX_STEPS", 0)  # the sweeps alone
        monkeypatch.setattr(kernels, "MOMENTUM_MIN_RATE", 1.0)  # no rate qualifies: the plain recursion
        plain = solve_p2ot_fast(P2otProblem(prob.pred, prob.rho, prob.lam, replace(prob.cfg, tol=1e-9, max_iter=50000)))
        assert plain.converged and plain.iterations > 10000
        assert abs(plan.objective - plain.objective) <= 1e-7 * abs(plain.objective)

    @pytest.mark.parametrize("solve", [solve_p2ot_fast, lambda prob: solve_balanced_ot(prob.pred, prob.cfg)])
    def test_converged_means_rows_within_tol_at_tiny_epsilon(self, solve):
        # at eps = 3e-4 the kernel used to be floored everywhere, and the
        # solve reported converged=True after one sweep with rows far off
        prob = random_problem(512, 10, 1.0, seed=0, epsilon=3e-4)
        with np.errstate(all="ignore"):
            plan = solve(prob)
        row_err = np.abs(plan.row_marginal() * 512 - 1.0).max()
        assert plan.iterations > 1
        assert not plan.converged or row_err <= prob.cfg.tol

    def test_small_rho_on_a_flat_posterior_converges_in_tens_of_sweeps(self):
        # the mass step takes the soft columns' total to rho in one scalar
        # move; without it this solve ran to max_iter = 1000 unconverged
        prob = P2otProblem(random_pred(5632, 10, seed=44), 0.1, 1.0,
                           ScalingConfig(epsilon=0.1, tol=1e-6, max_iter=1000))
        fast = solve_p2ot_fast(prob)
        assert fast.converged and fast.iterations <= 50
        gsa = solve_p2ot_gsa(prob)
        npt.assert_allclose(fast.coupling, gsa.coupling, rtol=0, atol=1e-5 * gsa.coupling.max())

    def test_rho_one_equals_unbalanced(self):
        P = random_pred(24, 4, seed=8)
        cfg = ScalingConfig(epsilon=0.1, tol=1e-10, max_iter=20000)
        fast = solve_p2ot_fast(P2otProblem(P, 1.0, 1.5, cfg))
        uot = solve_uot(P, 1.5, cfg)
        npt.assert_allclose(fast.coupling, uot.coupling, atol=1e-9)


class TestBaselineAgreement:
    def test_gsa_feasible(self):
        prob = make_problem(40, 5, 0.6, seed=9)
        plan = solve_p2ot_gsa(prob)
        assert np.all(plan.row_marginal() <= 1 / 40 + 1e-7)
        npt.assert_allclose(plan.total_mass(), 0.6, atol=1e-6)

    @pytest.mark.parametrize("rho", [0.5, 1.0])
    def test_gsa_with_hard_columns_is_partial_ot(self, rho):
        # lam = inf (hard columns) took f = inf/(inf + eps) = NaN, and the
        # baseline returned an all-NaN plan after max_iter sweeps
        prob = make_problem(50, 4, rho, seed=0, lam=np.inf, tol=1e-9)
        gsa, pot = solve_p2ot_gsa(prob), solve_pot(prob.pred, rho, prob.cfg)
        assert gsa.converged and pot.converged
        npt.assert_allclose(gsa.coupling, pot.coupling, rtol=0, atol=1e-7 * pot.coupling.max())

    def test_gsa_non_finite_plan_raises(self):
        # a cost far below zero overflows exp(-C/eps); the baseline raises
        # rather than return the NaN plan
        prob = make_problem(20, 3, 0.5, seed=0, max_iter=50)
        with np.errstate(all="ignore"), pytest.raises(NumericalOverflowError, match="after 1 iterations"):
            solve_p2ot_gsa(prob, cost=np.full((20, 3), -1e3))

    @pytest.mark.parametrize("solve", [solve_p2ot_fast, solve_p2ot_gsa])
    @pytest.mark.parametrize("shape", [(20, 5), (21, 4)])
    def test_cost_of_another_shape_rejected(self, solve, shape):
        # the baseline failed on a NumPy broadcast error
        prob = random_problem(20, 4, 0.5, seed=0)
        with pytest.raises(DimensionMismatchError, match=re.escape(f"cost shape {shape} differs from pred (20, 4)")):
            solve(prob, cost=np.ones(shape))

    @pytest.mark.parametrize("solve", [solve_p2ot_fast, solve_p2ot_gsa])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cost_rejected(self, solve, bad):
        # the baseline raised NumericalOverflowError on NaN and -inf (with a RuntimeWarning on -inf),
        # and on +inf returned converged=True with objective inf
        prob = random_problem(20, 4, 0.5, seed=0)
        C = prediction_cost(prob.pred)
        C[3, 2] = bad
        with pytest.raises(ValueError, match="cost matrix entries must be finite"):
            solve(prob, cost=C)

    def test_agreement_exact_at_full_mass(self):
        # at rho = 1 the virtual column is empty, so the two entropic
        # programs coincide and the solvers must agree tightly
        prob = make_problem(64, 8, 1.0, seed=10, tol=1e-10, max_iter=50000)
        fast = solve_p2ot_fast(prob)
        gsa = solve_p2ot_gsa(prob)
        rel = abs(fast.objective - gsa.objective) / abs(gsa.objective)
        assert rel < 1e-7
        npt.assert_allclose(fast.coupling, gsa.coupling, atol=1e-8)

    def test_partial_mass_gap_shrinks_with_epsilon(self):
        # with rho < 1 both solvers minimize one program (entropy on the row
        # slack, i.e. the dropped virtual column), so their optima agree to
        # the solve tolerance at every eps, including the small eps at which
        # the fast solver's log-domain absorption runs
        P = random_pred(64, 8, seed=11)
        gaps = []
        for eps in (0.1, 0.02, 0.008):
            cfg = ScalingConfig(epsilon=eps, tol=1e-11, max_iter=200000)
            prob = P2otProblem(P, 0.5, 1.0, cfg)
            fast = solve_p2ot_fast(prob)
            gsa = solve_p2ot_gsa(prob)
            gaps.append(abs(fast.objective - gsa.objective) / abs(gsa.objective))
        assert max(gaps) <= 1e-8, gaps

    def test_gsa_matches_slack_entropy_oracle(self):
        # the baseline minimizes the virtual-column program (entropy on the
        # selected plan and on the row slack), checked against projected
        # gradient descent on that program; the instances are the first two
        # of the acceptance gate's oracle-equivalence criterion
        rng = np.random.default_rng(7)
        for n, k, rho, eps in ((4, 2, 0.4, 0.3), (6, 3, 0.7, 0.5)):
            P = rng.dirichlet(np.full(k, 2.0), size=n)
            prob = P2otProblem(P, rho, 1.0, ScalingConfig(epsilon=eps, tol=1e-11, max_iter=200000))
            plan = solve_p2ot_gsa(prob)
            assert plan.converged
            C = prediction_cost(P)
            caps = np.full(n, 1.0 / n)
            col_kl = (np.full(k, rho / k), 1.0)
            ref = oracle.pgd_entropic(
                C, eps, row_cap=caps, col_kl=col_kl, total_mass=rho, slack_entropy=True,
                cfg=oracle.OracleConfig(step_size=0.5, tol=5e-6, max_iter=60000),
            )
            obj = oracle.oracle_objective(plan.coupling, C, eps, col_kl, caps)
            assert abs(obj - ref.objective) / abs(ref.objective) <= 1e-5


class TestRandomProblem:
    def test_seeded_and_stochastic(self):
        a = random_problem(8, 3, 0.5, seed=1)
        b = random_problem(8, 3, 0.5, seed=1)
        npt.assert_array_equal(a.pred, b.pred)
        npt.assert_allclose(a.pred.sum(axis=1), np.ones(8), atol=1e-12)
        c = random_problem(8, 3, 0.5, seed=2)
        assert np.any(a.pred != c.pred)


def test_public_exports_resolve():
    for name in sppot.__all__:
        assert hasattr(sppot, name), name
