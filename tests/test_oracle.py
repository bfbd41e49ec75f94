import numpy as np
import numpy.testing as npt
import pytest
from scipy.optimize import minimize

from conftest import random_pred
from sppot import oracle
from sppot.oracle import (
    OracleConfig,
    OracleFailure,
    _project_cap_mass,
    _project_rows,
    lp_exact_tiny,
    oracle_objective,
    pgd_entropic,
)
from sppot.ot_core import ScalingConfig, clamp_probabilities, solve_balanced_ot


def qp_projection(Y, constraints_builder, x0=None):
    """Reference Euclidean projection via SLSQP on the flattened problem."""
    shape = Y.shape
    y = Y.ravel()

    def f(x):
        return 0.5 * np.sum((x - y) ** 2)

    def g(x):
        return x - y

    res = minimize(
        f,
        x0 if x0 is not None else np.clip(y, 0, None),
        jac=g,
        constraints=constraints_builder(shape),
        bounds=[(0.0, None)] * y.size,
        method="SLSQP",
        options={"maxiter": 500, "ftol": 1e-12},
    )
    # status 8 is a stalled line search at an already-optimal point
    assert res.success or res.status == 8, res.message
    return res.x.reshape(shape)


def row_cap_constraints(caps):
    return lambda shape: [
        {"type": "ineq", "fun": (lambda i: lambda x: caps[i] - np.sum(x.reshape(shape)[i]))(i)}
        for i in range(shape[0])
    ]


class TestSimplexProjection:
    def test_equality_sum_and_bound(self):
        v = np.array([0.5, -0.2, 0.1])
        out = _project_rows(v[None, :], [0.3], 0.0, equality=True)[0]
        npt.assert_allclose(out.sum(), 0.3, atol=1e-12)
        assert np.all(out >= 0)

    def test_inequality_noop_when_inside(self):
        v = np.array([0.05, 0.05])
        out = _project_rows(v[None, :], [1.0], 0.0, equality=False)[0]
        npt.assert_allclose(out, v)

    def test_matches_qp(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            v = rng.normal(size=5)
            s = float(rng.uniform(0.1, 1.0))
            out = _project_rows(v[None, :], [s], 0.0, equality=True)[0]
            ref = qp_projection(
                v[None, :],
                lambda shape: [{"type": "eq", "fun": lambda x: np.sum(x) - s}],
            )[0]
            npt.assert_allclose(out, ref, atol=1e-6)

    def test_floor_respected(self):
        v = np.array([-1.0, -1.0, 2.0])
        out = _project_rows(v[None, :], [0.5], 0.01, equality=True)[0]
        assert np.all(out >= 0.01 - 1e-15)
        npt.assert_allclose(out.sum(), 0.5, atol=1e-12)


class TestRowProjections:
    def test_rows_to_sum(self):
        rng = np.random.default_rng(1)
        Q = rng.normal(size=(4, 3))
        sums = np.array([0.2, 0.4, 0.1, 0.3])
        out = _project_rows(Q, sums, 1e-12, equality=True)
        npt.assert_allclose(out.sum(axis=1), sums, atol=1e-10)

    def test_rows_capped_matches_qp(self):
        rng = np.random.default_rng(2)
        Y = rng.normal(size=(6, 4))
        caps = rng.uniform(0.1, 0.5, size=6)
        out = _project_rows(Y.copy(), caps, 0.0, equality=False)
        ref = qp_projection(Y, row_cap_constraints(caps))
        npt.assert_allclose(out, ref, atol=1e-6)
        assert np.all(out.sum(axis=1) <= caps + 1e-12)

    @pytest.mark.parametrize("equality", [True, False])
    def test_sum_at_most_floor_puts_row_at_floor(self, equality):
        lo = 1e-3
        Y = np.array([[0.4, -0.1, 0.2], [0.3, 0.3, -0.2], [0.1, 0.5, 0.0]])
        sums = np.array([3 * lo, 2 * lo, 0.0])
        npt.assert_array_equal(_project_rows(Y, sums, lo, equality), np.full((3, 3), lo))


class TestCapMassProjection:
    def test_feasible_point_unchanged(self):
        rng = np.random.default_rng(3)
        Q = rng.uniform(0.01, 0.02, size=(5, 3))
        caps = np.full(5, 1.0)
        out = _project_cap_mass(Q.copy(), caps, float(Q.sum()), 0.0)
        npt.assert_allclose(out, Q, atol=1e-9)

    @pytest.mark.parametrize("lo", [0.0, 1e-12])
    @pytest.mark.parametrize("seed", [4, 5, 6])
    def test_matches_qp(self, seed, lo):
        rng = np.random.default_rng(seed)
        n, k = 4, 3
        Y = rng.normal(scale=0.3, size=(n, k))
        # the second set's last cap binds only at the full mass
        for caps in (np.full(n, 0.25), np.array([0.25, 0.25, 0.25, 2.0])):
            for mass in (n * k * lo, 0.6, float(caps.sum())):
                out = _project_cap_mass(Y.copy(), caps, mass, lo)

                def cons(shape):
                    return [{"type": "eq", "fun": lambda x: np.sum(x) - mass}] + row_cap_constraints(caps)(shape)

                ref = qp_projection(Y, cons, x0=np.full(n * k, mass / (n * k)))
                npt.assert_allclose(out, ref, atol=1e-6)
                npt.assert_allclose(out.sum(), mass, atol=1e-10)
                assert np.all(out.sum(axis=1) <= caps + 1e-10)
                assert np.all(out >= lo)
                if caps[-1] > 1 and mass == 0.6:
                    assert out[-1].sum() < caps[-1] - 1e-3

    def test_row_capped_at_most_floor_sits_at_floor(self):
        lo = 1e-3
        Y = np.random.default_rng(9).normal(scale=0.3, size=(4, 3))
        caps = np.array([0.5, 3 * lo, 2 * lo, 0.5])
        out = _project_cap_mass(Y.copy(), caps, 0.6, lo)
        npt.assert_array_equal(out[1:3], np.full((2, 3), lo))
        npt.assert_allclose(out.sum(), 0.6, atol=1e-12)
        assert np.all(out.sum(axis=1)[[0, 3]] <= caps[[0, 3]] + 1e-12)

    def test_infeasible_raises(self):
        with pytest.raises(ValueError):
            _project_cap_mass(np.zeros((2, 2)), np.full(2, 0.1), 0.5, 0.0)


class TestPgd:
    def test_balanced_matches_scaling_solver(self):
        P = random_pred(6, 3, seed=5)
        C = -np.log(clamp_probabilities(P))
        eps = 0.5
        plan = solve_balanced_ot(P, ScalingConfig(epsilon=eps, tol=1e-12, max_iter=20000))
        res = pgd_entropic(
            C, eps,
            row_eq=np.full(6, 1 / 6),
            col_eq=np.full(3, 1 / 3),
            cfg=OracleConfig(step_size=0.5, tol=1e-7, max_iter=100000),
        )
        rel = abs(plan.objective - res.objective) / abs(res.objective)
        assert rel < 1e-7
        npt.assert_allclose(plan.coupling, res.plan, atol=1e-5)

    def test_failure_raised_when_budget_too_small(self):
        P = random_pred(6, 3, seed=6)
        C = -np.log(clamp_probabilities(P))
        with pytest.raises(OracleFailure):
            pgd_entropic(
                C, 0.5,
                row_eq=np.full(6, 1 / 6),
                col_eq=np.full(3, 1 / 3),
                cfg=OracleConfig(tol=1e-12, max_iter=3),
            )

    def test_objective_trace_decreases(self):
        P = random_pred(8, 3, seed=7)
        C = -np.log(clamp_probabilities(P))
        res = pgd_entropic(
            C, 0.5,
            row_cap=np.full(8, 1 / 8),
            col_kl=(np.full(3, 0.5 / 3), 1.0),
            total_mass=0.5,
            cfg=OracleConfig(step_size=0.5, tol=1e-6, max_iter=100000),
            track_objective=True,
        )
        trace = res.objective_trace
        assert len(trace) >= 2
        assert trace[-1] <= trace[0] + 1e-12

    def test_slack_entropy_requires_row_cap(self):
        with pytest.raises(ValueError):
            pgd_entropic(np.zeros((2, 2)), 0.5, slack_entropy=True)

    def test_oracle_objective_slack_term(self):
        Q = np.full((2, 2), 0.1)
        caps = np.full(2, 0.5)
        base = oracle_objective(Q, np.zeros((2, 2)), 1.0)
        with_slack = oracle_objective(Q, np.zeros((2, 2)), 1.0, slack_entropy=caps)
        slack = 0.5 - 0.2
        npt.assert_allclose(with_slack - base, 2 * slack * np.log(slack))


class TestLpExact:
    def test_transport_identity_cost(self):
        C = 1.0 - np.eye(3)
        res = lp_exact_tiny(C, row_eq=np.full(3, 1 / 3), col_eq=np.full(3, 1 / 3))
        npt.assert_allclose(res.plan, np.eye(3) / 3, atol=1e-9)
        npt.assert_allclose(res.objective, 0.0, atol=1e-12)

    def test_partial_mass_picks_cheapest_cells(self):
        C = np.array([[0.0, 5.0], [5.0, 5.0], [5.0, 0.0]])
        res = lp_exact_tiny(C, row_cap=np.full(3, 0.2), total_mass=0.4)
        npt.assert_allclose(res.plan[0, 0], 0.2, atol=1e-9)
        npt.assert_allclose(res.plan[2, 1], 0.2, atol=1e-9)

    def test_size_restriction(self):
        with pytest.raises(ValueError):
            lp_exact_tiny(np.zeros((5, 5)), row_eq=np.full(5, 0.2))

    def test_infeasible_raises(self):
        with pytest.raises(ValueError):
            lp_exact_tiny(np.zeros((2, 2)), row_cap=np.full(2, 0.1), total_mass=1.0)

    def test_col_cap_constraint(self):
        C = np.array([[0.0, 1.0], [0.0, 1.0]])
        res = lp_exact_tiny(C, row_eq=np.full(2, 0.5), col_cap=np.array([0.6, 1.0]))
        assert res.plan[:, 0].sum() <= 0.6 + 1e-9
