import math

import pytest

from sppot.curriculum import Schedule, default_hyperparameters, rho_at


class TestSchedule:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            Schedule("cosine", 0.1, 10)

    def test_rejects_bad_rho0(self):
        with pytest.raises(ValueError):
            Schedule("sigmoid", 1.5, 10)

    def test_fixed_schedule_rejects_zero_rho0(self):
        # it would select no mass at any step; a ramp from 0 rises after step 0
        with pytest.raises(ValueError, match=r"rho must be in \(0, 1\]"):
            Schedule("fixed", 0.0, 10)
        assert rho_at(Schedule("linear", 0.0, 10), 1) == 0.1
        assert rho_at(Schedule("sigmoid", 0.0, 10), 1) > 0

    def test_rejects_bad_total_steps(self):
        with pytest.raises(ValueError):
            Schedule("sigmoid", 0.1, 0)


class TestRhoAt:
    def test_sigmoid_endpoints(self):
        s = Schedule("sigmoid", 0.1, 100)
        start = rho_at(s, 0)
        assert abs(start - (0.1 + 0.9 * math.exp(-5.0))) < 1e-15
        assert rho_at(s, 100) == 1.0

    def test_sigmoid_monotone(self):
        s = Schedule("sigmoid", 0.2, 50)
        vals = [rho_at(s, t) for t in range(51)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(0.2 <= v <= 1.0 for v in vals)

    def test_linear(self):
        s = Schedule("linear", 0.4, 10)
        assert rho_at(s, 0) == 0.4
        assert rho_at(s, 5) == pytest.approx(0.7)
        assert rho_at(s, 10) == 1.0

    def test_fixed(self):
        s = Schedule("fixed", 0.25, 10)
        assert all(rho_at(s, t) == 0.25 for t in range(11))

    def test_step_out_of_range(self):
        s = Schedule("sigmoid", 0.1, 10)
        with pytest.raises(ValueError):
            rho_at(s, -1)
        with pytest.raises(ValueError):
            rho_at(s, 11)

    def test_sigmoid_slow_start(self):
        # the ramp stays close to rho0 through the first half of training
        s = Schedule("sigmoid", 0.1, 100)
        assert rho_at(s, 50) < 0.4


class TestDefaults:
    def test_expected_keys_and_values(self):
        d = default_hyperparameters()
        assert d == {
            "lambda2": 1.0,
            "epsilon": 0.1,
            "rho0": 0.1,
            "k": 20,
            "lambda1_0": 1000.0,
            "tol": 1e-6,
            "max_iter": 1000,
            "buffer_size": 5120,
            "batch_size": 512,
        }

    def test_fresh_copy_each_call(self):
        a = default_hyperparameters()
        a["epsilon"] = 99
        assert default_hyperparameters()["epsilon"] == 0.1
