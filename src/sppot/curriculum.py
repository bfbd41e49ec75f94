"""Curriculum schedules for the selected-mass fraction."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Schedule:
    kind: str  # "sigmoid" | "linear" | "fixed"
    rho0: float
    total_steps: int = 1

    def __post_init__(self):
        if self.kind not in ("sigmoid", "linear", "fixed"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if not 0 <= self.rho0 <= 1:
            raise ValueError("rho0 must be in [0, 1]")
        if self.kind == "fixed" and self.rho0 == 0:  # the other kinds rise above rho0 after step 0
            raise ValueError("rho must be in (0, 1]: a fixed schedule needs rho0 > 0")
        if self.total_steps < 1:
            raise ValueError("total_steps must be >= 1")


def rho_at(schedule: Schedule, t: int) -> float:
    """Selected-mass fraction at step t in [0, T].

    sigmoid: rho0 + (1 - rho0) * exp(-5 (1 - t/T)^2), reaching 1 exactly at
    t = T; linear: straight ramp from rho0 to 1; fixed: rho0 throughout.
    """
    T = schedule.total_steps
    if not 0 <= t <= T:
        raise ValueError(f"step {t} outside [0, {T}]")
    if schedule.kind == "fixed":
        return schedule.rho0
    frac = t / T
    if schedule.kind == "linear":
        return schedule.rho0 + (1.0 - schedule.rho0) * frac
    return schedule.rho0 + (1.0 - schedule.rho0) * math.exp(-5.0 * (1.0 - frac) ** 2)


def default_hyperparameters() -> dict:
    """Defaults used across the solvers and the training harness."""
    return {
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
