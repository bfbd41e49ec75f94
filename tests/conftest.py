import numpy as np
import pytest

from sppot._kernels import py as kernels


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    p = np.exp(z)
    return p / p.sum(axis=1, keepdims=True)


def random_pred(n: int, k: int, seed: int, temperature: float = 1.0) -> np.ndarray:
    """Row-stochastic prediction matrix from Gaussian logits."""
    rng = np.random.default_rng(seed)
    return softmax_rows(rng.normal(size=(n, k)) / temperature)


def dead_cluster_pred(P: np.ndarray) -> np.ndarray:
    """P with cluster 0 predicted by no row (probability 1e-9 everywhere)."""
    P = P.copy()
    P[:, 0] = 1e-9
    return P / P.sum(axis=1, keepdims=True)


def _kernel_call(monkeypatch, solve):
    """Run `solve` and return the positional and keyword arguments of its one kernel call,
    less `n_real`: called with them, the kernel returns the whole plan, virtual column included.

    The cost, the first argument, is copied at the call: it is this thread's cost buffer,
    which the next solve overwrites."""
    kernel = kernels.scaling_weighted_kl
    calls = []
    monkeypatch.setattr(kernels, "scaling_weighted_kl",
                        lambda C, *a, **k: calls.append(((np.array(C), *a), dict(k))) or kernel(C, *a, **k))
    solve()
    monkeypatch.setattr(kernels, "scaling_weighted_kl", kernel)
    (call,) = calls
    args, kwargs = call
    kwargs.pop("n_real")
    return args, kwargs


@pytest.fixture
def rng():
    return np.random.default_rng(0)


# Pass/fail lines recorded by the acceptance tests; echoed after the run so
# they are visible regardless of output capturing.
ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
