import numpy as np
import pytest


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
