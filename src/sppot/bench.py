"""Desk-scale training harness: synthetic imbalanced data, a prototype
softmax model in place of a deep backbone, the two-view swapped-prediction
loop with a memory buffer, and pseudo-label quality tracking."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import metrics as metrics_mod
from . import ot_core, p2ot, sp2ot
from .curriculum import Schedule, default_hyperparameters, rho_at
from .graph import FeatureSet, build_knn_graph, gaussian_similarity, median_bandwidth

log = logging.getLogger(__name__)

SOLVER_CHOICES = ("OT", "UOT", "POT", "SLA", "P2OT", "SP2OT")


@dataclass(frozen=True)
class SyntheticDataset:
    features: np.ndarray
    labels: np.ndarray
    class_counts: np.ndarray

    @property
    def imbalance_ratio(self) -> float:
        return float(self.class_counts.max() / self.class_counts.min())

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def k(self) -> int:
        return self.class_counts.size


def geometric_class_counts(K: int, R: float, N: int) -> np.ndarray:
    """Long-tail profile n_k ~ R^(-k/(K-1)), largest-remainder rounded to sum N.

    Deterministic rule: floor the ideal sizes, hand out the remaining samples
    by largest fractional part (ties to the lower class index), then move
    samples from the largest classes to any class rounded down to zero.
    """
    if K < 2 or R < 1 or N < K:
        raise ValueError("need K >= 2, R >= 1 and N >= K")
    weights = R ** (-np.arange(K) / (K - 1))
    ideal = N * weights / weights.sum()
    counts = np.floor(ideal).astype(int)
    frac = ideal - counts
    order = sorted(range(K), key=lambda i: (-frac[i], i))
    for i in order[: N - counts.sum()]:
        counts[i] += 1
    while counts.min() == 0:
        counts[int(np.argmax(counts))] -= 1
        counts[int(np.argmin(counts))] += 1
    return counts


def generate_imbalanced_mixture(K, R, N, dim, separation, seed) -> SyntheticDataset:
    """Gaussian mixture with geometric class sizes.

    Class means are drawn uniformly on the sphere of radius `separation`;
    noise is unit-variance isotropic. Fully determined by `seed`.
    """
    counts = geometric_class_counts(K, R, N)
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(K, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    means = separation * dirs
    labels = np.repeat(np.arange(K), counts)
    features = means[labels] + rng.normal(size=(N, dim))
    perm = rng.permutation(N)
    return SyntheticDataset(features[perm], labels[perm], counts)


@dataclass
class PrototypeModel:
    prototypes: np.ndarray  # K x D
    temperature: float
    learning_rate: float


def predict_probs(model: PrototypeModel, features: np.ndarray) -> np.ndarray:
    """Row-softmax of feature-prototype scores."""
    logits = features @ model.prototypes.T / model.temperature
    logits -= logits.max(axis=1, keepdims=True)
    P = np.exp(logits)
    P /= P.sum(axis=1, keepdims=True)
    return P


def swapped_loss(q1, q2, p1, p2) -> float:
    """Cross-view loss <Q2, -log P1> + <Q1, -log P2>."""
    lp1 = ot_core.prediction_cost(p1)
    lp2 = ot_core.prediction_cost(p2)
    return float(np.sum(q2 * lp1) + np.sum(q1 * lp2))


class MemoryBuffer:
    """FIFO store of paired two-view predictions with their sample indices.

    Holds the newest `capacity` rows pushed, oldest first, as three
    index-aligned arrays: the view-1 predictions, the view-2 predictions and
    the int64 sample indices. A capacity of 0 or less stores nothing.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._p1 = self._p2 = None  # set at the first push, which fixes the row width
        self._idx = np.empty(0, dtype=np.int64)

    def __len__(self):
        return len(self._idx)

    def concat(self, p1, p2, indices):
        """Current batch first, then stored rows oldest to newest; rows stay index-aligned."""
        if not len(self):
            return p1.copy(), p2.copy(), np.asarray(indices).copy()
        return np.concatenate([p1, self._p1]), np.concatenate([p2, self._p2]), np.concatenate([indices, self._idx])

    def push(self, p1, p2, indices):
        cap = self.capacity
        if cap <= 0:
            return
        if self._p1 is None:
            self._p1, self._p2 = p1[:0], p2[:0]
        drop = max(len(self) + min(len(indices), cap) - cap, 0)  # oldest rows that fall out
        self._p1 = np.concatenate([self._p1[drop:], p1[-cap:]])
        self._p2 = np.concatenate([self._p2[drop:], p2[-cap:]])
        self._idx = np.concatenate([self._idx[drop:], indices[-cap:]])


QUALITY_FIELDS = ("precision", "recall", "weighted_precision", "weighted_recall")


def pseudo_label_quality(plan: np.ndarray, labels: np.ndarray) -> dict:
    """Precision/recall of hard pseudo-labels, plus mass-weighted variants.

    Hard label = row argmax (zero-mass rows excluded); weights = row sums.
    Precision is over selected samples, recall over all samples; weighted
    variants weight correctness by row mass (recall against the ideal total
    mass of 1). Clusters are matched to classes by count-maximizing
    assignment on the selected samples (`metrics.LabelAssignment`), over the
    clusters and classes they hold; a cluster matched to no class is wrong.
    Returns a dict keyed by `QUALITY_FIELDS`, all NaN when no row carries mass.
    A kernel-backed plan gives every row mass above 0 (the kernel floor), so
    in every epoch record of `train` every row is selected: precision = recall.
    """
    Q = np.asarray(plan, dtype=float)
    labels = np.asarray(labels, dtype=int)
    w = Q.sum(axis=1)
    sel = w > 0
    if not np.any(sel):
        return dict.fromkeys(QUALITY_FIELDS, float("nan"))
    truth = labels[sel]
    assignment = metrics_mod.LabelAssignment.build(np.argmax(Q[sel], axis=1), truth)
    n_correct = int(assignment.matched.sum())
    correct = metrics_mod.mapped_predictions(assignment) == truth
    ws = w[sel]
    values = (n_correct / truth.size, n_correct / labels.size,
              float(np.sum(ws * correct) / ws.sum()), float(np.sum(ws * correct)))
    return dict(zip(QUALITY_FIELDS, values))


_DEFAULTS = default_hyperparameters()
VIEW_NOISE_SCALE = 0.1  # each training view's Gaussian feature noise, in feature standard deviations


@dataclass
class TrainConfig:
    """One training run; the shared hyperparameters default to `default_hyperparameters()`."""

    solver: str = "P2OT"
    epochs: int = 50
    batch_size: int = _DEFAULTS["batch_size"]
    buffer_size: int = _DEFAULTS["buffer_size"]
    epsilon: float = _DEFAULTS["epsilon"]
    lambda2: float = _DEFAULTS["lambda2"]
    lambda1_0: float = _DEFAULTS["lambda1_0"]
    schedule_kind: str = "sigmoid"
    rho0: float = _DEFAULTS["rho0"]
    sla_upper: float | None = None  # default 1/K
    knn_k: int = _DEFAULTS["k"]
    temperature: float = 0.5
    learning_rate: float = 1.0
    tol: float = _DEFAULTS["tol"]
    max_iter: int = _DEFAULTS["max_iter"]
    seed: int = 0


@dataclass
class RunHistory:
    epochs: list = field(default_factory=list)  # one metrics record per epoch
    loss_trace: list = field(default_factory=list)  # (epoch, iter, loss, loss/rho, rho)

    @property
    def final(self) -> dict:
        return self.epochs[-1]


def _solve_pseudo_labels(P, rho, cfg: TrainConfig, A_sub, scfg, init=None) -> ot_core.TransportPlan:
    """One `cfg.solver` pseudo-label solve; `init` warm-starts every solver but SP2OT, which ignores it."""
    choice = cfg.solver
    if choice == "OT":
        return ot_core.solve_balanced_ot(P, scfg, init)
    if choice == "UOT":
        return ot_core.solve_uot(P, cfg.lambda2, scfg, init)
    if choice == "POT":
        return ot_core.solve_pot(P, rho, scfg, init)
    if choice == "SLA":
        upper = cfg.sla_upper if cfg.sla_upper is not None else 1.0 / P.shape[1]
        return ot_core.solve_sla(P, rho, upper, scfg, init)
    if choice == "P2OT":
        return p2ot.solve_p2ot_fast(p2ot.P2otProblem(P, rho, cfg.lambda2, scfg), init=init)
    if choice == "SP2OT":
        lam1 = sp2ot.lambda1_decayed(cfg.lambda1_0, rho)
        problem = sp2ot.Sp2otProblem(P, A_sub, lam1, cfg.lambda2, rho, cfg.epsilon, inner=scfg)
        plan, _ = sp2ot.solve_sp2ot(problem)
        return plan
    raise ValueError(f"unknown solver {choice!r}")


def train(dataset: SyntheticDataset, config: TrainConfig) -> RunHistory:
    """Two-view swapped-prediction training with OT pseudo-labels.

    Per iteration: compute rho and lambda1 from the schedules, draw a batch,
    make two noisy views, append buffered predictions, generate pseudo-labels
    with `config.solver` per view, apply the swapped loss to the prototype
    weights. Per epoch: full-dataset metrics and pseudo-label quality.

    Every solve of a run starts from the last step solve's column
    potential: the step solves share one running potential across both views
    and consecutive steps, and the epoch-end full-dataset solve, at the last
    step's rho over the same columns, starts from it without writing it back.
    A failed epoch-end solve records NaN pseudo-label quality for that epoch.
    """
    cfg = config
    if cfg.solver not in SOLVER_CHOICES:
        raise ValueError(f"solver must be one of {SOLVER_CHOICES}")
    rng = np.random.default_rng(cfg.seed)
    N, D = dataset.features.shape
    K = dataset.k
    X = dataset.features
    feat_std = X.std(axis=0)

    # adjacency frozen from the raw features, built once up front; only SP2OT reads it
    A = None
    if cfg.solver == "SP2OT":
        feats = FeatureSet(X)
        A = build_knn_graph(gaussian_similarity(feats, median_bandwidth(feats)), cfg.knn_k).adjacency

    model = PrototypeModel(
        prototypes=rng.normal(scale=0.1, size=(K, D)),
        temperature=cfg.temperature,
        learning_rate=cfg.learning_rate,
    )
    buffer = MemoryBuffer(cfg.buffer_size)
    scfg = ot_core.ScalingConfig(epsilon=cfg.epsilon, tol=cfg.tol, max_iter=cfg.max_iter)

    iters_per_epoch = max(1, N // cfg.batch_size)
    schedule = Schedule(cfg.schedule_kind, cfg.rho0, cfg.epochs * iters_per_epoch)

    history = RunHistory()
    step = 0
    step_potential = None  # the last step solve's column potential, which every solve starts from
    for epoch in range(1, cfg.epochs + 1):
        for it in range(iters_per_epoch):
            step += 1
            rho = rho_at(schedule, step)
            batch = rng.choice(N, size=min(cfg.batch_size, N), replace=False)
            views = X[batch] + rng.normal(size=(2, batch.size, D)) * (VIEW_NOISE_SCALE * feat_std)
            P1, P2 = probs = [predict_probs(model, V) for V in views]
            M1, M2, idx = buffer.concat(P1, P2, batch)
            assert idx.shape[0] == M1.shape[0] == M2.shape[0]
            A_sub = None if A is None else A[np.ix_(idx, idx)]  # rows and columns idx (repeats allowed), for both views
            try:
                q = []
                for M in (M1, M2):  # view 1's potential warm-starts view 2, and view 2's the next step
                    plan = _solve_pseudo_labels(M, rho, cfg, A_sub, scfg, step_potential)
                    step_potential = plan.col_potential
                    q.append(plan.coupling[:batch.size])
            except (ot_core.NumericalOverflowError, ot_core.InfeasibleProblemError) as exc:
                log.warning("solver failed at epoch %d iter %d: %s", epoch, it, exc)
                continue
            loss = swapped_loss(q[0], q[1], P1, P2)
            history.loss_trace.append((epoch, it, loss, loss / rho, rho))

            # gradient of the swapped loss wrt prototypes: each view's scores against the other view's labels
            dZ = [q_other.sum(axis=1, keepdims=True) * P - q_other for P, q_other in zip(probs, q[::-1])]
            grad = (dZ[0].T @ views[0] + dZ[1].T @ views[1]) / model.temperature
            model.prototypes -= model.learning_rate * grad
            buffer.push(P1, P2, batch)

        P_full = predict_probs(model, X)
        predicted = np.argmax(P_full, axis=1)
        record = metrics_mod.evaluate(predicted, dataset.labels)
        rho_epoch = rho_at(schedule, step)
        try:
            full = _solve_pseudo_labels(P_full, rho_epoch, cfg, A, scfg, step_potential)
        except (ot_core.NumericalOverflowError, ot_core.InfeasibleProblemError) as exc:
            log.warning("full-dataset solve failed at epoch %d: %s", epoch, exc)
            quality, max_share = dict.fromkeys(QUALITY_FIELDS, float("nan")), float("nan")
        else:
            Q_full = full.coupling
            quality = pseudo_label_quality(Q_full, dataset.labels)
            max_share = float(np.max(Q_full.sum(axis=0)) / max(Q_full.sum(), 1e-300))
        record.update(epoch=epoch, rho=rho_epoch, **quality, max_cluster_share=max_share)
        history.epochs.append(record)
    return history
