"""Desk-scale training harness: synthetic imbalanced data, a prototype
softmax model in place of a deep backbone, the two-view swapped-prediction
loop with a memory buffer, and pseudo-label quality tracking."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

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
    lp1 = -np.log(ot_core.clamp_probabilities(p1))
    lp2 = -np.log(ot_core.clamp_probabilities(p2))
    return float(np.sum(q2 * lp1) + np.sum(q1 * lp2))


class MemoryBuffer:
    """FIFO store of paired two-view predictions with their sample indices.

    Rows live in preallocated ring arrays of `capacity` rows (allocated at
    the first push, which fixes the row width); `_head` is the next slot to
    write, and once the ring is full also the oldest row.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._p1 = self._p2 = None
        self._idx = np.empty(max(capacity, 0), dtype=np.int64)
        self._head = 0
        self._size = 0

    def __len__(self):
        return self._size

    def _oldest_first(self, ring):
        return ring[self._head:self._size], ring[:self._head]

    def concat(self, p1, p2, indices):
        """Current batch first, then stored rows oldest to newest; rows stay index-aligned."""
        if not self._size:
            return p1.copy(), p2.copy(), np.asarray(indices).copy()
        m1 = np.concatenate([p1, *self._oldest_first(self._p1)])
        m2 = np.concatenate([p2, *self._oldest_first(self._p2)])
        idx = np.concatenate([indices, *self._oldest_first(self._idx)])
        return m1, m2, idx

    def push(self, p1, p2, indices):
        cap = self.capacity
        if cap <= 0:
            return
        if self._p1 is None:
            self._p1 = np.empty((cap, p1.shape[1]), dtype=p1.dtype)
            self._p2 = np.empty((cap, p2.shape[1]), dtype=p2.dtype)
        n = len(indices)
        if n >= cap:  # only the newest `cap` rows survive; they fill the ring from slot 0
            self._p1[:], self._p2[:], self._idx[:] = p1[n - cap:], p2[n - cap:], indices[n - cap:]
            self._head, self._size = 0, cap
            return
        first = min(n, cap - self._head)  # rows before the write wraps to slot 0
        for ring, rows in ((self._p1, p1), (self._p2, p2), (self._idx, indices)):
            ring[self._head:self._head + first] = rows[:first]
            ring[:n - first] = rows[first:]
        self._head = (self._head + n) % cap
        self._size = min(self._size + n, cap)


@dataclass(frozen=True)
class PseudoLabelQuality:
    precision: float
    recall: float
    weighted_precision: float
    weighted_recall: float
    n_selected: int

    @property
    def empty(self) -> bool:
        return self.n_selected == 0

    @classmethod
    def no_selection(cls) -> "PseudoLabelQuality":
        return cls(float("nan"), float("nan"), float("nan"), float("nan"), 0)


def pseudo_label_quality(plan: np.ndarray, labels: np.ndarray) -> PseudoLabelQuality:
    """Precision/recall of hard pseudo-labels, plus mass-weighted variants.

    Hard label = row argmax (zero-mass rows excluded); weights = row sums.
    Precision is over selected samples, recall over all samples; weighted
    variants weight correctness by row mass (recall against the ideal total
    mass of 1). Clusters are matched to classes by count-maximizing
    assignment on the selected samples.
    """
    Q = np.asarray(plan, dtype=float)
    labels = np.asarray(labels, dtype=int)
    w = Q.sum(axis=1)
    sel = w > 0
    if not np.any(sel):
        return PseudoLabelQuality.no_selection()
    hard = np.argmax(Q[sel], axis=1)
    mapping = metrics_mod.hungarian_match(metrics_mod.confusion_counts(hard, labels[sel]))
    mapped = metrics_mod.map_labels(mapping, hard)
    correct = mapped == labels[sel]
    ws = w[sel]
    return PseudoLabelQuality(
        precision=float(np.mean(correct)),
        recall=float(np.sum(correct)) / labels.size,
        weighted_precision=float(np.sum(ws * correct) / ws.sum()),
        weighted_recall=float(np.sum(ws * correct)),
        n_selected=int(sel.sum()),
    )


@dataclass
class TrainConfig:
    solver: str = "P2OT"
    epochs: int = 50
    batch_size: int = 512
    buffer_size: int = 5120
    epsilon: float = 0.1
    lambda2: float = 1.0
    lambda1_0: float = 1000.0
    schedule_kind: str = "sigmoid"
    rho0: float = 0.1
    sla_upper: float | None = None  # default 1/K
    knn_k: int = 20
    temperature: float = 0.5
    learning_rate: float = 1.0
    noise_scale: float = 0.1
    tol: float = 1e-6
    max_iter: int = 1000
    seed: int = 0

    @classmethod
    def from_defaults(cls, **overrides) -> "TrainConfig":
        d = default_hyperparameters()
        base = dict(
            epsilon=d["epsilon"], lambda2=d["lambda2"], lambda1_0=d["lambda1_0"],
            rho0=d["rho0"], knn_k=d["k"], buffer_size=d["buffer_size"],
            batch_size=d["batch_size"], tol=d["tol"], max_iter=d["max_iter"],
        )
        base.update(overrides)
        return cls(**base)


@dataclass
class RunHistory:
    epochs: list = field(default_factory=list)  # one metrics record per epoch
    loss_trace: list = field(default_factory=list)  # (epoch, iter, loss, loss/rho, rho)
    config: dict = field(default_factory=dict)

    @property
    def final(self) -> dict:
        return self.epochs[-1]


def buffer_adjacency(A: sparse.csr_array, idx: np.ndarray) -> sparse.csr_array:
    """Rows and columns `idx` of A (indices may repeat), with the diagonal zeroed."""
    A_sub = A[idx][:, idx]
    A_sub.setdiag(0.0)
    return A_sub


def _solve_pseudo_labels(choice, P, rho, lam1, cfg: TrainConfig, A_sub, scfg, init=None) -> ot_core.TransportPlan:
    """One pseudo-label solve; `init` warm-starts OT, UOT, POT and P2OT (the others ignore it)."""
    if choice == "OT":
        return ot_core.solve_balanced_ot(P, scfg, init)
    if choice == "UOT":
        return ot_core.solve_uot(P, cfg.lambda2, scfg, init)
    if choice == "POT":
        return ot_core.solve_pot(P, rho, scfg, init)
    if choice == "SLA":
        upper = cfg.sla_upper if cfg.sla_upper is not None else 1.0 / P.shape[1]
        return ot_core.solve_sla(P, rho, upper, scfg)
    if choice == "P2OT":
        return p2ot.solve_p2ot_fast(p2ot.P2otProblem(P, rho, cfg.lambda2, scfg), init=init)
    if choice == "SP2OT":
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

    Each solve is warm-started from the column potential of the one before:
    the step solves share one running potential across both views and
    consecutive steps, and the epoch-end full-dataset solve starts from the
    previous epoch's. A failed epoch-end solve records NaN pseudo-label
    quality for that epoch.
    """
    cfg = config
    solver_choice = cfg.solver
    if solver_choice not in SOLVER_CHOICES:
        raise ValueError(f"solver must be one of {SOLVER_CHOICES}")
    rng = np.random.default_rng(cfg.seed)
    N, D = dataset.features.shape
    K = dataset.k
    X = dataset.features
    feat_std = X.std(axis=0)

    # adjacency frozen from the raw features, built once up front; only SP2OT reads it
    A = None
    if solver_choice == "SP2OT":
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
    total_steps = cfg.epochs * iters_per_epoch
    schedule = Schedule(cfg.schedule_kind, cfg.rho0, total_steps)

    history = RunHistory(config={"solver": solver_choice, "seed": cfg.seed})
    step = 0
    step_potential = full_potential = None  # warm starts of the step and epoch-end solves
    for epoch in range(1, cfg.epochs + 1):
        for it in range(iters_per_epoch):
            step += 1
            rho = rho_at(schedule, min(step, schedule.total_steps))
            lam1 = sp2ot.lambda1_decayed(cfg.lambda1_0, rho) if solver_choice == "SP2OT" else 0.0
            batch = rng.choice(N, size=min(cfg.batch_size, N), replace=False)
            noise = rng.normal(size=(2, batch.size, D)) * (cfg.noise_scale * feat_std)
            X1 = X[batch] + noise[0]
            X2 = X[batch] + noise[1]
            P1 = predict_probs(model, X1)
            P2 = predict_probs(model, X2)
            M1, M2, idx = buffer.concat(P1, P2, batch)
            assert idx.shape[0] == M1.shape[0] == M2.shape[0]
            A_sub = None if A is None else buffer_adjacency(A, idx)
            try:
                plan1 = _solve_pseudo_labels(solver_choice, M1, rho, lam1, cfg, A_sub, scfg, step_potential)
                step_potential = plan1.col_potential
                plan2 = _solve_pseudo_labels(solver_choice, M2, rho, lam1, cfg, A_sub, scfg, step_potential)
                step_potential = plan2.col_potential
            except (ot_core.NumericalOverflowError, ot_core.InfeasibleProblemError) as exc:
                log.warning("solver failed at epoch %d iter %d: %s", epoch, it, exc)
                continue
            nb = batch.size
            q1, q2 = plan1.coupling[:nb], plan2.coupling[:nb]
            loss = swapped_loss(q1, q2, P1, P2)
            history.loss_trace.append((epoch, it, loss, loss / rho, rho))

            # gradient of the swapped loss wrt prototypes
            w1 = q1.sum(axis=1, keepdims=True)
            w2 = q2.sum(axis=1, keepdims=True)
            dZ1 = w2 * P1 - q2
            dZ2 = w1 * P2 - q1
            grad = (dZ1.T @ X1 + dZ2.T @ X2) / model.temperature
            model.prototypes -= model.learning_rate * grad
            buffer.push(P1, P2, batch)

        P_full = predict_probs(model, X)
        predicted = np.argmax(P_full, axis=1)
        record = metrics_mod.evaluate(predicted, dataset.labels)
        rho_epoch = rho_at(schedule, min(step, schedule.total_steps))
        lam1_epoch = sp2ot.lambda1_decayed(cfg.lambda1_0, rho_epoch) if solver_choice == "SP2OT" else 0.0
        try:
            full = _solve_pseudo_labels(solver_choice, P_full, rho_epoch, lam1_epoch, cfg, A, scfg, full_potential)
        except (ot_core.NumericalOverflowError, ot_core.InfeasibleProblemError) as exc:
            log.warning("full-dataset solve failed at epoch %d: %s", epoch, exc)
            quality, max_share = PseudoLabelQuality.no_selection(), float("nan")
        else:
            full_potential, Q_full = full.col_potential, full.coupling
            quality = pseudo_label_quality(Q_full, dataset.labels)
            max_share = float(np.max(Q_full.sum(axis=0)) / max(Q_full.sum(), 1e-300))
        record.update(
            epoch=epoch,
            rho=rho_epoch,
            precision=quality.precision,
            recall=quality.recall,
            weighted_precision=quality.weighted_precision,
            weighted_recall=quality.weighted_recall,
            max_cluster_share=max_share,
        )
        history.epochs.append(record)
    return history
