"""Clustering evaluation: matched accuracy, NMI, macro-F1, ARI, size splits."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LabelAssignment:
    predicted: np.ndarray
    truth: np.ndarray
    mapping: dict  # cluster id -> class id

    @classmethod
    def build(cls, predicted, truth) -> "LabelAssignment":
        predicted = np.asarray(predicted, dtype=int)
        truth = np.asarray(truth, dtype=int)
        if predicted.size != truth.size or predicted.size == 0:
            raise ValueError("predicted and truth must be nonempty and equal length")
        conf = confusion_counts(predicted, truth)
        return cls(predicted, truth, hungarian_match(conf))


def confusion_counts(predicted, truth) -> np.ndarray:
    """Square count matrix conf[cluster, class], zero-padded if needed.

    Raises ValueError on a negative label, which would otherwise index from
    the end and count as the last cluster or class.
    """
    predicted = np.asarray(predicted, dtype=int)
    truth = np.asarray(truth, dtype=int)
    if predicted.min() < 0 or truth.min() < 0:
        raise ValueError("labels must be nonnegative integers")
    k = int(max(predicted.max(), truth.max())) + 1
    conf = np.zeros((k, k), dtype=int)
    np.add.at(conf, (predicted, truth), 1)
    return conf


def hungarian_match(confusion: np.ndarray) -> dict:
    """Count-maximizing bijection cluster -> class on a square count matrix.

    A rectangular matrix is zero-padded to square first. The mapping is the
    one `scipy.optimize.linear_sum_assignment(conf, maximize=True)` returns,
    ties included. Raises ValueError on a non-finite entry.
    """
    conf = np.asarray(confusion)
    if conf.shape[0] != conf.shape[1]:
        n = max(conf.shape)
        padded = np.zeros((n, n), dtype=conf.dtype)
        padded[: conf.shape[0], : conf.shape[1]] = conf
        conf = padded
    if not np.isfinite(conf).all():
        raise ValueError("confusion entries must be finite")
    return dict(enumerate(_max_weight_assignment(conf)))


def _max_weight_assignment(W: np.ndarray) -> list[int]:
    """The column assigned to each row of the square matrix W, maximizing the total weight.

    A port of scipy's `linear_sum_assignment(W, maximize=True)`: Crouse's
    shortest augmenting path ("On implementing 2D rectangular assignment
    algorithms", IEEE TAES 2016) on the cost -W, one row at a time. It keeps
    scipy's loop order, float arithmetic and tie rule (a column of equal path
    cost is taken if it is unassigned), so it returns scipy's assignment on
    ties too. It is pure Python so that importing sppot does not load
    scipy.optimize (~0.3 s); on a 2-core x86-64 VM a 10 x 10 confusion
    matrix takes ~0.05 ms, a 1000 x 1000 one ~0.2 s.
    """
    cost = (-np.asarray(W, dtype=np.float64)).tolist()
    n = len(cost)
    u, v = [0.0] * n, [0.0] * n
    path, col4row, row4col = [-1] * n, [-1] * n, [-1] * n
    for cur in range(n):
        # Dijkstra from row `cur` over the reduced costs until it reaches an unassigned column
        shortest = [math.inf] * n
        remaining = list(range(n - 1, -1, -1))  # scipy's reverse order: a constant W gives the identity
        rows_seen, cols_seen = [], []
        min_val, i, sink = 0.0, cur, -1
        while sink < 0:
            rows_seen.append(i)
            row, ui = cost[i], u[i]
            lowest, index = math.inf, -1
            for it, j in enumerate(remaining):
                r = min_val + row[j] - ui - v[j]
                if r < shortest[j]:
                    path[j] = i
                    shortest[j] = r
                if shortest[j] < lowest or (shortest[j] == lowest and row4col[j] < 0):
                    lowest, index = shortest[j], it
            min_val = lowest
            j = remaining[index]
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
            cols_seen.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        # dual update, then flip the path's assignments back to `cur`
        u[cur] += min_val
        for i in rows_seen[1:]:
            u[i] += min_val - shortest[col4row[i]]
        for j in cols_seen:
            v[j] -= min_val - shortest[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def map_labels(mapping: dict, labels) -> np.ndarray:
    """`labels` sent through a `hungarian_match` mapping, by one gather from a lookup array.

    Raises ValueError on a negative label, as `confusion_counts` does: the
    gather would wrap it to the last cluster's class.
    """
    labels = np.asarray(labels, dtype=int)
    if labels.size and labels.min() < 0:
        raise ValueError("labels must be nonnegative integers")
    lookup = np.zeros(max(mapping) + 1, dtype=int)
    lookup[np.fromiter(mapping.keys(), dtype=int)] = np.fromiter(mapping.values(), dtype=int)
    return lookup[labels]


def mapped_predictions(assignment: LabelAssignment) -> np.ndarray:
    return map_labels(assignment.mapping, assignment.predicted)


def class_averaged_acc(assignment: LabelAssignment) -> float:
    """Mean over true classes of within-class accuracy under the matching."""
    mapped = mapped_predictions(assignment)
    accs = []
    for c in np.unique(assignment.truth):
        mask = assignment.truth == c
        accs.append(float(np.mean(mapped[mask] == c)))
    return float(np.mean(accs))


def _entropy(counts: np.ndarray) -> float:
    p = counts / counts.sum()
    p = p[p > 0]
    return float(-np.sum(p * np.log(p)))


def _contingency(predicted, truth) -> np.ndarray:
    """Float counts joint[i, j] of samples in the i-th distinct predicted and j-th distinct true label."""
    predicted = np.asarray(predicted, dtype=int)
    truth = np.asarray(truth, dtype=int)
    if predicted.size == 0:
        raise ValueError("labels must be nonempty")
    _, pi = np.unique(predicted, return_inverse=True)
    _, ti = np.unique(truth, return_inverse=True)
    joint = np.zeros((pi.max() + 1, ti.max() + 1))
    np.add.at(joint, (pi, ti), 1.0)
    return joint


def nmi(predicted, truth) -> float:
    """2 I(Y;C) / (H(Y) + H(C)), with 0 log 0 := 0."""
    joint = _contingency(predicted, truth)
    pj = joint / joint.sum()
    pp = pj.sum(axis=1)
    pt = pj.sum(axis=0)
    nz = pj > 0
    mi = float(np.sum(pj[nz] * np.log(pj[nz] / np.outer(pp, pt)[nz])))
    hp = _entropy(joint.sum(axis=1))
    ht = _entropy(joint.sum(axis=0))
    if hp + ht == 0:
        return 1.0
    return float(np.clip(2.0 * mi / (hp + ht), 0.0, 1.0))


def macro_f1(assignment: LabelAssignment) -> float:
    """Per-true-class F1 under the matched labels, averaged over classes."""
    mapped = mapped_predictions(assignment)
    scores = []
    for c in np.unique(assignment.truth):
        tp = float(np.sum((mapped == c) & (assignment.truth == c)))
        fp = float(np.sum((mapped == c) & (assignment.truth != c)))
        fn = float(np.sum((mapped != c) & (assignment.truth == c)))
        denom = 2 * tp + fp + fn
        scores.append(2 * tp / denom if denom > 0 else 0.0)
    return float(np.mean(scores))


def ari(predicted, truth) -> float:
    """Adjusted Rand index by pair counting."""
    joint = _contingency(predicted, truth)
    n = float(joint.sum())

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_ij = float(np.sum(comb2(joint)))
    sum_i = float(np.sum(comb2(joint.sum(axis=1))))
    sum_j = float(np.sum(comb2(joint.sum(axis=0))))
    total = comb2(n)
    expected = sum_i * sum_j / total if total > 0 else 0.0
    max_index = (sum_i + sum_j) / 2.0
    if max_index == expected:
        return 1.0
    return float((sum_ij - expected) / (max_index - expected))


def hmt_split(class_counts) -> tuple[list[int], list[int], list[int]]:
    """Head/medium/tail class partition by descending size, 3:4:3 by count.

    The first floor(0.3 K) classes are head, the last floor(0.3 K) tail,
    the remainder medium; ties broken by class index.
    """
    counts = np.asarray(class_counts)
    k = counts.size
    order = sorted(range(k), key=lambda i: (-counts[i], i))
    n_edge = int(0.3 * k)
    head = order[:n_edge]
    tail = order[k - n_edge :] if n_edge else []
    medium = order[n_edge : k - n_edge] if n_edge else order
    return list(head), list(medium), list(tail)


def hmt_accuracies(assignment: LabelAssignment) -> dict:
    """Class-averaged accuracy restricted to head/medium/tail classes."""
    counts = np.bincount(assignment.truth)
    classes = np.unique(assignment.truth)
    head, medium, tail = hmt_split(counts[classes])
    mapped = mapped_predictions(assignment)
    out = {}
    for name, idxs in (("head", head), ("medium", medium), ("tail", tail)):
        cls = classes[idxs] if len(idxs) else []
        accs = [float(np.mean(mapped[assignment.truth == c] == c)) for c in cls]
        out[name] = float(np.mean(accs)) if accs else float("nan")
    return out


def evaluate(predicted, truth) -> dict:
    """All clustering metrics in one record."""
    assignment = LabelAssignment.build(predicted, truth)
    out = {
        "acc": class_averaged_acc(assignment),
        "nmi": nmi(predicted, truth),
        "f1": macro_f1(assignment),
        "ari": ari(predicted, truth),
    }
    out.update({f"acc_{k}": v for k, v in hmt_accuracies(assignment).items()})
    return out
