"""Clustering evaluation: matched accuracy, NMI, macro-F1, ARI, size splits.

Every metric reads one contingency table over the labels in use, so its cost
is set by the number of distinct labels, not by the largest label id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _table(predicted, truth) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct true ids, each sample's cluster row, and joint[row, column].

    Rows are the distinct predicted ids and columns the distinct true ids, both
    ascending; joint[i, j] counts the samples in the i-th cluster and j-th class.
    Raises ValueError on labelings of unequal length, on an empty one, and on a
    negative label (such as -1 for "unassigned").
    """
    predicted = np.asarray(predicted, dtype=int)
    truth = np.asarray(truth, dtype=int)
    if predicted.size != truth.size or predicted.size == 0:
        raise ValueError("predicted and truth must be nonempty and equal length")
    if predicted.min() < 0 or truth.min() < 0:
        raise ValueError("labels must be nonnegative integers")
    clusters, rows = np.unique(predicted, return_inverse=True)
    classes, cols = np.unique(truth, return_inverse=True)
    k = classes.size
    joint = np.bincount(rows * k + cols, minlength=clusters.size * k).reshape(clusters.size, k)
    return classes, rows, joint


@dataclass(frozen=True)
class LabelAssignment:
    """One labeling pair's contingency table and its count-maximizing matching.

    `joint` is `_table`'s count table, `classes` its column ids and `rows`
    each sample's row. `match[i]` is the column that row i is matched to, or
    -1 when the matching gives it no class (more clusters than classes), and
    `matched[j]` counts the samples of class j in its matched cluster (0 when
    no cluster is matched to it). Ties between matchings of equal total go
    the way `hungarian_match` breaks them on the table.
    """

    classes: np.ndarray
    rows: np.ndarray
    joint: np.ndarray
    match: np.ndarray
    matched: np.ndarray

    @classmethod
    def build(cls, predicted, truth) -> "LabelAssignment":
        classes, rows, joint = _table(predicted, truth)
        match = _max_weight_assignment(joint)[: joint.shape[0]]
        match[match >= classes.size] = -1
        hit = np.flatnonzero(match >= 0)
        matched = np.zeros(classes.size, dtype=int)
        matched[match[hit]] = joint[hit, match[hit]]
        return cls(classes, rows, joint, match, matched)


def hungarian_match(confusion: np.ndarray) -> dict:
    """Count-maximizing bijection cluster -> class as {row: column}, on the count
    matrix zero-padded to square: `_max_weight_assignment`, which returns what
    `scipy.optimize.linear_sum_assignment(conf, maximize=True)` does, ties included."""
    return dict(enumerate(_max_weight_assignment(confusion).tolist()))


def _max_weight_assignment(W: np.ndarray) -> np.ndarray:
    """The column assigned to each row of W, zero-padded to square, maximizing the total weight.

    A port of scipy's `linear_sum_assignment(W, maximize=True)`: Crouse's
    shortest augmenting path ("On implementing 2D rectangular assignment
    algorithms", IEEE TAES 2016) on the cost -W, one row at a time. It keeps
    scipy's loop order, float arithmetic and tie rule (a column of equal path
    cost is taken if it is unassigned), so it returns scipy's assignment on
    ties too. It is pure Python so that importing sppot does not load
    scipy.optimize (~0.3 s); on a 2-core x86-64 VM a 10 x 10 confusion
    matrix takes ~0.05 ms, a 1000 x 1000 one ~0.2 s. Raises ValueError on a
    non-finite entry.
    """
    W = np.asarray(W)
    if not np.isfinite(W).all():
        raise ValueError("confusion entries must be finite")
    n = max(W.shape)
    cost = (-np.pad(W, ((0, n - W.shape[0]), (0, n - W.shape[1]))).astype(np.float64)).tolist()
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
    return np.array(col4row)


def mapped_predictions(assignment: LabelAssignment) -> np.ndarray:
    """Each sample's matched class id, or -1 where its cluster is matched to no class."""
    a = assignment
    return np.where(a.match >= 0, a.classes[a.match], -1)[a.rows]


def class_averaged_acc(assignment: LabelAssignment) -> float:
    """Mean over true classes of within-class accuracy under the matching."""
    return float(np.mean(assignment.matched / assignment.joint.sum(axis=0)))


def _entropy(counts: np.ndarray) -> float:
    p = counts / counts.sum()
    p = p[p > 0]
    return float(-np.sum(p * np.log(p)))


def _nmi(joint: np.ndarray) -> float:
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


def nmi(predicted, truth) -> float:
    """2 I(Y;C) / (H(Y) + H(C)), with 0 log 0 := 0."""
    return _nmi(_table(predicted, truth)[2])


def macro_f1(assignment: LabelAssignment) -> float:
    """Per-true-class F1 under the matched labels, averaged over classes.

    A class's F1 is 2 tp / (|matched cluster| + |class|), with an empty
    cluster for a class that no cluster is matched to.
    """
    a = assignment
    hit = a.match >= 0
    predicted_as = np.zeros(a.classes.size, dtype=int)
    predicted_as[a.match[hit]] = a.joint.sum(axis=1)[hit]
    return float(np.mean(2 * a.matched / (predicted_as + a.joint.sum(axis=0))))


def _ari(joint: np.ndarray) -> float:
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


def ari(predicted, truth) -> float:
    """Adjusted Rand index by pair counting."""
    return _ari(_table(predicted, truth)[2])


def hmt_split(class_counts) -> tuple[list[int], list[int], list[int]]:
    """Head/medium/tail class partition by descending size, 3:4:3 by count.

    The first floor(0.3 K) classes are head, the last floor(0.3 K) tail,
    the remainder medium; ties broken by class index.
    """
    counts = np.asarray(class_counts)
    k = counts.size
    order = np.argsort(-counts, kind="stable").tolist()
    n_edge = int(0.3 * k)
    return order[:n_edge], order[n_edge : k - n_edge], order[k - n_edge :]


def hmt_accuracies(assignment: LabelAssignment) -> dict:
    """Class-averaged accuracy restricted to head/medium/tail classes."""
    sizes = assignment.joint.sum(axis=0)
    accs = assignment.matched / sizes
    return {
        name: float(np.mean(accs[idxs])) if idxs else float("nan")
        for name, idxs in zip(("head", "medium", "tail"), hmt_split(sizes))
    }


METRIC_FIELDS = ("acc", "nmi", "f1", "ari", "acc_head", "acc_medium", "acc_tail")


def evaluate(predicted, truth) -> dict:
    """All clustering metrics in one record keyed by `METRIC_FIELDS`, read from one table."""
    assignment = LabelAssignment.build(predicted, truth)
    values = (class_averaged_acc(assignment), _nmi(assignment.joint), macro_f1(assignment), _ari(assignment.joint),
              *hmt_accuracies(assignment).values())
    return dict(zip(METRIC_FIELDS, values))
