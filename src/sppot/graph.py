"""K-nearest-neighbor semantic affinity graphs over sample features."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

# Similarity entries per block of rows in `build_knn_graph` (512 KB of float64). Larger
# blocks are no faster and leave more freed memory resident in the allocator's heap.
KNN_BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class FeatureSet:
    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=float)
        if v.ndim != 2:
            raise ValueError("features must be an N x D matrix")
        if not np.all(np.isfinite(v)):
            raise ValueError("feature entries must be finite")
        object.__setattr__(self, "vectors", v)

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def d(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class SemanticGraph:
    """Sparse row-wise top-k affinity graph (triplet storage)."""

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    n: int
    k: int
    kernel: str

    def to_dense(self) -> np.ndarray:
        A = np.zeros((self.n, self.n))
        A[self.rows, self.cols] = self.values
        return A

    def to_csr(self) -> sparse.csr_array:
        """The N x N adjacency in CSR form; a repeated (i, j) keeps its last value, as in `to_dense`.

        Raises ValueError when an endpoint is not a node index in [0, n).
        """
        rows = np.asarray(self.rows, dtype=np.int64)
        cols = np.asarray(self.cols, dtype=np.int64)
        if rows.size and (min(rows.min(), cols.min()) < 0 or max(rows.max(), cols.max()) >= self.n):
            raise ValueError(f"edge endpoints must be node indices in [0, {self.n})")
        # first occurrence in the reversed edge list = last occurrence in the file order
        _, last = np.unique((rows * self.n + cols)[::-1], return_index=True)
        keep = rows.size - 1 - last
        values = np.asarray(self.values, dtype=float)[keep]
        return sparse.csr_array((values, (rows[keep], cols[keep])), shape=(self.n, self.n))

    def triplets(self):
        return zip(self.rows.tolist(), self.cols.tolist(), self.values.tolist())

    @classmethod
    def from_dense(cls, A: np.ndarray, k: int = 0, kernel: str = "imported") -> "SemanticGraph":
        A = np.asarray(A, dtype=float)
        r, c = np.nonzero(A)
        return cls(r, c, A[r, c], A.shape[0], k, kernel)


def pairwise_sq_dists(z: np.ndarray) -> np.ndarray:
    sq = np.sum(z**2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (z @ z.T)
    return np.maximum(d2, 0.0)


def median_bandwidth(features: FeatureSet) -> float:
    """Median of the off-diagonal pairwise Euclidean distances."""
    d2 = pairwise_sq_dists(features.vectors)
    n = features.n
    off = d2[~np.eye(n, dtype=bool)]
    med = float(np.median(np.sqrt(off)))
    return med if med > 0 else 1.0


def gaussian_similarity(features: FeatureSet, sigma: float) -> np.ndarray:
    """S_ij = exp(-||z_i - z_j||^2 / (2 sigma^2)); symmetric, unit diagonal."""
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    d2 = pairwise_sq_dists(features.vectors)
    S = np.exp(-d2 / (2.0 * sigma**2))
    np.fill_diagonal(S, 1.0)
    return S


def cosine_similarity(features: FeatureSet) -> np.ndarray:
    norms = np.linalg.norm(features.vectors, axis=1)
    if np.any(norms == 0):
        raise ValueError("cosine kernel undefined for zero-norm vectors")
    z = features.vectors / norms[:, None]
    return z @ z.T


def build_knn_graph(gram: np.ndarray, k: int, kernel: str = "gaussian") -> SemanticGraph:
    """Keep the k largest off-diagonal similarities per row, zero elsewhere.

    Ties are broken toward the lowest column index. Negative similarities
    that survive selection (possible with the cosine kernel at large k) are
    clamped to 0 so the adjacency stays nonnegative. Edges come out row by
    row, columns ascending within a row.

    Rows are processed in blocks of about KNN_BLOCK_ENTRIES entries: per row,
    np.partition finds the kk-th largest value t, every entry above t is
    kept, and the lowest-index entries equal to t fill the row up to kk.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    S = np.asarray(gram, dtype=float)
    n = S.shape[0]
    kk = min(k, n - 1)
    if kk < 1:
        empty = np.zeros(0, dtype=np.intp)
        return SemanticGraph(empty, empty, np.zeros(0), n, k, kernel)
    rows, cols, vals = [], [], []
    block = max(1, KNN_BLOCK_ENTRIES // n)
    for start in range(0, n, block):
        B = S[start:start + block].copy()
        if np.isnan(B).any():
            raise ValueError("similarity entries must not be NaN")
        m = B.shape[0]
        B[np.arange(m), np.arange(start, start + m)] = -np.inf
        t = np.partition(B, n - kk, axis=1)[:, n - kk, None]
        above = B > t
        ties = B == t
        need = kk - above.sum(axis=1, keepdims=True)
        keep = above | (ties & (np.cumsum(ties, axis=1) <= need))
        r, c = np.nonzero(keep)
        rows.append(r + start)
        cols.append(c)
        vals.append(np.maximum(B[r, c], 0.0))
    return SemanticGraph(np.concatenate(rows), np.concatenate(cols), np.concatenate(vals), n, k, kernel)


def adjacency_accuracy(graph: SemanticGraph, labels: np.ndarray) -> float:
    """Fraction of stored edges whose endpoints share a ground-truth label."""
    labels = np.asarray(labels)
    if labels.size != graph.n:
        raise ValueError("labels length must equal graph size")
    pos = graph.values > 0
    if not np.any(pos):
        return 0.0
    return float(np.mean(labels[graph.rows[pos]] == labels[graph.cols[pos]]))
