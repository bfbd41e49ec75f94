"""K-nearest-neighbor semantic affinity graphs over sample features."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

# Similarity entries per block of rows in `build_knn_graph` (512 KB of float64). Larger
# blocks are no faster and leave more freed memory resident in the allocator's heap.
KNN_BLOCK_ENTRIES = 1 << 16
# Entries per block of rows that `dense_to_csr` scans (1 MB of boolean mask): the scan adds
# no N x N temporary to the caller's peak memory, and at 5632^2 it runs faster than one
# whole-matrix mask (~46 against ~60 ms).
DENSE_SCAN_BLOCK_ENTRIES = 1 << 20


def dense_to_csr(A) -> sparse.csr_array:
    """The square matrix `A` as a float64 CSR array of its nonzero entries.

    One scan of the mask `A != 0`, a block of rows at a time: each block's
    nonzero flat positions give rows and columns by divmod with N, the row
    counts give `indptr`, and the entries are gathered straight into `data`.
    The result equals `sparse.csr_array(A, dtype=float)` array for array
    (columns ascending within a row, no explicit zeros, -0.0 dropped, NaN
    kept) without scipy's COO round trip, which costs several times the scan
    on a large dense graph. The result owns its arrays: `A` is never aliased.

    Raises ValueError unless `A` is a 2-D square matrix.
    """
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"adjacency must be a square N x N matrix, got shape {A.shape}")
    n = A.shape[0]
    block = max(1, DENSE_SCAN_BLOCK_ENTRIES // max(n, 1))
    counts = np.zeros(n, dtype=np.int64)
    indices, data = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    for start in range(0, n, block):
        B = A[start:start + block]
        r, c = np.divmod(np.flatnonzero(B != 0), n)
        counts[start:start + B.shape[0]] = np.bincount(r, minlength=B.shape[0])
        indices.append(c)
        data.append(B[r, c].astype(np.float64, copy=False))
    # scipy's index dtype for the same matrix: int32 while the indices and nnz fit in it
    index_dtype = np.int32 if max(n, int(counts.sum())) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(n + 1, dtype=index_dtype)
    np.cumsum(counts, out=indptr[1:])
    indices = np.concatenate(indices).astype(index_dtype)
    return sparse.csr_array((np.concatenate(data), indices, indptr), shape=(n, n))


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
        """The nonzero entries of the square matrix `A` as triplets, row by row, columns ascending."""
        csr = dense_to_csr(A)
        n = csr.shape[0]
        rows = np.repeat(np.arange(n), np.diff(csr.indptr))
        return cls(rows, csr.indices.astype(np.intp), csr.data, n, k, kernel)


def pairwise_sq_dists(z: np.ndarray) -> np.ndarray:
    """D_ij = max(|z_i|^2 + |z_j|^2 - 2 z_i.z_j, 0), in one N x N array.

    The gram is scaled by -2 in place and the squared norms are added a block
    of about KNN_BLOCK_ENTRIES entries at a time, so the only other memory is
    one row block. Addition commutes in IEEE arithmetic, so every entry rounds
    exactly as `sq[:, None] + sq[None, :] - 2.0 * (z @ z.T)` does.
    """
    sq = np.sum(z**2, axis=1)
    d2 = z @ z.T
    d2 *= -2.0
    n = d2.shape[0]
    block = max(1, KNN_BLOCK_ENTRIES // max(n, 1))
    for start in range(0, n, block):
        d2[start:start + block] += sq[start:start + block, None] + sq[None, :]
    return np.maximum(d2, 0.0, out=d2)


def median_bandwidth(features: FeatureSet) -> float:
    """Median of the off-diagonal pairwise Euclidean distances; 1.0 when it is 0 or there is no pair.

    Each pair appears twice off the diagonal, so this is the median over the
    strict upper triangle. Row i's tail d2[i, i+1:] is packed into the front
    of d2's own buffer (every tail moves toward the start, so no unread entry
    is overwritten) and partitioned in place at the two middle ranks; sqrt is
    monotone, so the mean of their roots equals `np.median(np.sqrt(off))`.
    """
    d2 = pairwise_sq_dists(features.vectors)
    n = features.n
    m = n * (n - 1) // 2
    if m == 0:
        return 1.0
    flat = d2.reshape(-1)
    end = 0
    for i in range(n - 1):
        tail = flat[i * n + i + 1:(i + 1) * n]
        flat[end:end + tail.size] = tail
        end += tail.size
    upper = flat[:m]
    # the last rank puts a NaN (from overflowing features) at the end, as np.median checks
    upper.partition(((m - 1) // 2, m // 2, m - 1))
    if np.isnan(upper[-1]):
        return 1.0
    med = float(np.mean(np.sqrt(upper[[(m - 1) // 2, m // 2]])))
    return med if med > 0 else 1.0


def gaussian_similarity(features: FeatureSet, sigma: float) -> np.ndarray:
    """S_ij = exp(-||z_i - z_j||^2 / (2 sigma^2)); symmetric, unit diagonal.

    Computed in place on the squared distances, so the result is the one
    N x N array. Raises ValueError unless sigma is finite and > 0.
    """
    if not (np.isfinite(sigma) and sigma > 0):
        raise ValueError("sigma must be finite and > 0")
    S = pairwise_sq_dists(features.vectors)
    np.negative(S, out=S)
    S /= 2.0 * sigma**2
    np.exp(S, out=S)
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
