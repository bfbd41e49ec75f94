"""K-nearest-neighbor semantic affinity graphs over sample features.

`scipy.sparse` is imported inside the functions that build or check a CSR
array, not with the module: loading it takes ~0.1 s, and a process that runs
only P2OT or the OT family never builds a graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Entries per block of every blockwise pass over a graph (512 KB of float64): the rows of
# `build_knn_graph`, `pairwise_sq_dists`, `gaussian_similarity` and `dense_to_csr`'s scan, and
# the median's pass. Larger blocks are no faster (the scan of a 5632^2 graph is within ~3 ms
# of its time at 1M-entry blocks) and leave more freed memory resident in the allocator's heap.
KNN_BLOCK_ENTRIES = 1 << 16
# Entries of the sorted sample whose ranks bracket the median in `median_bandwidth`. The
# bracket spans 3 sqrt(s) sample ranks each side (six standard deviations of the sample's
# median rank), about 3.3% of the distances at this size; inputs of under four samples'
# worth of distances are partitioned whole.
MEDIAN_SAMPLE = 1 << 15


def dense_to_csr(A) -> sparse.csr_array:
    """The square matrix `A` as a float64 CSR array of its nonzero entries.

    One scan of the mask `A != 0`, a block of about KNN_BLOCK_ENTRIES entries
    at a time into one reused buffer: each block's nonzero flat positions give
    rows and columns by divmod with N, the row counts give `indptr`, and the
    entries are gathered by those flat positions straight into `data`.
    The result equals `sparse.csr_array(A, dtype=float)` array for array
    (columns ascending within a row, no explicit zeros, -0.0 dropped, NaN
    kept) without scipy's COO round trip, which costs several times the scan
    on a large dense graph. The result owns its arrays: `A` is never aliased.

    Raises ValueError unless `A` is a 2-D square matrix.
    """
    from scipy import sparse

    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"adjacency must be a square N x N matrix, got shape {A.shape}")
    n = A.shape[0]
    block = max(1, KNN_BLOCK_ENTRIES // max(n, 1))
    counts = np.zeros(n, dtype=np.int64)
    indices, data = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    mask = np.empty((min(block, n), n), dtype=bool)
    for start in range(0, n, block):
        B = A[start:start + block]
        flat = np.flatnonzero(np.not_equal(B, 0, out=mask[:B.shape[0]]))
        r, c = np.divmod(flat, n)
        counts[start:start + B.shape[0]] = np.bincount(r, minlength=B.shape[0])
        indices.append(c)
        data.append(B.ravel()[flat].astype(np.float64, copy=False))
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
    """A sparse affinity graph held as its N x N CSR adjacency; ValueError unless that is a square CSR.

    `rows`, `cols` and `values` (intp, intp, float64) list the edges row by row, columns ascending.
    """

    adjacency: sparse.csr_array

    def __post_init__(self):
        from scipy import sparse

        A = self.adjacency
        if not (sparse.issparse(A) and A.format == "csr" and A.ndim == 2 and A.shape[0] == A.shape[1]):
            raise ValueError(f"adjacency must be a square N x N CSR array, got {type(A).__name__}")

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @property
    def rows(self) -> np.ndarray:
        return np.repeat(np.arange(self.n), np.diff(self.adjacency.indptr))

    @property
    def cols(self) -> np.ndarray:
        return self.adjacency.indices.astype(np.intp)

    @property
    def values(self) -> np.ndarray:
        return self.adjacency.data

    def to_dense(self) -> np.ndarray:
        return self.adjacency.toarray()

    @classmethod
    def from_triplets(cls, rows, cols, values, n: int) -> "SemanticGraph":
        """The graph of the edges (rows[e], cols[e], values[e]); a repeated (i, j) keeps its last value.

        Raises ValueError when an endpoint is not a node index in [0, n).
        """
        from scipy import sparse

        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.size and (min(rows.min(), cols.min()) < 0 or max(rows.max(), cols.max()) >= n):
            raise ValueError(f"edge endpoints must be node indices in [0, {n})")
        # first occurrence in the reversed edge list = last occurrence in the file order
        _, last = np.unique((rows * n + cols)[::-1], return_index=True)
        keep = rows.size - 1 - last
        values = np.asarray(values, dtype=float)[keep]
        return cls(sparse.csr_array((values, (rows[keep], cols[keep])), shape=(n, n)))


def pairwise_sq_dists(z: np.ndarray) -> np.ndarray:
    """D_ij = max(|z_i|^2 + |z_j|^2 - 2 z_i.z_j, 0), in one N x N array.

    The gram is one general matrix product against a contiguous copy of z.T:
    for `z @ z.T` NumPy calls the symmetric rank-k update and then copies its
    upper triangle into the lower one, a strided copy that costs several
    times the product (~200 against ~45 ms at 5632 x 16); both round every
    entry alike. A block of about KNN_BLOCK_ENTRIES entries at a time, while
    it is in cache, the gram is scaled by -2, the squared norms are added and
    the result is clamped at 0, so the only other memory is one row block.
    Addition commutes in IEEE arithmetic, so every entry rounds exactly as
    `sq[:, None] + sq[None, :] - 2.0 * (z @ z.T)` does.
    """
    sq = np.sum(z**2, axis=1)
    d2 = z @ z.T.copy()
    n = d2.shape[0]
    block = max(1, KNN_BLOCK_ENTRIES // max(n, 1))
    for start in range(0, n, block):
        B = d2[start:start + block]
        B *= -2.0
        B += sq[start:start + block, None] + sq[None, :]
        np.maximum(B, 0.0, out=B)
    return d2


def _packed_upper_sq_dists(z: np.ndarray) -> np.ndarray:
    """The strict upper triangle of `pairwise_sq_dists(z)`, row by row, packed into the front of its own buffer.

    Every row's tail d2[i, i+1:] moves toward the start, so no unread entry is overwritten.
    """
    d2 = pairwise_sq_dists(z)
    n = d2.shape[0]
    flat = d2.reshape(-1)
    end = 0
    for i in range(n - 1):
        tail = flat[i * n + i + 1:(i + 1) * n]
        flat[end:end + tail.size] = tail
        end += tail.size
    return flat[:end]


def _bracketed_pair(upper: np.ndarray, lo: int, hi: int):
    """The values of ranks lo <= hi of `upper` (NaN if it holds a NaN), or None when the sample's bracket misses.

    Floyd & Rivest's selection: a sorted sample gives values a <= b whose ranks
    should enclose lo and hi; one blockwise pass checks for NaN, counts the
    entries below a and moves those in [a, b] to the front of `upper` (which it
    overwrites), and only that band is partitioned. Entries equal to a or b are in
    the band, so ties at its edges are counted exactly.
    """
    m = upper.size
    # a fixed-seed uniform sample: a strided one aliases with the packed rows' lengths (at
    # n = 601 its median sat ~40 standard deviations off), while here the bracket misses a
    # rank with probability ~1e-9 on any input not built against the seed; the result is
    # exact either way
    picks = np.sort(np.random.default_rng(0).integers(0, m, size=MEDIAN_SAMPLE))
    sample = np.sort(upper[picks])
    s = sample.size
    half = 3.0 * np.sqrt(s)
    a = sample[max(0, int(lo * s / m - half))]
    b = sample[min(s - 1, int(np.ceil(hi * s / m + half)))]
    del sample
    below = end = 0
    for start in range(0, m, KNN_BLOCK_ENTRIES):
        chunk = upper[start:start + KNN_BLOCK_ENTRIES]
        if np.isnan(chunk.max()):
            return np.full(2, np.nan)
        lt = chunk < a
        below += np.count_nonzero(lt)
        band = chunk[lt ^ (chunk <= b)]  # a <= x <= b; a copy, so writing it below `start` is safe
        upper[end:end + band.size] = band
        end += band.size
    if not below <= lo <= hi < below + end:
        return None
    band = upper[:end]
    band.partition((lo - below, hi - below))
    return band[[lo - below, hi - below]]


def median_bandwidth(features: FeatureSet) -> float:
    """Median of the off-diagonal pairwise Euclidean distances; 1.0 when it is 0 or NaN, or there is no pair.

    Each pair appears twice off the diagonal, so this is the median over the
    strict upper triangle, packed into the front of the squared distances' own
    buffer. Its two middle ranks are selected inside a bracket drawn from a
    sorted sample of MEDIAN_SAMPLE entries (`_bracketed_pair`): one pass moves
    the few percent of entries inside the bracket to the front, and only those
    are partitioned. A small input, or a bracket that misses a rank, takes the
    exact partition of the whole triangle, rebuilt because the pass overwrote
    it. sqrt is monotone, so the mean of the two ranks' roots equals
    `np.median(np.sqrt(off))`, NaN included.
    """
    n = features.n
    m = n * (n - 1) // 2
    if m == 0:
        return 1.0
    lo, hi = (m - 1) // 2, m // 2
    pair = None
    if m >= 4 * MEDIAN_SAMPLE:
        pair = _bracketed_pair(_packed_upper_sq_dists(features.vectors), lo, hi)
    if pair is None:
        upper = _packed_upper_sq_dists(features.vectors)
        # the last rank puts a NaN (from overflowing features) at the end, as np.median checks
        upper.partition((lo, hi, m - 1))
        pair = np.full(2, np.nan) if np.isnan(upper[-1]) else upper[[lo, hi]]
    med = float(np.mean(np.sqrt(pair)))
    return med if med > 0 else 1.0


def gaussian_similarity(features: FeatureSet, sigma: float) -> np.ndarray:
    """S_ij = exp(-||z_i - z_j||^2 / (2 sigma^2)); symmetric, unit diagonal.

    Computed in place on the squared distances, so the result is the one
    N x N array; dividing by -2 sigma^2 rounds as negating and dividing by
    2 sigma^2 does. Raises ValueError unless sigma is finite and > 0 and
    2 sigma^2 is a finite, normal float: a subnormal one loses precision and
    overflows the quotient.
    """
    sigma = float(sigma)
    try:
        two_var = 2.0 * sigma**2
    except OverflowError:  # a float power past the float range raises rather than give inf
        two_var = np.inf
    if not (sigma > 0 and np.finfo(float).tiny <= two_var < np.inf):
        raise ValueError("sigma must be finite and > 0, with 2 sigma^2 a normal float")
    S = pairwise_sq_dists(features.vectors)
    block = max(1, KNN_BLOCK_ENTRIES // max(S.shape[0], 1))
    for start in range(0, S.shape[0], block):
        B = S[start:start + block]
        with np.errstate(over="ignore"):  # a quotient past -1.8e308 is -inf, whose exp is the 0 it rounds to
            B /= -two_var
        np.exp(B, out=B)
    np.fill_diagonal(S, 1.0)
    return S


def cosine_similarity(features: FeatureSet) -> np.ndarray:
    norms = np.linalg.norm(features.vectors, axis=1)
    if np.any(norms == 0):
        raise ValueError("cosine kernel undefined for zero-norm vectors")
    z = features.vectors / norms[:, None]
    return z @ z.T.copy()  # a general product, as in `pairwise_sq_dists`


def build_knn_graph(gram: np.ndarray, k: int) -> SemanticGraph:
    """Keep the k largest off-diagonal similarities per row, zero elsewhere.

    Ties are broken toward the lowest column index. Negative similarities
    that survive selection (possible with the cosine kernel at large k) are
    clamped to 0 so the adjacency stays nonnegative; such zero-weight edges
    stay in the graph as explicit zeros. Raises ValueError on a NaN entry or
    a gram that is not a 2-D square matrix.

    Rows are processed in blocks of about KNN_BLOCK_ENTRIES entries, each row
    with its diagonal entry taken as -inf. np.partition of a copy of the
    block finds each row's kk-th largest value t and sorts any NaN into the
    kk top slots. A row holding exactly kk entries >= t keeps them; only a
    row with more (ties at t) takes the entries above t plus the
    lowest-index entries equal to t, through a running count of its ties.
    Each block's row counts fill `indptr`; its columns, ascending within a
    row, and its weights are joined into `indices` and `data`.
    """
    from scipy import sparse

    if k < 1:
        raise ValueError("k must be >= 1")
    S = np.asarray(gram, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"adjacency must be a square N x N matrix, got shape {S.shape}")
    n = S.shape[0]
    kk = min(k, n - 1)
    if kk < 1:
        return SemanticGraph(sparse.csr_array((n, n)))
    # every row keeps kk edges: int32 indices while they fit, as scipy and `dense_to_csr` choose
    indptr = np.zeros(n + 1, dtype=np.int32 if n * kk <= np.iinfo(np.int32).max else np.int64)
    indices, data = [], []
    block = max(1, KNN_BLOCK_ENTRIES // n)
    for start in range(0, n, block):
        V = S[start:start + block]
        m = V.shape[0]
        diag = (np.arange(m), np.arange(start, start + m))
        P = V.copy()
        nan_diagonal = np.isnan(P[diag]).any()
        P[diag] = -np.inf
        P.partition(n - kk, axis=1)
        if nan_diagonal or np.isnan(P[:, n - kk:]).any():
            raise ValueError("similarity entries must not be NaN")
        t = P[:, n - kk, None].copy()
        del P
        keep = V >= t
        keep[diag] = -np.inf >= t[:, 0]
        if np.count_nonzero(keep) > m * kk:  # every row holds at least kk; some hold ties beyond
            tied = np.flatnonzero(np.count_nonzero(keep, axis=1) > kk)
            B = V[tied]
            B[np.arange(tied.size), tied + start] = -np.inf
            above = B > t[tied]
            ties = B == t[tied]
            need = kk - above.sum(axis=1, keepdims=True)
            keep[tied] = above | (ties & (np.cumsum(ties, axis=1) <= need))
        r, c = np.divmod(np.flatnonzero(keep), n)
        v = np.maximum(V[r, c], 0.0)
        v[c == r + start] = 0.0  # a diagonal entry, kept only when t is -inf, counts as -inf
        indptr[start + 1:start + m + 1] = np.bincount(r, minlength=m)
        indices.append(c.astype(indptr.dtype))
        data.append(v)
    np.cumsum(indptr, out=indptr)
    return SemanticGraph(sparse.csr_array((np.concatenate(data), np.concatenate(indices), indptr), shape=(n, n)))


def adjacency_accuracy(graph: SemanticGraph, labels: np.ndarray) -> float:
    """Fraction of stored edges whose endpoints share a ground-truth label."""
    labels = np.asarray(labels)
    if labels.size != graph.n:
        raise ValueError("labels length must equal graph size")
    pos = graph.values > 0
    if not np.any(pos):
        return 0.0
    return float(np.mean(labels[graph.rows[pos]] == labels[graph.cols[pos]]))
