import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from scipy import sparse

from sppot import graph
from sppot.graph import (
    FeatureSet,
    SemanticGraph,
    adjacency_accuracy,
    build_knn_graph,
    cosine_similarity,
    dense_to_csr,
    gaussian_similarity,
    median_bandwidth,
    pairwise_sq_dists,
)


def features(n=10, d=4, seed=0):
    return FeatureSet(np.random.default_rng(seed).normal(size=(n, d)))


class TestFeatureSet:
    def test_shape_properties(self):
        f = features(7, 3)
        assert (f.n, f.d) == (7, 3)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            FeatureSet(np.ones(4))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            FeatureSet(np.array([[1.0, np.nan]]))


class TestKernels:
    def test_pairwise_sq_dists_matches_direct(self):
        f = features(6, 3, seed=1)
        d2 = pairwise_sq_dists(f.vectors)
        direct = np.array([[np.sum((a - b) ** 2) for b in f.vectors] for a in f.vectors])
        npt.assert_allclose(d2, direct, atol=1e-10)
        assert np.all(d2 >= 0)

    def test_median_bandwidth_positive(self):
        assert median_bandwidth(features()) > 0

    def test_median_bandwidth_degenerate_features(self):
        f = FeatureSet(np.zeros((5, 2)))
        assert median_bandwidth(f) == 1.0

    def test_gaussian_symmetric_unit_diag(self):
        f = features(8, 3, seed=2)
        S = gaussian_similarity(f, sigma=1.5)
        npt.assert_allclose(S, S.T, atol=1e-12)
        npt.assert_array_equal(np.diag(S), np.ones(8))
        assert np.all((S > 0) & (S <= 1))

    # 2 sigma^2 overflows at 1e160 and underflows to 0 at 1e-170
    @pytest.mark.parametrize("sigma", [0.0, -1.0, np.nan, np.inf, -np.inf, 1e160, 1e-170])
    def test_gaussian_rejects_bad_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma must be finite and > 0"):
            gaussian_similarity(features(), sigma)

    @pytest.mark.parametrize("n", [0, 1])
    def test_median_bandwidth_without_a_pair_is_one_and_silent(self, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert median_bandwidth(FeatureSet(np.ones((n, 3)))) == 1.0

    def test_gaussian_value(self):
        f = FeatureSet(np.array([[0.0], [2.0]]))
        S = gaussian_similarity(f, sigma=1.0)
        npt.assert_allclose(S[0, 1], np.exp(-2.0))

    def test_cosine_known_values(self):
        f = FeatureSet(np.array([[1.0, 0.0], [0.0, 2.0], [-3.0, 0.0]]))
        S = cosine_similarity(f)
        npt.assert_allclose(S[0, 1], 0.0, atol=1e-12)
        npt.assert_allclose(S[0, 2], -1.0, atol=1e-12)

    def test_cosine_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            cosine_similarity(FeatureSet(np.array([[0.0, 0.0], [1.0, 1.0]])))


def sq_dists_reference(z):
    sq = np.sum(z**2, axis=1)
    return np.maximum(sq[:, None] + sq[None, :] - 2.0 * (z @ z.T), 0.0)


def median_bandwidth_reference(f):
    d2 = sq_dists_reference(f.vectors)
    with warnings.catch_warnings():  # no pair: the median of nothing warns and gives NaN
        warnings.simplefilter("ignore")
        med = float(np.median(np.sqrt(d2[~np.eye(f.n, dtype=bool)])))
    return med if med > 0 else 1.0


def gaussian_reference(f, sigma):
    S = np.exp(-sq_dists_reference(f.vectors) / (2.0 * sigma**2))
    np.fill_diagonal(S, 1.0)
    return S


def grid_features(n, seed):
    """Integer points in {0, 1, 2}^3: many equal distances and, past 27 points, duplicate rows."""
    return FeatureSet(np.random.default_rng(seed).integers(0, 3, size=(n, 3)).astype(float))


def duplicated_features(n, seed):
    """Rows of a normal sample repeated in reverse order, offset far from 0 so the gram formula cancels."""
    z = np.random.default_rng(seed).normal(size=((n + 1) // 2, 4)) + 100.0
    return FeatureSet(np.vstack([z, z[::-1]])[:n])


class TestSetUpMatchesReference:
    """The in-place set-up gives the whole-array expressions' values to the bit."""

    @pytest.mark.parametrize("make", [grid_features, duplicated_features, lambda n, seed: features(n, 3, seed)],
                             ids=["grid", "duplicates", "normal"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 40])
    def test_array_equal_to_reference(self, make, n):
        f = make(n, seed=n)
        assert np.array_equal(pairwise_sq_dists(f.vectors), sq_dists_reference(f.vectors))
        sigma = median_bandwidth(f)
        assert sigma == median_bandwidth_reference(f)
        for s in (sigma, 0.7):
            assert np.array_equal(gaussian_similarity(f, s), gaussian_reference(f, s))

    @pytest.mark.parametrize("block", [1, 40 * 3 + 1, 1 << 20])
    def test_blocks_do_not_change_the_result(self, monkeypatch, block):
        # a block holds max(1, block // n) rows: 1 row, 3 rows with a partial last block, all rows
        monkeypatch.setattr(graph, "KNN_BLOCK_ENTRIES", block)
        for f in (grid_features(40, seed=5), duplicated_features(40, seed=6)):
            assert np.array_equal(pairwise_sq_dists(f.vectors), sq_dists_reference(f.vectors))
            assert median_bandwidth(f) == median_bandwidth_reference(f)
            assert np.array_equal(gaussian_similarity(f, 1.3), gaussian_reference(f, 1.3))

    def test_overflowing_features_give_the_median_fallback(self):
        # two finite rows whose squared norms overflow: inf - inf leaves a NaN distance between
        # them, and np.median's NaN turned the bandwidth into the 1.0 fallback
        z = features(40, 3, seed=9).vectors
        z[[0, 1]] = 1e200
        f = FeatureSet(z)
        with np.errstate(all="ignore"):
            assert np.array_equal(pairwise_sq_dists(f.vectors), sq_dists_reference(f.vectors), equal_nan=True)
            assert median_bandwidth(f) == median_bandwidth_reference(f) == 1.0

    @pytest.mark.parametrize("fn", [median_bandwidth, lambda f: gaussian_similarity(f, 1.0)],
                             ids=["median_bandwidth", "gaussian_similarity"])
    def test_peak_memory_is_one_n_by_n_array(self, fn):
        n = 1500
        f = features(n, 16, seed=8)
        block_bytes = max(1, graph.KNN_BLOCK_ENTRIES // n) * n * 8
        tracemalloc.start()
        try:
            fn(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one N x N array and one row block; a second block's worth covers the squared norms
        # and numpy's fixed-size ufunc buffers (the whole-array expressions peak at 3-4 N x N)
        assert peak <= n * n * 8 + 2 * block_bytes


class TestKnnGraph:
    def test_k_edges_per_row_no_self(self):
        f = features(12, 3, seed=3)
        g = build_knn_graph(gaussian_similarity(f, 1.0), k=4)
        assert g.rows.size == 12 * 4
        for i in range(12):
            cols = g.cols[g.rows == i]
            assert cols.size == 4
            assert i not in cols

    def test_keeps_largest_similarities(self):
        S = np.array(
            [
                [1.0, 0.9, 0.1, 0.5],
                [0.9, 1.0, 0.2, 0.3],
                [0.1, 0.2, 1.0, 0.8],
                [0.5, 0.3, 0.8, 1.0],
            ]
        )
        g = build_knn_graph(S, k=2)
        A = g.to_dense()
        npt.assert_allclose(A[0], [0.0, 0.9, 0.0, 0.5])
        npt.assert_allclose(A[2], [0.0, 0.2, 0.0, 0.8])

    def test_k_capped_at_n_minus_one(self):
        f = features(4, 2, seed=4)
        g = build_knn_graph(gaussian_similarity(f, 1.0), k=10)
        assert g.rows.size == 4 * 3

    def test_negative_survivors_clamped(self):
        S = -np.ones((3, 3))
        g = build_knn_graph(S, k=2)
        assert np.all(g.values == 0.0)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            build_knn_graph(np.eye(3), k=0)

    def test_dense_roundtrip(self):
        f = features(9, 3, seed=5)
        g = build_knn_graph(gaussian_similarity(f, 1.0), k=3)
        back = SemanticGraph.from_dense(g.to_dense())
        npt.assert_allclose(back.to_dense(), g.to_dense())

    def test_zero_diagonal_dense(self):
        f = features(9, 3, seed=6)
        A = build_knn_graph(gaussian_similarity(f, 1.0), k=3).to_dense()
        npt.assert_array_equal(np.diag(A), np.zeros(9))


def knn_reference(gram, k):
    """Row-by-row top-k by a stable argsort: the selection rule spelled out."""
    S = np.asarray(gram, dtype=float)
    n = S.shape[0]
    kk = min(k, n - 1)
    rows, cols, vals = [], [], []
    for i in range(n):
        row = S[i].copy()
        row[i] = -np.inf
        order = np.sort(np.argsort(-row, kind="stable")[:kk])
        rows.extend([i] * kk)
        cols.extend(order.tolist())
        vals.extend(np.maximum(row[order], 0.0).tolist())
    return np.asarray(rows), np.asarray(cols), np.asarray(vals, dtype=float)


def tie_heavy_gram(n, seed):
    f = features(n, 3, seed=seed)
    return np.round(gaussian_similarity(f, median_bandwidth(f)), 1)


def cosine_gram(n, seed):
    return cosine_similarity(features(n, 3, seed=seed))  # entries down to about -1


class TestKnnSelectionMatchesReference:
    @pytest.mark.parametrize("make_gram", [tie_heavy_gram, cosine_gram])
    @pytest.mark.parametrize("n, k", [(40, 1), (40, 5), (40, 39), (40, 60), (2, 1), (2, 3)])
    def test_array_equal_to_stable_argsort(self, make_gram, n, k):
        S = make_gram(n, seed=n + k)
        g = build_knn_graph(S, k)
        for got, want in zip((g.rows, g.cols, g.values), knn_reference(S, k)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("block", [1, 7, 40 * 3 + 1])
    def test_blocks_do_not_change_the_graph(self, monkeypatch, block):
        # a block holds max(1, block // n) rows; 121 // 40 = 3 leaves a partial last block
        monkeypatch.setattr(graph, "KNN_BLOCK_ENTRIES", block)
        S = tie_heavy_gram(40, seed=3)
        g = build_knn_graph(S, 6)
        for got, want in zip((g.rows, g.cols, g.values), knn_reference(S, 6)):
            assert np.array_equal(got, want)

    def test_all_ties_take_the_lowest_columns(self):
        g = build_knn_graph(np.ones((5, 5)), k=2)
        assert g.cols.tolist() == [1, 2, 0, 2, 0, 1, 0, 1, 0, 1]

    def test_single_node_has_no_edges(self):
        g = build_knn_graph(np.ones((1, 1)), k=3)
        assert g.rows.size == g.cols.size == g.values.size == 0

    def test_rejects_nan_similarity(self):
        S = np.ones((4, 4))
        S[2, 1] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            build_knn_graph(S, k=2)


class TestToCsr:
    def test_matches_dense(self):
        f = features(15, 3, seed=9)
        g = build_knn_graph(gaussian_similarity(f, 1.0), k=4)
        A = g.to_csr()
        assert A.format == "csr" and A.shape == (15, 15)
        npt.assert_array_equal(A.toarray(), g.to_dense())

    def test_repeated_edge_keeps_last_value(self):
        g = SemanticGraph(np.array([0, 1, 0, 2, 0]), np.array([1, 2, 1, 0, 1]),
                          np.array([0.5, 0.7, 0.25, 0.1, 0.75]), n=3, k=0, kernel="file")
        A = g.to_csr()
        assert A.nnz == 3
        npt.assert_array_equal(A.toarray(), g.to_dense())
        assert A[0, 1] == 0.75

    @pytest.mark.parametrize("rows, cols", [([0], [3]), ([3], [0]), ([-1], [0]), ([0], [-2])])
    def test_rejects_endpoint_outside_graph(self, rows, cols):
        g = SemanticGraph(np.array(rows), np.array(cols), np.array([1.0]), n=3, k=0, kernel="file")
        with pytest.raises(ValueError, match="node indices"):
            g.to_csr()

    def test_empty_graph(self):
        g = SemanticGraph(np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0), n=4, k=0, kernel="file")
        assert g.to_csr().shape == (4, 4) and g.to_csr().nnz == 0


def csr_reference(A):
    """scipy's own dense-to-CSR conversion, through COO."""
    ref = sparse.csr_array(A)
    ref.eliminate_zeros()
    return ref


def assert_same_csr(out, ref):
    assert out.format == "csr" and out.shape == ref.shape and out.dtype == np.float64
    npt.assert_array_equal(out.indptr, ref.indptr, strict=True)
    npt.assert_array_equal(out.indices, ref.indices, strict=True)
    npt.assert_array_equal(out.data, ref.data)  # ref keeps an int or bool input's dtype


def signed_zero_matrix():
    """7 x 7 with explicit 0.0 and -0.0, empty rows (first, middle, last) and a negative entry."""
    rng = np.random.default_rng(11)
    A = np.where(rng.uniform(size=(7, 7)) < 0.4, rng.uniform(0.1, 1.0, size=(7, 7)), 0.0)
    A[[0, 3, 6]] = 0.0
    A[1, 2], A[2, 5], A[4, 4] = -0.0, -0.0, -0.5
    A[5, 1] = 0.0
    return A


class TestDenseToCsr:
    @pytest.mark.parametrize("make", [
        signed_zero_matrix,
        lambda: np.zeros((5, 5)),
        lambda: np.zeros((1, 1)),
        lambda: np.full((1, 1), 3.0),
        lambda: np.zeros((0, 0)),
        lambda: (signed_zero_matrix() * 10).astype(np.int64),
        lambda: signed_zero_matrix() > 0,
        lambda: np.asfortranarray(signed_zero_matrix()),
        lambda: build_knn_graph(gaussian_similarity(features(40, 3, seed=12), 1.0), k=5).to_dense(),
    ], ids=["signed-zeros", "all-zero", "1x1-zero", "1x1", "0x0", "int", "bool", "fortran", "knn"])
    def test_array_equal_to_scipy(self, make):
        A = make()
        assert_same_csr(dense_to_csr(A), csr_reference(A))

    def test_strided_view(self):
        A = build_knn_graph(gaussian_similarity(features(40, 3, seed=13), 1.0), k=8).to_dense()
        view = A[::2, ::2]
        assert not view.flags.c_contiguous
        assert_same_csr(dense_to_csr(view), csr_reference(view))

    def test_nan_kept_in_place(self):
        A = signed_zero_matrix()
        A[2, 3] = np.nan
        out, ref = dense_to_csr(A), csr_reference(A)
        npt.assert_array_equal(out.indices, ref.indices)
        npt.assert_array_equal(out.data, ref.data)  # NaN compares equal here

    @pytest.mark.parametrize("block", [1, 7, 20, 1 << 20])
    def test_blocks_do_not_change_the_result(self, monkeypatch, block):
        A = build_knn_graph(gaussian_similarity(features(30, 3, seed=14), 1.0), k=4).to_dense()
        monkeypatch.setattr(graph, "DENSE_SCAN_BLOCK_ENTRIES", block)
        assert_same_csr(dense_to_csr(A), csr_reference(A))

    def test_result_owns_its_arrays(self):
        A = signed_zero_matrix()
        out = dense_to_csr(A)
        out.data[:] = 99.0
        npt.assert_array_equal(A, signed_zero_matrix())

    @pytest.mark.parametrize("shape", [(5,), (2, 3, 3), (3, 4), (0, 2)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ValueError, match="square"):
            dense_to_csr(np.ones(shape))
        with pytest.raises(ValueError, match="square"):
            SemanticGraph.from_dense(np.ones(shape))

    def test_from_dense_keeps_nonzero_order_and_negatives(self):
        A = signed_zero_matrix()
        g = SemanticGraph.from_dense(A, k=2)
        r, c = np.nonzero(A)
        npt.assert_array_equal(g.rows, r)
        npt.assert_array_equal(g.cols, c)
        npt.assert_array_equal(g.values, A[r, c])
        assert g.values.min() == -0.5 and (g.n, g.k, g.kernel) == (7, 2, "imported")


class TestAdjacencyAccuracy:
    def test_clustered_features_link_within_class(self):
        rng = np.random.default_rng(7)
        centers = np.array([[10.0, 0.0], [-10.0, 0.0]])
        labels = np.repeat([0, 1], 10)
        X = centers[labels] + rng.normal(scale=0.5, size=(20, 2))
        f = FeatureSet(X)
        g = build_knn_graph(gaussian_similarity(f, median_bandwidth(f)), k=5)
        assert adjacency_accuracy(g, labels) > 0.95

    def test_label_length_checked(self):
        f = features(6, 2, seed=8)
        g = build_knn_graph(gaussian_similarity(f, 1.0), k=2)
        with pytest.raises(ValueError):
            adjacency_accuracy(g, np.zeros(5, dtype=int))
