from collections import deque

import numpy as np
import numpy.testing as npt
import pytest
from scipy import sparse

from sppot import bench
from sppot.bench import (
    MemoryBuffer,
    PrototypeModel,
    PseudoLabelQuality,
    TrainConfig,
    buffer_adjacency,
    generate_imbalanced_mixture,
    geometric_class_counts,
    predict_probs,
    pseudo_label_quality,
    swapped_loss,
    train,
)


class TestClassCounts:
    def test_sums_and_ratio(self):
        counts = geometric_class_counts(10, 10.0, 2000)
        assert counts.sum() == 2000
        assert counts.min() >= 1
        assert counts.max() / counts.min() == pytest.approx(10.0, rel=0.05)

    def test_monotone_nonincreasing(self):
        counts = geometric_class_counts(8, 50.0, 500)
        assert np.all(np.diff(counts) <= 0)

    def test_balanced_when_ratio_one(self):
        counts = geometric_class_counts(5, 1.0, 100)
        npt.assert_array_equal(counts, np.full(5, 20))

    def test_no_empty_class_even_when_tiny(self):
        counts = geometric_class_counts(10, 100.0, 30)
        assert counts.sum() == 30
        assert counts.min() >= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            geometric_class_counts(1, 10.0, 100)
        with pytest.raises(ValueError):
            geometric_class_counts(5, 0.5, 100)
        with pytest.raises(ValueError):
            geometric_class_counts(5, 10.0, 3)


class TestMixture:
    def test_shapes_and_determinism(self):
        a = generate_imbalanced_mixture(5, 10.0, 200, dim=8, separation=5.0, seed=42)
        b = generate_imbalanced_mixture(5, 10.0, 200, dim=8, separation=5.0, seed=42)
        assert a.features.shape == (200, 8)
        assert a.labels.shape == (200,)
        npt.assert_array_equal(a.features, b.features)
        npt.assert_array_equal(a.labels, b.labels)
        assert a.n == 200 and a.k == 5
        assert a.imbalance_ratio == pytest.approx(10.0, rel=0.1)

    def test_labels_match_counts(self):
        ds = generate_imbalanced_mixture(4, 5.0, 120, dim=4, separation=5.0, seed=1)
        npt.assert_array_equal(np.bincount(ds.labels), ds.class_counts)

    def test_separation_controls_overlap(self):
        near = generate_imbalanced_mixture(3, 2.0, 150, dim=4, separation=0.5, seed=2)
        far = generate_imbalanced_mixture(3, 2.0, 150, dim=4, separation=20.0, seed=2)

        def within_over_between(ds):
            mus = np.array([ds.features[ds.labels == c].mean(axis=0) for c in range(3)])
            between = np.linalg.norm(mus[0] - mus[1])
            within = np.mean([ds.features[ds.labels == c].std() for c in range(3)])
            return within / between

        assert within_over_between(far) < within_over_between(near)


class TestModel:
    def test_predict_probs_rows_stochastic(self):
        rng = np.random.default_rng(3)
        model = PrototypeModel(rng.normal(size=(4, 6)), temperature=0.5, learning_rate=1.0)
        P = predict_probs(model, rng.normal(size=(10, 6)))
        npt.assert_allclose(P.sum(axis=1), np.ones(10), atol=1e-12)
        assert np.all(P > 0)

    def test_temperature_sharpens(self):
        rng = np.random.default_rng(4)
        W = rng.normal(size=(4, 6))
        X = rng.normal(size=(10, 6))
        hot = predict_probs(PrototypeModel(W, 2.0, 1.0), X)
        cold = predict_probs(PrototypeModel(W, 0.1, 1.0), X)
        assert cold.max(axis=1).mean() > hot.max(axis=1).mean()

    def test_swapped_loss_value(self):
        q = np.array([[0.5, 0.0]])
        p = np.array([[0.5, 0.5]])
        # both directions identical here: 2 * 0.5 * -log(0.5)
        assert swapped_loss(q, q, p, p) == pytest.approx(-np.log(0.5))


class TestMemoryBuffer:
    def test_concat_batch_first(self):
        buf = MemoryBuffer(capacity=10)
        old = (np.full((2, 3), 0.1), np.full((2, 3), 0.2), np.array([5, 6]))
        buf.push(*old)
        new = (np.full((2, 3), 0.3), np.full((2, 3), 0.4), np.array([1, 2]))
        m1, m2, idx = buf.concat(*new)
        npt.assert_array_equal(idx, [1, 2, 5, 6])
        npt.assert_allclose(m1[:2], 0.3)
        npt.assert_allclose(m1[2:], 0.1)
        npt.assert_allclose(m2[2:], 0.2)

    def test_fifo_eviction(self):
        buf = MemoryBuffer(capacity=3)
        buf.push(np.zeros((2, 2)), np.zeros((2, 2)), np.array([0, 1]))
        buf.push(np.zeros((2, 2)), np.zeros((2, 2)), np.array([2, 3]))
        assert len(buf) == 3
        _, _, idx = buf.concat(np.zeros((1, 2)), np.zeros((1, 2)), np.array([9]))
        npt.assert_array_equal(idx, [9, 1, 2, 3])

    def test_zero_capacity_disabled(self):
        buf = MemoryBuffer(capacity=0)
        buf.push(np.zeros((2, 2)), np.zeros((2, 2)), np.array([0, 1]))
        assert len(buf) == 0
        m1, _, idx = buf.concat(np.ones((1, 2)), np.ones((1, 2)), np.array([7]))
        assert m1.shape == (1, 2)
        npt.assert_array_equal(idx, [7])


class DequeBuffer:
    """Reference FIFO: one (row1, row2, index) entry per sample in a bounded deque."""

    def __init__(self, capacity):
        self.entries = deque(maxlen=capacity) if capacity > 0 else None

    def push(self, p1, p2, indices):
        if self.entries is not None:
            self.entries.extend(zip(p1.copy(), p2.copy(), indices))

    def concat(self, p1, p2, indices):
        if not self.entries:
            return p1, p2, np.asarray(indices)
        b1, b2, bi = zip(*self.entries)
        return np.vstack([p1, b1]), np.vstack([p2, b2]), np.concatenate([indices, bi])


class TestMemoryBufferMatchesDeque:
    @pytest.mark.parametrize("capacity", [0, 1, 7, 20])
    def test_random_pushes(self, capacity):
        # batches smaller than, equal to and larger than the capacity, with
        # enough of them that the write head wraps several times
        rng = np.random.default_rng(capacity)
        buf, ref = MemoryBuffer(capacity), DequeBuffer(capacity)
        next_index = 0
        for size in [3, 5, 1, 7, 20, 2, 25, 4, 6, 13, 1, 1, 9, 0, 8]:
            p1, p2 = rng.random((size, 4)), rng.random((size, 4))
            idx = np.arange(next_index, next_index + size)
            next_index += size
            probe = (rng.random((2, 4)), rng.random((2, 4)), np.array([-1, -2]))
            for got, want in zip(buf.concat(*probe), ref.concat(*probe)):
                npt.assert_array_equal(got, want)
            buf.push(p1, p2, idx)
            ref.push(p1, p2, idx)
            assert len(buf) == (len(ref.entries) if ref.entries is not None else 0)

    def test_concat_copies(self):
        buf = MemoryBuffer(4)
        buf.push(np.zeros((3, 2)), np.zeros((3, 2)), np.arange(3))
        m1, m2, idx = buf.concat(np.ones((1, 2)), np.ones((1, 2)), np.array([9]))
        m1[:], m2[:], idx[:] = 5.0, 5.0, 5
        again = buf.concat(np.ones((1, 2)), np.ones((1, 2)), np.array([9]))
        npt.assert_array_equal(again[0][1:], np.zeros((3, 2)))
        npt.assert_array_equal(again[2], [9, 0, 1, 2])


class TestPseudoLabelQuality:
    def test_hand_computed(self):
        # 3 selected rows (one zero row); cluster 0 -> class 1, cluster 1 -> class 0
        Q = np.array(
            [
                [0.4, 0.0],
                [0.3, 0.1],
                [0.0, 0.0],
                [0.0, 0.2],
            ]
        )
        labels = np.array([1, 1, 0, 0])
        q = pseudo_label_quality(Q, labels)
        assert q.n_selected == 3
        assert q.precision == 1.0
        assert q.recall == pytest.approx(3 / 4)
        assert q.weighted_precision == 1.0
        assert q.weighted_recall == pytest.approx(1.0)  # all mass on correct cells

    def test_partial_correctness_weighting(self):
        # the wrong row carries little mass, so the weighted precision
        # exceeds the unweighted one
        Q = np.array(
            [
                [0.50, 0.0],
                [0.01, 0.0],
            ]
        )
        labels = np.array([0, 1])
        q = pseudo_label_quality(Q, labels)
        assert q.precision == 0.5
        assert q.weighted_precision == pytest.approx(0.50 / 0.51)

    def test_empty_selection(self):
        q = pseudo_label_quality(np.zeros((3, 2)), np.array([0, 1, 0]))
        assert q.empty
        assert np.isnan(q.precision)


class TestTrainConfig:
    def test_defaults_pulled_in(self):
        tc = TrainConfig.from_defaults()
        assert tc.epsilon == 0.1
        assert tc.lambda2 == 1.0
        assert tc.rho0 == 0.1
        assert tc.knn_k == 20
        assert tc.batch_size == 512
        assert tc.buffer_size == 5120

    def test_overrides(self):
        tc = TrainConfig.from_defaults(solver="UOT", epochs=3, epsilon=0.2)
        assert tc.solver == "UOT" and tc.epochs == 3 and tc.epsilon == 0.2


@pytest.fixture(scope="module")
def tiny_dataset():
    return generate_imbalanced_mixture(3, 4.0, 90, dim=5, separation=8.0, seed=11)


class TestTrain:
    def test_unknown_solver_rejected(self, tiny_dataset):
        with pytest.raises(ValueError):
            train(tiny_dataset, TrainConfig.from_defaults(solver="FOO"))

    @pytest.mark.parametrize("solver", ["OT", "UOT", "POT", "SLA", "P2OT"])
    def test_smoke_all_solvers(self, tiny_dataset, solver):
        cfg = TrainConfig.from_defaults(
            solver=solver, epochs=2, batch_size=30, buffer_size=60, knn_k=5, seed=1
        )
        history = train(tiny_dataset, cfg)
        assert len(history.epochs) == 2
        rec = history.final
        for key in ("acc", "nmi", "f1", "ari", "rho", "precision", "weighted_precision", "max_cluster_share"):
            assert key in rec
        assert 0 <= rec["acc"] <= 1
        assert history.loss_trace  # every iteration logged

    def test_smoke_semantic_solver(self, tiny_dataset):
        cfg = TrainConfig.from_defaults(
            solver="SP2OT", epochs=1, batch_size=30, buffer_size=0, knn_k=5, seed=2, lambda1_0=10.0
        )
        history = train(tiny_dataset, cfg)
        assert len(history.epochs) == 1

    @pytest.mark.parametrize("solver", ["OT", "UOT", "POT", "SLA", "P2OT"])
    def test_non_semantic_solvers_build_no_graph(self, tiny_dataset, solver, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the kNN graph is built for a solver that never reads it")

        monkeypatch.setattr(bench, "build_knn_graph", refuse)
        cfg = TrainConfig.from_defaults(solver=solver, epochs=1, batch_size=30, buffer_size=60, knn_k=5, seed=1)
        assert len(train(tiny_dataset, cfg).epochs) == 1

    def test_buffer_adjacency_matches_dense_slice(self):
        rng = np.random.default_rng(12)
        A = sparse.random_array((20, 20), density=0.3, format="csr", rng=rng)
        A.setdiag(rng.uniform(0.5, 1.0, size=20))  # self-loops, so zeroing the diagonal matters
        idx = np.concatenate([rng.permutation(20)[:8], rng.integers(0, 20, size=12)])
        assert np.unique(idx).size < idx.size
        dense = A.toarray()[np.ix_(idx, idx)]
        np.fill_diagonal(dense, 0.0)
        sub = buffer_adjacency(A, idx)
        assert sparse.issparse(sub)
        npt.assert_array_equal(sub.toarray(), dense)

    def test_rho_follows_schedule(self, tiny_dataset):
        cfg = TrainConfig.from_defaults(
            solver="P2OT", epochs=3, batch_size=30, buffer_size=0, knn_k=5, seed=3
        )
        history = train(tiny_dataset, cfg)
        rhos = [rec["rho"] for rec in history.epochs]
        assert rhos[-1] == 1.0
        assert all(b >= a for a, b in zip(rhos, rhos[1:]))

    def test_fixed_schedule_override(self, tiny_dataset):
        cfg = TrainConfig.from_defaults(
            solver="P2OT", epochs=2, batch_size=30, buffer_size=0, knn_k=5,
            schedule_kind="fixed", rho0=0.3, seed=4,
        )
        history = train(tiny_dataset, cfg)
        assert all(rec["rho"] == 0.3 for rec in history.epochs)

    def test_seed_reproducibility(self, tiny_dataset):
        cfg = TrainConfig.from_defaults(solver="P2OT", epochs=1, batch_size=30, buffer_size=0, knn_k=5, seed=5)
        h1 = train(tiny_dataset, cfg)
        h2 = train(tiny_dataset, cfg)
        assert h1.loss_trace == h2.loss_trace
        for a, b in zip(h1.epochs, h2.epochs):
            assert set(a) == set(b)
            for key in a:
                npt.assert_array_equal(a[key], b[key])  # nan-aware equality

    @pytest.mark.parametrize("solver", ["OT", "UOT", "POT", "P2OT"])
    def test_repeated_runs_are_identical(self, tiny_dataset, solver):
        # the warm-start potentials live in the call, so a second run starts
        # from the same state as the first
        cfg = TrainConfig.from_defaults(solver=solver, epochs=2, batch_size=30, buffer_size=60, knn_k=5, seed=7)
        h1 = train(tiny_dataset, cfg)
        h2 = train(tiny_dataset, cfg)
        assert h1.loss_trace == h2.loss_trace
        for a, b in zip(h1.epochs, h2.epochs):
            assert a.keys() == b.keys()
            for key in a:
                npt.assert_array_equal(a[key], b[key])

    def test_steps_and_epochs_are_warm_started(self, tiny_dataset, monkeypatch):
        from sppot import p2ot

        real = p2ot.solve_p2ot_fast
        calls = []

        def spy(problem, cost=None, init=None):
            plan = real(problem, cost, init)
            calls.append((problem.pred.shape[0], init, plan.col_potential))
            return plan

        monkeypatch.setattr(p2ot, "solve_p2ot_fast", spy)
        # a step solves at most 60 rows (batch + buffer), the epoch end all 90
        cfg = TrainConfig.from_defaults(solver="P2OT", epochs=2, batch_size=30, buffer_size=30, seed=8)
        train(tiny_dataset, cfg)
        steps = [c for c in calls if c[0] < tiny_dataset.n]
        full = [c for c in calls if c[0] == tiny_dataset.n]
        assert steps[0][1] is None and full[0][1] is None
        for before, after in zip(steps, steps[1:]):  # both views and consecutive steps share one potential
            assert after[1] is before[2]
        assert full[1][1] is full[0][2]

    def test_failed_full_dataset_solve_records_nan_quality(self, tiny_dataset, monkeypatch):
        from sppot import ot_core, p2ot

        real = p2ot.solve_p2ot_fast

        def fail_on_full_dataset(problem, cost=None, init=None):
            if problem.pred.shape[0] == tiny_dataset.n:
                raise ot_core.NumericalOverflowError("non-finite plan")
            return real(problem, cost, init)

        monkeypatch.setattr(p2ot, "solve_p2ot_fast", fail_on_full_dataset)
        cfg = TrainConfig.from_defaults(solver="P2OT", epochs=2, batch_size=30, buffer_size=30, seed=9)
        history = train(tiny_dataset, cfg)
        assert len(history.epochs) == 2
        assert len(history.loss_trace) == 2 * (tiny_dataset.n // 30)
        for rec in history.epochs:
            for key in ("precision", "recall", "weighted_precision", "weighted_recall", "max_cluster_share"):
                assert np.isnan(rec[key])
            assert np.isfinite(rec["acc"])

    def test_learning_improves_over_init(self, tiny_dataset):
        cfg = TrainConfig.from_defaults(solver="P2OT", epochs=6, batch_size=30, buffer_size=60, knn_k=5, seed=6)
        history = train(tiny_dataset, cfg)
        assert history.final["acc"] > 0.8
