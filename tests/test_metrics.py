import itertools
import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from sppot.metrics import (
    LabelAssignment,
    ari,
    class_averaged_acc,
    evaluate,
    hmt_accuracies,
    hmt_split,
    hungarian_match,
    macro_f1,
    mapped_predictions,
    nmi,
)


def brute_force_match(conf):
    """Exhaustive permutation search for the count-maximizing matching."""
    k = conf.shape[0]
    best, best_map = -1, None
    for perm in itertools.permutations(range(k)):
        score = sum(conf[i, perm[i]] for i in range(k))
        if score > best:
            best, best_map = score, dict(enumerate(perm))
    return best, best_map


class TestConfusion:
    def test_counts(self):
        pred = [0, 0, 1, 2]
        truth = [1, 1, 0, 2]
        a = LabelAssignment.build(pred, truth)
        expected = np.array([[0, 2, 0], [1, 0, 0], [0, 0, 1]])
        npt.assert_array_equal(a.joint, expected)
        npt.assert_array_equal(a.matched, [1, 2, 1])

    def test_table_is_over_the_labels_in_use(self):
        # ids 0 and 3 make a 2 x 2 table, not a 4 x 4 one sized by the largest id
        a = LabelAssignment.build([0, 3, 3], [0, 1, 1])
        npt.assert_array_equal(a.joint, [[1, 0], [0, 2]])
        npt.assert_array_equal(mapped_predictions(a), [0, 1, 1])

    def test_unmatched_cluster_maps_to_minus_one(self):
        # three clusters, two classes: the matching leaves the smallest cluster without a class
        a = LabelAssignment.build([0, 0, 1, 1, 2], [0, 0, 1, 1, 1])
        npt.assert_array_equal(mapped_predictions(a), [0, 0, 1, 1, -1])
        npt.assert_array_equal(a.matched, [2, 2])

    @pytest.mark.parametrize("side", ["predicted", "truth"])
    def test_negative_label_rejected(self, side):
        # -1 ("unassigned") is not a label: it must not be counted as a cluster or class
        labels = {"predicted": [0, 1, 1], "truth": [0, 1, 1]}
        labels[side] = [0, 1, -1]
        for fn in (LabelAssignment.build, evaluate, nmi):
            with pytest.raises(ValueError, match="nonnegative"):
                fn(labels["predicted"], labels["truth"])

    @pytest.mark.parametrize("fn", [nmi, ari, evaluate])
    @pytest.mark.parametrize("truth", [[1], [0, 1, 2]], ids=["one", "three"])
    def test_unequal_lengths_rejected(self, fn, truth):
        # a single truth label used to broadcast, and nmi and ari returned 0.0
        with pytest.raises(ValueError, match="nonempty and equal length"):
            fn([0, 1, 2, 0], truth)


def rank(labels):
    return np.unique(labels, return_inverse=True)[1]


class TestLabelIds:
    """Every metric depends on which samples share a label, not on the label ids."""

    def test_record_equals_the_ranked_labels_record(self):
        rng = np.random.default_rng(27)
        for trial in range(60):
            kp, kt = (int(k) for k in rng.integers(2, 31, size=2))
            n = int(rng.integers(kp + kt, 400))
            truth = rng.integers(0, kt, size=n)
            pred = np.where(rng.random(n) < 0.6, truth % kp, rng.integers(0, kp, size=n))
            # strictly increasing id maps, with gaps and ids up to 10**9
            ids_p = np.sort(rng.choice(10**9, size=kp, replace=False))
            ids_t = np.sort(rng.choice(10**9, size=kt, replace=False))
            if trial % 2:
                ids_t = np.arange(kt) * 7 + 3
            # exact equality, NaN (an empty head/tail group) included
            npt.assert_equal(evaluate(ids_p[pred], ids_t[truth]), evaluate(rank(pred), rank(truth)), err_msg=str(trial))

    def test_large_id_costs_no_memory(self):
        rng = np.random.default_rng(4)
        truth = rng.integers(0, 10, size=2000)
        pred = truth.copy()
        pred[7] = 10**9
        evaluate(pred, truth)  # warm
        tracemalloc.start()
        try:
            record = evaluate(pred, truth)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak
        npt.assert_equal(record, evaluate(rank(pred), truth))


class TestHungarian:
    def test_matches_brute_force_scores(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            k = int(rng.integers(2, 6))
            conf = rng.integers(0, 20, size=(k, k))
            mapping = hungarian_match(conf)
            score = sum(conf[r, c] for r, c in mapping.items())
            best, _ = brute_force_match(conf)
            assert score == best

    def test_rectangular_input_padded(self):
        conf = np.array([[5, 0], [0, 5], [1, 1]])
        mapping = hungarian_match(conf)
        assert mapping[0] == 0 and mapping[1] == 1


class TestHungarianMatchesScipy:
    """The in-module assignment returns scipy's mapping, on the tie-heavy count matrices of
    clustering too, so that every metric built on it is unchanged."""

    @pytest.mark.parametrize("high", [1, 3, 1000, None], ids=["0-1", "0-3", "0-1000", "float-ties"])
    def test_mapping_equals_linear_sum_assignment(self, high):
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(11)
        for trial in range(1800):
            k = trial % 30 + 1
            # every third matrix is rectangular, which hungarian_match zero-pads to square
            shape = (k, int(rng.integers(1, 31))) if trial % 3 == 1 else (k, k)
            conf = rng.integers(0, high + 1, size=shape) if high else np.round(rng.normal(size=shape), 1)
            if trial % 4 == 0:
                conf[rng.random(k) < 0.3] = 0  # some all-zero rows
            n = max(shape)
            padded = np.zeros((n, n), dtype=conf.dtype)
            padded[:shape[0], :shape[1]] = conf
            _, cols = linear_sum_assignment(padded, maximize=True)
            assert hungarian_match(conf) == dict(enumerate(cols.tolist())), (trial, conf)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_hungarian_match_rejects_non_finite(bad):
    conf = np.eye(3)
    conf[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        hungarian_match(conf)


class TestAccuracy:
    def test_perfect(self):
        a = LabelAssignment.build([1, 0, 2, 1], [0, 1, 2, 0])  # a relabeling
        assert class_averaged_acc(a) == 1.0

    def test_class_averaged_not_sample_averaged(self):
        # 9 of 10 samples right but the singleton class is fully wrong:
        # class-averaged accuracy is the mean of per-class rates
        pred = [0] * 9 + [0]
        truth = [0] * 9 + [1]
        a = LabelAssignment.build(pred, truth)
        assert class_averaged_acc(a) == pytest.approx(0.5)

    def test_mapped_predictions(self):
        a = LabelAssignment.build([1, 1, 0], [0, 0, 1])
        npt.assert_array_equal(mapped_predictions(a), [0, 0, 1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LabelAssignment.build([], [])


class TestNmi:
    def test_identical_partitions(self):
        assert nmi([0, 1, 2, 0], [5, 7, 9, 5]) == pytest.approx(1.0)

    def test_independent_partitions(self):
        # pred splits pairs, truth splits halves: MI = 0 by construction
        assert nmi([0, 1, 0, 1], [0, 0, 1, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_counting_oracle(self):
        rng = np.random.default_rng(1)
        pred = rng.integers(0, 4, size=200)
        truth = rng.integers(0, 3, size=200)
        n = 200
        mi = 0.0
        for a in range(4):
            for b in range(3):
                nij = np.sum((pred == a) & (truth == b))
                if nij == 0:
                    continue
                na, nb = np.sum(pred == a), np.sum(truth == b)
                mi += (nij / n) * math.log(n * nij / (na * nb))
        hp = -sum((np.sum(pred == a) / n) * math.log(np.sum(pred == a) / n) for a in range(4))
        ht = -sum((np.sum(truth == b) / n) * math.log(np.sum(truth == b) / n) for b in range(3))
        expected = 2 * mi / (hp + ht)
        assert abs(nmi(pred, truth) - expected) < 1e-12

    def test_single_cluster_both(self):
        assert nmi([0, 0, 0], [1, 1, 1]) == 1.0


class TestAri:
    def test_identical(self):
        assert ari([0, 0, 1, 1], [1, 1, 0, 0]) == pytest.approx(1.0)

    def test_pair_counting_oracle(self):
        rng = np.random.default_rng(2)
        pred = rng.integers(0, 3, size=60)
        truth = rng.integers(0, 3, size=60)
        same_p = {(i, j) for i, j in itertools.combinations(range(60), 2) if pred[i] == pred[j]}
        same_t = {(i, j) for i, j in itertools.combinations(range(60), 2) if truth[i] == truth[j]}
        total = 60 * 59 / 2
        a = len(same_p & same_t)
        ei = len(same_p) * len(same_t) / total
        mx = (len(same_p) + len(same_t)) / 2
        expected = (a - ei) / (mx - ei)
        assert abs(ari(pred, truth) - expected) < 1e-12


class TestMacroF1:
    def test_hand_computed(self):
        # class 0: tp=2 fp=1 fn=0 -> f1 = 4/5; class 1: tp=1 fp=0 fn=1 -> f1 = 2/3
        a = LabelAssignment.build([0, 0, 0, 1], [0, 0, 1, 1])
        assert macro_f1(a) == pytest.approx((4 / 5 + 2 / 3) / 2)

    def test_perfect(self):
        a = LabelAssignment.build([0, 1, 2], [0, 1, 2])
        assert macro_f1(a) == 1.0


class TestHmt:
    def test_split_3_4_3(self):
        counts = [100, 80, 60, 40, 30, 20, 10, 8, 6, 4]
        head, medium, tail = hmt_split(counts)
        assert head == [0, 1, 2]
        assert medium == [3, 4, 5, 6]
        assert tail == [7, 8, 9]

    def test_small_k_all_medium(self):
        head, medium, tail = hmt_split([5, 3, 2])
        assert head == [] and tail == []
        assert medium == [0, 1, 2]

    def test_tie_break_by_index(self):
        head, _, tail = hmt_split([10, 10, 10, 1, 1, 1, 1, 1, 1, 1])
        assert head == [0, 1, 2]

    def test_accuracies_keys(self):
        truth = np.repeat(np.arange(10), [50, 40, 30, 20, 15, 10, 8, 6, 4, 2])
        pred = truth.copy()
        pred[:5] = 9  # a few head errors
        out = hmt_accuracies(LabelAssignment.build(pred, truth))
        assert set(out) == {"head", "medium", "tail"}
        assert out["medium"] == 1.0 and out["tail"] == 1.0
        assert out["head"] < 1.0


class TestEvaluate:
    def test_record_fields(self):
        rng = np.random.default_rng(3)
        truth = rng.integers(0, 5, size=100)
        record = evaluate(truth, truth)
        assert set(record) == {"acc", "nmi", "f1", "ari", "acc_head", "acc_medium", "acc_tail"}
        assert record["acc"] == record["nmi"] == record["f1"] == record["ari"] == 1.0
