import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _run(pair, side, p50, rss=40.0, correct=True, failed=0, workload="solve-p2ot", trace=0):
    return {"workload": workload, "trace": trace, "pair": pair, "side": side, "correct": correct, "failed": failed,
            "metrics": {"op_ms_p50": {"value": p50, "unit": "ms"}, "peak_rss_mb": {"value": rss, "unit": "MB"},
                        "unranked": {"value": 1.0, "unit": "x"}}}


def test_seeds_and_run_order():
    assert bench_pairs.parse_seeds("301-303,305") == [301, 302, 303, 305]
    assert bench_pairs.run_order(0) == ("parent", "change") and bench_pairs.run_order(1) == ("change", "parent")


def test_every_benchmark_metric_has_a_direction():
    directions = bench_pairs.metric_directions(ROOT / "BENCHMARK.json")
    assert directions["op_ms_p50"] == "lower" and directions["kernels.gflop_per_s"] == "higher"


def test_summary_counts_the_pairs_the_change_wins():
    runs = [_run(0, "parent", 2.0), _run(0, "change", 1.8), _run(1, "change", 2.1), _run(1, "parent", 2.0),
            _run(2, "parent", 2.2), _run(2, "change", 2.0, rss=41.0, failed=1),
            _run(0, "parent", 80.0, workload="solve-sp2ot")]  # a pair with one side only
    summary = bench_pairs.summarize(runs, {"op_ms_p50": "lower", "peak_rss_mb": "lower"})
    p2ot = summary["solve-p2ot/trace0"]
    assert p2ot["correct"] and p2ot["failed"] == 1
    p50 = p2ot["metrics"]["op_ms_p50"]
    assert p50["pairs"] == 3 and p50["change_wins"] == 2 and p50["better"] == "lower"
    assert p50["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.1, "n": 3}
    assert p50["change"]["median"] == pytest.approx(2.0)
    assert p2ot["metrics"]["peak_rss_mb"]["change_wins"] == 0  # 41 against 40 is worse, 40 against 40 no win
    assert "change_wins" not in p2ot["metrics"]["unranked"]  # no direction: medians only
    assert summary["solve-sp2ot/trace0"]["metrics"] == {}


def test_bounded_metrics_are_marked_unresolved_where_the_parent_spreads_wider_than_the_bound():
    assert bench_pairs.metric_bounds(ROOT / "BENCHMARK.json")["op_ms_p50"] == 0.25
    # parent op_ms_p50 quartiles 2.0-3.0 around a median of 2.5: a spread of 1.0 over the bound's 0.625
    parent_p50 = [1.0, 2.0, 2.5, 3.0, 4.0]
    mixed = [3.5, 1.5, 2.0, 2.6, 3.0]  # not every change run beats every parent run
    separated = [0.5, 0.6, 0.7, 0.8, 0.9]  # every change run beats every parent run
    rss = [40.0, 40.1, 40.0, 40.2, 40.0]  # parent quartiles 40.0-40.1, inside 5% of 40.0
    for change_p50, unresolved in ((mixed, True), (separated, False)):
        runs = [_run(i, side, p50, rss=r) for i, (p, c, r) in enumerate(zip(parent_p50, change_p50, rss))
                for side, p50 in (("parent", p), ("change", c))]
        metrics = bench_pairs.summarize(runs, {"op_ms_p50": "lower", "peak_rss_mb": "lower", "unranked": "higher"},
                                        {"op_ms_p50": 0.25, "peak_rss_mb": 0.05})["solve-p2ot/trace0"]["metrics"]
        assert metrics["op_ms_p50"]["unresolved"] is unresolved
        assert metrics["peak_rss_mb"]["unresolved"] is False  # a spread within the bound is resolved
        assert "unresolved" not in metrics["unranked"]  # a per-layer metric has no bound


@pytest.mark.parametrize("case, gain", [("met", True), ("too few wins", False), ("gap within spread", False)])
def test_a_gain_needs_nine_in_ten_pairs_and_a_median_gap_over_the_parent_spread(case, gain):
    parent = [2.0, 2.1, 2.0, 2.2, 2.1, 2.0, 2.1, 2.0, 2.1, 2.0]  # median 2.05, quartiles 2.0-2.1
    change = {
        "met": [p - 0.5 for p in parent[:9]] + [parent[9]],  # 9 wins and a tie, which counts for neither
        "too few wins": [p - 0.5 for p in parent[:8]] + [p + 0.1 for p in parent[8:]],  # 8 wins of 10
        "gap within spread": [p - 0.05 for p in parent],  # 10 wins, but the medians 0.05 apart
    }[case]
    runs = [_run(i, side, p50) for i, (p, c) in enumerate(zip(parent, change))
            for side, p50 in (("parent", p), ("change", c))]
    p50 = bench_pairs.summarize(runs, {"op_ms_p50": "lower"})["solve-p2ot/trace0"]["metrics"]["op_ms_p50"]
    assert p50["change_wins"] == {"met": 9, "too few wins": 8, "gap within spread": 10}[case]
    assert p50["gain"] is gain
    higher = bench_pairs.summarize(runs, {"op_ms_p50": "higher"})["solve-p2ot/trace0"]["metrics"]["op_ms_p50"]
    assert higher["gain"] is False  # the same runs read in the other direction lose
