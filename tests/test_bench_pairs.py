"""The summary that `tools/bench_pairs.py` writes for one metric, its
seeds and its report comparison."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_pairs  # noqa: E402
from bench_pairs import compare, parse_args, summarize  # noqa: E402


def test_summary_of_a_lower_is_better_metric():
    parent = [10.0, 12.0, 11.0, 13.0, 9.0]
    change = [8.0, 12.0, 7.0, 14.0, 6.0]
    s = summarize(parent, change)
    assert (s["parent"], s["change"]) == (parent, change)
    assert (s["parent_median"], s["change_median"]) == (11.0, 8.0)
    assert s["parent_quartiles"] == [10.0, 12.0]
    assert s["change_quartiles"] == [7.0, 12.0]
    # pairs 0, 2, 4 won, pair 1 tied, pair 3 lost
    assert (s["change_wins"], s["ties"], s["pairs"]) == (3, 1, 5)
    assert s["median_change_pct"] == -27.3
    # the gap 3 exceeds the parent's interquartile distance 2
    assert s["gap_exceeds_parent_iqr"] is True


def test_higher_is_better_counts_the_other_way():
    s = summarize([1.0, 0.5, 0.75], [1.0, 0.75, 0.5], better="higher")
    assert (s["change_wins"], s["ties"]) == (1, 1)
    assert s["median_change_pct"] == 0.0
    assert s["gap_exceeds_parent_iqr"] is False


def test_one_pair_and_unequal_lengths():
    s = summarize([2.0], [1.0])
    assert s["parent_quartiles"] == [2.0, 2.0]
    assert s["change_wins"] == 1 and s["gap_exceeds_parent_iqr"] is True
    with pytest.raises(ValueError):
        summarize([1.0, 2.0], [1.0])


def test_seed_may_be_given_more_than_once():
    base = ["--parent", "HEAD~1", "--workload", "spectrum-n5", "--out", "x"]
    assert parse_args(base + ["--seed", "61"]).seed == [61]
    args = parse_args(base + ["--seed", "1", "--seed", "61", "--seed", "1"])
    assert args.seed == [1, 61]
    with pytest.raises(SystemExit):
        parse_args(base)


@pytest.mark.parametrize("digests, same", [
    ({"parent": "a", "change": "a"}, True),
    ({"parent": "a", "change": "b"}, False),
])
def test_same_reports_compares_the_digests_of_both_sides(monkeypatch,
                                                         digests, same):
    def fake_run(tree, workload, seed, seconds):
        return {"values": {"latency_s": 1.0}, "correct": True,
                "deterministic": True, "sha256": digests[tree],
                "counts": [2, 64]}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    trees = {side: side for side in bench_pairs.SIDES}
    result = compare(trees, "spectrum-n5", 1, 2, 1, {})
    assert result["report_sha256"] == {side: [digests[side]]
                                       for side in bench_pairs.SIDES}
    assert result["same_reports"] is same
