"""The summary that `tools/bench_pairs.py` writes for one metric."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from bench_pairs import summarize  # noqa: E402


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
