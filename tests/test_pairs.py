"""tools/pairs.py's summary of alternating benchmark pairs, on fixed runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"
_SPEC = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

END_TO_END = [{"name": "run_s", "better": "lower"},
              {"name": "score", "better": "higher"}]


def _runs(run_s, score, digest="d", correct=True):
    return [{"correct": correct, "digest": digest,
             "metrics": {"run_s": r, "score": s}} for r, s in zip(run_s, score)]


def test_summary_of_fixed_pairs():
    parent = _runs([1.0, 1.2, 1.1, 1.3, 0.9], [10, 10, 10, 10, 10])
    change = _runs([0.8, 0.9, 1.15, 0.7, 0.85], [11, 9, 10, 12, 13])
    summary = pairs.summarize(parent, change, END_TO_END)
    assert summary["pairs"] == 5
    assert summary["correct"] and summary["digests_match"]
    run_s, score = summary["metrics"]
    # quartiles by statistics.quantiles' default (exclusive) method
    assert run_s["parent"] == pytest.approx((0.95, 1.1, 1.25))
    assert run_s["change"] == pytest.approx((0.75, 0.85, 1.025))
    assert run_s["ratio"] == pytest.approx(0.85 / 1.1)
    assert run_s["won"] == 4  # pair 3 is lost: 1.15 against 1.1
    assert run_s["gap_exceeds_parent_iqr"] is False  # 0.25 is not above 0.30
    assert score["won"] == 3 and score["ratio"] == pytest.approx(1.1)
    assert score["parent"] == (10, 10, 10)
    assert score["gap_exceeds_parent_iqr"] is True  # a gap of 1 over an IQR of 0
    text = pairs.report(summary)
    assert "every run correct: yes" in text
    assert "one digest on both sides: yes" in text
    assert text.splitlines()[1].split()[:2] == ["run_s", "1.1"]


def test_one_pair_and_a_zero_parent_median():
    summary = pairs.summarize(_runs([0.0], [1]), _runs([0.0], [1]), END_TO_END)
    run_s = summary["metrics"][0]
    assert run_s["parent"] == (0.0, 0.0, 0.0) and run_s["ratio"] is None
    assert run_s["won"] == 0 and run_s["gap_exceeds_parent_iqr"] is False
    assert " - " in pairs.report(summary).splitlines()[1]


def test_a_wrong_run_or_digest_is_reported():
    parent = _runs([1.0, 1.0], [1, 1])
    assert not pairs.summarize(parent, _runs([1.0, 1.0], [1, 1], correct=False),
                               END_TO_END)["correct"]
    other = pairs.summarize(parent, _runs([1.0, 1.0], [1, 1], digest="e"),
                            END_TO_END)
    assert other["correct"] and not other["digests_match"]
    assert "one digest on both sides: NO" in pairs.report(other)
