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


BOUNDED = [{"name": "run_s", "better": "lower", "bound": 0.25},
           {"name": "score", "better": "higher", "bound": 0.1}]
# median 1.0, quartiles 0.9875 and 1.0125; pairs 1, 6, 9 and 10 read 1.0
PARENT_RUN_S = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.0]


@pytest.mark.parametrize("change_run_s, won, claim", [
    ([0.8] * 9 + [1.0], 9, True),  # the tie in pair 10 counts for no side
    ([0.8] * 8 + [1.0, 1.0], 8, False),  # two ties: 8 of 10 won
    ([x - 0.001 for x in PARENT_RUN_S], 10, False),  # gap 0.001, IQR 0.025
    ([1.2] * 10, 0, False),  # a gap past the IQR the wrong way
])
def test_claim_needs_nine_in_ten_and_a_gap_past_the_parent_iqr(
        change_run_s, won, claim):
    summary = pairs.summarize(_runs(PARENT_RUN_S, [1] * 10),
                              _runs(change_run_s, [1] * 10), BOUNDED)
    run_s = summary["metrics"][0]
    assert run_s["won"] == won and run_s["claim"] is claim
    line = pairs.report(summary).splitlines()[1].split()
    assert line[-2] == ("yes" if claim else "no")


@pytest.mark.parametrize("run_s, score, within", [
    (1.2, 9.5, (True, True)),  # 1.2 of 1.25 allowed, 9.5 of 9 allowed
    (1.3, 8.5, (False, False)),
    (0.5, 20, (True, True)),  # better is always within
])
def test_within_bound_allows_the_relative_bound_the_worse_way(run_s, score, within):
    summary = pairs.summarize(_runs([1.0] * 3, [10] * 3),
                              _runs([run_s] * 3, [score] * 3), BOUNDED)
    assert tuple(row["within_bound"] for row in summary["metrics"]) == within
    lines = pairs.report(summary).splitlines()[1:3]
    assert [line.split()[-1] for line in lines] == \
        ["yes" if w else "no" for w in within]


def test_a_metric_without_a_bound_has_no_bound_verdict():
    summary = pairs.summarize(_runs([1.0], [1]), _runs([9.0], [1]), END_TO_END)
    assert summary["metrics"][0]["within_bound"] is None
    assert pairs.report(summary).splitlines()[1].split()[-1] == "-"
