"""Compare two checkouts on one benchmark workload, in alternating pairs.

Usage (from any directory, standard library only):

    python tools/pairs.py PARENT CHANGE --workload NAME --seed N \\
        --seconds S --pairs K

PARENT and CHANGE are source checkouts, each with its own
``perfbench/run.py``.  Each of the K pairs runs ``python3 perfbench/run.py
--workload NAME --seed N --seconds S`` once in each checkout, one process
at a time; pair i runs PARENT first when i is even and CHANGE first when
it is odd.  For each end-to-end metric that CHANGE's ``BENCHMARK.json``
lists, the tool prints both sides' medians and quartiles, the
change/parent ratio of the medians, the number of pairs the change won
(better in its ``better`` direction) and whether the gap between the
medians exceeds the parent's interquartile range.  Two verdicts follow:
"claim" is yes when the change won at least 9 in 10 of the pairs (a tie
counts for neither side) and its median is better than the parent's by
more than the parent's interquartile range; "within bound" is yes when
the change's median is worse than the parent's by no more than the
metric's relative ``bound``.  Then it says whether every run was correct
and whether every run of both sides gave one answer digest.  Exits 1
when a run is not correct or the digests differ, and 2 when a run fails.
Give the two checkouts directory names of one length:
``peak_rss_mb`` reads a little higher under a longer path.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced benchmark run in ``checkout``: its correctness, answer
    digest and end-to-end metric values."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode:
        sys.exit(f"error: run in {checkout} failed: {proc.stderr.strip()}")
    details, result = map(json.loads, proc.stdout.strip().splitlines()[-2:])
    return {"correct": result["correct"], "digest": details["digest"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def quartiles(values):
    """(q1, median, q3) of the values, by ``statistics.quantiles``'
    default method; one value is all three."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4))


def summarize(parent, change, end_to_end):
    """The comparison of two equally long lists of runs, pair i being
    (parent[i], change[i]), on the metrics of ``end_to_end`` (BENCHMARK.json
    entries with ``name``, ``better`` and, optionally, ``bound``)."""
    rows = []
    for metric in end_to_end:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        p = [r["metrics"][name] for r in parent]
        c = [r["metrics"][name] for r in change]
        pq, cq = quartiles(p), quartiles(c)
        won = sum(sign * (y - x) < 0 for x, y in zip(p, c))
        bound = metric.get("bound")
        rows.append({
            "name": name, "parent": pq, "change": cq,
            "ratio": cq[1] / pq[1] if pq[1] else None,
            "won": won,
            "gap_exceeds_parent_iqr": abs(cq[1] - pq[1]) > pq[2] - pq[0],
            "claim": 10 * won >= 9 * len(p)
                     and sign * (pq[1] - cq[1]) > pq[2] - pq[0],
            "within_bound": None if bound is None else
                            sign * (cq[1] - pq[1]) <= bound * abs(pq[1]),
        })
    runs = parent + change
    return {"pairs": len(parent), "metrics": rows,
            "correct": all(r["correct"] for r in runs),
            "digests_match": len({r["digest"] for r in runs}) == 1}


def report(summary) -> str:
    def span(q):
        return f"{q[1]:.4g} [{q[0]:.4g}–{q[2]:.4g}]"

    lines = [f"{'metric':<18} {'parent median [q1–q3]':<28} "
             f"{'change median [q1–q3]':<28} ratio   won   gap > parent IQR  "
             "claim  within bound"]
    for row in summary["metrics"]:
        ratio = "-" if row["ratio"] is None else f"{row['ratio']:.3f}"
        bound = {None: "-", True: "yes", False: "no"}[row["within_bound"]]
        lines.append(
            f"{row['name']:<18} {span(row['parent']):<28} "
            f"{span(row['change']):<28} {ratio:<7} "
            f"{row['won']}/{summary['pairs']:<3} "
            f"{'yes' if row['gap_exceeds_parent_iqr'] else 'no':<17} "
            f"{'yes' if row['claim'] else 'no':<6} {bound}")
    lines.append(f"every run correct: {'yes' if summary['correct'] else 'NO'}")
    lines.append("one digest on both sides: "
                 f"{'yes' if summary['digests_match'] else 'NO'}")
    return "\n".join(lines)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args()
    end_to_end = json.loads(
        (args.change / "BENCHMARK.json").read_text())["end_to_end"]
    parent, change = [], []
    for i in range(args.pairs):
        sides = [(args.parent, parent), (args.change, change)]
        for checkout, runs in sides if i % 2 == 0 else sides[::-1]:
            runs.append(run_once(checkout, args.workload, args.seed,
                                 args.seconds))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr, flush=True)
    summary = summarize(parent, change, end_to_end)
    print(report(summary))
    sys.exit(0 if summary["correct"] and summary["digests_match"] else 1)


if __name__ == "__main__":
    main()
