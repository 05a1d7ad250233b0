"""Run the benchmark on several seeds and summarize each metric.

    python3 perfbench/seeds.py --workload NAME --seeds 1-10 [--seconds S]
                               [--trace 0|1]

--seconds defaults to run_seconds of BENCHMARK.json.

Runs run.py once per seed, one run at a time, and prints one JSON object:
per metric the values, their median, quartiles and quartile spread
((Q3 - Q1) / median, quartiles as statistics.quantiles(values, n=4) gives
them), plus the answer digest of every seed.  Run from the checkout root.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True)
    parser.add_argument("--seconds", type=int, default=json.loads(
        BENCHMARK.read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    results, digests = [], {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True, timeout=600)
        *_, details, result = proc.stdout.strip().splitlines()
        results.append(json.loads(result))
        digests[seed] = json.loads(details)["digest"]
    names = results[0]["metrics"]
    print(json.dumps({
        "workload": args.workload, "seconds": args.seconds,
        "trace": args.trace,
        "correct": all(r["correct"] for r in results),
        "digests": digests,
        "metrics": {name: {"unit": results[0]["metrics"][name]["unit"],
                           **summarize([r["metrics"][name]["value"]
                                        for r in results])}
                    for name in names},
    }, indent=1))


if __name__ == "__main__":
    main()
