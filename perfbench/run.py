"""Benchmark for ncgdesk: four seeded workloads over the exact backend.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ncgdesk is imported from its
``src/``.  The load is a closed loop: one worker process at a time
computes one instance after another, with no extra threads.  Each worker
is a fresh interpreter (see worker.py) that runs one slice of the run's
instances, so a run repeats set-up several times.

With ``--trace 0`` the last line of stdout reports the end-to-end metrics
of BENCHMARK.json, instance times scaled to a reference machine speed
(see ``scaled``); with ``--trace 1`` each slice runs twice, untraced and
traced, and the last line reports the per-layer metrics.  The line before
it holds the run's details: answer digests, sample counts, the tail
percentile used, raw wall times and the run's environment.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import tracer
from plan import WORKLOADS, slices

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
# A run must end within 180 s; stop waiting on workers well before that.
DEADLINE_S = 170
# Percentiles tried for instance_ms.tail, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
# Typical worker.speed_probe() time on the machine the benchmark was
# introduced on; reported times are scaled to that machine speed.
REFERENCE_PROBE_S = 0.002
# Half-width of the time window of probes that scales one instance.
SPEED_WINDOW_S = 0.25


def tail(samples):
    """(percentile, value): the highest listed percentile with at least 10
    samples beyond it, or the maximum (percentile 100) for tiny samples."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = -(-n * p // 100)  # nearest rank, ceil(n p / 100)
        if n - rank >= 10:
            return p, ordered[int(rank) - 1]
    return 100.0, ordered[-1]


def run_worker(args, lo, hi, traced, started):
    remaining = DEADLINE_S - (time.perf_counter() - started)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(WORKER), args.workload, str(args.seed),
         str(lo), str(hi), "1" if traced else "0", repr(t0)],
        cwd=ROOT, stdout=subprocess.PIPE, timeout=max(1.0, remaining),
        check=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit():
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment(budget):
    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_env": {k: v for k, v in os.environ.items()
                     if k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS", "BLIS_NUM_THREADS")},
        "ncg_budget": budget,
        "git_commit": git_commit(),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in (ROOT / "src").rglob("*.py")),
    }


def scaled(result):
    """Instance times (ms) of one worker at the reference speed.

    The host's speed drifts by up to 2x within a second or two, by about
    the same factor for the library and for the probe.  Each instance is
    divided by the median of the probes within SPEED_WINDOW_S of its
    middle (at least the six nearest).  Set-up is left as measured: it is
    mostly import, which the probe tracks poorly (scaling it doubled its
    spread).
    """
    probe_mid = [start + seconds / 2 for start, seconds in result["probes"]]
    out = []
    for start, t in zip(result["instance_start"], result["instance_ms"]):
        mid, reach = start + t / 2e3, SPEED_WINDOW_S + t / 2e3
        near = sorted(range(len(probe_mid)),
                      key=lambda i: abs(probe_mid[i] - mid))
        window = [i for i in near if abs(probe_mid[i] - mid) <= reach]
        if len(window) < 6:
            window = near[:6]
        speed = statistics.median(result["probes"][i][1] for i in window)
        out.append(t * REFERENCE_PROBE_S / speed)
    return out


def end_to_end(results):
    times = [t for r in results for t in scaled(r)]
    percentile, tail_ms = tail(times)
    wall = [t for r in results for t in r["instance_ms"]]
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in results), "s"),
        "run_s": (sum(times) / 1e3, "s"),
        "instance_ms.p50": (statistics.median(times), "ms"),
        "instance_ms.tail": (tail_ms, "ms"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in results), "MB"),
    }
    return metrics, {
        "samples": len(times), "tail_percentile": percentile,
        "wall": {"run_s": sum(wall) / 1e3,
                 "instance_ms.p50": statistics.median(wall)},
        "speed_factor": statistics.median(
            REFERENCE_PROBE_S / p for r in results for _, p in r["probes"]),
    }


def per_layer(plain, traced):
    metrics = tracer.layer_metrics(tracer.merge(r["layers"] for r in traced))
    for phase in ("import_s", "generate_s", "warm_s"):
        metrics[f"setup.{phase}"] = (
            statistics.median(r[phase] for r in plain), "s")
    metrics["trace.overhead_ratio"] = (
        sum(sum(r["instance_ms"]) for r in traced)
        / sum(sum(r["instance_ms"]) for r in plain), "ratio")
    return metrics, {}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "ncgdesk" / "__init__.py").is_file():
        sys.exit(f"error: no ncgdesk sources under {ROOT / 'src'}")

    started = time.perf_counter()
    plain, traced = [], []
    try:
        for lo, hi in slices(args.workload, args.seconds):
            plain.append(run_worker(args, lo, hi, False, started))
            if args.trace:
                traced.append(run_worker(args, lo, hi, True, started))
    except (subprocess.SubprocessError, ValueError, IndexError) as exc:
        sys.exit(f"error: worker failed: {exc}")

    attempted = sum(len(r["instance_ms"]) for r in plain + traced)
    failed = sum(len(r["failed"]) for r in plain + traced)
    digests = [r["digest"] for r in plain]
    digests_match = [r["digest"] for r in traced] in ([], digests)
    if args.trace:
        metrics, extra = per_layer(plain, traced)
    else:
        metrics, extra = end_to_end(plain)
    details = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "workers": len(plain) + len(traced),
        "fail_ratio": failed / attempted,
        "failed_instances": sorted({i for r in plain + traced
                                    for i in r["failed"]}),
        "digest": hashlib.sha256("".join(digests).encode()).hexdigest(),
        "slice_digests": digests,
        "traced_digests_match": digests_match,
        "environment": environment(plain[0]["ncg_budget"]),
        **extra,
    }
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and digests_match,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
