"""One benchmark process: set up, run one slice of a workload, report.

Started by run.py as a fresh interpreter, so module caches start empty
and import cost is part of set-up.  Prints one JSON object on stdout.

    python3 perfbench/worker.py WORKLOAD SEED LO HI TRACE T0

T0 is the parent's time.perf_counter() just before it started this
process; on Linux that clock is system-wide (CLOCK_MONOTONIC), so set-up
time counts from the start of the interpreter.
"""

import hashlib
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path


def speed_probe():
    """Seconds taken by a fixed stdlib exact-arithmetic kernel.

    The kernel never touches ncgdesk, so library changes cannot move it; it
    moves with the machine's speed, which run.py divides out.
    """
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(i % 7 + 1, i % 11 + 2) * Fraction(3, i % 5 + 1)
    return time.perf_counter() - start


def _minimalize_info(scalars):
    """(hits, calls) of the scalar minimalization cache; zeros without one."""
    cached = getattr(scalars, "_minimalize_cached", None)
    if cached is None:
        return 0, 0
    info = cached.cache_info()
    return info.hits, info.hits + info.misses


def main(argv):
    workload, seed, lo, hi, trace, t0 = argv
    seed, lo, hi, trace, t0 = int(seed), int(lo), int(hi), trace == "1", \
        float(t0)
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    import ncgdesk
    from ncgdesk import scalars
    from ncgdesk.errors import NcgError
    import workloads
    t_import = time.perf_counter()

    spec = workloads.WORKLOADS[workload]()
    instances = [spec.generate(seed, i) for i in range(lo, hi)]
    t_generate = time.perf_counter()
    warmed = spec.warm()
    t_warm = time.perf_counter()

    tracer = None
    if trace:
        import tracer as tracing
        tracer = tracing.Tracer(known_spaces=warmed)
        cache = _minimalize_info(scalars)
        tracer.install()
    # (start, seconds) of each probe: 3 before the first instance, one
    # after each, 2 more at the end
    probes = []

    def probe(count=1):
        for _ in range(count):
            probes.append((time.perf_counter(), speed_probe()))

    probe(3)
    began, times_ms, answers, failures = [], [], [], []
    for index, instance in zip(range(lo, hi), instances):
        began.append(time.perf_counter())
        try:
            ok, answer = spec.run(instance)
        except NcgError as exc:
            ok, answer = False, f"{type(exc).__name__}: {exc}"
        times_ms.append((time.perf_counter() - began[-1]) * 1e3)
        probe()
        answers.append(answer)
        if not ok:
            failures.append(index)
    probe(2)
    layers = None
    if tracer is not None:
        tracer.uninstall()
        after = _minimalize_info(scalars)
        tracer.counters["minimalize_hits"] = after[0] - cache[0]
        tracer.counters["minimalize_calls"] = after[1] - cache[1]
        layers = tracer.snapshot()

    digest = hashlib.sha256()
    for index, instance, answer in zip(range(lo, hi), instances, answers):
        doc = {"failed": str(answer)} if index in failures \
            else spec.canonical(instance, answer)
        digest.update(json.dumps(doc, sort_keys=True).encode() + b"\n")

    print(json.dumps({
        "import_s": t_import - t0,
        "generate_s": t_generate - t_import,
        "warm_s": t_warm - t_generate,
        "setup_s": t_warm - t0,
        "instance_start": began,
        "instance_ms": times_ms,
        "probes": probes,
        "failed": failures,
        "digest": digest.hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "ncg_budget": ncgdesk.get_budget(),
        "layers": layers,
    }))


if __name__ == "__main__":
    main(sys.argv[1:])
