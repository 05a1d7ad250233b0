"""How much work a run does and how it is split across worker processes.

Stdlib only: run.py imports this without importing ncgdesk.

A run's work is fixed by (workload, seconds): the same arguments always
give the same instances, so answer digests and traced counts repeat
exactly.  The instance rates below were measured at the commit that
introduced the benchmark (Python 3.11, 2 CPUs), so the timed phase of a
run lasts about ``seconds`` there; faster code does the same work sooner.
"""

# The fixed cyclic_build list: (block dims, maximal degree).  Each degree
# n = 0..maximal is one instance, run in order in one process per algebra.
CYCLIC_ALGEBRAS = (((2,), 6), ((3,), 3), ((1, 2), 4), ((2, 2), 3),
                   ((1, 1, 1), 6))
# Seconds of run time that one pass over CYCLIC_ALGEBRAS stands for.
CYCLIC_PASS_SECONDS = 6

# workload -> (instances per second at the introducing commit, length of
# the instance-structure schedule; counts are rounded to whole schedules)
SIZING = {
    "spectral": (16.0, 3),
    "chern_query": (13.5, 8),
    "lefschetz": (14.0, 18),
}

# Worker processes per run outside cyclic_build.  Each is a fresh
# interpreter with its own set-up, so setup_s is a median over them.
CHILDREN = 3

WORKLOADS = ("spectral", "cyclic_build", "chern_query", "lefschetz")


def slices(workload: str, seconds: int):
    """Half-open instance index ranges, one per worker process.

    cyclic_build gives every algebra its own process so that each build
    starts from empty caches.
    """
    if workload == "cyclic_build":
        bounds = [0]
        for _ in range(max(1, seconds // CYCLIC_PASS_SECONDS)):
            for _, degree in CYCLIC_ALGEBRAS:
                bounds.append(bounds[-1] + degree + 1)
        return list(zip(bounds, bounds[1:]))
    rate, schedule = SIZING[workload]
    n = max(1, round(seconds * rate / schedule)) * schedule
    bounds = [n * k // CHILDREN for k in range(CHILDREN + 1)]
    return [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
