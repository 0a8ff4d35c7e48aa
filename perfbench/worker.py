"""One measurement in a fresh process; started by ``run.py``.

    python3 perfbench/worker.py --workload NAME --seed N
        (--seconds S | --passes N) [--trace] [--setup-only]

Imports twistcap from ``src/`` next to this directory, generates the
workload's inputs, prints ``READY`` and then runs whole passes of the
workload's schedule back to back (one client, closed loop, no warm-up).
``--seconds`` asks for ``round(S / PASS_SECONDS)`` passes, about S seconds
at the commit that defined the benchmark, so every run of a workload does
the same work; a run stops starting checks after ``SLOW_FACTOR * S``
seconds so that a much slower program still reports.  The last stdout line
is a JSON object with each check's latency and outcome digest, the failures,
the process's peak RSS and, with ``--trace``, the tracer's summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
SLOW_FACTOR = 3


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    budget = p.add_mutually_exclusive_group()
    budget.add_argument("--seconds", type=float)
    budget.add_argument("--passes", type=int)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()
    if args.seconds is None and args.passes is None and not args.setup_only:
        p.error("give --seconds or --passes")
    out = sys.stdout

    import workloads
    workload = workloads.WORKLOADS[args.workload](args.seed)
    print("READY", file=out, flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    clock = time.perf_counter
    latencies, failures, digests = [], [], []
    start = clock()
    if args.passes is not None:
        passes, limit = args.passes, float("inf")
    else:
        passes = max(1, round(args.seconds / workload.PASS_SECONDS))
        limit = SLOW_FACTOR * args.seconds
    count = passes * len(workload.schedule)
    i = 0
    while i < count and clock() - start < limit:
        if tracer is not None:
            tracer.check_id = i
        t0 = clock()
        try:
            outcome = repr(workload.check(i))
        except Exception as exc:  # noqa: BLE001 - a failed check is data
            outcome = f"{type(exc).__name__}: {exc}"
            failures.append(f"check {i}: {outcome[:300]}")
        latencies.append(clock() - t0)
        digests.append(hashlib.sha256(outcome.encode()).hexdigest()[:16])
        i += 1
    elapsed = clock() - start

    result = {
        "latencies": latencies,
        "failures": failures,
        "digests": digests,
        "elapsed_s": elapsed,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.summary() if tracer is not None else None,
    }
    print(json.dumps(result), file=out, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
