"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
Every measurement happens in a fresh single-threaded worker process
(``worker.py``), one client running checks back to back with no warm-up,
because every real CLI process and every ``corpus-all`` run starts cold.

``--trace 0`` starts the worker ``SETUP_PROBES`` times without checks and
once more for the whole passes ``--seconds`` asks for (see ``worker.py``),
and reports the end-to-end metrics; ``setup_s`` is the median time from
spawning a worker to its first check.
``--trace 1`` runs a fixed number of passes of the workload untraced, then
the same passes with the tracer installed, requires identical outcomes, and
reports the per-layer metrics.  The last stdout line is the JSON result;
lines before it, starting with ``#``, say what was measured.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracing import layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("grid", "corpus-cli")
SETUP_PROBES = 5
# Traced runs measure whole passes, so their counts repeat exactly for a
# seed; corpus-cli needs two passes to show what the second one reuses.
TRACE_PASSES = {"grid": 1, "corpus-cli": 2}
DEADLINE_S = 170


class BenchError(Exception):
    pass


def spawn(args, deadline):
    """Run a worker; return (seconds to its READY line, its JSON result)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker {' '.join(args)} ran past the deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or first.strip() != "READY":
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}: "
                         f"{err.strip()[-2000:]}")
    lines = out.strip().splitlines()
    return ready, (json.loads(lines[-1]) if lines else None)


def tail(latencies):
    """Latency at the highest percentile with at least 10 checks beyond it,
    with that percentile; the maximum when there are fewer than 11 checks."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(workload, seed, seconds, deadline):
    base = ["--workload", workload, "--seed", str(seed)]
    setup = [spawn(base + ["--setup-only"], deadline)[0]
             for _ in range(SETUP_PROBES)]
    ready, result = spawn(base + ["--seconds", str(seconds)], deadline)
    setup.append(ready)
    lat = result["latencies"]
    failed = len(result["failures"])
    tail_s, tail_pct = tail(lat)
    print(f"# {workload} seed={seed}: {len(lat)} checks in "
          f"{result['elapsed_s']:.2f} s, {failed} failed; check_tail_s is "
          f"p{tail_pct:.1f} of {len(lat)} checks; setup samples "
          f"{', '.join(f'{s:.3f}' for s in setup)} s")
    metrics = {
        "checks_per_s": (len(lat) / result["elapsed_s"], "1/s"),
        "check_p50_s": (statistics.median(lat), "s"),
        "check_tail_s": (tail_s, "s"),
        "peak_rss_mb": (result["maxrss_kb"] / 1024.0, "MB"),
        "pass_ratio": ((len(lat) - failed) / len(lat), "ratio"),
        "setup_s": (statistics.median(setup), "s"),
    }
    return result["failures"], len(lat), failed, metrics


def traced(workload, seed, deadline):
    base = ["--workload", workload, "--seed", str(seed),
            "--passes", str(TRACE_PASSES[workload])]
    _, plain = spawn(base, deadline)
    _, traced_run = spawn(base + ["--trace"], deadline)
    failures = plain["failures"] + traced_run["failures"]
    differ = sum(a != b for a, b in zip(plain["digests"], traced_run["digests"]))
    differ += abs(len(plain["digests"]) - len(traced_run["digests"]))
    if differ:
        failures.append(f"{differ} traced outcomes differ from the untraced run")
    summary = traced_run["trace"]
    print(f"# {workload} seed={seed} traced: {len(plain['digests'])} checks "
          f"({TRACE_PASSES[workload]} passes), {plain['elapsed_s']:.2f} s "
          f"untraced, {traced_run['elapsed_s']:.2f} s traced, "
          f"{summary['spans']} spans, {differ} outcomes differ")
    metrics = layer_metrics(summary, plain["elapsed_s"], traced_run["elapsed_s"])
    attempted = len(plain["digests"]) + len(traced_run["digests"])
    failed = len(plain["failures"]) + len(traced_run["failures"]) + differ
    return failures, attempted, failed, metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "twistcap", "__init__.py")):
        print(f"error: no twistcap sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            failures, attempted, failed, metrics = traced(
                args.workload, args.seed, deadline)
        else:
            failures, attempted, failed, metrics = end_to_end(
                args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in failures[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
