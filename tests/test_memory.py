"""Memory stays bounded however many checks one process runs: a fixed list
of CLI commands, repeated in-process, keeps its tracemalloc peak flat.
tracemalloc traces this test's own allocations only.

Derived objects are memoized on their source and form reference cycles with
it, so they are freed by the cycle collector; each run starts after a full
collection, and its peak measures what the earlier runs retain rather than
when the collector last ran.  The argument parser is built once per process
and leaves no cycles behind per run."""

import contextlib
import gc
import io
import tracemalloc

from twistcap.cli import build_parser, main

COMMANDS = (
    ("verify-duality", "--complex", "klein", "--ring", "Z"),
    ("verify-duality", "--complex", "rp2", "--system", "random-flat:1:2",
     "--ring", "Z/3"),
    ("check-mv", "--complex", "torus", "--cover", "cylinders", "--ring", "Z/3"),
    ("cap-identity", "--complex", "torus", "--system", "orientation",
     "--trials", "10"),
    ("cap-identity", "--complex", "klein", "--system", "random-flat:2:2",
     "--ring", "Z/3", "--trials", "3"),
    ("diagram6", "--config", "sphere", "--system", "random-flat:3:2"),
    ("fundamental-class", "--complex", "klein", "--ring", "Z/3"),
    ("lemma2", "--complex", "rp2"),
    ("phi-check", "--complex", "klein", "--ring", "Z/3"),
)


def peak_of_one_run():
    gc.collect()
    tracemalloc.reset_peak()
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [main(list(argv)) for argv in COMMANDS]
    assert codes == [0] * len(COMMANDS)
    return tracemalloc.get_traced_memory()[1]


def test_repeated_cli_runs_keep_peak_memory_flat():
    tracemalloc.start()
    try:
        peaks = [peak_of_one_run() for _ in range(3)]
    finally:
        tracemalloc.stop()
    assert peaks[2] <= 1.1 * peaks[0], peaks


def test_cli_runs_leave_no_argparse_garbage():
    build_parser()  # built once per process; building it leaves formatters
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for _ in range(2):
                assert main(["validate", "--complex", "rp2"]) == 0
        gc.collect()
        leaked = [type(o).__name__ for o in gc.garbage
                  if type(o).__module__ == "argparse"]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert leaked == []
