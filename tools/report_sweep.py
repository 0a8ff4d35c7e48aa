"""Run a fixed list of CLI command lines in one process and digest what they
print, to show that a change leaves every report byte as it was.

Each line runs through `twistcap.cli.main` with stdout and stderr captured;
a line that argparse refuses counts with its exit code 2 and its usage
message.  The lines are:
- both corpus-cli passes, `corpus_argv_list(0)` and `corpus_argv_list(1)`
  of perfbench/workloads.py;
- `validate` of every built-in complex, and `orientation`,
  `fundamental-class`, `lemma1`, `lemma2` and `phi-check` of every
  built-in over Z, Z/2 and Z/3;
- `diagram6` of every configuration and `check-mv` of every built-in
  cover, each with the constant, orientation and random-flat systems;
- the first 60 of the lines above again, with `--format plain`;
- `corpus-all --seed 3`;
- a few input and usage errors, each exit 2.

It prints the number of lines and one sha256 over the (argv, exit code,
stdout, stderr) of every line; with --each, first one line per command
line, its own digest, its exit code and the line, for diffing the output
of two checkouts.  Usage lines are wrapped at 80 columns whatever the
terminal.

Run from the root of a checkout (stdlib only):
    python3 tools/report_sweep.py [--each]
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from twistcap.cli import main  # noqa: E402
from twistcap.complexes import BUILTIN_NAMES  # noqa: E402
from twistcap.mv import NAMED_COVERS, diagram6_names  # noqa: E402
from workloads import corpus_argv_list  # noqa: E402

RINGS = ("Z", "Z/2", "Z/3")
SYSTEMS = ("constant", "orientation", "random-flat")
COVER_CHECKS = ("orientation", "fundamental-class", "lemma1", "lemma2",
                "phi-check")
PLAIN = 60
ERRORS = (
    ["verify-duality", "--complex", "nope"],
    ["verify-duality", "--complex", "rp2", "--system", "constant:1:2"],
    ["cap-identity", "--complex", "torus", "--trials", "0"],
    ["check-mv", "--complex", "circle", "--cover", "cylinders"],
    ["diagram6", "--config", "nope"],
    ["corpus-all", "--trials", "x"],
)


def command_lines():
    lines = [list(argv) for seed in (0, 1) for argv in corpus_argv_list(seed)]
    lines += [["validate", "--complex", name] for name in BUILTIN_NAMES]
    lines += [[command, "--complex", name, "--ring", ring]
              for name in BUILTIN_NAMES for ring in RINGS
              for command in COVER_CHECKS]
    lines += [["diagram6", "--config", config, "--system", system]
              for config in diagram6_names() for system in SYSTEMS]
    lines += [["check-mv", "--complex", name, "--cover", cover, "--system",
               system] for name, cover in NAMED_COVERS for system in SYSTEMS]
    lines += [argv + ["--format", "plain"] for argv in lines[:PLAIN]]
    lines.append(["corpus-all", "--seed", "3"])
    return lines + [list(argv) for argv in ERRORS]


def run(argv):
    """(exit code, stdout, stderr) of one command line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the command line
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def record(argv, code, out, err) -> bytes:
    return "\0".join([" ".join(argv), str(code), out, err, ""]).encode()


def main_sweep(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--each", action="store_true",
                   help="print one digest per command line too")
    args = p.parse_args(argv)
    os.environ["COLUMNS"] = "80"
    total = hashlib.sha256()
    lines = command_lines()
    for line in lines:
        code, out, err = run(list(line))
        data = record(line, code, out, err)
        total.update(data)
        if args.each:
            print(hashlib.sha256(data).hexdigest()[:16], code, " ".join(line))
    print(f"lines\t{len(lines)}")
    print(f"sha256\t{total.hexdigest()}")


if __name__ == "__main__":
    main_sweep()
