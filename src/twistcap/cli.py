"""Batch front door: load complexes and systems, run checks, emit reports.

Every run is deterministic given its options and seed: reports carry a
self-describing header with the artifact version, ring, and input digests,
and never include timestamps.  Exit codes: 0 when all requested checks pass,
1 on a check failure (a FAIL row in a report with its header and result
line), 2 on usage or input-format errors (a message on stderr, nothing on
stdout).

A subcommand's handler is a generator: it resolves its inputs, yields its
header fields as a dict, then yields its rows of cells.  `render` is the one
place a row becomes a line and the one place the exit code is decided: a
`CheckFailed` raised while the rows are computed becomes a FAIL row of the
same report, and nothing is printed until the result line is built, so an
input error raised mid-rows still leaves stdout empty.  The checks hand the
CLI rows: the battery's row drivers, the `table` of a duality or diagram
(6) report, and the battery's own results.

`_COMMANDS` is the one place a subcommand is declared: its help, its options
(each declared once, in `_OPTIONS`) and its handler.  The parser is built
from it and `main` dispatches through it.

A process that runs many commands builds each built-in complex, cover and
diagram configuration once, and what is derived from them is memoized on
them; every check a report prints is computed again on every run.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import os
import random
import sys

from . import acceptance
from .cap import verify_duality
from .complexes import (BUILTIN_NAMES, dumps_complex, facet_components,
                        load_complex, memo, named_complex, validate)
from .covers import build_double_cover
from .errors import CheckFailed, TwistcapError, UnknownName
from .localsystems import (MAX_RANK, constant_system, dumps_local_system,
                           is_trivializable, load_local_system,
                           orientation_system, random_flat_system)
from .mv import (NAMED_COVERS, diagram6_check, diagram6_names, named_cover,
                 named_diagram6)
from .rings import parse_ring

VERSION = "0.1.0"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _complex_digest(cx) -> str:
    """The digest of a complex's serialization, memoized on the complex, so
    a built-in complex is serialized once per process."""
    return memo(cx, "digest", lambda: _digest(dumps_complex(cx)))


def _resolve_complex(spec: str):
    if spec in BUILTIN_NAMES:
        cx = named_complex(spec)
        return cx, spec, _complex_digest(cx)
    if os.path.exists(spec):
        cx = load_complex(spec)
        return cx, os.path.basename(spec), _complex_digest(cx)
    raise UnknownName(f"unknown complex {spec!r} (not a builtin, not a file)")


def _spec_int(spec: str, parts, i: int, default: int, max_rank=None) -> int:
    """Field i of a colon-separated system spec, as an integer; a rank field
    is refused above max_rank."""
    if len(parts) <= i:
        return default
    try:
        value = int(parts[i])
    except ValueError:
        raise UnknownName(
            f"unknown system {spec!r}: {parts[i]!r} is not an integer")
    if max_rank is not None and value > max_rank:
        raise TwistcapError(
            f"system {spec!r}: rank {value} exceeds the maximum {max_rank}")
    return value


# the fields each system kind takes after its name
_SYSTEM_FIELDS = {"orientation": (), "constant": ("RANK",),
                  "random-flat": ("SEED", "RANK")}


def _resolve_system(spec: str, cx, ring, seed: int):
    parts = spec.split(":")
    name = parts[0]
    fields = _SYSTEM_FIELDS.get(name)
    if fields is not None and len(parts) > 1 + len(fields):
        raise UnknownName(f"unknown system {spec!r}: the form is "
                          + ":".join((name,) + fields))
    if name == "constant":
        rank = _spec_int(spec, parts, 1, 1, MAX_RANK)
        return constant_system(cx, ring, rank), spec
    if name == "orientation":
        return orientation_system(cx, ring), spec
    if name == "random-flat":
        sseed = _spec_int(spec, parts, 1, seed)
        rank = _spec_int(spec, parts, 2, 2, MAX_RANK)
        return random_flat_system(cx, ring, rank, sseed), f"random-flat:{sseed}:{rank}"
    if os.path.exists(spec):
        system = load_local_system(spec, cx)
        if system.ring != ring:
            raise TwistcapError(
                f"system file ring {system.ring} does not match --ring {ring}")
        return system, _digest(dumps_local_system(system))
    raise UnknownName(f"unknown system {spec!r}")


# the cell separator of each report format
_SEPARATORS = {"tsv": "\t", "plain": "  "}


def render(args, report) -> int:
    """Print `report`, a handler's header fields and then its rows, once
    every row is computed; return the exit code.  A bool second cell prints
    as ok or FAIL, every other cell as its str; a `CheckFailed` raised while
    the rows are computed is the last row, FAIL with its name and message;
    the report fails exactly when a printed row has a FAIL cell."""
    sep = _SEPARATORS[args.format]
    fields = " ".join(f"{k}={v}" for k, v in next(report).items())
    lines = [f"# twistcap {VERSION}", f"# command={args.command} {fields}"]
    failed = False
    try:
        for row in report:
            cells = [str(cell) for cell in row]
            if isinstance(row[1], bool):
                cells[1] = "ok" if row[1] else "FAIL"
            failed = failed or "FAIL" in cells
            lines.append(sep.join(cells))
    except CheckFailed as exc:
        lines.append(sep.join(("FAIL", type(exc).__name__, str(exc))))
        failed = True
    lines.append(f"# result={'fail' if failed else 'pass'}")
    print("\n".join(lines))
    return int(failed)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


# every option of every subcommand, each declared once: its argparse keywords
_OPTIONS = {
    "--complex": dict(required=True, help="corpus name (%s) or a complex file"
                      % ", ".join(BUILTIN_NAMES)),
    "--config": dict(required=True, choices=diagram6_names()),
    "--system": dict(default="constant", help="constant[:rank] | orientation "
                     "| random-flat[:seed[:rank]] | file path"),
    "--ring": dict(default="Z", help="Z | Q | Z/<m>"),
    "--seed": dict(type=int, default=0),
    "--format": dict(choices=tuple(_SEPARATORS), default="tsv"),
    "--trials": dict(type=_positive_int, default=100),
    "--cover": dict(required=True, help="hemispheres (octahedron) | "
                    "cylinders (torus, klein)"),
}


def _cmd_validate(args):
    cx, name, digest = _resolve_complex(args.complex)
    yield dict(complex=name, complex_digest=digest)
    r = validate(cx)
    yield "dimension", r.dimension
    yield "f_vector", ",".join(str(x) for x in cx.f_vector())
    yield "euler_characteristic", r.euler_characteristic
    for label in ("is_pure", "each_ridge_in_two_facets",
                  "dual_graph_connected", "links_validated",
                  "closed_pseudomanifold"):
        yield label, getattr(r, label), ""


def _cmd_orientation(args):
    cx, name, digest = _resolve_complex(args.complex)
    ring = parse_ring(args.ring)
    yield dict(complex=name, complex_digest=digest, ring=ring)
    omega = orientation_system(cx, ring)
    trivial, _ = is_trivializable(omega)
    cover = build_double_cover(cx, omega)
    comps = facet_components(cover.total)
    # orientable is a verdict, not a check: printed True or False
    yield "orientable", str(trivial)
    yield "cover_components", comps
    yield "cover_euler_characteristic", cover.total.euler_characteristic()
    yield ("census_agreement", (comps == 2) == trivial,
           "cover disconnected iff orientation system trivializable")


def _cmd_rows(driver, args):
    """The rows of the battery's `driver` on one complex over one ring."""
    cx, name, digest = _resolve_complex(args.complex)
    ring = parse_ring(args.ring)
    yield dict(complex=name, complex_digest=digest, ring=ring)
    yield from driver(cx, ring)


def _cmd_cap_identity(args):
    cx, name, digest = _resolve_complex(args.complex)
    ring = parse_ring(args.ring)
    system, syslabel = _resolve_system(args.system, cx, ring, args.seed)
    yield dict(complex=name, complex_digest=digest, system=syslabel,
               ring=ring, seed=args.seed, trials=args.trials)
    failures = len(acceptance.cap_identity_failures(
        cx, system, random.Random(args.seed), args.trials))
    yield ("cap_boundary_identity", failures == 0,
           f"trials={args.trials} failures={failures}")


def _cmd_verify_duality(args):
    cx, name, digest = _resolve_complex(args.complex)
    ring = parse_ring(args.ring)
    system, syslabel = _resolve_system(args.system, cx, ring, args.seed)
    yield dict(complex=name, complex_digest=digest, system=syslabel,
               ring=ring, seed=args.seed)
    yield from verify_duality(cx, system, ring).table()


def _cmd_check_mv(args):
    if args.complex not in dict(NAMED_COVERS):
        raise UnknownName(f"no built-in cover for complex {args.complex!r}")
    cx, pair = named_cover(args.complex, args.cover)
    ring = parse_ring(args.ring)
    system, syslabel = _resolve_system(args.system, cx, ring, args.seed)
    yield dict(complex=args.complex, cover=args.cover, system=syslabel,
               ring=ring)
    yield from acceptance.mv_rows(pair, system)


def _cmd_diagram6(args):
    cfg = named_diagram6(args.config)
    cx = cfg["complex"]
    ring = parse_ring(args.ring)
    system, syslabel = _resolve_system(args.system, cx, ring, args.seed)
    yield dict(config=args.config, system=syslabel, ring=ring, seed=args.seed)
    yield from diagram6_check(
        cx, cfg["U"], cfg["V"], cfg["K"], cfg["L"], system, ring,
        resample_seed=args.seed or None).table()


def _cmd_corpus_all(args):
    yield dict(seed=args.seed, trials=args.trials)
    yield from acceptance.run_all(seed=args.seed, trials=args.trials)


# every subcommand, declared once: its help, the options its handler reads,
# in order (argparse refuses any other), and its handler, a generator of the
# report's header fields and then its rows
_UNTWISTED = ("--complex", "--ring", "--format")
_TWISTED = ("--complex", "--system", "--ring", "--seed", "--format")
_COMMANDS = {
    "validate": ("closed-pseudomanifold report", ("--complex", "--format"),
                 _cmd_validate),
    "orientation": ("orientability and cover census", _UNTWISTED,
                    _cmd_orientation),
    "fundamental-class": ("both constructions and their agreement",
                          _UNTWISTED, functools.partial(
                              _cmd_rows, acceptance.fundamental_class_rows)),
    "lemma1": ("deck map reverses the cover orientation", _UNTWISTED,
               functools.partial(_cmd_rows, acceptance.lemma1_rows)),
    "lemma2": ("pushforward of the cover class vanishes", _UNTWISTED,
               functools.partial(_cmd_rows, acceptance.lemma2_rows)),
    "phi-check": ("splitting sequences and the identification phi",
                  _UNTWISTED, functools.partial(_cmd_rows,
                                                acceptance.phi_rows)),
    "cap-identity": ("random cap boundary identities",
                     _TWISTED + ("--trials",), _cmd_cap_identity),
    "verify-duality": ("duality verdict per degree", _TWISTED,
                       _cmd_verify_duality),
    "check-mv": ("Mayer-Vietoris exactness + splitting",
                 _TWISTED + ("--cover",), _cmd_check_mv),
    "diagram6": ("cap-compatibility diagram blocks",
                 ("--config",) + _TWISTED[1:], _cmd_diagram6),
    "corpus-all": ("the full acceptance battery",
                   ("--seed", "--trials", "--format"), _cmd_corpus_all),
}


@functools.cache
def build_parser():
    """The argument parser, built once per process: parse_args returns a
    fresh namespace on every call, and a parser per run would leave its
    thousands of objects in reference cycles for the collector."""
    parser = argparse.ArgumentParser(
        prog="twistcap",
        description="Twisted simplicial homology, orientation double covers, "
                    "and machine-checked duality.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, options, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return render(args, _COMMANDS[args.command][2](args))
    except TwistcapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
