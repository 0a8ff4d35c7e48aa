"""Batch front door: load complexes and systems, run checks, emit reports.

Every run is deterministic given its options and seed: reports carry a
self-describing header with the artifact version, ring, and input digests,
and never include timestamps.  Exit codes: 0 when all requested checks pass,
1 on a check failure (with a machine-readable FAIL line in the body), 2 on
usage or input-format errors.

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


def _resolve_system(spec: str, cx, ring, seed: int):
    parts = spec.split(":")
    name = parts[0]
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


class Report:
    def __init__(self, args, command, **meta):
        self.fmt = args.format
        self.lines = [f"# twistcap {VERSION}"]
        fields = " ".join(f"{k}={v}" for k, v in meta.items())
        self.lines.append(f"# command={command} {fields}")
        self.failed = False

    def row(self, *cells):
        sep = "\t" if self.fmt == "tsv" else "  "
        self.lines.append(sep.join(str(c) for c in cells))

    def check(self, label, ok, detail=""):
        self.row(label, "ok" if ok else "FAIL", detail)
        if not ok:
            self.failed = True

    def block(self, tsv):
        """Append a tab-separated block, spaced like `row` in plain format."""
        if self.fmt != "tsv":
            tsv = tsv.replace("\t", "  ")
        self.lines.extend(tsv.rstrip("\n").split("\n"))

    def finish(self) -> int:
        self.lines.append(f"# result={'fail' if self.failed else 'pass'}")
        print("\n".join(self.lines))
        return 1 if self.failed else 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def _add_common(p, system=True):
    p.add_argument("--complex", required=True,
                   help="corpus name (%s) or a complex file" %
                   ", ".join(BUILTIN_NAMES))
    if system:
        p.add_argument("--system", default="constant",
                       help="constant[:rank] | orientation | "
                            "random-flat[:seed[:rank]] | file path")
    p.add_argument("--ring", default="Z", help="Z | Q | Z/<m>")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("tsv", "plain"), default="tsv")


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

    p = sub.add_parser("validate", help="closed-pseudomanifold report")
    _add_common(p, system=False)

    p = sub.add_parser("orientation", help="orientability and cover census")
    _add_common(p, system=False)

    p = sub.add_parser("fundamental-class",
                       help="both constructions and their agreement")
    _add_common(p, system=False)

    p = sub.add_parser("lemma1", help="deck map reverses the cover orientation")
    _add_common(p, system=False)

    p = sub.add_parser("lemma2", help="pushforward of the cover class vanishes")
    _add_common(p, system=False)

    p = sub.add_parser("phi-check",
                       help="splitting sequences and the identification phi")
    _add_common(p, system=False)

    p = sub.add_parser("cap-identity", help="random cap boundary identities")
    _add_common(p)
    p.add_argument("--trials", type=_positive_int, default=100)

    p = sub.add_parser("verify-duality", help="duality verdict per degree")
    _add_common(p)

    p = sub.add_parser("check-mv", help="Mayer-Vietoris exactness + splitting")
    _add_common(p)
    p.add_argument("--cover", required=True,
                   help="hemispheres (octahedron) | cylinders (torus, klein)")

    p = sub.add_parser("diagram6", help="cap-compatibility diagram blocks")
    p.add_argument("--config", required=True, choices=diagram6_names())
    p.add_argument("--system", default="constant")
    p.add_argument("--ring", default="Z")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("tsv", "plain"), default="tsv")

    p = sub.add_parser("corpus-all", help="the full acceptance battery")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--format", choices=("tsv", "plain"), default="tsv")

    return parser


def _cmd_validate(args):
    cx, name, digest = _resolve_complex(args.complex)
    rep = Report(args, "validate", complex=name, complex_digest=digest)
    r = validate(cx)
    rep.row("dimension", r.dimension)
    rep.row("f_vector", ",".join(str(x) for x in cx.f_vector()))
    rep.row("euler_characteristic", r.euler_characteristic)
    rep.check("is_pure", r.is_pure)
    rep.check("each_ridge_in_two_facets", r.each_ridge_in_two_facets)
    rep.check("dual_graph_connected", r.dual_graph_connected)
    rep.check("links_validated", r.links_validated)
    rep.check("closed_pseudomanifold", r.closed_pseudomanifold)
    return rep.finish()


def _cmd_orientation(args):
    cx, name, digest = _resolve_complex(args.complex)
    ring = parse_ring(args.ring)
    rep = Report(args, "orientation", complex=name, complex_digest=digest,
                 ring=ring)
    omega = orientation_system(cx, ring)
    trivial, _ = is_trivializable(omega)
    cover = build_double_cover(cx, omega)
    comps = facet_components(cover.total)
    rep.row("orientable", trivial)
    rep.row("cover_components", comps)
    rep.row("cover_euler_characteristic", cover.total.euler_characteristic())
    rep.check("census_agreement", (comps == 2) == trivial,
              "cover disconnected iff orientation system trivializable")
    return rep.finish()


def _cmd_rows(driver, args):
    """Print the rows of the battery's `driver` on one complex over one
    ring: a row whose second cell is a bool is a check, any other row is
    printed as it is."""
    cx, name, digest = _resolve_complex(args.complex)
    ring = parse_ring(args.ring)
    rep = Report(args, args.command, complex=name, complex_digest=digest,
                 ring=ring)
    for row in driver(cx, ring):
        if isinstance(row[1], bool):
            rep.check(*row)
        else:
            rep.row(*row)
    return rep.finish()


def _cmd_cap_identity(args):
    cx, name, digest = _resolve_complex(args.complex)
    ring = parse_ring(args.ring)
    system, syslabel = _resolve_system(args.system, cx, ring, args.seed)
    rep = Report(args, "cap-identity", complex=name, complex_digest=digest,
                 system=syslabel, ring=ring, seed=args.seed,
                 trials=args.trials)
    failures = len(acceptance.cap_identity_failures(
        cx, system, random.Random(args.seed), args.trials))
    rep.check("cap_boundary_identity", failures == 0,
              f"trials={args.trials} failures={failures}")
    return rep.finish()


def _cmd_verify_duality(args):
    cx, name, digest = _resolve_complex(args.complex)
    ring = parse_ring(args.ring)
    system, syslabel = _resolve_system(args.system, cx, ring, args.seed)
    rep = Report(args, "verify-duality", complex=name, complex_digest=digest,
                 system=syslabel, ring=ring, seed=args.seed)
    report = verify_duality(cx, system, ring)
    rep.block(report.to_tsv())
    if not report.all_verified:
        rep.failed = True
        bad = [r.degree for r in report.rows if not r.verdict]
        rep.row("FAIL", "duality", f"degrees {bad} not isomorphisms")
    return rep.finish()


def _cmd_check_mv(args):
    if args.complex not in dict(NAMED_COVERS):
        raise UnknownName(f"no built-in cover for complex {args.complex!r}")
    cx, pair = named_cover(args.complex, args.cover)
    ring = parse_ring(args.ring)
    system, syslabel = _resolve_system(args.system, cx, ring, args.seed)
    rep = Report(args, "check-mv", complex=args.complex, cover=args.cover,
                 system=syslabel, ring=ring)
    for row in acceptance.mv_rows(pair, system):
        rep.check(*row)
    if rep.failed:
        rep.row("FAIL", "mayer-vietoris", "see rows above")
    return rep.finish()


def _cmd_diagram6(args):
    cfg = named_diagram6(args.config)
    cx = cfg["complex"]
    ring = parse_ring(args.ring)
    system, syslabel = _resolve_system(args.system, cx, ring, args.seed)
    rep = Report(args, "diagram6", config=args.config, system=syslabel,
                 ring=ring, seed=args.seed)
    report = diagram6_check(cx, cfg["U"], cfg["V"], cfg["K"], cfg["L"],
                            system, ring, resample_seed=args.seed or None)
    rep.block(report.to_tsv())
    if not report.all_verified:
        rep.failed = True
        rep.row("FAIL", "diagram6", "a block failed to commute")
    return rep.finish()


def _cmd_corpus_all(args):
    rep = Report(args, "corpus-all", seed=args.seed, trials=args.trials)
    for result in acceptance.run_all(seed=args.seed, trials=args.trials):
        rep.check(result.name, result.passed, result.detail)
    return rep.finish()


_HANDLERS = {
    "validate": _cmd_validate,
    "orientation": _cmd_orientation,
    "fundamental-class": functools.partial(
        _cmd_rows, acceptance.fundamental_class_rows),
    "lemma1": functools.partial(_cmd_rows, acceptance.lemma1_rows),
    "lemma2": functools.partial(_cmd_rows, acceptance.lemma2_rows),
    "phi-check": functools.partial(_cmd_rows, acceptance.phi_rows),
    "cap-identity": _cmd_cap_identity,
    "verify-duality": _cmd_verify_duality,
    "check-mv": _cmd_check_mv,
    "diagram6": _cmd_diagram6,
    "corpus-all": _cmd_corpus_all,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except CheckFailed as exc:
        sep = "\t" if args.format == "tsv" else "  "
        print(sep.join(("FAIL", type(exc).__name__, str(exc))))
        return 1
    except TwistcapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
