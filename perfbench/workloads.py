"""Seeded inputs and checks of the two benchmark workloads.

A workload is a fixed, repeating schedule of checks: ``grid`` (duality and
Mayer-Vietoris checks on fresh grids) and ``corpus-cli``.  Check ``i`` is a
pure function of the seed and ``i``: the seed picks vertex relabellings, random
flat systems and cap-identity trials, never the mix, so every seed runs the
same kinds of check in the same order and only the labels change.  Each
check calls the public ``twistcap`` API (or ``twistcap.cli.main``), compares
the result with ``expected``, raises on any difference and returns an
outcome tuple that the traced run must reproduce exactly.

``PASS_SECONDS`` is the time one pass of a schedule took at the commit
that defined the benchmark, on a 2-vCPU x86-64 VM with CPython 3.11; it
turns a requested run length into a fixed number of passes.

The library is looked up through the module objects at call time, so a
tracer that rebinds its functions sees every call.
"""

from __future__ import annotations

import contextlib
import io
import random

import twistcap as tc
from twistcap import cli

from expected import (DIMENSION, Mismatch, check_duality_rows,
                      check_mv_report, parse_module, require)

RING_KIND = {"Z": "Z", "Z/3": "field", "Z/10007": "field", "Q": "field"}
RF_RANK = 2


# ---------------------------------------------------------------------------
# grid generators
# ---------------------------------------------------------------------------

def grid_cells(family, n, perm):
    """The two triangles of each cell (x, y) of an n x n grid surface.

    The torus glues both sides straight; the Klein bottle glues (n, y) to
    (0, -y).  Vertex (x, y) is named ``perm[y * n + x]``.
    """
    def vid(x, y):
        if family == "klein" and x >= n:
            x, y = x - n, -y
        return perm[(y % n) * n + (x % n)]

    cells = {}
    for x in range(n):
        for y in range(n):
            a, b = vid(x, y), vid(x + 1, y)
            c, d = vid(x, y + 1), vid(x + 1, y + 1)
            cells[(x, y)] = (tuple(sorted((a, b, d))), tuple(sorted((a, d, c))))
    return cells


def relabelled_grid(family, n, rng):
    perm = list(range(n * n))
    rng.shuffle(perm)
    return grid_cells(family, n, perm)


def grid_input(workload, seed, i, family, n):
    """Check i's relabelled grid cells and system seed."""
    rng = random.Random(f"{workload}:{seed}:{i}")
    return relabelled_grid(family, n, rng), rng.randrange(2 ** 30)


def grid_complex(family, n, cells):
    """Build the complex and check it is the closed surface it should be."""
    cx = tc.SimplicialComplex(n * n, [t for pair in cells.values() for t in pair])
    report = tc.validate(cx)
    if not (report.closed_pseudomanifold and report.links_validated
            and report.euler_characteristic == 0
            and cx.f_vector() == (n * n, 3 * n * n, 2 * n * n)):
        raise Mismatch(f"generated {family} {n}x{n} is not a closed surface "
                       f"with Euler characteristic 0: {report}")
    return cx


def two_bands(cx, n, cells):
    """Columns 0..h and h..n-1,0 of the grid: two annuli meeting in two."""
    h = n // 2
    A = tc.Subcomplex(cx, [t for (x, _), p in cells.items() if x <= h for t in p])
    B = tc.Subcomplex(cx, [t for (x, _), p in cells.items()
                           if x >= h or x == 0 for t in p])
    return tc.CoverPair(cx, A, B)


def make_system(cx, ring, system, seed):
    if system == "constant":
        return tc.constant_system(cx, ring)
    if system == "orientation":
        return tc.orientation_system(cx, ring)
    return tc.random_flat_system(cx, ring, RF_RANK, seed)


def rank_of(system):
    return RF_RANK if system == "random-flat" else 1


# ---------------------------------------------------------------------------
# grid: duality checks
# ---------------------------------------------------------------------------

# (family, n, ring, system), alternating torus and Klein bottle.  Sizes
# 4..7 over Z and Z/3, the five-digit prime at 4..6, Q at 4..5, random-flat
# rank 2 on the small grids.
DUALITY_CASES = (
    ("torus", 7, "Z", "constant"),
    ("klein", 4, "Z", "random-flat"),
    ("torus", 5, "Z/3", "orientation"),
    ("klein", 6, "Z/10007", "constant"),
    ("torus", 4, "Q", "orientation"),
    ("klein", 5, "Z", "constant"),
    ("torus", 4, "Z/3", "random-flat"),
    ("klein", 7, "Z", "orientation"),
    ("torus", 4, "Z/10007", "random-flat"),
    ("klein", 5, "Q", "constant"),
    ("torus", 4, "Z/3", "constant"),
    ("klein", 5, "Z/10007", "orientation"),
    ("torus", 6, "Z", "orientation"),
    ("klein", 4, "Z/3", "constant"),
)


class DualityChecks:
    """verify_duality on freshly relabelled grid tori and Klein bottles."""

    name = "duality"

    def __init__(self, seed):
        self.seed = seed
        self.schedule = list(DUALITY_CASES)
        for i, (family, n, _, _) in enumerate(self.schedule):
            grid_complex(family, n, self.make_input(i)[0])

    def make_input(self, i):
        family, n, _, _ = self.schedule[i % len(self.schedule)]
        return grid_input(self.name, self.seed, i, family, n)

    def check(self, i):
        family, n, ring_name, system = self.schedule[i % len(self.schedule)]
        cells, sys_seed = self.make_input(i)
        cx = grid_complex(family, n, cells)
        ring = tc.parse_ring(ring_name)
        G = make_system(cx, ring, system, sys_seed)
        report = tc.verify_duality(cx, G, ring)
        rows = tuple((r.degree, r.verdict, r.left.normal_form,
                      r.right.normal_form) for r in report.rows)
        check_duality_rows(family, system, rank_of(system),
                           RING_KIND[ring_name], rows)
        return rows


# ---------------------------------------------------------------------------
# grid: Mayer-Vietoris and double-cover checks
# ---------------------------------------------------------------------------

# (family, n, ring, system)
MV_CASES = (
    ("klein", 6, "Z", "orientation"),
    ("torus", 4, "Z", "constant"),
    ("torus", 5, "Z/3", "orientation"),
    ("klein", 4, "Z/10007", "random-flat"),
    ("torus", 4, "Z", "random-flat"),
)
MV_STEPS = ("homology", "cohomology")
COVER_STEP = "cover"


class MvChecks:
    """Mayer-Vietoris and double-cover checks on two-band grid covers.

    Each case builds one relabelled grid, its two-band cover and a system.
    Its checks are the homology sequence; the cohomology sequence with the
    explicit splitting of every basis cochain; and, for the orientation
    system, the orientation double cover with its split sequences and phi.
    """

    name = "mv"

    def __init__(self, seed):
        self.seed = seed
        self.schedule = []
        for case in MV_CASES:
            steps = MV_STEPS + ((COVER_STEP,) if case[3] == "orientation" else ())
            self.schedule += [(case, step) for step in steps]
        self._case = None
        for i, ((family, n, _, _), step) in enumerate(self.schedule):
            if step == MV_STEPS[0]:
                grid_complex(family, n, self.make_input(i)[0])

    def make_input(self, i):
        (family, n, _, _), _ = self.schedule[i % len(self.schedule)]
        return grid_input(self.name, self.seed, i, family, n)

    def check(self, i):
        (family, n, ring_name, system), step = self.schedule[i % len(self.schedule)]
        if step == MV_STEPS[0]:   # the first check of a case builds it
            cells, sys_seed = self.make_input(i)
            cx = grid_complex(family, n, cells)
            ring = tc.parse_ring(ring_name)
            self._case = (cx, two_bands(cx, n, cells), ring,
                          make_system(cx, ring, system, sys_seed))
        cx, pair, ring, G = self._case
        if step == COVER_STEP:
            return self._cover(family, cx, ring, G)
        report = (tc.mv_homology if step == "homology" else tc.mv_cohomology)(pair, G)
        modules = tuple(m.normal_form for m in report.modules)
        check_mv_report(family, system, RING_KIND[ring_name], report.kind,
                        report.exactness, modules)
        if step == "homology":
            return modules
        return modules, self._splittings(pair, G, ring)

    @staticmethod
    def _cover(family, cx, ring, omega):
        cover = tc.build_double_cover(cx, omega)
        total = cover.total
        require(total.f_vector() == tuple(2 * f for f in cx.f_vector()),
                "cover f-vector is not twice the base")
        connected = tc.validate(total).dual_graph_connected
        require(connected == (family == "klein"),
                "orientation cover connected iff non-orientable")
        verdicts = tc.check_split_exactness(tc.split_maps(cover, ring))
        flat = tuple((k, v["seq1"], v["seq2"]) for k, v in sorted(verdicts.items()))
        require(all(a and b for _, a, b in flat), f"split sequences {flat}")
        phi = tc.phi_identify(cover, ring)
        require(phi.boundary_commutes and phi.degreewise_iso, "phi failed")
        return total.f_vector(), connected, flat, sorted(phi.matrices)

    @staticmethod
    def _splittings(pair, G, ring):
        """mv_splitting on every basis cochain of the intersection, as
        ``check-mv`` does, re-checked here.

        With no relative part, cochain coordinates are the sorted simplices
        of each band, one fiber block per simplex; beta - gamma must restrict
        to alpha on every simplex of the intersection.
        """
        r = G.rank
        out = []
        for k in range(pair.X.dimension + 1):
            inter = sorted(pair.AB.faces(k))
            left = {s: p for p, s in enumerate(sorted(pair.A.faces(k)))}
            right = {s: p for p, s in enumerate(sorted(pair.B.faces(k)))}
            length = len(inter) * r
            for j in range(length):
                alpha = tuple(ring.one if i == j else ring.zero
                              for i in range(length))
                beta, gamma = tc.mv_splitting(pair, G, k, alpha)
                for p, s in enumerate(inter):
                    a, b = left[s] * r, right[s] * r
                    for f in range(r):
                        require(ring.normalize(beta[a + f] - gamma[b + f])
                                == alpha[p * r + f],
                                f"splitting misses alpha at {s}")
            out.append(length)
        return tuple(out)


class Grid:
    """The duality and Mayer-Vietoris checks, interleaved case by case.

    Every input is a fresh relabelled grid, so caches keyed by complex never
    hit across cases: this workload shows Smith-form, modulus-cost and
    factorization-size changes, and little of caching.
    """

    name = "grid"
    PASS_SECONDS = 18.5

    def __init__(self, seed):
        self.parts = (DualityChecks(seed), MvChecks(seed))
        duality, mv = self.parts
        mv_cases = []
        for j, (case, _) in enumerate(mv.schedule):
            if j == 0 or case != mv.schedule[j - 1][0]:
                mv_cases.append([])
            mv_cases[-1].append((1, j))
        self.schedule = []
        for j in range(max(len(duality.schedule), len(mv_cases))):
            if j < len(duality.schedule):
                self.schedule.append((0, j))
            if j < len(mv_cases):
                self.schedule += mv_cases[j]

    def check(self, i):
        k, j = self.schedule[i % len(self.schedule)]
        part = self.parts[k]
        return part.check(i // len(self.schedule) * len(part.schedule) + j)


# ---------------------------------------------------------------------------
# corpus-cli
# ---------------------------------------------------------------------------

CORPUS = ("circle", "sphere2", "torus", "rp2", "klein", "rp3", "sphere3")
CLI_RINGS = ("Z", "Z/3", "Q")
CLI_SYSTEMS = ("constant", "orientation", "random-flat")
COVERS = (("octahedron", "hemispheres"), ("torus", "cylinders"),
          ("klein", "cylinders"))
DIAGRAMS = ("torus", "sphere", "klein")
CAP_TRIALS = 3

# The workload is many small commands on repeating inputs.  A combination is
# left out when one run of it took more than 0.25 s at the commit that
# defined this benchmark (0.27-8.6 s, against about 0.03 s for a typical
# command); the large cases belong to the grid workloads.
HEAVY = {
    ("verify-duality", "rp3", r, s) for r in CLI_RINGS for s in CLI_SYSTEMS
} | {
    ("verify-duality", c, "Q", "random-flat") for c in ("torus", "klein")
} | {
    ("phi-check", "rp3", r) for r in CLI_RINGS
} | {
    ("phi-check", c, "Q") for c in ("torus", "klein")
} | {
    ("lemma2", "rp3", "Q"),
} | {
    ("check-mv", c, "Q", s) for c in ("torus", "klein") for s in CLI_SYSTEMS
} | {
    ("check-mv", c, r, "random-flat") for c, _ in COVERS for r in CLI_RINGS
    if c != "octahedron" or r == "Q"
} | {
    ("diagram6", d, "Q", s) for d in ("torus", "klein") for s in CLI_SYSTEMS
} | {
    ("diagram6", d, r, "random-flat") for d in DIAGRAMS for r in CLI_RINGS
    if d != "sphere" or r == "Q"
}


def corpus_argv_list(seed):
    """One pass of CLI commands, in a fixed interleaved order."""
    rng = random.Random(f"corpus-cli:{seed}")
    commands = []

    def system_arg(system):
        return f"random-flat:{rng.randrange(2 ** 20)}:{RF_RANK}" \
            if system == "random-flat" else system

    for c in CORPUS:
        for r in CLI_RINGS:
            for cmd in ("fundamental-class", "lemma2", "phi-check"):
                if (cmd, c, r) not in HEAVY:
                    commands.append([cmd, "--complex", c, "--ring", r])
            for s in CLI_SYSTEMS:
                commands.append(["cap-identity", "--complex", c, "--ring", r,
                                 "--system", system_arg(s), "--trials",
                                 str(CAP_TRIALS), "--seed",
                                 str(rng.randrange(2 ** 20))])
                if ("verify-duality", c, r, s) not in HEAVY:
                    commands.append(["verify-duality", "--complex", c,
                                     "--ring", r, "--system", system_arg(s)])
    for c, cover in COVERS:
        for r in CLI_RINGS:
            for s in CLI_SYSTEMS:
                if ("check-mv", c, r, s) not in HEAVY:
                    commands.append(["check-mv", "--complex", c, "--cover",
                                     cover, "--ring", r, "--system",
                                     system_arg(s)])
    for d in DIAGRAMS:
        for r in CLI_RINGS:
            for s in CLI_SYSTEMS:
                if ("diagram6", d, r, s) not in HEAVY:
                    commands.append(["diagram6", "--config", d, "--ring", r,
                                     "--system", system_arg(s), "--seed",
                                     str(rng.randrange(1, 2 ** 20))])
    random.Random("corpus-cli order").shuffle(commands)
    return commands


def _option(argv, name):
    return argv[argv.index(name) + 1]


def expected_labels(argv):
    """The row labels a passing report of this command lists, in order."""
    cmd = argv[0]
    if cmd == "fundamental-class":
        return ["H_n(M; M_R)", "direct_cycle", "generates", "via_cover_agrees"]
    if cmd == "lemma2":
        return ["K=all", "K=vertex0"]
    if cmd == "phi-check":
        n = DIMENSION[_option(argv, "--complex")]
        return [f"K={K} {row}" for K in ("all", "vertex0")
                for row in [f"degree={k} seq({s})" for k in range(n + 1)
                            for s in (1, 2)]
                + ["phi_boundary_commutes", "phi_iso"]]
    if cmd == "cap-identity":
        return ["cap_boundary_identity"]
    if cmd == "check-mv":
        return ["homology_exact", "cohomology_exact", "splitting_equation"]
    return ["block", "cap-square-left", "cap-square-right", "connecting"]


def check_cli_output(argv, code, out):
    """Exit code 0, a passing footer, every check row ok, and the normal
    forms on the rows that carry one.  Certificate hashes are not compared."""
    require(code == 0, f"exit code {code}")
    lines = out.rstrip("\n").split("\n")
    require(lines[-1] == "# result=pass", f"footer {lines[-1]!r}")
    require(lines[1].startswith(f"# command={argv[0]} "), f"header {lines[1]!r}")
    rows = [line.split("\t") for line in lines[2:-1]]
    ring = _option(argv, "--ring")
    if argv[0] == "verify-duality":
        require(rows[0][:4] == ["degree", "left", "right", "verdict"],
                "duality table header")
        table = tuple((int(k), verdict == "iso", parse_module(left, ring),
                       parse_module(right, ring))
                      for k, left, right, verdict, _cert in rows[1:])
        system = _option(argv, "--system").split(":")[0]
        check_duality_rows(_option(argv, "--complex"), system,
                           rank_of(system), RING_KIND[ring], table)
        return table
    require([row[0] for row in rows] == expected_labels(argv),
            f"row labels {[row[0] for row in rows]}")
    if argv[0] == "fundamental-class":
        require(parse_module(rows[0][1], ring) == (1, ()),
                f"H_n(M; M_R) = {rows[0][1]}")
        rows = rows[1:]
    elif argv[0] == "diagram6":
        rows = rows[1:]
    require(all(row[1] == "ok" for row in rows), f"rows {rows}")
    if argv[0] == "cap-identity":
        require(rows[0][2] == f"trials={CAP_TRIALS} failures=0", f"{rows[0]}")
    return tuple(tuple(row) for row in rows)


class CorpusCli:
    """cli.main over the seven-complex corpus, the same list again and again."""

    name = "corpus-cli"
    PASS_SECONDS = 7.5

    def __init__(self, seed):
        self.seed = seed
        self.schedule = corpus_argv_list(seed)

    def check(self, i):
        argv = self.schedule[i % len(self.schedule)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        if err.getvalue():
            raise Mismatch(f"stderr: {err.getvalue().strip()[:200]}")
        return check_cli_output(argv, code, out.getvalue())


WORKLOADS = {w.name: w for w in (Grid, CorpusCli)}
