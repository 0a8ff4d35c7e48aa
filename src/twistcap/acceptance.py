"""The corpus-wide acceptance battery.

Ten checks, each a pure function returning a `CheckResult`, which is its
own (name, passed, detail) row; everything runs at tolerance zero.  The
CLI's corpus-all subcommand and the test suite both drive this module, so
the command line and pytest certify the same thing.
The per-complex checks the CLI also runs on its own are row drivers,
generators of (label, ok, detail) rows (`fundamental_class_rows`,
`lemma1_rows`, `lemma2_rows`, `phi_rows` and `mv_rows`): the CLI prints the
rows, the battery aggregates them.  A row whose second cell is not a bool
is no check, and is printed as it is.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction

from .cap import boundary_identity_check, cap_setting, verify_duality
from .chains import fundamental_class_direct, homology, pair_complex
from .complexes import CORPUS_NAMES, FullSubcomplex, corpus
from .covers import (check_split_exactness, fundamental_class_via_cover,
                     lemma1_check, lemma2_check, orientation_cover,
                     phi_identify)
from .localsystems import (constant_system, orientation_system,
                           random_flat_system)
from .matrices import ExactMatrix, smith_normal_form
from .mv import (NAMED_COVERS, diagram6_check, mv_cohomology, mv_homology,
                 named_cover, named_diagram6, splitting_holds)
from .rings import Q, RingSpec, Z, Zmod

RINGS = (Z, Zmod(3), Q)
COVER_RINGS = (Z, Zmod(3))
NONORIENTABLE = ("rp2", "klein")


# one criterion's verdict, which is also its (label, ok, detail) row
CheckResult = namedtuple("CheckResult", "name passed detail")


def _failed(detail, bad):
    """`detail`, with the failed cases `bad` appended when there are any."""
    return detail + (f"; failed {bad}" if bad else "")


def _tally(count, noun, failures, first):
    """The detail "N noun, M failures", with the first failure appended
    when there is one."""
    detail = f"{count} {noun}, {failures} failures"
    return detail + (f"; first: {first}" if first else "")


def system_family(M, ring: RingSpec, seed: int):
    yield "constant-1", constant_system(M, ring, 1)
    yield "constant-2", constant_system(M, ring, 2)
    yield "orientation", orientation_system(M, ring)
    yield "random-flat-2", random_flat_system(M, ring, 2, seed)


def check_structural(seed=0) -> CheckResult:
    """d o d = 0 and delta o delta = 0 over the whole corpus grid."""
    failures = []
    count = 0
    for name in CORPUS_NAMES:
        M = corpus(name)
        for ring in RINGS:
            for label, G in system_family(M, ring, seed):
                count += 1
                try:
                    pair_complex(M, G).verify_squares()
                except Exception as exc:  # noqa: BLE001 - recorded verbatim
                    failures.append(f"{name}/{ring}/{label}: {exc}")
    return CheckResult("structural d2=0 delta2=0", not failures,
                       _tally(count, "chain complexes", len(failures),
                              failures and failures[0]))


def fundamental_class_rows(M, ring):
    """The module H_n(M; M_R), then the direct fundamental class: a cycle
    that generates it and, where 2 != 0, equals the class through the
    cover."""
    nu = fundamental_class_direct(M, ring)
    pres = homology(M, nu.system, M.dimension)
    coords = pres.class_vector(nu.chain)
    cycle = coords is not None
    yield "H_n(M; M_R)", pres.module
    yield "direct_cycle", cycle, ""
    yield "generates", cycle and pres.module.generates(coords), ""
    if ring.two_is_nonzero:
        other = pres.class_vector(fundamental_class_via_cover(M, ring).chain)
        yield ("via_cover_agrees", cycle and other is not None
               and pres.module.classes_equal(coords, other),
               "Lemma 2 route equals the direct construction")
    else:
        yield "via_cover_agrees", "skipped", "ring has 2 = 0"


def lemma1_rows(M, ring):
    """Lemma 1 on the orientation cover of M."""
    yield ("deck_reverses_orientation",
           lemma1_check(orientation_cover(M), ring),
           "Lemma 1: tau(z) = -z on the chosen orientation cycle")


def check_lemma1() -> CheckResult:
    """Deck image of the chosen orientation cycle is its exact negation."""
    names = NONORIENTABLE + ("sphere2",)
    bad = []
    for name in names:
        if not all(ok for _, ok, _ in lemma1_rows(corpus(name), Z)):
            bad.append(name)
    return CheckResult("lemma 1 deck reversal", not bad,
                       _failed(f"checked {', '.join(names)}", bad))


def _k_choices(M):
    """The relative pairs the cover checks run over: K = M and K = vertex 0."""
    return (("K=all", None), ("K=vertex0", FullSubcomplex(M, {0})))


def lemma2_rows(M, ring):
    """Lemma 2 per K choice: the pushforward of the cover class vanishes."""
    for label, K in _k_choices(M):
        ok = lemma2_check(M, ring, K)
        yield label, ok, ("Lemma 2: pushforward class is zero" if ok
                          else "Lemma 2: nonzero pushforward class")


def phi_rows(M, ring):
    """Per K choice: sequences (1) and (2) exact in each degree, then phi a
    boundary-commuting isomorphism, on the orientation cover of M; where
    2 = 0 in the ring, which the splitting needs invertible, one skipped
    row per K choice."""
    cover = orientation_cover(M)
    if not ring.two_is_nonzero:
        for label, _ in _k_choices(M):
            yield f"{label} phi", "skipped", "ring has 2 = 0"
        return
    for label, K in _k_choices(M):
        phi = phi_identify(cover, ring, K)
        verdicts = check_split_exactness(phi.split)
        for k in sorted(verdicts):
            yield f"{label} degree={k} seq(1)", verdicts[k]["seq1"], ""
            yield f"{label} degree={k} seq(2)", verdicts[k]["seq2"], ""
        yield f"{label} phi_boundary_commutes", phi.boundary_commutes, ""
        yield f"{label} phi_iso", phi.degreewise_iso, ""


def mv_rows(pair, G):
    """Both Mayer-Vietoris sequences exact, and the splitting equation."""
    yield "homology_exact", mv_homology(pair, G).all_exact, ""
    yield "cohomology_exact", mv_cohomology(pair, G).all_exact, ""
    yield ("splitting_equation", splitting_holds(pair, G),
           "exhaustive basis cochains")


def check_lemma2() -> CheckResult:
    """Pushforward of the cover class vanishes in H_n(M|K)."""
    bad = []
    count = 0
    for name in CORPUS_NAMES:
        M = corpus(name)
        for ring in COVER_RINGS:
            for label, ok, _ in lemma2_rows(M, ring):
                count += 1
                if not ok:
                    bad.append(f"{name}/{ring}/{label}")
    return CheckResult("lemma 2 pushforward vanishes", not bad,
                       _failed(f"{count} cases", bad))


def check_sequences_and_phi() -> CheckResult:
    """Sequences (1),(2) exact degreewise; phi a boundary-commuting iso."""
    bad = []
    count = 0
    for name in CORPUS_NAMES:
        M = corpus(name)
        for ring in COVER_RINGS:
            count += len(_k_choices(M))
            bad += [f"{name}/{ring}: {label}"
                    for label, ok, _ in phi_rows(M, ring) if not ok]
    return CheckResult("splitting sequences and phi", not bad,
                       _failed(f"{count} cases", bad))


def check_fundamental_class() -> CheckResult:
    """Direct and via-cover constructions agree; the class generates a
    free module of rank 1."""
    bad = []
    for name in CORPUS_NAMES:
        M = corpus(name)
        for ring in COVER_RINGS:
            for label, value, *_ in fundamental_class_rows(M, ring):
                if isinstance(value, bool):
                    if not value:
                        bad.append(f"{name}/{ring}: {label}")
                elif value.normal_form != (1, ()):
                    bad.append(f"{name}/{ring}: H_n not free rank 1")
    return CheckResult("fundamental class agreement", not bad, _failed(
        f"{len(CORPUS_NAMES) * len(COVER_RINGS)} cases", bad))


def cap_identity_failures(M, G, rng, trials):
    """Run `trials` random cochain/chain pairs drawn from `rng` through the
    pinned cap boundary identity, with the orientation system as the chain
    factor; returns the (k, n) degrees of the pairs that fail."""
    ring = G.ring
    Gp = orientation_system(M, ring)
    cochain_pc, chain_pc, _ = cap_setting(M, G, Gp)
    failures = []
    for _ in range(trials):
        k = rng.randint(0, M.dimension)
        n = rng.randint(k, M.dimension)
        c = tuple(ring.from_int(rng.randint(-3, 3))
                  for _ in range(cochain_pc.length(k)))
        a = tuple(ring.from_int(rng.randint(-3, 3))
                  for _ in range(chain_pc.length(n)))
        ok, _diff = boundary_identity_check(M, G, Gp, k, n, c, a)
        if not ok:
            failures.append((k, n))
    return failures


def check_cap_identity(trials=100, seed=0) -> CheckResult:
    """Seeded random pairs satisfy the pinned cap boundary identity exactly."""
    bad = 0
    count = 0
    first = None
    for name in CORPUS_NAMES:
        M = corpus(name)
        for ring in RINGS:
            for label, G in system_family(M, ring, seed):
                rng = random.Random((seed, name, str(ring), label).__repr__())
                failures = cap_identity_failures(M, G, rng, trials)
                count += trials
                bad += len(failures)
                if failures and first is None:
                    k, n = failures[0]
                    first = f"{name}/{ring}/{label} k={k} n={n}"
    return CheckResult("cap boundary identity", bad == 0,
                       _tally(count, "pairs", bad, first))


def check_duality(seed=0) -> CheckResult:
    """The duality map is an isomorphism in every degree, everywhere."""
    bad = []
    spot = []
    for name in CORPUS_NAMES:
        M = corpus(name)
        for ring in RINGS:
            for label, G in system_family(M, ring, seed):
                report = verify_duality(M, G, ring)
                if not report.all_verified:
                    rowinfo = [(r.degree, str(r.left), str(r.right))
                               for r in report.rows if not r.verdict]
                    bad.append(f"{name}/{ring}/{label}: {rowinfo}")
                if name == "rp2" and ring == Z and label == "constant-1":
                    spot.append([r.left.normal_form for r in report.rows]
                                == [(1, ()), (0, ()), (0, (2,))])
                    spot.append([r.right.normal_form for r in report.rows]
                                == [(1, ()), (0, ()), (0, (2,))])
    M = corpus("klein")
    w = orientation_system(M, Z)
    klein_rows = verify_duality(M, w, Z).rows
    spot.append(klein_rows[1].left.normal_form == (1, (2,)))
    spot.append(klein_rows[1].right.normal_form == (1, (2,)))
    ok = not bad and all(spot)
    detail = (f"{len(CORPUS_NAMES) * len(RINGS) * 4} reports"
              + ("" if all(spot) else "; spot values wrong")
              + (f"; failed {bad[:2]}" if bad else ""))
    return CheckResult("duality isomorphism", ok, detail)


def check_mayer_vietoris() -> CheckResult:
    """Both sequences exact on the three covers; splitting identity exact."""
    bad = []
    for cname, covname in NAMED_COVERS:
        M, pair = named_cover(cname, covname)
        for ring in COVER_RINGS:
            G = orientation_system(M, ring) if cname in NONORIENTABLE \
                else constant_system(M, ring)
            bad += [f"{cname}/{ring}: {label}"
                    for label, ok, _ in mv_rows(pair, G) if not ok]
    return CheckResult("mayer-vietoris exactness + splitting", not bad,
                       _failed("3 covers x 2 rings, splitting exhaustive",
                               bad))


def check_diagram6() -> CheckResult:
    """Cap squares commute exactly; connecting block sign single and stable."""
    bad = []
    signs = set()
    for name in ("torus", "sphere", "klein"):
        cfg = named_diagram6(name)
        M = cfg["complex"]
        twisted = name == "klein"
        for ring in COVER_RINGS:
            G = orientation_system(M, ring) if twisted \
                else constant_system(M, ring)
            for rep_seed in (None, 11):
                report = diagram6_check(M, cfg["U"], cfg["V"], cfg["K"],
                                        cfg["L"], G, ring,
                                        resample_seed=rep_seed)
                if not (report.square_left and report.square_right):
                    bad.append(f"{name}/{ring}/seed={rep_seed}: cap squares")
                if not report.connecting_ok:
                    bad.append(f"{name}/{ring}/seed={rep_seed}: connecting")
                if report.connecting_sign is not None:
                    signs.add(report.connecting_sign)
    if len(signs) > 1:
        bad.append(f"inconsistent connecting signs {sorted(signs)}")
    sign = signs.pop() if len(signs) == 1 else None
    detail = f"observed connecting sign: {sign:+d}" if sign is not None \
        else "connecting sign unobservable"
    return CheckResult("diagram (6) blocks", not bad, _failed(detail, bad))


def _fraction_rank(rows):
    """Independent rank oracle: plain fraction Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    rank = 0
    ncols = len(m[0])
    for col in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = Fraction(1) / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def check_smith_kernel(count=1000, seed=0) -> CheckResult:
    """U A V = D with units and a divisibility chain on random matrices,
    cross-checked against an independent rational rank."""
    rng = random.Random(seed)
    bad = 0
    first = None
    for idx in range(count):
        r = rng.randint(1, 8)
        c = rng.randint(1, 8)
        rows = [[rng.randint(-20, 20) for _ in range(c)] for _ in range(r)]
        A = ExactMatrix(Z, rows)
        snf = smith_normal_form(A)
        ok = (snf.verify(A)
              and sum(map(bool, snf.diagonal())) == _fraction_rank(rows))
        if not ok:
            bad += 1
            first = first or f"matrix #{idx}"
    return CheckResult("smith normal form kernel", bad == 0,
                       _tally(count, "matrices", bad, first))


def run_all(seed=0, trials=100):
    """The ten criteria, one at a time: a criterion that raises leaves the
    ones before it computed."""
    yield check_structural(seed)
    yield check_lemma1()
    yield check_lemma2()
    yield check_sequences_and_phi()
    yield check_fundamental_class()
    yield check_cap_identity(trials, seed)
    yield check_duality(seed)
    yield check_mayer_vietoris()
    yield check_diagram6()
    yield check_smith_kernel(1000, seed)
