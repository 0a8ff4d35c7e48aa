"""The acceptance battery, one test per criterion.

Each test prints its own pass/fail line (visible under pytest -s or in the
captured output of a failure) and asserts the criterion at tolerance zero.
"""

import pytest

from twistcap import acceptance, chains
from twistcap.complexes import corpus
from twistcap.covers import orientation_cover
from twistcap.errors import CompositionNonzero
from twistcap.fpmodules import FPModule
from twistcap.localsystems import constant_system, orientation_system
from twistcap.mv import named_diagram6
from twistcap.rings import Q, Z, Zmod


def _report(result):
    line = f"[{'PASS' if result.passed else 'FAIL'}] {result.name}: {result.detail}"
    print(line)
    assert result.passed, line


def test_criterion_01_structural_squares():
    _report(acceptance.check_structural())


def test_criterion_02_lemma1_deck_reversal():
    _report(acceptance.check_lemma1())


def test_criterion_03_lemma2_pushforward():
    _report(acceptance.check_lemma2())


def test_criterion_04_sequences_and_phi():
    _report(acceptance.check_sequences_and_phi())


def test_criterion_05_fundamental_class():
    _report(acceptance.check_fundamental_class())


def test_criterion_06_cap_identity():
    _report(acceptance.check_cap_identity(trials=100, seed=0))


def test_criterion_07_duality():
    _report(acceptance.check_duality(seed=0))


def test_criterion_08_mayer_vietoris():
    _report(acceptance.check_mayer_vietoris())


def test_criterion_09_diagram6():
    _report(acceptance.check_diagram6())


def test_criterion_10_smith_kernel():
    _report(acceptance.check_smith_kernel(count=1000, seed=0))


# -- a failing case is named in its criterion's detail ----------------------
#
# Each injection makes the check one criterion calls fail on one case, and
# returns the criterion's run.

def _squares_fail(monkeypatch):
    klein = corpus("klein")
    G = constant_system(klein, Q, 2)
    verify = chains.PairComplex.verify_squares

    def verify_squares(pc):
        if pc.base is klein and pc.system is G:
            raise CompositionNonzero("injected")
        return verify(pc)

    monkeypatch.setattr(chains.PairComplex, "verify_squares", verify_squares)
    return acceptance.check_structural()


def _deck_fails(monkeypatch):
    check, klein = acceptance.lemma1_check, corpus("klein")
    monkeypatch.setattr(acceptance, "lemma1_check", lambda cover, ring:
                        cover.base is not klein and check(cover, ring))
    return acceptance.check_lemma1()


def _pushforward_fails(monkeypatch):
    check, torus = acceptance.lemma2_check, corpus("torus")
    monkeypatch.setattr(acceptance, "lemma2_check", lambda M, ring, K:
                        not (M is torus and ring == Zmod(3) and K is None)
                        and check(M, ring, K))
    return acceptance.check_lemma2()


def _phi_fails(monkeypatch):
    identify, cover = acceptance.phi_identify, orientation_cover(corpus("rp2"))

    def phi_identify(c, ring, K):
        phi = identify(c, ring, K)
        if c is cover and ring == Z and K is not None:
            return phi._replace(degreewise_iso=False)
        return phi

    monkeypatch.setattr(acceptance, "phi_identify", phi_identify)
    return acceptance.check_sequences_and_phi()


def _fundamental_class_fails(monkeypatch):
    rows, sphere = acceptance.fundamental_class_rows, corpus("sphere2")
    wrong = {"H_n(M; M_R)": FPModule(Zmod(3), 2), "generates": False}

    def fundamental_class_rows(M, ring):
        for label, value, *rest in rows(M, ring):
            if M is sphere and ring == Zmod(3):
                value = wrong.get(label, value)
            yield (label, value, *rest)

    monkeypatch.setattr(acceptance, "fundamental_class_rows",
                        fundamental_class_rows)
    return acceptance.check_fundamental_class()


def _cap_identity_fails(monkeypatch):
    check, sphere = acceptance.boundary_identity_check, corpus("sphere2")
    monkeypatch.setattr(acceptance, "boundary_identity_check",
                        lambda M, G, *rest: (False, None)
                        if M is sphere and G.ring == Zmod(3)
                        else check(M, G, *rest))
    return acceptance.check_cap_identity(trials=1)


def _duality_fails(monkeypatch):
    verify, torus = acceptance.verify_duality, corpus("torus")
    G = orientation_system(torus, Q)

    def verify_duality(M, system, ring):
        report = verify(M, system, ring)
        if system is not G:
            return report
        rows = list(report.rows)
        rows[1] = rows[1]._replace(
            iso=rows[1].iso._replace(isomorphism=False))
        return report._replace(rows=tuple(rows))

    monkeypatch.setattr(acceptance, "verify_duality", verify_duality)
    return acceptance.check_duality()


def _splitting_fails(monkeypatch):
    check, klein = acceptance.splitting_holds, corpus("klein")
    monkeypatch.setattr(acceptance, "splitting_holds", lambda pair, G:
                        not (G.base is klein and G.ring == Zmod(3))
                        and check(pair, G))
    return acceptance.check_mayer_vietoris()


def _diagram6_fails(monkeypatch):
    check, sphere = acceptance.diagram6_check, named_diagram6("sphere")

    def diagram6_check(M, *args, resample_seed):
        report = check(M, *args, resample_seed=resample_seed)
        if M is sphere["complex"] and args[-1] == Z and resample_seed:
            return report._replace(square_left=False, connecting_ok=False,
                                   connecting_sign=-1)
        return report

    monkeypatch.setattr(acceptance, "diagram6_check", diagram6_check)
    return acceptance.check_diagram6()


def _smith_fails(monkeypatch):
    snf, calls = acceptance.smith_normal_form, []

    def smith_normal_form(A):
        calls.append(A)
        return snf(A.scale(2) if len(calls) == 2 else A)

    monkeypatch.setattr(acceptance, "smith_normal_form", smith_normal_form)
    return acceptance.check_smith_kernel(count=3)


BATTERY_FAULTS = [
    (_squares_fail,
     "84 chain complexes, 1 failures; first: klein/Q/constant-2: injected"),
    (_deck_fails, "checked rp2, klein, sphere2; failed ['klein']"),
    (_pushforward_fails, "28 cases; failed ['torus/Z/3/K=all']"),
    (_phi_fails, "28 cases; failed ['rp2/Z: K=vertex0 phi_iso']"),
    (_fundamental_class_fails, "14 cases; failed ['sphere2/Z/3: H_n not "
     "free rank 1', 'sphere2/Z/3: generates']"),
    (_cap_identity_fails,
     "84 pairs, 4 failures; first: sphere2/Z/3/constant-1 k=0 n=2"),
    (_duality_fails,
     "84 reports; failed [\"torus/Q/orientation: [(1, 'Q^2', 'Q^2')]\"]"),
    (_splitting_fails, "3 covers x 2 rings, splitting exhaustive; failed "
     "['klein/Z/3: splitting_equation']"),
    (_diagram6_fails, "connecting sign unobservable; failed ['sphere/Z/"
     "seed=11: cap squares', 'sphere/Z/seed=11: connecting', 'inconsistent "
     "connecting signs [-1, 1]']"),
    (_smith_fails, "3 matrices, 1 failures; first: matrix #1"),
]


@pytest.mark.parametrize("inject, detail", BATTERY_FAULTS, ids=[
    inject.__name__[1:] for inject, _ in BATTERY_FAULTS])
def test_a_failing_case_is_named_in_its_criterions_detail(monkeypatch,
                                                          inject, detail):
    result = inject(monkeypatch)
    assert (result.passed, result.detail) == (False, detail)
