"""Acceptance gate: one test (and one pass/fail line) per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get the per-criterion
pass/fail report; each test also prints an explicit verdict line.
"""

import pytest

from specseq.zlinalg import FPAbGroup, Hom, Subgroup, quotient_group, subquotient
from specseq.zdiagrams import (
    F_p_as_colimit_of_images,
    colimit,
    filtrations,
    six_term_check,
    stable_image,
)
from specseq.spectral import find_mono_nonpropagation, turn_page
from specseq.excouple import (
    Bidegrees,
    NotRegular,
    SetupViolation,
    couple_from_filtered_complex,
    demo_couple,
    zero_couple,
    zeeman_check,
)
from specseq.solvers import cyclic_group_sequence, five_term, projective_space_sequence

from conftest import random_filtered_complex, seeded
from test_zdiagrams import make_ses
from test_spectral import random_two_column_morphism
from test_solvers import ktower_five_term
from specseq.cli import _two_row_pair

Z = FPAbGroup(1)


def verdict(num, label, ok):
    print("criterion %d: %s - %s" % (num, "PASS" if ok else "FAIL", label))
    assert ok, (num, label)


def test_criterion_01_three_couple_demos():
    expected = {
        "couple1": (FPAbGroup(0, (6,)), FPAbGroup(), "MatchesColimit"),
        "couple2": (FPAbGroup(0, (2,)), FPAbGroup(0, (3,)), "StableProperExtension"),
        "couple3": (FPAbGroup(), FPAbGroup(0, (6,)), "MatchesLimit"),
    }
    ok = True
    sss = []
    for name, (L0, Lup, label) in expected.items():
        C = demo_couple(name)
        C.validate()
        ab = C.abutments(0)
        ok &= ab.colim == L0 and ab.lim == Lup
        ok &= C.classify((0, 0))["label"] == label
        ok &= C.e_infinity()[(0, 0)]["sq"].group == FPAbGroup(0, (6,))
        sss.append(C.internal_spectral_sequence())
    rep = demo_couple("couple2").extension_report((0, 0))
    ok &= (rep["eps"], rep["stable_e"], rep["eps_upper"]) == (
        FPAbGroup(0, (2,)), FPAbGroup(0, (6,)), FPAbGroup(0, (3,)))
    for r in range(1, 5):
        pos = set()
        for ss in sss:
            pos |= set(ss.page(r).objects.positions())
        for x in pos:
            groups = [ss.page(r).objects.at(x) for ss in sss]
            ok &= groups[0] == groups[1] == groups[2]
    verdict(1, "three-couple demos: abutments, classification, identical pages", ok)


def test_criterion_02_cyclic_group_homology():
    ok = True
    for k in range(2, 8):
        res = cyclic_group_sequence(k, 9)
        for n in range(10):
            want = Z if n == 0 else (
                FPAbGroup(0, (k,)) if n % 2 == 1 else FPAbGroup())
            ok &= res["H"][n] == want
        for p in range(2, 10):
            if p % 2 == 1:
                ok &= res["d2"][p].is_iso()
            else:
                ok &= res["d2"][p].is_zero()
    verdict(2, "cyclic-group homology for k in 2..7 with forced differentials", ok)


def test_criterion_03_complex_projective_spaces():
    ok = True
    for r in range(1, 5):
        res = projective_space_sequence(r)
        for n in range(2 * r + 3):
            want = Z if (n % 2 == 0 and n <= 2 * r) else FPAbGroup()
            ok &= res["H"][n] == want
    verdict(3, "projective-space homology for r in 1..4", ok)


def test_criterion_04_five_term_sequences():
    ok = True
    for k in range(2, 8):
        out = ktower_five_term(k)
        H2, E20, E01, H1, E10 = out["groups"]
        ok &= H2.is_trivial() and E20.is_trivial()
        ok &= E01 == Z and H1 == Z and E10 == FPAbGroup(0, (k,))
        ok &= out["maps"][2].matrix in (((k,),), ((-k,),))
    verdict(4, "five-term sequence 0 -> 0 -> Z -> Z ->> Z/k for k in 2..7", ok)


def test_criterion_05_oracle_equivalence():
    rng = seeded(20260823)
    count = 0
    for _ in range(200):
        C = couple_from_filtered_complex(*random_filtered_complex(rng))
        # each page the sequence turns is asserted against the internal
        # cycle/boundary subgroups inside
        ss = C.internal_spectral_sequence()
        for r in range(1, 5):
            objs, _ = turn_page(ss.page(r))
            nxt = ss.page(r + 1).objects
            for x in set(objs.positions()) | set(nxt.positions()):
                assert objs.at(x) == nxt.at(x)
        # E-infinity from the omega subgroup nesting, asserted against the
        # engine's limit page inside
        C.e_infinity()
        count += 1
    verdict(5, "internal pages vs turned pages on %d random couples" % count,
            count >= 200)


def test_criterion_06_extension_theorem_suite():
    rng = seeded(66)
    ok = True
    couples = [demo_couple(n) for n in ("couple1", "couple2", "couple3")]
    couples += [
        couple_from_filtered_complex(*random_filtered_complex(rng, max_degree=2))
        for _ in range(12)
    ]
    for C in couples:
        b = C.bidegrees.b
        diagonals = set()
        for e in C.E:
            x = (e[0] - b[0], e[1] - b[1])
            # both short exact sequences, the intersection criterion, and
            # stable-E = E-infinity are asserted inside
            rep = C.extension_report(x)
            ok &= rep["stable"]
            ok &= rep["stable_e"] == rep["e_infinity"]
            diagonals.add(C.position_index(x).n)
        for n in diagonals:
            _, lrep = C.lim1_couple(n)
            ok &= lrep["lim1_terms_zero"] and lrep["collapses_on_page_1"]
    verdict(6, "extension SES suite with stability and lim-1 collapse", ok)


def test_criterion_07_zdiagram_suite():
    ok = True
    for t in range(100):
        f, g = make_ses(seeded(70000 + t))
        # the limit and colimit sequences, lim^1 = 0 included, are checked inside
        six_term_check(f, g)
    from conftest import random_diagram
    rng = seeded(71)
    for _ in range(40):
        A = random_diagram(rng)
        # completeness, exhaustiveness and the four-term sequence are checked inside
        fl = filtrations(A)
        for p in A.padded_range():
            ok &= F_p_as_colimit_of_images(A, p) == fl["F"][p]
            # stable image: limit-cone image vs the composite from below
            ok &= stable_image(A)[p] == A.composite(A.p0 - 1, p).image()
            ok &= colimit(A)[1][p].image() == fl["F"][p]
    verdict(7, "Z-diagram suite: SES six-term, filtrations, stable images", ok)


def test_criterion_08_propagation_suite():
    rng = seeded(88)
    ok = True
    for _ in range(100):
        m = random_two_column_morphism(rng)
        for r in (1, 2, 3):
            # each clause whose hypotheses hold is checked inside
            m.propagation_report(r)
    found = find_mono_nonpropagation(max_order=8)
    ok &= found is not None
    if found:
        _, _, m, x = found
        ok &= m.component(1, x).is_mono() and not m.component(2, x).is_mono()
    verdict(8, "propagation clauses on 100 morphisms + mono counterexample", ok)


def test_criterion_09_reindexing():
    rng = seeded(99)
    ok = True
    count = 0
    while count < 50:
        a = (rng.randint(-3, 3), rng.randint(-3, 3))
        b = (rng.randint(-3, 3), rng.randint(-3, 3))
        c = (rng.randint(-3, 3), rng.randint(-3, 3))
        try:
            bd = Bidegrees(a, b, c)
        except NotRegular:
            continue
        count += 1
        T = zero_couple(bd).canonical_T()
        (t00, t01), (t10, t11) = T
        ok &= t00 * t11 - t01 * t10 in (1, -1)
        ok &= (t00 * bd.a[0] + t01 * bd.a[1], t10 * bd.a[0] + t11 * bd.a[1]) == (1, -1)
        ok &= (t00 * bd.z[0] + t01 * bd.z[1], t10 * bd.z[0] + t11 * bd.z[1]) == (-1, 0)
    for name in ("couple1", "couple2", "couple3"):
        C = demo_couple(name)
        for M, Minv in ((((1, 1), (0, 1)), ((1, -1), (0, 1))),
                        (((0, 1), (1, 0)), ((0, 1), (1, 0)))):
            R = C.reindex(M)
            back = R.reindex(Minv)
            ok &= back.D == C.D and back.E == C.E
            ok &= back.i == C.i and back.j == C.j and back.k == C.k
            # page groups transported along M
            pr = C.internal_page(1)
            rr = R.internal_page(1)
            for e, G in pr["E"].items():
                Me = (M[0][0] * e[0] + M[0][1] * e[1],
                      M[1][0] * e[0] + M[1][1] * e[1])
                ok &= rr["E"].get(Me, FPAbGroup()) == G
    verdict(9, "canonical homological reindexing on 50 regular triples", ok)


def test_criterion_10_zeeman_checker():
    ok = True
    for k in (2, 3, 5):
        f, abut, maps = _two_row_pair(k, 6)
        res = zeeman_check(f, abut, abut, maps, setup="I",
                           edge_oracle=lambda f, n: True)
        ok &= res["ok"] and res["first_failure"] is None
    raised = False
    f, abut, maps = _two_row_pair(3, 6, perturb=True)
    try:
        zeeman_check(f, abut, abut, maps, setup="I",
                     edge_oracle=lambda f, n: True)
    except SetupViolation:
        raised = True
    verdict(10, "Zeeman reverse comparison with perturbation witness", ok and raised)
