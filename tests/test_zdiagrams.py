"""Tests for Z-indexed diagrams: (co)limits, towers, filtrations, comparison."""

import math

import pytest

from conftest import (
    SMALL_GROUPS,
    assert_outcome,
    expected_outcome,
    random_diagram,
    random_hom,
    seeded,
)
from specseq.zlinalg import (
    ContainmentViolation,
    FPAbGroup,
    Hom,
    Subgroup,
    cokernel,
    direct_sum,
    quotient_group,
    unit_vector,
)
from specseq import zdiagrams, zlinalg
from specseq.zdiagrams import (
    HypothesisFailed,
    NotExact,
    Tail,
    ZCOMPARE_RULES,
    ZDiagram,
    ZDiagramMorphism,
    F_p_as_colimit_of_images,
    I_omega,
    I_tower,
    apply_rule,
    colimit,
    colimit_map,
    filtrations,
    i_factor_diagram,
    image_towers,
    k_mono_condition,
    kernel_diagram,
    limit_and_lim1,
    limit_map,
    ml_conditions,
    q_factor_diagram,
    six_term_check,
    stabilization_budget,
    stable_image,
    zcompare,
)
from specseq.zdiagrams import _difference_columns, _lim1_by_difference_map
from specseq.spectral import NotAMorphism

Z = FPAbGroup(1)
Z4 = FPAbGroup(0, (4,))
Z6 = FPAbGroup(0, (6,))


def times(n):
    return Hom(Z, Z, [[n]])


def colimit_by_cokernel(A):
    """Independent colimit construction: cokernel of the shifted difference map."""
    idx = list(A.padded_range())
    groups = [A.group_at(p) for p in idx]
    S, _, projs = direct_sum(groups[:-1])
    T, incs, _ = direct_sum(groups)
    d = Hom.zero_map(S, T)
    for i, p in enumerate(idx[:-1]):
        d = d.add(incs[i].compose(projs[i]))
        d = d.add(incs[i + 1].compose(A.map_at(p).compose(projs[i])).negate())
    Q, _ = cokernel(d)
    return Q


def difference_map_by_direct_sums(A):
    """Independent lim^1 difference map: Hom arithmetic over canonical direct sums.

    Returns ``(d, s_incs, t_projs)`` with ``d: S -> T`` from the sum of the
    padded window's groups to the sum of all but the first.
    """
    idx = list(A.padded_range())
    S, s_incs, s_projs = direct_sum([A.group_at(p) for p in idx])
    T, t_incs, t_projs = direct_sum([A.group_at(p) for p in idx[1:]])
    d = Hom.zero_map(S, T)
    for pos, p in enumerate(idx[1:]):
        inc = t_incs[pos]
        d = d.add(inc.compose(s_projs[pos + 1]))
        d = d.add(inc.compose(A.map_at(p - 1).compose(s_projs[pos])).negate())
    return d, s_incs, t_projs


def long_window(rng, R, nmaps):
    """A window of ``nmaps`` maps between ``Z^R`` and ``Z^(R-2) (+) Z/2 (+) Z/6``.

    Entries from a torsion generator of order ``d`` into one of order ``o``
    are multiples of ``o / gcd(o, d)``, and zero into free generators, so
    every map is well defined.
    """
    pool = [FPAbGroup(R), FPAbGroup(R - 2, (2, 6))]
    gs = [rng.choice(pool) for _ in range(nmaps + 1)]
    maps = []
    for G, H in zip(gs, gs[1:]):
        m = [[rng.randint(-3, 3) for _ in range(G.ngens)] for _ in range(H.ngens)]
        for j, d in enumerate(G.orders):
            for i, o in enumerate(H.orders):
                if d:
                    m[i][j] *= o // math.gcd(o, d) if o else 0
        maps.append(Hom(G, H, m))
    return ZDiagram.from_maps(
        rng.randint(-2, 2),
        maps,
        left_tail=rng.choice([Tail.ZERO, Tail.CONSTANT]),
        right_tail=rng.choice([Tail.ZERO, Tail.CONSTANT]),
    )


class TestColimitAndLimit:
    def test_constant_diagram(self):
        A = ZDiagram.constant(Z)
        C, cocone = colimit(A)
        assert C == Z and all(h.is_iso() for h in cocone.values())
        L, cone, l1 = limit_and_lim1(A)
        assert L == Z and l1.is_trivial()

    def test_doubling_window(self):
        A = ZDiagram.from_maps(0, [times(2)], left_tail=Tail.ZERO)
        C, _ = colimit(A)
        assert C == Z
        L, _, _ = limit_and_lim1(A)
        assert L.is_trivial()

    def test_projection_window(self):
        A = ZDiagram.from_maps(0, [Hom(Z4, FPAbGroup(0, (2,)), [[1]])])
        C, _ = colimit(A)
        assert C == FPAbGroup(0, (2,))

    def test_six_times_window_both_constant(self):
        A = ZDiagram.from_maps(
            0, [times(6)], left_tail=Tail.CONSTANT, right_tail=Tail.CONSTANT
        )
        L, cone, _ = limit_and_lim1(A)
        assert L == Z and cone[1] == times(6)
        C, cocone = colimit(A)
        assert C == Z and cocone[0] == times(6)

    def test_zero_left_tail_kills_limit(self):
        A = ZDiagram.from_maps(0, [times(3)], left_tail=Tail.ZERO)
        L, _, l1 = limit_and_lim1(A)
        assert L.is_trivial() and l1.is_trivial()

    def test_colimit_agrees_with_cokernel_construction(self):
        for t in range(30):
            A = random_diagram(seeded(t))
            C, cocone = colimit(A)
            assert C == colimit_by_cokernel(A)
            for p in list(A.padded_range())[:-1]:
                assert cocone[p + 1].compose(A.map_at(p)) == cocone[p]

    def test_cone_compatibility_and_lim1_zero(self):
        for t in range(30):
            A = random_diagram(seeded(100 + t))
            _, cone, l1 = limit_and_lim1(A)
            assert l1.is_trivial()
            for p in list(A.padded_range())[:-1]:
                assert A.map_at(p).compose(cone[p]) == cone[p + 1]


class TestLim1Presentation:
    def test_columns_match_difference_map_by_direct_sums(self):
        tails, torsion = set(), False
        for t in range(60):
            A = random_diagram(seeded(t))
            idx = list(A.padded_range())
            tails.add((A.left_tail, A.right_tail))
            torsion |= any(A.group_at(p).torsion for p in idx)
            d, s_incs, t_projs = difference_map_by_direct_sums(A)
            n, offsets, columns = _difference_columns(A)
            assert n == sum(A.group_at(p).ngens for p in idx[1:])
            columns = iter(columns)
            for s_inc, p in zip(s_incs, idx):
                G = A.group_at(p)
                for g in range(G.ngens):
                    col = next(columns)
                    x = d(s_inc(unit_vector(G.ngens, g)))
                    for t_proj, q in zip(t_projs, idx[1:]):
                        H = A.group_at(q)
                        block = col[offsets[q]:offsets[q] + H.ngens]
                        assert H.reduce(block) == t_proj(x), (t, p, g, q)
            assert next(columns, None) is None
        assert len(tails) == 4 and torsion

    @pytest.mark.parametrize("R", [4, 8])
    @pytest.mark.parametrize("nmaps", [8, 12])
    def test_long_windows_without_hom_arithmetic(self, monkeypatch, R, nmaps):
        def refuse(*args):
            raise RuntimeError("lim^1 must not build Hom arithmetic")

        windows = [long_window(seeded(11_000 + 100 * R + 10 * nmaps + t), R, nmaps)
                   for t in range(3)]
        assert {bool(G.torsion) for A in windows for G in A.groups} == {False, True}
        monkeypatch.setattr(Hom, "compose", refuse)
        monkeypatch.setattr(Hom, "add", refuse)
        monkeypatch.setattr(zlinalg, "direct_sum", refuse)
        for A in windows:
            assert _lim1_by_difference_map(A).is_trivial()


def make_ses(rng):
    """A random componentwise SES of diagrams: ker(h) >-> B ->> B/ker(h).

    The morphism h maps into a constant diagram and is pulled back from a
    single random map at the top padded index; this makes it natural by
    construction while still producing varied kernels.
    """
    B = random_diagram(rng)
    H = rng.choice(SMALL_GROUPS)
    top = B.p1 + 1
    ftop = random_hom(B.group_at(top), H, rng)
    D = ZDiagram(
        B.window,
        (H,) * (B.width + 1),
        tuple(Hom.identity(H) for _ in range(B.width)),
        Tail.CONSTANT,
        Tail.CONSTANT,
    )
    hm = ZDiagramMorphism(
        B, D, tuple(ftop.compose(B.composite(p, top)) for p in B.padded_range())
    )
    idx = list(B.padded_range())
    kers = {p: hm.component(p).kernel() for p in idx}
    apieces = {p: kers[p].as_group() for p in idx}
    A = ZDiagram(
        B.window,
        tuple(apieces[p][0] for p in range(B.p0, B.p1 + 1)),
        tuple(
            B.map_at(p).restrict(kers[p], kers[p + 1]) for p in range(B.p0, B.p1)
        ),
        B.left_tail,
        B.right_tail,
    )
    quots = {p: quotient_group(B.group_at(p), kers[p]) for p in idx}
    cmaps = []
    for p in range(B.p0, B.p1):
        proj_next = quots[p + 1][1]
        # induced map on quotients via a section through B
        G = quots[p][0]
        cols = []
        for j in range(G.ngens):
            e = tuple(1 if i == j else 0 for i in range(G.ngens))
            lift = quots[p][1].solve_element(e)
            cols.append(proj_next(B.map_at(p)(lift)))
        from specseq.zlinalg import matrix_from_columns

        cmaps.append(Hom(G, quots[p + 1][0], matrix_from_columns(cols, quots[p + 1][0].ngens)))
    C = ZDiagram(
        B.window,
        tuple(quots[p][0] for p in range(B.p0, B.p1 + 1)),
        tuple(cmaps),
        B.left_tail,
        B.right_tail,
    )
    f = ZDiagramMorphism(A, B, tuple(apieces[p][1] for p in idx))
    g = ZDiagramMorphism(B, C, tuple(quots[p][1] for p in idx))
    return f, g


class TestSixTerm:
    def test_constant_ses(self):
        Asub = ZDiagram.constant(Z)
        B = ZDiagram.constant(Z)
        Cq = ZDiagram.constant(Z6)
        f = ZDiagramMorphism.on_window(Asub, B, {0: times(6)})
        g = ZDiagramMorphism.on_window(B, Cq, {0: Hom(Z, Z6, [[1]])})
        six_term_check(f, g)
        assert all(limit_and_lim1(D)[2].is_trivial() for D in (Asub, B, Cq))

    def test_not_exact_rejected(self):
        B = ZDiagram.constant(Z)
        Cq = ZDiagram.constant(Z6)
        f = ZDiagramMorphism.on_window(B, B, {0: times(6)})
        g_bad = ZDiagramMorphism.on_window(B, Cq, {0: Hom.zero_map(Z, Z6)})
        with pytest.raises(NotExact):
            six_term_check(f, g_bad)

    def test_random_kernel_quotient_ses(self):
        passed = 0
        for t in range(25):
            f, g = make_ses(seeded(1000 + t))
            six_term_check(f, g)
            passed += 1
        assert passed == 25


class TestImageTowers:
    def test_three_stage_example(self):
        A = ZDiagram.from_maps(
            0,
            [Hom.zero_map(FPAbGroup(), Z), times(2)],
            left_tail=Tail.ZERO,
        )
        towers = image_towers(A)
        assert towers[0][A.p1] == Subgroup.from_generators(Z, [(2,)])
        assert I_tower(A, 2)[A.p1].is_zero()
        assert towers[-1][A.p1].is_zero()
        assert I_omega(A) is towers[-1]

    def test_epi_maps_have_full_I(self):
        Z2 = FPAbGroup(0, (2,))
        A = ZDiagram.from_maps(
            0, [Hom(Z4, Z2, [[1]])], left_tail=Tail.CONSTANT, right_tail=Tail.CONSTANT
        )
        tow = I_tower(A, 1)
        assert tow[A.p1] == Subgroup.full(Z2)


class TestStableImageAndML:
    def test_zero_left_tail(self):
        A = ZDiagram.from_maps(0, [times(2)], left_tail=Tail.ZERO)
        assert all(s.is_zero() for s in stable_image(A).values())

    def test_six_times_stable_image(self):
        A = ZDiagram.from_maps(
            0, [times(6)], left_tail=Tail.CONSTANT, right_tail=Tail.CONSTANT
        )
        ib = stable_image(A)
        assert ib[1] == Subgroup.from_generators(Z, [(6,)])
        assert I_omega(A)[1] == ib[1]

    def test_ibar_inside_I_omega(self):
        for t in range(20):
            A = random_diagram(seeded(3000 + t))
            iw = I_omega(A)
            for p, s in stable_image(A).items():
                assert iw[p].contains_subgroup(s)

    def test_ml_conditions_under_supported_tails(self):
        for t in range(10):
            A = random_diagram(seeded(4000 + t))
            ml = ml_conditions(A)
            assert ml["mittag_leffler"]

    def test_omega_ml_iff_ibar_equals_I_omega(self):
        for t in range(15):
            A = random_diagram(seeded(5000 + t))
            ml = ml_conditions(A)
            iw = I_omega(A)
            ib = stable_image(A)
            same = all(iw[p] == ib[p] for p in range(A.p0, A.p1 + 2))
            assert ml["omega_ml"] == same, (t, ml, same)


class TestFiltrations:
    def test_constant_diagram(self):
        A = ZDiagram.constant(Z6)
        fl = filtrations(A)
        assert all(F == Subgroup.full(Z6) for F in fl["F"].values())
        assert all(sq.group.is_trivial() for sq in fl["eps"].values())
        assert all(Fu.is_zero() for Fu in fl["F_upper"].values())
        assert fl["R"].is_epi()

    def test_zero_left_tail_R_vanishes(self):
        A = ZDiagram.from_maps(0, [times(2)], left_tail=Tail.ZERO)
        fl = filtrations(A)
        assert fl["R"].is_zero()

    def test_completeness_exhaustiveness_and_four_term(self):
        # filtrations checks all three lemmas; it must not raise
        for t in range(25):
            filtrations(random_diagram(seeded(6000 + t)))

    def test_F_p_colimit_of_images_formula(self):
        for t in range(20):
            A = random_diagram(seeded(7000 + t))
            fl = filtrations(A)
            for p in A.padded_range():
                assert F_p_as_colimit_of_images(A, p) == fl["F"][p]


class TestKernelDiagram:
    def test_mod4_doubling_kernels(self):
        d2 = Hom(Z4, Z4, [[2]])
        A = ZDiagram.from_maps(0, [d2, d2], left_tail=Tail.ZERO)
        K, incl = kernel_diagram(A, 2)
        assert K.group_at(0).order() == 4  # ker of x4 = everything
        assert K.group_at(1).order() == 2  # ker of x2
        assert K.group_at(2).is_trivial()

    def test_injective_composites_give_zero_diagram(self):
        A = ZDiagram.from_maps(0, [times(3), times(2)], left_tail=Tail.ZERO)
        K, _ = kernel_diagram(A, 2)
        assert all(K.group_at(q).is_trivial() for q in K.padded_range())

    def test_lemma_identifications_randomized(self):
        # kernel_diagram checks both identifications; it must not raise
        for t in range(20):
            A = random_diagram(seeded(8000 + t))
            for p in A.padded_range():
                kernel_diagram(A, p)


def zero_like(f):
    return Hom.zero_map(f.domain, f.codomain)


def zero_maps(maps):
    """The same maps per index, each replaced by the zero map."""
    return {p: zero_like(f) for p, f in maps.items()}


def zero_subgroups(tower):
    """The same tower with every subgroup replaced by zero."""
    return {p: Subgroup.zero(S.ambient) for p, S in tower.items()}


def broken_colimit(A):
    G, cocone = colimit(A)
    return G, zero_maps(cocone)


def broken_limit(A):
    L, cone, lim1 = limit_and_lim1(A)
    return L, zero_maps(cone), lim1


class TestLemmaChecks:
    """Each lemma is a ``require`` where it is proved: one broken input
    makes it raise ``TheoremViolation`` with the lemma's check name."""

    @staticmethod
    def doubling():
        # x2 on Z with constant tails: every lemma has nonzero content
        return ZDiagram.from_maps(0, [times(2)], Tail.CONSTANT, Tail.CONSTANT)

    @pytest.mark.parametrize("name, broken, check", [
        ("colimit", broken_colimit, "image filtration must exhaust the colimit"),
        ("limit_and_lim1", broken_limit, "kernel filtration must be complete"),
        ("stable_image", lambda A: zero_subgroups(stable_image(A)),
         "im R must be the colimit of the stable image"),
    ], ids=["exhaustive", "complete", "four-term"])
    def test_filtration_lemmas(self, monkeypatch, name, broken, check):
        monkeypatch.setattr(zdiagrams, name, broken)
        with pytest.raises(zlinalg.TheoremViolation) as info:
            filtrations(self.doubling())
        assert info.value.check == check

    @pytest.mark.parametrize("name, broken, check", [
        ("limit_and_lim1", broken_limit, "lim K^p must be F^p"),
        ("I_omega", lambda A: zero_subgroups(I_omega(A)), "lim I_p must be I^omega_p"),
    ], ids=["lim-K", "lim-I"])
    def test_kernel_diagram_lemmas(self, monkeypatch, name, broken, check):
        monkeypatch.setattr(zdiagrams, name, broken)
        with pytest.raises(zlinalg.TheoremViolation) as info:
            kernel_diagram(self.doubling(), 1)
        assert info.value.check == check
        assert info.value.witness == (1,)

    @pytest.mark.parametrize("name, broken, check", [
        ("limit_map", lambda f: zero_like(limit_map(f)), "lim sequence is not left exact"),
        ("colimit_map", lambda f: zero_like(colimit_map(f)), "colim sequence is not short exact"),
    ], ids=["lim", "colim"])
    def test_six_term_lemmas(self, monkeypatch, name, broken, check):
        B = ZDiagram.constant(Z)
        f = ZDiagramMorphism.on_window(B, B, {0: times(6)})
        g = ZDiagramMorphism.on_window(B, ZDiagram.constant(Z6), {0: Hom(Z, Z6, [[1]])})
        six_term_check(f, g)
        monkeypatch.setattr(zdiagrams, name, broken)
        with pytest.raises(zlinalg.TheoremViolation) as info:
            six_term_check(f, g)
        assert info.value.check == check


class TestKMonoCondition:
    def test_mono_structure_map(self):
        A = ZDiagram.from_maps(0, [times(3), times(2)], left_tail=Tail.ZERO)
        r = k_mono_condition(A, 1)
        assert r["holds"] and r["a_p_mono"]

    def test_zero_left_tail(self):
        A = ZDiagram.from_maps(0, [Hom(Z4, Z4, [[2]])], left_tail=Tail.ZERO)
        r = k_mono_condition(A, 0)
        assert r["holds"]

    def test_sufficient_conditions_never_contradict(self):
        for t in range(20):
            A = random_diagram(seeded(9000 + t))
            for p in range(A.p0 - 1, A.p1 + 1):
                r = k_mono_condition(A, p)
                if r["a_p_mono"] or r["omega_ml"]:
                    assert r["holds"]

    def test_answers_at_every_index(self):
        # x2 on Z with constant tails: the identity past the window
        A = ZDiagram.from_maps(0, [times(2)], Tail.CONSTANT, Tail.CONSTANT)
        assert (A.p0, A.p1) == (0, 1)
        for p in (A.p0 - 3, A.p1 + 1, A.p1 + 4):
            assert k_mono_condition(A, p) == k_mono_condition(A, A.padded_index(p)), p
        assert k_mono_condition(A, 5)["a_p_mono"]

    def test_matches_a_wider_window(self):
        for t in range(15):
            A = random_diagram(seeded(9100 + t))
            W = A.pad_to(A.p0 - 5, A.p1 + 5)
            for p in (A.p0 - 3, A.p1 + 1, A.p1 + 4):
                assert k_mono_condition(A, p) == k_mono_condition(W, p), (t, p)


class TestImageFactorization:
    def test_both_factorizations_induce_isos(self):
        for t in range(20):
            A = random_diagram(seeded(10_000 + t))
            QA, to_q = q_factor_diagram(A)
            IA, from_i = i_factor_diagram(A)
            assert colimit_map(to_q).is_iso()
            assert limit_map(to_q).is_iso()
            assert colimit_map(from_i).is_iso()
            assert limit_map(from_i).is_iso()


def fold(A, p, q):
    """The composite A_p -> A_q as a plain left fold of the structure maps."""
    f = Hom.identity(A.group_at(p))
    for r in range(p, q):
        f = A.map_at(r).compose(f)
    return f


def full_budget_towers(A):
    """``image_towers(A)`` the long way: every tower up to the budget, no memo."""
    budget = stabilization_budget(A.width)
    idx = A.padded_range()
    Is = [{p: fold(A, p - r, p).image() for p in idx} for r in range(1, budget + 1)]
    i_stab = next(r for r in range(1, budget) if Is[r] == Is[r - 1])
    return Is[:i_stab]


class TestMemo:
    def test_composite_equals_left_fold(self):
        for t in range(20):
            A = random_diagram(seeded(8000 + t))
            idx = list(A.padded_range())
            # longest composites last, so later calls extend cached prefixes
            pairs = sorted(((p, q) for p in idx for q in idx if p <= q),
                           key=lambda pq: (pq[1] - pq[0], pq))
            for p, q in pairs:
                assert A.composite(p, q) == fold(A, p, q), (t, p, q)
            for p, q in reversed(pairs):
                assert A.composite(p, q) == fold(A, p, q), (t, p, q)

    def test_identity_steps_return_the_kept_composite(self, monkeypatch):
        # interior identity maps, and the CONSTANT right tail: a composite
        # across an identity step is the composite one step short
        Z4 = FPAbGroup(0, (4,))
        f, g = Hom(Z4, Z4, [[3]]), Hom(Z4, Z4, [[2]])
        A = ZDiagram.from_maps(0, [f, Hom.identity(Z4), Hom.identity(Z4), g])
        idx = list(A.padded_range())
        pairs = [(p, q) for p in idx for q in idx if p <= q]
        steps = []
        compose = Hom.compose
        monkeypatch.setattr(Hom, "compose", lambda f, g: steps.append(f) or compose(f, g))
        composites = {pq: A.composite(*pq) for pq in pairs}
        monkeypatch.undo()
        # a step composes only through a map that is not the identity: f
        # after the zero map into A_0, and g after each of the four
        # composites into A_3 that are not one step
        assert sorted(map(id, steps)) == sorted(map(id, [f] + [g] * 4))
        for p, q in pairs:
            assert composites[p, q] == fold(A, p, q), (p, q)
            if q - 1 > p and A.map_at(q - 1).is_identity():
                assert A.composite(p, q) is A.composite(p, q - 1), (p, q)

    def test_wide_window_composes_once_per_step_without_deep_recursion(self, monkeypatch):
        # a first call across the window keeps the composite 64 steps back
        # first, so it recurses about width / 64 + 64 deep, not width deep
        Z3 = FPAbGroup(0, (3,))
        A = ZDiagram.from_maps(0, [Hom(Z3, Z3, [[2]])] * 3000)
        steps = []
        compose = Hom.compose
        monkeypatch.setattr(Hom, "compose", lambda f, g: steps.append(f) or compose(f, g))
        assert A.composite(0, 3005).matrix == ((pow(2, 3000, 3),),)
        assert A.composite(0, 2999).matrix == ((pow(2, 2999, 3),),)
        # 3001 steps from 0 to the padded index 3001; the first is a_0
        # itself, and the last, into the CONSTANT right tail, is the identity
        assert len(steps) == 2999

    def test_image_towers_match_full_budget_reference(self):
        for t in range(20):
            A = random_diagram(seeded(8100 + t))
            want = full_budget_towers(A)
            got = image_towers(A)
            assert got == want, t
            assert I_omega(A) == want[-1], t
            assert image_towers(A) is got

    def test_equal_diagrams_share_no_memo(self):
        for t in range(5):
            A = random_diagram(seeded(8200 + t))
            B = random_diagram(seeded(8200 + t))
            assert A == B and A is not B
            filtrations(A)
            assert A._memo and not B._memo
            assert filtrations(B) is not filtrations(A)
            assert A._memo is not B._memo

    def test_tail_maps_are_built_once_and_keyed_past_the_padded_window(self):
        # under a ZERO left tail the map into A_{p0} is 0 -> A_{p0} but every
        # map before it is 0 -> 0, so their key is not padded_index; tail maps
        # are shared by value in the open result table
        Z4, Z0 = FPAbGroup(0, (4,)), FPAbGroup()
        with zlinalg.shared_results({}):
            A = ZDiagram.from_maps(0, [Hom(Z4, Z4, [[2]])], Tail.ZERO, Tail.ZERO)
            into, before = A.map_at(-1), A.map_at(-2)
            assert (into.domain, into.codomain) == (Z0, Z4)
            assert (before.domain, before.codomain) == (Z0, Z0) and into != before
            out_of, after = A.map_at(1), A.map_at(2)
            assert (out_of.domain, out_of.codomain) == (Z4, Z0)
            assert (after.domain, after.codomain) == (Z0, Z0) and out_of != after
            assert A.map_at(-9) is before and A.map_at(9) is after
            for t in range(30):
                A = random_diagram(seeded(8400 + t))
                for p in range(A.p0 - 4, A.p1 + 4):
                    f = A.map_at(p)
                    assert (f.domain, f.codomain) == (A.group_at(p), A.group_at(p + 1)), (t, p)
                    tail = A.left_tail if p < A.p0 else A.right_tail
                    if not A.p0 <= p < A.p1:
                        assert f == (Hom.identity(f.domain) if tail is Tail.CONSTANT
                                     else Hom.zero_map(f.domain, f.codomain)), (t, p)
                    assert A.map_at(p) is f, (t, p)

    def test_window_ends_are_stored_when_built(self):
        for t in range(10):
            A = random_diagram(seeded(8500 + t))
            # fields of the instance, not properties, and not in its repr
            assert (vars(A)["p0"], vars(A)["p1"]) == (A.p0, A.p1) == A.window
            B = A.pad_to(A.p0 - 2, A.p1 + 1)
            assert (B.p0, B.p1) == (A.p0 - 2, A.p1 + 1) == B.window
            assert "p0=" not in repr(A) and "p1=" not in repr(A)

    def test_memo_changes_neither_equality_nor_hash(self):
        for t in range(5):
            A = random_diagram(seeded(8300 + t))
            B = random_diagram(seeded(8300 + t))
            before = hash(A)
            filtrations(A)
            image_towers(A)
            A.composite(A.p0 - 1, A.p1 + 1)
            assert A._memo
            assert hash(A) == before == hash(B)
            assert A == B and B == A
            assert "_memo" not in repr(A)


MONO_LIM_AUX = ("auxiliary clause (Im R mono / F_p mono / lim F = 0 / colim = 0"
                " / eventually vanishing)")
ISO_LIM_AUX = "auxiliary clause (R = 0 / lim F = 0 / colims trivial / eventually vanishing)"

# every zcompare rule, in order: its clauses, in the order they are checked,
# and its conclusion
ZCOMPARE_CLAUSES = {
    "mono-colim": (["eps_p all mono", "lim F map mono"], "colim map mono"),
    "epi-colim": (["eps_p all iso", "lim F map epi", "lim1 F tower zero"], "colim map epi"),
    "iso-colim": (["eps_p all iso", "lim F map epi", "lim1 F tower zero", "lim F map iso"],
                  "colim map iso"),
    "mono-lim": (["eps^p all mono", MONO_LIM_AUX], "lim map mono"),
    "iso-lim-1": (["eps^p all iso", "Im R map iso"], "lim map iso"),
    "iso-lim-2": (["eps^p all iso", ISO_LIM_AUX], "lim map iso"),
    "epi-lim": (["eps^p all epi", "kernels of structure maps satisfy DCC"],
                "map on colim F^ epi (lim map epi here)"),
}

# n -> {rule: the clause it fails at} for x n on the constant diagram Z; the
# rules not listed pass
ZCOMPARE_FAILURES_ON_Z = {
    1: {"iso-lim-2": ISO_LIM_AUX},
    2: {"epi-colim": "lim F map epi", "iso-colim": "lim F map epi",
        "iso-lim-1": "Im R map iso", "iso-lim-2": ISO_LIM_AUX},
    3: {"epi-colim": "lim F map epi", "iso-colim": "lim F map epi",
        "iso-lim-1": "Im R map iso", "iso-lim-2": ISO_LIM_AUX},
    0: {"mono-colim": "lim F map mono", "epi-colim": "lim F map epi",
        "iso-colim": "lim F map epi", "mono-lim": MONO_LIM_AUX,
        "iso-lim-1": "Im R map iso", "iso-lim-2": ISO_LIM_AUX},
}


class TestZCompare:
    @pytest.mark.parametrize("n", [1, 2, 3, 0])
    def test_whole_verdicts_on_constant_Z(self, n):
        A = ZDiagram.constant(Z)
        if n == 1:
            f = ZDiagramMorphism.identity(A)
        else:
            f = ZDiagramMorphism.on_window(A, A, {0: times(n)})
        assert list(ZCOMPARE_RULES) == list(ZCOMPARE_CLAUSES)
        for rule in ZCOMPARE_RULES:
            want = expected_outcome(ZCOMPARE_CLAUSES[rule], {"rule": rule},
                                    ZCOMPARE_FAILURES_ON_Z[n].get(rule))
            assert_outcome(lambda: zcompare(f, rule), want)

    def test_false_conclusion_raises_assertion_error(self):
        rules = {"r": ((("holds", lambda facts: True),), "never", lambda facts: False)}
        verdict = {"rule": "r", "hypotheses": []}
        with pytest.raises(AssertionError):
            apply_rule(rules, "r", verdict, lambda: None)
        assert verdict == {"rule": "r", "hypotheses": [("holds", True)],
                           "conclusion": "never"}

    def test_unknown_rule_builds_no_facts(self):
        def make_facts():
            raise RuntimeError("facts built for an unknown rule")

        with pytest.raises(ValueError):
            apply_rule({}, "r", {"rule": "r", "hypotheses": []}, make_facts)

    def test_identity_passes_every_rule(self):
        A = ZDiagram.from_maps(0, [times(2)], left_tail=Tail.ZERO)
        idm = ZDiagramMorphism.identity(A)
        for rule in ZCOMPARE_RULES:
            assert zcompare(idm, rule)["ok"], rule

    def test_doubling_inclusion_fails_epi_colim(self):
        A = ZDiagram.constant(Z)
        B = ZDiagram.constant(Z)
        f = ZDiagramMorphism.on_window(A, B, {0: times(2)})
        with pytest.raises(HypothesisFailed) as exc:
            zcompare(f, "epi-colim")
        rule, clause, _ = exc.value.args[0]
        assert clause == "lim F map epi"
        assert not colimit_map(f).is_epi()

    def test_mono_colim_rule_positive(self):
        # x3: Z -> Z as constant diagrams: eps maps are all iso( = 0), and the
        # lim F restriction is x3 on Z, a mono; the rule concludes f_infinity
        # is mono, which x3 indeed is.
        A = ZDiagram.constant(Z)
        f = ZDiagramMorphism.on_window(A, A, {0: times(3)})
        v = zcompare(f, "mono-colim")
        assert v["ok"] and v["conclusion"] == "colim map mono"

    @staticmethod
    def zero_morphism_failing_first_restrict(monkeypatch, error):
        """The zero map Z -> Z, with the first ``Hom.restrict`` call raising.

        No auxiliary clause of mono-lim holds for it, and the first restrict
        in that rule is the one onto Im R.
        """
        A = ZDiagram.constant(Z)
        f = ZDiagramMorphism.on_window(A, A, {0: times(0)})
        restrict = Hom.restrict
        calls = []

        def first_call_fails(self, S, T):
            calls.append((S, T))
            if len(calls) == 1:
                raise error
            return restrict(self, S, T)

        monkeypatch.setattr(Hom, "restrict", first_call_fails)
        return f, calls

    def test_mono_lim_clause_false_when_restrict_fails(self, monkeypatch):
        f, calls = self.zero_morphism_failing_first_restrict(
            monkeypatch, ContainmentViolation("forced"))
        with pytest.raises(HypothesisFailed) as exc:
            zcompare(f, "mono-lim")
        rule, clause, hypotheses = exc.value.args[0]
        assert clause.startswith("auxiliary clause")
        assert hypotheses[-1] == (clause, False)
        assert len(calls) > 1

    def test_mono_lim_lets_other_errors_through(self, monkeypatch):
        f, _ = self.zero_morphism_failing_first_restrict(
            monkeypatch, RuntimeError("not a containment failure"))
        with pytest.raises(RuntimeError):
            zcompare(f, "mono-lim")

    def test_unknown_rule(self):
        A = ZDiagram.constant(Z)
        with pytest.raises(ValueError):
            zcompare(ZDiagramMorphism.identity(A), "no-such-rule")


class TestPaddedIndex:
    """Values read at ``padded_index(p)`` against the same diagram on a
    window five steps wider on each side (``pad_to``)."""

    def test_values_match_a_wider_window(self):
        for t in range(30):
            A = random_diagram(seeded(12_000 + t))
            W = A.pad_to(A.p0 - 5, A.p1 + 5)
            idx = range(W.p0, W.p1 + 1)
            tables = {
                "I_omega": (I_omega(A), I_omega(W)),
                "stable_image": (stable_image(A), stable_image(W)),
                "cocone": (colimit(A)[1], colimit(W)[1]),
                "cone": (limit_and_lim1(A)[1], limit_and_lim1(W)[1]),
            }
            for p in idx:
                for name, (at_A, at_W) in tables.items():
                    assert at_A[A.padded_index(p)] == at_W[p], (t, name, p)
                for q in range(p, W.p1 + 1):
                    assert A.composite(p, q) == W.composite(p, q), (t, p, q)

    def test_components_match_a_wider_window(self):
        for t in range(15):
            A = random_diagram(seeded(12_100 + t))
            for f in (*make_ses(seeded(12_200 + t)), q_factor_diagram(A)[1], i_factor_diagram(A)[1]):
                S, T = f.source, f.target
                lo, hi = S.p0 - 5, S.p1 + 5
                # endpoints and naturality on the wide window pin down every
                # tail component
                wide = ZDiagramMorphism(S.pad_to(lo, hi), T.pad_to(lo, hi),
                                        tuple(f.component(p) for p in range(lo - 1, hi + 2)))
                assert colimit_map(wide) == colimit_map(f), t
                assert limit_map(wide) == limit_map(f), t

    def test_on_window_fills_only_past_the_common_window(self):
        Z0 = ZDiagram.from_maps(0, [times(0), times(0)], Tail.CONSTANT, Tail.CONSTANT)
        f = ZDiagramMorphism.on_window(Z0, Z0, {0: times(2), 2: times(3)})
        assert [f.component(p) for p in (-1, 0, 1, 2, 3)] == \
            [times(2), times(2), times(0), times(3), times(3)]
        A = ZDiagram.from_maps(0, [times(1), times(1)], Tail.CONSTANT, Tail.CONSTANT)
        with pytest.raises(NotAMorphism) as exc:
            ZDiagramMorphism.on_window(A, A, {0: times(2), 1: times(2), 2: times(2), 5: times(3)})
        assert exc.value.args == (("component outside the padded window", 5),)
        g = ZDiagramMorphism.on_window(A, A, {0: times(2), 1: times(2), 2: times(2), 5: times(2)})
        assert g.component(-4) == g.component(9) == times(2)


class TestValidation:
    def test_bad_window(self):
        with pytest.raises(ValueError):
            ZDiagram((1, 0), (), ())

    def test_endpoint_mismatch(self):
        with pytest.raises(ValueError):
            ZDiagram((0, 1), (Z, Z4), (times(2),))

    def test_morphism_naturality_enforced(self):
        A = ZDiagram.from_maps(0, [times(2)], left_tail=Tail.ZERO)
        B = ZDiagram.from_maps(0, [times(4)], left_tail=Tail.ZERO)
        # f_0 = id, f_1 = id does not commute with x2 vs x4
        with pytest.raises(ValueError):
            ZDiagramMorphism(
                A,
                B,
                (
                    Hom.zero_map(FPAbGroup(), FPAbGroup()),
                    Hom.identity(Z),
                    Hom.identity(Z),
                    Hom.identity(Z),
                ),
            )
