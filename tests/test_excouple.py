"""Exact couples: demo values, derived couples, abutments, comparisons."""

from collections import Counter

import pytest

from specseq import excouple, zlinalg
from specseq.zlinalg import (
    FPAbGroup,
    Hom,
    Subgroup,
    SubquotientData,
    TheoremViolation,
    direct_sum,
    induced_map,
    subquotient,
)
from specseq.zdiagrams import HypothesisFailed, Tail
from specseq.spectral import (
    BigradedGroup,
    NotAMorphism,
    Page,
    SpectralSequence,
    SSMorphism,
    homological_rule,
    spectral_sequence_from_page,
    turn_page,
)
from specseq.excouple import (
    COMPARE_RULES,
    DEMO_BIDEGREES,
    Bidegrees,
    BidegreeMismatch,
    CoupleMorphism,
    ExactCouple,
    NotAComplex,
    NotFiltered,
    NotRegular,
    NotUnimodular,
    SetupViolation,
    compare_abutments,
    couple_direct_sum,
    couple_from_filtered_complex,
    couple_from_json,
    couple_to_json,
    demo_couple,
    zeeman_check,
    zero_couple,
)
from specseq.zdiagrams import NotExact

from conftest import (
    assert_outcome,
    doubling_morphism_data,
    expected_outcome,
    lift_and_hermite,
    random_filtered_complex,
    seeded,
)

Z = FPAbGroup(1)
Z2 = FPAbGroup(0, (2,))
Z3 = FPAbGroup(0, (3,))
Z6 = FPAbGroup(0, (6,))


class TestBidegrees:
    def test_regularity_enforced(self):
        with pytest.raises(NotRegular):
            Bidegrees((2, 0), (0, 0), (0, 2))

    def test_demo_sigma(self):
        assert DEMO_BIDEGREES.sigma == -1
        assert DEMO_BIDEGREES.z == (-1, 0)

    def test_differential_bidegree(self):
        assert DEMO_BIDEGREES.differential_bidegree(1) == (-1, 0)
        assert DEMO_BIDEGREES.differential_bidegree(3) == (-3, 2)

    def test_derived_fields_leave_equality_hash_and_repr(self):
        bd = Bidegrees([1, -1], [0, 0], [-1, 0])
        assert (bd.z, bd.sigma) == ((-1, 0), -1)
        assert bd == DEMO_BIDEGREES and hash(bd) == hash(DEMO_BIDEGREES)
        assert repr(bd) == "Bidegrees(a=(1, -1), b=(0, 0), c=(-1, 0))"

    def test_positions_round_trip(self):
        # x = sigma*n*z + r*a for every integer x, on bidegrees of both signs
        rng = seeded(1502)
        signs = Counter()
        for _ in range(1000):
            bd = random_regular_bidegrees(rng)
            signs[bd.sigma] += 1
            C = ExactCouple(bd, {}, {}, {}, {}, {})
            for _ in range(5):
                x = (rng.randint(-40, 40), rng.randint(-40, 40))
                pi = C.position_index(x)
                assert pi.x == x and pi.n == excouple.det2(bd.a, x)
                assert C.position_on(pi.n, pi.r) == x
        assert min(signs[1], signs[-1]) > 300


class TestDemoCouples:
    """Three couples with the same one-point limit page but different abutments."""

    def test_all_validate_and_collapse(self):
        for name in ("couple1", "couple2", "couple3"):
            C = demo_couple(name)
            C.validate()
            ss = C.internal_spectral_sequence()
            assert ss.collapse_page() == 1
            einf = C.e_infinity()
            assert einf[(0, 0)]["sq"].group == Z6

    def test_pairwise_identical_pages(self):
        # identical spectral sequences position by position, page by page
        sss = [demo_couple(n).internal_spectral_sequence() for n in
               ("couple1", "couple2", "couple3")]
        for r in range(1, 5):
            for x in [(0, 0), (1, -1), (-1, 0)]:
                groups = [ss.page(r).objects.at(x) for ss in sss]
                assert groups[0] == groups[1] == groups[2]

    def test_couple1_matches_colimit(self):
        C = demo_couple("couple1")
        ab = C.abutments(0)
        assert ab.colim == Z6 and ab.lim.is_trivial()
        assert C.classify((0, 0))["label"] == "MatchesColimit"

    def test_couple2_proper_extension(self):
        C = demo_couple("couple2")
        ab = C.abutments(0)
        assert ab.colim == Z2 and ab.lim == Z3
        assert C.classify((0, 0))["label"] == "StableProperExtension"

    def test_couple3_matches_limit(self):
        C = demo_couple("couple3")
        ab = C.abutments(0)
        assert ab.colim.is_trivial() and ab.lim == Z6
        assert C.classify((0, 0))["label"] == "MatchesLimit"

    def test_broken_couple_rejected(self):
        C = demo_couple("couple2")
        bad_j = {x: Hom.zero_map(f.domain, f.codomain) for x, f in C.j.items()}
        broken = ExactCouple(C.bidegrees, C.D, C.E, C.i, bad_j, C.k,
                             C.diagonal_tails)
        with pytest.raises(NotExact):
            broken.validate()

    def test_default_maps_are_built_once(self):
        for name in ("couple1", "couple2", "couple3"):
            C = demo_couple(name)
            C.validate()
            xs = [*C._d_check_positions(), (40, -40)]
            for x in xs:
                for at in (C.i_at, C.j_at, C.k_at):
                    f = at(x)
                    assert at(x) is f and at(list(x)) is f, (name, x, at.__name__)
            assert any(C.j_at(x).is_zero() for x in xs)
            assert any(C.k_at(x).is_zero() for x in xs)


class TestExtensions:
    def test_couple2_page_extension(self):
        assert demo_couple("couple2").er_extension_check((0, 0), 1) == (Z2, Z6, Z3)

    def test_extension_of_zeros(self):
        left, middle, right = demo_couple("couple1").er_extension_check((7, -7), 2)
        assert left.is_trivial() and right.is_trivial()
        assert middle.is_trivial()

    def test_order_counting_on_random_couples(self):
        rng = seeded(31)
        for _ in range(12):
            C = couple_from_filtered_complex(*random_filtered_complex(rng))
            for x in list(C.D)[:4]:
                for r in (1, 2):
                    # internal asserts include |middle| = |left| * |right|
                    C.er_extension_check(x, r)

    def test_extension_report_couple2(self):
        rep = demo_couple("couple2").extension_report((0, 0))
        assert rep["stable"]
        assert rep["eps"] == Z2
        assert rep["stable_e"] == Z6
        assert rep["eps_upper"] == Z3
        assert rep["M_iso"]
        assert rep["lim1_zero"]


class TestSpectralSequenceReuse:
    @staticmethod
    def count_pages(monkeypatch):
        """Record the page index of every ``internal_page`` call."""
        built = []
        page = ExactCouple.internal_page

        def counted(self, r):
            built.append(r)
            return page(self, r)

        monkeypatch.setattr(ExactCouple, "internal_page", counted)
        return built

    def test_e_infinity_reuses_the_checked_build(self, monkeypatch):
        built = self.count_pages(monkeypatch)
        rng = seeded(97)
        for _ in range(6):
            C = couple_from_filtered_complex(*random_filtered_complex(rng))
            ss = C.internal_spectral_sequence()
            assert built == [1]
            C.e_infinity()
            # each page up to the support-settled one is computed once, when
            # the sequence first turns to it; later pages are turned without it
            assert built == list(range(1, ss.support_settled_page() + 1))
            assert ss.top_r == ss.settled_page() and ss.differentials is None
            assert not any(ss.page(r).diffs
                           for r in range(ss.support_settled_page() + 1, ss.top_r + 1))
            built.clear()
            C.e_infinity()
            assert built == []
            assert C.internal_spectral_sequence() is ss
            assert built == []

    def test_e_infinity_keeps_its_build(self, monkeypatch):
        built = self.count_pages(monkeypatch)
        rng = seeded(98)
        for _ in range(4):
            C = couple_from_filtered_complex(*random_filtered_complex(rng))
            C.e_infinity()
            built.clear()
            C.internal_spectral_sequence()
            assert built == []

    def test_pages_asked_for_first_are_kept_and_checked(self, monkeypatch):
        built = self.count_pages(monkeypatch)
        rng = seeded(99)
        for _ in range(6):
            C = couple_from_filtered_complex(*random_filtered_complex(rng))
            ss = C.internal_spectral_sequence()
            ss.page(2)
            # one sequence: page 2 came from the source, with its check
            assert built == [1, 2]
            built.clear()
            assert C.internal_spectral_sequence() is ss
            C.e_infinity()
            assert built == list(range(3, ss.support_settled_page() + 1))
            built.clear()
            ss.page(ss.settled_page() + 2)
            # past the support-settled page the source is gone: zero differentials
            assert built == [] and ss.differentials is None

    def test_pages_past_the_source_agree_with_the_couple(self):
        """On the criterion-05 couples, every page the source is no longer
        asked for has no differential from the couple, and its cycles and
        boundaries are the ones the engine turned."""
        rng = seeded(20260823)
        unasked = 0
        for _ in range(200):
            C = couple_from_filtered_complex(*random_filtered_complex(rng))
            ss = C.internal_spectral_sequence()
            ss.e_infinity()
            for r in range(ss.support_settled_page() + 1, ss.settled_page() + 1):
                ip = C.internal_page(r)
                assert ip["d"] == {}
                for e in C.E:
                    assert (ip["Z"][e], ip["B"][e]) == (ss.anchored(r, e).Z, ss.anchored(r, e).B)
                unasked += 1
        assert unasked > 0


class TurnEveryPosition(SpectralSequence):
    """Reference engine: every position is turned through the kernel, the
    image and the lift-and-Hermite pull-back, also where no differential
    enters or leaves, and the source is asked for every page."""

    def advance(self):
        cur = self.pages[-1]
        v = cur.bidegree
        r_next = self.top_r + 1
        ambient = self.pages[0].objects
        sq_next = {}
        for x in ambient.positions():
            sq = self.subquotients[-1][x]
            K = cur.d_at(x).kernel()
            I = cur.d_at((x[0] - v[0], x[1] - v[1])).image()
            sq_next[x] = subquotient(lift_and_hermite(sq, K), lift_and_hermite(sq, I))
        support = {x: sq.group for x, sq in sq_next.items() if not sq.group.is_trivial()}
        diffs = self.differentials(r_next, sq_next)
        self.pages.append(Page(BigradedGroup(ambient.bounds, support), self.rule(r_next), diffs))
        self.subquotients.append(sq_next)
        return self.pages[-1]


class TestUntouchedPositions:
    def test_limit_pages_match_turning_every_position(self):
        """On the criterion-05 couples, keeping the subquotient of a position
        that no differential touches changes neither E-infinity (Z and B),
        nor the stabilization pages, nor the collapse page."""
        rng = seeded(20260823)
        kept = 0
        for _ in range(200):
            C = couple_from_filtered_complex(*random_filtered_complex(rng))
            ss = C.internal_spectral_sequence()
            einf, stab, data = ss.e_infinity()
            ref = TurnEveryPosition(ss.r0, ss.pages[0], ss.rule, C._checked_differentials)
            ref_einf, ref_stab, ref_data = ref.e_infinity()
            assert ref.top_r == ss.top_r
            assert einf == ref_einf and stab == ref_stab
            assert {x: (sq.Z, sq.B) for x, sq in data.items()} == \
                {x: (sq.Z, sq.B) for x, sq in ref_data.items()}
            assert ss.collapse_page() == ref.collapse_page()
            for r in range(ss.r0, ss.top_r):
                v = ss.pages[r - ss.r0].bidegree
                for x in C.E:
                    touched = {x, (x[0] - v[0], x[1] - v[1])} & set(ss.pages[r - ss.r0].diffs)
                    if not touched:
                        assert ss.anchored(r + 1, x) is ss.anchored(r, x)
                        kept += 1
        assert kept > 0


def seeded_couple(s):
    return couple_from_filtered_complex(
        *random_filtered_complex(seeded(s), max_degree=3, stages=4))


def later_differential_seeds(seeds=range(60)):
    """Seeds of couples whose spectral sequence has a nonzero d^r, r >= 2."""
    out = []
    for s in seeds:
        ss = seeded_couple(s).internal_spectral_sequence()
        ss.e_infinity()
        if any(p.diffs for p in ss.pages[1:]):
            out.append(s)
    return out


class TestPagesOnDemand:
    """A couple has one spectral sequence, grown from one differential source."""

    def test_e_infinity_after_an_early_page(self):
        seeds = later_differential_seeds()
        assert len(seeds) >= 8
        for s in seeds:
            C = seeded_couple(s)
            ss = C.internal_spectral_sequence()
            ss.page(2)
            _, _, data = ss.e_infinity()
            want = C.e_infinity()
            for e in C.E:
                assert (data[e].Z, data[e].B) == (want[e]["Z"], want[e]["B"])

    def test_limit_reads_do_not_grow_the_sequence(self):
        for C in (seeded_couple(3), demo_couple("couple2")):
            ss = C.internal_spectral_sequence()
            f = SSMorphism(ss, ss, {x: Hom.identity(G) for x, G in C.E.items()})
            C.e_infinity()
            top = ss.top_r
            assert top == ss.settled_page()
            for _ in range(3):
                ss.e_infinity()
                ss.collapse_page()
                C.e_infinity()
                assert f.iso_propagation(1)
                assert ss.top_r == top

    def test_limit_reads_do_not_grow_a_data_sequence(self):
        Z4 = FPAbGroup(0, (4,))
        ss = spectral_sequence_from_page(
            1, ((0, 1), (0, 0)), {(1, 0): Z4, (0, 0): Z2}, {(1, 0): Hom(Z4, Z2, [[1]])},
            homological_rule)
        f = SSMorphism(ss, ss, {(1, 0): Hom.identity(Z4), (0, 0): Hom.identity(Z2)})
        ss.e_infinity()
        top = ss.top_r
        for _ in range(3):
            ss.e_infinity()
            ss.collapse_page()
            assert f.iso_propagation(1)
            assert ss.top_r == top

    def test_settled_couple_is_freed_without_the_collector(self):
        import gc
        import weakref

        gc.collect()
        gc.disable()
        try:
            refs = []
            for s in range(4):
                C = seeded_couple(s)
                C.e_infinity()
                refs.append(weakref.ref(C))
                del C
            assert [r() for r in refs] == [None] * 4
        finally:
            gc.enable()


class TestTheoremChecks:
    def test_broken_page_anchoring_raises(self, broken_page_anchoring):
        ss = demo_couple("couple2").internal_spectral_sequence()
        with pytest.raises(zlinalg.TheoremViolation) as info:
            ss.page(2)
        assert info.value.check == "page anchoring disagrees"
        assert info.value.witness == ((0, 0), 2)
        # e_infinity always runs the same comparison
        with pytest.raises(zlinalg.TheoremViolation):
            demo_couple("couple2").e_infinity()


def full_analysis(C):
    """Comparable values of a couple's whole analysis: pages, E-infinity,
    abutments of every diagonal and the label of every position."""
    ss = C.internal_spectral_sequence()
    pages = [
        ({x: p.objects.at(x) for x in p.objects.positions()}, dict(p.diffs))
        for p in map(ss.page, range(ss.r0, ss.settled_page() + 1))
    ]
    einf = {e: v["sq"].group for e, v in C.e_infinity().items()}
    b = C.bidegrees.b
    xs = sorted((e[0] - b[0], e[1] - b[1]) for e in C.E)
    abut = {}
    for n in sorted({C.position_index(x).n for x in [*C.D, *xs]}):
        ab = C.abutments(n)
        abut[n] = (
            ab.colim,
            ab.lim,
            {x: sq.group for x, sq in ab.eps.items()},
            {x: sq.group for x, sq in ab.eps_upper.items()},
        )
    labels = {x: C.classify(x)["label"] for x in xs}
    return pages, einf, abut, labels


def shared_results_inputs():
    """Builders of the three demo couples and of seeded filtered complexes."""
    builders = [lambda name=name: demo_couple(name)
                for name in ("couple1", "couple2", "couple3")]
    rng = seeded(113)
    for _ in range(8):
        data = random_filtered_complex(rng)
        builders.append(lambda data=data: couple_from_filtered_complex(*data))
    return builders


class TestSharedResults:
    """Each couple's analysis shares kernels, images and subquotients."""

    def test_values_equal_unshared_run(self, monkeypatch):
        builders = shared_results_inputs()
        shared = [full_analysis(build()) for build in builders]
        monkeypatch.setattr(zlinalg, "_shared", lambda key, compute: compute())
        unshared = [full_analysis(build()) for build in builders]
        assert shared == unshared

    def test_no_table_left_open(self):
        assert zlinalg._results.get() is None
        for build in shared_results_inputs()[:5]:
            C = build()
            assert zlinalg._results.get() is None
            C.validate()
            assert zlinalg._results.get() is None
            full_analysis(C)
            assert zlinalg._results.get() is None
            x = min(C.D, default=(0, 0))
            C.er_extension_check(x, 1)
            C.extension_report(x)
            C.internal_page(2)
            assert zlinalg._results.get() is None
        C = demo_couple("couple2")
        bad_j = {x: Hom.zero_map(f.domain, f.codomain) for x, f in C.j.items()}
        broken = ExactCouple(C.bidegrees, C.D, C.E, C.i, bad_j, C.k,
                             C.diagonal_tails)
        with pytest.raises(NotExact):
            broken.validate()
        assert zlinalg._results.get() is None

    def test_equal_couples_get_distinct_tables(self):
        for build in shared_results_inputs()[1:5]:
            C1, C2 = build(), build()
            assert C1._results is not C2._results
            before = dict(C2._results)
            full_analysis(C1)
            assert C2._results == before
            assert len(C1._results) > len(before)

    def test_each_subquotient_built_once(self, monkeypatch):
        built = Counter()
        init = SubquotientData.__init__

        def counted(self, Z, B):
            built[(Z, B)] += 1
            init(self, Z, B)

        monkeypatch.setattr(SubquotientData, "__init__", counted)
        for build in shared_results_inputs():
            built.clear()
            full_analysis(build())
            assert built and max(built.values()) == 1

    def test_abutments_computed_once_per_diagonal(self, monkeypatch):
        runs = []
        filtrations = excouple.filtrations

        def counted(dia):
            runs.append(dia)
            return filtrations(dia)

        monkeypatch.setattr(excouple, "filtrations", counted)
        for build in shared_results_inputs():
            C = build()
            x = min(C.D, default=(0, 0))
            n = C.position_index(x).n
            fresh = build()
            fresh.extension_report(x)
            assert runs  # the report needs the abutments of x's diagonal
            ab = C.abutments(n)
            assert C.abutments(n) is ab
            runs.clear()
            C.extension_report(x)
            C.classify(x)
            assert runs == []
            assert C.abutments(n) is ab


class TestRandomCouples:
    def test_internal_pages_match_turned_pages(self):
        # the anchored engine pages double-check the internal cycle and
        # boundary subgroups; turning each page once re-derives the next
        rng = seeded(59)
        for _ in range(25):
            C = couple_from_filtered_complex(*random_filtered_complex(rng))
            ss = C.internal_spectral_sequence()
            for r in range(1, 5):
                objs, _ = turn_page(ss.page(r))
                nxt = ss.page(r + 1).objects
                for x in set(objs.positions()) | set(nxt.positions()):
                    assert objs.at(x) == nxt.at(x)
            C.e_infinity()

    def test_abutments_of_known_complex(self):
        # 0 -> Z --2--> Z -> 0, two-stage filtration by the even subgroup
        groups = {0: Z, 1: Z}
        diffs = {1: Hom(Z, Z, [[2]])}
        filtration = {
            0: {0: Subgroup.from_generators(Z, [(2,)]), 1: Subgroup.zero(Z)},
            1: {0: Subgroup.full(Z), 1: Subgroup.full(Z)},
        }
        C = couple_from_filtered_complex(groups, diffs, filtration)
        C.validate()
        assert C.abutments(0).colim == Z2
        assert C.abutments(1).colim.is_trivial()

    def test_random_abutments_recover_homology(self):
        rng = seeded(83)
        for _ in range(10):
            groups, diffs, filtration = random_filtered_complex(rng)
            C = couple_from_filtered_complex(groups, diffs, filtration)
            top = max(groups)
            for n in range(top + 1):
                cycles = diffs[n].kernel() if n in diffs else Subgroup.full(groups[n])
                bnds = (diffs[n + 1].image() if n + 1 in diffs
                        else Subgroup.zero(groups[n]))
                H = subquotient(cycles, bnds).group
                assert C.abutments(n).colim == H


def filtered_complex_couple_by_closures(groups, diffs, filtration):
    """The filtered-complex couple as it was built before the stage tables:
    every stage homology is recomputed by the closures for each of its uses."""
    trivial = FPAbGroup()
    groups = {n: G for n, G in groups.items() if not G.is_trivial()}

    def C_at(n):
        return groups.get(n, trivial)

    def d_at(n):
        f = diffs.get(n)
        if f is None:
            return Hom.zero_map(C_at(n), C_at(n - 1))
        if f.domain != C_at(n) or f.codomain != C_at(n - 1):
            raise ValueError("differential endpoints disagree in degree %d" % n)
        return f

    degrees = sorted(groups)
    if not degrees:
        degrees = [0]
    for n in degrees:
        if not d_at(n).compose(d_at(n + 1)).is_zero():
            raise NotAComplex(n + 1)
    ps = sorted(filtration)
    if not ps:
        raise NotFiltered("at least one filtration stage is required")
    pmin, pmax = ps[0], ps[-1]

    def F_at(p, n):
        if p < pmin:
            return Subgroup.zero(C_at(n))
        if p > pmax:
            return Subgroup.full(C_at(n))
        S = filtration[p].get(n)
        if S is None:
            return Subgroup.zero(C_at(n))
        if S.ambient != C_at(n):
            raise NotFiltered((p, n, "stage not inside its chain group"))
        return S

    for p in range(pmin, pmax + 1):
        for n in degrees:
            if not F_at(p + 1, n).contains_subgroup(F_at(p, n)):
                raise NotFiltered((p, n, "stages not nested"))
            moved = d_at(n).image_of_subgroup(F_at(p, n))
            if not F_at(p, n - 1).contains_subgroup(moved):
                raise NotFiltered((p, n, "differential leaves the stage"))

    def sq_D(p, n):
        Z = d_at(n).kernel().intersection(F_at(p, n))
        B = d_at(n + 1).image_of_subgroup(F_at(p, n + 1))
        return subquotient(Z, B)

    def sq_E(p, n):
        Z = d_at(n).preimage(F_at(p - 1, n - 1)).intersection(F_at(p, n))
        B = d_at(n + 1).image_of_subgroup(F_at(p, n + 1)).sum(F_at(p - 1, n))
        return subquotient(Z, B)

    D, E, i, j, k = {}, {}, {}, {}, {}
    for n in range(degrees[0] - 1, degrees[-1] + 2):
        for p in range(pmin, pmax + 2):
            pos = (p, n - p)
            dD = sq_D(p, n)
            dE = sq_E(p, n)
            D[pos] = dD.group
            E[pos] = dE.group
            ident = Hom.identity(C_at(n))
            if p <= pmax:
                i[pos] = induced_map(ident, dD, sq_D(p + 1, n))
            j[pos] = induced_map(ident, dD, dE)
            k[pos] = induced_map(d_at(n), dE, sq_D(p - 1, n - 1))
    tails = {}
    for n in range(degrees[0] - 1, degrees[-1] + 2):
        right = Tail.CONSTANT if not sq_D(pmax + 1, n).group.is_trivial() else Tail.ZERO
        tails[n] = (Tail.ZERO, right)
    return ExactCouple(Bidegrees((1, -1), (0, 0), (-1, 0)), D, E, i, j, k, tails)


def varied_filtered_complexes(count):
    """Seeded filtered complexes of several shapes, some of them refused.

    Besides ``random_filtered_complex``'s shapes (trivial chain groups among
    them), stages start at a shifted p, one-stage filtrations occur, some
    differentials are left out (they are zero), some stages leave a degree
    undeclared (it is zero there, which may break nesting or closure) and
    some complexes declare trivial chain groups past their top degree.
    """
    rng = seeded(1501)
    settings = [(1, 1), (2, None), (3, 4), (3, 1), (4, 2), (2, 5)]
    for t in range(count):
        max_degree, stages = settings[t % len(settings)]
        groups, diffs, filtration = random_filtered_complex(rng, max_degree, stages)
        shift = rng.randint(-2, 2)
        filtration = {p + shift: dict(level) for p, level in filtration.items()}
        for n in list(diffs):
            if rng.random() < 0.25:
                del diffs[n]
        for level in filtration.values():
            for n in list(level):
                if rng.random() < 0.05:
                    del level[n]
        if rng.random() < 0.3:
            groups[max(groups) + rng.randint(1, 2)] = FPAbGroup()
        yield groups, diffs, filtration


def construction_outcome(build, data):
    """The couple's JSON and tails, or the type and args of the refusal."""
    try:
        C = build(*data)
    except (NotAComplex, NotFiltered, ValueError) as ex:
        return type(ex), ex.args
    return couple_to_json(C), C.diagonal_tails


# Each refusal of the construction with the exact exception it raises: the
# inputs are (groups, diffs, filtration).
REFUSALS = {
    "no stages": (
        ({0: Z}, {}, {}),
        NotFiltered("at least one filtration stage is required")),
    "d o d != 0": (
        ({0: Z, 1: Z, 2: Z}, {1: Hom(Z, Z, [[1]]), 2: Hom(Z, Z, [[1]])},
         {0: {n: Subgroup.full(Z) for n in range(3)}}),
        NotAComplex(2)),
    "differential with the wrong domain": (
        ({0: Z, 1: Z}, {1: Hom(Z2, Z, [[0]])}, {0: {0: Subgroup.full(Z)}}),
        ValueError("differential endpoints disagree in degree 1")),
    "stage in another group": (
        ({0: Z}, {}, {0: {0: Subgroup.full(Z2)}}),
        NotFiltered((0, 0, "stage not inside its chain group"))),
    "stages not nested": (
        ({0: Z}, {}, {0: {0: Subgroup.full(Z)}, 1: {0: Subgroup.zero(Z)}}),
        NotFiltered((0, 0, "stages not nested"))),
    "differential leaves the stage": (
        ({0: Z, 1: Z}, {1: Hom(Z, Z, [[2]])},
         {0: {0: Subgroup.zero(Z), 1: Subgroup.full(Z)}}),
        NotFiltered((0, 1, "differential leaves the stage"))),
}


class TestFilteredComplexConstruction:
    """The couple of a filtered complex, read off one table of stage homologies."""

    @pytest.mark.parametrize("case", sorted(REFUSALS))
    def test_refusals_keep_type_and_args(self, case):
        data, want = REFUSALS[case]
        for build in (couple_from_filtered_complex, filtered_complex_couple_by_closures):
            with pytest.raises(type(want)) as exc:
                build(*data)
            assert type(exc.value) is type(want) and exc.value.args == want.args

    def test_couples_and_refusals_match_the_closures(self):
        outcomes = Counter()
        for data in varied_filtered_complexes(260):
            got = construction_outcome(couple_from_filtered_complex, data)
            want = construction_outcome(filtered_complex_couple_by_closures, data)
            assert got == want
            outcomes[isinstance(got[0], dict)] += 1
        # most inputs give couples, and some are refused
        assert outcomes[True] >= 200 and outcomes[False] > 0

    def test_one_subquotient_per_table_cell(self, monkeypatch):
        calls = []
        built = excouple.subquotient

        def counted(Z, B):
            calls.append((Z, B))
            return built(Z, B)

        groups, diffs, filtration = random_filtered_complex(seeded(5), max_degree=3, stages=4)
        monkeypatch.setattr(excouple, "subquotient", counted)
        couple_from_filtered_complex(groups, diffs, filtration)
        # H[p, n] for stages pmin-1..pmax+1 and degrees lo-1..hi, Q[p, n]
        # for stages pmin..pmax+1 and degrees lo..hi, where lo..hi are the
        # couple's diagonals, one past the chain groups on each side
        degrees = sorted(n for n, G in groups.items() if not G.is_trivial())
        stages, diagonals = len(filtration), degrees[-1] - degrees[0] + 3
        cells = (stages + 2) * (diagonals + 1) + (stages + 1) * diagonals
        assert 0 < len(calls) <= cells


def late_differential_couple(m, s):
    """The couple of Z --m--> Z, degree 0 entering at stage 0 and degree 1
    at stage s: its one nonzero differential is d^s, and E-infinity is Z/m
    at (0, 0)."""
    filtration = {p: {0: Subgroup.full(Z)} for p in range(s)}
    filtration[s] = {0: Subgroup.full(Z), 1: Subgroup.full(Z)}
    return couple_from_filtered_complex({0: Z, 1: Z}, {1: Hom(Z, Z, [[m]])}, filtration)


class TestDerivedCouples:
    def test_demo_derivations_validate(self):
        for name in ("couple1", "couple2", "couple3"):
            C = demo_couple(name)
            for variant in ("Q", "I"):
                D = C.derive(variant)
                D.validate()
            C.derivation_abutment_check()

    def test_derived_bidegrees(self):
        C = demo_couple("couple1")
        bd = C.bidegrees
        Q = C.derive("Q")
        I = C.derive("I")
        assert Q.bidegrees == Bidegrees(bd.a, bd.b, (bd.c[0] - bd.a[0], bd.c[1] - bd.a[1]))
        assert I.bidegrees == Bidegrees(bd.a, (bd.b[0] - bd.a[0], bd.b[1] - bd.a[1]), bd.c)

    def test_random_derivations(self):
        rng = seeded(47)
        for _ in range(6):
            C = couple_from_filtered_complex(*random_filtered_complex(rng, max_degree=2))
            C.derivation_abutment_check()

    def test_derivation_check_compares_every_stage(self, monkeypatch):
        # every stage of both filtrations is compared, also where the shifted
        # position lies outside the derived couple's window
        seen = Counter()
        require = excouple.require

        def recorded(holds, check, *witness):
            seen[check, witness] += 1
            require(holds, check, *witness)

        monkeypatch.setattr(excouple, "require", recorded)
        rng = seeded(47)
        couples = [demo_couple(name) for name in ("couple1", "couple2", "couple3")]
        couples += [couple_from_filtered_complex(*random_filtered_complex(rng, max_degree=2))
                    for _ in range(6)]
        outside = 0
        for C in couples:
            seen.clear()
            C.derivation_abutment_check()
            derived = {v: C.derive(v) for v in "QI"}
            a = C.bidegrees.a
            for n in C._content_diagonals():
                ab = C.abutments(n)
                for v, filt, stages, shift in (
                        ("Q", "image", ab.F, (0, 0)), ("I", "image", ab.F, a),
                        ("Q", "kernel", ab.F_upper, (-a[0], -a[1])),
                        ("I", "kernel", ab.F_upper, (0, 0))):
                    other = derived[v].abutments(n)
                    other = other.F if filt == "image" else other.F_upper
                    for x in stages:
                        check = "%s-derivation changes the %s filtration" % (v, filt)
                        assert seen[check, (n, x)] == 1, (check, n, x)
                        outside += (x[0] + shift[0], x[1] + shift[1]) not in other
        assert outside > 0

    def test_derived_pages_are_the_next_pages(self):
        # page r of either derived couple is page r + 1 of the couple, and
        # both have the couple's E-infinity
        couples = [demo_couple(name) for name in ("couple1", "couple2", "couple3")]
        rng = seeded(139)
        couples += [couple_from_filtered_complex(*random_filtered_complex(rng))
                    for _ in range(25)]
        # hand-built couples with one nonzero higher differential each
        late = [(m, s) for s in (2, 3) for m in (1, 2, 3)]
        couples += [late_differential_couple(m, s) for m, s in late]
        compared = 0
        higher = False
        for t, C in enumerate(couples):
            ss = C.internal_spectral_sequence()
            einf = {e: v["sq"].group for e, v in C.e_infinity().items()}
            higher |= any(ss.page(r).diffs for r in range(2, ss.settled_page() + 1))
            for variant in ("Q", "I"):
                D = C.derive(variant)
                dss = D.internal_spectral_sequence()
                for r in range(1, ss.settled_page()):
                    want, got = ss.page(r + 1).objects, dss.page(r).objects
                    for x in {*want.positions(), *got.positions()}:
                        assert got.at(x) == want.at(x), (t, variant, r, x)
                        compared += 1
                dinf = {e: v["sq"].group for e, v in D.e_infinity().items()}
                for e in {*einf, *dinf}:
                    assert dinf.get(e, FPAbGroup()) == einf.get(e, FPAbGroup()), (t, variant, e)
                    compared += 1
        assert compared >= 500
        assert higher
        for (m, s), C in zip(late, couples[-len(late):]):
            assert C.e_infinity()[(0, 0)]["sq"].group == FPAbGroup(0, (m,) if m > 1 else ())

    def test_lim1_couples_collapse_and_match_colimit(self):
        for name in ("couple1", "couple2", "couple3"):
            C = demo_couple(name)
            L = C.lim1_couple(0)
            assert L.internal_spectral_sequence().collapse_page() == 1
            assert all(L.classify(x)["label"] == "MatchesColimit" for x in L.D)

    def test_lim1_couple_checks_raise(self, monkeypatch):
        # a later collapse, or another label, is caught where it is proved
        for owner, name, broken, check in (
                (SpectralSequence, "collapse_page", lambda self: 2,
                 "lim^1 couple does not collapse on page 1"),
                (ExactCouple, "classify", lambda self, x: {"label": "MatchesLimit"},
                 "lim^1 couple does not match its colimit")):
            with monkeypatch.context() as m:
                m.setattr(owner, name, broken)
                with pytest.raises(TheoremViolation) as info:
                    demo_couple("couple3").lim1_couple(0)
            assert info.value.check == check and info.value.witness[0] == 0

    def test_lim1_couple_abuts_the_limit(self):
        C = demo_couple("couple3")
        L = C.lim1_couple(0)
        # its colimit abutment is the limit abutment of the original couple
        positions = sorted(L.D)
        assert positions and L.D[positions[-1]] == Z6


def random_regular_bidegrees(rng):
    while True:
        a = (rng.randint(-3, 3), rng.randint(-3, 3))
        b = (rng.randint(-3, 3), rng.randint(-3, 3))
        c = (rng.randint(-3, 3), rng.randint(-3, 3))
        try:
            return Bidegrees(a, b, c)
        except NotRegular:
            continue


class TestReindexing:
    def test_canonical_T_turns_homological(self):
        rng = seeded(73)
        for _ in range(20):
            bd = random_regular_bidegrees(rng)
            T = zero_couple(bd).canonical_T()
            (t00, t01), (t10, t11) = T
            assert t00 * t11 - t01 * t10 in (1, -1)
            ap = lambda v: (t00 * v[0] + t01 * v[1], t10 * v[0] + t11 * v[1])
            assert ap(bd.a) == (1, -1)
            assert ap(bd.z) == (-1, 0)

    def test_round_trip(self):
        C = demo_couple("couple2")
        T = ((1, 1), (0, 1))
        Tinv = ((1, -1), (0, 1))
        back = C.reindex(T).reindex(Tinv)
        assert back.D == C.D and back.E == C.E
        assert back.i == C.i and back.j == C.j and back.k == C.k

    def test_nonunimodular_rejected(self):
        with pytest.raises(NotUnimodular):
            demo_couple("couple1").reindex(((2, 0), (0, 1)))

    def test_reindexed_couple_validates(self):
        C = demo_couple("couple3").reindex(((0, 1), (1, 0)))
        C.validate()
        C.internal_spectral_sequence()


class TestDirectSums:
    def test_sum_of_demo_couples(self):
        C = demo_couple("couple1")
        S = couple_direct_sum(C, C)
        S.validate()
        assert S.abutments(0).colim == FPAbGroup(0, (6, 6))

    def test_zero_summand_is_neutral(self):
        C = demo_couple("couple3")
        S = couple_direct_sum(C, zero_couple(DEMO_BIDEGREES))
        assert S.E == C.E
        for x in set(S.D) | set(C.D):
            assert S.D_at(x) == C.D_at(x)
        assert S.abutments(0).lim == Z6

    def test_sums_of_filtered_complex_couples(self):
        """Summands with unequal tails: the sum validates, and its E-infinity
        and both abutments are the direct sums of the summands'."""
        unequal = 0
        for seed in range(15):
            rng = seeded(1000 + seed)
            C1 = couple_from_filtered_complex(*random_filtered_complex(rng))
            C2 = couple_from_filtered_complex(*random_filtered_complex(rng))
            unequal += any(C1.diagonal_tails.get(n, t) != t
                           for n, t in C2.diagonal_tails.items())
            S = couple_direct_sum(C1, C2)
            einf = [C.e_infinity() for C in (C1, C2, S)]
            for e in set(S.E) | set(C1.E) | set(C2.E):
                g1, g2, gs = (out[e]["sq"].group if e in out else FPAbGroup() for out in einf)
                assert gs == direct_sum([g1, g2])[0], (seed, e)
            for n in S._content_diagonals():
                a1, a2, a_s = (C.abutments(n) for C in (C1, C2, S))
                assert a_s.colim == direct_sum([a1.colim, a2.colim])[0], (seed, n)
                assert a_s.lim == direct_sum([a1.lim, a2.lim])[0], (seed, n)
        assert unequal >= 10

    def test_bidegree_mismatch_rejected(self):
        other = zero_couple(Bidegrees((1, -1), (0, 0), (0, -1)))
        with pytest.raises(BidegreeMismatch):
            couple_direct_sum(demo_couple("couple1"), other)


def identity_morphism(C):
    return CoupleMorphism(
        C, C,
        {x: Hom.identity(G) for x, G in C.D.items()},
        {x: Hom.identity(G) for x, G in C.E.items()},
    )


# every compare_abutments rule, in order: its clauses, in the order they are
# checked, and its conclusion
PAGES_MONO = "limit page maps all mono"
PAGES_ISO = "limit page maps all iso"
LIM_F_ISO = "map on lim of the image filtration iso"
IM_R_ISO = "map on the image of lim -> colim iso"
MATCH_LIMIT = "both sides match the limit abutment"
COMPARE_CLAUSES = {
    "mono-colim-1": ([PAGES_MONO, "map on lim of the image filtration mono"],
                     "colimit abutment map mono"),
    "mono-colim-2": ([PAGES_MONO, "lim of the source image filtration zero"],
                     "colimit abutment map mono"),
    "epi-colim": (["filtration quotient maps all iso", "map on lim of the image filtration epi"],
                  "colimit abutment map epi"),
    "iso-colim": (["filtration quotient maps all iso", LIM_F_ISO], "colimit abutment map iso"),
    "mono-lim-1": (["image filtrations constant on both sides", PAGES_MONO,
                    "map on the image of lim -> colim mono"], "limit abutment map mono"),
    "mono-lim-2": ([PAGES_MONO, "colimit abutments trivial on both sides",
                    "upper colimit abutment of the source trivial"], "limit abutment map mono"),
    "iso-universal": (["limit pages stable on both sides", PAGES_ISO,
                       "filtration quotient maps epi", LIM_F_ISO, IM_R_ISO],
                      "both abutment maps iso"),
    "iso-lim-1": ([MATCH_LIMIT, PAGES_ISO, IM_R_ISO], "limit abutment map iso"),
    "iso-lim-2": ([MATCH_LIMIT, PAGES_ISO, "auxiliary clause (R zero / lim F zero / upper"
                   " colims trivial / eventually vanishing)"], "limit abutment map iso"),
    "epi-lim": (["limit pages of the source stable", "limit page maps all epi",
                 "upper colimit abutments trivial on both sides",
                 "kernels of the upper tower maps satisfy a descending chain condition"],
                "limit abutment map epi"),
}

# demo couple -> {rule: the clause it fails at} for its identity on diagonal
# 0; the rules not listed pass
COMPARE_FAILURES = {
    "couple2": {"mono-lim-1": "image filtrations constant on both sides",
                "mono-lim-2": "colimit abutments trivial on both sides",
                "iso-lim-1": MATCH_LIMIT, "iso-lim-2": MATCH_LIMIT},
    "couple3": {},
}


def tower_morphism(iso_on):
    """An endomorphism of the couple with constant towers Z on diagonals 0
    and -1 (the lower and upper D-towers of diagonal 0, sigma = -1) and no
    E-objects: the identity on the ``iso_on`` tower, twice on the other."""
    bd = DEMO_BIDEGREES
    low, up = (0, 0), (-1, 0)
    tails = (Tail.CONSTANT, Tail.CONSTANT)
    C = ExactCouple(bd, {low: Z, up: Z}, {}, {}, {}, {}, {0: tails, -1: tails})
    C.validate()
    assert C.position_index(low).n == 0 and C.position_index(up).n == bd.sigma
    scale = {"lower": (1, 2), "upper": (2, 1)}[iso_on]
    return CoupleMorphism(C, C, {x: Hom(Z, Z, [[m]]) for x, m in zip((low, up), scale)}, {})


# tower the morphism is iso on -> {rule: the clause it fails at}; a clause
# read off the wrong tower changes one of these verdicts
TOWER_FAILURES = {
    "lower": {"mono-colim-2": "lim of the source image filtration zero",
              "mono-lim-2": "colimit abutments trivial on both sides",
              "iso-universal": IM_R_ISO, "iso-lim-1": IM_R_ISO,
              "iso-lim-2": COMPARE_CLAUSES["iso-lim-2"][0][2],
              "epi-lim": "upper colimit abutments trivial on both sides"},
    "upper": {"mono-colim-2": "lim of the source image filtration zero",
              "epi-colim": "map on lim of the image filtration epi",
              "iso-colim": LIM_F_ISO,
              "mono-lim-2": "colimit abutments trivial on both sides",
              "iso-universal": LIM_F_ISO,
              "iso-lim-2": COMPARE_CLAUSES["iso-lim-2"][0][2],
              "epi-lim": "upper colimit abutments trivial on both sides"},
}


class TestComparison:
    @pytest.mark.parametrize("name", ["couple2", "couple3"])
    def test_whole_verdicts_on_identity(self, name):
        f = identity_morphism(demo_couple(name))
        assert list(COMPARE_RULES) == list(COMPARE_CLAUSES)
        for rule in COMPARE_RULES:
            want = expected_outcome(COMPARE_CLAUSES[rule], {"rule": rule, "diagonal": 0},
                                    COMPARE_FAILURES[name].get(rule))
            assert_outcome(lambda: compare_abutments(f, rule, 0), want)

    @pytest.mark.parametrize("iso_on", ["lower", "upper"])
    def test_whole_verdicts_read_the_right_tower(self, iso_on):
        f = tower_morphism(iso_on)
        for rule in COMPARE_RULES:
            want = expected_outcome(COMPARE_CLAUSES[rule], {"rule": rule, "diagonal": 0},
                                    TOWER_FAILURES[iso_on].get(rule))
            assert_outcome(lambda: compare_abutments(f, rule, 0), want)

    def test_identity_satisfies_applicable_rules(self):
        C = demo_couple("couple3")
        for rule in COMPARE_RULES:
            assert compare_abutments(identity_morphism(C), rule, 0)["ok"]

    def test_rules_with_failing_hypotheses_raise(self):
        C = demo_couple("couple2")
        f = identity_morphism(C)
        with pytest.raises(HypothesisFailed):
            compare_abutments(f, "iso-lim-1", 0)

    def test_colimit_rules_on_random_identity(self):
        rng = seeded(19)
        for _ in range(5):
            C = couple_from_filtered_complex(*random_filtered_complex(rng, max_degree=2))
            f = identity_morphism(C)
            for rule in ("mono-colim-1", "epi-colim", "iso-colim"):
                try:
                    assert compare_abutments(f, rule, 0)["ok"]
                except HypothesisFailed:
                    pass


def doubling_morphism():
    src, tgt, fD, fE = doubling_morphism_data()
    return CoupleMorphism(
        src, tgt,
        {x: Hom(src.D_at(x), tgt.D_at(x), m) for x, m in fD.items()},
        {x: Hom(src.E_at(x), tgt.E_at(x), m) for x, m in fE.items()},
    )


class TestTowerMorphisms:
    """A couple morphism's D-components are one tower morphism per diagonal,
    filled past the common window from its end."""

    def test_tail_reads_the_common_window_end(self):
        f = doubling_morphism()
        dm = f.d_morphism(0)
        assert dm.source.window == dm.target.window == (0, 2)
        for r in (3, 4):
            assert dm.component(r).matrix == ((2,),), r
            assert f.fD_at(f.source.position_on(0, r)) == dm.component(r)
        assert compare_abutments(f, "mono-colim-1", 0)["ok"]

    def test_i_square_failure_names_the_tower(self):
        C = ExactCouple(DEMO_BIDEGREES, {(0, 0): Z}, {}, {}, {}, {},
                        {0: (Tail.CONSTANT, Tail.CONSTANT)})
        with pytest.raises(NotAMorphism) as exc:
            CoupleMorphism(C, C, {(0, 0): Hom(Z, Z, [[2]]), (1, -1): Hom(Z, Z, [[3]])}, {})
        assert exc.value.args == (("D-tower", 0, ("naturality square", 0)),)

    def test_component_outside_the_padded_window_must_match(self):
        C = ExactCouple(DEMO_BIDEGREES, {(0, 0): Z}, {}, {}, {}, {},
                        {0: (Tail.CONSTANT, Tail.CONSTANT)})
        twice = Hom(Z, Z, [[2]])
        f = CoupleMorphism(C, C, {(0, 0): twice, (5, -5): twice}, {})
        assert f.fD_at((-3, 3)) == f.fD_at((7, -7)) == twice
        with pytest.raises(NotAMorphism) as exc:
            CoupleMorphism(C, C, {(0, 0): twice, (5, -5): Hom(Z, Z, [[3]])}, {})
        assert exc.value.args == (("D-tower", 0, ("component outside the padded window", 5)),)


def two_row_morphism():
    objs = {(0, 0): Z, (1, 0): Z2, (0, 1): Z2}
    bounds = ((0, 1), (0, 1))
    src = spectral_sequence_from_page(2, bounds, objs, {}, homological_rule)
    tgt = spectral_sequence_from_page(2, bounds, objs, {}, homological_rule)
    return SSMorphism(src, tgt, {x: Hom.identity(G) for x, G in objs.items()})


def two_row_abutment():
    L1, incs, _ = direct_sum([Z2, Z2])
    return {
        0: (Z, [Subgroup.zero(Z), Subgroup.full(Z)]),
        1: (L1, [Subgroup.zero(L1), incs[0].image(), Subgroup.full(L1)]),
    }


class TestZeeman:
    def test_abutment_isos_force_page_isos(self):
        f = two_row_morphism()
        abut = two_row_abutment()
        maps = {n: Hom.identity(L) for n, (L, _) in abut.items()}
        res = zeeman_check(f, abut, abut, maps, setup="I",
                           edge_oracle=lambda f, n: True)
        assert res["ok"] and res["first_failure"] is None

    def test_perturbed_filtration_rejected(self):
        f = two_row_morphism()
        abut = two_row_abutment()
        maps = {n: Hom.identity(L) for n, (L, _) in abut.items()}
        L1 = abut[1][0]
        bad = dict(abut)
        bad[1] = (L1, [Subgroup.zero(L1), Subgroup.zero(L1), Subgroup.full(L1)])
        with pytest.raises(SetupViolation):
            zeeman_check(f, bad, abut, maps, setup="I",
                         edge_oracle=lambda f, n: True)

    def test_repeated_checks_do_not_grow_the_sequences(self):
        f = two_row_morphism()
        abut = two_row_abutment()
        maps = {n: Hom.identity(L) for n, (L, _) in abut.items()}
        runs = []
        for _ in range(3):
            res = zeeman_check(f, abut, abut, maps, setup="I",
                               edge_oracle=lambda f, n: True)
            runs.append((res["horizon"], f.source.top_r, f.target.top_r))
        settled = f.source.settled_page()
        assert runs[1:] == [(settled, settled, settled)] * 2

    def test_missing_edge_rule_rejected(self):
        f = two_row_morphism()
        abut = two_row_abutment()
        maps = {n: Hom.identity(L) for n, (L, _) in abut.items()}
        with pytest.raises(SetupViolation):
            zeeman_check(f, abut, abut, maps, setup="I")


class TestSerialization:
    def test_round_trip(self):
        for name in ("couple1", "couple2", "couple3"):
            C = demo_couple(name)
            back = couple_from_json(couple_to_json(C))
            back.validate()
            assert back.D == C.D and back.E == C.E
            assert back.i == C.i and back.j == C.j and back.k == C.k
            assert back.bidegrees == C.bidegrees
            assert back.diagonal_tails == C.diagonal_tails

    def test_random_round_trip(self):
        rng = seeded(7)
        for _ in range(5):
            C = couple_from_filtered_complex(*random_filtered_complex(rng, max_degree=2))
            back = couple_from_json(couple_to_json(C))
            assert back.D == C.D and back.E == C.E
