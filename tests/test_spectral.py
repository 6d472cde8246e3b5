"""Page turning, limit pages, and morphism propagation."""

import pytest

from specseq.zlinalg import FPAbGroup, Hom, NotWellDefined, TheoremViolation
from specseq.spectral import (
    BigradedGroup,
    NotADifferential,
    NotAMorphism,
    Page,
    SpectralSequence,
    SSMorphism,
    UnboundedSupport,
    cohomological_rule,
    find_mono_nonpropagation,
    homological_rule,
    spectral_sequence_from_page,
    turn_page,
)

from conftest import FINITE_GROUPS, random_hom, seeded

Z = FPAbGroup(1)
Z2 = FPAbGroup(0, (2,))
Z4 = FPAbGroup(0, (4,))


def two_column_ss(A1, A0, d, r0=1, rule=homological_rule):
    """First page supported at (1,0) and (0,0) with d: A1 -> A0."""
    bounds = ((0, 1), (0, 0))
    diffs = {(1, 0): d} if not d.is_zero() else {}
    return spectral_sequence_from_page(
        r0, bounds, {(1, 0): A1, (0, 0): A0}, diffs, rule
    )


class TestPageTurning:
    def test_zero_differentials_keep_the_page(self):
        ss = two_column_ss(Z4, Z2, Hom.zero_map(Z4, Z2))
        for r in range(1, 5):
            assert ss.page(r).objects.at((1, 0)) == Z4
            assert ss.page(r).objects.at((0, 0)) == Z2

    def test_multiplication_by_two_on_Z(self):
        ss = two_column_ss(Z, Z, Hom(Z, Z, [[2]]))
        assert ss.page(2).objects.at((1, 0)).is_trivial()
        assert ss.page(2).objects.at((0, 0)) == Z2

    def test_projection_Z4_to_Z2(self):
        ss = two_column_ss(Z4, Z2, Hom(Z4, Z2, [[1]]))
        assert ss.page(2).objects.at((1, 0)) == Z2  # kernel of the projection
        assert ss.page(2).objects.at((0, 0)).is_trivial()

    def test_d_squared_nonzero_rejected(self):
        bounds = ((0, 2), (0, 0))
        objs = BigradedGroup(bounds, {(0, 0): Z, (1, 0): Z, (2, 0): Z})
        with pytest.raises(NotADifferential):
            Page(objs, (-1, 0), {(2, 0): Hom(Z, Z, [[1]]), (1, 0): Hom(Z, Z, [[1]])})

    def test_endpoint_mismatch_rejected(self):
        bounds = ((0, 1), (0, 0))
        objs = BigradedGroup(bounds, {(0, 0): Z2, (1, 0): Z4})
        with pytest.raises(NotADifferential):
            Page(objs, (-1, 0), {(0, 0): Hom(Z4, Z2, [[1]])})

    def test_turn_page_matches_anchored_page(self):
        # double path: standalone homology of the page vs the anchored
        # subquotient stored by the engine
        rng = seeded(11)
        for _ in range(25):
            A1 = rng.choice(FINITE_GROUPS)
            A0 = rng.choice(FINITE_GROUPS)
            ss = two_column_ss(A1, A0, random_hom(A1, A0, rng))
            objects, _ = turn_page(ss.page(1))
            for x in [(0, 0), (1, 0)]:
                assert objects.at(x) == ss.page(2).objects.at(x)


class TestCyclesBoundaries:
    def test_nesting_and_identification(self):
        rng = seeded(23)
        for _ in range(10):
            A1 = rng.choice(FINITE_GROUPS)
            A0 = rng.choice(FINITE_GROUPS)
            ss = two_column_ss(A1, A0, random_hom(A1, A0, rng))
            # internal asserts verify Z^s/B^s == E^{s+1} and the nesting
            ss.cycles_boundaries((0, 0), 3)
            ss.cycles_boundaries((1, 0), 3)

    def test_cycles_of_multiplication(self):
        ss = two_column_ss(Z, Z, Hom(Z, Z, [[2]]))
        Zs, Bs = ss.cycles_boundaries((0, 0), 1)
        assert Bs[1].basis == ((2,),)  # boundaries are 2Z
        assert Zs[1].basis == ((1,),)


class TestEInfinity:
    def test_collapse_with_one_nonzero_d2(self):
        # homological first quadrant, single d2 iso Z -> Z
        bounds = ((0, 2), (0, 1))
        ss = spectral_sequence_from_page(
            2, bounds, {(2, 0): Z, (0, 1): Z}, {(2, 0): Hom(Z, Z, [[1]])},
            homological_rule,
        )
        Einf, stab, _ = ss.e_infinity()
        assert Einf.positions() == []
        assert stab[(2, 0)] == 3 and stab[(0, 1)] == 3
        assert ss.collapse_page() == 3

    def test_collapse_page_of_degenerate_sequence(self):
        ss = two_column_ss(Z4, Z2, Hom.zero_map(Z4, Z2))
        assert ss.collapse_page() == 1
        Einf, stab, _ = ss.e_infinity()
        assert Einf.at((1, 0)) == Z4 and Einf.at((0, 0)) == Z2
        assert stab[(1, 0)] == 1

    def test_stationary_under_larger_horizon(self):
        ss = two_column_ss(Z4, Z2, Hom(Z4, Z2, [[1]]))
        first = ss.e_infinity()[0]
        ss.page(ss.stabilization_horizon() + 7)
        again = ss.e_infinity()[0]
        assert first.support == again.support

    def test_cohomological_rule(self):
        bounds = ((0, 2), (-1, 0))
        # v_2 = (2, -1): (0,0) -> (2,-1)
        ss = spectral_sequence_from_page(
            2, bounds, {(0, 0): Z, (2, -1): Z}, {(0, 0): Hom(Z, Z, [[3]])},
            cohomological_rule,
        )
        Einf, _, _ = ss.e_infinity()
        assert Einf.at((0, 0)).is_trivial()
        assert Einf.at((2, -1)) == FPAbGroup(0, (3,))

    def test_unbounded_rule_rejected(self):
        ss = two_column_ss(Z4, Z2, Hom.zero_map(Z4, Z2), rule=lambda r: (-1, 0))
        with pytest.raises(UnboundedSupport):
            ss.stabilization_horizon()


def recording_sequence(support, diffs_by_page, r0=1):
    """A sequence whose source hands out ``diffs_by_page[r]`` and records
    every page it is asked for."""
    asked = []

    def source(r, anchored):
        asked.append(r)
        return diffs_by_page.get(r, {})

    ps = [x[0] for x in support]
    qs = [x[1] for x in support]
    bounds = ((min(ps), max(ps)), (min(qs), max(qs)))
    first = Page(BigradedGroup(bounds, support), homological_rule(r0), {})
    return SpectralSequence(r0, first, homological_rule, source), asked


class TestSupportSettledPage:
    def test_source_asked_up_to_the_last_support_pair(self):
        # v_3 = (-3, 2) joins the two positions; no later v_r does
        support = {(0, 0): Z, (-3, 2): Z}
        ss, asked = recording_sequence(support, {3: {(0, 0): Hom(Z, Z, [[2]])}})
        assert ss.support_settled_page() == 4 < ss.settled_page() == 7
        Einf, stab, _ = ss.e_infinity()
        assert asked == [2, 3, 4] and ss.differentials is None
        assert ss.top_r == ss.settled_page()
        assert not any(ss.page(r).diffs for r in range(5, 8))
        assert Einf.at((0, 0)).is_trivial() and Einf.at((-3, 2)) == Z2
        assert stab == {(0, 0): 4, (-3, 2): 4}
        assert ss.collapse_page() == 4 and ss.stabilization_horizon() == 7

    def test_without_a_support_pair_only_the_next_page_is_asked(self):
        ss, asked = recording_sequence({(0, 0): Z, (1, 0): Z4}, {})
        assert ss.support_settled_page() == 2
        ss.e_infinity()
        assert asked == [2] and ss.top_r == ss.settled_page() == 5

    def test_untouched_positions_keep_their_subquotient(self):
        # d^3 joins (0, 0) and (-3, 2); no differential ever enters or
        # leaves (1, 0), and none touches any position before page 3
        support = {(0, 0): Z, (-3, 2): Z, (1, 0): Z4}
        ss, _ = recording_sequence(support, {3: {(0, 0): Hom(Z, Z, [[2]])}})
        ss.e_infinity()
        for r in range(2, ss.top_r + 1):
            assert ss.anchored(r, (1, 0)) is ss.anchored(1, (1, 0))
        for x in ((0, 0), (-3, 2)):
            assert ss.anchored(3, x) is ss.anchored(1, x)
            assert ss.anchored(4, x) is not ss.anchored(3, x)
            assert ss.anchored(ss.top_r, x) is ss.anchored(4, x)


def random_two_column_morphism(rng):
    """A random morphism between random two-column first pages."""
    A1, A0 = rng.choice(FINITE_GROUPS), rng.choice(FINITE_GROUPS)
    B1, B0 = rng.choice(FINITE_GROUPS), rng.choice(FINITE_GROUPS)
    dS = random_hom(A1, A0, rng)
    dT = random_hom(B1, B0, rng)
    src = two_column_ss(A1, A0, dS)
    tgt = two_column_ss(B1, B0, dT)
    for _ in range(80):
        f1 = random_hom(A1, B1, rng)
        f0 = random_hom(A0, B0, rng)
        if f0.compose(dS) == dT.compose(f1):
            return SSMorphism(src, tgt, {(1, 0): f1, (0, 0): f0})
    return SSMorphism(src, tgt, {})


def broken_square_morphism():
    """The identity on page r0 from a source with no differentials to a
    target with d^2 = 2 from (2, 0) to (0, 1): page r0 commutes, page 2
    does not."""
    bounds = ((0, 2), (0, 1))
    objs = {(2, 0): Z, (0, 1): Z}
    src = spectral_sequence_from_page(1, bounds, objs, {}, homological_rule)
    tgt, _ = recording_sequence(objs, {2: {(2, 0): Hom(Z, Z, [[2]])}})
    return SSMorphism(src, tgt, {x: Hom.identity(G) for x, G in objs.items()})


class TestMorphisms:
    def test_noncommuting_square_rejected(self):
        src = two_column_ss(Z2, Z2, Hom(Z2, Z2, [[1]]))
        tgt = two_column_ss(Z2, Z2, Hom.zero_map(Z2, Z2))
        with pytest.raises(NotAMorphism):
            SSMorphism(src, tgt, {(1, 0): Hom(Z2, Z2, [[1]]), (0, 0): Hom(Z2, Z2, [[1]])})

    def test_identity_propagates_as_iso(self):
        rng = seeded(5)
        for _ in range(10):
            A1 = rng.choice(FINITE_GROUPS)
            A0 = rng.choice(FINITE_GROUPS)
            d = random_hom(A1, A0, rng)
            src = two_column_ss(A1, A0, d)
            tgt = two_column_ss(A1, A0, d)
            m = SSMorphism(src, tgt, {(1, 0): Hom.identity(A1), (0, 0): Hom.identity(A0)})
            assert m.iso_propagation(1)

    def test_propagation_clauses_on_random_morphisms(self):
        rng = seeded(77)
        for _ in range(60):
            m = random_two_column_morphism(rng)
            for r in (1, 2, 3):
                m.propagation_report(r)

    def test_propagation_clause_failure_raises(self, monkeypatch):
        ss = two_column_ss(Z4, Z2, Hom.zero_map(Z4, Z2))
        m = SSMorphism(ss, ss, {(1, 0): Hom.identity(Z4), (0, 0): Hom.identity(Z2)})
        verdicts = m.propagation_report(1)
        assert dict(verdicts)[(1, 0)] == {"mono": True, "epi": True, "iso": True}
        component = SSMorphism.component

        def zero_on_page_2(self, r, x):
            f = component(self, r, x)
            return Hom.zero_map(f.domain, f.codomain) if r == 2 else f

        monkeypatch.setattr(SSMorphism, "component", zero_on_page_2)
        with pytest.raises(TheoremViolation) as info:
            m.propagation_report(1)
        assert info.value.check == "propagation clause fails"
        assert info.value.witness == ("mono", (0, 0), 1)

    def test_f_infinity_functorial(self):
        rng = seeded(91)
        for _ in range(15):
            A1, A0 = rng.choice(FINITE_GROUPS), rng.choice(FINITE_GROUPS)
            d = random_hom(A1, A0, rng)
            ss1 = two_column_ss(A1, A0, d)
            ss2 = two_column_ss(A1, A0, d)
            ss3 = two_column_ss(A1, A0, d)
            n, k = rng.randint(-3, 3), rng.randint(-3, 3)
            f = SSMorphism(ss1, ss2, {(1, 0): scalar(A1, n), (0, 0): scalar(A0, n)})
            g = SSMorphism(ss2, ss3, {(1, 0): scalar(A1, k), (0, 0): scalar(A0, k)})
            gf = SSMorphism(ss1, ss3, {(1, 0): scalar(A1, n * k), (0, 0): scalar(A0, n * k)})
            finf_f = f.f_infinity()
            finf_g = g.f_infinity()
            finf_gf = gf.f_infinity()
            for x, h in finf_gf.items():
                assert h == finf_g[x].compose(finf_f[x])

    def test_each_page_checked_once(self, monkeypatch):
        """verify_page checks a page's squares once, however often its
        components are read; a failing page keeps nothing and raises on
        every call."""
        ss = two_column_ss(Z4, Z2, Hom(Z4, Z2, [[1]]))
        m = SSMorphism(ss, ss, {(1, 0): Hom.identity(Z4), (0, 0): Hom.identity(Z2)})
        positions = m.page_positions(2)
        reads = []
        d_at = Page.d_at
        monkeypatch.setattr(Page, "d_at", lambda page, x: reads.append(x) or d_at(page, x))
        for _ in range(3):
            for x in positions:
                m.component(2, x)
            m.verify_page(2)
        # one read of each side's differential per position
        assert sorted(reads) == sorted([*positions, *positions])
        broken = broken_square_morphism()
        for _ in range(2):
            with pytest.raises(NotAMorphism):
                broken.verify_page(2)
            with pytest.raises(NotAMorphism):
                broken.component(2, (0, 1))

    def test_square_checked_on_the_first_read_of_a_later_page(self):
        m = broken_square_morphism()
        assert m.component(1, (2, 0)).is_iso()
        with pytest.raises(NotAMorphism) as exc:
            m.iso_propagation(1)
        assert exc.value.args == (("square", 2, (2, 0)),)
        with pytest.raises(NotAMorphism):
            m.component(2, (0, 1))

    def test_square_checked_on_the_first_read_of_the_limit_page(self):
        # f_infinity checks page 2's squares first
        m = broken_square_morphism()
        with pytest.raises(NotAMorphism) as exc:
            m.f_infinity()
        assert exc.value.args == (("square", 2, (2, 0)),)

    def test_limit_page_failure_is_not_a_morphism(self, monkeypatch):
        # with the page checks switched off, the limit page's own induced
        # map still refuses, as NotAMorphism
        m = broken_square_morphism()
        monkeypatch.setattr(SSMorphism, "verify_page", lambda self, r: None)
        with pytest.raises(NotAMorphism) as exc:
            m.f_infinity()
        assert exc.value.args[0][:2] == ("not well defined on the limit page", (2, 0))
        assert isinstance(exc.value.__cause__, NotWellDefined)

    def test_starting_pages_must_agree(self):
        src = two_column_ss(Z4, Z2, Hom.zero_map(Z4, Z2))
        tgt = two_column_ss(Z4, Z2, Hom.zero_map(Z4, Z2), r0=2)
        with pytest.raises(NotAMorphism) as exc:
            SSMorphism(src, tgt, {})
        assert exc.value.args == ("starting pages differ",)

    def test_component_endpoints_must_match_the_pages(self):
        ss = two_column_ss(Z4, Z2, Hom.zero_map(Z4, Z2))
        with pytest.raises(NotAMorphism) as exc:
            SSMorphism(ss, ss, {(1, 0): Hom.identity(Z2), (0, 0): Hom.identity(Z2)})
        assert exc.value.args == (("component endpoints", (1, 0)),)

    def test_ill_defined_component_of_a_later_page(self):
        # page 2's square fails at (2, 0), where the target's page-3 cycles
        # are zero: page 3 is checked on its own, and its induced map out of
        # the source's Z at (2, 0) is not defined
        m = broken_square_morphism()
        with pytest.raises(NotAMorphism) as exc:
            m.component(3, (2, 0))
        assert exc.value.args[0][:2] == ("not well defined on page 3", (2, 0))
        assert isinstance(exc.value.__cause__, NotWellDefined)

    def test_page_bidegrees_must_agree(self):
        src = two_column_ss(Z4, Z2, Hom.zero_map(Z4, Z2))
        tgt = two_column_ss(Z4, Z2, Hom.zero_map(Z4, Z2),
                            rule=lambda r: homological_rule(r) if r == 1 else (-r, 0))
        m = SSMorphism(src, tgt, {(1, 0): Hom.identity(Z4), (0, 0): Hom.identity(Z2)})
        with pytest.raises(NotAMorphism) as exc:
            m.component(2, (0, 0))
        assert exc.value.args == (("bidegree mismatch on page", 2),)

    def test_mono_does_not_propagate_alone(self):
        found = find_mono_nonpropagation(max_order=8)
        assert found is not None
        src, tgt, m, x = found
        assert m.component(1, x).is_mono()
        assert not m.component(2, x).is_mono()


def scalar(G, n):
    m = Hom.zero_map(G, G)
    step = Hom.identity(G) if n >= 0 else Hom.identity(G).negate()
    for _ in range(abs(n)):
        m = m.add(step)
    return m
