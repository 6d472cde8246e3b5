"""Page turning, limit pages, and morphism propagation."""

import pytest

from specseq.zlinalg import FPAbGroup, Hom, NotWellDefined
from specseq.spectral import (
    BigradedGroup,
    NotADifferential,
    NotAMorphism,
    Page,
    SpectralSequence,
    SSMorphism,
    UnboundedSupport,
    cohomological_rule,
    explicit_rule,
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

    def test_explicit_rule(self):
        rule = explicit_rule(1, [(-1, 0)])
        ss = two_column_ss(Z, Z, Hom(Z, Z, [[2]]), rule=rule)
        Einf, _, _ = ss.e_infinity()
        assert Einf.at((0, 0)) == Z2

    def test_unbounded_rule_rejected(self):
        ss = two_column_ss(Z4, Z2, Hom.zero_map(Z4, Z2), rule=lambda r: (-1, 0))
        with pytest.raises(UnboundedSupport):
            ss.stabilization_horizon()


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
                assert m.propagation_report(r)["ok"]

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
