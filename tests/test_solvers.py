"""Two-row deduction and the low-degree five-term sequence."""

import pytest

from specseq.zlinalg import FPAbGroup, Hom, Subgroup, direct_sum, quotient_group
from specseq.spectral import (
    cohomological_rule,
    homological_rule,
    spectral_sequence_from_page,
)
from specseq.excouple import SetupViolation
from specseq.solvers import (
    Inconsistent,
    Underdetermined,
    cyclic_group_sequence,
    five_term,
    projective_space_sequence,
    two_row_solve,
)

from conftest import FINITE_GROUPS, random_hom, seeded

Z = FPAbGroup(1)


class TestTwoRowSolve:
    def test_cyclic_groups(self):
        for k in range(2, 8):
            res = cyclic_group_sequence(k, 9)
            for n in range(10):
                if n == 0:
                    assert res["H"][n] == Z
                elif n % 2 == 1:
                    assert res["H"][n] == FPAbGroup(0, (k,))
                else:
                    assert res["H"][n].is_trivial()

    def test_forced_differentials_of_cyclic_solution(self):
        res = cyclic_group_sequence(4, 6)
        # d2 out of odd columns is an isomorphism, out of even columns zero
        assert res["d2"][3].is_iso()
        assert res["d2"][5].is_iso()
        assert res["d2"][2].is_zero() and res["d2"][4].is_zero()

    def test_projective_spaces(self):
        for r in range(1, 5):
            res = projective_space_sequence(r)
            for n in range(2 * r + 3):
                expected = Z if (n % 2 == 0 and n <= 2 * r) else FPAbGroup()
                assert res["H"][n] == expected

    def test_trivial_abutment(self):
        res = two_row_solve({}, 6)
        assert all(G.is_trivial() for G in res["H"].values())

    def test_horizon_below_one_is_refused(self):
        assert set(two_row_solve({}, 1)["H"]) == {0, 1}
        for N in (0, -3):
            with pytest.raises(ValueError, match="N should be at least 1"):
                two_row_solve({}, N)

    def test_inconsistent_abutment(self):
        Z2 = FPAbGroup(0, (2,))
        Z3 = FPAbGroup(0, (3,))
        abutment = {
            0: (Z2, Subgroup.zero(Z2)),
            1: (Z3, Subgroup.full(Z3)),
        }
        with pytest.raises(Inconsistent):
            two_row_solve(abutment, 4)

    def test_abutment_below_degree_0(self):
        # a first-quadrant sequence has nothing in negative total degree
        abutment = {-1: (Z, Subgroup.zero(Z)), 0: (Z, Subgroup.zero(Z))}
        with pytest.raises(Inconsistent) as exc:
            two_row_solve(abutment, 4)
        assert exc.value.args[0] == (-1, "abutment below degree 0")
        # a trivial group there is no content
        T = FPAbGroup()
        res = two_row_solve({-1: (T, Subgroup.zero(T)), 0: (Z, Subgroup.zero(Z))}, 4)
        assert res["H"] == two_row_solve({0: (Z, Subgroup.zero(Z))}, 4)["H"]

    def test_nothing_below_the_bottom_row(self):
        # F_{-1,1} in degree 0 would sit in row 1 at p = -1
        with pytest.raises(Inconsistent) as exc:
            two_row_solve({0: (Z, Subgroup.full(Z))}, 4)
        assert exc.value.args == ((0, "nothing lies below the bottom row"),)

    def test_named_sequences_refuse_degenerate_parameters(self):
        for k in (1, 0, -2):
            with pytest.raises(ValueError, match="proper quotient"):
                cyclic_group_sequence(k, 4)
        for r in (0, -1):
            with pytest.raises(ValueError, match="at least 1"):
                projective_space_sequence(r)

    def test_ambiguous_extension_reported(self):
        # H_0 = Z/2 (+) Z/4 has two non-isomorphic subgroups with quotient Z/2
        A0 = FPAbGroup(0, (2, 4))
        Z2 = FPAbGroup(0, (2,))
        abutment = {
            0: (A0, Subgroup.zero(A0)),
            1: (Z2, Subgroup.full(Z2)),
        }
        with pytest.raises(Underdetermined) as exc:
            two_row_solve(abutment, 4)
        assert exc.value.args[0] == 2

    def solved(self, abutment):
        res = two_row_solve(abutment, 4)
        return ([res["H"][p].describe() for p in range(5)],
                {p: f.matrix for p, f in res["d2"].items()})

    def test_free_quotient_splits_the_extension(self):
        H, d2 = self.solved({0: (Z, Subgroup.zero(Z)), 2: (Z, Subgroup.zero(Z))})
        assert H == ["Z", "0", "Z^2", "0", "Z^2"]
        assert d2[2] == ((0, 1),)

    def test_trivial_forced_image_keeps_the_quotient(self):
        H, d2 = self.solved({2: (Z, Subgroup.zero(Z))})
        assert H == ["0", "0", "Z", "0", "Z"]
        assert d2[2] == ()

    def test_forced_image_in_Z_is_the_index_subgroup(self):
        Z2 = FPAbGroup(0, (2,))
        H, d2 = self.solved({1: (Z, Subgroup.zero(Z)), 2: (Z2, Subgroup.full(Z2))})
        assert H[3] == "Z" and d2[3] == ((2,),)
        # quotients of Z are cyclic
        V = FPAbGroup(0, (2, 2))
        with pytest.raises(Inconsistent):
            two_row_solve({1: (Z, Subgroup.zero(Z)), 2: (V, Subgroup.full(V))}, 4)

    def test_forced_image_in_a_finite_group(self):
        Z2, Z4 = FPAbGroup(0, (2,)), FPAbGroup(0, (4,))
        H, d2 = self.solved({1: (Z4, Subgroup.zero(Z4)), 2: (Z2, Subgroup.full(Z2))})
        assert H[3] == "Z/2" and d2[3] == ((2,),)

    def test_unforced_steps_are_underdetermined(self):
        Z2, Z4, Z_2 = FPAbGroup(0, (2,)), FPAbGroup(0, (4,)), FPAbGroup(2)
        for abutment in (
            # an infinite H other than Z: its quotients are not decided
            {0: (Z_2, Subgroup.zero(Z_2)), 1: (Z2, Subgroup.full(Z2))},
            # Z/2 by Z/2 need not split
            {0: (Z4, Subgroup.zero(Z4)), 1: (Z2, Subgroup.full(Z2)), 2: (Z2, Subgroup.zero(Z2))},
        ):
            with pytest.raises(Underdetermined) as exc:
                two_row_solve(abutment, 4)
            assert exc.value.args == (2,)

    def test_solution_replays_through_the_engine(self):
        res = cyclic_group_sequence(6, 8)
        ss = res["ss"]
        Einf, _, _ = ss.e_infinity()
        assert Einf.at((0, 0)) == Z
        assert Einf.at((1, 0)) == FPAbGroup(0, (6,))
        for p in range(2, 7):
            assert Einf.at((p, 0)).is_trivial()


def ktower_five_term(k):
    res = cyclic_group_sequence(k, 4)
    ss = res["ss"]
    F01 = Subgroup.from_generators(Z, [(k,)])
    F01G, _ = F01.as_group()
    _, _, data = ss.e_infinity()
    sq01 = data[(0, 1)]
    iso_low = Hom(sq01.group, F01G, [[1]])
    QH1, _ = quotient_group(Z, F01)
    iso_high = Hom(QH1, ss.page(2).objects.at((1, 0)), [[1]])
    H2 = FPAbGroup()
    sq20 = data.get((2, 0))
    onto = Hom.zero_map(H2, sq20.group if sq20 else FPAbGroup())
    return five_term(ss, Z, F01, iso_low, iso_high, H2, onto)


class TestFiveTerm:
    def test_ktower_sequence(self):
        for k in range(2, 8):
            out = ktower_five_term(k)
            H2, E20, E01, H1, E10 = out["groups"]
            assert H2.is_trivial() and E20.is_trivial()
            assert E01 == Z and H1 == Z
            assert E10 == FPAbGroup(0, (k,))
            # the middle map is multiplication by k up to sign
            assert out["maps"][2].matrix in (((k,),), ((-k,),))

    def test_collapsed_sequence_degenerates(self):
        # no differential: the sequence is the filtration SES with zero boundary
        rng = seeded(13)
        for _ in range(10):
            A, B = rng.choice(FINITE_GROUPS), rng.choice(FINITE_GROUPS)
            objects = {(0, 1): A, (1, 0): B}
            ss = spectral_sequence_from_page(
                2, ((0, 1), (0, 1)), objects, {}, homological_rule
            )
            H1, incs, _ = direct_sum([A, B])
            F01 = incs[0].image()
            out = five_term(
                ss, H1, F01,
                Hom.identity(A), Hom.identity(B),
                FPAbGroup(), Hom.zero_map(FPAbGroup(), FPAbGroup()),
            )
            assert out["maps"][1].is_zero()

    def test_random_instances_are_exact(self):
        rng = seeded(37)
        for _ in range(20):
            E20 = rng.choice(FINITE_GROUPS)
            E01 = rng.choice(FINITE_GROUPS)
            E10 = rng.choice(FINITE_GROUPS)
            d = random_hom(E20, E01, rng)
            objects = {
                x: G for x, G in
                [((2, 0), E20), ((0, 1), E01), ((1, 0), E10)]
                if not G.is_trivial()
            }
            diffs = {(2, 0): d} if not d.is_zero() else {}
            ss = spectral_sequence_from_page(
                2, ((0, 2), (0, 1)), objects, diffs, homological_rule
            )
            _, _, data = ss.e_infinity()
            sq01 = data.get((0, 1))
            low = sq01.group if sq01 else FPAbGroup()
            H1, incs, _ = direct_sum([low, E10])
            F01 = incs[0].image()
            sq20 = data.get((2, 0))
            H2 = sq20.group if sq20 else FPAbGroup()
            QH1, _ = quotient_group(H1, F01)
            # exactness at the three interior spots is asserted inside
            five_term(
                ss, H1, F01,
                Hom(low, F01.as_group()[0], Hom.identity(low).matrix),
                Hom(QH1, E10, Hom.identity(E10).matrix),
                H2, Hom.identity(H2),
            )

    def test_wrong_identification_rejected(self):
        res = cyclic_group_sequence(3, 4)
        ss = res["ss"]
        F01 = Subgroup.from_generators(Z, [(3,)])
        _, _, data = ss.e_infinity()
        sq01 = data[(0, 1)]
        bad = Hom.zero_map(sq01.group, F01.as_group()[0])
        QH1, _ = quotient_group(Z, F01)
        iso_high = Hom(QH1, ss.page(2).objects.at((1, 0)), [[1]])
        with pytest.raises(SetupViolation):
            five_term(ss, Z, F01, bad, iso_high,
                      FPAbGroup(), Hom.zero_map(FPAbGroup(), FPAbGroup()))

    def collapsed_arguments(self, **change):
        """The arguments of ``five_term`` on the collapsed page Z/2 at (0, 1),
        Z/3 at (1, 0), with ``change`` applied."""
        Z2, Z3 = FPAbGroup(0, (2,)), FPAbGroup(0, (3,))
        objects = {(0, 1): Z2, (1, 0): Z3}
        ss = spectral_sequence_from_page(2, ((0, 1), (0, 1)), objects, {}, homological_rule)
        H1, incs, _ = direct_sum([Z2, Z3])
        args = {"ss": ss, "H1": H1, "F01": incs[0].image(), "iso_low": Hom.identity(Z2),
                "iso_high": Hom.identity(Z3), "H2": FPAbGroup(),
                "onto": Hom.zero_map(FPAbGroup(), FPAbGroup())}
        args.update(change)
        return args

    @pytest.mark.parametrize("change, witness", [
        ({"ss": spectral_sequence_from_page(1, ((0, 0), (0, 0)), {(0, 0): Z}, {},
                                            homological_rule)},
         "the low-degree sequence starts on page 2"),
        ({"ss": spectral_sequence_from_page(2, ((0, 0), (0, 0)), {(0, 0): Z}, {},
                                            cohomological_rule)},
         "differentials must run homologically"),
        ({"ss": spectral_sequence_from_page(2, ((-1, 0), (0, 1)), {(-1, 1): Z}, {},
                                            homological_rule)},
         ("support leaves the first quadrant", (-1, 1))),
        ({"iso_low": Hom.identity(FPAbGroup(0, (3,)))},
         "low identification has the wrong endpoints"),
        ({"iso_high": Hom.identity(FPAbGroup(0, (2,)))},
         "high identification has the wrong endpoints"),
        ({"H2": Z, "onto": Hom.identity(Z)}, "degree-2 projection has the wrong endpoints"),
    ], ids=["page 1", "cohomological", "support at (-1, 1)", "low endpoints",
            "high endpoints", "projection endpoints"])
    def test_setup_violation_names_its_witness(self, change, witness):
        five_term(**self.collapsed_arguments())
        with pytest.raises(SetupViolation) as exc:
            five_term(**self.collapsed_arguments(**change))
        assert exc.value.args == (witness,)
