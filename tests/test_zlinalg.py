"""Tests for the integer linear algebra and abelian group layer.

The normal form routines are checked against independent oracles:
brute-force enumeration for small finite groups, Bareiss determinants for
unimodularity, and random unimodular recombinations for canonicality of the
Hermite basis.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specseq.zlinalg import (
    AmbientMismatch,
    ContainmentViolation,
    FPAbGroup,
    Hom,
    NotWellDefined,
    Subgroup,
    TheoremViolation,
    cokernel,
    columns_of,
    direct_sum,
    group_from_presentation,
    hermite_column_form,
    hom_on_generators,
    hom_through,
    identity_matrix,
    induced_map,
    kernel_basis,
    mat_mul,
    mat_vec,
    matrix_from_columns,
    quotient_group,
    require,
    short_exact,
    smith_normal_form,
    solve_matrix,
    subquotient,
)
from specseq.zlinalg import _snf_with_inverses
from specseq.spectral import whole

from conftest import SMALL_GROUPS, random_hom, seeded


def bareiss_det(M):
    """Fraction-free determinant, used as an independent unimodularity oracle."""
    A = [row[:] for row in M]
    n = len(A)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k] != 0:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[-1][-1]


small_matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-30, 30), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


class TestSmithNormalForm:
    @given(small_matrices)
    @settings(max_examples=150, deadline=None)
    def test_transform_witnesses(self, M):
        U, D, V = smith_normal_form(M)
        assert mat_mul(mat_mul(U, M), V) == D
        assert abs(bareiss_det(U)) == 1
        assert abs(bareiss_det(V)) == 1

    @given(small_matrices)
    @settings(max_examples=150, deadline=None)
    def test_diagonal_divisibility_chain(self, M):
        _, D, _ = smith_normal_form(M)
        r, c = len(D), len(D[0])
        for i in range(r):
            for j in range(c):
                if i != j:
                    assert D[i][j] == 0
        diag = [D[i][i] for i in range(min(r, c))]
        for a, b in zip(diag, diag[1:]):
            assert a >= 0 and b >= 0
            if a:
                assert b % a == 0
            else:
                assert b == 0

    @given(small_matrices)
    @settings(max_examples=100, deadline=None)
    def test_tracked_inverses(self, M):
        U, _, _, Uinv = _snf_with_inverses(M)
        assert mat_mul(Uinv, U) == identity_matrix(len(M))

    @given(small_matrices)
    @settings(max_examples=100, deadline=None)
    def test_same_transforms_with_or_without_inverses(self, M):
        assert smith_normal_form(M) == _snf_with_inverses(M)[:3]

    def test_known_diagonal(self):
        # gcd of all entries 2, second determinant divisor 8 => diag (2, 4).
        _, D, _ = smith_normal_form([[2, 4], [6, 8]])
        assert [D[0][0], D[1][1]] == [2, 4]

    def test_stays_exact_on_huge_entries(self):
        big = 10**40
        U, D, V = smith_normal_form([[big, 1], [0, big]])
        assert mat_mul(mat_mul(U, [[big, 1], [0, big]]), V) == D
        assert D[0][0] == 1 and D[1][1] == big * big


def xgcd_merge_hermite(cols, nrows):
    """The column Hermite form by 2x2 extended-gcd merges, an independent oracle.

    Each row folds its live columns one at a time into a pivot by a
    unimodular 2x2 transform and sends the leftover column on to the later
    rows; then the pivot is made positive and the earlier pivots' entries in
    the row are reduced into ``[0, pivot)``.
    """

    def xgcd(a, b):
        if b == 0:
            return (abs(a), 1 if a >= 0 else -1, 0)
        g, s, t = xgcd(b, a % b)
        return g, t, s - (a // b) * t

    work = [list(c) for c in cols if any(c)]
    kept = []
    for row in range(nrows):
        live = [c for c in work if c[row]]
        work = [c for c in work if not c[row]]
        if not live:
            continue
        piv = live[0]
        for other in live[1:]:
            g, s, t = xgcd(piv[row], other[row])
            a, b = piv[row] // g, other[row] // g
            piv, other = (
                [s * x + t * y for x, y in zip(piv, other)],
                [-b * x + a * y for x, y in zip(piv, other)],
            )
            if any(other):
                work.append(other)
        if piv[row] < 0:
            piv = [-x for x in piv]
        for c in kept:
            q = c[row] // piv[row]
            c[:] = [x - q * y for x, y in zip(c, piv)]
        kept.append(piv)
    return tuple(tuple(c) for c in kept)


@st.composite
def lattices_with_recombinations(draw):
    """Columns of a lattice in Z^n (n <= 6, up to 8 columns, entries up to
    +-10^6, small ones often, so negative pivots and rounding ties occur)
    and a second generating set of the same lattice: unimodular column
    operations, a shuffle and added zero columns."""
    n = draw(st.integers(1, 6))
    entry = st.one_of(st.integers(-(10**6), 10**6), st.integers(-4, 4))
    cols = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=8))
    other = [list(c) for c in cols]
    if len(other) >= 2:
        pairs = st.tuples(st.integers(0, len(other) - 1), st.integers(0, len(other) - 1))
        for (i, j), q in draw(st.lists(st.tuples(pairs, st.integers(-5, 5)), max_size=10)):
            if i != j:
                other[i] = [a + q * b for a, b in zip(other[i], other[j])]
    for i in draw(st.lists(st.integers(0, 7), max_size=3)):
        if i < len(other):
            other[i] = [-a for a in other[i]]
    other = draw(st.permutations(other)) + [[0] * n] * draw(st.integers(0, 2))
    return n, [tuple(c) for c in cols], [tuple(c) for c in other]


class TestHermiteForm:
    def test_canonical_under_recombination(self):
        rng = random.Random(7)
        for _ in range(150):
            n = rng.randint(1, 4)
            k = rng.randint(0, 4)
            cols = [tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(k)]
            H1 = hermite_column_form(cols, n)
            cols2 = [list(c) for c in cols]
            for _ in range(6):
                if len(cols2) >= 2:
                    i, j = rng.sample(range(len(cols2)), 2)
                    q = rng.randint(-3, 3)
                    cols2[i] = [a + q * b for a, b in zip(cols2[i], cols2[j])]
            rng.shuffle(cols2)
            cols2.append([0] * n)
            assert hermite_column_form(cols2, n) == H1

    @given(lattices_with_recombinations())
    @settings(max_examples=300, deadline=None)
    def test_canonical_against_xgcd_merges(self, case):
        n, cols, other = case
        H = hermite_column_form(cols, n)
        assert hermite_column_form(other, n) == H
        assert H == xgcd_merge_hermite(cols, n)

    def test_pivot_shape(self):
        H = hermite_column_form([(4, 6), (0, 2)], 2)
        # pivot rows strictly increase, pivots positive, above-pivot zero
        pivots = []
        for col in H:
            nz = [i for i, x in enumerate(col) if x]
            assert col[nz[0]] > 0
            pivots.append(nz[0])
        assert pivots == sorted(set(pivots))


class TestKernelAndSolve:
    @given(small_matrices)
    @settings(max_examples=100, deadline=None)
    def test_kernel_columns_annihilate(self, M):
        for col in kernel_basis(M):
            assert all(v == 0 for v in mat_vec(M, col))

    @given(small_matrices, st.lists(st.integers(-5, 5), min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_solve_roundtrip(self, M, x):
        x = (x * 4)[: len(M[0])]
        y = mat_vec(M, x)
        sol = solve_matrix(M, y)
        assert sol is not None
        assert mat_vec(M, sol) == y

    def test_no_rational_solutions_accepted(self):
        assert solve_matrix([[2]], (1,)) is None


def full_rank_matrix(n, rng):
    while True:
        M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if bareiss_det(M):
            return M


class TestFPAbGroup:
    def test_canonical_form_constraints(self):
        with pytest.raises(ValueError):
            FPAbGroup(0, (3, 2))
        with pytest.raises(ValueError):
            FPAbGroup(0, (1,))
        with pytest.raises(ValueError):
            FPAbGroup(-1)

    def test_presentation_oracle(self):
        G, _, _ = group_from_presentation(2, [(2, 0), (0, 4)])
        assert G == FPAbGroup(0, (2, 4))
        G, _, _ = group_from_presentation(2, [(2, 2), (0, 4)])
        assert G == FPAbGroup(0, (2, 4))
        G, _, _ = group_from_presentation(3, [(2, 0, 0)])
        assert G == FPAbGroup(2, (2,))
        G, _, _ = group_from_presentation(2, [(1, 0)])
        assert G == FPAbGroup(1)

    def test_presentation_proj_sect_roundtrip(self):
        rng = random.Random(3)
        for _ in range(80):
            n = rng.randint(0, 4)
            k = rng.randint(0, 4)
            rel = [tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(k)]
            G, proj, sect = group_from_presentation(n, rel)
            ps = mat_mul(proj, sect)
            for j in range(G.ngens):
                col = G.reduce(tuple(ps[i][j] for i in range(G.ngens)))
                assert col == tuple(1 if i == j else 0 for i in range(G.ngens))
            for rc in rel:
                assert G.reduce(mat_vec(proj, rc)) == G.zero()

    @pytest.mark.parametrize("n", [24, 32, 48])
    def test_presentations_stay_bounded(self, n):
        """n x n matrices with entries in [-9, 9], and the same with two
        columns made dependent, keep small transforms: the Smith form runs
        on the Hermite basis of the relations."""
        rng = random.Random(n)
        M = full_rank_matrix(n, rng)
        short = [row[:] for row in M]
        for row in short:  # two columns become combinations of the others
            row[-1] = row[0] - 2 * row[1]
            row[-2] = 3 * row[2] + row[3]
        for A, rank in ((M, n), (short, n - 2)):
            rel = columns_of(A)
            G, proj, sect = group_from_presentation(n, rel)
            assert G.rank == n - rank
            if rank == n:
                order = 1
                for d in G.torsion:
                    order *= d
                assert order == abs(bareiss_det(A))
            ps = mat_mul(proj, sect)
            for j in range(G.ngens):
                col = G.reduce(tuple(ps[i][j] for i in range(G.ngens)))
                assert col == tuple(1 if i == j else 0 for i in range(G.ngens))
            for rc in rel:
                assert G.reduce(mat_vec(proj, rc)) == G.zero()
            assert max(abs(x).bit_length() for T in (proj, sect) for r in T for x in r) < 1000
            json.dumps([proj, sect])

    def test_invariant_factors_match_sympy(self):
        """Invariant factors agree with sympy's Smith form up to n = 12."""
        pytest.importorskip("sympy")
        from sympy import ZZ, Matrix
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf

        rng = random.Random(23)
        for n in range(13):
            for _ in range(4):
                cols = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(rng.randint(0, n + 2))]
                # Scaled and dependent columns give torsion and a rank deficit.
                for c in cols[1:]:
                    roll = rng.random()
                    if roll < 0.3:
                        c[:] = [rng.randint(2, 6) * x for x in c]
                    elif roll < 0.5:
                        c[:] = [rng.randint(-2, 2) * x for x in cols[0]]
                G, _, _ = group_from_presentation(n, [tuple(c) for c in cols])
                factors = []
                if n and cols:
                    D = sympy_snf(Matrix(n, len(cols), lambda i, j: cols[j][i]), domain=ZZ)
                    factors = [abs(int(D[i, i])) for i in range(min(n, len(cols))) if D[i, i]]
                assert G.rank == n - len(factors)
                assert list(G.torsion) == sorted(d for d in factors if d > 1)

    def test_order_and_describe(self):
        G = FPAbGroup(1, (2, 6))
        assert G.order() is None
        assert FPAbGroup(0, (2, 6)).order() == 12
        assert G.describe() == "Z (+) Z/2 (+) Z/6"
        assert FPAbGroup().describe() == "0"


def brute_generated(G, gens):
    S = {G.zero()}
    frontier = list(gens)
    while frontier:
        x = frontier.pop()
        for s in list(S):
            y = G.add(s, x)
            if y not in S:
                S.add(y)
                frontier.append(y)
    return S


@st.composite
def subgroups_with_vectors(draw):
    """A subgroup of a random ambient group with torsion, with test vectors.

    Some generators are combinations of the others, so the generating set can
    be rank deficient.  The first vectors are members by construction, the
    rest are arbitrary.
    """
    rank = draw(st.integers(0, 3))
    torsion, d = [], 1
    for m in draw(st.lists(st.integers(2, 4), max_size=3)):
        d *= m
        torsion.append(d)
    G = FPAbGroup(rank, tuple(torsion))
    n = G.ngens
    vector = st.lists(st.integers(-12, 12), min_size=n, max_size=n).map(tuple)

    def combination(cols):
        cs = draw(st.lists(st.integers(-3, 3), min_size=len(cols), max_size=len(cols)))
        return tuple(sum(c * col[i] for c, col in zip(cs, cols)) for i in range(n))

    gens = draw(st.lists(vector, max_size=4))
    gens += [combination(gens) for _ in range(draw(st.integers(0, 2)))]
    spanning = gens + G.relation_columns()
    members = [combination(spanning) for _ in range(3)]
    return Subgroup.from_generators(G, gens), members, draw(st.lists(vector, max_size=4))


class TestSubgroups:
    @given(subgroups_with_vectors())
    @settings(max_examples=150, deadline=None)
    def test_coordinates_agree_with_solve(self, case):
        S, members, others = case
        B = matrix_from_columns(list(S.basis), S.ambient.ngens)
        for v in members + others:
            x = solve_matrix(B, v)
            assert S.coordinates(v) == x
            assert S.contains(v) == (x is not None)
        assert all(S.contains(v) for v in members)

    def test_membership_matches_enumeration(self):
        rng = random.Random(11)
        for _ in range(40):
            G = FPAbGroup(0, rng.choice([(2,), (4,), (2, 4), (2, 2), (6,), (2, 12)]))
            elts = list(G.elements())
            gens = [rng.choice(elts) for _ in range(2)]
            S = Subgroup.from_generators(G, gens)
            B = brute_generated(G, gens)
            assert all(S.contains(e) == (e in B) for e in elts)

    def test_sum_and_intersection_against_enumeration(self):
        rng = random.Random(12)
        for _ in range(40):
            G = FPAbGroup(0, rng.choice([(4,), (2, 4), (6,), (2, 12)]))
            elts = list(G.elements())
            g1 = [rng.choice(elts) for _ in range(2)]
            g2 = [rng.choice(elts) for _ in range(2)]
            S1 = Subgroup.from_generators(G, g1)
            S2 = Subgroup.from_generators(G, g2)
            B1, B2 = brute_generated(G, g1), brute_generated(G, g2)
            SS, II = S1.sum(S2), S1.intersection(S2)
            Bsum = brute_generated(G, list(B1 | B2))
            for e in elts:
                assert SS.contains(e) == (e in Bsum)
                assert II.contains(e) == (e in (B1 & B2))

    def test_equality_is_canonical(self):
        G = FPAbGroup(0, (12,))
        assert Subgroup.from_generators(G, [(4,)]) == Subgroup.from_generators(
            G, [(8,), (12,)]
        )
        assert Subgroup.from_generators(G, [(4,)]) != Subgroup.from_generators(G, [(2,)])

    def test_ambient_mismatch_rejected(self):
        S1 = Subgroup.zero(FPAbGroup(0, (4,)))
        S2 = Subgroup.zero(FPAbGroup(0, (8,)))
        with pytest.raises(AmbientMismatch):
            S1.sum(S2)
        with pytest.raises(AmbientMismatch):
            S1.intersection(S2)

    def test_as_group_inclusion(self):
        G = FPAbGroup(1, (4,))
        S = Subgroup.from_generators(G, [(2, 0), (0, 2)])
        SG, incl = S.as_group()
        assert SG == FPAbGroup(1, (2,))
        for j in range(SG.ngens):
            e = tuple(1 if i == j else 0 for i in range(SG.ngens))
            assert S.contains(incl(e))


class TestHom:
    def test_relation_compatibility_enforced(self):
        Z2 = FPAbGroup(0, (2,))
        Z4 = FPAbGroup(0, (4,))
        with pytest.raises(NotWellDefined):
            Hom(Z2, Z4, [[1]])  # 2*1 != 0 in Z/4
        Hom(Z2, Z4, [[2]])  # doubling is fine
        Hom(Z4, Z2, [[1]])  # reduction is fine

    def test_kernel_image_cokernel_against_enumeration(self):
        rng = random.Random(13)
        for _ in range(50):
            G = FPAbGroup(0, rng.choice([(4,), (2, 4), (6,), (8,), (2, 2)]))
            H = FPAbGroup(0, rng.choice([(4,), (2, 4), (6,), (8,), (2, 2)]))
            f = None
            while f is None:
                try:
                    f = Hom(
                        G,
                        H,
                        [
                            [rng.randint(-8, 8) for _ in range(G.ngens)]
                            for _ in range(H.ngens)
                        ],
                    )
                except NotWellDefined:
                    pass
            Q, proj = cokernel(f)
            kelts = {e for e in G.elements() if f(e) == H.zero()}
            ielts = {f(e) for e in G.elements()}
            assert f.kernel().as_group()[0].order() == len(kelts)
            assert f.image().as_group()[0].order() == len(ielts)
            assert Q.order() == H.order() // len(ielts)
            assert proj.kernel() == f.image()

    def test_solve_element(self):
        f = Hom(FPAbGroup(1), FPAbGroup(0, (6,)), [[2]])
        assert f.solve_element((4,)) is not None
        assert f(f.solve_element((4,))) == (4,)
        assert f.solve_element((1,)) is None

    def test_preimage(self):
        # multiplication by 2 on Z/8; preimage of <4> is <2>
        G = FPAbGroup(0, (8,))
        f = Hom(G, G, [[2]])
        S = Subgroup.from_generators(G, [(4,)])
        assert f.preimage(S) == Subgroup.from_generators(G, [(2,)])

    def test_mono_epi_iso(self):
        Z = FPAbGroup(1)
        assert Hom(Z, Z, [[2]]).is_mono()
        assert not Hom(Z, Z, [[2]]).is_epi()
        assert Hom(Z, Z, [[-1]]).is_iso()
        Z6 = FPAbGroup(0, (6,))
        assert Hom(Z6, Z6, [[5]]).is_iso()

    def test_hom_on_generators_rebuilds_from_columns(self):
        rng = seeded(23)
        for _ in range(60):
            G, H = rng.choice(SMALL_GROUPS), rng.choice(SMALL_GROUPS)
            f = random_hom(G, H, rng)
            assert hom_on_generators(f.domain, f.codomain, columns_of(f.matrix)) == f


class TestSubquotient:
    def test_orders_multiply(self):
        rng = random.Random(17)
        for _ in range(40):
            G = FPAbGroup(0, rng.choice([(4,), (2, 4), (8,), (2, 2, 2), (12,)]))
            elts = list(G.elements())
            Z = Subgroup.from_generators(G, [rng.choice(elts) for _ in range(2)])
            B = Subgroup.from_generators(
                G, [c for c in Z.basis if rng.random() < 0.5]
            )
            sq = subquotient(Z, B)
            assert (
                sq.group.order() * B.as_group()[0].order()
                == Z.as_group()[0].order()
            )
            for q in sq.group.elements():
                assert sq.project(sq.lift(q)) == q
            for c in B.basis:
                assert sq.project(c) == sq.group.zero()

    def test_containment_violation(self):
        G = FPAbGroup(0, (8,))
        Z = Subgroup.from_generators(G, [(4,)])
        B = Subgroup.from_generators(G, [(2,)])
        with pytest.raises(ContainmentViolation):
            subquotient(Z, B)

    def test_containment_witness_is_first_column_outside(self):
        G = FPAbGroup(0, (8, 8))
        Z = Subgroup.from_generators(G, [(1, 0), (0, 4)])
        B = Subgroup.from_generators(G, [(2, 0), (0, 2)])
        assert Z.contains(B.basis[0]) and not Z.contains(B.basis[1])
        with pytest.raises(ContainmentViolation) as exc:
            subquotient(Z, B)
        assert exc.value.args == (B.basis[1],)

    def test_quotient_group(self):
        G = FPAbGroup(1)
        Q, proj = quotient_group(G, Subgroup.from_generators(G, [(6,)]))
        assert Q == FPAbGroup(0, (6,))
        assert proj.is_epi()

    def test_induced_map_well_definedness(self):
        G = FPAbGroup(0, (12,))
        Z = Subgroup.from_generators(G, [(2,)])
        B = Subgroup.from_generators(G, [(6,)])
        sq = subquotient(Z, B)
        assert sq.group == FPAbGroup(0, (3,))
        assert induced_map(Hom.identity(G), sq, sq).is_iso()
        # tripling kills the quotient Z/3
        tripled = induced_map(Hom(G, G, [[3]]), sq, sq)
        assert tripled.is_zero()

    def test_induced_map_rejects_leaky_maps(self):
        G = FPAbGroup(0, (4,))
        top = subquotient(Subgroup.full(G), Subgroup.zero(G))
        small = subquotient(
            Subgroup.from_generators(G, [(2,)]), Subgroup.zero(G)
        )
        with pytest.raises(NotWellDefined):
            induced_map(Hom.identity(G), top, small)


def nested_triple(G, rng):
    """Random subgroups B <= K <= Z of a finite group G."""
    def multiples(S):
        return [tuple(m * x for x in c) for c in S.basis for m in [rng.choice((0, 2, 3))]]

    elts = list(G.elements())
    Z = Subgroup.from_generators(G, [rng.choice(elts) for _ in range(2)])
    K = Subgroup.from_generators(G, multiples(Z))
    return Subgroup.from_generators(G, multiples(K)), K, Z


class TestShortExact:
    def test_nested_triple(self):
        rng = seeded(29)
        for _ in range(40):
            G = FPAbGroup(0, rng.choice([(2, 4), (4, 8), (2, 12), (2, 2, 2), (12,), (8,), (6, 6)]))
            B, K, Z = nested_triple(G, rng)
            kb, zb, zk, mono, epi = short_exact(B, K, Z, "case")
            assert zb.group.order() == kb.group.order() * zk.group.order()
            assert mono.image() == epi.kernel()
            assert (mono.domain, mono.codomain, epi.codomain) == (kb.group, zb.group, zk.group)

    def test_not_nested_raises(self):
        G = FPAbGroup(0, (8,))
        two, four = Subgroup.from_generators(G, [(2,)]), Subgroup.from_generators(G, [(4,)])
        for B, K, Z in ((two, four, Subgroup.full(G)), (Subgroup.zero(G), two, four)):
            with pytest.raises(TheoremViolation) as info:
                short_exact(B, K, Z, (0, 0), 3)
            assert info.value.args == ("short exact sequence subgroups are not nested", ((0, 0), 3))


def as_group_by_presentation(S):
    """``S.as_group()`` by presenting ``S`` on its Hermite basis, modulo the
    coordinates of the ambient relations: the construction before
    ``as_group`` read the group off ``S / 0``."""
    rel = [S.coordinates(rc) for rc in S.ambient.relation_columns()]
    G, _, sect = group_from_presentation(len(S.basis), rel)
    basis = matrix_from_columns(list(S.basis), S.ambient.ngens)
    return G, hom_on_generators(G, S.ambient, [mat_vec(basis, c) for c in columns_of(sect)])


def restrict_by_solving(f, S, T):
    """``f.restrict(S, T)`` by solving through the inclusion of ``T``: the
    construction before ``restrict`` projected to ``T / 0``."""
    SG, Sincl = as_group_by_presentation(S)
    TG, Tincl = as_group_by_presentation(T)
    cols = []
    for s in columns_of(Sincl.matrix):
        y = f(s)
        x = Tincl.solve_element(y)
        if x is None:
            raise ContainmentViolation((s, y))
        cols.append(x)
    return hom_on_generators(SG, TG, cols)


TORSION_GROUPS = SMALL_GROUPS + [FPAbGroup(1, (2, 4)), FPAbGroup(2, (3,)), FPAbGroup(0, (2, 6, 12))]


def random_subgroup(G, rng):
    gens = [tuple(rng.randint(-6, 6) for _ in range(G.ngens)) for _ in range(rng.randint(0, 3))]
    return Subgroup.from_generators(G, gens)


class TestSubgroupsAsSubquotients:
    def test_as_group_matches_presentation(self):
        rng = seeded(41)
        seen_trivial = seen_torsion = 0
        for _ in range(150):
            S = random_subgroup(rng.choice(TORSION_GROUPS), rng)
            new, old = S.as_group(), as_group_by_presentation(S)
            assert new == old
            seen_trivial += new[0].is_trivial()
            seen_torsion += bool(new[0].torsion)
        assert seen_trivial and seen_torsion

    def test_restrict_matches_solving(self):
        rng = seeded(43)
        refused = 0
        for _ in range(150):
            G, H = rng.choice(TORSION_GROUPS), rng.choice(TORSION_GROUPS)
            f = random_hom(G, H, rng)
            S = random_subgroup(G, rng)
            T = random_subgroup(H, rng)
            if rng.random() < 0.5:
                T = T.sum(f.image_of_subgroup(S))
            try:
                want = restrict_by_solving(f, S, T)
            except ContainmentViolation as exc:
                refused += 1
                with pytest.raises(ContainmentViolation) as got:
                    f.restrict(S, T)
                assert got.value.args == exc.args
                continue
            assert f.restrict(S, T) == want
        assert 5 <= refused <= 100

    def test_restrict_witness(self):
        G = FPAbGroup(1, (4,))
        f = Hom(G, G, [[1, 0], [0, 2]])
        T = Subgroup.from_generators(G, [(2, 0), (0, 1)])
        with pytest.raises(ContainmentViolation) as exc:
            f.restrict(Subgroup.full(G), T)
        assert exc.value.args == (((1, 0), (1, 0)),)


def hom_matrix_by_columns(domain, codomain, matrix):
    """``Hom(domain, codomain, matrix).matrix`` by reducing each column with
    ``codomain.reduce`` and transposing back: the construction before the
    matrix was reduced row by row."""
    if len(matrix) != codomain.ngens or (
        matrix and any(len(r) != domain.ngens for r in matrix)
    ):
        if not (codomain.ngens == 0 and not matrix):
            raise ValueError("matrix shape does not match domain/codomain")
    m = [list(r) for r in matrix]
    if codomain.ngens == 0:
        m = []
    cols = [codomain.reduce(tuple(m[i][j] for i in range(codomain.ngens)))
            for j in range(domain.ngens)]
    out = tuple(tuple(cols[j][i] for j in range(domain.ngens))
                for i in range(codomain.ngens))
    for i, d in enumerate(domain.torsion):
        gen = domain.rank + i
        img = tuple(d * out[r][gen] for r in range(codomain.ngens))
        if codomain.reduce(img) != codomain.zero():
            raise NotWellDefined(
                "generator %d of order %d maps to an element of larger order" % (gen, d)
            )
    return out


def lift_by_products(sq, q):
    """``sq.lift(q)`` through the presentation's section matrix and the
    Z-basis matrix: the construction before the section columns were kept."""
    rel = [sq.Z.coordinates(c) for c in sq.B.basis]
    _, _, sect = group_from_presentation(len(sq.Z.basis), rel)
    zbasis = matrix_from_columns(list(sq.Z.basis), sq.Z.ambient.ngens)
    return sq.Z.ambient.reduce(mat_vec(zbasis, mat_vec(sect, sq.group.reduce(q))))


def outcome(build):
    """The value of ``build()``, or the type and message of what it raises."""
    try:
        return build()
    except (ValueError, NotWellDefined) as exc:
        return type(exc), exc.args


class TestCanonicalDataMatchesOldConstructions:
    def test_hom_matrix_matches_column_reduction(self):
        rng = seeded(47)
        groups = TORSION_GROUPS + [FPAbGroup(3)]
        seen = {"ok": 0, ValueError: 0, NotWellDefined: 0, "trivial": 0}
        for _ in range(400):
            G, H = rng.choice(groups), rng.choice(groups)
            rows, cols = H.ngens, G.ngens
            if rng.random() < 0.15:
                if rng.random() < 0.5:
                    rows = max(0, rows + rng.choice((-1, 1)))
                else:
                    cols = max(0, cols + rng.choice((-1, 1)))
            m = [[rng.randint(-30, 30) for _ in range(cols)] for _ in range(rows)]
            want = outcome(lambda: hom_matrix_by_columns(G, H, m))
            got = outcome(lambda: Hom(G, H, m).matrix)
            assert got == want
            seen[want[0] if want and isinstance(want[0], type) else "ok"] += 1
            seen["trivial"] += G.is_trivial() or H.is_trivial()
        assert all(n >= 20 for n in seen.values()), seen

    def test_section_and_lift_match_the_two_products(self):
        rng = seeded(53)
        seen_trivial = seen_torsion = 0
        for _ in range(200):
            G = rng.choice(TORSION_GROUPS)
            Z = random_subgroup(G, rng)
            B = Subgroup.from_generators(
                G, [tuple(k * x for x in c) for c in Z.basis for k in [rng.randint(-3, 3)]])
            sq = subquotient(Z, B)
            n = sq.group.ngens
            assert sq.section_columns() == [
                lift_by_products(sq, tuple(int(i == j) for i in range(n))) for j in range(n)]
            for _ in range(3):
                q = tuple(rng.randint(-20, 20) for _ in range(n))
                assert sq.lift(q) == lift_by_products(sq, q)
            seen_trivial += sq.group.is_trivial()
            seen_torsion += bool(sq.group.torsion)
        assert seen_trivial >= 10 and seen_torsion >= 10


class TestHomThrough:
    Z2, Z4 = FPAbGroup(0, (2,)), FPAbGroup(0, (4,))

    def test_inclusion_through_a_lift(self):
        Z2, Z4 = self.Z2, self.Z4
        f = hom_through(whole(Z2), Hom.identity(Z2), Hom(Z4, Z2, [[1]]),
                        Hom(Z4, Z4, [[2]]), whole(Z4), "w")
        assert f == Hom(Z2, Z4, [[2]])

    def test_each_failure_is_a_theorem_violation(self):
        Z, Z2, Z4 = FPAbGroup(1), self.Z2, self.Z4
        reduce4 = Hom(Z4, Z2, [[1]])
        two_in_four = Subgroup.from_generators(Z4, [(2,)]).as_subquotient()
        cases = [
            # after sends Ker back = {0, 2} outside target.B = 0
            ((whole(Z2), Hom.identity(Z2), reduce4, Hom.identity(Z4), whole(Z4)),
             "relation is not single-valued modulo the target boundaries"),
            ((whole(Z2), Hom.identity(Z2), Hom.zero_map(Z4, Z2),
              Hom.zero_map(Z4, Z4), whole(Z4)),
             "relation has no preimage"),
            ((whole(Z4), Hom.identity(Z4), Hom.identity(Z4), Hom.identity(Z4), two_in_four),
             "relation value escapes the target cycles"),
            # Z/2Z -> Z, 1 |-> 1
            ((subquotient(Subgroup.full(Z), Subgroup.from_generators(Z, [(2,)])),
              Hom.identity(Z), Hom.identity(Z), Hom.identity(Z), whole(Z)),
             "relation is not additive"),
        ]
        for args, check in cases:
            with pytest.raises(TheoremViolation) as exc:
                hom_through(*args, (0, 0), 3)
            assert exc.value.args == (check, ((0, 0), 3))


class TestDirectSum:
    def test_invariant_factors_merge(self):
        G, incs, projs = direct_sum([FPAbGroup(1, (2,)), FPAbGroup(0, (4,))])
        assert G == FPAbGroup(1, (2, 4))
        for inc, prj in zip(incs, projs):
            assert prj.compose(inc) == Hom.identity(inc.domain)

    def test_empty_sum(self):
        G, incs, projs = direct_sum([])
        assert G == FPAbGroup()
        assert incs == [] and projs == []


class TestRequire:
    def test_violation_carries_check_and_witness(self):
        require(True, "never raised", (0, 0))
        with pytest.raises(TheoremViolation) as info:
            require(False, "page anchoring disagrees", (0, 0), 2)
        ex = info.value
        assert ex.args == ("page anchoring disagrees", ((0, 0), 2))
        assert (ex.check, ex.witness) == ex.args
        # existing ``pytest.raises(AssertionError)`` callers still match
        assert isinstance(ex, AssertionError)
