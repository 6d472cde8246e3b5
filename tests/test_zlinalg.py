"""Tests for the integer linear algebra and abelian group layer.

The normal form routines are checked against independent oracles:
brute-force enumeration for small finite groups, Bareiss determinants for
unimodularity, and random unimodular recombinations for canonicality of the
Hermite basis.
"""

import itertools
import json
import math
import random
from fractions import Fraction

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
    kept,
    kernel_basis,
    mat_mul,
    mat_vec,
    matrix_from_columns,
    quotient_group,
    require,
    shared,
    shared_results,
    short_exact,
    smith_normal_form,
    solve_matrix,
    subquotient,
)
from specseq import zlinalg
from specseq.zlinalg import _smith
from specseq.spectral import whole

from conftest import SMALL_GROUPS, lift_and_hermite, random_hom, seeded


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


class Owner:
    """An owner of kept values that records each computation."""

    def __init__(self):
        self._memo = {}
        self.runs = []

    @kept
    def value(self, *args):
        self.runs.append(args)
        if "fail" in args:
            raise ValueError(args)
        return list(args)


class TestKept:
    def test_equal_arguments_compute_once(self):
        owner = Owner()
        first = owner.value(1, (2, 3))
        assert owner.value(1, (2, 3)) is first
        assert owner.value(1, (2, 3)) == [1, (2, 3)]
        assert owner.value(2) == [2]
        assert owner.runs == [(1, (2, 3)), (2,)]
        assert owner._memo == {("value", 1, (2, 3)): first, ("value", 2): [2]}

    def test_owners_share_nothing(self):
        a, b = Owner(), Owner()
        assert a.value(1) == b.value(1)
        assert a.value(1) is not b.value(1)
        assert a.runs == b.runs == [(1,)]
        assert a._memo is not b._memo

    def test_a_raising_call_keeps_nothing(self):
        owner = Owner()
        for _ in range(2):
            with pytest.raises(ValueError):
                owner.value("fail")
        assert owner.runs == [("fail",), ("fail",)]
        assert owner._memo == {}


def shared_recorder():
    """A shared function and the list of the calls it computed."""
    runs = []

    @shared
    def value(*args):
        runs.append(args)
        if "fail" in args:
            raise ValueError(args)
        return list(args)

    return value, runs


class TestShared:
    def test_equal_arguments_compute_once_per_table(self):
        value, runs = shared_recorder()
        table = {}
        with shared_results(table):
            first = value(1, (2, 3))
            assert value(1, (2, 3)) is first
            assert value(2) == [2]
        assert runs == [(1, (2, 3)), (2,)]
        name = value.__qualname__
        assert table == {(name, 1, (2, 3)): first, (name, 2): [2]}
        with shared_results({}):
            assert value(1, (2, 3)) is not first
        assert runs == [(1, (2, 3)), (2,), (1, (2, 3))]

    def test_no_table_computes_every_call(self):
        value, runs = shared_recorder()
        assert value(1) == value(1)
        assert value(1) is not value(1)
        assert runs == [(1,)] * 4

    def test_a_raising_call_stores_nothing(self):
        value, runs = shared_recorder()
        table = {}
        with shared_results(table):
            for _ in range(2):
                with pytest.raises(ValueError):
                    value("fail")
        assert runs == [("fail",), ("fail",)]
        assert table == {}

    def test_a_map_is_its_own_key(self):
        G = FPAbGroup(1, (4,))
        f, g = Hom(G, G, [[2, 0], [0, 1]]), Hom(G, G, [[2, 0], [0, 5]])
        assert f == g and f is not g
        with shared_results({}):
            assert f.kernel() is g.kernel()
            assert f.image() is g.image()

    def test_a_map_keeps_its_image_and_kernel(self):
        G = FPAbGroup(1, (4,))
        f = Hom(G, G, [[2, 0], [0, 1]])
        assert f.kernel() is f.kernel()
        assert f.image() is f.image()

    def test_a_second_question_makes_no_table_lookup(self):
        class Counted(dict):
            lookups = 0

            def __getitem__(self, key):
                self.lookups += 1
                return super().__getitem__(key)

        G = FPAbGroup(1, (4,))
        f = Hom(G, G, [[2, 0], [0, 1]])
        table = Counted()
        with shared_results(table):
            kernel, image = f.kernel(), f.image()
            assert table.lookups == 2  # one miss each
            for _ in range(3):
                assert f.kernel() is kernel and f.image() is image
        assert table.lookups == 2

    def test_a_kept_hash_is_the_value_hash(self):
        G = FPAbGroup(1, (4,))
        f = Hom(G, G, [[2, 0], [0, 1]])
        assert hash(f) == hash(Hom(G, G, [[2, 0], [0, 1]]))
        assert hash(f) == hash(Hom(G, G, [[2, 0], [0, 5]]))  # 5 = 1 in Z/4
        f.kernel()
        assert hash(f) == hash((G, G, ((2, 0), (0, 1))))

    def test_induced_maps_shared_inside_a_table_only(self):
        # equal maps between equal subquotients built apart: the subquotients
        # are one object inside a table, so the induced maps are too
        G = FPAbGroup(0, (12,))
        f, g = Hom(G, G, [[5]]), Hom(G, G, [[17]])
        Z, B = Subgroup.from_generators(G, [(2,)]), Subgroup.from_generators(G, [(6,)])
        with shared_results({}):
            assert induced_map(f, subquotient(Z, B), subquotient(Z, B)) is induced_map(
                g, subquotient(Z, B), subquotient(Z, B))
        first = induced_map(f, subquotient(Z, B), subquotient(Z, B))
        again = induced_map(f, subquotient(Z, B), subquotient(Z, B))
        assert first == again and first is not again

    def test_an_ill_defined_induced_map_stores_nothing(self):
        G = FPAbGroup(0, (4,))
        top = subquotient(Subgroup.full(G), Subgroup.zero(G))
        mod_2 = subquotient(Subgroup.full(G), Subgroup.from_generators(G, [(2,)]))
        table = {}
        with shared_results(table):
            for _ in range(2):
                with pytest.raises(NotWellDefined) as exc:
                    induced_map(Hom.identity(G), mod_2, top)
                assert exc.value.args == (((2,), (2,)),)
        assert not any(key[0] == induced_map.__qualname__ for key in table)


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
        U, _, _, Uinv = _smith(M)
        assert mat_mul(Uinv, U) == identity_matrix(len(M))

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


@st.composite
def rank_deficient_systems(draw):
    """``(M, y)``: ``M`` has up to 3 columns with entries up to 10^6 in size
    and 1 to 3 more columns that are small combinations of them, in some
    order; ``y`` is ``M x`` for a small ``x``, maybe moved by a unit vector."""
    rows, k = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    entries = st.lists(st.integers(-10**6, 10**6), min_size=rows, max_size=rows)
    base = [draw(entries) for _ in range(k)]
    cols = list(base)
    for _ in range(draw(st.integers(1, 3))):
        mult = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
        cols.append([sum(m * c[i] for m, c in zip(mult, base)) for i in range(rows)])
    M = matrix_from_columns(draw(st.permutations(cols)), rows)
    x = draw(st.lists(st.integers(-5, 5), min_size=len(cols), max_size=len(cols)))
    y = list(mat_vec(M, x))
    if draw(st.booleans()):
        y[draw(st.integers(0, rows - 1))] += 1
    return M, tuple(y)


# Both sides may be trivial, free, torsion or mixed.
GRAPH_GROUPS = [FPAbGroup(), FPAbGroup(0, (4,)), FPAbGroup(0, (2, 6)), FPAbGroup(1),
                FPAbGroup(1, (2,)), FPAbGroup(1, (3, 6)), FPAbGroup(2, (4,)),
                FPAbGroup(0, (2, 4, 8))]


@st.composite
def torsion_homs(draw):
    """``(f, ys)``: a well-defined map between groups of ``GRAPH_GROUPS``
    and codomain vectors to solve for: images ``f(x)``, arbitrary vectors
    (mostly outside the image) and zero."""
    G, H = draw(st.sampled_from(GRAPH_GROUPS)), draw(st.sampled_from(GRAPH_GROUPS))
    m = [[0] * G.ngens for _ in range(H.ngens)]
    for j, d in enumerate(G.orders):
        for i, o in enumerate(H.orders):
            # a generator of order d may go to a multiple of o / gcd(o, d)
            step = (o // math.gcd(o, d) if o else 0) if d else 1
            m[i][j] = step * draw(st.integers(-40, 40))
    f = Hom(G, H, m)
    vectors = st.lists(st.integers(-20, 20), min_size=H.ngens, max_size=H.ngens)
    xs = draw(st.lists(st.lists(st.integers(-20, 20), min_size=G.ngens, max_size=G.ngens),
                       max_size=3))
    ys = [f(x) for x in xs] + draw(st.lists(vectors, max_size=3)) + [H.zero()]
    return f, ys


def preimage_through_negated_basis(f, S):
    """``f.preimage(S)`` as an earlier version built it: the domain parts of
    the kernel basis of ``[M | -B]``, ``B`` the basis of ``S``, brought to
    Hermite form with the domain's relations."""
    rows, n_dom = f.codomain.ngens, f.domain.ngens
    if rows == 0:
        return Subgroup.full(f.domain)
    B = matrix_from_columns(list(S.basis), rows)
    stacked = [list(r) + [-x for x in B[i]] for i, r in enumerate(f.matrix)]
    return Subgroup.from_generators(f.domain, [k[:n_dom] for k in kernel_basis(stacked)])


def kernel_through_negated_relations(f):
    """``ker f`` as an earlier version built it: the preimage of zero, whose
    basis is the codomain's relation columns ``R``, through ``[M | -R]``."""
    return preimage_through_negated_basis(f, Subgroup.zero(f.codomain))


def image_through_generators(f):
    """``im f`` as an earlier version built it: the Hermite form of the
    columns of ``M`` with the codomain's relations."""
    return Subgroup.from_generators(f.codomain, columns_of(f.matrix))


def solve_through_augmented_matrix(f, y):
    """``f.solve_element(y)`` as an earlier version computed it: the domain
    part of ``solve_matrix([M | R], y)``."""
    y = f.codomain.reduce(y)
    rows = f.codomain.ngens
    if rows == 0:
        return f.domain.zero()
    rel = matrix_from_columns(f.codomain.relation_columns(), rows)
    x = solve_matrix([list(r) + rel[i] for i, r in enumerate(f.matrix)], y)
    return None if x is None else f.domain.reduce(x[:f.domain.ngens])


class TestKernelAndSolve:
    @given(rank_deficient_systems())
    @settings(max_examples=200, deadline=None)
    def test_kernel_and_solve_against_hermite_and_membership(self, case):
        """The kernel basis is its own Hermite form and spans ``cols - rank``
        dimensions; ``M x = y`` is solved exactly when the column lattice of
        ``M`` contains ``y``."""
        M, y = case
        cols = len(M[0])
        K = kernel_basis(M)
        assert tuple(K) == hermite_column_form(K, cols)
        assert len(K) == cols - rational_rank(M)
        assert all(not any(mat_vec(M, k)) for k in K)
        x = solve_matrix(M, y)
        member = Subgroup.from_generators(FPAbGroup(len(M)), columns_of(M)).contains(y)
        assert (x is not None) == member
        if member:
            assert mat_vec(M, x) == y

    def test_no_smith_form_behind_kernels_and_solving(self, monkeypatch):
        """Kernels, preimages, intersections and solving read a Hermite form
        only; a Smith form runs in presentations alone."""
        def no_smith(*args, **kwargs):
            raise AssertionError("Smith form outside a presentation")

        monkeypatch.setattr(zlinalg, "_smith", no_smith)
        assert kernel_basis([[2, 4, 6]]) == [(1, 1, -1), (0, 3, -2)]
        assert kernel_basis([[1, 2], [2, 4]]) == [(2, -1)]
        assert mat_vec([[2, 4, 6]], solve_matrix([[2, 4, 6]], (10,))) == (10,)
        assert solve_matrix([[2, 4, 6]], (3,)) is None
        assert solve_matrix([[1, 2], [2, 4]], (1, 3)) is None
        G, H = FPAbGroup(1, (4,)), FPAbGroup(1, (2,))
        f = Hom(G, H, [[2, 0], [1, 1]])  # (a, b) -> (2a, a + b)
        assert f.kernel() == Subgroup.from_generators(G, [(0, 2)])
        S = Subgroup.from_generators(H, [(2, 0)])
        assert f.preimage(S) == Subgroup.from_generators(G, [(1, 1), (0, 2)])
        S1, S2 = Subgroup.from_generators(G, [(1, 0)]), Subgroup.from_generators(G, [(1, 1)])
        assert S1.intersection(S2) == Subgroup.from_generators(G, [(4, 0)])
        assert f(f.solve_element((2, 1))) == (2, 1)
        assert f.solve_element((1, 0)) is None
        assert f.solve_element((3, 0)) is None

    @pytest.mark.parametrize("n", [24, 32, 48])
    def test_kernel_and_solve_stay_bounded(self, n):
        """An n x n matrix with entries in [-9, 9] and two columns made
        dependent has a 2-vector kernel and solves with small entries: both
        come from a Hermite form of ``[M; I]``, not from Smith transforms."""
        rng = random.Random(n)
        M = full_rank_matrix(n, rng)
        for row in M:
            row[-1] = row[0] - 2 * row[1]
            row[-2] = 3 * row[2] + row[3]
        K = kernel_basis(M)
        assert len(K) == 2
        assert all(not any(mat_vec(M, k)) for k in K)
        y = mat_vec(M, [rng.randint(-9, 9) for _ in range(n)])
        x = solve_matrix(M, y)
        assert mat_vec(M, x) == y
        assert max(abs(v).bit_length() for c in K + [x] for v in c) < 1000
        if n >= 32:
            # the same answers through one Hom, from its one graph form
            F = FPAbGroup(n)
            f = Hom(F, F, M)
            assert f.kernel() == Subgroup.from_generators(F, K)
            assert f.solve_element(y) == x

    @given(torsion_homs())
    @settings(max_examples=200, deadline=None)
    def test_shared_form_matches_the_old_constructions(self, case):
        """The image, the kernel and every solution read off the map's one
        graph form of ``[M | R]`` are those of the separate constructions,
        and a solution exists exactly for the elements of the image."""
        f, ys = case
        assert f.kernel() == kernel_through_negated_relations(f)
        image = f.image()
        assert image == image_through_generators(f)
        for y in ys:
            x = f.solve_element(y)
            assert x == solve_through_augmented_matrix(f, y)
            assert (x is None) == (not image.contains(f.codomain.reduce(y)))
            if x is not None:
                assert f(x) == f.codomain.reduce(y)
        # solving first builds the same form for the kernel and the image
        g = Hom(f.domain, f.codomain, f.matrix)
        assert [g.solve_element(y) for y in ys] == [f.solve_element(y) for y in ys]
        assert g.kernel() == f.kernel()
        assert g.image() == image

    @given(torsion_homs(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_preimage_matches_the_old_construction(self, case, data):
        """The preimage of any subgroup ``S``, the x-parts of one Hermite
        form of the kernel of ``[M | S.basis]``, is that of the separate
        kernel and Hermite form, and maps into ``S``."""
        f, _ = case
        H = f.codomain
        vectors = st.lists(st.integers(-20, 20), min_size=H.ngens, max_size=H.ngens)
        S = Subgroup.from_generators(H, data.draw(st.lists(vectors, max_size=3)))
        P = f.preimage(S)
        assert P == preimage_through_negated_basis(f, S)
        assert all(S.contains(f(c)) for c in P.basis)

    def test_one_graph_form_per_map(self, monkeypatch):
        """A map builds its graph form once, for its kernel, its image and
        all its solutions, and no other Hermite form runs for them; an
        equal map builds its own, and equality, hashing and ``repr`` never
        read it."""
        built, forms = [], []
        graph_hermite = zlinalg._graph_hermite
        hermite = zlinalg.hermite_column_form

        def counted(M):
            built.append(M)
            return graph_hermite(M)

        def counted_forms(cols, nrows):
            forms.append(cols)
            return hermite(cols, nrows)

        G, H = FPAbGroup(1, (4,)), FPAbGroup(1, (6,))
        kernel = Subgroup.from_generators(G, [(0, 2)])
        image = Subgroup.from_generators(H, [(2, 1), (0, 3)])
        monkeypatch.setattr(zlinalg, "_graph_hermite", counted)
        monkeypatch.setattr(zlinalg, "hermite_column_form", counted_forms)
        f = Hom(G, H, [[2, 0], [1, 3]])  # (a, b) -> (2a, a + 3b)
        g = Hom(G, H, [[2, 0], [1, 3]])
        before = (f == g, hash(f), hash(g), repr(f), repr(g))
        assert f.kernel() == kernel
        assert f.image() == image
        xs = [f.solve_element(y) for y in [(2, 1), (4, 5), (1, 0), (0, 3), (6, 2)]]
        assert [None if x is None else f(x) for x in xs] == [(2, 1), (4, 5), None, (0, 3), None]
        assert len(built) == 1
        assert len(forms) == 1
        assert (f == g, hash(f), hash(g), repr(f), repr(g)) == before
        assert g.solve_element((2, 1)) == (1, 0)
        assert len(built) == 2
        assert g.kernel() == f.kernel()
        assert len(built) == 2
        assert (f == g, hash(f), hash(g), repr(f), repr(g)) == before
        assert f.solve_element((0, 0)) == (0, 0)  # zero needs no form
        assert Hom(G, H, [[2, 0], [1, 3]]).solve_element((0, 6)) == (0, 0)
        assert len(built) == 2

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

    def test_kernel_basis_spans_the_kernel(self):
        """The basis has ``cols - rank(M)`` vectors, and every kernel vector
        in a box around 0 is an integer combination of them (tested against
        their Hermite basis, not through a Smith form)."""
        rng = random.Random(31)
        for t in range(80):
            rows, cols = rng.randint(1, 3), rng.randint(1, 4)
            if t % 2:
                M = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
            else:  # M = A C has the kernel of C, which has small vectors
                k = rng.randint(0, cols)
                A = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(rows)]
                C = [[rng.randint(-1, 1) for _ in range(cols)] for _ in range(k)]
                M = mat_mul(A, C) if k else [[0] * cols for _ in range(rows)]
            basis = kernel_basis(M)
            assert len(basis) == cols - rational_rank(M), (t, M)
            span = Subgroup.from_generators(FPAbGroup(cols), basis)
            box = 2 if cols == 4 else 3
            for x in itertools.product(range(-box, box + 1), repeat=cols):
                if not any(mat_vec(M, x)):
                    assert span.contains(x), (t, M, x)


def rational_rank(M):
    """Rank of ``M`` over the rationals, by Gaussian elimination on fractions."""
    A = [[Fraction(x) for x in row] for row in M]
    rank = 0
    for j in range(len(A[0]) if A else 0):
        pivot = next((i for i in range(rank, len(A)) if A[i][j]), None)
        if pivot is None:
            continue
        A[rank], A[pivot] = A[pivot], A[rank]
        for i in range(rank + 1, len(A)):
            f = A[i][j] / A[rank][j]
            A[i] = [a - f * b for a, b in zip(A[i], A[rank])]
        rank += 1
    return rank


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

    def test_inputs_are_checked_at_construction(self):
        G = FPAbGroup(0, [2])
        assert G.torsion == (2,) and G == FPAbGroup(0, (2,))
        assert hash(G) == hash(FPAbGroup(0, (2,)))
        for rank, torsion in ((1.0, ()), (0, (2.0,)), ("1", ()), (True, ()), (0, (2, 4.0))):
            with pytest.raises(TypeError):
                FPAbGroup(rank, torsion)

    def test_stored_invariants_leave_the_value_unchanged(self):
        """Equality, hashing and ``repr`` see only ``(rank, torsion)``, and
        the stored invariants are those of the per-call formulas."""
        for G in seeded_groups(60, 41):
            twin = FPAbGroup(rank=G.rank, torsion=tuple(G.torsion))
            assert G == twin
            assert hash(G) == hash(twin) == hash((G.rank, G.torsion))
            assert repr(G) == "FPAbGroup(rank=%r, torsion=%r)" % (G.rank, G.torsion)
            assert G.ngens == G.rank + len(G.torsion)
            assert G.orders == (0,) * G.rank + G.torsion
            old_relations = []
            for i, d in enumerate(G.torsion):
                col = [0] * G.ngens
                col[G.rank + i] = d
                old_relations.append(tuple(col))
            assert G.relation_columns() == old_relations
        assert FPAbGroup(1) != FPAbGroup(0, (2,)) and FPAbGroup(1) != (1, ())

    def test_relation_columns_is_a_fresh_list(self):
        G = FPAbGroup(1, (2, 4))
        rel = G.relation_columns()
        zero = Subgroup.zero(G)
        rel.append((1, 1, 1))
        rel[0] = (0, 0, 0)
        assert G.relation_columns() == [(0, 2, 0), (0, 0, 4)]
        assert Subgroup.zero(G) == zero == Subgroup.from_generators(G, [])
        assert G == FPAbGroup(1, (2, 4)) and G.ngens == 3

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


def seeded_groups(count, seed):
    """``count`` canonical groups in turn trivial, free only, torsion only,
    mixed, and with a long divisibility chain."""
    rng = random.Random(seed)
    for t in range(count):
        rank = (0, rng.randint(1, 4), 0, rng.randint(1, 4), rng.randint(0, 2))[t % 5]
        length = (0, 0, rng.randint(1, 3), rng.randint(1, 3), rng.randint(4, 7))[t % 5]
        torsion, d = [], 1
        for _ in range(length):
            d *= rng.randint(2, 5)
            torsion.append(d)
        yield FPAbGroup(rank, tuple(torsion))


class TestSubgroups:
    def test_zero_and_full_in_closed_form(self):
        """The closed forms equal the Hermite forms of their generators."""
        for G in seeded_groups(320, 43):
            n = G.ngens
            zero, full = Subgroup.zero(G), Subgroup.full(G)
            assert zero == Subgroup.from_generators(G, []), G
            assert full == Subgroup.from_generators(G, columns_of(identity_matrix(n))), G
            for S in (zero, full):
                assert S.basis == hermite_column_form(S.basis, n), G
            assert zero.is_zero() and (full.is_zero() == (G.order() == 1))
            assert all(full.contains(c) for c in columns_of(identity_matrix(n)))

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

    def test_is_identity(self):
        Z4, Z6 = FPAbGroup(0, (4,)), FPAbGroup(0, (6,))
        for G in SMALL_GROUPS + [FPAbGroup()]:
            assert Hom.identity(G).is_identity()
        assert Hom(Z6, Z6, [[7]]).is_identity()  # 7 = 1 in Z/6
        assert not Hom(Z6, Z6, [[5]]).is_identity()
        assert not Hom(Z4, FPAbGroup(0, (2,)), [[1]]).is_identity()
        assert not Hom(FPAbGroup(1, (2,)), FPAbGroup(1, (2,)), [[1, 0], [1, 1]]).is_identity()

    def test_identity_operand_returns_the_other_map(self):
        G, H = FPAbGroup(1, (4,)), FPAbGroup(0, (6,))
        f = Hom(G, H, [[1, 3]])
        assert f.compose(Hom.identity(G)) is f
        assert Hom.identity(H).compose(f) is f
        assert Hom(H, H, [[7]]).compose(f) is f  # 7 = 1 in Z/6
        with pytest.raises(ValueError):
            f.compose(Hom.identity(H))
        with pytest.raises(ValueError):
            Hom.identity(G).compose(f)

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
        # cycles land in cycles, but the boundary 2 is not a boundary there
        mod_2 = subquotient(Subgroup.full(G), Subgroup.from_generators(G, [(2,)]))
        with pytest.raises(NotWellDefined) as exc:
            induced_map(Hom.identity(G), mod_2, top)
        assert exc.value.args == (((2,), (2,)),)


@st.composite
def subquotients_with_subgroups(draw):
    """A random subquotient ``Z/B`` and a subgroup of ``Z/B`` spanned by at
    most two random vectors (so it may be zero, proper or the whole)."""
    Z, _, _ = draw(subgroups_with_vectors())
    ks = draw(st.lists(st.integers(-3, 3), min_size=len(Z.basis), max_size=len(Z.basis)))
    B = Subgroup.from_generators(
        Z.ambient, [tuple(k * x for x in c) for k, c in zip(ks, Z.basis)])
    sq = subquotient(Z, B)
    n = sq.group.ngens
    vector = st.lists(st.integers(-6, 6), min_size=n, max_size=n).map(tuple)
    return sq, Subgroup.from_generators(sq.group, draw(st.lists(vector, max_size=2)))


class TestPullBack:
    @given(subquotients_with_subgroups())
    @settings(max_examples=150, deadline=None)
    def test_closed_forms_match_the_generic_path(self, case):
        """The zero and the whole quotient pull back to B and Z themselves,
        which is what lifting and a Hermite form give; any S agrees."""
        sq, S = case
        zero, full = Subgroup.zero(sq.group), Subgroup.full(sq.group)
        assert sq.pull_back(zero) is sq.B
        # over a trivial quotient the zero and the whole coincide, and Z == B
        assert sq.pull_back(full) is (sq.B if zero == full else sq.Z)
        assert lift_and_hermite(sq, zero) == sq.B
        assert lift_and_hermite(sq, full) == sq.Z
        assert sq.pull_back(S) == lift_and_hermite(sq, S)

    def test_proper_subgroups_take_the_generic_path(self, monkeypatch):
        rng = seeded(61)
        cases = []
        while len(cases) < 20:
            G = rng.choice([FPAbGroup(0, (8,)), FPAbGroup(0, (2, 4)), FPAbGroup(1, (4,))])
            Z = random_subgroup(G, rng)
            sq = subquotient(Z, Subgroup.from_generators(G, [tuple(3 * x for x in Z.basis[-1])]))
            if sq.group.is_trivial():
                continue
            S = Subgroup.from_generators(sq.group, [tuple(rng.randint(-4, 4) for _ in
                                                          range(sq.group.ngens))])
            if S not in (Subgroup.zero(sq.group), Subgroup.full(sq.group)):
                cases.append((sq, S, lift_and_hermite(sq, S)))
        calls = []
        generic = Subgroup.from_generators

        def counted(ambient, gens):
            calls.append(ambient)
            return generic(ambient, gens)

        monkeypatch.setattr(Subgroup, "from_generators", staticmethod(counted))
        for sq, S, want in cases:
            calls.clear()
            sq.pull_back(Subgroup.zero(sq.group))
            sq.pull_back(Subgroup.full(sq.group))
            assert calls == []
            assert sq.pull_back(S) == want and calls == [sq.Z.ambient]


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
