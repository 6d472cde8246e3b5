"""Exact linear algebra over the integers and finitely generated abelian groups.

Everything in this package ultimately reduces to integer matrix normal forms.
This module provides:

* Smith normal form with unimodular transform witnesses ``D = U * M * V``.
* A column-style Hermite form used as the canonical basis of a sublattice.
* ``FPAbGroup`` -- a finitely generated abelian group in canonical invariant
  factor form (free part first, then torsion in divisibility order).
* ``Subgroup`` -- a subgroup of an ``FPAbGroup`` stored as the canonical
  Hermite basis of its preimage lattice, so equality of subgroups is a
  tuple comparison.  Membership and coordinates in that basis come by
  forward substitution down its pivot rows.  As a group it is the
  subquotient ``S / 0``, so ``as_group`` and ``Hom.restrict`` project to
  it and solve nothing.
* ``Hom`` -- a homomorphism given by an integer matrix on canonical
  generators, with well-definedness checked at construction.
* Derived constructions: kernels, images, cokernels, preimages, subquotients
  with sections, induced maps, and the lattice algebra of subgroups.
* ``hom_on_generators``, the one constructor of derived maps, from the
  images of the domain generators; ``hom_through``, the checked map out of
  a subquotient given by a relation ``after o back^-1 o before``;
  ``short_exact``, the checked sequence ``K/B >-> Z/B ->> Z/K`` of nested
  subgroups ``B <= K <= Z``.

A Smith normal form runs only where a transform is needed: on the Hermite
basis of the relations in a presentation (``group_from_presentation``,
under every subquotient), and on the raw matrix for kernels,
intersections, preimages and ``Hom.solve_element``.  Within the package,
elements are solved for only in ``hom_through``, through a ``back`` map
that need not be injective.
* ``shared_results`` -- a context-scoped result table.  While one is open,
  images, preimages (and so kernels), images of subgroups, intersections,
  ``as_group`` and subquotients are looked up by the value of their inputs
  and computed only once; with none open they are computed on every call.
* ``require`` -- the one way every module of the package fails a theorem
  check: it raises ``TheoremViolation(check, witness)``.

All arithmetic uses Python's arbitrary precision integers; no floating point
is involved anywhere.

>>> G = FPAbGroup(rank=1, torsion=(6,))
>>> G.ngens
2
>>> G.reduce((3, 14))
(3, 2)
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

Vector = tuple  # tuple of ints
Matrix = list  # list of rows, each a list of ints


class AmbientMismatch(Exception):
    """Raised when an operation mixes subgroups of different ambient groups."""


class ContainmentViolation(Exception):
    """Raised when a required subgroup containment fails; carries a witness."""


class NotWellDefined(Exception):
    """Raised when a map fails to descend to a quotient; carries a witness."""


class TheoremViolation(AssertionError):
    """A theorem re-proved on the input failed: the library is wrong.

    ``args`` is ``(check, witness)``: ``check`` names the identity, and
    ``witness`` is the tuple of positions, page numbers and indices at
    which it failed.
    """

    @property
    def check(self) -> str:
        return self.args[0]

    @property
    def witness(self) -> tuple:
        return self.args[1]


def require(holds, check: str, *witness) -> None:
    """Raise ``TheoremViolation(check, witness)`` unless ``holds``.

    The one failure path of every theorem check in the package.  Unlike
    ``assert`` it also runs under ``python -O``.
    """
    if not holds:
        raise TheoremViolation(check, witness)


# ---------------------------------------------------------------------------
# shared results
# ---------------------------------------------------------------------------


_results: ContextVar = ContextVar("specseq_shared_results", default=None)


@contextmanager
def shared_results(table: dict):
    """Share derived results through ``table`` for the duration of the block.

    Inside the block, ``Hom.image``, ``Hom.preimage`` (and so ``kernel`` and
    ``is_mono``), ``Hom.image_of_subgroup``, ``Subgroup.intersection``,
    ``Subgroup.as_group`` and ``subquotient`` look up their result in
    ``table`` by the value of their inputs, and compute and store it only
    when it is absent.  They are pure functions of those values, so the
    answers are the same as without a table; equal inputs now get the same
    result object, which callers must not mutate.  Blocks nest: the
    innermost table is the one in use, and the previous one is restored on
    exit, also when the block raises.

    >>> G = FPAbGroup(rank=1, torsion=(4,))
    >>> f = Hom(G, G, [[2, 0], [0, 1]])
    >>> table = {}
    >>> with shared_results(table):
    ...     f.kernel() is f.kernel()
    True
    >>> f.kernel() is f.kernel()
    False
    >>> f.kernel() == f.kernel()
    True
    """
    token = _results.set(table)
    try:
        yield
    finally:
        _results.reset(token)


def _shared(key, compute):
    """``compute()``, looked up under ``key`` in the open result table."""
    table = _results.get()
    if table is None:
        return compute()
    try:
        return table[key]
    except KeyError:
        value = table[key] = compute()
        return value


# ---------------------------------------------------------------------------
# plain integer matrix helpers
# ---------------------------------------------------------------------------


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def unit_vector(n: int, j: int) -> Vector:
    """The ``j``-th standard basis vector of ``Z^n``."""
    return tuple(1 if i == j else 0 for i in range(n))


def zero_matrix(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    if A and B and len(A[0]) != len(B):
        raise ValueError("matrix dimension mismatch")
    inner = len(B)
    cols = len(B[0]) if B else 0
    return [
        [sum(row[k] * B[k][j] for k in range(inner)) for j in range(cols)]
        for row in A
    ]


def mat_vec(A: Matrix, v: Sequence[int]) -> Vector:
    if A and len(A[0]) != len(v):
        raise ValueError("matrix/vector dimension mismatch")
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in A)


def columns_of(A: Matrix) -> list:
    """Columns of ``A`` as a list of tuples (empty matrix has no columns)."""
    if not A:
        return []
    return [tuple(row[j] for row in A) for j in range(len(A[0]))]


def matrix_from_columns(cols: Sequence[Sequence[int]], nrows: int) -> Matrix:
    return [[col[i] for col in cols] for i in range(nrows)]


def _xgcd(a: int, b: int):
    """Extended gcd: returns (g, s, t) with s*a + t*b == g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def smith_normal_form(M: Matrix):
    """Smith normal form with transform witnesses.

    Args:
        M: Integer matrix with ``r`` rows and ``c`` columns.

    Returns:
        Tuple ``(U, D, V)`` of integer matrices with ``D = U * M * V``,
        ``U`` and ``V`` unimodular, and ``D`` diagonal with nonnegative
        entries satisfying ``D[0][0] | D[1][1] | ...``.
    """
    return _smith(M, inverses=False)[:3]


def _snf_with_inverses(M: Matrix):
    """Smith normal form that also tracks the inverse row transform.

    Returns ``(U, D, V, Uinv)`` with ``D = U M V`` and ``Uinv U = I``;
    ``U``, ``D`` and ``V`` equal those of ``smith_normal_form(M)``.
    """
    return _smith(M, inverses=True)


def _smith(M: Matrix, inverses: bool):
    """Shared SNF loop; ``Uinv`` is ``None`` unless ``inverses``."""
    rows = len(M)
    cols = len(M[0]) if M else 0
    D = [list(row) for row in M]
    U = identity_matrix(rows)
    V = identity_matrix(cols)
    Uinv = identity_matrix(rows) if inverses else None

    def row_combine(i1, i2, s, t, u, v):
        # rows (i1, i2) of D and U <- 2x2 transform; inverse column op on Uinv.
        for A in (D, U):
            r1, r2 = A[i1], A[i2]
            for j in range(len(r1)):
                a, b = r1[j], r2[j]
                r1[j] = s * a + t * b
                r2[j] = u * a + v * b
        if Uinv is None:
            return
        # [[s,t],[u,v]] has det +-1; inverse is det * [[v,-t],[-u,s]].
        det = s * v - t * u
        for r in Uinv:
            a, b = r[i1], r[i2]
            r[i1] = det * (v * a - u * b)
            r[i2] = det * (-t * a + s * b)

    def col_combine(j1, j2, s, t, u, v):
        for A in (D, V):
            for r in A:
                a, b = r[j1], r[j2]
                r[j1] = s * a + t * b
                r[j2] = u * a + v * b

    def negate_row(k):
        for A in (D, U):
            A[k] = [-x for x in A[k]]
        if Uinv is not None:
            for r in Uinv:
                r[k] = -r[k]

    n = min(rows, cols)
    for k in range(n):
        # Find a nonzero pivot in the remaining block.
        pr = pc = -1
        for i in range(k, rows):
            for j in range(k, cols):
                if D[i][j] != 0:
                    pr, pc = i, j
                    break
            if pr >= 0:
                break
        if pr < 0:
            break
        if pr != k:
            row_combine(k, pr, 0, 1, 1, 0)
        if pc != k:
            col_combine(k, pc, 0, 1, 1, 0)
        while True:
            # Clear column k below the pivot.  When the pivot already divides
            # the entry a plain row subtraction suffices (and never disturbs
            # the pivot row); otherwise a gcd combine shrinks the pivot.
            for i in range(k + 1, rows):
                a, b = D[k][k], D[i][k]
                if b == 0:
                    continue
                if a != 0 and b % a == 0:
                    row_combine(k, i, 1, 0, -(b // a), 1)
                else:
                    g, s, t = _xgcd(a, b)
                    row_combine(k, i, s, t, -(b // g), a // g)
            # Clear row k to the right of the pivot.
            dirty = False
            for j in range(k + 1, cols):
                a, b = D[k][k], D[k][j]
                if b == 0:
                    continue
                if a != 0 and b % a == 0:
                    col_combine(k, j, 1, 0, -(b // a), 1)
                else:
                    g, s, t = _xgcd(a, b)
                    col_combine(k, j, s, t, -(b // g), a // g)
                    dirty = True
            if not dirty and all(D[i][k] == 0 for i in range(k + 1, rows)):
                break
        if D[k][k] < 0:
            negate_row(k)

    # Enforce the divisibility chain d_k | d_{k+1}.
    changed = True
    while changed:
        changed = False
        for k in range(n - 1):
            a, b = D[k][k], D[k + 1][k + 1]
            if b % a if a else b:
                # Fold d_{k+1} into position k and re-diagonalize the 2x2 block.
                col_combine(k, k + 1, 1, 1, 0, 1)
                g, s, t = _xgcd(D[k][k], D[k + 1][k])
                row_combine(k, k + 1, s, t, -(D[k + 1][k] // g), D[k][k] // g)
                col_combine(k, k + 1, 1, 0, -(D[k][k + 1] // D[k][k]), 1)
                if D[k + 1][k + 1] < 0:
                    negate_row(k + 1)
                changed = True
    return U, D, V, Uinv


def hermite_column_form(cols: Sequence[Sequence[int]], nrows: int) -> tuple:
    """Canonical column-style Hermite basis of the lattice spanned by ``cols``.

    The result is a tuple of column tuples, one per lattice basis vector.
    Pivot rows strictly increase from left to right, pivots are positive,
    entries above a pivot vanish, and entries to the left of a pivot in its
    row are reduced into ``[0, pivot)``.  Two generating sets span the same
    lattice iff they produce equal output here.

    Rows are cleared top to bottom by a Euclidean step on whole columns.
    The live column with the smallest nonzero entry in the row subtracts
    its nearest-integer multiple from every other live column; a column
    whose entry becomes 0 leaves for the later rows.  This repeats until
    one live column is left.  Each step at least halves the smallest entry,
    and it changes a column only by a multiple of the pivot column whose
    quotient is the ratio of their two entries, so the multipliers spent on
    a row are bounded by the size of that row's entries.  An extended-gcd
    merge of two columns instead leaves behind a column scaled by both
    entries, and those factors compound from row to row in the columns
    that later rows reduce.  Columns are zero above the row being cleared,
    so only the rows from it down are touched.

    >>> hermite_column_form([(4, 6), (6, 4)], 2)
    ((2, 8), (0, 10))
    """
    work = [list(c) for c in cols if any(c)]
    kept: list = []
    for row in range(nrows):
        live = [c for c in work if c[row]]
        rest = [c for c in work if not c[row]]
        while len(live) > 1:
            piv = min(live, key=lambda c: abs(c[row]))
            p = piv[row]
            left = [piv]
            for c in live:
                if c is piv:
                    continue
                q, r = divmod(c[row], p)
                if 2 * abs(r) > abs(p):
                    q += 1
                for i in range(row, nrows):
                    c[i] -= q * piv[i]
                if c[row]:
                    left.append(c)
                elif any(c):
                    rest.append(c)
            live = left
        work = rest
        if not live:
            continue
        piv = live[0]
        if piv[row] < 0:
            piv = [-x for x in piv]
        # Reduce earlier pivots' entries in this row into [0, piv[row]).
        for c in kept:
            q = c[row] // piv[row]
            if q:
                for i in range(row, nrows):
                    c[i] -= q * piv[i]
        kept.append(piv)
    return tuple(tuple(c) for c in kept)


def kernel_basis(M: Matrix) -> list:
    """Basis (list of column tuples) for the integer kernel of ``M``."""
    rows = len(M)
    cols = len(M[0]) if M else 0
    if cols == 0:
        return []
    if rows == 0:
        return columns_of(identity_matrix(cols))
    _, D, V = smith_normal_form(M)
    n = min(rows, cols)
    basis = []
    for j in range(cols):
        if j >= n or D[j][j] == 0:
            basis.append(tuple(V[i][j] for i in range(cols)))
    return basis


def solve_matrix(M: Matrix, y: Sequence[int]) -> Optional[Vector]:
    """One integer solution ``x`` of ``M x = y``, or ``None`` if there is none."""
    rows = len(M)
    cols = len(M[0]) if M else 0
    if rows != len(y):
        raise ValueError("dimension mismatch in solve")
    if cols == 0:
        return () if all(v == 0 for v in y) else None
    U, D, V = smith_normal_form(M)
    w = mat_vec(U, y)
    z = [0] * cols
    n = min(rows, cols)
    for i in range(rows):
        d = D[i][i] if i < n else 0
        if d == 0:
            if w[i] != 0:
                return None
        else:
            if w[i] % d != 0:
                return None
            z[i] = w[i] // d
    return mat_vec(V, z)


# ---------------------------------------------------------------------------
# finitely generated abelian groups in canonical form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FPAbGroup:
    """A finitely generated abelian group in canonical invariant factor form.

    ``rank`` free generators come first, followed by one generator of order
    ``d`` for each ``d`` in ``torsion``; the torsion entries are all >= 2 and
    satisfy ``torsion[i] | torsion[i+1]``.  Two groups are isomorphic iff they
    are equal as dataclasses.

    Elements are integer tuples of length ``ngens``; ``reduce`` normalizes the
    torsion coordinates.
    """

    rank: int = 0
    torsion: tuple = ()

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("negative rank")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError("torsion coefficients must form a divisibility chain")
        if any(d < 2 for d in self.torsion):
            raise ValueError("torsion coefficients must be >= 2")

    @property
    def ngens(self) -> int:
        return self.rank + len(self.torsion)

    @property
    def orders(self) -> tuple:
        """Per-generator order: 0 for free generators, d for torsion ones."""
        return (0,) * self.rank + self.torsion

    def is_trivial(self) -> bool:
        return self.ngens == 0

    def order(self) -> Optional[int]:
        """Number of elements, or ``None`` if the group is infinite."""
        if self.rank:
            return None
        n = 1
        for d in self.torsion:
            n *= d
        return n

    def zero(self) -> Vector:
        return (0,) * self.ngens

    def reduce(self, v: Sequence[int]) -> Vector:
        if len(v) != self.ngens:
            raise ValueError("element has wrong length for group")
        return tuple(
            x % d if d else x for x, d in zip(v, self.orders)
        )

    def add(self, u: Sequence[int], v: Sequence[int]) -> Vector:
        return self.reduce(tuple(a + b for a, b in zip(u, v)))

    def relation_columns(self) -> list:
        """Columns spanning the relation lattice: ``d_i * e_i`` per torsion gen."""
        n = self.ngens
        cols = []
        for i, d in enumerate(self.torsion):
            col = [0] * n
            col[self.rank + i] = d
            cols.append(tuple(col))
        return cols

    def elements(self) -> Iterator[Vector]:
        """Iterate over all elements (finite groups only)."""
        if self.rank:
            raise ValueError("cannot enumerate an infinite group")
        yield from itertools.product(*(range(d) for d in self.torsion))

    def describe(self) -> str:
        """Human-readable invariant factor decomposition, e.g. ``Z^2 (+) Z/6``."""
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append("Z^%d" % self.rank)
        parts.extend("Z/%d" % d for d in self.torsion)
        return " (+) ".join(parts) if parts else "0"


def group_from_presentation(ngens: int, relation_cols: Sequence[Sequence[int]]):
    """Canonicalize ``Z^ngens`` modulo the lattice spanned by ``relation_cols``.

    The relations are first replaced by their Hermite basis
    (``hermite_column_form``): the same lattice, so the same quotient, given
    by at most ``ngens`` triangular columns with small entries.  The Smith
    normal form then runs on that basis.  Its row transform ``U`` is what
    the projection and section are read from, and column operations on the
    relations leave it a valid row transform; on the raw relation matrix
    its entries swell far beyond those of ``G``'s invariants.

    Returns:
        Tuple ``(G, proj, sect)`` where ``G`` is the quotient in canonical
        form, ``proj`` is a matrix sending old coordinates to canonical
        generators and ``sect`` lifts canonical generators back to old
        coordinates, so that ``proj * sect = id`` modulo the relations of
        ``G``.
    """
    basis = hermite_column_form(relation_cols, ngens)
    U, D, _, Uinv = _snf_with_inverses(matrix_from_columns(basis, ngens))
    n = len(basis)
    free_idx = []
    torsion_idx = []  # (d, old index)
    for i in range(ngens):
        d = D[i][i] if i < n else 0
        if d == 0:
            free_idx.append(i)
        elif d >= 2:
            torsion_idx.append((d, i))
    # d == 1 rows contribute nothing.  SNF already ordered the torsion by
    # divisibility; free generators come first in the canonical order.
    order = free_idx + [i for _, i in torsion_idx]
    G = FPAbGroup(rank=len(free_idx), torsion=tuple(d for d, _ in torsion_idx))
    proj = [U[i] for i in order]
    sect = [[Uinv[i][j] for j in order] for i in range(ngens)]
    return G, proj, sect


def direct_sum(groups: Sequence[FPAbGroup]):
    """Direct sum in canonical form with inclusion and projection maps.

    Returns ``(G, inclusions, projections)``; the summands' generators are
    concatenated and then re-canonicalized, so the maps are genuine ``Hom``s.
    """
    total = sum(g.ngens for g in groups)
    rel = []
    offset = 0
    for g in groups:
        for col in g.relation_columns():
            rel.append((0,) * offset + col + (0,) * (total - offset - g.ngens))
        offset += g.ngens
    G, proj, sect = group_from_presentation(total, rel)
    inclusions = []
    projections = []
    offset = 0
    for g in groups:
        inc = [[proj[i][offset + j] for j in range(g.ngens)] for i in range(G.ngens)]
        prj = [[sect[offset + i][j] for j in range(G.ngens)] for i in range(g.ngens)]
        inclusions.append(Hom(g, G, inc))
        projections.append(Hom(G, g, prj))
        offset += g.ngens
    return G, inclusions, projections


# ---------------------------------------------------------------------------
# subgroups as canonical lattices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of an ``FPAbGroup`` in canonical form.

    The subgroup is stored as the Hermite basis of its full preimage lattice
    in ``Z^ngens`` (which always contains the ambient relation lattice), so
    two subgroups of the same ambient group are equal iff their ``basis``
    tuples are equal.
    """

    ambient: FPAbGroup
    basis: tuple  # tuple of column tuples, canonical Hermite form

    @staticmethod
    def from_generators(ambient: FPAbGroup, gens: Sequence[Sequence[int]]) -> "Subgroup":
        cols = [tuple(g) for g in gens]
        for c in cols:
            if len(c) != ambient.ngens:
                raise ValueError("generator has wrong length for ambient group")
        cols.extend(ambient.relation_columns())
        return Subgroup(ambient, hermite_column_form(cols, ambient.ngens))

    @staticmethod
    def zero(ambient: FPAbGroup) -> "Subgroup":
        return Subgroup.from_generators(ambient, [])

    @staticmethod
    def full(ambient: FPAbGroup) -> "Subgroup":
        n = ambient.ngens
        return Subgroup.from_generators(ambient, columns_of(identity_matrix(n)))

    def _matrix(self) -> Matrix:
        return matrix_from_columns(list(self.basis), self.ambient.ngens)

    def coordinates(self, v: Sequence[int]) -> Optional[Vector]:
        """Integer coordinates of ``v`` in ``self.basis``, or ``None`` if ``v``
        is not in the subgroup.

        The basis is in column Hermite form, so forward substitution down its
        pivot rows finds them in O(ngens * len(basis)) steps.  The basis is
        linearly independent, so the coordinates are unique.

        >>> G = FPAbGroup(rank=1, torsion=(4,))
        >>> S = Subgroup.from_generators(G, [(2, 1)])
        >>> S.basis
        ((2, 1), (0, 4))
        >>> S.coordinates((6, 7))
        (3, 1)
        >>> S.coordinates((2, 3)) is None
        True
        """
        n = self.ambient.ngens
        r = list(v)
        if len(r) != n:
            raise ValueError("element has wrong length for ambient group")
        x = []
        row = 0
        for col in self.basis:
            # No remaining column reaches a row above this column's pivot,
            # so the residual must already vanish there.
            while col[row] == 0:
                if r[row]:
                    return None
                row += 1
            q, rem = divmod(r[row], col[row])
            if rem:
                return None
            if q:
                for i in range(row, n):
                    r[i] -= q * col[i]
            x.append(q)
            row += 1
        if any(r[row:]):
            return None
        return tuple(x)

    def contains(self, v: Sequence[int]) -> bool:
        return self.coordinates(v) is not None

    def contains_subgroup(self, other: "Subgroup") -> bool:
        if other.ambient != self.ambient:
            raise AmbientMismatch("subgroups live in different ambient groups")
        return all(self.contains(c) for c in other.basis)

    def is_zero(self) -> bool:
        return self == Subgroup.zero(self.ambient)

    def sum(self, other: "Subgroup") -> "Subgroup":
        if other.ambient != self.ambient:
            raise AmbientMismatch("subgroups live in different ambient groups")
        return Subgroup(
            self.ambient,
            hermite_column_form(self.basis + other.basis, self.ambient.ngens),
        )

    def intersection(self, other: "Subgroup") -> "Subgroup":
        if other.ambient != self.ambient:
            raise AmbientMismatch("subgroups live in different ambient groups")
        return _shared(("intersection", self, other), lambda: self._intersection(other))

    def _intersection(self, other: "Subgroup") -> "Subgroup":
        n = self.ambient.ngens
        A = self._matrix()
        B = other._matrix()
        # x in L1 /\ L2  <=>  x = A s = B t; read solutions off ker [A | -B].
        stacked = [A[i] + [-x for x in B[i]] for i in range(n)]
        gens = [mat_vec(A, k[: len(self.basis)]) for k in kernel_basis(stacked)]
        return Subgroup(self.ambient, hermite_column_form(gens, n))

    def as_subquotient(self) -> "SubquotientData":
        """The subgroup as the subquotient ``S / 0`` of its ambient group."""
        return subquotient(self, Subgroup.zero(self.ambient))

    def as_group(self):
        """The subgroup as an abstract group with its inclusion map.

        Both are read off ``as_subquotient()``: the group of ``S / 0``, and
        the map sending its canonical generators to their section columns.

        Returns:
            ``(S, incl)`` with ``S`` canonical and ``incl: S -> ambient``.
        """
        def compute():
            sq = self.as_subquotient()
            return sq.group, hom_on_generators(sq.group, self.ambient, sq.section_columns())

        return _shared(("as_group", self), compute)

    def group(self) -> FPAbGroup:
        return self.as_group()[0]


# ---------------------------------------------------------------------------
# homomorphisms
# ---------------------------------------------------------------------------


class Hom:
    """A homomorphism of canonical groups given by an integer matrix.

    The matrix has one column per domain generator, written in codomain
    coordinates.  Construction verifies that every domain relation maps into
    the codomain relation lattice and raises ``NotWellDefined`` otherwise.
    """

    __slots__ = ("domain", "codomain", "matrix")

    def __init__(self, domain: FPAbGroup, codomain: FPAbGroup, matrix: Matrix):
        if len(matrix) != codomain.ngens or (
            matrix and any(len(r) != domain.ngens for r in matrix)
        ):
            raise ValueError("matrix shape does not match domain/codomain")
        self.domain = domain
        self.codomain = codomain
        orders = codomain.orders
        # Row i is coordinate i of every image: reducing it by that
        # coordinate's order makes equal homs have equal matrices.
        self.matrix = tuple(
            tuple(x % d for x in row) if d else tuple(row)
            for row, d in zip(matrix, orders)
        )
        for gen, d in enumerate(domain.torsion, domain.rank):
            if any(d * row[gen] % o if o else row[gen]
                   for row, o in zip(self.matrix, orders)):
                raise NotWellDefined(
                    "generator %d of order %d maps to an element of larger order" % (gen, d)
                )

    def __call__(self, v: Sequence[int]) -> Vector:
        v = self.domain.reduce(v)
        return self.codomain.reduce(mat_vec(self.matrix, v))

    def __eq__(self, other):
        return (
            isinstance(other, Hom)
            and self.domain == other.domain
            and self.codomain == other.codomain
            and self.matrix == other.matrix
        )

    def __hash__(self):
        return hash((self.domain, self.codomain, self.matrix))

    def __repr__(self):
        return "Hom(%s -> %s, %r)" % (
            self.domain.describe(),
            self.codomain.describe(),
            self.matrix,
        )

    @staticmethod
    def identity(G: FPAbGroup) -> "Hom":
        return Hom(G, G, identity_matrix(G.ngens))

    @staticmethod
    def zero_map(domain: FPAbGroup, codomain: FPAbGroup) -> "Hom":
        return Hom(domain, codomain, zero_matrix(codomain.ngens, domain.ngens))

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.matrix for x in row)

    def compose(self, first: "Hom") -> "Hom":
        """``self`` after ``first`` (i.e. ``self o first``)."""
        if first.codomain != self.domain:
            raise ValueError("homs do not compose")
        rows, inner, cols = self.codomain.ngens, self.domain.ngens, first.domain.ngens
        m = [
            [
                sum(self.matrix[i][k] * first.matrix[k][j] for k in range(inner))
                for j in range(cols)
            ]
            for i in range(rows)
        ]
        return Hom(first.domain, self.codomain, m)

    def add(self, other: "Hom") -> "Hom":
        if other.domain != self.domain or other.codomain != self.codomain:
            raise ValueError("homs with different endpoints cannot be added")
        return Hom(
            self.domain,
            self.codomain,
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.matrix, other.matrix)
            ],
        )

    def negate(self) -> "Hom":
        return Hom(self.domain, self.codomain, [[-a for a in r] for r in self.matrix])

    # -- kernel / image / preimage ------------------------------------------

    def image(self) -> Subgroup:
        """The image, as a subgroup of the codomain.

        Shared by value in an open ``shared_results`` table; do not mutate.
        """
        return _shared(
            ("image", self.domain, self.codomain, self.matrix),
            lambda: Subgroup.from_generators(self.codomain, columns_of(self.matrix)),
        )

    def kernel(self) -> Subgroup:
        return self.preimage(Subgroup.zero(self.codomain))

    def preimage(self, S: Subgroup) -> Subgroup:
        """Full preimage of a subgroup of the codomain.

        Shared by value in an open ``shared_results`` table; do not mutate.
        """
        if S.ambient != self.codomain:
            raise AmbientMismatch("subgroup is not inside the codomain")
        return _shared(
            ("preimage", self.domain, self.codomain, self.matrix, S),
            lambda: self._preimage(S),
        )

    def _preimage(self, S: Subgroup) -> Subgroup:
        n_dom = self.domain.ngens
        if self.codomain.ngens == 0:
            return Subgroup.full(self.domain)
        M = [list(r) for r in self.matrix]
        B = matrix_from_columns(list(S.basis), self.codomain.ngens)
        stacked = [M[i] + [-x for x in B[i]] for i in range(self.codomain.ngens)]
        gens = [k[:n_dom] for k in kernel_basis(stacked)]
        return Subgroup.from_generators(self.domain, gens)

    def solve_element(self, y: Sequence[int]) -> Optional[Vector]:
        """One preimage of ``y`` under the map, or ``None`` if ``y`` is absent."""
        y = self.codomain.reduce(y)
        n_dom = self.domain.ngens
        if self.codomain.ngens == 0:
            return self.domain.zero()
        M = [list(r) for r in self.matrix]
        rel = matrix_from_columns(
            self.codomain.relation_columns(), self.codomain.ngens
        )
        aug = [M[i] + rel[i] for i in range(self.codomain.ngens)]
        x = solve_matrix(aug, y)
        if x is None:
            return None
        return self.domain.reduce(x[:n_dom])

    def image_of_subgroup(self, S: Subgroup) -> Subgroup:
        if S.ambient != self.domain:
            raise AmbientMismatch("subgroup is not inside the domain")
        return _shared(
            ("image_of_subgroup", self.domain, self.codomain, self.matrix, S),
            lambda: Subgroup.from_generators(self.codomain, [self(c) for c in S.basis]),
        )

    def is_mono(self) -> bool:
        return self.kernel() == Subgroup.zero(self.domain)

    def is_epi(self) -> bool:
        return self.image() == Subgroup.full(self.codomain)

    def is_iso(self) -> bool:
        return self.is_mono() and self.is_epi()

    def restrict(self, S: Subgroup, T: Subgroup) -> "Hom":
        """Restriction ``S -> T`` of the map, as the groups of ``as_group``.

        Raises ``ContainmentViolation((s, y))`` at the first inclusion column
        ``s`` of ``S`` whose image ``y`` does not lie in ``T``.
        """
        src, tgt = S.as_subquotient(), T.as_subquotient()
        images = []
        for s in src.section_columns():
            y = self(s)
            try:
                images.append(tgt.project(y))
            except ContainmentViolation:
                raise ContainmentViolation((s, y)) from None
        return hom_on_generators(src.group, tgt.group, images)


# ---------------------------------------------------------------------------
# quotients and subquotients
# ---------------------------------------------------------------------------


class SubquotientData:
    """The quotient ``Z / B`` of nested subgroups of an ambient group.

    Carries the canonical group together with a projection (defined on
    elements of ``Z``) and a section mapping canonical generators back to
    ambient representatives.
    """

    __slots__ = ("Z", "B", "group", "_proj", "_section")

    def __init__(self, Z: Subgroup, B: Subgroup):
        if Z.ambient != B.ambient:
            raise AmbientMismatch("subquotient pieces in different ambient groups")
        # One pass gives both the containment B <= Z and the relations of
        # Z / B in Z-basis coordinates; the witness is the first bad column.
        rel = []
        for c in B.basis:
            x = Z.coordinates(c)
            if x is None:
                raise ContainmentViolation(c)
            rel.append(x)
        self.Z = Z
        self.B = B
        G, proj, sect = group_from_presentation(len(Z.basis), rel)
        self.group = G
        self._proj = proj
        # Column j of sect holds the Z-basis coordinates of a lift of
        # canonical generator j.
        zbasis = Z._matrix()
        self._section = [Z.ambient.reduce(mat_vec(zbasis, col)) for col in columns_of(sect)]

    def project(self, v: Sequence[int]) -> Vector:
        """Class of an element of ``Z`` in the quotient."""
        x = self.Z.coordinates(v)
        if x is None:
            raise ContainmentViolation(tuple(v))
        return self.group.reduce(mat_vec(self._proj, x))

    def lift(self, q: Sequence[int]) -> Vector:
        """An ambient representative of a quotient element."""
        q = self.group.reduce(q)
        A = self.Z.ambient
        return A.reduce([sum(c * col[i] for c, col in zip(q, self._section))
                         for i in range(A.ngens)])

    def pull_back(self, S: Subgroup) -> Subgroup:
        """The preimage in ``Z`` of a subgroup ``S`` of the quotient: lifts of
        its basis together with ``B``."""
        return Subgroup.from_generators(
            self.Z.ambient, [self.lift(c) for c in S.basis] + list(self.B.basis)
        )

    def section_columns(self) -> list:
        """Ambient representatives of the canonical quotient generators."""
        return list(self._section)


def subquotient(Z: Subgroup, B: Subgroup) -> SubquotientData:
    """The subquotient ``Z / B``.

    Shared by value in an open ``shared_results`` table; do not mutate.
    """
    return _shared(("subquotient", Z, B), lambda: SubquotientData(Z, B))


def quotient_group(G: FPAbGroup, B: Subgroup):
    """``G / B`` with its projection hom.

    Returns:
        ``(Q, proj)`` where ``proj: G -> Q`` is surjective with kernel ``B``.
    """
    if B.ambient != G:
        raise AmbientMismatch("subgroup is not inside the group")
    sq = subquotient(Subgroup.full(G), B)
    gens = [unit_vector(G.ngens, j) for j in range(G.ngens)]
    return sq.group, hom_on_generators(G, sq.group, [sq.project(g) for g in gens])


def cokernel(f: Hom):
    """Cokernel of ``f`` with the projection from the codomain."""
    return quotient_group(f.codomain, f.image())


def induced_map(f: Hom, source: SubquotientData, target: SubquotientData) -> Hom:
    """The map ``source.group -> target.group`` induced by ``f``.

    Requires ``f(Z_source) <= Z_target`` and ``f(B_source) <= B_target``;
    raises ``NotWellDefined`` with a witness element otherwise.
    """
    if source.Z.ambient != f.domain or target.Z.ambient != f.codomain:
        raise AmbientMismatch("induced map endpoints do not match the hom")
    for c in source.Z.basis:
        if not target.Z.contains(f(c)):
            raise NotWellDefined((c, f(c)))
    for c in source.B.basis:
        if not target.B.contains(f(c)):
            raise NotWellDefined((c, f(c)))
    images = [target.project(f(z)) for z in source.section_columns()]
    return hom_on_generators(source.group, target.group, images)


def hom_through(source: SubquotientData, before: Hom, back: Hom, after: Hom,
                target: SubquotientData, *witness) -> Hom:
    """The map ``source.group -> target.group`` of the relation
    ``after o back^-1 o before``.

    Each canonical generator of ``source`` is lifted to its section column,
    sent by ``before``, pulled back to one preimage under ``back``, sent by
    ``after`` and projected to ``target``.  This is how a map out of a
    subquotient is induced by a relation rather than by a hom (Weibel,
    *An Introduction to Homological Algebra*, 5.9): the page differentials
    ``j o i^-(r-1) o k`` of an exact couple and the identifications of
    their E-infinity extensions.  Four checks go through ``require`` with
    ``witness``, so each failure raises ``TheoremViolation``: ``after(Ker
    back) <= target.B`` (the choice of preimage does not matter), every
    generator has a preimage, every value lies in ``target.Z``, and the
    values define a homomorphism.

    The inclusion ``Z/2 -> Z/4`` as "lift along ``Z/4 ->> Z/2``, then
    double":

    >>> Z2, Z4 = FPAbGroup(0, (2,)), FPAbGroup(0, (4,))
    >>> whole2, whole4 = Subgroup.full(Z2).as_subquotient(), Subgroup.full(Z4).as_subquotient()
    >>> hom_through(whole2, Hom.identity(Z2), Hom(Z4, Z2, [[1]]), Hom(Z4, Z4, [[2]]), whole4).matrix
    ((2,),)
    """
    ambiguity = after.image_of_subgroup(back.kernel())
    require(target.B.contains_subgroup(ambiguity),
            "relation is not single-valued modulo the target boundaries", *witness)
    images = []
    for z in source.section_columns():
        s = back.solve_element(before(z))
        require(s is not None, "relation has no preimage", *witness)
        value = after(s)
        require(target.Z.contains(value), "relation value escapes the target cycles", *witness)
        images.append(target.project(value))
    try:
        return hom_on_generators(source.group, target.group, images)
    except NotWellDefined:
        raise TheoremViolation("relation is not additive", witness) from None


def hom_on_generators(domain: FPAbGroup, codomain: FPAbGroup, images: Sequence[Sequence[int]]) -> Hom:
    """Hom sending the j-th canonical generator to ``images[j]``.

    The one constructor of derived maps; ``images`` come from lifts of the
    domain generators (``SubquotientData.section_columns``, or the columns
    of an ``as_group`` inclusion).  Over a trivial codomain they may be empty.
    """
    return Hom(domain, codomain, matrix_from_columns([tuple(v) for v in images], codomain.ngens))


def short_exact(B: Subgroup, K: Subgroup, Z: Subgroup, *witness):
    """The short exact sequence ``K/B >-> Z/B ->> Z/K`` of ``B <= K <= Z``.

    Returns ``(K/B, Z/B, Z/K, mono, epi)``: the three subquotients and the
    two maps induced by the identity of the ambient group.  The nesting,
    mono and epi ends, zero composite and exactness are each checked through
    ``require`` with ``witness``.

    >>> G = FPAbGroup(0, (8,))
    >>> B, K = Subgroup.from_generators(G, [(4,)]), Subgroup.from_generators(G, [(2,)])
    >>> [sq.group.describe() for sq in short_exact(B, K, Subgroup.full(G))[:3]]
    ['Z/2', 'Z/4', 'Z/2']
    """
    require(Z.contains_subgroup(K) and K.contains_subgroup(B),
            "short exact sequence subgroups are not nested", *witness)
    sq_kb, sq_zb, sq_zk = subquotient(K, B), subquotient(Z, B), subquotient(Z, K)
    ident = Hom.identity(Z.ambient)
    mono = induced_map(ident, sq_kb, sq_zb)
    epi = induced_map(ident, sq_zb, sq_zk)
    require(mono.is_mono() and epi.is_epi(),
            "short exact sequence ends are not mono and epi", *witness)
    require(epi.compose(mono).is_zero(), "short exact sequence does not compose to zero", *witness)
    require(mono.image() == epi.kernel(), "short exact sequence is not exact", *witness)
    return sq_kb, sq_zb, sq_zk, mono, epi
