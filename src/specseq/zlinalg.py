"""Exact linear algebra over the integers and finitely generated abelian groups.

Everything in this package ultimately reduces to integer matrix normal forms.
This module provides:

* Smith normal form with unimodular transform witnesses ``D = U * M * V``.
* A column-style Hermite form used as the canonical basis of a sublattice,
  and of the graph of a matrix for its kernel and for solving.
* ``FPAbGroup`` -- a finitely generated abelian group in canonical invariant
  factor form (free part first, then torsion in divisibility order).  Its
  ``ngens``, ``orders`` and relation columns are computed once, at
  construction.
* ``Subgroup`` -- a subgroup of an ``FPAbGroup`` stored as the canonical
  Hermite basis of its preimage lattice, so equality of subgroups is a
  tuple comparison.  Membership and coordinates in that basis come by
  forward substitution down its pivot rows.  As a group it is the
  subquotient ``S / 0``, so ``as_group`` and ``Hom.restrict`` project to
  it and solve nothing.  ``Subgroup.zero`` and ``Subgroup.full`` are in
  closed form, and no normal form runs for them: the relation columns
  ``d_i * e_i`` and the unit columns ``e_i`` are already Hermite bases.
  ``is_zero`` and ``is_full`` compare a basis with those columns, and
  images, preimages, images of subgroups, sums and intersections that a
  zero or whole subgroup, a zero map or an identity decide are answered in
  closed form, with no normal form.
* ``Hom`` -- a homomorphism given by an integer matrix on canonical
  generators, with well-definedness checked at construction.
* Derived constructions: kernels, images, cokernels, preimages, subquotients
  with sections, induced maps, and the lattice algebra of subgroups.
* ``hom_on_generators``, the one constructor of derived maps, from the
  images of the domain generators; ``hom_through``, the checked map out of
  a subquotient given by a relation ``after o back^-1 o before``;
  ``short_exact``, the checked sequence ``K/B >-> Z/B ->> Z/K`` of nested
  subgroups ``B <= K <= Z``.

A Smith normal form runs only in a presentation, on the Hermite basis of
its relations (``group_from_presentation``, under every subquotient).
Kernels and solving read one Hermite form of ``[M; I]``, the graph of
``M``, split once into image and kernel columns: the kernel columns have
zero top part and are the kernel, already in Hermite form, and
``solve_matrix`` forward-substitutes down the image columns, which carry
a preimage each; kernels give intersections and preimages.  Each ``Hom``
builds one graph form, of ``[M | R]`` with ``R`` its codomain's relation
columns, on first use and keeps it: its ``image`` is the top parts of the
image columns, its ``kernel`` the nonzero domain parts of the kernel
columns, both already Hermite bases, and every ``solve_element`` reads
the same form.  A map keeps its image and kernel too, after one lookup in
the open ``shared_results`` table, and its hash.  Within the package,
elements are solved for only in ``hom_through``, through a ``back`` map
that need not be injective, whose kernel it also reads.
* Two keep rules for derived results, one per owner and one per value.
  ``kept`` keeps ``fn(owner, *args)`` in the owner's ``_memo``: diagrams,
  couples, morphisms and spectral sequences keep their derived data there.
  ``shared`` looks ``fn(*args)`` up by the value of its arguments in the
  table a ``shared_results`` block opens: identity and zero maps, images,
  preimages (and so kernels), images of subgroups, sums, intersections,
  ``as_group``, subquotients and the maps they induce are computed once
  per table, and on every call when no table is open.
* ``require`` -- the one way every module of the package fails a theorem
  check: it raises ``TheoremViolation(check, witness)``.
* ``ValidationFailure`` and ``CheckFailure`` -- the two bases of every
  exception class of the package: rejected input, and a failed check.

All arithmetic uses Python's arbitrary precision integers; no floating point
is involved anywhere.

>>> G = FPAbGroup(rank=1, torsion=(6,))
>>> G.ngens
2
>>> G.reduce((3, 14))
(3, 2)
"""

from __future__ import annotations

import functools
import itertools
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

Vector = tuple  # tuple of ints
Matrix = list  # list of rows, each a list of ints


class ValidationFailure(Exception):
    """The input is not what an operation needs (the CLI's exit 2).

    Every exception class of the package that rejects its input derives
    from this one.
    """


class CheckFailure(Exception):
    """A check of the package failed on valid input (the CLI's exit 3).

    Every exception class of the package for a failed theorem check, rule
    hypothesis, setup or deduction derives from this one.
    """


class AmbientMismatch(ValidationFailure):
    """Raised when an operation mixes subgroups of different ambient groups."""


class ContainmentViolation(ValidationFailure):
    """Raised when a required subgroup containment fails; carries a witness."""


class NotWellDefined(ValidationFailure):
    """Raised when a map fails to descend to a quotient; carries a witness."""


class TheoremViolation(CheckFailure, AssertionError):
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

    Inside the block, every ``shared`` function looks up its result in
    ``table`` by the value of its arguments, and computes and stores it only
    when it is absent.  Blocks nest: the innermost table is the one in use,
    and the previous one is restored on exit, also when the block raises.

    >>> G = FPAbGroup(rank=1, torsion=(4,))
    >>> table = {}
    >>> with shared_results(table):
    ...     Hom.identity(G) is Hom.identity(G)
    True
    >>> Hom.identity(G) is Hom.identity(G)
    False
    >>> Hom.identity(G) == Hom.identity(G)
    True
    """
    token = _results.set(table)
    try:
        yield
    finally:
        _results.reset(token)


def shared(fn):
    """``fn(*args)``, looked up under ``(fn.__qualname__, *args)`` in the
    open ``shared_results`` table and computed only when absent; with no
    table open, computed on every call.  ``fn`` must be a pure function of
    the values of its arguments, so the answers are the same with a table
    or without; a call that raises stores nothing.  Equal arguments get the
    same result object: do not mutate it.

    An argument whose type defines no ``__eq__`` keys by identity.  For a
    ``SubquotientData`` that is exact: ``subquotient`` is itself shared, so
    inside a table equal ``(Z, B)`` pairs are one object, and the key holds
    its object, whose id cannot be reused while the table lives.
    """
    name = fn.__qualname__

    @functools.wraps(fn)
    def share(*args):
        table = _results.get()
        if table is None:
            return fn(*args)
        key = (name, *args)
        try:
            return table[key]
        except KeyError:
            pass
        value = table[key] = fn(*args)
        return value

    return share


def kept(fn):
    """``fn(owner, *args)``, computed once per owner and argument tuple and
    kept in ``owner._memo`` under ``(fn.__name__, *args)``; a call that
    raises keeps nothing.  Every caller gets the kept value: do not mutate it.
    """
    name = fn.__name__

    @functools.wraps(fn)
    def keep(owner, *args):
        memo = owner._memo
        key = (name, *args)
        try:
            return memo[key]
        except KeyError:
            pass
        value = memo[key] = fn(owner, *args)
        return value

    return keep


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

    Within the package a Smith form runs only in ``group_from_presentation``
    (through ``_smith``); kernels and solving read a Hermite form of
    ``[M; I]`` instead.
    """
    return _smith(M)[:3]


def _smith(M: Matrix):
    """The Smith form loop, tracking the inverse row transform too.

    Returns ``(U, D, V, Uinv)`` with ``D = U M V`` and ``Uinv U = I``.
    """
    rows = len(M)
    cols = len(M[0]) if M else 0
    D = [list(row) for row in M]
    U = identity_matrix(rows)
    V = identity_matrix(cols)
    Uinv = identity_matrix(rows)

    def row_combine(i1, i2, s, t, u, v):
        # rows (i1, i2) of D and U <- 2x2 transform; inverse column op on Uinv.
        for A in (D, U):
            r1, r2 = A[i1], A[i2]
            for j in range(len(r1)):
                a, b = r1[j], r2[j]
                r1[j] = s * a + t * b
                r2[j] = u * a + v * b
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


def _echelon_coordinates(basis: Sequence[Sequence[int]], v: Sequence[int]) -> Optional[Vector]:
    """Integer coordinates of ``v`` in ``basis``, or ``None`` if it has none.

    ``basis`` is in column echelon form on the first ``len(v)`` rows (pivot
    rows strictly increase and nothing sits above a pivot), and its columns
    may run longer: only those rows are read.  Forward substitution down
    the pivot rows finds the coordinates in O(len(v) * len(basis)) steps;
    they are unique because echelon columns are independent there.
    """
    n = len(v)
    r = list(v)
    x = []
    row = 0
    for col in basis:
        # No remaining column reaches a row above this column's pivot, so
        # the residual must already vanish there.
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


def _graph_hermite(M: Matrix) -> tuple:
    """Hermite basis of the columns ``(M e_j, e_j)`` of ``[M; I]``, split as
    ``(image, kernel)``.

    They span the graph ``{(M x, x)}`` of ``M``.  Pivot rows increase, so
    the basis columns whose first ``len(M)`` entries are nonzero come first:
    they are ``image``, whose top parts are the Hermite basis of the column
    lattice of ``M``, each with a preimage below it.  The rest vanish there
    and are ``kernel``, in Hermite form on the bottom rows.
    """
    rows = len(M)
    cols = len(M[0]) if M else 0
    if not cols:
        return (), ()
    # Lists, not tuples: hermite_column_form works on lists of its own, and
    # short-lived tuples of the ladder's sizes stay on the tuple free lists.
    stacked = []
    for j in range(cols):
        col = [row[j] for row in M] + [0] * cols
        col[rows + j] = 1
        stacked.append(col)
    form = hermite_column_form(stacked, rows + cols)
    split = 0
    while split < len(form) and any(form[split][:rows]):
        split += 1
    return form[:split], form[split:]


def kernel_basis(M: Matrix) -> list:
    """The canonical Hermite basis (list of column tuples) of the integer
    kernel of ``M``: the bottom parts of the kernel columns of the graph
    basis of ``[M; I]``.

    >>> kernel_basis([[2, 4, 6]])
    [(1, 1, -1), (0, 3, -2)]
    """
    rows = len(M)
    return [c[rows:] for c in _graph_hermite(M)[1]]


def solve_matrix(M: Matrix, y: Sequence[int]) -> Optional[Vector]:
    """One integer solution ``x`` of ``M x = y``, or ``None`` if there is none.

    ``y`` is written in the echelon image columns of the graph basis of
    ``[M; I]`` by forward substitution, and ``x`` is the same combination
    of their bottom parts.

    >>> M = [[2, 4, 6]]
    >>> mat_vec(M, solve_matrix(M, (10,)))
    (10,)
    >>> solve_matrix(M, (3,)) is None
    True
    """
    rows = len(M)
    cols = len(M[0]) if M else 0
    if rows != len(y):
        raise ValueError("dimension mismatch in solve")
    return _solve_graph(_graph_hermite(M)[0], rows, y, cols)


def _solve_graph(image: tuple, rows: int, y: Sequence[int], cols: int) -> Optional[Vector]:
    """The first ``cols`` entries of a solution of ``M x = y``, read off the
    image columns of the graph basis of ``[M; I]`` (``_graph_hermite``), or
    ``None``.

    ``M`` has ``rows`` rows.  ``y`` is written in the echelon image columns
    by forward substitution, and the solution is the same combination of
    their bottom parts.
    """
    q = _echelon_coordinates(image, y)
    if q is None:
        return None
    return tuple(sum(a * c[rows + i] for a, c in zip(q, image)) for i in range(cols))


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
    torsion coordinates.  ``torsion`` is stored as a tuple; a rank or torsion
    entry that is not an ``int`` is a ``TypeError``.
    """

    rank: int = 0
    torsion: tuple = ()
    # Derived once in __post_init__ and left out of equality, hashing and
    # repr, so a group is still its (rank, torsion).
    ngens: int = field(init=False, repr=False, compare=False)
    orders: tuple = field(init=False, repr=False, compare=False)
    _relations: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        torsion = tuple(self.torsion)
        if type(self.rank) is not int or any(type(d) is not int for d in torsion):
            raise TypeError("rank and torsion coefficients must be ints")
        if self.rank < 0:
            raise ValueError("negative rank")
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise ValueError("torsion coefficients must form a divisibility chain")
        if any(d < 2 for d in torsion):
            raise ValueError("torsion coefficients must be >= 2")
        n = self.rank + len(torsion)
        # Per-generator order: 0 for free generators, d for torsion ones.
        orders = (0,) * self.rank + torsion
        object.__setattr__(self, "torsion", torsion)
        object.__setattr__(self, "ngens", n)
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "_relations", tuple(
            (0,) * i + (d,) + (0,) * (n - i - 1) for i, d in enumerate(orders) if d
        ))

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
        return list(self._relations)

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
    U, D, _, Uinv = _smith(matrix_from_columns(basis, ngens))
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
        """The trivial subgroup: its basis is the ambient relation columns,
        already in Hermite form (one positive entry per column, on rows that
        increase)."""
        return Subgroup(ambient, ambient._relations)

    @staticmethod
    def full(ambient: FPAbGroup) -> "Subgroup":
        """The whole group: its basis is the unit columns, already in
        Hermite form."""
        n = ambient.ngens
        return Subgroup(ambient, tuple(unit_vector(n, j) for j in range(n)))

    def _matrix(self) -> Matrix:
        return matrix_from_columns(list(self.basis), self.ambient.ngens)

    def coordinates(self, v: Sequence[int]) -> Optional[Vector]:
        """Integer coordinates of ``v`` in ``self.basis``, or ``None`` if ``v``
        is not in the subgroup.

        The basis is in column Hermite form, so forward substitution down its
        pivot rows (``_echelon_coordinates``, which ``solve_matrix`` shares)
        finds them in O(ngens * len(basis)) steps.  The basis is linearly
        independent, so the coordinates are unique.

        >>> G = FPAbGroup(rank=1, torsion=(4,))
        >>> S = Subgroup.from_generators(G, [(2, 1)])
        >>> S.basis
        ((2, 1), (0, 4))
        >>> S.coordinates((6, 7))
        (3, 1)
        >>> S.coordinates((2, 3)) is None
        True
        """
        if len(v) != self.ambient.ngens:
            raise ValueError("element has wrong length for ambient group")
        return _echelon_coordinates(self.basis, v)

    def contains(self, v: Sequence[int]) -> bool:
        return self.coordinates(v) is not None

    def contains_subgroup(self, other: "Subgroup") -> bool:
        if other.ambient != self.ambient:
            raise AmbientMismatch("subgroups live in different ambient groups")
        return all(self.contains(c) for c in other.basis)

    def is_zero(self) -> bool:
        """Whether the subgroup is trivial: its basis is then the ambient
        relation columns."""
        return self.basis == self.ambient._relations

    def is_full(self) -> bool:
        """Whether the subgroup is the whole group: its basis is then the
        unit columns.  A Hermite basis of ``ngens`` columns has its pivots
        on the diagonal, and pivots equal to 1 leave nothing else."""
        basis = self.basis
        return len(basis) == self.ambient.ngens and all(
            c[j] == 1 for j, c in enumerate(basis))

    @shared
    def sum(self, other: "Subgroup") -> "Subgroup":
        if other.ambient != self.ambient:
            raise AmbientMismatch("subgroups live in different ambient groups")
        if self.is_zero() or other.is_full():
            return other
        if other.is_zero() or self.is_full():
            return self
        return Subgroup(
            self.ambient,
            hermite_column_form(self.basis + other.basis, self.ambient.ngens),
        )

    @shared
    def intersection(self, other: "Subgroup") -> "Subgroup":
        if other.ambient != self.ambient:
            raise AmbientMismatch("subgroups live in different ambient groups")
        if self.is_zero() or other.is_full():
            return self
        if other.is_zero() or self.is_full():
            return other
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

    @shared
    def as_group(self):
        """The subgroup as an abstract group with its inclusion map.

        Both are read off ``as_subquotient()``: the group of ``S / 0``, and
        the map sending its canonical generators to their section columns.

        Returns:
            ``(S, incl)`` with ``S`` canonical and ``incl: S -> ambient``.
        """
        sq = self.as_subquotient()
        return sq.group, hom_on_generators(sq.group, self.ambient, sq.section_columns())

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

    The Hermite form of the graph of ``[M | R]`` (``R`` the codomain's
    relation columns) is built on first use, split into image and kernel
    columns; the image, the kernel and every ``solve_element`` read it.
    A map keeps its graph form, image, kernel and ``is_identity`` in its
    ``_memo`` (``kept``), and its hash in ``_hash``, so only the first
    question about a map is computed.  The first ``image`` or ``kernel``
    call goes through the open ``shared_results`` table, so equal maps
    built apart still share one value inside a table.  A zero map and an
    identity answer images, kernels and preimages in closed form and build
    no graph form for them.  Equality, hashing
    and ``repr`` read the endpoints and the matrix only.
    """

    __slots__ = ("domain", "codomain", "matrix", "_memo", "_hash")

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
        self._memo = {}
        self._hash = None

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
        if self._hash is None:
            self._hash = hash((self.domain, self.codomain, self.matrix))
        return self._hash

    def __repr__(self):
        return "Hom(%s -> %s, %r)" % (
            self.domain.describe(),
            self.codomain.describe(),
            self.matrix,
        )

    @staticmethod
    @shared
    def identity(G: FPAbGroup) -> "Hom":
        return Hom(G, G, identity_matrix(G.ngens))

    @staticmethod
    @shared
    def zero_map(domain: FPAbGroup, codomain: FPAbGroup) -> "Hom":
        return Hom(domain, codomain, zero_matrix(codomain.ngens, domain.ngens))

    def is_zero(self) -> bool:
        return not any(map(any, self.matrix))

    @kept
    def is_identity(self) -> bool:
        return self.domain == self.codomain and all(
            x == (i == j) for i, row in enumerate(self.matrix) for j, x in enumerate(row)
        )

    def compose(self, first: "Hom") -> "Hom":
        """``self`` after ``first`` (i.e. ``self o first``).  An identity on
        either side returns the other map itself."""
        if first.codomain != self.domain:
            raise ValueError("homs do not compose")
        if self.is_identity():
            return first
        if first.is_identity():
            return self
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

    @kept
    @shared
    def image(self) -> Subgroup:
        """The image, as a subgroup of the codomain: the top parts of the
        image columns of the map's graph form, already the Hermite basis of
        the column lattice of ``[M | R]``.  A zero map and an identity build
        no form."""
        if self.is_zero():
            return Subgroup.zero(self.codomain)
        if self.is_identity():
            return Subgroup.full(self.codomain)
        rows = self.codomain.ngens
        return Subgroup(self.codomain, tuple(c[:rows] for c in self._graph_form()[0]))

    @kept
    def kernel(self) -> Subgroup:
        return self.preimage(Subgroup.zero(self.codomain))

    @shared
    def preimage(self, S: Subgroup) -> Subgroup:
        """Full preimage of a subgroup of the codomain.  Under a zero map or
        of the whole codomain it is the whole domain, and under an identity
        it is ``S``: these build no form."""
        if S.ambient != self.codomain:
            raise AmbientMismatch("subgroup is not inside the codomain")
        if S.is_full() or self.is_zero():
            return Subgroup.full(self.domain)
        if self.is_identity():
            return S
        n_dom = self.domain.ngens
        rows = self.codomain.ngens
        # The kernel of [M | S.basis] is {(x, t) : M x = -S.basis t}, and
        # its Hermite basis lists the columns with a pivot among the x-rows
        # first: their x-parts are the Hermite basis of {x : M x in S}, which
        # holds the domain's relations because the map is well defined.  For
        # a zero S, S.basis is R, and the map's graph form is that basis.
        if S.is_zero():
            kernel = (c[rows:] for c in self._graph_form()[1])
        else:
            B = matrix_from_columns(list(S.basis), rows)
            kernel = kernel_basis([list(r) + B[i] for i, r in enumerate(self.matrix)])
        parts = (k[:n_dom] for k in kernel)
        return Subgroup(self.domain, tuple(x for x in parts if any(x)))

    @kept
    def _graph_form(self) -> tuple:
        """``_graph_hermite`` of ``[M | R]``, split as ``(image, kernel)``."""
        M = [list(r) for r in self.matrix]
        rel = matrix_from_columns(self.codomain.relation_columns(), self.codomain.ngens)
        return _graph_hermite([M[i] + rel[i] for i in range(self.codomain.ngens)])

    def solve_element(self, y: Sequence[int]) -> Optional[Vector]:
        """One preimage of ``y`` under the map, or ``None`` if ``y`` is absent.

        ``y`` is solved for in ``[M | R]`` by forward substitution down the
        image columns of the map's graph form, and the preimage is the part
        on the domain generators.  Zero has the zero preimage, and builds no
        form.
        """
        y = self.codomain.reduce(y)
        if not any(y):
            return self.domain.zero()
        x = _solve_graph(self._graph_form()[0], self.codomain.ngens, y, self.domain.ngens)
        if x is None:
            return None
        return self.domain.reduce(x)

    @shared
    def image_of_subgroup(self, S: Subgroup) -> Subgroup:
        if S.ambient != self.domain:
            raise AmbientMismatch("subgroup is not inside the domain")
        if S.is_zero() or self.is_zero():
            return Subgroup.zero(self.codomain)
        if self.is_identity():
            return S
        return Subgroup.from_generators(self.codomain, [self(c) for c in S.basis])

    def is_mono(self) -> bool:
        return self.kernel().is_zero()

    def is_epi(self) -> bool:
        return self.image().is_full()

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
        its basis together with ``B``.

        The preimages of the zero and the whole quotient are ``B`` and ``Z``
        themselves, with no lift or Hermite form.

        >>> G = FPAbGroup(0, (8,))
        >>> sq = subquotient(Subgroup.full(G), Subgroup.from_generators(G, [(4,)]))
        >>> sq.pull_back(Subgroup.zero(sq.group)) is sq.B
        True
        >>> sq.pull_back(Subgroup.from_generators(sq.group, [(2,)])).basis
        ((2,),)
        """
        if S.ambient == self.group:
            if S.is_zero():
                return self.B
            if S.is_full():
                return self.Z
        return Subgroup.from_generators(
            self.Z.ambient, [self.lift(c) for c in S.basis] + list(self.B.basis)
        )

    def section_columns(self) -> list:
        """Ambient representatives of the canonical quotient generators."""
        return list(self._section)


@shared
def subquotient(Z: Subgroup, B: Subgroup) -> SubquotientData:
    """The subquotient ``Z / B``."""
    return SubquotientData(Z, B)


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


@shared
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
