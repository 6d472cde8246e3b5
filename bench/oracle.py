"""Independent answers from sympy, for the checks after the timed loop.

Nothing here calls ``specseq``: homology, invariant factors and lattice
membership come from sympy's Smith normal form over ZZ.
"""

from functools import lru_cache
from math import prod

from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_decomp
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import invariant_factors


def apply(m, v):
    return [sum(a * b for a, b in zip(row, v)) for row in m]


def _factors(m):
    """The nonzero invariant factors of ``m``."""
    if not m or not m[0]:
        return []
    return _factors_of(tuple(tuple(row) for row in m))


@lru_cache(maxsize=8)
def _factors_of(m):
    dm = DomainMatrix([[ZZ(x) for x in row] for row in m], (len(m), len(m[0])), ZZ)
    return [abs(int(d)) for d in invariant_factors(dm) if d != 0]


def rank(m):
    return len(_factors(m))


def presentation_group(m):
    """``[rank, torsion]`` of Z^rows modulo the columns of ``m``."""
    factors = _factors(m)
    return [len(m) - len(factors), sorted(d for d in factors if d > 1)]


def describe(G):
    """The library's notation for a group, as the CLI prints it."""
    r, torsion = G
    parts = ([] if r == 0 else ["Z"] if r == 1 else ["Z^%d" % r]) + ["Z/%d" % d for d in torsion]
    return " (+) ".join(parts) if parts else "0"


def in_lattice(m, vs):
    """Whether every vector of ``vs`` is an integer combination of the columns of ``m``.

    Adding the vectors to the columns leaves the lattice unchanged exactly
    when it leaves its rank and the product of its invariant factors alone.
    """
    if not vs:
        return True
    both = [list(row) + [v[i] for v in vs] for i, row in enumerate(m)]
    before, after = _factors(m), _factors(both)
    return len(before) == len(after) and prod(before) == prod(after)


def _kernel(A, cols):
    """A basis of the integer kernel of ``A`` (a list of column vectors)."""
    if not A or cols == 0:
        return [[int(i == j) for i in range(cols)] for j in range(cols)]
    D, _, T = smith_normal_decomp(Matrix(A), domain=ZZ)
    rows = len(A)
    return [[int(T[i, j]) for i in range(cols)] for j in range(cols)
            if j >= rows or D[j, j] == 0]


def complex_homology(data, n):
    """``[rank, torsion]`` of H_n of a generated chain complex."""
    groups = data["groups"]

    def gens(k):
        r, t = groups.get(k, (0, []))
        return r + len(t)

    def relations(k):
        r, t = groups.get(k, (0, []))
        return [[d if i == r + j else 0 for i in range(gens(k))] for j, d in enumerate(t)]

    def diff(k):
        """Matrix of d_k as gens(k-1) rows by gens(k) columns."""
        m = data["diffs"].get(k)
        return m if m is not None else [[0] * gens(k) for _ in range(gens(k - 1))]

    g = gens(n)
    if g == 0:
        return [0, []]
    # cycles: x with d_n x in the relation lattice of degree n-1
    below = diff(n)
    rel_below = relations(n - 1)
    A = [list(below[i]) + [-c[i] for c in rel_below] for i in range(gens(n - 1))]
    Z = [k[:g] for k in _kernel(A, g + len(rel_below))]
    if not Z:
        return [0, []]
    # boundaries plus the relations of degree n, in the coordinates of Z
    above = diff(n + 1)
    B = [[above[i][j] for i in range(g)] for j in range(gens(n + 1))] + relations(n)
    B = [b for b in B if any(b)]
    if not B:
        return [len(Z), []]
    Zm = Matrix(Z).T
    Y = (Zm.T * Zm).inv() * Zm.T * Matrix(B).T
    if Zm * Y != Matrix(B).T or any(not y.is_integer for y in Y):
        raise ValueError("boundaries are not integer combinations of cycles")
    return presentation_group([[int(Y[i, j]) for j in range(Y.cols)] for i in range(Y.rows)])
