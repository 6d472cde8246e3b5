"""Inductive solvers for two-row first-quadrant spectral sequences.

A first-quadrant homological spectral sequence whose only potentially
nonzero rows are q = 0 and q = 1, with equal rows E2_{p,1} = E2_{p,0},
is determined by a single family of unknown groups H_p and the page-2
differentials d2_{p,0}.  Given the abutment with its two-step filtration
in every total degree, the unknowns can be recovered degree by degree:
each step is a short exact sequence

    E-infinity_{p,0}  >->  H_p  --d2-->  H_{p-2}  -->>  H_{p-2} / Im d2

whose outer terms are read off the filtration.  The solver performs the
deduction, refuses to guess whenever a step is not forced, and replays
the assembled spectral sequence through the generic engine to confirm
the abutment is reproduced.

The same two-row pattern yields the low-degree five-term exact sequence,
assembled here from a spectral sequence together with identification
data for its abutment in total degrees 1 and 2.
"""

from math import gcd

from .zlinalg import (
    CheckFailure,
    FPAbGroup,
    Hom,
    Subgroup,
    direct_sum,
    hom_on_generators,
    quotient_group,
    require,
)
from .spectral import SpectralSequence, homological_rule, spectral_sequence_from_page, whole
from .excouple import SetupViolation

__all__ = [
    "Inconsistent",
    "Underdetermined",
    "two_row_solve",
    "cyclic_group_sequence",
    "projective_space_sequence",
    "five_term",
]

_TRIVIAL = FPAbGroup()


class Inconsistent(CheckFailure):
    """The abutment admits no two-row spectral sequence."""


class Underdetermined(CheckFailure):
    """The first total degree where the deduction is not forced."""


def _all_subgroups(H: FPAbGroup):
    """Every subgroup of a finite group, by closure under joins."""
    seen = {Subgroup.zero(H)}
    frontier = list(seen)
    elems = list(H.elements())
    while frontier:
        S = frontier.pop()
        for e in elems:
            T = S.sum(Subgroup.from_generators(H, [e]))
            if T not in seen:
                seen.add(T)
                frontier.append(T)
    return seen


def _forced_image(H: FPAbGroup, K: FPAbGroup, degree: int) -> Subgroup:
    """The unique subgroup S of H with H/S isomorphic to K, if forced.

    Raises:
        Inconsistent: no such subgroup exists.
        Underdetermined: several non-isomorphic candidates (or an
            infinite ambient outside the decidable patterns).
    """
    if K.is_trivial():
        return Subgroup.full(H)
    if K == H:
        # finitely generated abelian groups are Hopfian: H/S = H forces S = 0
        return Subgroup.zero(H)
    if H.order() is not None:
        matches = [
            S for S in _all_subgroups(H) if quotient_group(H, S)[0] == K
        ]
        if not matches:
            raise Inconsistent((degree, H, K))
        classes = {S.as_group()[0] for S in matches}
        if len(classes) > 1:
            raise Underdetermined(degree)
        return min(matches, key=lambda S: S.basis)
    if H == FPAbGroup(1):
        # quotients of Z are cyclic; the index-m subgroup is unique
        if K.rank or len(K.torsion) > 1:
            raise Inconsistent((degree, H, K))
        return Subgroup.from_generators(H, [(K.torsion[0],)])
    raise Underdetermined(degree)


def two_row_solve(abutment: dict, N: int) -> dict:
    """Solve a two-row spectral sequence from its filtered abutment.

    Args:
        abutment: per total degree n, a pair ``(A_n, F_n)`` of the
            abutment group and the lower filtration stage F_{n-1,1}
            inside it (missing degrees are trivial).
        N: solve for H_p with p <= N.

    Returns:
        Dict with the solved groups ``H``, the forced differentials
        ``d2`` (p >= 2, as homs H_p -> H_{p-2}), and the assembled
        spectral sequence ``ss`` used to re-verify the abutment.

    Raises:
        Inconsistent: the exactness constraints cannot be met, or the
            abutment is nontrivial in a degree below 0.
        Underdetermined: a group or extension is not forced; the
            argument is the first ambiguous total degree.
        ValueError: ``N < 1``.
    """
    if N < 1:
        raise ValueError("N should be at least 1")

    def at(n):
        if n in abutment:
            return abutment[n]
        return (_TRIVIAL, Subgroup.zero(_TRIVIAL))

    for n in sorted(abutment):
        if n < 0 and not abutment[n][0].is_trivial():
            # a first-quadrant sequence has nothing in negative total degree
            raise Inconsistent((n, "abutment below degree 0"))
    Q, K = {}, {}
    for n in range(N + 1):
        A, F = at(n)
        if not Subgroup.full(A).contains_subgroup(F):
            raise Inconsistent((n, "filtration stage outside the abutment"))
        Q[n] = quotient_group(A, F)[0]
        K[n] = F.as_group()[0]
    if not K[0].is_trivial():
        raise Inconsistent((0, "nothing lies below the bottom row"))

    H = {0: Q[0], 1: Q[1]}
    d2 = {}
    for p in range(2, N + 1):
        S = _forced_image(H[p - 2], K[p - 1], p)
        SG, S_incl = S.as_group()
        if Q[p].is_trivial():
            H[p] = SG
            d2[p] = S_incl
        elif SG.is_trivial():
            H[p] = Q[p]
            d2[p] = Hom.zero_map(Q[p], H[p - 2])
        elif Q[p].torsion == () or (
            Q[p].order() is not None
            and SG.order() is not None
            and gcd(Q[p].order(), SG.order()) == 1
        ):
            # the extension splits, so the middle group is forced
            H[p], _, prs = direct_sum([Q[p], SG])
            d2[p] = S_incl.compose(prs[1])
        else:
            raise Underdetermined(p)

    objects = {}
    diffs = {}
    for p in range(N + 1):
        if not H[p].is_trivial():
            objects[(p, 0)] = H[p]
            objects[(p, 1)] = H[p]
        if p in d2 and not d2[p].is_zero():
            diffs[(p, 0)] = d2[p]
    ss = spectral_sequence_from_page(
        2, ((0, N), (0, 1)), objects, diffs, homological_rule
    )
    Einf, _, _ = ss.e_infinity()
    for n in range(N + 1):
        if Einf.at((n, 0)) != Q[n]:
            raise Inconsistent((n, "row 0 does not match the abutment"))
        if n + 1 <= N and Einf.at((n - 1, 1)) != K[n]:
            raise Inconsistent((n, "row 1 does not match the abutment"))
    return {"H": H, "d2": d2, "ss": ss}


def cyclic_group_sequence(k: int, N: int) -> dict:
    """Homology of Z/k from the extension Z --k--> Z -->> Z/k.

    The abutment is the homology of Z (Z in degrees 0 and 1, filtered in
    degree 1 by the index-k subgroup); the solution is Z, then Z/k in
    every odd degree, and zero otherwise.
    """
    if k < 2:
        raise ValueError("the cyclic group should be a proper quotient")
    Z = FPAbGroup(1)
    abutment = {
        0: (Z, Subgroup.zero(Z)),
        1: (Z, Subgroup.from_generators(Z, [(k,)])),
    }
    return two_row_solve(abutment, N)


def projective_space_sequence(r: int) -> dict:
    """Homology of CP^r from the circle fibration over the (2r+1)-sphere.

    The abutment is the homology of S^{2r+1}; the solution is Z in every
    even degree up to 2r and zero otherwise.
    """
    if r < 1:
        raise ValueError("complex dimension should be at least 1")
    Z = FPAbGroup(1)
    abutment = {
        0: (Z, Subgroup.zero(Z)),
        2 * r + 1: (Z, Subgroup.full(Z)),
    }
    return two_row_solve(abutment, 2 * r + 2)


def five_term(ss: SpectralSequence, H1: FPAbGroup, F01: Subgroup,
              iso_low: Hom, iso_high: Hom, H2: FPAbGroup, onto: Hom) -> dict:
    """The low-degree five-term exact sequence of a two-row-type abutment.

    Args:
        ss: first-quadrant homological spectral sequence starting on
            page 2.
        H1: abutment in total degree 1, filtered by ``F01``.
        iso_low: isomorphism from the limit term at (0, 1) onto the
            group of ``F01``.
        iso_high: isomorphism from ``H1/F01`` onto the page-2 object at
            (1, 0).
        H2: abutment in total degree 2, with ``onto`` the projection
            onto the limit term at (2, 0).

    Returns:
        Dict with ``groups`` (H2, E2_{2,0}, E2_{0,1}, H1, E2_{1,0}) and
        ``maps``, the four connecting homs; exactness at the three
        interior spots and surjectivity of the last map are verified.

    Raises:
        SetupViolation: the input is not of the required shape or the
            identification maps are not isomorphisms.
    """
    if ss.r0 != 2:
        raise SetupViolation("the low-degree sequence starts on page 2")
    for r in (2, 3):
        if tuple(ss.rule(r)) != (-r, r - 1):
            raise SetupViolation("differentials must run homologically")
    for x in ss.page(2).objects.positions():
        if x[0] < 0 or x[1] < 0:
            raise SetupViolation(("support leaves the first quadrant", x))

    _, _, data = ss.e_infinity()
    E2_20 = ss.page(2).objects.at((2, 0))
    E2_01 = ss.page(2).objects.at((0, 1))
    E2_10 = ss.page(2).objects.at((1, 0))
    # data misses only trivial page objects, where G / G = G / 0
    sq20 = data.get((2, 0)) or whole(E2_20)
    sq01 = data.get((0, 1)) or whole(E2_01)

    F01G, F01_incl = F01.as_group()
    QH1, proj1 = quotient_group(H1, F01)
    if iso_low.domain != sq01.group or iso_low.codomain != F01G:
        raise SetupViolation("low identification has the wrong endpoints")
    if iso_high.domain != QH1 or iso_high.codomain != E2_10:
        raise SetupViolation("high identification has the wrong endpoints")
    if onto.domain != H2 or onto.codomain != sq20.group:
        raise SetupViolation("degree-2 projection has the wrong endpoints")
    if not (iso_low.is_iso() and iso_high.is_iso() and onto.is_epi()):
        raise SetupViolation("identification maps must be isomorphisms")

    # in the first quadrant nothing reaches (2, 0) and nothing leaves (0, 1),
    # so the limit terms there are a subgroup and a quotient of page 2
    to_page = hom_on_generators(sq20.group, E2_20, sq20.section_columns()).compose(onto)
    boundary = ss.page(2).diffs.get((2, 0)) or Hom.zero_map(E2_20, E2_01)
    from_page = F01_incl.compose(iso_low.compose(quotient_group(E2_01, sq01.B)[1]))
    edge = iso_high.compose(proj1)

    require(boundary.kernel() == to_page.image(), "exactness after the abutment")
    require(from_page.kernel() == boundary.image(), "exactness after the boundary")
    require(edge.kernel() == from_page.image(), "exactness at the abutment")
    require(edge.is_epi(), "the edge map must be onto")
    return {
        "groups": (H2, E2_20, E2_01, H1, E2_10),
        "maps": (to_page, boundary, from_page, edge),
    }
