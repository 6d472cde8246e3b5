"""Regular bigraded exact couples over finitely generated abelian groups.

An exact couple is a pair of bigraded families D, E with structure maps
i: D -> D, j: D -> E, k: E -> D of fixed bidegrees a, b, c, exact at every
corner.  Regularity (det [a | b+c] = +-1) makes the D-family split into
Z-indexed towers, one per diagonal, so all the tower machinery of
``zdiagrams`` applies: colimit and limit abutments, image and kernel
filtrations, stable images.

The module computes the associated spectral sequence twice -- once through
the internal cycle/boundary subgroup construction, once by the generic
page-turning engine of ``spectral`` -- and checks the two agree as
canonical subquotients of E, page by page, as the engine turns each page
on demand.  ``extension_report`` is the one place the stable E-object
Ebar = k^-1(Ibar) / B^infinity is built: it checks the stable-E and
limit-page short exact sequences and the comparison monomorphism between
them, and ``classify`` labels each position by how the limit page relates
to the two abutments.  The theorem methods return only what their callers
read; every fact they prove on the way is a check.

Maps out of subquotients of E are induced.  By a hom (k onto an image of
i, the k of a filtered complex), they come from ``zlinalg.induced_map``.
By a relation (the page differentials ``j o i^-(r-1) o k``, both
identifications of ``er_extension_check``, the j of derived and lim^1
couples), they come from ``zlinalg.hom_through``.  Every check goes through
``zlinalg.require``: a failure raises ``TheoremViolation`` and means the
library is wrong.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from .zlinalg import (
    CheckFailure,
    FPAbGroup,
    Hom,
    NotWellDefined,
    Subgroup,
    SubquotientData,
    TheoremViolation,
    ValidationFailure,
    direct_sum,
    hom_through,
    induced_map,
    require,
    shared_results,
    short_exact,
    subquotient,
)
from .zdiagrams import (
    I_omega,
    NotExact,
    Tail,
    ZDiagram,
    ZDiagramMorphism,
    _MorphismFacts,
    _iso_lim_auxiliary,
    apply_rule,
    colimit,
    filtrations,
    kernel_diagram,
    kernels_satisfy_dcc,
    limit_and_lim1,
    limit_map,
    colimit_map,
    ml_conditions,
    stable_image,
)
from .spectral import (
    BigradedGroup,
    NotAMorphism,
    Page,
    SpectralSequence,
    whole,
)

Position = Tuple[int, int]

_TRIVIAL = FPAbGroup()


class NotRegular(ValidationFailure):
    """det [a | b+c] is not a unit; the couple has no tower structure."""


class NotUnimodular(ValidationFailure):
    """A reindexing matrix must have determinant +-1."""


class BidegreeMismatch(ValidationFailure):
    """Two couples can only be combined when their bidegrees agree."""


class SetupViolation(CheckFailure):
    """First-quadrant comparison data violates its declared setup."""


class NotAComplex(ValidationFailure):
    """The differential of a chain complex does not square to zero."""


class NotFiltered(ValidationFailure):
    """A filtration is not nested or not preserved by the differential."""


def det2(u, v) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _add(u, v) -> Position:
    return (u[0] + v[0], u[1] + v[1])


def _sub(u, v) -> Position:
    return (u[0] - v[0], u[1] - v[1])


def _scale(n, u) -> Position:
    return (n * u[0], n * u[1])


@dataclass(frozen=True)
class Bidegrees:
    """The bidegrees a, b, c of i, j, k; regular by construction.

    ``z = b + c`` is the degree of the first differential j composed with
    k, and ``sigma = det [a | z]`` (+-1); both are derived, so they take no
    part in equality, hashing or ``repr``.
    """

    a: Position
    b: Position
    c: Position
    z: Position = field(init=False, repr=False, compare=False)
    sigma: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(self.a))
        object.__setattr__(self, "b", tuple(self.b))
        object.__setattr__(self, "c", tuple(self.c))
        object.__setattr__(self, "z", _add(self.b, self.c))
        object.__setattr__(self, "sigma", det2(self.a, self.z))
        if self.sigma not in (1, -1):
            raise NotRegular((self.a, self.b, self.c))

    def differential_bidegree(self, r: int) -> Position:
        """b + c - (r-1)a, the bidegree of the page-r differential."""
        return _sub(self.z, _scale(r - 1, self.a))


def _in_own_table(method):
    """Run a couple's analysis method inside the couple's result table."""

    @functools.wraps(method)
    def run(self, *args, **kwargs):
        with shared_results(self._results):
            return method(self, *args, **kwargs)

    return run


class _CoupleSequence(SpectralSequence):
    """A couple's spectral sequence: every page is turned inside the couple's
    result table, whoever asks for it."""

    def __init__(self, table: dict, *args):
        super().__init__(*args)
        self._table = table

    def advance(self):
        with shared_results(self._table):
            return super().advance()


@dataclass(frozen=True)
class PositionIndex:
    """A position resolved against the tower structure: x = x(n) + r*a,
    where x(n) = sigma * n * (b + c)."""

    x: Position
    n: int
    r: int


class ExactCouple:
    """A regular exact couple on a finite support with declared tower tails.

    ``D`` and ``E`` map positions to groups (trivial positions may be
    omitted); ``i``, ``j``, ``k`` map *source* positions to homs of the
    declared bidegrees.  ``diagonal_tails`` assigns each D-tower (indexed by
    its diagonal n) a (left, right) pair of tail kinds; towers default to
    (ZERO, CONSTANT) and empty towers are identically zero.

    Every couple owns a result table (``zlinalg.shared_results``), and its
    analysis methods run inside it: the kernels, images, preimages,
    intersections and subquotients they ask for are computed once per
    couple and shared by all of them, as is the ``AbutmentData`` of each
    diagonal.  A nested call on another couple switches to that couple's
    table.  Shared results must not be mutated.
    """

    def __init__(self, bidegrees: Bidegrees, D: Dict[Position, FPAbGroup],
                 E: Dict[Position, FPAbGroup], i: Dict[Position, Hom],
                 j: Dict[Position, Hom], k: Dict[Position, Hom],
                 diagonal_tails: Optional[Dict[int, tuple]] = None):
        self.bidegrees = bidegrees
        self.D = {tuple(x): G for x, G in D.items() if not G.is_trivial()}
        self.E = {tuple(x): G for x, G in E.items() if not G.is_trivial()}
        self.diagonal_tails = dict(diagonal_tails or {})
        self._diagrams: Dict[int, ZDiagram] = {}
        self._ss: Optional[SpectralSequence] = None
        self._results: dict = {}
        self.i = {tuple(x): f for x, f in i.items() if not f.is_zero()}
        self.j = {tuple(x): f for x, f in j.items() if not f.is_zero()}
        self.k = {tuple(x): f for x, f in k.items() if not f.is_zero()}
        bd = self.bidegrees
        for x, f in self.i.items():
            if f.domain != self.D_at(x) or f.codomain != self.D_at(_add(x, bd.a)):
                raise ValueError("i endpoints disagree at %r" % (x,))
            if self.i_at(x) != f:
                raise ValueError("i at %r conflicts with the declared tails" % (x,))
        for x, f in self.j.items():
            if f.domain != self.D_at(x) or f.codomain != self.E_at(_add(x, bd.b)):
                raise ValueError("j endpoints disagree at %r" % (x,))
        for x, f in self.k.items():
            if f.domain != self.E_at(x) or f.codomain != self.D_at(_add(x, bd.c)):
                raise ValueError("k endpoints disagree at %r" % (x,))

    # -- tower bookkeeping ---------------------------------------------------

    def position_index(self, x: Position) -> PositionIndex:
        # Cramer's rule for x = sigma*n*z + r*a on the unimodular [a | z]
        bd = self.bidegrees
        x = tuple(x)
        return PositionIndex(x, det2(bd.a, x), bd.sigma * det2(x, bd.z))

    def position_on(self, n: int, r: int) -> Position:
        bd = self.bidegrees
        return _add(_scale(bd.sigma * n, bd.z), _scale(r, bd.a))

    def diagonal(self, n: int) -> ZDiagram:
        """The D-tower ... -> D_{x(n)+ra} -i-> D_{x(n)+(r+1)a} -> ... as a ZDiagram.

        The diagram index is the offset r along a.
        """
        if n in self._diagrams:
            return self._diagrams[n]
        rs = sorted(
            self.position_index(x).r
            for x in self.D
            if det2(self.bidegrees.a, x) == n
        )
        if not rs:
            dia = ZDiagram((0, 0), (_TRIVIAL,), (), Tail.ZERO, Tail.ZERO)
        else:
            left, right = self.diagonal_tails.get(n, (Tail.ZERO, Tail.CONSTANT))
            r0, r1 = rs[0], rs[-1]
            groups = tuple(
                self.D.get(self.position_on(n, r), _TRIVIAL) for r in range(r0, r1 + 1)
            )
            maps = []
            for r in range(r0, r1):
                x = self.position_on(n, r)
                maps.append(self.i.get(x)
                            or Hom.zero_map(groups[r - r0], groups[r - r0 + 1]))
            dia = ZDiagram((r0, r1), groups, tuple(maps), left, right)
        self._diagrams[n] = dia
        return dia

    def D_at(self, x: Position) -> FPAbGroup:
        pi = self.position_index(x)
        return self.diagonal(pi.n).group_at(pi.r)

    def E_at(self, x: Position) -> FPAbGroup:
        return self.E.get(tuple(x), _TRIVIAL)

    def i_at(self, x: Position) -> Hom:
        pi = self.position_index(x)
        return self.diagonal(pi.n).map_at(pi.r)

    def j_at(self, x: Position) -> Hom:
        x = tuple(x)
        f = self.j.get(x)
        if f is not None:
            return f
        return self._zero_map(("j0", x), self.D_at(x), self.E_at(_add(x, self.bidegrees.b)))

    def k_at(self, x: Position) -> Hom:
        x = tuple(x)
        f = self.k.get(x)
        if f is not None:
            return f
        return self._zero_map(("k0", x), self.E_at(x), self.D_at(_add(x, self.bidegrees.c)))

    def _zero_map(self, key, domain: FPAbGroup, codomain: FPAbGroup) -> Hom:
        """The zero map of ``j_at``/``k_at`` at one position, built once and
        kept in the couple's result table."""
        f = self._results.get(key)
        if f is None:
            f = self._results[key] = Hom.zero_map(domain, codomain)
        return f

    # -- validation ----------------------------------------------------------

    def _content_diagonals(self):
        bd = self.bidegrees
        out = {det2(bd.a, x) for x in self.D}
        for e in self.E:
            out.add(det2(bd.a, _sub(e, bd.b)))
            out.add(det2(bd.a, _add(e, bd.c)))
        return sorted(out)

    def _d_check_positions(self):
        bd = self.bidegrees
        seen = []
        for n in self._content_diagonals():
            dia = self.diagonal(n)
            for r in dia.padded_range():
                seen.append(self.position_on(n, r))
        for e in self.E:
            seen.append(_sub(e, bd.b))
            seen.append(_add(e, bd.c))
        return list(dict.fromkeys(seen))

    def _e_check_positions(self):
        bd = self.bidegrees
        return list(dict.fromkeys(
            [*self.E, *(_add(x, bd.b) for x in self._d_check_positions())]
        ))

    @_in_own_table
    def validate(self) -> Tuple[int, int]:
        """Exactness at every corner of the (tail-padded) support; returns the
        numbers of D- and E-positions checked.

        Raises:
            NotExact: ``(position, corner)`` at the first failure, where the
                corner is ``"ij"`` (image of i vs kernel of j), ``"jk"``, or
                ``"ki"``.
        """
        bd = self.bidegrees
        d_pos = self._d_check_positions()
        for x in d_pos:
            if self.i_at(_sub(x, bd.a)).image() != self.j_at(x).kernel():
                raise NotExact((x, "ij"))
            if self.k_at(_sub(x, bd.c)).image() != self.i_at(x).kernel():
                raise NotExact((x, "ki"))
        e_pos = self._e_check_positions()
        for e in e_pos:
            if self.j_at(_sub(e, bd.b)).image() != self.k_at(e).kernel():
                raise NotExact((e, "jk"))
        return len(d_pos), len(e_pos)

    # -- internal spectral sequence ------------------------------------------

    def _I_at(self, n: int, r: int, tau: int) -> Subgroup:
        """Image of the tau-fold composite into tower position r of diagonal n."""
        return self.diagonal(n).composite(r - tau, r).image()

    def _stable_at(self, n: int, r: int, tower) -> Subgroup:
        """``tower`` (``I_omega`` or ``stable_image``) of diagonal n at r."""
        dia = self.diagonal(n)
        return tower(dia)[dia.padded_index(r)]

    def cycles_at(self, e: Position, tau: int) -> Subgroup:
        """Z^tau = k^{-1}(image of the tau-fold i) inside E_e."""
        bd = self.bidegrees
        pt = self.position_index(_add(_sub(e, bd.b), bd.z))
        return self.k_at(e).preimage(self._I_at(pt.n, pt.r, tau))

    def boundaries_at(self, e: Position, tau: int) -> Subgroup:
        """B^tau = j(kernel of the tau-fold i out of D_{e-b}) inside E_e."""
        bd = self.bidegrees
        px = self.position_index(_sub(e, bd.b))
        K = self.diagonal(px.n).composite(px.r, px.r + tau).kernel()
        return self.j_at(px.x).image_of_subgroup(K)

    def omega_cycles_at(self, e: Position) -> Subgroup:
        bd = self.bidegrees
        pt = self.position_index(_add(_sub(e, bd.b), bd.z))
        return self.k_at(e).preimage(self._stable_at(pt.n, pt.r, I_omega))

    def omega_boundaries_at(self, e: Position) -> Subgroup:
        """B^infinity = j(kernel of D_{e-b} -> colim of its tower)."""
        bd = self.bidegrees
        px = self.position_index(_sub(e, bd.b))
        dia = self.diagonal(px.n)
        K = colimit(dia)[1][dia.padded_index(px.r)].kernel()
        return self.j_at(px.x).image_of_subgroup(K)

    @_in_own_table
    def internal_page(self, r: int) -> dict:
        """Page r from the cycle/boundary construction, with its differentials.

        Returns a dict with the per-position cycle and boundary subgroups of
        ambient E (``Z``, ``B``: at level r-1, the ones presenting E^r), the
        page groups ``E`` and the differentials ``d``; checks the identities
        relating Z^r, B^r to the kernel and image of d^r.
        """
        if r < 1:
            raise ValueError("pages start at 1")
        bd = self.bidegrees
        v = bd.differential_bidegree(r)
        Z, B, sq = {}, {}, {}
        for e in self.E:
            Z[e] = self.cycles_at(e, r - 1)
            B[e] = self.boundaries_at(e, r - 1)
            sq[e] = subquotient(Z[e], B[e])
        d = {}
        for e in self.E:
            if sq[e].group.is_trivial():
                continue
            e2 = _add(e, v)
            tgt = sq[e2] if e2 in sq else whole(self.E_at(e2))
            # the relation j o i^-(r-1) o k; the i-preimages live in D_{e2-b}
            pt = self.position_index(_add(_sub(e, bd.b), bd.z))
            back = self.diagonal(pt.n).composite(pt.r - (r - 1), pt.r)
            de = hom_through(sq[e], self.k_at(e), back, self.j_at(_sub(e2, bd.b)), tgt, e, r)
            if not de.is_zero():
                d[e] = de
        # Z^r is the tau-preimage of Ker d^r, B^r of the incoming image
        for e in self.E:
            ker = d[e].kernel() if e in d else Subgroup.full(sq[e].group)
            require(sq[e].pull_back(ker) == self.cycles_at(e, r), "cycle identity", e, r)
            e_prev = _sub(e, v)
            img = d[e_prev].image() if e_prev in d else Subgroup.zero(sq[e].group)
            require(sq[e].pull_back(img) == self.boundaries_at(e, r), "boundary identity", e, r)
        groups = {e: sq[e].group for e in self.E if not sq[e].group.is_trivial()}
        return {"Z": Z, "B": B, "E": groups, "d": d}

    def page_bounds(self):
        """Bounding rectangle of the E-support (a single cell if empty)."""
        if not self.E:
            return ((0, 0), (0, 0))
        ps = [e[0] for e in self.E]
        qs = [e[1] for e in self.E]
        return ((min(ps), max(ps)), (min(qs), max(qs)))

    @_in_own_table
    def internal_spectral_sequence(self) -> SpectralSequence:
        """The couple's one spectral sequence, kept on the couple and shared
        (do not mutate it).

        Page 1 is E with d = jk.  The generic engine turns each later page,
        inside the couple's result table, when it is first asked for, and
        takes its differentials from ``_checked_differentials``.
        """
        if self._ss is None:
            first = Page(BigradedGroup(self.page_bounds(), dict(self.E)), self.bidegrees.z,
                         self.internal_page(1)["d"])
            self._ss = _CoupleSequence(self._results, 1, first,
                                       self.bidegrees.differential_bidegree,
                                       self._checked_differentials)
        return self._ss

    @_in_own_table
    def _checked_differentials(self, r: int, anchored: dict) -> dict:
        """d^r from ``internal_page(r)``, once the engine's anchored page r
        agrees with its cycles and boundaries (two independent computation
        paths); a disagreement raises ``TheoremViolation``."""
        ip = self.internal_page(r)
        for e in self.E:
            require((anchored[e].Z, anchored[e].B) == (ip["Z"][e], ip["B"][e]),
                    "page anchoring disagrees", e, r)
        return ip["d"]

    @_in_own_table
    def e_infinity(self) -> dict:
        """E^infinity per E-position: cycle/boundary subgroups and subquotient.

        Computed from the stable image tower (omega-cycles over omega-
        boundaries), and checked equal to the limit page of the generic
        engine, read off the couple's one sequence; a disagreement raises
        ``TheoremViolation``.
        """
        out = {}
        for e in self.E:
            Zw = self.omega_cycles_at(e)
            Bw = self.omega_boundaries_at(e)
            out[e] = {"Z": Zw, "B": Bw, "sq": subquotient(Zw, Bw)}
        _, _, data = self.internal_spectral_sequence().e_infinity()
        for e in self.E:
            require((data[e].Z, data[e].B) == (out[e]["Z"], out[e]["B"]),
                    "limit page disagrees", e)
        return out

    # -- abutments -----------------------------------------------------------

    @_in_own_table
    def abutments(self, n: int) -> "AbutmentData":
        """Colimit and limit abutments of diagonal n with their filtrations.

        The colimit abutment and its image filtration come from the D-tower
        of diagonal n; the limit abutment and its kernel filtration from the
        tower of diagonal n + sigma (one application of b + c away).  The
        filtration quotients of the colimit side are identified with
        kernel-of-k modulo limit boundaries, and that identification is
        checked here.

        Computed once per couple and diagonal and kept in the couple's
        result table; later calls (``extension_report``, ``classify``)
        return the same object, which callers must not mutate.
        """
        key = ("abutments", n)
        ab = self._results.get(key)
        if ab is None:
            ab = self._results[key] = self._abutments(n)
        return ab

    def _abutments(self, n: int) -> "AbutmentData":
        bd = self.bidegrees
        dn = self.diagonal(n)
        dns = self.diagonal(n + bd.sigma)
        filt_n = filtrations(dn)
        filt_s = filtrations(dns)

        def by_pos(table, m):
            return {self.position_on(m, r): v for r, v in table.items()}

        F = by_pos(filt_n["F"], n)
        Fu = by_pos(filt_s["F_upper"], n + bd.sigma)
        eps = by_pos(filt_n["eps"], n)
        eps_u = by_pos(filt_s["eps_upper"], n + bd.sigma)
        for r in range(dn.p0, dn.p1 + 2):
            x = self.position_on(n, r)
            e = _add(x, bd.b)
            ident = subquotient(self.k_at(e).kernel(), self.omega_boundaries_at(e))
            require(eps[x].group == ident.group,
                    "filtration quotient does not match Ker k / B-infinity", x)
        return AbutmentData(
            n=n,
            sigma=bd.sigma,
            colim=filt_n["colim"],
            lim=filt_s["lim"],
            F=F,
            F_upper=Fu,
            eps=eps,
            eps_upper=eps_u,
        )

    # -- extensions and classification ---------------------------------------

    @_in_own_table
    def er_extension_check(self, x: Position, r: int) -> Tuple[FPAbGroup, FPAbGroup, FPAbGroup]:
        """The page-(r+1) term at x+b as an extension of i-iteration data.

        The kernel of k modulo page-r boundaries is identified with the
        image of the r-fold i out of x modulo the image of the (r+1)-fold i
        out of x-a; the page-(r+1) cycles modulo the kernel of k with the
        kernel of the (r+1)-fold i out of x+b+c-ra modulo the kernel of the
        r-fold one.  Both identifications and short exactness of

            Ker k / B^r  >->  Z^r / B^r  -->>  Z^r / Ker k

        are verified.  Returns the groups ``(left, middle, right)``.
        """
        bd = self.bidegrees
        x = tuple(x)
        e = _add(x, bd.b)
        w = _sub(_add(x, bd.z), _scale(r, bd.a))
        px = self.position_index(x)
        pw = self.position_index(w)
        dia_x = self.diagonal(px.n)
        dia_w = self.diagonal(pw.n)

        # adjacent images of the i-iterations out of x and x - a
        ir = dia_x.composite(px.r, px.r + r)
        ir1 = dia_x.composite(px.r - 1, px.r + r)
        sq_im = subquotient(ir.image(), ir1.image())

        # adjacent kernels of the i-iterations out of x + b + c - ra
        jr = dia_w.composite(pw.r, pw.r + r)
        jr1 = dia_w.composite(pw.r, pw.r + r + 1)
        sq_ker = subquotient(jr1.kernel(), jr.kernel())

        sq_kb, sq_mid, sq_q, _, _ = short_exact(
            self.boundaries_at(e, r), self.k_at(e).kernel(), self.cycles_at(e, r), x, r)

        # left identification: pull Ker k = Im j back through j, push by
        # the iterated i
        alpha = hom_through(sq_kb, Hom.identity(self.E_at(e)), self.j_at(x), ir, sq_im, x, r)
        require(alpha.is_iso(), "left identification is not an isomorphism", x, r)

        # right identification: apply k, pull back through the iterated i
        # (the result lands in Ker i^{r+1} since i after k is zero)
        beta = hom_through(sq_q, self.k_at(e), jr, Hom.identity(self.D_at(w)), sq_ker, x, r)
        require(beta.is_iso(), "right identification is not an isomorphism", x, r)

        if all(
            g.order() is not None
            for g in (sq_im.group, sq_mid.group, sq_ker.group)
        ):
            require(sq_mid.group.order() == sq_im.group.order() * sq_ker.group.order(),
                    "page term order is not the product of its ends", x, r)
        return sq_im.group, sq_mid.group, sq_ker.group

    @_in_own_table
    def extension_report(self, x: Position) -> dict:
        """Build and verify the extension data tied to D-position x.

        Builds the stable E-object Ebar = k^-1(Ibar) / B^infinity at x+b,
        the one place it is built, and checks the stable-E short exact
        sequence (colimit filtration quotient at x into Ebar onto the limit
        filtration quotient at x+b+c), the limit-page short exact sequence,
        the comparison monomorphism M between their right-hand terms, the
        commuting (pullback) square relating the two sequences, and the
        stability verdict of the intersection criterion against the cycle
        subgroups.  Returns the stability verdict and the groups of both
        sequences.
        """
        bd = self.bidegrees
        x = tuple(x)
        e = _add(x, bd.b)
        t_pos = _add(x, bd.z)
        px = self.position_index(x)
        pt = self.position_index(t_pos)
        amb_t = self.D_at(t_pos)

        keri = self.i_at(t_pos).kernel()
        ibar = self._stable_at(pt.n, pt.r, stable_image)
        iw = self._stable_at(pt.n, pt.r, I_omega)
        crit_lhs = ibar.intersection(keri)
        crit_rhs = iw.intersection(keri)
        stable = crit_lhs == crit_rhs

        kerk = self.k_at(e).kernel()
        Bw = self.omega_boundaries_at(e)
        Zw = self.omega_cycles_at(e)
        Zbar = self.k_at(e).preimage(ibar)
        # the cycle-level stability reading must agree with the criterion
        require((Zbar == Zw) == stable, "stability criterion mismatch", x)

        sq_eps, sq_bar, sq_cok_bar, mono_bar, epi_bar = short_exact(Bw, kerk, Zbar, x)
        _, sq_inf, sq_cok_inf, mono_inf, epi_inf = short_exact(Bw, kerk, Zw, x)
        incl = induced_map(Hom.identity(self.E_at(e)), sq_bar, sq_inf)
        require(incl.is_mono(), "stable E does not embed in E-infinity", x)

        # right-hand terms, read inside D_{x+b+c} through k
        kmap_bar = self._k_onto(e, sq_cok_bar, crit_lhs)
        kmap_inf = self._k_onto(e, sq_cok_inf, crit_rhs)
        require(kmap_bar.is_iso() and kmap_inf.is_iso(),
                "k does not identify the right-hand terms", x)
        M = Hom.identity(amb_t).restrict(crit_lhs, crit_rhs)
        require(M.is_mono(), "comparison map is not mono", x)
        require(M.is_iso() == stable, "comparison map iso disagrees with stability", x)

        # the square: through Ebar then M, or through E-infinity
        lhs = M.compose(kmap_bar.compose(epi_bar))
        rhs = kmap_inf.compose(epi_inf.compose(incl))
        require(lhs == rhs, "comparison square does not commute", x)
        require(incl.compose(mono_bar) == mono_inf, "left square does not commute", x)
        # pullback property: Ebar is exactly the part of E-infinity whose
        # right-hand image comes from the stable side
        pulled = kmap_inf.compose(epi_inf).preimage(
            M.image()
        )
        require(incl.image() == pulled, "pullback square fails", x)

        # five-term sequence: both lim1 terms vanish under supported tails,
        # which limit_and_lim1 checks
        limit_and_lim1(kernel_diagram(self.diagonal(pt.n), pt.r)[0])

        ab = self.abutments(px.n)
        eps_x = ab.eps.get(x)
        eps_up = ab.eps_upper.get(t_pos)
        if eps_x is not None:
            require(eps_x.group == sq_eps.group,
                    "colimit filtration quotient disagrees with the extension", x)
        if eps_up is not None:
            require(eps_up.group == sq_cok_bar.group,
                    "limit filtration quotient disagrees with the extension", x)

        return {
            "position": x,
            "stable": stable,
            "eps": sq_eps.group,
            "eps_upper": sq_cok_bar.group,
            "stable_e": sq_bar.group,
            "e_infinity": sq_inf.group,
            "limit_term": sq_cok_inf.group,
            "M_iso": M.is_iso(),
            "lim1_zero": True,
        }

    def _k_onto(self, e, sq: SubquotientData, target: Subgroup) -> Hom:
        """k, induced from a subquotient of E_e onto ``target.as_group()``."""
        try:
            return induced_map(self.k_at(e), sq, target.as_subquotient())
        except NotWellDefined:
            raise TheoremViolation("k value escapes its declared image", (e,)) from None

    @_in_own_table
    def classify(self, x: Position) -> dict:
        """How the limit page at x+b relates to the two abutments.

        Exactly one label: ``MatchesColimit`` (stable with vanishing upper
        quotient), ``MatchesLimit`` (stable with vanishing lower quotient),
        ``StableProperExtension``, or ``Unstable``.  Sufficient conditions
        that fired are reported, and each one that did is checked to imply
        the verdict it supports.  Returns ``label`` and ``sufficient``.
        """
        bd = self.bidegrees
        x = tuple(x)
        rep = self.extension_report(x)
        t_pos = _add(x, bd.z)
        pt = self.position_index(t_pos)
        px = self.position_index(x)
        dns = self.diagonal(pt.n)
        dn = self.diagonal(px.n)
        ml = ml_conditions(dns)
        sufficient = {
            "i_mono_at_target": self.i_at(t_pos).is_mono(),
            "omega_ml": ml["omega_ml"],
            "mittag_leffler": ml["mittag_leffler"],
            "upper_tower_vanishes": all(
                dns.group_at(r).is_trivial() for r in dns.padded_range()
            ),
            "lower_tower_vanishes": all(
                dn.group_at(r).is_trivial() for r in dn.padded_range()
            ),
            "colim_trivial": colimit(dn)[0].is_trivial(),
            "i_epi_below": self.i_at(_sub(x, bd.a)).is_epi(),
        }
        for key in ("omega_ml", "mittag_leffler", "i_mono_at_target"):
            if sufficient[key]:
                require(rep["stable"],
                        "sufficient condition fired on an unstable position", key, x)
        if not rep["stable"]:
            label = "Unstable"
        elif rep["eps_upper"].is_trivial():
            label = "MatchesColimit"
        elif rep["eps"].is_trivial():
            label = "MatchesLimit"
        else:
            label = "StableProperExtension"
        if sufficient["i_mono_at_target"] or sufficient["upper_tower_vanishes"]:
            require(rep["eps_upper"].is_trivial(),
                    "upper quotient survives its sufficient condition", x)
        if sufficient["colim_trivial"] or sufficient["lower_tower_vanishes"]:
            require(rep["eps"].is_trivial(),
                    "lower quotient survives its sufficient condition", x)
        if sufficient["i_epi_below"]:
            require(rep["eps"].is_trivial(), "lower quotient survives i epi below", x)
        return {"label": label, "sufficient": sufficient}

    # -- derived couples -----------------------------------------------------

    def _first_page_sq(self, e: Position) -> SubquotientData:
        """E^2-type subquotient: kernel of j k over image of the incoming j k."""
        bd = self.bidegrees
        d_out = self.j_at(_add(e, bd.c)).compose(self.k_at(e))
        e_in = _sub(e, bd.z)
        d_in = self.j_at(_add(e_in, bd.c)).compose(self.k_at(e_in))
        return subquotient(d_out.kernel(), d_in.image())

    @_in_own_table
    def derive(self, variant: str) -> "ExactCouple":
        """The image-quotient (``"Q"``) or image-subobject (``"I"``) derived couple.

        Both have D-objects the images of i and E-objects the homology of
        j k; they differ in where the image is indexed (at the source for Q,
        at the target for I), hence in the bidegrees of j and k.  The result
        is validated, which also certifies that regularity is preserved.
        """
        if variant not in ("Q", "I"):
            raise ValueError("variant must be 'Q' or 'I'")
        bd = self.bidegrees
        a, b, c = bd.a, bd.b, bd.c
        shift = (0, 0) if variant == "Q" else a
        new_bd = (
            Bidegrees(a, b, _sub(c, a)) if variant == "Q"
            else Bidegrees(a, _sub(b, a), c)
        )
        d_pos = self._d_check_positions()
        img = {x: self.i_at(x).image() for x in d_pos}
        newD, newi, newj = {}, {}, {}
        for x in d_pos:
            key = _add(x, shift)
            newD[key] = img[x].group()
            nxt = _add(x, a)
            if nxt in img:
                newi[key] = self.i_at(nxt).restrict(img[x], img[nxt])
            # j on the derived couple: pull back through i, then j, then pass
            # to homology of j k
            newj[key] = hom_through(img[x].as_subquotient(), Hom.identity(self.D_at(nxt)),
                                    self.i_at(x), self.j_at(x),
                                    self._first_page_sq(_add(x, b)), x)
        newE, newk = {}, {}
        for e in self._e_check_positions():
            sqe = self._first_page_sq(e)
            if sqe.group.is_trivial():
                continue
            newE[e] = sqe.group
            src = _sub(_add(e, c), a)  # the image indexed below the k-target
            if src not in img:
                continue
            newk[e] = self._k_onto(e, sqe, img[src])
        out = ExactCouple(new_bd, newD, newE, newi, newj, newk,
                          dict(self.diagonal_tails))
        out.validate()
        return out

    @_in_own_table
    def derivation_abutment_check(self) -> None:
        """Derived couples keep the abutments, with the stated index shifts.

        For the Q-derivation the image filtration is index-preserving and
        the kernel filtration shifts by -a; for the I-derivation the image
        filtration shifts by -a and the kernel filtration is preserved.
        Verified by recomputing both sides: a changed abutment raises
        ``TheoremViolation(check, (n,))``, a changed stage x
        ``TheoremViolation(check, (n, x))``.
        """
        a = self.bidegrees.a

        def stage(derived, table, y):
            """The stage at y of ``table``, a filtration of ``derived``'s
            abutments, read at the padded index of y's diagonal."""
            py = derived.position_index(y)
            r = derived.diagonal(py.n).padded_index(py.r)
            return table[derived.position_on(py.n, r)].as_group()[0]

        for variant, image_shift, kernel_shift in (("Q", (0, 0), _scale(-1, a)),
                                                   ("I", a, (0, 0))):
            derived = self.derive(variant)
            for n in self._content_diagonals():
                ab, abd = self.abutments(n), derived.abutments(n)
                require(ab.colim == abd.colim,
                        variant + "-derivation changes the colimit abutment", n)
                require(ab.lim == abd.lim,
                        variant + "-derivation changes the limit abutment", n)
                pairs = (("image", ab.F, abd.F, image_shift),
                         ("kernel", ab.F_upper, abd.F_upper, kernel_shift))
                for name, base, other, shift in pairs:
                    for x, S in base.items():
                        require(S.as_group()[0] == stage(derived, other, _add(x, shift)),
                                "%s-derivation changes the %s filtration" % (variant, name),
                                n, x)

    @_in_own_table
    def lim1_couple(self, n: int) -> "ExactCouple":
        """The couple assembled from the kernel filtration of diagonal n.

        Its lower D-tower is the kernel filtration of the limit abutment,
        its upper tower the lim-1 terms of the kernel diagrams (all zero
        under the supported tails), and its E-objects the limit-page
        cokernels (omega-cycles over the image of j).  It is checked to be
        exact, to collapse on page 1, and to match its colimit abutment.
        """
        bd = self.bidegrees
        dns = self.diagonal(n + bd.sigma)
        filt_s = filtrations(dns)
        Fu = filt_s["F_upper"]
        lo, hi = dns.p0 - 1, dns.p1 + 1
        newD, newi, newj = {}, {}, {}
        for r in range(lo, hi + 1):
            # F^{x+a+b+c} sits at lower-tower position x; its tower index on
            # diagonal n is r - 1 relative to the upper tower's r
            x = _sub(self.position_on(n + bd.sigma, r), _add(bd.a, bd.z))
            newD[x] = Fu[r].group()
            if r < hi:
                newi[x] = Hom.identity(filt_s["lim"]).restrict(Fu[r], Fu[r + 1])
            e = _add(x, bd.b)
            Zw = self.omega_cycles_at(e)
            Bj = self.j_at(x).image()
            sqe = subquotient(Zw, Bj)
            if sqe.group.is_trivial():
                continue
            # rho lands in the stable image; a k-preimage represents the class
            newj[x] = hom_through(Fu[r].as_subquotient(), dns.composite(dns.p0 - 1, r - 1),
                                  self.k_at(e), Hom.identity(self.E_at(e)), sqe, e)
        newE = {}
        for x in list(newD):
            e = _add(x, bd.b)
            sqe = subquotient(self.omega_cycles_at(e), self.j_at(x).image())
            if not sqe.group.is_trivial():
                newE[e] = sqe.group
        tails = {n: (Tail.ZERO, Tail.CONSTANT)}
        out = ExactCouple(Bidegrees(bd.a, bd.b, bd.c), newD, newE, newi, newj,
                          {}, tails)
        out.validate()
        require(out.internal_spectral_sequence().collapse_page() == 1,
                "lim^1 couple does not collapse on page 1", n)
        for x in newD:
            require(out.classify(x)["label"] == "MatchesColimit",
                    "lim^1 couple does not match its colimit", n, x)
        return out

    # -- reindexing ----------------------------------------------------------

    def reindex(self, T) -> "ExactCouple":
        """The right action of a unimodular matrix on positions and bidegrees."""
        (t00, t01), (t10, t11) = T
        if t00 * t11 - t01 * t10 not in (1, -1):
            raise NotUnimodular(T)

        def ap(x):
            return (t00 * x[0] + t01 * x[1], t10 * x[0] + t11 * x[1])

        detT = t00 * t11 - t01 * t10
        new_bd = Bidegrees(ap(self.bidegrees.a), ap(self.bidegrees.b),
                           ap(self.bidegrees.c))
        return ExactCouple(
            new_bd,
            {ap(x): G for x, G in self.D.items()},
            {ap(x): G for x, G in self.E.items()},
            {ap(x): f for x, f in self.i.items()},
            {ap(x): f for x, f in self.j.items()},
            {ap(x): f for x, f in self.k.items()},
            {detT * n: t for n, t in self.diagonal_tails.items()},
        )

    def canonical_T(self):
        """The unimodular matrix turning the differential bidegrees homological.

        Built from a and z = b + c; it sends a to (1, -1) and z to (-1, 0),
        so the page-r differential acquires bidegree (-r, r-1).
        """
        bd = self.bidegrees
        a, z = bd.a, bd.z
        s = bd.sigma
        return (
            (s * (a[1] + z[1]), -s * (a[0] + z[0])),
            (-s * z[1], s * z[0]),
        )


@dataclass(frozen=True)
class AbutmentData:
    """Both abutments of one diagonal, with filtrations and quotients.

    ``F`` is the image filtration of the colimit abutment (keyed by the
    positions of diagonal n), ``F_upper`` the kernel filtration of the limit
    abutment (keyed by the positions of diagonal n + sigma); ``eps[x]`` is
    F_x / F_{x-a} and ``eps_upper[x]`` is F^{x+a} / F^x.
    """

    n: int
    sigma: int
    colim: FPAbGroup
    lim: FPAbGroup
    F: dict
    F_upper: dict
    eps: dict
    eps_upper: dict


class CoupleMorphism:
    """A morphism of exact couples: componentwise maps commuting with i, j, k.

    On each diagonal the D-components form one tower morphism, built by
    ``ZDiagramMorphism.on_window`` from the components given there; building
    it checks the squares with i.
    """

    def __init__(self, source: ExactCouple, target: ExactCouple,
                 fD: Dict[Position, Hom], fE: Dict[Position, Hom]):
        if source.bidegrees != target.bidegrees:
            raise NotAMorphism("bidegrees differ")
        self.source = source
        self.target = target
        self.fD = {tuple(x): f for x, f in fD.items()}
        self.fE = {tuple(x): f for x, f in fE.items()}
        self._towers: Dict[int, ZDiagramMorphism] = {}
        bd = source.bidegrees
        for x, f in self.fD.items():
            if f.domain != source.D_at(x) or f.codomain != target.D_at(x):
                raise NotAMorphism(("component endpoints (D)", x))
        for x, f in self.fE.items():
            if f.domain != source.E_at(x) or f.codomain != target.E_at(x):
                raise NotAMorphism(("component endpoints (E)", x))
        for n in sorted({*source._content_diagonals(), *target._content_diagonals(),
                         *(det2(bd.a, x) for x in self.fD)}):
            self.d_morphism(n)
        d_pos = list(dict.fromkeys(
            [*source._d_check_positions(), *target._d_check_positions()]))
        e_pos = list(dict.fromkeys(
            [*source._e_check_positions(), *target._e_check_positions()]))
        for x in d_pos:
            if self.fE_at(_add(x, bd.b)).compose(source.j_at(x)) != \
                    target.j_at(x).compose(self.fD_at(x)):
                raise NotAMorphism(("square with j", x))
        for e in e_pos:
            if self.fD_at(_add(e, bd.c)).compose(source.k_at(e)) != \
                    target.k_at(e).compose(self.fE_at(e)):
                raise NotAMorphism(("square with k", e))

    def fD_at(self, x: Position) -> Hom:
        pi = self.source.position_index(x)
        return self.d_morphism(pi.n).component(pi.r)

    def fE_at(self, x: Position) -> Hom:
        x = tuple(x)
        f = self.fE.get(x)
        if f is not None:
            return f
        return Hom.zero_map(self.source.E_at(x), self.target.E_at(x))

    def d_morphism(self, n: int) -> ZDiagramMorphism:
        """The induced morphism of D-towers on diagonal n, built once."""
        if n not in self._towers:
            comps = {self.source.position_index(x).r: f for x, f in self.fD.items()
                     if det2(self.source.bidegrees.a, x) == n}
            try:
                self._towers[n] = ZDiagramMorphism.on_window(
                    self.source.diagonal(n), self.target.diagonal(n), comps)
            except NotAMorphism as ex:
                raise NotAMorphism(("D-tower", n) + ex.args) from None
        return self._towers[n]

    def f_infinity(self, n: int) -> Dict[Position, Hom]:
        """Induced maps on the limit pages over the E-positions of diagonal n."""
        bd = self.source.bidegrees
        out = {}
        for r in self.d_morphism(n).source.padded_range():
            x = self.source.position_on(n, r)
            e = _add(x, bd.b)
            sq_s = subquotient(self.source.omega_cycles_at(e),
                               self.source.omega_boundaries_at(e))
            sq_t = subquotient(self.target.omega_cycles_at(e),
                               self.target.omega_boundaries_at(e))
            out[e] = induced_map(self.fE_at(e), sq_s, sq_t)
        return out

    def eps_maps(self, n: int) -> Dict[Position, Hom]:
        """Induced maps on the colimit filtration quotients of diagonal n."""
        comp = colimit_map(self.d_morphism(n))
        src = self.source.abutments(n).eps
        tgt = self.target.abutments(n).eps
        out = {}
        for x in src:
            if x in tgt:
                out[x] = induced_map(comp, src[x], tgt[x])
        return out


class _CoupleMorphismFacts:
    """What the ``COMPARE_RULES`` read about ``f`` on diagonal n; the induced
    maps beyond the abutment maps are computed when a clause first reads
    them."""

    def __init__(self, f: CoupleMorphism, n: int):
        self.f, self.n = f, n
        self.S, self.T = f.source, f.target
        self.dm_low = f.d_morphism(n)
        self.dm_up = f.d_morphism(n + self.S.bidegrees.sigma)
        self.Lf = colimit_map(self.dm_low)
        self.Luf = limit_map(self.dm_up)

    @functools.cached_property
    def f_infinity(self) -> list:
        return list(self.f.f_infinity(self.n).values())

    @functools.cached_property
    def eps(self) -> list:
        return list(self.f.eps_maps(self.n).values())

    @functools.cached_property
    def low(self) -> _MorphismFacts:
        """The diagram facts of the D-tower morphism on diagonal n."""
        return _MorphismFacts(self.dm_low)

    @functools.cached_property
    def up(self) -> _MorphismFacts:
        """The diagram facts of the D-tower morphism on diagonal n + sigma."""
        return _MorphismFacts(self.dm_up)

    def all_stable(self, side: ExactCouple) -> bool:
        return all(
            side.extension_report(side.position_on(self.n, r))["stable"]
            for r in side.diagonal(self.n).padded_range()
        )

    def eps_trivial(self, side: ExactCouple) -> bool:
        return all(sq.group.is_trivial() for sq in side.abutments(self.n).eps.values())

    def filtration_constant(self, side: ExactCouple) -> bool:
        return len({tuple(v.basis) for v in side.abutments(self.n).F.values()}) <= 1


_PAGES_MONO = ("limit page maps all mono", lambda F: all(g.is_mono() for g in F.f_infinity))
_PAGES_ISO = ("limit page maps all iso", lambda F: all(g.is_iso() for g in F.f_infinity))
_EPS_ISO = ("filtration quotient maps all iso", lambda F: all(g.is_iso() for g in F.eps))
_IM_R_ISO = ("map on the image of lim -> colim iso", lambda F: F.up.im_R_map.is_iso())
_LIM_F_ISO = ("map on lim of the image filtration iso", lambda F: F.low.lim_F_map.is_iso())
_MATCH_LIMIT = ("both sides match the limit abutment",
                lambda F: F.all_stable(F.S) and F.all_stable(F.T)
                and F.eps_trivial(F.S) and F.eps_trivial(F.T))
_COLIM_MONO = "colimit abutment map mono"
_LIM_ISO = "limit abutment map iso"

COMPARE_RULES = {
    "mono-colim-1": (
        (_PAGES_MONO,
         ("map on lim of the image filtration mono", lambda F: F.low.lim_F_map.is_mono())),
        _COLIM_MONO, lambda F: F.Lf.is_mono()),
    "mono-colim-2": (
        (_PAGES_MONO,
         ("lim of the source image filtration zero",
          lambda F: colimit(F.dm_low.source)[1][F.dm_low.source.p0 - 1].image().is_zero())),
        _COLIM_MONO, lambda F: F.Lf.is_mono()),
    "epi-colim": (
        (_EPS_ISO,
         ("map on lim of the image filtration epi", lambda F: F.low.lim_F_map.is_epi())),
        "colimit abutment map epi", lambda F: F.Lf.is_epi()),
    "iso-colim": (
        (_EPS_ISO, _LIM_F_ISO),
        "colimit abutment map iso", lambda F: F.Lf.is_iso()),
    "mono-lim-1": (
        (("image filtrations constant on both sides",
          # both sides are read, whatever the first one gives
          lambda F: all([F.filtration_constant(F.S), F.filtration_constant(F.T)])),
         _PAGES_MONO,
         ("map on the image of lim -> colim mono", lambda F: F.up.im_R_map.is_mono())),
        "limit abutment map mono", lambda F: F.Luf.is_mono()),
    "mono-lim-2": (
        (_PAGES_MONO,
         ("colimit abutments trivial on both sides",
          lambda F: colimit(F.dm_low.source)[0].is_trivial()
          and colimit(F.dm_low.target)[0].is_trivial()),
         ("upper colimit abutment of the source trivial",
          lambda F: colimit(F.dm_up.source)[0].is_trivial())),
        "limit abutment map mono", lambda F: F.Luf.is_mono()),
    "iso-universal": (
        (("limit pages stable on both sides",
          lambda F: F.all_stable(F.S) and F.all_stable(F.T)),
         _PAGES_ISO,
         ("filtration quotient maps epi", lambda F: all(g.is_epi() for g in F.eps)),
         _LIM_F_ISO,
         _IM_R_ISO),
        "both abutment maps iso", lambda F: F.Lf.is_iso() and F.Luf.is_iso()),
    "iso-lim-1": (
        (_MATCH_LIMIT, _PAGES_ISO, _IM_R_ISO),
        _LIM_ISO, lambda F: F.Luf.is_iso()),
    "iso-lim-2": (
        (_MATCH_LIMIT, _PAGES_ISO,
         ("auxiliary clause (R zero / lim F zero / upper colims trivial / eventually"
          " vanishing)", lambda F: _iso_lim_auxiliary(F.up))),
        _LIM_ISO, lambda F: F.Luf.is_iso()),
    "epi-lim": (
        (("limit pages of the source stable", lambda F: F.all_stable(F.S)),
         ("limit page maps all epi", lambda F: all(g.is_epi() for g in F.f_infinity)),
         ("upper colimit abutments trivial on both sides",
          lambda F: colimit(F.dm_up.source)[0].is_trivial()
          and colimit(F.dm_up.target)[0].is_trivial()),
         ("kernels of the upper tower maps satisfy a descending chain condition",
          lambda F: kernels_satisfy_dcc(F.dm_up.source))),
        "limit abutment map epi", lambda F: F.Luf.is_epi()),
}


def compare_abutments(f: CoupleMorphism, rule: str, n: int) -> dict:
    """Deduce a property of an abutment map from limit-page data on diagonal n.

    Each rule checks its hypotheses exactly; when they hold, it checks its
    conclusion on the induced map of the colimit abutment (of diagonal n) or
    the limit abutment (of diagonal n + sigma).  A failing hypothesis raises
    ``HypothesisFailed``, as in ``zdiagrams.apply_rule``.  The rules are the
    keys of ``COMPARE_RULES``.
    """
    return apply_rule(COMPARE_RULES, rule, {"rule": rule, "diagonal": n, "hypotheses": []},
                      lambda: _CoupleMorphismFacts(f, n))


# ---------------------------------------------------------------------------
# first-quadrant reverse comparison
# ---------------------------------------------------------------------------


def zeeman_check(f, abut_source: dict, abut_target: dict, abut_maps: dict,
                 setup: str = "I", edge_oracle: Optional[Callable] = None) -> dict:
    """Reverse comparison: abutment isomorphisms force page isomorphisms.

    ``f`` is a morphism of first-quadrant spectral sequences starting on
    page 2.  ``abut_source`` / ``abut_target`` supply, per total degree n,
    the abutment group together with its increasing filtration chain (a list
    of subgroups from zero to full); ``abut_maps`` the induced abutment
    maps.  ``setup`` selects the homological ("I", colimit-type, filtration
    quotient at stage t is the limit-page object at (t, n-t)) or
    cohomological ("II", limit-type, stage t matching position (n-t, t))
    flavour.  ``edge_oracle(f, n)`` certifies the setup's edge-determination
    hypothesis: that isomorphisms along the base edge up to n force
    isomorphisms on the corresponding rows (setup I) or columns (setup II).

    Setup and hypothesis violations raise ``SetupViolation``; otherwise the
    conclusion (every page map and the limit-page map are isomorphisms) is
    verified position by position and reported.
    """
    if setup not in ("I", "II"):
        raise ValueError("setup must be 'I' or 'II'")
    src, tgt = f.source, f.target
    if src.r0 != 2 or tgt.r0 != 2:
        raise SetupViolation("first-quadrant comparison starts on page 2")
    for ss in (src, tgt):
        for x in ss.pages[0].objects.positions():
            if x[0] < 0 or x[1] < 0:
                raise SetupViolation(("support leaves the first quadrant", x))
    horizon = max(src.stabilization_horizon(), tgt.stabilization_horizon())
    settled = max(src.settled_page(), tgt.settled_page())
    want = (lambda r: (-r, r - 1)) if setup == "I" else (lambda r: (r, -r + 1))
    for r in range(2, settled + 1):
        if tuple(src.rule(r)) != want(r) or tuple(tgt.rule(r)) != want(r):
            raise SetupViolation(("differential bidegrees do not match the"
                                  " declared setup", r))
    einf_s = src.e_infinity()[0]
    einf_t = tgt.e_infinity()[0]

    def stage_position(n, t):
        return (t, n - t) if setup == "I" else (n - t, t)

    for label, abut, einf in (("source", abut_source, einf_s),
                              ("target", abut_target, einf_t)):
        covered = set()
        for n, (L, chain) in abut.items():
            if len(chain) != n + 2:
                raise SetupViolation((label, n, "filtration length"))
            if not chain[0].is_zero() or chain[-1] != Subgroup.full(L):
                raise SetupViolation((label, n, "filtration ends"))
            for t in range(n + 1):
                if not chain[t + 1].contains_subgroup(chain[t]):
                    raise SetupViolation((label, n, "filtration not nested"))
                q = subquotient(chain[t + 1], chain[t]).group
                pos = stage_position(n, t)
                covered.add(pos)
                if q != einf.at(pos):
                    raise SetupViolation((label, n,
                                          "filtration quotient mismatch", pos))
        for pos in einf.positions():
            if pos[0] + pos[1] in abut and pos not in covered:
                raise SetupViolation((label, "position not covered", pos))
    for n, h in abut_maps.items():
        if h.domain != abut_source[n][0] or h.codomain != abut_target[n][0]:
            raise SetupViolation((n, "abutment map endpoints"))
        for t, sub in enumerate(abut_source[n][1]):
            if not abut_target[n][1][t].contains_subgroup(h.image_of_subgroup(sub)):
                raise SetupViolation((n, t, "abutment map not filtered"))
        if not h.is_iso():
            raise SetupViolation((n, "abutment map not an isomorphism"))
    corner = f.component(2, (0, 0))
    if not corner.is_iso():
        raise SetupViolation(("corner map not an isomorphism", (0, 0)))
    if edge_oracle is None:
        raise SetupViolation("an edge-determination rule is required")
    degrees = sorted(set(abut_source) | set(abut_target))
    for n in degrees:
        if not edge_oracle(f, n):
            raise SetupViolation(("edge determination fails", n))
    # conclusion: every page map is an isomorphism
    first_failure = None
    for r in range(2, settled + 1):
        for x in sorted(f.page_positions(r)):
            if not f.component(r, x).is_iso():
                first_failure = (r, x)
                break
        if first_failure:
            break
    if first_failure is None:
        for x, g in f.f_infinity().items():
            if not g.is_iso():
                first_failure = ("infinity", x)
                break
    return {
        "setup": setup,
        "ok": first_failure is None,
        "first_failure": first_failure,
        "horizon": horizon,
    }


# ---------------------------------------------------------------------------
# instance constructions
# ---------------------------------------------------------------------------


def couple_from_filtered_complex(groups: Dict[int, FPAbGroup],
                                 diffs: Dict[int, Hom],
                                 filtration: Dict[int, Dict[int, Subgroup]]) -> ExactCouple:
    """The exact couple of a finitely filtered chain complex.

    ``groups[n]`` is the degree-n chain group, ``diffs[n]`` the differential
    into degree n-1, and ``filtration[p][n]`` the p-th filtration stage in
    degree n (a subgroup; stages below the smallest declared p are zero,
    stages above the largest are everything).  D-objects are the homology
    groups of the stages, E-objects the homology of adjacent quotients, and
    i, j, k come from the long exact homology sequences.

    The couple is built under a fresh result table, which the returned
    couple then owns, so its analysis reuses the kernels, images and
    subquotients of the construction.

    Raises:
        NotAComplex: if the differential does not square to zero.
        NotFiltered: if the stages are not nested or not preserved.
    """
    table: dict = {}
    with shared_results(table):
        out = _filtered_complex_couple(groups, diffs, filtration)
    out._results = table
    out.validate()
    return out


def _filtered_complex_couple(groups, diffs, filtration) -> ExactCouple:
    groups = {n: G for n, G in groups.items() if not G.is_trivial()}
    degrees = sorted(groups) or [0]
    # the couple's diagonals run over lo..hi; the tables reach one degree
    # (and one stage) further on each side
    lo, hi = degrees[0] - 1, degrees[-1] + 1
    C = {n: groups.get(n, _TRIVIAL) for n in range(lo - 2, hi + 2)}
    d = {}
    for n in range(lo - 1, hi + 2):
        f = diffs.get(n) or Hom.zero_map(C[n], C[n - 1])
        if f.domain != C[n] or f.codomain != C[n - 1]:
            raise ValueError("differential endpoints disagree in degree %d" % n)
        d[n] = f
    for n in degrees:
        if not d[n].compose(d[n + 1]).is_zero():
            raise NotAComplex(n + 1)
    ps = sorted(filtration)
    if not ps:
        raise NotFiltered("at least one filtration stage is required")
    pmin, pmax = ps[0], ps[-1]

    # F[p, n]: zero below the first stage and where a stage leaves degree n
    # out, the whole group above the last stage
    F = {}
    for n in range(lo - 1, hi + 2):
        F[pmin - 1, n] = Subgroup.zero(C[n])
        F[pmax + 1, n] = Subgroup.full(C[n])
    for p in range(pmin, pmax + 1):
        for n in range(lo - 1, hi + 2):
            S = filtration[p].get(n) or F[pmin - 1, n]
            if S.ambient != C[n]:
                raise NotFiltered((p, n, "stage not inside its chain group"))
            F[p, n] = S
    for p in range(pmin, pmax + 1):
        for n in degrees:
            if not F[p + 1, n].contains_subgroup(F[p, n]):
                raise NotFiltered((p, n, "stages not nested"))
            if not F[p, n - 1].contains_subgroup(d[n].image_of_subgroup(F[p, n])):
                raise NotFiltered((p, n, "differential leaves the stage"))

    # H[p, n] = H_n(F_p C) and Q[p, n] = H_n(F_p C / F_{p-1} C)
    H = {(p, n): subquotient(d[n].kernel().intersection(F[p, n]),
                             d[n + 1].image_of_subgroup(F[p, n + 1]))
         for p in range(pmin - 1, pmax + 2) for n in range(lo - 1, hi + 1)}
    Q = {(p, n): subquotient(d[n].preimage(F[p - 1, n - 1]).intersection(F[p, n]),
                             d[n + 1].image_of_subgroup(F[p, n + 1]).sum(F[p - 1, n]))
         for p in range(pmin, pmax + 2) for n in range(lo, hi + 1)}

    D, E, i, j, k, tails = {}, {}, {}, {}, {}, {}
    for n in range(lo, hi + 1):
        ident = Hom.identity(C[n])
        # stage pmax+1 is the whole complex; from there on the tower is
        # constant, matching the default right tail
        for p in range(pmin, pmax + 2):
            pos = (p, n - p)
            D[pos], E[pos] = H[p, n].group, Q[p, n].group
            if p <= pmax:
                i[pos] = induced_map(ident, H[p, n], H[p + 1, n])
            j[pos] = induced_map(ident, H[p, n], Q[p, n])
            k[pos] = induced_map(d[n], Q[p, n], H[p - 1, n - 1])
        # when the total homology of a degree vanishes, the tower is
        # eventually zero instead
        right = Tail.ZERO if H[pmax + 1, n].group.is_trivial() else Tail.CONSTANT
        tails[n] = (Tail.ZERO, right)
    return ExactCouple(Bidegrees((1, -1), (0, 0), (-1, 0)), D, E, i, j, k, tails)


def couple_direct_sum(C1: ExactCouple, C2: ExactCouple) -> ExactCouple:
    """Positionwise direct sum of two couples with the same bidegrees.

    On each side a tower of the sum is constant when one summand's tower
    is, and zero otherwise.  A summand's tails are those of its
    ``diagonal``: (ZERO, ZERO) where its tower is empty, else the declared
    or default ones.
    """
    if C1.bidegrees != C2.bidegrees:
        raise BidegreeMismatch((C1.bidegrees, C2.bidegrees))
    bd = C1.bidegrees

    def joined(*tails):
        return Tail.CONSTANT if Tail.CONSTANT in tails else Tail.ZERO

    tails = {}
    for n in {det2(bd.a, x) for x in [*C1.D, *C2.D]}:
        A, B = C1.diagonal(n), C2.diagonal(n)
        tails[n] = (joined(A.left_tail, B.left_tail), joined(A.right_tail, B.right_tail))

    d_kits: Dict[Position, tuple] = {}
    e_kits: Dict[Position, tuple] = {}

    def d_kit(x):
        if x not in d_kits:
            d_kits[x] = direct_sum([C1.D_at(x), C2.D_at(x)])
        return d_kits[x]

    def e_kit(x):
        if x not in e_kits:
            e_kits[x] = direct_sum([C1.E_at(x), C2.E_at(x)])
        return e_kits[x]

    def block(f1, f2, src_kit, tgt_kit):
        _, (inc1, inc2), _ = tgt_kit
        _, _, (pr1, pr2) = src_kit
        return inc1.compose(f1.compose(pr1)).add(inc2.compose(f2.compose(pr2)))

    d_pos = list(dict.fromkeys([*C1._d_check_positions(), *C2._d_check_positions()]))
    e_pos = list(dict.fromkeys([*C1._e_check_positions(), *C2._e_check_positions()]))
    D = {x: d_kit(x)[0] for x in d_pos}
    E = {x: e_kit(x)[0] for x in e_pos}
    i = {
        x: block(C1.i_at(x), C2.i_at(x), d_kit(x), d_kit(_add(x, bd.a)))
        for x in d_pos
    }
    j = {
        x: block(C1.j_at(x), C2.j_at(x), d_kit(x), e_kit(_add(x, bd.b)))
        for x in d_pos
    }
    k = {
        x: block(C1.k_at(x), C2.k_at(x), e_kit(x), d_kit(_add(x, bd.c)))
        for x in e_pos
    }
    out = ExactCouple(bd, D, E, i, j, k, tails)
    out.validate()
    return out


def zero_couple(bidegrees: Bidegrees) -> ExactCouple:
    return ExactCouple(bidegrees, {}, {}, {}, {}, {}, {})


# ---------------------------------------------------------------------------
# demonstration couples
# ---------------------------------------------------------------------------


DEMO_BIDEGREES = Bidegrees((1, -1), (0, 0), (-1, 0))


def demo_couple(name: str) -> ExactCouple:
    """Three couples sharing the same one-point limit page.

    All three have a single E-object Z/6 at the origin and a first-quadrant
    spectral sequence collapsing on page 1, yet their abutments differ:
    ``couple1`` matches its colimit abutment, ``couple3`` its limit
    abutment, and ``couple2`` is a proper extension Z/2 -> Z/6 -> Z/3.
    """
    Z6 = FPAbGroup(0, (6,))
    Z2 = FPAbGroup(0, (2,))
    Z3 = FPAbGroup(0, (3,))
    bd = DEMO_BIDEGREES
    if name == "couple1":
        return ExactCouple(
            bd,
            {(0, 0): Z6},
            {(0, 0): Z6},
            {},
            {(0, 0): Hom.identity(Z6)},
            {},
            {0: (Tail.ZERO, Tail.CONSTANT)},
        )
    if name == "couple2":
        return ExactCouple(
            bd,
            {(0, 0): Z2, (-1, 0): Z3},
            {(0, 0): Z6},
            {},
            {(0, 0): Hom(Z2, Z6, [[3]])},
            {(0, 0): Hom(Z6, Z3, [[1]])},
            {0: (Tail.ZERO, Tail.CONSTANT), -1: (Tail.CONSTANT, Tail.ZERO)},
        )
    if name == "couple3":
        return ExactCouple(
            bd,
            {(-1, 0): Z6},
            {(0, 0): Z6},
            {},
            {},
            {(0, 0): Hom.identity(Z6)},
            {-1: (Tail.CONSTANT, Tail.ZERO)},
        )
    raise ValueError("unknown demo couple %r" % (name,))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _group_to_json(G: FPAbGroup):
    return {"rank": G.rank, "torsion": list(G.torsion)}


def _integer(v) -> int:
    """A JSON integer; floats and booleans are refused."""
    if type(v) is not int:
        raise ValueError("expected an integer, got %r" % (v,))
    return v


def _object(v) -> dict:
    """A JSON object; anything else is refused."""
    if not isinstance(v, dict):
        raise ValueError("expected an object, got %r" % (v,))
    return v


def _array(v) -> list:
    """A JSON array; anything else is refused."""
    if not isinstance(v, list):
        raise ValueError("expected an array, got %r" % (v,))
    return v


def _pair(v, item=_integer) -> tuple:
    """Exactly two entries ``[x, y]``, each read by ``item``."""
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise ValueError("expected a pair, got %r" % (v,))
    return (item(v[0]), item(v[1]))


def _group_from_json(d) -> FPAbGroup:
    """A group ``{"rank": r, "torsion": [...]}``; either key may be left out."""
    d = _object(d)
    return FPAbGroup(_integer(d.get("rank", 0)),
                     tuple(_integer(t) for t in _array(d.get("torsion", []))))


def _parse_pos(s) -> Position:
    """A position written ``"p,q"``."""
    p, q = s.split(",")
    return (int(p), int(q))


def _keyed(pairs) -> dict:
    """The dict of ``(key, value)`` pairs; a key given twice is refused."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError("expected one entry per position or diagonal, got two at %r"
                             % (key,))
        out[key] = value
    return out


def _homs_from_json(entries, src_at, tgt_at, delta: Position = (0, 0)) -> Dict[Position, Hom]:
    """Maps ``{"at": [p, q], "matrix": [...]}`` from ``src_at(x)`` to ``tgt_at(x + delta)``."""
    entries = _keyed((_pair(entry["at"]), entry) for entry in map(_object, _array(entries)))
    return {x: Hom(src_at(x), tgt_at(_add(x, delta)),
                   [[_integer(v) for v in _array(row)] for row in _array(entry["matrix"])])
            for x, entry in entries.items()}


def couple_to_json(C: ExactCouple) -> dict:
    def homs(table):
        return [
            {"at": list(x), "matrix": [list(row) for row in f.matrix]}
            for x, f in sorted(table.items())
        ]

    bd = C.bidegrees
    return {
        "bidegrees": {"a": list(bd.a), "b": list(bd.b), "c": list(bd.c)},
        "support": sorted([list(x) for x in C.D]),
        "D": {"%d,%d" % x: _group_to_json(G) for x, G in sorted(C.D.items())},
        "E": {"%d,%d" % x: _group_to_json(G) for x, G in sorted(C.E.items())},
        "i": homs(C.i),
        "j": homs(C.j),
        "k": homs(C.k),
        "diagonal_tails": {
            str(n): [t[0].value, t[1].value]
            for n, t in sorted(C.diagonal_tails.items())
        },
    }


def couple_from_json(data: dict) -> ExactCouple:
    """The couple of a ``couple_to_json`` dict.

    Groups, bidegrees and tail tables are objects, map lists and matrices
    arrays; positions and bidegrees are pairs of integers, group entries
    and matrix entries are integers, and each diagonal has a pair of tail
    names; anything else raises ``ValueError``, and so does a position or
    diagonal given twice.
    """
    data = _object(data)
    bd = Bidegrees(*(_pair(_object(data["bidegrees"])[key]) for key in "abc"))
    D, E = (_keyed((_parse_pos(s), _group_from_json(g))
                   for s, g in _object(data.get(key, {})).items())
            for key in "DE")
    tails = _keyed((int(n), _pair(t, Tail))
                   for n, t in _object(data.get("diagonal_tails", {})).items())
    stub = ExactCouple(bd, D, E, {}, {}, {}, tails)
    i = _homs_from_json(data.get("i", []), stub.D_at, stub.D_at, bd.a)
    j = _homs_from_json(data.get("j", []), stub.D_at, stub.E_at, bd.b)
    k = _homs_from_json(data.get("k", []), stub.E_at, stub.D_at, bd.c)
    return ExactCouple(bd, D, E, i, j, k, tails)
