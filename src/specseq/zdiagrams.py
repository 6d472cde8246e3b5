"""Z-indexed diagrams of finitely generated abelian groups.

A ``ZDiagram`` stores a finite window of groups and connecting maps together
with a declared tail on each side (``ZERO`` or ``CONSTANT``).  Under these
tails every categorical construction of interest -- colimit, limit, lim^1,
image towers, filtrations -- reduces to a finite computation on the window
padded by one step, and lim^1 always vanishes (the truncated tower satisfies
the Mittag-Leffler condition by fiat).

The tail rule lives here and nowhere else: every value tied to one index
p -- the group, I^omega_p, the stable image, a (co)cone map, the kernel
diagram, the mono-condition, a morphism's component -- equals its value
at ``padded_index(p)``, which clamps p into the padded window
[p0-1, p1+1], and the composite A_p -> A_q equals the one between the
clamped indices.

The lemmas about these constructions are checks, not flags: ``filtrations``
requires that its filtrations are exhaustive and complete and that the
four-term sequence through ``R: lim -> colim`` is exact, ``kernel_diagram``
that lim K^p = F^p and lim I_p = I^omega_p, and ``six_term_check`` that the
limit and colimit sequences are exact.  Each raises ``TheoremViolation``
through ``zlinalg.require`` when it fails.  The image towers are the I
chain, I^1, I^2, ... up to its first repeat, I^omega.

Towers that genuinely need lim^1 (the doubling tower with uncountable lim^1,
colimits like Z[1/2]) are deliberately not representable here: soundness of
the exact computations takes priority over generality.

The comparison rules are data: ``ZCOMPARE_RULES`` here and
``excouple.COMPARE_RULES`` map each rule name to its hypothesis clauses, its
conclusion and the exact check of that conclusion.  ``apply_rule`` is the one
engine that runs either table: it records each clause in the verdict, stops
at the first false one with ``HypothesisFailed``, and checks the conclusion
with ``zlinalg.require``, which raises ``TheoremViolation``.  Like every
theorem check of the package, it also runs under ``python -O``.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import Dict

from .spectral import NotAMorphism
from .zlinalg import (
    CheckFailure,
    ContainmentViolation,
    FPAbGroup,
    Hom,
    Subgroup,
    ValidationFailure,
    columns_of,
    group_from_presentation,
    hom_on_generators,
    induced_map,
    require,
    subquotient,
)


class NotExact(ValidationFailure):
    """A sequence required to be exact is not; carries a position witness."""


class BudgetExceeded(CheckFailure):
    """A stabilization search ran past its budget."""


class HypothesisFailed(CheckFailure):
    """A comparison rule's hypotheses do not hold; carries the failing clause."""


class Tail(enum.Enum):
    ZERO = "zero"
    CONSTANT = "constant"


def stabilization_budget(width: int) -> int:
    """How many stages a stabilization search on a window of this width runs.

    Under the supported tails every chain settles inside the padded window,
    so running past this bound means a bug, reported as ``BudgetExceeded``.
    """
    return 2 * width + 4


_TRIVIAL = FPAbGroup()


@dataclass(frozen=True)
class ZDiagram:
    """A diagram ... -> A_p -> A_{p+1} -> ... with finite window and tails.

    Derived data -- composites, colimit, limit and lim^1, stable image,
    image towers, filtrations -- is computed once per instance and kept in
    ``_memo``, which takes no part in equality, hashing or ``repr``.  The
    returned objects are shared between all callers: do not mutate them.
    """

    window: tuple  # (p0, p1)
    groups: tuple  # groups[p - p0] is the group at index p
    maps: tuple  # maps[p - p0]: A_p -> A_{p+1}, length p1 - p0
    left_tail: Tail = Tail.ZERO
    right_tail: Tail = Tail.CONSTANT
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        p0, p1 = self.window
        if p1 < p0:
            raise ValueError("empty window")
        if len(self.groups) != p1 - p0 + 1 or len(self.maps) != p1 - p0:
            raise ValueError("window does not match groups/maps")
        for p in range(p0, p1):
            f = self.maps[p - p0]
            if f.domain != self.groups[p - p0] or f.codomain != self.groups[p - p0 + 1]:
                raise ValueError("structure map endpoints disagree at index %d" % p)

    # -- window bookkeeping --------------------------------------------------

    @property
    def p0(self) -> int:
        return self.window[0]

    @property
    def p1(self) -> int:
        return self.window[1]

    @property
    def width(self) -> int:
        return self.p1 - self.p0

    def padded_range(self):
        """Indices [p0-1, p1+1]; every computation lives inside this range."""
        return range(self.p0 - 1, self.p1 + 2)

    def padded_index(self, p: int) -> int:
        """p clamped into [p0-1, p1+1], where the tails have the same values."""
        return min(max(p, self.p0 - 1), self.p1 + 1)

    def group_at(self, p: int) -> FPAbGroup:
        if p < self.p0:
            return self.groups[0] if self.left_tail is Tail.CONSTANT else _TRIVIAL
        if p > self.p1:
            return self.groups[-1] if self.right_tail is Tail.CONSTANT else _TRIVIAL
        return self.groups[p - self.p0]

    def map_at(self, p: int) -> Hom:
        """The structure map A_p -> A_{p+1}, extended by the declared tails.

        A tail map is built once and kept in ``_memo``.  Its key clamps p
        into [p0-2, p1+1], not the padded window: under a ZERO left tail the
        map at p0-1 is 0 -> A_{p0}, while every map before it is 0 -> 0.
        """
        if self.p0 <= p < self.p1:
            return self.maps[p - self.p0]
        key = ("map_at", min(max(p, self.p0 - 2), self.p1 + 1))
        f = self._memo.get(key)
        if f is None:
            src, dst = self.group_at(p), self.group_at(p + 1)
            tail = self.left_tail if p < self.p0 else self.right_tail
            f = Hom.identity(src) if tail is Tail.CONSTANT else Hom.zero_map(src, dst)
            self._memo[key] = f
        return f

    def composite(self, p: int, q: int) -> Hom:
        """The composite A_p -> A_q for p <= q (identity when p == q).

        It is read between the clamped indices.  The composites out of A_p
        are kept as one chain per p; a call extends the chain by one
        ``compose`` per missing step, so chains stay in the padded window.
        """
        if q < p:
            raise ValueError("composite runs forward only")
        p, q = self.padded_index(p), self.padded_index(q)
        chain = self._memo.get(("composite", p))
        if chain is None:
            chain = self._memo[("composite", p)] = [Hom.identity(self.group_at(p))]
        while len(chain) <= q - p:
            chain.append(self.map_at(p + len(chain) - 1).compose(chain[-1]))
        return chain[q - p]

    def pad_to(self, p0: int, p1: int) -> "ZDiagram":
        """The same diagram presented on a larger window."""
        if p0 > self.p0 or p1 < self.p1:
            raise ValueError("pad_to cannot shrink the window")
        groups = tuple(self.group_at(p) for p in range(p0, p1 + 1))
        maps = tuple(self.map_at(p) for p in range(p0, p1))
        return ZDiagram((p0, p1), groups, maps, self.left_tail, self.right_tail)

    @staticmethod
    def constant(G: FPAbGroup, at: int = 0) -> "ZDiagram":
        return ZDiagram((at, at), (G,), (), Tail.CONSTANT, Tail.CONSTANT)

    @staticmethod
    def from_maps(p0, maps, left_tail=Tail.ZERO, right_tail=Tail.CONSTANT) -> "ZDiagram":
        """Diagram from a list of consecutive maps starting at index p0."""
        maps = tuple(maps)
        groups = tuple([f.domain for f in maps] + [maps[-1].codomain])
        return ZDiagram((p0, p0 + len(maps)), groups, maps, left_tail, right_tail)


@dataclass(frozen=True)
class ZDiagramMorphism:
    """A natural transformation between two ZDiagrams on a common window.

    A component or naturality square that fails raises ``NotAMorphism``.
    """

    source: ZDiagram
    target: ZDiagram
    components: tuple  # Hom f_p per index of the common padded window

    def __post_init__(self):
        if self.source.window != self.target.window:
            raise ValueError("align the windows with pad_to before building a morphism")
        A, B = self.source, self.target
        if len(self.components) != len(A.padded_range()):
            raise ValueError("one component per padded index expected")
        for p in A.padded_range():
            f = self.component(p)
            if f.domain != A.group_at(p) or f.codomain != B.group_at(p):
                raise NotAMorphism(("component endpoints", p))
        for p in range(A.p0 - 1, A.p1 + 1):
            lhs = self.component(p + 1).compose(A.map_at(p))
            rhs = B.map_at(p).compose(self.component(p))
            if lhs != rhs:
                raise NotAMorphism(("naturality square", p))

    def component(self, p: int) -> Hom:
        """f_p, read at ``padded_index(p)``."""
        return self.components[self.source.padded_index(p) - (self.source.p0 - 1)]

    @staticmethod
    def on_window(source: ZDiagram, target: ZDiagram, comps: Dict[int, Hom]) -> "ZDiagramMorphism":
        """Build a morphism from per-index components on the common window.

        The common window runs from the smaller p0 to the larger p1.  A
        missing component is zero inside it; past it, it is the component
        at the nearest window end if that one's endpoints fit, else zero.  A
        component given outside the padded window must equal the one at
        ``padded_index``, else ``NotAMorphism``.
        """
        p0 = min(source.p0, target.p0)
        p1 = max(source.p1, target.p1)
        A, B = source.pad_to(p0, p1), target.pad_to(p0, p1)
        full = []
        for p in A.padded_range():
            f = comps.get(p)
            if f is None:
                src, dst = A.group_at(p), B.group_at(p)
                end = None if p0 <= p <= p1 else comps.get(p0 if p < p0 else p1)
                fits = end is not None and (end.domain, end.codomain) == (src, dst)
                f = end if fits else Hom.zero_map(src, dst)
            full.append(f)
        out = ZDiagramMorphism(A, B, tuple(full))
        for p, f in comps.items():
            if f != out.component(p):
                raise NotAMorphism(("component outside the padded window", p))
        return out

    @staticmethod
    def identity(A: ZDiagram) -> "ZDiagramMorphism":
        return ZDiagramMorphism(
            A, A, tuple(Hom.identity(A.group_at(p)) for p in A.padded_range())
        )


# ---------------------------------------------------------------------------
# colimit / limit / lim^1
# ---------------------------------------------------------------------------


def _per_diagram(fn):
    """Evaluate ``fn(A, *args)`` once per diagram instance and argument tuple."""

    @functools.wraps(fn)
    def memoized(A: ZDiagram, *args):
        key = (fn.__name__,) + args
        if key not in A._memo:
            A._memo[key] = fn(A, *args)
        return A._memo[key]

    return memoized


@_per_diagram
def colimit(A: ZDiagram):
    """Colimit with its cocone.

    The right tail makes the padded window final: the colimit is realized at
    index ``p1 + 1`` (the boundary group for a constant tail, the trivial
    group for a zero tail), with cocone maps the forward composites.
    """
    top = A.p1 + 1
    G = A.group_at(top)
    cocone = {p: A.composite(p, top) for p in A.padded_range()}
    return G, cocone


@_per_diagram
def limit_and_lim1(A: ZDiagram):
    """Limit, cone, and lim^1 (always trivial under the supported tails).

    The limit is taken over the initial segment, which the left tail makes
    effectively constant below ``p0 - 1``.  lim^1 is the cokernel of the
    difference map ``d`` on the padded window.  There ``d`` is unitriangular
    (its block from ``A_p`` to ``A_p`` is the identity), so lim^1 = 0: a
    tower that is eventually constant is Mittag-Leffler.  The check that it
    is trivial still runs the presentation code on every diagram.
    """
    bot = A.p0 - 1
    L = A.group_at(bot)
    cone = {p: A.composite(bot, p) for p in A.padded_range()}
    lim1 = _lim1_by_difference_map(A)
    require(lim1.is_trivial(), "lim^1 must vanish under the supported tails", A.p0, A.p1)
    return L, cone, lim1


def _difference_columns(A: ZDiagram):
    """The columns of d(x)_p = x_p - a_{p-1}(x_{p-1}) over the padded window.

    The targets ``A_p``, ``p`` in the padded window but its first index, are
    concatenated into ``Z^n``.  Generator ``g`` of each source ``A_p`` gives
    one column: ``+e_g`` in block ``p`` when ``p`` is a target, and
    ``-a_p(e_g)`` in block ``p + 1`` when ``p + 1`` is a target.

    Returns ``(n, offsets, columns)``: ``offsets[p]`` is where block ``p``
    starts, and ``columns`` lists the sources in window order.
    """
    idx = list(A.padded_range())
    offsets = {}
    n = 0
    for p in idx[1:]:
        offsets[p] = n
        n += A.group_at(p).ngens
    columns = []
    for p in idx:
        a = A.map_at(p).matrix if p + 1 in offsets else ()
        for g in range(A.group_at(p).ngens):
            col = [0] * n
            if p in offsets:
                col[offsets[p] + g] = 1
            for i, row in enumerate(a):
                col[offsets[p + 1] + i] = -row[g]
            columns.append(tuple(col))
    return n, offsets, columns


def _lim1_by_difference_map(A: ZDiagram) -> FPAbGroup:
    """Cokernel of ``d``, canonicalized from one presentation of ``Z^n``.

    The relation columns written are the columns of ``d`` (one per source
    generator, see ``_difference_columns``) and each target's
    ``relation_columns``, placed at the target's block offset.
    """
    n, offsets, rel = _difference_columns(A)
    for p, base in offsets.items():
        G = A.group_at(p)
        pad = n - base - G.ngens
        rel.extend((0,) * base + col + (0,) * pad for col in G.relation_columns())
    return group_from_presentation(n, rel)[0]


def colimit_map(f: ZDiagramMorphism) -> Hom:
    """The induced map colim(source) -> colim(target)."""
    return f.component(f.source.p1 + 1)


def limit_map(f: ZDiagramMorphism) -> Hom:
    """The induced map lim(source) -> lim(target)."""
    return f.component(f.source.p0 - 1)


def six_term_check(f: ZDiagramMorphism, g: ZDiagramMorphism) -> None:
    """Check a componentwise SES of diagrams and its limit/colimit sequences.

    ``f: A -> B`` and ``g: B -> C`` must form a short exact sequence at every
    padded index (kernel/image equality as canonical subgroups, not mere
    isomorphism).  Then the six-term sequence
    0 -> lim A -> lim B -> lim C -> lim1 A -> lim1 B -> lim1 C -> 0, whose
    lim1 terms ``limit_and_lim1`` requires to vanish, and the colim sequence
    must be short exact; ``zlinalg.require`` checks both.

    Raises:
        NotExact: with a position witness if the input sequence is not SES.
        TheoremViolation: if a limit or colimit sequence is not exact.
    """
    if f.target is not g.source and f.target != g.source:
        raise ValueError("morphisms do not compose")
    for p in f.source.padded_range():
        fp, gp = f.component(p), g.component(p)
        if not fp.is_mono():
            raise NotExact(("mono fails", p))
        if not gp.is_epi():
            raise NotExact(("epi fails", p))
        if fp.image() != gp.kernel():
            raise NotExact(("middle exactness fails", p))
    for A in (f.source, f.target, g.target):
        limit_and_lim1(A)  # checks that the three lim^1 terms vanish
    lf, lg = limit_map(f), limit_map(g)
    require(lf.is_mono() and lf.image() == lg.kernel(), "lim sequence is not left exact")
    require(lg.is_epi(), "lim sequence is not right exact")
    cf, cg = colimit_map(f), colimit_map(g)
    require(cf.is_mono() and cg.is_epi() and cf.image() == cg.kernel(),
            "colim sequence is not short exact")


# ---------------------------------------------------------------------------
# image towers
# ---------------------------------------------------------------------------


def I_tower(A: ZDiagram, r: int) -> dict:
    """I^r_p = image(A_{p-r} -> A_p) as a subgroup of A_p, per padded index."""
    return {p: A.composite(p - r, p).image() for p in A.padded_range()}


@_per_diagram
def image_towers(A: ZDiagram) -> list:
    """The towers I^r for r = 1, 2, ... up to the first r with I^{r+1} == I^r.

    Each tower is built once the one before it is known to change, and the
    last one is I^omega.  The list is memoized on ``A`` and shared between
    callers: do not mutate it.

    Raises:
        BudgetExceeded: if no repeat occurs by r + 1 =
            ``stabilization_budget(A.width)`` (impossible for the supported
            tails, so this can only signal a bug).
    """
    budget = stabilization_budget(A.width)
    chain = [I_tower(A, 1)]
    for r in range(2, budget + 1):
        nxt = I_tower(A, r)
        if nxt == chain[-1]:
            return chain
        chain.append(nxt)
    raise BudgetExceeded(budget)


def I_omega(A: ZDiagram) -> dict:
    return image_towers(A)[-1]


@_per_diagram
def stable_image(A: ZDiagram) -> dict:
    """The stable image: Ibar_p = image(rho_p: lim A -> A_p), per padded index."""
    _, cone, _ = limit_and_lim1(A)
    return {p: cone[p].image() for p in A.padded_range()}


def ml_conditions(A: ZDiagram) -> dict:
    """Mittag-Leffler style conditions, decided by stabilization.

    ``mittag_leffler`` -- the descending chains I^r_p stabilize positionwise;
    ``omega_ml`` -- one more application of I to the stable subdiagram
    I^omega changes nothing.  The I chain always stabilizes under the
    supported tails; ``image_towers`` raises ``BudgetExceeded`` otherwise.
    """
    iw = I_omega(A)
    # Apply I once more to the I^omega subdiagram: the image of I^omega_{p-1}
    # under a_{p-1} inside A_p, compared against I^omega_p.
    omega_ml = all(A.map_at(p - 1).image_of_subgroup(iw[p - 1]) == iw[p]
                   for p in range(A.p0, A.p1 + 2))
    return {"mittag_leffler": True, "omega_ml": omega_ml}


# ---------------------------------------------------------------------------
# filtrations
# ---------------------------------------------------------------------------


@_per_diagram
def filtrations(A: ZDiagram) -> dict:
    """Image filtration of the colimit and kernel filtration of the limit.

    Returns ``F`` (F_p = image(pi_p), increasing), ``F_upper``
    (F^p = kernel(rho_p), increasing in p), the epsilon quotients
    ``eps[p] = F_p/F_{p-1}`` and ``eps_upper[p] = F^{p+1}/F^p``, the natural
    map ``R: lim -> colim``, and the groups ``colim`` and ``lim``.  It
    requires, through ``zlinalg.require``, that

    * F is exhaustive: F at the top padded index is everything;
    * F^ is complete: lim F^ = 0 = lim1 F^;
    * colim F^ >-> lim A -R-> colim A ->> colim coker(rho) is exact, with
      image(R) = colim(Ibar).

    The result is memoized on ``A`` and shared between callers: do not
    mutate it or the dicts inside it.
    """
    C, cocone = colimit(A)
    L, cone, _ = limit_and_lim1(A)
    idx = list(A.padded_range())
    F = {p: cocone[p].image() for p in idx}
    Fu = {p: cone[p].kernel() for p in idx}
    eps = {}
    eps_u = {}
    for p in idx[1:]:
        eps[p] = subquotient(F[p], F[p - 1])
    for p in idx[:-1]:
        eps_u[p] = subquotient(Fu[p + 1], Fu[p])
    R = cocone[idx[0]].compose(cone[idx[0]])
    # The kernel filtration F^p is increasing and stabilizes at the top pad;
    # its union ("colim F^") is the top subgroup, and its limit is the bottom
    # one (which is 0: rho at the bottom pad is the identity).
    require(F[idx[-1]] == Subgroup.full(C), "image filtration must exhaust the colimit",
            A.p0, A.p1)
    require(Fu[idx[0]].is_zero(), "kernel filtration must be complete", A.p0, A.p1)
    require(R.kernel() == Fu[idx[-1]], "ker R must be the union of the kernel filtration",
            A.p0, A.p1)
    # colim Ibar, realized at the top pad
    require(R.image() == stable_image(A)[idx[-1]],
            "im R must be the colimit of the stable image", A.p0, A.p1)
    return {
        "F": F,
        "F_upper": Fu,
        "eps": eps,
        "eps_upper": eps_u,
        "R": R,
        "colim": C,
        "lim": L,
    }


def F_p_as_colimit_of_images(A: ZDiagram, p: int) -> Subgroup:
    """F_p computed the long way: the union over r of pi_{p+r}(Im(A_p -> A_{p+r})).

    Used as an independent cross-check of ``image(pi_p)``; the two must agree
    as canonical subgroups of the colimit.
    """
    C, cocone = colimit(A)
    total = Subgroup.zero(C)
    for q in range(max(p, A.p0 - 1), A.p1 + 2):
        img = A.composite(p, q).image()
        total = total.sum(cocone[q].image_of_subgroup(img))
    return total


# ---------------------------------------------------------------------------
# kernel diagrams
# ---------------------------------------------------------------------------


@_per_diagram
def kernel_diagram(A: ZDiagram, p: int):
    """The diagram K^p with (K^p)_{p-r} = Ker(A_{p-r} -> A_p), r >= 0.

    p is read at ``padded_index(p)``.  Returns ``(K, inclusion)``: ``K`` is
    a ZDiagram on the window [p0-1, p] with zero right tail (the kernel
    vanishes at p and beyond), and ``inclusion`` maps each kernel into A.
    The lemma's identifications lim K^p = F^p and lim I_p = I^omega_p are
    checked with ``zlinalg.require``.  The result is memoized on ``A`` and
    shared by every p with the same padded index.
    """
    if p != A.padded_index(p):
        return kernel_diagram(A, A.padded_index(p))
    lo = A.p0 - 1
    subs = {q: A.composite(q, p).kernel() for q in range(lo, p + 1)}
    pieces = {q: subs[q].as_group() for q in range(lo, p + 1)}
    K = ZDiagram(
        (lo, p),
        tuple(pieces[q][0] for q in range(lo, p + 1)),
        tuple(A.map_at(q).restrict(subs[q], subs[q + 1]) for q in range(lo, p)),
        A.left_tail,
        Tail.ZERO,
    )
    inclusion = {q: pieces[q][1] for q in range(lo, p + 1)}
    # lim K^p is realized at the bottom pad; under a constant left tail that
    # is the same subgroup of A_{lo} as F^p = Ker(rho_p), and under a zero
    # left tail both sides vanish.
    _, cone, _ = limit_and_lim1(A)
    require(subs[lo] == cone[p].kernel(), "lim K^p must be F^p", p)
    # lim I_p: the intersection of the increasing-in-q images Im(A_q -> A_p)
    # as q -> -infinity, which stabilizes at the bottom pad.
    require(A.composite(lo, p).image() == I_omega(A)[p], "lim I_p must be I^omega_p", p)
    return K, inclusion


def k_mono_condition(A: ZDiagram, p: int) -> dict:
    """The mono-condition at p: Ker a_p /\\ I^omega_p == Ker a_p /\\ Ibar_p.

    Equivalently (per the comparison lemmas) the induced map
    lim1 K^p -> lim1 K^{p+1} is injective; under the supported tails both
    lim1 terms vanish, but the subgroup equality itself is still meaningful
    and is evaluated exactly.  Sufficient conditions (a_p mono, omega-ML) are
    cross-checked: each one, when true, must force the condition.  Like
    every per-index value it is read at ``padded_index(p)``.  Returns
    ``holds`` and the two sufficient conditions.
    """
    p = A.padded_index(p)
    a = A.map_at(p)
    ker = a.kernel()
    iw = I_omega(A)[p]
    ibar = stable_image(A)[p]
    holds = ker.intersection(iw) == ker.intersection(ibar)
    a_mono = a.is_mono()
    omega_ml = ml_conditions(A)["omega_ml"]
    require(holds or not (a_mono or omega_ml),
            "sufficient condition held but the criterion failed", p)
    return {"holds": holds, "a_p_mono": a_mono, "omega_ml": omega_ml}


# ---------------------------------------------------------------------------
# image factorization diagrams
# ---------------------------------------------------------------------------


def q_factor_diagram(A: ZDiagram):
    """The image quotient diagram QA with QA_p = Im(a_p), and A -> QA.

    Both the epimorphism A -> QA and the inclusion IA -> A (see
    ``i_factor_diagram``) induce isomorphisms on colim, lim and lim^1; the
    tests check this on generated instances.
    """
    lo, hi = A.p0 - 1, A.p1
    subs = {p: A.map_at(p).image() for p in range(lo, hi + 1)}
    maps = tuple(
        A.map_at(p + 1).restrict(subs[p], subs[p + 1]) for p in range(lo, hi)
    )
    QA = ZDiagram(
        (lo, hi),
        tuple(subs[p].group() for p in range(lo, hi + 1)),
        maps,
        A.left_tail,
        A.right_tail,
    )
    comps = {}
    for p in range(lo, hi + 1):
        sq = subs[p].as_subquotient()
        images = [sq.project(v) for v in columns_of(A.map_at(p).matrix)]
        comps[p] = hom_on_generators(A.group_at(p), sq.group, images)
    return QA, ZDiagramMorphism.on_window(A, QA, comps)


def i_factor_diagram(A: ZDiagram):
    """The image subdiagram IA with IA_p = Im(a_{p-1}), and IA -> A."""
    lo, hi = A.p0, A.p1 + 1
    subs = {p: A.map_at(p - 1).image() for p in range(lo, hi + 1)}
    pieces = {p: subs[p].as_group() for p in range(lo, hi + 1)}
    maps = tuple(
        A.map_at(p).restrict(subs[p], subs[p + 1]) for p in range(lo, hi)
    )
    IA = ZDiagram(
        (lo, hi),
        tuple(pieces[p][0] for p in range(lo, hi + 1)),
        maps,
        A.left_tail,
        A.right_tail,
    )
    comps = {p: pieces[p][1] for p in range(lo, hi + 1)}
    return IA, ZDiagramMorphism.on_window(IA, A, comps)


# ---------------------------------------------------------------------------
# comparison rules
# ---------------------------------------------------------------------------


def apply_rule(rules: dict, rule: str, verdict: dict, make_facts) -> dict:
    """Run ``rules[rule] = (clauses, conclusion, check)`` and fill in ``verdict``.

    ``clauses`` are ``(name, holds)`` pairs.  ``holds`` and ``check`` read
    the object ``make_facts()`` returns, built once the rule is known to
    exist.  Each clause goes into ``verdict["hypotheses"]`` as ``(name, ok)``,
    and the first false one raises ``HypothesisFailed((rule, name,
    hypotheses))``.  A false conclusion raises ``TheoremViolation("conclusion
    fails", (rule, conclusion))``: then the rule or the library is wrong.  An
    unknown rule raises ``ValueError``.
    """
    if rule not in rules:
        raise ValueError("unknown rule %r" % (rule,))
    clauses, conclusion, check = rules[rule]
    facts = make_facts()
    hypotheses = verdict["hypotheses"]
    for name, holds in clauses:
        ok = holds(facts)
        hypotheses.append((name, ok))
        if not ok:
            raise HypothesisFailed((rule, name, hypotheses))
    verdict["conclusion"] = conclusion
    require(check(facts), "conclusion fails", rule, conclusion)
    verdict["ok"] = True
    return verdict


def kernels_satisfy_dcc(A: ZDiagram) -> bool:
    """DCC on the kernels of A's structure maps, by the sufficient condition
    that every kernel is finite."""
    return all(
        A.map_at(p).kernel().as_group()[0].order() is not None
        for p in range(A.p0 - 1, A.p1 + 1)
    )


class _MorphismFacts:
    """What the ``ZCOMPARE_RULES`` read about ``f: A -> B``; the induced maps
    beyond colim and lim are computed when a clause first reads them."""

    def __init__(self, f: ZDiagramMorphism):
        self.A, self.B = f.source, f.target
        self.fA, self.fB = filtrations(self.A), filtrations(self.B)
        self.cmap, self.lmap = colimit_map(f), limit_map(f)

    def _on_quotients(self, key: str, comp: Hom) -> list:
        return [induced_map(comp, sq, self.fB[key][p]) for p, sq in self.fA[key].items()]

    @functools.cached_property
    def eps(self) -> list:
        return self._on_quotients("eps", self.cmap)

    @functools.cached_property
    def eps_upper(self) -> list:
        return self._on_quotients("eps_upper", self.lmap)

    @functools.cached_property
    def lim_F_map(self) -> Hom:
        # the F-towers increase, so their limit is the bottom padded stage
        bot = self.A.p0 - 1
        return self.cmap.restrict(self.fA["F"][bot], self.fB["F"][bot])

    @functools.cached_property
    def im_R_map(self) -> Hom:
        return self.cmap.restrict(self.fA["R"].image(), self.fB["R"].image())


def _mono_lim_auxiliary(F: _MorphismFacts) -> bool:
    # any one of the auxiliary clauses suffices
    try:
        im_R_mono = F.im_R_map.is_mono()
    except ContainmentViolation:
        im_R_mono = False
    return (
        im_R_mono
        or any(F.cmap.restrict(F.fA["F"][p], F.fB["F"][p]).is_mono() for p in F.fA["F"])
        or F.fA["F"][F.A.p0 - 1].is_zero()  # lim of the image filtration is 0
        or F.fA["colim"].is_trivial()
        or F.A.right_tail is Tail.ZERO  # eventually vanishing
    )


def _iso_lim_auxiliary(F: _MorphismFacts) -> bool:
    A, B = F.A, F.B
    return (
        (F.fA["R"].is_zero() and F.fB["R"].is_zero())
        or (F.fA["F"][A.p0 - 1].is_zero() and F.fB["F"][B.p0 - 1].is_zero())
        or (F.fA["colim"].is_trivial() and F.fB["colim"].is_trivial())
        or (A.right_tail is Tail.ZERO and B.right_tail is Tail.ZERO)
    )


def _colim_F_upper_map_epi(F: _MorphismFacts) -> bool:
    # the lim1 obstruction vanishes under the supported tails, so the limit
    # map is epi on the colimit of the kernel filtration
    top = F.A.p1 + 1
    return F.lmap.restrict(F.fA["F_upper"][top], F.fB["F_upper"][top]).is_epi()


_EPS_ISO = ("eps_p all iso", lambda F: all(m.is_iso() for m in F.eps))
_LIM_F_EPI = ("lim F map epi", lambda F: F.lim_F_map.is_epi())
# lim1 of the F-towers vanishes under the supported tails
_LIM1_F_ZERO = ("lim1 F tower zero", lambda F: True)
_EPS_UPPER_ISO = ("eps^p all iso", lambda F: all(m.is_iso() for m in F.eps_upper))

ZCOMPARE_RULES = {
    "mono-colim": (
        (("eps_p all mono", lambda F: all(m.is_mono() for m in F.eps)),
         ("lim F map mono", lambda F: F.lim_F_map.is_mono())),
        "colim map mono", lambda F: F.cmap.is_mono()),
    "epi-colim": (
        (_EPS_ISO, _LIM_F_EPI, _LIM1_F_ZERO),
        "colim map epi", lambda F: F.cmap.is_epi()),
    "iso-colim": (
        (_EPS_ISO, _LIM_F_EPI, _LIM1_F_ZERO,
         ("lim F map iso", lambda F: F.lim_F_map.is_iso())),
        "colim map iso", lambda F: F.cmap.is_iso()),
    "mono-lim": (
        (("eps^p all mono", lambda F: all(m.is_mono() for m in F.eps_upper)),
         ("auxiliary clause (Im R mono / F_p mono / lim F = 0 / colim = 0 / eventually"
          " vanishing)", _mono_lim_auxiliary)),
        "lim map mono", lambda F: F.lmap.is_mono()),
    "iso-lim-1": (
        (_EPS_UPPER_ISO, ("Im R map iso", lambda F: F.im_R_map.is_iso())),
        "lim map iso", lambda F: F.lmap.is_iso()),
    "iso-lim-2": (
        (_EPS_UPPER_ISO,
         ("auxiliary clause (R = 0 / lim F = 0 / colims trivial / eventually vanishing)",
          _iso_lim_auxiliary)),
        "lim map iso", lambda F: F.lmap.is_iso()),
    "epi-lim": (
        (("eps^p all epi", lambda F: all(m.is_epi() for m in F.eps_upper)),
         ("kernels of structure maps satisfy DCC", lambda F: kernels_satisfy_dcc(F.A))),
        "map on colim F^ epi (lim map epi here)", _colim_F_upper_map_epi),
}


def zcompare(f: ZDiagramMorphism, rule: str) -> dict:
    """Apply one of the appendix comparison rules to a diagram morphism.

    Checks the rule's hypotheses exactly; if they hold, checks the rule's
    conclusion on the induced colimit or limit map and returns the verdict.
    A failing hypothesis raises ``HypothesisFailed`` (a diagnostic, not a
    bug).  The rules are the keys of ``ZCOMPARE_RULES``.
    """
    return apply_rule(ZCOMPARE_RULES, rule, {"rule": rule, "hypotheses": []},
                      lambda: _MorphismFacts(f))
