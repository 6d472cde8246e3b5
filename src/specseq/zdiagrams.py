"""Z-indexed diagrams of finitely generated abelian groups.

A ``ZDiagram`` stores a finite window of groups and connecting maps together
with a declared tail on each side (``ZERO`` or ``CONSTANT``).  Under these
tails every categorical construction of interest -- colimit, limit, lim^1,
image towers, filtrations -- reduces to a finite computation on the window
padded by one step, and lim^1 always vanishes (the truncated tower satisfies
the Mittag-Leffler condition by fiat).

Towers that genuinely need lim^1 (the doubling tower with uncountable lim^1,
colimits like Z[1/2]) are deliberately not representable here: soundness of
the exact computations takes priority over generality.
"""

from __future__ import annotations

import enum
import functools
import os
from dataclasses import dataclass, field
from typing import Dict, Optional

from .zlinalg import (
    ContainmentViolation,
    FPAbGroup,
    Hom,
    NotWellDefined,
    Subgroup,
    SubquotientData,
    cokernel,
    direct_sum,
    matrix_from_columns,
    subquotient,
    unit_vector,
)


class NotExact(Exception):
    """A sequence required to be exact is not; carries a position witness."""


class BudgetExceeded(Exception):
    """A stabilization search ran past its budget."""


class HypothesisFailed(Exception):
    """A comparison rule's hypotheses do not hold; carries the failing clause."""


class Tail(enum.Enum):
    ZERO = "zero"
    CONSTANT = "constant"


DEFAULT_BUDGET_ENV = "SPECSEQ_BUDGET"


def default_budget(width: int) -> int:
    env = os.environ.get(DEFAULT_BUDGET_ENV)
    if env is not None:
        return int(env)
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

    def group_at(self, p: int) -> FPAbGroup:
        if p < self.p0:
            return self.groups[0] if self.left_tail is Tail.CONSTANT else _TRIVIAL
        if p > self.p1:
            return self.groups[-1] if self.right_tail is Tail.CONSTANT else _TRIVIAL
        return self.groups[p - self.p0]

    def map_at(self, p: int) -> Hom:
        """The structure map A_p -> A_{p+1}, extended by the declared tails."""
        src, dst = self.group_at(p), self.group_at(p + 1)
        if self.p0 <= p < self.p1:
            return self.maps[p - self.p0]
        if p < self.p0:
            if self.left_tail is Tail.CONSTANT:
                return Hom.identity(src)
            return Hom.zero_map(src, dst)
        # p >= p1
        if self.right_tail is Tail.CONSTANT:
            return Hom.identity(src)
        return Hom.zero_map(src, dst)

    def composite(self, p: int, q: int) -> Hom:
        """The composite A_p -> A_q for p <= q (identity when p == q).

        The composites out of A_p are kept as one chain per p; a call
        extends the chain by one ``compose`` per missing step.
        """
        if q < p:
            raise ValueError("composite runs forward only")
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
    """A natural transformation between two ZDiagrams on a common window."""

    source: ZDiagram
    target: ZDiagram
    components: tuple  # Hom f_p per index of the common padded window

    def __post_init__(self):
        if self.source.window != self.target.window:
            raise ValueError("align the windows with pad_to before building a morphism")
        A, B = self.source, self.target
        if len(self.components) != len(list(A.padded_range())):
            raise ValueError("one component per padded index expected")
        for p in A.padded_range():
            f = self.component(p)
            if f.domain != A.group_at(p) or f.codomain != B.group_at(p):
                raise ValueError("component endpoints disagree at index %d" % p)
        for p in range(A.p0 - 1, A.p1 + 1):
            lhs = self.component(p + 1).compose(A.map_at(p))
            rhs = B.map_at(p).compose(self.component(p))
            if lhs != rhs:
                raise ValueError("naturality square fails at index %d" % p)

    def component(self, p: int) -> Hom:
        return self.components[p - (self.source.p0 - 1)]

    @staticmethod
    def on_window(source: ZDiagram, target: ZDiagram, comps: Dict[int, Hom]) -> "ZDiagramMorphism":
        """Build a morphism from per-index components, filling tail positions.

        Missing components at padded positions are inferred from the tails
        (zero maps into/out of trivial groups, boundary components for
        constant tails).
        """
        p0 = min(source.p0, target.p0)
        p1 = max(source.p1, target.p1)
        A, B = source.pad_to(p0, p1), target.pad_to(p0, p1)
        full = []
        for p in A.padded_range():
            if p in comps:
                full.append(comps[p])
                continue
            src, dst = A.group_at(p), B.group_at(p)
            boundary = comps.get(p0 if p < p0 else p1)
            if boundary is not None and boundary.domain == src and boundary.codomain == dst:
                full.append(boundary)
            else:
                full.append(Hom.zero_map(src, dst))
        return ZDiagramMorphism(A, B, tuple(full))

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
    effectively constant below ``p0 - 1``.  lim^1 is nonetheless computed
    honestly as the cokernel of the standard difference map on the padded
    window, and asserted trivial.
    """
    bot = A.p0 - 1
    L = A.group_at(bot)
    cone = {p: A.composite(bot, p) for p in A.padded_range()}
    lim1 = _lim1_by_difference_map(A)
    assert lim1.is_trivial(), "lim^1 must vanish under the supported tails"
    return L, cone, lim1


def _lim1_by_difference_map(A: ZDiagram) -> FPAbGroup:
    """Cokernel of d(x)_p = x_p - a_{p-1}(x_{p-1}) over the padded window."""
    idx = list(A.padded_range())
    src_groups = [A.group_at(p) for p in idx]
    tgt_idx = idx[1:]
    S, _, s_projs = direct_sum(src_groups)
    T, t_incs, _ = direct_sum([A.group_at(p) for p in tgt_idx])
    d = Hom.zero_map(S, T)
    for pos, p in enumerate(tgt_idx):
        inc = t_incs[pos]
        d = d.add(inc.compose(s_projs[pos + 1]))
        d = d.add(inc.compose(A.map_at(p - 1).compose(s_projs[pos])).negate())
    Q, _ = cokernel(d)
    return Q


def colimit_map(f: ZDiagramMorphism) -> Hom:
    """The induced map colim(source) -> colim(target)."""
    return f.component(f.source.p1 + 1)


def limit_map(f: ZDiagramMorphism) -> Hom:
    """The induced map lim(source) -> lim(target)."""
    return f.component(f.source.p0 - 1)


def six_term_check(f: ZDiagramMorphism, g: ZDiagramMorphism) -> dict:
    """Check a componentwise SES of diagrams and its limit/colimit sequences.

    ``f: A -> B`` and ``g: B -> C`` must form a short exact sequence at every
    padded index (kernel/image equality as canonical subgroups, not mere
    isomorphism).  Returns a report asserting the six-term sequence
    0 -> lim A -> lim B -> lim C -> lim1 A -> lim1 B -> lim1 C -> 0, whose
    lim1 terms all vanish here, and short exactness of the colim sequence.

    Raises:
        NotExact: with a position witness if the input sequence is not SES.
    """
    if f.target is not g.source and f.target != g.source:
        raise ValueError("morphisms do not compose")
    A, B, C = f.source, f.target, g.target
    for p in A.padded_range():
        fp, gp = f.component(p), g.component(p)
        if not fp.is_mono():
            raise NotExact(("mono fails", p))
        if not gp.is_epi():
            raise NotExact(("epi fails", p))
        if fp.image() != gp.kernel():
            raise NotExact(("middle exactness fails", p))
    limA, _, l1A = limit_and_lim1(A)
    limB, _, l1B = limit_and_lim1(B)
    limC, _, l1C = limit_and_lim1(C)
    lf, lg = limit_map(f), limit_map(g)
    report = {
        "lim_left_exact": lf.is_mono() and lf.image() == lg.kernel(),
        "lim_right_exact": lg.is_epi(),
        "lim1_terms": (l1A, l1B, l1C),
        "lim1_all_zero": l1A.is_trivial() and l1B.is_trivial() and l1C.is_trivial(),
    }
    cf, cg = colimit_map(f), colimit_map(g)
    report["colim_exact"] = (
        cf.is_mono() and cg.is_epi() and cf.image() == cg.kernel()
    )
    report["ok"] = all(
        report[k] for k in ("lim_left_exact", "lim_right_exact", "lim1_all_zero", "colim_exact")
    )
    return report


# ---------------------------------------------------------------------------
# image towers
# ---------------------------------------------------------------------------


def I_tower(A: ZDiagram, r: int) -> dict:
    """I^r_p = image(A_{p-r} -> A_p) as a subgroup of A_p, per padded index."""
    return {p: A.composite(p - r, p).image() for p in A.padded_range()}


def Q_tower(A: ZDiagram, r: int) -> dict:
    """Q^r_p = image(A_p -> A_{p+r}) as a subgroup of A_{p+r}, per padded index."""
    return {p: A.composite(p, p + r).image() for p in A.padded_range()}


def _chain_until_repeat(A: ZDiagram, tower, budget: int) -> list:
    """Towers r = 1, 2, ... up to the first r with tower(r + 1) == tower(r).

    Raises ``BudgetExceeded`` when no repeat occurs by r + 1 = budget.
    """
    chain = [tower(A, 1)]
    for r in range(2, budget + 1):
        nxt = tower(A, r)
        if nxt == chain[-1]:
            return chain
        chain.append(nxt)
    raise BudgetExceeded(budget)


def image_towers(A: ZDiagram, budget: Optional[int] = None) -> dict:
    """All finite image towers plus their stable (omega) versions.

    Returns a dict with ``I`` and ``Q`` (lists of towers for r = 1..r_stab),
    ``I_omega`` (stabilized intersection, per index), ``Q_omega`` (image in
    the colimit, per index), and a stabilization report.  Each chain is
    built one tower at a time and stops at its first repeat.  The result is
    memoized on ``A`` per resolved budget and shared between callers: do not
    mutate it.

    Raises:
        BudgetExceeded: if the I- or Q-chains fail to stabilize within the
            budget (impossible for the supported tails; the guard is kept for
            future tail kinds).
    """
    if budget is None:
        budget = default_budget(A.width)
    if budget < 1:
        raise ValueError("budget must be >= 1")
    return _image_towers(A, budget)


@_per_diagram
def _image_towers(A: ZDiagram, budget: int) -> dict:
    Is = _chain_until_repeat(A, I_tower, budget)
    Qs = _chain_until_repeat(A, Q_tower, budget)
    G, cocone = colimit(A)
    q_omega = {p: cocone[p].image() for p in A.padded_range()}
    return {
        "I": Is,
        "Q": Qs,
        "I_omega": Is[-1],
        "Q_omega": q_omega,
        "stabilization": {"I_at": len(Is), "Q_at": len(Qs), "budget": budget},
    }


def I_omega(A: ZDiagram, budget: Optional[int] = None) -> dict:
    return image_towers(A, budget)["I_omega"]


@_per_diagram
def stable_image(A: ZDiagram) -> dict:
    """The stable image: Ibar_p = image(rho_p: lim A -> A_p), per padded index."""
    _, cone, _ = limit_and_lim1(A)
    return {p: cone[p].image() for p in A.padded_range()}


def ml_conditions(A: ZDiagram, budget: Optional[int] = None) -> dict:
    """Mittag-Leffler style conditions, decided by stabilization.

    ``mittag_leffler`` -- the descending chains I^r_p stabilize positionwise;
    ``co_mittag_leffler`` -- the Q^r chains stabilize; ``omega_ml`` -- one
    more application of I to the stable subdiagram I^omega changes nothing.
    """
    try:
        towers = image_towers(A, budget)
    except BudgetExceeded:
        return {"mittag_leffler": False, "co_mittag_leffler": False, "omega_ml": False}
    iw = towers["I_omega"]
    # Apply I once more to the I^omega subdiagram: the image of I^omega_{p-1}
    # under a_{p-1} inside A_p, compared against I^omega_p.
    omega_ml = True
    for p in range(A.p0, A.p1 + 2):
        moved = A.map_at(p - 1).image_of_subgroup(iw[p - 1])
        if moved != iw[p]:
            omega_ml = False
            break
    return {
        "mittag_leffler": True,
        "co_mittag_leffler": True,
        "omega_ml": omega_ml,
    }


# ---------------------------------------------------------------------------
# filtrations
# ---------------------------------------------------------------------------


@_per_diagram
def filtrations(A: ZDiagram) -> dict:
    """Image filtration of the colimit and kernel filtration of the limit.

    Returns ``F`` (F_p = image(pi_p), increasing and exhaustive), ``F_upper``
    (F^p = kernel(rho_p), increasing in p), the epsilon quotients
    ``eps[p] = F_p/F_{p-1}`` and ``eps_upper[p] = F^{p+1}/F^p``, the natural
    map ``R: lim -> colim``, and verification flags:

    * ``complete``: lim F^ = 0 = lim1 F^ (the kernel filtration is complete);
    * ``exhaustive``: F at the top padded index is everything;
    * ``four_term_exact``: exactness of
      colim F^ >-> lim A -R-> colim A ->> colim coker(rho), with
      image(R) = colim(Ibar);
    * ``kernel_filtration_exhaustive`` iff R == 0.

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
    colim_Fu = Fu[idx[-1]]
    lim_Fu = Fu[idx[0]]
    ibar = stable_image(A)
    four_term = (
        R.kernel() == colim_Fu
        and R.image() == ibar[idx[-1]]  # colim Ibar, realized at the top pad
    )
    return {
        "F": F,
        "F_upper": Fu,
        "eps": eps,
        "eps_upper": eps_u,
        "R": R,
        "complete": lim_Fu.is_zero(),
        "exhaustive": F[idx[-1]] == Subgroup.full(C),
        "four_term_exact": four_term,
        "kernel_filtration_exhaustive": R.is_zero(),
        "colim": C,
        "lim": L,
        "cocone": cocone,
        "cone": cone,
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


def kernel_diagram(A: ZDiagram, p: int):
    """The diagram K^p with (K^p)_{p-r} = Ker(A_{p-r} -> A_p), r >= 0.

    Returns ``(K, inclusion, report)``: ``K`` is a ZDiagram on the window
    [p0-1, p] with zero right tail (the kernel vanishes at p and beyond),
    ``inclusion`` maps each kernel into A, and the report verifies the
    lemma's identifications lim K^p = F^p and lim I_p = I^omega_p.
    """
    if p not in A.padded_range():
        raise ValueError("p must lie in the padded window")
    lo = A.p0 - 1
    subs = {q: A.composite(q, p).kernel() for q in range(lo, p + 1)}
    pieces = {q: subs[q].as_group() for q in range(lo, p + 1)}
    maps = []
    for q in range(lo, p):
        maps.append(A.map_at(q).restrict(subs[q], subs[q + 1]))
    left = Tail.ZERO if A.left_tail is Tail.ZERO else Tail.CONSTANT
    if p == lo:
        K = ZDiagram((lo, lo), (pieces[lo][0],), (), left, Tail.ZERO)
    else:
        K = ZDiagram(
            (lo, p),
            tuple(pieces[q][0] for q in range(lo, p + 1)),
            tuple(maps),
            left,
            Tail.ZERO,
        )
    inclusion = {q: pieces[q][1] for q in range(lo, p + 1)}
    # lim K^p is realized at the bottom pad; under a constant left tail that
    # is the same subgroup of A_{lo} as F^p = Ker(rho_p), and under a zero
    # left tail both sides vanish.
    limK = subs[lo]
    _, cone, _ = limit_and_lim1(A)
    Fp = cone[p].kernel()
    # lim I_p: the intersection of the increasing-in-q images Im(A_q -> A_p)
    # as q -> -infinity, which stabilizes at the bottom pad.
    lim_Ip = A.composite(lo, p).image()
    towers = image_towers(A)
    report = {
        "lim_K_equals_F_upper": limK == Fp,
        "lim_I_equals_I_omega": lim_Ip == towers["I_omega"][p],
    }
    return K, inclusion, report


def k_mono_condition(A: ZDiagram, p: int, budget: Optional[int] = None) -> dict:
    """The mono-condition at p: Ker a_p /\\ I^omega_p == Ker a_p /\\ Ibar_p.

    Equivalently (per the comparison lemmas) the induced map
    lim1 K^p -> lim1 K^{p+1} is injective; under the supported tails both
    lim1 terms vanish, but the subgroup equality itself is still meaningful
    and is evaluated exactly.  Sufficient conditions (a_p mono, omega-ML) are
    cross-checked: each one, when true, must force the condition.
    """
    if p not in A.padded_range() or p == A.p1 + 1:
        raise ValueError("p must lie in the padded window with a successor")
    ker = A.map_at(p).kernel()
    iw = I_omega(A, budget)[p]
    ibar = stable_image(A)[p]
    lhs = ker.intersection(iw)
    rhs = ker.intersection(ibar)
    holds = lhs == rhs
    witness = None
    if not holds:
        witness = next(c for c in lhs.basis if not rhs.contains(c))
    a_mono = A.map_at(p).is_mono()
    omega_ml = ml_conditions(A, budget)["omega_ml"]
    if (a_mono or omega_ml) and not holds:
        raise AssertionError("sufficient condition held but the criterion failed")
    return {
        "holds": holds,
        "witness": witness,
        "a_p_mono": a_mono,
        "omega_ml": omega_ml,
        "lhs": lhs,
        "rhs": rhs,
    }


# ---------------------------------------------------------------------------
# image factorization diagrams
# ---------------------------------------------------------------------------


def q_factor_diagram(A: ZDiagram):
    """The image quotient diagram QA with QA_p = Im(a_p), and A -> QA.

    Both the epimorphism A -> QA and the inclusion IA -> A (see
    ``i_factor_diagram``) induce isomorphisms on colim, lim and lim^1; tests
    assert this on generated instances.
    """
    lo, hi = A.p0 - 1, A.p1
    subs = {p: A.map_at(p).image() for p in range(lo, hi + 1)}
    pieces = {p: subs[p].as_group() for p in range(lo, hi + 1)}
    maps = tuple(
        A.map_at(p + 1).restrict(subs[p], subs[p + 1]) for p in range(lo, hi)
    )
    QA = ZDiagram(
        (lo, hi),
        tuple(pieces[p][0] for p in range(lo, hi + 1)),
        maps,
        A.left_tail,
        A.right_tail,
    )
    comps = {}
    for p in range(lo, hi + 1):
        G = A.group_at(p)
        incl = pieces[p][1]
        cols = []
        for j in range(G.ngens):
            e = unit_vector(G.ngens, j)
            cols.append(incl.solve_element(A.map_at(p)(e)))
        comps[p] = Hom(G, pieces[p][0], matrix_from_columns(cols, pieces[p][0].ngens))
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


ZCOMPARE_RULES = (
    "mono-colim",
    "epi-colim",
    "iso-colim",
    "mono-lim",
    "iso-lim-1",
    "iso-lim-2",
    "epi-lim",
)


def _eps_maps(f: ZDiagramMorphism, fA: dict, fB: dict, which: str):
    """Induced maps on the epsilon quotients, per index."""
    out = {}
    key = "eps" if which == "lower" else "eps_upper"
    pos = "colim" if which == "lower" else "lim"
    for p in fA[key]:
        comp = colimit_map(f) if pos == "colim" else limit_map(f)
        from .zlinalg import induced_map

        out[p] = induced_map(comp, fA[key][p], fB[key][p])
    return out


def zcompare(f: ZDiagramMorphism, rule: str) -> dict:
    """Apply one of the appendix comparison rules to a diagram morphism.

    Checks the rule's hypotheses exactly; if they hold, computes the induced
    map on the colimit or limit and asserts the rule's conclusion, returning
    a verdict dict.  If a hypothesis fails, raises ``HypothesisFailed`` with
    the first failing clause (a diagnostic, not a bug).
    """
    if rule not in ZCOMPARE_RULES:
        raise ValueError("unknown rule %r" % (rule,))
    A, B = f.source, f.target
    fA, fB = filtrations(A), filtrations(B)
    verdict = {"rule": rule, "hypotheses": []}

    def need(name, ok):
        verdict["hypotheses"].append((name, ok))
        if not ok:
            raise HypothesisFailed((rule, name, verdict["hypotheses"]))

    from .zlinalg import induced_map

    cmap = colimit_map(f)
    lmap = limit_map(f)

    if rule in ("mono-colim", "epi-colim", "iso-colim"):
        eps = _eps_maps(f, fA, fB, "lower")
        # induced map on lim F_bullet: F_p stabilizes at the top pad; the
        # relevant "lim of the filtration towers" map is the restriction of
        # the colimit map to the intersections of the F_p, realized here by
        # the bottom filtration stages... the towers are increasing, so the
        # inverse limit over decreasing p is the bottom padded stage.
        bot = A.p0 - 1
        limF_map = cmap.restrict(fA["F"][bot], fB["F"][bot])
        if rule == "mono-colim":
            need("eps_p all mono", all(m.is_mono() for m in eps.values()))
            need("lim F map mono", limF_map.is_mono())
            verdict["conclusion"] = "colim map mono"
            assert cmap.is_mono()
        else:
            need("eps_p all iso", all(m.is_iso() for m in eps.values()))
            need("lim F map epi", limF_map.is_epi())
            # lim1 of the F-towers vanishes under the supported tails, so
            # the lim1-injectivity clause holds automatically; record it.
            verdict["hypotheses"].append(("lim1 F tower zero", True))
            if rule == "iso-colim":
                need("lim F map iso", limF_map.is_iso())
                verdict["conclusion"] = "colim map iso"
                assert cmap.is_iso()
            else:
                verdict["conclusion"] = "colim map epi"
                assert cmap.is_epi()
    elif rule == "mono-lim":
        eps_u = _eps_maps(f, fA, fB, "upper")
        need("eps^p all mono", all(m.is_mono() for m in eps_u.values()))
        # any one of the auxiliary clauses suffices
        try:
            imR_ok = cmap.restrict(fA["R"].image(), fB["R"].image()).is_mono()
        except ContainmentViolation:
            imR_ok = False
        clause = (
            imR_ok
            or any(
                cmap.restrict(fA["F"][p], fB["F"][p]).is_mono()
                for p in fA["F"]
            )
            or fA["F"][A.p0 - 1].is_zero()  # lim of the image filtration is 0
            or fA["colim"].is_trivial()
            or (A.right_tail is Tail.ZERO)  # eventually vanishing
        )
        need("auxiliary clause (Im R mono / F_p mono / lim F = 0 / colim = 0 / eventually vanishing)", clause)
        verdict["conclusion"] = "lim map mono"
        assert lmap.is_mono()
    elif rule in ("iso-lim-1", "iso-lim-2"):
        eps_u = _eps_maps(f, fA, fB, "upper")
        need("eps^p all iso", all(m.is_iso() for m in eps_u.values()))
        if rule == "iso-lim-1":
            imR_map = cmap.restrict(fA["R"].image(), fB["R"].image())
            need("Im R map iso", imR_map.is_iso())
            verdict["conclusion"] = "lim map iso"
            assert lmap.is_iso()
        else:
            clause = (
                (fA["R"].is_zero() and fB["R"].is_zero())
                or (fA["F"][A.p0 - 1].is_zero() and fB["F"][B.p0 - 1].is_zero())
                or (fA["colim"].is_trivial() and fB["colim"].is_trivial())
                or (A.right_tail is Tail.ZERO and B.right_tail is Tail.ZERO)
            )
            need("auxiliary clause (R = 0 / lim F = 0 / colims trivial / eventually vanishing)", clause)
            verdict["conclusion"] = "lim map iso"
            assert lmap.is_iso()
    else:  # epi-lim
        eps_u = _eps_maps(f, fA, fB, "upper")
        need("eps^p all epi", all(m.is_epi() for m in eps_u.values()))
        # DCC on the kernels of A's structure maps: automatic when every
        # kernel is finite; that is the checkable sufficient condition here.
        dcc = all(
            A.map_at(p).kernel().as_group()[0].order() is not None
            for p in range(A.p0 - 1, A.p1 + 1)
        )
        need("kernels of structure maps satisfy DCC", dcc)
        verdict["conclusion"] = "map on colim F^ epi (lim map epi here)"
        # Under the supported tails the relevant lim1 obstruction vanishes,
        # so the epimorphism conclusion holds at the level of the limit map
        # restricted to the kernel filtration colimit.
        top = A.p1 + 1
        colimFu_map = lmap.restrict(fA["F_upper"][top], fB["F_upper"][top])
        assert colimFu_map.is_epi()
    verdict["ok"] = True
    return verdict
