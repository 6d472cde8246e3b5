"""Shared random generators for the test suite.

Everything is seeded explicitly so failures reproduce.
"""

import random

import pytest

from specseq.excouple import CoupleMorphism, ExactCouple, couple_from_filtered_complex
from specseq.zlinalg import FPAbGroup, Hom, NotWellDefined, Subgroup
from specseq.zdiagrams import HypothesisFailed, Tail, ZDiagram

SMALL_GROUPS = [
    FPAbGroup(),
    FPAbGroup(0, (2,)),
    FPAbGroup(0, (3,)),
    FPAbGroup(0, (4,)),
    FPAbGroup(0, (6,)),
    FPAbGroup(0, (8,)),
    FPAbGroup(0, (2, 4)),
    FPAbGroup(0, (2, 2)),
    FPAbGroup(1),
    FPAbGroup(1, (2,)),
]

FINITE_GROUPS = [G for G in SMALL_GROUPS if G.order() is not None]


def random_hom(G, H, rng, spread=4):
    """A random well-defined hom G -> H (possibly zero)."""
    for _ in range(60):
        m = [
            [rng.randint(-spread, spread) for _ in range(G.ngens)]
            for _ in range(H.ngens)
        ]
        try:
            return Hom(G, H, m)
        except NotWellDefined:
            pass
    return Hom.zero_map(G, H)


def random_diagram(rng, max_width=3, pool=None):
    pool = pool or SMALL_GROUPS
    w = rng.randint(1, max_width)
    gs = [rng.choice(pool) for _ in range(w + 1)]
    maps = [random_hom(gs[i], gs[i + 1], rng) for i in range(w)]
    return ZDiagram.from_maps(
        rng.randint(-2, 2),
        maps,
        left_tail=rng.choice([Tail.ZERO, Tail.CONSTANT]),
        right_tail=rng.choice([Tail.ZERO, Tail.CONSTANT]),
    )


def seeded(seed):
    return random.Random(seed)


def lift_and_hermite(sq, S):
    """The generic pull-back of a subgroup ``S`` of ``sq.group`` to the
    ambient group: the Hermite form of the lifts of its basis together
    with ``sq.B``, with no closed form for the zero or the whole ``S``."""
    return Subgroup.from_generators(
        sq.Z.ambient, [sq.lift(c) for c in S.basis] + list(sq.B.basis))


COMPLEX_GROUPS = [
    FPAbGroup(),
    FPAbGroup(0, (2,)),
    FPAbGroup(0, (4,)),
    FPAbGroup(0, (3,)),
    FPAbGroup(0, (8,)),
    FPAbGroup(0, (12,)),
    FPAbGroup(0, (2, 4)),
    FPAbGroup(0, (64,)),
    FPAbGroup(1),
    FPAbGroup(1, (2,)),
    FPAbGroup(2),
]


def random_filtered_complex(rng, max_degree=3, stages=None):
    """A random chain complex with a random exhaustive filtration.

    Returns (groups, diffs, filtration) in the shape expected by the
    filtered-complex couple constructor.  Differentials are built
    degree by degree into the kernel of the previous one, and each
    filtration stage is closed under the differential by construction.
    """
    from specseq.zlinalg import Subgroup

    top = rng.randint(1, max_degree)
    groups = {n: rng.choice(COMPLEX_GROUPS) for n in range(top + 1)}
    diffs = {}
    prev_kernel = Subgroup.full(groups[0])
    for n in range(1, top + 1):
        KG, incl = prev_kernel.as_group()
        h = random_hom(groups[n], KG, rng)
        diffs[n] = incl.compose(h)
        prev_kernel = diffs[n].kernel()

    stages = stages or rng.randint(2, 3)
    filtration = {}
    below = {n: Subgroup.zero(groups[n]) for n in groups}
    for p in range(stages):
        level = {}
        if p == stages - 1:
            level = {n: Subgroup.full(groups[n]) for n in groups}
        else:
            for n in sorted(groups, reverse=True):
                gens = [
                    tuple(rng.randint(-3, 3) for _ in range(groups[n].ngens))
                    for _ in range(rng.randint(0, 2))
                ]
                S = below[n].sum(Subgroup.from_generators(groups[n], gens))
                if n + 1 in groups:
                    S = S.sum(diffs[n + 1].image_of_subgroup(level[n + 1]))
                level[n] = S
        filtration[p] = level
        below = level
    return groups, diffs, filtration


def doubling_morphism_data():
    """Multiplication by 2 from Z filtered by Z at stage 0 to Z filtered by 2Z
    at stages 0 and 1: ``(source, target, fD, fE)``, the two couples and the
    matrices of the induced couple morphism by position.

    On diagonal 0 the target's D-tower reaches one stage further right than
    the source's, and the component there, 2, differs from the one at the
    end of the source's window, 1.
    """
    Z = FPAbGroup(1)
    twoZ = Subgroup.from_generators(Z, [(2,)])
    source = couple_from_filtered_complex({0: Z}, {}, {0: {0: Subgroup.full(Z)}})
    target = couple_from_filtered_complex({0: Z}, {}, {0: {0: twoZ}, 1: {0: twoZ}})
    fD = {(0, 0): [[1]], (1, -1): [[1]], (2, -2): [[2]]}
    fE = {(0, 0): [[1]]}
    return source, target, fD, fE


def translated(C, s):
    """C with every position moved by s*a and the same tails.

    The diagonals stay where they are, since det(a, a) = 0; only the tower
    index of each position grows by s.
    """
    a = C.bidegrees.a

    def moved(table):
        return {(x[0] + s * a[0], x[1] + s * a[1]): v for x, v in table.items()}

    return ExactCouple(C.bidegrees, moved(C.D), moved(C.E), moved(C.i), moved(C.j),
                       moved(C.k), dict(C.diagonal_tails))


def multiplication(G, m):
    """The endomorphism of G that multiplies by m."""
    return Hom(G, G, [[m * (r == c) for c in range(G.ngens)] for r in range(G.ngens)])


def scaling_morphism(C, m):
    """The endomorphism of the couple C that multiplies every object by m."""
    return CoupleMorphism(C, C, {x: multiplication(G, m) for x, G in C.D.items()},
                          {x: multiplication(G, m) for x, G in C.E.items()})


def expected_outcome(clauses, verdict, fails_at):
    """The whole verdict dict, or the whole ``HypothesisFailed`` argument.

    ``clauses`` is ``(names, conclusion)`` of one comparison rule, and
    ``verdict`` holds the keys that precede ``hypotheses``.  ``fails_at``
    is the clause the rule fails at, or ``None`` when it passes.
    """
    names, conclusion = clauses
    if fails_at is None:
        return dict(verdict, hypotheses=[(c, True) for c in names],
                    conclusion=conclusion, ok=True)
    k = names.index(fails_at)
    return (verdict["rule"], fails_at, [(c, True) for c in names[:k]] + [(fails_at, False)])


def assert_outcome(run, want):
    """``run()`` returns the verdict ``want``, or raises it as ``HypothesisFailed``."""
    if isinstance(want, dict):
        got = run()
        assert got == want and list(got) == list(want)
    else:
        with pytest.raises(HypothesisFailed) as exc:
            run()
        assert exc.value.args == (want,)


@pytest.fixture
def broken_page_anchoring(monkeypatch):
    """Make ``ExactCouple.internal_page`` report zero cycles at (0, 0) from
    page 2 on, so the two computations of each page disagree there."""
    page = ExactCouple.internal_page

    def broken(self, r):
        ip = page(self, r)
        if r >= 2:
            ip = dict(ip, Z=dict(ip["Z"]))
            ip["Z"][(0, 0)] = Subgroup.zero(self.E_at((0, 0)))
        return ip

    monkeypatch.setattr(ExactCouple, "internal_page", broken)
