"""Seeded input generators for the benchmark workloads.

Every generator returns plain integers, lists and dicts, and imports
nothing from ``specseq``: a later change to the library or to its test
helpers cannot change what a workload feeds the program.  The same seed
always gives the same inputs.
"""

import itertools
import random

# (rank, torsion) of the chain groups, the pool the library's randomized
# filtered-complex tests draw from.
COMPLEX_GROUPS = [
    (0, ()),
    (0, (2,)),
    (0, (4,)),
    (0, (3,)),
    (0, (8,)),
    (0, (12,)),
    (0, (2, 4)),
    (0, (64,)),
    (1, ()),
    (1, (2,)),
    (2, ()),
]

# One stratum per (top degree, number of filtration stages).  A pool holds
# the same number of complexes of each shape, and in each degree of a shape
# every group of COMPLEX_GROUPS equally often, so its cost mix varies little
# from seed to seed while each degree still draws its group uniformly.
COMPLEX_SHAPES = [(top, stages) for top in (1, 2, 3) for stages in (2, 3)]

# The ladder stops at n = 20.  At n = 24 one op takes 0.1 s to 6 s and at
# n = 32 one SNF alone 0.2 s to 27 s, so a run of a minute cannot average
# them steadily; see README.md.
LADDER_SIZES = (8, 12, 16, 20)
# Ops of each size in one round of the ladder.  The median op is then an
# n = 12 one and the 90th percentile the middle of the n = 20 band.
LADDER_WEIGHTS = {8: 3, 12: 3, 16: 2, 20: 2}


def _ngens(group):
    rank, torsion = group
    return rank + len(torsion)


def _orders(group):
    """Order of each generator, 0 for a free one."""
    rank, torsion = group
    return (0,) * rank + tuple(torsion)


def _reduce(group, v):
    return tuple(x % d if d else x for x, d in zip(v, _orders(group)))


def _is_zero(group, v):
    return all(x == 0 for x in _reduce(group, v))


def _apply(matrix, v):
    return tuple(sum(a * b for a, b in zip(row, v)) for row in matrix)


def _box(group, spread):
    """Every element of ``group`` with free coordinates in [-spread, spread]."""
    ranges = [range(d) if d else range(-spread, spread + 1) for d in _orders(group)]
    return [tuple(v) for v in itertools.product(*ranges)]


def _random_differential(rng, src, dst, below, below_dst):
    """A well-defined map ``src -> dst`` that composes to zero with ``below``.

    ``below`` is the matrix of the differential out of ``dst`` (``None`` in
    degree 0) and ``below_dst`` its codomain.  Each column is drawn from the
    elements of a small box in ``dst`` that the differential below kills and
    that respect the order of the column's generator, so both conditions
    hold by construction.
    """
    cycles = [
        v for v in _box(dst, 4)
        if below is None or _is_zero(below_dst, _apply(below, v))
    ]
    cols = []
    for order in _orders(src):
        ok = [v for v in cycles if order == 0 or _is_zero(dst, [order * x for x in v])]
        if rng.random() < 0.25:
            cols.append((0,) * _ngens(dst))
        else:
            cols.append(rng.choice(ok))
    return [[cols[j][i] for j in range(len(cols))] for i in range(_ngens(dst))]


def filtered_complex(rng, chain_groups, stages):
    """A random chain complex with the given groups and an exhaustive filtration.

    ``chain_groups[n]`` is the ``(rank, torsion)`` of the degree-n group.
    Returns ``{"groups", "diffs", "filtration"}``: ``groups[n]`` is
    ``[rank, torsion]``, ``diffs[n]`` the matrix of the differential from
    degree n to n-1, and ``filtration[p][n]`` a list of generators of stage
    p in degree n.  Each stage holds the one below it and the image of its
    own next degree, so it is nested and closed under the differential;
    the last stage is everything.
    """
    groups = dict(enumerate(chain_groups))
    diffs = {}
    for n in range(1, len(groups)):
        diffs[n] = _random_differential(
            rng, groups[n], groups[n - 1], diffs.get(n - 1), groups.get(n - 2)
        )
    filtration = {}
    below = {n: [] for n in groups}
    for p in range(stages):
        level = {}
        for n in sorted(groups, reverse=True):
            G = groups[n]
            if p == stages - 1:
                level[n] = [
                    tuple(int(i == j) for i in range(_ngens(G))) for j in range(_ngens(G))
                ]
                continue
            gens = list(below[n])
            for _ in range(rng.randint(0, 2)):
                gens.append(_reduce(G, [rng.randint(-3, 3) for _ in range(_ngens(G))]))
            if n + 1 in groups:
                gens += [_reduce(G, _apply(diffs[n + 1], g)) for g in level[n + 1]]
            level[n] = list(dict.fromkeys(g for g in gens if any(g)))
        filtration[p] = level
        below = level
    return {
        "groups": {n: [G[0], list(G[1])] for n, G in groups.items()},
        "diffs": {n: m for n, m in diffs.items()},
        "filtration": {
            p: {n: [list(g) for g in gens] for n, gens in lvl.items()}
            for p, lvl in filtration.items()
        },
    }


def complex_pool(seed, per_shape):
    """``per_shape`` complexes of every shape, in a seeded random order.

    With ``per_shape`` a multiple of ``len(COMPLEX_GROUPS)`` every group
    appears equally often in every degree of every shape.
    """
    rng = random.Random(seed)
    pool = []
    for top, stages in COMPLEX_SHAPES:
        decks = []
        for _ in range(top + 1):
            order = list(COMPLEX_GROUPS)
            rng.shuffle(order)
            deck = [order[i % len(order)] for i in range(per_shape)]
            rng.shuffle(deck)
            decks.append(deck)
        for k in range(per_shape):
            pool.append(filtered_complex(rng, [deck[k] for deck in decks], stages))
    rng.shuffle(pool)
    return pool


def ladder_matrix(rng, n, deficiency):
    """An n x n matrix with entries in [-9, 9] and rank ``n - deficiency``.

    The last ``deficiency`` columns are small combinations of the first
    two, so the kernel is spanned by short vectors and the image by the
    remaining columns.
    """
    m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    for j in range(n - deficiency, n):
        a, b = rng.choice([(1, 1), (1, -1), (2, 1), (1, 2), (-1, 2)])
        for i in range(n):
            m[i][j] = a * m[i][0] + b * m[i][1]
    return m


def ladder_pool(seed, rounds):
    """``rounds`` rounds of the size ladder, in a seeded random order.

    A round holds ``LADDER_WEIGHTS[n]`` matrices of each size n, alternately
    of full rank and rank deficient.  Each entry also carries what the op
    asks of the matrix: vectors to test for membership in its image (two
    images of short vectors, two random vectors), a vector in the image to
    solve for, and generators of a second subgroup to intersect with.
    """
    rng = random.Random(seed)
    pool = []
    for _ in range(rounds):
        for n in LADDER_SIZES:
            for t in range(LADDER_WEIGHTS[n]):
                deficiency = 0 if t % 2 == 0 else rng.randint(1, 2)
                m = ladder_matrix(rng, n, deficiency)

                def short():
                    return [rng.randint(-3, 3) for _ in range(n)]

                pool.append({
                    "n": n,
                    "deficiency": deficiency,
                    "matrix": m,
                    "contains": [list(_apply(m, short())) for _ in range(2)]
                    + [[rng.randint(-9, 9) for _ in range(n)] for _ in range(2)],
                    "solve_for": list(_apply(m, short())),
                    "other": [short() for _ in range(2)],
                })
    rng.shuffle(pool)
    return pool
