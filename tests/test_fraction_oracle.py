"""The fraction ring builder against the loops it replaced.

``build_fraction_ring`` finds its Ore witnesses, classes and tables by
numpy gathers.  The reference below is the earlier builder, kept here as
an oracle: a scalar witness search per table entry, a dict union-find
over the pairs and a scalar table fill.  On every denominator set of the
corpus the two must give the same representatives, the same class for
every pair and identical tables and canonical map.
"""

import random

import numpy as np
from test_ore_oracle import LADDER, SMALL, _one_generator_closures, _random_closures

from orelab import (
    DEFAULT_CATALOG,
    InternalInconsistency,
    build_fraction_ring,
    construct,
    core,
    is_left_denominator,
    opposite,
    saturated_denominator_sets,
    units,
)
from orelab.maxden import closed_unital_subsets
from orelab.oresets import ass

QUOTIENT_RINGS = (
    "zmod(64)",
    "product(zmod(8),zmod(9))",
    "upper_triangular(gf(4),2)",
    "matrix(gf(3),2)",
    "product(gf(4),gf(8),gf(5))",
)


def _loop_build(ring, elems):
    """reps, pair_class, add, mul and sigma tables of the scalar builder."""
    n = ring.order
    mul, add = ring.np_mul.tolist(), ring.np_add.tolist()  # the scalar loops below read lists
    s_list = sorted(elems.indices())
    pairs = [(s, r) for s in s_list for r in range(n)]  # pair (s_list[i], r) sits at i*n + r
    a = ass(ring, elems)

    # by_value[s][v] = all r' with r'*s == v, for witness searches
    by_value: dict[int, dict[int, list[int]]] = {s: {} for s in s_list}
    for s in s_list:
        for rp in range(n):
            by_value[s].setdefault(mul[rp][s], []).append(rp)

    def first_witness(anchor: int, through: int):
        # smallest (w, r') in S x R with w*through == r'*anchor
        lookup = by_value[anchor]
        for w in s_list:
            cands = lookup.get(mul[w][through])
            if cands:
                return w, cands[0]
        raise InternalInconsistency("left Ore witness vanished during table build")

    # union-find over the pairs, started from the cosets of ass(S) in each
    # row; a merge hangs the larger root under the smaller, so every root
    # is the least pair of its class
    index = {s: i * n for i, s in enumerate(s_list)}
    coset_min = ring.np_add[:, list(a)].min(1).tolist()
    parent = [i + m for i in index.values() for m in coset_min]

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def join(at: int, to: int, image) -> None:
        # (row at, r) ~ (row to, image[r]) for every r
        for r, v in enumerate(image):
            x, y = find(at + r), find(to + v)
            if x != y:
                parent[max(x, y)] = min(x, y)

    s0 = s_list[0]
    for s in s_list:
        s1, r1 = first_witness(s, s0)  # s1*s0 == r1*s lies in S
        t = index[mul[s1][s0]]
        join(index[s], t, mul[r1])
        join(index[s0], t, mul[s1])
    roots = sorted({find(p) for p in range(len(pairs))})
    number = {root: i for i, root in enumerate(roots)}
    reps = [pairs[root] for root in roots]
    pair_class = {p: number[find(i)] for i, p in enumerate(pairs)}
    k = len(reps)

    add_table = [[0] * k for _ in range(k)]
    mul_table = [[0] * k for _ in range(k)]
    for i, (s, r) in enumerate(reps):
        for j, (t, q) in enumerate(reps):
            # s^-1 r + t^-1 q = (s1 t)^-1 (r1 r + s1 q) whenever s1 t = r1 s
            s1, r1 = first_witness(s, t)
            add_table[i][j] = pair_class[(mul[s1][t], add[mul[r1][r]][mul[s1][q]])]
            # s^-1 r * t^-1 q = (t1 s)^-1 (r2 q) whenever t1 r = r2 t
            t1, r2 = first_witness(t, r)
            mul_table[i][j] = pair_class[(mul[t1][s], mul[r2][q])]

    sigma_table = tuple(pair_class[(s0, mul[s0][x])] for x in range(n))
    return tuple(reps), pair_class, add_table, mul_table, sigma_table


def _compare(ring, elems):
    """Assert that both builders agree on one denominator set."""
    fr = build_fraction_ring(ring, elems)
    reps, pair_class, add_table, mul_table, sigma_table = _loop_build(ring, fr.dens)
    assert fr.reps == reps
    assert fr.pair_class.tolist() == list(pair_class.values())  # both in (s, r) order
    assert np.array_equal(fr.ring.np_add, add_table)
    assert np.array_equal(fr.ring.np_mul, mul_table)
    assert tuple(fr.sigma.table.tolist()) == sigma_table


def _compare_with_cores(ring, subs):
    """Compare each denominator set among subs and its core, each set once;
    return how many sets were compared."""
    dens = {sub for sub in subs if is_left_denominator(ring, sub).holds}
    dens |= {core(ring, sub) for sub in dens}
    for sub in sorted(dens, key=lambda s: s.mask):
        _compare(ring, sub)
    return len(dens)


def test_every_closed_unital_subset():
    compared = 0
    for spec in SMALL + ("opposite(upper_triangular(gf(2),2))",):
        ring = construct(spec)
        compared += _compare_with_cores(ring, closed_unital_subsets(ring))
    assert compared >= 20


def test_catalog_and_ladder_sets():
    # the sets of the Ore oracle, drawn in the same order from the same seed
    rng = random.Random("ore-oracle")
    compared = 0
    for spec in DEFAULT_CATALOG + LADDER:
        ring = construct(spec)
        op = opposite(ring)
        for r in [ring] if op == ring else [ring, op]:
            sets = {units(r)}
            sets.update(_one_generator_closures(r))
            sets.update(_random_closures(r, rng, 40))
            compared += _compare_with_cores(r, sets)
    assert compared >= 300


def test_larger_orders():
    several_rows = 0
    for spec in QUOTIENT_RINGS:
        ring = construct(spec)
        for dens in [units(ring)] + [m.elements for m in saturated_denominator_sets(ring).values()]:
            _compare(ring, dens)
            several_rows += len(dens) > 1
    ring = construct("zmod(256)")
    _compare(ring, units(ring))
    assert several_rows > 0
