"""The ideal layer against ideals computed from the definition.

The reference below uses Python sets and the tuple tables only: an ideal
is the least set holding 0 and the generators that is closed under +,
under x -> r*x (left, two-sided) and under x -> x*r (right, two-sided).
"""

import random
import tracemalloc

import pytest

from orelab import (
    DEFAULT_CATALOG,
    construct,
    from_tables,
    ideal_closure,
    left_ideals,
    minimal_primes,
    two_sided_ideals,
)
from orelab.rings import subgroup_sum

SIDES = ("left", "right", "two")


def _naive_closure(ring, gens, side):
    members = {ring.zero, *gens}
    while True:
        grown = set(members)
        grown.update(ring.add[x][y] for x in members for y in members)
        for r in range(ring.order):
            for x in members:
                if side != "right":
                    grown.add(ring.mul[r][x])
                if side != "left":
                    grown.add(ring.mul[x][r])
        if grown == members:
            return frozenset(members)
        members = grown


def _naive_lattice(ring, side):
    # every ideal is a sum of principal ideals, and I + J = {i + j}
    ideals = {_naive_closure(ring, [x], side) for x in range(ring.order)}
    frontier = set(ideals)
    while frontier:
        new = set()
        for a in frontier:
            for b in list(ideals):
                s = frozenset(ring.add[x][y] for x in a for y in b)
                if s not in ideals:
                    new.add(s)
        ideals |= new
        frontier = new
    return ideals


def _relabelled(ring, rng):
    perm = list(range(ring.order))
    rng.shuffle(perm)
    n = ring.order
    add = [[0] * n for _ in range(n)]
    mul = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            add[perm[a]][perm[b]] = perm[ring.add[a][b]]
            mul[perm[a]][perm[b]] = perm[ring.mul[a][b]]
    return from_tables(n, add, mul, perm[ring.zero], perm[ring.one])


def _catalog_and_relabellings():
    rng = random.Random(20141)
    for spec in DEFAULT_CATALOG:
        ring = construct(spec)
        if ring.order <= 48:
            yield spec, ring
            yield f"{spec}~1", _relabelled(ring, rng)
            yield f"{spec}~2", _relabelled(ring, rng)


CASES = list(_catalog_and_relabellings())


@pytest.mark.parametrize("label,ring", CASES, ids=[c[0] for c in CASES])
def test_ideal_layer_matches_the_definition(label, ring):
    rng = random.Random(label)
    closures = []
    for side in SIDES:
        for size in (0, 1, 1, 2, 3):
            gens = [rng.randrange(ring.order) for _ in range(size)]
            got = ideal_closure(ring, gens, side)
            assert set(got) == _naive_closure(ring, gens, side), (side, gens)
            closures.append(got)
    for a, b in zip(closures, closures[1:] + closures[:1]):
        s = subgroup_sum(ring, a, b)
        assert set(s) == {ring.add[x][y] for x in a for y in b}
    for side, lattice in (("two", two_sided_ideals), ("left", left_ideals)):
        got = lattice(ring)
        assert got == sorted(got, key=lambda s: (len(s), s.mask))
        assert {frozenset(i) for i in got} == _naive_lattice(ring, side)
        assert len(got) == len({i.mask for i in got})


def _divisor_count(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


@pytest.mark.parametrize("n", [64, 96, 128, 256])
def test_zmod_ideals_are_the_divisors(n):
    assert len(two_sided_ideals(construct(f"zmod({n})"))) == _divisor_count(n)


def test_minimal_primes_stay_within_square_tables():
    ring = construct("zmod(128)")
    tracemalloc.start()
    try:
        primes = minimal_primes(ring)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [sorted(p) for p in primes] == [list(range(0, 128, 2))]
    # one n*n*n int64 table alone is 16.8 MB
    assert peak < 4_000_000
