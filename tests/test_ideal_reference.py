"""The ideal layer against ideals computed from the definition.

The reference below uses Python sets and the tuple tables only: an ideal
is the least set holding 0 and the generators that is closed under +,
under x -> r*x (left, two-sided) and under x -> x*r (right, two-sided).
The uniform dimension is checked against a backtracking search over
every family of independent left ideals, and ``principal_ideals``, one
closure per unit orbit, against one ``ideal_closure`` per element.  The
minimal primes, read off the lattice as its maximal ideals, are checked
against the ideals that pass the definition of a prime ideal.
"""

import random
import tracemalloc

import pytest

from orelab import (
    DEFAULT_CATALOG,
    CarrierSubset,
    FiniteRing,
    Guards,
    SizeGuardExceeded,
    construct,
    from_tables,
    ideal_closure,
    left_ideals,
    minimal_primes,
    two_sided_ideals,
    uniform_dimension,
)
from orelab.rings import mask_members, principal_ideals, subgroup_sum

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


EIGHT_FIELDS = "product(" + ",".join(["gf(2)"] * 8) + ")"
PRINCIPAL_CASES = CASES + [(spec, construct(spec)) for spec in ("zmod(256)", "matrix(gf(4),2)", EIGHT_FIELDS)]


@pytest.mark.parametrize("label,ring", PRINCIPAL_CASES, ids=[c[0] for c in PRINCIPAL_CASES])
def test_principal_ideals_match_one_closure_per_element(label, ring):
    for side in SIDES:
        want = [ideal_closure(ring, [x], side).mask for x in range(ring.order)]
        assert principal_ideals(ring, side) == want, side


def _divisor_count(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


@pytest.mark.parametrize("n", [64, 96, 128, 256])
def test_zmod_ideals_are_the_divisors(n):
    assert len(two_sided_ideals(construct(f"zmod({n})"))) == _divisor_count(n)


def _is_prime_ideal(ring: FiniteRing, p: CarrierSubset) -> bool:
    # p is prime iff no a, b outside p have a*R*b inside p.  For one a the
    # products (a*r)*b are the rows M[a*R], so no table exceeds n*n entries.
    in_p = mask_members(ring.order, p.mask)
    outside = (~in_p).nonzero()[0]
    if not outside.size:
        return False  # the whole ring is not prime
    M = ring.np_mul
    for a in outside:
        if in_p[M[M[a]][:, outside]].all(axis=0).any():
            return False
    return True


# semiprime rings above order 64, whose profiles once skipped the Goldie
# route, and a ring with a nonzero Jacobson radical
ABOVE_64 = ["matrix(gf(3),2)", "product(gf(4),gf(8),gf(5))", "zmod(210)", "upper_triangular(gf(2),3)"]
PRIME_CASES = PRINCIPAL_CASES + [
    case
    for spec, ring in ((spec, construct(spec)) for spec in ABOVE_64)
    for case in ((spec, ring), (f"{spec}~1", _relabelled(ring, random.Random(spec))))
]


@pytest.mark.parametrize("label,ring", PRIME_CASES, ids=[c[0] for c in PRIME_CASES])
def test_minimal_primes_are_the_primes_by_definition(label, ring):
    # every prime is maximal and every maximal ideal is prime
    assert [p for p in two_sided_ideals(ring) if _is_prime_ideal(ring, p)] == minimal_primes(ring)


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


def _uniform_dimension_by_search(ring):
    """Largest k with k nonzero left ideals forming a direct sum in R, by
    backtracking over every family of independent left ideals."""
    nonzero = [i for i in left_ideals(ring, Guards(left_ideals=ring.order)) if len(i) > 1]
    zero_mask = 1 << ring.zero
    best = 0

    def extend(start, span, count):
        nonlocal best
        best = max(best, count)
        for k in range(start, len(nonzero)):
            cand = nonzero[k]
            if cand.mask & span.mask == zero_mask:
                extend(k + 1, subgroup_sum(ring, span, cand), count + 1)

    extend(0, CarrierSubset(ring.order, zero_mask), 0)
    return best


@pytest.mark.parametrize("label,ring", CASES, ids=[c[0] for c in CASES])
def test_uniform_dimension_matches_the_search(label, ring):
    assert uniform_dimension(ring) == _uniform_dimension_by_search(ring)


@pytest.mark.parametrize("spec", ABOVE_64)
def test_uniform_dimension_matches_the_search_above_order_64(spec):
    ring = construct(spec)
    for r in (ring, _relabelled(ring, random.Random(spec))):
        assert uniform_dimension(r) == _uniform_dimension_by_search(r)


def test_uniform_dimension_of_eight_fields():
    # the search takes seconds here; R is the direct sum of its 8 fields
    ring = construct("product(" + ",".join(["gf(2)"] * 8) + ")")
    assert uniform_dimension(ring) == 8


def test_uniform_dimension_obeys_the_order_guard():
    # the left-ideal guard no longer applies: no left lattice is walked
    ring = construct("zmod(20)")
    assert uniform_dimension(ring, Guards(order=20, left_ideals=4)) == 2
    with pytest.raises(SizeGuardExceeded, match="uniform dimension: size 20 exceeds guard 16"):
        uniform_dimension(ring, Guards(order=16))
