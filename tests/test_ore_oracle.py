"""The Ore layer against the loops it replaced.

The predicates of ``orelab.oresets`` and the ideal tests ``_absorbs`` and
``is_additive_subgroup`` are gathers on the numpy tables.  The references
below are the earlier scans over the tuple tables ``ring.add`` and
``ring.mul``, kept here as an oracle.  On every set of the corpus the two
must give the same verdicts, witnesses, subsets and messages.  The
scalar breadth-first walk that ``mul_closure`` replaced by doubling is
kept the same way: closures and ``ZeroAbsorbed`` chains must match it.

A finite ring is left Noetherian, so every left Ore set of the corpus is
also left reversible and the reversibility witness is never exercised;
``r_ass`` and ``ass`` are therefore compared on every closed set.
"""

import random

import pytest

from orelab import (
    DEFAULT_CATALOG,
    CarrierSubset,
    MulSet,
    ZeroAbsorbed,
    ass,
    construct,
    core,
    is_left_denominator,
    is_left_ore,
    mul_closure,
    opposite,
    r_ass,
    units,
)
from orelab.maxden import closed_unital_subsets
from orelab.oresets import check_semigroup, closure_escape, max_kernel_elements
from orelab.rings import _absorbs, is_additive_subgroup, two_sided_ideals

LADDER = (
    "zmod(32)",
    "product(gf(5),gf(9))",
    "upper_triangular(gf(4),2)",
    "zmod(64)",
    "product(zmod(8),zmod(9))",
)
SMALL = ("upper_triangular(gf(2),2)", "zmod(8)", "product(gf(2),zmod(4))")


# -- the loops, kept as references -----------------------------------------


def _left_kernel(ring, s):
    mask = 0
    for r in range(ring.order):
        if ring.mul[s][r] == ring.zero:
            mask |= 1 << r
    return mask


def _right_kernel(ring, s):
    mask = 0
    for r in range(ring.order):
        if ring.mul[r][s] == ring.zero:
            mask |= 1 << r
    return mask


def _ass(ring, elems):
    mask = 0
    for s in elems:
        mask |= _left_kernel(ring, s)
    return mask


def _r_ass(ring, elems):
    mask = 0
    for x in elems:
        mask |= _right_kernel(ring, x)
    return mask


def _is_left_ore(ring, elems):
    mul = ring.mul
    rs_mask = {}
    for s in elems:
        m = 0
        for r in range(ring.order):
            m |= 1 << mul[r][s]
        rs_mask[s] = m
    for r in range(ring.order):
        sr = 0
        for s in elems:
            sr |= 1 << mul[s][r]
        for s in elems:
            if sr & rs_mask[s] == 0:
                return False, (r, s)
    return True, None


def _reversibility(ring, elems):
    kill = _ass(ring, elems)
    for r in range(ring.order):
        if (kill >> r) & 1:
            continue
        for s in elems:
            if ring.mul[r][s] == ring.zero:
                return False, (r, s)
    return True, None


def _core(ring, elems):
    target = _ass(ring, elems)
    out = 0
    for s in elems:
        if _left_kernel(ring, s) == target:
            out |= 1 << s
    return out


def _closure_escape(ring, elems):
    mask = sum(1 << s for s in elems)
    for s in elems:
        for t in elems:
            if not (mask >> ring.mul[s][t]) & 1:
                return s, t
    return None


def _absorbs_loop(ring, mask, left, right):
    mul = ring.mul
    for h in range(ring.order):
        if not (mask >> h) & 1:
            continue
        for r in range(ring.order):
            if left and not (mask >> mul[r][h]) & 1:
                return (r, h)
            if right and not (mask >> mul[h][r]) & 1:
                return (h, r)
    return None


def _is_additive_subgroup(ring, mask):
    elems = [x for x in range(ring.order) if (mask >> x) & 1]
    return (mask >> ring.zero) & 1 == 1 and all(
        (mask >> ring.add[x][y]) & 1 for x in elems for y in elems
    )


# -- comparison ------------------------------------------------------------


def _compare(ring, sub):
    """Assert agreement on one closed set; return whether it is left Ore."""
    elems = sorted(sub)
    assert closure_escape(ring, sub) is None is _closure_escape(ring, elems)
    assert ass(ring, sub).mask == _ass(ring, elems)
    assert r_ass(ring, sub).mask == _r_ass(ring, elems)
    ore = is_left_ore(ring, sub)
    assert tuple(ore) == _is_left_ore(ring, elems)
    den = is_left_denominator(ring, sub)
    assert tuple(den) == (tuple(ore) if not ore.holds else _reversibility(ring, elems))
    if ore.holds:
        assert core(ring, sub).mask == _core(ring, elems)
        assert max_kernel_elements(ring, sub).mask == _core(ring, elems)
    return ore.holds


def _one_generator_closures(ring):
    for x in range(ring.order):
        try:
            yield mul_closure(ring, [x]).elements
        except ZeroAbsorbed:
            pass


def _random_closures(ring, rng, count):
    for _ in range(count):
        gens = rng.sample(range(ring.order), rng.randint(1, min(3, ring.order)))
        try:
            yield mul_closure(ring, gens).elements
        except ZeroAbsorbed:
            pass


# -- tests -----------------------------------------------------------------


@pytest.mark.parametrize("spec", SMALL + ("opposite(upper_triangular(gf(2),2))",))
def test_every_closed_unital_subset(spec):
    ring = construct(spec)
    n = ring.order
    want = [
        m
        for m in range(1 << n)
        if (m >> ring.one) & 1
        and not (m >> ring.zero) & 1
        and _closure_escape(ring, [x for x in range(n) if (m >> x) & 1]) is None
    ]
    subs = list(closed_unital_subsets(ring))
    assert [s.mask for s in subs] == want
    for sub in subs:
        _compare(ring, sub)


def test_catalog_and_ladder_sets():
    # each ring and, when it differs, its opposite: left Ore fails mostly
    # on the noncommutative rings, and on both sides of them
    rng = random.Random("ore-oracle")
    checked = not_ore = 0
    for spec in DEFAULT_CATALOG + LADDER:
        ring = construct(spec)
        op = opposite(ring)
        for r in [ring] if op == ring else [ring, op]:
            sets = {units(r)}
            sets.update(_one_generator_closures(r))
            sets.update(_random_closures(r, rng, 40))
            for sub in sorted(sets, key=lambda s: s.mask):
                not_ore += not _compare(r, sub)
                checked += 1
    assert checked > 700
    assert not_ore >= 100


def test_closure_messages():
    rng = random.Random("ore-oracle/messages")
    refused = 0
    for spec in DEFAULT_CATALOG:
        ring = construct(spec)
        rest = [x for x in range(ring.order) if x not in (ring.zero, ring.one)]
        for _ in range(10):
            elems = sorted([ring.one] + rng.sample(rest, rng.randint(0, len(rest))))
            escape = _closure_escape(ring, elems)
            sub = CarrierSubset.from_indices(ring.order, elems)
            assert closure_escape(ring, sub) == escape
            if escape is None:
                MulSet(ring, sub)
                check_semigroup(ring, sub)
                continue
            refused += 1
            s, t = escape
            with pytest.raises(ValueError) as e:
                MulSet(ring, sub)
            assert str(e.value) == f"not closed under multiplication: {s}*{t} escapes"
            with pytest.raises(ValueError) as e:
                check_semigroup(ring, sub)
            assert str(e.value) == f"not multiplicatively closed: {s}*{t} escapes"
    assert refused >= 100


@pytest.mark.parametrize("spec", SMALL + ("zmod(12)", "matrix(gf(2),2)", "upper_triangular(gf(3),2)"))
def test_ideal_tests(spec):
    ring = construct(spec)
    rng = random.Random(f"ore-oracle/ideals/{spec}")
    masks = [s.mask for s in two_sided_ideals(ring) + two_sided_ideals(opposite(ring))]
    masks += [rng.getrandbits(ring.order) | (1 << ring.zero) for _ in range(40)]
    for m in masks:
        sub = CarrierSubset(ring.order, m)
        assert is_additive_subgroup(ring, sub) == _is_additive_subgroup(ring, m)
        for left, right in ((True, False), (False, True), (True, True)):
            assert _absorbs(ring, m, left, right) == _absorbs_loop(ring, m, left, right)


# -- the scalar closure walk, kept as a reference ------------------------------


def _scalar_closure(ring, gens):
    """The breadth-first walk mul_closure once was: the closure's mask, or
    the ZeroAbsorbed chain when zero is reached."""
    mul = ring.mul
    members = [ring.one]
    seen = 1 << ring.one
    parents = {}
    queue = [g for g in gens if not (seen >> g) & 1]

    def chain_to(e):
        if e not in parents:
            return []
        x, y = parents[e]
        return chain_to(x) + chain_to(y) + [(x, y, e)]

    while queue:
        x = queue.pop(0)
        if (seen >> x) & 1:
            continue
        if x == ring.zero:
            return chain_to(x) or [(x, ring.one, x)]
        seen |= 1 << x
        members.append(x)
        for m in list(members):
            for a, b in ((x, m), (m, x)):
                p = mul[a][b]
                if not (seen >> p) & 1 and p not in parents:
                    parents[p] = (a, b)
                    queue.append(p)
    return seen


def _closure_or_chain(ring, gens):
    try:
        return mul_closure(ring, gens).mask
    except ZeroAbsorbed as e:
        return list(e.chain)


@pytest.mark.parametrize("spec", DEFAULT_CATALOG)
def test_closures_match_the_scalar_walk(spec):
    ring = construct(spec)
    rng = random.Random(f"ore-oracle/closures/{spec}")
    gen_lists = [[x] for x in range(ring.order)]
    gen_lists += [rng.sample(range(ring.order), 2) for _ in range(30)]
    absorbed = 0
    for gens in gen_lists:
        want = _scalar_closure(ring, gens)
        assert _closure_or_chain(ring, gens) == want, gens
        absorbed += isinstance(want, list)
    assert absorbed  # zero is a generator, so some closure absorbs it
