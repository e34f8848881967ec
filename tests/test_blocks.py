"""Blocks first: a ring with several blocks gets its ideal lattice and its
saturated family from its blocks.

The oracle is the whole-ring walk: ``_ideal_lattice(ring, "two")`` for
the lattice, and for the family one quotient R/a per proper ideal a,
whose unit pullback is kept when its annihilator is a and it passes the
denominator test.  The lift must match both mask for mask and in order.
"""

import functools
import random

import pytest
from test_ideal_reference import _relabelled

from orelab import (
    DEFAULT_CATALOG,
    CarrierSubset,
    InternalInconsistency,
    construct,
    localization_profile,
    opposite,
    product_decomposition,
    quotient,
    saturated_denominator_sets,
    two_sided_ideals,
    unit_pullback,
)
from orelab import maxden, rings
from orelab.oresets import ass, is_left_denominator
from orelab.rings import _ideal_lattice, central_blocks

EIGHT_FIELDS = "product(" + ",".join(["gf(2)"] * 8) + ")"
MULTI_BLOCK = tuple(spec for spec in DEFAULT_CATALOG if central_blocks(construct(spec)))


def _family_by_quotients(ring):
    out = []
    for a in _ideal_lattice(ring, "two"):
        if len(a) == ring.order:
            continue
        t = unit_pullback(quotient(ring, a)[1])
        if ass(ring, t) == a and is_left_denominator(ring, t).holds:
            out.append((a.mask, t.mask))
    return out


def _variants(spec):
    ring = construct(spec)
    rings = [ring] + [_relabelled(ring, random.Random(seed)) for seed in (1, 2)]
    return rings + [opposite(r) for r in rings]


def test_the_catalog_has_multi_block_rings():
    assert {"zmod(6)", "zmod(12)", "product(gf(2),gf(2),gf(2))", "product(zmod(4),zmod(9))"} <= set(MULTI_BLOCK)
    assert "zmod(8)" not in MULTI_BLOCK and "matrix(gf(2),2)" not in MULTI_BLOCK


@pytest.mark.parametrize("spec", MULTI_BLOCK + (EIGHT_FIELDS,))
def test_lifted_lattice_and_family_match_the_whole_ring_walk(spec):
    variants = _variants(spec) if spec != EIGHT_FIELDS else [construct(spec)]
    for ring in variants:
        assert len(central_blocks(ring)) >= 2
        assert [a.mask for a in two_sided_ideals(ring)] == [a.mask for a in _ideal_lattice(ring, "two")]
        family = saturated_denominator_sets(ring)
        assert [(a.mask, s.mask) for a, s in family.items()] == _family_by_quotients(ring)


def test_central_blocks():
    assert sorted(p.target.order for p in central_blocks(construct("zmod(12)"))) == [3, 4]
    assert central_blocks(construct("matrix(gf(2),2)")) == ()
    assert central_blocks(construct("zmod(8)")) == ()
    blocks = central_blocks(construct("product(gf(2),gf(2),gf(2))"))
    assert [p.target.order for p in blocks] == [2, 2, 2]
    # each kernel is the 4 elements whose coordinate in that block is 0
    assert [len(p.kernel()) for p in blocks] == [4, 4, 4]
    assert CarrierSubset.meet(8, (p.kernel() for p in blocks)) == CarrierSubset(8, 1)


@pytest.mark.parametrize("spec", ["zmod(6)", "product(gf(2),gf(3),gf(5))"])
def test_route_4_must_split_into_the_blocks(monkeypatch, spec):
    # once() calls central_blocks through orelab.rings, so the reversed
    # blocks reach every caller; route 4's factors then differ from them,
    # both inside a profile and in a direct call outside any analysis
    original = rings.central_blocks

    @functools.wraps(original)
    def reversed_blocks(ring):
        return original(ring)[::-1]

    monkeypatch.setattr(rings, "central_blocks", reversed_blocks)
    with pytest.raises(InternalInconsistency, match="not the split into blocks"):
        localization_profile(construct(spec))
    with pytest.raises(InternalInconsistency, match="not the split into blocks"):
        product_decomposition(construct(spec))


def test_the_verdict_must_match_the_squares(monkeypatch):
    # Wedderburn: a finite ring is localizable exactly when no nonzero
    # element squares to 0; a flipped verdict is caught after the routes
    original = maxden.LocalizabilityVerdict

    def flipped(localizable, partial, routes):
        return original(not localizable, partial, routes)

    monkeypatch.setattr(maxden, "LocalizabilityVerdict", flipped)
    for spec in ("zmod(6)", "zmod(4)"):
        with pytest.raises(InternalInconsistency, match="squares"):
            localization_profile(construct(spec))
