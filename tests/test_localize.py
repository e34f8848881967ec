"""Fraction ring construction and its structural cross-checks."""

import pytest

from orelab import (
    CarrierSubset,
    MulSet,
    NotDenominator,
    NotOre,
    ass,
    brute_force_denominator_sets,
    build_fraction_ring,
    canonical_hash,
    classical_left_quotient,
    construct,
    core,
    core_transfer_isomorphism,
    largest_left_quotient,
    quotient,
    quotient_model_isomorphism,
    saturated_denominator_sets,
    units,
)
from orelab.rings import additive_generators


def test_z6_fraction_ring_at_1_3(z6):
    fr = build_fraction_ring(z6, MulSet(z6, [1, 3]))
    assert fr.ring.order == 2
    assert sorted(fr.sigma.kernel()) == [0, 2, 4]
    # 3 becomes a unit, and 3\3 is the identity fraction
    assert fr.class_of(3, 3) == fr.ring.one
    assert fr.class_of(1, 3) == fr.ring.one  # 3 = 1 mod ass
    assert fr.class_of(1, 2) == fr.ring.zero  # 2 is killed
    assert fr.class_of(3, 0) == fr.ring.zero


def test_class_of_rejects_non_pairs(z6):
    fr = build_fraction_ring(z6, MulSet(z6, [1, 3]))
    with pytest.raises(ValueError):
        fr.class_of(2, 1)  # 2 is not in the denominator set
    # an array index would wrap these round to other pairs
    for s, r in ((1, -1), (1, 6), (-1, 1)):
        with pytest.raises(ValueError):
            fr.class_of(s, r)


def test_fraction_ring_inverts_exactly_the_set(z6):
    fr = build_fraction_ring(z6, MulSet(z6, [1, 2, 4]))
    u = units(fr.ring)
    inverted = [r for r in range(6) if fr.sigma(r) in u]
    assert inverted == [1, 2, 4, 5]  # the saturation, not just the set


def test_quotient_model(z6):
    fr = build_fraction_ring(z6, MulSet(z6, [1, 3]))
    theta = quotient_model_isomorphism(fr)
    q, _ = quotient(z6, fr.sigma.kernel())
    assert theta.source is q or theta.source.order == q.order
    assert theta.is_bijective()


def test_core_transfer(z6):
    fr = build_fraction_ring(z6, MulSet(z6, [1, 3, 5]))
    cfr, theta = core_transfer_isomorphism(fr)
    assert sorted(cfr.dens) == [3]
    assert theta.is_bijective()
    assert cfr.ring.order == fr.ring.order == 2


def test_core_localization_without_one(t2f2):
    # cores need not contain the identity; the build must cope
    fr = build_fraction_ring(t2f2, CarrierSubset.from_indices(8, [1, 3, 5, 7]))
    cfr, theta = core_transfer_isomorphism(fr)
    assert theta.is_bijective()


def test_not_denominator_raises(t2f2):
    with pytest.raises((NotDenominator, NotOre)):
        build_fraction_ring(t2f2, CarrierSubset.from_indices(8, [4, 5, 6, 7]))


def test_largest_quotient_collapses_on_finite_rings(z6, z4, m2f2):
    for ring in (z6, z4, m2f2):
        lq = largest_left_quotient(ring)
        assert sorted(lq.regular_set) == sorted(units(ring))
        assert lq.fractions.sigma.is_bijective()
        assert classical_left_quotient(ring).ring.order == ring.order


def test_fraction_ring_t2f2(t2f2):
    fr = build_fraction_ring(t2f2, CarrierSubset.from_indices(8, [1, 3, 5, 7]))
    assert fr.ring.order == 2
    assert sorted(fr.sigma.kernel()) == [0, 2, 4, 6]
    assert canonical_hash(fr.ring) == canonical_hash(construct("gf(2)"))


def test_larger_ring_is_checked_on_every_pair(z12):
    # the certificate has no order cutoff: a build above order 8 is
    # checked on every pair, exactly as a small one
    fr = build_fraction_ring(z12, MulSet(z12, [1, 5, 7, 11]))
    assert fr.ring.order == 12
    assert fr.sigma.is_bijective()


def test_fraction_doc(z6):
    fr = build_fraction_ring(z6, MulSet(z6, [1, 3]))
    doc = fr.to_doc()
    assert doc["order"] == 2
    assert doc["denominators"] == [1, 3]
    assert doc["base_hash"] == canonical_hash(z6)
    assert len(doc["sigma"]) == 6


def test_zero_ring_never_appears(z6):
    # no denominator set may invert something in its own annihilator,
    # so the fraction ring always keeps 1 != 0
    for elems in ([1], [1, 3], [1, 4], [1, 5], [1, 2, 4], [1, 3, 5], [1, 2, 4, 5]):
        fr = build_fraction_ring(z6, MulSet(z6, elems))
        assert fr.ring.order >= 2


def _ore_related(ring, dens):
    """Reference for the pair relation, read off its definition: (s, r) and
    (t, q) are related when c*s = d*t lies in S and c*r = d*q for some c, d."""
    n, mul = ring.order, ring.mul
    pairs = [(s, r) for s in sorted(dens) for r in range(n)]
    # (c*s, c*r) over every c with c*s in S; two pairs are related exactly
    # when these images meet
    images = {
        (s, r): {(mul[c][s], mul[c][r]) for c in range(n) if mul[c][s] in dens}
        for s, r in pairs
    }
    return {(p, q): bool(images[p] & images[q]) for p in pairs for q in pairs}


def _assert_classes_match_definition(ring, dens):
    fr = build_fraction_ring(ring, dens)
    related = _ore_related(ring, fr.dens)
    pairs = sorted({p for p, _ in related})
    # pair_class holds every pair, (s, r) at row(s)*n + r
    pair_class = {p: fr.class_of(*p) for p in pairs}
    assert list(pair_class.values()) == fr.pair_class.tolist()
    for (p, q), rel in related.items():
        assert (pair_class[p] == pair_class[q]) == rel, (sorted(fr.dens), p, q)
    # classes are numbered by their least pair
    least = {}
    for p, cls in pair_class.items():
        least[cls] = min(least.get(cls, p), p)
    assert [least[i] for i in range(len(fr.reps))] == list(fr.reps) == sorted(fr.reps)


def test_pair_classes_match_the_ore_relation(catalog_rings):
    small = [ring for ring in catalog_rings.values() if ring.order <= 8]
    for ring in small:
        for mset in brute_force_denominator_sets(ring):
            _assert_classes_match_definition(ring, mset.elements)
            _assert_classes_match_definition(ring, core(ring, mset.elements))
    for spec in ("zmod(12)", "matrix(gf(2),2)"):
        ring = catalog_rings[spec]
        _assert_classes_match_definition(ring, units(ring))
        for mset in saturated_denominator_sets(ring).values():
            _assert_classes_match_definition(ring, mset.elements)


def _assert_classes_match_quotient(ring, dens):
    """(s, r) and (t, q) share a class exactly when pi(s)^-1 pi(r) equals
    pi(t)^-1 pi(q) in R/ass(S), read off quotient and units alone."""
    q, proj = quotient(ring, ass(ring, dens))
    q_units = units(q)
    inverse = {u: next(v for v in q_units if q.mul[u][v] == q.one) for u in q_units}
    fr = build_fraction_ring(ring, dens)
    value_of_class = {}
    class_of_value = {}
    for s in dens:
        assert proj(s) in q_units
        for r in range(ring.order):
            cls = fr.class_of(s, r)
            value = q.mul[inverse[proj(s)]][proj(r)]
            assert value_of_class.setdefault(cls, value) == value, (s, r)
            assert class_of_value.setdefault(value, cls) == cls, (s, r)
    assert len(fr.pair_class) == len(dens) * ring.order


def test_pair_classes_match_the_quotient_at_larger_orders():
    several_generators = 0
    for spec in (
        "zmod(64)",
        "product(zmod(8),zmod(9))",
        "upper_triangular(gf(4),2)",
        "matrix(gf(3),2)",
        "product(gf(4),gf(8),gf(5))",
    ):
        ring = construct(spec)
        sets = [units(ring)] + [m.elements for m in saturated_denominator_sets(ring).values()]
        for dens in sets:
            _assert_classes_match_quotient(ring, dens)
            several_generators += len(additive_generators(ring, ass(ring, dens))) > 1
    assert several_generators > 0
