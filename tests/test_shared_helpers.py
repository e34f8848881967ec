"""The helpers that localize, maxden and laws share from rings: the
R-isomorphism check, the coordinate map into a product, intersections,
the zero ideal and the image of X x Y under a table."""

import random

import numpy as np
import pytest

from orelab import (
    DEFAULT_CATALOG,
    CarrierSubset,
    RingMap,
    construct,
    direct_product,
    from_tables,
    parse_spec,
    product_decomposition,
    quotient,
)
from orelab.rings import ideal_closure, r_isomorphism, table_image, zero_ideal


def _relabelled(ring, rng):
    perm = np.array(rng.sample(range(ring.order), ring.order))
    add = np.empty_like(ring.np_add)
    mul = np.empty_like(ring.np_mul)
    add[np.ix_(perm, perm)] = perm[ring.np_add]
    mul[np.ix_(perm, perm)] = perm[ring.np_mul]
    return from_tables(ring.order, add, mul, perm[ring.zero], perm[ring.one])


@pytest.mark.parametrize("spec", DEFAULT_CATALOG)
def test_r_isomorphism_accepts_every_quotient_model(catalog_rings, catalog_profiles, spec):
    ring = catalog_rings[spec]
    for fr in catalog_profiles[spec].localizations:
        proj = quotient(ring, fr.sigma.kernel())[1]
        theta = r_isomorphism(proj, fr.sigma)
        assert theta.is_bijective()
        assert all(theta(proj(x)) == fr.sigma(x) for x in range(ring.order))


def test_r_isomorphism_refuses_each_failure(z12):
    to4 = quotient(z12, ideal_closure(z12, [4]))[1]
    to2 = quotient(z12, ideal_closure(z12, [2]))[1]
    f2 = construct("gf(2)")
    prod = direct_product(f2, f2)
    diagonal = RingMap(f2, prod.ring, tuple(prod.encode([x, x]) for x in range(2)))
    with pytest.raises(ValueError, match="not in the image"):
        r_isomorphism(diagonal, RingMap.identity(f2))  # f is not onto
    with pytest.raises(ValueError, match="ill-defined on the fibre"):
        r_isomorphism(to2, to4)  # 0 and 2 agree mod 2, not mod 4
    with pytest.raises(ValueError, match="not bijective"):
        r_isomorphism(RingMap.identity(z12), to4)  # h is to4 itself, onto but not one-to-one
    assert r_isomorphism(to4, to4).is_bijective()


def _encoded(product, maps, n):
    return tuple(product.encode([m(x) for m in maps]) for x in range(n))


@pytest.mark.parametrize("spec", [s for s in DEFAULT_CATALOG if s.startswith("product(")])
def test_coordinate_map_of_a_catalog_product_is_the_encode_loop(spec):
    factors = [construct(a) for a in parse_spec(spec).args]
    prod = direct_product(*factors)
    coords = prod.coordinate_map(prod.projections)
    assert tuple(coords.table.tolist()) == _encoded(prod, prod.projections, prod.ring.order)
    assert tuple(coords.table.tolist()) == tuple(range(prod.ring.order))


def test_coordinate_map_is_the_splitting_iso(catalog_rings):
    split = 0
    for ring in catalog_rings.values():
        dec = product_decomposition(ring)
        if dec.succeeded:
            split += 1
            prod = direct_product(*dec.factors)
            coords = prod.coordinate_map(dec.projections)
            assert tuple(coords.table.tolist()) == tuple(dec.iso.table.tolist()) == _encoded(prod, dec.projections, ring.order)
    assert split >= 2


def test_coordinate_map_needs_one_map_per_factor():
    prod = direct_product(construct("gf(2)"), construct("gf(3)"))
    with pytest.raises(ValueError, match="1 maps for 2 factors"):
        prod.coordinate_map(prod.projections[:1])


def test_meet():
    assert CarrierSubset.meet(5, []) == CarrierSubset.full(5)
    subsets = [CarrierSubset.from_indices(6, xs) for xs in ([0, 1, 2, 3], [1, 2, 5], [2, 1, 4])]
    assert CarrierSubset.meet(6, subsets) == subsets[0] & subsets[1] & subsets[2]
    assert sorted(CarrierSubset.meet(6, iter(subsets))) == [1, 2]


@pytest.mark.parametrize("spec", ["zmod(12)", "upper_triangular(gf(2),2)", "product(gf(2),gf(3))"])
def test_zero_ideal_on_relabelled_rings(spec):
    rng = random.Random(spec)
    for ring in [construct(spec)] + [_relabelled(construct(spec), rng) for _ in range(3)]:
        assert zero_ideal(ring) == CarrierSubset.from_indices(ring.order, [ring.zero])


@pytest.mark.parametrize("spec", ["zmod(12)", "matrix(gf(2),2)", "upper_triangular(gf(3),2)"])
def test_table_image_is_the_set_comprehension(spec):
    ring = construct(spec)
    rng = random.Random(spec)
    for table in (ring.np_add, ring.np_mul):
        for _ in range(20):
            xs = rng.sample(range(ring.order), rng.randint(0, ring.order))
            ys = rng.sample(range(ring.order), rng.randint(0, ring.order))
            want = {int(table[x, y]) for x in xs for y in ys}
            assert set(table_image(table, xs, ys)) == want
            assert table_image(table, np.array(xs, dtype=np.int64), np.array(ys, dtype=np.int64)).n == ring.order
