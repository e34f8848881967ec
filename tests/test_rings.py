"""Core table arithmetic: axioms, subsets, ideals, quotients, products."""

import itertools
from collections import Counter

import numpy as np
import pytest

from orelab import (
    AxiomViolation,
    CarrierSubset,
    FiniteRing,
    Guards,
    MulSet,
    RingMap,
    SizeGuardExceeded,
    canonical_hash,
    construct,
    direct_product,
    from_tables,
    ideal_closure,
    induced_map,
    is_division_ring,
    is_semiprime,
    left_ideals,
    minimal_primes,
    opposite,
    quotient,
    regular_elements,
    two_sided_ideals,
    uniform_dimension,
    units,
)
from orelab.rings import _absorbs, _additive_closure, mask_members, members_mask, subgroup_sum


def additive_subgroups(ring):
    """All additive subgroups, grown one generator at a time from {0}.

    Every subgroup arises by adjoining its elements one by one, so this
    closure walk reaches all of them without touching the 2^n subsets.
    """
    n = ring.order
    seen = {1 << ring.zero}
    frontier = set(seen)
    while frontier:
        grown = {
            members_mask(_additive_closure(ring, mask_members(n, h | 1 << x)))
            for h in frontier
            for x in range(n)
            if not h >> x & 1
        }
        frontier = grown - seen
        seen |= grown
    return [CarrierSubset(n, m) for m in seen]


def test_zmod_tables(z6):
    assert z6.order == 6
    assert z6.add[4][5] == 3
    assert z6.mul[4][5] == 2
    assert z6.one == 1 and z6.zero == 0
    assert z6.np_add[2, 4] == z6.zero


def test_axiom_violation_reports_first_witness():
    add = [[(a + b) % 3 for b in range(3)] for a in range(3)]
    mul = [[(a * b) % 3 for b in range(3)] for a in range(3)]
    mul[2][2] = 2  # breaks associativity and distributivity
    with pytest.raises(AxiomViolation) as exc:
        from_tables(3, add, mul, zero=0, one=1)
    assert exc.value.witness is not None


def test_bad_identity_rejected():
    add = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    mul = [[(a * b) % 4 for b in range(4)] for a in range(4)]
    with pytest.raises(AxiomViolation):
        from_tables(4, add, mul, zero=0, one=2)


def test_repeated_names_rejected():
    add = [[(a + b) % 3 for b in range(3)] for a in range(3)]
    mul = [[(a * b) % 3 for b in range(3)] for a in range(3)]
    with pytest.raises(ValueError, match="names must be distinct"):
        FiniteRing(3, add, mul, 0, 1, ("0", "1", "1"))
    assert FiniteRing(3, add, mul, 0, 1, ("0", "1", "-1")).names == ("0", "1", "-1")


def test_carrier_subset_ops():
    s = CarrierSubset.from_indices(6, [1, 3, 5])
    t = CarrierSubset.from_indices(6, [3, 4])
    assert list(s & t) == [3]
    assert list(s | t) == [1, 3, 4, 5]
    assert list(s - t) == [1, 5]
    assert (s & t).issubset(s)
    assert s.complement() == CarrierSubset.from_indices(6, [0, 2, 4])
    assert len(CarrierSubset.full(6)) == 6
    assert not CarrierSubset.empty(6)
    assert s != CarrierSubset.from_indices(7, [1, 3, 5])  # different carrier


@pytest.mark.parametrize("n", [8, 128])
def test_carrier_subset_takes_numpy_integers(n):
    idx = list(range(1, n, 3))
    py = CarrierSubset.from_indices(n, idx)
    for numpy_idx in (np.array(idx), [np.int64(i) for i in idx]):
        assert CarrierSubset.from_indices(n, numpy_idx) == py
    low = py.mask & (2**63 - 1)
    assert str(CarrierSubset(n, np.int64(low))) == str(CarrierSubset(n, low))
    assert str(CarrierSubset.from_indices(n, np.array(idx))) == str(py)
    for i in range(n):
        assert (np.int64(i) in py) == (i in py) == (i % 3 == 1)
    with pytest.raises(TypeError):
        CarrierSubset.from_indices(n, [1.0])
    for bad, first in (([0, n, -1], n), ([-1, 0], -1)):  # an index array is range-checked as a list is
        for given in (bad, np.array(bad)):
            with pytest.raises(ValueError, match=f"^index {first} outside carrier of size {n}$"):
                CarrierSubset.from_indices(n, given)
    with pytest.raises(TypeError):
        1.0 in py


def test_numpy_elements_make_the_unit_group_of_zmod_128():
    ring = construct("zmod(128)")
    assert np.int64(3) in units(ring)
    assert MulSet(ring, np.arange(1, 128, 2)).elements == units(ring)


def test_units_and_regular_elements(z6, z4, t2f2, m2f2):
    assert sorted(units(z6)) == [1, 5]
    assert sorted(units(z4)) == [1, 3]
    assert sorted(units(t2f2)) == [5, 7]
    assert len(units(m2f2)) == 6
    # on a finite ring a regular element is already invertible
    for ring in (z6, z4, t2f2, m2f2):
        assert regular_elements(ring) == units(ring)


def test_division_ring_detection(m2f2):
    assert is_division_ring(construct("gf(8)"))
    assert is_division_ring(construct("zmod(7)"))
    assert not is_division_ring(construct("zmod(6)"))
    assert not is_division_ring(m2f2)


def test_two_sided_ideals_z12(z12):
    ideals = two_sided_ideals(z12)
    expected = [
        [0],
        [0, 6],
        [0, 4, 8],
        [0, 3, 6, 9],
        [0, 2, 4, 6, 8, 10],
        list(range(12)),
    ]
    assert [sorted(i) for i in ideals] == expected


def test_ideal_lattices_t2f2(t2f2):
    two = [sorted(i) for i in two_sided_ideals(t2f2)]
    assert two == [[0], [0, 2], [0, 1, 2, 3], [0, 2, 4, 6], list(range(8))]
    left = [sorted(i) for i in left_ideals(t2f2)]
    assert [0, 4] in left and [0, 6] in left
    assert len(left) == 7


def test_ideal_lattice_matches_subgroup_filter(z6, t2f2, m2f2):
    # independent oracle: filter the full additive subgroup lattice
    for ring in (z6, t2f2, m2f2):
        subs = additive_subgroups(ring)
        want_two = {s.mask for s in subs if _absorbs(ring, s.mask, True, True) is None}
        want_left = {s.mask for s in subs if _absorbs(ring, s.mask, True, False) is None}
        assert {i.mask for i in two_sided_ideals(ring)} == want_two
        assert {i.mask for i in left_ideals(ring)} == want_left


def test_ideal_closure(z12, t2f2):
    assert sorted(ideal_closure(z12, [8])) == [0, 4, 8]
    # a strictly upper triangular generator spans the 2-element ideal
    assert sorted(ideal_closure(t2f2, [2])) == [0, 2]
    assert sorted(ideal_closure(t2f2, [2], side="left")) == [0, 2]
    # (0 0; 0 1) generates different ideals on each side
    assert sorted(ideal_closure(t2f2, [1], side="left")) == [0, 1, 2, 3]
    assert sorted(ideal_closure(t2f2, [1], side="right")) == [0, 1]


def test_ideal_enumeration_guard():
    ring = construct("zmod(16)")
    with pytest.raises(SizeGuardExceeded):
        two_sided_ideals(ring, Guards(order=8, left_ideals=8, brute_force=8))


def test_quotient_z12_by_4_is_z4(z12, z4):
    ideal = CarrierSubset.from_indices(12, [0, 4, 8])
    q, proj = quotient(z12, ideal)
    assert q.order == 4
    assert proj.kernel() == ideal
    assert proj.is_surjective()
    assert canonical_hash(q) == canonical_hash(z4)


def test_quotient_rejects_non_ideal(z6):
    with pytest.raises(Exception):
        quotient(z6, CarrierSubset.from_indices(6, [0, 1]))


def test_direct_product_crt(z6):
    prod = direct_product(construct("zmod(2)"), construct("zmod(3)"))
    assert prod.ring.order == 6
    table = tuple(prod.encode([x % 2, x % 3]) for x in range(6))
    crt = RingMap(z6, prod.ring, table)
    assert crt.is_bijective()
    # encode/decode round trip, leftmost factor most significant
    assert prod.decode(prod.encode([1, 2])) == (1, 2)
    assert prod.projections[0](prod.encode([1, 2])) == 1


def test_induced_map_between_quotients(z12):
    _, to4 = quotient(z12, ideal_closure(z12, [4]))
    _, to2 = quotient(z12, ideal_closure(z12, [2]))
    h = induced_map(to4, to2)  # Z/4 -> Z/2
    assert (h.source.order, h.target.order) == (4, 2)
    assert h.is_surjective() and not h.is_bijective()
    assert h.compose(to4).table.tolist() == to2.table.tolist()
    with pytest.raises(ValueError, match="ill-defined"):
        induced_map(to2, to4)  # 0 and 2 in Z/12 agree mod 2, not mod 4


def test_induced_map_refuses_a_map_that_is_not_onto():
    f2 = construct("gf(2)")
    prod = direct_product(f2, f2)
    diagonal = RingMap(f2, prod.ring, tuple(prod.encode([x, x]) for x in range(2)))
    with pytest.raises(ValueError, match="not in the image"):
        induced_map(diagonal, RingMap.identity(f2))


def test_preimage_matches_its_definition(z12):
    _, to4 = quotient(z12, ideal_closure(z12, [4]))
    for mask in range(1 << 4):
        sub = CarrierSubset(4, mask)
        want = {x for x in range(12) if to4(x) in sub}
        assert set(to4.preimage(sub)) == want


def test_opposite_ring(t2f2, z6):
    op = opposite(t2f2)
    assert op.mul[1][2] == t2f2.mul[2][1]
    assert canonical_hash(opposite(op)) == canonical_hash(t2f2)
    # commutative ring is its own opposite
    assert canonical_hash(opposite(z6)) == canonical_hash(z6)


def test_ring_map_rejects_non_homomorphism(z6):
    with pytest.raises(ValueError):
        RingMap(z6, z6, (0, 1, 3, 2, 4, 5))


def test_ring_map_refuses_values_outside_the_target(z6):
    # past int64 as well as past the target: the same refusal, not an OverflowError
    for bad in (6, -1, 2**63, 2**70, -(2**70)):
        with pytest.raises(ValueError, match="^map value outside target carrier$"):
            RingMap(z6, z6, (0, 1, 2, 3, 4, bad))
    with pytest.raises(ValueError, match="length"):
        RingMap(z6, z6, (0, 1, 2, 3, 4, 2**70, 0))  # the length is checked first


def test_ring_map_table_is_a_read_only_index_array(z12):
    f = RingMap(z12, construct("zmod(4)"), [x % 4 for x in range(12)])
    assert f.table.dtype == np.intp and not f.table.flags.writeable
    assert f(7) == 3 and type(f(7)) is int
    F = np.arange(12) % 4
    g = RingMap(z12, f.target, F)
    assert g.table is not F and F.flags.writeable  # copied, the caller's array untouched
    assert f != g and f == f  # maps compare by identity


def _first_map_failure(src, tgt, f):
    """Reference for RingMap's law check: a loop over the pairs in row-major order."""
    for x in range(src.order):
        for y in range(src.order):
            if f[src.add[x][y]] != tgt.add[f[x]][f[y]]:
                return f"map not additive at ({x}, {y})"
            if f[src.mul[x][y]] != tgt.mul[f[x]][f[y]]:
                return f"map not multiplicative at ({x}, {y})"
    return None


def test_ring_map_reports_the_first_failing_pair(z6, z12):
    f2 = construct("gf(2)")
    valid = [
        RingMap.identity(z6),
        RingMap(z12, construct("zmod(4)"), tuple(x % 4 for x in range(12))),
        direct_product(f2, f2).projections[1],
    ]
    broken = 0
    for good in valid:
        src, tgt = good.source, good.target
        for x in range(src.order):
            if x == src.one:
                continue
            for v in range(tgt.order):
                if v == good(x):
                    continue
                table = list(good.table)
                table[x] = v
                want = _first_map_failure(src, tgt, table)
                assert want is not None
                with pytest.raises(ValueError) as exc:
                    RingMap(src, tgt, tuple(table))
                assert str(exc.value) == want
                broken += 1
    assert broken == 25 + 33 + 3
    # every table on gf(4) fixing one: two homomorphisms, the rest fail
    # additively or, for the maps killing a generator, multiplicatively
    f4 = construct("gf(4)")
    kinds = Counter()
    for table in itertools.product(range(4), repeat=4):
        if table[f4.one] != f4.one:
            continue
        want = _first_map_failure(f4, f4, table)
        if want is None:
            RingMap(f4, f4, table)
        else:
            with pytest.raises(ValueError) as exc:
                RingMap(f4, f4, table)
            assert str(exc.value) == want
        kinds[want and want.split()[2]] += 1
    assert kinds == {None: 2, "additive": 60, "multiplicative": 2}


def test_minimal_primes_and_semiprimeness(z6, z4, z12, t2f2, m2f2):
    mins = {tuple(sorted(p)) for p in minimal_primes(z6)}
    assert mins == {(0, 2, 4), (0, 3)}
    assert is_semiprime(z6)
    assert not is_semiprime(z4)
    assert not is_semiprime(z12)
    assert not is_semiprime(t2f2)  # strictly upper ideal squares to zero
    assert is_semiprime(m2f2)
    assert minimal_primes(m2f2) == [CarrierSubset.from_indices(16, [0])]


def test_uniform_dimension(z6, z12, m2f2, t2f2):
    assert uniform_dimension(construct("gf(4)")) == 1
    assert uniform_dimension(z6) == 2
    assert uniform_dimension(z12) == 2
    assert uniform_dimension(m2f2) == 2
    assert uniform_dimension(t2f2) == 2


def test_subgroup_sum(z12):
    a = CarrierSubset.from_indices(12, [0, 4, 8])
    b = CarrierSubset.from_indices(12, [0, 6])
    assert sorted(subgroup_sum(z12, a, b)) == [0, 2, 4, 6, 8, 10]


def test_numpy_table_views(z6):
    assert isinstance(z6.np_add, np.ndarray)
    assert z6.np_add[4, 5] == 3
    assert z6.np_mul.dtype.kind == "i"


def _t2f2_tables():
    ring = construct("upper_triangular(gf(2),2)")
    return ring, [list(row) for row in ring.add], [list(row) for row in ring.mul]


def test_one_representation_from_any_input():
    ring, add, mul = _t2f2_tables()
    args = (ring.zero, ring.one)
    built = [
        from_tables(8, add, mul, *args),
        from_tables(8, tuple(map(tuple, add)), tuple(map(tuple, mul)), *args),
        from_tables(8, np.array(add), np.array(mul, dtype=np.int32), *args),
        # column-major views, like the transpose that opposite passes
        from_tables(8, np.array(add).T, np.array(mul).T.copy().T, *args),
    ]
    for r in built:
        assert r == ring and hash(r) == hash(ring)
        assert r.add == ring.add and r.mul == ring.mul
        assert r.np_add.dtype == np.int64 and r.np_add.flags.c_contiguous
        assert r.np_mul.flags.c_contiguous
    assert opposite(ring).np_mul.flags.c_contiguous
    assert opposite(ring) != ring
    assert opposite(opposite(ring)) == ring


def test_ring_copies_its_tables_and_keeps_them_read_only():
    ring, add, mul = _t2f2_tables()
    a, m = np.array(add), np.array(mul)
    r = from_tables(8, a, m, ring.zero, ring.one)
    a[:] = 0
    m[1, 1] = 5
    assert r == ring and r.add == ring.add and r.mul == ring.mul
    with pytest.raises(ValueError):
        r.np_add[0, 0] = 1
    with pytest.raises(ValueError):
        r.np_mul[1, 1] = 0


def test_ragged_table_keeps_its_value_error():
    ring, add, mul = _t2f2_tables()
    with pytest.raises(ValueError, match="add table is not 8x8"):
        from_tables(8, add[:-1] + [add[-1][:-1]], mul, ring.zero, ring.one)
    with pytest.raises(ValueError, match="mul table is not 8x8"):
        from_tables(8, add, mul[:-1], ring.zero, ring.one)
    with pytest.raises(ValueError, match="add table is not 2x2"):
        from_tables(2, [2**70, 1], [[0, 0], [0, 1]], 0, 1)


def test_oversized_entry_is_a_closure_violation():
    add = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    mul = [[(a * b) % 4 for b in range(4)] for a in range(4)]
    for big in (2**70, -(2**70), 99999999999999999999999):
        bad = [row[:] for row in mul]
        bad[1][2] = big
        with pytest.raises(AxiomViolation) as exc:
            from_tables(4, add, bad, 0, 1)
        assert exc.value.law == "closure" and exc.value.witness == ("mul", 1, 2)
    # witnesses keep their order: add before mul, then row-major
    bad_add = [row[:] for row in add]
    bad_add[3][3] = 9
    bad_mul = [row[:] for row in mul]
    bad_mul[0][0] = 2**70
    with pytest.raises(AxiomViolation) as exc:
        from_tables(4, bad_add, bad_mul, 0, 1)
    assert exc.value.witness == ("add", 3, 3)
    bad_mul[0][1] = 2**70
    with pytest.raises(AxiomViolation) as exc:
        from_tables(4, add, bad_mul, 0, 1)
    assert exc.value.witness == ("mul", 0, 0)
