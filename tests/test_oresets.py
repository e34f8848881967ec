"""Ore/denominator predicates, annihilators, cores, saturation."""

import random

import pytest

from orelab import (
    DEFAULT_CATALOG,
    CarrierSubset,
    MulSet,
    NotOre,
    ZeroAbsorbed,
    ass,
    construct,
    core,
    denominator_sidedness,
    is_left_denominator,
    is_left_ore,
    mul_closure,
    opposite,
    ore_report,
    r_ass,
    saturate,
)
from orelab.oresets import max_kernel_elements


def test_mulset_validation(z6):
    with pytest.raises(ValueError):
        MulSet(z6, [3])  # missing one
    with pytest.raises(ValueError):
        MulSet(z6, [0, 1])  # contains zero
    with pytest.raises(ValueError):
        MulSet(z6, [1, 2])  # 2*2=4 escapes
    assert sorted(MulSet(z6, [1, 3])) == [1, 3]


def test_mul_closure(z6):
    assert sorted(mul_closure(z6, [1, 2])) == [1, 2, 4]
    with pytest.raises(ZeroAbsorbed) as exc:
        mul_closure(z6, [2, 3])  # 2*3 = 0
    assert exc.value.chain  # parent chain names the product that died


def _assert_derivation(ring, gens, chain):
    """Each step (x, y, x*y) multiplies generators, one or earlier products,
    and the last product is zero."""
    assert chain
    made = {ring.one, *gens}
    for x, y, p in chain:
        assert x in made and y in made, (x, y, p)
        assert p == ring.np_mul[x, y]
        made.add(p)
    assert chain[-1][2] == ring.zero


def test_zero_absorbed_chains_are_derivations():
    z256 = construct("zmod(256)")
    for gens in ([2], [2, 3]):
        with pytest.raises(ZeroAbsorbed) as exc:
            mul_closure(z256, gens)
        _assert_derivation(z256, gens, exc.value.chain)
    rng = random.Random("zero-chains")
    absorbed = 0
    for spec in DEFAULT_CATALOG:
        ring = construct(spec)
        gen_lists = [[x] for x in range(ring.order)]
        gen_lists += [rng.sample(range(ring.order), 2) for _ in range(20)]
        for gens in gen_lists:
            try:
                mul_closure(ring, gens)
            except ZeroAbsorbed as e:
                _assert_derivation(ring, gens, e.chain)
                absorbed += 1
    assert absorbed > len(DEFAULT_CATALOG)  # beyond the zero generator of each ring


def test_z6_reference_set(z6):
    s = MulSet(z6, [1, 3])
    assert is_left_ore(s).holds
    assert is_left_denominator(s).holds
    assert sorted(ass(s)) == [0, 2, 4]
    assert sorted(core(s)) == [3]
    assert sorted(saturate(s)) == [1, 3, 5]
    assert denominator_sidedness(s) == "two-sided"


def test_saturation_of_trivial_set_is_units(z6):
    # nothing gets killed, so the saturation is exactly the unit group
    assert sorted(saturate(MulSet(z6, [1]))) == [1, 5]


def test_non_ore_set_has_witness(t2f2):
    # matrices with a = 1: closed, but never at the Ore meeting point
    verdict = is_left_ore(t2f2, CarrierSubset.from_indices(8, [4, 5, 6, 7]))
    assert not verdict.holds
    r, s = verdict.witness
    assert s in (4, 5, 6, 7)


def test_ass_union_structure(t2f2):
    s = CarrierSubset.from_indices(8, [1, 3, 5, 7])
    assert sorted(ass(t2f2, s)) == [0, 2, 4, 6]
    assert is_left_denominator(t2f2, s).holds
    # right annihilator through the opposite ring agrees
    assert r_ass(t2f2, s) == ass(opposite(t2f2), s)


def test_sidedness_split(t2f2):
    assert denominator_sidedness(MulSet(t2f2, [1, 3, 5, 7])) == "left-only"
    assert denominator_sidedness(MulSet(t2f2, [5, 7])) == "two-sided"


def test_core_is_max_kernel_elements(z6, z12, t2f2):
    cases = [
        (z6, [1, 3, 5]),
        (z6, [1, 2, 4]),
        (z12, [1, 5, 7, 11]),
        (t2f2, [1, 3, 5, 7]),
    ]
    for ring, elems in cases:
        s = MulSet(ring, elems)
        assert core(s) == max_kernel_elements(s)


def test_core_of_faithful_set_is_everything(z6):
    s = MulSet(z6, [1, 5])
    assert sorted(core(s)) == [1, 5]
    assert sorted(ass(s)) == [0]


def test_core_requires_ore(t2f2):
    with pytest.raises(NotOre):
        core(t2f2, CarrierSubset.from_indices(8, [4, 5, 6, 7]))


def test_ore_report_bundle(z6):
    rep = ore_report(MulSet(z6, [1, 3]))
    assert rep.left_ore.holds and rep.left_denominator.holds
    assert sorted(rep.annihilator) == [0, 2, 4]
    assert sorted(rep.core) == [3]
    assert not rep.core_empty
    assert sorted(rep.saturation) == [1, 3, 5]
    doc = rep.to_doc()
    assert doc["sidedness"] == "two-sided"
    assert doc["ass"] == [0, 2, 4]


def test_saturation_is_idempotent_and_monotone(z6, z12):
    for ring, elems in ((z6, [1, 3]), (z6, [1, 4]), (z12, [1, 5])):
        s = MulSet(ring, elems)
        sat = saturate(s)
        assert s.elements.issubset(sat.elements)
        assert saturate(sat) == sat
        assert ass(sat) == ass(s)


def test_brute_denominator_enumeration_z6(z6):
    from orelab import brute_force_denominator_sets

    found = [sorted(s) for s in brute_force_denominator_sets(z6)]
    assert found == [
        [1],
        [1, 3],
        [1, 4],
        [1, 5],
        [1, 2, 4],
        [1, 3, 5],
        [1, 2, 4, 5],
    ]
