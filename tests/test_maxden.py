"""Saturated families, maximal denominator sets, profiles, splittings."""

import functools
import random
from dataclasses import replace

import pytest
from test_ideal_reference import _relabelled

from orelab import (
    DEFAULT_CATALOG,
    CarrierSubset,
    Guards,
    InternalInconsistency,
    SizeGuardExceeded,
    brute_force_denominator_sets,
    construct,
    direct_product,
    is_left_localizable,
    is_localization_maximal,
    left_localization_radical,
    localization_profile,
    max_den,
    product_decomposition,
    quotient,
    saturated_denominator_sets,
    sided_profiles,
    units,
)
from orelab import localize

WIDE_GUARDS = Guards(order=256, left_ideals=64, brute_force=16)


def test_saturated_family_z6(z6):
    fam = saturated_denominator_sets(z6)
    got = {tuple(sorted(a)): tuple(sorted(s)) for a, s in fam.items()}
    assert got == {
        (0,): (1, 5),
        (0, 3): (1, 2, 4, 5),
        (0, 2, 4): (1, 3, 5),
    }


def test_max_den_z6(z6):
    assert [sorted(s) for s in max_den(z6)] == [[1, 2, 4, 5], [1, 3, 5]]


def test_max_den_z4(z4):
    fam = saturated_denominator_sets(z4)
    assert {tuple(sorted(a)) for a in fam} == {(0,)}
    assert [sorted(s) for s in max_den(z4)] == [[1, 3]]


def test_family_t2f2(t2f2):
    fam = saturated_denominator_sets(t2f2)
    got = {tuple(sorted(a)): tuple(sorted(s)) for a, s in fam.items()}
    assert got == {
        (0,): (5, 7),
        (0, 2, 4, 6): (1, 3, 5, 7),
    }
    assert [sorted(s) for s in max_den(t2f2)] == [[1, 3, 5, 7]]


def test_radical(z6, z4, z12, t2f2):
    assert sorted(left_localization_radical(z6)) == [0]
    assert sorted(left_localization_radical(z4)) == [0]
    assert sorted(left_localization_radical(z12)) == [0]
    assert sorted(left_localization_radical(t2f2)) == [0, 2, 4, 6]


def test_localization_maximal(z4, z6, m2f2, t2f2):
    assert is_localization_maximal(z4)
    assert not is_localization_maximal(z6)
    assert is_localization_maximal(m2f2)
    assert not is_localization_maximal(t2f2)
    assert is_localization_maximal(construct("gf(9)"))


def test_profile_z6(z6):
    prof = localization_profile(z6)
    assert sorted(prof.localizable) == [1, 2, 3, 4, 5]
    assert sorted(prof.completely_localizable) == [1, 5]
    assert sorted(prof.non_localizable) == [0]
    assert prof.verdict.localizable is True
    assert all(r.ran and r.value is True for r in prof.verdict.routes)
    assert len(prof.verdict.routes) == 4
    assert [fr.ring.order for fr in prof.localizations] == [3, 2]


def test_profile_z4(z4):
    prof = localization_profile(z4)
    assert prof.verdict.localizable is False
    assert sorted(prof.non_localizable) == [0, 2]
    assert sorted(prof.localizable) == [1, 3]
    dec = prof.decomposition
    assert dec.succeeded and dec.n_factors == 1
    assert dec.factors[0].order == 4
    assert dec.factor_division == (False,)


def test_profile_z12(z12):
    prof = localization_profile(z12)
    assert prof.verdict.localizable is False
    assert sorted(prof.non_localizable) == [0, 6]
    dec = prof.decomposition
    assert dec.succeeded and dec.n_factors == 2
    assert [f.order for f in dec.factors] == [4, 3]
    assert dec.factor_division == (False, True)
    assert direct_product(*dec.factors).coordinate_map(dec.projections).is_bijective()


def test_profile_t2f2(t2f2):
    prof = localization_profile(t2f2)
    assert prof.verdict.localizable is False
    dec = prof.decomposition
    assert not dec.succeeded
    failed = {c.name for c in dec.conditions if not c.holds}
    assert failed == {"zero-localization-radical"}


def test_decomposition_condition_report(z6):
    dec = product_decomposition(z6)
    assert dec.succeeded and dec.n_factors == 2
    assert [f.order for f in dec.factors] == [3, 2]
    assert all(c.holds for c in dec.conditions)
    assert dec.factor_division == (True, True)


def test_is_left_localizable(z6, z4, m2f2):
    assert is_left_localizable(z6)
    assert not is_left_localizable(z4)
    assert not is_left_localizable(m2f2)
    assert is_left_localizable(construct("zmod(10)"))


def test_brute_force_guard(z12):
    with pytest.raises(SizeGuardExceeded):
        brute_force_denominator_sets(z12)
    found = brute_force_denominator_sets(z12, WIDE_GUARDS)
    sats = saturated_denominator_sets(z12)
    masks = {s.mask for s in sats.values()}
    # every brute-forced set saturates into the ideal-indexed family
    from orelab import MulSet, saturate

    for s in found:
        assert saturate(MulSet(z12, s)).mask in masks


def test_profile_guard():
    ring = construct("zmod(20)")
    with pytest.raises(SizeGuardExceeded):
        localization_profile(ring, Guards(order=16, left_ideals=16, brute_force=8))


def test_sided_profiles_t2f2(t2f2):
    sp = sided_profiles(t2f2)
    assert [sorted(s) for s in sp.left.maximal] == [[1, 3, 5, 7]]
    assert [sorted(s) for s in sp.right.maximal] == [[4, 5, 6, 7]]
    assert [sorted(s) for s in sp.two_sided_maximal] == [[5, 7]]
    assert sorted(sp.completely_localizable) == [5, 7]


def test_sided_profiles_commutative(z6):
    sp = sided_profiles(z6)
    assert {tuple(sorted(s)) for s in sp.left.maximal} == {
        tuple(sorted(s)) for s in sp.right.maximal
    }
    assert {tuple(sorted(s)) for s in sp.two_sided_maximal} == {(1, 2, 4, 5), (1, 3, 5)}


def test_decomposition_product_catalog():
    ring = construct("product(zmod(4),gf(3))")
    dec = product_decomposition(ring)
    assert dec.succeeded and dec.n_factors == 2
    assert sorted(f.order for f in dec.factors) == [3, 4]
    # localizability still fails because one factor is not a division ring
    assert not is_left_localizable(ring)


def test_splitting_condition_names_the_rings_own_elements(t2f2):
    # the largest quotient of this ring has the same tables under other
    # element names; the ring's own report must keep its own names
    dec = localization_profile(t2f2).decomposition
    detail = {c.name: c.detail for c in dec.conditions}["zero-localization-radical"]
    assert detail == "radical = {[[0,0],[0,0]], [[0,1],[0,0]], [[1,0],[0,0]], [[1,1],[0,0]]}"


def _profile_back(prof, perm):
    """What a profile says, with elements mapped back through perm (old -> new)
    and every list whose order follows element labels made a set."""
    inv = {new: old for old, new in enumerate(perm)}

    def back(sub):
        return frozenset(inv[x] for x in sub)

    dec = prof.decomposition
    return {
        "saturated": {(back(a), back(s)) for a, s in prof.saturated},
        "maximal": {(back(a), back(s)) for a, s in zip(prof.maximal_ass, prof.maximal)},
        "classes": tuple(
            back(x)
            for x in (prof.radical, prof.localizable, prof.completely_localizable, prof.non_localizable)
        ),
        "routes": [(r.name, r.ran, r.value) for r in prof.verdict.routes],
        "decomposition": (
            dec.succeeded,
            dec.n_factors,
            [(c.name, c.holds) for c in dec.conditions],
            sorted(zip((f.order for f in dec.factors or ()), dec.factor_division or ())),
        ),
    }


def test_profiles_do_not_change_under_relabelling(catalog_rings, catalog_profiles):
    # route 4 reads the ring's own splitting, so no route sees a relabelled
    # copy of the ring any more; relabelling is checked here instead
    for spec in DEFAULT_CATALOG:
        ring = catalog_rings[spec]
        want = _profile_back(catalog_profiles[spec], range(ring.order))
        for seed in (1, 2):
            perm = list(range(ring.order))
            random.Random(seed).shuffle(perm)  # the permutation _relabelled draws
            prof = localization_profile(_relabelled(ring, random.Random(seed)))
            assert _profile_back(prof, perm) == want, f"{spec}: relabelling {seed} changes the profile"


def test_route_4_refuses_a_sigma_that_is_not_bijective(monkeypatch, z6):
    # the fraction ring of z6 at its unit group gets a sigma that is not
    # onto; wraps keeps the name by which rings.once finds the build
    original = localize.build_fraction_ring
    _, proj = quotient(z6, CarrierSubset.from_indices(6, [0, 3]))  # a ring map, not onto a copy of z6
    u = units(z6)

    @functools.wraps(original)
    def fake(ring, dens):
        fr = original(ring, dens)
        return replace(fr, sigma=proj) if ring is z6 and dens == u else fr

    monkeypatch.setattr(localize, "build_fraction_ring", fake)
    with pytest.raises(InternalInconsistency, match="largest quotient"):
        localization_profile(z6)


@pytest.mark.parametrize(
    "spec,localizable",
    [("matrix(gf(3),2)", False), ("product(gf(4),gf(8),gf(5))", True), ("zmod(210)", True)],
)
def test_semiprime_rings_above_order_64_get_full_verdicts(spec, localizable):
    # the Goldie route runs under the default guards at every order they allow
    verdict = localization_profile(construct(spec)).verdict
    assert verdict.partial is False
    assert [r.ran for r in verdict.routes] == [True] * 4
    assert verdict.localizable is localizable
