"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Each criterion prints a single `[criterion NN] PASS` line on success;
a failure shows up as a normal pytest failure for that criterion.
Frozen values were derived by hand from the ring tables and checked
against brute-force enumeration where one exists.
"""

import time

import pytest

from orelab import (
    DEFAULT_CATALOG,
    ass,
    brute_force_denominator_sets,
    build_fraction_ring,
    construct,
    core,
    core_transfer_isomorphism,
    direct_product,
    induced_map,
    is_division_ring,
    largest_left_quotient,
    localization_profile,
    max_den,
    run_laws,
    saturate,
    saturated_denominator_sets,
    units,
)
from orelab.cli import run as cli_run

SMALL_SPECS = (
    "zmod(2)", "zmod(3)", "zmod(4)", "zmod(5)", "zmod(6)", "zmod(7)", "zmod(8)",
    "gf(2)", "gf(3)", "gf(4)", "gf(5)", "gf(7)", "gf(8)",
    "upper_triangular(gf(2),2)", "product(gf(2),gf(2))", "product(gf(2),gf(3))",
)

LOCALIZABLE_SPECS = {
    "zmod(2)", "zmod(3)", "zmod(5)", "zmod(6)", "zmod(7)", "zmod(10)", "zmod(11)",
    "gf(2)", "gf(3)", "gf(4)", "gf(5)", "gf(7)", "gf(8)", "gf(9)",
    "product(gf(2),gf(3))", "product(gf(2),gf(2))", "product(gf(2),gf(2),gf(2))",
    "product(gf(2),gf(3),gf(5))", "product(zmod(6),gf(7))",
}

NON_SPLITTING_SPECS = {
    "upper_triangular(gf(2),2)",
    "upper_triangular(gf(3),2)",
    "product(gf(2),upper_triangular(gf(2),2))",
    "product(gf(3),upper_triangular(gf(2),2))",
}


@pytest.fixture(scope="module")
def small_densets():
    """All brute-forced denominator sets of the order <= 8 catalog rings."""
    out = {}
    for spec in SMALL_SPECS:
        ring = construct(spec)
        assert ring.order <= 8
        out[spec] = (ring, brute_force_denominator_sets(ring))
    return out


def test_criterion_01_z6_profile(z6):
    t0 = time.perf_counter()
    prof = localization_profile(z6)
    sets = {tuple(sorted(s)) for s in prof.maximal}
    assert sets == {(1, 3, 5), (1, 2, 4, 5)}
    orders = sorted(fr.ring.order for fr in prof.localizations)
    assert orders == [2, 3]
    assert all(is_division_ring(fr.ring) for fr in prof.localizations)
    assert sorted(prof.radical) == [0]
    assert sorted(prof.localizable) == [1, 2, 3, 4, 5]
    assert sorted(prof.completely_localizable) == [1, 5]
    assert prof.verdict.localizable is True
    assert len(prof.verdict.routes) == 4
    assert all(r.ran and r.value is True for r in prof.verdict.routes)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\n[criterion 01] PASS: Z/6 profile exact ({elapsed:.3f}s)")


def test_criterion_02_z4_profile(z4):
    t0 = time.perf_counter()
    prof = localization_profile(z4)
    assert [sorted(s) for s in prof.maximal] == [[1, 3]]
    assert [sorted(a) for a in prof.maximal_ass] == [[0]]
    assert prof.verdict.localizable is False
    # 0 is never inside a denominator set, so the frozen value {2} is the
    # nonzero non-localizable part
    nonzero_nl = sorted(x for x in prof.non_localizable if x != 0)
    assert nonzero_nl == [2]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\n[criterion 02] PASS: Z/4 profile exact ({elapsed:.3f}s)")


def test_criterion_03_saturation_oracle(small_densets):
    t0 = time.perf_counter()
    total = 0
    for spec, (ring, found) in small_densets.items():
        family = saturated_denominator_sets(ring)
        family_masks = {s.mask: a for a, s in family.items()}
        seen = set()
        for mset in found:
            sat = saturate(mset)
            assert sat.mask in family_masks, f"{spec}: saturation not in family"
            assert family_masks[sat.mask] == ass(mset), f"{spec}: ass mismatch"
            seen.add(sat.mask)
            total += 1
        # both directions: every family member is the saturation of something
        assert seen == set(family_masks), f"{spec}: family not fully realized"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(
        f"\n[criterion 03] PASS: brute-force saturations match the ideal-indexed "
        f"family on {len(small_densets)} rings, {total} sets ({elapsed:.1f}s)"
    )


def test_criterion_04_core_laws(small_densets):
    from orelab.oresets import max_kernel_elements

    checked = 0
    for spec, (ring, found) in small_densets.items():
        for mset in found:
            a = ass(mset)
            c = core(mset)
            assert c == max_kernel_elements(mset), f"{spec}: core is not max(S)"
            assert not (mset.mask & a.mask), f"{spec}: set meets its annihilator"
            union = 0
            for x in mset:
                union |= sum(1 << r for r in ring.elements if ring.mul[x][r] == ring.zero)
            assert union == a.mask, f"{spec}: ass is not the union of kernels"
            assert len(c) > 0, f"{spec}: empty core on a finite ring"
            assert ass(ring, c) == a, f"{spec}: core changed the annihilator"
            fr = build_fraction_ring(ring, mset)
            cfr, theta = core_transfer_isomorphism(fr)
            assert theta.is_bijective(), f"{spec}: core localization differs"
            checked += 1
    print(f"\n[criterion 04] PASS: core laws hold on all {checked} denominator sets")


def _lifted_mask(product, slot, factor_subset, other_full=True):
    """Mask of product elements whose slot coordinate lies in the factor
    subset, read off the digits of each element; the other coordinates
    are free, or zero when other_full is False."""
    mask = 0
    for p in range(product.ring.order):
        coords = product.decode(p)
        if coords[slot] not in factor_subset:
            continue
        if not other_full and any(
            coords[j] != product.factors[j].zero for j in range(len(product.factors)) if j != slot
        ):
            continue
        mask |= 1 << p
    return mask


def _assert_lifted_families(prod, factors):
    p_ring = prod.ring
    got = {s.mask for s in max_den(p_ring)}
    expected = {}
    for slot, factor in enumerate(factors):
        for s_i in max_den(factor):
            a_i = ass(s_i)
            lifted = _lifted_mask(prod, slot, set(s_i))
            expected[lifted] = (slot, a_i, s_i)
    assert set(expected) == got, "maximal sets are not the lifted factor families"
    from orelab import CarrierSubset

    for mask, (slot, a_i, s_i) in expected.items():
        lifted = CarrierSubset(p_ring.order, mask)
        want_ass = _lifted_mask(prod, slot, set(a_i))
        assert ass(p_ring, lifted).mask == want_ass, "lifted ass formula failed"
        want_core = _lifted_mask(prod, slot, set(core(factors[slot], s_i)), other_full=False)
        assert core(p_ring, lifted).mask == want_core, "lifted core formula failed"


def test_criterion_05_product_theorems():
    t0 = time.perf_counter()
    cases = [
        ("gf(2)", "gf(3)", True),
        ("gf(2)", "matrix(gf(2),2)", True),
        ("gf(3)", "upper_triangular(gf(2),2)", False),
    ]
    for a_spec, b_spec, factors_maximal in cases:
        fa, fb = construct(a_spec), construct(b_spec)
        prod = direct_product(fa, fb)
        _assert_lifted_families(prod, (fa, fb))
        results = {r.law_id: r for r in run_laws(prod.ring, ["25Nov12"])}
        law = results["25Nov12"]
        if factors_maximal:
            assert law.applicable and law.holds, f"{a_spec} x {b_spec}: {law.detail}"
            prof = localization_profile(prod.ring)
            assert prof.completely_localizable == units(prod.ring)
        else:
            assert not law.applicable  # not a product of maximal pieces
            assert law.holds
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"\n[criterion 05] PASS: lifted families and product structure ({elapsed:.1f}s)")


def test_criterion_06_splitting_round_trip(catalog_rings, catalog_profiles):
    for spec, prof in catalog_profiles.items():
        dec = prof.decomposition
        assert len(dec.conditions) == 4
        assert all(c.name for c in dec.conditions)
        if spec in NON_SPLITTING_SPECS:
            assert not dec.succeeded, f"{spec} split unexpectedly"
            assert any(not c.holds for c in dec.conditions), f"{spec}: no witness"
        else:
            assert dec.succeeded, f"{spec} failed to split"
            assert all(c.holds for c in dec.conditions)

    # Z/6 splits through its own maximal localizations
    dec6 = catalog_profiles["zmod(6)"].decomposition
    assert dec6.n_factors == 2 and sorted(f.order for f in dec6.factors) == [2, 3]

    # Z/4 yields the single-factor verdict: it is already maximal
    dec4 = catalog_profiles["zmod(4)"].decomposition
    assert dec4.succeeded and dec4.n_factors == 1 and dec4.factors[0].order == 4

    # T_2(F_2) fails with the radical condition as witness
    dec_t = catalog_profiles["upper_triangular(gf(2),2)"].decomposition
    failed = {c.name for c in dec_t.conditions if not c.holds}
    assert failed == {"zero-localization-radical"}

    # reconstructed factors are the localizations at the maximal sets
    for spec in ("zmod(6)", "zmod(12)", "product(zmod(4),gf(3))"):
        prof = catalog_profiles[spec]
        dec = prof.decomposition
        for i, fr in enumerate(prof.localizations):
            assert induced_map(fr.sigma, dec.projections[i]).is_bijective(), (
                f"{spec}: factor {i} is not the localization"
            )
    print("\n[criterion 06] PASS: splitting succeeds exactly where it should, "
          "with witnesses on failures")


def test_criterion_07_localizability_catalog(catalog_profiles):
    for spec, prof in catalog_profiles.items():
        verdict = prof.verdict
        ran = [r for r in verdict.routes if r.ran]
        assert len(ran) == 4, f"{spec}: a route was skipped"
        values = {r.value for r in ran}
        assert len(values) == 1, f"{spec}: routes disagree"
        expected = spec in LOCALIZABLE_SPECS
        assert verdict.localizable is expected, (
            f"{spec}: expected localizable={expected}, got {verdict.localizable}"
        )
    print(f"\n[criterion 07] PASS: four routes unanimous and correct on all "
          f"{len(catalog_profiles)} catalog rings")


def test_criterion_08_core_formula_and_components(catalog_rings, catalog_profiles):
    targets = [
        spec
        for spec, prof in catalog_profiles.items()
        if prof.verdict.localizable and len(prof.maximal) >= 2
    ]
    assert sorted(targets) == sorted(
        [
            "zmod(6)", "zmod(10)",
            "product(gf(2),gf(3))", "product(gf(2),gf(2))",
            "product(gf(2),gf(2),gf(2))", "product(gf(2),gf(3),gf(5))",
            "product(zmod(6),gf(7))",
        ]
    )
    for spec in targets:
        results = {r.law_id: r for r in run_laws(catalog_rings[spec], ["C2Dec12", "A3Dec12"])}
        for law_id in ("C2Dec12", "A3Dec12"):
            r = results[law_id]
            assert r.applicable, f"{spec}: {law_id} unexpectedly inapplicable"
            assert r.holds, f"{spec}: {law_id} failed: {r.detail}"
    print(f"\n[criterion 08] PASS: core formula and component sets verified on "
          f"{len(targets)} localizable rings")


def test_criterion_09_largest_quotient_laws(catalog_rings):
    for spec, ring in catalog_rings.items():
        (r,) = run_laws(ring, ["4Jul10"])
        assert r.applicable and r.holds, f"{spec}: {r.detail}"
        # and the simplest stability statement, directly
        lq = largest_left_quotient(ring)
        q_ring = lq.fractions.ring
        again = largest_left_quotient(q_ring)
        assert again.fractions.sigma.is_bijective()
        assert set(again.regular_set) == set(units(q_ring))
    print(f"\n[criterion 09] PASS: largest quotient laws on all "
          f"{len(catalog_rings)} catalog rings")


def test_criterion_10_batch_determinism(tmp_path):
    manifest = tmp_path / "catalog.txt"
    lines = [f"ring {spec}" for spec in DEFAULT_CATALOG]
    lines.append("ring matrix(gf(3),3)")  # guard refusal must be recorded, not fatal
    manifest.write_text("\n".join(lines) + "\n")

    import io

    outputs = []
    codes = []
    for jobs in ("1", "4"):
        buf = io.StringIO()
        codes.append(cli_run(["batch", "--manifest", str(manifest), "--jobs", jobs], stdout=buf))
        outputs.append(buf.getvalue())
    assert outputs[0] == outputs[1], "batch output differs across parallelism"
    assert codes[0] == codes[1] == 3  # the guard entry is the only failure
    assert "matrix(gf(3),3)" in outputs[0]
    assert "1 of 32 entries failed" in outputs[0]
    print("\n[criterion 10] PASS: batch byte-identical for jobs in {1, 4}")
