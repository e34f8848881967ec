"""Law registry checks: everything holds on true rings, skips are honest."""

import pytest

import orelab.localize
from orelab import Guards, InternalInconsistency, LAW_REGISTRY, construct, law_ids, run_laws
from orelab.laws import LawContext

ALL_IDS = (
    "4Jul10", "1a27Nov12", "b27Nov12", "21Nov10", "c26Dec12", "25Nov12",
    "27Nov12", "8Feb13", "15Nov10", "d1Dec12", "29Nov12", "e1Dec12",
    "A3Dec12", "D2Dec12", "3Dec12", "C3Dec12", "a4Dec12", "b2Dec12",
    "A2Dec12", "a2Dec12", "B2Dec12", "C2Dec12",
)


def test_registry_contents():
    assert law_ids() == ALL_IDS
    for law_id, (name, fn) in LAW_REGISTRY.items():
        assert name and "-" in name  # descriptive slug, not a bare tag
        assert callable(fn)


def test_unknown_ids_rejected(z6):
    with pytest.raises(KeyError):
        run_laws(z6, ["nope"])
    with pytest.raises(KeyError):
        run_laws(z6, ["4Jul10", "4jul10"])  # ids are case sensitive


def test_all_laws_hold_on_z6(z6):
    results = run_laws(z6)
    assert len(results) == 22
    assert all(r.holds for r in results)
    assert all(r.applicable for r in results)


def test_z4_inapplicable_set(z4):
    results = run_laws(z4)
    assert all(r.holds for r in results)
    na = {r.law_id for r in results if not r.applicable}
    assert na == {"e1Dec12", "A3Dec12", "a4Dec12", "C2Dec12"}


def test_t2f2_inapplicable_set(t2f2):
    results = run_laws(t2f2)
    assert all(r.holds for r in results)
    na = {r.law_id for r in results if not r.applicable}
    assert na == {"25Nov12", "e1Dec12", "A3Dec12", "a4Dec12", "C2Dec12"}


def test_subset_selection(z6):
    results = run_laws(z6, ["b2Dec12", "4Jul10"])
    assert [r.law_id for r in results] == ["b2Dec12", "4Jul10"]


def test_guard_skips_are_not_failures():
    ring = construct("zmod(20)")
    tight = Guards(order=16, left_ideals=16, brute_force=8)
    results = run_laws(ring, ["b27Nov12", "29Nov12"], tight)
    for r in results:
        assert r.holds  # a refusal to compute is never a counterexample
        assert not r.applicable
        assert "skip" in r.detail


def test_law_result_doc(z4):
    (r,) = run_laws(z4, ["29Nov12"])
    doc = r.to_doc()
    assert doc["id"] == "29Nov12"
    assert doc["name"] == "localizability-three-way-equivalence"
    assert doc["holds"] is True and doc["applicable"] is True


def test_matrix_ring_laws(m2f2):
    results = run_laws(m2f2)
    assert all(r.holds for r in results)
    by_id = {r.law_id: r for r in results}
    # simple artinian: semiprime law applies, localizability laws mostly idle
    assert by_id["a4Dec12"].applicable
    assert not by_id["C2Dec12"].applicable


def test_component_law_does_not_hide_internal_errors(monkeypatch):
    # an InternalInconsistency is a bug, never a law failure
    ctx = LawContext(construct("zmod(6)"))
    assert ctx.profile.verdict.localizable

    def broken_build(ring, dens):
        raise InternalInconsistency("injected")

    monkeypatch.setattr(orelab.localize, "build_fraction_ring", broken_build)
    _, check = LAW_REGISTRY["A3Dec12"]
    with pytest.raises(InternalInconsistency, match="injected"):
        check(ctx)


def test_four_way_equivalence_applies_above_order_64():
    (result,) = run_laws(construct("matrix(gf(3),2)"), ["3Dec12"])
    assert result.applicable and result.holds
    assert result.detail.startswith("all four statements are False")
