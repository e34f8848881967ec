"""The memo shared by one analysis: what it keeps, and for how long."""

import io
import re
import sys
from collections import Counter

from orelab import construct, largest_left_quotient, localization_profile, run_laws, save_ring_file
from orelab import localize, maxden, oresets, rings
from orelab.cli import run
from orelab.laws import LawContext


def _patch_everywhere(monkeypatch, original, wrapper):
    # the way the benchmark's tracer patches: every orelab namespace
    wrapper.__wrapped__ = original
    for name, mod in list(sys.modules.items()):
        if name == "orelab" or name.startswith("orelab."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, wrapper)


def _record_fraction_rings(monkeypatch) -> list:
    original = localize.build_fraction_ring
    built = []

    def recording(ring, dens):
        fr = original(ring, dens)
        built.append(((ring.order, ring.zero, ring.one, ring.add, ring.mul), ring.names, fr.dens.mask))
        return fr

    _patch_everywhere(monkeypatch, original, recording)
    return built


def test_each_fraction_ring_is_built_once_per_profile(monkeypatch, catalog_rings):
    built = _record_fraction_rings(monkeypatch)
    for spec, ring in catalog_rings.items():
        built.clear()
        localization_profile(ring)
        first = list(built)
        assert len(set(first)) == len(first), f"{spec}: a fraction ring was built twice"
        built.clear()
        localization_profile(ring)
        assert len(built) == len(first), f"{spec}: the memo outlived its analysis"


def test_each_fraction_ring_is_built_once_per_law_run(monkeypatch):
    built = _record_fraction_rings(monkeypatch)
    for spec in ("zmod(6)", "upper_triangular(gf(2),2)", "zmod(12)"):
        built.clear()
        run_laws(construct(spec))
        assert len(set(built)) == len(built), f"{spec}: a fraction ring was built twice"


def test_profile_splits_the_ring_once_and_never_its_quotient_ring(monkeypatch, catalog_rings):
    calls = []
    for fn in (maxden.product_decomposition, maxden.saturated_denominator_sets):

        def recording(ring, guards=rings.DEFAULT_GUARDS, fn=fn):
            calls.append((fn.__name__, ring))
            return fn(ring, guards)

        _patch_everywhere(monkeypatch, fn, recording)
    for spec, ring in catalog_rings.items():
        q = largest_left_quotient(ring).ring
        calls.clear()
        localization_profile(ring)
        splits = [r for name, r in calls if name == "product_decomposition"]
        assert len(splits) == 1 and splits[0] is ring, f"{spec}: the ring was not split exactly once"
        on_q = [name for name, r in calls if r == q and r.names == q.names]
        assert not on_q, f"{spec}: {on_q} ran on the largest quotient ring"


_SPY_CALLS = []


def _spy(x):
    _SPY_CALLS.append(x)
    return [x]


def test_once_keeps_values_only_inside_an_analysis():
    _SPY_CALLS.clear()
    assert rings.once(_spy, 1) == [1] and rings.once(_spy, 1) == [1]
    assert _SPY_CALLS == [1, 1]
    with rings.one_analysis():
        first = rings.once(_spy, 2)
        with rings.one_analysis():  # a nested analysis shares the memo
            assert rings.once(_spy, 2) is first
    assert _SPY_CALLS == [1, 1, 2]
    rings.once(_spy, 2)
    assert _SPY_CALLS == [1, 1, 2, 2]


def test_info_walks_the_lattice_once(monkeypatch):
    original = rings.two_sided_ideals
    walks = []

    def counting(ring, guards=rings.DEFAULT_GUARDS):
        walks.append(ring.order)
        return original(ring, guards)

    _patch_everywhere(monkeypatch, original, counting)
    assert run(["info", "zmod(12)"], stdout=io.StringIO()) == 0
    # R's lattice is assembled from the lattices of its blocks Z/4 and Z/3
    assert sorted(walks) == [3, 4, 12]


def test_ore_report_runs_the_ore_test_once_per_ring(monkeypatch):
    original = oresets.is_left_ore
    calls = []

    def counting(ring_or_mulset, setlike=None):
        calls.append(ring_or_mulset)
        return original(ring_or_mulset, setlike)

    _patch_everywhere(monkeypatch, original, counting)
    z64 = construct("zmod(64)")
    oresets.ore_report(oresets.MulSet(z64, rings.units(z64)))
    assert len(calls) == 1  # zmod(64) is its own opposite
    t2f2 = construct("upper_triangular(gf(2),2)")
    calls.clear()
    report = oresets.ore_report(oresets.MulSet(t2f2, rings.units(t2f2)))
    assert report.sidedness == "two-sided"
    assert 1 <= len(calls) <= 2  # the ring and its opposite


def test_each_fraction_ring_is_built_once_per_structure_in_a_law_run(monkeypatch):
    # the memo keys a ring by its tables, so a ring equal to one already
    # localized under other names (Q_l(R) often is) is not localized again
    built = _record_fraction_rings(monkeypatch)
    for spec in ("zmod(6)", "upper_triangular(gf(2),2)", "zmod(12)"):
        built.clear()
        run_laws(construct(spec))
        pairs = [(tables, mask) for tables, _, mask in built]
        assert len(set(pairs)) == len(pairs), f"{spec}: a fraction ring was built twice"


def _relabelled_names(ring):
    return rings.from_tables(
        ring.order, ring.np_add, ring.np_mul, ring.zero, ring.one, [f"e{x}" for x in ring.elements]
    )


def _named_sets(text: str) -> set[str]:
    """Every element name listed inside braces in a report."""
    return {x for group in re.findall(r"\{([^}]*)\}", text) for x in group.split(", ") if x}


def test_profiles_sharing_a_memo_name_only_their_own_elements(tmp_path):
    ring = construct("upper_triangular(gf(2),2)")
    other = _relabelled_names(ring)
    assert other == ring and other.names != ring.names
    path = tmp_path / "t2f2_renamed.ring"
    save_ring_file(other, str(path))
    with rings.one_analysis():
        for r, target in ((ring, "upper_triangular(gf(2),2)"), (other, str(path))):
            prof = localization_profile(r)
            route = {x.name: x.detail for x in prof.verdict.routes}["every-nonzero-element-localizable"]
            cond = {c.name: c.detail for c in prof.decomposition.conditions}["zero-localization-radical"]
            out = io.StringIO()
            assert run(["profile", target], stdout=out) == 0
            for text in (route, cond, out.getvalue()):
                listed = _named_sets(text)
                assert listed and listed <= set(r.names), f"{target}: {text!r} names another ring's elements"


def _record_calls(monkeypatch, fn) -> list:
    calls = []

    def counting(ring_or_mulset, setlike=None):
        if setlike is None:  # a MulSet alone
            calls.append((ring_or_mulset.ring, ring_or_mulset.elements))
        else:
            calls.append((ring_or_mulset, oresets.subset_of(ring_or_mulset, setlike)))
        return fn(ring_or_mulset, setlike)

    _patch_everywhere(monkeypatch, fn, counting)
    return calls


def test_ass_and_denominator_test_run_once_per_ring_and_set_in_an_analysis(monkeypatch):
    ass_calls = _record_calls(monkeypatch, oresets.ass)
    den_calls = _record_calls(monkeypatch, oresets.is_left_denominator)
    run_laws(construct("zmod(12)"))
    for name, calls in (("ass", ass_calls), ("is_left_denominator", den_calls)):
        assert calls, f"{name} never ran"
        repeats = [k for k, c in Counter(calls).items() if c > 1]
        assert not repeats, f"{name} ran {len(calls)} times for {len(set(calls))} (ring, set) pairs"

    # outside an analysis every call, through the memo or not, still runs
    z12 = construct("zmod(12)")
    u = rings.units(z12)
    for fn, calls in ((oresets.ass, ass_calls), (oresets.is_left_denominator, den_calls)):
        calls.clear()
        fn(z12, u)
        rings.once(fn, z12, u)
        rings.once(fn, z12, u)
        assert len(calls) == 3


def _record_closures(monkeypatch, fn) -> list:
    calls = []

    def recording(ring, generators, *args):
        generators = list(generators)
        calls.append((sys._getframe(1).f_code.co_name, generators))
        return fn(ring, generators, *args)

    _patch_everywhere(monkeypatch, fn, recording)
    return calls


def test_principal_ideals_close_once_per_unit_orbit(monkeypatch):
    calls = _record_closures(monkeypatch, rings.ideal_closure)
    want = {"zmod(256)": {"left": 9, "right": 9, "two": 9}, "matrix(gf(4),2)": {"left": 7, "right": 7, "two": 3}}
    for spec, counts in want.items():
        ring = construct(spec)
        for side, count in counts.items():
            calls.clear()
            rings.principal_ideals(ring, side)
            assert len(calls) == count, f"{spec} {side}: {len(calls)} closures"


def test_semigroup_products_close_each_union_once(monkeypatch):
    ring = construct("zmod(12)")
    dens = LawContext(ring).denominator_sets
    unions = {
        s.mask | t.mask
        for s in dens
        for t in dens
        if oresets.ass(ring, s).issubset(oresets.ass(ring, t))
    }
    calls = _record_closures(monkeypatch, oresets.mul_closure)
    [result] = run_laws(ring, ids=["1a27Nov12"])
    assert result.holds
    # the context's closures of single elements are not the law's own
    by_law = [gens for caller, gens in calls if caller == "_check_denominator_semigroup_products"]
    masks = [sum(1 << g for g in set(gens)) for gens in by_law]
    assert len(by_law) == len(unions) and set(masks) == unions
