"""Registry of executable localization laws.

Each entry is a self-contained check that either verifies a structural
law on the target ring or declares itself inapplicable (its hypotheses
fail there).  The registry keys are opaque identifiers used by the
command line; the function names say what is actually being checked.

A law only reports holds=False when a mathematical statement failed on
the target; guard refusals surface as applicable=False instead, never
as silent weakening.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import DEFAULT_GUARDS, Guards, NotDenominator, SizeGuardExceeded, ZeroAbsorbed
from .localize import build_fraction_ring, core_transfer_isomorphism, largest_left_quotient, quotient_model_isomorphism
from .maxden import (
    brute_force_denominator_sets,
    closed_unital_subsets,
    is_localization_maximal,
    localization_profile,
    max_den,
    product_decomposition,
    saturated_denominator_sets,
)
from .oresets import ass, core, is_left_denominator, is_left_ore, mul_closure, r_ass
from .rings import (
    CarrierSubset,
    FiniteRing,
    direct_product,
    is_division_ring,
    is_semiprime,
    mask_members,
    member_indices,
    once,
    one_analysis,
    quotient,
    r_isomorphism,
    subgroup_sum,
    table_image,
    two_sided_ideals,
    unit_pullback,
    units,
    zero_ideal,
)

__all__ = ["LawResult", "LawContext", "LAW_REGISTRY", "run_laws", "law_ids"]


@dataclass(frozen=True)
class LawResult:
    law_id: str
    name: str
    holds: bool
    applicable: bool
    detail: str = ""

    def to_doc(self) -> dict:
        return {
            "id": self.law_id,
            "name": self.name,
            "holds": self.holds,
            "applicable": self.applicable,
            "detail": self.detail,
        }


class LawContext:
    """The target ring of one law run and the structures the laws share.

    Each property, and each partner product, is computed on first use and
    kept.  Everything heavier (ideal lattices, quotients, fraction rings,
    annihilators and denominator tests, profiles of partner products)
    comes from the memo of the enclosing ``run_laws`` call.  That memo
    keys a ring by its structure, not its element names, so a law that
    asks the library for an object another law already built, on the
    target or on any ring equal to it (Q_l(R) often has R's tables under
    other names), gets the same object.
    """

    def __init__(self, ring: FiniteRing, guards: Guards = DEFAULT_GUARDS):
        self.ring = ring
        self.guards = guards
        self._partners: dict = {}

    @cached_property
    def profile(self):
        return once(localization_profile, self.ring, self.guards)

    @cached_property
    def lq(self):
        return once(largest_left_quotient, self.ring)

    @property
    def entries(self):
        return list(zip(self.profile.maximal_ass, self.profile.maximal, self.profile.localizations))

    @cached_property
    def denominator_sets(self) -> list[CarrierSubset]:
        """Denominator sets to quantify over: the saturated family, plus
        the brute-forced complete list on small rings, plus unital
        closures of single elements elsewhere."""
        ring = self.ring
        seen: dict[int, CarrierSubset] = {}
        for _, s in self.profile.saturated:
            seen[s.mask] = s.elements
        if ring.order <= self.guards.brute_force:
            for s in brute_force_denominator_sets(ring, self.guards):
                seen.setdefault(s.mask, s.elements)
        else:
            for x in range(ring.order):
                if x == ring.zero:
                    continue
                try:
                    cl = mul_closure(ring, [x, ring.one])
                except ZeroAbsorbed:
                    continue
                if once(is_left_denominator, ring, cl.elements).holds:
                    seen.setdefault(cl.mask, cl.elements)
        return [seen[m] for m in sorted(seen)]

    @cached_property
    def ore_sets(self) -> list[CarrierSubset]:
        """Left Ore sets to quantify over; on small rings this includes
        Ore sets that are not denominator sets."""
        out = {s.mask: s for s in self.denominator_sets}
        if self.ring.order <= self.guards.brute_force:
            for sub in closed_unital_subsets(self.ring):
                if sub.mask not in out and is_left_ore(self.ring, sub).holds:
                    out[sub.mask] = sub
        return [out[m] for m in sorted(out)]

    def partner_product(self, partner_spec: str):
        """direct product <partner> x <target>, built once per law run, so
        the memo finds the same object on every later use."""
        from .catalog import construct

        if partner_spec not in self._partners:
            partner = construct(partner_spec, self.guards)
            self._partners[partner_spec] = direct_product(partner, self.ring, guards=self.guards)
        return self._partners[partner_spec]


def _unit_inverses(ring: FiniteRing):
    """The index array whose entry u is the inverse of the unit u, unique
    as it is two-sided; its entries off the units mean nothing."""
    M = ring.np_mul
    return ((M == ring.one) & (M.T == ring.one)).argmax(1)


def _fraction_unit_problems(A: FiniteRing, mapped) -> list[str]:
    """The statements that fail of: A's units are generated by the units
    in the index array mapped and their inverses, and are exactly the
    fractions u^-1 * v with u and v in mapped."""
    inverses = _unit_inverses(A)[mapped]
    a_units = units(A)
    problems = []
    if mul_closure(A, [*mapped, *inverses]).elements != a_units:
        problems.append("units are not generated by the mapped set and its inverses")
    if table_image(A.np_mul, inverses, mapped) != a_units:
        problems.append("units are not exactly the two-element fractions of the set")
    return problems


def _check_largest_quotient_unit_structure(ctx: LawContext):
    lq = ctx.lq
    A = lq.ring
    sig = lq.fractions.sigma
    lq2 = once(largest_left_quotient, A)
    problems = []

    a_units = units(A)
    if CarrierSubset(A.order, lq2.regular_set.mask) != a_units:
        problems.append("regular denominators of the quotient differ from its units")
    if sig.preimage(lq2.regular_set.elements) != lq.regular_set.elements:
        problems.append("pullback of the quotient's regular set is not the base regular set")

    problems += _fraction_unit_problems(A, sig.table[member_indices(lq.regular_set.elements)])

    return not problems, True, "; ".join(problems) or f"verified on a quotient of order {A.order}"


def _check_denominator_semigroup_products(ctx: LawContext):
    ring = ctx.ring
    pairs = 0
    # the closure of S u T and its r.ass depend only on the union
    products = {}
    sets = [(s_sub, once(ass, ring, s_sub)) for s_sub in ctx.denominator_sets]
    for s_sub, a in sets:
        for t_sub, b in sets:
            if not a.issubset(b):
                continue
            pairs += 1
            union = s_sub.mask | t_sub.mask
            if union not in products:
                try:
                    st = mul_closure(ring, list(s_sub.indices()) + list(t_sub.indices()))
                except ZeroAbsorbed as e:
                    return False, True, f"semigroup product absorbed zero: {e}"
                products[union] = st, r_ass(ring, st)
            st, st_r_ass = products[union]
            if not st_r_ass.issubset(b):
                return False, True, f"right annihilators of the product escape ass of the larger set (|S|={len(s_sub)}, |T|={len(t_sub)})"
            if not once(is_left_denominator, ring, st.elements).holds:
                return False, True, "semigroup product is not a denominator set"
            if not b.issubset(once(ass, ring, st.elements)):
                return False, True, "product annihilator lost elements of the larger annihilator"
    return True, True, f"checked {pairs} ordered pairs"


def _check_maximal_annihilators_match(ctx: LawContext):
    fam = dict(ctx.profile.saturated)
    keys = list(fam.keys())
    max_keys = {
        a for a in keys
        if not any(a.mask != b.mask and a.issubset(b) for b in keys)
    }
    from_max_dens = set(ctx.profile.maximal_ass)
    if max_keys != from_max_dens:
        return False, True, "maximal annihilators differ from annihilators of maximal sets"
    lst = sorted(from_max_dens, key=lambda s: s.mask)
    for i in range(len(lst)):
        for j in range(i + 1, len(lst)):
            if lst[i].issubset(lst[j]) or lst[j].issubset(lst[i]):
                return False, True, f"annihilators {i} and {j} are comparable"
    return True, True, f"{len(lst)} incomparable maximal annihilators"


def _check_maximal_localization_criterion(ctx: LawContext):
    maximal_ass = set(ctx.profile.maximal_ass)
    for a, s in ctx.profile.saturated:
        fr = once(build_fraction_ring, ctx.ring, s.elements)
        is_max_ring = once(is_localization_maximal, fr.ring, ctx.guards)
        if is_max_ring != (a in maximal_ass):
            return (
                False,
                True,
                f"localization at the set with annihilator size {len(a)} is "
                f"{'maximal' if is_max_ring else 'not maximal'} but the set is "
                f"{'not ' if a not in maximal_ass else ''}a maximal denominator set",
            )
    return True, True, f"agreed on all {len(ctx.profile.saturated)} family members"


def _check_product_lifting(ctx: LawContext):
    prod = ctx.partner_product("gf(2)")
    p_ring = prod.ring
    factors = prod.factors
    max_p = {s.mask for s in max_den(p_ring, ctx.guards)}

    expected = {}
    for slot, factor in enumerate(factors):
        for s_i in max_den(factor, ctx.guards):
            expected[(slot, s_i.mask)] = (once(ass, factor, s_i.elements), s_i)
    expected_masks = {
        prod.projections[slot].preimage(s.elements).mask for (slot, _), (_, s) in expected.items()
    }
    if expected_masks != max_p:
        return False, True, "lifted maximal sets differ from the product's maximal sets"
    if len(expected_masks) != len(expected):
        return False, True, "lifting is not injective"

    for (slot, _), (a_i, s_i) in expected.items():
        factor, proj, emb = factors[slot], prod.projections[slot], prod.embeddings[slot]
        lifted = proj.preimage(s_i.elements)
        if once(ass, p_ring, lifted) != proj.preimage(a_i):
            return False, True, f"lifted annihilator mismatch in slot {slot}"

        fr_p = once(build_fraction_ring, p_ring, lifted)
        fr_i = once(build_fraction_ring, factor, s_i.elements)
        try:
            r_isomorphism(fr_p.sigma, fr_i.sigma.compose(proj))
        except ValueError as e:
            return False, True, f"slot {slot} localizations are not R-isomorphic: {e}"

        want_core = CarrierSubset.from_indices(p_ring.order, emb[member_indices(core(factor, s_i))])
        if core(p_ring, lifted) != want_core:
            return False, True, f"lifted core mismatch in slot {slot}"
    return True, True, f"verified against a partner product of order {p_ring.order}"


def _check_product_of_maximal_pieces(ctx: LawContext):
    dec = ctx.profile.decomposition
    if not dec.succeeded:
        return True, False, "the ring does not split into localization-maximal pieces"
    factors = dec.factors
    for idx, f in enumerate(factors):
        if not once(is_localization_maximal, f, ctx.guards):
            return False, True, f"declared factor {idx} is not localization maximal"

    prod = direct_product(*factors, guards=ctx.guards)
    p_ring = prod.ring
    try:
        iso = prod.coordinate_map(dec.projections)
    except ValueError as e:
        return False, True, f"the splitting's coordinate map is not a homomorphism: {e}"
    p_profile = once(localization_profile, p_ring, ctx.guards)
    n = len(factors)
    problems = []

    lifted = [unit_pullback(proj) for proj in prod.projections]
    if {s.mask for s in lifted} != {s.mask for s in p_profile.maximal}:
        problems.append("maximal sets are not the lifted unit groups")

    full = CarrierSubset.full(p_ring.order)
    for i in range(n):
        if once(ass, p_ring, lifted[i]) != prod.projections[i].kernel():
            problems.append(f"annihilator of lifted set {i} is not the coordinate kernel")
        for j in range(i + 1, n):
            got = subgroup_sum(p_ring, once(ass, p_ring, lifted[i]), once(ass, p_ring, lifted[j]))
            if got != full:
                problems.append(f"annihilators {i},{j} are not comaximal")

    for i in range(n):
        fr = once(build_fraction_ring, p_ring, lifted[i])
        quotient_model_isomorphism(fr)
        proj_i = once(quotient, p_ring, fr.sigma.kernel())[1]
        try:
            r_isomorphism(proj_i, prod.projections[i])
        except ValueError as e:
            problems.append(f"factor {i} quotient is not the factor itself: {e}")

    if p_profile.radical != zero_ideal(p_ring):
        problems.append("product has a nonzero localization radical")
    dec_p = once(product_decomposition, p_ring, ctx.guards)
    if not (dec_p.succeeded and dec_p.n_factors == n):
        problems.append("the product does not split into its factors")

    inter = CarrierSubset.meet(p_ring.order, lifted)
    if inter != units(p_ring):
        problems.append("completely localizable elements differ from the unit group")
    if inter != p_profile.completely_localizable:
        problems.append("intersection of lifted sets differs from the profile")

    some_unit = CarrierSubset.empty(p_ring.order)
    for s in lifted:
        some_unit = some_unit | s
    if some_unit != p_profile.localizable:
        problems.append("localizable elements are not the tuples with a unit coordinate")
    if p_profile.non_localizable != some_unit.complement():
        problems.append("non-localizable elements are not the all-non-unit tuples")

    # transfer back to the target through the verified coordinate map
    for mine, theirs in (
        (ctx.profile.localizable, p_profile.localizable),
        (ctx.profile.completely_localizable, p_profile.completely_localizable),
        (ctx.profile.non_localizable, p_profile.non_localizable),
        (ctx.profile.radical, p_profile.radical),
    ):
        if iso.preimage(theirs) != mine:
            problems.append("profile sets do not pull back along the splitting")
            break

    return not problems, True, "; ".join(problems) or f"all eight conclusions hold with {n} factors"


def _check_splitting_round_trip(ctx: LawContext):
    ring = ctx.ring
    dec = ctx.profile.decomposition
    entries = ctx.entries
    full = CarrierSubset.full(ring.order)

    c2 = ctx.profile.radical == zero_ideal(ring)
    c3 = all(
        subgroup_sum(ring, entries[i][0], entries[j][0]) == full
        for i in range(len(entries))
        for j in range(i + 1, len(entries))
    )
    c4 = True
    for a, _, _ in entries:
        q, _ = once(quotient, ring, a)
        if not once(is_localization_maximal, q, ctx.guards):
            c4 = False
            break
    expected = c2 and c3 and c4
    if dec.succeeded != expected:
        return False, True, "reported verdict disagrees with recomputed conditions"
    reported = {c.name: c.holds for c in dec.conditions}
    for name, val in (
        ("zero-localization-radical", c2),
        ("pairwise-comaximal-annihilators", c3),
        ("localization-maximal-quotients", c4),
    ):
        if reported.get(name) != val:
            return False, True, f"condition {name} reported {reported.get(name)}, recomputed {val}"
    if not dec.succeeded:
        failing = [c.name for c in dec.conditions if not c.holds]
        return True, True, "failure correctly witnessed by: " + ", ".join(failing)

    if math.prod(f.order for f in dec.factors) != ring.order:
        return False, True, "factor orders do not multiply to the ring order"
    if len(set(zip(*(p.table.tolist() for p in dec.projections)))) != ring.order:
        return False, True, "splitting map is not bijective"
    for idx, ((a, s, fr), proj) in enumerate(zip(entries, dec.projections)):
        if unit_pullback(fr.sigma).mask != s.mask:
            return False, True, f"factor {idx}: set is not the unit preimage"
        if proj.kernel() != a:
            return False, True, f"factor {idx}: projection kernel is not the annihilator"
        quotient_model_isomorphism(fr)
    word = "single-factor" if dec.n_factors == 1 else f"{dec.n_factors}-factor"
    return True, True, f"{word} splitting verified"


def _check_product_localizability_transfer(ctx: LawContext):
    mine = ctx.profile.verdict.localizable
    checked = []
    for spec, factor_loc in (("gf(2)", True), ("zmod(4)", False)):
        try:
            prod = ctx.partner_product(spec)
        except SizeGuardExceeded:
            continue
        verdict = once(localization_profile, prod.ring, ctx.guards).verdict.localizable
        want = factor_loc and mine
        if verdict != want:
            return False, True, f"product with {spec} is {verdict}, expected {want}"
        checked.append(spec)
    if not checked:
        return True, False, "all partner products exceed the order guard"
    return True, True, "agreed for partners " + ", ".join(checked)


def _check_maximal_localization_properties(ctx: LawContext):
    ring = ctx.ring
    for a, s, fr in ctx.entries:
        A = fr.ring
        q, proj = once(quotient, ring, a)
        lqq = once(largest_left_quotient, q)
        theta = quotient_model_isomorphism(fr)

        if proj.preimage(lqq.regular_set.elements).mask != s.mask:
            return False, True, "set is not the preimage of the quotient's regular elements"
        if CarrierSubset.from_indices(q.order, proj.table[member_indices(s.elements)]) != units(q):
            return False, True, "projected set is not the quotient's regular set"
        try:
            r_isomorphism(lqq.fractions.sigma, theta)
        except ValueError as e:
            return False, True, f"localization is not the largest quotient of the factor: {e}"

        a_units = set(units(A))
        lqa = once(largest_left_quotient, A)
        if set(lqa.regular_set) != a_units:
            return False, True, "regular set of the localization is not its unit group"
        if unit_pullback(theta) != units(q):
            return False, True, "units of the localization meet the factor wrongly"

        if unit_pullback(fr.sigma).mask != s.mask:
            return False, True, "set is not the unit preimage under the canonical map"

        problems = _fraction_unit_problems(A, theta.table[proj.table[member_indices(s.elements)]])
        if problems:
            return False, True, "; ".join(problems)

        if not once(is_localization_maximal, A, ctx.guards):
            return False, True, "maximal localization is not localization maximal"
        fam_a = once(saturated_denominator_sets, A, ctx.guards)
        zero_a = zero_ideal(A)
        for b, t in fam_a.items():
            if b == zero_a and not CarrierSubset(A.order, t.mask).issubset(units(A)):
                return False, True, "a faithful denominator set of the localization escapes its units"
    return True, True, f"verified on {len(ctx.entries)} maximal localizations"


def _check_division_dichotomy(ctx: LawContext):
    ring = ctx.ring
    full = CarrierSubset.full(ring.order)
    for a, s, fr in ctx.entries:
        division = is_division_ring(fr.ring)
        covers = CarrierSubset(ring.order, s.mask | a.mask) == full
        if division != covers:
            return (
                False,
                True,
                f"localization division={division} but set-plus-annihilator covers={covers}",
            )
    for sub in ctx.denominator_sets:
        if sub.mask & once(ass, ctx.ring, sub).mask:
            return False, True, "a denominator set meets its own annihilator"
    return True, True, f"dichotomy holds for all {len(ctx.entries)} maximal sets"


def _check_three_way_localizability(ctx: LawContext):
    ring = ctx.ring
    prof = ctx.profile
    nonzero = CarrierSubset.full(ring.order) - zero_ideal(ring)
    s1 = prof.localizable == nonzero

    divisions = [is_division_ring(fr.ring) for fr in prof.localizations]
    s2 = prof.radical == zero_ideal(ring) and all(divisions)

    injective = len(set(zip(*(fr.sigma.table.tolist() for fr in prof.localizations)))) == ring.order
    s3 = injective and all(divisions)

    if not (s1 == s2 == s3):
        return False, True, f"statements disagree: elements={s1}, radical+div={s2}, embedding+div={s3}"
    return True, True, f"all three statements are {s1}"


def _cross_annihilator_sets(ctx: LawContext) -> list[CarrierSubset]:
    ring = ctx.ring
    asses = [a for a, _, _ in ctx.entries]
    return [
        CarrierSubset.meet(ring.order, asses[:i] + asses[i + 1 :]) - zero_ideal(ring)
        for i in range(len(asses))
    ]


def _check_cross_annihilator_intersections(ctx: LawContext):
    if ctx.profile.verdict.localizable is not True:
        return True, False, "target is not localizable"
    if len(ctx.entries) < 2:
        return True, False, "fewer than two maximal sets"
    crosses = _cross_annihilator_sets(ctx)
    zero = zero_ideal(ctx.ring)
    for i, (a, s, _) in enumerate(ctx.entries):
        if s.elements & (crosses[i] | zero) != crosses[i]:
            return False, True, f"set {i} does not meet the other annihilators in their nonzero part"
        if not crosses[i]:
            return False, True, f"cross intersection {i} is empty"
    return True, True, f"verified for {len(ctx.entries)} sets"


def _check_isolated_component_denominators(ctx: LawContext):
    if ctx.profile.verdict.localizable is not True:
        return True, False, "target is not localizable"
    if len(ctx.entries) < 2:
        return True, False, "fewer than two maximal sets"
    ring = ctx.ring
    crosses = _cross_annihilator_sets(ctx)
    for i, (a, s, fr) in enumerate(ctx.entries):
        ci = crosses[i]
        verdict = once(is_left_denominator, ring, ci)
        if not verdict.holds:
            return False, True, f"component set {i} is not a denominator set at {verdict.witness}"
        if once(ass, ring, ci) != a:
            return False, True, f"component set {i} has the wrong annihilator"
        try:
            cfr = once(build_fraction_ring, ring, ci)
        except (ValueError, NotDenominator) as e:
            return False, True, f"component localization {i} failed: {e}"
        try:
            r_isomorphism(cfr.sigma, fr.sigma)
        except ValueError as e:
            return False, True, f"component localization {i} is not R-isomorphic to the maximal one: {e}"

    csum = zero_ideal(ring)
    for ci in crosses:
        csum = subgroup_sum(ring, csum, ci)
    verdict = once(is_left_denominator, ring, csum)
    if not verdict.holds:
        return False, True, f"summed component set is not a denominator set at {verdict.witness}"
    if once(ass, ring, csum) != zero_ideal(ring):
        return False, True, "summed component set has a nonzero annihilator"
    try:
        sfr = once(build_fraction_ring, ring, csum)
    except (ValueError, NotDenominator) as e:
        return False, True, f"summed component localization failed: {e}"
    if not sfr.sigma.is_bijective():
        return False, True, "summed component localization does not cover the ring"
    prod = direct_product(*(fr.ring for _, _, fr in ctx.entries), guards=ctx.guards)
    try:
        r_isomorphism(sfr.sigma, prod.coordinate_map([fr.sigma for _, _, fr in ctx.entries]))
    except ValueError as e:
        return False, True, f"summed component localization is not the product of the maximal ones: {e}"
    return True, True, f"verified {len(crosses)} component sets and their sum"


def _check_irredundant_division_presentation(ctx: LawContext):
    loc = ctx.profile.verdict.localizable
    ring = ctx.ring

    # every denominator set saturates into the family with the same ass
    # and an R-isomorphic localization, so searching family entries for
    # division localizations with jointly-zero annihilators is complete
    division_asses = []
    for a, s in ctx.profile.saturated:
        fr = once(build_fraction_ring, ring, s.elements)
        if is_division_ring(fr.ring):
            division_asses.append(a)
    joint = CarrierSubset.meet(ring.order, division_asses)
    presentation_exists = bool(division_asses) and joint == zero_ideal(ring)
    if presentation_exists != loc:
        return (
            False,
            True,
            f"division presentation exists={presentation_exists} but localizable={loc}",
        )
    if not loc:
        return True, True, "no division presentation, matching the negative verdict"

    n = len(ctx.entries)
    if n >= 2:
        for i, cross in enumerate(_cross_annihilator_sets(ctx)):
            if not cross:
                return False, True, f"factor {i} can be dropped without losing injectivity"
    for i, (a, s, fr) in enumerate(ctx.entries):
        if unit_pullback(fr.sigma).mask != s.mask:
            return False, True, f"set {i} is not the unit preimage of its division localization"
    return True, True, f"irredundant presentation with {n} factors"


def _check_four_way_localizability(ctx: LawContext):
    # the profile runs the elements, Goldie and quotient-splitting routes
    # and raises InternalInconsistency when they disagree
    verdict = ctx.profile.verdict
    return True, True, f"all four statements are {verdict.localizable} (classical and largest quotients coincide here)"


def _check_regular_set_transport(ctx: LawContext):
    ring = ctx.ring
    zero = zero_ideal(ring)
    faithful = [sub for sub in ctx.denominator_sets if once(ass, ring, sub) == zero]
    if not faithful:
        return False, True, "no faithful denominator sets found (the unit group must be one)"
    for t_sub in faithful:
        for _, s, _ in ctx.entries:
            if t_sub.mask | s.mask != s.mask:
                return False, True, "a faithful denominator set escapes a maximal set"

    # transport along one faithful localization and pull back; finiteness
    # makes this the identity correspondence, which we assert after
    # running the generic generate-and-pull-back path
    t_sub = max(faithful, key=lambda sub: sub.mask.bit_count())
    tfr = once(build_fraction_ring, ring, t_sub)
    A = tfr.ring
    sig = tfr.sigma.table
    t_inverses = _unit_inverses(A)[sig[member_indices(t_sub)]]
    max_a = {s.mask for s in max_den(A, ctx.guards)}
    transported = {}
    for a, s, fr in ctx.entries:
        transported[s.mask] = mul_closure(A, [*sig[member_indices(s.elements)], *t_inverses]).mask
    if set(transported.values()) != max_a:
        return False, True, "transported sets are not the maximal sets of the localization"
    if len(set(transported.values())) != len(transported):
        return False, True, "transport is not injective"
    for orig_mask, t_mask in transported.items():
        if tfr.sigma.preimage(CarrierSubset(A.order, t_mask)).mask != orig_mask:
            return False, True, "pulling a transported set back does not return the original"
    for a, s, fr in ctx.entries:
        t_set = CarrierSubset(A.order, transported[s.mask])
        afr = once(build_fraction_ring, A, t_set)
        try:
            r_isomorphism(fr.sigma, afr.sigma.compose(tfr.sigma))
        except ValueError as e:
            return False, True, f"localizing before or after transport differs: {e}"
    return True, True, f"identity correspondence through a faithful set of size {len(t_sub)}"


def _check_semiprime_maximal_sets(ctx: LawContext):
    ring = ctx.ring
    if not once(is_semiprime, ring, ctx.guards):
        return True, False, "target is not semiprime"
    # sigma: R -> Q_l(R) is checked bijective where the profile builds it,
    # so it is a ring isomorphism and R's own splitting is that of Q_l(R),
    # read through sigma
    dec = once(product_decomposition, ring, ctx.guards)
    if not dec.succeeded:
        return False, True, "quotient of a semiprime ring does not split"
    for idx, f in enumerate(dec.factors):
        if len(once(two_sided_ideals, f, ctx.guards)) != 2:
            return False, True, f"splitting factor {idx} is not simple"

    u = units(ring)
    for _, s, _ in ctx.entries:
        if u.mask | s.mask != s.mask:
            return False, True, "a regular element escapes a maximal set"

    pullbacks = {unit_pullback(proj).mask: i for i, proj in enumerate(dec.projections)}
    if set(pullbacks) != {s.mask for _, s, _ in ctx.entries}:
        return False, True, "maximal sets are not the pullbacks of factor-unit tuples"

    for a, s, fr in ctx.entries:
        i = pullbacks[s.mask]
        try:
            r_isomorphism(fr.sigma, dec.projections[i])
        except ValueError as e:
            return False, True, f"maximal localization is not the simple factor {i}: {e}"
    return True, True, f"{len(dec.factors)} simple factors match the maximal sets"


def _check_core_absorption(ctx: LawContext):
    ring = ctx.ring
    M = ring.np_mul
    for sub in ctx.denominator_sets:
        in_core = mask_members(ring.order, core(ring, sub).mask)
        S, C = member_indices(sub), in_core.nonzero()[0]
        left = ~in_core[M[S[:, None], C]]  # [s, t]: s*t left the core
        if left.any():
            i, j = divmod(int(left.argmax()), len(C))
            return False, True, f"{S[i]}*{C[j]} left the core"
        reached = in_core[M[S[:, None], S]].any(0)  # [s]: t*s in the core for some t in S
        if not reached.all():
            return False, True, f"no multiple of {S[reached.argmin()]} lands in the core"
    return True, True, f"checked {len(ctx.denominator_sets)} denominator sets"


def _check_core_localization_equivalence(ctx: LawContext):
    ring = ctx.ring
    for sub in ctx.denominator_sets:
        c = core(ring, sub)
        if not c:
            return False, True, "an Ore set on a finite ring has an empty core"
        verdict = once(is_left_denominator, ring, c)
        if not verdict.holds:
            return False, True, f"core fails the denominator test at {verdict.witness}"
        if once(ass, ring, c) != once(ass, ring, sub):
            return False, True, "core has a different annihilator"
        fr = once(build_fraction_ring, ring, sub)
        core_transfer_isomorphism(fr)
    return True, True, f"cores of {len(ctx.denominator_sets)} sets localize identically"


def _check_annihilator_union_is_sum(ctx: LawContext):
    ring = ctx.ring
    for sub in ctx.ore_sets:
        union = 0
        kernels = []
        for s in sub:
            k = once(ass, ring, CarrierSubset(ring.order, 1 << s)).mask
            union |= k
            kernels.append(CarrierSubset(ring.order, k))
        total = kernels[0]
        for k in kernels[1:]:
            total = subgroup_sum(ring, total, k)
        if total.mask != union or union != once(ass, ring, sub).mask:
            return False, True, "union, sum and annihilator of the kernels differ"
    return True, True, f"checked {len(ctx.ore_sets)} Ore sets"


def _check_core_equals_max_kernels(ctx: LawContext):
    ring = ctx.ring
    for sub in ctx.ore_sets:
        members = sorted(sub.indices())
        kernels = {s: once(ass, ring, CarrierSubset(ring.order, 1 << s)).mask for s in members}
        maxima = {
            s
            for s, k in kernels.items()
            if not any(k != k2 and (k | k2) == k2 for k2 in kernels.values())
        }
        a = once(ass, ring, sub).mask
        by_definition = {s for s, k in kernels.items() if k == a}
        if maxima != by_definition:
            return False, True, f"max-kernel elements {sorted(maxima)} differ from the core {sorted(by_definition)}"
    return True, True, f"checked {len(ctx.ore_sets)} Ore sets"


def _check_core_formula(ctx: LawContext):
    if ctx.profile.verdict.localizable is not True:
        return True, False, "target is not localizable"
    ring = ctx.ring
    n = len(ctx.entries)
    if n == 1:
        a, s, _ = ctx.entries[0]
        nonzero = CarrierSubset.full(ring.order) - zero_ideal(ring)
        if CarrierSubset(ring.order, s.mask) != nonzero:
            return False, True, "single maximal set is not everything nonzero"
        if core(ring, s) != nonzero:
            return False, True, "core of the single maximal set is smaller than the set"
        return True, True, "single-set case: the set and its core fill the ring"
    crosses = _cross_annihilator_sets(ctx)
    for i, (a, s, _) in enumerate(ctx.entries):
        want = CarrierSubset(ring.order, s.mask & crosses[i].mask)
        if core(ring, s) != want:
            return False, True, f"core of set {i} differs from the cross-annihilator formula"
    return True, True, f"core formula holds for {n} sets"


LAW_REGISTRY: dict[str, tuple[str, callable]] = {
    "4Jul10": ("largest-quotient-unit-structure", _check_largest_quotient_unit_structure),
    "1a27Nov12": ("denominator-semigroup-products", _check_denominator_semigroup_products),
    "b27Nov12": ("maximal-annihilators-match", _check_maximal_annihilators_match),
    "21Nov10": ("maximal-localization-criterion", _check_maximal_localization_criterion),
    "c26Dec12": ("product-lifting-of-denominator-sets", _check_product_lifting),
    "25Nov12": ("product-of-maximal-pieces-structure", _check_product_of_maximal_pieces),
    "27Nov12": ("splitting-criterion-round-trip", _check_splitting_round_trip),
    "8Feb13": ("product-localizability-transfer", _check_product_localizability_transfer),
    "15Nov10": ("maximal-localization-properties", _check_maximal_localization_properties),
    "d1Dec12": ("division-localization-dichotomy", _check_division_dichotomy),
    "29Nov12": ("localizability-three-way-equivalence", _check_three_way_localizability),
    "e1Dec12": ("cross-annihilator-intersections", _check_cross_annihilator_intersections),
    "A3Dec12": ("isolated-component-denominators", _check_isolated_component_denominators),
    "D2Dec12": ("irredundant-division-presentation", _check_irredundant_division_presentation),
    "3Dec12": ("localizability-four-way-equivalence", _check_four_way_localizability),
    "C3Dec12": ("regular-set-transport", _check_regular_set_transport),
    "a4Dec12": ("semiprime-maximal-sets", _check_semiprime_maximal_sets),
    "b2Dec12": ("core-absorption", _check_core_absorption),
    "A2Dec12": ("core-localization-equivalence", _check_core_localization_equivalence),
    "a2Dec12": ("annihilator-union-is-sum", _check_annihilator_union_is_sum),
    "B2Dec12": ("core-equals-max-kernels", _check_core_equals_max_kernels),
    "C2Dec12": ("core-formula-for-localizable-rings", _check_core_formula),
}


def law_ids() -> tuple[str, ...]:
    return tuple(LAW_REGISTRY)


def run_laws(ring: FiniteRing, ids=None, guards: Guards = DEFAULT_GUARDS) -> list[LawResult]:
    """Run the requested checks (all of them by default) on one ring."""
    if ids is None:
        ids = law_ids()
    unknown = [i for i in ids if i not in LAW_REGISTRY]
    if unknown:
        raise KeyError(f"unknown law ids: {', '.join(unknown)}")
    ctx = LawContext(ring, guards)
    results = []
    with one_analysis():
        for law_id in ids:
            name, fn = LAW_REGISTRY[law_id]
            try:
                holds, applicable, detail = fn(ctx)
            except SizeGuardExceeded as e:
                holds, applicable, detail = True, False, f"skipped: {e}"
            results.append(LawResult(law_id, name, holds, applicable, detail))
    return results
