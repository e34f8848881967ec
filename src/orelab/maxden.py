"""Maximal denominator sets, the localization radical, and verdicts.

On a finite ring every saturated left denominator set is the pullback of
the unit group of a quotient R/a, so the whole family can be enumerated
by walking the two-sided ideals.  Everything downstream (maximal sets,
radical, localizability, product splitting) is computed from that family
and cross-checked against an independent route wherever one exists.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .errors import DEFAULT_GUARDS, Guards, InternalInconsistency, SizeGuardExceeded
from .localize import FractionRing, build_fraction_ring, largest_left_quotient, quotient_model_isomorphism
from .oresets import MulSet, ass, closure_escape, is_left_denominator
from .rings import (
    CarrierSubset,
    FiniteRing,
    RingMap,
    central_blocks,
    is_division_ring,
    is_semiprime,
    minimal_primes,
    once,
    one_analysis,
    opposite,
    quotient,
    subgroup_sum,
    two_sided_ideals,
    uniform_dimension,
    unit_pullback,
    units,
    zero_ideal,
)

__all__ = [
    "RouteResult",
    "LocalizabilityVerdict",
    "Condition",
    "Decomposition",
    "LocalizationProfile",
    "SidedProfiles",
    "saturated_denominator_sets",
    "brute_force_denominator_sets",
    "max_den",
    "left_localization_radical",
    "localization_profile",
    "is_left_localizable",
    "is_localization_maximal",
    "product_decomposition",
    "sided_profiles",
]


@dataclass(frozen=True)
class RouteResult:
    """Outcome of one localizability criterion.

    Every route runs, so ``ran`` is always true; it stays in the report
    format.  A detail that lists elements keeps them as indices in
    ``elements`` until ``_named`` writes them after the detail in a
    ring's names.
    """

    name: str
    ran: bool
    value: bool
    detail: str = ""
    elements: tuple[int, ...] = ()

    def to_doc(self) -> dict:
        return {"name": self.name, "ran": self.ran, "value": self.value, "detail": self.detail}


@dataclass(frozen=True)
class LocalizabilityVerdict:
    """The routes' common value; ``partial`` is always false, as no route
    is skipped, and stays in the report format."""

    localizable: bool
    partial: bool
    routes: tuple[RouteResult, ...]

    def to_doc(self) -> dict:
        return {
            "localizable": self.localizable,
            "partial": self.partial,
            "routes": [r.to_doc() for r in self.routes],
        }


@dataclass(frozen=True)
class Condition:
    """One splitting condition; ``elements`` as in ``RouteResult``."""

    name: str
    holds: bool
    detail: str = ""
    elements: tuple[int, ...] = ()

    def to_doc(self) -> dict:
        return {"name": self.name, "holds": self.holds, "detail": self.detail}


@dataclass(eq=False)
class Decomposition:
    """Result of trying to split a ring along its maximal denominator sets.

    On success the factors are R's blocks and the projections are the
    projections onto them.  ``central_blocks`` proves that split once, and
    ``product_decomposition`` checks its factors against the blocks
    wherever it runs, so no coordinate map is built here.
    """

    succeeded: bool
    n_factors: int
    conditions: tuple[Condition, ...]
    factors: tuple[FiniteRing, ...] | None = None
    projections: tuple[RingMap, ...] | None = None
    factor_division: tuple[bool, ...] | None = None

    def to_doc(self, hashes: dict[FiniteRing, str] | None = None) -> dict:
        """The report; hashes holds canonical hashes already computed, by
        ring, so a factor equal to one of them (R/0 to R) or to an earlier
        factor is not hashed again."""
        from .catalog import canonical_hash

        doc = {
            "succeeded": self.succeeded,
            "n_factors": self.n_factors,
            "conditions": [c.to_doc() for c in self.conditions],
        }
        if self.succeeded:
            hashes = dict(hashes or {})
            for f in self.factors:
                if f not in hashes:
                    hashes[f] = canonical_hash(f)
            doc["factor_orders"] = [f.order for f in self.factors]
            doc["factor_hashes"] = [hashes[f] for f in self.factors]
            doc["factor_division"] = list(self.factor_division)
        return doc


@dataclass(eq=False)
class LocalizationProfile:
    """Everything the analyzer knows about one ring's left localizations."""

    ring: FiniteRing
    saturated: tuple[tuple[CarrierSubset, MulSet], ...]
    maximal: tuple[MulSet, ...]
    maximal_ass: tuple[CarrierSubset, ...]
    localizations: tuple[FractionRing, ...]
    radical: CarrierSubset
    localizable: CarrierSubset
    completely_localizable: CarrierSubset
    non_localizable: CarrierSubset
    verdict: LocalizabilityVerdict
    decomposition: Decomposition

    def to_doc(self) -> dict:
        from .catalog import canonical_hash

        ring_hash = canonical_hash(self.ring)
        return {
            "ring_hash": ring_hash,
            "order": self.ring.order,
            "saturated_family": [
                {"ass": sorted(a), "set": sorted(s)} for a, s in self.saturated
            ],
            "maximal_sets": [sorted(s) for s in self.maximal],
            "maximal_ass": [sorted(a) for a in self.maximal_ass],
            "localization_orders": [fr.ring.order for fr in self.localizations],
            "localization_division": [is_division_ring(fr.ring) for fr in self.localizations],
            "radical": sorted(self.radical),
            "localizable": sorted(self.localizable),
            "completely_localizable": sorted(self.completely_localizable),
            "non_localizable": sorted(self.non_localizable),
            "verdict": self.verdict.to_doc(),
            "decomposition": self.decomposition.to_doc({self.ring: ring_hash}),
        }


def saturated_denominator_sets(
    ring: FiniteRing, guards: Guards = DEFAULT_GUARDS
) -> dict[CarrierSubset, MulSet]:
    """All saturated left denominator sets, keyed by annihilator ideal.

    Candidates are unit pullbacks through each proper quotient
    (``_unit_pullbacks``); a ring with several blocks takes them from its
    blocks.  A candidate survives when its annihilator in R is exactly
    the ideal it came from and it passes the denominator test on R.  The
    annihilator, one gather, is compared first, so the Ore test runs only
    on candidates it keeps.
    """
    out: dict[CarrierSubset, MulSet] = {}
    for a, t in _unit_pullbacks(ring, guards):
        if once(ass, ring, t) == a and once(is_left_denominator, ring, t).holds:
            out[a] = MulSet(ring, t)
    if not out:
        raise InternalInconsistency("the unit group went missing from the saturated family")
    return out


def _unit_pullbacks(ring: FiniteRing, guards: Guards) -> Iterator[tuple[CarrierSubset, CarrierSubset]]:
    """Each proper two-sided ideal a, in lattice order, with the pullback
    of the units of R/a.

    A ring of one block builds each quotient R/a.  A ring with several
    blocks builds none: a is the product of block ideals a_i, R/a is the
    product of the B_i/a_i, and a tuple is a unit exactly when each
    coordinate is, so the pullback is the meet of the preimages of the
    blocks' unit pullbacks.  A block with a_i = B_i gives all of R, as 0
    is a unit of the zero ring.
    """
    ideals = [a for a in once(two_sided_ideals, ring, guards) if len(a) < ring.order]
    blocks = once(central_blocks, ring)
    if not blocks:
        for a in ideals:
            yield a, unit_pullback(once(quotient, ring, a)[1])
        return
    per_block = []
    for p in blocks:
        block, pairs = p.target, []
        for b in once(two_sided_ideals, block, guards):
            u = unit_pullback(once(quotient, block, b)[1]) if len(b) < block.order else b
            pairs.append((p.preimage(b), p.preimage(u)))
        per_block.append(pairs)
    pullbacks = {}
    for picks in itertools.product(*per_block):
        block_ideals, block_units = zip(*picks)
        pullbacks[CarrierSubset.meet(ring.order, block_ideals)] = CarrierSubset.meet(ring.order, block_units)
    for a in ideals:
        yield a, pullbacks[a]


def closed_unital_subsets(ring: FiniteRing) -> Iterator[CarrierSubset]:
    """Every multiplicatively closed subset that holds one but not zero.

    Walks all 2^(n-2) candidates in mask order, so callers check the
    brute-force guard first.
    """
    n = ring.order
    rest = [x for x in range(n) if x not in (ring.zero, ring.one)]
    for bits in range(1 << len(rest)):
        picked = [x for i, x in enumerate(rest) if (bits >> i) & 1]
        sub = CarrierSubset.from_indices(n, [ring.one] + picked)
        if closure_escape(ring, sub) is None:
            yield sub


def brute_force_denominator_sets(
    ring: FiniteRing, guards: Guards = DEFAULT_GUARDS
) -> list[MulSet]:
    """Every left denominator set containing 1, by raw subset enumeration.

    Exponential in the order, so it refuses to run past the brute-force
    guard.  This is the oracle the saturated-family route is checked
    against on small rings.
    """
    n = ring.order
    if n > guards.brute_force:
        raise SizeGuardExceeded("brute-force denominator enumeration", n, guards.brute_force)
    found = [
        MulSet(ring, sub)
        for sub in closed_unital_subsets(ring)
        if once(is_left_denominator, ring, sub).holds
    ]
    found.sort(key=lambda s: (len(s), s.mask))
    return found


def _maximal_entries(
    family: dict[CarrierSubset, MulSet]
) -> list[tuple[CarrierSubset, MulSet]]:
    items = list(family.items())

    def maximal(masks: list[int]) -> list[int]:
        # the positions of the masks that no other mask strictly contains;
        # the largest are tried first, so a contained mask stops early
        wide = sorted(masks, key=int.bit_count, reverse=True)
        return [i for i, m in enumerate(masks) if not any(m != o and m | o == o for o in wide)]

    by_sets = maximal([s.mask for _, s in items])
    if by_sets != maximal([a.mask for a, _ in items]):
        raise InternalInconsistency(
            "maximality by set inclusion and by annihilator inclusion disagree"
        )
    entries = [items[i] for i in by_sets]
    entries.sort(key=lambda pair: (len(pair[0]), pair[0].mask))
    return entries


def max_den(ring: FiniteRing, guards: Guards = DEFAULT_GUARDS) -> list[MulSet]:
    """The maximal left denominator sets, smallest annihilator first."""
    return [s for _, s in _maximal_entries(once(saturated_denominator_sets, ring, guards))]


def left_localization_radical(
    ring: FiniteRing, guards: Guards = DEFAULT_GUARDS
) -> CarrierSubset:
    """Intersection of the annihilators of the maximal denominator sets.

    Cross-checked against the joint kernel of the canonical maps into the
    maximal localizations, which is computed by the Ore calculus rather
    than from the ideal family.
    """
    entries = _maximal_entries(once(saturated_denominator_sets, ring, guards))
    frs = [once(build_fraction_ring, ring, s.elements) for _, s in entries]
    return _radical_from(ring, entries, frs)


def _radical_from(ring, entries, localizations) -> CarrierSubset:
    radical = CarrierSubset.meet(ring.order, (a for a, _ in entries))
    if radical != CarrierSubset.meet(ring.order, (fr.sigma.kernel() for fr in localizations)):
        raise InternalInconsistency("radical by ideals differs from radical by kernels")
    return radical


def is_localization_maximal(ring: FiniteRing, guards: Guards = DEFAULT_GUARDS) -> bool:
    """Whether the ring admits no localization beyond itself.

    True exactly when the zero ideal is the only annihilator in the
    saturated family.  The largest quotient must then collapse onto the
    ring itself, which is asserted.
    """
    family = once(saturated_denominator_sets, ring, guards)
    answer = set(family.keys()) == {zero_ideal(ring)}
    once(largest_left_quotient, ring)  # asserts that identity
    return answer


def product_decomposition(ring: FiniteRing, guards: Guards = DEFAULT_GUARDS) -> Decomposition:
    """Try to split the ring along its maximal denominator sets.

    Four conditions are tested.  When they all hold, the annihilators of
    the maximal sets must be the kernels of ``central_blocks``, in order:
    a localization-maximal ring is indecomposable (A x B localizes onto B
    at A x {1}), so the factors are R's blocks, and ``central_blocks`` has
    proved that the projections onto the blocks split R.  The comparison
    runs wherever this does, inside a profile or not.  The expected
    identifications (unit pullbacks, projection kernels, the localizations
    themselves) are then verified on each factor.  A condition
    lists elements by index (``Condition.elements``), so the result holds
    no names; ``localization_profile`` names them by its own ring.
    """
    entries = _maximal_entries(once(saturated_denominator_sets, ring, guards))
    n_factors = len(entries)
    full = CarrierSubset.full(ring.order)

    conditions = [
        Condition("finitely-many-maximal-sets", True, f"count = {n_factors}")
    ]

    rad = CarrierSubset.meet(ring.order, (a for a, _ in entries))
    if rad == zero_ideal(ring):
        conditions.append(Condition("zero-localization-radical", True))
    else:
        conditions.append(Condition("zero-localization-radical", False, "radical =", rad.indices()))

    apart = next((
        (i, j) for i, j in itertools.combinations(range(n_factors), 2)
        if subgroup_sum(ring, entries[i][0], entries[j][0]) != full
    ), None)
    pair_detail = "" if apart is None else "annihilators {} and {} do not add up to the ring".format(*apart)
    conditions.append(Condition("pairwise-comaximal-annihilators", apart is None, pair_detail))

    quotients: list[tuple[FiniteRing, RingMap]] = []
    fac_ok, fac_detail = True, ""
    for idx, (a, _) in enumerate(entries):
        q, proj = once(quotient, ring, a)
        quotients.append((q, proj))
        if fac_ok and not once(is_localization_maximal, q, guards):
            fac_ok = False
            fac_detail = f"quotient by annihilator {idx} still localizes properly"
    conditions.append(Condition("localization-maximal-quotients", fac_ok, fac_detail))

    if not all(c.holds for c in conditions):
        return Decomposition(False, n_factors, tuple(conditions))

    kernels = [p.kernel() for p in once(central_blocks, ring)] or [zero_ideal(ring)]
    if [a for a, _ in entries] != kernels:
        raise InternalInconsistency("the splitting of route 4 is not the split into blocks")

    for idx, ((a, s), (_, proj)) in enumerate(zip(entries, quotients)):
        fr = once(build_fraction_ring, ring, s.elements)
        if unit_pullback(proj).mask != s.mask:
            raise InternalInconsistency(f"factor {idx} is not the unit pullback of its quotient")
        if proj.kernel() != a:
            raise InternalInconsistency(f"projection kernel differs from annihilator {idx}")
        quotient_model_isomorphism(fr)  # raises if R/a and the localization disagree

    return Decomposition(
        True,
        n_factors,
        tuple(conditions),
        tuple(q for q, _ in quotients),
        tuple(proj for _, proj in quotients),
        tuple(is_division_ring(q) for q, _ in quotients),
    )


def _named(result, ring: FiniteRing):
    """A route result or condition with its elements, if any, listed
    after its detail by ring's names."""
    if not result.elements:
        return result
    listing = ", ".join(ring.name_of(x) for x in result.elements)
    return replace(result, detail=f"{result.detail} {{{listing}}}", elements=())


_ROUTE_ELEMENTS = "every-nonzero-element-localizable"
_ROUTE_RADICAL = "zero-radical-with-division-localizations"
_ROUTE_GOLDIE = "semiprime-with-matching-uniform-dimension"
_ROUTE_QUOTIENT = "largest-quotient-splits-into-division-rings"


def localization_profile(
    ring: FiniteRing, guards: Guards = DEFAULT_GUARDS
) -> LocalizationProfile:
    """Full left-localization analysis of one ring.

    Localizability is decided along four routes that must agree: every
    nonzero element localizable; zero radical with division maximal
    localizations; semiprime with matching uniform dimension (Goldie);
    and the largest left quotient ring Q_l(R) a finite product of division
    rings.  On a finite ring the canonical map sigma: R -> Q_l(R) is
    checked bijective, hence a ring isomorphism, so the last route reads
    R's own splitting: whether a ring splits, and into division rings, is
    invariant under isomorphism.
    """
    with one_analysis():
        family = once(saturated_denominator_sets, ring, guards)
        entries = _maximal_entries(family)
        localizations = [once(build_fraction_ring, ring, s.elements) for _, s in entries]
        radical = _radical_from(ring, entries, localizations)

        loc_mask = 0
        for _, s in entries:
            loc_mask |= s.mask
        localizable = CarrierSubset(ring.order, loc_mask)
        completely = CarrierSubset.meet(ring.order, (s for _, s in entries))
        non_localizable = localizable.complement()

        if not units(ring).issubset(completely):
            raise InternalInconsistency("a unit escaped a maximal denominator set")
        if ring.zero not in non_localizable:
            raise InternalInconsistency("zero claimed to be localizable")
        if not radical.issubset(non_localizable):
            raise InternalInconsistency("the localization radical met a localizable element")

        routes: list[RouteResult] = []

        zero = zero_ideal(ring)
        v1 = localizable == CarrierSubset.full(ring.order) - zero
        if v1:
            routes.append(RouteResult(_ROUTE_ELEMENTS, True, True))
        else:
            stuck = (non_localizable - zero).indices()
            routes.append(_named(RouteResult(_ROUTE_ELEMENTS, True, False, "stuck elements:", stuck), ring))

        rad_zero = radical == zero
        divs = [is_division_ring(fr.ring) for fr in localizations]
        v2 = rad_zero and all(divs)
        if v2:
            d2 = ""
        elif not rad_zero:
            d2 = "radical is nonzero"
        else:
            d2 = f"localization {divs.index(False)} is not a division ring"
        routes.append(RouteResult(_ROUTE_RADICAL, True, v2, d2))

        # no guard can trip in routes 3 and 4: guards bound orders, and R's
        # order passed them when the saturated family walked its ideals
        if not once(is_semiprime, ring, guards):
            routes.append(RouteResult(_ROUTE_GOLDIE, True, False, "not semiprime"))
        else:
            mins = once(minimal_primes, ring, guards)
            ud = uniform_dimension(ring, guards)
            v3 = ud == len(mins) == len(entries)
            d3 = (
                ""
                if v3
                else f"uniform dimension {ud}, minimal primes {len(mins)}, maximal sets {len(entries)}"
            )
            routes.append(RouteResult(_ROUTE_GOLDIE, True, v3, d3))

        # route 4 reads Q_l(R)'s splitting off R's through sigma, which
        # largest_left_quotient checks bijective, and that splitting is the
        # profile's decomposition
        once(largest_left_quotient, ring)
        # the decomposition may be shared with an equal ring under other
        # names, so the profile names its conditions' elements by R's
        dec = once(product_decomposition, ring, guards)
        dec = replace(dec, conditions=tuple(_named(c, ring) for c in dec.conditions))
        v4 = dec.succeeded and all(dec.factor_division)
        if v4:
            d4 = ""
        elif not dec.succeeded:
            failed = next(c for c in dec.conditions if not c.holds)
            d4 = f"splitting fails: {failed.name}"
        else:
            d4 = "a split factor is not a division ring"
        routes.append(RouteResult(_ROUTE_QUOTIENT, True, v4, d4))

        values = {r.value for r in routes}
        if len(values) > 1:
            raise InternalInconsistency(
                "localizability routes disagree: "
                + "; ".join(f"{r.name}={r.value}" for r in routes)
            )
        verdict = LocalizabilityVerdict(values.pop(), False, tuple(routes))

        # Wedderburn: on a finite ring Q_l(R) = R, so R is localizable exactly
        # when it is a finite product of division rings, that is of fields;
        # so exactly when no x != 0 has x*x = 0 (a nilpotent x != 0 has a
        # power y != 0 with y*y = 0), and then R is commutative
        M = ring.np_mul
        if verdict.localizable != (np.count_nonzero(M.diagonal() == ring.zero) == 1):
            raise InternalInconsistency(
                f"the verdict {verdict.localizable} disagrees with the squares of R:"
                " R is localizable exactly when no nonzero element squares to 0"
            )
        if verdict.localizable and not np.array_equal(M, M.T):
            raise InternalInconsistency("a localizable ring is not commutative")

        return LocalizationProfile(
            ring,
            tuple((a, s) for a, s in family.items()),
            tuple(s for _, s in entries),
            tuple(a for a, _ in entries),
            tuple(localizations),
            radical,
            localizable,
            completely,
            non_localizable,
            verdict,
            dec,
        )


def is_left_localizable(ring: FiniteRing, guards: Guards = DEFAULT_GUARDS) -> bool:
    """The verdict on which the four routes of ``localization_profile`` agree."""
    return localization_profile(ring, guards).verdict.localizable


@dataclass(eq=False)
class SidedProfiles:
    """Left and right profiles side by side, plus the two-sided family."""

    left: LocalizationProfile
    right: LocalizationProfile
    two_sided_maximal: tuple[MulSet, ...]
    completely_localizable: CarrierSubset

    def to_doc(self) -> dict:
        return {
            "left": self.left.to_doc(),
            "right": self.right.to_doc(),
            "two_sided_maximal": [sorted(s) for s in self.two_sided_maximal],
            "completely_localizable": sorted(self.completely_localizable),
        }


def sided_profiles(ring: FiniteRing, guards: Guards = DEFAULT_GUARDS) -> SidedProfiles:
    """Run the analysis on the ring and on its opposite, then intersect.

    The right-hand profile is literally the left-hand analysis of the
    opposite ring; element indices agree because opposite() keeps the
    carrier fixed.
    """
    left = localization_profile(ring, guards)
    right = localization_profile(opposite(ring), guards)

    # both families pull the units of R/a back to the same set, so a set is
    # two-sided exactly when its annihilator ideal keys both families
    right_family = dict(right.saturated)
    two = {a: s for a, s in left.saturated if a in right_family}
    maximal_two = [s for _, s in _maximal_entries(two)]

    com = CarrierSubset.meet(ring.order, maximal_two)
    both = left.completely_localizable & right.completely_localizable
    if not com.issubset(both):
        raise InternalInconsistency(
            "two-sided completely-localizable elements escape the one-sided intersections"
        )
    return SidedProfiles(left, right, tuple(maximal_two), com)
