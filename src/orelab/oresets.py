"""Multiplicative sets, left Ore and left denominator conditions.

The predicates work on any zero-free multiplicatively closed subset, not
only on sets that contain one: cores of denominator sets are closed
semigroups that usually lack one, yet they are denominator sets in every
sense that matters (their fraction rings exist and are isomorphic to the
original ones).  ``MulSet`` is the strict notion used in reports.

The predicates are gathers on the numpy table ``ring.np_mul``, and a
failure's witness is the first one in lexicographic order.
``mul_closure`` closes a member vector by doubling, also by gathers; a
scalar walk runs only to name the product chain of a closure that
reaches zero.  Callers in
the package reach ``ass`` and ``is_left_denominator`` through
``rings.once`` with a ring and a ``CarrierSubset``, so each runs once per
(ring, set) in an analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .errors import InternalInconsistency, NotDenominator, NotOre, ZeroAbsorbed
from .rings import CarrierSubset, FiniteRing, is_two_sided_ideal, mask_members, members_mask
from .rings import doubling_closure, member_indices, once, one_analysis, opposite

__all__ = [
    "MulSet",
    "Verdict",
    "OreReport",
    "mul_closure",
    "closure_escape",
    "is_left_ore",
    "is_left_denominator",
    "ass",
    "r_ass",
    "core",
    "max_kernel_elements",
    "saturate",
    "denominator_sidedness",
    "ore_report",
]


class Verdict(NamedTuple):
    """Outcome of a yes/no check; witness explains a failure."""

    holds: bool
    witness: tuple | None


class MulSet:
    """A multiplicative subset: contains one, excludes zero, closed."""

    __slots__ = ("ring", "elements")

    def __init__(self, ring: FiniteRing, elements):
        if not isinstance(elements, CarrierSubset):
            elements = CarrierSubset.from_indices(ring.order, elements)
        if elements.n != ring.order:
            raise ValueError("subset lives on a different carrier")
        if ring.one not in elements:
            raise ValueError("a multiplicative set must contain one")
        if ring.zero in elements:
            raise ValueError("a multiplicative set must not contain zero")
        escape = closure_escape(ring, elements)
        if escape is not None:
            s, t = escape
            raise ValueError(f"not closed under multiplication: {s}*{t} escapes")
        self.ring = ring
        self.elements = elements

    def __contains__(self, x: int) -> bool:
        return x in self.elements

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def mask(self) -> int:
        return self.elements.mask

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MulSet)
            and self.ring == other.ring
            and self.elements == other.elements
        )

    def __hash__(self) -> int:
        return hash((self.ring, self.elements))

    def __str__(self) -> str:
        return str(self.elements)

    def __repr__(self) -> str:
        return f"MulSet({self.elements})"


def subset_of(ring: FiniteRing, setlike) -> CarrierSubset:
    """Normalize MulSet / CarrierSubset / iterable to a CarrierSubset."""
    if isinstance(setlike, MulSet):
        if setlike.ring != ring:
            raise ValueError("set belongs to a different ring")
        return setlike.elements
    if isinstance(setlike, CarrierSubset):
        if setlike.n != ring.order:
            raise ValueError("subset lives on a different carrier")
        return setlike
    return CarrierSubset.from_indices(ring.order, setlike)


def _ring_and_subset(ring_or_mulset, setlike) -> tuple[FiniteRing, CarrierSubset]:
    """(ring, elements) of a MulSet alone, or of a ring and a set-like."""
    if setlike is None:
        return ring_or_mulset.ring, ring_or_mulset.elements
    return ring_or_mulset, subset_of(ring_or_mulset, setlike)


def check_semigroup(ring: FiniteRing, elems: CarrierSubset) -> None:
    """Zero-free, nonempty, multiplicatively closed; raises otherwise."""
    if not elems:
        raise ValueError("empty set cannot be a denominator semigroup")
    if ring.zero in elems:
        raise ValueError("denominator semigroup must not contain zero")
    escape = closure_escape(ring, elems)
    if escape is not None:
        s, t = escape
        raise ValueError(f"not multiplicatively closed: {s}*{t} escapes")


def closure_escape(ring: FiniteRing, elems: CarrierSubset) -> tuple[int, int] | None:
    """The first (s, t) of S x S in row-major order with s*t outside S, or None."""
    members = mask_members(ring.order, elems.mask)
    S = members.nonzero()[0]
    escapes = ~members[ring.np_mul[S[:, None], S]]
    if not escapes.any():
        return None
    i, j = divmod(int(escapes.argmax()), len(S))
    return int(S[i]), int(S[j])


def mul_closure(ring: FiniteRing, generators: Iterable[int]) -> MulSet:
    """Smallest multiplicative set containing the generators and one.

    The member vector is closed by doubling on ``np_mul``, as the
    additive closure of the ideal layer is on ``np_add``.  Raises
    ZeroAbsorbed with a product chain when zero is reachable; only then
    does the scalar walk ``_zero_chain`` run, to find that chain.
    """
    gens = [int(g) for g in generators]
    for g in gens:
        if not 0 <= g < ring.order:
            raise ValueError(f"generator {g} outside carrier")
    members = np.zeros(ring.order, dtype=bool)
    members[[ring.one, *gens]] = True
    doubling_closure(ring.np_mul, members)
    if members[ring.zero]:
        raise ZeroAbsorbed(_zero_chain(ring, gens))
    return MulSet(ring, CarrierSubset(ring.order, members_mask(members)))


def _zero_chain(ring: FiniteRing, gens: list[int]) -> list[tuple[int, int, int]]:
    """The product chain by which the closure of gens and one reaches zero.

    A breadth-first walk: each new member is multiplied by every earlier
    one on both sides, and each product not yet met records the pair that
    made it first.  The chain lists the steps of zero's derivation, each
    factor a generator, one or the product of an earlier step; a zero
    generator is the one step (0, one, 0).
    """
    mul = [None] * ring.order  # the members' rows, read as lists
    mul[ring.one] = ring.np_mul[ring.one].tolist()
    members = [ring.one]
    seen = 1 << ring.one
    parents: dict[int, tuple[int, int]] = {}
    queue = [g for g in gens if not (seen >> g) & 1]

    def chain_to(e: int) -> list[tuple[int, int, int]]:
        if e not in parents:
            return []
        x, y = parents[e]
        return chain_to(x) + chain_to(y) + [(x, y, e)]

    while queue:
        x = queue.pop(0)
        if (seen >> x) & 1:
            continue
        if x == ring.zero:
            return chain_to(x) or [(x, ring.one, x)]
        seen |= 1 << x
        members.append(x)
        mul[x] = ring.np_mul[x].tolist()
        for m in list(members):
            for a, b in ((x, m), (m, x)):
                p = mul[a][b]
                if not (seen >> p) & 1 and p not in parents:
                    parents[p] = (a, b)
                    queue.append(p)
    raise InternalInconsistency("the closure by doubling reached zero, the scalar walk did not")


def ass(ring_or_mulset, setlike=None) -> CarrierSubset:
    """ass(S) = {r : s*r = 0 for some s in S}, the union of left kernels."""
    ring, elems = _ring_and_subset(ring_or_mulset, setlike)
    S = member_indices(elems)
    return CarrierSubset(ring.order, members_mask((ring.np_mul[S] == ring.zero).any(0)))


def r_ass(ring: FiniteRing, setlike) -> CarrierSubset:
    """r.ass(X) = {r : r*x = 0 for some x in X}."""
    elems = subset_of(ring, setlike)
    if not elems:
        raise ValueError("r_ass needs a nonempty set")
    X = member_indices(elems)
    return CarrierSubset(ring.order, members_mask((ring.np_mul[:, X] == ring.zero).any(1)))


def is_left_ore(ring_or_mulset, setlike=None) -> Verdict:
    """Left Ore condition: S*r meets R*s for every r in R, s in S.

    On failure the witness is the violating pair (r, s), first in
    lexicographic order.

    Only the denominators s that can fail are tested.  An s with a left
    inverse v (in a finite ring, a unit) never fails, as R*s holds every
    r = (r*v)*s; nor does a central s, as s*r = r*s lies in S*r and in
    R*s.  Both are read from S's own rows and columns of the table, so in
    a commutative ring the test ends there.  Dropping members that never
    fail leaves the verdict and the first failing (r, s) as they were.
    """
    ring, elems = _ring_and_subset(ring_or_mulset, setlike)
    n, M = ring.order, ring.np_mul
    S = member_indices(elems)
    rows, cols = M[S], M[:, S]
    tested = ~((cols == ring.one).any(0) | (rows == cols.T).all(1))
    if not tested.any():
        return Verdict(True, None)
    D = S[tested]
    # 0/1 member matrices: sr[r] is S*r and rs[j] is R*d_j; (sr @ rs.T)[r, j]
    # counts |S*r meet R*d_j| exactly, as counts <= n < 2**24 fit a float32
    sr = np.zeros((n, n), dtype=np.float32)
    sr[np.arange(n), rows] = 1
    rs = np.zeros((len(D), n), dtype=np.float32)
    rs[np.arange(len(D)), cols[:, tested]] = 1
    disjoint = (sr @ rs.T) == 0
    if not disjoint.any():
        return Verdict(True, None)
    r, j = divmod(int(disjoint.argmax()), len(D))
    return Verdict(False, (r, int(D[j])))


def is_left_denominator(ring_or_mulset, setlike=None) -> Verdict:
    """Left Ore plus left reversibility: r*s = 0 with s in S forces t*r = 0
    for some t in S, that is, r.ass(S) is contained in ass(S).

    On a finite ring reversibility follows from the Ore condition, as a
    finite ring is left Noetherian; it is still checked.  The witness of
    a failure is the least r in r.ass(S) - ass(S) and the least s in S
    with r*s = 0.
    """
    ring, elems = _ring_and_subset(ring_or_mulset, setlike)
    ore = once(is_left_ore, ring, elems)
    if not ore.holds:
        return ore
    S = member_indices(elems)
    kills = ring.np_mul[:, S] == ring.zero  # kills[r, j]: r*s_j = 0
    irreversible = kills.any(1) & ~mask_members(ring.order, once(ass, ring, elems).mask)
    if not irreversible.any():
        return Verdict(True, None)
    r = int(irreversible.argmax())
    return Verdict(False, (r, int(S[kills[r].argmax()])))


def core(ring_or_mulset, setlike=None) -> CarrierSubset:
    """Elements of S whose left kernel is all of ass(S); needs left Ore."""
    ring, elems = _ring_and_subset(ring_or_mulset, setlike)
    ore = once(is_left_ore, ring, elems)
    if not ore.holds:
        raise NotOre(ore.witness)
    S = member_indices(elems)
    kernels = ring.np_mul[S] == ring.zero  # row j is the left kernel of s_j
    full = (kernels == kernels.any(0)).all(1)
    return CarrierSubset.from_indices(ring.order, S[full])


def max_kernel_elements(ring_or_mulset, setlike=None) -> CarrierSubset:
    """Members whose left kernel is maximal among members' kernels.

    For a left Ore set this must coincide with the core; that identity is
    asserted here rather than assumed.
    """
    ring, elems = _ring_and_subset(ring_or_mulset, setlike)
    S = member_indices(elems)
    kernels = (ring.np_mul[S] == ring.zero).astype(np.float32)  # row j is the left kernel of s_j
    below = kernels @ (1 - kernels).T == 0  # [i, j]: the kernel of s_i lies in that of s_j
    result = CarrierSubset.from_indices(ring.order, S[~(below & ~below.T).any(1)])
    if once(is_left_ore, ring, elems).holds:
        if result != core(ring, elems):
            raise InternalInconsistency(
                f"max-kernel members {result} differ from core {core(ring, elems)}"
            )
    return result


def saturate(mulset: MulSet) -> MulSet:
    """Division-closure of a left denominator set.

    Computed as the preimage of the units of R/ass(S) under the projection
    and independently as the preimage of the units of the fraction ring
    under the canonical map; the two must agree.
    """
    from . import localize  # deferred: localize depends on this module
    from .rings import quotient, unit_pullback

    ring, elems = mulset.ring, mulset.elements
    den = once(is_left_denominator, ring, elems)
    if not den.holds:
        raise NotDenominator(den.witness)
    a = once(ass, ring, elems)
    if not is_two_sided_ideal(ring, a):
        raise InternalInconsistency(f"ass {a} of a denominator set is not an ideal")
    by_quotient = unit_pullback(quotient(ring, a)[1])
    by_fractions = unit_pullback(localize.build_fraction_ring(ring, mulset).sigma)
    if by_quotient != by_fractions:
        raise InternalInconsistency(
            f"saturation routes disagree: quotient {by_quotient}, fractions {by_fractions}"
        )
    out = MulSet(ring, by_quotient)
    if not mulset.elements.issubset(out.elements):
        raise InternalInconsistency("saturation lost elements of the original set")
    if once(ass, ring, out.elements) != a:
        raise InternalInconsistency("saturation changed the annihilator ideal")
    return out


def denominator_sidedness(mulset: MulSet) -> str:
    """Classify as left-only, right-only, two-sided or neither.

    The right-hand check runs the left predicate on the opposite ring.
    """
    left = once(is_left_denominator, mulset.ring, mulset.elements).holds
    right = once(is_left_denominator, opposite(mulset.ring), mulset.elements).holds
    if left and right:
        return "two-sided"
    if left:
        return "left-only"
    if right:
        return "right-only"
    return "neither"


@dataclass(frozen=True)
class OreReport:
    """Everything the one-set analysis knows about a multiplicative set."""

    mulset: MulSet
    left_ore: Verdict
    left_denominator: Verdict
    annihilator: CarrierSubset
    core: CarrierSubset | None  # None when the set is not left Ore
    core_empty: bool | None
    saturation: MulSet | None  # None when the set is not a denominator set
    sidedness: str

    def to_doc(self) -> dict:
        return {
            "set": list(self.mulset.elements),
            "is_left_ore": self.left_ore.holds,
            "ore_witness": list(self.left_ore.witness) if self.left_ore.witness else None,
            "is_left_denominator": self.left_denominator.holds,
            "denominator_witness": (
                list(self.left_denominator.witness) if self.left_denominator.witness else None
            ),
            "ass": list(self.annihilator),
            "core": list(self.core) if self.core is not None else None,
            "core_empty": self.core_empty,
            "saturation": list(self.saturation.elements) if self.saturation else None,
            "sidedness": self.sidedness,
        }


def ore_report(mulset: MulSet) -> OreReport:
    """Run every one-set analysis, under one memo, and bundle the results."""
    ring = mulset.ring
    with one_analysis():
        ore = once(is_left_ore, ring, mulset.elements)
        den = once(is_left_denominator, ring, mulset.elements)
        a = once(ass, ring, mulset.elements)
        if a.mask & mulset.mask:
            raise InternalInconsistency("a multiplicative set meets its own annihilator")
        c = None
        c_empty = None
        if ore.holds:
            c = core(mulset)
            c_empty = len(c) == 0
            if not c.issubset(mulset.elements):
                raise InternalInconsistency("core escapes the set")
        sat = saturate(mulset) if den.holds else None
        return OreReport(mulset, ore, den, a, c, c_empty, sat, denominator_sidedness(mulset))
