"""Left fraction rings built by the Ore calculus on pairs.

The construction is the textbook one: pairs (s, r) standing for s^-1 r,
identified when c*s = d*t lands in the denominator set with c*r = d*q.
That relation is generated by (s, r) ~ (c*s, c*r) for c*s in S, so one
union-find over the pairs finds its classes.  The tables are then
certified by the characterization of S^-1 R: a ring A with a unital map
sigma: R -> A is the left localization at S exactly when sigma(S) lies
in the units of A, ker sigma = ass(S), and every element of A is
sigma(s)^-1 sigma(r).  Every pair is checked against the last condition,
at every ring order.  The construction never peeks at the
quotient-by-annihilator shortcut; that model is a separate oracle
(``quotient_model_isomorphism``) used to cross-check the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InternalInconsistency, NotDenominator
from .oresets import MulSet, _check_semigroup, _subset_of, ass, core, is_left_denominator
from .rings import (
    CarrierSubset,
    FiniteRing,
    RingMap,
    induced_map,
    once,
    quotient,
    regular_elements,
    unit_pullback,
    units,
)

__all__ = [
    "FractionRing",
    "LargestQuotient",
    "build_fraction_ring",
    "quotient_model_isomorphism",
    "core_transfer_isomorphism",
    "largest_left_quotient",
    "classical_left_quotient",
]

@dataclass(eq=False)
class FractionRing:
    """S^-1 R together with its bookkeeping.

    reps[i] is the minimal (s, r) pair of class i under (s, r) order;
    sigma is the canonical map r |-> 1-over-s * (s r).
    """

    base: FiniteRing
    dens: CarrierSubset
    ring: FiniteRing
    sigma: RingMap
    reps: tuple[tuple[int, int], ...]
    pair_class: dict = field(repr=False)

    def class_of(self, s: int, r: int) -> int:
        try:
            return self.pair_class[(s, r)]
        except KeyError:
            raise ValueError(f"({s}, {r}) is not a denominator pair of this fraction ring")

    def to_doc(self) -> dict:
        from .catalog import canonical_hash

        return {
            "base_hash": canonical_hash(self.base),
            "denominators": list(self.dens),
            "order": self.ring.order,
            "zero": self.ring.zero,
            "one": self.ring.one,
            "add": [list(row) for row in self.ring.add],
            "mul": [list(row) for row in self.ring.mul],
            "sigma": list(self.sigma.table),
            "representatives": [list(p) for p in self.reps],
        }


def build_fraction_ring(ring: FiniteRing, dens) -> FractionRing:
    """Localize at a left denominator set (or denominator semigroup).

    dens may be a MulSet, a CarrierSubset or an iterable of indices; a set
    without one is accepted as long as it is zero-free and closed, which
    is what cores of denominator sets look like.

    The pairs are classed by one union-find over the |S|*n pairs that
    joins (s, r) with (c*s, c*r) whenever c*s lies in S; classes are
    numbered by their least pair.  The result is then certified by the
    characterization of S^-1 R, which pins it down at every order: the
    tables form a ring, sigma is a unital homomorphism sending S into the
    units with kernel ass(S), there are exactly n/|ass(S)| classes, and
    sigma(s) * [s, r] == sigma(r) for every pair (s, r).
    """
    elems = _subset_of(ring, dens)
    _check_semigroup(ring, elems)
    den = is_left_denominator(ring, elems)
    if not den.holds:
        raise NotDenominator(den.witness)

    n = ring.order
    mul, add = ring.mul, ring.add
    s_list = sorted(elems.indices())
    pairs = [(s, r) for s in s_list for r in range(n)]  # pair (s_list[i], r) sits at i*n + r

    # union-find joining (s, r) with (c*s, c*r) whenever c*s lies in S; a
    # merge hangs the larger root under the smaller, so every root is the
    # least pair of its class
    index = {s: i * n for i, s in enumerate(s_list)}
    parent = list(range(len(pairs)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for s in s_list:
        at_s = index[s]
        for row in mul:  # row[x] == c*x for one c
            base = index.get(row[s])
            if base is not None:
                for r in range(n):
                    x, y = find(at_s + r), find(base + row[r])
                    if x != y:
                        parent[max(x, y)] = min(x, y)
    roots = sorted({find(p) for p in range(len(pairs))})
    number = {root: i for i, root in enumerate(roots)}
    reps = [pairs[root] for root in roots]
    pair_class = {p: number[find(i)] for i, p in enumerate(pairs)}
    k = len(reps)

    a = ass(ring, elems)
    if k * len(a) != n:
        raise InternalInconsistency(
            f"{k} pair classes, but R/ass(S) has {n // len(a)} elements"
        )

    # by_value[s][v] = all r' with r'*s == v, for witness searches
    by_value: dict[int, dict[int, list[int]]] = {}
    for s in s_list:
        m: dict[int, list[int]] = {}
        for rp in range(n):
            m.setdefault(mul[rp][s], []).append(rp)
        by_value[s] = m

    def first_witness(anchor: int, through: int):
        # smallest (w, r') in S x R with w*through == r'*anchor
        lookup = by_value[anchor]
        for w in s_list:
            cands = lookup.get(mul[w][through])
            if cands:
                return w, cands[0]
        raise InternalInconsistency("left Ore witness vanished during table build")

    add_table = [[0] * k for _ in range(k)]
    mul_table = [[0] * k for _ in range(k)]
    for i, (s, r) in enumerate(reps):
        for j, (t, q) in enumerate(reps):
            # s^-1 r + t^-1 q = (s1 t)^-1 (r1 r + s1 q) whenever s1 t = r1 s
            s1, r1 = first_witness(s, t)
            add_table[i][j] = pair_class[(mul[s1][t], add[mul[r1][r]][mul[s1][q]])]
            # s^-1 r * t^-1 q = (t1 s)^-1 (r2 q) whenever t1 r = r2 t
            t1, r2 = first_witness(t, r)
            mul_table[i][j] = pair_class[(mul[t1][s], mul[r2][q])]

    s0 = s_list[0]
    sigma_table = tuple(pair_class[(s0, mul[s0][x])] for x in range(n))
    names = tuple(f"{s}\\{r}" for s, r in reps)
    fr_ring = FiniteRing(
        k, add_table, mul_table, sigma_table[ring.zero], sigma_table[ring.one], names
    )
    try:
        sigma = RingMap(ring, fr_ring, sigma_table)
    except ValueError as e:
        raise InternalInconsistency(f"canonical map is not a homomorphism: {e}") from e

    if sigma.kernel() != a:
        raise InternalInconsistency("kernel of the canonical map differs from ass(S)")
    fr_units = units(fr_ring)
    for s in s_list:
        if sigma(s) not in fr_units:
            raise InternalInconsistency(f"denominator {s} is not invertible in the fractions")
    fr_mul = fr_ring.mul
    for (s, r), cls in pair_class.items():
        if fr_mul[sigma(s)][cls] != sigma(r):
            raise InternalInconsistency(f"s * (s^-1 r) failed to recover r at pair ({s}, {r})")

    return FractionRing(ring, elems, fr_ring, sigma, tuple(reps), pair_class)


def quotient_model_isomorphism(fr: FractionRing) -> RingMap:
    """The oracle: R/ass(S) -> S^-1 R, cosets through the canonical map.

    The map is induced by the projection, so it commutes with the
    canonical maps from R; well-definedness, the homomorphism laws and
    bijectivity are verified, and any failure is an internal error
    because on finite rings this comparison is forced by theory.
    """
    proj = once(quotient, fr.base, fr.sigma.kernel())[1]
    return _r_isomorphism(proj, fr.sigma, "quotient model map")


def core_transfer_isomorphism(fr: FractionRing) -> tuple[FractionRing, RingMap]:
    """Localize at the core and exhibit s^-1 r |-> s^-1 r as an R-isomorphism."""
    ring = fr.base
    c = core(ring, fr.dens)
    if not c:
        raise InternalInconsistency("a left Ore set on a finite ring has an empty core")
    cfr = once(build_fraction_ring, ring, c)
    return cfr, _r_isomorphism(cfr.sigma, fr.sigma, "core transfer map")


def _r_isomorphism(f: RingMap, g: RingMap, what: str) -> RingMap:
    """induced_map(f, g), which theory forces to be an R-isomorphism."""
    try:
        theta = induced_map(f, g)
    except ValueError as e:
        raise InternalInconsistency(f"{what} is not an R-isomorphism: {e}") from e
    if not theta.is_bijective():
        raise InternalInconsistency(f"{what} is not an R-isomorphism")
    return theta


@dataclass(frozen=True)
class LargestQuotient:
    """The largest left quotient ring and its regular denominator set."""

    regular_set: MulSet
    fractions: FractionRing

    @property
    def ring(self) -> FiniteRing:
        return self.fractions.ring


def largest_left_quotient(ring: FiniteRing) -> LargestQuotient:
    """Localize at the largest regular left denominator set.

    The set is found the same way the saturated family finds it (pull the
    units of R/0 back through the projection); on a finite ring it must
    equal the unit group and the regular elements, and both identities
    are asserted.
    """
    zero_ideal = CarrierSubset.from_indices(ring.order, [ring.zero])
    u = units(ring)
    if unit_pullback(once(quotient, ring, zero_ideal)[1]) != u:
        raise InternalInconsistency("unit pullback through R/0 differs from the unit group")
    if regular_elements(ring) != u:
        raise InternalInconsistency("regular elements differ from units on a finite ring")
    s0 = MulSet(ring, u)
    den = is_left_denominator(s0)
    if not den.holds:
        raise InternalInconsistency(f"the unit group failed the denominator test at {den.witness}")
    fr = once(build_fraction_ring, ring, u)
    return LargestQuotient(s0, fr)


def classical_left_quotient(ring: FiniteRing) -> LargestQuotient:
    """The classical quotient at the regular elements.

    On finite rings the regular elements are the units, so this collapses
    to ``largest_left_quotient``, which asserts that identity.
    """
    return largest_left_quotient(ring)
