"""Left fraction rings built by the Ore calculus on pairs.

The construction is the textbook one: pairs (s, r) standing for s^-1 r,
identified when c*s = d*t lands in the denominator set with c*r = d*q.
It runs as numpy gathers on np_mul and np_add.  Two witness tables per
denominator, the mask of R*s and the least r with r*s = v, give the least
left Ore witness for whole arrays of (s, t) at once.  The classes come
from label propagation over two kinds of edges of the relation: within a
row, (s, r) ~ (s, r + g) for g in ass(S), which the starting labels (the
least element of each coset of ass(S)) already hold; across rows, one
Ore witness s1*s0 = r1*s per s ties row s and the least row s0 to row
r1*s, each by an edge (s, r) ~ (c*s, c*r) with c*s in S.  pair_class is
an array indexed by row(s)*n + r, and each table is one gather on it.
The tables are then certified by the characterization of S^-1 R: a ring
A with a unital map sigma: R -> A is the left localization at S exactly
when sigma(S) lies in the units of A, ker sigma = ass(S), and every
element of A is sigma(s)^-1 sigma(r).  On a finite ring S^-1 R is
R/ass(S), so sigma is onto, and checking that sigma is an onto unital
homomorphism with sigma(0) != sigma(1) proves that the tables form a ring
(``rings._image_ring``); Light's test is not run on them.  Every pair is
checked against the last condition, at every ring order.  The
construction never peeks at the quotient-by-annihilator shortcut; that
model is a separate oracle (``quotient_model_isomorphism``) used to
cross-check the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InternalInconsistency, NotDenominator
from .oresets import MulSet, ass, check_semigroup, core, is_left_denominator, subset_of
from .rings import (
    CarrierSubset,
    FiniteRing,
    RingMap,
    _image_ring,
    member_indices,
    once,
    quotient,
    r_isomorphism,
    regular_elements,
    unit_pullback,
    units,
    zero_ideal,
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

    reps[i] is the least (s, r) pair of class i under (s, r) order; sigma
    is the canonical map r |-> 1-over-s * (s r).  pair_class is a read-only
    int array of length |S|*n: entry row(s)*n + r is the class of (s, r),
    where row(s) is the position of s in S sorted.
    """

    base: FiniteRing
    dens: CarrierSubset
    ring: FiniteRing
    sigma: RingMap
    reps: tuple[tuple[int, int], ...]
    pair_class: np.ndarray = field(repr=False)

    def class_of(self, s: int, r: int) -> int:
        if s not in self.dens or not 0 <= r < self.base.order:
            raise ValueError(f"({s}, {r}) is not a denominator pair of this fraction ring")
        row = (self.dens.mask & ((1 << s) - 1)).bit_count()
        return int(self.pair_class[row * self.base.order + r])

    def to_doc(self) -> dict:
        from .catalog import canonical_hash

        return {
            "base_hash": canonical_hash(self.base),
            "denominators": list(self.dens),
            "order": self.ring.order,
            "zero": self.ring.zero,
            "one": self.ring.one,
            "add": self.ring.np_add.tolist(),
            "mul": self.ring.np_mul.tolist(),
            "sigma": self.sigma.table.tolist(),
            "representatives": [list(p) for p in self.reps],
        }


def build_fraction_ring(ring: FiniteRing, dens) -> FractionRing:
    """Localize at a left denominator set (or denominator semigroup).

    dens may be a MulSet, a CarrierSubset or an iterable of indices; a set
    without one is accepted as long as it is zero-free and closed, which
    is what cores of denominator sets look like.

    Every step is a gather on np_mul and np_add.  With S sorted and row i
    holding the pairs (S[i], r) at index i*n + r:

    - witness tables: Rs[i] is the mask of R*S[i] and pre[i, v] the least r
      with r*S[i] == v.  The least left Ore witness w*t == r'*S[i] (w in
      S) is then the first hit of Rs[i] along the row M[S, t], and
      r' = pre[i, w*t], elementwise for whole arrays of (i, t).
    - classing: each pair starts labelled by the least pair of its coset
      r + ass(S) in its row.  Some t in S has t*g = 0 for g in ass(S), so
      (s, r) ~ (t*s, t*r) = (t*s, t*(r + g)) ~ (s, r + g).  With s0 = S[0]
      and one witness s1*s0 = r1*s per row, row s is joined to row r1*s
      by r |-> r1*r and row s0 to the same row by r |-> s1*r: both are
      (s, r) ~ (c*s, c*r) with c*s in S, and sigma(r1), sigma(s1) are
      units, so each map meets every class of the target row.  Labels
      spread along these 2*|S|*n edges by hooking the larger root under
      the smaller and pointer jumping, until every edge sits in one class.
      Every root is then the least pair of its class; classes are
      numbered by it, and pair_class is indexed by row(s)*n + r.
    - tables: the witnesses are found once per anchor pair for + and once
      per (anchor, numerator) for *, then each table is one gather on
      pair_class.

    The result is certified by the characterization of S^-1 R, which pins
    it down at every order: sigma is an onto unital homomorphism (which
    proves the tables form a ring) sending S into the units with kernel
    ass(S), there are exactly n/|ass(S)| classes, and
    sigma(s) * [s, r] == sigma(r) for every pair (s, r); a missing join
    fails the class count.
    """
    elems = subset_of(ring, dens)
    check_semigroup(ring, elems)
    den = once(is_left_denominator, ring, elems)
    if not den.holds:
        raise NotDenominator(den.witness)

    n, A, M = ring.order, ring.np_add, ring.np_mul
    S = member_indices(elems)
    m, a = len(S), once(ass, ring, elems)
    row_of = np.zeros(n, dtype=np.intp)
    row_of[S] = np.arange(m)

    # Rs[i] = mask of R*S[i]; pre[i, v] = least r with r*S[i] == v
    at = (np.arange(m), M[:, S])
    Rs = np.zeros((m, n), dtype=bool)
    Rs[at] = True
    pre = np.full((m, n), n, dtype=np.intp)
    np.minimum.at(pre, at, np.arange(n)[:, None])

    def witness(anchor, through):
        # elementwise the least (w, r') in S x R with w*through == r'*S[anchor]
        hit = Rs[anchor[..., None], M[S, through[..., None]]]
        if not hit.any(-1).all():
            raise InternalInconsistency("left Ore witness vanished during table build")
        w = S[hit.argmax(-1)]
        return w, pre[anchor, M[w, through]]

    labels = (np.arange(0, m * n, n)[:, None] + A[:, member_indices(a)].min(1)).ravel()
    s1, r1 = witness(np.arange(m), S[:1])  # s1*s0 == r1*s lies in S
    to = row_of[M[s1, S[0]]][:, None] * n
    src = np.concatenate([np.arange(m * n), np.tile(np.arange(n), m)])
    dst = np.concatenate([(to + M[r1]).ravel(), (to + M[s1]).ravel()])
    # labels only fall: hook each split edge's larger root under the smaller, then jump to roots
    while True:
        lu, lv = labels[src], labels[dst]
        split = lu != lv
        if not split.any():
            break
        np.minimum.at(labels, np.maximum(lu, lv)[split], np.minimum(lu, lv)[split])
        while not np.array_equal(jumped := labels[labels], labels):
            labels = jumped
    is_root = labels == np.arange(m * n)
    pair_class = (np.cumsum(is_root) - 1)[labels]
    pair_class.setflags(write=False)
    roots = np.flatnonzero(is_root)
    k = len(roots)
    if k * len(a) != n:
        raise InternalInconsistency(
            f"{k} pair classes, but R/ass(S) has {n // len(a)} elements"
        )

    rows, nums = np.divmod(roots, n)  # reps[i] is (S[rows[i]], nums[i])
    anchors, ai = np.unique(rows, return_inverse=True)
    numerators, ni = np.unique(nums, return_inverse=True)
    s, r, t, q = S[rows][:, None], nums[:, None], S[rows], nums
    # s^-1 r + t^-1 q = (s1 t)^-1 (r1 r + s1 q) whenever s1 t = r1 s
    s1, r1 = (x[ai[:, None], ai] for x in witness(anchors[:, None], S[anchors]))
    add_table = pair_class[row_of[M[s1, t]] * n + A[M[r1, r], M[s1, q]]]
    # s^-1 r * t^-1 q = (t1 s)^-1 (r2 q) whenever t1 r = r2 t
    t1, r2 = (x[ai, ni[:, None]] for x in witness(anchors[:, None], numerators))
    mul_table = pair_class[row_of[M[t1, s]] * n + M[r2, q]]

    sigma_table = pair_class[M[S[0]]]  # row s0 is row 0
    reps = tuple(zip(S[rows].tolist(), nums.tolist()))
    names = tuple(f"{s}\\{r}" for s, r in reps)
    sigma = _image_ring(ring, sigma_table, add_table, mul_table, names, "canonical map")
    fr_ring = sigma.target

    if sigma.kernel() != a:
        raise InternalInconsistency("kernel of the canonical map differs from ass(S)")
    lost = elems - unit_pullback(sigma)
    if lost:
        raise InternalInconsistency(f"denominator {min(lost)} is not invertible in the fractions")
    # one gather checks every pair
    missed = fr_ring.np_mul[sigma_table[np.repeat(S, n)], pair_class] != np.tile(sigma_table, m)
    if missed.any():
        i, r = divmod(int(missed.argmax()), n)
        raise InternalInconsistency(f"s * (s^-1 r) failed to recover r at pair ({S[i]}, {r})")

    return FractionRing(ring, elems, fr_ring, sigma, reps, pair_class)


def quotient_model_isomorphism(fr: FractionRing) -> RingMap:
    """The oracle: R/ass(S) -> S^-1 R, cosets through the canonical map.

    The map is induced by the projection, so it commutes with the
    canonical maps from R; well-definedness, the homomorphism laws and
    bijectivity are verified, and any failure is an internal error
    because on finite rings this comparison is forced by theory.
    """
    proj = once(quotient, fr.base, fr.sigma.kernel())[1]
    try:
        return r_isomorphism(proj, fr.sigma)
    except ValueError as e:
        raise InternalInconsistency(f"quotient model map is not an R-isomorphism: {e}") from e


def core_transfer_isomorphism(fr: FractionRing) -> tuple[FractionRing, RingMap]:
    """Localize at the core and exhibit s^-1 r |-> s^-1 r as an R-isomorphism."""
    ring = fr.base
    c = core(ring, fr.dens)
    if not c:
        raise InternalInconsistency("a left Ore set on a finite ring has an empty core")
    cfr = once(build_fraction_ring, ring, c)
    try:
        return cfr, r_isomorphism(cfr.sigma, fr.sigma)
    except ValueError as e:
        raise InternalInconsistency(f"core transfer map is not an R-isomorphism: {e}") from e


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
    are asserted, as is the third: sigma: R -> Q_l(R) is bijective, so
    the largest quotient of a finite ring is the ring itself.
    """
    u = units(ring)
    if unit_pullback(once(quotient, ring, zero_ideal(ring))[1]) != u:
        raise InternalInconsistency("unit pullback through R/0 differs from the unit group")
    if regular_elements(ring) != u:
        raise InternalInconsistency("regular elements differ from units on a finite ring")
    s0 = MulSet(ring, u)
    den = once(is_left_denominator, ring, u)
    if not den.holds:
        raise InternalInconsistency(f"the unit group failed the denominator test at {den.witness}")
    fr = once(build_fraction_ring, ring, u)
    if not fr.sigma.is_bijective():
        raise InternalInconsistency("largest quotient of a finite ring must be the ring itself")
    return LargestQuotient(s0, fr)


def classical_left_quotient(ring: FiniteRing) -> LargestQuotient:
    """The classical quotient at the regular elements.

    On finite rings the regular elements are the units, so this collapses
    to ``largest_left_quotient``, which asserts that identity.
    """
    return largest_left_quotient(ring)
