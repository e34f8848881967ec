"""Finite unital rings presented by explicit operation tables.

A ring lives on the carrier {0, ..., n-1}.  Its only tables are
``np_add`` and ``np_mul``: full n-by-n read-only int64 arrays.  ``add``
and ``mul`` are a tuple view of them, built on first read, for readers
outside the package; nothing in the package reads them.  A ``FiniteRing``
that exists is a ring, by one of two proofs.

Tables from the caller (``from_tables``, ring files, the catalog
constructors) are copied once and validated against every unital-ring
law; the first failure is reported with a witness.  The check is a
proof in O(n^2 log n): the laws in one or two variables are checked
outright, and each law in three variables only for its middle variable
b in a generating set G of (R, +), one n-by-n gather per g in G; G has
at most log2(n) + 1 elements when (R, +) is a group.  The b that pass
form a set closed under +, so passing on G proves the law for every b:

- add-associative, by Light's test: if b and b' pass, so does b + b';
- left- and right-distributive, once + is associative;
- mul-associative, once both distributive laws hold.

Tables derived from rings that already exist are proved by the map that
builds them instead, and are not copied.  A quotient R/a and a fraction
ring S^-1 R (which is R/ass(S) on a finite ring) come with a map f from
R; f is checked to be onto, to preserve + and * and to keep 0 and 1
apart, which carries every law of R onto the image (``_image_ring``).  A
direct product is carried by its radix digits, a bijection onto the
tuples, and its projections, each checked as a ring map onto a factor.
A failure there is a bug in the builder, so it raises
``InternalInconsistency``, never ``AxiomViolation``.  An opposite ring
needs no check: the identity map is an anti-isomorphism R -> R^op.

Subsets of the carrier are bitmask-backed ``CarrierSubset`` values; maps
between rings are table-backed ``RingMap`` values validated as unital
ring homomorphisms.  Quotient, product and opposite tables are built by
gathers on ``np_add`` and ``np_mul``.
"""

from __future__ import annotations

import inspect
import math
import operator
import sys
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    AxiomViolation,
    Guards,
    DEFAULT_GUARDS,
    ImproperIdeal,
    InternalInconsistency,
    NotAnIdeal,
    SizeGuardExceeded,
)

__all__ = [
    "CarrierSubset",
    "FiniteRing",
    "RingMap",
    "ProductRing",
    "from_tables",
    "units",
    "regular_elements",
    "is_division_ring",
    "ideal_closure",
    "principal_ideals",
    "is_additive_subgroup",
    "is_two_sided_ideal",
    "subgroup_sum",
    "table_image",
    "zero_ideal",
    "quotient",
    "induced_map",
    "r_isomorphism",
    "unit_pullback",
    "radix_encode",
    "radix_decode",
    "direct_product",
    "opposite",
    "additive_subgroups",
    "two_sided_ideals",
    "left_ideals",
    "minimal_primes",
    "is_semiprime",
    "uniform_dimension",
]


def _bit_indices(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class CarrierSubset:
    """A subset of {0..n-1} stored as a bitmask; immutable by convention.

    The mask and every index pass through ``operator.index``, so a numpy
    integer acts as the Python int it holds (an int64 shift would wrap and
    an int64 mask has no ``bit_length``), and a float raises ``TypeError``.
    """

    __slots__ = ("n", "mask")

    def __init__(self, n: int, mask: int = 0):
        mask = operator.index(mask)
        if n <= 0:
            raise ValueError("carrier size must be positive")
        if mask < 0 or mask >> n:
            raise ValueError(f"mask {mask:#x} does not fit a carrier of size {n}")
        self.n = n
        self.mask = mask

    @classmethod
    def from_indices(cls, n: int, indices: Iterable[int]) -> "CarrierSubset":
        mask = 0
        for i in map(operator.index, indices):
            if not 0 <= i < n:
                raise ValueError(f"index {i} outside carrier of size {n}")
            mask |= 1 << i
        return cls(n, mask)

    @classmethod
    def full(cls, n: int) -> "CarrierSubset":
        return cls(n, (1 << n) - 1)

    @classmethod
    def empty(cls, n: int) -> "CarrierSubset":
        return cls(n, 0)

    @classmethod
    def meet(cls, n: int, subsets: Iterable) -> "CarrierSubset":
        """The intersection of subsets of {0..n-1}, given as anything with a
        mask (a CarrierSubset or a MulSet); the whole carrier when there
        are none."""
        mask = (1 << n) - 1
        for s in subsets:
            mask &= s.mask
        return cls(n, mask)

    def indices(self) -> tuple[int, ...]:
        return tuple(_bit_indices(self.mask))

    def __contains__(self, i: int) -> bool:
        i = operator.index(i)
        return 0 <= i < self.n and (self.mask >> i) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return _bit_indices(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def _check_same(self, other: "CarrierSubset") -> None:
        if self.n != other.n:
            raise ValueError("subsets live on different carriers")

    def __or__(self, other: "CarrierSubset") -> "CarrierSubset":
        self._check_same(other)
        return CarrierSubset(self.n, self.mask | other.mask)

    def __and__(self, other: "CarrierSubset") -> "CarrierSubset":
        self._check_same(other)
        return CarrierSubset(self.n, self.mask & other.mask)

    def __sub__(self, other: "CarrierSubset") -> "CarrierSubset":
        self._check_same(other)
        return CarrierSubset(self.n, self.mask & ~other.mask)

    def complement(self) -> "CarrierSubset":
        return CarrierSubset(self.n, ~self.mask & ((1 << self.n) - 1))

    def issubset(self, other: "CarrierSubset") -> bool:
        self._check_same(other)
        return self.mask | other.mask == other.mask

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CarrierSubset)
            and self.n == other.n
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((self.n, self.mask))

    def __str__(self) -> str:
        return "{" + ", ".join(str(i) for i in self) + "}"

    def __repr__(self) -> str:
        return f"CarrierSubset(n={self.n}, {self})"


def _table(t, n: int, what: str) -> np.ndarray:
    """A C-contiguous read-only int64 copy of an n-by-n table given as lists,
    tuples or an array.  An entry too large for int64 becomes -1, so the
    closure check names it like any other entry outside the carrier."""
    try:
        a = np.array(t, dtype=np.int64, order="C")
    except OverflowError:  # numpy finds the shape first, so t is not ragged here
        big = np.array(t, dtype=object)
        a = np.where((big > -1) & (big < n), big, -1).astype(np.int64)
    except ValueError:  # ragged rows
        raise ValueError(f"{what} table is not {n}x{n}") from None
    if a.shape != (n, n):
        raise ValueError(f"{what} table is not {n}x{n}")
    a.setflags(write=False)
    return a


class FiniteRing:
    """A finite ring with 1 on {0..n-1}.

    Construction copies the caller's tables and validates every law.
    Derived rings (quotients, fraction rings, products, opposites) are
    made by ``_proved_ring`` instead, once their builder has proved the
    laws by a map.
    """

    def __init__(self, order, add, mul, zero, one, names: Sequence[str] | None = None):
        self.order = int(order)
        self.np_add = _table(add, self.order, "add")
        self.np_mul = _table(mul, self.order, "mul")
        self.zero = int(zero)
        self.one = int(one)
        if not (0 <= self.zero < self.order and 0 <= self.one < self.order):
            raise ValueError("zero/one outside carrier")
        if names is not None:
            names = tuple(str(x) for x in names)
            if len(names) != self.order:
                raise ValueError("names length must equal order")
            if any((not x) or any(c.isspace() for c in x) for x in names):
                raise ValueError("names must be nonempty and whitespace-free")
            if len(set(names)) != self.order:
                raise ValueError("names must be distinct")
        self.names = names
        self._validate()

    # -- validation ---------------------------------------------------

    def _validate(self) -> None:
        """Raise AxiomViolation for the first failing law, in the order
        closure, nontrivial, add-commutative, add-identity, add-inverse,
        add-associative, mul-identity, left-distributive,
        right-distributive, mul-associative; each law may assume the
        earlier ones."""
        n = self.order
        A, M = self.np_add, self.np_mul
        for what, T in (("add", A), ("mul", M)):
            if T.min() < 0 or T.max() >= n:
                bad = np.argwhere((T < 0) | (T >= n))[0]
                raise AxiomViolation("closure", (what, int(bad[0]), int(bad[1])))
        if self.zero == self.one:
            raise AxiomViolation("nontrivial", (self.zero,), "zero and one coincide")
        if not np.array_equal(A, A.T):
            b = np.argwhere(A != A.T)[0]
            raise AxiomViolation("add-commutative", (int(b[0]), int(b[1])))
        idx = np.arange(n)
        if not np.array_equal(A[self.zero], idx):
            b = int(np.argwhere(A[self.zero] != idx)[0][0])
            raise AxiomViolation("add-identity", (b,))
        has_neg = (A == self.zero).any(axis=1)
        if not has_neg.all():
            raise AxiomViolation("add-inverse", (int(np.argwhere(~has_neg)[0][0]),))
        # The laws in three variables are checked only for a middle variable
        # b in G, a generating set of (R, +); the b that pass form a set closed
        # under +, so passing on G proves each law for every b.  This is
        # Light's associativity test, extended to distributivity.  G is the
        # greedy generators, without 0, whose closure under + with 0 is R:
        # 0 passes add-associativity by the identity law, (x+0)+y = x+y =
        # x+(0+y); from then on (R, +) is a finite group, where a set closed
        # under + that holds some g holds k*g = 0, so 0 passes every later law.
        G = additive_generators(self, CarrierSubset.full(n))

        def on_generators(law: str, sides) -> None:
            # sides(g)[x, y] are the two sides of the law at (x, g, y); once
            # the law fails, 0 is tried before g, so the witness is the first
            # failure over [0] + G
            for g in G:
                if np.not_equal(*sides(g)).any():  # frees both sides at once
                    for b in (self.zero, g):
                        bad = np.not_equal(*sides(b))
                        if bad.any():
                            x, y = (int(v) for v in np.argwhere(bad)[0])
                            raise AxiomViolation(law, (x, b, y))

        # (x+g)+y = x+(g+y): if b and b' pass, (x+(b+b'))+y = ((x+b)+b')+y
        # = (x+b)+(b'+y) = x+(b+(b'+y)) = x+((b+b')+y)
        on_generators("add-associative", lambda g: (A[A[:, g]], A[:, A[g]]))
        if not np.array_equal(M[self.one], idx):
            b = int(np.argwhere(M[self.one] != idx)[0][0])
            raise AxiomViolation("mul-identity", (b,), "one is not a left identity")
        if not np.array_equal(M[:, self.one], idx):
            b = int(np.argwhere(M[:, self.one] != idx)[0][0])
            raise AxiomViolation("mul-identity", (b,), "one is not a right identity")
        # a(g+c) = ag+ac and (a+g)c = ac+gc: with + associative, a((b+b')+c)
        # = a(b+(b'+c)) = ab+(ab'+ac) = a(b+b')+ac, and the same on the right
        on_generators("left-distributive", lambda g: (M[:, A[g]], A[M[:, g][:, None], M]))
        # a commutative product is right distributive once it is left
        # distributive: (a+g)c = c(a+g) = ca+cg = ac+gc
        if not np.array_equal(M, M.T):
            on_generators("right-distributive", lambda g: (M[A[:, g]], A[M, M[g]]))
        # (ag)c = a(gc): with both distributive laws, (a(b+b'))c = (ab)c+(ab')c
        # = a(bc)+a(b'c) = a((b+b')c)
        on_generators("mul-associative", lambda g: (M[M[:, g]], M[:, M[g]]))

    # -- basic structure ----------------------------------------------

    @cached_property
    def add(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.np_add.tolist()))

    @cached_property
    def mul(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.np_mul.tolist()))

    @property
    def elements(self) -> range:
        return range(self.order)

    def __eq__(self, other) -> bool:
        # names are labels only; identity of a ring is its tables
        return self is other or (
            isinstance(other, FiniteRing)
            and (self.order, self.zero, self.one) == (other.order, other.zero, other.one)
            and np.array_equal(self.np_add, other.np_add)
            and np.array_equal(self.np_mul, other.np_mul)
        )

    @cached_property
    def _hash(self) -> int:
        return hash((self.order, self.zero, self.one, self.np_add.tobytes(), self.np_mul.tobytes()))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"<FiniteRing order={self.order} zero={self.zero} one={self.one}>"

    def name_of(self, x: int) -> str:
        return self.names[x] if self.names is not None else str(x)


def from_tables(order, add, mul, zero, one, names=None) -> FiniteRing:
    """Build and fully validate a ring from raw tables."""
    return FiniteRing(order, add, mul, zero, one, names)


def _proved_ring(add: np.ndarray, mul: np.ndarray, zero, one, names=None) -> FiniteRing:
    """A ring on int64 tables built by the package whose laws the caller
    has proved by a map (``_image_ring``, ``direct_product``,
    ``opposite``), so Light's test is not run.  The tables are made
    read-only in place, not copied (an opposite shares R's addition
    table), and names built from validated names are not scanned again."""
    ring = FiniteRing.__new__(FiniteRing)
    ring.order = len(add)
    ring.np_add = np.ascontiguousarray(add, dtype=np.int64)
    ring.np_mul = np.ascontiguousarray(mul, dtype=np.int64)
    ring.np_add.setflags(write=False)
    ring.np_mul.setflags(write=False)
    ring.zero, ring.one = int(zero), int(one)
    ring.names = None if names is None else tuple(names)
    return ring


def _image_ring(source: FiniteRing, F: np.ndarray, add, mul, names, what: str) -> RingMap:
    """The ring T with tables add and mul, given as the map F: source -> T.

    T's zero and one are F(0) and F(1).  F is checked to be a unital
    homomorphism (the RingMap gathers) and onto, and F(0) != F(1).  Then
    every element of T is some F(x), so closure, the zero, additive
    inverses and each law of source hold in T at the images: T is a ring,
    and Light's test is not run on it.  The tables are built by this
    package, so a failure is a bug, raised as InternalInconsistency.
    """
    target = _proved_ring(add, mul, F[source.zero], F[source.one], names)
    try:
        f = RingMap(source, target, F)
    except ValueError as e:
        raise InternalInconsistency(f"{what} is not a homomorphism: {e}") from e
    hits = np.bincount(F, minlength=target.order)  # not np.unique, which imports numpy.ma
    if not hits.all():
        raise InternalInconsistency(f"{what} is not onto: {int(hits.argmin())} has no preimage")
    if target.zero == target.one:
        raise InternalInconsistency(f"{what} sends 0 and 1 to the same element {target.zero}")
    return f


# -- one memo per analysis -------------------------------------------------

_MEMO: ContextVar[dict | None] = ContextVar("orelab_memo", default=None)


@contextmanager
def one_analysis():
    """Share one memo until the outermost enclosing analysis returns."""
    if _MEMO.get() is not None:
        yield
        return
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def once(fn, *args):
    """fn(*args), computed at most once inside one_analysis().

    The key is fn and the arguments as they compare, so a ring enters it
    by its structure (order, zero, one and tables), never by its element
    names: two labellings of one ring share every result.  A memoised
    result therefore names no elements.  Whatever a report prints by
    name it renders from the ring it was called with, and the derived
    rings in a result (quotients, products) keep the names they were
    built with, which no report prints.  On a miss fn is called through
    its module attribute, looked up now, so a wrapper installed there
    sees every build and no hit.  Outside an analysis this is a plain
    call.  Results are shared, so callers must treat them as read-only.
    """
    fn = inspect.unwrap(fn)
    call = getattr(sys.modules[fn.__module__], fn.__name__)
    memo = _MEMO.get()
    if memo is None:
        return call(*args)
    key = (fn, *args)
    if key not in memo:
        memo[key] = call(*args)
    return memo[key]


# -- element classes ----------------------------------------------------


def units(ring: FiniteRing) -> CarrierSubset:
    """Two-sided invertible elements: u with some v, u*v == v*u == 1."""
    M = ring.np_mul
    return CarrierSubset(ring.order, members_mask(((M == ring.one) & (M.T == ring.one)).any(1)))


def regular_elements(ring: FiniteRing) -> CarrierSubset:
    """Elements that are neither left nor right zero divisors: u whose row
    and column of the multiplication table are both permutations."""
    M, idx = ring.np_mul, np.arange(ring.order)
    rows = (np.sort(M, axis=1) == idx).all(1)
    return CarrierSubset(ring.order, members_mask(rows & (np.sort(M, axis=0) == idx[:, None]).all(0)))


def is_division_ring(ring: FiniteRing) -> bool:
    return len(units(ring)) == ring.order - 1


# -- subgroups and ideals ------------------------------------------------


def mask_members(n: int, mask: int) -> np.ndarray:
    """The boolean member vector of a bitmask on {0..n-1}."""
    bits = np.frombuffer(mask.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(bits, count=n, bitorder="little").view(bool)


def members_mask(members: np.ndarray) -> int:
    """The bitmask of a boolean member vector."""
    return int.from_bytes(np.packbits(members, bitorder="little").tobytes(), "little")


def doubling_closure(table: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Close a boolean member vector in place under the operation of table.

    Doubling H <- H u H*H, one gather per round, reaches every product of
    k members after log2(k) rounds.
    """
    size = int(members.sum())
    while True:
        idx = members.nonzero()[0]
        members[table[idx[:, None], idx]] = True
        grown = int(members.sum())
        if grown == size:
            return members
        size = grown


def _additive_closure(ring: FiniteRing, members: np.ndarray) -> np.ndarray:
    """Close a boolean member vector under addition in place; 0 joins for free.

    A finite set closed under + contains negatives, so this is the
    additive subgroup generated.
    """
    members[ring.zero] = True
    return doubling_closure(ring.np_add, members)


def additive_generators(ring: FiniteRing, sub: CarrierSubset) -> list[int]:
    """At most log2|sub| elements generating the additive subgroup sub,
    picked greedily: each lies outside the span so far and at least doubles it."""
    span = mask_members(ring.order, 1 << ring.zero)
    gens = []
    for g in sub:
        if not span[g]:
            gens.append(g)
            span[g] = True
            _additive_closure(ring, span)
    return gens


def is_additive_subgroup(ring: FiniteRing, sub: CarrierSubset) -> bool:
    if ring.zero not in sub:
        return False
    members = mask_members(ring.order, sub.mask)
    idx = members.nonzero()[0]
    return bool(members[ring.np_add[idx[:, None], idx]].all())


def _absorbs(ring: FiniteRing, mask: int, left: bool, right: bool):
    """Return None if mask absorbs multiplication on the given sides,
    else a witness (r, h) or (h, r): the first by h, then r, then the
    left side before the right."""
    members = mask_members(ring.order, mask)
    H = members.nonzero()[0]
    M = ring.np_mul
    escapes = np.zeros((len(H), ring.order, 2), dtype=bool)  # [h, r, side]
    if left:
        escapes[:, :, 0] = ~members[M[:, H].T]
    if right:
        escapes[:, :, 1] = ~members[M[H]]
    if not escapes.any():
        return None
    i, r, side = (int(v) for v in np.unravel_index(escapes.argmax(), escapes.shape))
    h = int(H[i])
    return (h, r) if side else (r, h)


def is_two_sided_ideal(ring: FiniteRing, sub: CarrierSubset) -> bool:
    return is_additive_subgroup(ring, sub) and _absorbs(ring, sub.mask, True, True) is None


def table_image(table: np.ndarray, xs, ys) -> CarrierSubset:
    """{table[x, y] : x in xs, y in ys}, by one gather; xs and ys are index
    arrays (or sequences of indices) into the carrier of the table."""
    members = np.zeros(len(table), dtype=bool)
    members[table[np.asarray(xs, dtype=np.intp)[:, None], np.asarray(ys, dtype=np.intp)]] = True
    return CarrierSubset(len(table), members_mask(members))


def subgroup_sum(ring: FiniteRing, a: CarrierSubset, b: CarrierSubset) -> CarrierSubset:
    """Pointwise sum A + B = {x + y}; a subgroup when A and B are."""
    n = ring.order
    return table_image(ring.np_add, mask_members(n, a.mask).nonzero()[0], mask_members(n, b.mask).nonzero()[0])


def zero_ideal(ring: FiniteRing) -> CarrierSubset:
    """{0}, the least ideal of every side."""
    return CarrierSubset(ring.order, 1 << ring.zero)


def ideal_closure(ring: FiniteRing, generators: Iterable[int], side: str = "two") -> CarrierSubset:
    """Smallest ideal of the requested sidedness containing the generators.

    side is one of "left", "right", "two".  As R has 1, the ideal is the
    additive closure of R*G, G*R or R*G*R; the last is taken as (R*G)*R,
    so no product table exceeds n*n entries.
    """
    if side not in ("left", "right", "two"):
        raise ValueError(f"unknown side {side!r}")
    n = ring.order
    gens = [int(g) for g in generators]
    for g in gens:
        if not 0 <= g < n:
            raise ValueError(f"generator {g} outside carrier")
    M = ring.np_mul
    gens = np.asarray(gens, dtype=np.intp)
    members = np.zeros(n, dtype=bool)
    if side == "right":
        members[M[gens]] = True
    else:
        members[M[:, gens]] = True
        if side == "two":
            members[M[members]] = True
    return CarrierSubset(n, members_mask(_additive_closure(ring, members)))


def principal_ideals(ring: FiniteRing, side: str = "two") -> list[int]:
    """The mask of the principal ideal of every element, in element order.

    For a unit u, R*(u*x) = R*x, as x = u^-1*(u*x); likewise (x*u)*R = x*R.
    So every element of the orbit U*x (left), x*U (right) or U*x*U (two)
    generates the ideal of x, and one ``ideal_closure`` per orbit gives
    them all.  An orbit is marked by one ``np_mul`` gather.
    """
    n, M = ring.order, ring.np_mul
    U = mask_members(n, units(ring).mask).nonzero()[0]
    out = [0] * n  # 0 is no ideal's mask, as every ideal holds zero
    for x in range(n):
        if out[x]:
            continue
        m = ideal_closure(ring, [x], side).mask
        orbit = np.zeros(n, dtype=bool)
        if side == "left":
            orbit[M[U, x]] = True
        elif side == "right":
            orbit[M[x, U]] = True
        else:
            orbit[M[M[U, x][:, None], U]] = True
        for y in orbit.nonzero()[0].tolist():
            out[y] = m
    return out


def additive_subgroups(ring: FiniteRing, guard: int | None = None) -> list[CarrierSubset]:
    """All additive subgroups, grown one generator at a time from {0}.

    Every subgroup arises by adjoining its elements one by one, so the
    closure lattice walk below reaches all of them without touching the
    2^n subset space.
    """
    if guard is not None and ring.order > guard:
        raise SizeGuardExceeded("additive subgroup enumeration", ring.order, guard)
    n = ring.order
    closure_memo: dict[int, int] = {}
    root = 1 << ring.zero
    seen = {root}
    frontier = [root]
    while frontier:
        nxt = []
        for h in frontier:
            for x in range(n):
                if (h >> x) & 1:
                    continue
                key = h | (1 << x)
                grown = closure_memo.get(key)
                if grown is None:
                    grown = members_mask(_additive_closure(ring, mask_members(n, key)))
                    closure_memo[key] = grown
                if grown not in seen:
                    seen.add(grown)
                    nxt.append(grown)
        frontier = nxt
    out = [CarrierSubset(n, m) for m in seen]
    out.sort(key=lambda s: (len(s), s.mask))
    return out


def _ideal_lattice(ring: FiniteRing, side: str) -> list[CarrierSubset]:
    """Walk the ideal lattice by summing principal ideals.

    A sum of ideals is an ideal, and every ideal is a sum of the
    principal ideals of its elements, so growing one principal ideal at
    a time reaches the whole lattice without touching the (much larger)
    additive subgroup lattice.  The distinct principal ideals come from
    ``principal_ideals``, one closure per unit orbit, in the order of
    their first generator.
    """
    n = ring.order
    principal = dict.fromkeys(principal_ideals(ring, side))
    # each ideal becomes a member index array once; a sum is one np_add gather
    gens = [(m, mask_members(n, m).nonzero()[0]) for m in principal]
    root = 1 << ring.zero
    seen = {root}
    frontier = [root]
    while frontier:
        nxt = []
        for h in frontier:
            cur = mask_members(n, h).nonzero()[0][:, None]
            for m, p in gens:
                if m | h == h:
                    continue
                members = np.zeros(n, dtype=bool)
                members[ring.np_add[cur, p]] = True
                grown = members_mask(members)
                if grown not in seen:
                    seen.add(grown)
                    nxt.append(grown)
        frontier = nxt
    out = [CarrierSubset(n, m) for m in seen]
    out.sort(key=lambda s: (len(s), s.mask))
    return out


def two_sided_ideals(ring: FiniteRing, guards: Guards = DEFAULT_GUARDS) -> list[CarrierSubset]:
    """All two-sided ideals, sorted by size then lexicographically."""
    if ring.order > guards.order:
        raise SizeGuardExceeded("two-sided ideal enumeration", ring.order, guards.order)
    return _ideal_lattice(ring, "two")


def left_ideals(ring: FiniteRing, guards: Guards = DEFAULT_GUARDS) -> list[CarrierSubset]:
    """All left ideals; guarded separately because there can be many more."""
    if ring.order > guards.left_ideals:
        raise SizeGuardExceeded("left ideal enumeration", ring.order, guards.left_ideals)
    return _ideal_lattice(ring, "left")


# -- primes, semiprimeness, uniform dimension ----------------------------


def minimal_primes(ring: FiniteRing, guards: Guards = DEFAULT_GUARDS) -> list[CarrierSubset]:
    """Inclusion-minimal prime ideals: on a finite ring, the maximal ideals.

    A maximal ideal m of a ring with 1 is prime: R/m is simple, and a
    simple ring is prime.  Conversely, if p is prime then R/p is a prime
    ring that is finite, hence left Artinian, and a prime left Artinian
    ring is simple (Wedderburn-Artin), so p is maximal.  Maximal ideals
    are pairwise incomparable, so each of them is a minimal prime.  They
    are the coatoms of the lattice, kept in its (size, mask) order.
    """
    ideals = once(two_sided_ideals, ring, guards)
    proper = ideals[:-1]  # the whole ring sorts last
    return [p for i, p in enumerate(proper) if not any(p.issubset(q) for q in proper[i + 1:])]


def is_semiprime(ring: FiniteRing, guards: Guards = DEFAULT_GUARDS) -> bool:
    """No nonzero ideal squares to zero; cross-checked against Min(R).

    The second route asks whether the prime radical, the meet of Min(R),
    is 0; it reads only the maximal ideals, never an ideal's square.
    """
    with one_analysis():
        ideals = once(two_sided_ideals, ring, guards)
        M = ring.np_mul
        by_squares = True
        for ideal in ideals:
            if len(ideal) == 1:
                continue
            idx = mask_members(ring.order, ideal.mask).nonzero()[0]
            if (M[idx[:, None], idx] == ring.zero).all():
                by_squares = False
                break
        by_primes = CarrierSubset.meet(ring.order, once(minimal_primes, ring, guards)) == zero_ideal(ring)
        if by_primes != by_squares:
            raise InternalInconsistency(
                f"semiprime tests disagree: prime-intersection {by_primes}, square-zero {by_squares}"
            )
        return by_squares


def uniform_dimension(ring: FiniteRing, guards: Guards = DEFAULT_GUARDS) -> int:
    """Largest k with k nonzero left ideals forming a direct sum in R.

    A finite ring is left Artinian, so its left socle is essential in R,
    and the uniform dimension is the number of minimal left ideals in a
    direct-sum decomposition of the socle (T. Y. Lam, Lectures on Modules
    and Rings, section 6).  A minimal left ideal is R*x for every nonzero x
    in it, so it is among the nonzero principal left ideals.  A minimal L
    meets any left ideal in 0 or in L, so summing each one that the span
    so far misses counts the summands.  Walking the principal ideals in
    increasing mask order keeps the others out: each contains a minimal
    L, whose mask is smaller, so by its turn L lies in the span.  The
    principal left ideals come from ``principal_ideals``, one closure per
    orbit U*x of the unit group.
    """
    if ring.order > guards.order:
        raise SizeGuardExceeded("uniform dimension", ring.order, guards.order)
    span = zero = zero_ideal(ring)
    principal = set(principal_ideals(ring, "left")) - {zero.mask}
    count = 0
    for m in sorted(principal):
        if m & span.mask == zero.mask:
            span = subgroup_sum(ring, span, CarrierSubset(ring.order, m))
            count += 1
    return count


# -- quotients, products, opposite ---------------------------------------


@dataclass(frozen=True)
class RingMap:
    """A unital ring homomorphism given by its full value table."""

    source: FiniteRing
    target: FiniteRing
    table: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "table", tuple(int(v) for v in self.table))
        src, tgt, f = self.source, self.target, self.table
        if len(f) != src.order:
            raise ValueError("map table length must equal source order")
        if any(not 0 <= v < tgt.order for v in f):
            raise ValueError("map value outside target carrier")
        if f[src.one] != tgt.one:
            raise ValueError("map does not send one to one")
        F = np.asarray(f, dtype=np.intp)
        bad_add = F[src.np_add] != tgt.np_add[F[:, None], F]
        bad = bad_add | (F[src.np_mul] != tgt.np_mul[F[:, None], F])
        if bad.any():
            x, y = divmod(int(bad.argmax()), src.order)  # first in row-major order
            kind = "additive" if bad_add[x, y] else "multiplicative"
            raise ValueError(f"map not {kind} at ({x}, {y})")

    def __call__(self, x: int) -> int:
        return self.table[x]

    def kernel(self) -> CarrierSubset:
        return self.preimage(zero_ideal(self.target))

    def is_surjective(self) -> bool:
        return len(set(self.table)) == self.target.order

    def is_bijective(self) -> bool:
        return self.source.order == self.target.order == len(set(self.table))

    def preimage(self, sub: CarrierSubset) -> CarrierSubset:
        """{x : f(x) in sub}."""
        m = sub.mask
        return CarrierSubset(self.source.order, sum(1 << x for x, v in enumerate(self.table) if m >> v & 1))

    @classmethod
    def identity(cls, ring: FiniteRing) -> "RingMap":
        return cls(ring, ring, tuple(range(ring.order)))

    def compose(self, inner: "RingMap") -> "RingMap":
        """self after inner."""
        if inner.target is not self.source and inner.target != self.source:
            raise ValueError("composition mismatch")
        return RingMap(inner.source, self.target, tuple(self.table[v] for v in inner.table))


def induced_map(f: RingMap, g: RingMap) -> RingMap:
    """The map h: f.target -> g.target with h(f(x)) == g(x) for every x.

    h commutes with f and g by construction.  Raises ValueError when f
    and g start from different rings, when f is not onto, when h would be
    ill-defined on a fibre of f, or (through RingMap) when h is not a
    unital homomorphism.
    """
    if f.source is not g.source and f.source != g.source:
        raise ValueError("induced map needs two maps from the same ring")
    table: list[int | None] = [None] * f.target.order
    for x, (v, w) in enumerate(zip(f.table, g.table)):
        if table[v] is None:
            table[v] = w
        elif table[v] != w:
            raise ValueError(f"induced map is ill-defined on the fibre of {v} (at {x})")
    if None in table:
        raise ValueError(f"{table.index(None)} is not in the image of the first map")
    return RingMap(f.target, g.target, tuple(table))  # type: ignore[arg-type]


def r_isomorphism(f: RingMap, g: RingMap) -> RingMap:
    """The induced map h with h(f(x)) == g(x), an isomorphism of rings
    under R = f.source.  Raises ValueError when ``induced_map`` does, or
    when h is not bijective."""
    h = induced_map(f, g)
    if not h.is_bijective():
        raise ValueError("the induced map is not bijective")
    return h


def unit_pullback(f: RingMap) -> CarrierSubset:
    """{x : f(x) is a unit of f.target}."""
    return f.preimage(once(units, f.target))


def quotient(ring: FiniteRing, ideal: CarrierSubset) -> tuple[FiniteRing, RingMap]:
    """R/a together with the projection map; a must be a proper two-sided ideal.

    R/a is proved a ring by its projection, checked to be an onto unital
    homomorphism with distinct images of 0 and 1 (``_image_ring``);
    Light's test is not run on it.
    """
    if ideal.n != ring.order:
        raise NotAnIdeal("subset lives on a different carrier")
    if not is_additive_subgroup(ring, ideal):
        raise NotAnIdeal(f"{ideal} is not an additive subgroup")
    w = _absorbs(ring, ideal.mask, True, True)
    if w is not None:
        raise NotAnIdeal(f"{ideal} does not absorb multiplication at {w}")
    if len(ideal) == ring.order:
        raise ImproperIdeal("cannot form the quotient by the whole ring")
    # each coset is numbered by its least element, in increasing order; the
    # least elements are the x with x == min(x + a)
    coset_min = ring.np_add[:, mask_members(ring.order, ideal.mask)].min(1)
    reps = (coset_min == np.arange(ring.order)).nonzero()[0]
    proj = np.searchsorted(reps, coset_min)
    q_add = proj[ring.np_add[reps[:, None], reps]]
    q_mul = proj[ring.np_mul[reps[:, None], reps]]
    names = None if ring.names is None else [ring.names[r] for r in reps.tolist()]
    f = _image_ring(ring, proj, q_add, q_mul, names, "projection onto the quotient")
    return f.target, f


@dataclass(frozen=True)
class ProductRing:
    """A direct product with its factor bookkeeping.

    projections are unital ring maps; embeddings are plain value tables
    (they do not preserve one, so they are not RingMaps).
    """

    ring: FiniteRing
    factors: tuple[FiniteRing, ...]
    projections: tuple[RingMap, ...]
    embeddings: tuple[tuple[int, ...], ...]

    def encode(self, parts: Sequence[int]) -> int:
        return radix_encode([f.order for f in self.factors], parts)

    def decode(self, x: int) -> tuple[int, ...]:
        return radix_decode([f.order for f in self.factors], x)

    def coordinate_map(self, maps: Sequence[RingMap]) -> RingMap:
        """x -> (maps[0](x), maps[1](x), ...), with maps[i] into factor i:
        the sum of each map's table at its factor's stride.  RingMap checks
        that it is a unital homomorphism, and raises ValueError if not."""
        if len(maps) != len(self.factors):
            raise ValueError(f"{len(maps)} maps for {len(self.factors)} factors")
        orders = [f.order for f in self.factors]
        table = sum(math.prod(orders[i + 1 :]) * np.asarray(m.table) for i, m in enumerate(maps))
        return RingMap(maps[0].source, self.ring, table)


def radix_encode(radices: Sequence[int], digits: Sequence[int]) -> int:
    """Mixed-radix number with the first digit most significant."""
    out = 0
    for r, d in zip(radices, digits):
        out = out * r + d
    return out


def radix_decode(radices: Sequence[int], x: int) -> tuple[int, ...]:
    """The digits of x in the mixed radix; inverse of radix_encode."""
    digits = []
    for r in reversed(radices):
        x, d = divmod(x, r)
        digits.append(d)
    return tuple(reversed(digits))


def radix_digits(radices: Sequence[int]) -> tuple[list[int], list[np.ndarray]]:
    """The stride of each digit, and each digit of every number below
    prod(radices), in the mixed radix of radix_encode."""
    n = math.prod(radices)
    strides = [math.prod(radices[i + 1 :]) for i in range(len(radices))]
    return strides, [np.arange(n) // st % r for st, r in zip(strides, radices)]


def digitwise_table(tables: Sequence[np.ndarray], strides: Sequence[int], digits) -> np.ndarray:
    """The table that applies tables[i] to digit i: each entry is the sum
    of the digit tables' entries, each at its stride."""
    return sum(st * T[d[:, None], d] for T, st, d in zip(tables, strides, digits))


def direct_product(*factors: FiniteRing, guards: Guards = DEFAULT_GUARDS) -> ProductRing:
    """Componentwise product; leftmost factor is the most significant digit.

    The product is proved a ring without Light's test.  Its radix digits
    are a bijection onto the tuples of factor elements (checked once), each
    projection is checked as a unital ring map onto its factor, and zero
    and one encode the tuples of the factors' zeros and ones.  So the
    product's + and * are the factors' laws on tuples.  The closure check
    keeps the projection gathers inside the carrier.  A failure is a bug
    in the tables built here, raised as InternalInconsistency.
    """
    if not factors:
        raise ValueError("need at least one factor")
    n = 1
    for f in factors:  # the running size stops as soon as it passes the guard
        n *= f.order
        if n > guards.order:
            raise SizeGuardExceeded("direct product", math.prod(g.order for g in factors), guards.order)

    radices = [f.order for f in factors]
    strides, digits = radix_digits(radices)
    if not np.array_equal(sum(st * d for st, d in zip(strides, digits)), np.arange(n)):
        raise InternalInconsistency("the radix digits do not encode the product's carrier")
    add_t = digitwise_table([f.np_add for f in factors], strides, digits)
    mul_t = digitwise_table([f.np_mul for f in factors], strides, digits)
    for what, T in (("add", add_t), ("mul", mul_t)):
        if T.min() < 0 or T.max() >= n:
            raise InternalInconsistency(f"the product's {what} table leaves its carrier")
    zero = radix_encode(radices, [f.zero for f in factors])
    one = radix_encode(radices, [f.one for f in factors])
    names = None
    if all(f.names is not None for f in factors):
        parts = zip(*([f.names[v] for v in d.tolist()] for f, d in zip(factors, digits)))
        names = ["(" + ",".join(p) + ")" for p in parts]
    ring = _proved_ring(add_t, mul_t, zero, one, names)
    try:
        projections = tuple(RingMap(ring, f, d) for f, d in zip(factors, digits))
    except ValueError as e:
        raise InternalInconsistency(f"a projection of the product is not a homomorphism: {e}") from e
    embeddings = tuple(
        tuple(zero + (x - f.zero) * st for x in range(f.order)) for st, f in zip(strides, factors)
    )
    return ProductRing(ring, tuple(factors), projections, embeddings)


def opposite(ring: FiniteRing) -> FiniteRing:
    """Same carrier and addition, multiplication reversed; an involution.

    The identity map is an anti-isomorphism R -> R^op, so R^op satisfies
    every law that R does, and Light's test is not run on it.
    """
    return _proved_ring(ring.np_add, ring.np_mul.T, ring.zero, ring.one, ring.names)
