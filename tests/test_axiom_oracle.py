"""The axiom check against the O(n^3) scan it replaced, and derived rings
against the axiom check they skip.

``FiniteRing._validate`` checks the laws in three variables only at the
additive generators.  The reference below is the old scan over every
first (or last) variable, kept here as an oracle.  On every table of the
corpus the two must agree on whether the table is a ring, and the law the
check raises must fail at its witness when evaluated from the tables.

Quotients, fraction rings and products are proved rings by the maps that
build them, so Light's test never runs on them.  The full check stays
their oracle: each such ring of the corpus must pass ``from_tables`` and
equal the ring it was rebuilt from.
"""

import itertools
import random

import numpy as np
import pytest
from test_fraction_oracle import QUOTIENT_RINGS

from orelab import (
    DEFAULT_CATALOG,
    AxiomViolation,
    SizeGuardExceeded,
    build_fraction_ring,
    construct,
    from_tables,
    saturated_denominator_sets,
    units,
)
from orelab.rings import direct_product, quotient, two_sided_ideals


def _loop_violation(order, add, mul, zero, one):
    """The first (law, witness) the O(n^3) scan finds, or None for a ring."""
    n = order
    A, M = np.asarray(add), np.asarray(mul)
    for what, T in (("add", A), ("mul", M)):
        if T.min() < 0 or T.max() >= n:
            bad = np.argwhere((T < 0) | (T >= n))[0]
            return "closure", (what, int(bad[0]), int(bad[1]))
    if zero == one:
        return "nontrivial", (zero,)
    if not np.array_equal(A, A.T):
        b = np.argwhere(A != A.T)[0]
        return "add-commutative", (int(b[0]), int(b[1]))
    idx = np.arange(n)
    if not np.array_equal(A[zero], idx):
        return "add-identity", (int(np.argwhere(A[zero] != idx)[0][0]),)
    has_neg = (A == zero).any(axis=1)
    if not has_neg.all():
        return "add-inverse", (int(np.argwhere(~has_neg)[0][0]),)
    for a in range(n):
        left, right = A[A[a]], A[a][A]
        if not np.array_equal(left, right):
            b, c = np.argwhere(left != right)[0]
            return "add-associative", (a, int(b), int(c))
    for a in range(n):
        left, right = M[M[a]], M[a][M]
        if not np.array_equal(left, right):
            b, c = np.argwhere(left != right)[0]
            return "mul-associative", (a, int(b), int(c))
    if not np.array_equal(M[one], idx) or not np.array_equal(M[:, one], idx):
        return "mul-identity", None
    for a in range(n):
        left, right = M[a][A], A[np.ix_(M[a], M[a])]
        if not np.array_equal(left, right):
            b, c = np.argwhere(left != right)[0]
            return "left-distributive", (a, int(b), int(c))
    for c in range(n):
        left, right = M[:, c][A], A[np.ix_(M[:, c], M[:, c])]
        if not np.array_equal(left, right):
            x, y = np.argwhere(left != right)[0]
            return "right-distributive", (int(x), int(y), c)
    return None


def _first_law(*table):
    found = _loop_violation(*table)
    return found and found[0]


def _fails_at(law, witness, order, add, mul, zero, one):
    """Evaluate one law at its witness straight from the tables."""
    A, M = add, mul
    if law == "closure":
        what, i, j = witness
        return not 0 <= (A if what == "add" else M)[i][j] < order
    if law == "nontrivial":
        return zero == one
    if law == "add-commutative":
        b, c = witness
        return A[b][c] != A[c][b]
    b = witness[0]
    if law == "add-identity":
        return A[zero][b] != b
    if law == "add-inverse":
        return zero not in A[b]
    if law == "mul-identity":
        return M[one][b] != b or M[b][one] != b
    x, y, z = witness
    if law == "add-associative":
        return A[A[x][y]][z] != A[x][A[y][z]]
    if law == "mul-associative":
        return M[M[x][y]][z] != M[x][M[y][z]]
    if law == "left-distributive":
        return M[x][A[y][z]] != A[M[x][y]][M[x][z]]
    if law == "right-distributive":
        return M[A[x][y]][z] != A[M[x][z]][M[y][z]]
    raise AssertionError(f"unknown law {law!r}")


def _check_agrees(order, add, mul, zero, one):
    """Assert that from_tables and the oracle agree; return the raised law."""
    expected = _loop_violation(order, add, mul, zero, one)
    try:
        from_tables(order, add, mul, zero, one)
    except AxiomViolation as e:
        assert expected is not None, f"a ring was refused: {e}"
        assert _fails_at(e.law, e.witness, order, add, mul, zero, one), (e.law, e.witness)
        return e.law
    assert expected is None, f"accepted, but the scan finds {expected}"
    return None


def _tables(ring):
    return [list(r) for r in ring.add], [list(r) for r in ring.mul]


@pytest.mark.parametrize(
    "spec", ["zmod(8)", "gf(8)", "upper_triangular(gf(2),2)", "matrix(gf(2),2)"]
)
def test_single_entry_mul_perturbations(spec):
    ring = construct(spec)
    n = ring.order
    add, mul = _tables(ring)
    assert _check_agrees(n, add, mul, ring.zero, ring.one) is None
    refused = 0
    for i in range(n):
        for j in range(n):
            kept = mul[i][j]
            for v in range(n):
                if v == kept:
                    continue
                mul[i][j] = v
                refused += _check_agrees(n, add, mul, ring.zero, ring.one) is not None
            mul[i][j] = kept
    assert refused > 0


@pytest.mark.parametrize("spec", ["zmod(8)", "gf(8)", "product(gf(2),gf(4))"])
def test_symmetric_pair_mul_perturbations(spec):
    # a single changed entry breaks M = M^T, so only a pair changed together
    # keeps the product commutative, where right distributivity is not
    # checked; row and column 0 (the products a*0) are included
    ring = construct(spec)
    n = ring.order
    add, mul = _tables(ring)
    assert mul == [list(col) for col in zip(*mul)]
    laws = set()
    for i in range(n):
        for j in range(i, n):
            kept = mul[i][j]
            for v in range(n):
                if v == kept:
                    continue
                mul[i][j] = mul[j][i] = v
                laws.add(_check_agrees(n, add, mul, ring.zero, ring.one))
            mul[i][j] = mul[j][i] = kept
    # each pair off the row of one breaks a(b+c) = ab+ac, which the check
    # finds at a generator, and no changed table is a ring
    assert laws == {"mul-identity", "left-distributive"}


@pytest.mark.parametrize("spec", ["zmod(8)", "matrix(gf(2),2)"])
def test_a_broken_product_with_zero_is_named_at_zero(spec):
    # 0 is not among the generators the check runs on, yet a failure of
    # a*0 = 0 is named at the middle variable 0, as the first failure
    # over 0 and the generators
    ring = construct(spec)
    n = ring.order
    add, mul = _tables(ring)
    for a in range(n):
        if a == ring.one:
            continue
        for v in range(1, n):
            mul[a][ring.zero] = v
            with pytest.raises(AxiomViolation) as e:
                from_tables(n, add, mul, ring.zero, ring.one)
            witness = (a, ring.zero, ring.zero)
            assert (e.value.law, e.value.witness) == ("left-distributive", witness)
        mul[a][ring.zero] = ring.zero


def _bilinear_table(k, rng):
    """A random bilinear product on F_2^k (XOR addition) with 1 = e_0."""
    n = 1 << k
    basis = [1 << i for i in range(k)]
    # structure constants e_i * e_j; e_0 is a two-sided identity
    const = [[rng.randrange(n) for _ in range(k)] for _ in range(k)]
    for i in range(k):
        const[0][i] = const[i][0] = basis[i]

    def product(x, y):
        out = 0
        for i in range(k):
            for j in range(k):
                if (x >> i) & 1 and (y >> j) & 1:
                    out ^= const[i][j]
        return out

    add = [[x ^ y for y in range(n)] for x in range(n)]
    mul = [[product(x, y) for y in range(n)] for x in range(n)]
    return n, add, mul


@pytest.mark.parametrize("k", [2, 3, 4])
def test_random_bilinear_products(k):
    rng = random.Random(f"bilinear/{k}")
    laws = set()
    for _ in range(40):
        n, add, mul = _bilinear_table(k, rng)
        laws.add(_check_agrees(n, add, mul, 0, 1))
    # a bilinear product is distributive, so only associativity can fail;
    # every unital algebra of dimension 2 is associative
    assert laws <= {None, "mul-associative"}
    assert ("mul-associative" in laws) == (k > 2)


def _commutative_loop(n, rng):
    """A random symmetric Latin square with identity 0, by backtracking."""
    t = [[None] * n for _ in range(n)]
    for x in range(n):
        t[0][x] = t[x][0] = x
    cells = [(i, j) for i in range(1, n) for j in range(i, n)]

    def fill(k):
        if k == len(cells):
            return True
        i, j = cells[k]
        used = {t[i][c] for c in range(n)} | {t[r][j] for r in range(n)}
        vals = [v for v in range(n) if v not in used]
        rng.shuffle(vals)
        for v in vals:
            t[i][j] = t[j][i] = v
            if fill(k + 1):
                return True
            t[i][j] = t[j][i] = None
        return False

    assert fill(0)
    return t


@pytest.mark.parametrize("n", [5, 6, 7])
def test_commutative_loops(n):
    rng = random.Random(f"loop/{n}")
    mul = [[(a * b) % n for b in range(n)] for a in range(n)]
    found = 0
    for _ in range(30):
        add = _commutative_loop(n, rng)
        # a loop has identity and inverses, so associativity is the first
        # law that can fail; when it holds, the mod-n product fails later
        broken = _first_law(n, add, mul, 0, 1) == "add-associative"
        assert (_check_agrees(n, add, mul, 0, 1) == "add-associative") == broken
        found += broken
    # every commutative loop of order 5 is a group
    assert (found > 0) == (n > 5)


def _zmod(n):
    add = [[(a + b) % n for b in range(n)] for a in range(n)]
    mul = [[(a * b) % n for b in range(n)] for a in range(n)]
    return add, mul


def _one_per_law():
    tables = {}
    add, mul = _zmod(3)
    add[0][1] = 3
    tables["closure"] = (3, add, mul, 0, 1)
    add, mul = _zmod(3)
    tables["nontrivial"] = (3, add, mul, 0, 0)
    add, mul = _zmod(3)
    add[1][2] = 1
    tables["add-commutative"] = (3, add, mul, 0, 1)
    _, mul = _zmod(3)
    tables["add-identity"] = (3, [[(a + b + 1) % 3 for b in range(3)] for a in range(3)], mul, 0, 1)
    _, mul = _zmod(3)
    tables["add-inverse"] = (3, [[max(a, b) for b in range(3)] for a in range(3)], mul, 0, 1)
    _, mul = _zmod(6)
    rng = random.Random("loop/one-per-law")
    while True:
        add = _commutative_loop(6, rng)
        if _first_law(6, add, mul, 0, 1) == "add-associative":
            break
    tables["add-associative"] = (6, add, mul, 0, 1)
    add, mul = _zmod(4)
    tables["mul-identity"] = (4, add, mul, 0, 2)
    add, mul = _zmod(3)
    mul[2][2] = 2  # 2*(1+1) = 2, but 2*1 + 2*1 = 1
    tables["left-distributive"] = (3, add, mul, 0, 1)
    # F_2^2 with x*y = L_x(y) for additive maps L_x; L_3 != L_1 + L_2
    # breaks right distributivity only
    maps = {0: (0, 0), 1: (1, 2), 2: (2, 0), 3: (3, 0)}  # images of 1 and 2
    add = [[x ^ y for y in range(4)] for x in range(4)]
    mul = [[maps[x][0] * (y & 1) ^ maps[x][1] * (y >> 1) for y in range(4)] for x in range(4)]
    tables["right-distributive"] = (4, add, mul, 0, 1)
    rng = random.Random("bilinear/one-per-law")
    while True:
        n, add, mul = _bilinear_table(3, rng)
        if _loop_violation(n, add, mul, 0, 1) is not None:
            break
    tables["mul-associative"] = (n, add, mul, 0, 1)
    return tables


ONE_PER_LAW = _one_per_law()


@pytest.mark.parametrize("law", sorted(ONE_PER_LAW))
def test_one_table_per_law(law):
    assert _check_agrees(*ONE_PER_LAW[law]) == law


DERIVED_CORPUS = tuple(DEFAULT_CATALOG) + QUOTIENT_RINGS


def _revalidates(ring):
    """Assert that the full axiom check accepts a derived ring as it is."""
    assert not (ring.np_add.flags.writeable or ring.np_mul.flags.writeable)
    again = from_tables(ring.order, ring.np_add, ring.np_mul, ring.zero, ring.one, ring.names)
    assert again == ring and hash(again) == hash(ring) and again.names == ring.names


@pytest.mark.parametrize("spec", DERIVED_CORPUS)
def test_quotients_and_fraction_rings_pass_the_full_check(spec):
    ring = construct(spec)
    for ideal in two_sided_ideals(ring):
        if len(ideal) < ring.order:
            _revalidates(quotient(ring, ideal)[0])
    family = [units(ring)] + [m.elements for m in saturated_denominator_sets(ring).values()]
    for dens in family:
        _revalidates(build_fraction_ring(ring, dens).ring)


def test_pairwise_products_pass_the_full_check():
    rings = [construct(spec) for spec in DERIVED_CORPUS]
    built = 0
    for left, right in itertools.combinations_with_replacement(rings, 2):
        try:
            product = direct_product(left, right)
        except SizeGuardExceeded:
            continue
        _revalidates(product.ring)
        built += 1
    assert built > 300
