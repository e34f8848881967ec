"""Quotient, product, opposite and matrix-ring tables, units and regular
elements against loop references.

The references build each table entry by entry from the tuple tables, the
way the constructions were first written; the library builds them by
numpy gathers.  Tables, names, maps and canonical hashes must agree.
"""

import pytest

from orelab import DEFAULT_CATALOG, DEFAULT_GUARDS, canonical_hash, construct, from_tables
from orelab.rings import (
    direct_product,
    opposite,
    quotient,
    radix_decode,
    radix_encode,
    regular_elements,
    two_sided_ideals,
    units,
)


def _same_ring(ring, order, add, mul, zero, one, names):
    assert (ring.order, ring.zero, ring.one) == (order, zero, one)
    assert ring.add == tuple(map(tuple, add))
    assert ring.mul == tuple(map(tuple, mul))
    assert ring.names == (None if names is None else tuple(names))
    assert canonical_hash(ring) == canonical_hash(from_tables(order, add, mul, zero, one, names))


def _loop_quotient(ring, ideal):
    add, n = ring.add, ring.order
    coset_rep = [min(add[x][i] for i in ideal) for x in range(n)]
    reps = sorted(set(coset_rep))
    index_of = {r: k for k, r in enumerate(reps)}
    proj = tuple(index_of[coset_rep[x]] for x in range(n))
    k = len(reps)
    q_add = [[index_of[coset_rep[add[reps[i]][reps[j]]]] for j in range(k)] for i in range(k)]
    q_mul = [[index_of[coset_rep[ring.mul[reps[i]][reps[j]]]] for j in range(k)] for i in range(k)]
    names = None if ring.names is None else [ring.names[r] for r in reps]
    return (k, q_add, q_mul, proj[ring.zero], proj[ring.one], names), proj


def test_quotient_matches_loop_reference(catalog_rings):
    checked = 0
    for spec in DEFAULT_CATALOG:
        ring = catalog_rings[spec]
        for ideal in two_sided_ideals(ring):
            if len(ideal) == ring.order:
                continue
            q, proj = quotient(ring, ideal)
            tables, ref_proj = _loop_quotient(ring, ideal)
            _same_ring(q, *tables)
            assert tuple(proj.table.tolist()) == ref_proj
            checked += 1
    assert checked > len(DEFAULT_CATALOG)


@pytest.mark.parametrize(
    "specs",
    [
        ("zmod(4)", "gf(3)"),
        ("gf(2)", "upper_triangular(gf(2),2)", "zmod(3)"),
        ("matrix(gf(2),2)", "zmod(2)"),
    ],
    ids=" x ".join,
)
def test_direct_product_matches_loop_reference(specs):
    factors = [construct(s) for s in specs]
    prod = direct_product(*factors)
    radices = [f.order for f in factors]
    n = prod.ring.order
    decoded = [radix_decode(radices, x) for x in range(n)]

    def table(op):
        return [
            [radix_encode(radices, [op(f)[a[i]][b[i]] for i, f in enumerate(factors)]) for b in decoded]
            for a in decoded
        ]

    names = ["(" + ",".join(f.names[p[i]] for i, f in enumerate(factors)) + ")" for p in decoded]
    zero = radix_encode(radices, [f.zero for f in factors])
    one = radix_encode(radices, [f.one for f in factors])
    _same_ring(prod.ring, n, table(lambda f: f.add), table(lambda f: f.mul), zero, one, names)
    for i, (f, p) in enumerate(zip(factors, prod.projections)):
        assert p.target is f
        assert tuple(p.table.tolist()) == tuple(decoded[x][i] for x in range(n))
        parts = [g.zero for g in factors]
        embedded = []
        for x in range(f.order):
            parts[i] = x
            embedded.append(radix_encode(radices, parts))
        assert tuple(prod.embeddings[i].tolist()) == tuple(embedded)


def test_opposite_matches_loop_reference(catalog_rings):
    for ring in catalog_rings.values():
        n = ring.order
        mul = [[ring.mul[y][x] for y in range(n)] for x in range(n)]
        _same_ring(opposite(ring), n, ring.add, mul, ring.zero, ring.one, ring.names)


def test_units_and_regular_elements_match_loop_reference(catalog_rings):
    for ring in catalog_rings.values():
        n, mul = ring.order, ring.mul
        unit = [u for u in range(n) if any(mul[u][v] == mul[v][u] == ring.one for v in range(n))]
        regular = [
            u for u in range(n) if len(set(mul[u])) == n == len({mul[r][u] for r in range(n)})
        ]
        assert list(units(ring)) == unit
        assert list(regular_elements(ring)) == regular


def _loop_matrix_ring(base, k, upper):
    # one product entry at a time, in the tuple tables of the base ring
    if upper:
        positions = [(i, j) for i in range(k) for j in range(i, k)]
    else:
        positions = [(i, j) for i in range(k) for j in range(k)]
    m = len(positions)
    order = base.order**m
    pos_index = {pq: t for t, pq in enumerate(positions)}
    radices = [base.order] * m
    mats = [radix_decode(radices, i) for i in range(order)]

    def at(entries, i, j):
        t = pos_index.get((i, j))
        return entries[t] if t is not None else base.zero

    badd, bmul = base.add, base.mul
    add_t = [
        [radix_encode(radices, [badd[x[t]][y[t]] for t in range(m)]) for y in mats] for x in mats
    ]
    mul_t = []
    for x in mats:
        row = []
        for y in mats:
            out = []
            for (i, j) in positions:
                acc = base.zero
                for l in range(k):
                    acc = badd[acc][bmul[at(x, i, l)][at(y, l, j)]]
                out.append(acc)
            row.append(radix_encode(radices, out))
        mul_t.append(row)
    zero = radix_encode(radices, [base.zero] * m)
    one = radix_encode(radices, [base.one if i == j else base.zero for (i, j) in positions])

    def mat_name(entries):
        rows = []
        for i in range(k):
            rows.append("[" + ",".join(base.name_of(at(entries, i, j)) for j in range(k)) + "]")
        return "[" + ",".join(rows) + "]"

    return order, add_t, mul_t, zero, one, [mat_name(x) for x in mats]


def test_matrix_rings_match_loop_reference():
    checked = []
    for base_spec in ("gf(2)", "gf(3)", "gf(4)", "zmod(4)"):
        base = construct(base_spec)
        for kind in ("matrix", "upper_triangular"):
            upper = kind == "upper_triangular"
            for k in (1, 2, 3):
                m = k * (k + 1) // 2 if upper else k * k
                if base.order**m > DEFAULT_GUARDS.order:
                    continue
                spec = f"{kind}({base_spec},{k})"
                _same_ring(construct(spec), *_loop_matrix_ring(base, k, upper))
                checked.append(spec)
    assert len(checked) == 17
    assert "matrix(gf(4),2)" in checked and "upper_triangular(gf(2),3)" in checked
