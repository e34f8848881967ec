"""Constructors, spec parsing, ring files, hashing, manifests."""

import dataclasses

import pytest

from orelab import (
    AxiomViolation,
    BadSpec,
    DEFAULT_CATALOG,
    FiniteRing,
    Guards,
    ParseError,
    SizeGuardExceeded,
    canonical_hash,
    canonical_text,
    construct,
    load_ring_file,
    parse_manifest,
    parse_spec,
    opposite,
    save_ring_file,
    units,
)


def test_parse_spec_round_trip():
    for text in (
        "zmod(6)",
        "gf(8)",
        "matrix(gf(2),2)",
        "upper_triangular(gf(3),2)",
        "product(gf(2),gf(3),gf(5))",
        "product(zmod(4),matrix(gf(2),2))",
        "quotient(zmod(12),[4])",
        "opposite(upper_triangular(gf(2),2))",
    ):
        assert str(parse_spec(text)) == text
    # bare-integer generators are sugar for the bracketed list
    assert parse_spec("quotient(zmod(12),4)") == parse_spec("quotient(zmod(12),[4])")


def test_parse_spec_errors():
    for bad in ("zmod", "zmod()", "zmod(x)", "gf(6)", "product(gf(2))",
                "matrix(gf(2))", "frobnicate(3)", "zmod(6) trailing"):
        with pytest.raises(BadSpec):
            parse_spec(bad)
            construct(bad)


def test_opposite_spec():
    t = construct("upper_triangular(gf(2),2)")
    op = construct("opposite(upper_triangular(gf(2),2))")
    assert op == opposite(t) and op != t
    assert construct("opposite(opposite(upper_triangular(gf(2),2)))") == t


def test_deep_nesting_is_bad_spec():
    deep = "quotient(" * 2000 + "zmod(4)" + ",0)" * 2000
    with pytest.raises(BadSpec):
        parse_spec(deep)
    with pytest.raises(ParseError):
        parse_manifest(f"ring {deep}")


def test_zmod_construction():
    z5 = construct("zmod(5)")
    assert z5.order == 5 and z5.mul[3][4] == 2
    with pytest.raises(BadSpec):
        construct("zmod(1)")


def test_gf_construction():
    f4 = construct("gf(4)")
    assert f4.order == 4
    names = [f4.name_of(i) for i in range(4)]
    assert names == ["0", "1", "x", "x+1"]
    assert f4.mul[2][2] == 3  # x * x = x + 1
    assert f4.add[2][3] == 1  # x + (x+1) = 1
    f8 = construct("gf(8)")
    assert len(units(f8)) == 7


def test_gf9_multiplication():
    f9 = construct("gf(9)")
    # reduction polynomial x^2 + 1; element 3 is x, so x*x = -1 = 2
    assert f9.mul[3][3] == 2
    assert f9.name_of(3) == "x"
    assert f9.name_of(5) == "x+2"


# p and the monic irreducible, coefficients from x^0 up, of each field
# built on polynomials
_GF_BY_POLYNOMIALS = {4: (2, (1, 1, 1)), 8: (2, (1, 1, 0, 1)), 9: (3, (1, 0, 1))}


def _gf_by_polynomial_loops(q):
    """Add and mul tables and names of GF(q), one polynomial at a time:
    element v has the base-p digits of v as its coefficients from x^0
    up, a product is reduced by long division by the irreducible."""
    p, irr = _GF_BY_POLYNOMIALS[q]
    d = len(irr) - 1
    els = [[v // p**i % p for i in range(d)] for v in range(q)]

    def index(coeffs):
        return sum(c * p**i for i, c in enumerate(coeffs))

    def times(a, b):
        prod = [0] * (2 * d - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
        for top in range(2 * d - 2, d - 1, -1):
            c = prod[top]
            for i, ic in enumerate(irr):
                prod[top - d + i] = (prod[top - d + i] - c * ic) % p
        return prod[:d]

    def name(coeffs):
        terms = []
        for power in range(d - 1, -1, -1):
            c = coeffs[power]
            if c:
                mono = {0: "", 1: "x"}.get(power, f"x^{power}")
                terms.append(str(c) if not mono else mono if c == 1 else f"{c}{mono}")
        return "+".join(terms) or "0"

    add = [[index([(x + y) % p for x, y in zip(a, b)]) for b in els] for a in els]
    mul = [[index(times(a, b)) for b in els] for a in els]
    return add, mul, [name(a) for a in els]


@pytest.mark.parametrize("q", sorted(_GF_BY_POLYNOMIALS))
def test_gf_tables_match_the_polynomial_loops(q):
    field = construct(f"gf({q})")
    add, mul, names = _gf_by_polynomial_loops(q)
    assert field.np_add.tolist() == add
    assert field.np_mul.tolist() == mul
    assert [field.name_of(v) for v in range(q)] == names
    assert (field.zero, field.one) == (0, 1)


def test_matrix_ring():
    m = construct("matrix(gf(2),2)")
    assert m.order == 16
    assert len(units(m)) == 6  # |GL_2(F_2)|
    t = construct("upper_triangular(gf(3),2)")
    assert t.order == 27
    assert len(units(t)) == 12  # 2 * 2 * 3


def test_matrix_names():
    t = construct("upper_triangular(gf(2),2)")
    assert t.name_of(t.one) == "[[1,0],[0,1]]"
    assert t.name_of(0) == "[[0,0],[0,0]]"


def test_construct_guard():
    with pytest.raises(SizeGuardExceeded):
        construct("matrix(gf(3),3)")
    with pytest.raises(SizeGuardExceeded):
        construct("zmod(300)")
    construct("zmod(300)", Guards(order=1024, left_ideals=64, brute_force=8))


def test_quotient_spec(z4):
    q = construct("quotient(zmod(12),4)")
    assert q.order == 4
    assert canonical_hash(q) == canonical_hash(z4)


def test_product_spec_flattening():
    p = construct("product(gf(2),gf(3))")
    assert p.order == 6
    nested = construct("product(gf(2),product(gf(3),gf(5)))")
    assert nested.order == 30


def test_canonical_hash_ignores_names(z6):
    text_with = canonical_text(z6, include_names=True)
    text_without = canonical_text(z6, include_names=False)
    assert ("names" in text_with) >= ("names" in text_without)
    h1 = canonical_hash(z6)
    assert h1 == canonical_hash(construct("zmod(6)"))
    assert h1 != canonical_hash(construct("zmod(4)"))


def test_ring_file_round_trip(tmp_path, t2f2):
    path = tmp_path / "t2f2.ring"
    save_ring_file(t2f2, str(path))
    back = load_ring_file(str(path))
    assert canonical_hash(back) == canonical_hash(t2f2)
    assert back.name_of(back.one) == t2f2.name_of(t2f2.one)


def test_ring_file_parse_errors(tmp_path, z4):
    path = tmp_path / "z.ring"
    save_ring_file(z4, str(path))
    good = path.read_text()

    truncated = tmp_path / "short.ring"
    truncated.write_text("\n".join(good.splitlines()[:4]) + "\n")
    with pytest.raises(ParseError):
        load_ring_file(str(truncated))

    mangled = tmp_path / "mangled.ring"
    mangled.write_text(good.replace("order 4", "order four"))
    with pytest.raises(ParseError) as exc:
        load_ring_file(str(mangled))
    assert exc.value.line >= 1

    trailing = tmp_path / "trailing.ring"
    trailing.write_text(good + "unexpected\n")
    with pytest.raises(ParseError):
        load_ring_file(str(trailing))


def test_ring_file_axiom_check(tmp_path, z4):
    path = tmp_path / "broken.ring"
    save_ring_file(z4, str(path))
    lines = path.read_text().splitlines()
    # corrupt one multiplication entry: associativity dies, parsing does not
    mul_at = lines.index("mul")
    row = lines[mul_at + 3].split()
    row[-1] = "1" if row[-1] != "1" else "2"
    lines[mul_at + 3] = " ".join(row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(AxiomViolation):
        load_ring_file(str(path))


def _edited_ring_file(tmp_path, ring, at, line):
    path = tmp_path / "edited.ring"
    save_ring_file(ring, str(path))
    lines = path.read_text().splitlines()
    lines[at] = line
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("key,at", [("one", 1), ("zero", 2)])
@pytest.mark.parametrize("idx", [9, 4, -1])
def test_identity_index_is_refused_at_its_keyword_line(tmp_path, z4, key, at, idx):
    path = _edited_ring_file(tmp_path, z4, at, f"{key} {idx}")
    with pytest.raises(ParseError) as exc:
        load_ring_file(path)
    assert str(exc.value) == f"line {at + 1}: identity index {idx} outside 0..3"


def test_identity_index_is_refused_before_any_table_is_read(tmp_path):
    path = tmp_path / "short.ring"
    path.write_text("order 4\none 9\n")
    with pytest.raises(ParseError) as exc:
        load_ring_file(str(path))
    assert str(exc.value) == "line 2: identity index 9 outside 0..3"


@pytest.mark.parametrize("row,name", [("a a b c", "a"), ("a b c b", "b"), ("a b b a", "b")])
def test_repeated_names_are_refused_at_the_names_line(tmp_path, z4, row, name):
    path = _edited_ring_file(tmp_path, z4, -1, row)
    with pytest.raises(ParseError) as exc:
        load_ring_file(path)
    assert str(exc.value) == f"line 15: names row repeats the name {name!r}"


def _derived_rings(obj, seen):
    """Every FiniteRing reachable from obj through dataclass fields,
    slots and containers."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, FiniteRing):
        yield obj
        return
    if isinstance(obj, (tuple, list)):
        children = obj
    elif isinstance(obj, dict):
        children = [*obj, *obj.values()]
    elif dataclasses.is_dataclass(obj):
        children = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    elif hasattr(obj, "__slots__"):
        children = [getattr(obj, s, None) for s in obj.__slots__]
    else:
        return
    for child in children:
        yield from _derived_rings(child, seen)


def test_catalog_and_derived_rings_have_distinct_names(catalog_profiles):
    rings = [r for prof in catalog_profiles.values() for r in _derived_rings(prof, set())]
    assert len(rings) > 2 * len(catalog_profiles)  # factors and localizations were reached
    for ring in rings:
        assert ring.names is None or len(set(ring.names)) == ring.order, ring


def test_manifest_parsing():
    m = parse_manifest(
        """
        # comment
        ring zmod(6)
        ring gf(4)  # inline comment
        analysis profile
        analysis axioms
        jobs 4
        out reports
        """
    )
    assert m.specs == ("zmod(6)", "gf(4)")
    assert m.analyses == ("profile", "axioms")
    assert m.jobs == 4 and m.out == "reports"


def test_manifest_errors():
    with pytest.raises(ParseError):
        parse_manifest("ring zmod(oops)")
    with pytest.raises(ParseError):
        parse_manifest("analysis frobnicate")
    with pytest.raises(ParseError):
        parse_manifest("jobs zero")
    with pytest.raises(ParseError):
        parse_manifest("frobnicate zmod(6)")
    empty = parse_manifest("# nothing\n")
    assert empty.specs == () and empty.analyses == ("profile",)


def test_default_catalog_constructs(catalog_rings):
    assert len(DEFAULT_CATALOG) == 31
    orders = {spec: ring.order for spec, ring in catalog_rings.items()}
    assert orders["zmod(2)"] == 2
    assert orders["product(zmod(6),gf(7))"] == 42
    assert max(orders.values()) <= 48
