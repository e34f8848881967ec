"""Derived rings are proved by the maps that build them.

Quotients and fraction rings are the image of a validated ring under a
map checked to be an onto unital homomorphism with 0 and 1 apart; a
product is carried by its radix digits and checked projections.  Light's
test never runs on them.  A broken derived table is a bug in the
builder, so it raises InternalInconsistency (exit 1), never
AxiomViolation, which would blame the caller's ring.
"""

import io
import sys

import numpy as np
import pytest

import orelab.rings as rings
from orelab import (
    DEFAULT_CATALOG,
    FiniteRing,
    InternalInconsistency,
    construct,
    from_tables,
    localization_profile,
    opposite,
    run_laws,
)
from orelab.cli import run
from orelab.rings import CarrierSubset, _image_ring, direct_product, quotient


def test_image_ring_accepts_a_true_image(z12):
    F, idx = np.arange(12) % 4, np.arange(4)
    add, mul = (idx[:, None] + idx) % 4, (idx[:, None] * idx) % 4
    f = _image_ring(z12, F, add, mul, None, "reduction mod 4")
    assert f.target == construct("zmod(4)") and tuple(f.table.tolist()) == tuple(F.tolist())
    assert not f.target.np_add.flags.writeable and f.target.np_add is add


def test_image_ring_refuses_a_map_that_is_not_onto(z4):
    # zmod(4) -> {0, 1, 2} by x mod 2 preserves + and * on the image {0, 1},
    # but nothing reaches 2, so the laws say nothing about it
    add = np.array([[0, 1, 2], [1, 0, 2], [2, 2, 2]])
    mul = np.array([[0, 0, 0], [0, 1, 2], [0, 2, 2]])
    with pytest.raises(InternalInconsistency, match="not onto: 2 has no preimage"):
        _image_ring(z4, np.arange(4) % 2, add, mul, None, "test map")


def test_image_ring_refuses_zero_equal_to_one(z4):
    trivial = np.zeros((1, 1), dtype=np.int64)
    with pytest.raises(InternalInconsistency, match="sends 0 and 1 to the same element 0"):
        _image_ring(z4, np.zeros(4, dtype=np.int64), trivial, trivial.copy(), None, "test map")


@pytest.mark.parametrize("which", ["add", "mul"])
def test_image_ring_refuses_every_corrupted_entry(z12, which):
    # zmod(12) onto its quotient by {0, 4, 8}: each single-entry change of
    # either table is refused at the first source pair landing on it
    ideal = CarrierSubset.from_indices(12, [0, 4, 8])
    q, proj = quotient(z12, ideal)
    F = np.array(proj.table)
    kind = "additive" if which == "add" else "multiplicative"
    for i in range(q.order):
        for j in range(q.order):
            add, mul = q.np_add.copy(), q.np_mul.copy()
            table = add if which == "add" else mul
            table[i, j] = (table[i, j] + 1) % q.order
            x, y = next((x, y) for x in range(12) for y in range(12) if (F[x], F[y]) == (i, j))
            with pytest.raises(InternalInconsistency, match=rf"not {kind} at \({x}, {y}\)"):
                _image_ring(z12, F, add, mul, None, "projection")


def _corrupt_first(monkeypatch, value):
    """Make rings.digitwise_table change entry (1, 2) of the next table it builds."""
    original = rings.digitwise_table
    calls = []

    def corrupted(*args):
        table = original(*args)
        if not calls:
            table[1, 2] = value(table[1, 2])
        calls.append(1)
        return table

    monkeypatch.setattr(rings, "digitwise_table", corrupted)


@pytest.mark.parametrize(
    "value",
    [lambda v: (v + 1) % 6, lambda v: 6, lambda v: -1],
    ids=["inside-carrier", "past-carrier", "negative"],
)
def test_a_broken_product_table_is_an_internal_error(monkeypatch, value):
    gf2, gf3 = construct("gf(2)"), construct("gf(3)")
    _corrupt_first(monkeypatch, value)
    with pytest.raises(InternalInconsistency):
        direct_product(gf2, gf3)


def test_a_broken_product_table_exits_1_on_the_cli(monkeypatch):
    _corrupt_first(monkeypatch, lambda v: (v + 1) % 6)
    buf = io.StringIO()
    assert run(["profile", "product(gf(2),gf(3))"], stdout=buf) == 1
    assert buf.getvalue().startswith("mathematical check failed: a projection of the product")


def test_derived_rings_never_run_the_axiom_check(monkeypatch):
    original = FiniteRing._validate
    callers = []

    def recording(self):
        frame, names = sys._getframe(1), set()
        while frame is not None:
            names.add(frame.f_code.co_name)
            frame = frame.f_back
        callers.append(names)
        return original(self)

    monkeypatch.setattr(FiniteRing, "_validate", recording)
    ring = construct("product(zmod(4),upper_triangular(gf(2),2))")
    localization_profile(from_tables(ring.order, ring.np_add, ring.np_mul, ring.zero, ring.one))
    run_laws(construct("zmod(6)"))
    assert callers  # caller input is still validated
    derived = {"quotient", "build_fraction_ring", "direct_product"}
    assert [names & derived for names in callers if names & derived] == []


@pytest.mark.parametrize("spec", DEFAULT_CATALOG)
def test_opposite_is_the_validated_transpose(spec):
    # the identity R -> R^op is an anti-isomorphism, so opposite skips
    # Light's test; the oracle runs it on the transposed table
    ring = construct(spec)
    op = opposite(ring)
    oracle = FiniteRing(ring.order, ring.np_add, ring.np_mul.T, ring.zero, ring.one, ring.names)
    assert op == oracle and op.names == oracle.names
    assert not op.np_mul.flags.writeable and op.np_mul.flags.c_contiguous
    back = opposite(op)
    assert back == ring and back.names == ring.names


def test_opposite_never_runs_the_axiom_check(monkeypatch, t2f2):
    def refuse(self):
        raise AssertionError("the axiom check ran on an opposite ring")

    monkeypatch.setattr(FiniteRing, "_validate", refuse)
    assert opposite(opposite(t2f2)) == t2f2
