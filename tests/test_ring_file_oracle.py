"""Ring files read by numpy against the exact parser.

``load_ring_file`` reads each table with ``np.fromstring`` and falls back
to the exact parser on any miss.  The oracle below is the exact parser
alone, as it was before the numpy path existed: it splits each row on
whitespace and reads each token with ``int``.  Every file here must load
to the same ring under both, or fail with the same exception type and
message.
"""

import random
import warnings

import numpy as np
import pytest

from orelab import (
    DEFAULT_CATALOG,
    DEFAULT_GUARDS,
    AxiomViolation,
    FiniteRing,
    OreLabError,
    ParseError,
    SizeGuardExceeded,
    construct,
    save_ring_file,
)
from orelab import catalog
from orelab.catalog import load_ring_file


def _parse_int(tok, lineno, what):
    try:
        return int(tok)
    except ValueError:
        raise ParseError(lineno, f"{what}: {tok!r} is not an integer")


def _exact_load(path, guards=DEFAULT_GUARDS):
    """The exact parser as the oracle; its identity-index check comes
    after the tables, which no file below reaches with a bad index."""
    try:
        with open(path, encoding="ascii") as fh:
            raw = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(0, f"cannot read {path}: {e}")
    lines = raw.split("\n")  # text mode reads \r\n and \r as \n
    if lines[-1] == "":
        lines.pop()
    pos = 0

    def next_line(what):
        nonlocal pos
        while pos < len(lines) and not lines[pos].strip():
            pos += 1
        if pos >= len(lines):
            raise ParseError(len(lines), f"file ended while looking for {what}")
        pos += 1
        return pos, lines[pos - 1].strip()

    def keyword_value(key):
        lineno, line = next_line(key)
        parts = line.split()
        if len(parts) != 2 or parts[0] != key:
            raise ParseError(lineno, f"expected '{key} <integer>', got {line!r}")
        return _parse_int(parts[1], lineno, key)

    order = keyword_value("order")
    if order < 2:
        raise ParseError(pos, "order must be at least 2")
    if order > guards.order:
        raise SizeGuardExceeded(f"ring file {path}", order, guards.order)
    one = keyword_value("one")
    zero = keyword_value("zero")

    def table(key):
        lineno, line = next_line(key)
        if line != key:
            raise ParseError(lineno, f"expected {key!r} header, got {line!r}")
        rows = []
        for _ in range(order):
            lineno, line = next_line(f"{key} row")
            toks = line.split()
            if len(toks) != order:
                raise ParseError(lineno, f"{key} row has {len(toks)} entries, expected {order}")
            try:
                rows.append(list(map(int, toks)))
            except ValueError:
                rows.append([_parse_int(t, lineno, key) for t in toks])
        return rows

    add = table("add")
    mul = table("mul")

    names = None
    while pos < len(lines) and not lines[pos].strip():
        pos += 1
    if pos < len(lines):
        lineno, line = next_line("names")
        if line != "names":
            raise ParseError(lineno, f"unexpected content {line!r} after tables")
        lineno, line = next_line("names row")
        toks = tuple(line.split())
        if len(toks) != order:
            raise ParseError(lineno, f"names row has {len(toks)} entries, expected {order}")
        names = toks
        while pos < len(lines):
            if lines[pos].strip():
                raise ParseError(pos + 1, f"unexpected trailing content {lines[pos].strip()!r}")
            pos += 1

    for idx in (one, zero):
        if not 0 <= idx < order:
            raise ParseError(0, f"identity index {idx} outside 0..{order - 1}")
    return FiniteRing(order, add, mul, zero, one, names)


def _outcome(load, path):
    try:
        ring = load(str(path))
    except (OreLabError, ValueError) as e:
        return type(e), str(e)
    return ring.order, ring.zero, ring.one, ring.np_add.tobytes(), ring.np_mul.tobytes(), ring.names


@pytest.fixture
def paths_taken(monkeypatch):
    """'numpy' or 'exact' for each table read, in order."""
    taken = []
    real = catalog._numpy_table

    def spy(rows, order):
        table = real(rows, order)
        taken.append("exact" if table is None else "numpy")
        return table

    monkeypatch.setattr(catalog, "_numpy_table", spy)
    return taken


def _relabelled(ring, rng):
    perm = np.array(rng.sample(range(ring.order), ring.order))
    inv = np.argsort(perm)  # inv[new] = old
    names = None if ring.names is None else [ring.names[i] for i in inv]
    return FiniteRing(
        ring.order,
        perm[ring.np_add[inv][:, inv]],
        perm[ring.np_mul[inv][:, inv]],
        perm[ring.zero],
        perm[ring.one],
        names,
    )


def _round_trip_rings():
    rng = random.Random(1804)
    for spec in DEFAULT_CATALOG:
        ring = construct(spec)
        yield spec, ring
        yield f"{spec}~1", _relabelled(ring, rng)
        yield f"{spec}~2", _relabelled(ring, rng)
    yield "zmod(256)", construct("zmod(256)")
    yield "matrix(gf(4),2)", construct("matrix(gf(4),2)")


@pytest.mark.parametrize("label,ring", list(_round_trip_rings()), ids=lambda x: x if isinstance(x, str) else "")
def test_saved_rings_round_trip_by_numpy(tmp_path, paths_taken, label, ring):
    path = tmp_path / "ring.txt"
    save_ring_file(ring, str(path))
    back = load_ring_file(str(path))
    assert paths_taken == ["numpy", "numpy"]
    assert back == ring and back.names == ring.names
    assert back.np_add.dtype == np.int64 and back.np_add.flags.c_contiguous
    assert _outcome(load_ring_file, path) == _outcome(_exact_load, path)


# -- rewrites of a saved file ---------------------------------------------


def _table_rows(lines):
    """Line indices of every add and mul row of a file as saved."""
    n = int(lines[0].split()[1])
    return list(range(4, 4 + n)) + list(range(5 + n, 5 + 2 * n))


def _each_row(fn):
    def rewrite(lines):
        for i in _table_rows(lines):
            lines[i] = fn(lines[i].split())
        return "\n".join(lines) + "\n"

    return rewrite


def _one_row(fn, at=1):
    def rewrite(lines):
        i = _table_rows(lines)[at]
        lines[i] = " ".join(fn(lines[i].split()))
        return "\n".join(lines) + "\n"

    return rewrite


def _entries(*edits):
    """Set the entry at (i, j) of a table to a token, for each (tok, table, i, j)."""

    def rewrite(lines):
        for tok, table, i, j in edits:
            at = lines.index(table) + 1 + i
            row = lines[at].split()
            row[j] = tok
            lines[at] = " ".join(row)
        return "\n".join(lines) + "\n"

    return rewrite


def _entry(tok, table="mul", i=1, j=1):
    return _entries((tok, table, i, j))


# name -> (rewrite of the saved lines, the path that reads a table: numpy
# for every table, or exact for at least one; None when the file ends
# inside a table, which numpy is then not given)
REWRITES = {
    "tabs": (_each_row("\t".join), "numpy"),
    # a line ends at \n (text mode reads \r\n and \r as \n) and nowhere
    # else; numpy reads \x0b and \x0c as spaces, but not \x1c-\x1f
    "vertical tabs": (_each_row("\x0b".join), "numpy"),
    "form feeds": (_each_row("\x0c".join), "numpy"),
    "file separators": (_each_row("\x1c".join), "exact"),
    "record separators": (_each_row("\x1e".join), "exact"),
    "one row with a vertical tab": (_one_row(lambda t: ["\x0b".join(t)]), "numpy"),
    "one row with a group separator": (_one_row(lambda t: ["\x1d".join(t)]), "exact"),
    "double spaces": (_each_row("  ".join), "numpy"),
    "leading zeros": (_each_row(lambda t: " ".join("00" + x for x in t)), "numpy"),
    "plus signs": (_each_row(lambda t: " ".join("+" + x for x in t)), "exact"),
    "minus one": (_entry("-1"), "exact"),
    "minus zero": (_entry("-0", "add", 0, 0), "exact"),
    # numpy reads "- 3" as one integer, so these rows would read as full
    # rows of the right length were signs not left to the exact parser
    "a detached minus sign": (_one_row(lambda t: ["-"] + t), "exact"),
    "a detached plus sign": (_one_row(lambda t: t[:1] + ["+"] + t[1:]), "exact"),
    "underscore 1_0": (_entry("1_0"), "exact"),
    "underscores in every entry": (_each_row(lambda t: " ".join("0_" + x for x in t)), "exact"),
    "3.": (_entry("3."), "exact"),
    "0x1": (_entry("0x1"), "exact"),
    "19 digits": (_entry("9" * 19), "numpy"),
    "23 digits": (_entry("9" * 23), "numpy"),
    "23 digits in add and 19 in mul": (_entries(("9" * 19, "mul", 0, 1), ("9" * 23, "add", 2, 0)), "numpy"),
    "int64 max": (_entry(str(2**63 - 1), "add", 1, 0), "numpy"),
    "short row": (_one_row(lambda t: t[:-1]), "exact"),
    "long row": (_one_row(lambda t: t + ["0"]), "exact"),
    "long row with junk": (_one_row(lambda t: t + ["x"]), "exact"),
    "blank lines between rows": (lambda ls: "\n\n".join(ls) + "\n", "numpy"),
    "CRLF line ends": (lambda ls: "\r\n".join(ls) + "\r\n", "numpy"),
    "trailing spaces": (lambda ls: "\n".join(x + "  " for x in ls) + "\n", "numpy"),
    "file ends inside add": (lambda ls: "\n".join(ls[:6]) + "\n", None),
    "file ends inside mul": (lambda ls: "\n".join(ls[:-4]) + "\n", None),
}

REWRITE_RINGS = ("zmod(12)", "upper_triangular(gf(2),2)", "product(zmod(4),gf(3))")


@pytest.fixture(scope="module")
def saved_texts(tmp_path_factory):
    out = {}
    for spec in REWRITE_RINGS:
        path = tmp_path_factory.mktemp("saved") / "ring.txt"
        save_ring_file(construct(spec), str(path))
        out[spec] = path.read_text()
    return out


@pytest.mark.parametrize("spec", REWRITE_RINGS)
@pytest.mark.parametrize("name", list(REWRITES))
def test_rewritten_file_matches_the_exact_parser(tmp_path, saved_texts, paths_taken, spec, name):
    rewrite, path_kind = REWRITES[name]
    path = tmp_path / "ring.txt"
    path.write_bytes(rewrite(saved_texts[spec].split("\n")[:-1]).encode("ascii"))
    got = _outcome(load_ring_file, path)
    assert got == _outcome(_exact_load, path)
    if path_kind == "numpy":
        assert paths_taken and set(paths_taken) == {"numpy"}
    elif path_kind == "exact":
        assert "exact" in paths_taken


@pytest.mark.parametrize("sep", ["\x0b", "\x0c"], ids=["vertical-tab", "form-feed"])
def test_entries_separated_by_a_vertical_tab_or_form_feed_load_as_the_plain_file(tmp_path, saved_texts, sep):
    # str.splitlines would end a line at each separator, leaving rows of one entry
    plain, other = tmp_path / "plain.ring", tmp_path / "other.ring"
    plain.write_text(saved_texts["zmod(12)"])
    other.write_bytes(saved_texts["zmod(12)"].replace(" ", sep).encode("ascii"))
    assert _outcome(load_ring_file, other) == _outcome(load_ring_file, plain)
    assert load_ring_file(str(other)) == construct("zmod(12)")


def test_the_rewrites_cover_rings_errors_and_both_paths(tmp_path, saved_texts):
    kinds = set()
    for rewrite, _ in REWRITES.values():
        path = tmp_path / "ring.txt"
        path.write_bytes(rewrite(saved_texts["zmod(12)"].split("\n")[:-1]).encode("ascii"))
        got = _outcome(_exact_load, path)
        kinds.add(got[0] if isinstance(got[0], type) else FiniteRing)
    assert kinds == {FiniteRing, ParseError, AxiomViolation}


def test_a_saturated_entry_is_refused_where_the_exact_parser_refuses_it(tmp_path, saved_texts):
    path = tmp_path / "ring.txt"
    path.write_text(_entry("9" * 23, "mul", 1, 1)(saved_texts["zmod(12)"].split("\n")[:-1]))
    with pytest.raises(AxiomViolation) as exc:
        load_ring_file(str(path))
    assert exc.value.law == "closure" and exc.value.witness == ("mul", 1, 1)


# -- numpy 1.x: a row it cannot read to its end warns and comes back short --


def _numpy1_fromstring(real, warned):
    def fromstring(string, dtype=float, count=-1, *, sep="", like=None):
        try:
            return real(string, dtype=dtype, count=count, sep=sep)
        except ValueError:
            values = []
            for tok in string.split():
                if not tok.isdigit():
                    break
                values.append(int(tok))
            warned.append(string)
            warnings.warn(
                "string or file could not be read to its end due to unmatched data; "
                "this will raise a ValueError in the future.",
                DeprecationWarning,
                stacklevel=2,
            )
            return np.array(values, dtype=dtype)

    return fromstring


@pytest.mark.parametrize("quiet", [False, True], ids=["default-filters", "warnings-ignored"])
@pytest.mark.parametrize("name", [n for n, (_, kind) in REWRITES.items() if kind == "exact"])
def test_numpy1_warn_and_truncate_falls_back_to_the_exact_parser(tmp_path, saved_texts, monkeypatch, name, quiet):
    warned = []
    monkeypatch.setattr(np, "fromstring", _numpy1_fromstring(np.fromstring, warned))
    rewrite, _ = REWRITES[name]
    path = tmp_path / "ring.txt"
    path.write_bytes(rewrite(saved_texts["zmod(12)"].split("\n")[:-1]).encode("ascii"))
    with warnings.catch_warnings():
        if quiet:
            warnings.simplefilter("ignore")
        assert _outcome(load_ring_file, path) == _outcome(_exact_load, path)


def test_numpy1_partial_row_of_full_length_is_not_accepted(tmp_path, saved_texts, monkeypatch):
    # "0 1 ... 11 x": numpy 1.x returns the 12 integers before the junk
    # with a warning; only the warning tells the row is not whole
    warned = []
    monkeypatch.setattr(np, "fromstring", _numpy1_fromstring(np.fromstring, warned))
    path = tmp_path / "ring.txt"
    path.write_text(REWRITES["long row with junk"][0](saved_texts["zmod(12)"].split("\n")[:-1]))
    with pytest.raises(ParseError) as exc:
        load_ring_file(str(path))
    assert len(warned) == 1
    assert str(exc.value) == "line 6: add row has 13 entries, expected 12"
