"""Ring constructors, the ring file format, manifests, and hashing.

Element orderings are fixed and documented per constructor so that
tables, files and hashes are reproducible:

* ``zmod(n)``: residues 0..n-1.
* ``gf(q)``: little-endian digit index, element sum(c_i x^i) has index
  sum(c_i p^i).  The non-prime fields use fixed irreducibles:
  x^2+x+1 for 4, x^3+x+1 for 8, x^2+1 for 9.
* ``matrix(base, k)``: entries row-major, first entry most significant.
* ``upper_triangular(base, k)``: the on-or-above-diagonal positions
  row-major, first position most significant.
* ``product(...)``: leftmost factor most significant.
* ``opposite(base)``: the carrier of ``base``, multiplication reversed.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BadSpec, DEFAULT_GUARDS, Guards, ParseError, SizeGuardExceeded
from .rings import (
    FiniteRing,
    digitwise_table,
    direct_product,
    ideal_closure,
    opposite,
    quotient,
    radix_digits,
    radix_encode,
)

__all__ = [
    "RingSpec",
    "BatchManifest",
    "parse_spec",
    "construct",
    "canonical_text",
    "canonical_hash",
    "save_ring_file",
    "load_ring_file",
    "parse_manifest",
    "DEFAULT_CATALOG",
]

_GF_IRREDUCIBLE = {
    4: (1, 1, 1),     # x^2 + x + 1 over F_2
    8: (1, 1, 0, 1),  # x^3 + x + 1 over F_2
    9: (1, 0, 1),     # x^2 + 1 over F_3
}
_GF_ORDERS = (2, 3, 4, 5, 7, 8, 9)


@dataclass(frozen=True)
class RingSpec:
    """Parsed constructor expression.

    args holds ints, nested RingSpecs, a path string (for file), or a
    tuple of generator indices (for quotient).
    """

    kind: str
    args: tuple

    def __str__(self) -> str:
        parts = []
        for a in self.args:
            if isinstance(a, tuple):
                parts.append("[" + ",".join(str(x) for x in a) + "]")
            else:
                parts.append(str(a))
        return f"{self.kind}({','.join(parts)})"


# A literal longer than this is refused before int() sees it: no ring that
# the guards let through needs one, and int() refuses 4300 digits.
_MAX_DIGITS = 18

_KINDS = ("zmod", "gf", "matrix", "upper_triangular", "product", "quotient", "opposite", "file")


def _excerpt(text: str) -> str:
    """The spec as a message quotes it: at most its first 40 characters."""
    return f"{text[:40]!r}..." if len(text) > 40 else repr(text)


class _SpecParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, reason: str):
        raise BadSpec(f"{reason} at position {self.pos} in {_excerpt(self.text)}")

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, ch: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def ident(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum() or self.text[self.pos] == "_"):
            self.pos += 1
        if start == self.pos:
            self.error("expected a constructor name")
        return self.text[start:self.pos]

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            self.error("expected an integer")
        if self.pos - start > _MAX_DIGITS:
            self.pos = start
            self.error(f"integer literal longer than {_MAX_DIGITS} digits")
        return int(self.text[start:self.pos])

    def int_list(self) -> tuple:
        self.expect("[")
        items = []
        if self.peek() != "]":
            items.append(self.integer())
            while self.peek() == ",":
                self.pos += 1
                items.append(self.integer())
        self.expect("]")
        return tuple(items)

    def path(self) -> str:
        # everything up to the matching close paren; quotes optional
        self.skip_ws()
        if self.peek() in ("'", '"'):
            q = self.text[self.pos]
            self.pos += 1
            start = self.pos
            end = self.text.find(q, start)
            if end < 0:
                self.error("unterminated quote")
            self.pos = end + 1
            return self.text[start:end]
        start = self.pos
        end = self.text.find(")", start)
        if end < 0:
            self.error("expected ')'")
        self.pos = end
        return self.text[start:end].strip()

    def spec(self) -> RingSpec:
        kind = self.ident()
        if kind not in _KINDS:
            self.error(f"unknown constructor {kind!r}")
        self.expect("(")
        args: list = []
        if kind == "zmod" or kind == "gf":
            args.append(self.integer())
        elif kind in ("matrix", "upper_triangular"):
            args.append(self.spec())
            self.expect(",")
            args.append(self.integer())
        elif kind == "product":
            args.append(self.spec())
            while self.peek() == ",":
                self.pos += 1
                args.append(self.spec())
            if len(args) < 2:
                self.error("product needs at least two factors")
        elif kind == "quotient":
            args.append(self.spec())
            self.expect(",")
            if self.peek() == "[":
                args.append(self.int_list())
            else:
                gens = [self.integer()]
                while self.peek() == ",":
                    self.pos += 1
                    gens.append(self.integer())
                args.append(tuple(gens))
        elif kind == "opposite":
            args.append(self.spec())
        elif kind == "file":
            args.append(self.path())
        self.expect(")")
        return RingSpec(kind, tuple(args))


def parse_spec(text: str) -> RingSpec:
    p = _SpecParser(text)
    try:
        s = p.spec()
    except RecursionError:
        raise BadSpec(f"constructors nest too deeply in {_excerpt(text)}") from None
    p.skip_ws()
    if p.pos != len(text):
        p.error("trailing characters")
    return s


def _poly_name(digits: tuple[int, ...]) -> str:
    terms = []
    for power in range(len(digits) - 1, -1, -1):
        c = digits[power]
        if c == 0:
            continue
        if power == 0:
            terms.append(str(c))
        elif power == 1:
            terms.append("x" if c == 1 else f"{c}x")
        else:
            terms.append(f"x^{power}" if c == 1 else f"{c}x^{power}")
    return "+".join(terms) if terms else "0"


def _residues(n: int) -> FiniteRing:
    """Z/nZ on the residues 0..n-1."""
    r = np.arange(n)
    names = [str(i) for i in range(n)]
    return FiniteRing(n, np.add.outer(r, r) % n, np.multiply.outer(r, r) % n, 0, 1, names)


def _gf(q: int) -> FiniteRing:
    if q not in _GF_ORDERS:
        raise BadSpec(f"gf({q}) is not available; choose q in {_GF_ORDERS}")
    p = 2 if q in (2, 4, 8) else 3 if q in (3, 9) else q
    d = 1
    while p**d < q:
        d += 1
    if d == 1:
        return _residues(p)
    irr = _GF_IRREDUCIBLE[q]
    els = []
    for idx in range(q):
        digits, v = [], idx
        for _ in range(d):
            digits.append(v % p)
            v //= p
        els.append(tuple(digits))

    def reduce(poly: list[int]) -> tuple[int, ...]:
        poly = poly[:]
        for power in range(len(poly) - 1, d - 1, -1):
            c = poly[power]
            if c:
                for i, ic in enumerate(irr):
                    poly[power - d + i] = (poly[power - d + i] - c * ic) % p
        return tuple(poly[:d])

    def index(digits: tuple[int, ...]) -> int:
        v = 0
        for i in range(d - 1, -1, -1):
            v = v * p + digits[i]
        return v

    add = [[index(tuple((a[i] + b[i]) % p for i in range(d))) for b in els] for a in els]
    mul_t = []
    for a in els:
        row = []
        for b in els:
            prod = [0] * (2 * d - 1)
            for i, ai in enumerate(a):
                for j, bj in enumerate(b):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
            row.append(index(reduce(prod)))
        mul_t.append(row)
    names = tuple(_poly_name(e) for e in els)
    return FiniteRing(q, add, mul_t, 0, 1, names)


def _matrix_ring(base: FiniteRing, k: int, upper: bool, guards: Guards) -> FiniteRing:
    if k < 1:
        raise BadSpec("matrix size must be at least 1")
    q, m = base.order, k * (k + 1) // 2 if upper else k * k
    # q >= 2, so q^m passes the guard once m reaches the guard's bit length:
    # q^m is formed only below that, and named in full only below 2^60
    if m >= guards.order.bit_length() or q**m > guards.order:
        size = q**m if m * q.bit_length() <= 60 else f"{q}^{m}"
        raise SizeGuardExceeded(f"matrix ring of order {q}^{m}", size, guards.order)
    order = q**m
    positions = [(i, j) for i in range(k) for j in range(i if upper else 0, k)]
    radices = [base.order] * m
    strides, digits = radix_digits(radices)
    # entry[i][j][x] is the (i, j) entry of matrix x; zero off the stored positions
    cell = dict(zip(positions, digits))
    entry = [[cell.get((i, j), np.full(order, base.zero)) for j in range(k)] for i in range(k)]
    A, M = base.np_add, base.np_mul

    def product_entry(i: int, j: int) -> np.ndarray:
        # the (i, j) entry of x*y for every pair (x, y): the sum over l of x_il*y_lj
        acc = np.full((order, order), base.zero)
        for l in range(k):
            acc = A[acc, M[entry[i][l][:, None], entry[l][j]]]
        return acc

    add_t = digitwise_table([A] * m, strides, digits)
    mul_t = sum(st * product_entry(i, j) for st, (i, j) in zip(strides, positions))
    zero = radix_encode(radices, [base.zero] * m)
    one = radix_encode(radices, [base.one if i == j else base.zero for (i, j) in positions])
    cells = [[[base.name_of(v) for v in e.tolist()] for e in row] for row in entry]
    names = [
        "[" + ",".join("[" + ",".join(c[x] for c in row) + "]" for row in cells) + "]"
        for x in range(order)
    ]
    return FiniteRing(order, add_t, mul_t, zero, one, names)


def construct(spec: RingSpec | str, guards: Guards = DEFAULT_GUARDS) -> FiniteRing:
    """Build the ring a spec describes; every output is axiom-checked."""
    if isinstance(spec, str):
        spec = parse_spec(spec)
    try:
        return _build(spec, guards)
    except RecursionError:
        raise BadSpec(f"constructors nest too deeply to build {spec.kind}(...)") from None


def _build(spec: RingSpec, guards: Guards) -> FiniteRing:
    kind = spec.kind
    if kind == "zmod":
        n = spec.args[0]
        if n < 2:
            raise BadSpec("zmod(n) needs n >= 2")
        if n > guards.order:
            raise SizeGuardExceeded(f"zmod({n})", n, guards.order)
        return _residues(n)
    if kind == "gf":
        q = spec.args[0]
        if q > guards.order:
            raise SizeGuardExceeded(f"gf({q})", q, guards.order)
        return _gf(q)
    if kind in ("matrix", "upper_triangular"):
        base = _build(spec.args[0], guards)
        return _matrix_ring(base, spec.args[1], kind == "upper_triangular", guards)
    if kind == "product":
        # stop building factors once the running size passes the guard; at
        # the last factor the refusal is direct_product's
        factors, size = [], 1
        for a in spec.args:
            factors.append(_build(a, guards))
            size *= factors[-1].order
            if size > guards.order and len(factors) < len(spec.args):
                what = f"direct product of the first {len(factors)} of {len(spec.args)} factors"
                raise SizeGuardExceeded(what, size, guards.order)
        return direct_product(*factors, guards=guards).ring
    if kind == "quotient":
        base = _build(spec.args[0], guards)
        gens = spec.args[1]
        for g in gens:
            if not 0 <= g < base.order:
                raise BadSpec(f"quotient generator {g} outside 0..{base.order - 1}")
        ideal = ideal_closure(base, gens, side="two")
        q, _ = quotient(base, ideal)
        return q
    if kind == "opposite":
        return opposite(_build(spec.args[0], guards))
    if kind == "file":
        return load_ring_file(spec.args[0], guards)
    raise BadSpec(f"unknown constructor {kind!r}")


def canonical_text(ring: FiniteRing, include_names: bool = True) -> str:
    """Serialize in the fixed field order: order, one, zero, add, mul, names."""
    # each element is formatted once with the " " that follows it inside a
    # row and once with the "\n" that ends a row; a table's text is then one
    # gather on these object arrays and one join
    spaced = np.array([f"{x} " for x in ring.elements], dtype=object)
    ended = np.array([f"{x}\n" for x in ring.elements], dtype=object)

    def table(T: np.ndarray) -> str:
        cells = spaced[T]
        cells[:, -1] = ended[T[:, -1]]
        return "".join(cells.ravel().tolist())

    text = f"order {ring.order}\none {ring.one}\nzero {ring.zero}\n"
    text += f"add\n{table(ring.np_add)}mul\n{table(ring.np_mul)}"
    if include_names and ring.names is not None:
        text += "names\n" + " ".join(ring.names) + "\n"
    return text


def canonical_hash(ring: FiniteRing) -> str:
    """Content hash over the canonical form, names excluded.

    Table-level only: isomorphic rings with different tables hash apart.
    """
    text = canonical_text(ring, include_names=False)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def save_ring_file(ring: FiniteRing, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(canonical_text(ring))


def _parse_int(tok: str, lineno: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(lineno, f"{what}: {tok!r} is not an integer")


def _numpy_table(rows: list[str], order: int) -> np.ndarray | None:
    """The rows as an order-by-order int64 table when numpy reads every
    row as exactly ``order`` integers, else None.

    A row with a sign is left to the exact parser: numpy reads ``- 3`` as
    one integer, where ``int`` refuses the token ``-``.  Without signs,
    numpy's whitespace is a subset of ``str.split``'s and every token it
    accepts is a run of digits, so a row numpy reads in full has the same
    tokens and values as under ``int``.  An entry too large for int64
    saturates, and the closure check refuses it where the exact parser's
    -1 is refused.  numpy 2 raises on a row it cannot read to its end,
    numpy 1 warns and returns a partial row, so a warning is a miss too."""
    out = np.empty((order, order), dtype=np.int64)
    # warnings are recorded, not raised: the filter is process-wide, and a
    # warning from another thread must not become an error there
    with warnings.catch_warnings(record=True) as warned:
        warnings.simplefilter("always")
        for i, row in enumerate(rows):
            if "-" in row or "+" in row:
                return None
            try:
                values = np.fromstring(row, dtype=np.int64, sep=" ")
            except ValueError:
                return None
            if warned or values.shape != (order,):
                return None
            out[i] = values
    return out


def load_ring_file(path: str, guards: Guards = DEFAULT_GUARDS) -> FiniteRing:
    """Read a ring file; structural problems raise ParseError with the
    offending line, mathematical ones surface as AxiomViolation, and an
    order above the guard raises SizeGuardExceeded before any table is read.

    Each table is read by numpy row by row (``_numpy_table``).  On any
    miss (a short or long row, a sign, a token numpy cannot read, a file
    that ends early) the whole table is read again by the exact parser,
    which splits each row on whitespace and reads each token with
    ``int``.  The two paths give the same tables for every file numpy
    reads, and every ParseError about a table comes from the exact
    parser, so a file loads to the same ring, or fails with the same
    message, on either.  Light's test runs on the tables either way."""
    try:
        with open(path, encoding="ascii") as fh:
            raw = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(0, f"cannot read {path}: {e}")
    # text mode reads \r\n and \r as \n, so lines end there only;
    # str.splitlines would also end them at \x0b, \x0c and \x1c-\x1e,
    # which split() reads as spaces within a row
    lines = raw.split("\n")
    if lines[-1] == "":  # as splitlines: a final line end opens no line
        lines.pop()
    pos = 0

    def next_line(what: str) -> tuple[int, str]:
        nonlocal pos
        while pos < len(lines) and not lines[pos].strip():
            pos += 1
        if pos >= len(lines):
            raise ParseError(len(lines), f"file ended while looking for {what}")
        pos += 1
        return pos, lines[pos - 1].strip()

    def keyword_value(key: str) -> int:
        lineno, line = next_line(key)
        parts = line.split()
        if len(parts) != 2 or parts[0] != key:
            raise ParseError(lineno, f"expected '{key} <integer>', got {line!r}")
        return _parse_int(parts[1], lineno, key)

    def identity_index(key: str) -> int:
        idx = keyword_value(key)
        if not 0 <= idx < order:
            raise ParseError(pos, f"identity index {idx} outside 0..{order - 1}")
        return idx

    order = keyword_value("order")
    if order < 2:
        raise ParseError(pos, "order must be at least 2")
    if order > guards.order:
        raise SizeGuardExceeded(f"ring file {path}", order, guards.order)
    one = identity_index("one")
    zero = identity_index("zero")

    def table(key: str) -> np.ndarray | list[list[int]]:
        nonlocal pos
        lineno, line = next_line(key)
        if line != key:
            raise ParseError(lineno, f"expected {key!r} header, got {line!r}")
        start = pos
        try:
            fast = _numpy_table([next_line(f"{key} row")[1] for _ in range(order)], order)
        except ParseError:
            fast = None
        if fast is not None:
            return fast
        pos = start
        rows = []
        for _ in range(order):
            lineno, line = next_line(f"{key} row")
            toks = line.split()
            if len(toks) != order:
                raise ParseError(lineno, f"{key} row has {len(toks)} entries, expected {order}")
            try:
                rows.append(list(map(int, toks)))
            except ValueError:  # name the line and its first bad token
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
        seen: set[str] = set()
        for name in toks:
            if name in seen:
                raise ParseError(lineno, f"names row repeats the name {name!r}")
            seen.add(name)
        names = toks
        while pos < len(lines):
            if lines[pos].strip():
                raise ParseError(pos + 1, f"unexpected trailing content {lines[pos].strip()!r}")
            pos += 1

    return FiniteRing(order, add, mul, zero, one, names)


@dataclass(frozen=True)
class BatchManifest:
    specs: tuple[str, ...]
    analyses: tuple[str, ...]
    jobs: int | None
    out: str | None


def parse_manifest(text: str) -> BatchManifest:
    """Manifest grammar: 'ring <spec>', 'analysis <name>', 'jobs <n>',
    'out <dir>' directives, one per line; '#' starts a comment."""
    specs: list[str] = []
    analyses: list[str] = []
    jobs: int | None = None
    out: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        directive = parts[0]
        rest = parts[1].strip() if len(parts) > 1 else ""
        if directive == "ring":
            if not rest:
                raise ParseError(lineno, "ring directive needs a spec")
            try:
                parse_spec(rest)
            except BadSpec as e:
                raise ParseError(lineno, f"bad spec: {e}")
            specs.append(rest)
        elif directive == "analysis":
            if rest not in ("profile", "ore-report", "axioms"):
                raise ParseError(lineno, f"unknown analysis {rest!r}")
            analyses.append(rest)
        elif directive == "jobs":
            jobs = _parse_int(rest, lineno, "jobs")
            if jobs < 1:
                raise ParseError(lineno, "jobs must be positive")
        elif directive == "out":
            if not rest:
                raise ParseError(lineno, "out directive needs a directory")
            out = rest
        else:
            raise ParseError(lineno, f"unknown directive {directive!r}")
    if not analyses:
        analyses = ["profile"]
    return BatchManifest(tuple(specs), tuple(analyses), jobs, out)


# Curated coverage set: localizable and non-localizable rings, fields,
# a simple ring, non-semiprime triangular rings, and products mixing
# localization-maximal and non-maximal factors, all of order <= 48.
DEFAULT_CATALOG: tuple[str, ...] = (
    "zmod(2)",
    "zmod(3)",
    "zmod(4)",
    "zmod(5)",
    "zmod(6)",
    "zmod(7)",
    "zmod(8)",
    "zmod(9)",
    "zmod(10)",
    "zmod(11)",
    "zmod(12)",
    "gf(2)",
    "gf(3)",
    "gf(4)",
    "gf(5)",
    "gf(7)",
    "gf(8)",
    "gf(9)",
    "upper_triangular(gf(2),2)",
    "upper_triangular(gf(3),2)",
    "matrix(gf(2),2)",
    "product(gf(2),gf(3))",
    "product(gf(2),gf(2))",
    "product(gf(2),gf(2),gf(2))",
    "product(zmod(4),gf(3))",
    "product(gf(2),gf(3),gf(5))",
    "product(gf(2),matrix(gf(2),2))",
    "product(gf(2),upper_triangular(gf(2),2))",
    "product(gf(3),upper_triangular(gf(2),2))",
    "product(zmod(4),zmod(9))",
    "product(zmod(6),gf(7))",
)
