"""Exception types and size guards shared across the package.

Every guarded routine raises ``SizeGuardExceeded`` instead of silently
truncating its search space; callers that want partial answers must say so
by inspecting the error.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace


class OreLabError(Exception):
    """Base class for every error raised by this package."""


class AxiomViolation(OreLabError):
    """A ring table fails one of the unital-ring laws.

    ``law`` names the first failing law, ``witness`` the elements at which
    it fails (a tuple of carrier indices, shortest possible).  A witness
    (x, y, z) of a law in three variables reads (x+y)+z, x*(y+z), (x+y)*z
    or (x*y)*z; its y is the additive generator at which the law was
    checked.
    """

    def __init__(self, law: str, witness: tuple, message: str | None = None):
        self.law = law
        self.witness = tuple(witness)
        super().__init__(message or f"ring axiom {law!r} fails at {self.witness}")


class NotAnIdeal(OreLabError):
    """The given subset is not an ideal of the required sidedness."""


class ImproperIdeal(OreLabError):
    """The whole ring was passed where a proper ideal is required."""


class SizeGuardExceeded(OreLabError):
    """An enumeration would exceed its configured size guard.

    ``actual`` is the size, or a form such as ``"4^9801"`` where the number
    is too large to compute.  The message writes an int past 18 digits by
    its digit count, as Python refuses to format one past 4300 digits.
    """

    def __init__(self, what: str, actual: int | str, limit: int):
        self.what = what
        self.actual = actual
        self.limit = limit
        super().__init__(f"{what}: size {_size_text(actual)} exceeds guard {limit}")


def _size_text(size: int | str) -> str:
    if isinstance(size, str) or size < 10**18:
        return str(size)
    d = int(math.log10(size))  # floor(log10(size)), up to float rounding
    d += (10 ** (d + 1) <= size) - (10**d > size)
    return f"of {d + 1} digits"


class ZeroAbsorbed(OreLabError):
    """A multiplicative closure reached zero; ``chain`` shows how.

    The chain is a tuple of (x, y, x*y) steps ending in zero, each factor
    being either a generator or the product of an earlier step.
    """

    def __init__(self, chain):
        self.chain = tuple(chain)
        steps = "; ".join(f"{x}*{y}={p}" for x, y, p in self.chain)
        super().__init__(f"multiplicative closure absorbs zero: {steps}")


class NotOre(OreLabError):
    """The set fails the left Ore condition at ``witness`` = (r, s)."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"not a left Ore set; no common multiple for (r, s) = {witness}")


class NotDenominator(OreLabError):
    """The set is not a left denominator set; ``witness`` explains why."""

    def __init__(self, witness, reason: str = ""):
        self.witness = witness
        extra = f" ({reason})" if reason else ""
        super().__init__(f"not a left denominator set; witness {witness}{extra}")


class InternalInconsistency(OreLabError):
    """Two routes that theory forces to agree disagreed. Always a bug."""


class ParseError(OreLabError):
    """A ring file or manifest line could not be parsed."""

    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class BadSpec(OreLabError):
    """A ring spec string is malformed or names an unsupported construction."""


@dataclass(frozen=True)
class Guards:
    """Limits for the potentially explosive routines.

    order:       ideal enumeration, uniform dimension and constructor
                 output sizes
    left_ideals: the public ``left_ideals`` enumeration only; no
                 analysis walks the left-ideal lattice
    brute_force: exhaustive denominator-set search over all subsets
    """

    order: int = 256
    left_ideals: int = 64
    brute_force: int = 8

    def with_overrides(self, order=None, brute_force=None) -> "Guards":
        g = self
        if order is not None:
            g = replace(g, order=order)
        if brute_force is not None:
            g = replace(g, brute_force=brute_force)
        return g


DEFAULT_GUARDS = Guards()

GUARD_ORDER_ENV = "ORELAB_GUARD_ORDER"
GUARD_BRUTEFORCE_ENV = "ORELAB_GUARD_BRUTEFORCE"


def guards_from_env(base: Guards = DEFAULT_GUARDS) -> Guards:
    """Apply environment overrides for the two externally tunable guards."""
    order = os.environ.get(GUARD_ORDER_ENV)
    brute = os.environ.get(GUARD_BRUTEFORCE_ENV)
    return base.with_overrides(
        order=int(order) if order is not None else None,
        brute_force=int(brute) if brute is not None else None,
    )
