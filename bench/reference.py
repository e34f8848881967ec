"""Reference values the benchmark computes apart from orelab.

Nothing here imports orelab: the checks compare the program's answers
with number theory and with scans of the operation tables, never with
stored output.
"""

from __future__ import annotations

import random
import re


def factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisor_count(n: int) -> int:
    count = 1
    for e in factorize(n).values():
        count *= e + 1
    return count


def euler_phi(n: int) -> int:
    out = n
    for p in factorize(n):
        out = out // p * (p - 1)
    return out


_ATOM = re.compile(r"^(zmod|gf)\((\d+)\)$")


def _split_args(inner: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(inner):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(inner[start:i])
            start = i + 1
    parts.append(inner[start:])
    return parts


def expected_counts(spec: str) -> dict | None:
    """Ideal, unit and maximal-denominator-set counts for rings built from
    zmod, gf and product; None for any other constructor.

    Z/n has d(n) ideals, phi(n) units and one maximal left denominator set
    per prime divisor of n; a field has 2 ideals, q - 1 units and one
    maximal set.  A product multiplies ideal and unit counts and adds the
    maximal sets.
    """
    spec = spec.replace(" ", "")
    m = _ATOM.match(spec)
    if m:
        n = int(m.group(2))
        if m.group(1) == "zmod":
            return {"ideals": divisor_count(n), "units": euler_phi(n), "max_den": len(factorize(n))}
        return {"ideals": 2, "units": n - 1, "max_den": 1}
    if spec.startswith("product(") and spec.endswith(")"):
        parts = [expected_counts(a) for a in _split_args(spec[len("product("):-1])]
        if any(p is None for p in parts):
            return None
        out = {"ideals": 1, "units": 1, "max_den": 0}
        for p in parts:
            out["ideals"] *= p["ideals"]
            out["units"] *= p["units"]
            out["max_den"] += p["max_den"]
        return out
    return None


def nonzero_nilpotents(mul, zero: int) -> set[int]:
    """Nonzero x with x^k = 0 for some k, by walking the powers of x."""
    n = len(mul)
    out = set()
    for x in range(n):
        if x == zero:
            continue
        p = x
        for _ in range(n):
            if p == zero:
                out.add(x)
                break
            p = mul[p][x]
    return out


def left_annihilated(mul, zero: int, dens) -> set[int]:
    """ass(S) = {r : s*r = 0 for some s in S}."""
    return {r for r in range(len(mul)) if any(mul[s][r] == zero for s in dens)}


def is_commutative(mul) -> bool:
    n = len(mul)
    return all(mul[a][b] == mul[b][a] for a in range(n) for b in range(a + 1, n))


def powers_closure(mul, one: int, x: int) -> set[int]:
    out = {one}
    p = x
    while p not in out:
        out.add(p)
        p = mul[p][x]
    return out


def permutation(n: int, key: str) -> list[int]:
    """A random relabelling old -> new of {0..n-1}, fixed by the key."""
    perm = list(range(n))
    random.Random(key).shuffle(perm)
    return perm


def relabelled_tables(add, mul, zero: int, one: int, names, perm: list[int]):
    """Tables of the same ring after renaming element x to perm[x]."""
    n = len(add)
    inv = [0] * n
    for old, new in enumerate(perm):
        inv[new] = old
    new_add = [[perm[add[inv[i]][inv[j]]] for j in range(n)] for i in range(n)]
    new_mul = [[perm[mul[inv[i]][inv[j]]] for j in range(n)] for i in range(n)]
    new_names = [names[inv[i]] for i in range(n)]
    return new_add, new_mul, perm[zero], perm[one], new_names
