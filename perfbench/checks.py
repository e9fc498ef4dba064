"""Independent answer checks for the workloads.

These re-derive each answer without the code path that produced it: totients
by trial division, subgroup orders by the closure oracle
``stskit.numtheory.subgroup_order``, and partition / colouring validity from
the raw triples.  Each check returns None when the answer is right and a
one-line reason when it is not.
"""

from __future__ import annotations

import math
from functools import lru_cache

from stskit.numtheory import subgroup_order


def _prime_factors(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def phi(n: int) -> int:
    result = n
    for p in _prime_factors(n):
        result -= result // p
    return result


def divisors_gt1(n: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted((set(small) | {n // d for d in small}) - {1})


@lru_cache(maxsize=None)
def g(d: int) -> int:
    order = subgroup_order(d, [-1, -2])
    return 0 if order % 4 == 0 else phi(d) // order


def f(n: int) -> int:
    return sum(g(d) for d in divisors_gt1(n))


def scan_row(n: int) -> tuple[int, int, int, int, int]:
    """(n, phi, f, psi, psi*) re-derived through the closure oracle."""
    divs = divisors_gt1(n)
    return (n, phi(n), sum(g(d) for d in divs), phi(n) - 18 * g(n),
            sum(phi(d) - 18 * g(d) for d in divs))


def partition_error(v: int, triples, indices) -> str | None:
    """None when the triples at ``indices`` cover each of the v points once."""
    seen: set[int] = set()
    for i in indices:
        if not 0 <= i < len(triples):
            return f"triple index {i} out of range"
        for p in triples[i]:
            if p in seen:
                return f"point {p} covered twice"
            seen.add(p)
    if len(seen) != v:
        return f"{v - len(seen)} points uncovered"
    return None


def colouring_error(triples, classes) -> str | None:
    """None when ``classes`` (lists of triple indices) partition the triples
    and no class holds two triples that share a point."""
    count = [0] * len(triples)
    for c, cls in enumerate(classes):
        points: set[int] = set()
        for i in cls:
            if not 0 <= i < len(triples):
                return f"class {c}: triple index {i} out of range"
            count[i] += 1
            if points & set(triples[i]):
                return f"class {c}: triples share a point"
            points.update(triples[i])
    if any(k != 1 for k in count):
        return "classes do not partition the triples"
    return None


def mod3_certificate_error(triples, v: int, witness: dict, bound: int) -> str | None:
    """None when the weighting in ``witness`` proves ``bound`` for the system."""
    weights = witness["weights"]
    if len(weights) != v or sum(weights) % 3:
        return "weighting has the wrong length or a nonzero total"
    sums = [(weights[a] + weights[b] + weights[c]) % 3 for a, b, c in triples]
    nonzero = {s for s in sums if s}
    if len(nonzero) != 1:
        return f"triple weight-sums {sorted(set(sums))} are not 0 plus one value"
    a_min = (v // 3) % 3
    if not a_min or bound != sums.count(0) // a_min:
        return f"bound {bound} does not follow from the weighting"
    return None
