"""Exact arithmetic layer: divisors, totients, orders of unit subgroups, and
the divisor-sum functions g, f, psi, psi* that control how many disjoint
parallel classes the triple-system constructions can have.

Everything is exact integer arithmetic.

Two routes compute the order of the subgroup of units generated by -1 and -2:

* :func:`subgroup_order` builds the subgroup as an explicit set by
  breadth-first closure under multiplication.  It is the oracle.
* :func:`_unit_profile` computes the multiplicative order of -2 from the
  factorised totient and then adjoins -1.  It must (and, per the test suite,
  does) agree with the closure oracle.  :func:`g_of`, :func:`number_profile`
  and :func:`scan_profiles` all take phi, the order and g from it.

:func:`number_profile` sums g over the divisors of one n.
:func:`scan_profiles` sweeps instead: it visits each modulus d coprime to 6
once, in ascending order, and adds g(d) and phi(d) - 18 g(d) to every
multiple d*k with k = 1 or 5 mod 6.  By the time the sweep reaches n, every
divisor of n has contributed, so the row for n is complete; Gauss's identity
(the totients of the divisors of n sum to n) checks the sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple

__all__ = [
    "NumberProfile",
    "ScanRow",
    "divisors_gt1",
    "euler_phi",
    "f_of",
    "g_of",
    "negative_psi_scan",
    "number_profile",
    "psi_of",
    "psi_star_of",
    "scan_exceptions",
    "scan_profiles",
    "subgroup_order",
]


# ---------------------------------------------------------------------------
# factorisation basics


def smallest_prime_factor_sieve(limit: int) -> list[int]:
    """spf[k] = smallest prime factor of k for 2 <= k <= limit (spf[k]=k for primes)."""
    spf = list(range(limit + 1))
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == p:
            for q in range(p * p, limit + 1, p):
                if spf[q] == q:
                    spf[q] = p
    return spf


def factorise(n: int, spf: list[int] | None = None) -> dict[int, int]:
    """Prime factorisation of n >= 1 as {prime: exponent}, by sieve lookup or
    trial division."""
    if n < 1:
        raise ValueError(f"cannot factorise {n}: must be a positive integer")
    out: dict[int, int] = {}
    if spf is not None and n < len(spf):
        while n > 1:
            p = spf[n]
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
        return out
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out[d] = e
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def euler_phi(n: int, spf: list[int] | None = None) -> int:
    phi = 1
    for p, e in factorise(n, spf).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi


def divisors_gt1(n: int) -> list[int]:
    """All divisors of n greater than 1, sorted ascending."""
    divs = [1]
    for p, e in factorise(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    divs.sort()
    return divs[1:]


# ---------------------------------------------------------------------------
# subgroup orders


def subgroup_order(d: int, generators: Iterable[int]) -> int:
    """Order of the subgroup of units mod d generated by ``generators``,
    computed by breadth-first closure under multiplication.

    Rejects even d and generators sharing a factor with d.
    """
    if d < 3 or d % 2 == 0:
        raise ValueError(f"modulus {d} must be an odd integer >= 3")
    gens = sorted({g % d for g in generators})
    for g in gens:
        if math.gcd(g, d) != 1:
            raise ValueError(f"generator {g} is not a unit mod {d}")
    seen = {1}
    frontier = [1]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = x * g % d
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(seen)


def _multiplicative_order(a: int, d: int, exponent: int, exponent_factors: dict[int, int]) -> int:
    # ``exponent`` must be a multiple of the order (phi(d) always is).
    e = exponent
    for p in exponent_factors:
        while e % p == 0 and pow(a, e // p, d) == 1:
            e //= p
    return e


def _neg_double_order(d: int, phi: int, spf: list[int] | None = None) -> int:
    """|<-1,-2>| mod d via the order of -2.

    The subgroup generated by -2 is cyclic of order m; it contains -1 exactly
    when m is even and (-2)^(m/2) = -1, in which case adjoining -1 adds
    nothing.  Otherwise the subgroup doubles.
    """
    m = _multiplicative_order(d - 2, d, phi, factorise(phi, spf))
    if m % 2 == 0 and pow(d - 2, m // 2, d) == d - 1:
        return m
    return 2 * m


# ---------------------------------------------------------------------------
# g, f, psi, psi*


def _unit_profile(d: int, spf: list[int] | None = None) -> tuple[int, int, int]:
    """(phi(d), |<-1,-2>_d|, g(d)) for d coprime to 6.

    The order is even (it contains -1) and divides phi(d) (Lagrange); a
    failure of either is an arithmetic bug and raises RuntimeError.
    """
    phi = euler_phi(d, spf)
    order = _neg_double_order(d, phi, spf)
    if order % 2 or phi % order:
        raise RuntimeError(f"subgroup order {order} mod {d} violates parity/Lagrange")
    return phi, order, 0 if order % 4 == 0 else phi // order


def _check_coprime_to_six(n: int, what: str) -> None:
    if n <= 1 or n % 2 == 0 or n % 3 == 0:
        raise ValueError(f"{what} must be > 1 and congruent to 1 or 5 mod 6, got {n}")


def g_of(d: int) -> int:
    """0 when |<-1,-2>_d| is divisible by 4, else phi(d)/|<-1,-2>_d|."""
    _check_coprime_to_six(d, "d")
    return _unit_profile(d)[2]


@dataclass(frozen=True)
class NumberProfile:
    """Per-n record of the arithmetic quantities feeding the bound machinery."""

    n: int
    divisors_gt1: tuple[int, ...]
    phi: int
    sub_order: int
    g: int
    f: int
    psi: int
    psi_star: int


def _check_psi_star(n: int, f: int, psi_star: int) -> None:
    if psi_star != n - 1 - 18 * f:
        raise RuntimeError(f"psi*({n}) != {n}-1-18*f({n}); divisor sum is inconsistent")


@lru_cache(maxsize=8192)
def number_profile(n: int) -> NumberProfile:
    """Full :class:`NumberProfile` for n > 1 with n = 1 or 5 mod 6."""
    _check_coprime_to_six(n, "n")
    divs = divisors_gt1(n)
    f = 0
    psi_star = 0
    for d in divs:  # ascending, so the loop ends on d = n
        phi, order, g = _unit_profile(d)
        f += g
        psi_star += phi - 18 * g
    _check_psi_star(n, f, psi_star)
    return NumberProfile(
        n=n,
        divisors_gt1=tuple(divs),
        phi=phi,
        sub_order=order,
        g=g,
        f=f,
        psi=phi - 18 * g,
        psi_star=psi_star,
    )


def f_of(n: int) -> int:
    return number_profile(n).f


def psi_of(n: int) -> int:
    return number_profile(n).psi


def psi_star_of(n: int) -> int:
    return number_profile(n).psi_star


# ---------------------------------------------------------------------------
# range scans


class ScanRow(NamedTuple):
    n: int
    phi: int
    f: int
    psi: int
    psi_star: int


def scan_profiles(limit: int) -> list[ScanRow]:
    """Rows (n, phi, f, psi, psi*) for every n = 1 or 5 mod 6 with 1 < n <= limit,
    by one in-process sweep over the multiples of each modulus."""
    if limit < 3:
        raise ValueError(f"limit must be >= 3, got {limit}")
    spf = smallest_prime_factor_sieve(limit)
    # f and psi* summed over the proper divisors > 1 seen so far.
    f = [0] * (limit + 1)
    psi_star = [0] * (limit + 1)
    rows: list[ScanRow] = []
    for n in range(5, limit + 1, 2):
        if n % 3 == 0:
            continue
        phi, _, g = _unit_profile(n, spf)
        psi = phi - 18 * g
        f_n = f[n] + g
        psi_star_n = psi_star[n] + psi
        _check_psi_star(n, f_n, psi_star_n)
        rows.append(ScanRow(n, phi, f_n, psi, psi_star_n))
        for start in (5 * n, 7 * n):
            for m in range(start, limit + 1, 6 * n):
                f[m] += g
                psi_star[m] += psi
    return rows


def scan_exceptions(limit: int) -> list[int]:
    """All n = 1 or 5 mod 6 with 1 < n <= limit and psi*(n) <= 0, ascending."""
    return [row.n for row in scan_profiles(limit) if row.psi_star <= 0]


def negative_psi_scan(limit: int) -> list[tuple[int, int]]:
    """All (n, psi(n)) with psi(n) < 0 in the scan range, ascending by n."""
    return [(row.n, row.psi) for row in scan_profiles(limit) if row.psi < 0]

