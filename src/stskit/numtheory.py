"""Exact arithmetic layer: divisors, totients, orders of unit subgroups, and
the divisor-sum functions g, f, psi, psi* that control how many disjoint
parallel classes the triple-system constructions can have.

Everything is exact integer arithmetic.

Three routes compute the order of the subgroup of units generated by -1
and -2:

* :func:`subgroup_order` builds the subgroup as an explicit set by
  breadth-first closure under multiplication.  It is the oracle.
* :func:`_unit_profile` computes the multiplicative order of -2 mod one d
  from the factorised totient and then adjoins -1.  :func:`number_profile`
  takes phi, the order and g from it for each divisor of one n, and sums g
  over them.
* :func:`scan_rows` sieves a whole range.  It computes the order of -2
  only modulo prime powers q; for any other n = q*r (q the prime-power part
  of n at its smallest prime) the order is lcm(ord_q, ord_r), and -1 lies in
  <-2>_n exactly when every prime-power order is even with one shared
  2-adic valuation.  So a composite n costs no ``pow``.  The sweep visits
  each modulus d coprime to 6 once, in ascending order, and adds g(d) and
  phi(d) - 18 g(d) to every multiple d*k with k = 1 or 5 mod 6.  By the time
  it reaches n, every divisor of n has contributed, so the row for n is
  complete; Gauss's identity (the totients of the divisors of n sum to n)
  checks the sums.  :data:`SCAN_KINDS` picks the rows each kind of scan
  keeps, so a scan of one kind is ``filter(SCAN_KINDS[kind], scan_rows(limit))``.
  :func:`scan_profiles` lists the same rows for the benchmark harness alone.

The test suite checks the three routes against each other.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

__all__ = [
    "NumberProfile",
    "SCAN_KINDS",
    "SCAN_LIMIT_MAX",
    "ScanRow",
    "divisors_gt1",
    "euler_phi",
    "f_of",
    "number_profile",
    "scan_profiles",
    "scan_rows",
    "subgroup_order",
]


# ---------------------------------------------------------------------------
# factorisation basics


def smallest_prime_factor_sieve(limit: int) -> array:
    """spf[k] = smallest prime factor of k for 2 <= k <= limit (spf[k]=k for
    primes), as an ``array('i')``."""
    spf = array("i", range(limit + 1))
    root = math.isqrt(limit)
    primes = [p for p in range(2, root + 1)
              if all(p % d for d in range(2, math.isqrt(p) + 1))]
    # Largest prime first, so that the smallest prime dividing k writes last.
    for p in reversed(primes):
        spf[p * p::p] = array("i", [p]) * len(range(p * p, limit + 1, p))
    return spf


def factorise(n: int, spf: Sequence[int] | None = None) -> dict[int, int]:
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


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorise(n).items():
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


def _neg_double_order(d: int, phi: int) -> int:
    """|<-1,-2>| mod d via the order of -2.

    The subgroup generated by -2 is cyclic of order m; it contains -1 exactly
    when m is even and (-2)^(m/2) = -1, in which case adjoining -1 adds
    nothing.  Otherwise the subgroup doubles.
    """
    m = _multiplicative_order(d - 2, d, phi, factorise(phi))
    if m % 2 == 0 and pow(d - 2, m // 2, d) == d - 1:
        return m
    return 2 * m


# ---------------------------------------------------------------------------
# g, f, psi, psi*


def _g_from_order(d: int, phi: int, order: int) -> int:
    """g(d) from phi(d) and |<-1,-2>_d|.

    The order is even (it contains -1) and divides phi(d) (Lagrange); a
    failure of either is an arithmetic bug and raises RuntimeError.
    """
    if order % 2 or phi % order:
        raise RuntimeError(f"subgroup order {order} mod {d} violates parity/Lagrange")
    return 0 if order % 4 == 0 else phi // order


def _unit_profile(d: int) -> tuple[int, int, int]:
    """(phi(d), |<-1,-2>_d|, g(d)) for d coprime to 6."""
    phi = euler_phi(d)
    order = _neg_double_order(d, phi)
    return phi, order, _g_from_order(d, phi, order)


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
    if n <= 1 or n % 2 == 0 or n % 3 == 0:
        raise ValueError(f"n must be > 1 and congruent to 1 or 5 mod 6, got {n}")
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


# ---------------------------------------------------------------------------
# range scans


# The largest limit scan_rows accepts.
SCAN_LIMIT_MAX = 10**7


class ScanRow(NamedTuple):
    n: int
    phi: int
    f: int
    psi: int
    psi_star: int


def scan_profiles(limit: int) -> list[ScanRow]:
    """``list(scan_rows(limit))``.  The product reads :func:`scan_rows`; this
    list stays only because the benchmark harness (``perfbench/``) calls and
    traces it.  The list is most of its memory, about 100 bytes per unit of
    ``limit``: max RSS 116 MB at 10^6 and 316 MB at 3*10^6, so about 1 GB at
    the cap."""
    return list(scan_rows(limit))


def scan_rows(limit: int) -> Iterator[ScanRow]:
    """Rows (n, phi, f, psi, psi*) for every n = 1 or 5 mod 6 with 1 < n <= limit,
    ascending by n, one at a time.

    A multiplicative sieve (see the module docstring): ord_q(-2) is computed
    only for the prime powers q <= limit; every other n is q*r with r coprime
    to q, and its phi and order come from the two parts.  Each row is checked
    for parity/Lagrange and against Gauss's identity.

    A ``limit`` below 3 or above :data:`SCAN_LIMIT_MAX` raises ValueError at
    the call, before anything is allocated.
    """
    if limit < 3:
        raise ValueError(f"limit must be >= 3, got {limit}")
    if limit > SCAN_LIMIT_MAX:
        raise ValueError(f"limit must be <= {SCAN_LIMIT_MAX}, got {limit}")
    return _sieve_rows(limit)


def _sieve_rows(limit: int) -> Iterator[ScanRow]:
    spf = smallest_prime_factor_sieve(limit)
    # Per n coprime to 6: phi(n), ord_n(-2), and the 2-part shared by the
    # orders of -2 modulo the prime powers of n (1 when one of them is odd
    # or two of them differ).
    phis, orders, twos = (array("i", [0]) * (limit + 1) for _ in range(3))
    # f and psi* summed over the proper divisors > 1 seen so far.
    f, psi_star = (array("i", [0]) * (limit + 1) for _ in range(2))
    for n in range(5, limit + 1, 2):
        if n % 3 == 0:
            continue
        p = spf[n]
        q, r = p, n // p
        while r % p == 0:
            q *= p
            r //= p
        if r == 1:
            phi = n - n // p
            order = _multiplicative_order(n - 2, n, phi, factorise(phi, spf))
            two = order & -order
        else:
            phi = phis[q] * phis[r]
            a, b = orders[q], orders[r]
            order = a // math.gcd(a, b) * b
            two = twos[q] if twos[q] == twos[r] else 1
        phis[n], orders[n], twos[n] = phi, order, two
        # -1 lies in <-2>_n exactly when every prime-power order has the same
        # even 2-part; otherwise adjoining -1 doubles the subgroup.
        g = _g_from_order(n, phi, order if two > 1 else 2 * order)
        psi = phi - 18 * g
        f_n = f[n] + g
        psi_star_n = psi_star[n] + psi
        _check_psi_star(n, f_n, psi_star_n)
        yield ScanRow(n, phi, f_n, psi, psi_star_n)
        for start in (5 * n, 7 * n):
            for m in range(start, limit + 1, 6 * n):
                psi_star[m] += psi
            if g:
                for m in range(start, limit + 1, 6 * n):
                    f[m] += g


# The rows each kind of scan keeps; `stskit numtheory scan` reads them here.
SCAN_KINDS: dict[str, Callable[[ScanRow], bool]] = {
    "all": lambda r: True,
    "negative-psi": lambda r: r.psi < 0,
    "exceptions": lambda r: r.psi_star <= 0,
}
