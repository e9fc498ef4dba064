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
  2-adic valuation.  So a composite n costs no ``pow``, and a prime power
  p^e saves one: -2 is a square mod p^e exactly when (-2/p) = 1, when
  p = 1 or 3 mod 8, and by Euler's criterion that decides whether the order
  divides phi/2.  The sweep walks the range in segments of consecutive n,
  ascending; each segment takes its smallest prime factors from the primes
  up to sqrt(limit) and holds the divisor sums of its own n only.  Each
  modulus d coprime to 6 adds its weight phi(d) + (g(d) << 32) to every
  multiple d*k with k = 1 or 5 mod 6, so one add feeds both the f sum and
  the totient sum.  A proper divisor d of an n in the segment [lo, hi) is
  at most n/5, so it lies below lo unless lo = 0, and its weight is known
  when the segment starts.  A d up to sqrt(limit) walks its multiples in
  the segment; a larger d arrives through its cofactor k < hi/sqrt(limit),
  and for one k the d of one class mod 6 take one strided slice of the
  weights.  Segment 0 adds the weights of its own n as its rows pass.  So
  nothing waits between segments, and by the time the sweep reaches n every
  divisor of n has contributed; Gauss's identity (the totients of the
  divisors of n sum to n) checks the sums.  phi, the order and the weight
  are kept only up to limit/5, and smallest prime factors (for p - 1, once
  its 2s and 3s are stripped) up to limit/2, all over the n coprime to 6
  alone.  Memory is still linear in the limit, at about 2 bytes per unit,
  hence :data:`SCAN_LIMIT_MAX`.
  :data:`SCAN_KINDS` picks the rows each kind of scan
  keeps, so a scan of one kind is ``filter(SCAN_KINDS[kind], scan_rows(limit))``.
  :func:`scan_profiles` lists the same rows for the benchmark harness alone;
  it is not in ``__all__``.

The test suite checks the three routes against each other.
"""

from __future__ import annotations

import math
from array import array
from functools import lru_cache, partial
from typing import Callable, Iterable, Iterator, NamedTuple

__all__ = [
    "NumberProfile",
    "SCAN_KINDS",
    "SCAN_LIMIT_MAX",
    "ScanRow",
    "divisors_gt1",
    "euler_phi",
    "f_of",
    "number_profile",
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


def factorise(n: int) -> dict[int, int]:
    """Prime factorisation of n >= 1 as {prime: exponent}, by trial division."""
    if n < 1:
        raise ValueError(f"cannot factorise {n}: must be a positive integer")
    out: dict[int, int] = {}
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


def _multiplicative_order(a: int, d: int, exponent: int, exponent_primes: Iterable[int]) -> int:
    # ``exponent`` must be a multiple of the order (phi(d) always is).
    e = exponent
    for p in exponent_primes:
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


class NumberProfile(NamedTuple):
    """Per-n record of the arithmetic quantities feeding the bound machinery."""

    n: int
    phi: int
    sub_order: int
    g: int
    f: int
    psi: int
    psi_star: int
    divisors_gt1: tuple[int, ...]


def _check_psi_star(n: int, f: int, psi_star: int) -> None:
    if psi_star != n - 1 - 18 * f:
        raise RuntimeError(f"psi*({n}) != {n}-1-18*f({n}); divisor sum is inconsistent")


# The largest n number_profile takes, and the largest limit scan_rows takes.
# number_profile trial-divides up to sqrt(n): its slowest n below the cap,
# the prime 999,999,999,989, takes about 0.2 s, and 10^14+31 about 1.6-1.9 s.
PROFILE_N_MAX = 10**12
SCAN_LIMIT_MAX = 10**7


@lru_cache(maxsize=8192)
def number_profile(n: int) -> NumberProfile:
    """Full :class:`NumberProfile` for 1 < n <= PROFILE_N_MAX, n = 1 or 5 mod 6."""
    if n <= 1 or n % 2 == 0 or n % 3 == 0:
        raise ValueError(f"n must be > 1 and congruent to 1 or 5 mod 6, got {n}")
    if n > PROFILE_N_MAX:
        raise ValueError(f"n must be <= {PROFILE_N_MAX}, got {n}")
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
        phi=phi,
        sub_order=order,
        g=g,
        f=f,
        psi=phi - 18 * g,
        psi_star=psi_star,
        divisors_gt1=tuple(divs),
    )


def f_of(n: int) -> int:
    return number_profile(n).f


# ---------------------------------------------------------------------------
# range scans


class ScanRow(NamedTuple):
    n: int
    phi: int
    f: int
    psi: int
    psi_star: int


def scan_profiles(limit: int) -> list[ScanRow]:
    """``list(scan_rows(limit))``.  The product reads :func:`scan_rows`; this
    list stays only because the benchmark harness (``perfbench/``) calls and
    traces it.  The list is nearly all of its memory, about 70 bytes per unit
    of ``limit``: max RSS 81 MB at 10^6 and 212 MB at 3*10^6, so about 700 MB
    at the cap."""
    return list(scan_rows(limit))


def scan_rows(limit: int) -> Iterator[ScanRow]:
    """Rows (n, phi, f, psi, psi*) for every n = 1 or 5 mod 6 with 1 < n <= limit,
    ascending by n, one at a time.

    A segmented multiplicative sieve (see the module docstring): ord_q(-2)
    is computed only for the prime powers q <= limit; every other n is q*r
    with r coprime to q, and its phi and order come from the two parts.  Each
    row is checked for parity/Lagrange and against Gauss's identity.  The
    sieve holds about 2 bytes per unit of ``limit`` besides the rows the
    caller keeps: streamed to 10^7 it peaks at 34 MB max RSS, in about 10 s
    on a 2-vCPU host.

    A ``limit`` below 3 or above :data:`SCAN_LIMIT_MAX` raises ValueError at
    the call, before anything is allocated.
    """
    if limit < 3:
        raise ValueError(f"limit must be >= 3, got {limit}")
    if limit > SCAN_LIMIT_MAX:
        raise ValueError(f"limit must be <= {SCAN_LIMIT_MAX}, got {limit}")
    return _sieve_rows(limit)


# The sieve's segment length: rows are computed, and their divisor sums kept,
# for this many consecutive n at a time.
_SEGMENT = 2**15


def _sieve_rows(limit: int) -> Iterator[ScanRow]:
    root = math.isqrt(limit)
    small_spf = smallest_prime_factor_sieve(root)
    base = [p for p in range(5, root + 1) if small_spf[p] == p]  # the primes 5..sqrt(limit)
    # The numbers 5..sqrt(limit) coprime to 6: the divisors that walk their
    # multiples, and the cofactors through which the larger divisors arrive.
    units = [d for d in range(5, root + 1, 2) if d % 3]
    segment = _SEGMENT
    fifth, half = limit // 5, limit // 2
    # A proper divisor of n (coprime to 6) is at most n/5, so phi, the order
    # of -2 and the 2-part shared by the orders of -2 modulo the prime powers
    # (1 when one of them is odd or two of them differ) are kept only for
    # n <= limit/5, each at n // 3, a bijection of the n coprime to 6.  So is
    # the weight w(n) = phi(n) + (g(n) << 32) that n adds to its multiples.
    phis, orders, twos = (array("i", [0]) * (fifth // 3 + 1) for _ in range(3))
    ws = array("q", [0]) * (fifth // 3 + 1)
    # The smallest prime factor of each n <= limit/2 coprime to 6, filled as
    # the rows pass; it factorises phi(q) for the prime powers q.
    spf6 = array("i", [0]) * (half // 3 + 1)
    new_row = partial(tuple.__new__, ScanRow)  # ScanRow(*fields) without its Python-level __new__

    for lo in range(0, limit + 1, segment):
        hi = min(lo + segment, limit + 1)
        # Smallest prime factor of each odd composite n in [lo, hi); 0 for a
        # prime.  Largest prime first, so that the smallest one writes last.
        spf = array("i", [0]) * (hi - lo)
        for p in reversed(base):
            if p * p < hi:
                start = max(p * p, -(-lo // p) * p)
                if start % 2 == 0:
                    start += p
                spf[start - lo::2 * p] = array("i", [p]) * len(range(start, hi, 2 * p))
        # The weights of the proper divisors > 1 of each n, summed: the low
        # 32 bits hold their totients (they sum to less than n) and the rest
        # their g.  Each such divisor d of n = d*k has k >= 5, so d < lo
        # unless lo = 0, and its weight is known before the segment starts.
        s = array("q", [0]) * (hi - lo)
        if lo:
            # A divisor d <= sqrt(limit) walks its multiples d*k, k >= lo/d,
            # one progression of step 6d for each of k = 1 and k = 5 mod 6.
            for d in units:
                if 5 * d >= hi:
                    break
                w, k0 = ws[d // 3], -(-lo // d)
                for k in (k0 + (1 - k0) % 6, k0 + (5 - k0) % 6):
                    for j in range(d * k - lo, hi - lo, 6 * d):
                        s[j] += w
            # A divisor d > sqrt(limit) arrives through its cofactor
            # k < hi/sqrt(limit): for one k, the d of one class mod 6 in
            # [lo/k, hi/k) take every second weight from d0 on.
            for k in units:
                if k * (root + 1) >= hi:
                    break
                d0, top = max(root + 1, -(-lo // k)), (hi - 1) // k // 3 + 1
                for d in (d0 + (1 - d0) % 6, d0 + (5 - d0) % 6):
                    for j, w in zip(range(d * k - lo, hi - lo, 6 * k), ws[d // 3:top:2]):
                        s[j] += w
        # The n coprime to 6 in [lo, hi) are the n = 3i + 1 + (i & 1) for i
        # from the count of such n below max(5, lo) (n = 1 counted) to the
        # count below hi; below x there are x // 3 + (x % 6 == 2) of them.
        first = max(5, lo)
        for i in range(first // 3 + (first % 6 == 2), hi // 3 + (hi % 6 == 2)):
            n = 3 * i + 1 + (i & 1)
            j = n - lo
            p = spf[j] or n
            if n <= half:
                spf6[i] = p
            q, r = p, n // p
            while r % p == 0:
                q *= p
                r //= p
            if r == 1:
                # Strip each prime l of phi = p^(e-1) (p - 1) from the order
                # of -2 while (-2)^(order/l) stays 1.  The units mod p^e are
                # cyclic, so by Euler's criterion (-2)^(phi/2) = 1 exactly
                # when -2 is a square mod p, when p = 1 or 3 mod 8.
                a, phi = n - 2, n - n // p
                order = phi
                if p % 8 < 4:
                    order //= 2
                    while order % 2 == 0 and pow(a, order // 2, n) == 1:
                        order //= 2
                x = (p - 1) // ((p - 1) & (1 - p))  # p - 1 without its 2s
                while x > 1:
                    l = 3 if x % 3 == 0 else spf6[x // 3]
                    while x % l == 0:
                        x //= l
                    while order % l == 0 and pow(a, order // l, n) == 1:
                        order //= l
                if n != p:
                    while order % p == 0 and pow(a, order // p, n) == 1:
                        order //= p
                two = order & -order
            else:
                iq, ir = q // 3, r // 3
                phi = phis[iq] * phis[ir]
                order = math.lcm(orders[iq], orders[ir])
                two = twos[iq] if twos[iq] == twos[ir] else 1
            # -1 lies in <-2>_n exactly when every prime-power order has the
            # same even 2-part; otherwise adjoining -1 doubles the subgroup.
            g = _g_from_order(n, phi, order if two > 1 else 2 * order)
            psi = phi - 18 * g if g else phi
            w = s[j]
            if w:
                f_n = (w >> 32) + g
                psi_star_n = (w & 0xFFFFFFFF) + phi - 18 * f_n
            else:  # n is prime
                f_n, psi_star_n = g, psi
            _check_psi_star(n, f_n, psi_star_n)
            yield new_row((n, phi, f_n, psi, psi_star_n))
            if n <= fifth:
                phis[i], orders[i], twos[i] = phi, order, two
                ws[i] = w = phi + (g << 32)
                if 5 * n < hi:  # in segment 0 alone (lo = 0)
                    for k in (5, 7):
                        for m in range(k * n, hi, 6 * n):
                            s[m] += w


# The rows each kind of scan keeps; `stskit numtheory scan` reads them here.
SCAN_KINDS: dict[str, Callable[[ScanRow], bool]] = {
    "all": lambda r: True,
    "negative-psi": lambda r: r.psi < 0,
    "exceptions": lambda r: r.psi_star <= 0,
}
