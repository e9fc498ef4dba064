"""The cubic graph G(n) on Z_n \\ {0} and its special 1-factorisation.

G(n) is defined by its edge rule: for nonzero u != v mod n, {u, v} is an
edge exactly when v = -u, v = -2u or u = -2v (mod n).  The weight of an
edge {x,y} is x+y mod n.  No graph object is built: a factorisation is its
order n and three matchings, and :func:`verify_factorisation_properties`
checks the matchings against the edge rule.

G(n) splits into one unit-Cayley-graph component per divisor d > 1 of n.
Each component is factorised from one walk x_i = (-2)^i mod d, x_0 = 1,
that stops at the first x_s in {1, -1}: X = <-1,-2>_d is {+-x_i : i < s},
so |X| = 2s, and the shape of the 3-way perfect-matching decomposition
depends on the parity of s (|X| mod 4).  Cosets of X are translated copies.
Gluing the components gives a 1-factorisation {G_0, G_1, G_2} of G(n) in
which

* edges of weight x and -x always land in the same factor,
* G_0 has exactly 2 f(n) edges of nonzero weight, and
* G_1 union G_2 has exactly 2 f(n) edges of zero weight,

with f the divisor-sum function from :mod:`stskit.numtheory`.  These three
properties are what the downstream parallel-class bound consumes, and
:func:`verify_factorisation_properties` re-checks them from scratch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .core import VerificationReport, Violations
from .numtheory import divisors_gt1

__all__ = [
    "OneFactorisation",
    "factorise_G",
    "factorise_component",
    "format_factorisation",
    "verify_factorisation_properties",
]

Edge = tuple[int, int]
Factors = tuple[tuple[Edge, ...], tuple[Edge, ...], tuple[Edge, ...]]


def _pair(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class OneFactorisation:
    """Three perfect matchings of G(n); each edge is a pair (u, v), u < v."""

    n: int
    factors: Factors


@lru_cache(maxsize=0)  # keeps nothing; cache_info() still counts the calls
def factorise_component(d: int) -> Factors:
    """The three factors (M_0, M_1, M_2) of a 1-factorisation of the unit
    Cayley graph mod d (vertices the units, edges {x,-x} and {x,-2x}), with
    the weight properties described in the module docstring (f(d) there
    reduces to: M_0 has 2*phi(d)/|X| nonzero-weight edges when
    |X| = 2 mod 4, none when |X| = 0 mod 4, and dually for zero weights in
    M_1 union M_2).  No graph is built or checked here: the factors of
    G(n) that :func:`factorise_G` assembles from them go through
    :func:`verify_factorisation_properties`.

    Walk x_i = (-2)^i mod d from x_0 = 1 to the first x_s in {1, -1}; then
    X = <-1,-2>_d = {+-x_i : i < s} has 2s elements.  The component on X is
    the cycle(s) through the edges {x_j, x_(j+1)}, {-x_j, -x_(j+1)} plus the
    negation matching {x_i, -x_i}: the matching goes to M_0 and the cycle
    edges alternate into M_1/M_2.  When s is odd (|X| = 2 mod 4) the
    alternation cannot close, so the last cycle edge pair goes to M_0 in
    exchange for the negation edges at x_0 (to M_2) and x_(s-1) (to M_1).
    The cosets aX of the units are translated copies.

    d = 3 is rejected: there X = {1,2} and the graph is a single edge, which
    has no decomposition into three perfect matchings.  Every other odd d has
    s >= 2, since s = 1 means -2 = +-1 mod d.
    """
    if d < 3 or d % 2 == 0:
        raise ValueError(f"d must be an odd integer >= 3, got {d}")
    if d == 3:
        raise ValueError("d=3 is degenerate: the unit Cayley graph is a single edge")

    x = [1, d - 2]
    while x[-1] not in (1, d - 1):
        x.append(x[-1] * (d - 2) % d)
    s = len(x) - 1
    x_set = {p for xi in x[:s] for p in (xi, d - xi)}
    if len(x_set) != 2 * s:
        raise RuntimeError(f"|<-1,-2>_{d}| mismatch: {len(x_set)} != {2 * s}")

    def negation(i: int) -> Edge:
        return _pair(x[i], d - x[i])

    def cycle(j: int) -> list[Edge]:
        return [_pair(x[j], x[j + 1]), _pair(d - x[j], d - x[j + 1])]

    h: list[list[Edge]] = [[], [], []]
    odd = s % 2
    for j in range(s - odd):
        h[1 + j % 2].extend(cycle(j))
    if odd:
        h[0] = [negation(i) for i in range(1, s - 1)] + cycle(s - 1)
        h[1].append(negation(s - 1))
        h[2].append(negation(0))
    else:
        h[0] = [negation(i) for i in range(s)]

    units = [a for a in range(1, d) if math.gcd(a, d) == 1]
    reps = []
    covered: set[int] = set()
    for a in units:
        if a not in covered:
            reps.append(a)
            covered.update(a * p % d for p in x_set)
    if len(reps) * 2 * s != len(units):
        raise RuntimeError(f"coset count mismatch mod {d}")

    return tuple(  # type: ignore[return-value]
        tuple(sorted(_pair(a * u % d, a * v % d) for a in reps for u, v in hi))
        for hi in h)


def factorise_G(n: int) -> OneFactorisation:
    """1-factorisation of G(n), n = 1 mod 6 and n >= 7, assembled from the
    per-divisor component factorisations via x -> (n/d) x, which maps units
    mod d onto the elements of additive order d.  The result is unchecked
    here: :func:`verify_factorisation_properties` is the one check, and
    callers that rely on the properties run it."""
    if n % 6 != 1 or n < 7:
        raise ValueError(f"n must be 1 mod 6 and >= 7, got {n}")
    factors: list[list[Edge]] = [[], [], []]
    for d in divisors_gt1(n):
        mult = n // d  # 0 < u < v < d, so 0 < mult*u < mult*v < n
        for i, factor in enumerate(factorise_component(d)):
            factors[i].extend((mult * u, mult * v) for u, v in factor)
    return OneFactorisation(
        n=n, factors=tuple(tuple(sorted(f)) for f in factors))  # type: ignore[arg-type]


def verify_factorisation_properties(fact: OneFactorisation, f_n: int) -> VerificationReport:
    """Re-check, from scratch, everything the parallel-class bound needs:

    1. there are three factors, each a perfect matching of 1..n-1;
    2. every factor edge {u, v} is an edge of G(n): v = -u, v = -2u or
       u = -2v (mod n);
    3. no edge lies in two factors;
    4. for every x != 0, all edges with weight in {x, -x} lie in one factor;
    5. factor 0 has exactly ``2 * f_n`` nonzero-weight edges and factors 1, 2
       together have exactly ``2 * f_n`` zero-weight edges.

    n must be 1 mod 6 and at least 7; any other n is a violation.

    Checks 1-3 say the factors are a 1-factorisation of G(n) without a
    stored edge set or a cubic check: for odd n every vertex x of G(n) has
    at most three neighbours, -x, -2x and -x/2.  Three edge-disjoint perfect
    matchings inside G(n) give every vertex three distinct neighbours, so
    together they are all of G(n).
    """
    n = fact.n
    hit = Violations()
    if n % 6 != 1 or n < 7:
        hit(f"n must be 1 mod 6 and >= 7, got {n}")
        return hit.report()
    if len(fact.factors) != 3:
        hit(f"{len(fact.factors)} factors, expected 3")
    owner: dict[Edge, int] = {}
    weight_class_factor: dict[int, tuple[int, Edge]] = {}
    nonzero_in_0 = zero_in_12 = 0
    for i, factor in enumerate(fact.factors):
        touched: set[int] = set()
        for edge in factor:
            u, v = edge
            if u in touched or v in touched:
                hit(f"factor {i} is not a matching at edge {edge}")
            touched.update(edge)
            if not (0 < u < n and 0 < v < n
                    and ((u + v) % n == 0 or (2 * u + v) % n == 0 or (u + 2 * v) % n == 0)):
                hit(f"edge {edge} of factor {i} is not an edge of G({n})")
            j = owner.setdefault(_pair(u, v), i)
            if j != i:
                hit(f"edge {edge} is in factors {j} and {i}")
            w = (u + v) % n
            if w == 0:
                if i:
                    zero_in_12 += 1
                continue
            if i == 0:
                nonzero_in_0 += 1
            key = min(w, n - w)
            prev = weight_class_factor.setdefault(key, (i, edge))
            if prev[0] != i:
                hit(f"edges {prev[1]} and {edge} have opposite weights "
                    f"but sit in factors {prev[0]} and {i}")
        if len(touched) != n - 1:
            hit(f"factor {i} does not cover every vertex")

    if nonzero_in_0 != 2 * f_n:
        hit(f"factor 0 has {nonzero_in_0} nonzero-weight edges, expected {2 * f_n}")
    if zero_in_12 != 2 * f_n:
        hit(f"factors 1+2 have {zero_in_12} zero-weight edges, expected {2 * f_n}")

    return hit.report()


def format_factorisation(fact: OneFactorisation) -> str:
    """Labelled edge lists: 'FACTOR i' headers then 'x y w' per edge."""
    lines = []
    for i, factor in enumerate(fact.factors):
        lines.append(f"FACTOR {i}")
        lines.extend(f"{u} {v} {(u + v) % fact.n}" for u, v in factor)
    return "\n".join(lines) + "\n"
