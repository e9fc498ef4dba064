"""The cubic graph G(n) on Z_n \\ {0} and its special 1-factorisation.

G(n) is defined by its edge rule: for nonzero u != v mod n, {u, v} is an
edge exactly when v = -u, v = -2u or u = -2v (mod n).  The weight of an
edge {x,y} is x+y mod n.  No graph object is built: a factorisation is its
order n and three matchings, and :func:`verify_factorisation_properties`
checks the matchings against the edge rule.

Multiplication by -2 permutes Z_n \\ {0} for odd n, and G(n) is the union
of the +-orbits of x -> -2x.  From a start a, walk x_i = a(-2)^i mod n to
the first x_s in {a, -a}: the orbit {+-x_i : i < s} has 2s points, and
G(n) on it is the cycle(s) through the edges {x_j, x_(j+1)},
{-x_j, -x_(j+1)} plus the negation matching {x_i, -x_i}.  For a of
additive order d the orbit is a times a coset of X = <-1,-2>_d, so
|X| = 2s, and the parity of s (|X| mod 4) decides the shape of the 3-way
split of the orbit's edges.  One walk per orbit, starts taken in ascending
order, gives a 1-factorisation {G_0, G_1, G_2} of G(n) in which

* edges of weight x and -x always land in the same factor,
* G_0 has exactly 2 f(n) edges of nonzero weight, and
* G_1 union G_2 has exactly 2 f(n) edges of zero weight,

with f the divisor-sum function from :mod:`stskit.numtheory`.  These three
properties are what the downstream parallel-class bound consumes, and
:func:`verify_factorisation_properties` re-checks them from scratch.

Both steps keep the per-edge Python work small.  The walk collects each
orbit once and builds its edges in bulk from that list.  The verifier is
one pass of set and list checks that seeks a witness only for a failed one.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from itertools import chain, combinations
from operator import itemgetter
from typing import Iterable, NamedTuple

from .core import VerificationReport, Violations

__all__ = [
    "OneFactorisation",
    "factorise_G",
    "format_factorisation",
    "verify_factorisation_properties",
]

Edge = tuple[int, int]
Factors = tuple[tuple[Edge, ...], tuple[Edge, ...], tuple[Edge, ...]]


_first = itemgetter(0)

# The largest n factorise_G builds, since G(n) is held in memory: a cold
# `stskit theorem1 --v 999999` (n = 999,997) peaks near 455 MB.
MAX_N = 10**6


class OneFactorisation(NamedTuple):
    """Three perfect matchings of G(n); each edge is a pair (u, v), u < v."""

    n: int
    factors: Factors


def _orbit_factors(n: int, starts: Iterable[int]) -> Factors:
    """The three factors of the graph with edges {x,-x} and {x,-2x} mod n on
    the (-2)-orbits of ``starts``: one walk per start not yet seen, in the
    order given (see the module docstring).

    The negation matching goes to factor 0 and the cycle edges alternate
    into factors 1 and 2.  When s is odd the alternation cannot close, so
    the last cycle edge pair goes to factor 0 in exchange for the negation
    edges at x_0 (to factor 2) and x_(s-1) (to factor 1).  An orbit with
    fewer than 2s points, or one that meets a point already seen, raises
    RuntimeError.

    Each orbit is collected once, with its negation list; its edges are then
    built in bulk, by zipping the orbit with itself shifted by one (the
    cycle edges, sliced alternately into factors 1 and 2) and with its
    negation (the negation edges).
    """
    h0: list[Edge] = []
    h1: list[Edge] = []
    h2: list[Edge] = []
    seen: set[int] = set()
    m = n - 2
    for a in starts:
        if a in seen:
            continue
        x = [a]  # x_0 .. x_(s-1); y ends as x_s, the first of a, -a again
        y = a * m % n
        while y != a and y != n - a:
            x.append(y)
            y = y * m % n
        s = len(x)
        neg = [n - p for p in x]
        orbit = set(x)
        orbit.update(neg)
        if len(orbit) != 2 * s or not seen.isdisjoint(orbit):
            raise RuntimeError(f"the (-2)-orbit of {a} mod {n} is not a fresh cycle")
        seen |= orbit
        negation = [(p, q) if p < q else (q, p) for p, q in zip(x, neg)]
        x.append(y)
        neg.append(n - y)
        # cycle[j] = {x_j, x_(j+1)} and ncycle[j] = {-x_j, -x_(j+1)}, j < s
        cycle = [(p, q) if p < q else (q, p) for p, q in zip(x, x[1:])]
        ncycle = [(p, q) if p < q else (q, p) for p, q in zip(neg, neg[1:])]
        odd = s % 2
        h1 += cycle[0:s - odd:2]
        h1 += ncycle[0:s - odd:2]
        h2 += cycle[1:s - odd:2]
        h2 += ncycle[1:s - odd:2]
        if odd:
            h0 += negation[1:s - 1]
            h0 += (cycle[s - 1], ncycle[s - 1])
            h1.append(negation[s - 1])
            h2.append(negation[0])
        else:
            h0 += negation
    # A matching has one edge per smaller endpoint, so that key alone sorts
    # the edges as tuples would, without comparing tuples.
    return (tuple(sorted(h0, key=_first)), tuple(sorted(h1, key=_first)),
            tuple(sorted(h2, key=_first)))


@lru_cache(maxsize=0)  # keeps nothing; cache_info() still counts the calls
def factorise_component(d: int) -> Factors:
    """The three factors (M_0, M_1, M_2) of a 1-factorisation of the unit
    Cayley graph mod d (vertices the units, edges {x,-x} and {x,-2x}): the
    orbit walk of the module docstring with the units as starts.  The orbits
    are the cosets of X = <-1,-2>_d, so M_0 has 2*phi(d)/|X| nonzero-weight
    edges when |X| = 2 mod 4, none when |X| = 0 mod 4, and dually for zero
    weights in M_1 union M_2.

    d = 3 is rejected: there X = {1,2} and the graph is a single edge, which
    has no decomposition into three perfect matchings.  Every other odd d has
    s >= 2, since s = 1 means -2 = +-1 mod d.  Only the tests and the
    benchmark harness (through ``cache_info()``) call it; it is not in
    ``__all__``.
    """
    if d < 3 or d % 2 == 0:
        raise ValueError(f"d must be an odd integer >= 3, got {d}")
    if d == 3:
        raise ValueError("d=3 is degenerate: the unit Cayley graph is a single edge")
    return _orbit_factors(d, (a for a in range(1, d) if math.gcd(a, d) == 1))


def factorise_G(n: int) -> OneFactorisation:
    """1-factorisation of G(n), n = 1 mod 6 and 7 <= n <= MAX_N: the
    (-2)-orbit walk of the module docstring over every nonzero residue.  The
    result is unchecked here beyond the walk's own orbit check:
    :func:`verify_factorisation_properties` is the one check, and callers
    that rely on the properties run it."""
    if n % 6 != 1 or not 7 <= n <= MAX_N:
        raise ValueError(f"n must be 1 mod 6 with 7 <= n <= {MAX_N}, got {n}")
    return OneFactorisation(n=n, factors=_orbit_factors(n, range(1, n)))


def _matching_fault(i: int, factor, vertices: set[int]) -> str:
    """Name factor ``i``'s least repeated, missing or out-of-range vertex."""
    ends = Counter(chain.from_iterable(factor))
    x = min(x for x in ends.keys() | vertices if ends[x] != 1 or x not in vertices)
    kind = "a matching" if ends[x] > 1 else f"a perfect matching of 1..{len(vertices)}"
    return f"factor {i} is not {kind} at vertex {x}"


def _shared_edge(factors) -> str | None:
    """The first edge, in factor order, that an earlier factor holds too."""
    owner: dict[Edge, int] = {}
    for i, factor in enumerate(factors):
        for u, v in factor:
            j = owner.setdefault((u, v) if u < v else (v, u), i)
            if j != i:
                return f"edge {(u, v)} is in factors {j} and {i}"
    return None


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

    One pass of set and list checks, in this order: n; the factor count;
    per factor, (n-1)/2 edges on the endpoint set {1..n-1} (matching, cover
    and range in one), then the edge rule as w = 0, -u or -v for w = u+v;
    across factors, distinct edge keys u*n+v (u < v), disjoint nonzero
    weight classes min(w, n-w), and the two counts.  Only a failed check
    seeks a witness (a vertex, edge or weight class).  ``first_violation``
    names the first failed check; ``violation_count`` counts failed checks,
    not edges (callers read only ``ok`` and ``first_violation``).
    """
    n, factors = fact.n, fact.factors
    hit = Violations()
    if n % 6 != 1 or n < 7:
        hit(f"n must be 1 mod 6 and >= 7, got {n}")
        return hit.report()
    if len(factors) != 3:
        hit(f"{len(factors)} factors, expected 3")
    vertices = set(range(1, n))
    keys: set[int] = set()
    classes, zeros = [], []
    for i, factor in enumerate(factors):
        if len(factor) != (n - 1) // 2 or set(chain.from_iterable(factor)) != vertices:
            hit(_matching_fault(i, factor, vertices))
        weights = [(u + v) % n for u, v in factor]
        # The edge rule with w = u+v: v = -2u is w = -u, u = -2v is w = -v.
        bad = [(u, v) for (u, v), w in zip(factor, weights) if w and w + u != n and w + v != n]
        if bad:
            hit(f"edge {bad[0]} of factor {i} is not an edge of G({n})")
        keys.update([u * n + v if u < v else v * n + u for u, v in factor])
        classes.append({w if w + w < n else n - w for w in weights if w})
        zeros.append(weights.count(0))
    # Distinct edges in range have distinct keys; a stray endpoint may not.
    if len(keys) != sum(map(len, factors)) and (shared := _shared_edge(factors)):
        hit(shared)
    for j, i in combinations(range(len(classes)), 2):
        if not classes[j].isdisjoint(classes[i]):
            hit(f"weights +-{min(classes[j] & classes[i])} are split between factors {j} and {i}")
            break
    nonzero_in_0 = len(factors[0]) - zeros[0] if factors else 0
    if nonzero_in_0 != 2 * f_n:
        hit(f"factor 0 has {nonzero_in_0} nonzero-weight edges, expected {2 * f_n}")
    if sum(zeros[1:]) != 2 * f_n:
        hit(f"factors 1+2 have {sum(zeros[1:])} zero-weight edges, expected {2 * f_n}")
    return hit.report()


def format_factorisation(fact: OneFactorisation) -> str:
    """Labelled edge lists: 'FACTOR i' headers then 'x y w' per edge."""
    lines = []
    for i, factor in enumerate(fact.factors):
        lines.append(f"FACTOR {i}")
        lines.extend(f"{u} {v} {(u + v) % fact.n}" for u, v in factor)
    return "\n".join(lines) + "\n"
