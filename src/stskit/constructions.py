"""Triple-system constructions: the zero-sum construction of order n+2 fed by
a 1-factorisation of G(n), the Bose construction of order 3n from idempotent
symmetric Latin squares (the half-sum cyclic square or seeded conjugates of
it), and an embedded order-33 system with an explicit 18-class colouring.

Constructed systems come back as :class:`LabelledSTS`: the canonical
:class:`~stskit.core.TripleSystem` plus the size of each triple family the
construction is made of (``construct --json`` reports them).  Each
construction's docstring names its families and gives its map from natural
point names to internal points.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

from .core import Colouring, PartialParallelClass, TripleSystem
from .factorisation import OneFactorisation, factorise_G
from .rng import substream

__all__ = [
    "LabelledSTS",
    "LatinSquare",
    "bose",
    "bose_conjugate",
    "bose_half_sum",
    "conjugate_square",
    "half_sum_square",
    "is_wilson_schreiber",
    "sts33_fixture",
    "verify_cyclic",
    "wilson_schreiber",
    "wilson_schreiber_triples",
]

# The largest n wilson_schreiber builds, since it holds all (n+2)(n+1)/6
# triples of the order-(n+2) system: a cold `stskit construct
# wilson-schreiber --n 997` peaks near 32 MB, and n = 1999 near 92 MB.
MAX_WS_N = 997

# The largest n the Bose construction takes: order 3n = 999, where
# wilson_schreiber and random_sts also stop.  A square holds n^2 entries
# before a triple is built: a cold `stskit construct bose --n 329` (order
# 987, the largest order the cap admits) peaks near 35 MB on a 2-vCPU host.
MAX_BOSE_N = 333


# ---------------------------------------------------------------------------
# Latin squares


class LatinSquare(NamedTuple("LatinSquare", [("n", int),
                                             ("rows", tuple[tuple[int, ...], ...])])):
    """An n x n array over symbols 0..n-1, each once per row and column."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, n: int, rows: tuple[tuple[int, ...], ...]) -> LatinSquare:
        full = set(range(n))
        if len(rows) != n:
            raise ValueError(f"expected {n} rows, got {len(rows)}")
        for r, row in enumerate(rows):
            if set(row) != full or len(row) != n:
                raise ValueError(f"row {r} is not a permutation of 0..{n - 1}")
        for c in range(n):
            if {row[c] for row in rows} != full:
                raise ValueError(f"column {c} is not a permutation of 0..{n - 1}")
        return super().__new__(cls, n, rows)

    def __call__(self, x: int, y: int) -> int:
        return self.rows[x][y]

    def is_idempotent(self) -> bool:
        return all(self.rows[x][x] == x for x in range(self.n))

    def is_symmetric(self) -> bool:
        return all(self.rows[x][y] == self.rows[y][x]
                   for x in range(self.n) for y in range(x + 1, self.n))


def half_sum_square(n: int) -> LatinSquare:
    """L(i,j) = (i+j)/2 mod n, for odd n <= :data:`MAX_BOSE_N`.

    Idempotent, symmetric, and shift-invariant: L(i+1,j+1) = L(i,j)+1.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError(f"order must be odd (2 must be invertible), got {n}")
    if n > MAX_BOSE_N:
        raise ValueError(f"n must be <= {MAX_BOSE_N}, got {n}")
    inv2 = (n + 1) // 2
    return LatinSquare(n, tuple(tuple((i + j) * inv2 % n for j in range(n))
                                for i in range(n)))


def conjugate_square(square: LatinSquare, perm: Sequence[int]) -> LatinSquare:
    """Relabel rows, columns and symbols by the same permutation.

    L'(x,y) = perm(L(perm^-1 x, perm^-1 y)); preserves the Latin, idempotent
    and symmetric properties, which makes it a cheap source of varied
    idempotent symmetric squares.
    """
    n = square.n
    if sorted(perm) != list(range(n)):
        raise ValueError(f"perm must be a permutation of 0..{n - 1}")
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    return LatinSquare(n, tuple(tuple(perm[square(inv[x], inv[y])] for y in range(n))
                                for x in range(n)))


# ---------------------------------------------------------------------------
# labelled systems


class LabelledSTS:
    """A triple system plus its construction structure.

    ``families`` maps family names (e.g. "zero-sum", "infinity", "spine") to
    their triple counts; the families partition the triple list.  Not a
    tuple, so that a construction's result is told from a pair holding one;
    its fields are read-only.
    """

    __slots__ = ("system", "tag", "families")

    def __init__(self, system: TripleSystem, tag: str, families: dict[str, int]) -> None:
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "families", families)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)

    __hash__ = None  # type: ignore[assignment]  # families is a dict

    def __repr__(self) -> str:
        return (f"LabelledSTS(system={self.system!r}, tag={self.tag!r}, "
                f"families={self.families!r})")


# ---------------------------------------------------------------------------
# order n+2 from a 1-factorisation of G(n)


def wilson_schreiber_triples(fact: OneFactorisation) -> tuple[tuple[int, int, int], ...]:
    """The canonical triple list of the order-(n+2) system built on ``fact``,
    a 1-factorisation of G(n) with n = ``fact.n`` (see :func:`wilson_schreiber`)."""
    n = fact.n
    # Every triple takes its points from this one list, so that each point is
    # one int object however many triples hold it.
    pts = list(range(n + 2))
    triples: list[tuple[int, int, int]] = []
    for a in range(1, n):
        # a < b < c < n with a+b+c = n (so b < (n-a)/2) or 2n (so b > n-a).
        x = pts[a - 1]
        triples += [(x, pts[b - 1], pts[n - a - b - 1]) for b in range(a + 1, (n - a + 1) // 2)]
        triples += [(x, pts[b - 1], pts[2 * n - a - b - 1])
                    for b in range(max(a + 1, n + 1 - a), (2 * n - a + 1) // 2)]
    triples.append((pts[n - 1], pts[n], pts[n + 1]))
    for i, factor in enumerate(fact.factors):
        triples += [tuple(sorted((pts[u - 1], pts[v - 1], pts[n - 1 + i]))) for u, v in factor]
    triples.sort()
    return tuple(triples)


def is_wilson_schreiber(system: TripleSystem, fact: OneFactorisation) -> bool:
    """True iff ``system`` is the order-(n+2) system built on ``fact``, a
    1-factorisation of G(n) with n = ``fact.n``: the same as ``system.v ==
    n + 2 and system.triples == wilson_schreiber_triples(fact)``, without
    building the construction.

    The system's triples are distinct, so it is the construction exactly
    when it has the construction's (n+2)(n+1)/6 triples and each of them is
    a zero-sum triple, {x, y, inf_i} for an edge {x, y} of factor i, or the
    all-infinity triple (internal points as in :func:`wilson_schreiber`).
    """
    n = fact.n
    v = n + 2
    if system.v != v or system.b != v * (v - 1) // 6:
        return False
    edges = [set(factor) for factor in fact.factors]
    inf = n - 1  # inf_0; point p < inf stands for p + 1 in Z_n
    for a, b, c in system.triples:
        if c < inf:
            if (a + b + c + 3) % n:
                return False
        elif b < inf:
            if (a + 1, b + 1) not in edges[c - inf]:
                return False
        elif a < inf:  # two infinity points and a finite one
            return False
    return True


def wilson_schreiber(n: int) -> LabelledSTS:
    """Steiner triple system of order n+2 on Z_n \\ {0} plus three extra
    points inf_0, inf_1, inf_2.

    Triples are (a) every 3-subset of Z_n \\ {0} with zero sum, and (b)
    {x, y, inf_i} for every edge {x,y} of the i-th factor of a
    1-factorisation of G(n), plus {inf_0, inf_1, inf_2}.  The zero-sum family
    misses exactly the pairs that form edges of G(n), which is why any
    1-factorisation completes the system; this one uses ``factorise_G(n)``,
    and :func:`wilson_schreiber_triples` takes any other.  The families are
    "zero-sum", the triples (a), and "infinity", the 3(n-1)/2 + 1 triples (b).

    Internal point order: 1..n-1 map to 0..n-2, then inf_0, inf_1, inf_2.
    An n above :data:`MAX_WS_N` is refused before anything is built.
    """
    if n > MAX_WS_N:
        raise ValueError(f"n must be <= {MAX_WS_N}, got {n}")
    system = TripleSystem(n + 2, wilson_schreiber_triples(factorise_G(n)))
    # One triple per edge of the three factors, plus {inf_0, inf_1, inf_2}.
    infinity = 3 * (n - 1) // 2 + 1
    return LabelledSTS(
        system=system,
        tag="wilson-schreiber",
        families={"zero-sum": system.b - infinity, "infinity": infinity},
    )


# ---------------------------------------------------------------------------
# Bose construction


def bose(l0: LatinSquare, l1: LatinSquare, l2: LatinSquare) -> LabelledSTS:
    """Steiner triple system of order 3n on X x Z_3 from three idempotent
    symmetric Latin squares of common order n = 5 mod 6.

    The spine consists of the n triples {(x,0),(x,1),(x,2)}; layer i
    contributes {(x,i),(y,i),(L_i(x,y),i+1)} for every unordered pair x != y.
    The families are "spine" (n triples) and "layer0".."layer2" (n(n-1)/2
    each).  Internal point order: (x,i) maps to x + n*i.
    An n above :data:`MAX_BOSE_N` is refused before any triple is built.
    """
    squares = (l0, l1, l2)
    n = l0.n
    if n > MAX_BOSE_N:
        raise ValueError(f"n must be <= {MAX_BOSE_N}, got {n}")
    if any(sq.n != n for sq in squares):
        raise ValueError("the three squares must have a common order")
    if n % 6 != 5:
        raise ValueError(f"order must be 5 mod 6, got {n}")
    for which, sq in enumerate(squares):
        if not sq.is_idempotent():
            raise ValueError(f"square {which} is not idempotent")
        if not sq.is_symmetric():
            raise ValueError(f"square {which} is not symmetric")

    # Each triple is built sorted, its points taken from one list as in
    # wilson_schreiber_triples.  Layer i's third point lies in block i+1,
    # above the pair for layers 0 and 1 and below it for layer 2.
    pts = list(range(3 * n))
    triples = [(pts[x], pts[x + n], pts[x + 2 * n]) for x in range(n)]
    for i, sq in enumerate(squares):
        lo, hi = n * i, n * ((i + 1) % 3)
        for x, row in enumerate(sq.rows):
            px = pts[lo + x]
            if i < 2:
                triples += [(px, pts[lo + y], pts[hi + row[y]]) for y in range(x + 1, n)]
            else:
                triples += [(pts[row[y]], px, pts[lo + y]) for y in range(x + 1, n)]
    triples.sort()
    layer = n * (n - 1) // 2
    return LabelledSTS(
        system=TripleSystem(3 * n, tuple(triples)),
        tag="bose",
        families={"spine": n, "layer0": layer, "layer1": layer, "layer2": layer},
    )


def bose_half_sum(n: int) -> LabelledSTS:
    """Bose system from three copies of the half-sum square of order n."""
    sq = half_sum_square(n)
    return bose(sq, sq, sq)


def bose_conjugate(n: int, seed: int) -> LabelledSTS:
    """Bose system from three conjugates of the half-sum square of order n,
    square i by a shuffle of 0..n-1 drawn from ``substream(seed, "bose", i)``."""
    base = half_sum_square(n)
    perms = [list(range(n)) for _ in range(3)]
    for i, perm in enumerate(perms):
        substream(seed, "bose", i).shuffle(perm)
    return bose(*(conjugate_square(base, perm) for perm in perms))


def _is_automorphism(system: TripleSystem, image: Callable[[int], int]) -> bool:
    """True iff the point permutation ``image`` maps every triple to a triple
    (and so, the system being finite, the triple set onto itself)."""
    triple_set = set(system.triples)
    return all(tuple(sorted(image(p) for p in t)) in triple_set for t in system.triples)


def verify_cyclic(labelled: LabelledSTS) -> bool:
    """True iff (x,i) -> (x+1, i+1) is an automorphism of a Bose-built system
    and acts on the points in a single orbit of length 3n.

    For the system built from three copies of the half-sum square this holds
    and certifies cyclicity (n is coprime to 3); replacing one square by a
    different conjugate generally breaks it.
    """
    if labelled.tag != "bose":
        raise ValueError("cyclicity check is defined for Bose-built systems")
    v = labelled.system.v
    n = v // 3

    def rho(p: int) -> int:
        x, i = p % n, p // n
        return (x + 1) % n + n * ((i + 1) % 3)

    if not _is_automorphism(labelled.system, rho):
        return False
    orbit = {0}
    p = rho(0)
    while p != 0:
        orbit.add(p)
        p = rho(p)
    return len(orbit) == v


# ---------------------------------------------------------------------------
# the order-33 fixture
#
# A cyclic system on Z_33: the spine is the short orbit {i, 11+i, 22+i} and
# the remaining 165 triples develop five base blocks {0, x, y}.  Point sums
# are 0 mod 3 on the spine and 1 mod 3 elsewhere, which caps the number of
# disjoint parallel classes at 5 and hence forces at least 18 colours; the
# colouring below meets 18.

_STS33_BASE_PAIRS = ((3, 7), (5, 17), (13, 15), (8, 14), (9, 10))

# Ten triples whose translates under x -> x+3 give 11 of the colour classes.
_STS33_DEVELOPED_BASE = (
    (0, 23, 32), (1, 13, 29), (2, 5, 9), (3, 8, 20), (4, 12, 18),
    (7, 16, 17), (10, 15, 27), (11, 24, 26), (14, 22, 28), (21, 30, 31),
)

# Six further classes found by hand; sizes 10, 9, 9, 9, 9, 9.
_STS33_AD_HOC_CLASSES = (
    ((0, 8, 14), (1, 5, 31), (2, 21, 29), (4, 6, 24), (7, 9, 27),
     (10, 13, 17), (12, 20, 26), (15, 18, 22), (16, 19, 23), (25, 28, 32)),
    ((0, 3, 7), (1, 27, 30), (4, 17, 19), (6, 14, 20), (8, 10, 28),
     (9, 12, 16), (11, 13, 31), (18, 26, 32), (22, 25, 29)),
    ((0, 4, 30), (1, 14, 16), (3, 6, 10), (7, 20, 22), (9, 17, 23),
     (12, 15, 19), (13, 26, 28), (18, 21, 25), (24, 27, 31)),
    ((0, 13, 15), (1, 4, 8), (2, 28, 31), (3, 16, 18), (5, 11, 30),
     (6, 19, 21), (7, 10, 14), (9, 22, 24), (12, 25, 27)),
    ((0, 18, 31), (1, 19, 32), (2, 4, 22), (3, 11, 17), (5, 7, 25),
     (10, 12, 30), (13, 16, 20), (15, 23, 29), (21, 24, 28)),
    ((1, 3, 21), (2, 8, 27), (4, 7, 11), (5, 24, 32), (6, 9, 13),
     (10, 23, 25), (15, 28, 30), (16, 29, 31), (19, 22, 26)),
)


def sts33_fixture() -> tuple[LabelledSTS, Colouring]:
    """The embedded order-33 system together with its 18-class colouring.

    Returns (labelled system, colouring); both pass their verifiers.  The
    families are "spine", the 11 triples {i, 11+i, 22+i}, and "developed",
    the 165 translates of the five base blocks.  Class sizes: the spine
    (11), the eleven developed classes and the first ad-hoc class (10 each),
    and five further ad-hoc classes of 9.
    """
    v = 33
    spine = [tuple(sorted((i, 11 + i, 22 + i))) for i in range(11)]
    developed = []
    for x, y in _STS33_BASE_PAIRS:
        developed.extend(tuple(sorted((i, (x + i) % v, (y + i) % v))) for i in range(v))
    system = TripleSystem.from_triples(v, spine + developed)
    labelled = LabelledSTS(
        system=system,
        tag="sts33-fixture",
        families={"spine": len(spine), "developed": len(developed)},
    )

    classes: list[tuple[tuple[int, int, int], ...]] = [tuple(spine)]
    for j in range(11):
        shift = 3 * j
        classes.append(tuple(tuple(sorted((p + shift) % v for p in t))
                             for t in _STS33_DEVELOPED_BASE))
    classes.extend(_STS33_AD_HOC_CLASSES)

    index = {t: i for i, t in enumerate(system.triples)}.__getitem__
    colouring = Colouring(
        host=system,
        classes=tuple(PartialParallelClass(tuple(sorted(map(index, cls)))) for cls in classes),
    )
    return labelled, colouring
