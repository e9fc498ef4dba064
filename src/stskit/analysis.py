"""Search and bounding engine: parallel-class enumeration, maximum sets of
disjoint parallel classes, structural upper-bound certificates, and
exact/heuristic chromatic index.

Searches are deterministic given (instance, budget, seed).  A blown budget
never truncates silently: results carry a status of "complete" or
"inconclusive", and inconclusive values are first-class, not exceptions.
"""

from __future__ import annotations

import sys
import time
from array import array
from bisect import bisect_left, insort
from typing import Callable, NamedTuple, Sequence

from .constructions import is_wilson_schreiber, sts33_fixture
from .core import (
    Colouring,
    PartialParallelClass,
    TripleSystem,
    m_lower,
    verify_colouring,
)
from .factorisation import OneFactorisation, factorise_G, verify_factorisation_properties
from .numtheory import f_of
from .rng import substream

__all__ = [
    "ChiResult",
    "MaxDisjointResult",
    "PCBoundCertificate",
    "PCEnumeration",
    "PipelineReport",
    "SearchBudget",
    "chi_lower_from_certificate",
    "chromatic_index_exact",
    "chromatic_index_heuristic",
    "enumerate_parallel_classes",
    "max_disjoint_pcs",
    "pc_bound",
    "pc_bound_mod3",
    "pc_bound_mod3_auto",
    "pc_bound_ws",
    "pc_bound_ws_on",
    "theorem1_pipeline",
]

COMPLETE = "complete"
INCONCLUSIVE = "inconclusive"


class SearchBudget(NamedTuple("SearchBudget", [("max_nodes", int), ("max_seconds", float)])):
    """Node/time caps for the exhaustive searches.

    Exceeding either cap yields an explicit inconclusive status.  A NaN time
    cap is refused: it would switch the clock off.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, max_nodes: int = 100_000_000, max_seconds: float = 60.0) -> SearchBudget:
        if max_nodes < 0 or not max_seconds >= 0:  # NaN fails >= 0
            raise ValueError("budget limits must be nonnegative")
        return super().__new__(cls, max_nodes, max_seconds)


DEFAULT_BUDGET = SearchBudget()


class _BudgetStop(Exception):
    pass


class _Meter:
    """Node counter; reads the clock at every node, from the call's start."""

    __slots__ = ("nodes", "max_nodes", "deadline")

    def __init__(self, budget: SearchBudget):
        self.nodes = 0
        self.max_nodes = budget.max_nodes
        self.deadline = time.monotonic() + budget.max_seconds

    def tick(self) -> None:
        # The cap is checked before counting, so a stop reports exactly it.
        if self.nodes >= self.max_nodes:
            raise _BudgetStop
        self.nodes += 1
        if time.monotonic() > self.deadline:
            raise _BudgetStop


# ---------------------------------------------------------------------------
# parallel-class enumeration


class PCEnumeration(NamedTuple):
    classes: tuple[PartialParallelClass, ...]
    status: str
    nodes: int


def _refuse_unused_points(system: TripleSystem) -> None:
    """Refuse v > 3b: some point then lies on no triple, and a per-point
    table would be sized by the header's v alone, not by the triples."""
    if system.v > 3 * system.b:
        raise ValueError(f"order {system.v} exceeds 3 x {system.b} triples: "
                         "some point lies on no triple")


def _incidence(system: TripleSystem) -> list[int]:
    """Each point's triples as a bitset of triple indices, built linearly:
    the indices go to a byte buffer per point, read as one int."""
    on_point: list[list[int]] = [[] for _ in range(system.v)]
    for i, t in enumerate(system.triples):
        for p in t:
            on_point[p].append(i)
    bits = []
    for ids in on_point:
        buf = bytearray((system.b + 7) // 8)
        for i in ids:
            buf[i >> 3] |= 1 << (i & 7)
        bits.append(int.from_bytes(buf, "little"))
    return bits


def enumerate_parallel_classes(system: TripleSystem,
                               budget: SearchBudget = DEFAULT_BUDGET) -> PCEnumeration:
    """All parallel classes (v/3 disjoint triples covering every point), by
    exact-cover search branching on the uncovered point with the fewest
    admissible triples, the lowest such point on ties.  Each node carries
    the bitset of uncovered points, whose set bits alone it visits, and the
    bitset of live triples; a point's candidates are its incidence bitset
    masked by the live triples, and a chosen triple clears its three points
    from the first and their incidence bitsets from the second.  The clock
    is read at every node from the call's start.  Output sorted
    lexicographically.  A system with v > 3b (a point on no triple) is
    refused."""
    return _enumerate(system, _Meter(budget))[0]


def _enumerate(system: TripleSystem, meter: _Meter, bound: int | None = None
               ) -> tuple[PCEnumeration, list[tuple[int, ...]], int | None]:
    """:func:`enumerate_parallel_classes` under ``meter``, with a greedy
    packing built as it goes: each class found, as its ascending triple
    indices, is kept when it shares no triple with those kept before it.
    Given a proven packing ``bound``, the search stops, its status
    inconclusive, once ``enough`` classes are kept: the least of ``bound``
    and the least point degree.  A class takes one triple through every
    point, so no packing outgrows that degree, (v-1)/2 on a Steiner system.
    Returns the enumeration, the kept classes and ``enough`` (None without
    a bound)."""
    v = system.v
    if v % 6 != 3:
        raise ValueError(f"parallel classes need v = 3 mod 6, got v={v}")
    _refuse_unused_points(system)
    masks = [1 << t[0] | 1 << t[1] | 1 << t[2] for t in system.triples]
    on_point = _incidence(system)
    enough = None if bound is None else min(bound, *map(int.bit_count, on_point))
    above = system.b + 1  # more candidates than any point has: the first point is taken
    tick = meter.tick
    triples = system.triples
    found: list[tuple[int, ...]] = []
    kept: list[tuple[int, ...]] = []
    taken = 0  # bitset of the kept classes' triples

    def rec(uncovered: int, live: int, chosen: list[int]) -> None:
        nonlocal taken
        tick()
        if not uncovered:
            cls = tuple(sorted(chosen))
            found.append(cls)
            mask = sum(1 << i for i in cls)
            if not mask & taken:
                kept.append(cls)
                taken |= mask
                if len(kept) == enough:
                    raise _BudgetStop  # stop as a spent budget does
            return
        best_n = above
        best = 0
        rest = uncovered
        while rest:  # the uncovered points, ascending
            low = rest & -rest
            rest ^= low
            cand = on_point[low.bit_length() - 1] & live
            n = cand.bit_count()
            if n < best_n:
                if not n:
                    return
                best_n, best = n, cand
        while best:
            low = best & -best
            best ^= low
            i = low.bit_length() - 1
            a, b, c = triples[i]
            chosen.append(i)
            # A live triple holds only uncovered points.
            rec(uncovered ^ masks[i], live & ~(on_point[a] | on_point[b] | on_point[c]), chosen)
            chosen.pop()

    status = COMPLETE
    try:
        rec((1 << v) - 1, (1 << system.b) - 1, [])
    except _BudgetStop:
        status = INCONCLUSIVE
    found.sort()
    enum = PCEnumeration(
        classes=tuple(PartialParallelClass(c) for c in found),
        status=status,
        nodes=meter.nodes,
    )
    return enum, kept, enough


class MaxDisjointResult(NamedTuple):
    size: int
    witness: tuple[PartialParallelClass, ...]
    status: str
    nodes: int
    upper_bound: int
    n_parallel_classes: int
    # False when the search stopped before listing every class, so that
    # n_parallel_classes counts only those found.
    enumeration_complete: bool


def max_disjoint_pcs(system: TripleSystem,
                     budget: SearchBudget = DEFAULT_BUDGET) -> MaxDisjointResult:
    """Maximum number of pairwise triple-disjoint parallel classes, by
    branch-and-bound set packing over the enumerated classes.

    The least mod-3 or Wilson-Schreiber bound that applies (both O(b)) and
    the least point degree ((v-1)/2 on a Steiner system) cap every packing,
    so the search stops, complete, once it holds as many classes as the
    least of them: in the enumeration, whose greedy packing of the classes
    found so far then counts only those, or in the packing search that
    follows it.  Optimal when status is "complete"; on budget exhaustion
    reports the best packing found with an upper bound: that cap, or the
    class count when that is smaller and enumeration finished.  The budget
    covers the whole call, certificate included: packing gets what
    enumeration left."""
    meter = _Meter(budget)
    cheap = _cheap_bound(system, [])
    enum, witness, final, enough = _packing(system, meter, cheap.bound if cheap else None)
    upper = len(witness) if final else enough
    if not final and enum.status == COMPLETE:  # all classes known, packing unfinished
        upper = min(upper, len(enum.classes))
    return MaxDisjointResult(
        size=len(witness),
        witness=witness,
        status=COMPLETE if final else INCONCLUSIVE,
        nodes=meter.nodes,
        upper_bound=upper,
        n_parallel_classes=len(enum.classes),
        enumeration_complete=enum.status == COMPLETE,
    )


def _packing(system: TripleSystem, meter: _Meter, bound: int | None
             ) -> tuple[PCEnumeration, tuple[PartialParallelClass, ...], bool, int]:
    """The packing search of :func:`max_disjoint_pcs` and of the
    exhaustive-packing certificate, under ``meter``.  Its one stop,
    ``enough``, is the least of ``bound`` (a proven bound, or None) and the
    least point degree.  The enumeration of :func:`_enumerate` stops once
    its greedy packing holds ``enough`` classes.  Otherwise, once every
    class is listed, a greedy seed over the sorted classes is improved by
    depth-first search with count + remaining pruning, which stops once the
    set holds ``enough`` classes.  Returns the enumeration, the packing,
    whether it is final (a largest one, or one of ``enough`` classes) and
    ``enough``; a budget stop leaves the packing unfinished."""
    # Without a proven bound the b triples are one: no packing holds more.
    enum, kept, enough = _enumerate(system, meter, system.b if bound is None else bound)
    if len(kept) >= enough:
        return enum, tuple(PartialParallelClass(c) for c in sorted(kept)), True, enough
    classes = enum.classes
    masks = [0] * len(classes)
    for idx, cls in enumerate(classes):
        for i in cls.indices:
            masks[idx] |= 1 << i
    best: list[int] = []
    taken = 0
    for idx, mask in enumerate(masks):
        if mask & taken == 0:
            best.append(idx)
            taken |= mask

    def pack(cands: list[int], chosen: list[int]) -> bool:
        """True once ``best`` holds ``enough`` classes."""
        nonlocal best
        meter.tick()
        if len(chosen) > len(best):
            best = list(chosen)
            if len(best) >= enough:
                return True
        for j, idx in enumerate(cands):
            if len(chosen) + len(cands) - j <= len(best):
                return False
            chosen.append(idx)
            if pack([c for c in cands[j + 1:] if masks[c] & masks[idx] == 0], chosen):
                return True
            chosen.pop()
        return False

    final = enum.status == COMPLETE
    if final and len(best) < enough:
        try:
            pack(list(range(len(masks))), [])
        except _BudgetStop:
            final = False
    return enum, tuple(classes[i] for i in best), final, enough


# ---------------------------------------------------------------------------
# bound certificates


class PCBoundCertificate(NamedTuple("PCBoundCertificate",
                                     [("method", str), ("bound", int), ("witness", dict)])):
    """A proven upper bound on the number of pairwise disjoint parallel
    classes of the host system, with the data that proves it.  Left out,
    the witness is a new empty dict."""

    __slots__ = ()

    def __new__(cls, method: str, bound: int, witness: dict | None = None) -> PCBoundCertificate:
        return super().__new__(cls, method, bound, {} if witness is None else witness)


def pc_bound_mod3(system: TripleSystem, weights: Sequence[int]) -> PCBoundCertificate:
    """Upper bound from a Z_3 point weighting under which every triple sums
    to 0 or to one fixed nonzero value s.

    A parallel class partitions the points, so its triple sums add up to the
    total weight (0 mod 3); with class size v/3 the number of zero-sum
    triples it uses is forced to be v/3 mod 3.  Disjoint classes consume
    distinct zero-sum triples, so their number is at most
    floor(t0 / (v/3 mod 3)) where t0 counts zero-sum triples."""
    v = system.v
    if v % 3 == 0:  # else _weighting_bound refuses the order first
        if len(weights) != v or any(w not in (0, 1, 2) for w in weights):
            raise ValueError("weights must assign one of 0,1,2 to every point")
        if sum(weights) % 3 != 0:
            raise ValueError("total point weight must be 0 mod 3")
    return _weighting_bound(system, weights.__getitem__)


def _weighting_bound(system: TripleSystem, weight: Callable[[int], int]) -> PCBoundCertificate:
    """:func:`pc_bound_mod3` under ``weight`` (0, 1 or 2 per point, total 0 mod 3),
    decided on the triples; the v weights are listed only for the witness."""
    v = system.v
    if v % 3 != 0:
        raise ValueError(f"weighting bound needs v divisible by 3, got {v}")
    t0 = 0
    s = None
    for t in system.triples:
        w = (weight(t[0]) + weight(t[1]) + weight(t[2])) % 3
        if w == 0:
            t0 += 1
        elif s is None:
            s = w
        elif w != s:
            raise ValueError(f"triple {t} has weight-sum {w}, expected 0 or {s}")
    if s is None:
        raise ValueError("every triple has zero weight-sum; the weighting yields no bound")
    a_min = (v // 3) % 3
    if a_min == 0:
        raise ValueError("v/3 is divisible by 3; the weighting yields no bound")
    _refuse_unused_points(system)  # before the witness lists v weights
    return PCBoundCertificate(
        bound=t0 // a_min,
        method="mod3-weighting",
        witness={"weights": tuple(map(weight, range(v))), "s": s, "t0": t0, "a_min": a_min},
    )


def pc_bound_mod3_auto(system: TripleSystem) -> PCBoundCertificate:
    """The mod-3 weighting bound under the first admissible candidate
    weighting: the point mod 3 (cyclic layouts), then the point's third of
    the range (layered layouts such as Bose systems).  Either, when
    admissible, proves a correct bound."""
    third = system.v // 3  # used only once the order is known to be 0 mod 3
    refusals = []
    for name, rule in (("point mod 3", lambda p: p % 3),
                       ("point's third of the range", lambda p: p // third)):
        try:
            return _weighting_bound(system, rule)
        except ValueError as e:
            refusals.append(f"[{name}: {e}]")
    raise ValueError("no admissible mod-3 weighting found " + " ".join(refusals))


def pc_bound_ws(fact: OneFactorisation) -> PCBoundCertificate:
    """Upper bound 3 f(n) + 1 for the order-(n+2) system built on ``fact``,
    a 1-factorisation of G(n) with n = ``fact.n``.

    Any parallel class either (i) contains the all-infinity triple, or (ii)
    contains an infinity triple over a nonzero-weight factor-0 edge, or (iii)
    pairs two zero-weight edges from factors 1 and 2; the factorisation
    properties cap those cases at 1, 2f(n) and f(n) classes respectively.
    The order comes from the factorisation, so the certificate cannot name
    an order its factorisation was not built for.  Refuses to certify unless
    the properties verify against f(n)."""
    n = fact.n
    f = f_of(n)
    report = verify_factorisation_properties(fact, f)
    if not report.ok:
        raise ValueError(f"factorisation fails the weight properties: {report.first_violation}")
    return PCBoundCertificate(
        bound=3 * f + 1,
        method="ws-weight-argument",
        witness={"n": n, "f": f, "type_i": 1, "type_ii": 2 * f, "type_iii": f},
    )


def pc_bound_ws_on(system: TripleSystem) -> PCBoundCertificate:
    """:func:`pc_bound_ws` for ``system`` if it is the canonical construction
    of its order v, built on ``factorise_G(v-2)``."""
    v = system.v
    if (v - 2) % 6 != 1:
        raise ValueError(f"ws bound needs order v with v-2 = 1 mod 6, got v={v}")
    # The triple count first: it caps the work below by the system's size.
    fact = factorise_G(v - 2) if system.b == v * (v - 1) // 6 else None
    if fact is None or not is_wilson_schreiber(system, fact):
        raise ValueError("input system is not the canonical construction "
                         f"of order {v}; the ws bound does not apply")
    return pc_bound_ws(fact)


# The most nodes the exhaustive-packing certificate spends, enumeration
# included.  On a 2-vCPU host it settles random_sts(15, s), s = 1..200,
# within 143 nodes each, but for the resolvable s = 104, whose search
# reaches 7 classes in 102 nodes, and random_sts(21, s), s = 1..3, at 5, 6
# and 7 classes within 1,735 nodes; at v = 27, 33 and 45 the cap stops it
# in 0.2-0.4 s.
PACKING_CAP = 100_000


def _cheap_bound(system: TripleSystem, refusals: list[str]) -> PCBoundCertificate | None:
    """The least of the mod-3 and Wilson-Schreiber bounds on ``system``
    (the latter on ties), or None; each refusal is appended to
    ``refusals``."""
    best = None
    for name, rule in (("mod3", pc_bound_mod3_auto), ("ws", pc_bound_ws_on)):
        try:
            cert = rule(system)
        except ValueError as e:
            refusals.append(f"[{name}: {e}]")
            continue
        if best is None or cert.bound <= best.bound:
            best = cert
    return best


def _packing_bound(system: TripleSystem, meter: _Meter, bound: int | None) -> PCBoundCertificate:
    """The exhaustive-packing certificate: the packing number P of
    ``system``, proven by :func:`_packing` under ``bound``, when its search
    ends below its stop.  The search spends at most :data:`PACKING_CAP`
    nodes or what ``meter`` leaves, whichever comes first.  A search that
    reaches its stop, or that the nodes or the clock stop, raises
    ValueError."""
    start, cap = meter.nodes, meter.max_nodes
    meter.max_nodes = min(cap, start + PACKING_CAP)
    try:
        enum, best, final, enough = _packing(system, meter, bound)
    finally:
        meter.max_nodes = cap
    if not final:
        raise ValueError(f"the packing search stopped after {meter.nodes - start} nodes")
    if len(best) >= enough:
        raise ValueError(f"{len(best)} disjoint parallel classes reach the search's stop")
    return PCBoundCertificate(
        bound=len(best),
        method="exhaustive-packing",
        witness={"parallel_classes": len(enum.classes), "nodes": meter.nodes - start},
    )


def _least_bound(system: TripleSystem, meter: _Meter) -> PCBoundCertificate:
    """:func:`pc_bound` under ``meter``."""
    v = system.v
    refusals: list[str] = []
    cheap = _cheap_bound(system, refusals)
    # No bound lifts the index above (v+3)/2, so a cheap one there is final.
    if cheap is None or chi_lower_from_certificate(v, cheap) < (v + 3) // 2:
        try:
            return _packing_bound(system, meter, cheap.bound if cheap else None)
        except ValueError as e:
            refusals.append(f"[exhaustive-packing: {e}]")
    if cheap is None:
        raise ValueError("no disjoint parallel-class bound applies " + " ".join(refusals))
    return cheap


def pc_bound(system: TripleSystem, budget: SearchBudget = DEFAULT_BUDGET) -> PCBoundCertificate:
    """The least bound on the number of disjoint parallel classes of
    ``system`` that this module proves.  It tries :func:`pc_bound_mod3_auto`
    and :func:`pc_bound_ws_on`, both O(b), and, unless one of them already
    lifts :func:`chi_lower_from_certificate` to (v+3)/2, the
    exhaustive-packing certificate: the packing number itself, when the
    search of :func:`max_disjoint_pcs` settles it below the least of those
    bounds and the least point degree, within :data:`PACKING_CAP` nodes and
    the budget.  Raises ValueError naming each rule's refusal when none
    applies."""
    return _least_bound(system, _Meter(budget))


def chi_lower_from_certificate(v: int, cert: PCBoundCertificate) -> int:
    """Lower bound on the chromatic index of a Steiner system of order
    v = 3 mod 6 with at most P = ``cert.bound`` disjoint parallel classes.

    In a k-colouring, a class holds at most v/3 of the b = v(v-1)/6
    triples, and one that is not a parallel class at most v/3 - 1; so at
    least F >= b - k(v/3 - 1) classes are parallel classes, pairwise
    disjoint, and F <= P gives k >= (b - P)/(v/3 - 1).  With the counting
    bound m_lower(v) = (v-1)/2 this reads (v+3)/2 for P < (v+3)/6, (v+1)/2
    for P < (v-1)/2, and (v-1)/2 otherwise.  At v = 3 it is m_lower(3)."""
    if v % 6 != 3:
        raise ValueError(f"order {v} must be 3 mod 6")
    per_class = v // 3 - 1
    if not per_class:
        return m_lower(v)
    return max(m_lower(v), -(-(v * (v - 1) // 6 - cert.bound) // per_class))


# ---------------------------------------------------------------------------
# chromatic index


class ChiResult(NamedTuple):
    lower: int
    upper: int
    status: str
    colouring: Colouring | None
    nodes: int
    # The certificate the search derived (see chromatic_index_exact), if any.
    certificate: PCBoundCertificate | None = None

    @property
    def value(self) -> int:
        if self.status != COMPLETE:
            raise ValueError(f"chromatic index not pinned: in [{self.lower}, {self.upper}]")
        return self.lower


def _greedy_colouring(system: TripleSystem) -> list[int]:
    """First-fit assignment: each triple, in index order, goes to the lowest
    class holding none of its points.  As in the exact search, ``pc[p]`` is
    the bitset of the classes holding point p."""
    pc = [0] * system.v
    assign = []
    for a, b, c in system.triples:
        used = pc[a] | pc[b] | pc[c]
        low = ~used & (used + 1)
        pc[a] |= low
        pc[b] |= low
        pc[c] |= low
        assign.append(low.bit_length() - 1)
    return assign


def _colouring_from_assignment(system: TripleSystem, assign: Sequence[int]) -> Colouring:
    """The colouring whose classes, in class order, hold the triples assigned
    to them; classes no triple is assigned to are left out."""
    groups: list[list[int]] = [[] for _ in range(max(assign, default=-1) + 1)]
    for i, c in enumerate(assign):
        groups[c].append(i)
    return Colouring(host=system,
                     classes=tuple(PartialParallelClass(tuple(g)) for g in groups if g))


def _search_k_colouring(system: TripleSystem, k: int, meter: _Meter) -> list[int] | None:
    """Backtracking k-colourability test; returns an assignment or None.

    DSATUR-style branching: each node places the unplaced triple with the
    fewest free classes (open, and holding none of its points), lowest
    index on ties, trying its free classes in index order and then a new
    one.  A class is opened only at the next unused index, which breaks
    class symmetry under any branching order.  A node fails at once when
    all k classes are open and its chosen triple has none free.  Iterative
    so the depth (one level per triple) cannot hit the interpreter
    recursion limit; raises _BudgetStop on budget exhaustion."""
    triples = system.triples
    assign = [-1] * system.b
    pc = [0] * system.v  # bitset of the classes holding each point
    # (index, points) of each unplaced triple, ascending, so ties go to the
    # lowest index
    unplaced = [(i, *t) for i, t in enumerate(triples)]
    used = 0  # classes 0..used-1 are open
    # One frame per placed triple: the triple, its untried classes, and the
    # open-class count before it was placed.
    stack: list[list[int]] = []
    tick = meter.tick
    while True:
        tick()
        if not unplaced:
            return assign
        opened = (1 << used) - 1
        best_n = k + 1
        for i, a, b, c in unplaced:
            free = opened & ~(pc[a] | pc[b] | pc[c])
            n = free.bit_count()
            if n < best_n:
                best_n, best, best_free = n, i, free
                if n <= 1:
                    break
        if used < k:
            best_free |= 1 << used
        if best_free:  # always at the root, where class 0 is free (k >= 1)
            del unplaced[bisect_left(unplaced, (best,))]
            stack.append([best, best_free, used])
        # Place the top frame's next class, backtracking past exhausted frames.
        while True:
            frame = stack[-1]
            i, cands, used = frame
            a, b, c = triples[i]
            if assign[i] >= 0:  # take the triple out of the class it was tried in
                keep = ~(1 << assign[i])
                pc[a] &= keep
                pc[b] &= keep
                pc[c] &= keep
            if cands:
                low = cands & -cands
                frame[1] = cands ^ low
                col = low.bit_length() - 1
                assign[i] = col
                pc[a] |= low
                pc[b] |= low
                pc[c] |= low
                if col == used:
                    used += 1
                break
            assign[i] = -1
            insort(unplaced, (i, a, b, c))
            stack.pop()
            if not stack:
                return None


def chromatic_index_exact(system: TripleSystem,
                          budget: SearchBudget = DEFAULT_BUDGET,
                          upper_witness: Colouring | None = None) -> ChiResult:
    """Exact chromatic index by iterated k-colourability branch-and-bound.

    The lower bound starts at ceil(b / floor(v/3)) (a class holds at most v/3
    triples), the counting bound for the order on a Steiner system.  On a
    Steiner system of order 3 mod 6 (all v(v-1)/6 triples) whose bracket is
    open, the search derives the certificate of :func:`pc_bound`, its
    packing search counted in this call's nodes and clock, and returns it
    as ``certificate``; its bound P raises the lower bound to
    :func:`chi_lower_from_certificate`, ceil((b - P)/(v/3 - 1)): (v+3)/2
    for P < (v+3)/6, and (v+1)/2 for P < (v-1)/2, where the system is not
    resolvable.  No other certificate is taken, so none can be forged.  A
    system with v > 3b (a point on no triple) is refused.  A verified
    witness colouring caps the upper bound.  If the budget runs out
    the result is the interval bracketing the value."""
    meter = _Meter(budget)
    v, b = system.v, system.b
    m_lower(v)  # refuses the order
    _refuse_unused_points(system)
    lower = -(-b // (v // 3))
    if upper_witness is not None:
        report = verify_colouring(system, upper_witness)
        if not report.ok:
            raise ValueError(f"witness colouring invalid: {report.first_violation}")
        best_col = upper_witness
    else:
        best_col = _colouring_from_assignment(system, _greedy_colouring(system))
    upper = best_col.n_classes

    cert = None
    if v % 6 == 3 and b == v * (v - 1) // 6 and lower < upper:
        try:
            cert = _least_bound(system, meter)
            lower = max(lower, chi_lower_from_certificate(v, cert))
        except ValueError:  # no certificate applies
            pass
    try:
        while lower < upper:
            assign = _search_k_colouring(system, lower, meter)
            if assign is None:
                lower += 1
            else:
                best_col = _colouring_from_assignment(system, assign)
                upper = best_col.n_classes
    except _BudgetStop:
        pass
    return ChiResult(lower=lower, upper=upper,
                     status=COMPLETE if lower == upper else INCONCLUSIVE,
                     colouring=best_col, nodes=meter.nodes, certificate=cert)


def _verified_colouring(system: TripleSystem, assign: Sequence[int]) -> Colouring:
    """The colouring of ``assign``, checked by ``verify_colouring``."""
    colouring = _colouring_from_assignment(system, assign)
    report = verify_colouring(system, colouring)
    if not report.ok:  # defensive; the walk only stops on a proper colouring
        raise RuntimeError(f"heuristic produced invalid colouring: {report.first_violation}")
    return colouring


def chromatic_index_heuristic(system: TripleSystem,
                              target: int,
                              seed: int = 0,
                              restarts: int = 12) -> Colouring | None:
    """Try to colour the triples with at most ``target`` classes.

    The first-fit colouring of ``_greedy_colouring`` is returned at once
    when it needs at most ``target`` classes, before any per-restart table
    is built.  Otherwise each restart seeds the classes greedily in a random
    triple order and runs TabuCol (Hertz and de Werra 1987) on the clash
    graph, whose vertices are the triples and whose edges join triples
    sharing a point.  The objective is the number of clashing pairs, the
    sum over points and classes of C(load, 2), where the load of class c at
    point p counts the triples of class c through p; so moving triple i to
    class c changes it by the loads of c at i's three points minus those of
    i's own class (less 3).  Each move takes, over the conflicted triples
    (kept as an ascending list refreshed around each move), the (triple,
    class) move of least change; a tabu move counts only if it would beat
    the best objective of the restart (aspiration), and ties go to the
    restart's random stream.  After triple i leaves class c, the pair (i, c)
    is tabu for ``randrange(10) + 0.6 * n`` moves, n the number of
    conflicted triples after the move (the dynamic tenure of Galinier and
    Hao 1999); the tabu state keeps only the pairs still tabu, at most one
    per move made, never a b x target table.  A restart stops at a proper
    colouring or after max(4000, 250 b) moves.

    Each point's class loads are one int of ``target`` fields, 8, 16 or 32
    bits wide: the least width whose top bit exceeds 6 r + 3, r the most
    triples on a point.  For a conflicted triple, the sum of its points'
    ints plus a constant chosen by its own class's load holds, in every
    field, the move's change plus 3 r (0 to 6 r + 3); the top bit, set,
    excludes the triple's own class and each tabu class that aspiration
    does not free.  The rows of all conflicted triples, joined into one
    buffer, give the least change by ``min`` and its ties, in ascending
    (triple, class) order, by ``index``: the moves and random draws of
    scoring each class in turn.

    Returns a verified colouring on success, None on failure; failure
    proves nothing.  A target below the counting bound or above b (no
    colouring needs more classes than triples) or fewer than one restart
    raises ValueError."""
    v, b = system.v, system.b
    if target < m_lower(v):
        raise ValueError(f"target {target} below the counting bound {m_lower(v)}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if target > b:
        raise ValueError(f"target {target} above the triple count {b}")
    first_fit = _greedy_colouring(system)
    if max(first_fit, default=-1) < target:
        return _verified_colouring(system, first_fit)
    triples = system.triples
    iterations = max(4000, 250 * b)
    on_point = _incidence(system)
    r = max(p.bit_count() for p in on_point)
    width, code = next((w, t) for w, t in ((8, "B"), (16, "H"), (32, "I"))
                       if 6 * r + 3 < 1 << (w - 1))
    nbytes = target * width // 8
    endian = sys.byteorder  # an array reads its items in the machine's byte order
    field = (1 << width) - 1
    top = 1 << (width - 1)
    unit = sum(1 << width * c for c in range(target))  # 1 in every field
    offset = 3 * r
    lift = [(offset + 3 - k) * unit for k in range(3 * r + 1)]  # by the own class's load

    def unpack(x: int) -> array:
        return array(code, x.to_bytes(nbytes, endian))

    for restart in range(restarts):
        rng = substream(seed, "chi-heur", restart)
        order = list(range(b))
        rng.shuffle(order)

        assign = [-1] * b
        members = [0] * target  # each class's triples, as a bitset
        load = [0] * v  # per-point class loads, packed
        for i in order:
            a, b2, c2 = triples[i]
            free = [c for c, n in enumerate(unpack(load[a] | load[b2] | load[c2])) if not n]
            c = rng.choice(free) if free else rng.randrange(target)
            assign[i] = c
            members[c] |= 1 << i
            one = 1 << width * c
            load[a] += one
            load[b2] += one
            load[c2] += one

        def clash(i: int) -> int:
            a, b2, c2 = triples[i]
            return (load[a] + load[b2] + load[c2]) >> width * assign[i] & field

        is_conflicted = [clash(i) > 3 for i in range(b)]
        conflicted = [i for i in range(b) if is_conflicted[i]]

        def refresh(j: int) -> None:
            now = clash(j) > 3
            if now != is_conflicted[j]:
                is_conflicted[j] = now
                if now:
                    insort(conflicted, j)
                else:
                    del conflicted[bisect_left(conflicted, j)]

        clashes = sum(n * (n - 1) // 2 for x in load for n in unpack(x))
        best = clashes
        # triple -> {class it left: last move that class is tabu}, kept live
        tabu: dict[int, dict[int, float]] = {}
        for move in range(iterations):
            if not conflicted:
                break
            floor = best - clashes  # a tabu move must take the objective below best
            rows = []
            append = rows.append
            for i in conflicted:
                a, b2, c2 = triples[i]
                s = load[a] + load[b2] + load[c2]
                shift = width * assign[i]
                own = s >> shift & field
                row = (s + lift[own]) | top << shift
                held = tabu.get(i)
                if held:
                    bar = own - 3 + floor
                    for c, until in held.items():
                        if until >= move and s >> width * c & field >= bar:
                            row |= top << width * c
                append(row.to_bytes(nbytes, endian))
            scores = b"".join(rows)
            if width > 8:  # bytes scan fastest, but hold 8-bit fields alone
                scores = array(code, scores)
            low = min(scores)
            if low & top:  # every move is tabu: wait for a tenure to run out
                continue
            pos = -1
            for _ in range(rng.choice(range(scores.count(low))) + 1):
                pos = scores.index(low, pos + 1)
            i, new = conflicted[pos // target], pos % target
            old = assign[i]
            step = (1 << width * new) - (1 << width * old)
            for p in triples[i]:
                load[p] += step
            assign[i] = new
            bit = 1 << i
            members[old] ^= bit
            members[new] |= bit
            refresh(i)
            near = (members[old] | members[new]) ^ bit  # the others of old and new
            for p in triples[i]:
                rest = on_point[p] & near
                while rest:
                    j = rest & -rest
                    rest ^= j
                    refresh(j.bit_length() - 1)
            clashes += low - offset
            best = min(best, clashes)
            held = tabu[i] = {c: u for c, u in tabu.get(i, {}).items() if u > move}
            held[old] = move + rng.randrange(10) + 0.6 * len(conflicted)
        if not conflicted:
            return _verified_colouring(system, assign)
    return None


# ---------------------------------------------------------------------------
# order-by-order dispatch


class PipelineReport(NamedTuple):
    """Verdict for one order v = 3 mod 6: does some system of order v have
    chromatic index at least (v+3)/2, and by which route."""

    v: int
    route: str           # unique | external | fixture | possible-exception | ws-certificate
    holds: bool | None   # None = undecided at this order
    chi_lower: int
    chi_exact: int | None
    pc_bound: int | None
    f: int | None
    message: str


def theorem1_pipeline(v: int) -> PipelineReport:
    """Classify order v:

    * v in {3, 9}: the unique systems have chromatic index (v-1)/2.
    * v = 21: relies on the known order-21 systems with no parallel classes
      (external result, reported as such).
    * v = 33: the exact search, given the embedded fixture's colouring as
      its witness, derives the fixture's certificate (at most 5 < 6
      disjoint parallel classes) and so pins chromatic index 18 with no
      search node.
    * otherwise: the verified 1-factorisation of G(v-2) yields the
      disjoint-PC certificate P = 3 f(v-2)+1 for the Wilson-Schreiber system
      of order v, and ``chi_lower`` is :func:`chi_lower_from_certificate`.
      Below (v+3)/6, P proves chromatic index >= (v+3)/2.  Otherwise the
      order is a possible exception, undecided here; the exceptions (45,
      75, 129, 513 below 1000) come from the certificate, not from a list.
      Below (v-1)/2, as at each of these, P shows that the system is not
      resolvable, so its chromatic index is >= (v+1)/2.  The system itself
      is not built here: the construction's validity is checked by the
      acceptance suite (C4) and by ``stskit construct wilson-schreiber``,
      which runs ``verify_sts``.

    Each route sets only its bounds and message.  The verdict follows from
    the bounds by one rule: it holds when ``chi_lower`` reaches (v+3)/2,
    fails when the exact index is known and below it, and is undecided
    otherwise.
    """
    if v < 3 or v % 6 != 3:
        raise ValueError(f"v must be 3 mod 6 and >= 3, got {v}")
    high = (v + 3) // 2
    chi_exact = pc_bound = f = None
    if v in (3, 9):
        route = "unique"
        chi_lower = chi_exact = (v - 1) // 2
        message = f"the unique system of order {v} has chromatic index {chi_exact}"
    elif v == 21:
        route, chi_lower, pc_bound = "external", 12, 0
        message = ("external: known order-21 systems with no parallel classes "
                   "have chromatic index >= 12")
    elif v == 33:
        labelled, colouring = sts33_fixture()
        chi = chromatic_index_exact(labelled.system, upper_witness=colouring)
        route, chi_lower, chi_exact, pc_bound = ("fixture", chi.lower, chi.value,
                                                 chi.certificate.bound)
        message = (f"embedded order-33 system: at most {pc_bound} disjoint "
                   f"parallel classes, chromatic index {chi.value}")
    else:
        n = v - 2
        cert = pc_bound_ws(factorise_G(n))
        chi_lower, pc_bound, f = chi_lower_from_certificate(v, cert), cert.bound, cert.witness["f"]
        threshold = (v + 3) // 6
        if chi_lower >= high:
            route = "ws-certificate"
            message = (f"the order-{v} construction has at most {cert.bound} "
                       f"disjoint parallel classes < {threshold}, so chromatic "
                       f"index >= {chi_lower}")
        else:
            route = "possible-exception"
            message = (f"possible exception: 3 f({n})+1 = {cert.bound} "
                       f"is not below (v+3)/6 = {threshold}")
            if chi_lower > m_lower(v):
                message += (f"; the order-{v} construction is not resolvable, so "
                            f"chromatic index >= {chi_lower}")
    holds = (True if chi_lower >= high else
             False if chi_exact is not None and chi_exact < high else None)
    return PipelineReport(v=v, route=route, holds=holds, chi_lower=chi_lower,
                          chi_exact=chi_exact, pc_bound=pc_bound, f=f, message=message)
