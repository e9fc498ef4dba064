"""Search and bounding engine: parallel-class enumeration, maximum sets of
disjoint parallel classes, structural upper-bound certificates, and
exact/heuristic chromatic index.

Searches are deterministic given (instance, budget, seed).  A blown budget
never truncates silently: results carry a status of "complete" or
"inconclusive", and inconclusive values are first-class, not exceptions.
"""

from __future__ import annotations

import time
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .constructions import sts33_fixture
from .core import (
    Colouring,
    PartialParallelClass,
    TripleSystem,
    m_lower,
    min_pc_for_low_chi,
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
    "pc_bound_mod3",
    "pc_bound_mod3_auto",
    "pc_bound_ws",
    "theorem1_pipeline",
]

COMPLETE = "complete"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SearchBudget:
    """Node/time caps for the exhaustive searches.

    ``max_classes`` optionally caps how many parallel classes an enumeration
    may collect before giving up.  Exceeding any cap yields an explicit
    inconclusive status.  A NaN time cap or a class cap below 1 is refused:
    the first would switch the clock off, the second still returns a class.
    """

    max_nodes: int = 100_000_000
    max_seconds: float = 60.0
    max_classes: int | None = None

    def __post_init__(self) -> None:
        if self.max_nodes < 0 or not self.max_seconds >= 0:  # NaN fails >= 0
            raise ValueError("budget limits must be nonnegative")
        if self.max_classes is not None and self.max_classes < 1:
            raise ValueError(f"max_classes must be >= 1, got {self.max_classes}")


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


@dataclass(frozen=True)
class PCEnumeration:
    classes: tuple[PartialParallelClass, ...]
    status: str
    nodes: int


def _refuse_unused_points(system: TripleSystem) -> None:
    """Refuse v > 3b: some point then lies on no triple, and a per-point
    table would be sized by the header's v alone, not by the triples."""
    if system.v > 3 * system.b:
        raise ValueError(f"order {system.v} exceeds 3 x {system.b} triples: "
                         "some point lies on no triple")


def _incidence(system: TripleSystem) -> list[list[int]]:
    """Each point's triple indices, ascending."""
    on_point: list[list[int]] = [[] for _ in range(system.v)]
    for i, t in enumerate(system.triples):
        for p in t:
            on_point[p].append(i)
    return on_point


def enumerate_parallel_classes(system: TripleSystem,
                               budget: SearchBudget = DEFAULT_BUDGET) -> PCEnumeration:
    """All parallel classes (v/3 disjoint triples covering every point), by
    exact-cover search branching on the uncovered point with the fewest
    admissible triples.  Each node carries the bitset of live triples; a
    point's candidates are its incidence bitset masked by it, and a chosen
    triple clears its three points' bitsets from it.  The clock is read at
    every node from the call's start.  Output sorted lexicographically.
    A system with v > 3b (a point on no triple) is refused."""
    meter = _Meter(budget)
    v = system.v
    if v % 6 != 3:
        raise ValueError(f"parallel classes need v = 3 mod 6, got v={v}")
    _refuse_unused_points(system)
    masks = [1 << t[0] | 1 << t[1] | 1 << t[2] for t in system.triples]
    on_point: list[int] = []  # bitset of the triples through each point, built linearly
    for ids in _incidence(system):
        buf = bytearray((system.b + 7) // 8)
        for i in ids:
            buf[i >> 3] |= 1 << (i & 7)
        on_point.append(int.from_bytes(buf, "little"))
    full = (1 << v) - 1
    above = system.b + 1  # more candidates than any point has: the first point is taken
    tick = meter.tick
    found: list[tuple[int, ...]] = []

    def rec(covered: int, live: int, chosen: list[int]) -> None:
        tick()
        if covered == full:
            found.append(tuple(sorted(chosen)))
            if budget.max_classes is not None and len(found) >= budget.max_classes:
                raise _BudgetStop
            return
        best_n = above
        best = 0
        for p in range(v):
            if covered >> p & 1:
                continue
            cand = on_point[p] & live
            n = cand.bit_count()
            if n < best_n:
                if not n:
                    return
                best_n, best = n, cand
        while best:
            low = best & -best
            best ^= low
            i = low.bit_length() - 1
            a, b, c = system.triples[i]
            chosen.append(i)
            rec(covered | masks[i], live & ~(on_point[a] | on_point[b] | on_point[c]), chosen)
            chosen.pop()

    status = COMPLETE
    try:
        rec(0, (1 << system.b) - 1, [])
    except _BudgetStop:
        status = INCONCLUSIVE
    found.sort()
    return PCEnumeration(
        classes=tuple(PartialParallelClass(c) for c in found),
        status=status,
        nodes=meter.nodes,
    )


@dataclass(frozen=True)
class MaxDisjointResult:
    size: int
    witness: tuple[PartialParallelClass, ...]
    status: str
    nodes: int
    upper_bound: int
    n_parallel_classes: int


def max_disjoint_pcs(system: TripleSystem,
                     budget: SearchBudget = DEFAULT_BUDGET) -> MaxDisjointResult:
    """Maximum number of pairwise triple-disjoint parallel classes, by
    branch-and-bound set packing over the enumerated classes.

    Optimal when status is "complete"; on budget exhaustion reports the best
    packing found with an upper bound: the trivial cap (v-1)/2, or the class
    count when that is smaller and enumeration finished.
    The budget covers the whole call: packing gets what enumeration left."""
    meter = _Meter(budget)
    enum = enumerate_parallel_classes(system, budget)
    meter.nodes = enum.nodes
    classes = enum.classes
    k = len(classes)
    masks = [0] * k
    for idx, cls in enumerate(classes):
        for i in cls.indices:
            masks[idx] |= 1 << i

    # Greedy seed, then depth-first packing with count + remaining pruning.
    best: list[int] = []
    taken_mask = 0
    for idx in range(k):
        if masks[idx] & taken_mask == 0:
            best.append(idx)
            taken_mask |= masks[idx]
    best_sol = list(best)

    def pack(cands: list[int], chosen: list[int]) -> None:
        nonlocal best_sol
        meter.tick()
        if len(chosen) > len(best_sol):
            best_sol = list(chosen)
        for j, idx in enumerate(cands):
            if len(chosen) + len(cands) - j <= len(best_sol):
                return
            chosen.append(idx)
            pack([c for c in cands[j + 1:] if masks[c] & masks[idx] == 0], chosen)
            chosen.pop()

    status = enum.status
    if status == COMPLETE:
        try:
            pack(list(range(k)), [])
        except _BudgetStop:
            status = INCONCLUSIVE
    if status == COMPLETE:
        upper = len(best_sol)
    elif enum.status == COMPLETE:  # all classes known, packing unfinished
        upper = min(k, (system.v - 1) // 2)
    else:
        upper = (system.v - 1) // 2  # enumeration unfinished: only the trivial cap
    return MaxDisjointResult(
        size=len(best_sol),
        witness=tuple(classes[i] for i in best_sol),
        status=status,
        nodes=meter.nodes,
        upper_bound=upper,
        n_parallel_classes=k,
    )


# ---------------------------------------------------------------------------
# bound certificates


@dataclass(frozen=True)
class PCBoundCertificate:
    """A proven upper bound on the number of pairwise disjoint parallel
    classes of the host system, with the data that proves it."""

    bound: int
    method: str
    witness: dict = field(default_factory=dict)


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
    last_error: Exception | None = None
    for rule in (lambda p: p % 3, lambda p: p // third):
        try:
            return _weighting_bound(system, rule)
        except ValueError as e:
            last_error = e
    raise ValueError(f"no admissible mod-3 weighting found: {last_error}")


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


def chi_lower_from_certificate(v: int, cert: PCBoundCertificate) -> int:
    """Lower bound on the chromatic index implied by a disjoint-PC bound:
    fewer than (v+3)/6 disjoint parallel classes forces index >= (v+3)/2."""
    if cert.bound < min_pc_for_low_chi(v):
        return (v + 3) // 2
    return m_lower(v)


# ---------------------------------------------------------------------------
# chromatic index


@dataclass(frozen=True)
class ChiResult:
    lower: int
    upper: int
    status: str
    colouring: Colouring | None
    nodes: int

    @property
    def value(self) -> int:
        if self.status != COMPLETE:
            raise ValueError(f"chromatic index not pinned: in [{self.lower}, {self.upper}]")
        return self.lower


def _greedy_colouring(system: TripleSystem) -> list[int]:
    """First-fit assignment: each triple, in index order, goes to the first
    class holding none of its points."""
    class_masks: list[int] = []
    assign = []
    for a, b, c in system.triples:
        mask = 1 << a | 1 << b | 1 << c
        for col, cm in enumerate(class_masks):
            if cm & mask == 0:
                class_masks[col] |= mask
                break
        else:
            col = len(class_masks)
            class_masks.append(mask)
        assign.append(col)
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
                          pc_certificate: PCBoundCertificate | None = None,
                          upper_witness: Colouring | None = None) -> ChiResult:
    """Exact chromatic index by iterated k-colourability branch-and-bound.

    The lower bound starts at ceil(b / floor(v/3)) (a class holds at most v/3
    triples), the counting bound for the order on a Steiner system.  A
    disjoint-PC certificate with bound < (v+3)/6 raises it to (v+3)/2; as its
    counting needs all v(v-1)/6 triples, any other count refuses it.  A
    system with v > 3b (a point on no triple) is refused.  A verified witness
    colouring caps the upper bound.  If the budget runs out the result is
    the interval bracketing the value."""
    meter = _Meter(budget)
    v, b = system.v, system.b
    m_lower(v)  # refuses the order
    _refuse_unused_points(system)
    lower = -(-b // (v // 3))
    if pc_certificate is not None:
        if b != v * (v - 1) // 6:
            raise ValueError(f"a certificate needs all v(v-1)/6 triples; the system has {b}")
        if v % 6 == 3:
            lower = chi_lower_from_certificate(v, pc_certificate)

    if upper_witness is not None:
        report = verify_colouring(system, upper_witness)
        if not report.ok:
            raise ValueError(f"witness colouring invalid: {report.first_violation}")
        best_col = upper_witness
    else:
        best_col = _colouring_from_assignment(system, _greedy_colouring(system))
    upper = best_col.n_classes
    if lower > upper:  # a sound certificate and a verified witness cannot cross
        raise ValueError(f"lower bound {lower} exceeds witness upper bound {upper}; "
                         f"the certificate does not apply to this system")

    try:
        while lower < upper:
            assign = _search_k_colouring(system, lower, meter)
            if assign is None:
                lower += 1
            else:
                best_col = _colouring_from_assignment(system, assign)
                upper = best_col.n_classes
                break
    except _BudgetStop:
        return ChiResult(lower=lower, upper=upper, status=INCONCLUSIVE,
                         colouring=best_col, nodes=meter.nodes)
    return ChiResult(lower=upper, upper=upper, status=COMPLETE,
                     colouring=best_col, nodes=meter.nodes)


def chromatic_index_heuristic(system: TripleSystem,
                              target: int,
                              seed: int = 0,
                              restarts: int = 12) -> Colouring | None:
    """Try to colour the triples with at most ``target`` classes.

    Each restart seeds the classes greedily in a random triple order and then
    runs a min-conflicts repair walk: pick a conflicted triple, move it to
    the class where it clashes least (random tie-break, occasional random
    kick).  The ascending list of conflicted triples is kept incrementally:
    a move refreshes the triples of the two classes involved on the moved
    triple's per-point incidence lists (itself among them), so the list
    (and with it every random draw) is the one a full rescan would give.
    Returns a verified colouring on success, None on failure; failure proves
    nothing.  A target below the counting bound or above b (no colouring
    needs more classes than triples) or fewer than one restart raises
    ValueError."""
    v, b = system.v, system.b
    if target < m_lower(v):
        raise ValueError(f"target {target} below the counting bound {m_lower(v)}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if target > b:
        raise ValueError(f"target {target} above the triple count {b}")
    triples = system.triples
    iterations = max(4000, 250 * b)
    on_point = _incidence(system)

    for r in range(restarts):
        rng = substream(seed, "chi-heur", r)
        order = list(range(b))
        rng.shuffle(order)

        assign = [-1] * b
        load = [[0] * target for _ in range(v)]  # per-point class usage
        for i in order:
            la, lb, lc = (load[p] for p in triples[i])
            free = [c for c in range(target) if not (la[c] or lb[c] or lc[c])]
            c = rng.choice(free) if free else rng.randrange(target)
            assign[i] = c
            la[c] += 1
            lb[c] += 1
            lc[c] += 1

        def clash(i: int, c: int) -> int:
            a, b2, c2 = triples[i]
            return load[a][c] + load[b2][c] + load[c2][c]

        is_conflicted = [clash(i, assign[i]) > 3 for i in range(b)]
        conflicted = [i for i in range(b) if is_conflicted[i]]

        def refresh(j: int) -> None:
            now = clash(j, assign[j]) > 3
            if now != is_conflicted[j]:
                is_conflicted[j] = now
                if now:
                    insort(conflicted, j)
                else:
                    del conflicted[bisect_left(conflicted, j)]

        for _ in range(iterations):
            if not conflicted:
                colouring = _colouring_from_assignment(system, assign)
                report = verify_colouring(system, colouring)
                if not report.ok:  # defensive; repair loop guarantees this
                    raise RuntimeError(f"heuristic produced invalid colouring: "
                                       f"{report.first_violation}")
                return colouring
            i = rng.choice(conflicted)
            old = assign[i]
            la, lb, lc = (load[p] for p in triples[i])
            la[old] -= 1
            lb[old] -= 1
            lc[old] -= 1
            if rng.random() < 0.08:
                new = rng.randrange(target)
            else:
                scores = [x + y + z for x, y, z in zip(la, lb, lc)]
                best = min(scores)
                new = rng.choice([c for c, sc in enumerate(scores) if sc == best])
            assign[i] = new
            la[new] += 1
            lb[new] += 1
            lc[new] += 1
            if new != old:
                for p in triples[i]:
                    for j in on_point[p]:  # i itself is in all three lists
                        if assign[j] == old or assign[j] == new:
                            refresh(j)
    return None


# ---------------------------------------------------------------------------
# order-by-order dispatch


@dataclass(frozen=True)
class PipelineReport:
    """Verdict for one order v = 3 mod 6: does some system of order v have
    chromatic index at least (v+3)/2, and by which route."""

    v: int
    route: str           # unique | external | fixture | possible-exception | ws-certificate
    holds: bool | None   # None = undecided at this order
    chi_lower: int | None
    chi_exact: int | None
    pc_bound: int | None
    f_value: int | None
    message: str


def theorem1_pipeline(v: int) -> PipelineReport:
    """Classify order v:

    * v in {3, 9}: the unique systems have chromatic index (v-1)/2.
    * v = 21: relies on the known order-21 systems with no parallel classes
      (external result, reported as such).
    * v = 33: the embedded fixture has at most 5 < 6 disjoint parallel
      classes, hence chromatic index 18 (witnessed by its colouring).
    * otherwise: the verified 1-factorisation of G(v-2) yields the
      disjoint-PC certificate 3 f(v-2)+1 for the Wilson-Schreiber system of
      order v, which is checked against (v+3)/6.  Below it, the certificate
      proves chromatic index >= (v+3)/2.  Otherwise the order is a possible
      exception, undecided here; the exceptions (45, 75, 129, 513 below
      1000) come from the certificate, not from a list.  The system itself
      is not built here: the construction's validity is checked by the
      acceptance suite (C4) and by ``stskit construct wilson-schreiber``,
      which runs ``verify_sts``.
    """
    if v < 3 or v % 6 != 3:
        raise ValueError(f"v must be 3 mod 6 and >= 3, got {v}")
    if v in (3, 9):
        chi = (v - 1) // 2
        return PipelineReport(
            v=v, route="unique", holds=False, chi_lower=chi, chi_exact=chi,
            pc_bound=None, f_value=None,
            message=f"the unique system of order {v} has chromatic index {chi}",
        )
    if v == 21:
        return PipelineReport(
            v=v, route="external", holds=True, chi_lower=12, chi_exact=None,
            pc_bound=0, f_value=None,
            message="external: known order-21 systems with no parallel classes "
                    "have chromatic index >= 12",
        )
    if v == 33:
        labelled, colouring = sts33_fixture()
        cert = pc_bound_mod3_auto(labelled.system)
        chi = chromatic_index_exact(labelled.system, pc_certificate=cert,
                                    upper_witness=colouring)
        return PipelineReport(
            v=v, route="fixture", holds=True, chi_lower=chi.lower,
            chi_exact=chi.value, pc_bound=cert.bound, f_value=None,
            message=f"embedded order-33 system: at most {cert.bound} disjoint "
                    f"parallel classes, chromatic index {chi.value}",
        )
    n = v - 2
    cert = pc_bound_ws(factorise_G(n))
    chi_lower = chi_lower_from_certificate(v, cert)
    threshold = min_pc_for_low_chi(v)
    if chi_lower == m_lower(v):
        return PipelineReport(
            v=v, route="possible-exception", holds=None, chi_lower=chi_lower,
            chi_exact=None, pc_bound=cert.bound, f_value=cert.witness["f"],
            message=f"possible exception: 3 f({n})+1 = {cert.bound} "
                    f"is not below (v+3)/6 = {threshold}",
        )
    return PipelineReport(
        v=v, route="ws-certificate", holds=True, chi_lower=chi_lower,
        chi_exact=None, pc_bound=cert.bound, f_value=cert.witness["f"],
        message=f"the order-{v} construction has at most {cert.bound} "
                f"disjoint parallel classes < {threshold}, so chromatic "
                f"index >= {chi_lower}",
    )
