from __future__ import annotations

import hashlib
import tracemalloc
from dataclasses import replace
from itertools import combinations, count
from types import SimpleNamespace

import pytest

from stskit import (
    TripleSystem,
    SearchBudget,
    bose_half_sum,
    chi_lower_from_certificate,
    chromatic_index_exact,
    chromatic_index_heuristic,
    enumerate_parallel_classes,
    f_of,
    factorise_G,
    max_disjoint_pcs,
    pc_bound_mod3,
    pc_bound_mod3_auto,
    pc_bound_ws,
    random_sts,
    sts33_fixture,
    theorem1_pipeline,
    verify_colouring,
    wilson_schreiber,
)
from stskit import analysis
from stskit.analysis import COMPLETE, INCONCLUSIVE


# ---------------------------------------------------------------------------
# parallel-class enumeration


def test_sts9_has_four_parallel_classes(sts9_grid):
    enum = enumerate_parallel_classes(sts9_grid)
    assert enum.status == COMPLETE and len(enum.classes) == 4


def test_enumeration_rejects_wrong_residue(fano):
    with pytest.raises(ValueError):
        enumerate_parallel_classes(fano)


def _naive_parallel_classes(system):
    v = system.v
    size = v // 3
    masks = [1 << a | 1 << b | 1 << c for a, b, c in system.triples]
    full = (1 << v) - 1
    out = []
    for combo in combinations(range(len(masks)), size):
        m = 0
        for i in combo:
            if m & masks[i]:
                break
            m |= masks[i]
        else:
            if m == full:
                out.append(combo)
    return out


def test_enumeration_matches_naive_oracle(sts9_grid):
    # All 84 triples on 9 points is no Steiner system: each point lies in 28
    # triples, more than v, and the search must still branch on one of them.
    k9 = TripleSystem.from_triples(9, list(combinations(range(9), 3)))
    systems = [sts9_grid, wilson_schreiber(13).system, bose_half_sum(5).system,
               random_sts(15, seed=6), random_sts(9, seed=2), k9]
    for system in systems:
        enum = enumerate_parallel_classes(system)
        assert [c.indices for c in enum.classes] == sorted(_naive_parallel_classes(system))


def test_enumeration_budget_is_inconclusive_not_fatal(sts9_grid):
    enum = enumerate_parallel_classes(sts9_grid, SearchBudget(max_nodes=2))
    assert enum.status == INCONCLUSIVE
    assert enum.nodes == 2  # a budget stop reports exactly the cap


def test_class_cap_budget(sts9_grid):
    enum = enumerate_parallel_classes(sts9_grid, SearchBudget(max_classes=2))
    assert enum.status == INCONCLUSIVE and len(enum.classes) == 2


def test_enumeration_refuses_repeated_point():
    # Four triples that would pass as a parallel class of STS(9) if (0, 0, 1)
    # were a triple: the system cannot be built, so no search sees it.
    with pytest.raises(ValueError, match=r"triple \(0, 0, 1\) repeats a point"):
        TripleSystem(9, ((0, 0, 1), (2, 3, 4), (5, 6, 7), (8, 8, 8)))


@pytest.mark.parametrize("search", [
    lambda: enumerate_parallel_classes(random_sts(27, seed=1)),
    lambda: max_disjoint_pcs(wilson_schreiber(25).system),
    lambda: chromatic_index_exact(random_sts(15, seed=1)),
], ids=["enumerate", "max-disjoint", "chi-exact"])
def test_time_cap_is_read_at_every_node(monkeypatch, search):
    # Each reading of the clock comes ten default time caps after the one
    # before, so the deadline has passed at the first node of every search;
    # a clock read every 4096 nodes let them run on that long.
    clock = count(0, 10 * SearchBudget().max_seconds)
    monkeypatch.setattr(analysis, "time", SimpleNamespace(monotonic=clock.__next__))
    result = search()
    assert result.status == INCONCLUSIVE
    assert result.nodes <= 2


@pytest.mark.parametrize("caps", [{"max_classes": 0}, {"max_classes": -3},
                                  {"max_seconds": float("nan")}],
                         ids=["classes-0", "classes-neg", "seconds-nan"])
def test_budget_refuses_caps_it_cannot_honour(caps):
    # A class cap below 1 still returns one class; a NaN time cap never fires.
    with pytest.raises(ValueError):
        SearchBudget(**caps)


# ---------------------------------------------------------------------------
# max disjoint parallel classes


def test_sts9_max_disjoint_is_four(sts9_grid):
    result = max_disjoint_pcs(sts9_grid)
    assert (result.size, result.status) == (4, COMPLETE)
    used = [i for cls in result.witness for i in cls.indices]
    assert sorted(used) == list(range(12))  # a full resolution


def test_ws13_max_disjoint_is_one():
    result = max_disjoint_pcs(wilson_schreiber(13).system)
    assert (result.size, result.status) == (1, COMPLETE)
    assert result.size == 3 * f_of(13) + 1


def test_max_disjoint_inconclusive_budget(sts9_grid):
    result = max_disjoint_pcs(sts9_grid, SearchBudget(max_nodes=2))
    assert result.status == INCONCLUSIVE
    assert result.nodes == 2
    assert result.upper_bound == 4  # only the trivial (v-1)/2 cap remains


def test_max_disjoint_budget_covers_enumeration_and_packing():
    # Enumerating the classes of this system takes 34403 nodes and packing
    # needs about 1000 more, so a 34930-node budget runs out while packing.
    budget = SearchBudget(max_nodes=34930)
    result = max_disjoint_pcs(wilson_schreiber(25).system, budget)
    assert result.nodes <= budget.max_nodes
    assert result.status == INCONCLUSIVE
    assert result.upper_bound == 13  # (v-1)/2, not the class count


# ---------------------------------------------------------------------------
# bound certificates


def test_mod3_bound_bose15():
    labelled = bose_half_sum(5)
    cert = pc_bound_mod3_auto(labelled.system)
    assert cert.bound == 2
    assert cert.witness["t0"] == 5 and cert.witness["a_min"] == 2
    assert cert.witness["weights"] == (0,) * 5 + (1,) * 5 + (2,) * 5  # the thirds rule


def test_mod3_bound_fixture():
    labelled, _ = sts33_fixture()
    assert pc_bound_mod3_auto(labelled.system).bound == 5


def test_mod3_bound_bose33():
    labelled = bose_half_sum(11)
    assert pc_bound_mod3_auto(labelled.system).bound == 5


def test_mod3_bound_rejects_bad_weightings(sts9_grid):
    labelled = bose_half_sum(5)
    system = labelled.system
    with pytest.raises(ValueError, match="0,1,2"):
        pc_bound_mod3(system, [3] * 15)
    with pytest.raises(ValueError, match="total"):
        pc_bound_mod3(system, [1] + [0] * 14)
    # Relabelling the layers by a Z_3 automorphism is still admissible.
    assert pc_bound_mod3(system, [0] * 5 + [2] * 5 + [1] * 5).bound == 2
    with pytest.raises(ValueError, match="expected 0 or"):
        # swapping two points' weights across layers breaks two-valuedness
        swapped = [1] + [0] * 4 + [0] + [1] * 4 + [2] * 5
        pc_bound_mod3(system, swapped)
    with pytest.raises(ValueError, match="no bound"):
        pc_bound_mod3(system, [0] * 15)


def test_mod3_auto_memory_is_set_by_the_triples_not_v():
    # Both candidate weightings are refused on the one triple, before any
    # list of v weights is built.
    system = TripleSystem(3_000_003, ((0, 1, 2),))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as exc:
            pc_bound_mod3_auto(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == ("no admissible mod-3 weighting found: every triple has "
                              "zero weight-sum; the weighting yields no bound")
    assert peak < 1_000_000
    # v/3 divisible by 3 leaves the zero-sum count unconstrained (a_min = 0).
    toy = TripleSystem.from_triples(9, [(0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 3, 6)])
    with pytest.raises(ValueError, match="divisible by 3"):
        pc_bound_mod3(toy, [1, 1, 1, 0, 0, 0, 0, 0, 0])


def test_points_on_no_triple_are_refused_before_any_per_point_table():
    # Two triples cover at most 6 of 3,000,003 points; the enumeration's
    # incidence, the exact search's class bitsets and the mod-3 witness would
    # each hold v entries.
    system = TripleSystem(3_000_003, ((0, 1, 2), (0, 1, 3)))
    calls = (enumerate_parallel_classes, max_disjoint_pcs, chromatic_index_exact,
             lambda s: analysis._weighting_bound(s, lambda p: p % 3))
    tracemalloc.start()
    try:
        for call in calls:
            with pytest.raises(ValueError, match="exceeds 3 x 2 triples: some point lies"):
                call(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    # v = 3b is the largest order three disjoint triples can cover.
    assert len(enumerate_parallel_classes(
        TripleSystem(9, ((0, 1, 2), (3, 4, 5), (6, 7, 8)))).classes) == 1
    with pytest.raises(ValueError, match="order 9 exceeds 3 x 2 triples"):
        chromatic_index_exact(TripleSystem(9, ((0, 1, 2), (3, 4, 5))))


@pytest.mark.parametrize("n,search", [
    (301, lambda system: enumerate_parallel_classes(system, SearchBudget(max_nodes=1))),
    (151, lambda system: chromatic_index_heuristic(system, 153, restarts=1)),
], ids=["enumerate", "chi-heuristic"])
def test_search_memory_is_linear_in_the_triples(n, search):
    # Clashes come from the per-point incidence lists.  A table of clashing
    # triples per triple peaked at 31.6 MB (enumeration bitsets) and 33.4 MB
    # (heuristic neighbour sets) on these systems.
    system = wilson_schreiber(n).system
    tracemalloc.start()
    try:
        search(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000


@pytest.mark.parametrize("n,expected", [(13, 1), (7, 4), (127, 28)])
def test_ws_bound(n, expected):
    cert = pc_bound_ws(factorise_G(n))
    assert cert.bound == expected == 3 * f_of(n) + 1
    assert cert.witness["n"] == n


def test_ws_bound_reads_order_from_factorisation():
    # The order is the factorisation's own; G(7)'s matchings relabelled as
    # G(19)'s are refused by the verifier.
    fact = factorise_G(7)
    with pytest.raises(ValueError, match="weight properties"):
        pc_bound_ws(replace(fact, n=19))


def test_ws_bound_refuses_unverified_factorisation():
    fact = factorise_G(7)
    e1, e2 = fact.factors[1][0], fact.factors[2][0]
    tampered = replace(
        fact,
        factors=(fact.factors[0],
                 tuple(sorted(set(fact.factors[1]) - {e1} | {e2})),
                 tuple(sorted(set(fact.factors[2]) - {e2} | {e1}))))
    with pytest.raises(ValueError, match="weight properties"):
        pc_bound_ws(tampered)


def test_chi_lower_from_certificate():
    labelled, _ = sts33_fixture()
    cert = pc_bound_mod3_auto(labelled.system)
    assert chi_lower_from_certificate(33, cert) == 18  # bound 5 < 6
    cert21 = pc_bound_ws(factorise_G(19))
    assert chi_lower_from_certificate(21, cert21) == 10  # bound 4 = (21+3)/6: no gain


# ---------------------------------------------------------------------------
# chromatic index


def test_chi_exact_sts9(sts9_grid):
    result = chromatic_index_exact(sts9_grid)
    assert result.value == 4 and result.status == COMPLETE
    assert verify_colouring(sts9_grid, result.colouring).ok


def test_chi_exact_fano(fano):
    # Any two triples of the order-7 system intersect, so classes are singletons.
    for a, b in combinations(fano.triples, 2):
        assert set(a) & set(b)
    result = chromatic_index_exact(fano)
    assert result.value == 7 and result.status == COMPLETE


def test_chi_exact_fixture_with_witnesses():
    labelled, colouring = sts33_fixture()
    cert = pc_bound_mod3_auto(labelled.system)
    result = chromatic_index_exact(labelled.system, pc_certificate=cert,
                                   upper_witness=colouring)
    assert result.value == 18 and result.status == COMPLETE
    assert result.nodes == 0  # bounds met without search


def test_chi_exact_budget_interval():
    labelled, _ = sts33_fixture()
    result = chromatic_index_exact(labelled.system, SearchBudget(max_nodes=50))
    assert result.status == INCONCLUSIVE
    assert result.nodes == 50
    assert result.lower >= 16 and result.upper >= result.lower
    with pytest.raises(ValueError):
        result.value


def _fixed_order_colouring(system, k):
    """A k-colouring found by placing triples in index order, each in the
    lowest class that fits or the next unopened one; None if none exists."""
    masks = [1 << a | 1 << b | 1 << c for a, b, c in system.triples]
    n = len(masks)
    assign = [-1] * n
    class_masks = [0] * k
    used = [0] * (n + 1)  # classes open before triple i
    next_class = [0] * n  # next class to try for triple i
    i = 0
    while i < n:
        for c in range(next_class[i], min(used[i] + 1, k)):
            if class_masks[c] & masks[i] == 0:
                class_masks[c] |= masks[i]
                assign[i] = c
                next_class[i] = c + 1
                used[i + 1] = max(used[i], c + 1)
                i += 1
                if i < n:
                    next_class[i] = 0
                break
        else:
            next_class[i] = 0
            i -= 1
            if i < 0:
                return None
            class_masks[assign[i]] &= ~masks[i]
    return assign


def _fixed_order_chromatic_index(system):
    per_class = system.v // 3  # a class holds at most v/3 disjoint triples
    k = -(-len(system.triples) // per_class)
    while _fixed_order_colouring(system, k) is None:
        k += 1
    return k


def _bose15_minus(*classes):
    """Bose(5) without the given classes of its exact 9-colouring: a
    system with fewer than v(v-1)/6 triples."""
    system = bose_half_sum(5).system
    colouring = chromatic_index_exact(system).colouring
    gone = {i for c in classes for i in colouring.classes[c].indices}
    return TripleSystem(15, tuple(t for i, t in enumerate(system.triples) if i not in gone))


def test_chi_exact_matches_fixed_order_oracle(fano, sts9_grid):
    # The Bose(5) cuts have 31, 21 and 21 triples, indices 8, 6 and 6; the
    # counting bound for order 15 (7) is too high for the last two.
    systems = [fano, sts9_grid, *(random_sts(13, seed=s) for s in range(1, 9)),
               *(random_sts(15, seed=s) for s in (8, 16, 21)),
               _bose15_minus(0), _bose15_minus(0, 1, 2), _bose15_minus(1, 2, 3)]
    for system in systems:
        result = chromatic_index_exact(system)
        assert result.value == _fixed_order_chromatic_index(system)
        assert verify_colouring(system, result.colouring).ok
        assert result.colouring.n_classes == result.value


def test_chi_exact_nodes_to_answer():
    # Branching on the triple with the fewest free classes takes 53,836
    # nodes here; placing triples in index order takes 1,314,936.
    result = chromatic_index_exact(random_sts(15, seed=1), SearchBudget(max_nodes=200_000))
    assert result.status == COMPLETE and result.value == 9


def test_chi_exact_deeper_than_recursion_limit():
    # 1617 triples, more than the default recursion limit of 1000; within
    # 2000 nodes the search is more than 1000 placements deep.
    system = wilson_schreiber(97).system
    result = chromatic_index_exact(system, SearchBudget(max_nodes=2000))
    assert result.status == INCONCLUSIVE
    assert verify_colouring(system, result.colouring).ok


def test_chi_exact_rejects_bad_witness(sts9_grid):
    # A colouring of the grid's own triples with one class removed leaves
    # three triples in no class.
    colouring = chromatic_index_exact(sts9_grid).colouring
    short = replace(colouring, classes=colouring.classes[1:])
    with pytest.raises(ValueError, match="witness colouring invalid"):
        chromatic_index_exact(sts9_grid, upper_witness=short)
    # A colouring of another system is refused before it is checked.
    labelled, foreign = sts33_fixture()
    with pytest.raises(ValueError, match="different system"):
        chromatic_index_exact(sts9_grid, upper_witness=foreign)


def test_chi_exact_rejects_foreign_certificate(sts9_grid):
    # A fabricated bound of 0 would force a lower bound of 6 on a system that
    # greedily colours with fewer classes; the contradiction must surface.
    from stskit import PCBoundCertificate

    bogus = PCBoundCertificate(bound=0, method="mod3-weighting")
    with pytest.raises(ValueError, match="does not apply"):
        chromatic_index_exact(sts9_grid, pc_certificate=bogus)


def test_chi_exact_refuses_certificate_without_all_triples():
    # Bose(5) less one colour class still fits its thirds weighting, but the
    # certificate's count of 35 triples fails: it used to report a complete 9.
    system = _bose15_minus(0)
    cert = pc_bound_mod3_auto(system)
    with pytest.raises(ValueError, match="needs all v\\(v-1\\)/6 triples; the system has 31"):
        chromatic_index_exact(system, pc_certificate=cert)
    assert chromatic_index_exact(system).value == 8


def test_chi_exact_refuses_repeated_point():
    # No class can hold (0, 0, 1); the system holding it cannot be built.
    with pytest.raises(ValueError, match=r"triple \(0, 0, 1\) repeats a point"):
        TripleSystem(7, ((0, 0, 1),))


def test_chi_heuristic_bose15_target9():
    labelled = bose_half_sum(5)
    colouring = chromatic_index_heuristic(labelled.system, 9, seed=1)
    assert colouring is not None and colouring.n_classes <= 9
    assert verify_colouring(labelled.system, colouring).ok


def test_chi_heuristic_sts9(sts9_grid):
    colouring = chromatic_index_heuristic(sts9_grid, 4, seed=1)
    assert colouring is not None
    assert verify_colouring(sts9_grid, colouring).ok


def test_chi_heuristic_fano_fails_below_seven(fano):
    assert chromatic_index_heuristic(fano, 6, seed=1, restarts=3) is None


def test_chi_heuristic_rejects_target_below_bound(sts9_grid):
    with pytest.raises(ValueError):
        chromatic_index_heuristic(sts9_grid, 3)


def test_chi_heuristic_rejects_target_above_triple_count(sts9_grid):
    # b classes always suffice; a larger target would only cost memory.
    assert chromatic_index_heuristic(sts9_grid, 12, seed=1) is not None
    with pytest.raises(ValueError, match="target 13 above the triple count 12"):
        chromatic_index_heuristic(sts9_grid, 13)


def test_chi_heuristic_refuses_repeated_point():
    # No class holds (0, 0, 1); the system holding it cannot be built.
    with pytest.raises(ValueError, match=r"triple \(0, 0, 1\) repeats a point"):
        TripleSystem(7, ((0, 0, 1), (2, 3, 4), (2, 5, 6), (3, 5, 6)))


def test_chi_heuristic_deterministic():
    labelled = bose_half_sum(5)
    a = chromatic_index_heuristic(labelled.system, 9, seed=7)
    b = chromatic_index_heuristic(labelled.system, 9, seed=7)
    assert a == b


# ---------------------------------------------------------------------------
# the order-by-order pipeline


def test_pipeline_v15():
    report = theorem1_pipeline(15)
    assert report.route == "ws-certificate" and report.holds
    assert report.pc_bound == 1 and report.chi_lower == 9


def test_pipeline_v45_exception():
    report = theorem1_pipeline(45)
    assert report.route == "possible-exception" and report.holds is None


def test_pipeline_v21_external():
    report = theorem1_pipeline(21)
    assert report.route == "external" and report.holds


def test_pipeline_v33_fixture():
    report = theorem1_pipeline(33)
    assert report.route == "fixture" and report.holds
    assert report.chi_exact == 18 and report.pc_bound == 5


def test_pipeline_small_unique_orders():
    for v in (3, 9):
        report = theorem1_pipeline(v)
        assert report.route == "unique" and report.holds is False
        assert report.chi_exact == (v - 1) // 2


def test_pipeline_rejects_bad_order():
    for v in (14, 13, 0):
        with pytest.raises(ValueError):
            theorem1_pipeline(v)


# ---------------------------------------------------------------------------
# pinned search trajectories


def _digest(records) -> str:
    digest = hashlib.sha256()
    for record in records:
        digest.update(repr(record).encode())
    return digest.hexdigest()


# Each digest covers what one search returns, node counts included, so that
# a faster search node must walk the same tree in the same order and a
# faster repair move must draw the same random numbers.  One digest per
# search lets a change of search order be re-pinned for that search alone.


def test_search_results_are_pinned():
    # Parallel-class enumeration and disjoint-class packing.
    records = []
    for v, seed, budget in ((15, 1, None), (15, 2, None), (21, 1, None), (21, 2, None),
                            (21, 3, SearchBudget(max_nodes=500)),
                            (21, 3, SearchBudget(max_classes=10))):
        enum = enumerate_parallel_classes(random_sts(v, seed=seed), budget or SearchBudget())
        records.append((enum.nodes, enum.status, [c.indices for c in enum.classes]))
    ws13 = wilson_schreiber(13).system
    # Enumeration takes 82 nodes and packing 5 more: 50 stops the
    # enumeration, 84 stops the packing.
    for max_nodes in (50, 84, 1000):
        result = max_disjoint_pcs(ws13, SearchBudget(max_nodes=max_nodes))
        records.append((result.nodes, result.status, result.size))
    # A dense non-Steiner system: every point lies in 28 triples.
    k9 = TripleSystem.from_triples(9, list(combinations(range(9), 3)))
    enum = enumerate_parallel_classes(k9)
    records.append((enum.nodes, enum.status, [c.indices for c in enum.classes]))
    result = max_disjoint_pcs(k9, SearchBudget(max_nodes=700))
    records.append((result.nodes, result.status, result.size))
    assert _digest(records) == (
        "c574d33683239c8da17bcc2bbb39caae22d50c10bdf8b2c45f66a03c66820655")


def test_heuristic_results_are_pinned():
    records = []
    for v, target, seed, restarts in ((9, 4, 1, 1), (13, 7, 1, 1), (13, 8, 2, 2),
                                      (15, 8, 2, 1), (15, 9, 1, 3), (19, 11, 2, 3)):
        colouring = chromatic_index_heuristic(random_sts(v, seed=seed), target,
                                              seed=seed, restarts=restarts)
        records.append((None if colouring is None else [c.indices for c in colouring.classes],))
    assert _digest(records) == (
        "e207ca228d674aa5918e860fdabf799ccbcc2c9d809c7078062ab354a0c7c6fe")


def test_exact_results_are_pinned():
    records = []
    for system, budget in ((random_sts(13, seed=1), SearchBudget()),
                           (random_sts(15, seed=1), SearchBudget(max_nodes=5000))):
        result = chromatic_index_exact(system, budget)
        records.append((result.nodes, result.status, result.lower, result.upper,
                        [c.indices for c in result.colouring.classes]))
    assert _digest(records) == (
        "9cacdff67144451ce89d352b145dcc2185616b541f1289a9db961eaa49c1e9b6")
