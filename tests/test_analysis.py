from __future__ import annotations

import hashlib
import tracemalloc
from itertools import combinations, count
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stskit import (
    Colouring,
    OneFactorisation,
    TripleSystem,
    SearchBudget,
    VerificationReport,
    bose_half_sum,
    chi_lower_from_certificate,
    chromatic_index_exact,
    chromatic_index_heuristic,
    enumerate_parallel_classes,
    f_of,
    factorise_G,
    m_lower,
    max_disjoint_pcs,
    PCBoundCertificate,
    pc_bound,
    pc_bound_mod3,
    pc_bound_mod3_auto,
    pc_bound_ws,
    pc_bound_ws_on,
    random_sts,
    sts33_fixture,
    theorem1_pipeline,
    verify_colouring,
    verify_sts,
    wilson_schreiber,
)
from stskit import analysis
from stskit.analysis import COMPLETE, INCONCLUSIVE
from stskit.rng import substream


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


def test_enumeration_node_counts_are_pinned():
    # The search tree, and so its node count, is fixed by the branching rule.
    systems = [*(random_sts(27, seed=s) for s in (1, 2, 3)), wilson_schreiber(25).system]
    nodes = [enumerate_parallel_classes(system).nodes for system in systems]
    assert nodes == [32576, 32577, 32480, 34403]


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


@pytest.mark.parametrize("caps", [{"max_seconds": float("nan")}], ids=["seconds-nan"])
def test_budget_refuses_caps_it_cannot_honour(caps):
    # A NaN time cap never fires.
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


def _affine_ternary_27(seed=None):
    """AG(3, 3): the points of F_3^3, as 9x + 3y + z, and the lines {p, q, r}
    with p + q + r = 0; the points relabelled through a substream of
    ``seed`` when given.  Its 13 direction classes are a resolution."""
    coords = [(x, y, z) for x in range(3) for y in range(3) for z in range(3)]
    label = list(range(27))
    if seed is not None:
        substream(seed, "affine-ternary").shuffle(label)
    lines = set()
    for p, q in combinations(coords, 2):
        r = tuple(-(a + b) % 3 for a, b in zip(p, q))
        lines.add(tuple(sorted(label[9 * x + 3 * y + z] for x, y, z in (p, q, r))))
    return TripleSystem.from_triples(27, sorted(lines))


@pytest.mark.parametrize("system", [
    lambda grid: grid,
    lambda _: _affine_ternary_27(),
    lambda _: _affine_ternary_27(seed=1),
], ids=["ag2-grid", "ag3", "ag3-relabelled"])
def test_max_disjoint_stops_at_the_least_point_degree(sts9_grid, system):
    # A resolvable system holds (v-1)/2 disjoint classes, the least point
    # degree: the search ends complete there, with no certificate to stop
    # it.  AG(3, 3), in either labelling, takes about 86,000 nodes, most of
    # them listing its 17,641 classes.
    system = system(sts9_grid)
    assert verify_sts(system).ok
    result = max_disjoint_pcs(system, SearchBudget(max_nodes=500_000))
    half = (system.v - 1) // 2
    assert (result.status, result.size, result.upper_bound) == (COMPLETE, half, half)
    used = [i for cls in result.witness for i in cls.indices]
    assert len(used) == len(set(used)) == half * system.v // 3
    # So no certificate lifts the exact search above (v-1)/2.
    chi = chromatic_index_exact(system, SearchBudget(max_nodes=100_000))
    assert (chi.lower, chi.certificate) == (half, None)


def test_max_disjoint_inconclusive_budget(sts9_grid):
    result = max_disjoint_pcs(sts9_grid, SearchBudget(max_nodes=2))
    assert result.status == INCONCLUSIVE
    assert result.nodes == 2
    assert result.upper_bound == 4 >= result.size  # only the least point degree remains
    # Bose(5)'s mod-3 bound 2 is below its least point degree 7.
    result = max_disjoint_pcs(bose_half_sum(5).system, SearchBudget(max_nodes=2))
    assert (result.status, result.upper_bound) == (INCONCLUSIVE, 2)
    assert result.upper_bound >= result.size


def test_max_disjoint_budget_covers_enumeration_and_packing():
    # No mod-3 or Wilson-Schreiber bound applies to this system, so nothing
    # cuts the packing short.  Enumerating its classes takes 32576 nodes and
    # packing runs far past 33000, so a 33000-node budget runs out while
    # packing.
    budget = SearchBudget(max_nodes=33_000)
    result = max_disjoint_pcs(random_sts(27, seed=1), budget)
    assert result.nodes == budget.max_nodes
    assert result.status == INCONCLUSIVE
    assert result.upper_bound == 13 >= result.size  # (v-1)/2, not the class count
    assert result.n_parallel_classes == 534


def test_max_disjoint_stops_at_its_certificate():
    # WS(25) has at most 3 f(25) + 1 = 1 disjoint class: the enumeration
    # finds its first class at node 10 and stops there, of the 34403 nodes
    # that list all 1055 classes.
    result = max_disjoint_pcs(wilson_schreiber(25).system)
    assert (result.size, result.status, result.nodes) == (1, COMPLETE, 10)
    assert (result.n_parallel_classes, result.enumeration_complete) == (1, False)
    # Bose(5): its mod-3 bound 2 is reached by the packing the enumeration
    # builds, before the enumeration ends.
    result = max_disjoint_pcs(bose_half_sum(5).system)
    assert (result.size, result.upper_bound, result.status) == (2, 2, COMPLETE)
    assert not result.enumeration_complete
    used = [i for cls in result.witness for i in cls.indices]
    assert len(used) == len(set(used))  # the witness classes are pairwise disjoint


def test_max_disjoint_budget_starts_before_its_certificate(monkeypatch):
    # The certificate is derived under the call's clock: once it has spent
    # the time cap, the enumeration stops at its first node.
    now = [0.0]
    monkeypatch.setattr(analysis, "time", SimpleNamespace(monotonic=lambda: now[0]))
    budget = SearchBudget(max_seconds=1)
    cheap_bound = analysis._cheap_bound

    def slow_cheap_bound(system, refusals):
        now[0] += 2 * budget.max_seconds
        return cheap_bound(system, refusals)

    monkeypatch.setattr(analysis, "_cheap_bound", slow_cheap_bound)
    result = max_disjoint_pcs(wilson_schreiber(13).system, budget)
    assert (result.status, result.nodes, result.upper_bound, result.size) == (
        INCONCLUSIVE, 1, 1, 0)


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
    zero_sum = "every triple has zero weight-sum; the weighting yields no bound"
    assert str(exc.value) == (f"no admissible mod-3 weighting found [point mod 3: {zero_sum}] "
                              f"[point's third of the range: {zero_sum}]")
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
    # First-fit needs 105 classes here, so the walk runs at 100.
    (151, lambda system: chromatic_index_heuristic(system, 100, restarts=1)),
], ids=["enumerate", "chi-heuristic"])
def test_search_memory_is_linear_in_the_triples(n, search):
    # Clashes come from the per-point incidence bitsets.  A table of clashing
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
        pc_bound_ws(OneFactorisation(19, fact.factors))


def test_ws_bound_refuses_unverified_factorisation():
    fact = factorise_G(7)
    e1, e2 = fact.factors[1][0], fact.factors[2][0]
    tampered = OneFactorisation(fact.n, (fact.factors[0],
                                         tuple(sorted(set(fact.factors[1]) - {e1} | {e2})),
                                         tuple(sorted(set(fact.factors[2]) - {e2} | {e1}))))
    with pytest.raises(ValueError, match="weight properties"):
        pc_bound_ws(tampered)


@pytest.mark.parametrize("n", [7, 13, 127])
def test_ws_bound_on_the_canonical_system(n):
    assert pc_bound_ws_on(wilson_schreiber(n).system) == pc_bound_ws(factorise_G(n))


def test_ws_certificate_check_verifies_the_factorisation(monkeypatch):
    # pc_bound takes a WS certificate only once the factorisation verifier
    # passes, as 'analyze bound --method ws' does: a failing report makes
    # the ws rule refuse, and the exact search then lifts nothing.
    ws39 = wilson_schreiber(37).system
    monkeypatch.setattr(analysis, "verify_factorisation_properties",
                        lambda *_: VerificationReport("broken", 1))
    with pytest.raises(ValueError, match=r"\[ws: factorisation fails the weight "
                                         r"properties: broken\]"):
        pc_bound(ws39, SearchBudget(max_nodes=10))
    result = chromatic_index_exact(ws39, SearchBudget(max_nodes=10))
    assert (result.certificate, result.lower) == (None, m_lower(39))


def test_pc_bound_takes_the_least_certificate_it_proves():
    assert pc_bound(wilson_schreiber(13).system) == pc_bound_ws_on(wilson_schreiber(13).system)
    assert pc_bound(bose_half_sum(5).system) == pc_bound_mod3_auto(bose_half_sum(5).system)
    assert pc_bound(random_sts(15, seed=1)) == PCBoundCertificate(
        method="exhaustive-packing", bound=2, witness={"parallel_classes": 2, "nodes": 77})
    # WS(25): its bound 1 is below (v+3)/6 = 5, so no packing search runs.
    assert pc_bound(wilson_schreiber(25).system, SearchBudget(max_nodes=0)).bound == 1


def test_pc_bound_names_each_refusal(sts9_grid):
    # The grid holds 4 = (v-1)/2 disjoint classes, its least point degree;
    # the packing search of random_sts(27, 1) runs to PACKING_CAP, and a
    # node cap stops it on random_sts(15, 1).
    for system, budget, packing in (
            (sts9_grid, SearchBudget(), "4 disjoint parallel classes reach the search's stop"),
            (random_sts(27, 1), SearchBudget(), "the packing search stopped after 100000 nodes"),
            (random_sts(15, 1), SearchBudget(max_nodes=10),
             "the packing search stopped after 10 nodes")):
        with pytest.raises(ValueError) as info:
            pc_bound(system, budget)
        message = str(info.value)
        assert message.startswith("no disjoint parallel-class bound applies [mod3: ")
        assert "] [ws: input system is not the canonical construction" in message
        assert f"[exhaustive-packing: {packing}]" in message
    # random_sts(15, 8) holds 3 = (v+3)/6 disjoint classes, fewer than 7.
    assert pc_bound(random_sts(15, 8)) == PCBoundCertificate(
        method="exhaustive-packing", bound=3, witness={"parallel_classes": 4, "nodes": 79})


def test_pc_bound_prefers_the_least_proof(monkeypatch):
    # Stand-in cheap certificates on random_sts(15, 1), whose packing
    # number is 2 < (v+3)/6 = 3.
    def certify(method, bound):
        return lambda _system: PCBoundCertificate(method=method, bound=bound)

    system = random_sts(15, seed=1)
    for mod3, ws, method in ((4, 3, "exhaustive-packing"), (2, 1, "ws-weight-argument"),
                             (1, 2, "mod3-weighting")):
        monkeypatch.setattr(analysis, "pc_bound_mod3_auto", certify("mod3-weighting", mod3))
        monkeypatch.setattr(analysis, "pc_bound_ws_on", certify("ws-weight-argument", ws))
        assert pc_bound(system).method == method


def test_packing_certificate_stops_at_its_cap(monkeypatch):
    # Enumerating random_sts(27, 1) takes 32576 nodes; under a 1000-node cap
    # the packing certificate gives up there, and the exact search gets the
    # rest of the budget from the counting bound 13.
    monkeypatch.setattr(analysis, "PACKING_CAP", 1000)
    with pytest.raises(ValueError, match="stopped after 1000 nodes"):
        pc_bound(random_sts(27, seed=1))
    search, starts = analysis._search_k_colouring, []

    def spy(system, k, meter):
        starts.append((k, meter.nodes))
        return search(system, k, meter)

    monkeypatch.setattr(analysis, "_search_k_colouring", spy)
    result = chromatic_index_exact(random_sts(27, seed=1), SearchBudget(max_nodes=1500))
    assert starts == [(13, 1000)]
    assert (result.status, result.nodes, result.lower) == (INCONCLUSIVE, 1500, 13)


def test_chi_lower_from_certificate():
    labelled, _ = sts33_fixture()
    cert = pc_bound_mod3_auto(labelled.system)
    assert chi_lower_from_certificate(33, cert) == 18  # bound 5 < 6
    cert21 = pc_bound_ws(factorise_G(19))
    assert chi_lower_from_certificate(21, cert21) == 11  # bound 4 < (21-1)/2: not resolvable


def test_chi_lower_from_certificate_is_the_two_step_rule():
    # The paper's two steps, apart from the formula: fewer than (v+3)/6
    # disjoint classes give (v+3)/2, fewer than (v-1)/2 give (v+1)/2.
    for v in range(9, 1000, 6):
        for bound in range((v - 1) // 2 + 1):
            expected = ((v + 3) // 2 if bound < (v + 3) // 6 else
                        (v + 1) // 2 if bound < (v - 1) // 2 else (v - 1) // 2)
            cert = PCBoundCertificate(method="m", bound=bound)
            assert chi_lower_from_certificate(v, cert) == expected, (v, bound)
    assert chi_lower_from_certificate(3, PCBoundCertificate(method="m", bound=0)) == 1
    for v in (13, 16):
        with pytest.raises(ValueError, match="must be 3 mod 6"):
            chi_lower_from_certificate(v, PCBoundCertificate(method="m", bound=0))


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
    # The fixture's mod-3 certificate is the one the search derives and
    # reports; with the 18-class witness the bounds meet without search.
    labelled, colouring = sts33_fixture()
    result = chromatic_index_exact(labelled.system, upper_witness=colouring)
    assert result.value == 18 and result.status == COMPLETE
    assert result.nodes == 0  # bounds met without search
    assert result.certificate == pc_bound_mod3_auto(labelled.system)


def test_chi_exact_closes_the_bracket_from_a_derived_certificate():
    # A (v+3)/2 witness colouring and the fixture's own mod-3 bound 5 < 6
    # pin the index with no search.
    labelled, colouring = sts33_fixture()
    result = chromatic_index_exact(labelled.system, upper_witness=colouring)
    assert (result.status, result.value, result.nodes) == (COMPLETE, 18, 0)


def _fixture_witness():
    labelled, colouring = sts33_fixture()
    return labelled.system, colouring


def _ws39_witness():
    system = wilson_schreiber(37).system
    return system, chromatic_index_heuristic(system, 21, seed=0, restarts=1)


@pytest.mark.parametrize("instance", [
    _fixture_witness,
    lambda: (bose_half_sum(11).system, None),
    _ws39_witness,
    lambda: (random_sts(15, seed=1), None),
], ids=["fixture", "bose11", "ws39", "random15"])
def test_chi_exact_reports_the_certificate_pc_bound_derives(instance):
    system, witness = instance()
    result = chromatic_index_exact(system, SearchBudget(max_nodes=1000), upper_witness=witness)
    assert result.certificate == pc_bound(system)
    assert result.lower == (system.v + 3) // 2
    if witness is not None:  # a (v+3)/2-class witness closes the bracket unsearched
        assert (result.status, result.nodes) == (COMPLETE, 0)


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
    # This system has at most 2 < (v+3)/6 disjoint parallel classes, which
    # its packing search proves in 77 nodes; the search then starts at 9 and
    # takes 179 nodes in all.  Without the certificate, branching on the
    # triple with the fewest free classes took 53,836 nodes, and placing
    # triples in index order 1,314,936.
    result = chromatic_index_exact(random_sts(15, seed=1), SearchBudget(max_nodes=200_000))
    assert result.status == COMPLETE and result.value == 9
    assert result.nodes == 179


def test_chi_exact_node_cap_inside_the_certificate_search():
    # The packing search of the derived certificate counts in the call's
    # nodes: a 50-node cap stops it, leaves the counting bound as the lower
    # end, and is reported exactly.
    result = chromatic_index_exact(random_sts(15, seed=1), SearchBudget(max_nodes=50))
    assert (result.status, result.nodes, result.lower) == (INCONCLUSIVE, 50, 7)
    assert verify_colouring(random_sts(15, seed=1), result.colouring).ok


def test_chi_exact_indices_of_random_sts15_are_pinned():
    results = [chromatic_index_exact(random_sts(15, seed=s)) for s in range(1, 25)]
    assert [r.value for r in results] == [9, 9, 9, 9, 9, 9, 9, 8, 9, 9, 9, 9,
                                          9, 9, 9, 8, 9, 9, 9, 9, 8, 9, 9, 9]
    for s, r in enumerate(results, 1):
        assert verify_colouring(random_sts(15, seed=s), r.colouring).ok


def test_chi_exact_deeper_than_recursion_limit():
    # 1617 triples, more than the default recursion limit of 1000; within
    # 2000 nodes the search is more than 1000 placements deep.
    system = wilson_schreiber(97).system
    result = chromatic_index_exact(system, SearchBudget(max_nodes=2000))
    assert result.status == INCONCLUSIVE
    assert verify_colouring(system, result.colouring).ok


def _class_mask_first_fit(system):
    """First-fit by a scan of every open class's point mask per triple: the
    oracle for ``_greedy_colouring``."""
    class_masks = []
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


@settings(max_examples=60, deadline=None)
@given(v=st.sampled_from([v for v in range(7, 46) if v % 6 in (1, 3)]),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_first_fit_matches_class_mask_oracle(v, seed, data):
    system = random_sts(v, seed)
    keep = data.draw(st.lists(st.booleans(), min_size=system.b, max_size=system.b))
    subset = TripleSystem(v, tuple(t for t, k in zip(system.triples, keep) if k))
    for s in (system, subset):
        assert analysis._greedy_colouring(s) == _class_mask_first_fit(s)


def test_first_fit_matches_class_mask_oracle_on_constructions():
    for system in (wilson_schreiber(151).system, bose_half_sum(17).system,
                   sts33_fixture()[0].system):
        assert analysis._greedy_colouring(system) == _class_mask_first_fit(system)


def test_chi_exact_time_cap_reaches_the_search_on_ws999():
    # The cap counts from the call's start, first-fit included, so first-fit
    # on the 166,167 triples of WS(997) must take a small part of 1 s for
    # the search to run (about 0.1 s and 500 nodes on a 2-vCPU host).
    # The lower end is (v+3)/2 = 501, from the system's own WS certificate.
    result = chromatic_index_exact(wilson_schreiber(997).system, SearchBudget(max_seconds=1.0))
    assert (result.status, result.lower, result.upper) == (INCONCLUSIVE, 501, 662)
    assert result.nodes > 1


def test_chi_exact_is_complete_exactly_when_the_bracket_closes():
    # random_sts(15, 4) first-fits with 10 classes and has index 9: one node
    # short of the proof, the search has refuted 8 classes but not yet found
    # 9, and must report the open bracket [9, 10].
    system = random_sts(15, seed=4)
    full = chromatic_index_exact(system)
    assert (full.status, full.value) == (COMPLETE, 9)
    short = chromatic_index_exact(system, SearchBudget(max_nodes=full.nodes - 1))
    assert (short.status, short.lower, short.upper) == (INCONCLUSIVE, 9, 10)
    with pytest.raises(ValueError, match=r"not pinned: in \[9, 10\]"):
        short.value


def test_chi_exact_rejects_bad_witness(sts9_grid):
    # A colouring of the grid's own triples with one class removed leaves
    # three triples in no class.
    colouring = chromatic_index_exact(sts9_grid).colouring
    short = Colouring(colouring.host, colouring.classes[1:])
    with pytest.raises(ValueError, match="witness colouring invalid"):
        chromatic_index_exact(sts9_grid, upper_witness=short)
    # A colouring of another system is refused before it is checked.
    labelled, foreign = sts33_fixture()
    with pytest.raises(ValueError, match="different system"):
        chromatic_index_exact(sts9_grid, upper_witness=foreign)


def test_chi_exact_refuses_certificate_for_order_1_mod_6():
    # The disjoint-PC argument needs v = 3 mod 6: at v = 13 the search
    # derives no certificate and starts at the counting bound.
    result = chromatic_index_exact(random_sts(13, 1))
    assert (result.certificate, result.value) == (None, 8)


def test_chi_exact_refuses_certificate_without_all_triples():
    # Bose(5) less one colour class still fits its thirds weighting, but a
    # certificate counts on all 35 triples: the search derives none, starts
    # at the counting bound ceil(31/5) = 7, and finds the index 8.  Nor
    # does one lift Bose(5) less its last triple.
    system = _bose15_minus(0)
    assert pc_bound_mod3_auto(system).bound == 2
    result = chromatic_index_exact(system)
    assert (result.certificate, result.value) == (None, 8)
    bose = bose_half_sum(5).system
    short = TripleSystem(15, bose.triples[:-1])
    result = chromatic_index_exact(short, SearchBudget(max_nodes=10))
    assert (result.certificate, result.lower) == (None, 7)


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


def test_chi_heuristic_returns_first_fit_before_building_tables():
    # A sparse file: v = 3001 points on 1501 triples.  First-fit needs two
    # classes; per-point class loads at target b would take about 54 MB.
    v = 3001
    system = TripleSystem.from_triples(
        v, [(3 * i % v, (3 * i + 1) % v, (3 * i + 2) % v) for i in range(v // 2 + 1)])
    tracemalloc.start()
    try:
        colouring = chromatic_index_heuristic(system, system.b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000
    assert colouring.n_classes == max(analysis._greedy_colouring(system)) + 1
    assert verify_colouring(system, colouring).ok


def test_chi_heuristic_reaches_v_plus_3_over_2_on_ws33():
    system = wilson_schreiber(31).system
    colouring = chromatic_index_heuristic(system, 18, seed=0)
    assert colouring is not None and colouring.n_classes <= 18
    assert verify_colouring(system, colouring).ok


def test_chi_heuristic_witness_pins_ws39_without_search():
    # The WS certificate of order 39, which the search derives, gives the
    # lower bound (v+3)/2 = 21, and a 21-class colouring closes the bracket
    # before any node is searched.
    system, colouring = _ws39_witness()
    assert colouring is not None
    result = chromatic_index_exact(system, upper_witness=colouring)
    assert (result.status, result.value, result.nodes) == (COMPLETE, 21, 0)


@settings(max_examples=30, deadline=None)
@given(v=st.sampled_from([7, 9, 13, 15, 19, 21, 25, 27]), seed=st.integers(0, 2**32 - 1),
       restarts=st.integers(1, 2), data=st.data())
def test_chi_heuristic_colourings_verify_and_repeat(v, seed, restarts, data):
    system = random_sts(v, seed)
    first_fit = max(analysis._greedy_colouring(system)) + 1
    # From (v+3)/2 up the walk ends in a few hundred moves on these orders;
    # below it a failing restart makes its full 250 b moves.
    low = max(m_lower(v), (v + 3) // 2)
    target = data.draw(st.integers(min(low, first_fit), first_fit))
    colouring = chromatic_index_heuristic(system, target, seed=seed, restarts=restarts)
    if colouring is not None:
        assert colouring.n_classes <= target
        assert verify_colouring(system, colouring).ok
    assert chromatic_index_heuristic(system, target, seed=seed, restarts=restarts) == colouring


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


def test_pipeline_exceptions_are_the_psi_star_exceptions():
    # 3 f(n)+1 >= (v+3)/6 exactly when 18 f(n) >= n-1, i.e. psi*(n) <= 0, for
    # n = v-2; so the certificate route leaves undecided exactly the orders
    # n+2 of the scan's psi* <= 0 rows with n = 1 mod 6, bar 9, 21 and 33.
    from stskit.numtheory import SCAN_KINDS, number_profile, scan_rows

    undecided = []
    for v in range(15, 1000, 6):
        if v in (21, 33):
            continue
        report = theorem1_pipeline(v)
        assert (report.route == "possible-exception") == (number_profile(v - 2).psi_star <= 0)
        if report.route == "possible-exception":
            undecided.append(v)
    scanned = [r.n + 2 for r in filter(SCAN_KINDS["exceptions"], scan_rows(997))
               if r.n % 6 == 1 and r.n + 2 not in (9, 21, 33)]
    assert undecided == scanned == [45, 75, 129, 513]


# ---------------------------------------------------------------------------
# pinned search trajectories


def _digest(records) -> str:
    digest = hashlib.sha256()
    for record in records:
        digest.update(repr(record).encode())
    return digest.hexdigest()


# Each digest covers what one search returns, node counts included, so that
# a faster search node must walk the same tree in the same order and a
# faster TabuCol move must pick the same moves with the same random draws.
# One digest per search lets a change of search order or of the colouring
# walk be re-pinned for that search alone.


def test_search_results_are_pinned():
    # Parallel-class enumeration and disjoint-class packing.
    records = []
    for v, seed, budget in ((15, 1, None), (15, 2, None), (21, 1, None), (21, 2, None),
                            (21, 3, SearchBudget(max_nodes=500)),
                            (21, 3, SearchBudget(max_nodes=290))):
        enum = enumerate_parallel_classes(random_sts(v, seed=seed), budget or SearchBudget())
        records.append((enum.nodes, enum.status, [c.indices for c in enum.classes]))
    ws13 = wilson_schreiber(13).system
    # The enumeration finds its first class at node 6, which reaches the
    # system's WS bound of one class: each budget completes there.
    for max_nodes in (50, 84, 1000):
        result = max_disjoint_pcs(ws13, SearchBudget(max_nodes=max_nodes))
        records.append((result.nodes, result.status, result.size))
    # A dense non-Steiner system: every point lies in 28 triples.
    k9 = TripleSystem.from_triples(9, list(combinations(range(9), 3)))
    enum = enumerate_parallel_classes(k9)
    records.append((enum.nodes, enum.status, [c.indices for c in enum.classes]))
    result = max_disjoint_pcs(k9, SearchBudget(max_nodes=700))
    records.append((result.nodes, result.status, result.size))
    assert result.upper_bound == 28 >= result.size  # the least point degree
    assert _digest(records) == (
        "626edd6ae5f36f1d6168292d498834ba9c73295edd5a0058577263974d3c2052")


def test_heuristic_results_are_pinned():
    records = []
    for v, target, seed, restarts in ((9, 4, 1, 1), (13, 7, 1, 1), (13, 8, 2, 2),
                                      (15, 8, 2, 1), (15, 9, 1, 3), (19, 11, 2, 3)):
        colouring = chromatic_index_heuristic(random_sts(v, seed=seed), target,
                                              seed=seed, restarts=restarts)
        records.append((None if colouring is None else [c.indices for c in colouring.classes],))
    assert _digest(records) == (
        "29fac92d98ee12d72aefa9b81228293978abf2aa7738f37cc0fa00059d36eff1")


def test_heuristic_results_at_order_45_are_pinned():
    # At v = 45 a point lies on r = 22 triples, so the walk's per-point
    # loads no longer fit the fields it uses below that: these colourings
    # pin the wider fields to the same walk.
    records = []
    for v, target, seed in ((45, 24, 2), (45, 25, 1)):
        colouring = chromatic_index_heuristic(random_sts(v, seed=seed), target,
                                              seed=seed, restarts=1)
        records.append((None if colouring is None else [c.indices for c in colouring.classes],))
    assert _digest(records) == (
        "6c0596e82a44f657e00238dbd71937ebf909d3870d574bc791ee0cb4c6070029")


def test_exact_results_are_pinned():
    # The derived packing certificate settles random_sts(15, 1) within the
    # 5000 nodes, with the same 9-colouring as the search without it.
    records = []
    for system, budget in ((random_sts(13, seed=1), SearchBudget()),
                           (random_sts(15, seed=1), SearchBudget(max_nodes=5000))):
        result = chromatic_index_exact(system, budget)
        records.append((result.nodes, result.status, result.lower, result.upper,
                        [c.indices for c in result.colouring.classes]))
    assert _digest(records) == (
        "29dc5d487f52fcf8faa2cca4dc0c84791ba7ad90cc92160105cee3ba99d88df6")


def test_theorem1_reports_are_pinned():
    # Every field of every Theorem 1 report for v = 3 mod 6 up to 999.  At
    # the possible exceptions 45, 75, 129 and 513, chi_lower is (v+1)/2.
    records = []
    for v in range(3, 1000, 6):
        r = theorem1_pipeline(v)
        records.append((r.v, r.route, r.holds, r.chi_lower, r.chi_exact, r.pc_bound, r.f,
                        r.message))
    assert _digest(records) == (
        "296e9dc54847d08611482321ed54e110023ef6cbd6243d51dcce9634010080da")
