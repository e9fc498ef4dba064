"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria with stated runtime limits assert them; everything quantitative is
exact, no tolerances.
"""

from __future__ import annotations

import time
from itertools import combinations

import pytest

from stskit import (
    SCAN_KINDS,
    SearchBudget,
    bose,
    bose_half_sum,
    chromatic_index_exact,
    chromatic_index_heuristic,
    conjugate_square,
    f_of,
    factorise_G,
    half_sum_square,
    max_disjoint_pcs,
    min_pc_for_low_chi,
    pc_bound_mod3_auto,
    pc_bound_ws,
    random_sts,
    scan_rows,
    sts33_fixture,
    subgroup_order,
    theorem1_pipeline,
    verify_colouring,
    verify_cyclic,
    verify_factorisation_properties,
    verify_sts,
    wilson_schreiber,
)
from stskit.analysis import COMPLETE
from stskit.constructions import random_permutation
from stskit.core import Colouring, PartialParallelClass
from stskit.numtheory import _neg_double_order, euler_phi
from stskit.rng import substream


def _report(name: str, started: float) -> None:
    print(f"{name} PASS ({time.perf_counter() - started:.1f}s)")


def test_c01_negative_psi_table():
    t0 = time.perf_counter()
    pairs = [(r.n, r.psi) for r in filter(SCAN_KINDS["negative-psi"], scan_rows(100_000))]
    elapsed = time.perf_counter() - t0
    assert pairs == [(7, -12), (11, -8), (31, -24), (43, -12), (127, -36)]
    assert elapsed < 60.0, f"scan took {elapsed:.1f}s"
    _report("C1 negative-psi table exact to 10^5", t0)


def test_c02_exception_set():
    t0 = time.perf_counter()
    exceptions = [r.n for r in filter(SCAN_KINDS["exceptions"], scan_rows(100_000))]
    assert exceptions == [7, 11, 19, 31, 43, 73, 127, 511]
    _report("C2 psi* exception set exact to 10^5", t0)


def test_c03_factorisation_properties_to_1000():
    t0 = time.perf_counter()
    for n in range(7, 1001, 6):
        report = verify_factorisation_properties(factorise_G(n), f_of(n))
        assert report.ok, (n, report.first_violation)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"sweep took {elapsed:.1f}s"
    _report("C3 factorisation weight properties for n = 1 mod 6, n <= 1000", t0)


def test_c04_construction_validity():
    t0 = time.perf_counter()
    for n in range(7, 200, 6):
        assert verify_sts(wilson_schreiber(n).system).ok, f"ws({n})"
    for n in range(5, 42, 6):
        base = half_sum_square(n)
        assert verify_sts(bose(base, base, base).system).ok, f"bose({n}) half-sum"
        for trial in range(10):
            squares = tuple(
                conjugate_square(base, random_permutation(n, substream(trial, "c4", n, i)))
                for i in range(3))
            assert verify_sts(bose(*squares).system).ok, f"bose({n}) trial {trial}"
    _report("C4 construction validity (ws n<=199, bose n<=41 with conjugates)", t0)


def test_c05_sts33_fixture():
    t0 = time.perf_counter()
    labelled, colouring = sts33_fixture()
    assert verify_sts(labelled.system).ok
    report = verify_colouring(labelled.system, colouring)
    assert report.ok and report.n_classes == 18
    cert = pc_bound_mod3_auto(labelled.system)
    assert cert.bound == 5
    assert cert.bound < min_pc_for_low_chi(33) == 6
    chi = chromatic_index_exact(labelled.system, pc_certificate=cert,
                                upper_witness=colouring)
    assert chi.status == COMPLETE and chi.value == 18
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"fixture checks took {elapsed:.2f}s"
    _report("C5 order-33 fixture: verified, 18 classes, bound 5, index 18", t0)


@pytest.mark.parametrize("v,expected", [(9, 4), (15, 1), (21, 4), (27, 1)])
def test_c06_bound_attainment(v, expected):
    t0 = time.perf_counter()
    n = v - 2
    assert expected == 3 * f_of(n) + 1
    system = wilson_schreiber(n).system
    result = max_disjoint_pcs(system, SearchBudget(max_nodes=10**8, max_seconds=600))
    elapsed = time.perf_counter() - t0
    assert result.status == COMPLETE
    assert result.size == expected, (v, result.size)
    assert elapsed < 600.0
    _report(f"C6 order {v}: max disjoint parallel classes = {expected} (exhaustive)", t0)


def test_c07_bose_bound():
    t0 = time.perf_counter()
    for k, n in ((0, 5), (1, 11)):
        labelled = bose_half_sum(n)
        cert = pc_bound_mod3_auto(labelled.system)
        assert cert.bound == 3 * k + 2, (n, cert.bound)
    result = max_disjoint_pcs(bose_half_sum(5).system)
    assert result.status == COMPLETE and result.size <= 2
    _report("C7 bose bound 3k+2 for v=15,33; v=15 exhaustive max <= 2", t0)


def test_c08_cyclicity():
    t0 = time.perf_counter()
    for n in (5, 11, 17, 23):
        assert verify_cyclic(bose_half_sum(n)), n
    _report("C8 half-sum bose systems cyclic for n in {5,11,17,23}", t0)


def test_c09_chromatic_indices(fano, sts9_grid):
    t0 = time.perf_counter()
    r9 = chromatic_index_exact(sts9_grid)
    assert r9.status == COMPLETE and r9.value == 4
    r7 = chromatic_index_exact(fano)
    assert r7.status == COMPLETE and r7.value == 7
    bose15 = bose_half_sum(5)
    colouring = chromatic_index_heuristic(bose15.system, 9, seed=1)
    assert colouring is not None
    assert verify_colouring(bose15.system, colouring).ok
    # Lower bound (v+3)/2 = 9 from the mod-3 certificate pins the index to 9.
    cert = pc_bound_mod3_auto(bose15.system)
    assert cert.bound < min_pc_for_low_chi(15)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report("C9 chromatic indices: order 9 -> 4, order 7 -> 7, bose15 colours at 9", t0)


def test_c10_theorem1_pipeline():
    t0 = time.perf_counter()
    exceptions = []
    for v in range(15, 1000, 6):
        report = theorem1_pipeline(v)
        assert report.route in ("external", "fixture", "possible-exception",
                                "ws-certificate")
        if report.holds is None:
            exceptions.append(v)
        elif report.route == "ws-certificate":
            assert report.pc_bound == 3 * f_of(v - 2) + 1
            assert report.pc_bound < (v + 3) // 6
            assert report.chi_lower == (v + 3) // 2
        else:
            assert report.holds is True
    assert exceptions == [45, 75, 129, 513]
    _report("C10 pipeline verdicts for all v = 3 mod 6, 15 <= v <= 999", t0)


# ---------------------------------------------------------------------------
# C11: non-quantitative property suites


def _pair_histogram(system):
    cover: dict[tuple[int, int], int] = {}
    for t in system.triples:
        for pair in combinations(t, 2):
            cover[pair] = cover.get(pair, 0) + 1
    return cover


def test_c11a_pair_coverage_suite():
    t0 = time.perf_counter()
    systems = [wilson_schreiber(n).system for n in (7, 13, 19, 31)]
    systems += [bose_half_sum(n).system for n in (5, 11)]
    systems.append(sts33_fixture()[0].system)
    systems += [random_sts(v, seed=9) for v in (13, 15, 21)]
    for system in systems:
        hist = _pair_histogram(system)
        assert len(hist) == system.v * (system.v - 1) // 2
        assert set(hist.values()) == {1}
    _report("C11a pair coverage exactly 1 across constructions and random systems", t0)


def test_c11b_subgroup_order_fast_path_agrees_to_10000():
    t0 = time.perf_counter()
    for d in range(5, 10001):
        if d % 6 in (1, 5):
            assert _neg_double_order(d, euler_phi(d)) == subgroup_order(d, [-1, -2]), d
    _report("C11b fast subgroup-order path matches closure oracle for d <= 10^4", t0)


def test_c11c_certificate_dominates_search():
    # Exhaustive confirmation is restricted to v <= 27; larger orders rely on
    # the certificate alone (which is the point of having certificates).
    t0 = time.perf_counter()
    for n in (7, 13, 19, 25):
        system = wilson_schreiber(n).system
        cert = pc_bound_ws(factorise_G(n))
        result = max_disjoint_pcs(system, SearchBudget(max_seconds=600))
        assert result.status == COMPLETE and result.size <= cert.bound
    labelled = bose_half_sum(5)
    cert = pc_bound_mod3_auto(labelled.system)
    result = max_disjoint_pcs(labelled.system, SearchBudget(max_seconds=600))
    assert result.status == COMPLETE and result.size <= cert.bound
    # Certificate-only path for a larger order: it must still be issuable.
    assert pc_bound_mod3_auto(bose_half_sum(11).system).bound == 5
    _report("C11c exhaustive max-disjoint counts (v <= 27) respect their certificates", t0)


def test_c11d_colouring_verifier_oracle_equivalence():
    t0 = time.perf_counter()
    import random

    rng = random.Random(123)
    labelled = bose_half_sum(5)
    system = labelled.system
    agreements = 0
    for _ in range(120):
        k = rng.randrange(7, 12)
        groups: list[list[int]] = [[] for _ in range(k)]
        for i in range(system.b):
            groups[rng.randrange(k)].append(i)
        if rng.random() < 0.25 and groups[0]:
            groups[1].append(groups[0][0])
        groups = [sorted(set(g)) for g in groups if g]
        colouring = Colouring(
            host=system,
            classes=tuple(PartialParallelClass(tuple(g)) for g in groups))
        ours = verify_colouring(system, colouring).ok
        flat = sorted(i for g in groups for i in g)
        oracle = flat == list(range(system.b)) and all(
            not (set(system.triples[a]) & set(system.triples[b]))
            for g in groups for a, b in combinations(g, 2))
        assert ours == oracle
        agreements += 1
    assert agreements == 120
    _report("C11d colouring verifier equals the quadratic oracle on 120 samples", t0)


def test_c11e_seed_determinism_suite():
    t0 = time.perf_counter()
    assert random_sts(19, seed=77) == random_sts(19, seed=77)
    bose15 = bose_half_sum(5)
    a = chromatic_index_heuristic(bose15.system, 9, seed=5)
    b = chromatic_index_heuristic(bose15.system, 9, seed=5)
    assert a == b and a is not None
    _report("C11e identical seeds reproduce systems and colourings", t0)
