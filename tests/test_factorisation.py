from __future__ import annotations

import hashlib
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stskit import (
    f_of,
    factorise_G,
    subgroup_order,
    verify_factorisation_properties,
)
from stskit.core import VerificationReport
from stskit.factorisation import OneFactorisation, factorise_component, format_factorisation
from stskit.numtheory import divisors_gt1, euler_phi


def _units(d: int) -> set[int]:
    return {x for x in range(1, d) if math.gcd(x, d) == 1}


def _cayley_edges(n: int, vertices) -> set[tuple[int, int]]:
    """The edges {x,-x} and {x,-2x} mod n at ``vertices``, from the definition."""
    edges = set()
    for x in vertices:
        edges.add(tuple(sorted((x, n - x))))
        edges.add(tuple(sorted((x, (-2 * x) % n))))
    return edges


# ---------------------------------------------------------------------------
# component factorisation


def test_component_d5_matching_factor():
    factors = factorise_component(5)
    assert set(factors[0]) == {(1, 4), (2, 3)}


def _weight_counts(factors, n: int):
    nz0 = sum(1 for e in factors[0] if (e[0] + e[1]) % n != 0)
    z12 = sum(1 for i in (1, 2) for e in factors[i] if (e[0] + e[1]) % n == 0)
    return nz0, z12


def test_component_d7_counts():
    # |<-1,-2>_7| = 6, so 2*phi/|X| = 2 crossing edges each way.
    assert _weight_counts(factorise_component(7), 7) == (2, 2)


def test_component_d13_pure_split():
    factors = factorise_component(13)
    nz0, z12 = _weight_counts(factors, 13)
    assert nz0 == 0 and z12 == 0
    assert len(factors[0]) == 6


def test_component_counts_match_subgroup_formula():
    for d in (5, 7, 9, 11, 13, 17, 19, 21, 23, 25, 35, 49):
        factors = factorise_component(d)
        order = subgroup_order(d, [-1, -2])
        expected = 0 if order % 4 == 0 else 2 * euler_phi(d) // order
        assert _weight_counts(factors, d) == (expected, expected), d


def test_component_rejects_degenerate_and_even():
    with pytest.raises(ValueError):
        factorise_component(3)
    with pytest.raises(ValueError):
        factorise_component(8)


def test_component_factors_are_perfect_matchings():
    for d in (5, 7, 9, 13, 15, 25, 33):
        for factor in factorise_component(d):
            touched = [v for e in factor for v in e]
            assert sorted(touched) == sorted(_units(d))
            assert len(set(touched)) == len(touched)


def test_component_bullets_for_every_small_odd_d():
    # Partition of the unit Cayley graph's edges, paired weights, and the
    # crossing-edge counts, re-derived from scratch for every odd d in 5..301.
    for d in range(5, 302, 2):
        factors = factorise_component(d)
        union = set()
        for factor in factors:
            union |= set(factor)
        cayley = _cayley_edges(d, _units(d))
        assert union == cayley
        assert sum(len(f) for f in factors) == len(cayley)
        weight_factor: dict[int, int] = {}
        for i, factor in enumerate(factors):
            for u, v in factor:
                w = (u + v) % d
                if w:
                    assert weight_factor.setdefault(min(w, d - w), i) == i, (d, (u, v))
        order = subgroup_order(d, [-1, -2])
        expected = 0 if order % 4 == 0 else 2 * euler_phi(d) // order
        assert _weight_counts(factors, d) == (expected, expected), d


# ---------------------------------------------------------------------------
# assembling G(n)


def test_factorise_G7_neighbours():
    fact = factorise_G(7)
    assert sum(len(f) for f in fact.factors) == 9
    neighbours = sorted(v for f in fact.factors for e in f if 1 in e for v in e if v != 1)
    assert neighbours == [3, 5, 6]  # -x, -2x, and the x with -2x = 1


def test_factorise_G13_sizes():
    fact = factorise_G(13)
    assert fact.n == 13 and [len(f) for f in fact.factors] == [6, 6, 6]


def test_factorise_G_rejects_other_residues():
    for n in (1, 5, 9, 11, 12, 15, 1_000_003):
        with pytest.raises(ValueError):
            factorise_G(n)


@pytest.mark.parametrize("n", [7, 13, 25, 49, 91, 127])
def test_factorise_G_properties(n):
    report = verify_factorisation_properties(factorise_G(n), f_of(n))
    assert report.ok, report.first_violation


def test_factorise_G7_nonzero_count_is_2f():
    fact = factorise_G(7)
    nz0 = sum(1 for e in fact.factors[0] if (e[0] + e[1]) % 7 != 0)
    assert nz0 == 2 == 2 * f_of(7)


def test_factorise_G91_count_from_independent_f():
    # f(91) from the closure oracle, then counted directly on the edges.
    f91 = 0
    for d in divisors_gt1(91):
        order = subgroup_order(d, [-1, -2])
        if order % 4 == 2:
            f91 += euler_phi(d) // order
    fact = factorise_G(91)
    nz0 = sum(1 for e in fact.factors[0] if (e[0] + e[1]) % 91 != 0)
    assert nz0 == 2 * f91 == 2 * f_of(91)


def test_verify_catches_swapped_zero_weight_edge():
    fact = factorise_G(7)
    zero = next(e for e in fact.factors[0] if (e[0] + e[1]) % 7 == 0)
    other = fact.factors[1][0]
    f0 = tuple(sorted(set(fact.factors[0]) - {zero} | {other}))
    f1 = tuple(sorted(set(fact.factors[1]) - {other} | {zero}))
    tampered = OneFactorisation(fact.n, (f0, f1, fact.factors[2]))
    report = verify_factorisation_properties(tampered, f_of(7))
    assert not report.ok
    assert report.violation_count > 0


def test_verify_catches_wrong_f():
    report = verify_factorisation_properties(factorise_G(13), f_of(13) + 1)
    assert not report.ok
    assert "expected 2" in report.first_violation


def test_verify_catches_edge_outside_G():
    # Re-pair factor 0 of G(7), ((1,3), (2,5), (4,6)), into ((1,2), (3,5),
    # (4,6)): still a perfect matching, but {1,2} and {3,5} are not edges.
    fact = factorise_G(7)
    assert fact.factors[0] == ((1, 3), (2, 5), (4, 6))
    tampered = OneFactorisation(fact.n, (((1, 2), (3, 5), (4, 6)),) + fact.factors[1:])
    report = verify_factorisation_properties(tampered, f_of(7))
    assert not report.ok
    assert report.first_violation == "edge (1, 2) of factor 0 is not an edge of G(7)"


def test_verify_catches_edge_in_two_factors():
    # Factor 2 replaced by a copy of factor 1: three perfect matchings inside
    # G(7), but not edge-disjoint.
    fact = factorise_G(7)
    tampered = OneFactorisation(fact.n, fact.factors[:2] + (fact.factors[1],))
    report = verify_factorisation_properties(tampered, f_of(7))
    assert not report.ok
    assert "is in factors 1 and 2" in report.first_violation


def test_verify_catches_missing_factor():
    # Two edge-disjoint perfect matchings inside G(7) are not all of it.
    fact = factorise_G(7)
    report = verify_factorisation_properties(OneFactorisation(fact.n, fact.factors[:2]), f_of(7))
    assert not report.ok
    assert report.first_violation == "2 factors, expected 3"


def test_verify_catches_non_matching():
    fact = factorise_G(7)
    tampered = OneFactorisation(fact.n, (((1, 3), (1, 6), (2, 5)),) + fact.factors[1:])
    report = verify_factorisation_properties(tampered, f_of(7))
    assert not report.ok
    assert "factor 0 is not a matching" in report.first_violation


def test_verify_catches_order_not_1_mod_6():
    fact = factorise_G(7)
    for n in (1, 5, 9):
        report = verify_factorisation_properties(OneFactorisation(n, fact.factors), f_of(7))
        assert not report.ok
        assert "1 mod 6" in report.first_violation
    # A valid order the matchings were not built for fails the edge rule.
    report = verify_factorisation_properties(OneFactorisation(13, fact.factors), f_of(13))
    assert not report.ok


# G(7)'s factors: F0 = ((1, 3), (2, 5), (4, 6)) with weight classes {3},
# F1 = ((1, 5), (2, 6), (3, 4)) with {1}, F2 = ((1, 6), (2, 3), (4, 5)) with
# {2}; f(7) = 1.  Each input below fails several checks.
_F0, _F1, _F2 = factorise_G(7).factors
_MULTI_FAULT = {
    # A shared edge, a split class and both counts, against 2 (f+1) = 4.
    "F1-twice-f-off": ((_F0, _F1, _F1), 2, "edge (1, 5) is in factors 1 and 2", 4),
    # The shared edges are found however they are written.
    "F1-reversed": ((_F0, _F1, tuple((v, u) for u, v in _F1)), 1,
                    "edge (5, 1) is in factors 1 and 2", 2),
    # One edge of F1 also in F0: F0 repeats vertex 1, shares (1, 5), splits
    # class 1 and has 3 nonzero-weight edges.
    "one-shared-edge": ((_F0 + ((1, 5),), _F1, _F2), 1,
                        "factor 0 is not a matching at vertex 1", 4),
    # A split class is one failed check, however many factor pairs share
    # a class; the pair (0, 2) is checked too.
    "F0-thrice": ((_F0, _F0, _F0), 1, "edge (1, 3) is in factors 0 and 1", 2),
    "F0-in-0-and-2": ((_F0, _F1, _F0), 1, "edge (1, 3) is in factors 0 and 2", 2),
}


@pytest.mark.parametrize("factors, f_n, first, count", _MULTI_FAULT.values(),
                         ids=_MULTI_FAULT.keys())
def test_verify_names_the_first_failed_check_and_counts_checks(factors, f_n, first, count):
    report = verify_factorisation_properties(OneFactorisation(n=7, factors=factors), f_n)
    assert (report.first_violation, report.violation_count) == (first, count)


def test_component_decomposition_under_scaling():
    # Restricting G(n) to the elements of additive order d and dividing by
    # n/d must reproduce the unit Cayley graph mod d, edge for edge.
    for n in range(7, 201, 6):
        g_edges = _cayley_edges(n, range(1, n))
        assert len(g_edges) == 3 * (n - 1) // 2  # G(n) is cubic
        for d in divisors_gt1(n):
            mult = n // d
            restricted = {
                tuple(sorted((u // mult, v // mult)))
                for u, v in g_edges
                if u % mult == 0 and v % mult == 0
                and math.gcd(u // mult, d) == 1 and math.gcd(v // mult, d) == 1
            }
            assert restricted == _cayley_edges(d, _units(d)), (n, d)


def test_factorise_G_equals_scaled_components():
    # A second route to the factors of G(n): the elements of additive order
    # d are n/d times the units mod d, so the component factors mod each
    # d | n, scaled by n/d, must give factorise_G(n) edge for edge.
    for n in range(7, 998, 6):
        factors: list[list[tuple[int, int]]] = [[], [], []]
        for d in divisors_gt1(n):
            for i, factor in enumerate(factorise_component(d)):
                factors[i].extend((n // d * u, n // d * v) for u, v in factor)
        assert factorise_G(n).factors == tuple(tuple(sorted(f)) for f in factors), n


def test_format_factorisation():
    text = format_factorisation(factorise_G(7))
    lines = text.splitlines()
    assert lines[0] == "FACTOR 0"
    assert lines.count("FACTOR 1") == 1 and lines.count("FACTOR 2") == 1
    # 9 edges plus 3 headers
    assert len(lines) == 12
    assert all(len(ln.split()) == 3 for ln in lines if not ln.startswith("FACTOR"))


def test_factorise_G_output_is_pinned():
    # One digest over the formatted factorisations of every n = 1 mod 6 in
    # 7..997, pinned so that a rewrite of the component walk must reproduce
    # every factor edge for edge.
    digest = hashlib.sha256()
    for n in range(7, 998, 6):
        digest.update(format_factorisation(factorise_G(n)).encode())
    assert digest.hexdigest() == (
        "957ab3671edcc6314fd27bab02e30fd06a2ed080d02090c565bd0b88fe41db19")


def test_factorise_component_output_is_pinned():
    # The same for the divisor components: every odd d in 5..301, so that
    # the walk over the units mod d is pinned edge for edge too.
    digest = hashlib.sha256()
    for d in range(5, 302, 2):
        fact = OneFactorisation(n=d, factors=factorise_component(d))
        digest.update(format_factorisation(fact).encode())
    assert digest.hexdigest() == (
        "a97d61965110debabd585c4dc703f526e2d446741cd0b9d63ae633a6233f1cef")


# ---------------------------------------------------------------------------
# the verifier against its first, per-edge form


def _verify_factorisation_reference(fact, f_n: int) -> VerificationReport:
    """verify_factorisation_properties as it was written first, one per-edge
    walk with an edge -> factor dict: the reference for its ok verdict."""
    n = fact.n
    first, count = None, 0

    def hit(msg):
        nonlocal first, count
        count += 1
        first = first or msg

    if n % 6 != 1 or n < 7:
        hit(f"n must be 1 mod 6 and >= 7, got {n}")
        return VerificationReport(first_violation=first, violation_count=count)
    if len(fact.factors) != 3:
        hit(f"{len(fact.factors)} factors, expected 3")
    owner = {}
    weight_class_factor = {}
    nonzero_in_0 = zero_in_12 = 0
    for i, factor in enumerate(fact.factors):
        touched = set()
        for edge in factor:
            u, v = edge
            if u in touched or v in touched:
                hit(f"factor {i} is not a matching at edge {edge}")
            touched.update(edge)
            if not (0 < u < n and 0 < v < n
                    and ((u + v) % n == 0 or (2 * u + v) % n == 0 or (u + 2 * v) % n == 0)):
                hit(f"edge {edge} of factor {i} is not an edge of G({n})")
            j = owner.setdefault((min(u, v), max(u, v)), i)
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
    return VerificationReport(first_violation=first, violation_count=count)


_PERTURBATIONS = ["none", "swap", "reverse", "endpoint", "drop", "duplicate",
                  "zero-to-0", "wrong-f", "two-factors", "four-factors", "other-n"]


@settings(max_examples=300, deadline=None)
@given(n=st.sampled_from(range(7, 200, 6)), data=st.data())
def test_verify_matches_reference_on_perturbed_factorisations(n, data):
    factors = [list(f) for f in factorise_G(n).factors]
    f_n, order = f_of(n), n
    kinds = data.draw(st.lists(st.sampled_from(_PERTURBATIONS), min_size=1, max_size=3))
    for kind in kinds:
        i = data.draw(st.sampled_from([j for j, f in enumerate(factors) if f]))
        k = data.draw(st.integers(0, len(factors[i]) - 1))
        if kind == "swap":  # trade edges between two factors
            j = data.draw(st.integers(0, len(factors) - 1))
            if factors[j]:
                m = data.draw(st.integers(0, len(factors[j]) - 1))
                factors[i][k], factors[j][m] = factors[j][m], factors[i][k]
        elif kind == "reverse":  # the same edge, written (v, u)
            u, v = factors[i][k]
            factors[i][k] = (v, u)
        elif kind == "endpoint":  # in range, out of range, or unchanged
            u, v = factors[i][k]
            factors[i][k] = (u, data.draw(st.integers(-1, n + 1)))
        elif kind == "drop":
            del factors[i][k]
        elif kind == "duplicate":
            factors[data.draw(st.integers(0, len(factors) - 1))].append(factors[i][k])
        elif kind == "zero-to-0":  # a zero-weight edge of factors 1, 2 into factor 0
            zero = [(j, e) for j, f in enumerate(factors[1:3], 1) for e in f
                    if (e[0] + e[1]) % n == 0]
            if zero:
                j, e = data.draw(st.sampled_from(zero))
                factors[j].remove(e)
                factors[0].append(e)
        elif kind == "wrong-f":
            f_n += data.draw(st.sampled_from([-1, 1, 2]))
        elif kind == "two-factors":
            factors = factors[:2]
        elif kind == "four-factors":
            factors.append(list(factors[i]))
        elif kind == "other-n":  # not 1 mod 6, too small, or the next valid order
            order = data.draw(st.sampled_from([n + 1, n + 2, n + 4, n + 5, n + 6, 1]))
    fact = OneFactorisation(n=order, factors=tuple(tuple(f) for f in factors))
    report = verify_factorisation_properties(fact, f_n)
    assert report.ok == _verify_factorisation_reference(fact, f_n).ok
    assert report.ok or report.first_violation
    if set(kinds) <= {"none", "reverse"}:
        assert report.ok


def _perfect_matchings(edges, vertices):
    """Every perfect matching of the graph, each as a sorted edge tuple."""
    if not vertices:
        return [()]
    x = min(vertices)
    return [tuple(sorted((e,) + rest))
            for e in edges if x in e and set(e) <= vertices
            for rest in _perfect_matchings(edges, vertices - set(e))]


@pytest.mark.parametrize("n", [7, 13])
def test_verify_matches_reference_on_every_triple_of_matchings(n):
    # Every ordered triple of perfect matchings of G(n): the 1-factorisations
    # with and without the weight properties, and triples sharing edges.
    matchings = _perfect_matchings(sorted(_cayley_edges(n, range(1, n))), set(range(1, n)))
    oks = 0
    for triple in itertools.product(matchings, repeat=3):
        fact = OneFactorisation(n=n, factors=triple)
        report = verify_factorisation_properties(fact, f_of(n))
        assert report.ok == _verify_factorisation_reference(fact, f_n=f_of(n)).ok, triple
        assert report.ok or report.first_violation
        oks += report.ok
    assert oks >= 1
