from __future__ import annotations

import hashlib
from itertools import combinations

import pytest

from stskit import (
    LatinSquare,
    TripleSystem,
    bose,
    bose_conjugate,
    bose_half_sum,
    conjugate_square,
    factorise_G,
    half_sum_square,
    sts33_fixture,
    verify_colouring,
    verify_cyclic,
    verify_sts,
    wilson_schreiber,
)
from stskit.constructions import (MAX_BOSE_N, MAX_WS_N, _is_automorphism,
                                  is_wilson_schreiber, wilson_schreiber_triples)
from stskit.core import sts_lines
from stskit.factorisation import OneFactorisation
from stskit.rng import substream


# ---------------------------------------------------------------------------
# Latin squares


def test_half_sum_values_and_predicates():
    sq = half_sum_square(5)
    assert sq(1, 3) == 2
    assert sq(0, 1) == 3  # (0+1) * inverse-of-2, and 2*3 = 1 mod 5
    assert all(sq(x, x) == x for x in range(5))
    assert sq.is_idempotent() and sq.is_symmetric()


def test_half_sum_shift_property():
    for n in (5, 11, 17):
        sq = half_sum_square(n)
        assert all(sq((i + 1) % n, (j + 1) % n) == (sq(i, j) + 1) % n
                   for i in range(n) for j in range(n))


def test_half_sum_rejects_even():
    with pytest.raises(ValueError):
        half_sum_square(6)


def test_latin_square_validation():
    with pytest.raises(ValueError, match="row"):
        LatinSquare(2, ((0, 0), (1, 1)))
    with pytest.raises(ValueError, match="column"):
        LatinSquare(2, ((0, 1), (0, 1)))


def test_conjugate_identity_and_properties():
    sq = half_sum_square(5)
    assert conjugate_square(sq, (0, 1, 2, 3, 4)) == sq
    swapped = conjugate_square(sq, (1, 0, 2, 3, 4))
    assert swapped.is_idempotent() and swapped.is_symmetric()
    perm = list(range(7))
    substream(42, "perm").shuffle(perm)
    conj = conjugate_square(half_sum_square(7), perm)
    assert conj.is_idempotent() and conj.is_symmetric()


def test_conjugate_rejects_non_permutation():
    with pytest.raises(ValueError):
        conjugate_square(half_sum_square(5), (0, 0, 1, 2, 3))


# ---------------------------------------------------------------------------
# wilson_schreiber


def test_ws7_is_the_order9_system():
    labelled = wilson_schreiber(7)
    assert labelled.system.v == 9 and labelled.system.b == 12
    assert verify_sts(labelled.system).ok


def _ws_families(labelled, n: int) -> dict:
    """The families of WS(n) selected from its triples: "zero-sum" holds no
    infinity point (n-1, n or n+1), "infinity" holds at least one.  Each
    selection's size is the count the construction reports."""
    found: dict = {"zero-sum": [], "infinity": []}
    for t in labelled.system.triples:
        found["zero-sum" if all(p < n - 1 for p in t) else "infinity"].append(t)
    assert {name: len(ts) for name, ts in found.items()} == labelled.families
    return found


def test_ws13_family_sizes():
    labelled = wilson_schreiber(13)
    assert labelled.system.b == 35
    found = _ws_families(labelled, 13)
    assert len(found["zero-sum"]) == 16
    assert len(found["infinity"]) == 19  # 3(n-1)/2 + 1
    assert verify_sts(labelled.system).ok


def test_ws13_zero_sum_count_against_enumeration():
    # Independent count of 3-subsets of Z_13 \ {0} with zero sum.
    count = sum(1 for c in combinations(range(1, 13), 3) if sum(c) % 13 == 0)
    assert count == 16


def test_ws_zero_sum_family_sums_to_zero():
    for n in (7, 13, 19):
        for t in _ws_families(wilson_schreiber(n), n)["zero-sum"]:
            assert sum(p + 1 for p in t) % n == 0


@pytest.mark.parametrize("n", [7, 13, 19, 25, 31, 37, 97])
def test_ws_zero_sum_family_is_every_zero_sum_triple(n):
    # The per-a ranges of b against the definition: all 3-subsets of
    # Z_n \ {0} with zero sum, points shifted down by one.
    labelled = wilson_schreiber(n)
    assert set(_ws_families(labelled, n)["zero-sum"]) == {
        tuple(p - 1 for p in c) for c in combinations(range(1, n), 3) if sum(c) % n == 0}
    assert wilson_schreiber_triples(factorise_G(n)) == labelled.system.triples


def test_ws_triples_share_one_int_per_point():
    # Points above 256 are not cached by the interpreter; the construction
    # holds one int object per point, however many triples pass through it.
    triples = wilson_schreiber_triples(factorise_G(301))
    assert len({id(p) for t in triples for p in t}) == 303


def _swap_points(system: TripleSystem, p: int, q: int) -> TripleSystem:
    """``system`` with the labels p and q exchanged: an isomorphic system."""
    swap = {p: q, q: p}
    return TripleSystem.from_triples(system.v, ([swap.get(x, x) for x in t]
                                                for t in system.triples))


@pytest.mark.parametrize("n", range(7, 104, 6))
def test_is_wilson_schreiber_is_equality_with_the_construction(n):
    fact = factorise_G(n)
    built = wilson_schreiber_triples(fact)
    system = wilson_schreiber(n).system
    # Two finite points swapped, and a finite point swapped with inf_1.
    swapped = [_swap_points(system, 0, 1), _swap_points(system, 0, n)]
    for candidate in (system, *swapped):
        assert verify_sts(candidate).ok
        assert is_wilson_schreiber(candidate, fact) == (candidate.triples == built)
    assert is_wilson_schreiber(system, fact)
    assert not any(is_wilson_schreiber(candidate, fact) for candidate in swapped)


def test_is_wilson_schreiber_tells_factors_apart():
    # The system built on the factorisation with factors 0 and 1 swapped is
    # an order-15 system, but not the one built on the factorisation itself.
    fact = factorise_G(13)
    swapped = OneFactorisation(fact.n, (fact.factors[1], fact.factors[0], fact.factors[2]))
    other = TripleSystem(15, wilson_schreiber_triples(swapped))
    assert verify_sts(other).ok
    assert (other.triples == wilson_schreiber_triples(fact)) is False
    assert not is_wilson_schreiber(other, fact)
    assert is_wilson_schreiber(other, swapped)
    # Nor is any system of another order or triple count, nor one with a
    # triple through two infinity points (12 and 13) in place of another.
    assert not is_wilson_schreiber(wilson_schreiber(13).system, factorise_G(19))
    assert not is_wilson_schreiber(TripleSystem(15, other.triples[1:]), swapped)
    two_inf = TripleSystem.from_triples(15, [*other.triples[1:], (0, 12, 13)])
    assert not is_wilson_schreiber(two_inf, swapped)


def test_ws_refuses_n_above_cap():
    # The cap keeps WS(997), the order-999 system, and refuses before G(n) is
    # built: WS(99997) would hold about 1.7 * 10^9 triples.
    assert MAX_WS_N >= 997
    for n in (MAX_WS_N + 6, 99_997):
        with pytest.raises(ValueError, match=f"n must be <= {MAX_WS_N}"):
            wilson_schreiber(n)


def test_ws_rejects_tampered_factorisation():
    fact = factorise_G(7)
    # Swap one endpoint between two factor-0 edges: no longer a matching,
    # and the duplicate/missing pairs break the construction.
    e1, e2 = fact.factors[0][0], fact.factors[0][1]
    bad0 = (tuple(sorted((e1[0], e2[1]))), tuple(sorted((e2[0], e1[1])))) + fact.factors[0][2:]
    tampered = OneFactorisation(fact.n, (tuple(sorted(bad0)),) + fact.factors[1:])
    try:
        system = TripleSystem(9, wilson_schreiber_triples(tampered))
    except ValueError:
        return  # duplicate triple: rejected at construction
    assert not verify_sts(system).ok


# ---------------------------------------------------------------------------
# bose


def _bose_families(labelled) -> dict:
    """The families of a Bose system selected from its triples by the blocks
    p // n of their points: the spine meets all three blocks, and layer i
    has two points in block i and one in block i+1.  The selections
    partition the triples, and each one's size is the count the
    construction reports."""
    n = labelled.system.v // 3
    found: dict = {"spine": [], "layer0": [], "layer1": [], "layer2": []}
    for t in labelled.system.triples:
        blocks = sorted(p // n for p in t)
        if blocks == [0, 1, 2]:
            found["spine"].append(t)
        for i in range(3):
            if blocks == sorted((i, i, (i + 1) % 3)):
                found[f"layer{i}"].append(t)
    assert {name: len(ts) for name, ts in found.items()} == labelled.families
    assert sum(map(len, found.values())) == labelled.system.b
    return found


def test_bose5_counts():
    labelled = bose_half_sum(5)
    assert labelled.system.v == 15 and labelled.system.b == 35
    assert _bose_families(labelled)["spine"] == [(x, x + 5, x + 10) for x in range(5)]
    assert verify_sts(labelled.system).ok


def test_bose11_counts():
    labelled = bose_half_sum(11)
    assert labelled.system.v == 33
    assert _bose_families(labelled)["spine"] == [(x, x + 11, x + 22) for x in range(11)]
    assert verify_sts(labelled.system).ok


def test_bose_layer_coordinate_sums():
    labelled = bose_half_sum(5)
    n = labelled.system.v // 3
    found = _bose_families(labelled)
    for t in found["spine"]:
        assert sum(p // n for p in t) % 3 == 0
    for layer in ("layer0", "layer1", "layer2"):
        for t in found[layer]:
            assert sum(p // n for p in t) % 3 == 1
    # Selected by the layer-sum alone: 0 mod 3 is the spine, 1 mod 3 the layers.
    by_sum: dict = {0: [], 1: [], 2: []}
    for t in labelled.system.triples:
        by_sum[sum(p // n for p in t) % 3].append(t)
    assert by_sum[0] == found["spine"] and len(by_sum[0]) == labelled.families["spine"]
    assert len(by_sum[1]) == sum(labelled.families[f"layer{i}"] for i in range(3))
    assert by_sum[2] == []


def test_bose29_bytes_are_pinned():
    digest = hashlib.sha256()
    for line in sts_lines(bose_half_sum(29).system):
        digest.update(line.encode())
    assert digest.hexdigest() == (
        "a41151174acf7efc76f7e76cc9983a40ae8047912988a9d6d49cefa80b8718c8")


@pytest.mark.parametrize("n", [5, 11, 17, 101])
def test_bose_conjugate_is_the_seeded_composition(n):
    # The reference: square i conjugated by a shuffle of substream(seed,
    # "bose", i), as 'construct bose --square conjugate' has always drawn it.
    base = half_sum_square(n)
    for seed in range(6):
        squares = []
        for i in range(3):
            perm = list(range(n))
            substream(seed, "bose", i).shuffle(perm)
            squares.append(conjugate_square(base, tuple(perm)))
        assert bose_conjugate(n, seed) == bose(*squares)


def test_bose_triples_share_one_int_per_point():
    # As for WS: one int object per point, however many triples hold it.
    triples = bose_half_sum(101).system.triples
    assert len({id(p) for t in triples for p in t}) == 303


def test_bose_rejects_bad_inputs():
    sq5 = half_sum_square(5)
    with pytest.raises(ValueError, match="5 mod 6"):
        bose_half_sum(7)
    with pytest.raises(ValueError, match="common order"):
        bose(sq5, sq5, half_sum_square(11))
    # A symmetric Latin square that is not idempotent: the addition table.
    addition = LatinSquare(5, tuple(tuple((i + j) % 5 for j in range(5)) for i in range(5)))
    assert not addition.is_idempotent() and addition.is_symmetric()
    with pytest.raises(ValueError, match="idempotent"):
        bose(addition, sq5, sq5)


def test_bose_refuses_n_above_cap(monkeypatch):
    # The cap keeps order 3n <= 999, as for WS, and refuses before a square
    # is built: without LatinSquare a square cannot be made, and the
    # 99,995 x 99,995 half-sum square would hold about 10^10 entries.
    from types import SimpleNamespace

    from stskit import constructions

    assert MAX_BOSE_N == 333
    monkeypatch.setattr(constructions, "LatinSquare", None)
    for n in (335, 99_995):
        with pytest.raises(ValueError, match=f"n must be <= {MAX_BOSE_N}, got {n}"):
            half_sum_square(n)
        with pytest.raises(ValueError, match=f"n must be <= {MAX_BOSE_N}, got {n}"):
            bose_half_sum(n)
        big = SimpleNamespace(n=n)  # refused on its order before any entry is read
        with pytest.raises(ValueError, match=f"n must be <= {MAX_BOSE_N}, got {n}"):
            bose(big, big, big)


# ---------------------------------------------------------------------------
# cyclicity


@pytest.mark.parametrize("n", [5, 11])
def test_half_sum_bose_is_cyclic(n):
    assert verify_cyclic(bose_half_sum(n))


def test_cyclic_verifier_detects_mixed_squares():
    sq = half_sum_square(5)
    mixed = bose(sq, conjugate_square(sq, (1, 0, 2, 3, 4)), sq)
    assert verify_sts(mixed.system).ok  # still a valid system
    assert not verify_cyclic(mixed)


def test_cyclic_verifier_rejects_other_constructions():
    with pytest.raises(ValueError):
        verify_cyclic(wilson_schreiber(7))


# ---------------------------------------------------------------------------
# the order-33 fixture


def test_fixture_verifies():
    labelled, colouring = sts33_fixture()
    assert labelled.system.b == 176  # 11 + 11*10 + (10+9+9+9+9+9) = 33*32/6
    assert verify_sts(labelled.system).ok
    report = verify_colouring(labelled.system, colouring)
    assert report.ok and report.n_classes == 18


def _fixture_families(labelled) -> dict:
    """The fixture's families selected from its triples: the spine is the 11
    triples {i, 11+i, 22+i}, and every other triple is developed.  Each
    selection's size is the count the construction reports."""
    found: dict = {"spine": [], "developed": []}
    for a, b, c in labelled.system.triples:
        found["spine" if (b, c) == (a + 11, a + 22) else "developed"].append((a, b, c))
    assert {name: len(ts) for name, ts in found.items()} == labelled.families
    return found


def test_fixture_contains_base_triple():
    labelled, _ = sts33_fixture()
    found = _fixture_families(labelled)
    assert (0, 3, 7) in found["developed"]
    assert found["spine"] == [(i, 11 + i, 22 + i) for i in range(11)]


def test_fixture_developed_triples_sum_to_one_mod3():
    labelled, _ = sts33_fixture()
    found = _fixture_families(labelled)
    for t in found["developed"]:
        assert sum(t) % 3 == 1
    for t in found["spine"]:
        assert sum(t) % 3 == 0


def test_fixture_is_cyclic_under_shift():
    labelled, _ = sts33_fixture()
    assert _is_automorphism(labelled.system, lambda p: (p + 1) % 33)


def test_fixture_class_sizes():
    _, colouring = sts33_fixture()
    sizes = sorted((len(c.indices) for c in colouring.classes), reverse=True)
    assert sizes == [11] + [10] * 12 + [9] * 5
