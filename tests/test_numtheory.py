from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stskit import (
    SCAN_KINDS,
    f_of,
    number_profile,
    scan_profiles,
    scan_rows,
    subgroup_order,
)
from stskit.numtheory import (
    SCAN_LIMIT_MAX,
    ScanRow,
    _neg_double_order,
    _unit_profile,
    divisors_gt1,
    euler_phi,
    factorise,
    smallest_prime_factor_sieve,
)


# ---------------------------------------------------------------------------
# subgroup orders


@pytest.mark.parametrize("d,expected", [(7, 6), (127, 14), (13, 12), (5, 4), (73, 18)])
def test_subgroup_order_neg1_neg2(d, expected):
    assert subgroup_order(d, [-1, -2]) == expected


def test_subgroup_order_rejects_bad_inputs():
    with pytest.raises(ValueError):
        subgroup_order(10, [-1, -2])
    with pytest.raises(ValueError):
        subgroup_order(9, [3])


def test_fast_order_path_agrees_with_closure_sample():
    for d in range(5, 700):
        if d % 6 in (1, 5):
            assert _neg_double_order(d, euler_phi(d)) == subgroup_order(d, [-1, -2])


def test_subgroup_order_invariants():
    for d in range(5, 500):
        if d % 6 not in (1, 5):
            continue
        order = subgroup_order(d, [-1, -2])
        phi = euler_phi(d)
        assert order % 2 == 0
        assert phi % order == 0
        ord2 = subgroup_order(d, [2])
        assert order >= ord2 > math.log2(d) - 1e-9  # 2^ord2 >= d


# ---------------------------------------------------------------------------
# g, f, psi


@pytest.mark.parametrize("d,expected", [(7, 1), (13, 0), (127, 9), (5, 0), (73, 4)])
def test_g_of(d, expected):
    assert number_profile(d).g == expected


def test_g_of_rejects_multiples_of_two_and_three():
    for d in (9, 10, 15, 21, 6):
        with pytest.raises(ValueError):
            number_profile(d)


def test_g_of_matches_closure_oracle():
    for d in range(5, 400):
        if d % 6 not in (1, 5):
            continue
        order = subgroup_order(d, [-1, -2])
        expected = 0 if order % 4 == 0 else euler_phi(d) // order
        assert number_profile(d).g == expected


def test_profiles():
    p7 = number_profile(7)
    assert (p7.f, p7.psi, p7.psi_star) == (1, -12, -12)
    assert p7.divisors_gt1 == (7,)
    p13 = number_profile(13)
    assert (p13.f, p13.psi_star) == (0, 12)
    p49 = number_profile(49)
    assert (p49.f, p49.psi_star) == (2, 12)
    assert p49.sub_order == 42  # order of -2 mod 49, which is 2 mod 4
    assert f_of(49) == 2 and (p49.psi, p49.psi_star) == (24, 12)


def test_profile_rejects_bad_n():
    for n in (1, 9, 12, 15):
        with pytest.raises(ValueError):
            number_profile(n)


def test_totient_divisor_sum_identity():
    for n in range(5, 2000):
        if n % 6 in (1, 5):
            assert sum(euler_phi(d) for d in divisors_gt1(n)) == n - 1


def test_psi_star_identity():
    for n in (7, 25, 49, 91, 511, 997):
        assert number_profile(n).psi_star == n - 1 - 18 * f_of(n)


# ---------------------------------------------------------------------------
# scans


def _kind(kind: str, limit: int) -> list[ScanRow]:
    return list(filter(SCAN_KINDS[kind], scan_rows(limit)))


def test_exceptions_kind_examples():
    assert [r.n for r in _kind("exceptions", 600)] == [7, 11, 19, 31, 43, 73, 127, 511]
    assert _kind("exceptions", 6) == []


def test_negative_psi_kind_examples():
    assert [(r.n, r.psi) for r in _kind("negative-psi", 200)] == [
        (7, -12), (11, -8), (31, -24), (43, -12), (127, -36)]
    assert [(r.n, r.psi) for r in _kind("negative-psi", 30)] == [(7, -12), (11, -8)]
    assert _kind("negative-psi", 5) == []


def test_scan_profiles_lists_scan_rows():
    assert scan_profiles(600) == list(scan_rows(600))


def test_scan_rows_are_consistent_with_profiles():
    for limit in (300, 5000):
        rows = list(scan_rows(limit))
        assert [r.n for r in rows][:4] == [5, 7, 11, 13]
        for row in rows:
            p = number_profile(row.n)
            assert (row.phi, row.f, row.psi, row.psi_star) == (p.phi, p.f, p.psi, p.psi_star)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=3, max_value=400))
def test_scan_sweep_matches_per_n_profiles(limit):
    rows = list(scan_rows(limit))
    profiles = [number_profile(n) for n in range(5, limit + 1) if n % 6 in (1, 5)]
    assert rows == [ScanRow(p.n, p.phi, p.f, p.psi, p.psi_star) for p in profiles]
    for row in rows:
        order = subgroup_order(row.n, [-1, -2])
        g = (row.phi - row.psi) // 18
        assert g == (0 if order % 4 == 0 else row.phi // order)


def test_scan_sieve_matches_per_n_route_to_100000():
    # The range sieve takes phi and the order of -2 from prime powers; the
    # per-n route factorises phi(n) and calls pow for every n.
    rows = list(scan_rows(10**5))
    assert len(rows) == 33_332
    for row in rows:
        phi, _, g = _unit_profile(row.n)
        assert (row.phi, (row.phi - row.psi) // 18) == (phi, g), row.n


def test_scan_rejects_tiny_limit():
    with pytest.raises(ValueError):
        scan_rows(2)


def test_scan_rejects_limit_above_cap():
    with pytest.raises(ValueError, match="<="):
        scan_rows(SCAN_LIMIT_MAX + 1)


def test_smallest_prime_factor_sieve():
    for limit in (2, 3, 4, 25, 1000):
        spf = smallest_prime_factor_sieve(limit)
        assert len(spf) == limit + 1
        for k in range(2, limit + 1):
            assert spf[k] == min(factorise(k)), k
    spf = smallest_prime_factor_sieve(10**4)
    for k in range(2, 10**4 + 1):
        assert factorise(k, spf) == factorise(k), k
