from __future__ import annotations

import random
import re
import tempfile
import tracemalloc
from itertools import combinations
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stskit import (
    Colouring,
    PartialParallelClass,
    TripleSystem,
    VerificationReport,
    format_sts,
    m_lower,
    min_pc_for_low_chi,
    parse_colouring,
    parse_sts,
    random_sts,
    verify_colouring,
    verify_sts,
    wilson_schreiber,
)
from stskit import core

from conftest import FANO_TRIPLES


# ---------------------------------------------------------------------------
# TripleSystem construction


def test_from_triples_canonicalises():
    system = TripleSystem.from_triples(7, [(3, 1, 0), (4, 2, 1)])
    assert system.triples == ((0, 1, 3), (1, 2, 4))


def test_duplicate_triples_are_a_hard_error():
    with pytest.raises(ValueError, match="duplicate"):
        TripleSystem.from_triples(7, [(0, 1, 3), (3, 0, 1)])


def test_out_of_range_point_rejected():
    with pytest.raises(ValueError):
        TripleSystem.from_triples(7, [(0, 1, 7)])


@pytest.mark.parametrize("v, triples, message", [
    (0, (), "v must be positive, got 0"),
    (7, ((0, 1),), "triple (0, 1) does not have 3 entries"),
    (7, ((0, 1, 2, 3),), "triple (0, 1, 2, 3) does not have 3 entries"),
    (7, ((0, 1, 7),), "triple (0, 1, 7) has a point outside 0..6"),
    (7, ((-1, 0, 1),), "triple (-1, 0, 1) has a point outside 0..6"),
    (7, ((0, 1, 2.0),), "triple (0, 1, 2.0) has a point outside 0..6"),
    (7, ((0, "1", 2),), "triple (0, '1', 2) has a point outside 0..6"),
    # Out of range is checked before order, and both before the list order.
    (7, ((3, 1, 9),), "triple (3, 1, 9) has a point outside 0..6"),
    (7, ((0, 2, 1),), "triple (0, 2, 1) is not sorted; use from_triples"),
    (7, ((0, 1, 2), (0, 2, 1)), "triple (0, 2, 1) is not sorted; use from_triples"),
    (7, ((0, 1, 2), (0, 1, 2)), "duplicate triple (0, 1, 2)"),
    (7, ((0, 1, 3), (0, 1, 2)), "triple list is not sorted; use from_triples"),
    # The first bad triple wins.
    (7, ((0, 1, 2), (0, 1), (0, 1, 9)), "triple (0, 1) does not have 3 entries"),
    # A 3-subset has three distinct points; order is checked first.
    (7, ((0, 0, 1),), "triple (0, 0, 1) repeats a point"),
    (7, ((0, 1, 2), (3, 5, 5)), "triple (3, 5, 5) repeats a point"),
    (7, ((1, 0, 0),), "triple (1, 0, 0) is not sorted; use from_triples"),
])
def test_triple_system_constructor_errors(v, triples, message):
    with pytest.raises(ValueError) as exc:
        TripleSystem(v, triples)
    assert str(exc.value) == message


def test_int_subclass_points_are_accepted():
    # bool is an int: it passes the point checks, as it always has.
    assert TripleSystem(3, ((False, True, 2),)).triples == ((0, 1, 2),)


def test_triples_must_be_tuples():
    # A list triple would compare unequal to its tuple and is unhashable.
    with pytest.raises(ValueError, match="not a tuple; use from_triples"):
        TripleSystem(3, ([0, 1, 2],))
    with pytest.raises(ValueError, match="not a tuple"):
        TripleSystem(7, ((0, 1, 2), [0, 1, 3]))
    assert TripleSystem.from_triples(3, ([0, 1, 2],)) == TripleSystem(3, ((0, 1, 2),))

    class Triple(tuple):
        pass

    assert TripleSystem(3, (Triple((0, 1, 2)),)).triples == ((0, 1, 2),)


# ---------------------------------------------------------------------------
# verify_sts


def test_fano_verifies(fano):
    report = verify_sts(fano)
    assert report.ok and report.violation_count == 0


def test_sts9_grid_verifies(sts9_grid):
    assert sts9_grid.b == 12  # 9*8/6
    assert verify_sts(sts9_grid).ok


def test_duplicate_pair_reported_with_both_triples():
    # Swapping {0,1,3} for {0,1,4} doubles the pairs {0,4} and {1,4} and
    # uncovers {0,3} and {1,3}; the first violation carries both offenders.
    triples = [t for t in FANO_TRIPLES if t != (0, 1, 3)] + [(0, 1, 4)]
    broken = TripleSystem.from_triples(7, triples)
    report = verify_sts(broken)
    assert not report.ok
    assert "pair {0,4} covered twice" in report.first_violation
    assert "(0, 1, 4)" in report.first_violation and "(0, 4, 5)" in report.first_violation
    assert report.violation_count == 4


def test_uncovered_pair_and_count_violations():
    report = verify_sts(TripleSystem.from_triples(7, [(0, 1, 3)]))
    assert not report.ok
    assert report.violation_count > 1  # many uncovered pairs plus the count


def test_malformed_triple_reported():
    # A repeated point is refused where triples enter, so verify_sts never
    # sees one; from_triples sorts first and still refuses it.
    with pytest.raises(ValueError, match=r"^triple \(0, 0, 1\) repeats a point$"):
        TripleSystem(7, ((0, 0, 1), (2, 3, 4)))
    with pytest.raises(ValueError, match=r"^triple \(0, 1, 1\) repeats a point$"):
        TripleSystem.from_triples(7, [(2, 3, 4), (1, 0, 1)])


def test_verify_sts_memory_is_set_by_the_triples_not_v():
    # One triple under a large order: the search for the first uncovered
    # pair stops at once and allocates nothing sized by v.
    v = 2_000_003
    system = TripleSystem(v, ((0, 1, 2),))
    tracemalloc.start()
    try:
        report = verify_sts(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.first_violation == "pair {0,3} not covered"
    assert report.violation_count == v * (v - 1) // 2 - 3 + 1
    assert peak < 1_000_000


def test_verify_sts_holds_one_reference_per_pair():
    # WS(997), the largest construction: 498,501 pairs, filed once each.
    system = wilson_schreiber(997).system
    tracemalloc.start()
    try:
        report = verify_sts(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 8_000_000


def test_wrong_order_residue_never_ok():
    report = verify_sts(TripleSystem.from_triples(5, [(0, 1, 2)]))
    assert not report.ok


def test_pair_coverage_is_exactly_one(fano, sts9_grid):
    for system in (fano, sts9_grid):
        cover = {}
        for t in system.triples:
            for pair in combinations(t, 2):
                cover[pair] = cover.get(pair, 0) + 1
        assert all(c == 1 for c in cover.values())
        assert len(cover) == system.v * (system.v - 1) // 2


# ---------------------------------------------------------------------------
# bounds


@pytest.mark.parametrize("v,expected", [(9, 4), (13, 7), (33, 16), (7, 4), (15, 7)])
def test_m_lower(v, expected):
    assert m_lower(v) == expected


def test_m_lower_rejects_bad_residue():
    for v in (8, 11, 12):
        with pytest.raises(ValueError):
            m_lower(v)


@pytest.mark.parametrize("v,expected", [(15, 3), (33, 6), (9, 2)])
def test_min_pc_for_low_chi(v, expected):
    assert min_pc_for_low_chi(v) == expected


def test_min_pc_rejects_wrong_residue():
    with pytest.raises(ValueError):
        min_pc_for_low_chi(13)


# ---------------------------------------------------------------------------
# verify_colouring


def _resolution_of_grid(system: TripleSystem) -> Colouring:
    # Brute-force: partition the 12 triples into 4 disjoint classes of 3.
    masks = [1 << a | 1 << b | 1 << c for a, b, c in system.triples]
    full = (1 << 9) - 1
    classes = []
    for combo in combinations(range(12), 3):
        m = 0
        for i in combo:
            if m & masks[i]:
                break
            m |= masks[i]
        else:
            if m == full:
                classes.append(combo)
    assert len(classes) == 4
    used = set()
    for cls in classes:
        assert not used & set(cls)
        used |= set(cls)
    return Colouring(host=system,
                     classes=tuple(PartialParallelClass(c) for c in classes))


def test_grid_resolution_verifies(sts9_grid):
    colouring = _resolution_of_grid(sts9_grid)
    report = verify_colouring(sts9_grid, colouring)
    assert report.ok and report.n_classes == 4


def test_singleton_classes_always_verify(fano):
    colouring = Colouring(
        host=fano,
        classes=tuple(PartialParallelClass((i,)) for i in range(fano.b)))
    report = verify_colouring(fano, colouring)
    assert report.ok and report.n_classes == 7


def test_intersecting_triples_in_one_class_rejected(fano):
    i, j = fano.triples.index((0, 1, 3)), fano.triples.index((1, 2, 4))
    rest = [k for k in range(fano.b) if k not in (i, j)]
    classes = [PartialParallelClass(tuple(sorted((i, j))))]
    classes += [PartialParallelClass((k,)) for k in rest]
    report = verify_colouring(fano, Colouring(host=fano, classes=tuple(classes)))
    assert not report.ok
    assert "share point 1" in report.first_violation


def test_missing_and_doubled_triples_reported(fano):
    report = verify_colouring(fano, Colouring(
        host=fano, classes=(PartialParallelClass((0,)), PartialParallelClass((0,)))))
    assert not report.ok
    assert report.violation_count >= 6  # five missing plus the doubled one


def test_colouring_index_out_of_range_rejected(fano):
    with pytest.raises(ValueError):
        Colouring(host=fano, classes=(PartialParallelClass((99,)),))


def _oracle_colouring_ok(system: TripleSystem, classes) -> bool:
    # Independent quadratic check: partition plus pairwise disjointness.
    seen = []
    for cls in classes:
        for i in cls:
            seen.append(i)
        for a in cls:
            for b in cls:
                if a < b and set(system.triples[a]) & set(system.triples[b]):
                    return False
    return sorted(seen) == list(range(system.b)) and all(classes)


def test_verifier_matches_quadratic_oracle(fano, sts9_grid):
    import random

    rng = random.Random(20240901)
    for system in (fano, sts9_grid):
        for _ in range(40):
            k = rng.randrange(2, system.b + 1)
            groups = [[] for _ in range(k)]
            for i in range(system.b):
                groups[rng.randrange(k)].append(i)
            if rng.random() < 0.3 and groups[0]:
                groups[1].append(groups[0][0])  # overlap corruption
            groups = [g for g in groups if g]
            colouring = Colouring(
                host=system,
                classes=tuple(PartialParallelClass(tuple(sorted(set(g)))) for g in groups))
            ours = verify_colouring(system, colouring).ok
            oracle = _oracle_colouring_ok(
                system, [cls.indices for cls in colouring.classes])
            assert ours == oracle


# ---------------------------------------------------------------------------
# text formats


def test_sts_format_roundtrip_is_byte_stable(fano):
    text = format_sts(fano)
    assert text.startswith("STS v=7\n")
    again = parse_sts(text)
    assert again == fano
    assert format_sts(again) == text


def test_colouring_format_roundtrip(sts9_grid):
    colouring = _resolution_of_grid(sts9_grid)
    text = "".join(core.colouring_lines(colouring))
    assert text.splitlines()[0] == "COLOURING v=9 k=4"
    again = parse_colouring(text, sts9_grid)
    assert again == colouring
    assert "".join(core.colouring_lines(again)) == text


# Each malformed file and the error it must raise.
_PARSE_ERRORS = {
    "": "not an STS file",
    "\n  \n": "not an STS file",
    "BAD\n": "not an STS file",
    "STS v=x\n": "bad STS header 'STS v=x'",
    "STS v=7\n0 1\n": "line 2: expected 3 point indices, got '0 1'",
    "STS v=7\n0 1 a\n": "line 2: non-integer point in '0 1 a'",
    "STS v=7\n0 1 2 3\n": "line 2: expected 3 point indices, got '0 1 2 3'",
    # The first bad line wins, whichever its kind; blank lines are not counted.
    "STS v=7\n0 1 2\n0 1\n0 1 a\n": "line 3: expected 3",
    "STS v=7\n0 1 2\n0 1 a\n0 1\n": "line 3: non-integer",
    "STS v=7\n\n0 1 2\n  \n0 1 a\n0 1\n": "line 3: non-integer point in '0 1 a'",
    # Conversion errors come before the checks of the system itself.
    "STS v=7\n0 1 9\n0 1\n": "line 3: expected 3",
    "STS v=7\n0 1 9\n": "triple (0, 1, 9) has a point outside 0..6",
    "STS v=7\n0 1 2\n2 1 0\n": "duplicate triple",
    "STS v=7\n0 1 2\n1 0 0\n": "triple (0, 0, 1) repeats a point",
}


@pytest.mark.parametrize("text", list(_PARSE_ERRORS))
def test_parse_sts_rejects_malformed(text):
    with pytest.raises(ValueError, match=re.escape(_PARSE_ERRORS[text])):
        parse_sts(text)


@pytest.mark.parametrize("text", list(_PARSE_ERRORS))
def test_parse_sts_from_a_file_raises_as_from_its_text(tmp_path, text):
    path = tmp_path / "bad.sts"
    path.write_text(text)
    with pytest.raises(ValueError) as from_text:
        parse_sts(text)
    with open(path) as f, pytest.raises(ValueError) as from_file:
        parse_sts(f)
    assert str(from_file.value) == str(from_text.value)


def test_parse_sts_numbers_lines_across_blocks():
    # Line 100,000 of the WS(997) file lies far past the first block read.
    lines = format_sts(wilson_schreiber(997).system).splitlines(True)
    lines[99_999] = "0 1\n"
    with tempfile.TemporaryFile("w+") as f:
        f.writelines(lines)
        f.seek(0)
        with pytest.raises(ValueError, match=r"^line 100000: expected 3 point indices, "
                                             r"got '0 1'$"):
            parse_sts(f)


# The order-201 system: its file, 69,410 characters, is longer than one
# block, and line 6379 straddles the first block edge.
_WS201 = wilson_schreiber(199).system
_WS201_LINES = format_sts(_WS201).splitlines(True)
_ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                            "\u0665\u0666\u0667\u0668\u0669")


def _edited_ws201(edits: dict[int, str]) -> str:
    """The order-201 file with line ``n`` replaced by ``edits[n]``."""
    lines = list(_WS201_LINES)
    for n, line in edits.items():
        lines[n - 1] = line
    return "".join(lines)


# Edits of the order-201 file and the errors they raise, as the reader gave
# them when it read every line on its own.
@pytest.mark.parametrize("edits, message", [
    ({50: "0 1\n"}, "line 50: expected 3 point indices, got '0 1'"),
    ({6500: "5 6 x\n"}, "line 6500: non-integer point in '5 6 x'"),
    # Six tokens in two lines: a token count alone would pass them.
    ({20: "0 1\n", 21: "2 3 4 5\n"}, "line 20: expected 3 point indices, got '0 1'"),
    ({6500: "0 1\n", 6501: "2 3 4 5\n"}, "line 6500: expected 3 point indices, got '0 1'"),
    # A digit that int() refuses.
    ({6500: "102 107 \u00b2\n"}, "line 6500: non-integer point in '102 107 \u00b2'"),
    # Blank lines are not counted.
    ({6379: "\n", 6500: " 0 1\r\n"}, "line 6499: expected 3 point indices, got ' 0 1'"),
])
def test_parse_sts_names_the_first_bad_line(tmp_path, edits, message):
    text = _edited_ws201(edits)
    path = tmp_path / "bad.sts"
    path.write_text(text, newline="")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_sts(text)
    with open(path) as f, pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_sts(f)


def test_parse_sts_reads_non_ascii_decimal_digits():
    line = _WS201_LINES[6499].translate(_ARABIC_INDIC)
    assert line != _WS201_LINES[6499]
    assert parse_sts(_edited_ws201({6500: line})) == _WS201


def test_parse_colouring_rejects_mismatches(fano, sts9_grid):
    colouring = _resolution_of_grid(sts9_grid)
    text = "".join(core.colouring_lines(colouring))
    with pytest.raises(ValueError, match="does not match"):
        parse_colouring(text, fano)
    body = "\n".join(text.splitlines()[1:]) + "\n"
    with pytest.raises(ValueError, match="promises"):
        parse_colouring("COLOURING v=9 k=3\n" + body, sts9_grid)
    for header in ("COLOURING v=9 q=4", "COLOURING v=9 k=4 junk"):
        with pytest.raises(ValueError, match="bad colouring header"):
            parse_colouring(header + "\n" + body, sts9_grid)


@pytest.mark.parametrize("bad, message", [
    ("0 0 1", "class indices must be sorted and duplicate-free"),
    ("-1 2", "negative triple index"),
    ("5 12", "class references triple index 12 but the host has only 12 triples"),
])
def test_parse_colouring_names_the_line_of_a_bad_index(sts9_grid, bad, message):
    # Blank lines are not counted, as in STS files.
    text = f"COLOURING v=9 k=3\n3 4\n\n{bad}\n5\n"
    with pytest.raises(ValueError, match=re.escape(f"line 3: {message} in {bad!r}")):
        parse_colouring(text, sts9_grid)


# ---------------------------------------------------------------------------
# parser properties


@settings(max_examples=40, deadline=None)
@given(v=st.sampled_from([7, 9, 13, 15]), seed=st.integers(0, 2**32 - 1))
def test_format_parse_sts_round_trip(v, seed):
    system = random_sts(v, seed)
    assert parse_sts(format_sts(system)) == system


# Near-miss files: a real or broken header, then lines of small integers
# mixed with arbitrary short tokens.
_token = st.one_of(st.integers(-2, 25).map(str), st.text(max_size=3))
_line = st.lists(_token, max_size=4).map(" ".join)
_header = st.builds(lambda head, tail: head + tail,
                    st.sampled_from(["STS v=", "STS v=7", "COLOURING v=", "COLOURING v=7 k=",
                                     "COLOURING v=7 k=3", ""]),
                    _line)
_file = st.builds(lambda head, body: "\n".join([head, *body]),
                  _header, st.lists(_line, max_size=8))
_FANO = TripleSystem.from_triples(7, FANO_TRIPLES)


@settings(max_examples=200, deadline=None)
@given(text=_file)
def test_parse_sts_raises_only_value_error(text):
    try:
        system = parse_sts(text)
    except ValueError:
        return
    assert parse_sts(format_sts(system)) == system


def _parse_outcome(parse, source):
    """What ``parse`` reads from ``source``, or its error message."""
    try:
        return parse(source)
    except ValueError as e:
        return str(e)


def _parse_fano_colouring(source):
    return parse_colouring(source, _FANO)


# Every line break str.splitlines knows, and blank lines.
_break = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                          "\x85", "\u2028", "\u2029", "\n  \n"])
_broken_file = st.builds(
    lambda head, body, breaks: head + "".join(b + ln for b, ln in zip(breaks, body)),
    _header, st.lists(_line, max_size=8), st.lists(_break, min_size=8, max_size=8))


def _fano_colouring_file(classes: list[int]) -> str:
    """The colouring file putting triple i of the Fano plane in class
    ``classes[i]``; the classes need not be disjoint."""
    groups = [tuple(i for i, c in enumerate(classes) if c == k) for k in sorted(set(classes))]
    colouring = Colouring(host=_FANO, classes=tuple(map(PartialParallelClass, groups)))
    return "".join(core.colouring_lines(colouring))


@settings(max_examples=200, deadline=None)
@given(text=st.one_of(_file, _broken_file,
                      st.builds(format_sts, st.builds(random_sts, st.sampled_from([7, 9, 13, 15]),
                                                     st.integers(0, 2**32 - 1))),
                      st.builds(_fano_colouring_file,
                                st.lists(st.integers(0, 6), min_size=7, max_size=7))),
       block=st.integers(1, 12))
def test_parse_sts_reads_a_file_as_its_text(text, block):
    # The text, and the file holding it read as the CLI reads it, against
    # the file's whole content in one block; the small blocks split lines
    # and line breaks.  STS and colouring files are read alike.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.sts"
        path.write_text(text, encoding="utf-8", newline="")
        for parse in (parse_sts, _parse_fano_colouring):
            expected = _parse_outcome(parse, path.read_text(encoding="utf-8"))
            with mock.patch.object(core, "_BLOCK", block):
                assert _parse_outcome(parse, text) == expected
                with open(path, encoding="utf-8") as f:
                    assert _parse_outcome(parse, f) == expected


_SPACES = [" ", "  ", "\t", " \t "]


def _styled_file(system: TripleSystem, rnd, share: float) -> tuple[str, list]:
    """An STS file of ``system`` and its triples in file order.  The
    triples may be shuffled; about ``share`` of the lines take a random
    point order, leading zeros, extra spaces or tabs, a blank line before
    and a CRLF; the last line break may be missing."""
    triples = list(system.triples)
    if rnd.random() < 0.5:
        rnd.shuffle(triples)
    lines = [f"STS v={system.v}\n"]
    for i, t in enumerate(triples):
        if rnd.random() < share:
            t = triples[i] = tuple(rnd.sample(t, 3))
            points = rnd.choice(_SPACES).join(rnd.choice(["", "0", "00"]) + str(p) for p in t)
            lines.append(rnd.choice(["", "\n", " \n", "\t\r\n"]) + rnd.choice(["", " ", "\t"])
                         + points + rnd.choice(["", " ", "\t"]) + rnd.choice(["\n", "\r\n"]))
        else:
            lines.append("%d %d %d\n" % t)
    text = "".join(lines)
    return (text.rstrip("\n") if rnd.random() < 0.5 else text), triples


@settings(max_examples=40, deadline=None)
@given(system=st.one_of(st.builds(random_sts, st.sampled_from([7, 9, 13, 15, 19, 21]),
                                  st.integers(0, 2**32 - 1)),
                        st.just(_WS201)),
       rnd=st.integers(0, 2**32 - 1).map(random.Random),
       share=st.sampled_from([0.0, 0.001, 0.05, 1.0]),
       block=st.sampled_from([core._BLOCK, 4096, 61]))
def test_parse_sts_reads_any_layout_as_from_triples(tmp_path_factory, system, rnd, share,
                                                    block):
    # Canonical chunks are taken in bulk and the others line by line; the
    # small blocks put many block edges inside lines and line breaks.
    text, triples = _styled_file(system, rnd, share)
    expected = TripleSystem.from_triples(system.v, triples)
    path = tmp_path_factory.mktemp("layout") / "x.sts"
    path.write_text(text, newline="")
    with mock.patch.object(core, "_BLOCK", block):
        assert parse_sts(text) == expected
        with open(path) as f:
            assert parse_sts(f) == expected


def test_parse_sts_reads_a_line_across_the_block_edge(tmp_path):
    text = format_sts(_WS201)
    assert "\n" not in text[core._BLOCK - 2:core._BLOCK + 1]
    path = tmp_path / "ws201.sts"
    path.write_text(text)
    with open(path) as f:
        assert parse_sts(f) == _WS201


@settings(max_examples=200, deadline=None)
@given(text=_file)
def test_parse_colouring_raises_only_value_error(text):
    try:
        colouring = parse_colouring(text, _FANO)
    except ValueError:
        return
    assert parse_colouring("".join(core.colouring_lines(colouring)), _FANO) == colouring


# ---------------------------------------------------------------------------
# verifier properties: perturbed systems and colourings against quadratic
# oracles


def _verify_sts_reference(system: TripleSystem) -> VerificationReport:
    """verify_sts as it was written first, with one pair -> triple dict: the
    reference for its report, first violation and count included."""
    v = system.v
    first, count = None, 0

    def hit(msg, times=1):
        nonlocal first, count
        count += times
        first = first or msg

    clean = []
    for t in system.triples:
        if t[0] == t[1] or t[1] == t[2]:
            hit(f"malformed triple {t}: repeated point")
        else:
            clean.append(t)
    seen = {}
    for t in clean:
        for pair in combinations(t, 2):
            other = seen.get(pair)
            if other is None:
                seen[pair] = t
            else:
                hit(f"pair {{{pair[0]},{pair[1]}}} covered twice (triples {other} and {t})")
    missing = v * (v - 1) // 2 - len(seen)
    if missing > 0:
        pair = next(p for p in combinations(range(v), 2) if p not in seen)
        hit(f"pair {{{pair[0]},{pair[1]}}} not covered", missing)
    expected, rem = divmod(v * (v - 1), 6)
    if rem != 0:
        hit(f"order {v} admits no Steiner triple system (v(v-1)/6 is not an integer)")
    elif len(system.triples) != expected:
        hit(f"triple count {len(system.triples)} != v(v-1)/6 = {expected}")
    return VerificationReport(first_violation=first, violation_count=count)


def _verify_sts_pair_keys(system: TripleSystem) -> VerificationReport:
    """verify_sts as it was when it held one int key x*v+y per pair in a
    set: the reference for the partner-list version."""
    v = system.v
    first, count = None, 0

    def hit(msg, times=1):
        nonlocal first, count
        count += times
        first = first or msg

    triples = system.triples
    keys = set()
    for a, b, c in triples:
        keys.update((a * v + b, a * v + c, b * v + c))
    if len(keys) < 3 * len(triples):
        seen = {}
        for t in triples:
            for pair in combinations(t, 2):
                other = seen.get(pair)
                if other is None:
                    seen[pair] = t
                else:
                    hit(f"pair {{{pair[0]},{pair[1]}}} covered twice (triples {other} and {t})")
    missing = v * (v - 1) // 2 - len(keys)
    if missing > 0:
        pair = next((x, y) for x in range(v) for y in range(x + 1, v) if x * v + y not in keys)
        hit(f"pair {{{pair[0]},{pair[1]}}} not covered", missing)
    expected, rem = divmod(v * (v - 1), 6)
    if rem != 0:
        hit(f"order {v} admits no Steiner triple system (v(v-1)/6 is not an integer)")
    elif len(triples) != expected:
        hit(f"triple count {len(triples)} != v(v-1)/6 = {expected}")
    return VerificationReport(first_violation=first, violation_count=count)


def _sts_oracle(v, triples):
    if any(len(set(t)) != 3 for t in triples):
        return False
    return all(sum(1 for t in triples if x in t and y in t) == 1
               for x, y in combinations(range(v), 2))


def _colouring_oracle(triples, groups):
    if any(not g for g in groups):
        return False
    if any(sum(1 for g in groups if i in g) != 1 for i in range(len(triples))):
        return False
    return all(not set(triples[i]) & set(triples[j])
               for g in groups for i, j in combinations(g, 2))


_orders = st.sampled_from([7, 9, 13, 15])
_seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=120, deadline=None)
@given(v=_orders, seed=_seeds, data=st.data())
def test_verify_sts_matches_oracle_on_perturbed_systems(v, seed, data):
    triples = [list(t) for t in random_sts(v, seed).triples]
    kind = data.draw(st.sampled_from(["none", "swap-point", "swap-points", "drop", "add",
                                      "duplicate", "malformed"]))
    i = data.draw(st.integers(0, len(triples) - 1))
    if kind in ("swap-point", "swap-points"):
        # One changed point doubles two pairs; several give several
        # duplicate pairs, and may repeat a point within a triple.
        for _ in range(1 if kind == "swap-point" else data.draw(st.integers(2, 5))):
            j, k = data.draw(st.integers(0, len(triples) - 1)), data.draw(st.integers(0, 2))
            triples[j][k] = data.draw(st.sampled_from(
                [p for p in range(v) if p != triples[j][k]]))
    elif kind == "drop":
        del triples[i]
    elif kind == "add":
        triples.append(data.draw(st.lists(st.integers(0, v - 1), min_size=3, max_size=3)))
    elif kind == "duplicate":
        triples.append(list(reversed(triples[i])))
    elif kind == "malformed":
        for j in data.draw(st.sets(st.integers(0, len(triples) - 1), min_size=1, max_size=3)):
            p, q = data.draw(st.lists(st.integers(0, v - 1), min_size=2, max_size=2))
            triples[j] = [p, p, q]
    # from_triples refuses the first triple, in canonical order, that
    # repeats a point or repeats the triple before it.
    canon = sorted(tuple(sorted(t)) for t in triples)
    bad = next((t for t, prev in zip(canon, [None, *canon]) if len(set(t)) < 3 or t == prev),
               None)
    if bad is not None:
        with pytest.raises(ValueError, match="repeats a point" if len(set(bad)) < 3
                           else "duplicate"):
            TripleSystem.from_triples(v, triples)
        return
    system = TripleSystem.from_triples(v, triples)
    report = verify_sts(system)
    assert report.ok == _sts_oracle(v, system.triples)
    if kind != "swap-points":  # four changed points can make a Pasch switch
        assert report.ok == (kind == "none")
    assert report == _verify_sts_reference(system)


@settings(max_examples=60, deadline=None)
@given(v=_orders, seed=_seeds, heuristic=st.booleans(), data=st.data())
def test_verify_colouring_matches_oracle_on_perturbed_colourings(v, seed, heuristic, data):
    from stskit import chromatic_index_heuristic
    from stskit.analysis import _greedy_colouring

    system = random_sts(v, seed)
    assign = _greedy_colouring(system)
    groups = [{i for i, c in enumerate(assign) if c == k} for k in range(max(assign) + 1)]
    if heuristic:
        # One class below first-fit, so the walk runs rather than returning
        # first-fit itself.
        target = max(len(groups) - 1, m_lower(v))
        found = chromatic_index_heuristic(system, target, seed=seed, restarts=1)
        if found is not None:
            groups = [set(c.indices) for c in found.classes]
    kind = data.draw(st.sampled_from(["none", "move", "drop", "duplicate", "empty"]))
    i = data.draw(st.integers(0, system.b - 1))
    home = next(g for g in groups if i in g)
    other = data.draw(st.sampled_from(groups))
    if kind == "move":
        home.discard(i)
        other.add(i)
    elif kind == "drop":
        home.discard(i)
    elif kind == "duplicate":
        other.add(i)
    elif kind == "empty":
        groups.append(set())
    colouring = Colouring(system, tuple(PartialParallelClass(tuple(sorted(g)))
                                        for g in groups))
    assert verify_colouring(system, colouring).ok == _colouring_oracle(system.triples, groups)


@settings(max_examples=150, deadline=None)
@given(v=st.integers(3, 15), seed=_seeds, data=st.data())
def test_verify_sts_matches_the_pair_key_version(v, seed, data):
    # A Steiner system where the order has one, less some triples and plus
    # others: repeated pairs, uncovered pairs and wrong counts.
    start = set(random_sts(v, seed).triples) if v >= 7 and v % 6 in (1, 3) else set()
    drop = data.draw(st.sets(st.sampled_from(sorted(start)), max_size=4)) if start else set()
    triple = st.lists(st.integers(0, v - 1), min_size=3, max_size=3, unique=True)
    add = data.draw(st.sets(triple.map(lambda t: tuple(sorted(t))), max_size=6))
    system = TripleSystem.from_triples(v, (start - drop) | add)
    assert verify_sts(system) == _verify_sts_pair_keys(system)
