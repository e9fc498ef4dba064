"""Core types for triple systems, partial parallel classes and colourings,
plus the Steiner-property and colouring verifiers and the plain-text file
formats.

All types are immutable values; every operation here is pure.

Conventions: points are always 0..v-1, each triple is stored sorted
ascending, and the triple list is sorted lexicographically.  Constructions
with a natural labelling (cyclic groups, infinity points, grid coordinates)
state their map onto 0..v-1, see :mod:`stskit.constructions`.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import defaultdict
from functools import partial
from itertools import chain, combinations, groupby
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence, TextIO

__all__ = [
    "Colouring",
    "PartialParallelClass",
    "TripleSystem",
    "VerificationReport",
    "colouring_lines",
    "format_sts",
    "m_lower",
    "parse_colouring",
    "parse_sts",
    "sts_lines",
    "verify_colouring",
    "verify_sts",
]


class VerificationReport(NamedTuple):
    """Outcome of a verifier: first violation and total count; ok when the
    count is zero."""

    first_violation: str | None = None
    violation_count: int = 0
    n_classes: int | None = None

    @property
    def ok(self) -> bool:
        return self.violation_count == 0


class Violations:
    """Collects a verifier's violations: the first message and the count.
    Call it once per violation, or with ``times`` for a run of them."""

    __slots__ = ("first", "count")

    def __init__(self) -> None:
        self.first: str | None = None
        self.count = 0

    def __call__(self, msg: str, times: int = 1) -> None:
        self.count += times
        if self.first is None:
            self.first = msg

    def report(self, n_classes: int | None = None) -> VerificationReport:
        return VerificationReport(first_violation=self.first, violation_count=self.count,
                                  n_classes=n_classes)


class TripleSystem(NamedTuple("TripleSystem", [("v", int),
                                               ("triples", tuple[tuple[int, int, int], ...])])):
    """A set of 3-subsets ("triples") of the points 0..v-1, in canonical order.

    The constructor enforces only well-formedness: point labels in range,
    each triple three distinct points in ascending order, the list sorted,
    and no duplicate triples (duplicates are a hard error, never merged).
    Whether the system is actually Steiner is the job of :func:`verify_sts`.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, v: int, triples: tuple[tuple[int, int, int], ...]) -> TripleSystem:
        self = super().__new__(cls, v, triples)
        if v < 1:
            raise ValueError(f"v must be positive, got {v}")
        prev = None
        for t in triples:
            try:
                a, b, c = t
            except ValueError:
                raise ValueError(f"triple {t} does not have 3 entries") from None
            if not (type(t) is tuple and type(a) is type(b) is type(c) is int
                    and 0 <= a < b < c < v):
                self._check_points(t)
            if prev is not None and t <= prev:
                if t == prev:
                    raise ValueError(f"duplicate triple {t}")
                raise ValueError("triple list is not sorted; use from_triples")
            prev = t
        return self

    def _check_points(self, t: tuple[int, int, int]) -> None:
        """The checks of ``__new__`` one by one, for a triple that fails its
        one-comparison fast path (int and tuple subclasses pass)."""
        if not all(isinstance(p, int) and 0 <= p < self.v for p in t):
            raise ValueError(f"triple {t} has a point outside 0..{self.v - 1}")
        if not (t[0] <= t[1] <= t[2]):
            raise ValueError(f"triple {t} is not sorted; use from_triples")
        if t[0] == t[1] or t[1] == t[2]:
            raise ValueError(f"triple {t} repeats a point")
        if not isinstance(t, tuple):
            raise ValueError(f"triple {t} is not a tuple; use from_triples")

    @classmethod
    def from_triples(cls, v: int, triples: Iterable[Sequence[int]]) -> TripleSystem:
        """Canonicalise and build: sorts within each triple and sorts the list."""
        return cls(v, tuple(sorted(map(tuple, map(sorted, triples)))))  # type: ignore[arg-type]

    @property
    def b(self) -> int:
        return len(self.triples)


class PartialParallelClass(NamedTuple("PartialParallelClass", [("indices", tuple[int, ...])])):
    """A set of triple indices of a host system, intended pairwise disjoint."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, indices: tuple[int, ...]) -> PartialParallelClass:
        if list(indices) != sorted(set(indices)):
            raise ValueError("class indices must be sorted and duplicate-free")
        if indices and indices[0] < 0:
            raise ValueError("negative triple index")
        return super().__new__(cls, indices)


class Colouring(NamedTuple("Colouring", [("host", TripleSystem),
                                         ("classes", tuple[PartialParallelClass, ...])])):
    """An assignment of the host's triples to colour classes."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, host: TripleSystem, classes: tuple[PartialParallelClass, ...]) -> Colouring:
        for pcls in classes:
            if pcls.indices and pcls.indices[-1] >= host.b:
                raise ValueError(f"class references triple index {pcls.indices[-1]} "
                                 f"but the host has only {host.b} triples")
        return super().__new__(cls, host, classes)

    @property
    def n_classes(self) -> int:
        return len(self.classes)


# ---------------------------------------------------------------------------
# bounds


def m_lower(v: int) -> int:
    """Counting lower bound on the chromatic index of any system of order v."""
    if v % 6 == 3:
        return (v - 1) // 2
    if v % 6 == 1:
        return (v + 1) // 2
    raise ValueError(f"order {v} must be 1 or 3 mod 6")


# ---------------------------------------------------------------------------
# verification


def verify_sts(system: TripleSystem) -> VerificationReport:
    """Check the Steiner property: every pair in exactly one triple, and the
    triple count v(v-1)/6.

    Reports the first violation found (duplicate pair with both offending
    triples, uncovered pair, or wrong triple count) plus a total violation
    count.

    Each pair {x,y}, x < y, is counted once under x.  The canonical order
    puts the triples with first point a in one run, which gives the pairs
    {a,b} and {a,c} of each; only the pair {b,c} of a triple (a,b,c) is
    filed, in a list per middle point b that shares the triples' point
    objects.  A temporary set per point, its run's points and its list,
    counts its distinct partners.  So the check holds one reference per
    triple and nothing sized by v, and only a failed check does more: a
    re-scan that names both triples of each repeated pair, and a walk to
    the first uncovered pair.
    """
    v = system.v
    if v < 3:
        raise ValueError(f"order {v} too small to verify")
    hit = Violations()
    triples = system.triples

    middle = _middle_lists(triples)
    covered = 0
    for a, run in groupby(triples, itemgetter(0)):
        mates = set(chain.from_iterable(run))
        mates.update(middle.pop(a, ()))
        covered += len(mates) - 1  # a itself
    covered += sum(map(len, map(set, middle.values())))
    if covered < 3 * len(triples):
        # Some pair is covered twice: re-scan to name both triples each time.
        seen: dict[tuple[int, int], tuple[int, int, int]] = {}
        for t in triples:
            for pair in combinations(t, 2):
                other = seen.get(pair)
                if other is None:
                    seen[pair] = t
                else:
                    hit(f"pair {{{pair[0]},{pair[1]}}} covered twice (triples {other} and {t})")

    missing = v * (v - 1) // 2 - covered
    if missing > 0:
        # Report the first uncovered pair; the count covers all of them.  The
        # walk passes only covered pairs before it, so it takes at most
        # covered + 1 steps and holds one point's partners at a time.
        middle = _middle_lists(triples)
        for x in range(v):
            run = triples[bisect_left(triples, (x,)):bisect_left(triples, (x + 1,))]
            mates = set(chain.from_iterable(run))
            mates.update(middle.get(x, ()))
            y = next((y for y in range(x + 1, v) if y not in mates), None)
            if y is not None:
                break
        hit(f"pair {{{x},{y}}} not covered", missing)

    expected, rem = divmod(v * (v - 1), 6)
    if rem != 0:
        hit(f"order {v} admits no Steiner triple system (v(v-1)/6 is not an integer)")
    elif len(triples) != expected:
        hit(f"triple count {len(triples)} != v(v-1)/6 = {expected}")

    return hit.report()


def _middle_lists(triples: Sequence[tuple[int, int, int]]) -> defaultdict[int, list[int]]:
    """The last point c of each triple (a, b, c), listed under its middle
    point b."""
    middle: defaultdict[int, list[int]] = defaultdict(list)
    for _, b, c in triples:
        middle[b].append(c)
    return middle


def verify_colouring(system: TripleSystem, colouring: Colouring) -> VerificationReport:
    """Check that the classes partition the triple indices and that no class
    contains two triples sharing a point.  Reports the class count."""
    if colouring.host != system:
        raise ValueError("colouring was built for a different system")
    hit = Violations()
    assigned = [0] * system.b
    for c, cls in enumerate(colouring.classes):
        if not cls.indices:
            hit(f"class {c} is empty")
        used: dict[int, int] = {}
        for i in cls.indices:
            assigned[i] += 1
            for p in system.triples[i]:
                j = used.get(p)
                if j is None:
                    used[p] = i
                else:
                    hit(f"class {c}: triples {system.triples[j]} and "
                        f"{system.triples[i]} share point {p}")
    for i, times in enumerate(assigned):
        if times == 0:
            hit(f"triple {system.triples[i]} is in no class")
        elif times > 1:
            hit(f"triple {system.triples[i]} is in {times} classes")

    return hit.report(n_classes=colouring.n_classes)


# ---------------------------------------------------------------------------
# text formats
#
# STS file:        first line "STS v=<v>", then one triple per line as three
#                  space-separated point indices, in canonical order.
# Colouring file:  first line "COLOURING v=<v> k=<classes>", then one line per
#                  class listing the indices of its triples (into the host's
#                  canonical triple list), sorted ascending.
#
# Both are byte-reproducible given the same system.


def sts_lines(system: TripleSystem) -> Iterator[str]:
    """The STS file of ``system`` in chunks of whole lines, each ending in a
    newline: the header line, then the triples' lines in blocks of at most
    ``_LINES``.  Points are written with ``%d``, so int subclasses such as
    ``bool`` are written as the numbers they are."""
    yield "STS v=%d\n" % system.v
    triples = system.triples
    for i in range(0, len(triples), _LINES):
        block = triples[i:i + _LINES]
        yield ("%d %d %d\n" * len(block)) % tuple(chain.from_iterable(block))


def format_sts(system: TripleSystem) -> str:
    return "".join(sts_lines(system))


# Triples formatted at a time by sts_lines.
_LINES = 4096

# Characters read from a file at a time.  Each block's token list leaves
# partly empty memory pools behind, which the small-object allocator keeps,
# so a smaller block lowers the peak of every read; 16 KiB parses as fast
# as 64 KiB.
_BLOCK = 1 << 14

# Whole lines as sts_lines writes them: three ASCII point numbers, one space
# between them and "\n" after.
_CANONICAL = re.compile(r"(?:[0-9]+ [0-9]+ [0-9]+\n)*")


def _chunks(source: str | TextIO) -> Iterator[str]:
    """The text of ``source``, a text or a file open for reading, read
    ``_BLOCK`` characters at a time and cut into chunks of whole lines.  A
    block is cut after its last ``"\\n"`` or, with none, before its last
    line as ``str.splitlines`` finds it; the rest goes before the next
    block.  So a file is never held whole, and its chunks split into lines
    as its text does."""
    if isinstance(source, str):
        blocks: Iterable[str] = (source[i:i + _BLOCK] for i in range(0, len(source), _BLOCK))
    else:
        blocks = iter(partial(source.read, _BLOCK), "")
    rest = ""
    for block in blocks:
        text = rest + block
        cut = text.rfind("\n") + 1 or len(text) - len(text.splitlines(True)[-1])
        yield text[:cut]
        rest = text[cut:]
    if rest:
        yield rest


def _header_and_body(source: str | TextIO, magic: str,
                     refusal: str) -> tuple[str, Iterator[str]]:
    """The header line of a text or of a file open for reading, which is its
    first non-blank line, and the text after it in chunks of whole lines
    (see :func:`_chunks`); refuses a header not starting with ``magic``.
    Only the chunk holding the header is split into lines here: a reader
    may take any other chunk in bulk, and the lines of the body are
    numbered from 2, not counting blank lines."""
    chunks = _chunks(source)
    for chunk in chunks:
        lines = chunk.splitlines(True)
        for i, head in enumerate(lines):
            if head.strip():
                if not head.startswith(magic):
                    raise ValueError(refusal)
                return head.splitlines()[0], chain(("".join(lines[i + 1:]),), chunks)
    raise ValueError(refusal)


class _Points(dict):
    """The points of a file by their text: each is converted once, and its
    triples share one int object."""

    def __missing__(self, token: str) -> int:
        point = self[token] = int(token)
        return point


def parse_sts(source: str | TextIO) -> TripleSystem:
    """Parse an STS file from its text or from a file open for reading.

    A chunk of the body in the canonical form, lines of ``"a b c\\n"`` as
    :func:`sts_lines` writes them, is proved so by one regular-expression
    match and converted in bulk.  Any other chunk (blank lines, tabs, other
    line breaks, signs, non-ASCII digits, no final newline) is read line by
    line, and its first bad line raises, naming its number, before any
    check of the system.  A file in canonical order is taken as it stands;
    any other goes through :meth:`TripleSystem.from_triples`."""
    head, chunks = _header_and_body(source, "STS v=",
                                    "not an STS file: expected first line 'STS v=<v>'")
    try:
        v = int(head[len("STS v="):])
    except ValueError:
        raise ValueError(f"bad STS header {head!r}") from None
    point = _Points().__getitem__
    # A list: a tuple grown item by item goes back to the youngest garbage
    # collector generation at each resize, and each collection rescans it.
    triples: list[tuple[int, int, int]] = []
    for chunk in chunks:
        if _CANONICAL.fullmatch(chunk):
            points = map(point, chunk.split())
            triples += zip(points, points, points)
            continue
        for ln in filter(str.strip, chunk.splitlines()):
            try:
                a, b, c = ln.split()
                triples.append((point(a), point(b), point(c)))
            except ValueError:
                # Each line before this one gave one triple.
                lineno = len(triples) + 2
                if len(ln.split()) != 3:
                    raise ValueError(f"line {lineno}: expected 3 point indices, "
                                     f"got {ln!r}") from None
                raise ValueError(f"line {lineno}: non-integer point in {ln!r}") from None
    system = tuple(triples)
    try:
        return TripleSystem(v, system)
    except ValueError:
        return TripleSystem.from_triples(v, system)


def colouring_lines(colouring: Colouring) -> Iterator[str]:
    """The lines of the colouring file of ``colouring``, each ending in a
    newline."""
    yield "COLOURING v=%d k=%d\n" % (colouring.host.v, colouring.n_classes)
    for cls in colouring.classes:
        yield " ".join(map("%d".__mod__, cls.indices)) + "\n"


def parse_colouring(source: str | TextIO, host: TripleSystem) -> Colouring:
    """Parse a colouring file of ``host``, read as :func:`parse_sts` reads."""
    head, body = _header_and_body(source, "COLOURING v=",
                                  "not a colouring file: expected 'COLOURING v=<v> k=<k>'")
    try:
        _, v_field, k_field = head.split()  # "COLOURING", "v=<v>", "k=<k>", nothing more
        if not k_field.startswith("k="):
            raise ValueError
        v, k = int(v_field[len("v="):]), int(k_field[len("k="):])
    except ValueError:
        raise ValueError(f"bad colouring header {head!r}") from None
    if v != host.v:
        raise ValueError(f"colouring order {v} does not match system order {host.v}")
    classes = []
    lines = filter(str.strip, chain.from_iterable(map(str.splitlines, body)))
    for lineno, ln in enumerate(lines, start=2):
        try:
            idxs = tuple(sorted(int(p) for p in ln.split()))
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer triple index in {ln!r}") from None
        try:
            cls = PartialParallelClass(idxs)
            Colouring(host, (cls,))
        except ValueError as exc:  # a repeated, negative or out-of-range index
            raise ValueError(f"line {lineno}: {exc} in {ln!r}") from None
        classes.append(cls)
    if len(classes) != k:
        raise ValueError(f"header promises {k} classes but file has {len(classes)}")
    return Colouring(host=host, classes=tuple(classes))
