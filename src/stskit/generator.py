"""Hill-climbing generator of random Steiner triple systems, plus a survey
of how hard random systems are to colour near the counting bound.

The climb is the classic one (Stinson 1985): pick a point with uncovered
pairs, pick two of its uncovered partners, and insert the triple, evicting
the triple that already covers the partner pair if there is one.
Covered-pair count never decreases, and the walk completes quickly in
practice.  Identical (v, seed) always reproduces the identical system.

Pair coverage is kept once, in a v x v table of third points (-1 for an
uncovered pair); orders above ``MAX_V`` are refused before it is allocated.
"""

from __future__ import annotations

from itertools import compress
from typing import NamedTuple

from .analysis import chromatic_index_heuristic
from .core import TripleSystem, m_lower
from .rng import derive_seed, substream

__all__ = ["GenerationError", "SurveyResult", "batch_seed", "batch_system", "check_batch",
           "check_order", "colouring_survey", "random_sts"]


class GenerationError(ValueError):
    """The climb hit its step cap before completing a system.  A
    ``ValueError``, so the CLI reports it as a usage error (exit 2)."""


# The largest order random_sts builds: the walk takes about v^2 log v steps
# of O(v) each, and a cold `stskit generate --v 999 --count 1` takes about
# 100 s and 67 MB max RSS on a 2-vCPU host.
MAX_V = 999

# The most climb steps random_sts takes before it gives up with
# GenerationError.
MAX_STEPS = 10_000_000


def batch_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th system in a batch; shared by the generate
    command and the survey so the surveyed systems can be re-materialised."""
    return derive_seed(seed, "survey", index)


def check_order(v: int) -> None:
    """Refuse an order v that :func:`random_sts` does not build."""
    if v % 6 not in (1, 3) or not 7 <= v <= MAX_V:
        raise ValueError(f"order must be 1 or 3 mod 6 with 7 <= v <= {MAX_V}, got {v}")


def check_batch(v: int, count: int) -> None:
    """Refuse a batch of ``count`` systems of order v before its first
    system: a negative count, or an order :func:`random_sts` does not build."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    check_order(v)


def batch_system(v: int, seed: int, index: int) -> TripleSystem:
    """The ``index``-th system of order v in the batch ``seed``."""
    return random_sts(v, batch_seed(seed, index))


def random_sts(v: int, seed: int) -> TripleSystem:
    """A random Steiner triple system of order v, deterministic in ``seed``."""
    check_order(v)
    rng = substream(seed, "sts", v)

    # The diagonal holds x, so x is never its own partner.
    third = [[-1] * x + [x] + [-1] * (v - 1 - x) for x in range(v)]
    free = [v - 1] * v  # uncovered pairs through each point

    steps = 0
    while candidates := list(compress(range(v), free)):
        steps += 1
        if steps > MAX_STEPS:
            raise GenerationError(
                f"order {v}, seed {seed}: {(v * (v - 1) - sum(free)) // 6}/"
                f"{v * (v - 1) // 6} triples after {MAX_STEPS} steps")
        x = rng.choice(candidates)
        # x's partners are the -1 positions of its row, in ascending order.
        row, partners, i = third[x], [], -1
        for _ in range(free[x]):
            i = row.index(-1, i + 1)
            partners.append(i)
        y, z = rng.sample(partners, 2)
        # The blocking triple (y, z, w) cannot hold x, since {x, y} is
        # uncovered; it gives up {y, w} and {z, w}, and {y, z} passes to x.
        w = third[y][z]
        if w != -1:
            third[y][w] = third[w][y] = third[z][w] = third[w][z] = -1
            free[w] += 2
        else:  # {y, z} was uncovered too
            free[y] -= 2
            free[z] -= 2
        free[x] -= 2
        third[x][y], third[y][x], third[x][z], third[z][x] = z, z, y, y
        third[y][z] = third[z][y] = x

    # Each triple once, as x < y < z = third[x][y], already in sorted order.
    return TripleSystem(v, tuple((x, y, z) for x, row in enumerate(third)
                                 for y, z in enumerate(row) if x < y < z))


class SurveyResult(NamedTuple):
    v: int
    m: int
    counts: dict  # "m" | "m+1" | "m+2" | "fail" -> number of systems
    generator_failures: int


def colouring_survey(v: int, count: int, seed: int,
                     restarts: int = 6) -> SurveyResult:
    """Generate ``count`` random systems and record, per system, the least
    target among m(v), m(v)+1, m(v)+2 that the colouring heuristic reaches
    with the given restart budget ("fail" when none succeeds)."""
    check_batch(v, count)
    if restarts < 1:  # checked here as well: a survey may never reach the heuristic
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    m = m_lower(v)
    counts = {"m": 0, "m+1": 0, "m+2": 0, "fail": 0}
    failures = 0
    for idx in range(count):
        try:
            system = batch_system(v, seed, idx)
        except GenerationError:
            failures += 1
            continue
        for label, target in (("m", m), ("m+1", m + 1), ("m+2", m + 2)):
            if chromatic_index_heuristic(system, target, seed=batch_seed(seed, idx),
                                         restarts=restarts) is not None:
                counts[label] += 1
                break
        else:
            counts["fail"] += 1
    return SurveyResult(v=v, m=m, counts=counts, generator_failures=failures)
