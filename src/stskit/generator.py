"""Hill-climbing generator of random Steiner triple systems, plus a survey
of how hard random systems are to colour near the counting bound.

The climb is the classic one: pick a point with uncovered pairs, pick two of
its uncovered partners, and insert the triple, evicting the triple that
already covers the partner pair if there is one.  Covered-pair count never
decreases, and the walk completes quickly in practice.  Identical (v, seed)
always reproduces the identical system.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import chromatic_index_heuristic
from .core import TripleSystem, m_lower
from .rng import derive_seed, substream

__all__ = ["GenerationError", "SurveyResult", "batch_seed", "colouring_survey", "random_sts"]


class GenerationError(RuntimeError):
    """The climb hit its step cap before completing a system."""


def batch_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th system in a batch; shared by the generate
    command and the survey so the surveyed systems can be re-materialised."""
    return derive_seed(seed, "survey", index)


def random_sts(v: int, seed: int, max_steps: int = 10_000_000) -> TripleSystem:
    """A random Steiner triple system of order v, deterministic in ``seed``."""
    if v < 7 or v % 6 not in (1, 3):
        raise ValueError(f"order must be 1 or 3 mod 6 and >= 7, got {v}")
    rng = substream(seed, "sts", v)
    target = v * (v - 1) // 6

    live: list[set[int]] = [set(range(v)) - {x} for x in range(v)]
    # Each triple holds its 3 pairs here: a new triple's pairs with x are
    # uncovered, and the pair it shares with a blocking triple is freed first.
    pair_triple: dict[tuple[int, int], tuple[int, int, int]] = {}

    def pair(a: int, b: int) -> tuple[int, int]:
        return (a, b) if a < b else (b, a)

    def add(t: tuple[int, int, int]) -> None:
        for i in range(3):
            for j in range(i + 1, 3):
                pair_triple[pair(t[i], t[j])] = t
                live[t[i]].discard(t[j])
                live[t[j]].discard(t[i])

    def remove(t: tuple[int, int, int]) -> None:
        for i in range(3):
            for j in range(i + 1, 3):
                del pair_triple[pair(t[i], t[j])]
                live[t[i]].add(t[j])
                live[t[j]].add(t[i])

    steps = 0
    while len(pair_triple) < 3 * target:
        steps += 1
        if steps > max_steps:
            raise GenerationError(
                f"order {v}, seed {seed}: {len(pair_triple) // 3}/{target} triples "
                f"after {max_steps} steps")
        candidates = [x for x in range(v) if live[x]]
        x = rng.choice(candidates)
        y, z = rng.sample(sorted(live[x]), 2)
        blocking = pair_triple.get(pair(y, z))
        if blocking is not None:
            remove(blocking)
        add(tuple(sorted((x, y, z))))

    return TripleSystem.from_triples(v, set(pair_triple.values()))


@dataclass(frozen=True)
class SurveyResult:
    v: int
    m: int
    counts: dict  # "m" | "m+1" | "m+2" | "fail" -> number of systems
    generator_failures: int


def colouring_survey(v: int, count: int, seed: int,
                     restarts: int = 6) -> SurveyResult:
    """Generate ``count`` random systems and record, per system, the least
    target among m(v), m(v)+1, m(v)+2 that the colouring heuristic reaches
    with the given restart budget ("fail" when none succeeds)."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if restarts < 1:  # checked here as well: a survey may never reach the heuristic
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    m = m_lower(v)
    counts = {"m": 0, "m+1": 0, "m+2": 0, "fail": 0}
    failures = 0
    for idx in range(count):
        child = batch_seed(seed, idx)
        try:
            system = random_sts(v, child)
        except GenerationError:
            failures += 1
            continue
        for label, target in (("m", m), ("m+1", m + 1), ("m+2", m + 2)):
            if chromatic_index_heuristic(system, target, seed=child,
                                         restarts=restarts) is not None:
                counts[label] += 1
                break
        else:
            counts["fail"] += 1
    return SurveyResult(v=v, m=m, counts=counts, generator_failures=failures)
