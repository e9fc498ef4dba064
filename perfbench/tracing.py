"""Spans and call counters around the public functions of the stskit
modules, installed from the benchmark's side of the package boundary.

Each wrapper replaces the function wherever an stskit module has bound it,
because callers look names up in their own module's namespace (for example
``stskit.analysis.wilson_schreiber`` and ``stskit.cli.verify_sts``).  A
wrapped call either records a span (name, start, end, parent, run id) or, for
functions called too often to keep one span per call, only bumps a call count
and a total time.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterable, Sequence

clock = time.perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 at the root
    run_id: str
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def covered_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.seconds - covered_length(children[i], s.start, s.end)
            for i, s in enumerate(spans)]


def _nodes(result: Any, _args: dict) -> dict:
    return {"nodes": result.nodes}


def _triples(result: Any, _args: dict) -> dict:
    labelled = result[0] if isinstance(result, tuple) else result
    return {"triples": labelled.system.b}


def _heuristic(result: Any, args: dict) -> dict:
    return {"target": args["target"], "restarts": args["restarts"],
            "success": result is not None}


# (module, attribute, span name, hot, attribute recorder).  Hot functions run
# 10^4 to 10^6 times per scan and keep a count and a total time, not spans.
WRAPPED: tuple[tuple[str, str, str, bool, Callable | None], ...] = (
    ("stskit.numtheory", "smallest_prime_factor_sieve", "numtheory.sieve", False, None),
    ("stskit.numtheory", "divisors_gt1", "numtheory.divisors", True, None),
    ("stskit.numtheory", "euler_phi", "numtheory.phi", True, None),
    ("stskit.numtheory", "factorise", "numtheory.factorise", True, None),
    ("stskit.numtheory", "number_profile", "numtheory.profile", False, None),
    ("stskit.numtheory", "scan_profiles", "numtheory.scan_profiles", False, None),
    ("stskit.factorisation", "factorise_G", "factorisation.factorise_G", False, None),
    ("stskit.factorisation", "verify_factorisation_properties", "factorisation.verify",
     False, None),
    ("stskit.constructions", "wilson_schreiber", "constructions.wilson_schreiber", False,
     _triples),
    ("stskit.constructions", "bose", "constructions.bose", False, _triples),
    ("stskit.constructions", "sts33_fixture", "constructions.sts33_fixture", False, _triples),
    ("stskit.core", "format_sts", "core.format_sts", False, None),
    ("stskit.core", "parse_sts", "core.parse_sts", False, None),
    ("stskit.core", "verify_sts", "core.verify_sts", False, None),
    ("stskit.core", "verify_colouring", "core.verify_colouring", False, None),
    ("stskit.analysis", "theorem1_pipeline", "analysis.pipeline", False, None),
    ("stskit.analysis", "enumerate_parallel_classes", "analysis.enumerate", False, _nodes),
    ("stskit.analysis", "max_disjoint_pcs", "analysis.max_disjoint", False, _nodes),
    ("stskit.analysis", "chromatic_index_exact", "analysis.chi_exact", False, _nodes),
    ("stskit.analysis", "chromatic_index_heuristic", "analysis.chi_heuristic", False,
     _heuristic),
    ("stskit.generator", "random_sts", "generator.random_sts", False, None),
    ("stskit.cli", "main", "cli.main", False, None),
)


class Tracer:
    """Owns the spans, the hot-call counters and the installed wrappers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.run_id = ""
        self.originals: dict[str, Any] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, name: str, fn: Callable, recorder: Callable | None) -> Callable:
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if recorder is not None else None

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1, self.run_id)
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                if recorder is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.attrs = recorder(result, bound.arguments)
                return result
            finally:
                span.end = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        counter = self.counters[name]

        def wrapper(*args, **kwargs):
            t = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                counter[0] += 1
                counter[1] += clock() - t

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every function in WRAPPED whose module is imported, plus
        ``TripleSystem.from_triples``."""
        for module_name, attr, name, hot, recorder in WRAPPED:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            original = getattr(module, attr)
            self.originals[name] = original
            wrapper = (self._counted(name, original) if hot
                       else self._spanned(name, original, recorder))
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "stskit" and not mod_name.startswith("stskit."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, original))
        from stskit.core import TripleSystem

        descriptor = TripleSystem.__dict__["from_triples"]
        wrapped = self._spanned("core.from_triples", descriptor.__func__, None)
        setattr(TripleSystem, "from_triples", classmethod(wrapped))
        self._patches.append((TripleSystem, "from_triples", descriptor))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
            for name, (calls, seconds) in sorted(self.counters.items()):
                fh.write(json.dumps({"counter": name, "calls": calls,
                                     "seconds": seconds}) + "\n")


def _cache_ratio(info) -> float:
    calls = info.hits + info.misses
    return info.hits / calls if calls else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers from one traced pass.  Layers a workload does not
    reach read 0."""
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    selfs: dict[str, float] = defaultdict(float)
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        total[span.name] += span.seconds
        calls[span.name] += 1
        selfs[span.name] += own

    def attr_sum(name: str, key: str) -> int:
        return sum(s.attrs.get(key, 0) for s in tracer.spans if s.name == name)

    enum_nodes = attr_sum("analysis.enumerate", "nodes")
    chi_nodes = attr_sum("analysis.chi_exact", "nodes")
    pack_nodes = 0
    for i, s in enumerate(tracer.spans):
        if s.name == "analysis.max_disjoint":
            inner = sum(c.attrs["nodes"] for c in tracer.spans
                        if c.parent == i and c.name == "analysis.enumerate")
            pack_nodes += s.attrs["nodes"] - inner
    failed_heur = [s for s in tracer.spans
                   if s.name == "analysis.chi_heuristic" and not s.attrs["success"]]
    restarts = sum(s.attrs["restarts"] for s in failed_heur)

    profile = tracer.originals.get("numtheory.profile")
    from stskit.factorisation import factorise_component

    component = factorise_component.cache_info()
    counters = tracer.counters
    return {
        "numtheory.sieve_s": total["numtheory.sieve"],
        "numtheory.divisors_calls": counters["numtheory.divisors"][0],
        "numtheory.divisors_s": counters["numtheory.divisors"][1],
        "numtheory.phi_calls": counters["numtheory.phi"][0],
        "numtheory.phi_s": counters["numtheory.phi"][1],
        "numtheory.factorise_calls": counters["numtheory.factorise"][0],
        "numtheory.profile_s": total["numtheory.profile"],
        "numtheory.profile_hit_ratio": _cache_ratio(profile.cache_info()) if profile else 0.0,
        "factorisation.factorise_G_s": total["factorisation.factorise_G"],
        "factorisation.verify_s": total["factorisation.verify"],
        "factorisation.component_calls": component.hits + component.misses,
        "factorisation.component_hit_ratio": _cache_ratio(component),
        "factorisation.component_cache_size": component.currsize,
        "constructions.wilson_schreiber_s": total["constructions.wilson_schreiber"],
        "constructions.wilson_schreiber_calls": calls["constructions.wilson_schreiber"],
        "constructions.triples_built": sum(
            attr_sum(n, "triples") for n in ("constructions.wilson_schreiber",
                                             "constructions.bose",
                                             "constructions.sts33_fixture")),
        "constructions.bose_s": total["constructions.bose"],
        "core.from_triples_s": total["core.from_triples"],
        "core.format_sts_s": total["core.format_sts"],
        "core.parse_sts_s": total["core.parse_sts"],
        "core.verify_sts_s": total["core.verify_sts"],
        "core.verify_colouring_s": total["core.verify_colouring"],
        "analysis.pipeline_self_s": selfs["analysis.pipeline"],
        "analysis.enum_nodes": enum_nodes,
        "analysis.enum_nodes_per_s": (enum_nodes / total["analysis.enumerate"]
                                      if enum_nodes else 0.0),
        "analysis.pack_nodes": pack_nodes,
        "analysis.chi_exact_nodes": chi_nodes,
        "analysis.chi_exact_nodes_per_s": (chi_nodes / total["analysis.chi_exact"]
                                           if chi_nodes else 0.0),
        "analysis.heur_s_per_restart": (sum(s.seconds for s in failed_heur) / restarts
                                        if restarts else 0.0),
        "generator.random_sts_s": total["generator.random_sts"],
        "cli.handler_s": total["cli.main"],
    }
