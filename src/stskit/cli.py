"""Command-line entry point.

One binary, subcommand style.  Every leaf command (``theorem1``,
``numtheory profile``, ``analyze chi``, ...) takes ``--json`` for a report
with a stable, versioned schema; group commands take no flags of their own.
Exit codes: 0 success/verified, 1 verification failure or negative verdict,
2 usage error, 3 budget-inconclusive or undecided.

The searches run under :data:`stskit.analysis.DEFAULT_BUDGET` unless the
``--budget-nodes`` / ``--budget-seconds`` flags say otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Iterable, Iterator

from . import __version__
from .analysis import (
    COMPLETE,
    DEFAULT_BUDGET,
    SearchBudget,
    chromatic_index_exact,
    chromatic_index_heuristic,
    enumerate_parallel_classes,
    max_disjoint_pcs,
    pc_bound_mod3_auto,
    pc_bound_ws,
    theorem1_pipeline,
)
from .constructions import (
    bose,
    bose_half_sum,
    conjugate_square,
    half_sum_square,
    random_permutation,
    sts33_fixture,
    wilson_schreiber,
    wilson_schreiber_triples,
)
from .core import (
    VerificationReport,
    format_colouring,
    format_sts,
    parse_colouring,
    parse_sts,
    verify_colouring,
    verify_sts,
)
from .factorisation import factorise_G, format_factorisation, verify_factorisation_properties
from .generator import GenerationError, batch_seed, colouring_survey, random_sts
from .numtheory import SCAN_KINDS, f_of, number_profile, scan_rows
from .rng import substream

SCHEMA = "stskit-report/1"

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


def _passed(args: argparse.Namespace, *dests: str) -> dict:
    """The options among ``dests`` given on the command line.  Their parser
    default is ``argparse.SUPPRESS``, so an option left out sets nothing."""
    return {d: getattr(args, d) for d in dests if hasattr(args, d)}


def _budget(args: argparse.Namespace) -> SearchBudget:
    return SearchBudget(max_nodes=getattr(args, "budget_nodes", DEFAULT_BUDGET.max_nodes),
                        max_seconds=getattr(args, "budget_seconds", DEFAULT_BUDGET.max_seconds))


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as e:
        raise ValueError(f"cannot read {path}: {e.strerror}") from None


def _read_system(path: str):
    return parse_sts(_read_text(path))


def _write(path: str | None, text: Callable[[], str], make_dir: bool = False) -> None:
    """Write ``text()`` to ``path``; without a path the text is not built.
    With ``make_dir`` the missing parent directories are made first."""
    if path is not None:
        data = text()
        try:
            if make_dir:
                Path(path).parent.mkdir(parents=True, exist_ok=True)
            Path(path).write_text(data)
        except OSError as e:
            raise ValueError(f"cannot write {path}: {e.strerror}") from None


def _verdict(report: VerificationReport) -> str:
    return "ok" if report.ok else f"FAILED: {report.first_violation}"


def _emit(args: argparse.Namespace, payload: Callable[[], dict],
          lines: Callable[[], Iterable[str]]) -> None:
    """Print the ``--json`` report or the text lines.  Both come as
    zero-argument callables, so that only the one printed is built."""
    if args.json:
        print(json.dumps({"schema": SCHEMA, **payload()}))
    else:
        for line in lines():
            print(line)


# ---------------------------------------------------------------------------
# handlers


def _cmd_numtheory_profile(args) -> int:
    p = number_profile(args.n)
    _emit(args, lambda: {
        "command": "numtheory profile", "n": p.n, "phi": p.phi,
        "sub_order": p.sub_order, "g": p.g, "f": p.f, "psi": p.psi,
        "psi_star": p.psi_star, "divisors_gt1": list(p.divisors_gt1),
    }, lambda: [f"n={p.n}", f"phi={p.phi}", f"sub_order={p.sub_order}",
                f"g={p.g}", f"f={p.f}", f"psi={p.psi}", f"psi_star={p.psi_star}",
                "divisors_gt1=" + ",".join(str(d) for d in p.divisors_gt1)])
    return EXIT_OK


def _cmd_numtheory_scan(args) -> int:
    kind = "all" if args.all else "negative-psi" if args.negative_psi else "exceptions"
    picks, is_exception = SCAN_KINDS[kind], SCAN_KINDS["exceptions"]
    rows = scan_rows(args.limit)  # one pass, by the report or by the text

    def payload() -> dict:
        picked, exceptions = [], []
        for r in rows:
            if is_exception(r):
                exceptions.append(r.n)
            if picks(r):
                picked.append(r)  # a row serialises as its list of fields
        return {"command": "numtheory scan", "limit": args.limit, "kind": kind,
                "rows": picked, "exceptions": exceptions}

    def lines() -> Iterator[str]:
        yield "n\tphi\tf\tpsi\tpsi_star"
        for r in filter(picks, rows):
            yield f"{r.n}\t{r.phi}\t{r.f}\t{r.psi}\t{r.psi_star}"

    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_factorise(args) -> int:
    fact = factorise_G(args.n)
    report = verify_factorisation_properties(fact, f_of(args.n))
    _write(args.out, lambda: format_factorisation(fact))
    edges = sum(len(f) for f in fact.factors)
    _emit(args, lambda: {
        "command": "factorise", "n": args.n, "edges": edges,
        "factor_sizes": [len(f) for f in fact.factors],
        "verified": report.ok, "out": args.out,
    }, lambda: [f"G({args.n}): {edges} edges in 3 factors of "
                f"{len(fact.factors[0])}, verify {_verdict(report)}",
                f"wrote {args.out}" if args.out else format_factorisation(fact).rstrip("\n")])
    return EXIT_OK if report.ok else EXIT_FAIL


def _construct_payload(args, labelled, what: str) -> int:
    system = labelled.system
    report = verify_sts(system)
    _write(args.out, lambda: format_sts(system))
    _emit(args, lambda: {
        "command": what, "v": system.v, "triples": system.b,
        "verified": report.ok, "out": args.out,
        "families": {name: len(idx) for name, idx in labelled.families.items()},
    }, lambda: [f"{labelled.tag}: order {system.v}, {system.b} triples, "
                f"verify {_verdict(report)}",
                *([f"wrote {args.out}"] if args.out else [])])
    return EXIT_OK if report.ok else EXIT_FAIL


def _cmd_construct_ws(args) -> int:
    return _construct_payload(args, wilson_schreiber(args.n), "construct wilson-schreiber")


def _cmd_construct_bose(args) -> int:
    if args.square == "half-sum":
        if _passed(args, "seed"):
            raise ValueError("--seed applies to --square conjugate only")
        labelled = bose_half_sum(args.n)
    else:
        seed = getattr(args, "seed", 0)
        base = half_sum_square(args.n)
        labelled = bose(*(
            conjugate_square(base, random_permutation(args.n, substream(seed, "bose", i)))
            for i in range(3)))
    return _construct_payload(args, labelled, "construct bose")


def _cmd_fixture(args) -> int:
    labelled, colouring = sts33_fixture()
    report = verify_sts(labelled.system)
    creport = verify_colouring(labelled.system, colouring)
    _write(args.out, lambda: format_sts(labelled.system))
    _write(args.colouring_out, lambda: format_colouring(colouring))
    ok = report.ok and creport.ok
    _emit(args, lambda: {
        "command": "fixture sts33", "v": 33, "triples": labelled.system.b,
        "classes": creport.n_classes, "verified": ok,
        "out": args.out, "colouring_out": args.colouring_out,
    }, lambda: [f"sts33 fixture: 176 triples, colouring with {creport.n_classes} classes, "
                f"verify {'ok' if ok else 'FAILED'}",
                *(f"wrote {path}" for path in (args.out, args.colouring_out) if path)])
    return EXIT_OK if ok else EXIT_FAIL


def _cmd_verify(args) -> int:
    system = _read_system(args.infile)
    report = verify_sts(system)
    creport = None
    if args.colouring is not None:
        colouring = parse_colouring(_read_text(args.colouring), system)
        creport = verify_colouring(system, colouring)

    def payload() -> dict:
        out = {
            "command": "verify", "v": system.v, "triples": system.b,
            "ok": report.ok, "first_violation": report.first_violation,
            "violations": report.violation_count,
        }
        if creport is not None:
            out.update(colouring_ok=creport.ok, classes=creport.n_classes)
        return out

    def lines() -> Iterator[str]:
        yield f"order {system.v}, {system.b} triples: {_verdict(report)}"
        if creport is not None:
            yield f"colouring with {creport.n_classes} classes: {_verdict(creport)}"

    _emit(args, payload, lines)
    return EXIT_OK if report.ok and (creport is None or creport.ok) else EXIT_FAIL


def _cmd_analyze_pcs(args) -> int:
    system = _read_system(args.infile)
    budget = _budget(args)
    if args.max_disjoint:
        result = max_disjoint_pcs(system, budget)
        _emit(args, lambda: {
            "command": "analyze pcs", "v": system.v,
            "parallel_classes": result.n_parallel_classes,
            "max_disjoint": result.size, "upper_bound": result.upper_bound,
            "status": result.status, "nodes": result.nodes,
            "witness": [c.indices for c in result.witness],
        }, lambda: [f"{result.n_parallel_classes} parallel classes; max disjoint "
                    f"{result.size} (upper bound {result.upper_bound}, {result.status})"])
        status = result.status
    else:
        enum = enumerate_parallel_classes(system, budget)
        _emit(args, lambda: {
            "command": "analyze pcs", "v": system.v,
            "parallel_classes": len(enum.classes), "status": enum.status,
            "nodes": enum.nodes,
            "classes": [c.indices for c in enum.classes],
        }, lambda: [f"{len(enum.classes)} parallel classes ({enum.status})"])
        status = enum.status
    return EXIT_OK if status == COMPLETE else EXIT_INCONCLUSIVE


# The options of 'analyze chi' that only one mode reads (argparse dests).
_CHI_MODE_ONLY = {
    "heuristic": ("target", "seed", "restarts"),
    "exact": ("witness_colouring", "mod3_lower", "budget_nodes", "budget_seconds"),
}


def _cmd_analyze_chi(args) -> int:
    system = _read_system(args.infile)
    mode, other = ("heuristic", "exact") if args.heuristic else ("exact", "heuristic")
    for dest in _passed(args, *_CHI_MODE_ONLY[other]):
        raise ValueError(f"--{dest.replace('_', '-')} applies to --{other} only")
    opts = _passed(args, *_CHI_MODE_ONLY[mode])
    if args.heuristic:
        if "target" not in opts:
            raise ValueError("--heuristic requires --target")
        colouring = chromatic_index_heuristic(system, **opts)
        ok = colouring is not None
        _emit(args, lambda: {
            "command": "analyze chi", "mode": "heuristic", "v": system.v,
            "target": args.target, "success": ok,
            "classes": colouring.n_classes if ok else None,
        }, lambda: [f"heuristic target {args.target}: " + (
            f"success with {colouring.n_classes} classes" if ok else "failure")])
        return EXIT_OK if ok else EXIT_FAIL

    witness = None
    if "witness_colouring" in opts:
        witness = parse_colouring(_read_text(args.witness_colouring), system)
    cert = None
    if "mod3_lower" in opts:
        cert = pc_bound_mod3_auto(system)
    result = chromatic_index_exact(system, _budget(args), pc_certificate=cert,
                                   upper_witness=witness)
    complete = result.status == COMPLETE
    _emit(args, lambda: {
        "command": "analyze chi", "mode": "exact", "v": system.v,
        "lower": result.lower, "upper": result.upper,
        "status": result.status, "nodes": result.nodes,
        "value": result.lower if complete else None,
    }, lambda: [f"chromatic index {result.value}" if complete else
                f"chromatic index in [{result.lower}, {result.upper}] (inconclusive)"])
    return EXIT_OK if complete else EXIT_INCONCLUSIVE


def _cmd_analyze_bound(args) -> int:
    system = _read_system(args.infile)
    if args.method == "mod3":
        cert = pc_bound_mod3_auto(system)
    else:
        v = system.v
        n = v - 2
        if n % 6 != 1:
            raise ValueError(f"ws bound needs order v with v-2 = 1 mod 6, got v={v}")
        # The triple count first: it caps the work below by the file's size.
        fact = factorise_G(n) if system.b == v * (v - 1) // 6 else None
        if fact is None or system.triples != wilson_schreiber_triples(fact):
            raise ValueError("input system is not the canonical construction "
                             f"of order {v}; the ws bound does not apply")
        cert = pc_bound_ws(fact)
    _emit(args, lambda: {
        "command": "analyze bound", "v": system.v, "method": cert.method,
        "bound": cert.bound, "witness": cert.witness,
    }, lambda: [f"at most {cert.bound} disjoint parallel classes ({cert.method})"])
    return EXIT_OK


def _cmd_theorem1(args) -> int:
    report = theorem1_pipeline(args.v)
    _emit(args, lambda: {
        "command": "theorem1", "v": report.v, "route": report.route,
        "holds": report.holds, "chi_lower": report.chi_lower,
        "chi_exact": report.chi_exact, "pc_bound": report.pc_bound,
        "f": report.f_value, "message": report.message,
    }, lambda: [f"v={report.v} [{report.route}] {report.message}"])
    if report.holds is None:
        return EXIT_INCONCLUSIVE
    return EXIT_OK if report.holds else EXIT_FAIL


def _cmd_generate(args) -> int:
    if args.count < 0:
        raise ValueError(f"--count must be >= 0, got {args.count}")
    written = []
    orders = []
    for idx in range(args.count):
        system = random_sts(args.v, batch_seed(args.seed, idx))
        orders.append(system.b)
        if args.out_dir:
            path = str(Path(args.out_dir) / f"sts-v{args.v}-{idx}.sts")
            _write(path, lambda: format_sts(system), make_dir=True)
            written.append(path)
    _emit(args, lambda: {
        "command": "generate", "v": args.v, "count": args.count,
        "seed": args.seed, "triples": orders, "files": written,
    }, lambda: [f"generated {args.count} system(s) of order {args.v}",
                *(f"wrote {p}" for p in written)])
    return EXIT_OK


def _cmd_survey(args) -> int:
    result = colouring_survey(args.v, args.count, args.seed, **_passed(args, "restarts"))
    def lines() -> Iterator[str]:
        yield f"order {args.v} (m={result.m}), {args.count} systems:"
        for label in ("m", "m+1", "m+2", "fail"):
            yield f"  {label}: {result.counts[label]}"
        if result.generator_failures:
            yield f"  generator failures: {result.generator_failures}"

    _emit(args, lambda: {
        "command": "survey colouring", "v": result.v, "m": result.m,
        "count": args.count, "seed": args.seed, "counts": result.counts,
        "generator_failures": result.generator_failures,
    }, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_budget_flags(p: argparse.ArgumentParser) -> None:
    # Left out, a cap keeps its DEFAULT_BUDGET value (see _budget).
    p.add_argument("--budget-nodes", type=int, default=argparse.SUPPRESS,
                   help="search node cap")
    p.add_argument("--budget-seconds", type=float, default=argparse.SUPPRESS,
                   help="search time cap")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stskit",
        description="Steiner triple systems with few parallel classes: "
                    "construct, verify, bound, colour.")
    parser.add_argument("--version", action="version", version=f"stskit {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    def new(parent, name: str, handler, **kwargs) -> argparse.ArgumentParser:
        # A leaf command: it alone takes --json and carries a handler.
        p = parent.add_parser(name, **kwargs)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(handler=handler)
        return p

    p = sub.add_parser("numtheory", help="profiles and scans of the bound arithmetic")
    nsub = p.add_subparsers(dest="subcommand", metavar="subcommand", required=True)
    q = new(nsub, "profile", _cmd_numtheory_profile, help="arithmetic profile of one n")
    q.add_argument("--n", type=int, required=True)
    q = new(nsub, "scan", _cmd_numtheory_scan, help="scan n <= limit (TSV: n phi f psi psi_star)")
    q.add_argument("--limit", type=int, required=True)
    kind = q.add_mutually_exclusive_group()
    kind.add_argument("--negative-psi", action="store_true",
                      help="rows with psi(n) < 0 instead of the psi* <= 0 exceptions")
    kind.add_argument("--all", action="store_true", help="every scanned n")

    p = new(sub, "factorise", _cmd_factorise, help="1-factorisation of G(n)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("construct", help="build a triple system")
    csub = p.add_subparsers(dest="subcommand", metavar="subcommand", required=True)
    q = new(csub, "wilson-schreiber", _cmd_construct_ws, help="order n+2 from G(n)")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--out", default=None)
    q = new(csub, "bose", _cmd_construct_bose, help="order 3n from idempotent symmetric squares")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--square", choices=("half-sum", "conjugate"), default="half-sum")
    # SUPPRESS so that a seed given with the half-sum square is seen and refused.
    q.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                   help="seed of the conjugating permutations (--square conjugate; "
                        "default 0)")
    q.add_argument("--out", default=None)

    p = sub.add_parser("fixture", help="embedded example systems")
    fsub = p.add_subparsers(dest="subcommand", metavar="subcommand", required=True)
    q = new(fsub, "sts33", _cmd_fixture, help="the order-33 system and its 18-class colouring")
    q.add_argument("--out", default=None)
    q.add_argument("--colouring-out", default=None)

    p = new(sub, "verify", _cmd_verify, help="verify an STS file (and optional colouring)")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--colouring", default=None)

    p = sub.add_parser("analyze", help="parallel classes, bounds, chromatic index")
    asub = p.add_subparsers(dest="subcommand", metavar="subcommand", required=True)
    q = new(asub, "pcs", _cmd_analyze_pcs, help="enumerate parallel classes / max disjoint set")
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--max-disjoint", action="store_true")
    _add_budget_flags(q)
    q = new(asub, "chi", _cmd_analyze_chi, help="chromatic index, exact or heuristic")
    q.add_argument("--in", dest="infile", required=True)
    mode = q.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exact", action="store_true")
    mode.add_argument("--heuristic", action="store_true")
    # Each mode-only option defaults to SUPPRESS, so that passing it to the
    # other mode is seen and refused (see _CHI_MODE_ONLY).
    q.add_argument("--target", type=int, default=argparse.SUPPRESS,
                   help="number of classes to reach (heuristic mode)")
    q.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                   help="random seed (heuristic mode)")
    q.add_argument("--restarts", type=int, default=argparse.SUPPRESS,
                   help="number of restarts (heuristic mode)")
    q.add_argument("--witness-colouring", default=argparse.SUPPRESS,
                   help="colouring file used as an upper-bound witness (exact mode)")
    q.add_argument("--mod3-lower", action="store_true", default=argparse.SUPPRESS,
                   help="raise the lower bound via the mod-3 weighting certificate, "
                        "as in 'analyze bound --method mod3' (exact mode)")
    _add_budget_flags(q)
    q = new(asub, "bound", _cmd_analyze_bound,
            help="disjoint parallel-class upper-bound certificate")
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--method", choices=("mod3", "ws"), required=True)

    p = new(sub, "theorem1", _cmd_theorem1, help="high-chromatic-index verdict for order v")
    p.add_argument("--v", type=int, required=True)

    p = new(sub, "generate", _cmd_generate, help="random systems by hill climbing")
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=None)

    p = sub.add_parser("survey", help="colouring-difficulty survey over random systems")
    ssub = p.add_subparsers(dest="subcommand", metavar="subcommand", required=True)
    q = new(ssub, "colouring", _cmd_survey, help="least reachable target per random system")
    q.add_argument("--v", type=int, required=True)
    q.add_argument("--count", type=int, required=True)
    q.add_argument("--seed", type=int, default=0)
    # Left out, the restart count is colouring_survey's default.
    q.add_argument("--restarts", type=int, default=argparse.SUPPRESS)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = getattr(args, "handler", None)
    if handler is None:
        parser.print_help()
        return EXIT_USAGE
    try:
        return handler(args)
    except (ValueError, GenerationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
