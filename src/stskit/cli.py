"""Command-line entry point.

One binary, subcommand style.  A handler parses its arguments, calls one
library function per decision and prints; it keeps no rule of its own.
Each leaf command takes ``--json`` for a report with a stable, versioned
schema.  Exit codes: 0 success/verified, 1 verification failure or
negative verdict, 2 usage error, 3 budget-inconclusive or undecided.  Each
handler imports what its command uses, and nothing more.

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

SCHEMA = "stskit-report/1"

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


def _passed(args: argparse.Namespace, *dests: str) -> dict:
    """The options among ``dests`` given on the command line.  Their parser
    default is ``argparse.SUPPRESS``, so an option left out sets nothing."""
    return {d: getattr(args, d) for d in dests if hasattr(args, d)}


def _budget(args: argparse.Namespace):
    from .analysis import DEFAULT_BUDGET, SearchBudget

    return SearchBudget(max_nodes=getattr(args, "budget_nodes", DEFAULT_BUDGET.max_nodes),
                        max_seconds=getattr(args, "budget_seconds", DEFAULT_BUDGET.max_seconds))


def _read(path: str, parse: Callable, *args):
    """``parse(f, *args)`` with ``f`` the file at ``path``, open for reading."""
    try:
        with open(path) as f:
            return parse(f, *args)
    except OSError as e:
        raise ValueError(f"cannot read {path}: {e.strerror}") from None


def _write(path: str | None, lines: Callable[[], Iterable[str]], make_dir: bool = False) -> None:
    """Write the lines ``lines()`` to ``path`` as they come; without a path
    they are not built.  With ``make_dir`` the missing parent directories
    are made first."""
    if path is not None:
        try:
            if make_dir:
                Path(path).parent.mkdir(parents=True, exist_ok=True)
            with open(path, "w") as f:
                f.writelines(lines())
        except OSError as e:
            raise ValueError(f"cannot write {path}: {e.strerror}") from None


def _verdict(report) -> str:
    return "ok" if report.ok else f"FAILED: {report.first_violation}"


def _emit(args: argparse.Namespace, payload: Callable[[], dict],
          lines: Callable[[], Iterable[str]]) -> None:
    """Print the ``--json`` report or the text lines.  Both come as
    zero-argument callables, so that only the one printed is built."""
    if args.json:
        print(json.dumps({"schema": SCHEMA, **payload()}))
    else:
        sys.stdout.writelines(line + "\n" for line in lines())


# ---------------------------------------------------------------------------
# handlers


def _cmd_numtheory_profile(args) -> int:
    from .numtheory import number_profile

    p = number_profile(args.n)
    _emit(args, lambda: {"command": "numtheory profile", **p._asdict()},
          lambda: (f"{k}=" + (",".join(map(str, x)) if k == "divisors_gt1" else str(x))
                   for k, x in p._asdict().items()))
    return EXIT_OK


def _cmd_numtheory_scan(args) -> int:
    from .numtheory import SCAN_KINDS, scan_rows

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
    from .factorisation import factorise_G, format_factorisation, verify_factorisation_properties
    from .numtheory import f_of

    fact = factorise_G(args.n)
    report = verify_factorisation_properties(fact, f_of(args.n))
    _write(args.out, lambda: (format_factorisation(fact),))
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
    """Check the built system ``labelled``, write it and report."""
    from .core import sts_lines, verify_sts

    system, tag, families = labelled.system, labelled.tag, labelled.families
    report = verify_sts(system)
    _write(args.out, lambda: sts_lines(system))
    _emit(args, lambda: {
        "command": what, "v": system.v, "triples": system.b,
        "verified": report.ok, "out": args.out, "families": families,
    }, lambda: [f"{tag}: order {system.v}, {system.b} triples, verify {_verdict(report)}",
                *([f"wrote {args.out}"] if args.out else [])])
    return EXIT_OK if report.ok else EXIT_FAIL


def _cmd_construct_ws(args) -> int:
    from .constructions import wilson_schreiber

    return _construct_payload(args, wilson_schreiber(args.n), "construct wilson-schreiber")


def _cmd_construct_bose(args) -> int:
    from .constructions import bose_conjugate, bose_half_sum

    if args.square == "conjugate":
        return _construct_payload(args, bose_conjugate(args.n, getattr(args, "seed", 0)),
                                  "construct bose")
    if _passed(args, "seed"):
        raise ValueError("--seed applies to --square conjugate only")
    return _construct_payload(args, bose_half_sum(args.n), "construct bose")


def _cmd_fixture(args) -> int:
    from .constructions import sts33_fixture
    from .core import colouring_lines, sts_lines, verify_colouring, verify_sts

    labelled, colouring = sts33_fixture()
    report = verify_sts(labelled.system)
    creport = verify_colouring(labelled.system, colouring)
    _write(args.out, lambda: sts_lines(labelled.system))
    _write(args.colouring_out, lambda: colouring_lines(colouring))
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
    from .core import parse_colouring, parse_sts, verify_colouring, verify_sts

    system = _read(args.infile, parse_sts)
    report = verify_sts(system)
    creport = None
    if args.colouring is not None:
        colouring = _read(args.colouring, parse_colouring, system)
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
    from .analysis import COMPLETE, enumerate_parallel_classes, max_disjoint_pcs
    from .core import parse_sts

    system = _read(args.infile, parse_sts)
    budget = _budget(args)
    if args.max_disjoint:
        result = max_disjoint_pcs(system, budget)
        _emit(args, lambda: {
            "command": "analyze pcs", "v": system.v,
            "parallel_classes": result.n_parallel_classes,
            "max_disjoint": result.size, "upper_bound": result.upper_bound,
            "status": result.status, "nodes": result.nodes,
            "witness": [c.indices for c in result.witness],
            "enumeration_complete": result.enumeration_complete,
        }, lambda: [f"{'' if result.enumeration_complete else 'at least '}"
                    f"{result.n_parallel_classes} parallel classes; max disjoint "
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
    from .analysis import (COMPLETE, chromatic_index_exact, chromatic_index_heuristic,
                           pc_bound_mod3_auto)
    from .core import parse_colouring, parse_sts

    # The options are checked before the file is read, which may be large.
    mode, other = ("heuristic", "exact") if args.heuristic else ("exact", "heuristic")
    for dest in _passed(args, *_CHI_MODE_ONLY[other]):
        raise ValueError(f"--{dest.replace('_', '-')} applies to --{other} only")
    opts = _passed(args, *_CHI_MODE_ONLY[mode])
    if args.heuristic and "target" not in opts:
        raise ValueError("--heuristic requires --target")
    system = _read(args.infile, parse_sts)
    if args.heuristic:
        colouring = chromatic_index_heuristic(system, **opts)
        ok = colouring is not None
        _emit(args, lambda: {
            "command": "analyze chi", "mode": "heuristic", "v": system.v,
            "target": args.target, "success": ok,
            "classes": colouring.n_classes if ok else None,
        }, lambda: [f"heuristic target {args.target}: " + (
            f"success with {colouring.n_classes} classes" if ok else "failure")])
        return EXIT_OK if ok else EXIT_FAIL

    witness = (_read(args.witness_colouring, parse_colouring, system)
               if "witness_colouring" in opts else None)
    if "mod3_lower" in opts:  # kept for scripts: it only refuses a file no weighting fits
        pc_bound_mod3_auto(system)
    result = chromatic_index_exact(system, _budget(args), upper_witness=witness)
    complete = result.status == COMPLETE
    cert = result.certificate
    _emit(args, lambda: {
        "command": "analyze chi", "mode": "exact", "v": system.v,
        "lower": result.lower, "upper": result.upper,
        "status": result.status, "nodes": result.nodes,
        "value": result.lower if complete else None,
        "certificate": None if cert is None else {"method": cert.method, "bound": cert.bound},
    }, lambda: [f"chromatic index {result.value}" if complete else
                f"chromatic index in [{result.lower}, {result.upper}] (inconclusive)"])
    return EXIT_OK if complete else EXIT_INCONCLUSIVE


def _cmd_analyze_bound(args) -> int:
    from .analysis import pc_bound, pc_bound_mod3_auto, pc_bound_ws_on
    from .core import parse_sts

    system = _read(args.infile, parse_sts)
    rule = {"mod3": pc_bound_mod3_auto, "ws": pc_bound_ws_on, None: pc_bound}[args.method]
    cert = rule(system)
    _emit(args, lambda: {"command": "analyze bound", "v": system.v, **cert._asdict()},
          lambda: [f"at most {cert.bound} disjoint parallel classes ({cert.method})"])
    return EXIT_OK


def _cmd_theorem1(args) -> int:
    from .analysis import theorem1_pipeline

    report = theorem1_pipeline(args.v)
    _emit(args, lambda: {"command": "theorem1", **report._asdict()},
          lambda: [f"v={report.v} [{report.route}] {report.message}"])
    if report.holds is None:
        return EXIT_INCONCLUSIVE
    return EXIT_OK if report.holds else EXIT_FAIL


def _cmd_generate(args) -> int:
    from .core import sts_lines
    from .generator import batch_system, check_batch

    check_batch(args.v, args.count)
    written, orders = [], []
    for idx in range(args.count):
        system = batch_system(args.v, args.seed, idx)
        orders.append(system.b)
        if args.out_dir:
            path = str(Path(args.out_dir) / f"sts-v{args.v}-{idx}.sts")
            _write(path, lambda: sts_lines(system), make_dir=True)
            written.append(path)
    _emit(args, lambda: {
        "command": "generate", "v": args.v, "count": args.count,
        "seed": args.seed, "triples": orders, "files": written,
    }, lambda: [f"generated {args.count} system(s) of order {args.v}",
                *(f"wrote {p}" for p in written)])
    return EXIT_OK


def _cmd_survey(args) -> int:
    from .generator import colouring_survey

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
                   help="refuse a file no mod-3 weighting fits, as 'analyze bound "
                        "--method mod3' does; the search derives its lower bound "
                        "either way (exact mode)")
    _add_budget_flags(q)
    q = new(asub, "bound", _cmd_analyze_bound,
            help="disjoint parallel-class upper-bound certificate")
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--method", choices=("mod3", "ws"), default=None,
                   help="one rule; left out, the least bound of mod3, ws and an "
                        "exhaustive packing search")

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
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
