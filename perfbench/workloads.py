"""The four benchmark workloads.

Each workload builds its inputs from the seed, lists its operations (the
calls that are timed one by one) and gives every operation an independent
check of its answer.  Operations look stskit functions up through the module
at call time, so a traced pass goes through the wrappers in ``tracing``.

* ``certify``: ``theorem1_pipeline(v)`` for every v = 3 mod 6, 15 <= v <= 999
  (the C10 range).  The headline claim; most of its time is construction.
* ``scan``: ``scan_profiles(10**6)``, pure number theory.
* ``search``: the exhaustive and heuristic search engines on fixed-size
  random and constructed instances; the only workload where search nodes do
  the work.
* ``session``: a script of cold ``python -m stskit.cli ... --json`` calls,
  the only workload that crosses the CLI, the text formats and
  ``verify_sts``.  A traced pass replays the same argv list in-process
  through ``stskit.cli.main``.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from stskit import analysis, constructions, core, generator, numtheory

import checks

DEFAULT_SEED = 1
CLI_TIMEOUT_S = 150


@dataclass
class Op:
    name: str
    phase: str
    run: Callable[[], Any]
    # None when the answer is right, else the reason it is wrong.
    check: Callable[[Any], str | None]
    # Extra fields recorded with the op, such as search node counts.
    info: Callable[[Any], dict] = lambda _result: {}


def sts_digest(system) -> str:
    return hashlib.sha256(core.format_sts(system).encode()).hexdigest()


class Workload:
    name = ""

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.digests: dict[str, str] = {}

    def setup(self) -> None:
        """Build the inputs; everything up to here counts as set-up time."""

    def ops(self, traced: bool) -> list[Op]:
        raise NotImplementedError

    def after_pass(self) -> None:
        """Release what setup made."""


# ---------------------------------------------------------------------------
# certify

ORDERS = tuple(range(15, 1000, 6))
UNDECIDED = (45, 75, 129, 513)


def _check_verdict(v: int, report) -> str | None:
    if v in UNDECIDED:
        if report.holds is not None or report.route != "possible-exception":
            return f"v={v} should be undecided, got {report.route}/{report.holds}"
        return None
    if report.holds is not True:
        return f"v={v}: verdict {report.holds} via {report.route}"
    if v == 33 and report.chi_exact != 18:
        return f"v=33: chi_exact {report.chi_exact} != 18"
    if report.route == "ws-certificate":
        expected = 3 * checks.f(v - 2) + 1
        if report.pc_bound != expected or not expected < (v + 3) // 6:
            return f"v={v}: pc_bound {report.pc_bound}, expected {expected} < {(v + 3) // 6}"
    return None


class Certify(Workload):
    name = "certify"

    def setup(self) -> None:
        self.digests = {"orders": hashlib.sha256(repr(ORDERS).encode()).hexdigest()}

    def ops(self, traced: bool) -> list[Op]:
        return [Op(f"v={v}", "order", lambda v=v: analysis.theorem1_pipeline(v),
                   lambda r, v=v: _check_verdict(v, r))
                for v in ORDERS]


# ---------------------------------------------------------------------------
# scan

SCAN_LIMIT = 10**6
SCAN_ROWS = 333_332
PSI_STAR_EXCEPTIONS = [7, 11, 19, 31, 43, 73, 127, 511]
NEGATIVE_PSI = [(7, -12), (11, -8), (31, -24), (43, -12), (127, -36)]


class Scan(Workload):
    name = "scan"

    def setup(self) -> None:
        self.digests = {"limit": hashlib.sha256(str(SCAN_LIMIT).encode()).hexdigest()}

    def _check(self, rows) -> str | None:
        if len(rows) != SCAN_ROWS:
            return f"{len(rows)} rows, expected {SCAN_ROWS}"
        if [r.n for r in rows if r.psi_star <= 0] != PSI_STAR_EXCEPTIONS:
            return "psi* <= 0 set differs"
        if [(r.n, r.psi) for r in rows if r.psi < 0] != NEGATIVE_PSI:
            return "negative-psi table differs"
        # Re-derive a seeded sample of rows through the closure oracle: many
        # small n, where divisors are dense, and a few large ones.
        rng = random.Random(self.seed)
        small = [i for i, r in enumerate(rows) if r.n <= 10_000]
        sample = rng.sample(small, 12) + rng.sample(range(len(rows)), 4)
        for i in sample:
            if tuple(rows[i]) != checks.scan_row(rows[i].n):
                return f"row {tuple(rows[i])} != oracle {checks.scan_row(rows[i].n)}"
        return None

    def ops(self, traced: bool) -> list[Op]:
        return [Op("scan_profiles(10^6)", "scan",
                   lambda: numtheory.scan_profiles(SCAN_LIMIT), self._check,
                   lambda _rows: {"limit": SCAN_LIMIT})]


# ---------------------------------------------------------------------------
# search

PINNED_CLASSES = [534, 526, 542]   # enumerate_parallel_classes, default seed
# chromatic_index_exact runs on fixed instances, whatever the seed: on
# random_sts(15, s) for s = 1..24 it needs from 16k to 2.4M nodes, so seeded
# instances would swamp run-to-run comparisons.  All three have index 9.
EXACT_SEEDS = (1, 2, 3)
PINNED_CHI = [9, 9, 9]
HEUR_TARGET = 19     # reached on random_sts(33, s) for every s tried (1..149)
HARD_TARGET = 18     # not reached; a failing restart makes a fixed number of moves
HARD_RESTARTS = 1


class Search(Workload):
    name = "search"

    def setup(self) -> None:
        seeds = [self.seed + i for i in range(3)]
        self.s27 = [generator.random_sts(27, s) for s in seeds]
        self.s15 = [generator.random_sts(15, s) for s in EXACT_SEEDS]
        self.s33 = [generator.random_sts(33, s) for s in seeds]
        self.ws27 = constructions.wilson_schreiber(25).system
        self.digests = {"wilson_schreiber(25)": sts_digest(self.ws27)}
        for v, vseeds, systems in ((27, seeds, self.s27), (15, EXACT_SEEDS, self.s15),
                                   (33, seeds, self.s33)):
            for s, system in zip(vseeds, systems):
                self.digests[f"random_sts({v},{s})"] = sts_digest(system)

    def _check_enum(self, i: int, system, result) -> str | None:
        if result.status != analysis.COMPLETE:
            return f"enumeration {result.status}"
        found = [c.indices for c in result.classes]
        if len(set(found)) != len(found):
            return "duplicate parallel classes"
        for cls in found:
            err = checks.partition_error(system.v, system.triples, cls)
            if err:
                return f"class {cls}: {err}"
        if self.seed == DEFAULT_SEED and len(found) != PINNED_CLASSES[i]:
            return f"{len(found)} classes, pinned {PINNED_CLASSES[i]}"
        return None

    def _check_max_disjoint(self, result) -> str | None:
        expected = 3 * checks.f(25) + 1
        if result.status != analysis.COMPLETE or result.size != expected:
            return f"max disjoint {result.size} ({result.status}), expected {expected}"
        used: set[int] = set()
        for cls in result.witness:
            err = checks.partition_error(27, self.ws27.triples, cls.indices)
            if err or used & set(cls.indices):
                return f"witness class {cls.indices} invalid or overlapping"
            used.update(cls.indices)
        return None

    def _check_chi(self, i: int, system, result) -> str | None:
        if result.status != analysis.COMPLETE:
            return f"chromatic index {result.status}"
        groups = [c.indices for c in result.colouring.classes]
        err = checks.colouring_error(system.triples, groups)
        if err or len(groups) != result.value or result.value < core.m_lower(system.v):
            return f"witness colouring does not give {result.value}: {err}"
        if result.value != PINNED_CHI[i]:
            return f"chromatic index {result.value}, pinned {PINNED_CHI[i]}"
        return None

    @staticmethod
    def _check_heuristic(system, target: int, required: bool, colouring) -> str | None:
        if colouring is None:
            return f"target {target} not reached" if required else None
        groups = [c.indices for c in colouring.classes]
        err = checks.colouring_error(system.triples, groups)
        if err or len(groups) > target:
            return f"colouring with {len(groups)} classes for target {target}: {err}"
        return None

    def ops(self, traced: bool) -> list[Op]:
        nodes = lambda r: {"nodes": r.nodes}
        out = []
        for i, s in enumerate(self.s27):
            out.append(Op(f"enumerate[{i}]", "pcs",
                          lambda s=s: analysis.enumerate_parallel_classes(s),
                          lambda r, i=i, s=s: self._check_enum(i, s, r),
                          lambda r: {"nodes": r.nodes, "classes": len(r.classes)}))
        out.append(Op("max_disjoint(ws27)", "pcs",
                      lambda: analysis.max_disjoint_pcs(self.ws27),
                      self._check_max_disjoint, nodes))
        for i, s in enumerate(self.s15):
            out.append(Op(f"chi_exact[{i}]", "chi_exact",
                          lambda s=s: analysis.chromatic_index_exact(s),
                          lambda r, i=i, s=s: self._check_chi(i, s, r),
                          lambda r: {"nodes": r.nodes, "value": r.value}))
        for target, restarts, required in ((HEUR_TARGET, 12, True),
                                           (HARD_TARGET, HARD_RESTARTS, False)):
            for i, s in enumerate(self.s33):
                out.append(Op(
                    f"chi_heuristic[{i}]@{target}", "chi_heur",
                    lambda s=s, t=target, k=restarts: analysis.chromatic_index_heuristic(
                        s, t, restarts=k),
                    lambda r, s=s, t=target, q=required: self._check_heuristic(s, t, q, r),
                    lambda r, i=i, t=target: {"instance": i, "target": t,
                                              "reached": r is not None}))
        return out


# ---------------------------------------------------------------------------
# session


class CliError(RuntimeError):
    """The CLI exited with the usage/error code 2: it gave no answer."""


def _cli_subprocess(argv: list[str], cwd: Path) -> tuple[int, str, str]:
    proc = subprocess.run([sys.executable, "-m", "stskit.cli", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr


def _cli_inprocess(argv: list[str], cwd: Path) -> tuple[int, str, str]:
    from stskit import cli

    out, err = io.StringIO(), io.StringIO()
    old = os.getcwd()
    os.chdir(cwd)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as e:  # argparse exits on usage errors
                code = e.code if isinstance(e.code, int) else 2
    finally:
        os.chdir(old)
    return code, out.getvalue(), err.getvalue()


STARTUP_REPEATS = 5
BOSE_CHI_BUDGET_NODES = 50_000


def _fields(**expected) -> Callable[[dict], str | None]:
    def check(payload: dict) -> str | None:
        bad = {k: payload.get(k) for k, v in expected.items() if payload.get(k) != v}
        return f"fields {bad} != {expected}" if bad else None
    return check


class Session(Workload):
    name = "session"
    FILES = ("ws999.sts", "s33.sts", "bose33.sts", "ws27.sts")

    def setup(self) -> None:
        self.dir = self.root / ".perfbench" / "tmp" / f"session-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        f997 = checks.f(997)
        seed = str(self.seed)
        # (phase, argv, allowed exit codes, payload check)
        self.script: list[tuple[str, tuple[str, ...], tuple[int, ...], Callable]] = [
            *[("startup", ("numtheory", "profile", "--n", "49"), (0,),
               _fields(n=49, f=checks.f(49), psi_star=48 - 18 * checks.f(49)))
              for _ in range(STARTUP_REPEATS)],
            ("script", ("construct", "wilson-schreiber", "--n", "997", "--out", "ws999.sts"),
             (0,), _fields(v=999, triples=166_167, verified=True)),
            ("script", ("verify", "--in", "ws999.sts"), (0,),
             _fields(v=999, triples=166_167, ok=True)),
            ("script", ("analyze", "bound", "--in", "ws999.sts", "--method", "ws"), (0,),
             _fields(bound=3 * f997 + 1, method="ws-weight-argument")),
            ("script", ("fixture", "sts33", "--out", "s33.sts", "--colouring-out", "s33.cols"),
             (0,), _fields(classes=18, verified=True)),
            ("script", ("verify", "--in", "s33.sts", "--colouring", "s33.cols"), (0,),
             _fields(ok=True, colouring_ok=True, classes=18)),
            ("script", ("analyze", "chi", "--in", "s33.sts", "--exact", "--witness-colouring",
                        "s33.cols", "--mod3-lower"), (0,),
             _fields(value=18, status="complete")),
            ("script", ("construct", "bose", "--n", "11", "--square", "conjugate",
                        "--seed", seed, "--out", "bose33.sts"), (0,),
             _fields(v=33, triples=176, verified=True)),
            ("script", ("analyze", "bound", "--in", "bose33.sts", "--method", "mod3"), (0,),
             self._check_mod3_bound),
            # Exits 2 while --mod3-lower hard-codes the p mod 3 weighting, which
            # does not fit a Bose file; a fitting weighting gives 0, or 3 once
            # the node budget runs out.
            ("script", ("analyze", "chi", "--in", "bose33.sts", "--exact", "--mod3-lower",
                        "--budget-nodes", str(BOSE_CHI_BUDGET_NODES)), (0, 3),
             self._check_bose_chi),
            ("script", ("construct", "wilson-schreiber", "--n", "25", "--out", "ws27.sts"),
             (0,), _fields(v=27, triples=117, verified=True)),
            ("script", ("analyze", "pcs", "--in", "ws27.sts", "--max-disjoint"), (0,),
             _fields(max_disjoint=3 * checks.f(25) + 1, status="complete")),
            ("script", ("theorem1", "--v", "999"), (0,),
             _fields(route="ws-certificate", holds=True, pc_bound=3 * f997 + 1)),
            ("script", ("numtheory", "scan", "--limit", "600"), (0,),
             _fields(exceptions=PSI_STAR_EXCEPTIONS)),
        ]

    def _check_mod3_bound(self, payload: dict) -> str | None:
        system = core.parse_sts((self.dir / "bose33.sts").read_text())
        return checks.mod3_certificate_error(system.triples, system.v,
                                             payload.get("witness", {}), payload.get("bound"))

    @staticmethod
    def _check_bose_chi(payload: dict) -> str | None:
        lower, upper = payload.get("lower"), payload.get("upper")
        if not (isinstance(lower, int) and isinstance(upper, int)
                and core.m_lower(33) <= lower <= upper):
            return f"bracket [{lower}, {upper}] is not a valid chromatic-index interval"
        return None

    @staticmethod
    def _check_call(codes: tuple[int, ...], check: Callable, result) -> str | None:
        code, out, _err = result
        if code not in codes:
            return f"exit {code}, allowed {codes}"
        try:
            payload = json.loads(out.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return "no --json report on stdout"
        return check(payload)

    def ops(self, traced: bool) -> list[Op]:
        call = _cli_inprocess if traced else _cli_subprocess

        def run(argv):
            code, out, err = call([*argv, "--json"], self.dir)
            if code == 2:
                raise CliError(f"exit 2: {err.strip().splitlines()[-1] if err.strip() else ''}")
            return code, out, err

        return [Op(" ".join(argv), phase, lambda a=argv: run(a),
                   lambda r, c=codes, k=check: self._check_call(c, k, r),
                   lambda r: {"exit": r[0]})
                for phase, argv, codes, check in self.script]

    def after_pass(self) -> None:
        for name in self.FILES:
            path = self.dir / name
            if path.exists():
                self.digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Certify, Scan, Search, Session)
}
