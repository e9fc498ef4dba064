"""Benchmark entry point.

    python3 perfbench/run.py --workload certify|scan|search|session|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Every pass of a workload runs in a fresh
interpreter (``child.py``), one child at a time, so each pass starts with
cold caches, as a user running the command does.  Passes repeat until the
next one would end after ``--seconds``; set-up is sampled at least
MIN_SETUPS times.  With ``--trace 0`` the final stdout line carries the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
one traced pass plus the tracing overhead against one untraced pass.  Each
run also writes a full record (ops, named metrics, input digests, machine
facts) under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
WORKLOADS = ("certify", "scan", "search", "session")
MIN_SETUPS = 7
CHILD_TIMEOUT_S = 170
IMPORT_SAMPLES = 3

# name -> unit; the order is the print order.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "numtheory.sieve_s": "s", "numtheory.divisors_calls": "count",
    "numtheory.divisors_s": "s", "numtheory.phi_calls": "count", "numtheory.phi_s": "s",
    "numtheory.factorise_calls": "count", "numtheory.profile_s": "s",
    "numtheory.profile_hit_ratio": "ratio",
    "factorisation.factorise_G_s": "s", "factorisation.verify_s": "s",
    "factorisation.component_calls": "count", "factorisation.component_hit_ratio": "ratio",
    "factorisation.component_cache_size": "count",
    "constructions.wilson_schreiber_s": "s", "constructions.wilson_schreiber_calls": "count",
    "constructions.triples_built": "count", "constructions.bose_s": "s",
    "core.from_triples_s": "s", "core.format_sts_s": "s", "core.parse_sts_s": "s",
    "core.verify_sts_s": "s", "core.verify_colouring_s": "s",
    "analysis.pipeline_self_s": "s", "analysis.enum_nodes": "count",
    "analysis.enum_nodes_per_s": "1/s", "analysis.pack_nodes": "count",
    "analysis.chi_exact_nodes": "count", "analysis.chi_exact_nodes_per_s": "1/s",
    "analysis.heur_best_target": "count", "analysis.heur_s_per_restart": "s",
    "generator.random_sts_s": "s",
    "cli.import_s": "s", "cli.handler_s": "s", "cli.process_s": "s",
    "trace_overhead_s": "s",
}


class ChildFailed(RuntimeError):
    pass


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    """Spawns children one at a time from the checkout root."""

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.out = root / ".perfbench"
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("STSKIT_")}
        self.env["PYTHONPATH"] = str(root / "src")

    def _spawn(self, argv: list[str]) -> str:
        # A new session per child, so a timeout can stop its CLI subprocesses too.
        proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise ChildFailed(f"{' '.join(argv[1:])}: no result within {CHILD_TIMEOUT_S} s")
        if proc.returncode != 0:
            raise ChildFailed(f"{' '.join(argv[1:])}: exit {proc.returncode}\n{err[-2000:]}")
        return out

    def child(self, workload: str, mode: str, trace: int = 0) -> tuple[dict, float]:
        """Run one child; returns its record and its spawn-to-exit time."""
        argv = [sys.executable, str(HERE / "child.py"), "--workload", workload,
                "--seed", str(self.seed), "--mode", mode, "--trace", str(trace)]
        if trace:
            spans = self.out / "spans" / f"{workload}-seed{self.seed}-{time.time_ns()}.jsonl"
            spans.parent.mkdir(parents=True, exist_ok=True)
            argv += ["--spans-out", str(spans)]
        t = monotonic()
        out = self._spawn(argv + ["--t-spawn", repr(t)])
        return json.loads(out.strip().splitlines()[-1]), monotonic() - t

    def import_cli_s(self) -> float:
        code = ("import time; t = time.perf_counter(); import stskit.cli; "
                "print(time.perf_counter() - t)")
        return statistics.median(float(self._spawn([sys.executable, "-c", code]))
                                 for _ in range(IMPORT_SAMPLES))


# ---------------------------------------------------------------------------
# aggregation


def op_medians(passes: list[dict]) -> list[tuple[str, float]]:
    """(phase, median time across passes) for each op of a pass.

    Every pass runs the same ops in the same order; a pass's typical time is
    the sum of these medians, which a slow moment during one op of one pass
    does not move."""
    return [(op["phase"], statistics.median(p["ops"][i]["seconds"] for p in passes))
            for i, op in enumerate(passes[0]["ops"])]


def named_metrics(workload: str, passes: list[dict]) -> dict:
    """The workload's own metrics (unbounded), named for what they count."""
    ops = [op for p in passes for op in p["ops"]]
    attempted, failed, _ = stats.count_failures(ops)
    times = [op["seconds"] for op in ops]
    medians = op_medians(passes)
    wall = sum(t for _, t in medians)
    out = {"fail_ratio": (stats.fail_ratio(attempted, failed), "ratio"),
           "op_p50_ms": (1000 * statistics.median(times), "ms")}
    level = stats.tail_level(len(times))
    if level is not None:
        out[f"op_p{level:g}_ms"] = (1000 * stats.percentile(times, level), "ms")
    if workload == "certify":
        out["orders_per_s"] = (len(passes[0]["ops"]) / wall, "1/s")
        out["order_p50_ms"] = (1000 * stats.percentile(times, 50), "ms")
        out["order_p90_ms"] = (1000 * stats.percentile(times, 90), "ms")
    elif workload == "scan":
        out["n_per_s"] = (ops[0]["info"]["limit"] / wall, "1/s")
    elif workload == "search":
        for phase in ("pcs", "chi_exact", "chi_heur"):
            out[f"{phase}_s"] = (sum(t for ph, t in medians if ph == phase), "s")
    elif workload == "session":
        out["session_s"] = (wall, "s")
        startup = [op["seconds"] for op in ops if op["phase"] == "startup"]
        out["startup_ms"] = (1000 * statistics.median(startup), "ms")
    return out


def node_mismatches(passes: list[dict]) -> list[str]:
    """Ops whose search node count differs between passes of one run."""
    seen: dict[str, int] = {}
    bad = []
    for p in passes:
        for op in p["ops"]:
            nodes = op.get("info", {}).get("nodes")
            if nodes is None:
                continue
            if seen.setdefault(op["name"], nodes) != nodes:
                bad.append(op["name"])
    return sorted(set(bad))


def heur_best_target(record: dict) -> float:
    """Mean over instances of the least heuristic target reached (0 if none)."""
    best: dict[int, int] = {}
    for op in record["ops"]:
        info = op.get("info", {})
        if info.get("reached"):
            best[info["instance"]] = min(best.get(info["instance"], info["target"]),
                                         info["target"])
    return statistics.mean(best.values()) if best else 0.0


def run_untraced(runner: Runner, workload: str, seconds: float) -> dict:
    passes: list[dict] = []
    setups: list[float] = []
    started = monotonic()
    while True:
        record, took = runner.child(workload, "pass")
        passes.append(record)
        setups.append(record["setup_s"])
        if monotonic() - started + took > seconds:
            break
    while len(setups) < MIN_SETUPS:
        setups.append(runner.child(workload, "setup")[0]["setup_s"])
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(t for _, t in op_medians(passes)),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return {"passes": passes, "setups": setups, "metrics": metrics,
            "named": named_metrics(workload, passes), "units": END_TO_END}


def run_traced(runner: Runner, workload: str) -> dict:
    plain, _ = runner.child(workload, "pass")
    traced, _ = runner.child(workload, "pass", trace=1)
    layers = dict(traced["layers"])
    layers["analysis.heur_best_target"] = heur_best_target(traced)
    layers["cli.import_s"] = runner.import_cli_s()
    layers["cli.process_s"] = sum(op["seconds"] for op in plain["ops"]) \
        if workload == "session" else 0.0
    layers["trace_overhead_s"] = (sum(op["seconds"] for op in traced["ops"])
                                  - sum(op["seconds"] for op in plain["ops"]))
    missing = sorted(set(PER_LAYER) - set(layers))
    if missing:
        raise ChildFailed(f"traced pass did not report {missing}")
    return {"passes": [plain, traced], "setups": [], "units": PER_LAYER,
            "metrics": {name: layers[name] for name in PER_LAYER}, "named": {}}


# ---------------------------------------------------------------------------
# reporting


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}


def report(workload: str, seed: int, trace: int, result: dict, out_dir: Path) -> dict:
    passes = result["passes"]
    ops = [op for p in passes for op in p["ops"]]
    attempted, failed, wrong = stats.count_failures(ops)
    digests = passes[0]["digests"]
    unstable = [p["digests"] for p in passes if p["digests"] != digests]
    mismatched = node_mismatches(passes)
    correct = wrong == 0 and not unstable and not mismatched

    print(f"== {workload}  seed {seed}  trace {trace}  passes {len(passes)}  "
          f"ops {attempted}  failed {failed}  wrong {wrong}")
    for name, value in result["metrics"].items():
        print(f"  {name:40s} {value:14.6g} {result['units'][name]}")
    for name, (value, unit) in result["named"].items():
        print(f"  {workload}.{name:31s} {value:14.6g} {unit}")
    for op in ops:
        if op["status"] != "ok":
            print(f"  FAILED op [{op['status']}] {op['name']}: {op['reason']}")
    if unstable:
        print("  input digests differ between passes of one seed")
    if mismatched:
        print(f"  node counts differ between passes: {mismatched}")

    record = {"workload": workload, "seed": seed, "trace": trace, "correct": correct,
              "attempted": attempted, "failed": failed, "wrong": wrong,
              "metrics": result["metrics"], "units": result["units"],
              "named": {k: {"value": v, "unit": u} for k, (v, u) in result["named"].items()},
              "setups": result["setups"], "digests": digests,
              "nodes": {op["name"]: op["info"]["nodes"] for op in passes[0]["ops"]
                        if "nodes" in op.get("info", {})},
              "passes": [{k: v for k, v in p.items() if k != "layers"} for p in passes],
              "machine": machine()}
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{workload}-seed{seed}-trace{trace}-{time.time_ns()}.json"
    path.write_text(json.dumps(record, indent=1))
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "stskit" / "__init__.py").is_file():
        print("error: run from the repository root (src/stskit not found)", file=sys.stderr)
        return 2
    compileall.compile_dir(root / "src", quiet=1)  # bytecode once, not in set-up time

    runner = Runner(root, args.seed)
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for workload in chosen:
            result = (run_traced(runner, workload) if args.trace
                      else run_untraced(runner, workload, args.seconds))
            records.append(report(workload, args.seed, args.trace, result,
                                  runner.out / "results"))
    except ChildFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    single = args.workload != "all"
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {(name if single else f"{r['workload']}.{name}"):
                    {"value": value, "unit": r["units"][name]}
                    for r in records for name, value in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
