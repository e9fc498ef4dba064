"""Summarise and compare saved benchmark runs.

    python3 perfbench/compare.py summary RUNS_DIR
    python3 perfbench/compare.py diff BASE_DIR NEW_DIR

A runs directory holds the records ``run.py`` writes under
``.perfbench/results/`` (copy them aside per commit).  ``summary`` prints, per
workload and metric, the median, quartiles and relative spread over the
untraced runs.  ``diff`` compares two commits workload by workload.  When a
seed's input digests differ between the two sides, that workload is reported
as "inputs changed" and no speed verdict is given, because the two sides did
not run the same instances.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent


def load(runs_dir: Path) -> dict[str, list[dict]]:
    """Untraced run records by workload."""
    out: dict[str, list[dict]] = defaultdict(list)
    for path in sorted(runs_dir.glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace") == 0:
            out[record["workload"]].append(record)
    return out


def metric_values(records: list[dict]) -> dict[str, tuple[list[float], str]]:
    """Every end-to-end and named metric across runs, with its unit."""
    values: dict[str, tuple[list[float], str]] = {}
    for record in records:
        for name, value in record["metrics"].items():
            values.setdefault(name, ([], record["units"][name]))[0].append(value)
        for name, entry in record["named"].items():
            values.setdefault(f"named.{name}", ([], entry["unit"]))[0].append(entry["value"])
    return values


def summary(runs: dict[str, list[dict]]) -> dict:
    out = {}
    for workload, records in sorted(runs.items()):
        rows = {}
        for name, (vals, unit) in metric_values(records).items():
            q1, med, q3 = stats.quartiles(vals)
            rows[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med if med else None, "runs": len(vals)}
        out[workload] = {
            "seeds": sorted({r["seed"] for r in records}),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": rows,
        }
    return out


def digest_report(base: list[dict], new: list[dict]) -> list[str]:
    """Per seed run on both sides, the instances whose digests differ."""
    by_seed = {r["seed"]: r["digests"] for r in base}
    changed = []
    for r in new:
        if r["seed"] in by_seed:
            changed += [f"seed {r['seed']}: {name}"
                        for name in stats.digest_changes(by_seed[r["seed"]], r["digests"])]
    return changed


def diff(base: dict[str, list[dict]], new: dict[str, list[dict]]) -> list[str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    lines = []
    for workload in sorted(set(base) & set(new)):
        changed = digest_report(base[workload], new[workload])
        if changed:
            lines.append(f"{workload}: inputs changed ({', '.join(changed)}); "
                         f"no speed comparison")
            continue
        b_fail = sum(r["failed"] for r in base[workload])
        n_fail = sum(r["failed"] for r in new[workload])
        lines.append(f"{workload}: failed ops {b_fail} -> {n_fail}")
        b_vals, n_vals = metric_values(base[workload]), metric_values(new[workload])
        for name, (vals, unit) in b_vals.items():
            if name not in n_vals:
                continue
            better, bound = bounds.get(name, ("lower", None))
            verdict = stats.compare_metric(vals, n_vals[name][0], better, bound)
            b_q = stats.quartiles(vals)
            n_q = stats.quartiles(n_vals[name][0])
            lines.append(f"  {name:28s} {b_q[1]:12.6g} -> {n_q[1]:12.6g} {unit:6s} "
                         f"[{verdict}]")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "summary":
        print(json.dumps(summary(load(Path(argv[1]))), indent=1))
        return 0
    if len(argv) == 3 and argv[0] == "diff":
        print("\n".join(diff(load(Path(argv[1])), load(Path(argv[2])))))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
