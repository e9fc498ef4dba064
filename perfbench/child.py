"""One pass (or one set-up) of one workload in a fresh interpreter.

Started by ``run.py`` with the parent's CLOCK_MONOTONIC reading taken just
before the spawn, so set-up time covers interpreter start, ``import stskit``
and input generation.  Times each operation, then checks every answer.
Prints one JSON record as its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; the children term covers CLI subprocesses.
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "pass"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t-spawn", type=float, required=True)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args()

    import workloads

    tracer = None
    if args.trace:
        import stskit.cli  # noqa: F401  (so its namespace gets wrapped too)
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    wl = workloads.WORKLOADS[args.workload](Path.cwd(), args.seed)
    wl.setup()
    record: dict = {"setup_s": monotonic() - args.t_spawn}
    if args.mode == "setup":
        wl.after_pass()
        record["digests"] = wl.digests
        print(json.dumps(record))
        return 0

    ops = wl.ops(traced=tracer is not None)
    results = []
    clock = time.perf_counter
    t_pass = clock()
    for op in ops:
        if tracer is not None:
            tracer.run_id = f"{args.workload}:{op.name}"
        t = clock()
        try:
            value, error = op.run(), None
        except Exception as e:  # an op that raises is a failed op, not a crash
            value, error = None, f"{type(e).__name__}: {e}"
        results.append((op, value, clock() - t, error))
    record["pass_s"] = clock() - t_pass
    record["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()

    op_records = []
    for op, value, seconds, error in results:
        rec = {"name": op.name, "phase": op.phase, "seconds": seconds}
        if error is not None:
            rec.update(status="error", reason=error)
        else:
            try:
                reason = op.check(value)
            except Exception as e:
                reason = f"check raised {type(e).__name__}: {e}"
            try:
                info = op.info(value)
            except Exception:  # a wrong answer may lack the recorded fields
                info = {}
            rec.update(status="wrong" if reason else "ok", reason=reason, info=info)
        op_records.append(rec)
    record["ops"] = op_records

    if tracer is not None:
        from tracing import layer_metrics

        record["layers"] = layer_metrics(tracer)
        if args.spans_out:
            tracer.write(args.spans_out)
    wl.after_pass()
    record["digests"] = wl.digests
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
