"""One workload call in a fresh process; started by run.py, not by hand.

Protocol on stdout: the line ``ready`` once hedgelab is imported and the
inputs are built (the parent times set-up up to this line), then one JSON
line. It holds the speed probe's time and, unless ``--setup-only``, the
call's wall and CPU time, peak RSS, digest, check failures, counters and,
with ``--trace``, the per-layer metrics. What hedgelab prints during the
call is captured so it cannot break the protocol.

The speed probe times a fixed pure-Python loop that does not touch
hedgelab, PROBE_REPEATS times right after set-up and again right after
the call. Its median tells the parent how fast this CPU ran the
interpreter at that moment, so that run.py can scale times to a
reference speed.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

PROBE_REPEATS = 100


def _probe() -> list[float]:
    """Times of PROBE_REPEATS runs of a fixed interpreter-bound loop (about 1 ms each)."""
    times = []
    clock = time.perf_counter
    for _ in range(PROBE_REPEATS):
        t = clock()
        acc = 0.0
        for i in range(20000):
            acc += i * 0.5
        times.append(clock() - t)
    return times


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None, help="trace the call, writing spans here")
    parser.add_argument("--run-id", default="")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--inject-failure", action="store_true")
    args = parser.parse_args()

    import hedgelab
    import workloads

    if not Path(hedgelab.__file__).resolve().is_relative_to(args.src.resolve()):
        print(f"hedgelab imported from {hedgelab.__file__}, not {args.src}", file=sys.stderr)
        return 2
    if args.out.exists():
        shutil.rmtree(args.out)
    workload = workloads.build(args.workload, args.seed, args.size, args.out, args.inject_failure)
    print("ready", flush=True)
    probe = _probe()
    if args.setup_only:
        print(json.dumps({"probe_s": statistics.median(probe)}), flush=True)
        return 0

    tracer = None
    if args.spans is not None:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    record = {"error": None}
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        workload.call()
    except Exception:  # a crashing call is a counted failure, not a benchmark crash
        record["error"] = traceback.format_exc()
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
    probe += _probe()

    import numpy
    import scipy

    record.update(
        wall_s=wall_s,
        cpu_s=cpu_s,
        peak_rss_mb=peak_rss_mb,
        path_steps=workload.path_steps,
        probe_s=statistics.median(probe),
        versions={"numpy": numpy.__version__, "scipy": scipy.__version__},
    )
    if record["error"] is None:
        failures, digest, counters = workload.check()
        record.update(failures=failures, digest=digest, counters=counters)
        record["path_s"] = getattr(workload, "path_s", [])
    else:
        record.update(failures=["call raised"], digest=None, counters={})
    if tracer is not None:
        record["layers"] = tracer.summary(wall_s)
        tracer.write(args.spans, args.run_id, t0)
    if args.out.exists():
        shutil.rmtree(args.out)
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
