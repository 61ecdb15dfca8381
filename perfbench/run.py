"""hedgelab benchmark: one workload, timed from outside, every output checked.

Run from the root of a checkout:

    python3 perfbench/run.py --workload martingale-100k --seed 1 --seconds 30 --trace 0

Each workload call runs in a fresh single-threaded child process
(``child.py``) that imports hedgelab from ``src/`` of the checkout, builds
the inputs from the seed, and calls hedgelab's public entry points. The
run first starts SETUP_ONLY children that stop after set-up, then starts
call children until ``--seconds`` would be exceeded (at least MIN_CALLS).

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` alternates untraced and traced calls and reports the
per-layer metrics from the traced ones; end-to-end numbers never come
from traced calls. The last line of stdout is the result as JSON; the
lines before it are a readable report, and a fuller run record (every
sample, digests, versions, thread settings) goes to
``perfbench/.work/records/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

MIN_CALLS = 2  # two calls per run let the determinism check compare digests
SETUP_ONLY = 3  # with MIN_CALLS, setup_s is a median of at least five samples
HARD_LIMIT_S = 165.0  # the whole run ends well within 180 s
# Times are reported in reference seconds: measured seconds x PROBE_REF_S /
# probe time of the same child (see child.py). The host's speed drifts by
# up to a third over minutes; the probe tracks that drift and the ratio
# removes most of it. PROBE_REF_S is the probe's typical time on a 2-vCPU
# x86-64 VM with Python 3.11, so reference seconds read close to seconds.
PROBE_REF_S = 1.25e-3
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

# Shares of traced wall time quoted when the workloads were chosen.
PREDICTED_SHARES = {
    "martingale-100k": {
        "paths.generate_brownian+paths.gbm_path+accum.comp_cumsum_1d": 0.86,
        "experiments": 0.07,
    },
    "verify-fine": {"accum.comp_cumsum_nd+experiments": 0.33},
    "simulate-csv": {"cli.run": 0.76, "paths.generate_brownian+paths.gbm_path+accum.comp_cumsum_1d": 0.24},
    "ledger-single": {"accum.comp_cumsum_1d": 0.78},
}


class Child:
    """A started child process and what it has printed so far."""

    def __init__(self, argv, env, cwd, deadline):
        self.deadline = deadline
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=cwd, bufsize=0)
        self.buf = b""

    def read_line(self) -> bytes | None:
        """Next stdout line, or None at end of output; TimeoutError past the deadline."""
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buf:
            remaining = self.deadline - time.perf_counter()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise TimeoutError
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return None
            self.buf += chunk
        line, _, self.buf = self.buf.partition(b"\n")
        return line

    def finish(self) -> int:
        try:
            return self.proc.wait(timeout=max(0.1, self.deadline - time.perf_counter()))
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_child(argv, env, cwd, deadline):
    """Start one child; return (setup_s or None, record or None, problem or None)."""
    child = Child(argv, env, cwd, deadline)
    try:
        if child.read_line() != b"ready":
            child.finish()
            return None, None, "child ended before set-up finished"
        setup_s = time.perf_counter() - child.started
        line = child.read_line()
        code = child.finish()
        if line is None or code != 0:
            return setup_s, None, f"child exited {code} without a result"
        return setup_s, json.loads(line), None
    except TimeoutError:
        child.kill()
        return None, None, "timed out"


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def largest(layers, names):
    return max(names, key=lambda n: layers[f"{n}.self_s"])


def prediction_lines(name, layers):
    """Report the traced run against the shape and share predictions; failures are reported, not hidden."""
    from tracing import LAYERS, SPAN_NAMES

    shapes = [("paths.refine runs", name == "verify-fine", layers["paths.refine.calls"] > 0)]
    if name == "martingale-100k":
        shapes.append(("layer with the most self time", "paths", largest(layers, LAYERS)))
    elif name == "simulate-csv":
        shapes.append(("span with the most self time", "cli.run", largest(layers, SPAN_NAMES)))
    elif name == "ledger-single":
        shapes.append(("span with the most self time", "accum.comp_cumsum_1d", largest(layers, SPAN_NAMES)))
    lines = [
        f"  prediction: {text} = {expected}: {'holds' if measured == expected else 'FAILS'} (measured {measured})"
        for text, expected, measured in shapes
    ]
    wall = layers["trace.wall_s"]
    for parts, share in PREDICTED_SHARES[name].items():
        measured = sum(layers[f"{part}.self_s"] for part in parts.split("+")) / wall
        lines.append(f"  share of traced wall, {parts}: predicted ~{share:.0%}, measured {measured:.1%}")
    accounted = sum(layers[f"{layer}.self_s"] for layer in LAYERS)
    lines.append(
        f"  layer self times {accounted:.4f} s + unattributed {layers['trace.unattributed_s']:.4f} s"
        f" = traced wall {wall:.4f} s"
    )
    return lines


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: smoke-test size")
    parser.add_argument("--inject-failure", action="store_true", help="fail every check (self-test)")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def measure(args, base, env, root, spans_file):
    """Run the set-up-only and call children; return (setup samples, calls) or None."""
    hard_deadline = time.perf_counter() + HARD_LIMIT_S
    setup_samples = []  # (measured set-up time, probe time) per child
    for _ in range(SETUP_ONLY):
        setup_s, record, problem = run_child(base + ["--setup-only"], env, root, hard_deadline)
        if problem:
            print(f"error: set-up child: {problem}", file=sys.stderr)
            return None
        setup_samples.append((setup_s, record["probe_s"]))

    calls = []  # (traced, record or None, problem or None)
    measure_start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(calls) % 2 == 1
        argv = base + (["--spans", str(spans_file), "--run-id", f"{args.workload}-s{args.seed}-c{len(calls)}"] if traced else [])
        started = time.perf_counter()
        setup_s, record, problem = run_child(argv, env, root, hard_deadline)
        now = time.perf_counter()
        if record is not None:
            setup_samples.append((setup_s, record["probe_s"]))
        if record is not None and record["failures"]:
            problem = "; ".join(record["failures"])
        calls.append((traced, record, problem))
        lifetime = now - started
        if problem == "timed out" or now + lifetime > hard_deadline:
            break
        if len(calls) >= MIN_CALLS and now - measure_start + lifetime > args.seconds:
            break

    # Every call ran the same code on the same seed, so every output digest must match.
    digests = [rec["digest"] for _, rec, _ in calls if rec is not None and rec["digest"] is not None]
    for i, (traced, record, problem) in enumerate(calls):
        if record is not None and record["digest"] not in (None, digests[0]):
            problem = (problem + "; " if problem else "") + "output digest differs from the run's first call"
            calls[i] = (traced, record, problem)
    return setup_samples, calls


def main() -> int:
    args = parse_args()
    root = Path.cwd()
    if not (root / "src" / "hedgelab" / "__init__.py").is_file():
        print(f"error: {root} has no src/hedgelab to benchmark; run from a hedgelab checkout", file=sys.stderr)
        return 2
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    work = HERE / ".work"
    (work / "records").mkdir(parents=True, exist_ok=True)
    env = child_env(root)
    base = [
        sys.executable, str(HERE / "child.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--size", args.size, "--out", str(work / "out" / args.workload), "--src", str(root / "src"),
    ]
    if args.inject_failure:
        base.append("--inject-failure")
    spans_file = work / f"spans-{args.workload}.csv"
    load_before = os.getloadavg()

    measured = measure(args, base, env, root, spans_file)
    if measured is None:
        return 1
    setup_samples, calls = measured
    attempted = len(calls)
    failed = sum(problem is not None for _, _, problem in calls)
    timed = [rec for traced, rec, _ in calls if rec is not None and not traced]
    traced_records = [rec for traced, rec, _ in calls if traced and rec is not None]
    if not timed or (args.trace and not traced_records):
        for _, _, problem in calls:
            print(f"call failed: {problem}", file=sys.stderr)
        print("error: no call produced a timing; no result", file=sys.stderr)
        return 1

    wall_s = statistics.median(r["wall_s"] * PROBE_REF_S / r["probe_s"] for r in timed)
    values = {
        "wall_s": wall_s,
        "path_steps_per_s": timed[0]["path_steps"] / wall_s,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
        "setup_s": statistics.median(setup * PROBE_REF_S / probe for setup, probe in setup_samples),
    }
    measured_wall_s = statistics.median(r["wall_s"] for r in timed)
    diagnostics = {
        "measured_wall_s": measured_wall_s,
        "measured_setup_s": statistics.median(setup for setup, _ in setup_samples),
        "probe_ms": 1000.0 * statistics.median(probe for _, probe in setup_samples),
        "cpu_s": statistics.median(r["cpu_s"] for r in timed),
        "fail_ratio": failed / attempted,
    }
    path_s = [s for r in timed for s in r.get("path_s", ())]
    if path_s:
        diagnostics["path_ms_p50"] = 1000.0 * statistics.median(path_s)
        diagnostics["path_ms_p99"] = 1000.0 * statistics.quantiles(path_s, n=100, method="inclusive")[98]

    report = [
        f"workload {args.workload}  seed {args.seed}  size {args.size}  trace {args.trace}",
        f"  calls {attempted} ({failed} failed)  set-up samples {len(setup_samples)}"
        f"  nproc {os.cpu_count()}  load {load_before[0]:.2f} -> {os.getloadavg()[0]:.2f}",
        f"  python {platform.python_version()}  numpy {timed[0]['versions']['numpy']}"
        f"  scipy {timed[0]['versions']['scipy']}  {' '.join(f'{v}=1' for v in THREAD_VARS[:3])} ...",
    ]
    if args.trace:
        # Times are medians over the traced calls; counts are exact, so any call's will do.
        layers = {
            key: statistics.median(rec["layers"][key] for rec in traced_records) if key.endswith("_s") else count
            for key, count in traced_records[0]["layers"].items()
        }
        layers["trace.overhead_s"] = layers["trace.wall_s"] - measured_wall_s
        layers.update(traced_records[0]["counters"])
        values.update(layers)
        declared = spec["per_layer"]
        report += prediction_lines(args.workload, layers)
        report.append(f"  spans of the last traced call: {spans_file.relative_to(root)}")
    else:
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, m in metrics.items():
        report.append(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    units = {"fail_ratio": "fraction", "probe_ms": "ms", "path_ms_p50": "ms", "path_ms_p99": "ms"}
    for name, value in diagnostics.items():
        report.append(f"  {name:44s} {value:.6g} {units.get(name, 's')}   (diagnostic)")
    for traced, _, problem in calls:
        if problem:
            report.append(f"  FAILED{' (traced)' if traced else ''}: {problem[:300]}")

    run_record = {
        "workload": args.workload,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "versions": timed[0]["versions"],
        "thread_env": {var: env[var] for var in THREAD_VARS},
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "setup_s_and_probe_s": setup_samples,
        "calls": [
            {"traced": traced, "problem": problem}
            | ({k: rec[k] for k in ("wall_s", "cpu_s", "probe_s", "peak_rss_mb", "digest", "counters")} if rec else {})
            for traced, rec, problem in calls
        ],
        "metrics": metrics,
        "diagnostics": diagnostics,
    }
    record_file = work / "records" / f"{args.workload}-seed{args.seed}-{args.size}-trace{args.trace}.json"
    record_file.write_text(json.dumps(run_record, indent=1) + "\n")
    report.append(f"  digest sha256:{timed[0]['digest']}  record {record_file.relative_to(root)}")

    print("\n".join(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
