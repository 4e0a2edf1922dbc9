"""ckgraph benchmark.

    python3 bench/run.py --workload kinv --seed 1 --seconds 38 --trace 0

Runs one workload of ``bench/workloads.py`` as a closed loop with one
outstanding operation, in fresh worker processes (``bench/worker.py``), so no
cache or peak memory carries over from another workload.  Prints each metric
by name and unit, then, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.  Set-up
runs in ``SETUP_RUNS`` processes, the last of which goes on to measure, and
``setup_s`` is their median.  ``--trace 1`` reports the per-layer metrics:
one process runs untraced and a second one, traced, for half the time each;
``trace.overhead_ratio`` is the traced throughput over the untraced one.
Spans go to ``bench/out/``.  ``bench/METRICS.md`` defines every metric.

End-to-end times are scaled to machine speed: each worker times a fixed
pure-Python probe (``worker.speed_probe``) between its ops, and an op's time
t is reported as t * REFERENCE_PROBE_S / (median of the probes around it).
On shared hosts the machine's speed swings by up to 2x within seconds, for
every program alike; the scaling cancels those swings and keeps the
program's own changes.  The unscaled figures are printed above the result
line.

``correct`` is false when an operation fails for any reason other than the
known defect that ``workloads.KnownDefectFailure`` describes; those failures
are counted in ``failed`` all the same.  The ``mvn`` workload, which shows
that defect, runs like the others but is left out of ``BENCHMARK.json``,
whose workloads must run without failed operations.  Exits non-zero, without a result
line, when a worker fails, and refuses to run under ``python -O``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 5
DEADLINE_S = 170
# workloads that run but are not in BENCHMARK.json: mvn fails on a known
# defect (see workloads.KnownDefectFailure); its monoid oracle figures
MORE_WORKLOADS = ("mvn",)
MORE_LAYER_UNITS = {"monoid.mvn_calls": "count/op", "monoid.decided_ratio": "ratio",
                    "monoid.trace_replay_failed": "count/op"}


class WorkerFailed(Exception):
    pass


def spawn(args, mode: str, seconds: float, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(seconds), "--mode", mode,
    ]
    # a fixed hash seed makes set and dict layouts, hence the work, repeat per seed
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{mode} worker timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{mode} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    # on SIGTERM, unwind so that subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if sys.flags.optimize:
        print("refusing to run under -O/PYTHONOPTIMIZE: smith_normal_form verifies its "
              "certificate only under __debug__", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]} | set(MORE_WORKLOADS):
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "ckgraph" / "__init__.py").is_file():
        print("no ckgraph sources under src/", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace == 0:
            setups = [spawn(args, "setup", 0, deadline) for _ in range(SETUP_RUNS - 1)]
            run = spawn(args, "measure", args.seconds, deadline)
            runs = [run]
            names = ("throughput_ops_s", "latency_p50_ms", "latency_p90_ms", "decided_ratio",
                     "peak_rss_mb")
            values = {name: run[name] for name in names}
            values["setup_s"] = statistics.median(r["setup_s"] for r in setups + [run])
            wanted = spec["end_to_end"]
            extra = {"failed_ratio": (run["failed"] / run["attempted"], "ratio"),
                     "latency_p99_ms": (run["latency_p99_ms"], "ms"),
                     "ops_measured": (run["measured"], "count"),
                     "probe_ms": (run["probe_s"] * 1e3, "ms")}
            for name, unit in (("throughput_ops_s", "1/s"), ("latency_p50_ms", "ms"),
                               ("latency_p90_ms", "ms"), ("latency_p99_ms", "ms")):
                extra[f"unscaled.{name}"] = (run["raw"][name], unit)
            extra["unscaled.setup_s"] = (statistics.median(r["raw"]["setup_s"] for r in setups + [run]), "s")
        else:
            plain = spawn(args, "measure", args.seconds / 2, deadline)
            traced = spawn(args, "traced", args.seconds / 2, deadline)
            runs = [plain, traced]
            values = dict(traced["layers"])
            values["trace.overhead_ratio"] = traced["throughput_ops_s"] / plain["throughput_ops_s"]
            wanted = spec["per_layer"]
            extra = {name: (values[name], unit) for name, unit in MORE_LAYER_UNITS.items()}
            extra["known_defect_failures"] = (sum(r["known_defect"] for r in runs), "count")
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    missing = [m["name"] for m in wanted if values.get(m["name"]) is None]
    if missing:
        print(f"benchmark failed: no value for {missing}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = failed == sum(r["known_defect"] for r in runs)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}")
    for name, item in metrics.items():
        print(f"  {name:32} {item['value']:>16.6g} {item['unit']}")
    for name, (value, unit) in extra.items():
        print(f"  {name:32} {value:>16.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
