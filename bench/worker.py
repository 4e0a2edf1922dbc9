"""One benchmark process: set up, run one workload for a fixed time, and
print one JSON record.  ``run.py`` starts it; it is not meant to be run by
hand, though ``python3 bench/worker.py --workload kinv --seed 1 --seconds 2
--mode measure`` works.

Modes: ``setup`` stops after set-up; ``measure`` runs the workload untraced;
``traced`` installs the tracer first and reports per-layer figures.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
# warm-up operations, from an input stream of the workload with a fixed seed
WARMUP_OPS = 8
# throughput is the median over this many consecutive slices of the timed ops,
# so one rare huge op or a slow spell of the machine moves it little
THROUGHPUT_SLICES = 5
# the machine-speed probe runs this often during the timed loop, and this many
# times after set-up
PROBE_EVERY_S = 0.2
SETUP_PROBES = 5
# an op is scaled by the median of this many probes around it: the two before
# it and the two after it
PROBE_WINDOW = 4
# median speed_probe() time on the host the bounds were set on: 2 vCPUs at
# 2.1 GHz, CPython 3.11; scaled times read as times on that host
REFERENCE_PROBE_S = 0.0045


def speed_probe() -> float:
    """Seconds taken by a fixed piece of pure-Python work (integer mixing,
    string keys, a dict, a sort, a big-int product) that touches no program
    code.  The collector is paused so that the program's heap does not bill
    the probe; its median over a run tracks how fast the machine ran then."""
    gc.disable()
    start = time.perf_counter()
    state, counts, rows, big = 0x1234567, {}, [], 1
    for i in range(3000):
        state = (state * 0x9E3779B97F4A7C15 + i) & 0xFFFFFFFFFFFFFFFF
        mixed = (state ^ (state >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
        key = f"v{mixed % 997}"
        counts[key] = counts.get(key, 0) + 1
        rows.append((key, mixed % 13, i))
    rows.sort()
    for i in range(1, 300):
        big = big * (i | 1) + i
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


def throughput(latencies) -> float:
    """Median over consecutive slices of ops per second of op latency."""
    n = len(latencies)
    slices = [latencies[n * k // THROUGHPUT_SLICES:n * (k + 1) // THROUGHPUT_SLICES]
              for k in range(THROUGHPUT_SLICES)]
    return statistics.median(len(s) / sum(s) for s in slices if s)


def percentile(sorted_values, q):
    """Nearest-rank percentile of a sorted list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "traced"), required=True)
    args = parser.parse_args()
    if not __debug__:
        print("refusing to run optimized: Smith certificates are checked only under __debug__",
              file=sys.stderr)
        return 2

    sys.path.insert(0, str(ROOT / "src"))
    from ckgraph import ktheory, randgen
    import workloads

    tracer = None
    if args.mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.inputs(randgen.SplitMix64(randgen.derive_seed(args.seed, f"bench:{workload.name}")))
    # warm-up inputs do not depend on the seed, so neither does set-up time
    warmup_inputs = workload.inputs(randgen.SplitMix64(randgen.derive_seed(0, f"bench:{workload.name}:warm-up")))
    engine = getattr(ktheory, "_k0_engine", None)

    tally = {"attempted": 0, "failed": 0, "known_defect": 0, "trace_replay_failed": 0, "decided": 0}
    failures_shown = 0
    cache_hits = cache_misses = 0

    def execute(op: int, source, traced: bool) -> float:
        nonlocal failures_shown, cache_hits, cache_misses
        if traced:
            tracer.op, tracer.enabled = -1, True  # generation spans carry op -1
        item = next(source)
        if traced:
            tracer.op = op
            before = engine.cache_info() if engine else None
        start = time.perf_counter()
        try:
            result, error = workload.run(item), None
        except Exception as exc:  # a raising op is a failed op, never a crashed run
            result, error = None, exc
        elapsed = time.perf_counter() - start
        if traced:
            tracer.enabled = False
            if engine:
                after = engine.cache_info()
                cache_hits += after.hits - before.hits
                cache_misses += after.misses - before.misses
        tally["attempted"] += 1
        if error is None:
            try:
                tally["decided"] += workload.check(item, result)
            except Exception as exc:
                error = exc
        if error is not None:
            tally["failed"] += 1
            if isinstance(error, workloads.KnownDefectFailure):
                tally["known_defect"] += 1
            if isinstance(error, workloads.TraceDoesNotReplay):
                tally["trace_replay_failed"] += 1
            if failures_shown < 3:
                failures_shown += 1
                print(f"{workload.name} op {op} failed: {type(error).__name__}: {error}", file=sys.stderr)
        return elapsed

    # warm-up ops are checked and tallied like the rest, but neither timed nor traced
    for op in range(WARMUP_OPS):
        execute(op, warmup_inputs, False)
    setup_s = time.perf_counter() - T0
    setup_probe_s = statistics.median(speed_probe() for _ in range(SETUP_PROBES))
    record = {"setup_s": setup_s * REFERENCE_PROBE_S / setup_probe_s,
              "raw": {"setup_s": setup_s}}
    if args.mode == "setup":
        print(json.dumps(record))
        return 0

    latencies, op_windows = [], []
    warmup_replay_failed = tally["trace_replay_failed"]
    probes = []
    started = time.perf_counter()
    next_probe = 0.0
    op = WARMUP_OPS
    while (elapsed := time.perf_counter() - started) < args.seconds:
        if elapsed >= next_probe:
            probes.append(speed_probe())
            next_probe = elapsed + PROBE_EVERY_S
        op_windows.append(len(probes) - 1)
        latencies.append(execute(op, inputs, tracer is not None))
        op += 1
    probes += [speed_probe() for _ in range(PROBE_WINDOW // 2)]
    # the machine's speed swings by up to 2x within seconds, so each op is
    # scaled by the probes nearest to it rather than by the run's median
    local = [statistics.median(probes[max(0, k - PROBE_WINDOW // 2 + 1):k + PROBE_WINDOW // 2 + 1])
             for k in range(len(probes))]
    scaled = [t * REFERENCE_PROBE_S / local[k] for t, k in zip(latencies, op_windows)]
    record.update(tally)
    record.update(
        measured=len(latencies),
        probe_s=statistics.median(probes),
        decided_ratio=tally["decided"] / tally["attempted"],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    for figures, times in ((record, scaled), (record["raw"], latencies)):
        figures["throughput_ops_s"] = throughput(times)
        times = sorted(times)
        for q in (50, 90, 99):
            figures[f"latency_p{q}_ms"] = percentile(times, q) * 1e3
    if tracer is not None:
        record["layers"] = tracer_layers(tracer, len(latencies), cache_hits, cache_misses,
                                         tally["trace_replay_failed"] - warmup_replay_failed)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{workload.name}-seed{args.seed}.csv.gz")
    print(json.dumps(record))
    return 0


def tracer_layers(tracer, ops: int, cache_hits: int, cache_misses: int, replay_failed: int) -> dict:
    """Per-layer figures of the traced run: counts and seconds per timed op
    (the run is time-bound, so totals would grow with speed), ratios, and the
    largest Smith transform entry."""
    by_generation = tracer.layer_totals()
    totals, generation = by_generation[False], by_generation[True]
    calls, inclusive, self_s = totals["calls"], totals["inclusive_s"], totals["self_s"]
    mvn_calls = calls["monoid.mvn_equivalent"]
    lookups = cache_hits + cache_misses
    per_op = {
        "intmatrix.snf_calls": calls["intmatrix.smith_normal_form"],
        "intmatrix.snf_self_s": totals["name_self_s"]["intmatrix.smith_normal_form"],
        "intmatrix.verify_s": inclusive["intmatrix.verify_snf"],
        "intmatrix.mul_s": inclusive["intmatrix.IntMatrix.mul"],
        "intmatrix.determinant_s": inclusive["intmatrix.determinant"],
        "ktheory.k_invariants_calls": calls["ktheory.k_invariants"],
        "ktheory.self_s": self_s["ktheory"],
        "ktheory.class_of_calls": calls["ktheory._K0Engine.class_of"],
        "ktheory.engine_misses": cache_misses,
        "monoid.mvn_calls": mvn_calls,
        "monoid.self_s": self_s["monoid"],
        "monoid.rewrites": calls["monoid.expand_at"] + calls["monoid.contract_at"],
        "monoid.trace_replay_failed": replay_failed,
        "moves.apply_calls": calls["moves.apply_move"],
        "moves.self_s": self_s["moves"],
        "moves.replay_s": inclusive["moves.replay_move_log"],
        "graph.build_calls": calls["graph.Graph.build"],
        "graph.build_s": inclusive["graph.Graph.build"],
        "graph.fingerprint_calls": calls["graph.graph_fingerprint"],
        "graph.fingerprint_s": inclusive["graph.graph_fingerprint"],
        "pipeline.calls": sum(n for name, n in calls.items() if name.startswith("pipeline.")),
        "pipeline.self_s": self_s["pipeline"],
        "pipeline.normalize_s": inclusive["pipeline.normalize_to_ck"],
        "pipeline.saturate_s": inclusive["pipeline.self_loop_saturate"],
        "pipeline.full_corner_s": inclusive["pipeline.realize_full_corner"],
        "randgen.generate_s": generation["entered_s"]["randgen"],
    }
    figures = {name: value / ops for name, value in per_op.items()}
    figures.update({
        "intmatrix.max_transform_bits": tracer.max_transform_bits,
        "ktheory.engine_hit_ratio": cache_hits / lookups if lookups else 0.0,
        "monoid.decided_ratio": (tracer.verdicts["yes"] + tracer.verdicts["no"]) / mvn_calls if mvn_calls else 0.0,
    })
    return figures


if __name__ == "__main__":
    sys.exit(main())
