"""TPC-BiH engine benchmark: one command, three workloads, checked outputs.

    python3 tpcbih_bench/run.py --workload key_audit --seed 1 --seconds 10 --trace 0

Run from the repository root.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` also sets up once more, runs a traced pass and
prints the per-layer metrics plus the tracing overhead.  Times are scaled
to a fixed machine speed by ``speed.Speedometer``.  Every metric line names its
unit and sample count; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  WORKLOADS.md
explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("key_audit", "history_scan", "ingest")


def _engine_importable() -> bool:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return False
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    return True


def percentile(values, pct: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    rank = (pct / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def _metric(metrics, samples, name, value, unit, count):
    metrics[name] = {"value": value, "unit": unit}
    samples[name] = count


def _storage_mb(systems) -> float:
    import layers

    return sum(
        row["est_bytes"] or 0
        for system in systems.values()
        for row in layers.view(system.db, "repro_stat_tables")
    ) / 1e6


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def prepare_pass(name, setup_, seed, stream):
    """Build one pass's request stream and warm the plan caches; returns
    ``run(seconds, tracer=None)``, the timed phase alone.  Each pass of a
    run draws its read parameters from its own *stream*."""
    import requestgen
    import workloads

    if name == "ingest":
        return functools.partial(workloads.run_ingest, setup_, seed, stream)
    sampler = requestgen.Sampler(setup_.workload, seed, stream)
    if name == "key_audit":
        catalogue = requestgen.templates(requestgen.KEY_AUDIT_QIDS)
        make_round = requestgen.key_audit_round
    else:
        catalogue = requestgen.history_scan_templates()
        make_round = requestgen.history_scan_round

    def next_round():
        return make_round(sampler, catalogue)

    workloads.warm_plan_cache(setup_.systems, next_round())
    return functools.partial(workloads.run_rounds, setup_.systems, next_round)


def check_pass(name, setup_, result, seed, scale):
    """Output checks of one pass: (attempted, failed)."""
    import workloads

    attempted = len(result.ops)
    failed = workloads.check_reads(result, workloads.oracle_store(setup_.workload))
    if name == "key_audit":
        checks, mismatches = workloads.literal_self_check(result, setup_.systems, seed)
        attempted, failed = attempted + checks, failed + mismatches
    if name == "ingest":
        checks, mismatches = workloads.check_ingest_counts(setup_, result, scale, seed)
        attempted, failed = attempted + checks, failed + mismatches
    return attempted, failed


def end_to_end(name, setups, passes, storage, meter):
    """The user-visible metrics, pooled over the untraced passes, with every
    time scaled to the reference speed by *meter*."""
    metrics, samples = {}, {}
    ops = [op for result in passes for op in result.ops]
    op_ms = [(op.kind, meter.work(op.started, op.ended) * 1000.0) for op in ops]
    reads = [ms for kind, ms in op_ms if kind == "read"]
    if name == "ingest":
        writes = [ms for kind, ms in op_ms if kind == "write"]
    else:
        # read-only workloads: the set-ups' history replay is the write path
        writes = [
            meter.work(start, end) * 1000.0 for s in setups for start, end in s.replay
        ]
    busy_s = sum(ms for _kind, ms in op_ms) / 1000.0
    _metric(metrics, samples, "throughput_ops_s", len(ops) / busy_s, "1/s", len(ops))
    _metric(metrics, samples, "read_p50_ms", percentile(reads, 50), "ms", len(reads))
    _metric(metrics, samples, "read_p90_ms", percentile(reads, 90), "ms", len(reads))
    _metric(metrics, samples, "write_p50_ms", percentile(writes, 50), "ms", len(writes))
    _metric(metrics, samples, "write_mean_ms", statistics.fmean(writes), "ms", len(writes))
    _metric(metrics, samples, "setup_s",
            statistics.median(s.total_s(meter) for s in setups), "s", len(setups))
    _metric(metrics, samples, "peak_rss_mb", _peak_rss_mb(), "MiB", 1)
    _metric(metrics, samples, "storage_mb", statistics.median(storage), "MB", len(storage))
    # printed, not bounded.  A history_scan run has about 320 reads, too
    # few for a steady p99.  ANALYZE runs are 1-2% of ingest writes, so the
    # write p99 sits on the edge between small- and large-table ANALYZE runs.
    info = {
        "read_p99_ms": (percentile(reads, 99), "ms", len(reads)),
        "write_p99_ms": (percentile(writes, 99), "ms", len(writes)),
        "probe_us": (meter.probe_s() * 1e6, "us", len(meter.durations)),
    }
    return metrics, samples, info


def main(argv=None, scale=None, out=None) -> int:
    out = out or sys.stdout
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _engine_importable():
        print("error: run from a repository checkout (src/repro not found)", file=sys.stderr)
        return 2

    import layers
    import speed
    import workloads

    scale = scale or workloads.FULL_SCALE
    ingest = args.workload == "ingest"
    # A read-only workload runs a pass after each set-up, for an equal share
    # of the time, each with its own parameters.  Every ingest pass would
    # replay the same transactions, so ingest runs one pass of the whole
    # time after the first set-up: twice as much of the history.
    pass_count = 1 if ingest else workloads.SETUP_REPEATS
    share = args.seconds / pass_count
    setups, passes, storage = [], [], []
    attempted = failed = 0
    with speed.Speedometer() as meter:
        for stream in range(workloads.SETUP_REPEATS):
            with workloads.settled_heap():
                setup_ = workloads.setup(args.seed, scale, ingest)
            if stream < pass_count:
                run_pass = prepare_pass(args.workload, setup_, args.seed, stream)
                with workloads.settled_heap():
                    result = run_pass(share)
                more, wrong = check_pass(args.workload, setup_, result, args.seed, scale)
                attempted, failed = attempted + more, failed + wrong
                storage.append(_storage_mb(setup_.systems))
                passes.append(result)
            setup_.systems = None
            setups.append(setup_)
        if args.trace:
            with workloads.settled_heap():
                traced_setup = workloads.setup(args.seed, scale, ingest)
            run_traced = prepare_pass(args.workload, traced_setup, args.seed, 0)
            before = layers.counters(traced_setup.systems)
            tracer = layers.Tracer()
            with workloads.settled_heap(), tracer:
                traced = run_traced(share, tracer)
            after = layers.counters(traced_setup.systems)
            more, wrong = check_pass(args.workload, traced_setup, traced, args.seed, scale)
            attempted, failed = attempted + more, failed + wrong
    if args.trace:
        metrics, samples = layers.per_layer(
            tracer, traced, before, after, setups + [traced_setup], passes, meter
        )
        spans_path = ROOT / ".bench_out" / f"spans-{args.workload}-{args.seed}.jsonl"
        os.makedirs(spans_path.parent, exist_ok=True)
        tracer.write(spans_path)
        print(f"# spans written to {spans_path.relative_to(ROOT)}", file=out)
        info = {}
    else:
        metrics, samples, info = end_to_end(args.workload, setups, passes, storage, meter)
    info["failed_frac"] = (failed / attempted, "1", attempted)

    print(f"# workload {args.workload} seed {args.seed} passes {len(passes)} "
          f"requests {sum(len(p.requests) for p in passes)} "
          f"rounds {sum(p.rounds for p in passes)} "
          f"transactions {sum(p.transactions for p in passes)}", file=out)
    for name, entry in metrics.items():
        print(f"{name:40s} {entry['value']:16.6f} {entry['unit']:6s} "
              f"n={samples[name]}", file=out)
    for name, (value, unit, count) in info.items():
        print(f"{name:40s} {value:16.6f} {unit:6s} n={count} (not bounded)", file=out)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }), file=out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
