#!/usr/bin/env python3
"""Benchmark regression gate.

Runs the campaign-week and event-queue benchmarks from bench_kernels,
compares each real_time against the committed BENCH_kernels.json snapshot
and fails when any benchmark regresses past the gate ratio or when a gated
snapshot row is missing from the run. The fresh JSON is written out so CI
can upload it as an artifact (and so a maintainer can refresh the snapshot
from a trusted box).

Usage:
  tools/bench_gate.py [--bench build/bench/bench_kernels]
                      [--baseline BENCH_kernels.json]
                      [--out bench_gate.json] [--gate 1.6]

The gate is deliberately loose (1.6x): shared CI runners are noisy and the
point is to catch order-of-magnitude regressions (an accidental O(n^2) in
the event queue, a debug assert left in the docking kernel), not 5% drift.
"""
import argparse
import json
import os
import re
import subprocess
import sys

# Gated benchmarks: the hot paths the roadmap cares about — the campaign
# week, the event queue, the sharded full-campaign rows (shards:1 vs
# shards:8 at quarter scale; the ratio between them is the parallel-engine
# acceptance metric), the batched docking rows (batch:0 vs batch:1;
# same-run ratio below is the batched-kernel acceptance metric), and the
# grid-service wire rows (BM_ServeThroughput is the req/s headline,
# BM_ServeIssueP99 is the latency SLO — its real_time IS the burst p99).
# Everything else in the snapshot is informational.
FILTER = ("^BM_CampaignWeek$|^BM_EventQueue/|^BM_CampaignSharded/"
          "|^BM_MaxDoPosition/|^BM_MinimizeBatch/"
          "|^BM_ServeThroughput/|^BM_ServeIssueP99/"
          "|^BM_CampaignAdaptivePolicy/")

# Same-run speedup floors: (scalar row, batched row, minimum ratio). The
# two rows come from the same process on the same box, so machine speed
# cancels and the check survives runner noise that the absolute gate
# cannot. Offline the 1200-atom MAXDo position runs at ~2.3x batched vs
# scalar (see EXPERIMENTS.md); 1.4 is the "batching still works at all"
# floor, not the performance claim.
SPEEDUPS = [
    ("BM_MaxDoPosition/atoms:1200/batch:0",
     "BM_MaxDoPosition/atoms:1200/batch:1", 1.4),
    ("BM_MinimizeBatch/batch:0/atoms:1200/lanes:10",
     "BM_MinimizeBatch/batch:1/atoms:1200/lanes:10", 1.3),
]

# Same-run overhead ceilings: (control row, instrumented row, max ratio).
# The instrumented row may cost at most `ceiling` times the control row.
# Used for the span/snapshotter observability path (spans:1 carries the
# per-RPC stage histograms, flight-recorder events, span echoes and a
# 0.25 s snapshotter, and must stay within 5% of spans:0) and for the
# adaptive validation policy (policy:1 runs the identical issue schedule as
# policy:0 — replication fully off in both — so the ratio is pure
# reputation-ledger bookkeeping, also capped at 5%).
OVERHEADS = [
    ("BM_ServeThroughput/spans:0/iterations:150",
     "BM_ServeThroughput/spans:1/iterations:150", 1.05),
    ("BM_CampaignAdaptivePolicy/policy:0/min_time:1.000/repeats:3",
     "BM_CampaignAdaptivePolicy/policy:1/min_time:1.000/repeats:3", 1.05),
]


# real_time is reported in each benchmark's own time_unit; normalise to
# nanoseconds so ratios and the printed milliseconds are unit-safe.
_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_rows(path):
    with open(path) as f:
        doc = json.load(f)
    rows = {}
    for b in doc.get("benchmarks", []):
        ns = b["real_time"] * _NS.get(b.get("time_unit", "ns"), 1.0)
        if b.get("run_type", "iteration") == "iteration":
            rows[b["name"]] = ns
        elif b.get("aggregate_name") == "min":
            # Repetition aggregates (ReportAggregatesOnly) land under the
            # repetition-free run_name: the gate reads the custom min
            # statistic — runner noise only ever adds time, so the per-arm
            # minimum is the drift-robust estimator for ratio checks.
            rows[b["run_name"]] = ns
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench", default="build/bench/bench_kernels",
                    help="bench_kernels binary (default: %(default)s)")
    ap.add_argument("--baseline", default="BENCH_kernels.json",
                    help="committed snapshot to gate against")
    ap.add_argument("--out", default="bench_gate.json",
                    help="where to write the fresh benchmark JSON")
    ap.add_argument("--gate", type=float, default=1.6,
                    help="fail when real_time exceeds baseline * GATE")
    args = ap.parse_args()

    if not os.path.exists(args.bench):
        sys.exit(f"bench_gate: benchmark binary not found: {args.bench}")

    cmd = [
        args.bench,
        f"--benchmark_filter={FILTER}",
        f"--benchmark_out={args.out}",
        "--benchmark_out_format=json",
        "--benchmark_format=console",
    ]
    print("bench_gate:", " ".join(cmd), flush=True)
    subprocess.run(cmd, check=True)

    baseline = load_rows(args.baseline)
    fresh = load_rows(args.out)
    if not fresh:
        sys.exit("bench_gate: no benchmarks matched the filter")

    # Each failure is a full sentence with the measured numbers, so a red CI
    # run shows the baseline and current values without re-opening the JSON.
    failures = []
    missing = []
    # A gated snapshot row the run did not produce was deleted or renamed:
    # fail by name instead of silently gating fewer rows.
    gated = re.compile(FILTER)
    for name in sorted(baseline):
        if gated.search(name) and name not in fresh:
            failures.append(f"{name}: gated baseline row missing from run")
            print(f"  FAIL   {name}: gated baseline row missing from run")
    for name in sorted(fresh):
        now = fresh[name]
        base = baseline.get(name)
        if base is None:
            # A new benchmark has no baseline yet; report it but let the
            # run pass so adding benchmarks doesn't require a lockstep
            # snapshot refresh.
            missing.append(name)
            print(f"  NEW    {name}: {now/1e6:.3f} ms (no baseline)")
            continue
        ratio = now / base if base > 0 else float("inf")
        verdict = "FAIL" if ratio > args.gate else "ok"
        print(f"  {verdict:<6} {name}: {now/1e6:.3f} ms vs "
              f"{base/1e6:.3f} ms baseline (x{ratio:.2f})")
        if ratio > args.gate:
            failures.append(f"{name}: baseline {base/1e6:.3f} ms, "
                            f"current {now/1e6:.3f} ms "
                            f"(x{ratio:.2f} > gate x{args.gate})")

    if missing:
        print(f"bench_gate: {len(missing)} benchmark(s) missing from "
              f"{args.baseline}; refresh the snapshot when convenient")

    for scalar_name, batch_name, floor in SPEEDUPS:
        scalar_t = fresh.get(scalar_name)
        batch_t = fresh.get(batch_name)
        if scalar_t is None or batch_t is None or batch_t <= 0:
            failures.append(f"{batch_name}: speedup row missing from run")
            print(f"  FAIL   speedup {batch_name}: row missing from run")
            continue
        ratio = scalar_t / batch_t
        verdict = "FAIL" if ratio < floor else "ok"
        print(f"  {verdict:<6} speedup {batch_name}: x{ratio:.2f} vs "
              f"scalar (floor x{floor})")
        if ratio < floor:
            failures.append(f"{batch_name}: scalar {scalar_t/1e6:.3f} ms, "
                            f"batched {batch_t/1e6:.3f} ms "
                            f"(speedup x{ratio:.2f} < floor x{floor})")

    for control_name, instr_name, ceiling in OVERHEADS:
        control_t = fresh.get(control_name)
        instr_t = fresh.get(instr_name)
        if control_t is None or instr_t is None or control_t <= 0:
            failures.append(f"{instr_name}: overhead row missing from run")
            print(f"  FAIL   overhead {instr_name}: row missing from run")
            continue
        ratio = instr_t / control_t
        verdict = "FAIL" if ratio > ceiling else "ok"
        print(f"  {verdict:<6} overhead {instr_name}: x{ratio:.2f} vs "
              f"{control_name} (ceiling x{ceiling})")
        if ratio > ceiling:
            failures.append(f"{instr_name}: control {control_t/1e6:.3f} ms, "
                            f"instrumented {instr_t/1e6:.3f} ms "
                            f"(overhead x{ratio:.2f} > ceiling x{ceiling})")

    if failures:
        print(f"bench_gate: {len(failures)} check(s) failed:")
        for detail in failures:
            print(f"  {detail}")
        sys.exit(f"bench_gate: {len(failures)} benchmark check(s) failed "
                 f"(details above)")
    print(f"bench_gate: {len(fresh)} benchmark(s) within x{args.gate} gate")


if __name__ == "__main__":
    main()
