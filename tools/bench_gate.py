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

The same-run laws (LAWS) run in a second invocation of their own, written
next to --out as <out>_laws.json; their rows are never compared against
the snapshot.
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


# Same-run laws: (law, numerator row, denominator row, field, low, high).
# The ratio numerator/denominator of `field` must lie in [low, high] (None:
# unbounded). Both rows come from one run of one process, so machine speed
# cancels, as in SPEEDUPS. They state how cost scales, which no absolute
# row can: the end-game rescan was the largest cost ever measured here and
# predated every snapshot.
#  - per-event cost flat across fleet scale: DES events retired per wall
#    second at the quarter-scale fleet hold at least 0.35x the rate at the
#    1 % fleet (a full-catalogue rescan per end-game rebuild read
#    0.13–0.21; ROADMAP's target is 0.7);
#  - end-game RPC cost flat across catalogue size: a request that rebuilds
#    the end-game queue costs the same within 2x on a 1M catalogue as on a
#    100k one (the rescan made it grow with the catalogue);
#  - loadgen req/s flat across device count: the client farm on one
#    connection serves at least 0.8x the 1k-device req/s at 32k devices,
#    median of three 1 s windows per arm (a farm that walked every device
#    per reply read 0.07; single windows of the current farm read as low
#    as 0.75).
LAW_FILTER = ("^BM_CampaignScaleSweep/permille:(10|250)/|^BM_SchedulerRpcEndgame/"
              "|^BM_LoadgenDevices/")
LAWS = [
    ("per-event cost flat across fleet scale",
     "BM_CampaignScaleSweep/permille:250/iterations:1",
     "BM_CampaignScaleSweep/permille:10/iterations:1",
     "events_per_sec", 0.35, None),
    ("end-game RPC cost flat across catalogue size",
     "BM_SchedulerRpcEndgame/workunits:1000000/iterations:2048/repeats:5",
     "BM_SchedulerRpcEndgame/workunits:100000/iterations:2048/repeats:5",
     "real_time", 0.5, 2.0),
    ("loadgen req/s flat across device count",
     "BM_LoadgenDevices/devices:32768/iterations:1/repeats:3/manual_time_median",
     "BM_LoadgenDevices/devices:1024/iterations:1/repeats:3/manual_time_median",
     "items_per_second", 0.8, None),
]


# real_time is reported in each benchmark's own time_unit; normalise to
# nanoseconds so ratios and the printed milliseconds are unit-safe.
_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_rows(path, field="real_time", aggregates=False):
    with open(path) as f:
        doc = json.load(f)
    rows = {}
    for b in doc.get("benchmarks", []):
        if field not in b:
            continue
        value = b[field]
        if field == "real_time":
            value *= _NS.get(b.get("time_unit", "ns"), 1.0)
        if b.get("run_type", "iteration") == "iteration":
            rows[b["name"]] = value
            continue
        if b.get("aggregate_name") == "min":
            # Repetition aggregates (ReportAggregatesOnly) land under the
            # repetition-free run_name: the gate reads the custom min
            # statistic — runner noise only ever adds time, so the per-arm
            # minimum is the drift-robust estimator for ratio checks.
            rows[b["run_name"]] = value
        if aggregates:
            # Every aggregate under its own name (<run_name>_median, ...),
            # for laws that read a statistic other than the min.
            rows[b["name"]] = value
    return rows


def run_bench(bench, bench_filter, out):
    cmd = [
        bench,
        f"--benchmark_filter={bench_filter}",
        f"--benchmark_out={out}",
        "--benchmark_out_format=json",
        "--benchmark_format=console",
    ]
    print("bench_gate:", " ".join(cmd), flush=True)
    subprocess.run(cmd, check=True)


def check_laws(path):
    """Returns one failure sentence per broken or unmeasured law."""
    failures = []
    for law, num_name, den_name, field, low, high in LAWS:
        rows = load_rows(path, field, aggregates=True)
        num, den = rows.get(num_name), rows.get(den_name)
        if num is None or den is None or den <= 0:
            failures.append(f"law '{law}': {field} of {num_name} or "
                            f"{den_name} missing from run")
            print(f"  FAIL   law '{law}': row missing from run")
            continue
        ratio = num / den
        broken = ((low is not None and ratio < low) or
                  (high is not None and ratio > high))
        bounds = (f"[{low if low is not None else '-inf'}, "
                  f"{high if high is not None else 'inf'}]")
        print(f"  {'FAIL' if broken else 'ok':<6} law '{law}': {field} "
              f"x{ratio:.2f} ({num:.4g} / {den:.4g}), bounds {bounds}")
        if broken:
            failures.append(f"law '{law}': {field} {num_name} = {num:.4g}, "
                            f"{den_name} = {den:.4g} (x{ratio:.2f} outside "
                            f"{bounds})")
    return failures


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

    run_bench(args.bench, FILTER, args.out)
    root, ext = os.path.splitext(args.out)
    laws_out = f"{root}_laws{ext}"
    run_bench(args.bench, LAW_FILTER, laws_out)

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

    failures += check_laws(laws_out)

    if failures:
        print(f"bench_gate: {len(failures)} check(s) failed:")
        for detail in failures:
            print(f"  {detail}")
        sys.exit(f"bench_gate: {len(failures)} benchmark check(s) failed "
                 f"(details above)")
    print(f"bench_gate: {len(fresh)} benchmark(s) within x{args.gate} gate")


if __name__ == "__main__":
    main()
