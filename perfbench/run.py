#!/usr/bin/env python3
"""hcmd-grid benchmark: builds the harness from this checkout's sources,
repeats one workload for --seconds, checks every output and prints the
metrics.

    python3 perfbench/run.py --workload campaign-full --seed 1 \
        --seconds 36 --trace 0

Each repetition is a fresh process running perfbench_harness once; the
reported value of a metric is its median over the repetitions. Every
repetition of one seed docks, simulates or serves the same inputs, so their
report or checkpoint digests must agree exactly. Output: one
"metric <name> <value> <unit>" line per metric, a "host.probe_ms" line (a
diagnostic: the median time of a fixed arithmetic loop run before each
repetition), and as the last line the JSON result
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the per-layer ones, and the spans
of every repetition go to .bench_build/spans/<workload>-<seed>.jsonl.

Exits 1 without a result when the build or a repetition fails to run.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

import derive

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")

# A repetition never takes longer than this (campaign-full takes ~6 s).
REP_TIMEOUT_S = 150


def build():
    """Configures (once) and builds the harness; exits 1 on failure."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = [["cmake", "--build", BUILD_DIR, "--target", "perfbench_harness",
              "-j", str(min(4, os.cpu_count() or 1))]]
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.exit(f"perfbench: build failed ({log_path})")


def run_once(workload, seed, trace):
    """One repetition: the harness's JSON document, or None on a crash."""
    cmd = [HARNESS, workload, str(seed), "1" if trace else "0"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: {workload} repetition timed out\n")
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # running child before the exception propagates.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=derive.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    build()

    samples = []
    attempted = failed = 0
    problems = []
    begin = time.monotonic()
    rep_s = 0.0
    # Start another repetition while it is expected to end inside the
    # measuring time; always run at least one.
    while not samples or time.monotonic() - begin + rep_s <= args.seconds:
        t0 = time.monotonic()
        sample = run_once(args.workload, args.seed, args.trace == 1)
        if sample is None:
            sys.exit(f"perfbench: {args.workload} repetition failed to run")
        rep_s = max(rep_s, time.monotonic() - t0)
        a, f, p = derive.check_sample(sample)
        attempted += a
        failed += f
        problems += p
        samples.append(sample)

    digests = {s["digest"] for s in samples if "digest" in s}
    if len(digests) > 1:
        problems.append(f"repetitions of one seed disagree: {sorted(digests)}")
        failed = attempted
    for p in problems:
        sys.stderr.write(f"perfbench: check failed: {p}\n")

    values = derive.run_values(samples, trace=False)
    units = {n: u for n, (u, _) in derive.END_TO_END.items()}
    if args.trace:
        for n, v in values.items():
            print(f"untraced-equivalent {n} {v!r} {units[n]}")
        values = derive.run_values(samples, trace=True)
        units = {n: u for n, (u, _, _) in derive.PER_LAYER.items()}
        spans_path = os.path.join(BUILD_DIR, "spans",
                                  f"{args.workload}-{args.seed}.jsonl")
        os.makedirs(os.path.dirname(spans_path), exist_ok=True)
        with open(spans_path, "w") as f:
            for rep, s in enumerate(samples):
                run_id = f"{args.workload}/{args.seed}/{rep}"
                for line in derive.span_lines(run_id, derive.build_spans(s)):
                    f.write(line + "\n")
        print(f"spans {spans_path}")
        if args.workload == "campaign-full":
            cover = derive.median([derive.week_coverage(s) for s in samples])
            print(f"coverage week+reduce spans / work_s {cover!r}")

    if "digest" in samples[0]:
        print(f"digest {samples[0]['digest']}")
    if args.workload == "serve-wire":
        print(f"rps {derive.median([derive.rps(s) for s in samples])!r} 1/s")
    print(f"repetitions {len(samples)}")
    print(derive.metric_line(
        "host.probe_ms", derive.median([s["probe_ms"] for s in samples]), "ms"))
    for n in units:
        print(derive.metric_line(n, values[n], units[n]))
    print(derive.result_line(not problems and failed == 0, attempted, failed,
                             values, units))


if __name__ == "__main__":
    main()
