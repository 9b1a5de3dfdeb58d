#!/usr/bin/env python3
"""Steadiness evidence for the benchmark: two interleaved sets of ten runs of
every workload, and traced runs between them.

    python3 perfbench/steadiness.py

Run i of both sets uses seed i (1..10) and BENCHMARK.json's run_seconds; the
two sets alternate which goes first. For seeds 1..3 a traced run sits
between the two, so that it and their mean see the same host. For each
end-to-end metric of each workload it prints:

- each set's median and quartiles over its ten seeds and their spread (the
  interquartile distance over the median, as statistics.quantiles(n=4)
  gives them). This is the figure the benchmark's acceptance takes; it mixes
  differences between the inputs of different seeds with run-to-run noise;
- the ten per-seed ratios B/A, their median and spread: run-to-run noise on
  the same inputs alone;
- how far the two sets' medians disagree, |median B / median A - 1|.

A metric is steady when both sets' spreads are below a third of its bound
(setup_s is exempt) and the medians agree within the bound. The script
names every metric that is not, and says whether it is still within its
bound. The traced runs give the tracing overhead (the median over their
seeds of the traced value over the mean of the two untraced runs of the
same seed, minus one), campaign-full's span coverage of work_s and the
share of work_s spent in end-game weeks.

Every run's raw result goes to .bench_build/steadiness.jsonl. Exits 1 when
a run fails a check or a metric is not steady.
"""

import json
import os
import signal
import statistics
import subprocess
import sys

import derive

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)
TRACED_SEEDS = range(1, 4)


def run(workload, seed, seconds, trace):
    """One run.py invocation: (result, printed lines by leading word)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        sys.exit(f"steadiness: {' '.join(cmd[1:])} exited {proc.returncode}")
    info = {}
    for line in lines[:-1]:
        words = line.split()
        if words[0] in ("metric", "untraced-equivalent"):
            info.setdefault(words[0], {})[words[1]] = float(words[2])
        else:
            info[words[0]] = words[1:]
    return json.loads(lines[-1]), info


def spread(values):
    """(q1, median, q3, (q3 - q1) / median)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main():
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # running child before the exception propagates.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]

    log_path = os.path.join(ROOT, ".bench_build", "steadiness.jsonl")
    os.makedirs(os.path.dirname(log_path), exist_ok=True)
    results = {w: {"A": [], "B": [], "traced": []} for w in derive.WORKLOADS}
    checks_ok = True
    unresolved = []
    with open(log_path, "w") as log:
        for i, seed in enumerate(SEEDS):
            for w in derive.WORKLOADS:
                order = ["A", "B"] if i % 2 == 0 else ["B", "A"]
                if seed in TRACED_SEEDS:
                    order.insert(1, "traced")
                for name in order:
                    result, info = run(w, seed, seconds,
                                       1 if name == "traced" else 0)
                    results[w][name].append((result, info))
                    log.write(json.dumps({"set": name, "workload": w,
                                          "seed": seed, "result": result,
                                          "info": info}) + "\n")
                    log.flush()
                    if not result["correct"] or result["failed"]:
                        print(f"{w} seed {seed} set {name}: output check "
                              f"failed ({result['failed']} of "
                              f"{result['attempted']})")
                        checks_ok = False
            print(f"seed {seed} done", flush=True)

        print(f"\n{len(SEEDS)} runs per set, {seconds} s each, seeds "
              f"{SEEDS[0]}..{SEEDS[-1]}")
        for w in derive.WORKLOADS:
            print(f"\n== {w}")
            sets = results[w]
            for name in ("A", "B"):
                probes = [info["metric"]["host.probe_ms"]
                          for _, info in sets[name]]
                reps = [int(info["repetitions"][0]) for _, info in sets[name]]
                print(f"  set {name}: host.probe_ms median "
                      f"{statistics.median(probes):.1f} "
                      f"[{min(probes):.1f}, {max(probes):.1f}], "
                      f"repetitions per run {min(reps)}..{max(reps)}")
            digests = [[info.get("digest") for _, info in sets[name]]
                       for name in ("A", "B")]
            if digests[0] != digests[1]:
                print("  digests differ between the sets for the same seeds")
                checks_ok = False
            for metric in bench["end_to_end"]:
                m, bound = metric["name"], metric["bound"]
                a, b = ([r["metrics"][m]["value"] for r, _ in sets[name]]
                        for name in ("A", "B"))
                (a1, a2, a3, sa), (b1, b2, b3, sb) = spread(a), spread(b)
                _, ratio, _, sr = spread([y / x for x, y in zip(a, b)])
                differ = abs(b2 / a2 - 1)
                target = bound / 3
                if differ > bound or (m != "setup_s" and max(sa, sb) > bound):
                    verdict = "OVER BOUND"
                elif m != "setup_s" and max(sa, sb) >= target:
                    verdict = f"spread >= bound/3 = {target:.3f}"
                else:
                    verdict = "steady"
                if verdict != "steady":
                    unresolved.append(f"{w}/{m}: {verdict}")
                print(f"  {m:12s} A {a2:.6g} [{a1:.6g}, {a3:.6g}] spread "
                      f"{sa:.3f} | B {b2:.6g} [{b1:.6g}, {b3:.6g}] spread "
                      f"{sb:.3f} | B/A per seed median {ratio:.3f} spread "
                      f"{sr:.3f} | medians differ {differ:.3f} | bound "
                      f"{bound} | {verdict}")

        print(f"\n== traced runs (seeds {TRACED_SEEDS[0]}..{TRACED_SEEDS[-1]})")
        for w in derive.WORKLOADS:
            sets = results[w]
            over = []
            for m in derive.END_TO_END:
                ratios = [
                    info["untraced-equivalent"][m] /
                    statistics.mean(r["metrics"][m]["value"]
                                    for r, _ in (sets["A"][i], sets["B"][i]))
                    for i, (_, info) in enumerate(sets["traced"])]
                over.append(f"{m} {statistics.median(ratios) - 1:+.3f}")
            print(f"  {w}: tracing overhead {', '.join(over)}; span files "
                  f"{' '.join(info['spans'][0] for _, info in sets['traced'])}")
            if w == "campaign-full":
                cover = [float(info["coverage"][-1])
                         for _, info in sets["traced"]]
                tail = [r["metrics"]["core.tail_weeks_s"]["value"] /
                        info["untraced-equivalent"]["work_s"]
                        for r, info in sets["traced"]]
                print(f"  campaign-full: week+reduce spans cover "
                      f"{', '.join(f'{c:.4f}' for c in cover)} of work_s; "
                      f"core.tail_weeks_s is "
                      f"{', '.join(f'{t:.3f}' for t in tail)} of work_s")
    print(f"\nraw results: {log_path}")
    if not checks_ok:
        print("an output check failed")
    for u in unresolved:
        print(f"unresolved {u}")
    print("steady" if checks_ok and not unresolved else "NOT STEADY")
    sys.exit(0 if checks_ok and not unresolved else 1)


if __name__ == "__main__":
    main()
