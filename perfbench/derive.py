"""Metric derivation for the perfbench harness.

perfbench/harness.cpp prints one JSON document of raw measurements per
repetition (a "sample"): wall-clock boundaries of the calls it made into the
library, exact counts, and in traced runs the finer boundaries (weekly
marks, /proc thread counters). Everything here is a pure function of those
documents, so it is unit-tested without building the program
(perfbench/test_derive.py).
"""

import json
import math

WORKLOADS = ("campaign-full", "serve-wire", "dock-workunit")

# End-to-end metrics: name -> (unit, better). Every workload reports each.
END_TO_END = {
    "work_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Per-layer metrics: name -> (unit, better, workload that loads the layer).
# A workload that bypasses a layer reports 0 for it.
PER_LAYER = {
    "core.tail_weeks_s": ("s", "lower", "campaign-full"),
    "core.bulk_weeks_s": ("s", "lower", "campaign-full"),
    "core.week_max_ms": ("ms", "lower", "campaign-full"),
    "core.reduce_ms": ("ms", "lower", "campaign-full"),
    "core.ns_per_event": ("ns", "lower", "campaign-full"),
    "sim.events": ("count", "lower", "campaign-full"),
    "core.barriers": ("count", "lower", "campaign-full"),
    "server.work_requests": ("count", "lower", "campaign-full"),
    "server.results_received": ("count", "lower", "campaign-full"),
    "server.denied_ratio": ("ratio", "lower", "campaign-full"),
    "core.setup.workload_ms": ("ms", "lower", "campaign-full"),
    "packaging.setup_ms": ("ms", "lower", "campaign-full"),
    "core.setup.grid_ms": ("ms", "lower", "campaign-full"),
    "server.service_busy": ("fraction", "lower", "serve-wire"),
    "server.net_busy": ("fraction", "lower", "serve-wire"),
    "client.farm_busy": ("fraction", "lower", "serve-wire"),
    "server.queue_wait_p50_us": ("us", "lower", "serve-wire"),
    "server.service_p50_us": ("us", "lower", "serve-wire"),
    "server.span_total_p99_us": ("us", "lower", "serve-wire"),
    "client.issue_rtt_p50_ms": ("ms", "lower", "serve-wire"),
    "client.issue_rtt_p99_ms": ("ms", "lower", "serve-wire"),
    "client.net_residual_p50_us": ("us", "lower", "serve-wire"),
    "client.replies": ("count", "higher", "serve-wire"),
    "client.errors": ("count", "lower", "serve-wire"),
    "server.protocol_errors": ("count", "lower", "serve-wire"),
    "server.setup.catalog_ms": ("ms", "lower", "serve-wire"),
    "server.setup.start_ms": ("ms", "lower", "serve-wire"),
    "docking.position_ms_p50": ("ms", "lower", "dock-workunit"),
    "docking.position_ms_max": ("ms", "lower", "dock-workunit"),
    "docking.evaluations": ("count", "lower", "dock-workunit"),
    "docking.inspected_pairs": ("count", "lower", "dock-workunit"),
    "docking.within_cutoff_pairs": ("count", "lower", "dock-workunit"),
    "docking.within_ratio": ("ratio", "higher", "dock-workunit"),
    "docking.ns_per_inspected_pair": ("ns", "lower", "dock-workunit"),
    "docking.setup_ms": ("ms", "lower", "dock-workunit"),
}

# A campaign week is end-game ("tail") when it starts with at least this
# share of the catalogue completed.
TAIL_FRACTION = 0.9

# serve-wire's work_s: wall seconds the server takes per this many completed
# RPCs (RPC_QUANTUM / rps), so every workload reports a time to do a fixed
# amount of work.
RPC_QUANTUM = 100_000

# A campaign's simulated hour is one epoch barrier.
HOURS_PER_WEEK = 168


# --- statistics --------------------------------------------------------------

def percentile(samples, q):
    """The q-th percentile (0..100) of exact samples, interpolating linearly
    between the closest ranks."""
    if not samples:
        raise ValueError("percentile of no samples")
    xs = sorted(samples)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(samples):
    return percentile(samples, 50)


# --- spans -------------------------------------------------------------------

def week_spans(setup_end, weeks):
    """Week intervals from the weekly progress marks.

    `weeks` is the on_week sequence: dicts with the callback's wall time `t`,
    the WeeklyProgress fields and, in traced runs, the des_week zone total
    `des_ms`. Week i runs from the previous mark (the
    end of set-up for the first) to its own mark; its completed fraction is
    the one at its start.
    """
    spans = []
    prev_t, prev = setup_end, None
    for i, m in enumerate(weeks):
        total = m["workunits_total"]
        done_before = prev["workunits_completed"] if prev else 0
        results_before = prev["results_received"] if prev else 0
        spans.append({
            "start_s": prev_t,
            "end_s": m["t"],
            "attrs": {
                "week": i + 1,
                "completed_frac_start": done_before / total if total else 0.0,
                "results_delta": m["results_received"] - results_before,
                "completed_delta": m["workunits_completed"] - done_before,
                "pending_events": m["pending_events"],
            },
        })
        if "des_ms" in m:
            # The program's campaign.des_week zone inside this week.
            spans[-1]["attrs"]["des_ms"] = m["des_ms"] - (
                prev["des_ms"] if prev else 0.0)
        prev_t, prev = m["t"], m
    return spans


def split_weeks(spans):
    """(bulk seconds, tail seconds, slowest week seconds) of week spans."""
    bulk = tail = slowest = 0.0
    for s in spans:
        d = s["end_s"] - s["start_s"]
        if s["attrs"]["completed_frac_start"] >= TAIL_FRACTION:
            tail += d
        else:
            bulk += d
        slowest = max(slowest, d)
    return bulk, tail, slowest


def build_spans(sample):
    """The span tree of one sample: (name, start_s, end_s, parent, attrs)
    dicts, parents as indices into the list."""
    b = sample["bounds"]
    spans = []

    def add(name, start, end, parent=-1, attrs=None):
        spans.append({"name": name, "start_s": start, "end_s": end,
                      "parent": parent, "attrs": attrs or {}})
        return len(spans) - 1

    workload = sample["workload"]
    if workload == "campaign-full":
        run = add("campaign.run", b["begin"], b["end"])
        add("campaign.setup", b["begin"], b["setup_end"], run)
        for w in week_spans(b["setup_end"], sample["weeks"]):
            add("campaign.week", w["start_s"], w["end_s"], run, w["attrs"])
        # campaign.reduce is the program's own zone, which ends as
        # run_campaign returns.
        reduce_s = sample["zones_ms"].get("campaign.reduce", 0.0) / 1e3
        add("campaign.reduce", b["end"] - reduce_s, b["end"], run)
    elif workload == "serve-wire":
        setup = add("serve.setup", b["begin"], b["start_end"])
        add("serve.setup.catalog", b["begin"], b["catalog_end"], setup)
        add("serve.setup.start", b["catalog_end"], b["start_end"], setup)
        add("serve.load", b["load_begin"], b["load_end"], -1,
            {"replies": sample["counts"]["replies"]})
        add("serve.stop", b["load_end"], b["stop_end"])
    elif workload == "dock-workunit":
        add("dock.setup", b["begin"], b["setup_end"])
        run = add("dock.run", b["run_begin"], b["run_end"])
        # Each couple's workunit is one starting position, so the run of
        # one couple is one position.
        edges = sample["couple_edges"]
        for i in range(len(edges) - 1):
            add("dock.position", edges[i], edges[i + 1], run,
                {"couple": i, "isep": 0})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return spans


def span_lines(run_id, spans):
    """The span file's lines for one run: one JSON object per span."""
    return [json.dumps({"run": run_id, "id": i, **s}, sort_keys=True)
            for i, s in enumerate(spans)]


# --- /proc thread counters ---------------------------------------------------

def cpu_ticks(stat_line):
    """utime + stime (clock ticks) of a /proc/.../stat line. The command
    name may hold spaces and parentheses, so fields count from the last
    ')'."""
    fields = stat_line[stat_line.rindex(")") + 2:].split()
    # fields[0] is field 3 (state); utime and stime are fields 14 and 15.
    return int(fields[11]) + int(fields[12])


def busy_fractions(proc, window_s):
    """CPU share of the load window per thread group.

    Labelled live threads are read directly. Threads that exited inside
    the window (the load generator's farm) appear only in the process
    total, so the "farm" group is the process delta minus every labelled
    thread's delta.
    """
    hz = proc["clk_tck"]
    start = {t["tid"]: t for t in proc["start"]["tasks"]}
    groups = {}
    labelled = 0
    for t in proc["end"]["tasks"]:
        d = cpu_ticks(t["stat"]) - cpu_ticks(start[t["tid"]]["stat"])
        groups[t["group"]] = groups.get(t["group"], 0) + d
        labelled += d
    total = cpu_ticks(proc["end"]["self"]) - cpu_ticks(proc["start"]["self"])
    groups["farm"] = max(0, total - labelled)
    return {g: ticks / hz / window_s for g, ticks in groups.items()}


# --- per-sample metrics --------------------------------------------------------

def rps(sample):
    return sample["counts"]["replies"] / sample["load_wall_s"]


def end_to_end(sample):
    b = sample["bounds"]
    workload = sample["workload"]
    if workload == "campaign-full":
        work, setup = b["end"] - b["setup_end"], b["setup_end"] - b["begin"]
    elif workload == "serve-wire":
        work, setup = RPC_QUANTUM / rps(sample), b["start_end"] - b["begin"]
    else:
        work, setup = b["run_end"] - b["run_begin"], b["setup_end"] - b["begin"]
    return {"work_s": work, "setup_s": setup,
            "peak_rss_mb": sample["peak_rss_mb"]}


def per_layer(sample):
    """Per-layer metrics of one traced sample (layers it bypasses: 0).
    dock-workunit's position percentiles need every position of a run and
    are filled in by run_values."""
    out = {name: 0.0 for name in PER_LAYER}
    c = sample["counts"]
    b = sample["bounds"]
    workload = sample["workload"]
    if workload == "campaign-full":
        spans = build_spans(sample)
        weeks = [s for s in spans if s["name"] == "campaign.week"]
        bulk, tail, slowest = split_weeks(weeks)
        z = sample["zones_ms"]
        out.update({
            "core.tail_weeks_s": tail,
            "core.bulk_weeks_s": bulk,
            "core.week_max_ms": 1e3 * slowest,
            "core.reduce_ms": z.get("campaign.reduce", 0.0),
            "core.ns_per_event": 1e9 * (b["end"] - b["setup_end"]) / c["events"],
            "sim.events": c["events"],
            "core.barriers": round(sample["weeks"][-1]["week"] * HOURS_PER_WEEK),
            "server.work_requests": c["work_requests"],
            "server.results_received": c["results_received"],
            "server.denied_ratio": c["work_denied"] / c["work_requests"],
            "core.setup.workload_ms": z.get("campaign.build_workload", 0.0),
            "packaging.setup_ms": sum(ms for name, ms in z.items()
                                      if name.startswith("packaging.")),
            "core.setup.grid_ms": z.get("campaign.grid_setup", 0.0),
        })
    elif workload == "serve-wire":
        busy = busy_fractions(sample["proc"], b["load_end"] - b["load_begin"])
        lat = sample["latency_s"]
        out.update({
            "server.service_busy": busy.get("service", 0.0),
            "server.net_busy": busy.get("net", 0.0),
            "client.farm_busy": busy["farm"],
            "server.queue_wait_p50_us": 1e6 * lat["queue_wait_p50"],
            "server.service_p50_us": 1e6 * lat["service_p50"],
            "server.span_total_p99_us": 1e6 * lat["span_total_p99"],
            "client.issue_rtt_p50_ms": 1e3 * lat["issue_p50"],
            "client.issue_rtt_p99_ms": 1e3 * lat["issue_p99"],
            "client.net_residual_p50_us": 1e6 * lat["net_residual_p50"],
            "client.replies": c["replies"],
            "client.errors": c["errors"],
            "server.protocol_errors": c["protocol_errors"],
            "server.setup.catalog_ms": 1e3 * (b["catalog_end"] - b["begin"]),
            "server.setup.start_ms": 1e3 * (b["start_end"] - b["catalog_end"]),
        })
    elif workload == "dock-workunit":
        work_s = b["run_end"] - b["run_begin"]
        out.update({
            "docking.evaluations": c["evaluations"],
            "docking.inspected_pairs": c["inspected_pairs"],
            "docking.within_cutoff_pairs": c["within_cutoff_pairs"],
            "docking.within_ratio":
                c["within_cutoff_pairs"] / c["inspected_pairs"],
            "docking.ns_per_inspected_pair": 1e9 * work_s / c["inspected_pairs"],
            "docking.setup_ms": 1e3 * (b["setup_end"] - b["begin"]),
        })
    return out


def position_ms(samples):
    """Durations (ms) of every dock.position span across samples."""
    return [1e3 * (s["end_s"] - s["start_s"])
            for sample in samples for s in build_spans(sample)
            if s["name"] == "dock.position"]


def week_coverage(sample):
    """Share of a campaign sample's work_s covered by its week and reduce
    spans (the rest is unzoned time between them)."""
    spans = build_spans(sample)
    covered = sum(s["end_s"] - s["start_s"] for s in spans
                  if s["name"] in ("campaign.week", "campaign.reduce"))
    return covered / end_to_end(sample)["work_s"]


def run_values(samples, trace):
    """A run's metric values: each metric's median over the repetitions;
    dock-workunit's position percentiles pool every position of the run."""
    if not trace:
        per_sample = [end_to_end(s) for s in samples]
        return {n: median([v[n] for v in per_sample]) for n in END_TO_END}
    per_sample = [per_layer(s) for s in samples]
    values = {n: median([v[n] for v in per_sample]) for n in PER_LAYER}
    positions = position_ms(samples)
    if positions:
        values["docking.position_ms_p50"] = median(positions)
        values["docking.position_ms_max"] = max(positions)
    return values


# --- output checks -------------------------------------------------------------

def check_sample(sample):
    """(attempted, failed, problems) of one sample.

    Operations are campaign runs, RPCs and docked positions; a failed check
    fails every operation of the sample it covers.
    """
    c = sample["counts"]
    workload = sample["workload"]
    problems = []
    if workload == "campaign-full":
        if not c["completed"]:
            problems.append("campaign did not complete")
        if c["workunits_completed"] != c["workunits_total"]:
            problems.append(f"{c['workunits_completed']} of "
                            f"{c['workunits_total']} workunits assimilated")
        if c["results_valid"] != c["workunits_total"]:
            problems.append(f"{c['results_valid']} canonical results for "
                            f"{c['workunits_total']} workunits")
        return 1, 1 if problems else 0, problems
    if workload == "serve-wire":
        outcomes = (c["assignments"] + c["no_work"] + c["busy"] + c["acks"] +
                    c["errors"])
        if outcomes != c["replies"]:
            problems.append(f"outcome tallies {outcomes} != replies "
                            f"{c['replies']}")
        if c["replies"] <= 0:
            problems.append("no replies")
        # The farm is the server's only client; RPCs the server answered
        # after the window closed are bounded by one in flight per device.
        for server_key, client_key in (("server_rpc_assignments", "assignments"),
                                       ("server_rpc_no_work", "no_work"),
                                       ("server_rpc_busy", "busy"),
                                       ("server_rpc_reports", "acks")):
            lag = c[server_key] - c[client_key]
            if not 0 <= lag <= c["devices"]:
                problems.append(f"server {server_key} {c[server_key]} vs "
                                f"farm {client_key} {c[client_key]}")
        if c["server_rpc_requests"] < c["replies"]:
            problems.append("server rpc_requests below the farm's replies")
        if c["server_results_received"] > c["server_results_sent"]:
            problems.append("server received more results than it issued")
        if c["server_results_sent"] >= c["workunits_total"]:
            problems.append("the catalogue drained during the load window")
        # Error replies still in flight when the window closed count too.
        failed = (max(c["errors"], c["server_rpc_errors"]) +
                  c["protocol_errors"])
        if problems:
            failed = c["replies"]
        elif failed:
            problems.append(f"{c['errors']} error replies "
                            f"({c['server_rpc_errors']} sent), "
                            f"{c['protocol_errors']} protocol errors")
        return max(1, c["replies"]), failed, problems
    positions = c["positions"]
    if c["completed"] != c["couples"]:
        problems.append(f"{c['couples'] - c['completed']} docking runs were "
                        f"interrupted")
    if c["records"] != positions * c["rotations"] or c["bad_records"]:
        problems.append(f"checkpoints hold {c['records']} records "
                        f"({c['bad_records']} bad) for {positions} positions "
                        f"x {c['rotations']} rotations")
    if c["resumed_at_end"] != c["couples"]:
        problems.append(f"{c['couples'] - c['resumed_at_end']} checkpoints "
                        f"do not resume after their last position")
    failed = positions - c["whole_positions"]
    if problems and not failed:
        failed = positions
    return positions, failed, problems


# --- printed results -----------------------------------------------------------

def metric_line(name, value, unit):
    """One human-readable metric line; run.py prints one per metric."""
    return f"metric {name} {value!r} {unit}"


def result_line(correct, attempted, failed, metrics, units):
    """The last line of run.py's output: the JSON result object."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    })
