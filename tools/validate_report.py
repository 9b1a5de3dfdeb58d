#!/usr/bin/env python3
"""Validates a run-report JSON (and optionally its Chrome trace).

CI runs an instrumented scale-0.01 campaign and this script asserts the
report carries every section downstream tooling depends on: the paper
series (fig6a/fig6b/fig7/fig8/table2), the outcome block, telemetry, the
fault-injection summary, the validation block and — when a trace file is
given — the trace-stream statistics plus a well-formed trace_event JSON.
Every corrupt result comes from the fault plan, which counts it, so the
validation block's corruption_assimilated may never exceed
corruption_injected (checked per replica under --policy too).

Usage:
  tools/validate_report.py report.json [trace.json] [--chaos]
  tools/validate_report.py loadgen.json --serve
  tools/validate_report.py metrics.txt --metrics
  tools/validate_report.py flight.jsonl --flight
  tools/validate_report.py cell.json --policy [--expect=NAME]
      [--max-redundancy=X] [--min-redundancy=X] [--leakage-budget=F]

--chaos additionally asserts the run injected faults and still finished
clean: faults.enabled, non-empty fault counters, outcome.completed and
zero corrupt results assimilated.

--policy validates one policy-matrix cell (a `hcmdgrid --replicas`
replication report, schema hcmd-replication/1): every replica completed
and carries a validation block echoing the configured policy, the
redundancy factor of every replica sits inside
[--min-redundancy, --max-redundancy], and the leakage fraction
(corrupt results assimilated / injected, summed over replicas) does not
exceed --leakage-budget (default 0: any assimilated corruption fails).

--serve validates a `hcmdgrid loadgen --out` summary instead of a campaign
report: traffic actually flowed (requests, replies, req/s all positive),
the latency quantiles are ordered (p50 <= p99 <= p999 <= max), the outcome
tallies are consistent with the reply total, the server block echoes a
live scheduler (rpc_requests covers the client's replies, uptime and
per-verb counters are sane), and the server_spans stage breakdown holds
together (monotone per-stage quantiles, queue-wait <= total, stage means
summing to the end-to-end mean).

--metrics validates a scraped Prometheus exposition (`GET /metrics`):
every line parses, and the hcmd_rpc_requests_total counter is present and
positive.

--flight validates a flight-recorder JSONL dump: every line is a JSON
object with t/cat/ev/id fields and at least one rpc-category event made it
into the ring.
"""
import json
import sys


def fail(msg):
    sys.exit(f"validate_report: {msg}")


def check_quantiles(h, what):
    """Asserts one emitted histogram object has ordered, sane quantiles."""
    quantiles = [h["p50_seconds"], h["p90_seconds"], h["p99_seconds"],
                 h["p999_seconds"]]
    if any(q < 0 for q in quantiles):
        fail(f"--serve: negative {what} quantile")
    if sorted(quantiles) != quantiles:
        fail(f"--serve: {what} quantiles are not monotone: {quantiles}")
    if h["max_seconds"] + 1e-12 < h["p50_seconds"]:
        fail(f"--serve: {what} max below p50")


def validate_serve(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("kind") != "loadgen":
        fail(f"{path} is not a loadgen summary (kind={doc.get('kind')!r})")
    for key in ("options", "wall_seconds", "requests_total", "replies_total",
                "requests_per_sec", "outcomes", "faults", "latency",
                "server"):
        if key not in doc:
            fail(f"{path} missing {key!r}")
    if doc["requests_total"] <= 0:
        fail("--serve: no requests were sent")
    if doc["replies_total"] <= 0:
        fail("--serve: no replies were received")
    if doc["requests_per_sec"] <= 0:
        fail("--serve: requests_per_sec is not positive")

    outcomes = doc["outcomes"]
    replies = sum(outcomes[k] for k in
                  ("assignments", "no_work", "busy", "acks", "errors"))
    if replies != doc["replies_total"]:
        fail(f"--serve: outcome tallies ({replies}) != replies_total "
             f"({doc['replies_total']})")
    if outcomes["errors"] != 0:
        fail(f"--serve: {outcomes['errors']} protocol error replies")

    for name in ("issue", "report"):
        h = doc["latency"][name]
        if h["count"] == 0:
            continue  # an outage-only run may never see an ack
        check_quantiles(h, f"{name} latency")

    spans = doc.get("server_spans")
    if spans is None:
        fail("--serve: missing server_spans section")
    if doc["options"].get("spans", False) and spans["span_replies"] > 0:
        for stage in ("queue_wait", "service", "total", "net_residual"):
            check_quantiles(spans[stage], f"span stage {stage}")
        qw, sv, tot = (spans["queue_wait"], spans["service"], spans["total"])
        if qw["p50_seconds"] > tot["p50_seconds"] + 1e-9:
            fail("--serve: span queue_wait p50 above total p50")
        if sv["p50_seconds"] > tot["p50_seconds"] + 1e-9:
            fail("--serve: span service p50 above total p50")
        # Per sample, queue_wait + service == total exactly, so the means
        # (exact running sums / count) must add up to rounding error.
        mean_sum = qw["mean_seconds"] + sv["mean_seconds"]
        if abs(mean_sum - tot["mean_seconds"]) > \
                1e-6 * max(tot["mean_seconds"], 1e-9):
            fail(f"--serve: span stage means ({mean_sum:.9f}) do not sum "
                 f"to the total mean ({tot['mean_seconds']:.9f})")
        # The server-side total is one component of the measured round
        # trip, so its p50 cannot plausibly exceed the end-to-end tail.
        rtt_tail = max(doc["latency"]["issue"]["p999_seconds"],
                       doc["latency"]["report"]["p999_seconds"])
        if tot["p50_seconds"] > rtt_tail + 1e-9:
            fail(f"--serve: span total p50 ({tot['p50_seconds']:.6f}s) "
                 f"above the end-to-end p999 ({rtt_tail:.6f}s)")

    server = doc["server"]
    if server["rpc_requests"] < doc["replies_total"]:
        fail("--serve: server rpc_requests below the client's reply count")
    if server["results_received"] > server["results_sent"]:
        fail("--serve: server received more results than it issued")
    if server["uptime_seconds"] <= 0:
        fail("--serve: server uptime_seconds is not positive")
    rpc = server["rpc"]
    # The server may have served other clients too, so its per-verb totals
    # are lower-bounded (never exactly matched) by this client's outcomes.
    for server_key, client_key in (("assignments", "assignments"),
                                   ("no_work", "no_work"),
                                   ("busy", "busy"),
                                   ("reports", "acks")):
        if rpc[server_key] < outcomes[client_key]:
            fail(f"--serve: server rpc.{server_key} ({rpc[server_key]}) "
                 f"below the client's {client_key} ({outcomes[client_key]})")
    per_verb = (rpc["assignments"] + rpc["no_work"] + rpc["busy"] +
                rpc["reports"] + rpc["status"] + rpc["errors"])
    if per_verb > server["rpc_requests"]:
        fail(f"--serve: per-verb counters ({per_verb}) exceed rpc_requests "
             f"({server['rpc_requests']})")

    print(f"serve summary ok: {doc['replies_total']} RPCs at "
          f"{doc['requests_per_sec']:.0f} req/s, issue p99 "
          f"{doc['latency']['issue']['p99_seconds'] * 1e3:.3f} ms, "
          f"{spans['span_replies']} span echoes")


def validate_metrics(path):
    with open(path) as f:
        text = f.read()
    if not text.strip():
        fail(f"--metrics: {path} is empty")
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line or line.startswith("#"):
            continue
        # Exposition lines are `name value` or `name{labels} value`.
        parts = line.rsplit(None, 1)
        if len(parts) != 2:
            fail(f"--metrics: line {lineno} is not 'series value': {line!r}")
        series, value = parts
        try:
            values[series] = float(value)
        except ValueError:
            fail(f"--metrics: line {lineno} has a non-numeric value: "
                 f"{line!r}")
        name = series.split("{", 1)[0]
        if not all(c.isalnum() or c == "_" for c in name):
            fail(f"--metrics: line {lineno} has a bad series name: {name!r}")
    requests = values.get("hcmd_rpc_requests_total")
    if requests is None:
        fail("--metrics: hcmd_rpc_requests_total is missing")
    if requests <= 0:
        fail("--metrics: hcmd_rpc_requests_total is zero — the scrape saw "
             "no traffic")
    print(f"metrics ok: {len(values)} series, "
          f"{int(requests)} RPCs served at scrape time")


def check_corruption_counted(v, where):
    """Asserts validation assimilated no more corruption than was injected."""
    if v["corruption_assimilated"] > v["corruption_injected"]:
        fail(f"{where}: {v['corruption_assimilated']} corrupt results "
             f"assimilated but only {v['corruption_injected']} injected — "
             "some corruption is not counted by the fault plan")


def validate_policy(path, expect, min_red, max_red, leak_budget):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "hcmd-replication/1":
        fail(f"--policy: {path} is not a replication report "
             f"(schema={doc.get('schema')!r})")
    for key in ("config", "replicas", "metrics", "runs"):
        if key not in doc:
            fail(f"--policy: {path} missing {key!r}")
    config = doc["config"]
    runs = doc["runs"]
    if not runs or doc["replicas"] != len(runs):
        fail(f"--policy: replicas ({doc['replicas']}) != runs recorded "
             f"({len(runs)})")
    policy = config.get("policy")
    if expect is not None and policy != expect:
        fail(f"--policy: expected policy {expect!r}, report ran {policy!r}")
    if not doc["metrics"]:
        fail("--policy: metric table is empty")
    for i, run in enumerate(runs):
        if not run["completed"]:
            fail(f"--policy: replica {i} did not complete its campaign")
        v = run.get("validation")
        if v is None:
            fail(f"--policy: replica {i} has no validation block")
        if v["policy"] != policy:
            fail(f"--policy: replica {i} validation block reports "
                 f"{v['policy']!r}, config says {policy!r}")
        check_corruption_counted(v, f"--policy: replica {i}")
    reds = [run["redundancy_factor"] for run in runs]
    if min(reds) < min_red:
        fail(f"--policy: redundancy {min(reds):.4f} below the floor "
             f"{min_red} — the report is not counting real work")
    if max(reds) > max_red:
        fail(f"--policy: redundancy {max(reds):.4f} exceeds the bound "
             f"{max_red}")
    injected = sum(run["validation"]["corruption_injected"] for run in runs)
    leaked = sum(run["validation"]["corruption_assimilated"] for run in runs)
    leak_frac = leaked / injected if injected else 0.0
    if leaked and leak_frac > leak_budget:
        fail(f"--policy: {leaked}/{injected} corrupt results assimilated "
             f"(leakage {leak_frac:.4f} > budget {leak_budget})")
    print(f"policy cell ok: {policy} x {len(runs)} replicas, redundancy "
          f"[{min(reds):.4f}, {max(reds):.4f}], leakage {leaked}/{injected}")


def validate_flight(path):
    rpc_events = 0
    total = 0
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as e:
                fail(f"--flight: line {lineno} is not JSON: {e}")
            for key in ("t", "cat", "ev", "id"):
                if key not in event:
                    fail(f"--flight: line {lineno} missing {key!r}")
            total += 1
            if event["cat"] == "rpc":
                rpc_events += 1
    if total == 0:
        fail(f"--flight: {path} has no events")
    if rpc_events == 0:
        fail("--flight: no rpc-category events in the flight record")
    print(f"flight record ok: {total} events, {rpc_events} rpc spans")


def main():
    flags = ("--chaos", "--serve", "--metrics", "--flight", "--policy")
    kv_flags = ("--expect=", "--max-redundancy=", "--min-redundancy=",
                "--leakage-budget=")
    argv = [a for a in sys.argv[1:]
            if a not in flags and not a.startswith(kv_flags)]
    chaos = "--chaos" in sys.argv[1:]
    serve = "--serve" in sys.argv[1:]
    metrics = "--metrics" in sys.argv[1:]
    flight = "--flight" in sys.argv[1:]
    policy = "--policy" in sys.argv[1:]
    if not argv:
        fail("usage: validate_report.py report.json [trace.json] "
             "[--chaos] | loadgen.json --serve | metrics.txt --metrics "
             "| flight.jsonl --flight | cell.json --policy")
    if policy:
        kv = dict(a[2:].split("=", 1) for a in sys.argv[1:]
                  if a.startswith(kv_flags))
        validate_policy(argv[0],
                        expect=kv.get("expect"),
                        min_red=float(kv.get("min-redundancy", 1.0)),
                        max_red=float(kv.get("max-redundancy", 2.6)),
                        leak_budget=float(kv.get("leakage-budget", 0.0)))
        return
    if serve:
        validate_serve(argv[0])
        return
    if metrics:
        validate_metrics(argv[0])
        return
    if flight:
        validate_flight(argv[0])
        return
    report_path = argv[0]
    trace_path = argv[1] if len(argv) > 1 else None

    with open(report_path) as f:
        report = json.load(f)

    keys = ["config", "workload", "fig6a", "fig6b", "fig7", "fig8",
            "table2", "outcome", "counters", "faults", "validation",
            "telemetry", "self_profile"]
    # The trace section only exists when the run was traced.
    if trace_path:
        keys.append("trace")
    for key in keys:
        if key not in report:
            fail(f"{report_path} missing {key!r}")
    if not report["fig6a"]["hcmd_vftp_weekly"]:
        fail("fig6a series empty")

    outcome = report["outcome"]
    for key in ("shards", "events_processed"):
        if key not in outcome:
            fail(f"outcome block missing {key!r}")
    if outcome["shards"] < 1:
        fail(f"outcome.shards must be >= 1, got {outcome['shards']}")
    if outcome["events_processed"] <= 0:
        fail("outcome.events_processed is zero: the engine ran no events")

    faults = report["faults"]
    for key in ("enabled", "plan", "counters"):
        if key not in faults:
            fail(f"faults section missing {key!r}")
    check_corruption_counted(report["validation"], "validation")

    if chaos:
        if not faults["enabled"]:
            fail("--chaos: faults.enabled is false")
        injected = sum(faults["counters"].values())
        if injected == 0:
            fail("--chaos: fault plan enabled but nothing was injected")
        if not report["outcome"]["completed"]:
            fail("--chaos: campaign did not complete")
        if report["counters"]["corrupt_assimilated"] != 0:
            fail("--chaos: corrupt results were assimilated "
                 f"({report['counters']['corrupt_assimilated']})")
        print(f"chaos ok: {injected} fault events injected, campaign "
              f"completed in {report['outcome']['completion_weeks']:.1f} "
              "weeks, no corrupt result assimilated")

    if trace_path:
        with open(trace_path) as f:
            trace = json.load(f)
        events = trace["traceEvents"]
        if not events:
            fail("trace has no events")
        bad = [e for e in events if e["ph"] != "i"]
        if bad:
            fail(f"{len(bad)} trace events are not instants (ph != 'i')")
        print(f"report sections ok; trace has {len(events)} events")
    else:
        print("report sections ok")


if __name__ == "__main__":
    main()
