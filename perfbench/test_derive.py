#!/usr/bin/env python3
"""Tests of the benchmark's own code (no build needed):

    python3 perfbench/test_derive.py
"""

import json
import os
import statistics
import unittest

import derive

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def stat_line(tid, comm, utime, stime):
    """A /proc/<pid>/stat line with the given CPU ticks (fields 14, 15)."""
    rest = ["S", "1", "1", "1", "0", "-1", "4194304", "10", "0", "0", "0",
            str(utime), str(stime)] + ["0"] * 38
    return f"{tid} ({comm}) " + " ".join(rest)


def weekly_progress(t, completed, total=1000, results=None):
    return {"t": t, "week": None, "workunits_completed": completed,
            "workunits_total": total,
            "results_received": completed * 2 if results is None else results,
            "pending_events": 5}


def campaign_sample():
    weeks = [weekly_progress(2.1, 300), weekly_progress(3.1, 700),
             weekly_progress(4.1, 900), weekly_progress(7.1, 990),
             weekly_progress(8.1, 1000)]
    for i, w in enumerate(weeks):
        w["week"] = i + 1.0
    return {
        "workload": "campaign-full", "probe_ms": 37.0, "digest": "ab",
        "bounds": {"begin": 1.0, "setup_end": 1.1, "end": 8.3},
        "weeks": weeks,
        "zones_ms": {"campaign.reduce": 150.0, "campaign.build_workload": 9.0,
                     "packaging.build_catalog": 6.0,
                     "packaging.compute_stats": 1.0,
                     "campaign.grid_setup": 40.0},
        "counts": {"completed": True, "workunits_total": 1000,
                   "workunits_completed": 1000, "results_valid": 1000,
                   "results_received": 1400, "work_requests": 4000,
                   "work_denied": 100, "events": 6_200_000},
        "peak_rss_mb": 70.0,
    }


def serve_sample():
    return {
        "workload": "serve-wire", "probe_ms": 37.0, "load_wall_s": 2.0,
        "bounds": {"begin": 0.0, "catalog_end": 0.05, "start_end": 0.06,
                   "load_begin": 0.1, "load_end": 2.1, "stop_end": 2.2},
        "counts": {"devices": 1024, "workunits_total": 2_400_000,
                   "replies": 600_000, "assignments": 300_000, "no_work": 0,
                   "busy": 0, "acks": 300_000, "errors": 0,
                   "protocol_errors": 0, "server_rpc_requests": 600_500,
                   "server_rpc_assignments": 300_300, "server_rpc_no_work": 0,
                   "server_rpc_busy": 0, "server_rpc_reports": 300_100,
                   "server_rpc_errors": 0, "server_results_sent": 300_300,
                   "server_results_received": 300_100},
        "latency_s": {"issue_p50": 0.002, "issue_p99": 0.007,
                      "queue_wait_p50": 1e-4, "service_p50": 2e-4,
                      "span_total_p99": 1e-3, "net_residual_p50": 1.8e-3},
        "proc": {
            "clk_tck": 100,
            "start": {"self": stat_line(7, "perf bench (x)", 100, 10),
                      "tasks": [{"tid": 7, "group": "main",
                                 "stat": stat_line(7, "perf", 90, 10)},
                                {"tid": 8, "group": "net",
                                 "stat": stat_line(8, "perf", 5, 5)},
                                {"tid": 9, "group": "service",
                                 "stat": stat_line(9, "perf", 0, 0)}]},
            "end": {"self": stat_line(7, "perf bench (x)", 600, 60),
                    "tasks": [{"tid": 7, "group": "main",
                               "stat": stat_line(7, "perf", 91, 10)},
                              {"tid": 8, "group": "net",
                               "stat": stat_line(8, "perf", 105, 85)},
                              {"tid": 9, "group": "service",
                               "stat": stat_line(9, "perf", 150, 10)}]},
        },
        "peak_rss_mb": 120.0,
    }


def dock_sample():
    return {
        "workload": "dock-workunit", "probe_ms": 37.0, "digest": "cd",
        "bounds": {"begin": 0.0, "setup_end": 0.001, "run_begin": 0.002,
                   "run_end": 4.502},
        "couple_edges": [0.002, 1.402, 3.002, 4.502],
        "counts": {"couples": 3, "completed": 3, "resumed_at_end": 3,
                   "positions": 3, "whole_positions": 3, "records": 63,
                   "bad_records": 0, "rotations": 21, "evaluations": 70_000,
                   "inspected_pairs": 2_000_000_000,
                   "within_cutoff_pairs": 500_000_000},
        "peak_rss_mb": 15.0,
    }


class Percentiles(unittest.TestCase):
    def test_exact_samples(self):
        xs = [4.0, 1.0, 3.0, 2.0]
        self.assertEqual(derive.percentile(xs, 0), 1.0)
        self.assertEqual(derive.percentile(xs, 100), 4.0)
        self.assertEqual(derive.median(xs), 2.5)
        self.assertAlmostEqual(derive.percentile(xs, 25), 1.75)
        self.assertEqual(derive.median([7.0]), 7.0)
        self.assertEqual(derive.median([3, 1, 2]), 2)

    def test_matches_statistics_inclusive_quartiles(self):
        xs = [0.3, 9.1, 4.4, 2.2, 7.7, 5.0, 1.9, 8.8, 6.1, 3.3]
        q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
        self.assertAlmostEqual(derive.percentile(xs, 25), q1)
        self.assertAlmostEqual(derive.percentile(xs, 50), q2)
        self.assertAlmostEqual(derive.percentile(xs, 75), q3)

    def test_no_samples(self):
        with self.assertRaises(ValueError):
            derive.percentile([], 50)


class WeekSplit(unittest.TestCase):
    def test_weeks_from_progress_sequence(self):
        s = campaign_sample()
        spans = derive.week_spans(s["bounds"]["setup_end"], s["weeks"])
        self.assertEqual([w["attrs"]["week"] for w in spans], [1, 2, 3, 4, 5])
        self.assertEqual([w["attrs"]["completed_frac_start"] for w in spans],
                         [0.0, 0.3, 0.7, 0.9, 0.99])
        self.assertEqual(spans[0]["start_s"], 1.1)
        self.assertEqual([w["attrs"]["completed_delta"] for w in spans],
                         [300, 400, 200, 90, 10])
        self.assertEqual(spans[1]["attrs"]["results_delta"], 800)

    def test_des_zone_per_week(self):
        s = campaign_sample()
        for i, w in enumerate(s["weeks"]):
            w["des_ms"] = 900.0 * (i + 1)
        spans = derive.week_spans(s["bounds"]["setup_end"], s["weeks"])
        self.assertEqual([w["attrs"]["des_ms"] for w in spans], [900.0] * 5)

    def test_bulk_and_tail(self):
        s = campaign_sample()
        spans = derive.week_spans(s["bounds"]["setup_end"], s["weeks"])
        bulk, tail, slowest = derive.split_weeks(spans)
        # Weeks 4 and 5 start with >= 90 % completed: 3.0 s + 1.0 s.
        self.assertAlmostEqual(tail, 4.0)
        self.assertAlmostEqual(bulk, 3.0)
        self.assertAlmostEqual(slowest, 3.0)

    def test_campaign_layers(self):
        s = campaign_sample()
        m = derive.per_layer(s)
        self.assertAlmostEqual(m["core.tail_weeks_s"], 4.0)
        self.assertAlmostEqual(m["core.bulk_weeks_s"], 3.0)
        self.assertAlmostEqual(m["core.week_max_ms"], 3000.0)
        self.assertEqual(m["core.reduce_ms"], 150.0)
        self.assertAlmostEqual(m["core.ns_per_event"], 1e9 * 7.2 / 6_200_000)
        self.assertEqual(m["core.barriers"], 5 * 168)
        self.assertEqual(m["packaging.setup_ms"], 7.0)
        self.assertAlmostEqual(m["server.denied_ratio"], 0.025)
        self.assertEqual(m["docking.evaluations"], 0.0)
        self.assertEqual(set(m), set(derive.PER_LAYER))
        # Weeks (7.0 s) + reduce (0.15 s) of work_s 7.2 s.
        self.assertAlmostEqual(derive.week_coverage(s), 7.15 / 7.2)


class ThreadBusy(unittest.TestCase):
    def test_cpu_ticks_skips_command_name(self):
        self.assertEqual(derive.cpu_ticks(stat_line(1, "a) (b c", 12, 30)), 42)

    def test_busy_fractions(self):
        s = serve_sample()
        busy = derive.busy_fractions(s["proc"], 2.0)
        self.assertAlmostEqual(busy["net"], 1.8 / 2.0)
        self.assertAlmostEqual(busy["service"], 1.6 / 2.0)
        self.assertAlmostEqual(busy["main"], 0.01 / 2.0)
        # Process 5.5 s minus 3.41 s of labelled threads: the exited farm.
        self.assertAlmostEqual(busy["farm"], 2.09 / 2.0)

    def test_serve_layers(self):
        m = derive.per_layer(serve_sample())
        self.assertAlmostEqual(m["server.net_busy"], 0.9)
        self.assertAlmostEqual(m["server.setup.catalog_ms"], 50.0)
        self.assertAlmostEqual(m["server.setup.start_ms"], 10.0)
        self.assertAlmostEqual(m["client.issue_rtt_p99_ms"], 7.0)
        self.assertEqual(m["client.replies"], 600_000)
        self.assertAlmostEqual(derive.end_to_end(serve_sample())["work_s"],
                               derive.RPC_QUANTUM / 300_000)


class BypassedLayers(unittest.TestCase):
    def test_layers_a_workload_bypasses_read_zero(self):
        for sample in (campaign_sample(), serve_sample(), dock_sample()):
            m = derive.per_layer(sample)
            for name, (_, _, workload) in derive.PER_LAYER.items():
                if workload != sample["workload"]:
                    self.assertEqual(m[name], 0.0, name)

    def test_run_values_pool_positions(self):
        a, b = dock_sample(), dock_sample()
        b["couple_edges"] = [0.002, 0.502, 2.002, 4.502]
        b["bounds"]["run_end"] = 4.502
        values = derive.run_values([a, b], trace=True)
        # Positions 1400, 1600, 1500 ms and 500, 1500, 2500 ms pooled.
        self.assertAlmostEqual(values["docking.position_ms_p50"], 1500.0)
        self.assertAlmostEqual(values["docking.position_ms_max"], 2500.0)
        self.assertEqual(set(values), set(derive.PER_LAYER))
        e2e = derive.run_values([a, b], trace=False)
        self.assertEqual(set(e2e), set(derive.END_TO_END))
        self.assertAlmostEqual(e2e["work_s"], 4.5)


class Checks(unittest.TestCase):
    def test_clean_samples_pass(self):
        self.assertEqual(derive.check_sample(campaign_sample()), (1, 0, []))
        self.assertEqual(derive.check_sample(serve_sample()), (600_000, 0, []))
        self.assertEqual(derive.check_sample(dock_sample()), (3, 0, []))

    def test_unassimilated_campaign_fails_the_run(self):
        s = campaign_sample()
        s["counts"]["workunits_completed"] = 999
        attempted, failed, problems = derive.check_sample(s)
        self.assertEqual((attempted, failed), (1, 1))
        self.assertTrue(problems)

    def test_serve_error_replies_count_as_failed_rpcs(self):
        s = serve_sample()
        s["counts"]["errors"] = 3
        s["counts"]["server_rpc_errors"] = 3
        s["counts"]["acks"] -= 3
        attempted, failed, problems = derive.check_sample(s)
        self.assertEqual((attempted, failed), (600_000, 3))
        self.assertTrue(problems)

    def test_serve_error_sent_after_the_window_fails_the_check(self):
        s = serve_sample()
        s["counts"]["server_rpc_errors"] = 1
        attempted, failed, problems = derive.check_sample(s)
        self.assertEqual((attempted, failed), (600_000, 1))
        self.assertTrue(problems)

    def test_serve_tally_mismatch_fails_every_rpc(self):
        s = serve_sample()
        s["counts"]["server_rpc_reports"] = 100
        self.assertEqual(derive.check_sample(s)[:2], (600_000, 600_000))

    def test_dock_missing_records_fail_positions(self):
        s = dock_sample()
        s["counts"].update(records=50, whole_positions=2)
        attempted, failed, problems = derive.check_sample(s)
        self.assertEqual((attempted, failed), (3, 1))
        self.assertTrue(problems)

    def test_dock_interrupted_run_fails_every_position(self):
        s = dock_sample()
        s["counts"].update(completed=2, resumed_at_end=2)
        attempted, failed, problems = derive.check_sample(s)
        self.assertEqual((attempted, failed), (3, 3))
        self.assertEqual(len(problems), 2)


class OutputFormat(unittest.TestCase):
    def test_metric_line(self):
        line = derive.metric_line("work_s", 4.25, "s")
        self.assertEqual(line, "metric work_s 4.25 s")
        _, name, value, unit = line.split(" ")
        self.assertEqual((name, float(value), unit), ("work_s", 4.25, "s"))

    def test_result_line(self):
        units = {n: u for n, (u, _) in derive.END_TO_END.items()}
        values = {"work_s": 4.5, "setup_s": 0.06, "peak_rss_mb": 70}
        doc = json.loads(derive.result_line(True, 3, 0, values, units))
        self.assertEqual(list(doc), ["correct", "attempted", "failed",
                                     "metrics"])
        self.assertIs(doc["correct"], True)
        self.assertEqual(doc["metrics"]["peak_rss_mb"],
                         {"value": 70.0, "unit": "MB"})
        self.assertEqual(set(doc["metrics"]), set(derive.END_TO_END))

    def test_span_file_lines(self):
        for sample in (campaign_sample(), serve_sample(), dock_sample()):
            spans = derive.build_spans(sample)
            lines = derive.span_lines("w/1/0", spans)
            self.assertEqual(len(lines), len(spans))
            for i, line in enumerate(lines):
                doc = json.loads(line)
                self.assertEqual(set(doc), {"run", "id", "name", "start_s",
                                            "end_s", "parent", "attrs"})
                self.assertEqual((doc["run"], doc["id"]), ("w/1/0", i))
                self.assertLessEqual(doc["start_s"], doc["end_s"])
                if doc["parent"] >= 0:
                    parent = spans[doc["parent"]]
                    self.assertLess(doc["parent"], i)
                    self.assertGreaterEqual(doc["start_s"], parent["start_s"])
                    self.assertLessEqual(doc["end_s"], parent["end_s"])

    def test_span_names(self):
        def names(sample):
            return [s["name"] for s in derive.build_spans(sample)]
        self.assertEqual(names(campaign_sample()),
                         ["campaign.run", "campaign.setup"] +
                         ["campaign.week"] * 5 + ["campaign.reduce"])
        self.assertEqual(names(serve_sample()),
                         ["serve.setup", "serve.setup.catalog",
                          "serve.setup.start", "serve.load", "serve.stop"])
        self.assertEqual(names(dock_sample()),
                         ["dock.setup", "dock.run"] + ["dock.position"] * 3)
        for got, want in zip(derive.position_ms([dock_sample()]),
                             [1400.0, 1600.0, 1500.0]):
            self.assertAlmostEqual(got, want)


class BenchmarkFile(unittest.TestCase):
    """BENCHMARK.json declares exactly the metrics this code prints."""

    def setUp(self):
        path = os.path.join(ROOT, "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("no BENCHMARK.json beside perfbench/")
        with open(path) as f:
            self.bench = json.load(f)

    def test_metrics_match(self):
        e2e = {m["name"]: (m["unit"], m["better"])
               for m in self.bench["end_to_end"]}
        self.assertEqual(e2e, derive.END_TO_END)
        layers = {m["name"]: (m["unit"], m["better"])
                  for m in self.bench["per_layer"]}
        self.assertEqual(layers, {n: (u, b) for n, (u, b, _)
                                  in derive.PER_LAYER.items()})
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         list(derive.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
