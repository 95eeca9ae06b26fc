#!/usr/bin/env python3
"""Tests for tools/perf_ab.py's parsing and summary, on fixtures.

  python3 tests/tools/perf_ab_test.py
"""

import io
import json
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)),
                                "tools"))

import perf_ab  # noqa: E402


def load_results():
    with open(os.path.join(DATA, "perf_ab_results.json")) as f:
        return json.load(f)


class ParseRunTest(unittest.TestCase):
    def test_contract_metrics_and_artifact_extras(self):
        with open(os.path.join(DATA, "perf_ab_stdout.txt")) as f:
            stdout = f.read()
        run = perf_ab.parse_run(stdout,
                                os.path.join(DATA, "perf_ab_artifact.json"))
        self.assertTrue(run["correct"])
        self.assertEqual(run["fingerprint"], "dcb12d4f089aaa08")
        self.assertEqual(run["passes"], 3)
        # The contract line wins over the artifact's samples.
        self.assertEqual(run["metrics"]["simcore.events"], 5763570.0)
        # Metrics only in the artifact use their summary statistic.
        self.assertEqual(run["metrics"]["wall_s"], 4.05)
        self.assertAlmostEqual(run["metrics"]["setup_s"], 0.11)
        self.assertEqual(run["span_self_ms_per_pass"]["core.run"], 14658.0)


class SummarizeTest(unittest.TestCase):
    def setUp(self):
        self.results = load_results()
        self.summary = perf_ab.summarize(self.results)

    def test_lower_is_better_quartiles_and_wins(self):
        s = self.summary["paper-grid"]
        wall = s["metrics"]["wall_s"]
        self.assertEqual(s["pairs"], 10)
        self.assertAlmostEqual(wall["parent"]["median"], 5.0)
        self.assertAlmostEqual(wall["parent"]["q1"], 4.875)
        self.assertAlmostEqual(wall["parent"]["q3"], 5.2)
        self.assertAlmostEqual(wall["parent"]["iqr"], 0.325)
        self.assertAlmostEqual(wall["change"]["median"], 3.95)
        v = s["verdicts"]["wall_s"]
        self.assertEqual(v["better"], "lower")
        self.assertEqual(v["wins"], 9)
        self.assertAlmostEqual(v["ratio"], 5.0 / 3.95)
        self.assertTrue(v["gain_clears"])
        self.assertTrue(s["fingerprints_equal"])
        self.assertTrue(s["correct"])
        self.assertEqual(s["max_steal_ticks"], 7)

    def test_higher_is_better_ratio_is_change_over_parent(self):
        v = self.summary["paper-grid"]["verdicts"]["sim_mticks_per_s"]
        self.assertEqual(v["better"], "higher")
        self.assertEqual(v["wins"], 9)
        self.assertAlmostEqual(v["ratio"], 12.0 / 10.0)
        self.assertTrue(v["gain_clears"])

    def test_every_end_to_end_metric_in_the_runs_is_judged(self):
        self.assertEqual(list(self.summary["paper-grid"]["verdicts"]),
                         ["wall_s", "sim_mticks_per_s", "sim_ipc"])
        self.assertEqual(list(self.summary["churn-migrate"]["verdicts"]),
                         ["wall_s", "peak_rss_mb", "sim_ipc"])
        # Equal medians: no wins, ratio 1, no gain.
        ipc = self.summary["paper-grid"]["verdicts"]["sim_ipc"]
        self.assertEqual(ipc["wins"], 0)
        self.assertAlmostEqual(ipc["ratio"], 1.0)
        self.assertFalse(ipc["gain_clears"])

    def test_zero_median_ratio(self):
        pairs = [{"parent": {"metrics": {"m": 0.0}},
                  "change": {"metrics": {"m": x}}} for x in (0.0, 0.0)]
        zero = perf_ab.quartiles([0.0, 0.0])
        self.assertEqual(
            perf_ab.verdict(pairs, "m", "lower", zero, zero)["ratio"], 1.0)
        self.assertIsNone(perf_ab.verdict(
            pairs, "m", "lower", perf_ab.quartiles([1.0]), zero)["ratio"])

    def test_split_wins_and_differing_fingerprints(self):
        s = self.summary["churn-migrate"]
        self.assertEqual(s["verdicts"]["wall_s"]["wins"], 1)
        self.assertFalse(s["verdicts"]["wall_s"]["gain_clears"])
        rss = s["verdicts"]["peak_rss_mb"]
        self.assertEqual(rss["wins"], 2)
        self.assertAlmostEqual(rss["ratio"], 27.95 / 18.15)
        self.assertTrue(rss["gain_clears"])
        self.assertFalse(s["fingerprints_equal"])

    def test_report_names_the_verdicts(self):
        text = perf_ab.report(self.results, self.summary)
        self.assertIn("wall_s (lower is better) wins 9/10 ratio 1.266x "
                      "gain clears", text)
        self.assertIn("sim_mticks_per_s (higher is better) wins 9/10 "
                      "ratio 1.200x gain clears", text)
        self.assertIn("sim_ipc (higher is better) wins 0/10 ratio 1.000x "
                      "gain does not clear", text)
        self.assertIn("fingerprints equal (dcb12d4f089aaa08)", text)
        self.assertIn("fingerprints DIFFER", text)

    def test_median_pass_counts_and_the_rss_flag(self):
        grid = self.summary["paper-grid"]
        self.assertEqual(grid["passes"], {"parent": 4, "change": 4})
        self.assertFalse(grid["passes_differ"])
        churn = self.summary["churn-migrate"]
        self.assertEqual(churn["passes"], {"parent": 9, "change": 11})
        self.assertTrue(churn["passes_differ"])
        lines = perf_ab.report(self.results, self.summary).splitlines()
        self.assertIn("  passes (median) parent 4 change 4", lines)
        self.assertIn("  passes (median) parent 9 change 11", lines)
        flagged = [line for line in lines if "pass counts differ" in line]
        self.assertEqual(len(flagged), 1)
        self.assertTrue(flagged[0].startswith("  peak_rss_mb "))

    def test_runs_saved_without_pass_counts(self):
        for pairs in self.results["workloads"].values():
            for pair in pairs:
                del pair["change"]["passes"]
        summary = perf_ab.summarize(self.results)
        churn = summary["churn-migrate"]
        self.assertEqual(churn["passes"], {"parent": 9, "change": None})
        self.assertFalse(churn["passes_differ"])
        text = perf_ab.report(self.results, summary)
        self.assertIn("passes (median) parent 9 change n/a", text)
        self.assertNotIn("pass counts differ", text)

    def test_trajectory_rows(self):
        rows = perf_ab.trajectory_rows("label", self.results, self.summary)
        self.assertEqual([(r["workload"], r["metric"]) for r in rows],
                         [("paper-grid", "wall_s"),
                          ("paper-grid", "sim_mticks_per_s"),
                          ("paper-grid", "sim_ipc"),
                          ("churn-migrate", "wall_s"),
                          ("churn-migrate", "peak_rss_mb"),
                          ("churn-migrate", "sim_ipc")])
        row = rows[0]
        self.assertEqual(row["parent"], "e4d1b19")
        self.assertEqual(row["change"], "worktree@e4d1b19")
        self.assertEqual(row["parent_median"], 5.0)
        self.assertEqual(row["change_median"], 3.95)
        self.assertEqual(row["wins"], 9)
        self.assertEqual(row["speedup"], 1.266)
        self.assertEqual(rows[1]["speedup"], 1.2)
        self.assertEqual(rows[4]["parent_median"], 27.95)
        self.assertEqual(rows[4]["change_median"], 18.15)

    def test_summarize_command_records_to_the_trajectory(self):
        with tempfile.TemporaryDirectory() as tmp:
            traj = os.path.join(tmp, "trajectory.jsonl")
            saved = perf_ab.TRAJECTORY
            perf_ab.TRAJECTORY = traj
            try:
                sys.argv = ["perf_ab.py", "summarize",
                            os.path.join(DATA, "perf_ab_results.json"),
                            "--record", "fixture"]
                with redirect_stdout(io.StringIO()):
                    self.assertEqual(perf_ab.main(), 0)
            finally:
                perf_ab.TRAJECTORY = saved
            with open(traj) as f:
                rows = [json.loads(line) for line in f]
        self.assertEqual(len(rows), 6)
        self.assertEqual(rows[0]["label"], "fixture")


class BenchmarkSpecTest(unittest.TestCase):
    def test_workloads_and_metrics_come_from_benchmark_json(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "BENCHMARK.json")
            with open(path, "w") as f:
                json.dump({"workloads": [{"name": "b", "why": ""},
                                         {"name": "a", "why": ""}],
                           "end_to_end": [{"name": "wall_s",
                                           "better": "lower"}]}, f)
            self.assertEqual(perf_ab.read_benchmark(path),
                             (["b", "a"], [("wall_s", "lower")]))

    def test_module_lists_the_checked_in_workloads(self):
        with open(os.path.join(perf_ab.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual(perf_ab.WORKLOADS,
                         [w["name"] for w in spec["workloads"]])
        self.assertEqual([name for name, _ in perf_ab.END_TO_END],
                         [m["name"] for m in spec["end_to_end"]])

    def test_run_rejects_a_workload_benchmark_json_lacks(self):
        sys.argv = ["perf_ab.py", "run", "--parent", "HEAD",
                    "--workload", "no-such-workload"]
        with redirect_stderr(io.StringIO()), \
                self.assertRaises(SystemExit) as ctx:
            perf_ab.main()
        self.assertEqual(ctx.exception.code, 2)


class TrajectoryFileTest(unittest.TestCase):
    def test_checked_in_rows_parse(self):
        keys = set(perf_ab.trajectory_rows(
            "x", load_results(), perf_ab.summarize(load_results()))[0])
        with open(perf_ab.TRAJECTORY) as f:
            rows = [json.loads(line) for line in f if line.strip()]
        self.assertTrue(rows)
        for row in rows:
            self.assertEqual(set(row), keys)


if __name__ == "__main__":
    unittest.main()
