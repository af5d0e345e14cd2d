#!/usr/bin/env python3
"""Self-test for compare_bench.py, run by CTest (compare_bench_selftest).

Drives the real CLI through subprocess on synthetic bench_suite JSON
fixtures, pinning the behaviors CI leans on:

  * the ±threshold band: a row exactly AT the threshold stays steady, one
    just past it counts (regression or improvement),
  * --fail-on-regression: exit 1 on a trusted regression, exit 0 otherwise,
  * the scale-mismatch guard refuses to compare baselines across scales,
  * the load-average gate: an untrusted comparison tags rows UNTRUSTED and
    suppresses --fail-on-regression. The machine's real load is whatever it
    is, so the fixtures force each side: --load-threshold -1 makes any load
    untrusted, 1e9 makes any load trusted,
  * the exact gate: a changed solution, comm_words, engine_rounds,
    processed_edges or worker_forks in a row on both sides exits 1 with or
    without --fail-on-regression and under any load; a column absent from
    either side, or a one-sided row, is not compared; files from different
    --seed or --reps are refused.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "compare_bench.py")

TRUSTED = ["--load-threshold", "1e9"]
UNTRUSTED = ["--load-threshold", "-1"]


def suite(scale, seconds_by_row, exact=None, reps=3):
    """A bench_suite JSON; `exact` (optional) adds the same exact columns
    to every row."""
    return {
        "seed": 42,
        "scale": scale,
        "reps": reps,
        "rows": [
            {"scenario": s, "family": f, "k": k, "rounds": r,
             "seconds_median": sec, **(exact or {})}
            for (s, f, k, r), sec in seconds_by_row.items()
        ],
    }


EXACT = {"solution": 4000, "comm_words": 62000, "engine_rounds": 2,
         "processed_edges": 24000, "worker_forks": 8}


class CompareBenchTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.dir.cleanup()

    def write(self, name, data):
        path = os.path.join(self.dir.name, name)
        with open(path, "w") as fh:
            json.dump(data, fh)
        return path

    def run_tool(self, *args):
        return subprocess.run(
            [sys.executable, TOOL, *args],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)

    ROW = ("matching", "coreset", 8, 1)

    def compare(self, base_sec, cur_sec, *args):
        base = self.write("base.json", suite(1.0, {self.ROW: base_sec}))
        cur = self.write("cur.json", suite(1.0, {self.ROW: cur_sec}))
        return self.run_tool(base, cur, *args)

    def test_row_at_the_threshold_stays_steady(self):
        # A row exactly AT the threshold is NOT a regression (strict >); with
        # --fail-on-regression the run still exits 0. Uses ±25% — 1.25 is
        # exact in binary, so "exactly at" means exactly at (1.1 at ±10%
        # would sit one ulp past the band).
        result = self.compare(1.0, 1.25, "--threshold", "0.25",
                              "--fail-on-regression", *TRUSTED)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertNotIn("REGRESSIONS", result.stdout)
        self.assertIn("within threshold: 1 rows", result.stdout)

    def test_row_past_the_threshold_regresses(self):
        result = self.compare(1.0, 1.11, "--fail-on-regression", *TRUSTED)
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("REGRESSIONS", result.stdout)

    def test_regression_without_fail_flag_exits_zero(self):
        result = self.compare(1.0, 2.0, *TRUSTED)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("REGRESSIONS", result.stdout)

    def test_improvement_past_the_threshold_is_reported(self):
        result = self.compare(1.0, 0.89, "--fail-on-regression", *TRUSTED)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("improvements", result.stdout)
        self.assertNotIn("REGRESSIONS", result.stdout)

    def test_custom_threshold_band(self):
        # At ±50%, a 40% slowdown is steady; a 60% slowdown regresses.
        result = self.compare(1.0, 1.4, "--threshold", "0.5",
                              "--fail-on-regression", *TRUSTED)
        self.assertEqual(result.returncode, 0, result.stdout)
        result = self.compare(1.0, 1.6, "--threshold", "0.5",
                              "--fail-on-regression", *TRUSTED)
        self.assertEqual(result.returncode, 1, result.stdout)

    def test_scale_mismatch_refuses_to_compare(self):
        base = self.write("base.json", suite(1.0, {self.ROW: 1.0}))
        cur = self.write("cur.json", suite(0.25, {self.ROW: 1.0}))
        result = self.run_tool(base, cur, *TRUSTED)
        self.assertNotEqual(result.returncode, 0)
        self.assertIn("scale mismatch", result.stdout)

    def test_missing_rows_never_fail(self):
        base = self.write("base.json", suite(1.0, {
            self.ROW: 1.0, ("vc", "peeling", 4, 1): 2.0}))
        cur = self.write("cur.json", suite(1.0, {
            self.ROW: 1.0, ("vc", "peeling", 16, 1): 2.0}))
        result = self.run_tool(base, cur, "--fail-on-regression", *TRUSTED)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("REMOVED ROW vc/peeling k=4 rounds=1", result.stdout)
        self.assertIn("NEW ROW vc/peeling k=16 rounds=1", result.stdout)

    def test_new_row_reports_its_median_and_is_not_a_regression(self):
        # A brand-new scenario (the packed family, say) has no baseline: it
        # must be announced with its own timing, not silently skipped, and
        # must not count toward the regression verdict.
        base = self.write("base.json", suite(1.0, {self.ROW: 1.0}))
        cur = self.write("cur.json", suite(1.0, {
            self.ROW: 1.0, ("packed_ingest", "packed", 1, 1): 0.1832}))
        result = self.run_tool(base, cur, "--fail-on-regression", *TRUSTED)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("new rows (no baseline yet):", result.stdout)
        self.assertIn("NEW ROW packed_ingest/packed k=1 rounds=1 "
                      "median 0.1832s", result.stdout)
        self.assertNotIn("REGRESSIONS", result.stdout)

    def test_one_sided_rows_reach_github_annotations(self):
        base = self.write("base.json", suite(1.0, {
            self.ROW: 1.0, ("vc", "peeling", 4, 1): 2.0}))
        cur = self.write("cur.json", suite(1.0, {
            self.ROW: 1.0, ("packed_ingest", "packed", 1, 1): 0.5}))
        result = self.run_tool(base, cur, "--github-annotations", *TRUSTED)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("::notice title=new bench row::", result.stdout)
        self.assertIn("::warning title=bench row removed::", result.stdout)

    def test_untrusted_load_tags_rows_and_suppresses_failure(self):
        result = self.compare(1.0, 2.0, "--fail-on-regression", *UNTRUSTED)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("UNTRUSTED", result.stdout)
        self.assertIn("[UNTRUSTED]", result.stdout)  # the row tag itself
        self.assertIn("not failing the run", result.stdout)

    def test_untrusted_warning_reaches_github_annotations(self):
        result = self.compare(1.0, 2.0, "--github-annotations", *UNTRUSTED)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("::warning title=bench comparison untrusted::",
                      result.stdout)

    def test_trusted_run_has_no_untrusted_tags(self):
        result = self.compare(1.0, 1.0, *TRUSTED)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertNotIn("UNTRUSTED", result.stdout)

    def compare_exact(self, cur_exact, *args, base_exact=EXACT):
        base = self.write("base.json", suite(1.0, {self.ROW: 1.0}, base_exact))
        cur = self.write("cur.json", suite(1.0, {self.ROW: 1.0}, cur_exact))
        return self.run_tool(base, cur, *args)

    def test_identical_exact_columns_pass(self):
        result = self.compare_exact(EXACT, "--fail-on-regression", *TRUSTED)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertNotIn("EXACT COLUMNS CHANGED", result.stdout)

    def test_every_exact_column_is_gated(self):
        for column in EXACT:
            changed = dict(EXACT, **{column: EXACT[column] + 1})
            result = self.compare_exact(changed, *TRUSTED)
            self.assertEqual(result.returncode, 1, column + result.stdout)
            self.assertIn("EXACT COLUMNS CHANGED", result.stdout)
            self.assertIn(f"{column}: {EXACT[column]} -> {EXACT[column] + 1}",
                          result.stdout)

    def test_exact_gate_ignores_load(self):
        # A busy machine excuses timing, never a changed output.
        changed = dict(EXACT, solution=3999)
        result = self.compare_exact(changed, "--fail-on-regression",
                                    *UNTRUSTED)
        self.assertEqual(result.returncode, 1, result.stdout)

    def test_exact_change_reaches_github_annotations(self):
        changed = dict(EXACT, comm_words=62001)
        result = self.compare_exact(changed, "--github-annotations", *TRUSTED)
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("::error title=bench exact column changed::",
                      result.stdout)

    def test_column_missing_from_one_side_is_not_compared(self):
        # Older baselines lack comm_words and worker_forks.
        old = {c: v for c, v in EXACT.items()
               if c not in ("comm_words", "worker_forks")}
        result = self.compare_exact(dict(EXACT, worker_forks=0),
                                    "--fail-on-regression", *TRUSTED,
                                    base_exact=old)
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_one_sided_rows_are_not_exact_gated(self):
        # A new row carries no baseline values to differ from.
        base = self.write("base.json", suite(1.0, {self.ROW: 1.0}, EXACT))
        cur_data = suite(1.0, {self.ROW: 1.0}, EXACT)
        cur_data["rows"].append({"scenario": "vc", "family": "peeling",
                                 "k": 4, "rounds": 1, "seconds_median": 2.0,
                                 "solution": 1})
        cur = self.write("cur.json", cur_data)
        result = self.run_tool(base, cur, "--fail-on-regression", *TRUSTED)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("NEW ROW vc/peeling k=4 rounds=1", result.stdout)

    def test_reps_mismatch_refuses_to_compare(self):
        base = self.write("base.json", suite(1.0, {self.ROW: 1.0}, EXACT))
        cur = self.write("cur.json", suite(1.0, {self.ROW: 1.0}, EXACT,
                                           reps=1))
        result = self.run_tool(base, cur, *TRUSTED)
        self.assertNotEqual(result.returncode, 0)
        self.assertIn("reps mismatch", result.stdout)

    def test_not_a_bench_json_is_rejected(self):
        base = self.write("base.json", {"nope": []})
        cur = self.write("cur.json", suite(1.0, {self.ROW: 1.0}))
        result = self.run_tool(base, cur, *TRUSTED)
        self.assertNotEqual(result.returncode, 0)
        self.assertIn("not a bench_suite JSON", result.stdout)


if __name__ == "__main__":
    unittest.main()
