#!/usr/bin/env python3
"""Self-test for check_bench_regression.py.

Runs the gate the way CI does (``check_bench_regression.py FRESH
BASELINE``) on small synthetic bench documents and checks that each
row's absolute ``*_ms`` columns are printed beside its ratios, that the
printout changes neither the verdict nor the exit status, that a
fresh run is compared only with baseline rows of its own mode, that
``count_*`` columns must equal the baseline exactly, and that rows are
matched to the host's pool cap.

Usage:
    python3 scripts/test_check_bench_regression.py

Stdlib only.
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "check_bench_regression.py"


def bench(rows, mode="smoke"):
    return {"bench": "fleet_health", "mode": mode, "rows": rows, "ok": True}


BASELINE = bench([
    {"threads": 1, "cadence_ms": 23.7, "heal_ms": 3.0, "speedup": 1.0},
    {"threads": 4, "cadence_ms": 12.1, "heal_ms": 2.5, "speedup": 1.14},
])


def run_gate(fresh, baseline=BASELINE):
    with tempfile.TemporaryDirectory() as tmp:
        fresh_path = Path(tmp) / "fresh.json"
        base_path = Path(tmp) / "baseline.json"
        fresh_path.write_text(json.dumps(fresh))
        base_path.write_text(json.dumps(baseline))
        done = subprocess.run(
            [sys.executable, str(SCRIPT), str(fresh_path), str(base_path)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    return done.returncode, done.stdout


def line_with(out, *needles):
    for line in out.splitlines():
        if all(n in line for n in needles):
            return line
    return None


class MsColumns(unittest.TestCase):
    def test_ms_columns_printed_beside_a_passing_ratio(self):
        code, out = run_gate(bench([
            {"threads": 1, "cadence_ms": 20.0, "heal_ms": 3.1, "speedup": 1.0},
            {"threads": 4, "cadence_ms": 10.0, "heal_ms": 2.0, "speedup": 1.2},
        ]))
        self.assertEqual(code, 0, out)
        line = line_with(out, "info", "threads=4", "cadence_ms")
        self.assertIsNotNone(line, out)
        self.assertIn("12.10ms", line)
        self.assertIn("10.00ms", line)
        self.assertIsNotNone(line_with(out, "info", "threads=1", "heal_ms"), out)
        # Informational lines sit next to the row's ratio line.
        lines = out.splitlines()
        ratio = lines.index(line_with(out, "threads=4", "speedup "))
        self.assertIn("threads=4", lines[ratio - 1])
        self.assertIn("PASS", out)

    def test_faster_serial_row_still_fails_the_ratio(self):
        # Every row faster in absolute time, yet the pooled/serial ratio
        # falls past the tolerance: the gate still fails, and the log
        # shows both absolute times.
        code, out = run_gate(bench([
            {"threads": 1, "cadence_ms": 6.0, "heal_ms": 1.0, "speedup": 1.0},
            {"threads": 4, "cadence_ms": 7.0, "heal_ms": 1.0, "speedup": 0.86},
        ]))
        self.assertEqual(code, 1, out)
        self.assertIsNotNone(line_with(out, "FAIL", "threads=4", "speedup"), out)
        line = line_with(out, "info", "threads=1", "cadence_ms")
        self.assertIn("23.70ms", line)
        self.assertIn("6.00ms", line)

    def test_missing_ms_column_is_shown_not_gated(self):
        code, out = run_gate(bench([
            {"threads": 1, "heal_ms": 3.0, "speedup": 1.0},
            {"threads": 4, "heal_ms": 2.5, "speedup": 1.14},
        ]))
        self.assertEqual(code, 0, out)
        line = line_with(out, "info", "threads=4", "cadence_ms")
        self.assertTrue(line.rstrip().endswith("fresh -"), line)


FULL_ROWS = [
    {"threads": 1, "cadence_ms": 90.0, "speedup": 1.0},
    {"threads": 4, "cadence_ms": 45.0, "speedup": 2.0},
]
SMOKE_ROWS = [
    {"threads": 1, "cadence_ms": 20.0, "speedup": 1.0},
    {"threads": 4, "cadence_ms": 16.0, "speedup": 1.25},
]


def with_smoke(full_rows, smoke_rows):
    """A baseline as committed: full-mode rows plus a smoke block."""
    doc = bench(full_rows, mode="full")
    doc["smoke"] = bench(smoke_rows, mode="smoke")
    return doc


class ModeMatching(unittest.TestCase):
    def test_smoke_run_is_gated_against_the_smoke_block(self):
        # 1.20x passes against the smoke row (1.25x) though it is far
        # below the full-mode row (2.0x).
        code, out = run_gate(bench([
            {"threads": 1, "cadence_ms": 20.0, "speedup": 1.0},
            {"threads": 4, "cadence_ms": 16.7, "speedup": 1.20},
        ]), with_smoke(FULL_ROWS, SMOKE_ROWS))
        self.assertEqual(code, 0, out)
        line = line_with(out, "ok", "threads=4", "speedup")
        self.assertIn("1.25x", line)
        self.assertIn("'smoke'", out)

    def test_smoke_regression_fails_even_when_it_beats_the_full_row(self):
        # A loose full-mode row (0.5x) would let 0.9x pass; the smoke
        # row (1.25x) catches the 28% loss.
        code, out = run_gate(bench([
            {"threads": 1, "cadence_ms": 20.0, "speedup": 1.0},
            {"threads": 4, "cadence_ms": 22.2, "speedup": 0.90},
        ]), with_smoke([
            {"threads": 1, "cadence_ms": 90.0, "speedup": 1.0},
            {"threads": 4, "cadence_ms": 180.0, "speedup": 0.5},
        ], SMOKE_ROWS))
        self.assertEqual(code, 1, out)
        self.assertIsNotNone(line_with(out, "FAIL", "threads=4", "1.25x"), out)

    def test_full_run_is_gated_against_the_top_level_rows(self):
        code, out = run_gate(bench([
            {"threads": 1, "cadence_ms": 90.0, "speedup": 1.0},
            {"threads": 4, "cadence_ms": 60.0, "speedup": 1.5},
        ], mode="full"), with_smoke(FULL_ROWS, SMOKE_ROWS))
        self.assertEqual(code, 1, out)
        self.assertIsNotNone(line_with(out, "FAIL", "threads=4", "2.00x"), out)

    def test_no_rows_of_the_fresh_mode_is_a_missing_baseline(self):
        code, out = run_gate(bench(SMOKE_ROWS), bench(FULL_ROWS, mode="full"))
        self.assertEqual(code, 2, out)
        self.assertIn("no rows of mode 'smoke'", out)
        self.assertNotIn("PASS", out)


COUNT_BASELINE = bench([
    {"threads": 1, "speedup": 1.0, "count_verdicts": 4480, "count_edges": 98732},
    {"threads": 4, "speedup": 0.8, "count_verdicts": 4480, "count_edges": 98732},
])


def with_counts(verdicts, edges=98732, drop=None):
    rows = [
        {"threads": 1, "speedup": 1.0, "count_verdicts": verdicts,
         "count_edges": edges},
        {"threads": 4, "speedup": 0.8, "count_verdicts": verdicts,
         "count_edges": edges},
    ]
    for row in rows:
        row.pop(drop, None)
    return bench(rows)


class CountColumns(unittest.TestCase):
    def test_equal_counts_pass(self):
        code, out = run_gate(with_counts(4480), COUNT_BASELINE)
        self.assertEqual(code, 0, out)
        self.assertIsNotNone(line_with(out, "ok", "threads=4", "count_edges"), out)
        self.assertIn("PASS", out)

    def test_off_by_one_count_fails(self):
        code, out = run_gate(with_counts(4481), COUNT_BASELINE)
        self.assertEqual(code, 1, out)
        self.assertIsNotNone(
            line_with(out, "FAIL", "threads=1", "count_verdicts"), out)
        self.assertIn("count_verdicts changed (4480 -> 4481)", out)

    def test_a_lower_count_fails_too(self):
        code, out = run_gate(with_counts(4480, edges=98731), COUNT_BASELINE)
        self.assertEqual(code, 1, out)
        self.assertIsNotNone(line_with(out, "FAIL", "count_edges"), out)

    def test_missing_count_column_fails(self):
        code, out = run_gate(with_counts(4480, drop="count_edges"),
                             COUNT_BASELINE)
        self.assertEqual(code, 1, out)
        self.assertIn("column count_edges dropped from fresh run", out)



POOL_BASELINE = dict(bench([
    {"threads": 1, "speedup": 1.0, "count_verdicts": 4480},
    {"threads": 2, "speedup": 0.6, "count_verdicts": 4480},
    {"threads": 4, "speedup": 0.4, "count_verdicts": 4480},
]), pool_cap=4)


def pooled_variant(threads, speedup, edges, pool_cap):
    return dict(bench([
        {"policy": "barrier", "threads": 1, "speedup_vs_barrier": 1.0,
         "count_edges": 98732},
        {"policy": "windowed-pooled", "threads": threads,
         "speedup_vs_barrier": speedup, "count_edges": edges},
    ]), pool_cap=pool_cap)


class PoolCap(unittest.TestCase):
    def test_rows_above_the_fresh_pool_cap_are_skipped(self):
        fresh = dict(bench([
            {"threads": 1, "speedup": 1.0, "count_verdicts": 4480},
            {"threads": 2, "speedup": 0.6, "count_verdicts": 4480},
        ]), pool_cap=2)
        code, out = run_gate(fresh, POOL_BASELINE)
        self.assertEqual(code, 0, out)
        self.assertIsNotNone(line_with(out, "note", "threads=4", "skipped"), out)

    def test_a_row_within_the_cap_still_may_not_go_missing(self):
        fresh = dict(bench([
            {"threads": 1, "speedup": 1.0, "count_verdicts": 4480},
            {"threads": 2, "speedup": 0.6, "count_verdicts": 4480},
        ]), pool_cap=4)
        code, out = run_gate(fresh, POOL_BASELINE)
        self.assertEqual(code, 1, out)
        self.assertIn("threads=4: row present in baseline, missing", out)

    def test_a_row_on_another_pool_size_keeps_only_its_count_gates(self):
        baseline = pooled_variant(4, 0.5, 98732, 4)
        code, out = run_gate(pooled_variant(2, 0.1, 98732, 2), baseline)
        self.assertEqual(code, 0, out)
        self.assertIsNotNone(
            line_with(out, "note", "windowed-pooled", "ratios not gated"), out)
        self.assertIsNotNone(
            line_with(out, "ok", "windowed-pooled", "count_edges"), out)
        code, out = run_gate(pooled_variant(2, 0.5, 98733, 2), baseline)
        self.assertEqual(code, 1, out)
        self.assertIn("count_edges changed (98732 -> 98733)", out)

    def test_a_row_on_the_same_pool_size_is_gated_on_its_ratio(self):
        code, out = run_gate(pooled_variant(4, 0.1, 98732, 4),
                             pooled_variant(4, 0.5, 98732, 4))
        self.assertEqual(code, 1, out)
        self.assertIsNotNone(
            line_with(out, "FAIL", "windowed-pooled", "speedup_vs_barrier"), out)


if __name__ == "__main__":
    unittest.main()
