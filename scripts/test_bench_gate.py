#!/usr/bin/env python3
"""Tests for the bench regression gate (``scripts/bench_gate.py``) and
the perfbench exact-cell gate (``scripts/perfbench_gate.py``).

Each bench-gate case writes a baseline and a fresh ``BENCH_*.json``
into temporary directories and checks the gate's exit status; each
perfbench case checks one result line against pinned cells. Standard
library only:

    python3 scripts/test_bench_gate.py
"""

import contextlib
import importlib.util
import io
import json
import tempfile
import unittest
from pathlib import Path


def _load(name):
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).resolve().parent / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_gate = _load("bench_gate")
perfbench_gate = _load("perfbench_gate")

TOLERANCE = 0.25


def report(cell, headers=("case", "latency")):
    return {"id": "x", "title": "x", "headers": list(headers), "rows": [["warm", cell]]}


class GateTest(unittest.TestCase):
    def run_gate(self, baselines, fresh):
        """Writes `{name: report}` maps into temp dirs; returns the
        gate's exit status."""
        with tempfile.TemporaryDirectory() as tmp:
            base_dir, fresh_dir = Path(tmp, "base"), Path(tmp, "fresh")
            for directory, reports in ((base_dir, baselines), (fresh_dir, fresh)):
                directory.mkdir()
                for name, body in reports.items():
                    (directory / name).write_text(json.dumps(body))
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                io.StringIO()
            ):
                return bench_gate.gate(base_dir, fresh_dir, TOLERANCE)

    def test_in_band_drift_passes(self):
        self.assertEqual(
            self.run_gate({"BENCH_a.json": report("100us")}, {"BENCH_a.json": report("120us")}),
            0,
        )

    def test_out_of_band_drift_fails(self):
        self.assertEqual(
            self.run_gate({"BENCH_a.json": report("100us")}, {"BENCH_a.json": report("130us")}),
            1,
        )

    def test_shape_change_fails(self):
        self.assertEqual(
            self.run_gate(
                {"BENCH_a.json": report("100us")},
                {"BENCH_a.json": report("100us", headers=("case", "p50"))},
            ),
            1,
        )

    def test_missing_baseline_fails(self):
        self.assertEqual(
            self.run_gate(
                {"BENCH_a.json": report("100us")},
                {"BENCH_a.json": report("100us"), "BENCH_b.json": report("1us")},
            ),
            1,
        )

    def test_missing_fresh_report_fails(self):
        self.assertEqual(
            self.run_gate(
                {"BENCH_a.json": report("100us"), "BENCH_b.json": report("1us")},
                {"BENCH_a.json": report("100us")},
            ),
            1,
        )


def result(p99=5190, correct=True):
    """A perfbench result line with two of its deterministic cells."""
    return {
        "correct": correct,
        "metrics": {
            "op_virtual_p99_us": {"value": p99, "unit": "virtual_us"},
            "allocs_per_op": {"value": 45.24, "unit": "count"},
            "ops_per_s": {"value": 60000.0, "unit": "ops/s"},
        },
    }


PINNED = {"op_virtual_p99_us": 5190, "allocs_per_op": 45.24}


class PerfbenchGateTest(unittest.TestCase):
    def test_exact_cells_pass(self):
        self.assertEqual(perfbench_gate.check(PINNED, result()), [])

    def test_one_unit_drift_fails(self):
        self.assertEqual(len(perfbench_gate.check(PINNED, result(p99=5191))), 1)
        self.assertEqual(len(perfbench_gate.check(PINNED, result(p99=5189))), 1)

    def test_missing_cell_fails(self):
        self.assertEqual(
            len(perfbench_gate.check(dict(PINNED, heap_bytes_per_home=1), result())), 1
        )

    def test_incorrect_result_fails(self):
        self.assertEqual(len(perfbench_gate.check(PINNED, result(correct=False))), 1)


if __name__ == "__main__":
    unittest.main()
