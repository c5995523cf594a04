#!/usr/bin/env python3
"""Tests for the bench regression gate (``scripts/bench_gate.py``).

Each case writes a baseline and a fresh ``BENCH_*.json`` into temporary
directories and checks the gate's exit status. Standard library only:

    python3 scripts/test_bench_gate.py
"""

import contextlib
import importlib.util
import io
import json
import tempfile
import unittest
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "bench_gate", Path(__file__).resolve().parent / "bench_gate.py"
)
bench_gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_gate)

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


if __name__ == "__main__":
    unittest.main()
