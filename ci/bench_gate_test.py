#!/usr/bin/env python3
"""Regression tests for ci/bench_gate.py (stdlib only).

These lock the gate's failure contract: a metric that is missing,
non-numeric, or below its floor must FAIL the gate with a readable
message — never pass silently and never die with a traceback. Run with

    python3 ci/bench_gate_test.py
"""

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
import unittest
import unittest.mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_gate  # noqa: E402


def write_json(path, doc):
    with open(path, "w") as f:
        json.dump(doc, f)


def merged_doc(metrics, bench="bench_serve_latency"):
    return {"records": [{"bench": bench, "metrics": metrics}]}


@contextlib.contextmanager
def captured():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        yield out, err


class FloorsGateTest(unittest.TestCase):
    FLOOR = {"bench": "bench_serve_latency", "metric": "speedup",
             "floor": 2.0, "degraded_floor": 1.0, "threads": 1,
             "requires_avx2": False}

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        self.merged = os.path.join(self.tmp.name, "merged.json")
        self.baseline = os.path.join(self.tmp.name, "baseline.json")

    def run_floors(self, metrics, floors=None, avx2=True,
                   bench="bench_serve_latency"):
        write_json(self.merged, merged_doc(metrics, bench=bench))
        write_json(self.baseline,
                   {"floors": floors or [self.FLOOR], "records": []})
        args = argparse.Namespace(merged=self.merged, baseline=self.baseline)
        with unittest.mock.patch.object(bench_gate, "host_has_avx2",
                                        return_value=avx2):
            with captured() as (out, err):
                rc = bench_gate.cmd_floors(args)
        return rc, out.getvalue(), err.getvalue()

    def test_parses_the_checked_in_floors(self):
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            os.pardir, "bench_baseline.json")
        floors = bench_gate.load_floors(path)
        by_metric = {f["metric"]: f for f in floors}
        self.assertEqual(len(floors), 7)
        fleet = by_metric["fleet.scaling_ratio"]
        self.assertEqual((fleet["floor"], fleet["degraded_floor"],
                          fleet["threads"]), (2.4, 0.5, 4))
        self.assertTrue(by_metric["kern.int8_vs_fp32_gemm_rate"]
                        ["requires_avx2"])

    def test_malformed_floors_are_rejected(self):
        bad = dict(self.FLOOR)
        del bad["degraded_floor"]
        rc, _, err = self.run_floors({"speedup": 3.0}, [bad])
        self.assertEqual(rc, 1)
        self.assertIn("missing degraded_floor", err)
        rc, _, err = self.run_floors({"speedup": 3.0},
                                     [dict(self.FLOOR, floor="x")])
        self.assertEqual(rc, 1)
        self.assertIn("bad floors", err)

    def test_clears_floor(self):
        rc, _, _ = self.run_floors({"speedup": 3.0})
        self.assertEqual(rc, 0)

    def test_below_floor_fails(self):
        rc, _, err = self.run_floors({"speedup": 1.5})
        self.assertEqual(rc, 1)
        self.assertIn("below required 2.00", err)

    def test_missing_metric_fails_not_passes(self):
        rc, out, err = self.run_floors({"other": 9.0})
        self.assertEqual(rc, 1)
        self.assertIn("missing from bench_serve_latency record", err)
        self.assertIn("MISSING", out)

    def test_missing_bench_record_fails(self):
        rc, _, err = self.run_floors({"speedup": 3.0}, bench="other")
        self.assertEqual(rc, 1)
        self.assertIn("missing from", err)

    def test_non_numeric_metric_fails_without_traceback(self):
        rc, _, err = self.run_floors({"speedup": "fast"})
        self.assertEqual(rc, 1)
        self.assertIn("non-numeric", err)

    def test_degraded_floor_applies_when_runner_has_fewer_cores(self):
        floor = dict(self.FLOOR, threads=4)
        with unittest.mock.patch.object(bench_gate.os, "cpu_count",
                                        return_value=1):
            rc, _, _ = self.run_floors({"speedup": 1.2}, [floor])
        self.assertEqual(rc, 0)
        with unittest.mock.patch.object(bench_gate.os, "cpu_count",
                                        return_value=8):
            rc, _, _ = self.run_floors({"speedup": 1.2}, [floor])
        self.assertEqual(rc, 1)

    def test_avx2_floor_skipped_without_avx2(self):
        floor = dict(self.FLOOR, requires_avx2=True)
        rc, out, _ = self.run_floors({"speedup": 1.5}, [floor], avx2=False)
        self.assertEqual(rc, 0)
        self.assertIn("no AVX2", out)
        rc, _, _ = self.run_floors({"speedup": 1.5}, [floor], avx2=True)
        self.assertEqual(rc, 1)


class CheckGateTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        self.merged = os.path.join(self.tmp.name, "merged.json")
        self.baseline = os.path.join(self.tmp.name, "baseline.json")

    def run_check(self, current_metrics, baseline_metrics, tolerance=0.25):
        write_json(self.merged, merged_doc(current_metrics, bench="b"))
        write_json(self.baseline,
                   {"records": [{"bench": "b", "metrics": baseline_metrics}]})
        args = argparse.Namespace(merged=self.merged, baseline=self.baseline,
                                  tolerance=tolerance)
        with captured() as (out, err):
            rc = bench_gate.cmd_check(args)
        return rc, out.getvalue(), err.getvalue()

    def test_within_tolerance_passes(self):
        rc, _, _ = self.run_check({"ms": 1.2}, {"ms": 1.0})
        self.assertEqual(rc, 0)

    def test_regression_fails(self):
        rc, _, err = self.run_check({"ms": 1.6}, {"ms": 1.0})
        self.assertEqual(rc, 1)
        self.assertIn("vs baseline", err)

    def test_baseline_metric_missing_from_merged_fails(self):
        rc, _, err = self.run_check({"other": 1.0}, {"ms": 1.0})
        self.assertEqual(rc, 1)
        self.assertIn("missing from merged results", err)

    def test_non_numeric_current_value_fails_without_traceback(self):
        rc, _, err = self.run_check({"ms": None}, {"ms": 1.0})
        self.assertEqual(rc, 1)
        self.assertIn("non-numeric", err)

    def test_per_metric_tolerance_object(self):
        rc, _, _ = self.run_check({"ms": 1.9}, {"ms": {"value": 1.0,
                                                       "tolerance": 1.0}})
        self.assertEqual(rc, 0)
        rc, _, _ = self.run_check({"ms": 2.1}, {"ms": {"value": 1.0,
                                                       "tolerance": 1.0}})
        self.assertEqual(rc, 1)


class MergeTest(unittest.TestCase):
    def test_merge_sorts_and_rejects_unreadable_records(self):
        with tempfile.TemporaryDirectory() as tmp:
            write_json(os.path.join(tmp, "b.json"), {"bench": "zeta"})
            write_json(os.path.join(tmp, "a.json"), {"bench": "alpha"})
            out_path = os.path.join(tmp, "merged.json")
            args = argparse.Namespace(dir=tmp, output=out_path)
            with captured():
                self.assertEqual(bench_gate.cmd_merge(args), 0)
            with open(out_path) as f:
                doc = json.load(f)
            self.assertEqual([r["bench"] for r in doc["records"]],
                             ["alpha", "zeta"])

            with open(os.path.join(tmp, "broken.json"), "w") as f:
                f.write("{not json")
            with captured():
                self.assertEqual(bench_gate.cmd_merge(args), 1)


class SpeedupGateTest(unittest.TestCase):
    def run_speedup(self, rec, min_speedup=1.3, degraded=0.45):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "timing.json")
            write_json(path, rec)
            args = argparse.Namespace(timing=path, min_speedup=min_speedup,
                                      min_speedup_degraded=degraded)
            with captured() as (_, err):
                rc = bench_gate.cmd_speedup(args)
            return rc, err.getvalue()

    def test_divergent_metrics_fail_even_with_good_speedup(self):
        rc, err = self.run_speedup({"bench": "b", "threads": 1,
                                    "speedup": 9.0,
                                    "identical_metrics": False})
        self.assertEqual(rc, 1)
        self.assertIn("identical_metrics", err)

    def test_identical_metrics_and_speedup_pass(self):
        rc, _ = self.run_speedup({"bench": "b", "threads": 1, "speedup": 2.0,
                                  "identical_metrics": True})
        self.assertEqual(rc, 0)


if __name__ == "__main__":
    unittest.main()
