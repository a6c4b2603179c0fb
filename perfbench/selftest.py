"""Self-tests of the benchmark's own instruments.

Run from the root of a checkout with ``python3 perfbench/selftest.py``.
They check the exact reference, the tracer's counts, the result checks
and the agreement of ``BENCHMARK.json`` with the code; they take about
half a minute and are not part of the package's test suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from unittest import mock
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))

from brownian_unicycle import (NoiseParams, SpeedRatioProfile, cli,  # noqa: E402
                               general_moments, low_moments, trajectory)

import reference  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


class ReferenceTest(unittest.TestCase):
    def test_reproduces_closed_forms(self):
        for mu0 in (0.0, 5.0):
            for k in (0.01, 1.0):
                for s in (0.3, 1.0):
                    self.assertEqual(reference.self_check(mu0, k, s), [])

    def test_matches_quadrature_below_dimension_five(self):
        profile = SpeedRatioProfile.constant(5.0)
        params = NoiseParams(0.5, 0.5)
        for p, q in ((1, 1), (2, 0), (2, 2), (3, 1)):
            value, magnitude = reference.exact_moment(p, q, 5.0, 0.5, 0.9)
            got = general_moments.displacement_heading_moment(p, q, 0, profile,
                                                              params, 0.9)
            self.assertLess(abs(got.value - value), 1e-12 * magnitude)


class TracerTest(unittest.TestCase):
    def test_quadrature_calls_match_enumeration(self):
        orders = ((1, 1, 0), (2, 0, 0), (2, 2, 0), (3, 1, 1))
        profile = SpeedRatioProfile.constant(5.0)
        params = NoiseParams(1.0, 1.0)
        with Tracer() as tracer:
            for p, q, r in orders:
                general_moments.displacement_heading_moment(p, q, r, profile,
                                                            params, 1.0)
        expected = workloads.expected_quadrature_calls(1, orders)
        for beta, want in expected.items():
            self.assertEqual(tracer.calls[f"quadrature.b{beta}"], want, beta)
        self.assertGreater(tracer.counts["quadrature.points.b4"], 0)

    def test_restores_attributes_and_nests_self_time(self):
        before = (low_moments.mean_x, trajectory.mean_heading, cli.load_config)
        with Tracer() as tracer:
            self.assertIsNot(low_moments.mean_x, before[0])
            tracer.call("outer", low_moments.mean_x,
                        SpeedRatioProfile.constant(1.0), NoiseParams(0.1, 0.1), 0.5)
        self.assertEqual((low_moments.mean_x, trajectory.mean_heading,
                          cli.load_config), before)
        self.assertLessEqual(tracer.self_s["outer"] + tracer.total_s["low_moments"],
                             tracer.total_s["outer"] * (1 + 1e-9))
        self.assertEqual(tracer.calls["quadrature.b1"], 1)
        self.assertEqual(tracer.missing, set())

    def test_names_attributes_it_cannot_wrap(self):
        with mock.patch.object(cli, "load_config", None):
            with Tracer() as tracer:
                pass
        self.assertEqual(tracer.missing, {"brownian_unicycle.cli.load_config"})


class CheckTest(unittest.TestCase):
    point = (workloads.CONSTANT, NoiseParams(0.3, 0.3), 0.7)

    def values(self):
        args = self.point
        return (low_moments.mean_x(*args), low_moments.mean_y(*args),
                low_moments.second_moments(*args), low_moments.cov_xtheta(*args),
                low_moments.cov_ytheta(*args))

    def test_point_check_accepts_program_and_rejects_perturbation(self):
        values = self.values()
        self.assertIsNone(workloads.check_point(self.point, values))
        for index in (0, 1, 3, 4):
            wrong = list(values)
            wrong[index] *= 1 + 1e-6
            self.assertIsNotNone(workloads.check_point(self.point, tuple(wrong)))

    def test_cli_check_rejects_bad_exit_and_wrong_variance(self):
        ref = {"d2": 1.0, "d4": 1.0}
        self.assertIsNotNone(workloads.check_cli("ramp", ("d2",), 4, "", "x", ref))
        out = json.dumps({"value": 2.0, "variance_d2": 1.4681})
        self.assertIsNotNone(workloads.check_cli("ramp", ("d4",), 0, out, "", ref))
        out = json.dumps({"value": 2.0, "variance_d2": 1.4653368})
        self.assertIsNone(workloads.check_cli("ramp", ("d4",), 0, out, "", ref))


class ContractTest(unittest.TestCase):
    def test_benchmark_json_lists_what_the_code_reports(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual(layers, {n: workloads.layer_unit(n)
                                  for n in workloads.LAYER_METRICS})
        outcome = workloads.Outcome(pass_s=[1.0], pass_op_ms=[[1.0, 2.0]])
        e2e = {"setup_s": "s", "peak_rss_mb": "MB"}
        e2e.update({n: u for n, (_, u) in outcome.end_to_end().items()})
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, e2e)
        self.assertEqual({w["name"] for w in spec["workloads"]},
                         set(workloads.WORKLOADS))

    def test_fails_without_package_source(self):
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.ROOT / "perfbench", Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "low_order",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)

    def test_short_run_prints_result_last(self):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "low_order",
             "--seed", "7", "--seconds", "1", "--trace", "0"],
            cwd=run.ROOT, capture_output=True, text=True, timeout=170)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()
