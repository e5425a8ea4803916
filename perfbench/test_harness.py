"""Smoke tests of the benchmark harness on reduced inputs.

    python3 -m pytest perfbench/test_harness.py
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

import run

if not run._import_ptmc():
    raise ImportError("ptmc sources not found next to the benchmark")

import harness  # noqa: E402
from spans import NULL, Tracer  # noqa: E402
from workloads import WORKLOADS, Job, expect  # noqa: E402

# the layer each workload is built to stress, by self time in a traced pass
STRESSED = {"torus-build": "metric.truncated_ball", "torus-verify": "codes.verify_kappa_ptmc",
            "hive-cover": "cover.search", "compound-growth": "gamma2.extend_2ptmc"}


def run_and_check(jobs, tr, pass_no, deadline):
    records, outputs = harness.run_pass(jobs, tr, pass_no, deadline)
    harness.check_pass(jobs, records, outputs)
    return records


class WorkloadSmokeTest(unittest.TestCase):
    def test_each_workload_passes_untraced_and_traced(self):
        with tempfile.TemporaryDirectory() as tmp:
            for name, workload in WORKLOADS.items():
                with self.subTest(workload=name):
                    inputs = workload.setup(3, Path(tmp) / name, smoke=True)
                    deadline = time.perf_counter() + 60
                    plain = run_and_check(workload.jobs(inputs, NULL), NULL, 0, deadline)
                    self.assertEqual([r.error for r in plain], [None] * len(plain))
                    tracer = Tracer()
                    traced = run_and_check(workload.jobs(inputs, tracer), tracer, 1, deadline)
                    self.assertEqual([r.error for r in traced], [None] * len(traced))
                    layers = tracer.pass_metrics(1)
                    self.assertGreater(layers[f"{STRESSED[name]}.self_s"], 0)
                    self.assertGreater(layers["job.self_s"], 0)

    def test_tracing_restores_every_binding(self):
        import ptmc.cover
        original = ptmc.cover.solve
        tracer = Tracer()
        tracer.install()
        self.assertIsNot(ptmc.cover.solve, original)
        tracer.restore()
        self.assertIs(ptmc.cover.solve, original)

    def test_self_time_excludes_children(self):
        tracer = Tracer()
        with tracer.span("job"):
            with tracer.span("cli.main"):
                time.sleep(0.02)
        layers = tracer.pass_metrics(0)
        self.assertGreaterEqual(layers["cli.main.self_s"], 0.02)
        self.assertLess(layers["job.self_s"], 0.01)


class FailureAccountingTest(unittest.TestCase):
    def test_failures_are_recorded_and_the_pass_goes_on(self):
        def boom():
            raise RecursionError("deep")

        def spin():
            while True:
                pass

        jobs = [Job("raises", boom, lambda out: None),
                Job("wrong", lambda: 1, lambda out: expect(out == 2, "want 2")),
                Job("slow", spin, lambda out: None),
                Job("fine", lambda: 2, lambda out: expect(out == 2, "want 2"))]
        saved = harness.JOB_LIMIT_S
        harness.JOB_LIMIT_S = 0.2
        try:
            records = run_and_check(jobs, NULL, 0, time.perf_counter() + 30)
        finally:
            harness.JOB_LIMIT_S = saved
        errors = [r.error for r in records]
        self.assertTrue(errors[0].startswith("RecursionError"))
        self.assertEqual(errors[1:], ["check: want 2", "timeout", None])


class CommandTest(unittest.TestCase):
    def test_refuses_to_run_without_ptmc_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            bench = Path(tmp) / "perfbench"
            bench.mkdir()
            for f in run.HERE.glob("*.py"):
                shutil.copy(f, bench)
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "hive-cover",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
