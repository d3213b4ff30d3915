#!/usr/bin/env python3
"""Self-tests of the served wall-time benchmark.

    python3 perfbench/tests/test_perfbench.py

Builds the benchmark like perfbench/run.py does, then checks:
  - one seed generates one workload, and the layer spans of a replayed
    batch add up to its pool.run time (the binary's --selftest);
  - a short traced run of each workload prints every per-layer metric,
    and its Chrome trace parses and holds every named span;
  - an untraced run prints every end-to-end metric with its unit;
  - the benchmark refuses to measure while a CORTEX_* variable is set.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import run  # noqa: E402  (perfbench/run.py)

ROOT = run.ROOT
END_TO_END = ["latency_p50_ms", "structs_per_s", "slo_attainment", "setup_s",
              "peak_rss_mb"]
COMMON_SPANS = {"setup", "setup.model", "setup.pool", "setup.first_request",
                "pool.run", "replay.shard", "linearizer.linearize",
                "engine.run_linearized", "jit.build", "jit.run_ilir",
                "kernels.gemm", "compile.artifacts"}
SERVED_SPANS = {"setup.server", "request", "loadgen.submit", "server.queue",
                "server.batch"}


def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def run_binary(self, *args, env=None):
        out_dir = run.build_root() / "perfbench-out"
        return subprocess.run(
            [str(self.binary), *args, "--out", str(out_dir)],
            capture_output=True, text=True, timeout=run.RUN_TIMEOUT_S,
            env=env if env is not None else run.child_env())

    def result(self, proc):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        return res

    def test_selftest(self):
        proc = self.run_binary("--selftest")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("selftest: ok", proc.stdout)

    def test_untraced_run_prints_end_to_end_metrics(self):
        proc = self.run_binary("--workload", "dagrnn-grid-offline", "--seed",
                               "5", "--seconds", "1", "--trace", "0")
        res = self.result(proc)
        self.assertEqual(list(res["metrics"]), END_TO_END)
        declared = {m["name"]: m["unit"] for m in benchmark_json()["end_to_end"]}
        for name, m in res["metrics"].items():
            self.assertEqual(m["unit"], declared[name])
            self.assertGreater(m["value"], 0, name)
        for printed in ("latency_p99_ms", "fail_fraction"):
            self.assertIn(printed, proc.stdout)
        self.assertIn("stamp: build_type=Release", proc.stdout)

    def test_traced_runs_emit_every_layer_metric_and_span(self):
        declared = [m["name"] for m in benchmark_json()["per_layer"]]
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                proc = self.run_binary("--workload", w, "--seed", "3",
                                       "--seconds", "1", "--trace", "1")
                res = self.result(proc)
                self.assertEqual(list(res["metrics"]), declared)
                self.assertGreater(res["metrics"]["jit.vs_engine"]["value"], 0)
                trace = (run.build_root() / "perfbench-out" /
                         f"trace-{w}-3.json")
                doc = json.loads(trace.read_text())
                names = {e["name"] for e in doc["traceEvents"]}
                want = COMMON_SPANS | (SERVED_SPANS if w != "dagrnn-grid-offline"
                                       else set())
                self.assertLessEqual(want, names)
                for e in doc["traceEvents"]:
                    self.assertGreaterEqual(e["dur"], 0)
                    self.assertIn("parent", e["args"])
                    self.assertIn("request", e["args"])
                self.assertIn("source_digest", doc["metadata"])

    def test_refuses_cortex_environment(self):
        env = dict(run.child_env(), CORTEX_SERVER_MAX_WAIT_US="1")
        proc = self.run_binary("--workload", "treelstm-sst-light", "--seed",
                               "1", "--seconds", "1", "--trace", "0", env=env)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("CORTEX_SERVER_MAX_WAIT_US", proc.stderr)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
