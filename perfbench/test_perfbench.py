#!/usr/bin/env python3
"""The benchmark's own test.

Tiny passes of every workload emit every declared metric with its unit,
each output check rejects a tampered result, and run.py refuses to run
where the program's sources are missing. Run from the repository root:

    python3 perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def bench(self, workload, *extra, trace=False, tiny=True, seconds=1):
        """Run the workload binary; returns (exit code, result, stderr)."""
        command = [self.binary, "--workload", workload, "--seed", "4",
                   "--seconds", str(seconds), "--trace", "1" if trace else "0",
                   *extra]
        if tiny:
            command.append("--tiny")
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=run.RUN_TIMEOUT_S)
        return (done.returncode, json.loads(done.stdout.splitlines()[-1]),
                done.stderr)

    def test_every_metric_is_emitted_with_its_unit(self):
        for workload in run.WORKLOADS:
            for trace in (False, True):
                with self.subTest(workload=workload, trace=trace):
                    code, result, _ = self.bench(workload, trace=trace)
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(run.validate(result, trace), [])

    def assert_rejected(self, workload, tamper, message, failed=0,
                        **kwargs):
        """The tampered run fails with `message`, reports no metrics, and
        counts `failed` failed ops (a check after the ops fails none)."""
        code, result, stderr = self.bench(workload, "--tamper", tamper,
                                          **kwargs)
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["metrics"], {})
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], failed)
        self.assertIn(message, stderr)

    def test_one_message_missing_is_rejected(self):
        self.assert_rejected("durable_pull", "drop-message", "messages",
                             failed=1)
        self.assert_rejected("contact_storm", "drop-message",
                             "pushed messages")

    def test_digest_with_one_bit_flipped_is_rejected(self):
        self.assert_rejected("durable_pull", "flip-digest", "digest")
        self.assert_rejected("contact_storm", "flip-digest", "digest")

    def test_489_of_490_delivered_is_rejected(self):
        self.assert_rejected("paper_epidemic", "undeliver",
                             "delivered 489 of 490", tiny=False)

    def test_refuses_to_run_without_the_program_sources(self):
        bare = os.path.join(run.build_dir(), "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "durable_pull",
             "--seed", "4", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, capture_output=True, text=True, timeout=180)
        shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
