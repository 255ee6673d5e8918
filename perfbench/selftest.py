"""Self-test of the benchmark: span arithmetic, tracer hygiene, and every
workload end to end at a tiny size.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans as tr  # noqa: E402
from gen import WORKLOADS  # noqa: E402


def S(name, start, end, parent, attrs=None, run="r0"):
    return [name, start, end, parent, run, attrs]


class SpanArithmetic(unittest.TestCase):
    """A hand-built tree:

        bench.job            0..100
          train.train       10..90
            optim.apply_phase 12..14   (phase 1)
            layers.conv2d.fwd 20..50
              tensor.pad_amounts 25..30
            optim.apply_phase 55..56   (phase 2)
            layers.conv2d.bwd 60..80
    """

    def setUp(self):
        self.spans = [
            S("bench.job", 0, 100, -1),
            S("train.train", 10, 90, 0),
            S("optim.apply_phase", 12, 14, 1, {"phase": 1}),
            S("layers.conv2d.fwd", 20, 50, 1, {"flop": 10}),
            S("tensor.pad_amounts", 25, 30, 3),
            S("optim.apply_phase", 55, 56, 1, {"phase": 2}),
            S("layers.conv2d.bwd", 60, 80, 1,
              {"flop": 20, "f64": 1, "frozen": 1}),
        ]

    def test_self_time_subtracts_direct_children_only(self):
        self.assertEqual(tr.self_times(self.spans),
                         [20, 80 - 2 - 30 - 1 - 20, 2, 25, 5, 1, 20])

    def test_descendants_and_phase(self):
        mask = tr.descendants(self.spans, [1])
        self.assertEqual(mask, [False] + [True] * 6)
        self.assertEqual(tr.phase_of(self.spans, mask), [0, 0, 1, 1, 1, 2, 2])

    def test_shares_sum_to_100_and_honour_phase_and_group(self):
        own = tr.self_times(self.spans)
        whole = tr.shares(self.spans, own)
        self.assertAlmostEqual(sum(whole.values()), 100.0)
        self.assertAlmostEqual(whole["layers"], 45.0)  # (25 + 20) / 100
        conv = ("conv", lambda s: s[0].startswith("layers.conv2d."), 2)
        phase2 = tr.shares(self.spans, own, conv)
        self.assertEqual(set(phase2), {"optim", "conv"})
        self.assertAlmostEqual(phase2["conv"], 100.0 * 20 / 21)

    def test_train_breakdown_parts_add_up(self):
        spans = [
            S("train.train", 0, 100, -1),
            S("optim.make_optimizer", 1, 2, 0),
            S("optim.apply_phase", 2, 3, 0, {"phase": 1}),
            S("models.Model.forward", 10, 20, 0, {"train": True}),
            S("models.Model.backward", 22, 30, 0),
            S("optim.Optimizer.step", 30, 35, 0, {"params": 1}),
            S("models.Model.forward", 40, 45, 0, {"train": True}),
            S("optim.Optimizer.step", 47, 50, 0, {"params": 1}),
            S("train.evaluate_arrays", 55, 65, 0),
            S("models.Model.forward", 56, 60, 8, {"train": False}),
            S("optim.apply_phase", 70, 71, 0, {"phase": 2}),
            S("models.Model.forward", 72, 80, 0, {"train": True}),
            S("optim.Optimizer.step", 80, 90, 0, {"params": 1}),
        ]
        children = {}
        for i, s in enumerate(spans):
            if s[3] >= 0:
                children.setdefault(s[3], []).append(i)
        steps, parts = tr.train_breakdown(spans, children)
        self.assertEqual(steps, {(1, True): [25], (1, False): [10],
                                 (2, True): [18]})
        self.assertEqual(parts, {"first_steps": 43, "steady_steps": 10,
                                 "evaluate": 10, "rest": 37})

    def test_quantile_summary_needs_ten_samples_beyond(self):
        self.assertEqual(tr.quantile_summary(range(19))[1:], (None, None))
        med, label, value = tr.quantile_summary(range(1, 101))
        self.assertEqual((med, label, value), (50.5, "p90", 90))
        self.assertEqual(tr.quantile_summary(range(1, 1001))[1:], ("p99", 990))


class TracerHygiene(unittest.TestCase):
    def test_uninstall_restores_every_binding(self):
        sys.path.insert(0, os.path.join(ROOT, "src"))
        from pednet import (checkpoint, cli, data, layers, metrics, models,
                            optim, tensor, train)
        mods = {m.__name__.rsplit(".", 1)[1]: m for m in
                (tensor, layers, models, optim, train, data, metrics,
                 checkpoint, cli)}
        before = {(name, attr): value for name, m in mods.items()
                  for attr, value in vars(m).items()}
        methods = (models.Model.forward, layers.Conv2D.backward,
                   optim.Optimizer.step)
        tracer = tr.Tracer()
        tracer.install(mods)
        self.assertIsNot(cli.build_model, before[("models", "build_model")])
        self.assertIs(cli.build_model, models.build_model)
        tracer.uninstall()
        after = {(name, attr): value for name, m in mods.items()
                 for attr, value in vars(m).items()}
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)
        self.assertEqual(methods, (models.Model.forward,
                                   layers.Conv2D.backward,
                                   optim.Optimizer.step))


def run_bench(cwd, *args):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


class TinyWorkloads(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            cls.bench = json.load(f)

    def check(self, workload, trace):
        proc = run_bench(ROOT, "--workload", workload, "--seed", "3",
                         "--seconds", "1", "--trace", str(trace),
                         "--scale", "tiny")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        wanted = self.bench["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
        return proc.stdout

    def test_every_workload(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=0):
                self.check(workload, 0)
            with self.subTest(workload=workload, trace=1):
                out = self.check(workload, 1)
                self.assertIn("is the largest share", out)

    def test_without_the_program_it_fails_without_a_result(self):
        bare = os.path.join(ROOT, ".perfbench", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            proc = run_bench(bare, "--workload", "custom-train", "--seed", "0",
                             "--seconds", "1", "--trace", "0")
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
