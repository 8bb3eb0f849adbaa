#!/usr/bin/env python3
"""Tests of the benchmark itself: its failure accounting, and a short smoke
run of each workload through the real driver.

    python3 perfbench/test_perfbench.py

The smoke tests build the driver first (see run.py) and take about a
minute after the build.
"""
import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def clean_doc(epochs=6, workload="lockstep_fmnist"):
    """A run document that passes every check."""
    records = []
    for i in range(epochs):
        records.append({
            "epoch": i + 1, "decide_start": 0.1 * i, "decide_s": 1e-4,
            "advance_s": 0.0, "observe_s": 1e-5, "available": 10,
            "selected": 4, "spent": 10.0 * i, "cohort_cost": 10.0,
            "subset_ok": True, "observed": True, "train_loss_all": 2.0,
            "train_loss_selected": 2.0, "test_loss": 2.1,
            "test_accuracy": 0.3, "client_iters": 8,
        })
    return {
        "workload": workload, "budget": 100.0, "n_min": 4,
        "epochs": records, "termination_reason": "budget_exhausted",
        "anomalies": [{"monitor": "estimator_drift", "epoch": 3,
                       "hard": False}],
        "trace": [[i + 1, 1.0 * (i + 1), 0.3, 10.0 * (i + 1)]
                  for i in range(epochs)],
        "digests": ["%016x" % (i + 1) for i in range(epochs)],
    }


class FailureAccounting(unittest.TestCase):
    def test_clean_run_passes(self):
        doc = clean_doc()
        self.assertEqual(run.check_run(doc, copy.deepcopy(doc)), (6, 0, []))

    def test_mismatched_digest_fails_from_the_departure(self):
        doc = clean_doc()
        ref = copy.deepcopy(doc)
        ref["digests"][2] = "ffffffffffffffff"
        attempted, failed, problems = run.check_run(doc, ref)
        self.assertEqual((attempted, failed), (6, 4))
        self.assertIn("epoch 2", problems[0])

    def test_reference_prefix_is_compared(self):
        doc = clean_doc()
        ref = copy.deepcopy(doc)
        ref["digests"] = ref["digests"][:3]
        self.assertEqual(run.check_run(doc, ref, 3)[1], 0)
        ref["digests"][1] = "0"
        self.assertEqual(run.check_run(doc, ref, 3)[1], 5)

    def test_overdrawn_cohort_fails(self):
        doc = clean_doc()
        doc["epochs"][4]["cohort_cost"] = 70.0  # 40 spent + 70 > C=100
        self.assertEqual(run.check_run(doc)[1], 1)

    def test_overdrawn_ledger_at_decide_and_end_fails(self):
        doc = clean_doc()
        doc["epochs"][5]["spent"] = 100.5
        doc["trace"][-1][3] = 100.5
        attempted, failed, problems = run.check_run(doc)
        self.assertEqual(failed, 1)
        self.assertEqual(len(problems), 3)

    def test_non_finite_outcome_fails(self):
        doc = clean_doc()
        doc["epochs"][1]["test_loss"] = None  # NaN is written as null
        doc["epochs"][3]["train_loss_all"] = float("inf")
        doc["epochs"][4]["test_accuracy"] = 1.5
        self.assertEqual(run.check_run(doc)[1], 3)

    def test_unobserved_and_foreign_selection_fail(self):
        doc = clean_doc()
        doc["epochs"][0]["observed"] = False
        doc["epochs"][1]["subset_ok"] = False
        self.assertEqual(run.check_run(doc)[1], 2)

    def test_n_floor_needs_a_reason(self):
        doc = clean_doc()
        doc["epochs"][2]["selected"] = 2        # 10 available: a failure
        doc["epochs"][3].update(selected=1, available=1)  # E_t < n: stated
        self.assertEqual(run.check_run(doc)[1], 1)

    def test_run_level_failures_count(self):
        doc = clean_doc()
        doc["termination_reason"] = "crashed"
        doc["anomalies"].append({"monitor": "budget_pacing", "epoch": 6,
                                 "hard": True})
        attempted, failed, problems = run.check_run(doc)
        self.assertEqual(failed, 1)
        self.assertEqual(len(problems), 2)


class Statistics(unittest.TestCase):
    def test_tail_leaves_ten_samples_beyond(self):
        value, pct, n = run.tail(list(range(100)))
        self.assertEqual((value, n), (89, 100))
        self.assertAlmostEqual(pct, 90.0)
        self.assertEqual(run.tail([3, 1, 2]), (3, 100.0, 3))


def run_bench(*args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(args))
    lines = out.getvalue().strip().splitlines()
    return code, json.loads(lines[-1]) if lines else None


class Smoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.driver = run.build_driver()

    def test_each_workload_end_to_end(self):
        for workload in sorted(run.WORKLOADS):
            with self.subTest(workload=workload):
                code, result = run_bench("--workload", workload, "--seed",
                                         "3", "--seconds", "1", "--trace",
                                         "0", "--epochs", "3")
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(sorted(result["metrics"]),
                                 sorted(n for n, _ in run.END_TO_END))
                for m in result["metrics"].values():
                    self.assertGreater(m["value"], 0)

    def test_traced_run_reports_every_layer(self):
        code, result = run_bench("--workload", "event_fmnist_quant8",
                                 "--seed", "2", "--seconds", "1", "--trace",
                                 "1", "--epochs", "4")
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(sorted(result["metrics"]),
                         sorted(n for n, _ in run.PER_LAYER))
        self.assertGreater(result["metrics"]["fl.async.run.s"]["value"], 0)

    def test_other_seed_is_a_mismatched_reference(self):
        with tempfile.TemporaryDirectory(dir=run.build_dir()) as tmp:
            docs = [run.run_driver(self.driver, tmp, "s%d" % s,
                                   workload="lockstep_fmnist", seed=s,
                                   epochs=2, threads=1) for s in (1, 2)]
        self.assertEqual(run.check_run(docs[0], docs[0])[1], 0)
        self.assertEqual(run.check_run(docs[0], docs[1])[1], 2)

    def test_timed_subclass_keeps_fedl_digests(self):
        for workload in ("lockstep_fmnist", "event_fmnist_quant8"):
            with self.subTest(workload=workload):
                with tempfile.TemporaryDirectory(dir=run.build_dir()) as tmp:
                    proc = subprocess.run(
                        [self.driver, "--workload", workload, "--parity", "1",
                         "--epochs", "4", "--out", os.path.join(tmp, "p")],
                        capture_output=True, text=True, timeout=120)
                self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_driver_rejects_unknown_flags(self):
        proc = subprocess.run([self.driver, "--workload", "select_1m",
                               "--out", "x", "--thread", "4"],
                              capture_output=True, text=True, timeout=60)
        self.assertEqual(proc.returncode, 2)
        self.assertIn("unknown flag --thread", proc.stderr)


if __name__ == "__main__":
    unittest.main()
