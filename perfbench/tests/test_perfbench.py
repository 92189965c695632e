"""Self-tests of the fugusim benchmark (perfbench/).

Run from the root of a checkout:

    python3 -m unittest discover -s perfbench/tests -v

The first group checks BENCHMARK.json and the output check without
running the simulator. The second group builds perfbench/fugubench
(as run.py does) and runs the layer drivers and short workload runs.
"""

import copy
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
HELD_OUT_SEED = 1000


def fake_raw(workload, seed, passes=3):
    """A fugubench result whose outputs are exactly the recorded ones."""
    rec = run.load_expected(workload)["seeds"][str(seed)]
    outputs = [dict(o, events=1) for o in rec["outputs"]]
    return {
        "workload": workload,
        "seed": seed,
        "passes": passes,
        "ops": passes * len(outputs),
        "ops_failed": 0,
        "failures": [],
        "outputs": outputs,
        "sim": dict(rec["sim"]),
        "host_ns_per_msg": [1000.0, 1100.0],
        "setup_s": [1e-4, 2e-4],
        "peak_rss_mb": 4.0,
        "measured_s": 1.0,
        "meta": {},
    }


class SpecTest(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()

    def test_metric_names_unique_and_well_formed(self):
        names = [m["name"] for m in self.spec["end_to_end"]]
        names += [m["name"] for m in self.spec["per_layer"]]
        names += [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME_RE)
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT_RE)
            self.assertIn(m["better"], ("lower", "higher"))

    def test_end_to_end_bounds_and_setup(self):
        e2e = {m["name"]: m for m in self.spec["end_to_end"]}
        self.assertEqual(e2e["setup_s"]["unit"], "s")
        self.assertEqual(e2e["setup_s"]["better"], "lower")
        for m in e2e.values():
            self.assertGreater(m["bound"], 0)
            self.assertLessEqual(m["bound"], 0.25)
        self.assertEqual(e2e["setup_s"]["bound"],
                         max(m["bound"] for m in e2e.values()))

    def test_emitted_end_to_end_metrics_match_spec(self):
        got = run.end_to_end_metrics(fake_raw("fig10_buffered", 1))
        want = [m["name"] for m in self.spec["end_to_end"]]
        self.assertEqual(sorted(got), sorted(want))

    def test_every_workload_has_recorded_outputs(self):
        for w in self.spec["workloads"]:
            exp = run.load_expected(w["name"])
            self.assertIn("1", exp["seeds"], w["name"])
            self.assertNotIn(str(HELD_OUT_SEED), exp["seeds"], w["name"])


class OutputCheckTest(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()
        self.exp = run.load_expected("fig10_buffered")

    def test_recorded_output_passes(self):
        failed, problems = run.check_outputs(
            fake_raw("fig10_buffered", 1), self.exp)
        self.assertEqual((failed, problems), (0, []))

    def test_perturbed_expected_output_is_a_failed_op(self):
        raw = fake_raw("fig10_buffered", 1, passes=3)
        bad = copy.deepcopy(self.exp)
        bad["seeds"]["1"]["outputs"][5]["cycles"] += 1
        failed, problems = run.check_outputs(raw, bad)
        self.assertEqual(failed, 3)  # trial 5 ran in all three passes
        self.assertTrue(any("cycles" in p for p in problems))
        result, _ = run.evaluate(raw, 0, self.spec, bad)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 3)

    def test_perturbed_run_output_is_a_failed_op(self):
        raw = fake_raw("fig10_buffered", 1)
        raw["outputs"][0]["buffered"] += 1
        raw["outputs"][0]["direct"] -= 1
        result, problems = run.evaluate(raw, 0, self.spec, self.exp)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertTrue(problems)

    def test_a_failed_run_counts_once(self):
        # fugubench failed two runs of trial 0 (e.g. replay drift);
        # the output check fails all three runs of trial 0 as well.
        raw = fake_raw("fig10_buffered", 1, passes=3)
        raw["outputs"][0]["failed_runs"] = 2
        raw["ops_failed"] = 2
        result, _ = run.evaluate(raw, 0, self.spec, self.exp)
        self.assertEqual(result["failed"], 2)
        raw["outputs"][0]["cycles"] += 1
        result, _ = run.evaluate(raw, 0, self.spec, self.exp)
        self.assertEqual(result["failed"], 3)

    def test_lost_message_is_a_failed_op(self):
        raw = fake_raw("fig10_buffered", 1)
        raw["outputs"][2]["direct"] -= 1  # delivered != sent
        failed, _ = run.check_outputs(raw, {"seeds": {}})
        self.assertGreater(failed, 0)

    def test_held_out_seed_uses_the_envelope(self):
        # Leave seed 1 out of the record: its figures must still fall
        # in the range the other recorded seeds span.
        raw = fake_raw("fig10_buffered", 1)
        held = copy.deepcopy(self.exp)
        del held["seeds"]["1"]
        self.assertEqual(run.check_outputs(raw, held), (0, []))
        raw["sim"]["sim_fast_pct"] *= 0.5
        failed, problems = run.check_outputs(raw, held)
        self.assertGreater(failed, 0)
        self.assertTrue(any("sim_fast_pct" in p for p in problems))


class FugubenchTest(unittest.TestCase):
    """Builds fugubench and runs it (a minute or two the first time)."""

    @classmethod
    def setUpClass(cls):
        os.chdir(ROOT)
        cls.binary = run.build()
        cls.spec = run.load_spec()

    def bench(self, *args):
        out = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py")] + list(args),
            stdout=subprocess.PIPE, check=True, text=True).stdout
        return json.loads(out.strip().splitlines()[-1])

    def test_layer_drivers_count_the_work_they_time(self):
        out = subprocess.run([self.binary, "--selftest"],
                             stdout=subprocess.PIPE, check=True,
                             text=True).stdout
        drivers = json.loads(out)
        self.assertGreaterEqual(len(drivers), 7)
        for name, d in drivers.items():
            self.assertGreater(d["units"], 0, name)
            self.assertEqual(d["counted"], d["units"], name)
            self.assertEqual(d["failed_reps"], 0, name)
            self.assertGreater(d["ns_per_unit"], 0, name)

    def test_default_and_held_out_seed_pass_the_output_check(self):
        for seed in (1, HELD_OUT_SEED):
            r = self.bench("--workload", "fig10_buffered", "--seed",
                           str(seed), "--seconds", "0", "--trace", "0")
            self.assertTrue(r["correct"], seed)
            self.assertEqual(r["failed"], 0)
            self.assertEqual(sorted(r["metrics"]),
                             sorted(m["name"]
                                    for m in self.spec["end_to_end"]))

    def test_traced_run_reports_every_layer_metric(self):
        r = self.bench("--workload", "fig10_buffered", "--seed", "2",
                       "--seconds", "0", "--trace", "1")
        self.assertTrue(r["correct"])
        self.assertEqual(sorted(r["metrics"]),
                         sorted(m["name"] for m in self.spec["per_layer"]))
        for name in ("sim.schedule_fire_ns", "net.send_deliver_ns",
                     "core.backend_accept_extract_ns",
                     "glaze.fast_msg_ns", "glaze.buffered_msg_ns",
                     "crl.op_ns", "glaze.buffer_inserts"):
            self.assertGreater(r["metrics"][name]["value"], 0, name)


if __name__ == "__main__":
    unittest.main()
