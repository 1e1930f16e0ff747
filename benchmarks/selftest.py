"""Self-tests of the benchmark harness.

Run from the root of a flowhazard checkout:

    python3 benchmarks/selftest.py

Covers generator determinism, the tracer's span arithmetic and binding
replacement, agreement with BENCHMARK.json, and a tiny-size smoke run of
every workload through the same checks the benchmark applies.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import types
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = os.getcwd()
SCRATCH = os.path.join(ROOT, run.WORK_DIR, "selftest")


def setUpModule():
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)


class GeneratorDeterminism(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for wl in WORKLOADS.values():
            digests = []
            for tag, seed in (("a", 3), ("b", 3), ("c", 4)):
                dest = os.path.join(SCRATCH, f"gen-{wl.name}-{tag}")
                os.makedirs(dest)
                meta = wl.make_inputs(dest, seed, wl.tiny)
                digests.append(inputs.digest_dir(dest))
                self.assertGreater(meta["rows"], 0)
                self.assertGreater(meta["bytes"], 0)
            self.assertEqual(digests[0], digests[1], wl.name)
            self.assertNotEqual(digests[0], digests[2], wl.name)

    def test_variants_differ_only_in_master_seed(self):
        for name in ("quickstart_rf", "cic_csv_rf"):
            wl = WORKLOADS[name]
            dest = os.path.join(SCRATCH, f"gen-{name}-variants")
            os.makedirs(dest)
            meta = wl.make_inputs(dest, 7, wl.tiny)
            self.assertEqual(meta["variants"], wl.tiny["variants"])
            self.assertEqual(meta["master_seeds"][0], 7)
            docs = []
            for config in meta["configs"]:
                with open(os.path.join(dest, config)) as fh:
                    docs.append(json.load(fh))
            seeds = [d["experiment"].pop("master_seed") for d in docs]
            self.assertEqual(seeds, meta["master_seeds"])
            self.assertEqual(len(set(seeds)), len(seeds))
            self.assertTrue(all(d == docs[0] for d in docs))

    def test_cic_faults_are_planted(self):
        dest = os.path.join(SCRATCH, "gen-cic-faults")
        os.makedirs(dest)
        meta = inputs.cic_csvs(dest, 5, WORKLOADS["cic_csv_rf"].tiny)
        with open(os.path.join(dest, "post_attack.csv")) as fh:
            lines = fh.read().splitlines()
        header = lines[0].split(",")
        self.assertEqual(len(header), 79)
        self.assertTrue(all(h.startswith(" ") for h in header))
        short = [ln for ln in lines[1:] if len(ln.split(",")) != 79]
        bad = [ln for ln in lines[1:] if "Infinity" in ln or "NaN" in ln]
        planted = meta["planted"]["post_attack"]
        self.assertEqual(len(short), planted["malformed_dropped"])
        self.assertEqual(len(bad), planted["nonfinite_dropped"])
        self.assertGreater(len(bad), 0)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TracerArithmetic(unittest.TestCase):
    def test_self_time_of_nested_calls(self):
        clock = FakeClock()
        tr = tracer.Tracer(clock=clock)

        def leaf():
            clock.now += 2.0

        def mid():
            clock.now += 1.0
            leaf_t()
            leaf_t()
            clock.now += 0.5

        def top():
            clock.now += 3.0
            mid_t()

        leaf_t = tr.wrap("m.leaf", leaf)
        mid_t = tr.wrap("m.mid", mid)
        tr.wrap("m.top", top)()
        agg = tracer.summarize(tr.spans)
        self.assertEqual(agg["m.leaf"], {"calls": 2, "s": 4.0, "self_s": 4.0})
        self.assertEqual(agg["m.mid"], {"calls": 1, "s": 5.5, "self_s": 1.5})
        self.assertEqual(agg["m.top"], {"calls": 1, "s": 8.5, "self_s": 3.0})
        self.assertEqual(tracer.inclusive_s(tr.spans, ["m.mid", "m.leaf"]), 5.5)

    def test_recursive_name_counted_once(self):
        clock = FakeClock()
        tr = tracer.Tracer(clock=clock)

        def rec(n):
            clock.now += 1.0
            if n:
                rec_t(n - 1)

        rec_t = tr.wrap("m.rec", rec)
        rec_t(2)
        agg = tracer.summarize(tr.spans)["m.rec"]
        self.assertEqual((agg["calls"], agg["s"], agg["self_s"]), (3, 3.0, 3.0))

    def test_install_patches_every_binding_and_names_missing(self):
        home = types.ModuleType("flowhazard_selftest_home")
        user = types.ModuleType("flowhazard_selftest_user")

        def present():
            return 7

        home.present = present
        user.present = present  # as after `from home import present`
        sys.modules[home.__name__] = home
        sys.modules[user.__name__] = user
        try:
            tr = tracer.Tracer()
            tr.install({home.__name__: ("present", "absent")})
            self.assertEqual(user.present(), 7)
            self.assertIsNot(user.present, present)
            self.assertIs(home.present, user.present)
            self.assertEqual([s["name"] for s in tr.spans],
                             ["flowhazard_selftest_home.present"])
            self.assertEqual(tr.missing, ["flowhazard_selftest_home.absent"])
        finally:
            del sys.modules[home.__name__], sys.modules[user.__name__]

    def test_metrics_of_missing_functions_are_left_out(self):
        facts = {"gate_failures": 0, "useful_flows": 0, "cpu_s": 1.0,
                 "overhead_s": 0.0, "failure_rate": 0.0}
        out = metrics.layer_metrics(
            [], ["flowhazard.experiment.run_sequence"], facts)
        self.assertNotIn("experiment.run_sequence.calls", out)
        self.assertNotIn("experiment.run_sequence.self_s", out)
        self.assertEqual(out["trace.missing_functions"]["value"], 1)
        self.assertIn("models.predict_many.calls", out)


class WallStatistic(unittest.TestCase):
    def test_each_variant_weighs_the_same(self):
        reps = [{"variant": v, "wall_s": w}
                for v, w in ((0, 1.0), (1, 4.0), (0, 3.0), (1, 6.0), (0, 2.0))]
        # variant medians 2.0 and 5.0
        self.assertEqual(run.variant_wall_s(reps), 3.5)


class BenchmarkFile(unittest.TestCase):
    def test_agrees_with_definitions(self):
        with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
            doc = json.load(fh)
        self.assertEqual([w["name"] for w in doc["workloads"]],
                         list(WORKLOADS))
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]},
            metrics.END_TO_END)
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]},
            {k: v[:2] for k, v in metrics.PER_LAYER.items()})


class SmokeRuns(unittest.TestCase):
    """Each workload at tiny size, untraced and traced, through its checks."""

    def _run(self, name):
        wl = WORKLOADS[name]
        env = run.child_env(ROOT, 1)
        in_dir, meta = run.prepare_inputs(
            os.path.join(SCRATCH, "work"), wl, 11, wl.tiny)
        plain_out = os.path.join(SCRATCH, f"{name}-plain")
        plain = run.plain_rep(wl, meta, in_dir, plain_out, env)
        self.assertEqual(plain["problems"], [])
        traced_out = os.path.join(SCRATCH, f"{name}-traced")
        traced = run.traced_rep(wl, meta, in_dir, traced_out, env)
        self.assertEqual(traced["problems"], [])
        self.assertEqual(run.read_artifact(plain_out, wl.artifact),
                         run.read_artifact(traced_out, wl.artifact))
        self.assertEqual(traced["missing"], [])
        self.assertEqual(traced["count_errors"], [])
        facts = {"gate_failures": 0, "useful_flows": 0, "cpu_s": 1.0,
                 "overhead_s": 0.0, "failure_rate": 0.0}
        out = metrics.layer_metrics(traced["spans"], [], facts)
        self.assertEqual(set(out), set(metrics.PER_LAYER))
        return wl, meta, plain_out, out

    def test_quickstart(self):
        wl, meta, out_dir, layer = self._run("quickstart_rf")
        self.assertEqual(layer["experiment.run_sequence.calls"]["value"],
                         meta["n_sequences"] * meta["n_iterations"])
        self.assertGreater(layer["models.forest.nodes"]["value"], 0)
        # the checks catch a wrong expectation
        self.assertNotEqual(
            wl.check({**meta, "n_sequences": meta["n_sequences"] + 1},
                     out_dir), [])

    def test_cic(self):
        wl, meta, out_dir, layer = self._run("cic_csv_rf")
        self.assertEqual(layer["flowdata.parse_flow_csv.rows"]["value"],
                         meta["rows"])
        wrong = json.loads(json.dumps(meta))
        wrong["planted"]["benign"]["nonfinite_dropped"] += 1
        self.assertNotEqual(wl.check(wrong, out_dir), [])

    def test_survival(self):
        wl, meta, out_dir, layer = self._run("survival_cli")
        self.assertEqual(layer["survival.cox_fit.calls"]["value"], 1)
        self.assertEqual(layer["survival.cox.risk_times"]["value"],
                         meta["distinct_times"])
        self.assertNotEqual(
            wl.check({**meta, "beta": [0.9, -0.4, 0.0, 0.0]}, out_dir), [])


if __name__ == "__main__":
    unittest.main()
