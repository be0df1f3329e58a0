"""Unit tests of run.py's metric math against the canned fixtures in
testdata/ (obs-metrics JSON, Chrome traces, report CSVs, probe output and
two full-pass results). Run with `python3 bench/ledger/run.py --selftest`."""

import contextlib
import io
import json
import unittest
from pathlib import Path

import run

DATA = Path(__file__).resolve().parent / "testdata"


def load(name):
    with open(DATA / name) as f:
        return json.load(f)


def layers(kind, threads, untraced=2.0, traced=2.1):
    return run.layer_metrics(
        kind == "open", threads, load(f"metrics_{kind}.json"),
        load(f"trace_{kind}.json"), (DATA / f"{kind}.csv").read_bytes(),
        load(f"probe_{kind}.json"), untraced, traced)


class SetupExtraction(unittest.TestCase):
    def test_setup_is_trace_start_to_first_rep(self):
        self.assertAlmostEqual(
            run.setup_from_trace(load("trace_closed.json")), 0.25)
        self.assertAlmostEqual(
            run.setup_from_trace(load("trace_open.json")), 150e-6)

    def test_trace_without_replications_is_an_error(self):
        trace = load("trace_closed.json")
        trace["traceEvents"] = [e for e in trace["traceEvents"]
                                if e["name"] != "sweep.rep"]
        with self.assertRaises(ValueError):
            run.setup_from_trace(trace)


class LayerMath(unittest.TestCase):
    def test_every_catalog_metric_is_produced(self):
        names = {m["name"] for m in run.load_benchmark()["per_layer"]}
        for kind, threads in (("closed", 2), ("open", 1)):
            self.assertEqual(set(layers(kind, threads)), names, kind)

    def test_every_time_metric_is_measured_on_both_kinds(self):
        # A time that reads 0 on a kind of workload would repeat exactly on
        # every run there, which is not a measurement.
        times = {m["name"] for m in run.load_benchmark()["per_layer"]
                 if m["unit"] in ("s", "ns")}
        for kind, threads in (("closed", 2), ("open", 1)):
            got = layers(kind, threads)
            self.assertEqual({k for k in times if got[k] == 0}, set(), kind)

    def test_closed_shares_and_estimates(self):
        got = layers("closed", threads=2)
        self.assertAlmostEqual(got["exp.setup_wall_s"], 0.25)
        self.assertAlmostEqual(got["exp.setup_cpu_s"], 0.15)
        self.assertAlmostEqual(got["exp.rep_cpu_s"], 1.35)
        # 1 - 1.8 s of pool task time / (2 threads x 1.0 s sweep.run)
        self.assertAlmostEqual(got["exp.pool.idle_share"], 0.1)
        self.assertAlmostEqual(got["exp.journal.flush_s"], 0.002)
        self.assertAlmostEqual(got["core.optimizer.evals_per_call"], 35.0)
        self.assertAlmostEqual(got["sim.run_s"], 1.6)
        self.assertAlmostEqual(got["sim.cancel_ratio"], 0.6)
        self.assertAlmostEqual(got["sim.ns_per_event"], 1600.0)
        # 400 ns/event x 1e6 scheduled events over 1.6 s of sim.run
        self.assertAlmostEqual(got["sim.queue.share_est"], 0.25)
        # 50 ns/grant x 4000 launched attempts (CSV) over 1.6 s
        self.assertAlmostEqual(got["sim.cluster.share_est"], 1.25e-4)
        self.assertAlmostEqual(got["mapreduce.ns_per_attempt"], 400000.0)
        self.assertAlmostEqual(got["strategies.useful_attempt_ratio"], 0.75)
        self.assertAlmostEqual(got["obs.trace_overhead"], 0.05)
        self.assertEqual(got["sim.open.plan_share"], 0.0)
        self.assertEqual(got["serve.hit_ratio"], 0.0)

    def test_open_engine_shares(self):
        got = layers("open", threads=1)
        self.assertAlmostEqual(got["sim.open.plan_share"], 0.25)
        self.assertAlmostEqual(got["sim.run_s"], 1.5)  # open.run - open.plan
        # 1.5 s of engine time over 5000 launched attempts (CSV)
        self.assertAlmostEqual(got["mapreduce.ns_per_attempt"], 300000.0)
        self.assertAlmostEqual(got["serve.hit_ratio"], 0.75)
        self.assertAlmostEqual(got["sim.open.degrade_ratio"], 0.05)
        self.assertAlmostEqual(got["sim.open.reject_ratio"], 10 / 1010)
        self.assertEqual(got["sim.open.in_flight_max"], 12)
        self.assertAlmostEqual(got["strategies.useful_attempt_ratio"], 0.2)
        self.assertAlmostEqual(got["exp.pool.idle_share"],
                               1.0 - 2.1 / 2.2)

    def test_jobs_completed(self):
        closed = run.metric_map(load("metrics_closed.json"))
        opened = run.metric_map(load("metrics_open.json"))
        self.assertEqual(run.jobs_completed(False, closed, 300), 1200)
        self.assertEqual(run.jobs_completed(True, opened, None), 1000)


class MediansAndVerdicts(unittest.TestCase):
    def test_summarize(self):
        self.assertEqual(run.summarize([3.0, 1.0, 2.0, 10.0]),
                         {"value": 2.5, "q1": 1.25, "q3": 8.25, "min": 1.0,
                          "max": 10.0, "n": 4})
        self.assertEqual(run.summarize([4.0]),
                         {"value": 4.0, "q1": 4.0, "q3": 4.0, "min": 4.0,
                          "max": 4.0, "n": 1})

    def test_spread_is_the_quartile_distance(self):
        # Outliers widen min/max but not the quartiles: still resolved.
        a = {"value": 1.0, "q1": 0.99, "q3": 1.01, "min": 0.5, "max": 2.0}
        b = {"value": 1.2, "q1": 1.19, "q3": 1.21, "min": 0.6, "max": 2.4}
        self.assertEqual(run.verdict(a, b, "lower", 0.1), "worse")

    def s(self, value, low, high):
        return {"value": value, "q1": low, "q3": high, "min": low,
                "max": high}

    def test_within_bound_is_ok(self):
        self.assertEqual(run.verdict(self.s(1.0, 0.98, 1.02),
                                     self.s(1.05, 1.03, 1.07), "lower", 0.1),
                         "ok")

    def test_past_bound_is_worse_or_better(self):
        a = self.s(1.0, 0.98, 1.02)
        self.assertEqual(run.verdict(a, self.s(1.2, 1.18, 1.22), "lower",
                                     0.1), "worse")
        self.assertEqual(run.verdict(a, self.s(0.8, 0.78, 0.82), "lower",
                                     0.1), "better")
        # For higher-is-better metrics the direction flips.
        self.assertEqual(run.verdict(a, self.s(0.8, 0.78, 0.82), "higher",
                                     0.1), "worse")

    def test_spread_wider_than_bound_is_unresolved(self):
        self.assertEqual(run.verdict(self.s(1.0, 0.8, 1.2),
                                     self.s(1.05, 0.9, 1.3), "lower", 0.1),
                         "unresolved")

    def test_disjoint_runs_resolve_despite_spread(self):
        a = self.s(1.0, 0.5, 1.5)
        self.assertEqual(run.verdict(a, self.s(0.3, 0.2, 0.4), "lower", 0.1),
                         "better")
        self.assertEqual(run.verdict(a, self.s(2.0, 1.8, 2.2), "lower", 0.1),
                         "worse")

    def test_compare_rows_and_exit_code(self):
        benchmark = {"end_to_end": [
            {"name": "wall_s", "better": "lower", "bound": 0.15},
            {"name": "setup_s", "better": "lower", "bound": 0.25},
            {"name": "cpu_s", "better": "lower", "bound": 0.15},
            {"name": "jobs_per_s", "better": "higher", "bound": 0.15},
            {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]}
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = run.compare(DATA / "result_a.json", DATA / "result_b.json",
                             benchmark)
        self.assertEqual(rc, 1)
        verdicts = {line.split()[1]: line.split()[-1]
                    for line in out.getvalue().splitlines()[1:]}
        self.assertEqual(verdicts, {"wall_s": "worse",
                                    "setup_s": "unresolved", "cpu_s": "ok",
                                    "jobs_per_s": "better",
                                    "peak_rss_mb": "ok"})
        with contextlib.redirect_stdout(io.StringIO()):
            self.assertEqual(run.compare(DATA / "result_a.json",
                                         DATA / "result_a.json", benchmark),
                             0)


class SeedRewriting(unittest.TestCase):
    TEXT = ("[sweep]\nname = x\nseed = 3  # master\n\n[trace]\n"
            "num_jobs = 10\nseed = 9\n\n[arrivals]\nrate = 0.5\n")

    def test_rewrites_sweep_and_trace_seeds_only(self):
        got = run.seeded_manifest(self.TEXT, 7)
        self.assertEqual(got, self.TEXT.replace("seed = 3  # master",
                                                "seed = 7")
                         .replace("seed = 9", "seed = 107"))

    def test_missing_seed_is_an_error(self):
        with self.assertRaises(ValueError):
            run.seeded_manifest(self.TEXT.replace("seed = 9\n", ""), 7)

    def test_committed_manifests_hold_the_default_seed(self):
        for path in sorted(run.WORKLOADS_DIR.glob("*.ini")):
            text = path.read_text()
            self.assertEqual(run.seeded_manifest(text, run.DEFAULT_SEED),
                             text, path.name)

    def test_every_workload_has_a_manifest_and_a_pin(self):
        manifests = {p.stem for p in run.WORKLOADS_DIR.glob("*.ini")}
        self.assertEqual(manifests, set(run.THREADS))
        self.assertEqual(set(run.load_pins()), set(run.THREADS))
        benchmark = {w["name"] for w in run.load_benchmark()["workloads"]}
        self.assertEqual(benchmark, set(run.THREADS))

    def test_manifest_value(self):
        self.assertEqual(run.manifest_value(self.TEXT, "trace", "num_jobs"),
                         "10")
        self.assertIsNone(run.manifest_value(self.TEXT, "sweep", "rate"))


if __name__ == "__main__":
    unittest.main()
