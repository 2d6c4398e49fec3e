"""Self-tests of the perfbench benchmark.

    python3 -m unittest discover -s perfbench/tests -v

Fast checks of the metric arithmetic (tail rule, open-loop lateness, SLO
accounting, name grammar, the comparison verdicts) plus, unless
PERFBENCH_SKIP_SMOKE=1, the driver's oracle self-test and a short traced
smoke run of every workload (builds the driver first; a few minutes).
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)

import compare  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402


def load(path):
    with open(path) as f:
        return json.load(f)


BENCH = load(os.path.join(ROOT, "BENCHMARK.json"))
WORKLOADS = load(os.path.join(PERFBENCH, "workloads.json"))


class TailRule(unittest.TestCase):
    def test_nearest_rank_percentile(self):
        v = list(range(1, 101))
        self.assertEqual(measure.percentile(v, 50), 50)
        self.assertEqual(measure.percentile(v, 99), 99)
        self.assertEqual(measure.percentile(v, 100), 100)
        self.assertEqual(measure.percentile([7.0], 99), 7.0)

    def test_ten_samples_beyond_the_tail(self):
        self.assertEqual(measure.samples_beyond(1000, 99), 10)
        self.assertEqual(measure.tail_percentile(1000, 99), 99)
        # 999 samples leave only 9 above p99: fall back to p90.
        self.assertEqual(measure.samples_beyond(999, 99), 9)
        self.assertEqual(measure.tail_percentile(999, 99), 90)
        self.assertEqual(measure.tail_percentile(100, 90), 90)
        self.assertIsNone(measure.tail_percentile(19, 90))
        # Never reports a higher percentile than configured.
        self.assertEqual(measure.tail_percentile(10 ** 6, 90), 90)

    def test_configured_tails_have_ten_samples_beyond(self):
        for name, wl in WORKLOADS.items():
            for kind, p in wl["tail_percentile"].items():
                self.assertIn(p, measure.TAIL_GRID, name)


def raw_record(t_sched, t_first, t_done, ok, predict, phase=None,
               phases=(), lag=()):
    n = len(t_sched)
    return {
        "requests": {"t_sched": t_sched, "t_first": t_first,
                     "t_done": t_done, "ok": ok, "predict": predict,
                     "phase": phase or [0] * n, "send_us": [5.0] * n},
        "phases": list(phases), "lag_ms": list(lag),
        "t_start_us": 0.0, "t_end_us": max(t_done),
        "cpu_s": 0.5, "peak_rss_mb": 10.0, "store_bytes_written": 1000,
        "oracle": {"checked": 3, "matched": 3},
        "serve": {"evictions": 0, "rejections": 0},
        "timed": {"evictions": 0},
    }


class OpenLoopLateness(unittest.TestCase):
    def test_latency_counts_from_the_due_time(self):
        # The generator stalled: the second request went out 4 ms late.
        req = raw_record([0, 1000, 2000], [0, 5000, 5100],
                         [500, 6000, 5600], [1, 1, 1], [1, 1, 1])["requests"]
        self.assertEqual(measure.latencies_ms(req, True), [0.5, 5.0, 3.6])
        # A closed loop counts from the first attempt instead.
        self.assertEqual(measure.latencies_ms(req, False), [0.5, 1.0, 0.5])

    def test_refused_request_misses_the_limit(self):
        self.assertEqual(measure.slo_met([1.0, None, 30.0], 20), 1)

    def test_open_loop_levels_and_generator_lag(self):
        wl = dict(WORKLOADS["hot_predict"], limit_ms=5)
        # Level 0: on time. Level 1: the third request is 10 ms late.
        t_sched = [0, 100000, 200000, 1e6, 1.1e6, 1.2e6]
        t_done = [1000, 101000, 201000, 1.001e6, 1.101e6, 1.21e6]
        raw = raw_record(t_sched, t_sched, t_done, [1] * 6, [1] * 6,
                         phase=[0, 0, 0, 1, 1, 1],
                         phases=[{"rate": 3, "start_us": 0, "end_us": 1e6},
                                 {"rate": 3, "start_us": 1e6,
                                  "end_us": 2e6}],
                         lag=[0.1, 0.2, 0.1, 0.3, 0.2, 10.0])
        lat = measure.latencies_ms(raw["requests"], True)
        levels = measure.phase_levels(raw, wl, lat)
        self.assertTrue(levels[0][3])
        self.assertAlmostEqual(levels[0][2], 1.0)
        self.assertFalse(levels[1][3])  # one of three missed 5 ms
        self.assertAlmostEqual(levels[1][2], 2 / 3)
        self.assertEqual(measure.percentile(raw["lag_ms"], 99), 10.0)

    def test_max_rate_is_the_highest_passing_level(self):
        levels = [(100, 100, 1.0, True), (200, 150, 1.0, False),
                  (300, 300, 1.0, True), (400, 300, 0.5, False)]
        self.assertEqual(measure.max_rate_at_slo(levels), 300)
        self.assertEqual(measure.max_rate_at_slo(levels[:2]), 100)
        self.assertEqual(measure.max_rate_at_slo(levels[1:2]), 0)

    def test_open_loop_max_rate_is_the_highest_passing_offered_rate(self):
        wl = {"rates": [3, 3], "limit_ms": 5,
              "tail_percentile": {"observe": 90, "predict": 90}}
        # The second level is overloaded: 100 ms late replies.
        t_sched = [0, 100000, 200000, 1e6, 1.1e6, 1.2e6]
        t_done = [1000, 101000, 201000, 1.1e6, 1.2e6, 1.3e6]
        raw = raw_record(t_sched, t_sched, t_done, [1] * 6, [1] * 6,
                         phase=[0, 0, 0, 1, 1, 1],
                         phases=[{"rate": 3, "start_us": 0, "end_us": 1e6},
                                 {"rate": 3, "start_us": 1e6,
                                  "end_us": 2e6}])
        m, extra = measure.end_to_end(raw, wl, [0.1])
        self.assertEqual(m["slo_met_frac"], 0.5)
        self.assertAlmostEqual(m["throughput_eps"], 6 / 1.3)
        self.assertEqual(m["max_rate_at_slo_eps"], 3)
        self.assertEqual([lv["passed"] for lv in extra["levels"]],
                         [True, False])
        self.assertEqual(extra["attempted"], 6)

    def test_closed_loop_has_no_offered_rate(self):
        wl = dict(WORKLOADS["evict_churn"], limit_ms=5)
        raw = raw_record([0, 0, 0, 0], [0, 0, 0, 0],
                         [1000, 2000, 9000, 1e6], [1, 1, 1, 0], [1, 0, 1, 1])
        m, _ = measure.end_to_end(raw, wl, [0.1])
        self.assertAlmostEqual(m["throughput_eps"], 3.0)
        self.assertAlmostEqual(m["slo_met_frac"], 0.5)
        self.assertNotIn("max_rate_at_slo_eps", m)

    def test_closed_loop_throughput_drops_the_outer_windows(self):
        # 10, 12, 2 (a stall) and 30 events in four 2 s windows: the middle
        # two count. Events after the last whole window do not.
        done = ([0.1e6] * 10 + [2.1e6] * 12 + [4.1e6] * 2 + [6.1e6] * 30 +
                [8.5e6] * 50)
        self.assertEqual(measure.windowed_rate(done, 0, 9e6, 2.0), 5.5)
        # Fewer than four windows: the plain mean.
        self.assertEqual(measure.windowed_rate(done[:10], 0, 1e6, 2.0), 10.0)

    def test_warm_up_requests_are_left_out(self):
        raw = raw_record([0, 0, 0], [0, 0, 0], [1000, 2000, 5000],
                         [1, 1, 1], [1, 1, 1])
        raw["requests"]["warm"] = [1, 1, 0]
        req = measure.drop_warm_up(raw)["requests"]
        self.assertEqual(req["t_done"], [5000])
        self.assertNotIn("warm", req)

    def test_trace_overhead(self):
        self.assertAlmostEqual(measure.overhead_frac(
            {"throughput_eps": 90}, {"throughput_eps": 100}, False), 0.1)
        self.assertAlmostEqual(measure.overhead_frac(
            {"predict_p50_ms": 1.2}, {"predict_p50_ms": 1.0}, True), 0.2)


class NameGrammar(unittest.TestCase):
    def test_benchmark_names_and_units(self):
        names = [w["name"] for w in BENCH["workloads"]]
        metrics = BENCH["end_to_end"] + BENCH["per_layer"]
        names += [m["name"] for m in metrics]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, measure.NAME_RE)
        for m in metrics:
            self.assertRegex(m["unit"], measure.UNIT_RE)
        self.assertLessEqual(len(BENCH["per_layer"]), 128)
        # Every benchmark workload is defined; workloads.json may hold more.
        self.assertLessEqual({w["name"] for w in BENCH["workloads"]},
                             set(WORKLOADS))

    def test_bad_names_are_rejected(self):
        for bad in ("", ".lead", "has space", "slash/y", "x" * 65):
            self.assertIsNone(measure.NAME_RE.match(bad), bad)


class Verdicts(unittest.TestCase):
    def test_improved_needs_nine_in_ten_and_a_gap(self):
        base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        new = [v - 10 for v in base]
        self.assertEqual(compare.verdict(base, new, "lower", 0.1), "improved")
        noisy = [v - 0.5 for v in base]
        self.assertEqual(compare.verdict(base, noisy, "lower", 0.1),
                         "no worse")

    def test_worse_and_unresolved(self):
        base = [100.0] * 10
        self.assertEqual(compare.verdict(base, [130.0] * 10, "lower", 0.1),
                         "worse")
        wide = [50, 150, 60, 140, 100, 100, 70, 130, 90, 110]
        self.assertEqual(compare.verdict(wide, [105] * 10, "lower", 0.1),
                         "unresolved")


class Oracle(unittest.TestCase):
    def test_any_mismatch_fails_the_run(self):
        self.assertTrue(measure.oracle_ok(
            {"predictions_checked": 10, "pred_match_frac": 1.0}))
        self.assertFalse(measure.oracle_ok(
            {"predictions_checked": 10, "pred_match_frac": 0.9}))
        self.assertFalse(measure.oracle_ok(
            {"predictions_checked": 0, "pred_match_frac": 0.0}))
        raw = raw_record([0, 1], [0, 1], [2, 3], [1, 1], [1, 1])
        raw["oracle"] = {"checked": 2, "matched": 1}
        _, extra = measure.end_to_end(raw, WORKLOADS["evict_churn"], [0.1])
        self.assertEqual(extra["pred_match_frac"], 0.5)
        self.assertFalse(measure.oracle_ok(extra))


@unittest.skipIf(os.environ.get("PERFBENCH_SKIP_SMOKE") == "1",
                 "PERFBENCH_SKIP_SMOKE=1")
class Smoke(unittest.TestCase):
    """Short traced runs through run.py, one per workload."""

    @classmethod
    def setUpClass(cls):
        os.chdir(ROOT)
        if not run.build():
            raise RuntimeError("driver build failed")
        cls.results = {}
        for name in WORKLOADS:
            out = subprocess.run(
                [sys.executable, os.path.join(PERFBENCH, "run.py"),
                 "--workload", name, "--seed", "5", "--seconds", "3",
                 "--trace", "1"], capture_output=True, text=True, timeout=300)
            cls.results[name] = (out.returncode, out.stdout)

    def last_json(self, name):
        code, stdout = self.results[name]
        self.assertEqual(code, 0, stdout[-2000:])
        return json.loads(stdout.strip().splitlines()[-1])

    def metric(self, name, metric):
        return self.last_json(name)["metrics"][metric]["value"]

    def test_driver_oracle_selftest(self):
        args = run.driver_args("evict_churn", WORKLOADS["evict_churn"], 1, 1,
                               False) + ["--mode", "selftest"]
        out = subprocess.run(args, capture_output=True, text=True,
                             timeout=300)
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)

    def test_every_workload_is_correct_and_names_every_metric(self):
        wanted = {m["name"] for m in BENCH["per_layer"]}
        for name in WORKLOADS:
            res = self.last_json(name)
            self.assertTrue(res["correct"], name)
            self.assertEqual(res["failed"], 0, name)
            self.assertEqual(set(res["metrics"]), wanted, name)

    def test_evictions_only_in_evict_churn(self):
        self.assertEqual(self.metric("hot_predict",
                                     "serve.evictions_per_event"), 0)
        self.assertEqual(self.metric("cold_stream",
                                     "serve.evictions_per_event"), 0)
        self.assertGreater(self.metric("evict_churn",
                                       "serve.evictions_per_event"), 0.2)

    def test_latent_misses_only_in_cold_stream(self):
        self.assertLess(self.metric("cold_stream", "data.latent_hit_frac"),
                        0.05)
        self.assertEqual(self.metric("hot_predict", "data.latent_hit_frac"),
                         1.0)
        self.assertEqual(self.metric("evict_churn", "data.latent_hit_frac"),
                         1.0)

    def test_net_overhead_share_is_larger_on_hot_predict(self):
        share = {}
        for name in ("hot_predict", "cold_stream"):
            rec = latest_record(name)
            share[name] = (rec["metrics"]["net.overhead_ms"]["value"] /
                           rec["extra"]["predict_p50_ms"])
        self.assertGreater(share["hot_predict"], share["cold_stream"])

    def test_spans_link_requests_to_learner_calls(self):
        rec = latest_record("hot_predict")
        self.assertGreater(rec["extra"]["trace_linked_requests"], 0)
        with open(rec["extra"]["spans_file"]) as f:
            spans = [json.loads(line) for line in f]
        learner = [s for s in spans if s["name"] == "core.predict_batch"]
        self.assertTrue(learner)
        self.assertTrue(all(s["links"] for s in learner))
        for s in spans:
            self.assertTrue({"id", "name", "start_us", "end_us",
                             "parent"} <= set(s))


def latest_record(workload):
    runs = os.path.join(run.BUILD_ROOT, "runs")
    files = sorted(f for f in os.listdir(runs)
                   if f.startswith(workload + "-") and "-trace1-" in f)
    return load(os.path.join(runs, files[-1]))


if __name__ == "__main__":
    unittest.main()
