#!/usr/bin/env python3
"""Wire-level serving benchmark: builds the driver and runs workloads.

    python3 perfbench/run.py --workload evict_churn --seed 3 --seconds 10 --trace 0

Run from the root of a checkout. The driver (perfbench/driver.cpp) is built
into .bench_build/perfbench from the checkout's own sources; each run sets
the serving stack up, drives one workload from perfbench/workloads.json for
--seconds, and checks every wire prediction against an isolated learner.

--trace 0 prints every end-to-end metric of BENCHMARK.json; --trace 1 runs
the workload untraced, then traced, and prints every per-layer metric
(trace.overhead_frac compares the two). The last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}; the exit code
is non-zero when the oracle check fails or nothing could be run. A record of
each run goes to .bench_build/perfbench/runs/ (compare.py reads those), and
a traced run's spans to .bench_build/perfbench/spans/.

--workload takes one name, a comma-separated list, or "all"; with several,
metric names in the last line are prefixed with the workload name.
"""
import argparse
import json
import os
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import measure  # noqa: E402

BUILD_ROOT = os.path.join(".bench_build", "perfbench")
BUILD_DIR = os.path.join(BUILD_ROOT, "build")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
# Set-up-only processes per run, half before and half after the measured
# run, so a slow spell of the host weighs on few of the set-up samples.
SETUP_PROBES = 6
RUN_TIMEOUT_S = 150
# Units of the end-to-end figures BENCHMARK.json does not gate (see
# README.md), which are still printed and kept in the record.
UNGATED_UNITS = {"observe_p50_ms": "ms", "observe_tail_ms": "ms",
                 "slo_met_frac": "frac", "max_rate_at_slo_eps": "1/s"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build():
    """Configures once, then builds the driver (a no-op when up to date).
    The compiler's temporary files go under .bench_build too."""
    tmp = os.path.abspath(os.path.join(BUILD_ROOT, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(os.path.join(BUILD_ROOT, "build.log"), "w") as out:
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target",
                      "perfbench_driver", "-j", "4"])
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT,
                               env=env) != 0:
                log("perfbench: build failed, see %s" %
                    os.path.join(BUILD_ROOT, "build.log"))
                return False
    return True


def driver_args(wl_name, wl, seed, seconds, trace):
    args = [DRIVER, "--workload", wl_name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0",
            "--work", os.path.join(BUILD_ROOT, "work"),
            "--cache", os.path.join(BUILD_ROOT, "pretrain"),
            "--sessions", str(wl["sessions"]),
            "--shards", str(wl["shards"]),
            "--queue-capacity", str(wl["queue_capacity"]),
            "--zipf", str(wl["zipf"]),
            "--predict-frac", str(wl["predict_frac"]),
            "--page", str(wl["page"]), "--cold", "1" if wl["cold"] else "0"]
    if measure.is_open(wl):
        args += ["--rates", ",".join(str(r) for r in wl["rates"])]
    return args


def timed_driver(args):
    """Runs the driver; returns (seconds from spawn to its ready line,
    exit code). The ready line is printed once the server has answered its
    first request."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    watchdog.start()
    ready = None
    try:
        for line in proc.stdout:
            if line.startswith("PERFBENCH_READY") and ready is None:
                ready = time.perf_counter() - t0
        code = proc.wait()
    finally:
        watchdog.cancel()
    return ready, code


def run_driver(wl_name, wl, seed, seconds, trace, tag):
    """One measured run; returns (raw record, spawn-to-ready seconds)."""
    os.makedirs(os.path.join(BUILD_ROOT, "raw"), exist_ok=True)
    out = os.path.join(BUILD_ROOT, "raw", tag + ".json")
    args = driver_args(wl_name, wl, seed, seconds, trace) + ["--out", out]
    if trace:
        os.makedirs(os.path.join(BUILD_ROOT, "spans"), exist_ok=True)
        args += ["--spans-out",
                 os.path.join(BUILD_ROOT, "spans", tag + ".jsonl")]
    ready, code = timed_driver(args)
    if code != 0 or ready is None:
        raise RuntimeError("driver exited with %s on %s" % (code, wl_name))
    raw = measure.drop_warm_up(load_json(out))
    os.remove(out)
    return raw, ready


def setup_samples(wl_name, wl, seed, seconds, probes):
    samples = []
    for _ in range(probes):
        ready, code = timed_driver(
            driver_args(wl_name, wl, seed, seconds, False) + ["--mode", "setup"])
        if code != 0 or ready is None:
            raise RuntimeError("setup probe failed on %s" % wl_name)
        samples.append(ready)
    return samples


def run_workload(wl_name, wl, bench, seed, seconds, trace):
    """Runs one workload and returns its run record (also saved to
    .bench_build/perfbench/runs/)."""
    tag = "%s-seed%d-trace%d-%d" % (wl_name, seed, int(trace), time.time_ns())
    checks = []  # oracle results of every driver run behind this record
    if trace:
        raw0, _ = run_driver(wl_name, wl, seed, seconds, False, tag + "-base")
        base, base_extra = measure.end_to_end(raw0, wl, [0.0])
        checks.append(base_extra)
        raw, _ = run_driver(wl_name, wl, seed, seconds, True, tag)
        traced, extra = measure.end_to_end(raw, wl, [0.0])
        metrics = measure.per_layer(raw, measure.overhead_frac(
            traced, base, measure.is_open(wl)))
        extra["predict_p50_ms"] = traced["predict_p50_ms"]
        extra["trace_linked_requests"] = raw["trace"]["linked_requests"]
        extra["trace_live_learner_requests"] = (
            raw["trace"]["live_learner_requests"])
        extra["spans_file"] = os.path.join(BUILD_ROOT, "spans",
                                           tag + ".jsonl")
        wanted = bench["per_layer"]
    else:
        before = setup_samples(wl_name, wl, seed, seconds, SETUP_PROBES // 2)
        raw, ready = run_driver(wl_name, wl, seed, seconds, False, tag)
        after = setup_samples(wl_name, wl, seed, seconds,
                              SETUP_PROBES - SETUP_PROBES // 2)
        metrics, extra = measure.end_to_end(raw, wl,
                                            before + [ready] + after)
        wanted = bench["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError("metrics not produced: %s" % ", ".join(missing))
    correct = all(measure.oracle_ok(e) for e in checks + [extra])
    units = {m["name"]: m["unit"] for m in wanted}
    extra["ungated"] = ({} if trace else
                        {k: v for k, v in metrics.items() if k not in units})
    record = {
        "workload": wl_name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "correct": correct,
        "attempted": extra["attempted"], "failed": extra["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
        "extra": extra,
    }
    os.makedirs(os.path.join(BUILD_ROOT, "runs"), exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "runs", tag + ".json"), "w") as f:
        json.dump(record, f, indent=1)
    return record


def report(record, wl):
    w = record["workload"]
    e = record["extra"]
    print("== %s (%s loop, seed %d, %gs, trace %d)" % (
        w, "open" if measure.is_open(wl) else "closed", record["seed"],
        record["seconds"], record["trace"]))
    for name, mv in record["metrics"].items():
        print("%s %-36s %14.6g %s" % (w, name, mv["value"], mv["unit"]))
    for name, v in e["ungated"].items():
        print("%s %-36s %14.6g %s (not gated)" % (w, name, v,
                                                 UNGATED_UNITS[name]))
    print("%s %-36s %14d count" % (w, "attempted", e["attempted"]))
    print("%s %-36s %14.6g frac" % (w, "failed_frac", e["failed_frac"]))
    print("%s %-36s %14.6g frac (%d predictions checked)" % (
        w, "pred_match_frac", e["pred_match_frac"], e["predictions_checked"]))
    for kind in ("observe", "predict"):
        print("%s %-36s %14s (%d samples, tail at p%s)" % (
            w, kind + "_tail_percentile", "", e[kind + "_samples"],
            e[kind + "_tail_percentile"]))
    for lv in e["levels"]:
        line = "%s level offered=%s achieved=%.2f/s slo_met=%.4f passed=%s" % (
            w, lv["offered_eps"], lv["achieved_eps"], lv["slo_met_frac"],
            lv["passed"])
        if "predict_p50_ms" in lv:
            line += " predict_p50=%.3fms tail(p%s)=%s" % (
                lv["predict_p50_ms"], lv["predict_tail_percentile"],
                lv["predict_tail_ms"])
        print(line)
    if not record["correct"]:
        print("%s ORACLE MISMATCH: wire predictions differ from isolation" % w)


def main(argv):
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    workloads = load_json(os.path.join(HERE, "workloads.json"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)
    names = (list(workloads) if a.workload == "all"
             else a.workload.split(","))
    unknown = [n for n in names if n not in workloads]
    if unknown:
        log("perfbench: unknown workload %s" % ", ".join(unknown))
        return 2
    os.chdir(ROOT)
    if not build():
        return 1
    if subprocess.call(driver_args(names[0], workloads[names[0]], a.seed,
                                   a.seconds, False) +
                       ["--mode", "prepare"]) != 0:
        log("perfbench: could not prepare the pretrained backbone")
        return 1
    records = []
    try:
        for n in names:
            rec = run_workload(n, workloads[n], bench, a.seed, a.seconds,
                               bool(a.trace))
            report(rec, workloads[n])
            records.append(rec)
    except (RuntimeError, OSError, ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        return 1
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {"%s.%s" % (r["workload"], k): v
                   for r in records for k, v in r["metrics"].items()}
    result = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
