"""Metric arithmetic for the perfbench runner, kept free of I/O so the
self-tests can check it directly.

A run's raw record comes from perfbench_driver (per-request timestamps in
microseconds, server counters, oracle counts, and in traced runs the
per-layer numbers); `end_to_end` and `per_layer` turn it into the metrics
named in BENCHMARK.json.
"""
import math
import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Percentiles a tail may be reported at, highest first.
TAIL_GRID = (99.9, 99.0, 90.0)
MIN_BEYOND = 10
# Share of a level's requests that must meet the limit for the level to pass.
SLO_TARGET = 0.99
# Closed-loop throughput is taken over windows of this many seconds.
THROUGHPUT_WINDOW_S = 2.0


def is_open(wl):
    """A workload with offered rates is an open loop; without, closed."""
    return "rates" in wl


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    s = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(s)))
    return s[rank - 1]


def samples_beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n."""
    return n - max(1, math.ceil(p / 100.0 * n))


def tail_percentile(n, wanted):
    """The percentile a tail of n samples is reported at: `wanted` when at
    least MIN_BEYOND samples lie beyond it, else the highest grid percentile
    that has them, else None (too few samples for any tail)."""
    if samples_beyond(n, wanted) >= MIN_BEYOND:
        return wanted
    for p in TAIL_GRID:
        if p < wanted and samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def median(values):
    return statistics.median(values) if values else 0.0


def drop_warm_up(raw):
    """Keeps only the timed window's requests in a raw record's per-request
    columns (the driver also lists the warm-up requests sent before it)."""
    req = raw["requests"]
    keep = [not w for w in req.pop("warm", [0] * len(req["ok"]))]
    raw["requests"] = {k: [v for v, t in zip(col, keep) if t]
                       for k, col in req.items()}
    return raw


def windowed_rate(t_done_us, t_start_us, t_end_us, window_s):
    """Events completed per second, as the mean over the middle half of
    the run's whole windows of `window_s` seconds once sorted by their
    count, so a stall of a few seconds moves it less than it moves the plain
    mean. A run shorter than four windows gives its plain mean."""
    n = int((t_end_us - t_start_us) / 1e6 // window_s)
    if n < 4:
        span = (t_end_us - t_start_us) / 1e6
        return len(t_done_us) / span if span > 0 else 0.0
    counts = [0] * n
    for t in t_done_us:
        k = int((t - t_start_us) / 1e6 // window_s)
        if 0 <= k < n:
            counts[k] += 1
    middle = sorted(counts)[n // 4:n - n // 4]
    return statistics.mean(middle) / window_s


def latencies_ms(req, open_loop):
    """Per-request latency in ms, or None for a request that never
    completed OK. Open loop: from the time the request was due, so a stall
    also charges the requests queued behind it. Closed loop: from the first
    attempt, so backpressure retries count."""
    start = req["t_sched"] if open_loop else req["t_first"]
    out = []
    for ok, s, d in zip(req["ok"], start, req["t_done"]):
        out.append((d - s) / 1000.0 if ok else None)
    return out


def slo_met(lat, limit_ms):
    """Requests sent that completed within the limit; a refused or failed
    request (latency None) counts as a miss."""
    return sum(1 for v in lat if v is not None and v <= limit_ms)


def phase_levels(raw, wl, lat):
    """(offered rate, achieved ok/s, slo fraction, passed) per open-loop
    load level, in the order they ran. A level passes when its SLO share
    reaches SLO_TARGET and completions keep up with the offered rate (no
    growing backlog)."""
    req = raw["requests"]
    levels = []
    for p, ph in enumerate(raw["phases"]):
        idx = [i for i, q in enumerate(req["phase"]) if q == p]
        sent = len(idx)
        done = sorted(req["t_done"][i] for i in idx if req["ok"][i])
        # Completions per second between the phase's first and last.
        achieved = ((len(done) - 1) / ((done[-1] - done[0]) / 1e6)
                    if len(done) > 1 and done[-1] > done[0] else 0.0)
        frac = (slo_met([lat[i] for i in idx], wl["limit_ms"]) / sent
                if sent else 0.0)
        passed = frac >= SLO_TARGET and achieved >= 0.95 * ph["rate"]
        levels.append((ph["rate"], achieved, frac, passed))
    return levels


def max_rate_at_slo(levels):
    """The offered rate of the highest level that passed (0 when none)."""
    return max((rate for rate, _, _, passed in levels if passed), default=0.0)


def end_to_end(raw, wl, setup_samples):
    """Every end-to-end metric of one untraced run, plus the extras printed
    beside them (sample counts, tail percentiles, per-level results).

    Open loop: throughput runs from the first level's start until the last
    reply, and max_rate_at_slo_eps is the offered rate of the highest level
    that passed. Closed loop: throughput is the windowed median (see
    windowed_rate); there is no offered rate, so no max_rate_at_slo_eps."""
    req = raw["requests"]
    open_loop = is_open(wl)
    lat = latencies_ms(req, open_loop)
    attempted = len(lat)
    ok = sum(1 for v in lat if v is not None)
    m = {}
    extra = {"attempted": attempted, "failed": attempted - ok}
    for kind, flag in (("observe", 0), ("predict", 1)):
        vals = [v for v, k in zip(lat, req["predict"])
                if v is not None and k == flag]
        p = tail_percentile(len(vals), wl["tail_percentile"][kind])
        m[kind + "_p50_ms"] = median(vals)
        m[kind + "_tail_ms"] = percentile(vals, p) if p is not None else 0.0
        extra[kind + "_samples"] = len(vals)
        extra[kind + "_tail_percentile"] = p
    if open_loop:
        start = raw["phases"][0]["start_us"]
        window = (max(req["t_done"], default=start) - start) / 1e6
        m["throughput_eps"] = ok / window if window > 0 else 0.0
    else:
        done = [d for d, v in zip(req["t_done"], lat) if v is not None]
        m["throughput_eps"] = windowed_rate(
            done, raw["t_start_us"], raw["t_end_us"], THROUGHPUT_WINDOW_S)
    m["slo_met_frac"] = (slo_met(lat, wl["limit_ms"]) / attempted
                         if attempted else 0.0)
    levels = phase_levels(raw, wl, lat) if open_loop else []
    if open_loop:
        m["max_rate_at_slo_eps"] = max_rate_at_slo(levels)
    m["cpu_ms_per_event"] = raw["cpu_s"] * 1000.0 / ok if ok else 0.0
    m["peak_rss_mb"] = raw["peak_rss_mb"]
    m["store_bytes_per_event"] = (raw["store_bytes_written"] / ok
                                  if ok else 0.0)
    m["setup_s"] = median(setup_samples)
    oracle = raw["oracle"]
    extra["failed_frac"] = (attempted - ok) / attempted if attempted else 1.0
    extra["pred_match_frac"] = (oracle["matched"] / oracle["checked"]
                                if oracle["checked"] else 0.0)
    extra["predictions_checked"] = oracle["checked"]
    extra["evictions_per_event"] = raw["timed"]["evictions"] / ok if ok else 0.0
    extra["rejections"] = raw["serve"]["rejections"]
    extra["setup_samples"] = list(setup_samples)
    extra["levels"] = [
        {"offered_eps": lv[0], "achieved_eps": lv[1], "slo_met_frac": lv[2],
         "passed": lv[3]} for lv in levels]
    if open_loop:
        for p, ph in enumerate(raw["phases"]):
            vals = [v for v, q, k in zip(lat, req["phase"], req["predict"])
                    if v is not None and q == p and k == 1]
            tp = tail_percentile(len(vals), wl["tail_percentile"]["predict"])
            extra["levels"][p]["predict_p50_ms"] = median(vals)
            extra["levels"][p]["predict_tail_ms"] = (
                percentile(vals, tp) if tp is not None else None)
            extra["levels"][p]["predict_tail_percentile"] = tp
    return m, extra


def oracle_ok(extra):
    """The run's correctness check: predictions were checked, and every one
    matched the isolated learner bit for bit."""
    return extra["predictions_checked"] > 0 and extra["pred_match_frac"] == 1.0


def per_layer(raw, overhead):
    """Per-layer metrics of one traced run; `overhead` is its
    trace.overhead_frac (see overhead_frac)."""
    s, tr, timed = raw["serve"], raw["trace"], raw["timed"]
    n = raw["net"]
    ok = max(1, sum(raw["requests"]["ok"]))
    prof = tr["profile"]
    m = {
        "net.send_us": median(raw["requests"]["send_us"]),
        "net.overhead_ms": median(tr["net_overhead_ms"]),
        "net.bytes_in_per_event": timed["net_bytes_in"] / ok,
        "net.bytes_out_per_event": timed["net_bytes_out"] / ok,
        "net.write_stalls": n["write_stalls"],
        "net.outbox_high_water_bytes": n["outbox_high_water_bytes"],
        "proc.threads_max": tr["threads_max"],
        "serve.pre_dispatch_ms": median(tr["pre_dispatch_ms"]),
        "serve.admit_frac": s["admissions"] / max(1, s["submitted"]),
        "serve.queue_depth_high_water": s["queue_depth_high_water"],
        "serve.batch_size_avg": (s["batched_predicts"] / s["predict_batches"]
                                 if s["predict_batches"] else 0.0),
        "serve.dispatch_errors": s["dispatch_errors"],
        "serve.evictions_per_event": timed["evictions"] / ok,
        "serve.restores_pending": s["pending_restores"],
        "serve.restores_cache": s["cache_restores"],
        "serve.restores_disk": s["disk_restores"],
        "serve.replayed_ops": s["replayed_ops"],
        "serve.save_ms_avg": s["save_ms_avg"],
        "serve.restore_ms_avg": s["restore_ms_avg"],
        "serve.evict_lock_ms_max": s["evict_lock_ms_max"],
        "serve.wb_full_saves": s["wb_full_saves"],
        "serve.wb_chunk_saves": s["wb_chunk_saves"],
        "serve.wb_oplog_saves": s["wb_oplog_saves"],
        "serve.wb_flush_ms_max": s["flush_ms_max"],
        "serve.wb_compactions": s["wb_compactions"],
        "core.observe_ms": median(tr["observe_ms"]),
        "core.predict_batch_ms": median(tr["predict_batch_ms"]),
        "core.replayed_observes": tr["replayed_observes"],
        "core.factory_ms": median(tr["factory_ms"]),
        "core.g_fwd_macs_per_event": raw["op_stats"]["g_fwd_macs"] / ok,
        "core.g_bwd_macs_per_event": raw["op_stats"]["g_bwd_macs"] / ok,
        "data.latent_hit_frac": 1.0 - (
            (raw["cache_after"] - raw["cache_before"]) /
            max(1, raw["keys_touched"])),
        "data.cache_entries": raw["cache_after"],
        "loadgen.lag_ms_p99": (percentile(raw["lag_ms"], 99)
                               if raw["lag_ms"] else 0.0),
    }
    observe_ms = m["core.observe_ms"]
    head_ms = (prof["nn.head.observe_fwd_us"] + prof["nn.head.observe_bwd_us"]
               + prof["nn.sgd_step_us"]) / 1000.0
    m["core.observe_unattributed_frac"] = (1.0 - head_ms / observe_ms
                                           if observe_ms > 0 else 0.0)
    for k, v in prof.items():
        if k not in ("nn.head.observe_fwd_us", "nn.head.observe_bwd_us"):
            m[k] = v
    m["trace.overhead_frac"] = overhead
    return m


def overhead_frac(traced, untraced, open_loop):
    """How much tracing cost, from the end-to-end metrics of a traced and an
    untraced run: the loss of throughput on a closed loop, the rise of
    predict median latency on an open loop (whose throughput is fixed by
    the schedule)."""
    if open_loop:
        base = untraced["predict_p50_ms"]
        return traced["predict_p50_ms"] / base - 1.0 if base > 0 else 0.0
    base = untraced["throughput_eps"]
    return 1.0 - traced["throughput_eps"] / base if base > 0 else 0.0


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf
