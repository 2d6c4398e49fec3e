// Serving-runtime report (writes BENCH_serve.json): a Zipf-skewed
// multi-user workload (observe + predict mix) through the sharded
// SessionManager with a residency pool far smaller than the session count,
// so sessions continuously cycle through write-behind checkpoint eviction.
//
// Gates recorded in the JSON artefact:
//   * fidelity_exact   — spot-checked sessions restored from the store have
//     bit-identical head weights and predictions to the same per-session
//     stream run in an isolated learner (the eviction round-trip contract).
//   * throughput_ok    — steady-state dispatch throughput stays above a
//     conservative floor (events/s), best-of-3 (retries only when the first
//     run misses the floor; wall-clock on a shared box is noisy).
//   * evict_lock_ok    — the lock-held portion of eviction (victim select +
//     unlink, the part that stalls every shard) stays under 1ms at the max,
//     best-of-3 like the throughput floor (a preempted core charges the
//     lock section wall-time it never spent). Serialisation and disk I/O
//     run outside the lock (write-behind).
//   * delta_ratio_ok   — steady-state eviction writes are deltas: the
//     average delta frame is <= 1/5 of the average full blob.
//   * batched_bit_exact — the whole schedule re-run with max_batch=1
//     (batch planning disabled: every eval window is one request) returns
//     bit-identical predictions for every predict event. This is the
//     planner's correctness contract measured end to end: coalescing is a
//     pure throughput optimisation, invisible in the results.
//
//   ./build/bench/bench_serve [--events N] [--sessions N] [--out PATH]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <string>
#include <vector>

#include "core/chameleon.h"
#include "metrics/experiment.h"
#include "serve/session_manager.h"
#include "serve/session_store.h"

namespace {

using cham::core::ChameleonConfig;
using cham::core::ChameleonLearner;

ChameleonConfig learner_config() {
  ChameleonConfig cc;
  cc.lt_capacity = 18;
  return cc;
}

bool params_bit_identical(ChameleonLearner& a, ChameleonLearner& b) {
  auto pa = a.head().params();
  auto pb = b.head().params();
  if (pa.size() != pb.size()) return false;
  for (size_t i = 0; i < pa.size(); ++i) {
    if (pa[i]->value.numel() != pb[i]->value.numel()) return false;
    if (std::memcmp(pa[i]->value.data(), pb[i]->value.data(),
                    static_cast<size_t>(pa[i]->value.numel()) *
                        sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

// The full Zipf schedule through a SessionManager with the given config:
// observes retried through backpressure, predicts submitted asynchronously
// and collected after the final drain. Each predict event pages the eval
// set as two back-to-back requests (halves of the key list) — the realistic
// paged-read shape, and a per-session run the planner can merge into one
// eval window (row independence makes the concatenation bit-identical to a
// single request; see core::HeadLearner::predict_batch). Returns one
// prediction vector per predict event, in schedule order — the payload the
// batched-vs-unbatched bit-exactness gate compares.
std::vector<std::vector<int64_t>> run_predict_schedule(
    cham::serve::SessionManager& mgr,
    const std::vector<std::vector<cham::data::Batch>>& streams,
    const std::vector<cham::data::SessionEvent>& schedule,
    const std::vector<cham::data::ImageKey>& test_keys,
    std::vector<std::vector<const cham::data::Batch*>>* submitted) {
  const std::vector<cham::data::ImageKey> first_page(
      test_keys.begin(), test_keys.begin() + test_keys.size() / 2);
  const std::vector<cham::data::ImageKey> second_page(
      test_keys.begin() + test_keys.size() / 2, test_keys.end());
  std::vector<std::future<std::vector<int64_t>>> futures;
  for (const auto& ev : schedule) {
    if (ev.predict) {
      for (const auto* page : {&first_page, &second_page}) {
        std::future<std::vector<int64_t>> f;
        while (!mgr.submit_predict(static_cast<uint64_t>(ev.session), *page,
                                   &f)
                    .accepted) {
          mgr.drain();
        }
        futures.push_back(std::move(f));
      }
      continue;
    }
    const auto& pool = streams[static_cast<size_t>(ev.session)];
    const auto& batch =
        pool[static_cast<size_t>(ev.batch_index) % pool.size()];
    if (submitted) {
      (*submitted)[static_cast<size_t>(ev.session)].push_back(&batch);
    }
    while (!mgr.submit_observe(static_cast<uint64_t>(ev.session), batch)
                .accepted) {
      mgr.drain();
    }
  }
  mgr.drain();
  // Re-join the pages: one prediction vector per predict event.
  std::vector<std::vector<int64_t>> preds;
  preds.reserve(futures.size() / 2);
  for (size_t i = 0; i + 1 < futures.size(); i += 2) {
    std::vector<int64_t> joined = futures[i].get();
    const std::vector<int64_t> tail = futures[i + 1].get();
    joined.insert(joined.end(), tail.begin(), tail.end());
    preds.push_back(std::move(joined));
  }
  return preds;
}

}  // namespace

int main(int argc, char** argv) {
  int64_t events = 400;
  int64_t sessions = 50;
  std::string out_path = "BENCH_serve.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--events") == 0 && i + 1 < argc)
      events = std::atoll(argv[++i]);
    if (std::strcmp(argv[i], "--sessions") == 0 && i + 1 < argc)
      sessions = std::atoll(argv[++i]);
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
      out_path = argv[++i];
  }

  // Small CORe50-shaped pool (shared with the checkpoint/serve test
  // fixtures, so the pretrain cache is reused).
  cham::metrics::ExperimentConfig cfg = cham::metrics::core50_experiment();
  cfg.data.num_classes = 6;
  cfg.data.num_domains = 2;
  cfg.data.train_instances = 5;
  cfg.pretrain_num_classes = 12;
  cfg.pretrain_epochs = 4;
  cfg.learner_lr = 0.02f;
  cham::metrics::Experiment exp(cfg);

  // Private per-session streams: distinct orderings over the shared pool.
  std::vector<std::vector<cham::data::Batch>> streams;
  for (int64_t s = 0; s < sessions; ++s) {
    cham::data::StreamConfig sc = cfg.stream;
    sc.seed = 5000 + static_cast<uint64_t>(s) * 7919;
    cham::data::DomainIncrementalStream stream(cfg.data, sc);
    exp.warm_latents(stream);
    streams.push_back(stream.batches());
  }

  cham::data::MultiUserConfig mc;
  mc.num_sessions = sessions;
  mc.events = events;
  mc.zipf_s = 1.1;
  mc.seed = 13;
  mc.predict_fraction = 0.15;  // realistic read mix in the serve path
  const auto schedule = cham::data::make_zipf_schedule(mc);

  cham::serve::ServeConfig sc;
  sc.num_shards = 4;
  sc.max_resident = 6;  // << sessions: continuous eviction pressure
  sc.queue_capacity = 16;
  sc.store_dir = "/tmp/cham_bench_serve";
  sc.base_seed = 97;
  sc.mode = cham::serve::ServeMode::kDeterministic;
  cham::serve::SessionStore(sc.store_dir).clear();

  auto factory = [&exp](uint64_t /*session_id*/, uint64_t seed) {
    return std::make_unique<ChameleonLearner>(exp.env(), learner_config(),
                                              seed);
  };
  cham::serve::SessionManager mgr(sc, factory);

  std::printf("bench_serve: %lld events over %lld sessions, shards=%lld, "
              "max_resident=%lld, predict mix %.0f%%\n",
              static_cast<long long>(events),
              static_cast<long long>(sessions),
              static_cast<long long>(sc.num_shards),
              static_cast<long long>(sc.max_resident),
              100.0 * mc.predict_fraction);

  const auto test_keys = cham::data::all_test_keys(cfg.data);
  std::vector<std::vector<const cham::data::Batch*>> submitted(
      static_cast<size_t>(sessions));
  const auto t0 = std::chrono::steady_clock::now();
  const auto batched_preds =
      run_predict_schedule(mgr, streams, schedule, test_keys, &submitted);
  const double serve_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  mgr.flush();

  const cham::serve::ServeStats st = mgr.stats();
  const cham::core::OpStats ops = mgr.aggregate_op_stats();
  const double throughput =
      serve_ms > 0
          ? 1000.0 * static_cast<double>(st.observes + st.predicts) / serve_ms
          : 0.0;

  // Fidelity spot-check: hottest rank, two mid ranks, and the coldest rank
  // that actually received traffic. Predicts are state-neutral, so the
  // isolated learner replays the observes only.
  std::vector<int64_t> probes;
  probes.push_back(0);
  probes.push_back(sessions / 4);
  probes.push_back(sessions / 2);
  for (int64_t s = sessions - 1; s >= 0; --s) {
    if (!submitted[static_cast<size_t>(s)].empty()) {
      probes.push_back(s);
      break;
    }
  }
  cham::serve::SessionStore reader(sc.store_dir);
  bool fidelity_exact = true;
  int64_t probes_checked = 0;
  for (int64_t s : probes) {
    if (submitted[static_cast<size_t>(s)].empty()) continue;
    ChameleonLearner restored(exp.env(), learner_config(), 0xBEEF);
    if (!reader.load(static_cast<uint64_t>(s), restored)) {
      fidelity_exact = false;
      continue;
    }
    ChameleonLearner isolated(exp.env(), learner_config(),
                              mgr.session_seed(static_cast<uint64_t>(s)));
    for (const auto* b : submitted[static_cast<size_t>(s)]) {
      isolated.observe(*b);
    }
    const bool ok = params_bit_identical(restored, isolated) &&
                    restored.predict(test_keys) == isolated.predict(test_keys);
    if (!ok) {
      std::printf("  FIDELITY MISMATCH session %lld\n",
                  static_cast<long long>(s));
      fidelity_exact = false;
    }
    ++probes_checked;
  }

  // Fidelity gate for the batch planner itself: the same schedule with
  // coalescing disabled (max_batch=1 executes every plan group as
  // single-request windows) must produce bit-identical predictions for
  // every predict event. Everything else about the run is unchanged.
  std::vector<std::vector<int64_t>> unbatched_preds;
  {
    cham::serve::ServeConfig sc1 = sc;
    sc1.max_batch = 1;
    sc1.store_dir = sc.store_dir + "_b1";
    cham::serve::SessionStore(sc1.store_dir).clear();
    cham::serve::SessionManager mgr1(sc1, factory);
    unbatched_preds =
        run_predict_schedule(mgr1, streams, schedule, test_keys, nullptr);
    mgr1.flush();
  }
  const bool batched_bit_exact = batched_preds == unbatched_preds;
  if (!batched_bit_exact) {
    std::printf("  BATCHED/UNBATCHED MISMATCH over %zu predict events\n",
                batched_preds.size());
  }

  // Throughput floor for the batched predict path (events/s at 15%
  // predicts): held up by plan coalescing + the GEMM thread-scaling work;
  // the pre-batching serve path cleared ~50 on this box. The evict-lock
  // ceiling guards the lock-held portion of eviction (victim select +
  // pointer moves; serialise-under-lock cost 63ms in the seed). Both are
  // wall-clock metrics and noisy on a shared box — a busy core can preempt
  // the shard thread mid-lock-section and charge it milliseconds it never
  // spent — so both gate best-of-3: retries only happen when the first run
  // misses, and a genuine regression fails all three attempts. Each retry
  // replays the identical schedule, so its predictions must be
  // bit-identical to the first run's — a cheap run-to-run determinism check.
  // Ratcheted 82 -> 100 with the zero-copy replay path (gather-fused GEMM
  // packing, stack_latents elimination, first-layer dInput elision).
  constexpr double kThroughputFloor = 100.0;
  constexpr double kEvictLockCeilingMs = 1.0;
  double best_throughput = throughput;
  double best_evict_lock_ms = st.evict_lock_ms_max;
  for (int attempt = 1;
       attempt < 3 && (best_throughput < kThroughputFloor ||
                       best_evict_lock_ms >= kEvictLockCeilingMs);
       ++attempt) {
    cham::serve::ServeConfig scr = sc;
    scr.store_dir = sc.store_dir + "_t" + std::to_string(attempt);
    cham::serve::SessionStore(scr.store_dir).clear();
    cham::serve::SessionManager mgr_r(scr, factory);
    const auto r0 = std::chrono::steady_clock::now();
    const auto preds_r =
        run_predict_schedule(mgr_r, streams, schedule, test_keys, nullptr);
    const double ms_r = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - r0)
                            .count();
    mgr_r.flush();
    const cham::serve::ServeStats st_r = mgr_r.stats();
    const double tp_r =
        ms_r > 0
            ? 1000.0 * static_cast<double>(st_r.observes + st_r.predicts) /
                  ms_r
            : 0.0;
    std::printf("  gate retry %d: %.1f events/s, evict lock max %.3f ms\n",
                attempt, tp_r, st_r.evict_lock_ms_max);
    if (preds_r != batched_preds) {
      std::printf("  RERUN NONDETERMINISM at gate retry %d\n", attempt);
      fidelity_exact = false;
    }
    if (tp_r > best_throughput) best_throughput = tp_r;
    if (st_r.evictions > 0 && st_r.evict_lock_ms_max < best_evict_lock_ms)
      best_evict_lock_ms = st_r.evict_lock_ms_max;
  }
  const bool throughput_ok = best_throughput >= kThroughputFloor;
  const bool evict_lock_ok =
      st.evictions > 0 && best_evict_lock_ms < kEvictLockCeilingMs;
  // Steady state must write deltas, and small ones: avg delta <= 1/5 of
  // the avg full blob.
  const int64_t delta_saves = st.wb_oplog_saves;
  const double avg_delta =
      delta_saves > 0 ? static_cast<double>(st.wb_delta_bytes) /
                            static_cast<double>(delta_saves)
                      : 0.0;
  const double avg_full =
      st.wb_full_saves > 0 ? static_cast<double>(st.wb_full_bytes) /
                                 static_cast<double>(st.wb_full_saves)
                           : 0.0;
  const bool delta_ratio_ok =
      delta_saves > 0 && avg_full > 0 && avg_delta * 5.0 <= avg_full;

  std::printf(
      "  served %lld observes + %lld predicts in %.1f ms (%.1f events/s)\n"
      "  evictions %lld, restores %lld (pending %lld / cache %lld / disk "
      "%lld), replayed ops %lld\n"
      "  snapshot serialise avg %.3f ms, evict lock max %.3f ms, flush max "
      "%.3f ms\n"
      "  flushes %lld: full %lld (avg %.0f B), oplog %lld (avg delta %.0f "
      "B)\n"
      "  batching: %lld merged windows, %lld predicts batched, max window "
      "%lld; retry hints avg %.1f ms / max %.1f ms over %lld rejections\n"
      "  gates: fidelity %s, batched_bit_exact %s, throughput(>=%.0f/s) %s, "
      "evict_lock(<%.1fms) %s, delta_ratio(<=1/5) %s\n",
      static_cast<long long>(st.observes),
      static_cast<long long>(st.predicts), serve_ms, throughput,
      static_cast<long long>(st.evictions),
      static_cast<long long>(st.restores),
      static_cast<long long>(st.pending_restores),
      static_cast<long long>(st.cache_restores),
      static_cast<long long>(st.disk_restores),
      static_cast<long long>(st.replayed_ops), st.save_ms_avg(),
      st.evict_lock_ms_max, st.flush_ms_max,
      static_cast<long long>(st.wb_flushes),
      static_cast<long long>(st.wb_full_saves), avg_full,
      static_cast<long long>(st.wb_oplog_saves), avg_delta,
      static_cast<long long>(st.predict_batches),
      static_cast<long long>(st.batched_predicts),
      static_cast<long long>(st.batch_size_max), st.retry_hint_ms_avg(),
      st.retry_hint_ms_max, static_cast<long long>(st.rejections),
      fidelity_exact ? "PASS" : "FAIL",
      batched_bit_exact ? "PASS" : "FAIL", kThroughputFloor,
      throughput_ok ? "PASS" : "FAIL", kEvictLockCeilingMs,
      evict_lock_ok ? "PASS" : "FAIL", delta_ratio_ok ? "PASS" : "FAIL");

  std::FILE* json = std::fopen(out_path.c_str(), "w");
  if (!json) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"bench_serve\",\n"
               "  \"sessions\": %lld,\n  \"events\": %lld,\n"
               "  \"zipf_s\": %.2f,\n  \"predict_fraction\": %.2f,\n"
               "  \"num_shards\": %lld,\n  \"max_resident\": %lld,\n"
               "  \"queue_capacity\": %lld,\n",
               static_cast<long long>(sessions),
               static_cast<long long>(events), mc.zipf_s, mc.predict_fraction,
               static_cast<long long>(sc.num_shards),
               static_cast<long long>(sc.max_resident),
               static_cast<long long>(sc.queue_capacity));
  std::fprintf(json,
               "  \"serve_ms\": %.2f,\n"
               "  \"throughput_events_per_s\": %.2f,\n"
               "  \"throughput_best_events_per_s\": %.2f,\n"
               "  \"serve_stats\": %s,\n",
               serve_ms, throughput, best_throughput, st.to_json().c_str());
  std::fprintf(json,
               "  \"aggregate_op_stats\": {\"images\": %lld, "
               "\"g_fwd_macs\": %.0f, \"g_bwd_macs\": %.0f, "
               "\"onchip_bytes\": %.0f, \"offchip_bytes\": %.0f},\n",
               static_cast<long long>(ops.images), ops.g_fwd_macs,
               ops.g_bwd_macs, ops.onchip_bytes, ops.offchip_bytes);
  std::fprintf(json,
               "  \"avg_full_blob_bytes\": %.0f,\n"
               "  \"avg_delta_bytes\": %.0f,\n",
               avg_full, avg_delta);
  std::fprintf(json,
               "  \"fidelity_sessions_checked\": %lld,\n"
               "  \"gate_fidelity_exact\": %s,\n"
               "  \"predict_events_compared\": %lld,\n"
               "  \"gate_batched_bit_exact\": %s,\n"
               "  \"throughput_floor_events_per_s\": %.1f,\n"
               "  \"gate_throughput_ok\": %s,\n"
               "  \"evict_lock_ceiling_ms\": %.1f,\n"
               "  \"evict_lock_ms_best\": %.3f,\n"
               "  \"gate_evict_lock_ok\": %s,\n"
               "  \"gate_delta_ratio_ok\": %s\n}\n",
               static_cast<long long>(probes_checked),
               fidelity_exact ? "true" : "false",
               static_cast<long long>(batched_preds.size()),
               batched_bit_exact ? "true" : "false", kThroughputFloor,
               throughput_ok ? "true" : "false", kEvictLockCeilingMs,
               best_evict_lock_ms, evict_lock_ok ? "true" : "false",
               delta_ratio_ok ? "true" : "false");
  std::fclose(json);
  std::printf("wrote %s\n", out_path.c_str());
  return fidelity_exact && batched_bit_exact && throughput_ok &&
                 evict_lock_ok && delta_ratio_ok
             ? 0
             : 1;
}
