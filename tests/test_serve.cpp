// Multi-session serving runtime: sharded learner pool with
// checkpoint-backed session eviction (src/serve/).
//
// The load-bearing property is EVICTION FIDELITY: for a randomized schedule
// of many sessions with forced evictions, every session's final head
// weights, replay-store contents and prediction outputs must be
// bit-identical to the same session run in isolation. Everything else
// (backpressure, RNG independence, threaded dispatch) supports that
// contract.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstring>
#include <span>
#include <thread>
#include <vector>

#include "core/chameleon.h"
#include "core/checkpoint.h"
#include "metrics/experiment.h"
#include "serve/session_manager.h"
#include "serve/session_store.h"
#include "util/check.h"

namespace cham {
namespace {

class ServeSuite : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    metrics::ExperimentConfig cfg = metrics::core50_experiment();
    cfg.data.num_classes = 6;
    cfg.data.num_domains = 2;
    cfg.data.train_instances = 5;
    cfg.pretrain_num_classes = 12;
    cfg.pretrain_epochs = 4;
    cfg.learner_lr = 0.02f;
    exp_ = new metrics::Experiment(cfg);
  }
  static void TearDownTestSuite() {
    delete exp_;
    exp_ = nullptr;
  }

  static core::ChameleonConfig learner_config() {
    core::ChameleonConfig cc;
    cc.lt_capacity = 18;
    return cc;
  }

  static serve::LearnerFactory factory() {
    return [](uint64_t /*session_id*/, uint64_t seed) {
      return std::make_unique<core::ChameleonLearner>(exp_->env(),
                                                      learner_config(), seed);
    };
  }

  // One private stream per session (distinct orderings over the shared
  // pool, so the latent cache warms once).
  static std::vector<data::Batch> session_batches(int64_t session,
                                                  uint64_t salt = 0) {
    data::StreamConfig sc = exp_->config().stream;
    sc.seed = 1000 + static_cast<uint64_t>(session) * 7919 + salt;
    data::DomainIncrementalStream stream(exp_->config().data, sc);
    exp_->warm_latents(stream);
    return stream.batches();
  }

  // Submits with drain-on-reject: backpressure tells us to make room, the
  // deterministic scheduler makes room by dispatching.
  static void submit_or_drain(serve::SessionManager& mgr, uint64_t sid,
                              const data::Batch& batch) {
    for (;;) {
      const serve::Admission adm = mgr.submit_observe(sid, batch);
      if (adm.accepted) return;
      EXPECT_GT(adm.retry_after_ms, 0);
      mgr.drain();
    }
  }

  static void expect_bit_identical(core::ChameleonLearner& a,
                                   core::ChameleonLearner& b,
                                   const std::string& what) {
    SCOPED_TRACE(what);
    // Head weights, byte for byte.
    auto pa = a.head().params();
    auto pb = b.head().params();
    ASSERT_EQ(pa.size(), pb.size());
    for (size_t i = 0; i < pa.size(); ++i) {
      ASSERT_EQ(pa[i]->value.numel(), pb[i]->value.numel());
      EXPECT_EQ(std::memcmp(pa[i]->value.data(), pb[i]->value.data(),
                            static_cast<size_t>(pa[i]->value.numel()) *
                                sizeof(float)),
                0)
          << "head param " << i << " differs";
    }
    // Short-term store contents.
    ASSERT_EQ(a.short_term().size(), b.short_term().size());
    for (int64_t i = 0; i < a.short_term().size(); ++i) {
      const auto& sta = a.short_term().store();
      const auto& stb = b.short_term().store();
      EXPECT_EQ(sta.label(i), stb.label(i)) << "ST slot " << i;
      ASSERT_EQ(sta.row_numel(), stb.row_numel());
      EXPECT_EQ(std::memcmp(sta.row(i), stb.row(i),
                            static_cast<size_t>(sta.row_numel()) *
                                sizeof(float)),
                0)
          << "ST latent " << i << " differs";
    }
    // Long-term store contents (per class, slot order).
    const auto la = a.long_term().all_samples();
    const auto lb = b.long_term().all_samples();
    ASSERT_EQ(la.size(), lb.size());
    for (size_t i = 0; i < la.size(); ++i) {
      EXPECT_EQ(la[i].label, lb[i].label) << "LT slot " << i;
      ASSERT_EQ(la[i].latent.numel(), lb[i].latent.numel());
      EXPECT_EQ(std::memcmp(la[i].latent.data(), lb[i].latent.data(),
                            static_cast<size_t>(la[i].latent.numel()) *
                                sizeof(float)),
                0)
          << "LT latent " << i << " differs";
    }
    // Preference statistics, including mid-window counters.
    EXPECT_EQ(a.preferences().samples_seen(), b.preferences().samples_seen());
    EXPECT_EQ(a.preferences().window_seen(), b.preferences().window_seen());
    EXPECT_EQ(a.preferences().recalibrations(),
              b.preferences().recalibrations());
    EXPECT_EQ(a.preferences().delta_k(), b.preferences().delta_k());
    EXPECT_EQ(a.preferences().preferred_classes(),
              b.preferences().preferred_classes());
    EXPECT_EQ(a.steps_observed(), b.steps_observed());
    // Traffic ledger.
    EXPECT_EQ(a.stats().onchip_bytes, b.stats().onchip_bytes);
    EXPECT_EQ(a.stats().offchip_bytes, b.stats().offchip_bytes);
  }

  static metrics::Experiment* exp_;
};

metrics::Experiment* ServeSuite::exp_ = nullptr;

// ---------------------------------------------------------------------------
// Acceptance gate: randomized schedule of >= 20 sessions, a resident pool
// far smaller than the session count (forced evictions), every session
// bit-identical to isolation at the end.
TEST_F(ServeSuite, EvictionFidelityAcrossRandomizedSchedule) {
  constexpr int64_t kSessions = 22;
  serve::ServeConfig sc;
  sc.num_shards = 3;
  sc.max_resident = 4;  // << kSessions: every session cycles through disk
  sc.queue_capacity = 8;
  sc.store_dir = "/tmp/cham_serve_fidelity";
  sc.base_seed = 7;
  sc.mode = serve::ServeMode::kDeterministic;
  serve::SessionStore(sc.store_dir).clear();

  std::vector<std::vector<data::Batch>> batches;
  for (int64_t s = 0; s < kSessions; ++s) {
    batches.push_back(session_batches(s));
  }

  // Zipf-skewed randomized interleaving, plus one guaranteed event per
  // session so every session participates.
  data::MultiUserConfig mc;
  mc.num_sessions = kSessions;
  mc.events = 140;
  mc.zipf_s = 0.9;
  mc.seed = 11;
  auto schedule = data::make_zipf_schedule(mc);
  std::vector<int64_t> next_index(kSessions, 0);
  std::vector<std::vector<data::Batch>> submitted(kSessions);
  {
    serve::SessionManager mgr(sc, factory());
    auto submit_next = [&](int64_t session) {
      const auto& pool = batches[static_cast<size_t>(session)];
      const auto& batch = pool[static_cast<size_t>(
          next_index[static_cast<size_t>(session)] %
          static_cast<int64_t>(pool.size()))];
      ++next_index[static_cast<size_t>(session)];
      submitted[static_cast<size_t>(session)].push_back(batch);
      submit_or_drain(mgr, static_cast<uint64_t>(session), batch);
    };
    for (const auto& ev : schedule) submit_next(ev.session);
    for (int64_t s = 0; s < kSessions; ++s) submit_next(s);
    mgr.flush();

    const serve::ServeStats st = mgr.stats();
    EXPECT_GT(st.evictions, kSessions);  // pool of 4 must thrash
    EXPECT_GT(st.restores, 0);
    EXPECT_EQ(st.observes, st.admissions);
    EXPECT_LE(st.resident_high_water, sc.max_resident);

    // Every session: restore from the store and compare against the same
    // stream run in isolation with the session's derived seed.
    serve::SessionStore reader(sc.store_dir);
    const auto test_keys = data::all_test_keys(exp_->config().data);
    for (int64_t s = 0; s < kSessions; ++s) {
      core::ChameleonLearner restored(exp_->env(), learner_config(),
                                      /*seed=*/0xDEAD);
      ASSERT_TRUE(reader.load(static_cast<uint64_t>(s), restored))
          << "session " << s << " missing from store";
      core::ChameleonLearner isolated(
          exp_->env(), learner_config(),
          mgr.session_seed(static_cast<uint64_t>(s)));
      for (const auto& b : submitted[static_cast<size_t>(s)]) {
        isolated.observe(b);
      }
      expect_bit_identical(restored, isolated,
                           "session " + std::to_string(s));
      EXPECT_EQ(restored.predict(test_keys), isolated.predict(test_keys))
          << "prediction outputs differ for session " << s;
    }
  }
}

// Per-session results must not depend on how sessions interleave: the same
// per-session work submitted in two very different global orders produces
// byte-identical per-session state.
TEST_F(ServeSuite, AdmissionOrderDoesNotChangePerSessionResults) {
  constexpr int64_t kSessions = 6;
  constexpr int64_t kBatchesPerSession = 4;

  std::vector<std::vector<data::Batch>> batches;
  for (int64_t s = 0; s < kSessions; ++s) {
    batches.push_back(session_batches(s, /*salt=*/77));
  }

  auto run_order = [&](const std::string& dir, bool reversed) {
    serve::ServeConfig sc;
    sc.num_shards = 2;
    sc.max_resident = 2;
    sc.queue_capacity = 4;
    sc.store_dir = dir;
    sc.base_seed = 21;
    serve::SessionStore(dir).clear();
    serve::SessionManager mgr(sc, factory());
    for (int64_t b = 0; b < kBatchesPerSession; ++b) {
      for (int64_t i = 0; i < kSessions; ++i) {
        const int64_t s = reversed ? kSessions - 1 - i : i;
        submit_or_drain(mgr, static_cast<uint64_t>(s),
                        batches[static_cast<size_t>(s)][static_cast<size_t>(
                            b % static_cast<int64_t>(
                                    batches[static_cast<size_t>(s)].size()))]);
      }
      if (b % 2 == 1) mgr.drain();
    }
    mgr.flush();
  };

  run_order("/tmp/cham_serve_order_a", false);
  run_order("/tmp/cham_serve_order_b", true);

  serve::SessionStore a("/tmp/cham_serve_order_a");
  serve::SessionStore b("/tmp/cham_serve_order_b");
  for (int64_t s = 0; s < kSessions; ++s) {
    core::ChameleonLearner la(exp_->env(), learner_config(), 0x1);
    core::ChameleonLearner lb(exp_->env(), learner_config(), 0x2);
    ASSERT_TRUE(a.load(static_cast<uint64_t>(s), la));
    ASSERT_TRUE(b.load(static_cast<uint64_t>(s), lb));
    expect_bit_identical(la, lb, "session " + std::to_string(s));
  }
}

// Satellite: per-session RNG streams are derived by hashing, not by
// admission order — distinct ids get distinct seeds, and the same id always
// gets the same seed.
TEST_F(ServeSuite, SessionSeedsAreStableAndDistinct) {
  serve::ServeConfig sc;
  sc.num_shards = 1;
  sc.max_resident = 1;
  sc.store_dir = "/tmp/cham_serve_seeds";
  sc.base_seed = 123;
  serve::SessionManager mgr(sc, factory());
  std::vector<uint64_t> seeds;
  for (uint64_t s = 0; s < 256; ++s) seeds.push_back(mgr.session_seed(s));
  for (size_t i = 0; i < seeds.size(); ++i) {
    for (size_t j = i + 1; j < seeds.size(); ++j) {
      ASSERT_NE(seeds[i], seeds[j]) << "seed collision " << i << "," << j;
    }
  }
  EXPECT_EQ(mgr.session_seed(42), mgr.session_seed(42));
  // Different base seeds decorrelate the whole pool.
  EXPECT_NE(split_seed(1, 42), split_seed(2, 42));
}

// Backpressure: a full shard queue rejects with a retry hint instead of
// growing; draining makes room again.
TEST_F(ServeSuite, BoundedQueueRejectsWithRetryHint) {
  serve::ServeConfig sc;
  sc.num_shards = 1;
  sc.max_resident = 1;
  sc.queue_capacity = 2;
  sc.retry_hint_ms = 9;
  sc.store_dir = "/tmp/cham_serve_backpressure";
  serve::SessionStore(sc.store_dir).clear();
  serve::SessionManager mgr(sc, factory());

  const auto batches = session_batches(0);
  EXPECT_TRUE(mgr.submit_observe(5, batches[0]).accepted);
  EXPECT_TRUE(mgr.submit_observe(5, batches[1]).accepted);
  const serve::Admission rejected = mgr.submit_observe(5, batches[2]);
  EXPECT_FALSE(rejected.accepted);
  EXPECT_EQ(rejected.retry_after_ms, 9);
  EXPECT_EQ(rejected.queue_depth, 2);

  mgr.drain();
  EXPECT_TRUE(mgr.submit_observe(5, batches[2]).accepted);
  mgr.drain();

  const serve::ServeStats st = mgr.stats();
  EXPECT_EQ(st.rejections, 1);
  EXPECT_EQ(st.admissions, 3);
  EXPECT_EQ(st.observes, 3);
  EXPECT_EQ(st.queue_depth_high_water, 2);
}

// Predict is FIFO-ordered behind the session's pending observes
// (read-your-writes) and matches an isolated learner's outputs.
TEST_F(ServeSuite, PredictSeesPendingObserves) {
  serve::ServeConfig sc;
  sc.num_shards = 2;
  sc.max_resident = 2;
  sc.queue_capacity = 16;
  sc.store_dir = "/tmp/cham_serve_predict";
  sc.base_seed = 5;
  serve::SessionStore(sc.store_dir).clear();
  serve::SessionManager mgr(sc, factory());

  const auto batches = session_batches(3);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(mgr.submit_observe(9, batches[static_cast<size_t>(i)])
                    .accepted);
  }
  const auto test_keys = data::all_test_keys(exp_->config().data);
  const auto served = mgr.predict(9, test_keys);  // no explicit drain
  ASSERT_TRUE(served.has_value());

  core::ChameleonLearner isolated(exp_->env(), learner_config(),
                                  mgr.session_seed(9));
  for (int i = 0; i < 3; ++i) {
    isolated.observe(batches[static_cast<size_t>(i)]);
  }
  EXPECT_EQ(*served, isolated.predict(test_keys));

  const serve::ServeStats st = mgr.stats();
  EXPECT_EQ(st.observes, 3);
  EXPECT_EQ(st.predicts, 1);
}

// Threaded mode: per-session results stay bit-identical to isolation even
// with real cross-shard concurrency.
TEST_F(ServeSuite, ThreadedModeMatchesIsolation) {
  constexpr int64_t kSessions = 8;
  constexpr int64_t kBatchesPerSession = 3;
  serve::ServeConfig sc;
  sc.num_shards = 4;
  sc.max_resident = 5;
  sc.queue_capacity = 8;
  sc.store_dir = "/tmp/cham_serve_threaded";
  sc.base_seed = 31;
  sc.mode = serve::ServeMode::kThreaded;
  serve::SessionStore(sc.store_dir).clear();

  std::vector<std::vector<data::Batch>> batches;
  for (int64_t s = 0; s < kSessions; ++s) {
    batches.push_back(session_batches(s, /*salt=*/31));
  }
  {
    serve::SessionManager mgr(sc, factory());
    for (int64_t b = 0; b < kBatchesPerSession; ++b) {
      for (int64_t s = 0; s < kSessions; ++s) {
        for (;;) {
          if (mgr.submit_observe(static_cast<uint64_t>(s),
                                 batches[static_cast<size_t>(s)]
                                        [static_cast<size_t>(b)])
                  .accepted) {
            break;
          }
          // Workers drain continuously; brief yield and retry.
          std::this_thread::yield();
        }
      }
    }
    mgr.flush();

    serve::SessionStore reader(sc.store_dir);
    for (int64_t s = 0; s < kSessions; ++s) {
      core::ChameleonLearner restored(exp_->env(), learner_config(), 0xF00);
      ASSERT_TRUE(reader.load(static_cast<uint64_t>(s), restored));
      core::ChameleonLearner isolated(
          exp_->env(), learner_config(),
          mgr.session_seed(static_cast<uint64_t>(s)));
      for (int64_t b = 0; b < kBatchesPerSession; ++b) {
        isolated.observe(batches[static_cast<size_t>(s)]
                                [static_cast<size_t>(b)]);
      }
      expect_bit_identical(restored, isolated,
                           "threaded session " + std::to_string(s));
    }
  }
}

// SessionStore basics: blobs round-trip, enumerate, and erase.
TEST_F(ServeSuite, SessionStoreLifecycle) {
  const std::string dir = "/tmp/cham_serve_store";
  serve::SessionStore store(dir);
  store.clear();
  EXPECT_EQ(store.size(), 0);
  EXPECT_FALSE(store.contains(4));

  core::ChameleonLearner learner(exp_->env(), learner_config(), 17);
  const auto batches = session_batches(1);
  learner.observe(batches[0]);
  ASSERT_TRUE(store.save(4, learner));
  ASSERT_TRUE(store.save(9000000007ull, learner));
  EXPECT_TRUE(store.contains(4));
  EXPECT_EQ(store.size(), 2);
  EXPECT_EQ(store.session_ids(),
            (std::vector<uint64_t>{4, 9000000007ull}));
  EXPECT_GT(store.bytes_written(), 0);

  core::ChameleonLearner other(exp_->env(), learner_config(), 99);
  ASSERT_TRUE(store.load(4, other));
  expect_bit_identical(learner, other, "store round trip");
  EXPECT_GT(store.bytes_read(), 0);

  EXPECT_TRUE(store.erase(4));
  EXPECT_FALSE(store.contains(4));
  EXPECT_FALSE(store.erase(4));
  store.clear();
  EXPECT_EQ(store.size(), 0);
}

// The Zipf schedule helper: deterministic in the seed, skewed toward low
// ranks, and per-session batch indices count up densely.
TEST_F(ServeSuite, ZipfScheduleShape) {
  data::MultiUserConfig mc;
  mc.num_sessions = 20;
  mc.events = 2000;
  mc.zipf_s = 1.2;
  mc.seed = 3;
  const auto a = data::make_zipf_schedule(mc);
  const auto b = data::make_zipf_schedule(mc);
  ASSERT_EQ(a.size(), 2000u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].session, b[i].session);
    EXPECT_EQ(a[i].batch_index, b[i].batch_index);
  }
  std::vector<int64_t> counts(20, 0), next(20, 0);
  for (const auto& ev : a) {
    ASSERT_GE(ev.session, 0);
    ASSERT_LT(ev.session, 20);
    EXPECT_EQ(ev.batch_index, next[static_cast<size_t>(ev.session)]++);
    ++counts[static_cast<size_t>(ev.session)];
  }
  EXPECT_GT(counts[0], counts[19] * 2) << "rank 0 should dominate the tail";
}

// ---------------------------------------------------------------------------
// Write-behind eviction pipeline + serve-path failure handling.

// A learner whose predict() can be armed to throw, for fault injection
// through the virtual dispatch path the manager uses.
class ThrowingLearner : public core::ChameleonLearner {
 public:
  ThrowingLearner(const core::LearnerEnv& env,
                  const core::ChameleonConfig& cfg, uint64_t seed,
                  std::shared_ptr<std::atomic<bool>> arm)
      : core::ChameleonLearner(env, cfg, seed), arm_(std::move(arm)) {}
  // predict_batch is the single funnel both the plain predict() path and
  // the serve batch planner flow through — overriding it injects the
  // failure into either.
  std::vector<int64_t> predict_batch(
      std::span<const data::ImageKey> keys) override {
    if (arm_->load()) throw util::CheckError("injected predict failure");
    return core::ChameleonLearner::predict_batch(keys);
  }

 private:
  std::shared_ptr<std::atomic<bool>> arm_;
};

// Satellite bugfix: a failed write (disk full) must never replace a valid
// blob with a truncated one. The temp file is diverted to /dev/full so every
// write fails with ENOSPC before the rename.
TEST_F(ServeSuite, SaveFailureLeavesOldBlobIntact) {
  const std::string dir = "/tmp/cham_serve_diskfull";
  serve::SessionStore store(dir);
  store.clear();
  const auto batches = session_batches(2);
  core::ChameleonLearner learner(exp_->env(), learner_config(), 17);
  learner.observe(batches[0]);
  ASSERT_TRUE(store.save(7, learner));

  // Divert the next temp file to a device that rejects all writes.
  const std::string tmp = dir + "/session_7.chk.tmp";
  ASSERT_EQ(::symlink("/dev/full", tmp.c_str()), 0) << "symlink failed";
  learner.observe(batches[1]);
  EXPECT_FALSE(store.save(7, learner)) << "ENOSPC write must fail the save";

  // The pre-failure blob is still installed, complete, and loadable.
  core::ChameleonLearner as_of_first_save(exp_->env(), learner_config(), 17);
  as_of_first_save.observe(batches[0]);
  core::ChameleonLearner restored(exp_->env(), learner_config(), 99);
  ASSERT_TRUE(store.load(7, restored));
  expect_bit_identical(as_of_first_save, restored, "blob after failed save");

  // The failed attempt cleaned up its temp link; a retry succeeds.
  ASSERT_TRUE(store.save(7, learner));
  core::ChameleonLearner after(exp_->env(), learner_config(), 98);
  ASSERT_TRUE(store.load(7, after));
  expect_bit_identical(learner, after, "blob after retried save");
  store.clear();
}

// Satellite bugfix: an exception inside dispatch must reach the predict()
// caller through the promise — not leave it unfulfilled (caller hangs
// forever) or kill the shard worker. After the failure the session is
// unpinned and both scheduler modes keep serving.
TEST_F(ServeSuite, PredictExceptionPropagatesWithoutHanging) {
  auto arm = std::make_shared<std::atomic<bool>>(false);
  serve::LearnerFactory throwing_factory =
      [arm](uint64_t /*session_id*/, uint64_t seed) {
        return std::unique_ptr<core::ChameleonLearner>(
            std::make_unique<ThrowingLearner>(exp_->env(), learner_config(),
                                              seed, arm));
      };
  const auto batches = session_batches(4);
  const auto test_keys = data::all_test_keys(exp_->config().data);

  for (const auto mode :
       {serve::ServeMode::kDeterministic, serve::ServeMode::kThreaded}) {
    SCOPED_TRACE(mode == serve::ServeMode::kThreaded ? "threaded"
                                                     : "deterministic");
    serve::ServeConfig sc;
    sc.num_shards = 2;
    sc.max_resident = 2;
    sc.queue_capacity = 8;
    sc.store_dir = "/tmp/cham_serve_throw";
    sc.mode = mode;
    serve::SessionStore(sc.store_dir).clear();
    serve::SessionManager mgr(sc, throwing_factory);

    while (!mgr.submit_observe(8, batches[0]).accepted) mgr.drain();
    arm->store(true);
    EXPECT_THROW((void)mgr.predict(8, test_keys), util::CheckError);
    arm->store(false);

    // Worker survived, pin released: the same session serves again.
    const auto after = mgr.predict(8, test_keys);
    ASSERT_TRUE(after.has_value());
    EXPECT_EQ(after->size(), test_keys.size());
    mgr.flush();
    const serve::ServeStats st = mgr.stats();
    EXPECT_EQ(st.dispatch_errors, 1);
    EXPECT_EQ(st.predicts, 1);  // only the successful one counts
  }
}

// Tentpole: a restore racing its own write-behind flush must read the
// pending snapshot bit-identically. The IO thread is frozen so every
// eviction's flush stays pending and every restore is forced through the
// in-memory pipeline, never disk.
TEST_F(ServeSuite, RestoreDuringPendingFlushIsBitExact) {
  constexpr int kRounds = 3;
  serve::ServeConfig sc;
  sc.num_shards = 1;
  sc.max_resident = 1;  // every session switch evicts
  sc.queue_capacity = 4;
  sc.store_dir = "/tmp/cham_serve_pending";
  sc.base_seed = 77;
  serve::SessionStore(sc.store_dir).clear();
  serve::SessionManager mgr(sc, factory());

  std::vector<std::vector<data::Batch>> batches;
  for (int64_t s = 0; s < 2; ++s) batches.push_back(session_batches(s));

  mgr.write_behind().pause_for_test();
  for (int round = 0; round < kRounds; ++round) {
    for (uint64_t s = 0; s < 2; ++s) {
      submit_or_drain(mgr, s, batches[s][static_cast<size_t>(round)]);
      mgr.drain();
    }
  }
  const serve::ServeStats mid = mgr.stats();
  EXPECT_GT(mid.pending_restores, 0) << "restores must hit the frozen queue";
  EXPECT_EQ(mid.disk_restores, 0);
  mgr.write_behind().resume_for_test();
  mgr.flush();

  serve::SessionStore reader(sc.store_dir);
  for (uint64_t s = 0; s < 2; ++s) {
    core::ChameleonLearner restored(exp_->env(), learner_config(), 0xBEEF);
    ASSERT_TRUE(reader.load(s, restored));
    core::ChameleonLearner isolated(exp_->env(), learner_config(),
                                    mgr.session_seed(s));
    for (int round = 0; round < kRounds; ++round) {
      isolated.observe(batches[s][static_cast<size_t>(round)]);
    }
    expect_bit_identical(restored, isolated,
                         "pending-restore session " + std::to_string(s));
  }
}

// Satellite bugfix: drain() racing shutdown must not hang, and a manager
// destroyed with queued work must drain it. Completion of this test IS the
// assertion.
TEST_F(ServeSuite, ShutdownWithConcurrentDrainsDoesNotHang) {
  serve::ServeConfig sc;
  sc.num_shards = 2;
  sc.max_resident = 3;
  sc.queue_capacity = 16;
  sc.store_dir = "/tmp/cham_serve_shutdown";
  sc.mode = serve::ServeMode::kThreaded;
  serve::SessionStore(sc.store_dir).clear();
  const auto batches = session_batches(5);
  {
    serve::SessionManager mgr(sc, factory());
    for (int i = 0; i < 6; ++i) {
      while (!mgr.submit_observe(static_cast<uint64_t>(i % 3),
                                 batches[static_cast<size_t>(i) %
                                         batches.size()])
                  .accepted) {
        std::this_thread::yield();
      }
    }
    std::vector<std::thread> drains;
    for (int t = 0; t < 3; ++t) drains.emplace_back([&mgr] { mgr.drain(); });
    for (auto& t : drains) t.join();
    // Leave fresh work queued; the destructor must flush it.
    while (!mgr.submit_observe(1, batches[0]).accepted) {
      std::this_thread::yield();
    }
  }
  serve::SessionStore reader(sc.store_dir);
  EXPECT_EQ(reader.size(), 3);  // all three sessions landed on disk
}

// Tentpole: steady-state eviction writes shrink by >5x once a session's
// base blob is on disk — each re-eviction after a single observe writes an
// op-log delta, not the 2MB full blob.
TEST_F(ServeSuite, SteadyStateEvictionWritesUseDeltas) {
  constexpr int kRounds = 6;
  serve::ServeConfig sc;
  sc.num_shards = 1;
  sc.max_resident = 1;
  sc.queue_capacity = 4;
  sc.store_dir = "/tmp/cham_serve_delta";
  sc.base_seed = 13;
  serve::SessionStore(sc.store_dir).clear();
  serve::SessionManager mgr(sc, factory());

  std::vector<std::vector<data::Batch>> batches;
  for (int64_t s = 0; s < 2; ++s) batches.push_back(session_batches(s, 5));

  for (int round = 0; round < kRounds; ++round) {
    for (uint64_t s = 0; s < 2; ++s) {
      submit_or_drain(
          mgr, s,
          batches[s][static_cast<size_t>(round) % batches[s].size()]);
      mgr.drain();
    }
  }
  mgr.write_behind().drain();  // settle flushes WITHOUT forcing compaction

  const serve::ServeStats st = mgr.stats();
  const int64_t delta_saves = st.wb_oplog_saves;
  ASSERT_GT(delta_saves, 0) << "steady state must produce delta writes";
  ASSERT_GT(st.wb_full_saves, 0);
  const double avg_delta =
      static_cast<double>(st.wb_delta_bytes) / static_cast<double>(delta_saves);
  const double avg_full = static_cast<double>(st.wb_full_bytes) /
                          static_cast<double>(st.wb_full_saves);
  EXPECT_LE(avg_delta * 5.0, avg_full)
      << "avg delta " << avg_delta << "B vs avg full " << avg_full << "B";

  // Fidelity still holds through the delta path.
  mgr.flush();
  serve::SessionStore reader(sc.store_dir);
  for (uint64_t s = 0; s < 2; ++s) {
    core::ChameleonLearner restored(exp_->env(), learner_config(), 0xACE);
    ASSERT_TRUE(reader.load(s, restored));
    core::ChameleonLearner isolated(exp_->env(), learner_config(),
                                    mgr.session_seed(s));
    for (int round = 0; round < kRounds; ++round) {
      isolated.observe(
          batches[s][static_cast<size_t>(round) % batches[s].size()]);
    }
    expect_bit_identical(restored, isolated,
                         "delta-path session " + std::to_string(s));
  }
}

// Disk restore through an op-log delta: base blob + logged requests on
// disk (as after a crash that lost the RAM cache), the manager replays the
// log through a fresh learner and lands, hash-verified, on the exact state.
TEST_F(ServeSuite, OpLogDeltaRestoreReplaysFromDisk) {
  serve::ServeConfig sc;
  sc.num_shards = 1;
  sc.max_resident = 2;
  sc.store_dir = "/tmp/cham_serve_oplog";
  sc.base_seed = 55;
  serve::SessionStore(sc.store_dir).clear();

  const uint64_t sid = 3;
  const uint64_t seed = split_seed(sc.base_seed, sid);
  const auto batches = session_batches(6);
  const auto test_keys = data::all_test_keys(exp_->config().data);

  // Hand-craft the on-disk state: full blob after batch 0, op-log delta
  // covering batches 1 and 2 plus one predict (predicts charge eval MACs,
  // so they are part of the logged state transition).
  core::ChameleonLearner source(exp_->env(), learner_config(), seed);
  source.observe(batches[0]);
  core::ByteBuf base;
  {
    core::ByteBufWriter os(base);
    ASSERT_TRUE(source.save_state(os));
  }
  std::vector<data::ServeOp> ops(3);
  ops[0].batch = batches[1];
  ops[1].predict = true;
  ops[1].keys = test_keys;
  ops[2].batch = batches[2];
  source.observe(batches[1]);
  (void)source.predict(test_keys);
  source.observe(batches[2]);
  core::ByteBuf target;
  {
    core::ByteBufWriter os(target);
    ASSERT_TRUE(source.save_state(os));
  }
  core::DeltaHeader h;
  h.kind = core::DeltaKind::kOpLog;
  h.base_hash = core::blob_hash(base.data(), base.size());
  h.base_len = base.size();
  h.next_hash = core::blob_hash(target.data(), target.size());
  h.next_len = target.size();
  const core::ByteBuf frame = core::encode_op_log(h, ops);
  {
    serve::SessionStore writer(sc.store_dir);
    ASSERT_TRUE(writer.put_full(sid, base.data(), base.size()));
    ASSERT_TRUE(writer.put_delta(sid, frame.data(), frame.size()));
    EXPECT_TRUE(writer.has_delta(sid));
  }

  // A cold manager must reconstruct the target state by replay.
  serve::SessionManager mgr(sc, factory());
  const auto served = mgr.predict(sid, test_keys);
  ASSERT_TRUE(served.has_value());
  EXPECT_EQ(*served, source.predict(test_keys));
  const serve::ServeStats st = mgr.stats();
  EXPECT_EQ(st.disk_restores, 1);
  EXPECT_EQ(st.replayed_ops, 3);
}

// Crash consistency: a full write renames .chk before unlinking .delta; a
// crash in between leaves a stale delta whose base hash mismatches. load()
// must serve the (newer) base alone, never apply the stale delta.
TEST_F(ServeSuite, StaleDeltaIsIgnoredOnLoad) {
  serve::SessionStore store("/tmp/cham_serve_stale");
  store.clear();
  const auto batches = session_batches(7);

  core::ChameleonLearner learner(exp_->env(), learner_config(), 27);
  learner.observe(batches[0]);
  core::ByteBuf blob_a;
  {
    core::ByteBufWriter os(blob_a);
    ASSERT_TRUE(learner.save_state(os));
  }
  learner.observe(batches[1]);
  core::ByteBuf blob_b;
  {
    core::ByteBufWriter os(blob_b);
    ASSERT_TRUE(learner.save_state(os));
  }
  std::vector<data::ServeOp> ops(1);
  ops[0].batch = batches[1];
  core::DeltaHeader h;
  h.base_hash = core::blob_hash(blob_a.data(), blob_a.size());
  h.base_len = blob_a.size();
  h.next_hash = core::blob_hash(blob_b.data(), blob_b.size());
  h.next_len = blob_b.size();
  const core::ByteBuf delta_ab = core::encode_op_log(h, ops);

  // Live pair: base A + op log A->B. The newest state (B) needs replay
  // through a SessionManager, so a plain reader refuses rather than serve A.
  ASSERT_TRUE(store.put_full(1, blob_a.data(), blob_a.size()));
  ASSERT_TRUE(store.put_delta(1, delta_ab.data(), delta_ab.size()));
  core::ChameleonLearner as_b(exp_->env(), learner_config(), 0x11);
  EXPECT_FALSE(store.load(1, as_b)) << "live op-log delta must not be skipped";

  // Advance the base past the delta (a put_full removes it), then
  // re-install the stale delta as a crash between rename and unlink would.
  learner.observe(batches[2]);
  core::ByteBuf blob_c;
  {
    core::ByteBufWriter os(blob_c);
    ASSERT_TRUE(learner.save_state(os));
  }
  ASSERT_TRUE(store.put_full(1, blob_c.data(), blob_c.size()));
  EXPECT_FALSE(store.has_delta(1)) << "put_full must remove the delta";
  ASSERT_TRUE(store.put_delta(1, delta_ab.data(), delta_ab.size()));

  core::ChameleonLearner as_c(exp_->env(), learner_config(), 0x22);
  ASSERT_TRUE(store.load(1, as_c));
  expect_bit_identical(as_c, learner, "stale delta ignored, base served");
  store.clear();
}

// A kind-0 CHS3 frame (the retired dirty-chunk diff, no longer written or
// applied), built byte by byte: header, then an empty chunk body.
core::ByteBuf legacy_chunk_frame(uint64_t base_hash, uint64_t base_len) {
  core::ByteBuf f;
  auto put = [&f](const auto& v) {
    const char* p = reinterpret_cast<const char*>(&v);
    f.insert(f.end(), p, p + sizeof(v));
  };
  put(uint32_t{0x43485333});  // "CHS3"
  put(uint32_t{1});           // frame version
  put(uint8_t{0});            // kind 0: chunk diff
  put(base_hash);
  put(base_len);
  put(base_hash);             // next == base: an unchanged-blob frame
  put(base_len);
  put(uint32_t{256});         // chunk bytes
  put(uint32_t{0});           // dirty chunk count
  return f;
}

// Stores written before the chunk diff was retired may still hold such a
// frame. A stale one reads like any stale delta (the base is served); a
// live or truncated one makes load() fail — it must never silently serve
// older state.
TEST_F(ServeSuite, LegacyChunkFrameIsNeverApplied) {
  serve::SessionStore store("/tmp/cham_serve_legacy");
  store.clear();
  core::ChameleonLearner learner(exp_->env(), learner_config(), 31);
  learner.observe(session_batches(8)[0]);
  core::ByteBuf blob;
  {
    core::ByteBufWriter os(blob);
    ASSERT_TRUE(learner.save_state(os));
  }
  const uint64_t hash = core::blob_hash(blob.data(), blob.size());
  ASSERT_TRUE(store.put_full(1, blob.data(), blob.size()));

  const core::ByteBuf stale = legacy_chunk_frame(hash ^ 1, blob.size());
  ASSERT_TRUE(store.put_delta(1, stale.data(), stale.size()));
  core::ChameleonLearner from_stale(exp_->env(), learner_config(), 0x33);
  ASSERT_TRUE(store.load(1, from_stale));
  expect_bit_identical(from_stale, learner, "stale legacy frame, base served");

  const core::ByteBuf live = legacy_chunk_frame(hash, blob.size());
  ASSERT_TRUE(store.put_delta(1, live.data(), live.size()));
  core::ChameleonLearner from_live(exp_->env(), learner_config(), 0x44);
  EXPECT_FALSE(store.load(1, from_live));

  // A header cut short is unparseable: refused too, never guessed at.
  ASSERT_TRUE(store.put_delta(1, live.data(), 12));
  EXPECT_FALSE(store.load(1, from_live));
  store.clear();
}

// --- Batched predict dispatch (serve/batch_planner.h) ----------------------

// Submits a predict with drain-on-reject and returns its future.
std::future<std::vector<int64_t>> submit_predict_or_drain(
    serve::SessionManager& mgr, uint64_t sid,
    const std::vector<data::ImageKey>& keys) {
  for (;;) {
    std::future<std::vector<int64_t>> result;
    if (mgr.submit_predict(sid, keys, &result).accepted) return result;
    mgr.drain();
  }
}

// Tentpole: a planned batch — merged windows included — returns exactly the
// bits the unbatched per-request path returns, and a batch of one is just
// the unbatched path. Reference results come from isolated learners run
// with each session's derived seed.
TEST_F(ServeSuite, BatchedPredictMatchesIsolatedLearner) {
  constexpr int64_t kSessions = 5;
  serve::ServeConfig sc;
  sc.num_shards = 2;
  sc.max_resident = 6;
  sc.queue_capacity = 16;
  sc.max_batch = 4;  // kSessions' predicts need > 1 window
  sc.store_dir = "/tmp/cham_serve_batch_iso";
  sc.base_seed = 33;
  serve::SessionStore(sc.store_dir).clear();
  serve::SessionManager mgr(sc, factory());

  std::vector<std::vector<data::Batch>> batches;
  for (int64_t s = 0; s < kSessions; ++s) {
    batches.push_back(session_batches(s, /*salt=*/5));
    submit_or_drain(mgr, static_cast<uint64_t>(s),
                    batches[static_cast<size_t>(s)][0]);
  }
  mgr.drain();
  const auto test_keys = data::all_test_keys(exp_->config().data);

  // Batch of one: a lone queued predict becomes a single-request plan.
  auto lone = submit_predict_or_drain(mgr, 0, test_keys);
  mgr.drain();
  core::ChameleonLearner iso0(exp_->env(), learner_config(),
                              mgr.session_seed(0));
  iso0.observe(batches[0][0]);
  EXPECT_EQ(lone.get(), iso0.predict(test_keys)) << "batch-of-one differs";
  {
    const serve::ServeStats st = mgr.stats();
    EXPECT_EQ(st.predict_batches, 0) << "a lone predict must not be merged";
  }

  // Every session queues a run of predicts; one drain coalesces them all
  // into a single cross-shard plan, merging each session's run into
  // stacked eval windows (merging needs same-session requests: each
  // session has private head weights, so rows from different sessions can
  // never share a GEMM — the cross-session win is the one-sweep dispatch).
  constexpr int64_t kReps = 3;
  std::vector<std::future<std::vector<int64_t>>> futures;
  for (int64_t rep = 0; rep < kReps; ++rep) {
    for (int64_t s = 0; s < kSessions; ++s) {
      futures.push_back(
          submit_predict_or_drain(mgr, static_cast<uint64_t>(s), test_keys));
    }
  }
  mgr.drain();
  for (int64_t s = 0; s < kSessions; ++s) {
    core::ChameleonLearner iso(exp_->env(), learner_config(),
                               mgr.session_seed(static_cast<uint64_t>(s)));
    iso.observe(batches[static_cast<size_t>(s)][0]);
    const auto want = iso.predict(test_keys);
    for (int64_t rep = 0; rep < kReps; ++rep) {
      EXPECT_EQ(futures[static_cast<size_t>(rep * kSessions + s)].get(), want)
          << "batched predict differs for session " << s << " rep " << rep;
    }
  }
  const serve::ServeStats st = mgr.stats();
  EXPECT_GT(st.predict_batches, 0) << "coalescing never merged a window";
  EXPECT_GE(st.batched_predicts, 2);
  EXPECT_GE(st.batch_size_max, 2);
  EXPECT_LE(st.batch_size_max, sc.max_batch);
  EXPECT_EQ(st.predicts, kReps * kSessions + 1);
  EXPECT_EQ(st.dispatch_errors, 0);
}

// Tentpole gate (test half of bench_serve's gate_batched_bit_exact): the
// same mixed observe/predict schedule run with coalescing on (max_batch=8)
// and off (max_batch=1) yields byte-identical predictions everywhere, and
// predicts always see their session's earlier observes (read-your-writes
// through the planner's eligibility rule).
TEST_F(ServeSuite, BatchedVsUnbatchedBitExactOnMixedInterleave) {
  constexpr int64_t kSessions = 6;
  constexpr int64_t kRounds = 3;
  std::vector<std::vector<data::Batch>> batches;
  for (int64_t s = 0; s < kSessions; ++s) {
    batches.push_back(session_batches(s, /*salt=*/91));
  }
  const auto test_keys = data::all_test_keys(exp_->config().data);

  // Mixed interleave: each round submits an observe then TWO predicts per
  // session before any drain, so every shard queue holds predict runs
  // blocked behind same-session observes next to eligible cross-session
  // runs (the runs merge once their observe dispatches).
  auto run = [&](const std::string& dir, int64_t max_batch) {
    serve::ServeConfig sc;
    sc.num_shards = 3;
    sc.max_resident = 4;  // below kSessions: plans race eviction
    sc.queue_capacity = 16;
    sc.max_batch = max_batch;
    sc.store_dir = dir;
    sc.base_seed = 55;
    serve::SessionStore(dir).clear();
    serve::SessionManager mgr(sc, factory());
    std::vector<std::vector<int64_t>> out;
    std::vector<std::future<std::vector<int64_t>>> futures;
    for (int64_t r = 0; r < kRounds; ++r) {
      for (int64_t s = 0; s < kSessions; ++s) {
        submit_or_drain(mgr, static_cast<uint64_t>(s),
                        batches[static_cast<size_t>(s)][static_cast<size_t>(
                            r % static_cast<int64_t>(
                                    batches[static_cast<size_t>(s)].size()))]);
        futures.push_back(submit_predict_or_drain(
            mgr, static_cast<uint64_t>(s), test_keys));
        futures.push_back(submit_predict_or_drain(
            mgr, static_cast<uint64_t>(s), test_keys));
      }
    }
    mgr.drain();
    for (auto& f : futures) out.push_back(f.get());
    const serve::ServeStats st = mgr.stats();
    EXPECT_EQ(st.predicts, 2 * kSessions * kRounds);
    EXPECT_EQ(st.dispatch_errors, 0);
    if (max_batch == 1) {
      EXPECT_EQ(st.predict_batches, 0)
          << "max_batch=1 must disable cross-request merging";
    } else {
      EXPECT_GT(st.batched_predicts, 0)
          << "mixed schedule never exercised a merged window";
    }
    return out;
  };

  const auto batched = run("/tmp/cham_serve_batch_on", 8);
  const auto unbatched = run("/tmp/cham_serve_batch_off", 1);
  ASSERT_EQ(batched.size(), unbatched.size());
  for (size_t i = 0; i < batched.size(); ++i) {
    EXPECT_EQ(batched[i], unbatched[i])
        << "batched vs unbatched predictions diverge at event " << i;
  }
}

// Tentpole determinism: with only predicts queued, the deterministic drain
// extracts every shard's eligible set into ONE plan whose order, grouping
// and window structure are a pure function of per-session request
// sequences — so any arrival permutation produces identical results AND
// identical batching stats.
TEST_F(ServeSuite, PlanStableAcrossArrivalPermutations) {
  constexpr int64_t kSessions = 6;
  constexpr int64_t kPredictsPerSession = 3;
  std::vector<std::vector<data::Batch>> batches;
  for (int64_t s = 0; s < kSessions; ++s) {
    batches.push_back(session_batches(s, /*salt=*/13));
  }
  const auto test_keys = data::all_test_keys(exp_->config().data);

  // permutation: maps submission slot -> session, covering each session
  // kPredictsPerSession times in different global orders.
  auto run = [&](const std::string& dir,
                 const std::vector<int64_t>& session_order) {
    serve::ServeConfig sc;
    sc.num_shards = 2;
    sc.max_resident = 8;
    sc.queue_capacity = 32;
    sc.max_batch = 4;
    sc.store_dir = dir;
    sc.base_seed = 77;
    serve::SessionStore(dir).clear();
    serve::SessionManager mgr(sc, factory());
    for (int64_t s = 0; s < kSessions; ++s) {
      submit_or_drain(mgr, static_cast<uint64_t>(s),
                      batches[static_cast<size_t>(s)][0]);
    }
    mgr.drain();
    std::vector<std::future<std::vector<int64_t>>> futures(
        session_order.size());
    std::vector<int64_t> slot_of_session(kSessions, 0);
    std::vector<size_t> slot(session_order.size());
    for (size_t i = 0; i < session_order.size(); ++i) {
      const int64_t s = session_order[i];
      // Results are keyed (session, k-th predict), not arrival slot, so
      // permutations compare like for like.
      slot[i] = static_cast<size_t>(
          s * kPredictsPerSession + slot_of_session[static_cast<size_t>(s)]++);
      futures[slot[i]] = submit_predict_or_drain(
          mgr, static_cast<uint64_t>(s), test_keys);
    }
    mgr.drain();
    std::vector<std::vector<int64_t>> out;
    for (auto& f : futures) out.push_back(f.get());
    const serve::ServeStats st = mgr.stats();
    return std::make_tuple(std::move(out), st.predict_batches,
                           st.batched_predicts, st.batch_size_max);
  };

  std::vector<int64_t> forward, reversed, strided;
  for (int64_t k = 0; k < kPredictsPerSession; ++k) {
    for (int64_t s = 0; s < kSessions; ++s) {
      forward.push_back(s);
      reversed.push_back(kSessions - 1 - s);
      strided.push_back((s * 5 + k) % kSessions);
    }
  }
  const auto a = run("/tmp/cham_serve_perm_a", forward);
  const auto b = run("/tmp/cham_serve_perm_b", reversed);
  const auto c = run("/tmp/cham_serve_perm_c", strided);
  EXPECT_EQ(std::get<0>(a), std::get<0>(b));
  EXPECT_EQ(std::get<0>(a), std::get<0>(c));
  // Identical plans, not just identical answers: window structure matches.
  EXPECT_GT(std::get<1>(a), 0);
  EXPECT_EQ(std::get<1>(a), std::get<1>(b));
  EXPECT_EQ(std::get<1>(a), std::get<1>(c));
  EXPECT_EQ(std::get<2>(a), std::get<2>(b));
  EXPECT_EQ(std::get<2>(a), std::get<2>(c));
  EXPECT_EQ(std::get<3>(a), std::get<3>(b));
  EXPECT_EQ(std::get<3>(a), std::get<3>(c));
}

// Tentpole: eviction racing a planned batch. A plan spanning more sessions
// than max_resident forces evict/restore round-trips BETWEEN its own
// groups (lazy per-group acquire); every result must still match the
// isolated learner bit for bit.
TEST_F(ServeSuite, EvictionRacesPlannedBatch) {
  constexpr int64_t kSessions = 6;
  serve::ServeConfig sc;
  sc.num_shards = 2;
  sc.max_resident = 2;  // every plan group past the 2nd evicts another
  sc.queue_capacity = 32;
  sc.max_batch = 8;
  sc.store_dir = "/tmp/cham_serve_batch_evict";
  sc.base_seed = 99;
  serve::SessionStore(sc.store_dir).clear();
  serve::SessionManager mgr(sc, factory());

  std::vector<std::vector<data::Batch>> batches;
  for (int64_t s = 0; s < kSessions; ++s) {
    batches.push_back(session_batches(s, /*salt=*/37));
    submit_or_drain(mgr, static_cast<uint64_t>(s),
                    batches[static_cast<size_t>(s)][0]);
  }
  mgr.drain();
  const int64_t evictions_before = mgr.stats().evictions;

  const auto test_keys = data::all_test_keys(exp_->config().data);
  std::vector<std::future<std::vector<int64_t>>> futures;
  for (int64_t rep = 0; rep < 2; ++rep) {  // two per session: merged windows
    for (int64_t s = 0; s < kSessions; ++s) {
      futures.push_back(
          submit_predict_or_drain(mgr, static_cast<uint64_t>(s), test_keys));
    }
  }
  mgr.drain();

  const serve::ServeStats st = mgr.stats();
  EXPECT_GT(st.evictions, evictions_before)
      << "plan over " << kSessions << " sessions with max_resident "
      << sc.max_resident << " must evict mid-plan";
  EXPECT_GT(st.batched_predicts, 0);
  EXPECT_EQ(st.dispatch_errors, 0);
  for (int64_t s = 0; s < kSessions; ++s) {
    core::ChameleonLearner iso(exp_->env(), learner_config(),
                               mgr.session_seed(static_cast<uint64_t>(s)));
    iso.observe(batches[static_cast<size_t>(s)][0]);
    const auto want = iso.predict(test_keys);
    EXPECT_EQ(futures[static_cast<size_t>(s)].get(), want)
        << "rep-0 predict differs for session " << s;
    EXPECT_EQ(futures[static_cast<size_t>(kSessions + s)].get(), want)
        << "rep-1 predict differs for session " << s;
  }
}

}  // namespace
}  // namespace cham
