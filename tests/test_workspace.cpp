// Workspace memory subsystem: arena alignment / rewind / high-water
// accounting, pool freelist recycling and reset semantics, the pool-bounded
// LatentCache's batched resolve path, and the end-to-end property the
// subsystem exists for — a steady-state ChameleonLearner::observe() that
// performs zero heap allocations (verified with a counting global operator
// new).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>

#include "core/chameleon.h"
#include "data/latent_cache.h"
#include "nn/layers.h"
#include "nn/mobilenet.h"
#include "nn/sequential.h"
#include "tensor/ops.h"
#include "tensor/workspace.h"
#include "util/check.h"

// ---------------------------------------------------------------------------
// Counting global new/delete: every heap allocation in this binary (gtest's
// included) bumps the counter; tests snapshot around the region of interest.
// All overloads forward to malloc/aligned_alloc, so ASan still sees and
// checks every allocation and leak.
namespace {

std::atomic<long long> g_allocs{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n ? n : 1);
  if (!p) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t n, std::size_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t rounded = ((n ? n : 1) + align - 1) / align * align;
  void* p = std::aligned_alloc(align, rounded);
  if (!p) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, static_cast<std::size_t>(al));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace cham {
namespace {

// ------------------------------------------------------------------ Arena

TEST(Arena, Returns64ByteAlignedPointers) {
  ws::ArenaScope scope;
  for (std::size_t n : {1u, 3u, 17u, 100u, 4096u}) {
    const float* p = scope.floats(n);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 64, 0u) << "n=" << n;
  }
}

TEST(Arena, RewindReusesTheSameMemory) {
  // Warm the arena so capacity exists and no growth happens mid-test.
  { ws::ArenaScope warm; (void)warm.floats(10000); }
  float* p1 = nullptr;
  float* p2 = nullptr;
  {
    ws::ArenaScope scope;
    p1 = scope.floats(1000);
    p1[0] = 1.0f;
  }
  {
    ws::ArenaScope scope;
    p2 = scope.floats(1000);
  }
  EXPECT_EQ(p1, p2);  // the scope rewound; the bump pointer came back
}

TEST(Arena, NestedScopesRewindInOrder) {
  { ws::ArenaScope warm; (void)warm.floats(10000); }
  ws::Arena& arena = ws::Arena::local();
  const std::size_t live0 = arena.live_bytes();
  {
    ws::ArenaScope outer;
    (void)outer.floats(100);
    const std::size_t live_outer = arena.live_bytes();
    EXPECT_GE(live_outer, live0 + 100 * sizeof(float));
    {
      ws::ArenaScope inner;
      (void)inner.floats(200);
      EXPECT_GE(arena.live_bytes(), live_outer + 200 * sizeof(float));
    }
    EXPECT_EQ(arena.live_bytes(), live_outer);  // inner rewound first
  }
  EXPECT_EQ(arena.live_bytes(), live0);
}

TEST(Arena, HighWaterTracksPeakLiveBytes) {
  ws::Arena& arena = ws::Arena::local();
  arena.rebase_high_water();
  const std::size_t base = arena.high_water_bytes();
  {
    ws::ArenaScope scope;
    (void)scope.floats(4096);
  }
  // The peak survives the rewind.
  EXPECT_GE(arena.high_water_bytes(), base + 4096 * sizeof(float));
  const std::size_t peak = arena.high_water_bytes();
  {
    ws::ArenaScope scope;
    (void)scope.floats(16);
  }
  EXPECT_EQ(arena.high_water_bytes(), peak);  // smaller use doesn't move it
}

// ------------------------------------------------------------------- Pool

TEST(Pool, FreelistRecyclesBlocksLifo) {
  void* p = ws::pool_acquire(4096);
  ASSERT_NE(p, nullptr);
  ws::pool_release(p, 4096);
  void* q = ws::pool_acquire(4096);
  EXPECT_EQ(q, p);  // most recently freed block of the class comes back
  ws::pool_release(q, 4096);
}

TEST(Pool, StatsCountHitsAndRefills) {
  // Drain any prior state for a deterministic window.
  ws::reset_stats();
  const ws::WorkspaceStats before = ws::stats();
  {
    Tensor t({2048});  // pooled storage
    Rng rng(3);
    ops::fill_normal(t, rng, 0.0f, 1.0f);
  }
  Tensor u({2048});  // same size class: must be a cache or freelist hit
  const ws::WorkspaceStats after = ws::stats();
  EXPECT_GT(after.pool_freelist_hits + after.pool_local_hits,
            before.pool_freelist_hits + before.pool_local_hits);
  EXPECT_GE(after.pool_high_water_bytes, after.pool_bytes_in_use);
}

TEST(Pool, ResetStatsRebasesCounters) {
  Tensor held({512});  // keep some capacity checked out across the reset
  ws::reset_stats();
  const ws::WorkspaceStats s = ws::stats();
  EXPECT_EQ(s.pool_heap_allocs, 0);
  EXPECT_EQ(s.pool_freelist_hits, 0);
  // High water re-bases to what is currently live, not to zero.
  EXPECT_GE(s.pool_high_water_bytes, s.pool_bytes_in_use);
  EXPECT_GT(s.pool_bytes_in_use, 0);
}

// ------------------------------------------------------------ LatentCache

struct TinyEnv {
  data::DatasetConfig data_cfg;
  std::unique_ptr<nn::Sequential> f;
  std::unique_ptr<data::LatentCache> latents;
  core::LearnerEnv env;

  TinyEnv() {
    data_cfg = data::core50_config();
    data_cfg.num_classes = 6;
    data_cfg.num_domains = 3;
    data_cfg.image_hw = 8;
    data_cfg.train_instances = 4;

    Rng rng(1);
    f = std::make_unique<nn::Sequential>();
    f->add(std::make_unique<nn::Conv2d>(3, 4, 8, 8, 3, 2, 1, false, rng));
    f->add(std::make_unique<nn::ReLU>());
    latents = std::make_unique<data::LatentCache>(data_cfg, *f);

    env.data_cfg = &data_cfg;
    env.latents = latents.get();
    env.latent_shape = Shape{{4, 4, 4}};
    env.f_fwd_macs = f->macs_per_sample();
    env.lr = 0.01f;
    env.head_factory = [] {
      Rng hrng(2);
      auto g = std::make_unique<nn::Sequential>();
      g->add(std::make_unique<nn::GlobalAvgPool>());
      g->add(std::make_unique<nn::Linear>(4, 6, hrng));
      return g;
    };
  }

  static data::ImageKey key(int32_t cls, int32_t inst) {
    return {cls, 0, inst, false};
  }
};

// The serving backbone's shape: MobileNetV1 (alpha 0.5, 32x32) split at
// conv layer 21 — conv, depthwise, merged-batch pointwise and BN layers —
// with random weights, over a 6-class, 2-domain pool.
struct MobileEnv {
  data::DatasetConfig data_cfg;
  nn::SplitModel split;
  std::unique_ptr<data::LatentCache> latents;

  MobileEnv() {
    data_cfg = data::core50_config();
    data_cfg.num_classes = 6;
    data_cfg.num_domains = 2;
    data_cfg.train_instances = 5;
    data_cfg.test_instances = 2;
    nn::MobileNetConfig mc;
    mc.num_classes = 6;
    Rng rng(5);
    split = nn::split_at_conv_layer(nn::build_mobilenet_v1(mc, rng),
                                    mc.latent_conv_layer);
    latents = std::make_unique<data::LatentCache>(data_cfg, *split.f);
  }

  // The key's latent from a batch-1 forward of its own.
  Tensor single(const data::ImageKey& key) {
    return split.f->forward(data::synthesize_batch(data_cfg, {key}),
                            /*train=*/false);
  }
};

TEST(LatentCache, ResolveMatchesPerKeyBatchOneForwards) {
  MobileEnv env;
  const data::ImageKey hit{1, 0, 2, false};
  const data::ImageKey miss{2, 1, 4, false};
  const data::ImageKey test_miss{3, 1, 1, true};
  const data::ImageKey off_instance{2, 1, 5, false};
  const data::ImageKey off_test{3, 1, 2, true};
  const data::ImageKey off_class{6, 0, 0, false};
  const data::ImageKey off_domain{0, 2, 0, false};
  (void)env.latents->latent(hit);
  ASSERT_EQ(env.latents->size(), 1);

  // Hits, pool misses (one repeated) and off-pool keys (one repeated),
  // appended after a row the caller already holds.
  const std::vector<data::ImageKey> keys = {
      off_instance, hit,      miss,       off_class,   test_miss,
      miss,         off_test, off_domain, off_instance};
  const float sentinel = 0.0f;
  std::vector<const float*> rows = {&sentinel};
  Tensor scratch;
  env.latents->resolve(keys, rows, scratch);
  ASSERT_EQ(rows.size(), keys.size() + 1);
  EXPECT_EQ(rows[0], &sentinel);
  EXPECT_EQ(env.latents->size(), 3);  // hit + the two distinct pool misses

  const int64_t per = env.split.latent_dim;
  for (size_t i = 0; i < keys.size(); ++i) {
    const Tensor ref = env.single(keys[i]);
    ASSERT_EQ(ref.numel(), per);
    EXPECT_EQ(std::memcmp(rows[i + 1], ref.data(),
                          static_cast<size_t>(per) * sizeof(float)),
              0)
        << "row " << i << " differs from its batch-1 forward";
    if (env.latents->in_pool(keys[i])) {
      // Pool rows are the cache's own entries, not scratch copies.
      EXPECT_EQ(rows[i + 1], env.latents->latent(keys[i]).data()) << i;
    }
  }
}

TEST(LatentCache, OffPoolKeysNeverGrowTheCache) {
  MobileEnv env;
  std::vector<data::ImageKey> fresh;
  for (int32_t i = 0; i < 12; ++i) {
    fresh.push_back({i % 6, i % 2, 1000 + i, (i % 3) == 0});
  }
  std::vector<const float*> rows;
  Tensor scratch;
  for (int rep = 0; rep < 3; ++rep) {
    rows.clear();
    env.latents->resolve(fresh, rows, scratch);
    EXPECT_EQ(rows.size(), fresh.size());
  }
  EXPECT_EQ(env.latents->size(), 0);
  // An instance wide enough to alias a cached pool key's packed() value
  // still gets its own latent.
  const data::ImageKey pool_key{1, 1, 0, false};
  const data::ImageKey alias{1, 0, 1 << 23, false};
  ASSERT_EQ(alias.packed(), pool_key.packed());
  (void)env.latents->latent(pool_key);
  rows.clear();
  env.latents->resolve(std::vector<data::ImageKey>{alias}, rows, scratch);
  EXPECT_EQ(ops::max_abs_diff(scratch, env.single(alias)), 0.0);
  EXPECT_NE(rows[0], env.latents->latent(pool_key).data());
  EXPECT_EQ(env.latents->size(), 1);
  // No lasting reference exists for an off-pool key.
  EXPECT_THROW((void)env.latents->latent(fresh[0]), util::CheckError);
  EXPECT_THROW(env.latents->warm(fresh), util::CheckError);
  EXPECT_EQ(env.latents->size(), 1);
}

TEST(LatentCache, CountsLookupsAndMisses) {
  TinyEnv env;
  const std::vector<data::ImageKey> keys = {
      TinyEnv::key(0, 0), TinyEnv::key(1, 0), TinyEnv::key(0, 0),
      TinyEnv::key(2, 9)};  // the last is off-pool (instance >= 4)
  std::vector<const float*> rows;
  Tensor scratch;
  env.latents->resolve(keys, rows, scratch);
  EXPECT_EQ(env.latents->lookups(), 4);
  EXPECT_EQ(env.latents->misses(), 4);  // nothing was cached yet
  rows.clear();
  env.latents->resolve(keys, rows, scratch);
  EXPECT_EQ(env.latents->lookups(), 8);
  EXPECT_EQ(env.latents->misses(), 5);  // only the off-pool key recomputes
  (void)env.latents->latent(TinyEnv::key(1, 0));
  env.latents->warm(std::vector<data::ImageKey>{TinyEnv::key(3, 1),
                                                TinyEnv::key(0, 0)});
  EXPECT_EQ(env.latents->lookups(), 11);
  EXPECT_EQ(env.latents->misses(), 6);
  EXPECT_EQ(env.latents->size(), 3);
}

TEST(LatentCache, WarmBatchesMatchSingleForwards) {
  MobileEnv env;
  std::vector<data::ImageKey> keys;
  for (int32_t c = 0; c < 6; ++c) keys.push_back({c, 1, c % 5, false});
  env.latents->warm(keys, /*batch=*/4);
  EXPECT_EQ(env.latents->size(), 6);
  EXPECT_EQ(env.latents->misses(), 6);
  for (const data::ImageKey& k : keys) {
    EXPECT_EQ(ops::max_abs_diff(env.latents->latent(k), env.single(k)), 0.0);
  }
}

// ------------------------------------------- steady-state zero allocation

// The whole point of the workspace subsystem: after warm-up, an off-cycle
// observe() step touches the heap zero times — Tensor storage recycles
// through the pool, kernel scratch bumps the arena, and every learner-side
// vector holds its capacity. LT maintenance steps (every h batches) may
// make bounded small allocations and are exempt here.
//
// The full-checks tier allocates audit strings inside observe(), so the
// strict assertion only runs below it.
TEST(SteadyState, ObserveAllocatesNothingOffCycle) {
#if CHAM_CHECKS_LEVEL >= 2
  GTEST_SKIP() << "full-checks tier audits allocate inside observe()";
#else
  TinyEnv env;
  core::ChameleonConfig cc;
  cc.lt_capacity = 24;      // saturates within the warm-up window
  cc.learning_window = 40;  // several recalibrations during warm-up
  core::ChameleonLearner learner(env.env, cc, /*seed=*/7);

  auto make_batch = [](long long s) {
    data::Batch b;
    b.domain = 0;
    for (int i = 0; i < 4; ++i) {
      const long long j = s + i;
      b.keys.push_back({static_cast<int32_t>(j % 6), 0,
                        static_cast<int32_t>(j % 4), false});
      b.labels.push_back(j % 6);
    }
    return b;
  };

  long long step = 0;
  for (; step < 120; ++step) learner.observe(make_batch(step));

  long long worst = 0;
  long long measured = 0;
  for (long long i = 0; i < 40; ++i, ++step) {
    const data::Batch b = make_batch(step);
    const bool lt_cycle = ((step + 1) % cc.lt_period_h) == 0;
    const long long before = g_allocs.load(std::memory_order_relaxed);
    learner.observe(b);
    const long long d = g_allocs.load(std::memory_order_relaxed) - before;
    if (!lt_cycle) {
      ++measured;
      worst = std::max(worst, d);
    }
  }
  EXPECT_GT(measured, 30);
  EXPECT_EQ(worst, 0) << "steady-state observe() touched the heap";
#endif
}

// The chunked predict path rides the same gather machinery as training:
// latent rows are read in place out of the cache and the first layer packs
// GEMM panels straight from them, so a warm predict_batch makes no stacked
// batch copy and touches the heap only for its returned prediction vector.
TEST(SteadyState, ChunkedPredictStaysOffTheHeap) {
#if CHAM_CHECKS_LEVEL >= 2
  GTEST_SKIP() << "full-checks tier audits allocate inside the layers";
#else
  TinyEnv env;
  core::ChameleonConfig cc;
  core::ChameleonLearner learner(env.env, cc, /*seed=*/11);

  std::vector<data::ImageKey> keys;
  for (int32_t i = 0; i < 24; ++i) {
    keys.push_back(TinyEnv::key(i % 6, i % 4));
  }
  // Warm: latent cache filled, scratch vectors at capacity, pool classes
  // populated.
  (void)learner.predict(keys);
  (void)learner.predict(keys);

  long long worst = 0;
  for (int rep = 0; rep < 10; ++rep) {
    const long long before = g_allocs.load(std::memory_order_relaxed);
    const auto preds = learner.predict(keys);
    const long long d = g_allocs.load(std::memory_order_relaxed) - before;
    ASSERT_EQ(preds.size(), keys.size());
    worst = std::max(worst, d);
  }
  // The returned vector<int64_t> is the only permitted allocation.
  EXPECT_LE(worst, 1) << "chunked predict allocated beyond its result";
#endif
}

// The cache side of the same property: resolving keys that are all cached
// takes the lock, looks up and appends row pointers — no allocation.
TEST(SteadyState, AllHitResolveAllocatesNothing) {
#if CHAM_CHECKS_LEVEL >= 2
  GTEST_SKIP() << "full-checks tier audits allocate inside the layers";
#else
  TinyEnv env;
  std::vector<data::ImageKey> keys;
  for (int32_t i = 0; i < 16; ++i) keys.push_back(TinyEnv::key(i % 6, i % 4));
  env.latents->warm(keys);
  std::vector<const float*> rows;
  rows.reserve(keys.size());
  Tensor scratch;
  const int64_t misses = env.latents->misses();
  const long long before = g_allocs.load(std::memory_order_relaxed);
  for (int rep = 0; rep < 10; ++rep) {
    rows.clear();
    env.latents->resolve(keys, rows, scratch);
  }
  const long long d = g_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(d, 0) << "all-hit resolve() touched the heap";
  EXPECT_EQ(env.latents->misses(), misses);
  EXPECT_TRUE(scratch.empty());
#endif
}

// The OpStats mirror: after any observe() the ledger carries the workspace
// gauges, and they merge by max across learners.
TEST(SteadyState, OpStatsCarriesWorkspaceGauges) {
  TinyEnv env;
  core::ChameleonConfig cc;
  core::ChameleonLearner learner(env.env, cc, /*seed=*/3);
  data::Batch b;
  b.domain = 0;
  for (int i = 0; i < 3; ++i) {
    b.keys.push_back({static_cast<int32_t>(i), 0, 0, false});
    b.labels.push_back(i);
  }
  learner.observe(b);
  const core::OpStats& s = learner.stats();
  EXPECT_GT(s.ws_pool_high_water_bytes, 0);
  EXPECT_GT(s.ws_arena_high_water_bytes, 0);

  core::OpStats merged;
  merged.ws_pool_high_water_bytes = 1;
  merged += s;
  EXPECT_EQ(merged.ws_pool_high_water_bytes, s.ws_pool_high_water_bytes);
}

}  // namespace
}  // namespace cham
