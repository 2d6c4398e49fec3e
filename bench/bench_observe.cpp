// Observe-path report for the zero-copy replay pipeline (BENCH_observe.json).
//
// Measures the ChameleonLearner::observe() hot loop after the gather-fused
// GEMM packing rework:
//
//   latency   p50 / p99 of observe() wall time in the steady state (latent
//             cache warm, ST/LT full, optimiser state allocated).
//
//   alloc     Heap traffic via a counting global operator new, split into
//             off-cycle steps (gate: ZERO allocations — the gather path
//             packs panels straight from cache/slab/LT rows, so nothing is
//             stacked, staged or copied on the steady path) and the every-h
//             LT maintenance steps (bounded, reported separately).
//
//   stacking  data::stack_latents_calls() across the measured window.
//             Gate: zero — the batched-copy entry point must be dead on
//             both the train path and the chunked predict path.
//
//   macs      The backward MAC model before/after first-layer dInput
//             elision: the old ledger charged a blanket 2x forward; the
//             head's first trainable layer no longer produces dX, so the
//             exact model must come in strictly below 2x. Cross-checked
//             against the live ledger (stats().g_bwd_macs delta per step).
//
//   ./build/bench/bench_observe [--steps N] [--out PATH]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "core/chameleon.h"
#include "data/latent_cache.h"
#include "nn/layers.h"
#include "nn/sequential.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"

// ---------------------------------------------------------------------------
// Counting global new/delete (same idiom as bench_kernels): every heap
// allocation in the process, including aligned workspace refills, bumps the
// counters.
namespace {

std::atomic<long long> g_heap_allocs{0};
std::atomic<long long> g_heap_bytes{0};

struct HeapSnapshot {
  long long allocs = 0;
  long long bytes = 0;
};

HeapSnapshot heap_now() {
  return {g_heap_allocs.load(std::memory_order_relaxed),
          g_heap_bytes.load(std::memory_order_relaxed)};
}

HeapSnapshot heap_delta(const HeapSnapshot& from) {
  const HeapSnapshot now = heap_now();
  return {now.allocs - from.allocs, now.bytes - from.bytes};
}

void* counted_alloc(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  g_heap_bytes.fetch_add(static_cast<long long>(n),
                         std::memory_order_relaxed);
  void* p = std::malloc(n ? n : 1);
  if (!p) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t n, std::size_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  g_heap_bytes.fetch_add(static_cast<long long>(n),
                         std::memory_order_relaxed);
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

namespace {

using namespace cham;

// Tiny deterministic environment (behavior-test scale: 3x8x8 images, one
// frozen conv producing 4x4x4 latents) with a head whose FIRST layer is a
// real conv — the dInput elision has to save a measurable MAC share, which
// a GAP-first head would hide.
struct BenchEnv {
  data::DatasetConfig data_cfg;
  std::unique_ptr<nn::Sequential> f;
  std::unique_ptr<data::LatentCache> latents;
  core::LearnerEnv env;

  BenchEnv() {
    data_cfg = data::core50_config();
    data_cfg.num_classes = 6;
    data_cfg.num_domains = 3;
    data_cfg.image_hw = 8;
    data_cfg.train_instances = 4;

    Rng frng(1);
    f = std::make_unique<nn::Sequential>();
    f->add(std::make_unique<nn::Conv2d>(3, 4, 8, 8, 3, 2, 1, false, frng));
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
      g->add(std::make_unique<nn::Conv2d>(4, 8, 4, 4, 3, 1, 1, false, hrng));
      g->add(std::make_unique<nn::ReLU>());
      g->add(std::make_unique<nn::GlobalAvgPool>());
      g->add(std::make_unique<nn::Linear>(8, 6, hrng));
      return g;
    };
  }

  data::Batch batch(long long s) const {
    data::Batch b;
    b.domain = 0;
    for (int i = 0; i < 4; ++i) {
      const long long j = s + i;
      b.keys.push_back({static_cast<int32_t>(j % 6), 0,
                        static_cast<int32_t>(j % 4), false});
      b.labels.push_back(j % 6);
    }
    return b;
  }
};

struct Report {
  double p50_ms = 0, p99_ms = 0;
  long long plain_max_allocs = 0;
  long long plain_max_bytes = 0;
  long long plain_steps = 0;
  double lt_step_avg_bytes = 0;
  long long lt_steps = 0;
  long long stack_calls_steady = 0;   // measured window (observe + predict)
  long long stack_calls_process = 0;  // whole process, for context
  double fwd_macs = 0;                // head forward MACs per sample
  double bwd_macs_before = 0;         // old blanket 2x model
  double bwd_macs_after = 0;          // exact post-elision model
  bool ledger_consistent = false;     // ledger delta == model * samples
};

Report run(long long measure_steps) {
  BenchEnv be;
  core::ChameleonConfig cc;
  cc.lt_capacity = 24;
  cc.learning_window = 40;
  core::ChameleonLearner learner(be.env, cc, /*seed=*/7);

  Report rep;
  rep.fwd_macs = static_cast<double>(learner.head().macs_per_sample());
  rep.bwd_macs_before = 2.0 * rep.fwd_macs;
  rep.bwd_macs_after = static_cast<double>(learner.g_bwd_macs());

  // Warm-up: saturate the latent cache, ST slab, LT store, staged-burst
  // capacity, optimiser state and all row-pointer scratch; spans several LT
  // cycles and preference recalibrations.
  constexpr long long kWarmup = 120;
  long long step = 0;
  while (step < kWarmup) learner.observe(be.batch(step++));
  // Warm the chunked predict path's scratch too (it shares the gate).
  std::vector<data::ImageKey> eval_keys;
  for (int i = 0; i < 24; ++i) {
    eval_keys.push_back({static_cast<int32_t>(i % 6), 0,
                         static_cast<int32_t>(i % 4), false});
  }
  (void)learner.predict(eval_keys);

  std::vector<double> lat_ms;
  lat_ms.reserve(static_cast<size_t>(measure_steps));
  long long lt_bytes = 0;
  const long long stack_before = data::stack_latents_calls();
  const double ledger_bwd_before = learner.stats().g_bwd_macs;
  long long train_samples = 0;

  for (long long i = 0; i < measure_steps; ++i, ++step) {
    const data::Batch b = be.batch(step);
    const long long st_rows = learner.short_term().size();  // full ST replays
    const HeapSnapshot before = heap_now();
    const auto t0 = std::chrono::steady_clock::now();
    learner.observe(b);
    const auto t1 = std::chrono::steady_clock::now();
    const HeapSnapshot d = heap_delta(before);
    lat_ms.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
    // The gather batch = incoming + ST replay + (on cycle steps) the staged
    // LT burst; reconstruct the sample count for the ledger cross-check.
    train_samples += static_cast<long long>(b.keys.size()) + st_rows;
    const bool lt_cycle = ((step + 1) % cc.lt_period_h) == 0;
    if (lt_cycle) {
      ++rep.lt_steps;
      lt_bytes += d.bytes;
    } else {
      ++rep.plain_steps;
      rep.plain_max_allocs = std::max(rep.plain_max_allocs, d.allocs);
      rep.plain_max_bytes = std::max(rep.plain_max_bytes, d.bytes);
    }
    // LT rows consumed from the staged burst also train each step; their
    // count comes out of the ledger cross-check below rather than
    // re-deriving the staging schedule here.
    (void)learner.predict(eval_keys);  // keep the predict path in the window
  }

  rep.stack_calls_steady = data::stack_latents_calls() - stack_before;
  rep.stack_calls_process = data::stack_latents_calls();
  if (rep.lt_steps > 0) {
    rep.lt_step_avg_bytes =
        static_cast<double>(lt_bytes) / static_cast<double>(rep.lt_steps);
  }

  // Ledger cross-check: every trained sample must have been charged the
  // exact post-elision backward model. The LT replay rows consumed from the
  // staged burst are included in the ledger; derive their count from the
  // charged total instead of re-deriving the schedule.
  const double ledger_delta = learner.stats().g_bwd_macs - ledger_bwd_before;
  const double charged_samples = ledger_delta / rep.bwd_macs_after;
  const double frac =
      charged_samples - static_cast<double>(static_cast<long long>(
                            charged_samples + 0.5));
  // Integral sample count and at least the directly-observed samples.
  rep.ledger_consistent =
      std::abs(frac) < 1e-6 &&
      charged_samples >= static_cast<double>(train_samples) - 0.5;

  std::sort(lat_ms.begin(), lat_ms.end());
  auto pct = [&](double q) {
    if (lat_ms.empty()) return 0.0;
    const size_t idx = std::min(
        lat_ms.size() - 1,
        static_cast<size_t>(q * static_cast<double>(lat_ms.size() - 1)));
    return lat_ms[idx];
  };
  rep.p50_ms = pct(0.50);
  rep.p99_ms = pct(0.99);
  return rep;
}

}  // namespace

int main(int argc, char** argv) {
  long long steps = 400;
  std::string out_path = "BENCH_observe.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--steps") == 0 && i + 1 < argc)
      steps = std::max(50LL, static_cast<long long>(std::atol(argv[++i])));
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
      out_path = argv[++i];
  }

  std::printf("bench_observe: %lld measured steps\n\n", steps);
  const Report r = run(steps);

  const double ratio =
      r.fwd_macs > 0 ? r.bwd_macs_after / r.fwd_macs : 0.0;
  std::printf("observe latency: p50 %.4f ms, p99 %.4f ms\n", r.p50_ms,
              r.p99_ms);
  std::printf(
      "heap: off-cycle max %lld allocs / %lld bytes over %lld steps; "
      "LT-cycle avg %.0f bytes over %lld steps\n",
      r.plain_max_allocs, r.plain_max_bytes, r.plain_steps,
      r.lt_step_avg_bytes, r.lt_steps);
  std::printf("stack_latents calls: steady window %lld (process total "
              "%lld)\n",
              r.stack_calls_steady, r.stack_calls_process);
  std::printf(
      "backward MAC model: fwd %.0f, bwd before elision %.0f (2.00x), bwd "
      "after %.0f (%.2fx), ledger %s\n",
      r.fwd_macs, r.bwd_macs_before, r.bwd_macs_after, ratio,
      r.ledger_consistent ? "consistent" : "INCONSISTENT");

  const bool gate_zero_alloc = r.plain_max_allocs == 0;
  const bool gate_zero_stack = r.stack_calls_steady == 0;
  const bool gate_bwd = r.bwd_macs_after < r.bwd_macs_before && ratio < 2.0;
  const bool gate_ledger = r.ledger_consistent;
  std::printf(
      "\ngates: steady zero-alloc %s, zero stacking copies %s, bwd < 2x fwd "
      "%s, ledger exact %s\n",
      gate_zero_alloc ? "PASS" : "FAIL", gate_zero_stack ? "PASS" : "FAIL",
      gate_bwd ? "PASS" : "FAIL", gate_ledger ? "PASS" : "FAIL");

  std::FILE* json = std::fopen(out_path.c_str(), "w");
  if (!json) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(
      json,
      "{\n  \"bench\": \"bench_observe\",\n  \"steps\": %lld,\n"
      "  \"observe_p50_ms\": %.5f,\n  \"observe_p99_ms\": %.5f,\n"
      "  \"steady_plain_step_max_allocs\": %lld,\n"
      "  \"steady_plain_step_max_bytes\": %lld,\n"
      "  \"steady_plain_steps\": %lld,\n"
      "  \"lt_cycle_step_avg_bytes\": %.1f,\n  \"lt_cycle_steps\": %lld,\n"
      "  \"stack_latents_calls_steady\": %lld,\n"
      "  \"stack_latents_calls_process\": %lld,\n"
      "  \"head_fwd_macs_per_sample\": %.0f,\n"
      "  \"head_bwd_macs_before_elision\": %.0f,\n"
      "  \"head_bwd_macs_after_elision\": %.0f,\n"
      "  \"bwd_over_fwd_ratio\": %.4f,\n"
      "  \"gate_steady_state_zero_alloc\": %s,\n"
      "  \"gate_zero_stacking_copies\": %s,\n"
      "  \"gate_bwd_below_2x_fwd\": %s,\n"
      "  \"gate_ledger_matches_model\": %s\n}\n",
      steps, r.p50_ms, r.p99_ms, r.plain_max_allocs, r.plain_max_bytes,
      r.plain_steps, r.lt_step_avg_bytes, r.lt_steps, r.stack_calls_steady,
      r.stack_calls_process, r.fwd_macs, r.bwd_macs_before, r.bwd_macs_after,
      ratio, gate_zero_alloc ? "true" : "false",
      gate_zero_stack ? "true" : "false", gate_bwd ? "true" : "false",
      gate_ledger ? "true" : "false");
  std::fclose(json);
  std::printf("wrote %s\n", out_path.c_str());

  return (gate_zero_alloc && gate_zero_stack && gate_bwd && gate_ledger) ? 0
                                                                         : 1;
}
