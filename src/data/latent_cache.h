// Latent-activation cache over the frozen backbone f.
//
// f never changes during continual learning, so the latent of a pool image is
// computed once per process and shared by every method / run in a benchmark.
// On real hardware, methods that store raw images (ER/DER/GSS) must re-run f
// on every replay — that cost is charged by the hardware cost model
// (src/hw), not here; this cache is purely a host-side speed optimisation
// that is numerically identical to recomputation.
//
// Pool-bounded: only keys of the dataset's finite pool (in_pool()) are kept,
// so the cache never outgrows the pool whatever the traffic; entries are
// never evicted, so references into it stay valid for its lifetime. Any
// other key is a fresh frame, computed into caller scratch and never stored.
//
// Thread-safe: mu_ guards only the map and the counters. A call's misses
// run through ONE eval forward of f with no lock held (eval forwards write
// no layer member), then pool keys are inserted if absent; a racing
// thread's row for the same key is bit-identical, and the loser's is
// dropped.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "data/dataset.h"
#include "nn/sequential.h"
#include "util/sync.h"

namespace cham::data {

class LatentCache {
 public:
  // `f` must outlive the cache. `cfg` is the dataset the keys refer to.
  LatentCache(const DatasetConfig& cfg, nn::Sequential& f) : cfg_(cfg), f_(f) {}

  // Appends one latent row pointer (1 x C x H x W floats) per key to `rows`.
  // Pool rows point into the cache and stay valid for its lifetime; rows of
  // off-pool keys point into `scratch`, which this call overwrites and the
  // caller keeps alive while it reads them. An all-hit call allocates
  // nothing once `rows` has capacity.
  void resolve(std::span<const ImageKey> keys, std::vector<const float*>& rows,
               Tensor& scratch) CHAM_EXCLUDES(mu_);

  // Latent activation (1 x C x H x W) of one pool image; computed on miss.
  // The key must be in the pool: the reference is valid for the cache's
  // lifetime.
  const Tensor& latent(const ImageKey& key) CHAM_EXCLUDES(mu_);

  // Precompute a set of pool keys, `batch` keys per backbone forward.
  void warm(std::span<const ImageKey> keys, int64_t batch = 32)
      CHAM_EXCLUDES(mu_);

  // class < num_classes, domain < num_domains and instance <
  // train_instances (test_instances for test keys).
  bool in_pool(const ImageKey& key) const;

  int64_t size() const CHAM_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return static_cast<int64_t>(cache_.size());
  }
  // Keys asked for through resolve/latent/warm, and those of them whose
  // latent the backbone had to compute (cache misses and off-pool keys).
  int64_t lookups() const CHAM_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return lookups_;
  }
  int64_t misses() const CHAM_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return misses_;
  }

 private:
  // Points rows[i] at the latent of keys[i]; the one miss path (see the
  // file comment). Off-pool rows point into `scratch`.
  void fill(std::span<const ImageKey> keys, std::span<const float*> rows,
            Tensor& scratch) CHAM_EXCLUDES(mu_);

  DatasetConfig cfg_;  // immutable after construction
  nn::Sequential& f_;  // frozen backbone; eval forward() writes no member
  std::unordered_map<uint64_t, Tensor> cache_ CHAM_GUARDED_BY(mu_);
  int64_t lookups_ CHAM_GUARDED_BY(mu_) = 0;
  int64_t misses_ CHAM_GUARDED_BY(mu_) = 0;
  mutable util::Mutex mu_;
};

// Stacks per-sample latents (each 1 x C x H x W) into an N x C x H x W batch.
//
// The zero-copy replay path (gather-fused GEMM packing) made this copy
// unnecessary on the observe/predict hot paths; it survives for the
// reference oracle and cold paths. Every call bumps a process-global
// counter so bench_observe can gate on ZERO stacking copies in the steady
// state (and cham_lint statically rejects new calls inside hot_path marker
// regions).
Tensor stack_latents(const std::vector<const Tensor*>& latents);

// Process-global count of stack_latents() calls since process start.
// Monotone; relaxed atomic (a cross-thread snapshot may lag, which is fine
// for the single-threaded bench gate that consumes it).
int64_t stack_latents_calls();

}  // namespace cham::data
