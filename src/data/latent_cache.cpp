#include "data/latent_cache.h"

#include <algorithm>
#include <atomic>

#include "util/check.h"

namespace cham::data {

bool LatentCache::in_pool(const ImageKey& key) const {
  const int64_t instances =
      key.test ? cfg_.test_instances : cfg_.train_instances;
  return key.class_id >= 0 && key.class_id < cfg_.num_classes &&
         key.domain_id >= 0 && key.domain_id < cfg_.num_domains &&
         key.instance_id >= 0 && key.instance_id < instances;
}

void LatentCache::fill(std::span<const ImageKey> keys,
                       std::span<const float*> rows, Tensor& scratch) {
  int64_t n_miss = 0;
  {
    util::MutexLock lock(mu_);
    for (size_t i = 0; i < keys.size(); ++i) {
      // Off-pool keys never hit: a wide field may alias a pool packed().
      const auto it =
          in_pool(keys[i]) ? cache_.find(keys[i].packed()) : cache_.end();
      rows[i] = it == cache_.end() ? nullptr : it->second.data();
      n_miss += rows[i] == nullptr;
    }
    lookups_ += static_cast<int64_t>(keys.size());
    misses_ += n_miss;
  }
  if (n_miss == 0) return;
  std::vector<size_t> miss;
  std::vector<ImageKey> batch;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (rows[i] != nullptr) continue;
    miss.push_back(i);
    batch.push_back(keys[i]);
  }
  // The backbone runs with no lock held: eval forward() writes no member.
  scratch = f_.forward(synthesize_batch(cfg_, batch), /*train=*/false);
  const int64_t per = scratch.numel() / scratch.dim(0);
  const Shape row_shape{{1, scratch.dim(1), scratch.dim(2), scratch.dim(3)}};
  // Pool rows are copied out before locking: the critical section inserts.
  std::vector<Tensor> fresh(miss.size());
  for (size_t j = 0; j < miss.size(); ++j) {
    rows[miss[j]] = scratch.data() + static_cast<int64_t>(j) * per;
    if (in_pool(batch[j])) {
      fresh[j] = Tensor(row_shape, std::span<const float>(
                                       rows[miss[j]], static_cast<size_t>(per)));
    }
  }
  util::MutexLock lock(mu_);
  for (size_t j = 0; j < miss.size(); ++j) {
    if (fresh[j].empty()) continue;  // off-pool: served from scratch only
    // A bit-identical entry inserted first (racing thread, repeat key) wins.
    rows[miss[j]] = cache_.try_emplace(batch[j].packed(), std::move(fresh[j]))
                        .first->second.data();
  }
}

void LatentCache::resolve(std::span<const ImageKey> keys,
                          std::vector<const float*>& rows, Tensor& scratch) {
  const size_t base = rows.size();
  rows.resize(base + keys.size());
  fill(keys, std::span<const float*>(rows).subspan(base), scratch);
}

const Tensor& LatentCache::latent(const ImageKey& key) {
  CHAM_CHECK(in_pool(key),
             "LatentCache::latent: off-pool keys are never stored, so they "
             "have no lasting reference (use resolve())");
  const float* row = nullptr;
  Tensor scratch;
  fill(std::span<const ImageKey>(&key, 1), std::span<const float*>(&row, 1),
       scratch);
  util::MutexLock lock(mu_);
  return cache_.find(key.packed())->second;
}

void LatentCache::warm(std::span<const ImageKey> keys, int64_t batch) {
  for (const ImageKey& key : keys) {
    CHAM_CHECK(in_pool(key), "LatentCache::warm: key outside the pool");
  }
  std::vector<const float*> rows(keys.size());
  Tensor scratch;
  for (size_t at = 0; at < keys.size(); at += static_cast<size_t>(batch)) {
    const size_t n = std::min(keys.size() - at, static_cast<size_t>(batch));
    fill(keys.subspan(at, n), std::span<const float*>(rows).subspan(at, n),
         scratch);
  }
}

namespace {
std::atomic<int64_t> g_stack_latents_calls{0};
}  // namespace

int64_t stack_latents_calls() {
  return g_stack_latents_calls.load(std::memory_order_relaxed);
}

Tensor stack_latents(const std::vector<const Tensor*>& latents) {
  g_stack_latents_calls.fetch_add(1, std::memory_order_relaxed);
  CHAM_CHECK(!latents.empty(), "stack of zero latents");
  const Tensor& first = *latents.front();
  CHAM_CHECK(first.rank() == 4 && first.dim(0) == 1,
             "latent " + first.shape().to_string() + " is not 1xCxHxW");
  Tensor out({static_cast<int64_t>(latents.size()), first.dim(1),
              first.dim(2), first.dim(3)});
  const int64_t per = first.numel();
  for (size_t i = 0; i < latents.size(); ++i) {
    CHAM_CHECK_SHAPE(latents[i]->shape(), first.shape());
    std::copy(latents[i]->data(), latents[i]->data() + per,
              out.data() + static_cast<int64_t>(i) * per);
  }
  return out;
}

}  // namespace cham::data
