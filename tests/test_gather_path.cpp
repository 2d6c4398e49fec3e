// Zero-copy replay path: gathered execution must be BIT-identical to
// stacked execution, across ragged batch sizes, train and eval, and with
// the first-layer dInput elision on. These properties hold per SIMD
// variant (the gather pack feeds the same micro-kernels as the dense pack,
// so whichever CHAM_SIMD this binary was built with is exactly the variant
// under test; the CI sanitizer/variant legs rebuild and rerun this suite).
// Also pins down the staged-LT burst ledger charge (satellite of the
// slot-ref staging rework) and the cold-start edge cases.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "core/chameleon.h"
#include "data/latent_cache.h"
#include "nn/layers.h"
#include "nn/sequential.h"
#include "replay/memory_accounting.h"
#include "tensor/ops.h"

namespace cham {
namespace {

// Head over 4x4x4 latents exercising every gather-capable layer: pointwise
// conv (gather-cols GEMM), depthwise conv (plane gather), general conv
// (per-sample im2col from a row pointer), GAP (plane reduction) and Linear
// (gather-A GEMM).
std::unique_ptr<nn::Sequential> make_head(uint64_t seed) {
  Rng rng(seed);
  auto g = std::make_unique<nn::Sequential>();
  g->add(std::make_unique<nn::Conv2d>(4, 8, 4, 4, 1, 1, 0, true, rng));
  g->add(std::make_unique<nn::ReLU>());
  g->add(std::make_unique<nn::DepthwiseConv2d>(8, 4, 4, 3, 1, 1, rng));
  g->add(std::make_unique<nn::Conv2d>(8, 8, 4, 4, 3, 1, 1, false, rng));
  g->add(std::make_unique<nn::GlobalAvgPool>());
  g->add(std::make_unique<nn::Linear>(8, 6, rng));
  return g;
}

constexpr int64_t kSample = 4 * 4 * 4;

// Scattered per-sample storage (separate heap blocks) + the equivalent
// stacked batch tensor, from one value stream.
struct ScatteredBatch {
  std::vector<std::vector<float>> blocks;
  std::vector<const float*> rows;
  Tensor stacked;

  explicit ScatteredBatch(int64_t n, uint64_t seed) {
    Rng rng(seed);
    stacked = Tensor({n, 4, 4, 4});
    blocks.resize(static_cast<size_t>(n));
    rows.resize(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      auto& blk = blocks[static_cast<size_t>(i)];
      blk.resize(static_cast<size_t>(kSample));
      for (auto& v : blk) v = rng.normal_f(0.0f, 1.0f);
      rows[static_cast<size_t>(i)] = blk.data();
      std::memcpy(stacked.data() + i * kSample, blk.data(),
                  static_cast<size_t>(kSample) * sizeof(float));
    }
  }

  nn::GatherBatch gather() const {
    nn::GatherBatch gb;
    gb.rows = rows.data();
    gb.n = static_cast<int64_t>(rows.size());
    gb.sample_shape = Shape{{4, 4, 4}};
    return gb;
  }
};

TEST(GatherPath, EvalForwardBitIdenticalToStackedAcrossRaggedSizes) {
  auto g = make_head(3);
  for (int64_t n : {1, 2, 3, 5, 8, 13, 17}) {
    ScatteredBatch batch(n, 100 + static_cast<uint64_t>(n));
    const Tensor stacked = g->forward(Tensor(batch.stacked), /*train=*/false);
    const Tensor gathered = g->forward_gather(batch.gather(), /*train=*/false);
    ASSERT_EQ(stacked.shape(), gathered.shape()) << "n=" << n;
    EXPECT_EQ(std::memcmp(stacked.data(), gathered.data(),
                          static_cast<size_t>(stacked.numel()) * sizeof(float)),
              0)
        << "n=" << n;
  }
}

TEST(GatherPath, TrainStepBitIdenticalToStacked) {
  for (int64_t n : {1, 4, 11}) {
    auto dense = make_head(7);
    auto gathered = make_head(7);  // identical init
    dense->set_needs_input_grad(false);
    gathered->set_needs_input_grad(false);

    ScatteredBatch batch(n, 500 + static_cast<uint64_t>(n));
    const Tensor out_d = dense->forward(Tensor(batch.stacked), /*train=*/true);
    const Tensor out_g = gathered->forward_gather(batch.gather(),
                                                  /*train=*/true);
    ASSERT_EQ(std::memcmp(out_d.data(), out_g.data(),
                          static_cast<size_t>(out_d.numel()) * sizeof(float)),
              0)
        << "n=" << n;

    Tensor grad(out_d.shape());
    Rng grng(9);
    ops::fill_normal(grad, grng, 0.0f, 1.0f);
    dense->backward(grad);
    gathered->backward(Tensor(grad));

    auto pd = dense->params();
    auto pg = gathered->params();
    ASSERT_EQ(pd.size(), pg.size());
    for (size_t i = 0; i < pd.size(); ++i) {
      EXPECT_EQ(std::memcmp(pd[i]->grad.data(), pg[i]->grad.data(),
                            static_cast<size_t>(pd[i]->grad.numel()) *
                                sizeof(float)),
                0)
          << "param " << i << " grad diverged, n=" << n;
    }
  }
}

TEST(GatherPath, FirstLayerElisionLeavesParamGradsBitIdentical) {
  auto full = make_head(13);
  auto elided = make_head(13);
  elided->set_needs_input_grad(false);

  ScatteredBatch batch(6, 77);
  (void)full->forward(Tensor(batch.stacked), /*train=*/true);
  (void)elided->forward(Tensor(batch.stacked), /*train=*/true);
  Tensor grad({6, 6});
  Rng grng(21);
  ops::fill_normal(grad, grng, 0.0f, 1.0f);
  const Tensor din_full = full->backward(grad);
  const Tensor din_elided = elided->backward(Tensor(grad));

  EXPECT_FALSE(din_full.empty());
  EXPECT_TRUE(din_elided.empty()) << "elided first layer still produced dX";

  auto pf = full->params();
  auto pe = elided->params();
  ASSERT_EQ(pf.size(), pe.size());
  for (size_t i = 0; i < pf.size(); ++i) {
    EXPECT_EQ(std::memcmp(pf[i]->grad.data(), pe[i]->grad.data(),
                          static_cast<size_t>(pf[i]->grad.numel()) *
                              sizeof(float)),
              0)
        << "param " << i << " grad changed under elision";
  }
}

TEST(GatherPath, BackwardMacModelBelowTwiceForwardAfterElision) {
  auto g = make_head(17);
  const int64_t fwd = g->macs_per_sample();
  EXPECT_EQ(g->backward_macs_per_sample(), 2 * fwd);  // default: full dX
  g->set_needs_input_grad(false);
  const int64_t bwd = g->backward_macs_per_sample();
  EXPECT_LT(bwd, 2 * fwd);
  EXPECT_GT(bwd, fwd);  // weight grads alone already cost one forward
}

// --------------------------------------------------- learner-level checks

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

  data::Batch batch(std::vector<int64_t> labels, long long salt = 0) const {
    data::Batch b;
    b.domain = 0;
    for (size_t i = 0; i < labels.size(); ++i) {
      b.keys.push_back(
          {static_cast<int32_t>(labels[i]), 0,
           static_cast<int32_t>((salt + static_cast<long long>(i)) % 4),
           false});
      b.labels.push_back(labels[i]);
    }
    return b;
  }
};

// Cold start: the very first observe() runs with an empty ST and empty LT
// (gather batch = incoming rows only) and every ragged batch size works.
TEST(GatherPath, ColdStartAndRaggedBatchesObserveCleanly) {
  TinyEnv env;
  core::ChameleonConfig cc;
  core::ChameleonLearner learner(env.env, cc, /*seed=*/5);

  learner.observe(env.batch({2}));  // bsz=1, ST empty, LT empty
  EXPECT_EQ(learner.short_term().size(), 1);
  learner.observe(env.batch({0, 1, 2, 3, 4}, 1));
  learner.observe(env.batch({5, 0}, 2));
  EXPECT_TRUE(learner.check_invariants().ok())
      << learner.check_invariants().to_string();
  // Slab configured to one row per latent, unit-stride gatherable.
  EXPECT_TRUE(learner.short_term().store().configured());
  EXPECT_EQ(learner.short_term().store().row_numel(),
            env.env.latent_shape.numel());
}

// Slot-ref staging regression: the burst ledger charge is unchanged — one
// DMA burst of staged_count * latent_bytes on every h-th step, zero bytes
// while consuming, even though the host now stages 8-byte refs instead of
// deep-copied tensors.
TEST(GatherPath, StagedLtBurstLedgerChargeUnchanged) {
  TinyEnv env;
  core::ChameleonConfig cc;
  cc.lt_capacity = 12;
  core::ChameleonLearner learner(env.env, cc, /*seed=*/9);
  const double latent_sz = static_cast<double>(
      replay::latent_sample_bytes(env.env.latent_shape.numel()));

  for (long long step = 1; step <= 40; ++step) {
    const int64_t lt_before = learner.long_term().size();
    const double burst_before = learner.stats().offchip_lt_burst_bytes;
    learner.observe(env.batch(
        {step % 6, (step + 1) % 6, (step + 2) % 6}, step));
    const double burst_delta =
        learner.stats().offchip_lt_burst_bytes - burst_before;
    if (step % cc.lt_period_h == 0 && lt_before > 0) {
      const int64_t staged = std::min(
          cc.lt_period_h * cc.lt_replay_per_batch, lt_before);
      EXPECT_DOUBLE_EQ(burst_delta,
                       static_cast<double>(staged) * latent_sz)
          << "step " << step;
    } else {
      EXPECT_DOUBLE_EQ(burst_delta, 0.0) << "step " << step;
    }
  }
}

}  // namespace
}  // namespace cham
