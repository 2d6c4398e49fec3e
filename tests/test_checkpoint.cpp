// Learner checkpointing: a power-cycled Chameleon resumes with identical
// predictions, buffers and accuracy.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>

#include "core/checkpoint.h"
#include "metrics/experiment.h"
#include "serve/session_store.h"

namespace cham {
namespace {

class CheckpointSuite : public ::testing::Test {
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
    stream_ = new data::DomainIncrementalStream(cfg.data, cfg.stream);
    exp_->warm_latents(*stream_);
  }
  static void TearDownTestSuite() {
    delete stream_;
    delete exp_;
  }

  static metrics::Experiment* exp_;
  static data::DomainIncrementalStream* stream_;
};

metrics::Experiment* CheckpointSuite::exp_ = nullptr;
data::DomainIncrementalStream* CheckpointSuite::stream_ = nullptr;

TEST_F(CheckpointSuite, RoundTripRestoresPredictionsAndBuffers) {
  core::ChameleonConfig cc;
  cc.lt_capacity = 18;
  core::ChameleonLearner original(exp_->env(), cc, 1);
  exp_->run(original, *stream_);
  const auto test_keys = data::all_test_keys(exp_->config().data);
  const auto preds_before = original.predict(test_keys);

  const std::string path = "/tmp/cham_test_checkpoint.bin";
  ASSERT_TRUE(core::save_checkpoint(original, path));

  // "Reboot": a fresh learner with the same config and a different seed
  // (different classifier init) — restore must override all of it.
  core::ChameleonLearner restored(exp_->env(), cc, 99);
  ASSERT_TRUE(core::load_checkpoint(restored, path));

  EXPECT_EQ(restored.predict(test_keys), preds_before);
  EXPECT_EQ(restored.short_term().size(), original.short_term().size());
  EXPECT_EQ(restored.long_term().size(), original.long_term().size());
  for (int64_t c = 0; c < exp_->config().data.num_classes; ++c) {
    EXPECT_EQ(restored.long_term().class_count(c),
              original.long_term().class_count(c));
  }

  std::remove(path.c_str());
}

TEST_F(CheckpointSuite, RestoredLearnerKeepsLearning) {
  core::ChameleonConfig cc;
  cc.lt_capacity = 18;
  core::ChameleonLearner original(exp_->env(), cc, 2);
  // Train on the first half, checkpoint, resume on the second half.
  const auto& batches = stream_->batches();
  const size_t half = batches.size() / 2;
  for (size_t i = 0; i < half; ++i) original.observe(batches[i]);

  const std::string path = "/tmp/cham_test_checkpoint2.bin";
  ASSERT_TRUE(core::save_checkpoint(original, path));
  core::ChameleonLearner resumed(exp_->env(), cc, 77);
  ASSERT_TRUE(core::load_checkpoint(resumed, path));
  for (size_t i = half; i < batches.size(); ++i) resumed.observe(batches[i]);

  const double acc = exp_->evaluate(resumed).acc_all;
  EXPECT_GT(acc, 100.0 / 6.0);  // above chance after the resumed half
  std::remove(path.c_str());
}

// The serving-runtime contract (src/serve/): a learner evicted mid-stream
// through the SessionStore and restored later continues the stream
// BIT-IDENTICALLY to a run that was never interrupted — including the
// mid-window preference counters and the staged LT burst cursor, whose loss
// would silently change every subsequent replay draw.
TEST_F(CheckpointSuite, MidStreamResumeViaSessionStoreIsBitIdentical) {
  core::ChameleonConfig cc;
  cc.lt_capacity = 18;
  cc.lt_period_h = 4;  // short period so the 6-batch stream spans a burst
  const auto& batches = stream_->batches();
  // Cut INSIDE an LT period (not on a multiple of h) and inside a learning
  // window, so the staged burst cursor and window counters are mid-flight.
  const size_t cut = static_cast<size_t>(cc.lt_period_h) + 1;
  ASSERT_LT(cut, batches.size());

  core::ChameleonLearner uninterrupted(exp_->env(), cc, 5);
  for (const auto& b : batches) uninterrupted.observe(b);

  core::ChameleonLearner first_half(exp_->env(), cc, 5);
  for (size_t i = 0; i < cut; ++i) first_half.observe(batches[i]);
  EXPECT_GT(first_half.preferences().window_seen(), 0)
      << "cut point must land mid-window for this test to bite";

  serve::SessionStore store("/tmp/cham_test_midstream");
  store.clear();
  ASSERT_TRUE(store.save(/*session_id=*/1, first_half));

  core::ChameleonLearner resumed(exp_->env(), cc, 4242);  // different seed
  ASSERT_TRUE(store.load(1, resumed));
  EXPECT_EQ(resumed.steps_observed(), static_cast<int64_t>(cut));
  EXPECT_EQ(resumed.preferences().window_seen(),
            first_half.preferences().window_seen());
  EXPECT_EQ(resumed.preferences().samples_seen(),
            first_half.preferences().samples_seen());
  EXPECT_EQ(resumed.preferences().recalibrations(),
            first_half.preferences().recalibrations());
  for (size_t i = cut; i < batches.size(); ++i) resumed.observe(batches[i]);

  // Predictions, head weights, replay stores and the traffic ledger all
  // match the never-interrupted run exactly.
  const auto test_keys = data::all_test_keys(exp_->config().data);
  EXPECT_EQ(resumed.predict(test_keys), uninterrupted.predict(test_keys));
  auto pa = uninterrupted.head().params();
  auto pb = resumed.head().params();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(std::memcmp(pa[i]->value.data(), pb[i]->value.data(),
                          static_cast<size_t>(pa[i]->value.numel()) *
                              sizeof(float)),
              0)
        << "head param " << i << " diverged after resume";
  }
  ASSERT_EQ(resumed.short_term().size(), uninterrupted.short_term().size());
  for (int64_t i = 0; i < resumed.short_term().size(); ++i) {
    const auto& sta = uninterrupted.short_term().store();
    const auto& stb = resumed.short_term().store();
    EXPECT_EQ(sta.label(i), stb.label(i));
    EXPECT_EQ(std::memcmp(sta.row(i), stb.row(i),
                          static_cast<size_t>(sta.row_numel()) *
                              sizeof(float)),
              0)
        << "ST slot " << i << " diverged after resume";
  }
  const auto la = uninterrupted.long_term().all_samples();
  const auto lb = resumed.long_term().all_samples();
  ASSERT_EQ(la.size(), lb.size());
  for (size_t i = 0; i < la.size(); ++i) {
    EXPECT_EQ(la[i].label, lb[i].label);
    EXPECT_EQ(std::memcmp(la[i].latent.data(), lb[i].latent.data(),
                          static_cast<size_t>(la[i].latent.numel()) *
                              sizeof(float)),
              0)
        << "LT slot " << i << " diverged after resume";
  }
  EXPECT_EQ(resumed.preferences().delta_k(),
            uninterrupted.preferences().delta_k());
  EXPECT_EQ(resumed.preferences().window_seen(),
            uninterrupted.preferences().window_seen());
  EXPECT_EQ(resumed.stats().onchip_bytes, uninterrupted.stats().onchip_bytes);
  EXPECT_EQ(resumed.stats().offchip_bytes,
            uninterrupted.stats().offchip_bytes);
  store.clear();
}

TEST_F(CheckpointSuite, RejectsMissingOrCorrupt) {
  core::ChameleonConfig cc;
  core::ChameleonLearner learner(exp_->env(), cc, 3);
  EXPECT_FALSE(core::load_checkpoint(learner, "/tmp/nope_checkpoint.bin"));

  const std::string path = "/tmp/cham_test_checkpoint3.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("garbage", f);
  std::fclose(f);
  EXPECT_FALSE(core::load_checkpoint(learner, path));
  std::remove(path.c_str());
}

// Blobs carry a latent-precision tag after the magic and version; it is
// always fp32, and a blob with any other tag is refused, not misread.
TEST_F(CheckpointSuite, NonFp32PrecisionTagIsRejected) {
  core::ChameleonConfig cc;
  core::ChameleonLearner learner(exp_->env(), cc, 4);
  learner.observe(stream_->batches()[0]);
  core::ByteBuf blob;
  {
    core::ByteBufWriter os(blob);
    ASSERT_TRUE(learner.save_state(os));
  }
  core::ChameleonLearner restored(exp_->env(), cc, 5);
  {
    core::ByteBufReader is(blob.data(), blob.size());
    ASSERT_TRUE(restored.load_state(is));
  }
  blob[8] = static_cast<char>(quant::Precision::kInt8);
  core::ByteBufReader is(blob.data(), blob.size());
  EXPECT_FALSE(restored.load_state(is));
}

// ------------------------------------------------------------ CHS3 deltas
//
// The delta frames the write-behind eviction pipeline writes between full
// blobs (core/checkpoint.h). Pure byte-level tests; the end-to-end replay
// path is covered in tests/test_serve.cpp.

TEST(DeltaSuite, OpLogRoundTripAndHeader) {
  std::vector<data::ServeOp> ops(3);
  ops[0].predict = false;
  ops[0].batch.keys = {{1, 0, 2, false}, {3, 1, 4, false}};
  ops[0].batch.labels = {1, 3};
  ops[0].batch.domain = 1;
  ops[1].predict = true;
  ops[1].keys = {{2, 0, 0, true}, {5, 1, 1, true}, {0, 0, 3, true}};
  ops[2].predict = false;
  ops[2].batch.keys = {{4, 1, 0, false}};
  ops[2].batch.labels = {4};
  ops[2].batch.domain = 0;

  core::DeltaHeader h;
  h.kind = core::DeltaKind::kOpLog;
  h.base_hash = 0x1111;
  h.base_len = 22;
  h.next_hash = 0x2222;
  h.next_len = 33;
  const core::ByteBuf frame = core::encode_op_log(h, ops);
  EXPECT_TRUE(core::is_delta_blob(frame.data(), frame.size()));

  core::DeltaHeader g;
  ASSERT_TRUE(core::read_delta_header(frame.data(), frame.size(), g));
  EXPECT_EQ(g.kind, core::DeltaKind::kOpLog);
  EXPECT_EQ(g.base_hash, h.base_hash);
  EXPECT_EQ(g.next_len, h.next_len);

  std::vector<data::ServeOp> back;
  ASSERT_TRUE(core::read_op_log(frame.data(), frame.size(), back));
  ASSERT_EQ(back.size(), ops.size());
  EXPECT_FALSE(back[0].predict);
  EXPECT_EQ(back[0].batch.labels, ops[0].batch.labels);
  EXPECT_EQ(back[0].batch.domain, ops[0].batch.domain);
  ASSERT_EQ(back[0].batch.keys.size(), ops[0].batch.keys.size());
  EXPECT_EQ(back[0].batch.keys[1].class_id, ops[0].batch.keys[1].class_id);
  EXPECT_TRUE(back[1].predict);
  ASSERT_EQ(back[1].keys.size(), ops[1].keys.size());
  EXPECT_EQ(back[1].keys[2].instance_id, ops[1].keys[2].instance_id);
  EXPECT_EQ(back[1].keys[0].test, ops[1].keys[0].test);
  EXPECT_FALSE(back[2].predict);

  // Corrupt/truncated frames are rejected.
  std::vector<data::ServeOp> junk;
  EXPECT_FALSE(core::read_op_log(frame.data(), frame.size() - 3, junk));
  EXPECT_FALSE(core::read_op_log(frame.data(), 4, junk));
}

TEST(DeltaSuite, FullBlobIsNotMistakenForDelta) {
  const std::string not_delta = "CHS2 something something";
  EXPECT_FALSE(core::is_delta_blob(not_delta.data(), not_delta.size()));
  core::DeltaHeader h;
  EXPECT_FALSE(core::read_delta_header(not_delta.data(), not_delta.size(), h));
}

}  // namespace
}  // namespace cham
