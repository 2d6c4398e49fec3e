// The forgetting tracker: per-domain accuracy matrix, backward transfer and
// max forgetting over a scripted learner.
#include <gtest/gtest.h>

#include "metrics/forgetting.h"

namespace cham {
namespace {

// Scripted learner whose per-domain accuracy is controlled by a table.
class DomainScripted : public core::ContinualLearner {
 public:
  // knows[d] = true -> perfect on domain d, else 0%.
  explicit DomainScripted(std::vector<bool> knows)
      : knows_(std::move(knows)) {}
  void observe(const data::Batch&) override {}
  std::vector<int64_t> predict(
      const std::vector<data::ImageKey>& keys) override {
    std::vector<int64_t> out;
    for (const auto& k : keys) {
      out.push_back(knows_[static_cast<size_t>(k.domain_id)]
                        ? k.class_id
                        : (k.class_id + 1) % 1000);
    }
    return out;
  }
  std::string name() const override { return "DomainScripted"; }
  int64_t memory_overhead_bytes() const override { return 0; }
  std::vector<bool> knows_;
};

data::DatasetConfig tiny_cfg() {
  auto cfg = data::core50_config();
  cfg.num_classes = 4;
  cfg.num_domains = 3;
  cfg.test_instances = 2;
  return cfg;
}

TEST(ForgettingTracker, MatrixRowsMatchScript) {
  metrics::ForgettingTracker tracker(tiny_cfg());
  DomainScripted learner({true, false, false});
  auto row = tracker.record_after_domain(learner, 0);
  EXPECT_EQ(row[0], 100.0);
  EXPECT_EQ(row[1], 0.0);
}

TEST(ForgettingTracker, BwtIsNegativeUnderForgetting) {
  metrics::ForgettingTracker tracker(tiny_cfg());
  // After each domain, only the current domain is known (total forgetting).
  DomainScripted learner({true, false, false});
  tracker.record_after_domain(learner, 0);
  learner.knows_ = {false, true, false};
  tracker.record_after_domain(learner, 1);
  learner.knows_ = {false, false, true};
  tracker.record_after_domain(learner, 2);
  EXPECT_DOUBLE_EQ(tracker.backward_transfer(), -100.0);
  EXPECT_DOUBLE_EQ(tracker.max_forgetting(), 100.0);
  EXPECT_NEAR(tracker.final_average(), 100.0 / 3.0, 1e-9);
}

TEST(ForgettingTracker, NoForgettingGivesZeroBwt) {
  metrics::ForgettingTracker tracker(tiny_cfg());
  DomainScripted learner({true, true, true});
  tracker.record_after_domain(learner, 0);
  tracker.record_after_domain(learner, 1);
  tracker.record_after_domain(learner, 2);
  EXPECT_DOUBLE_EQ(tracker.backward_transfer(), 0.0);
  EXPECT_DOUBLE_EQ(tracker.max_forgetting(), 0.0);
  EXPECT_DOUBLE_EQ(tracker.final_average(), 100.0);
}

}  // namespace
}  // namespace cham
