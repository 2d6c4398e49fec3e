// Online continual-learning streams.
//
// DomainIncrementalStream — the paper's evaluation setting (Domain-IL):
// all classes, domains arriving in sequence.
//
// ClassIncrementalStream — the complementary Class-IL setting offered as an
// extension: classes arrive in groups ("tasks") while every domain is mixed
// within a task. Useful for studying Chameleon's class-balanced long-term
// store when the class distribution itself is non-stationary.
//
// Domains arrive strictly in sequence (CORe50 "sessions"). Within a domain,
// samples arrive in short temporally-correlated runs of one class (video
// frames of one object), with the class of each run drawn from a
// user-preference distribution: the k preferred classes are over-sampled by
// `preference_weight`. The preferred set can drift mid-stream, exercising the
// paper's learning-window recalibration.
#pragma once

#include <istream>
#include <ostream>
#include <vector>

#include "data/dataset.h"

namespace cham::data {

struct StreamConfig {
  int64_t batch_size = 10;     // paper setting
  int64_t run_length = 5;      // consecutive frames per object "video"
  // User preference model.
  int64_t num_preferred = 5;   // paper: k = 5
  float preference_weight = 12.0f;  // preferred classes dominate the stream
  bool drift_preferences = true;   // switch preferred set halfway per run
  uint64_t seed = 42;
};

struct Batch {
  std::vector<ImageKey> keys;
  std::vector<int64_t> labels;
  int64_t domain = 0;
};

// One request a serving session executed: an observe (carrying its batch) or
// a predict (carrying its query keys). The write-behind checkpoint pipeline
// (src/serve/) logs these between full-blob flushes; replaying the log on
// top of the base blob reconstructs the evicted state bit-identically, which
// is usually far smaller than shipping the state itself. Predicts are logged
// too because they charge the traffic ledger, which is part of the state.
struct ServeOp {
  bool predict = false;
  Batch batch;                 // observe payload (unused for predicts)
  std::vector<ImageKey> keys;  // predict payload (unused for observes)
};

// Byte-stable (de)serialisation of batches and serve-op logs, used by the
// CHS3 op-log delta frames (core/checkpoint.h). Return false on malformed
// input or stream failure.
bool save_batch(const Batch& batch, std::ostream& os);
bool load_batch(Batch& batch, std::istream& is);
bool save_ops(const std::vector<ServeOp>& ops, std::ostream& os);
bool load_ops(std::vector<ServeOp>& ops, std::istream& is);

// Materialised stream: the full ordered list of batches for one experiment
// run. Total length matches one pass over the training pool (paper: each
// sample passes through the model only once); preferred classes appear more
// often, others less, preserving the total sample count.
class DomainIncrementalStream {
 public:
  DomainIncrementalStream(const DatasetConfig& data_cfg,
                          const StreamConfig& stream_cfg);

  int64_t num_batches() const { return static_cast<int64_t>(batches_.size()); }
  const Batch& batch(int64_t i) const {
    return batches_[static_cast<size_t>(i)];
  }
  const std::vector<Batch>& batches() const { return batches_; }

  // Ground-truth preferred classes per domain (for evaluation of the
  // preference tracker; the learners never see this).
  const std::vector<std::vector<int64_t>>& preferred_by_domain() const {
    return preferred_by_domain_;
  }

  int64_t total_samples() const { return total_samples_; }

 private:
  std::vector<Batch> batches_;
  std::vector<std::vector<int64_t>> preferred_by_domain_;
  int64_t total_samples_ = 0;
};

// --- Multi-user serving workloads -----------------------------------------
//
// The serving runtime (src/serve/) multiplexes many per-user learners; its
// benchmarks and tests need a realistic arrival schedule. Web-scale traffic
// is heavily skewed — a few hot users dominate while a long tail of cold
// sessions trickles in — which is exactly the regime that exercises
// checkpoint-backed eviction (cold sessions fall out of the resident pool
// and must restore bit-identically later).

struct MultiUserConfig {
  int64_t num_sessions = 50;
  int64_t events = 2000;  // total submissions across all sessions
  double zipf_s = 1.1;    // Zipf exponent over session rank; 0 = uniform
  // Fraction of events that are predicts instead of observes (drawn i.i.d.
  // per event). Predicts mutate only the traffic ledger; an eviction after
  // them logs each as one entry of an op-log delta checkpoint.
  double predict_fraction = 0.0;
  uint64_t seed = 7;
};

// One serving arrival: session `session` submits its next batch, the
// `batch_index`-th of its private stream (a per-session running counter, so
// replaying the schedule through isolated learners is trivial). Predict
// events do not consume a batch index; batch_index then counts the observes
// submitted so far (the stream position the predict sees).
struct SessionEvent {
  int64_t session = 0;
  int64_t batch_index = 0;
  bool predict = false;
};

// Draws `events` sessions i.i.d. from Zipf(zipf_s) over session ranks
// 0..num_sessions-1 (rank 0 hottest) and assigns per-session batch indices
// in arrival order. Deterministic in the seed.
std::vector<SessionEvent> make_zipf_schedule(const MultiUserConfig& cfg);

struct ClassIncrementalConfig {
  int64_t classes_per_task = 10;
  int64_t batch_size = 10;
  int64_t run_length = 5;
  uint64_t seed = 43;
};

// Classes arrive in disjoint groups; within a task, samples mix all domains
// of the task's classes in temporally-correlated runs.
class ClassIncrementalStream {
 public:
  ClassIncrementalStream(const DatasetConfig& data_cfg,
                         const ClassIncrementalConfig& cfg);

  int64_t num_batches() const { return static_cast<int64_t>(batches_.size()); }
  const Batch& batch(int64_t i) const {
    return batches_[static_cast<size_t>(i)];
  }
  const std::vector<Batch>& batches() const { return batches_; }
  int64_t num_tasks() const { return num_tasks_; }
  // Classes introduced by task t.
  const std::vector<int64_t>& task_classes(int64_t t) const {
    return task_classes_[static_cast<size_t>(t)];
  }

 private:
  std::vector<Batch> batches_;
  std::vector<std::vector<int64_t>> task_classes_;
  int64_t num_tasks_ = 0;
};

}  // namespace cham::data
