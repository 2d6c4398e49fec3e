// Multi-session serving runtime: a sharded pool of resident per-user
// learners with checkpoint-backed eviction.
//
// The paper trains one Chameleon learner on one user's stream; a production
// deployment serves many users at once, each with private head weights,
// replay stores and preference statistics. The SessionManager multiplexes
// those per-user learners over a bounded residency pool:
//
//   * Requests (observe / predict) enter per-shard bounded FIFO queues.
//     Sessions are hashed to shards, so one session's requests are always
//     dispatched in submission order by a single dispatcher — the property
//     that makes any cross-session interleaving produce per-session results
//     identical to N isolated learners.
//   * Admission is explicit backpressure: a full shard queue REJECTS the
//     request with a retry hint instead of growing without bound. Callers
//     re-submit after the hint; nothing is silently dropped or buffered.
//   * At most `max_resident` learners are in memory. Admitting a request
//     for a non-resident session evicts the least-recently-used idle
//     session first. Eviction is write-behind: the victim is unlinked
//     under the session lock (pointer moves only), serialised to an
//     in-memory snapshot with no locks held, and handed to the WriteBehind
//     pipeline, whose background IO thread flushes it to the SessionStore
//     as a full blob or a CHS3 delta (see serve/write_behind.h). The next
//     request for that session restores it bit-identically — from the
//     pipeline's pending/cached copy if its flush has not landed yet, from
//     disk otherwise (replaying op-log deltas through the learner, hash
//     verified).
//   * Each session's learner is seeded with split_seed(base_seed, id), so
//     per-session randomness is independent of admission order.
//
// Two scheduler modes:
//
//   kDeterministic  No threads. submit_observe() enqueues; drain() (or a
//                   synchronous predict()) dispatches queued requests in
//                   round-robin shard order on the calling thread. Tests use
//                   this to replay any interleaving reproducibly.
//   kThreaded       One worker thread per shard. The manager forces the
//                   tensor pool to 1 thread for its lifetime (shard-level
//                   parallelism replaces intra-op parallelism; kernels are
//                   bit-identical at any thread count, so per-session
//                   results do not change). Shard workers share the
//                   thread-safe LatentCache (see data/latent_cache.h).
//
// Hierarchy mapping (DESIGN.md "Serving runtime"): resident learners are
// the on-chip tier (fast, capacity-bounded), the SessionStore the off-chip
// tier (large, paid for per eviction/restore round-trip) — the same
// two-tier cost structure the paper's ST/LT split reasons about, one level
// up.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/chameleon.h"
#include "data/stream.h"
#include "serve/batch_planner.h"
#include "serve/serve_stats.h"
#include "serve/session_store.h"
#include "serve/write_behind.h"
#include "util/sync.h"

namespace cham::serve {

enum class ServeMode {
  kDeterministic,  // caller-driven dispatch, no threads
  kThreaded,       // one worker per shard
};

struct ServeConfig {
  int64_t num_shards = 4;
  // Resident learner bound. Must be >= num_shards: each shard dispatcher
  // pins at most one session while executing, and eviction only considers
  // unpinned sessions, so num_shards residents must always be spare.
  int64_t max_resident = 8;
  int64_t queue_capacity = 32;  // pending requests per shard
  // Floor of the backpressure hint returned on rejection. The actual hint
  // scales with the observed per-shard drain rate: depth x the shard's
  // EWMA dispatch time, clamped to [retry_hint_ms, retry_hint_max_ms] — a
  // loaded shard tells callers to back off for roughly one queue-drain.
  int64_t retry_hint_ms = 5;
  int64_t retry_hint_max_ms = 1000;
  // Batched predict dispatch (serve/batch_planner.h): max predict requests
  // coalesced into one stacked head evaluation, and how long a threaded
  // shard worker may wait to fill an undersized plan. max_batch = 1
  // disables cross-request merging; results are bit-identical either way.
  int64_t max_batch = 8;
  int64_t max_wait_us = 0;
  ServeMode mode = ServeMode::kDeterministic;
  std::string store_dir = "/tmp/cham_sessions";
  uint64_t base_seed = 42;

  // Eviction pipeline (serve/write_behind.h). write_behind=false flushes
  // synchronously on the evicting thread (still outside sessions_mu_);
  // delta_checkpoints=false writes every flush as a full blob.
  bool write_behind = true;
  bool delta_checkpoints = true;
  double delta_compact_ratio = 0.5;
  int64_t delta_compact_every = 8;
  int64_t max_replay_ops = 64;
  int64_t snapshot_cache_bytes = int64_t{128} << 20;
};

struct Admission {
  bool accepted = false;
  int64_t retry_after_ms = 0;  // when rejected: back off at least this long
  int64_t queue_depth = 0;     // shard queue depth after the decision
};

// Builds a fresh learner for a session. `seed` is the session's derived
// seed (split_seed(base_seed, session_id)); the factory must pass it to the
// ChameleonLearner constructor unchanged, or restores lose bit-identity
// with an isolated run of the same session.
using LearnerFactory = std::function<std::unique_ptr<core::ChameleonLearner>(
    uint64_t session_id, uint64_t seed)>;

class SessionManager {
 public:
  SessionManager(ServeConfig cfg, LearnerFactory factory);
  // Drains every queue, then evicts all resident sessions to the store.
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  // Enqueues one online-learning step for the session. Never blocks: a full
  // shard queue rejects with a retry hint.
  Admission submit_observe(uint64_t session_id, const data::Batch& batch);

  // Synchronous prediction, FIFO-ordered after the session's pending
  // observes (read-your-writes). Subject to the same admission control;
  // returns nullopt on rejection (admission, if given, carries the hint).
  std::optional<std::vector<int64_t>> predict(
      uint64_t session_id, const std::vector<data::ImageKey>& keys,
      Admission* admission = nullptr);

  // Asynchronous prediction: enqueues and, when admitted, stores the result
  // future in *result. Queued predicts from different sessions coalesce
  // into batch plans — by the shard worker (threaded) or at the next
  // drain()/predict() (deterministic). Per-session results are bit-exact
  // vs the synchronous path.
  Admission submit_predict(uint64_t session_id,
                           const std::vector<data::ImageKey>& keys,
                           std::future<std::vector<int64_t>>* result);

  // Deterministic mode: dispatches every queued request, round-robin across
  // shards, on the calling thread. Threaded mode: blocks until all queues
  // are empty and in-flight requests have finished.
  //
  // Safe to call from several threads in either mode: deterministic-mode
  // dispatch is serialised on det_dispatch_mu_, so concurrent drain()/
  // flush()/predict() callers (e.g. a net pump thread racing a responder's
  // FLUSH) take turns instead of popping and dispatching the same session's
  // requests in parallel.
  void drain() CHAM_EXCLUDES(det_dispatch_mu_);

  // Drains, then evicts every resident session to the store.
  void flush() CHAM_EXCLUDES(sessions_mu_);

  // The seed a session's learner is constructed with.
  uint64_t session_seed(uint64_t session_id) const;

  ServeStats stats() const CHAM_EXCLUDES(stats_mu_);
  // Sum of OpStats over every session this manager has served (resident
  // learners live, evicted sessions from their last dispatch snapshot).
  core::OpStats aggregate_op_stats() const CHAM_EXCLUDES(sessions_mu_);
  int64_t resident_count() const CHAM_EXCLUDES(sessions_mu_);
  const SessionStore& store() const { return store_; }
  const ServeConfig& config() const { return cfg_; }
  // The eviction pipeline (always constructed; synchronous when
  // cfg.write_behind is false). Exposed for tests that need to freeze the
  // IO thread to pin down restore-during-flush interleavings.
  WriteBehind& write_behind() { return *write_behind_; }

 private:
  // The queue element type (serve/batch_planner.h): shared with the
  // planner so plan extraction can move requests straight out of a queue.
  struct Shard {
    util::Mutex mu;
    util::CondVar cv;       // work available / stop
    util::CondVar cv_idle;  // queue empty and nothing in flight
    std::deque<Request> queue CHAM_GUARDED_BY(mu);
    int64_t in_flight CHAM_GUARDED_BY(mu) = 0;
    // EWMA of per-request dispatch wall time, fed into backpressure retry
    // hints (depth x drain rate). 0 until the first dispatch completes.
    double ewma_dispatch_ms CHAM_GUARDED_BY(mu) = 0;
    std::thread worker;
  };

  struct Session {
    std::unique_ptr<core::ChameleonLearner> learner;  // null when evicted
    uint64_t last_used = 0;  // residency LRU tick
    bool in_use = false;     // pinned by a dispatcher (or being materialised)
    // Requests served since the last snapshot/restore, for op-log delta
    // encoding. Dropped (ops_valid=false) past max_replay_ops or after a
    // failed dispatch left the learner state unlogged.
    std::vector<data::ServeOp> ops;
    bool ops_valid = true;
    // True between unlink_victim() moving the learner out and
    // snapshot_and_submit() handing the snapshot to the write-behind
    // pipeline. Materialising in that window would restore stale bytes
    // (the pipeline has no copy yet), so acquire_session waits it out.
    bool evicting = false;
  };

  // One eviction victim, unlinked from the residency pool but not yet
  // serialised. Moves between the locked unlink and the unlocked
  // serialise/hand-off phases of an eviction.
  struct EvictedVictim {
    uint64_t session_id = 0;
    std::unique_ptr<core::ChameleonLearner> learner;
    std::vector<data::ServeOp> ops;
    bool ops_valid = true;
    double lock_ms = 0;  // time spent under sessions_mu_ (bench-gated < 1ms)
  };

  int64_t shard_of(uint64_t session_id) const;
  Admission enqueue(int64_t shard_idx, Request r);
  // Pops and dispatches until the shard queue is empty (deterministic mode).
  void drain_shard(int64_t shard_idx) CHAM_EXCLUDES(det_dispatch_mu_);
  void worker_loop(Shard& shard);
  void dispatch(Request& r);
  // Dispatches `r` and folds its wall time into the shard's drain-rate
  // EWMA (retry-hint scaling).
  void dispatch_timed(Shard& shard, Request& r);
  // Folds `total_ms` over `items` dispatched requests into the shard's
  // per-request drain-rate EWMA.
  void note_dispatch_ms(Shard& shard, double total_ms, int64_t items);
  // Executes a batch plan: one group at a time — acquire the session,
  // run its merged stacked evaluations in max_batch-request windows,
  // scatter results to the per-request promises, release. Lazy per-group
  // acquisition keeps this dispatcher at its one-pin budget (the
  // max_resident >= num_shards spare-victim invariant), so any group's
  // acquire may evict — including a later group's session, which then
  // simply restores bit-exactly when its turn comes.
  void dispatch_plan(BatchPlan plan, Shard* timing_shard)
      CHAM_EXCLUDES(sessions_mu_);
  // Makes the session resident (evicting/restoring as needed), pins it, and
  // returns its learner. Takes sessions_mu_ internally; eviction
  // serialisation and restore I/O both run with the lock released.
  core::ChameleonLearner* acquire_session(uint64_t session_id)
      CHAM_EXCLUDES(sessions_mu_);
  // Restores/creates the learner for a reserved slot (no locks held).
  std::unique_ptr<core::ChameleonLearner> materialize_session(
      uint64_t session_id) CHAM_EXCLUDES(sessions_mu_);
  // Records op stats, appends the request to the session's op log, and —
  // when `release_pin` — releases the pin. `ok=false` marks the log invalid
  // (state mutated without a completed op). Batch plans finish a group's
  // requests with release_pin=false until the LAST one: the moment the pin
  // drops, another shard may evict and free the learner, so no call after
  // the release may touch it.
  void finish_dispatch(Request& r, core::ChameleonLearner* learner, bool ok,
                       bool release_pin = true) CHAM_EXCLUDES(sessions_mu_);
  // Eviction, split so the analysis can prove the lock discipline: the
  // LRU unpinned victim is selected and unlinked under sessions_mu_
  // (pointer moves only — the <1ms bench gate watches this), then
  // serialised and handed to the write-behind pipeline with NO locks held.
  // Callers sandwich: unlink_victim(); lock.unlock();
  // snapshot_and_submit(...); lock.lock();
  EvictedVictim unlink_victim() CHAM_REQUIRES(sessions_mu_);
  void snapshot_and_submit(EvictedVictim victim, bool force_full)
      CHAM_EXCLUDES(sessions_mu_, stats_mu_);
  void note_dispatch_error() CHAM_EXCLUDES(stats_mu_);

  ServeConfig cfg_;
  LearnerFactory factory_;
  BatchPlanner planner_;
  SessionStore store_;
  std::unique_ptr<WriteBehind> write_behind_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Deterministic-mode dispatch token: drain() and drain_shard() pop and
  // dispatch on the CALLING thread, so without serialisation two callers
  // could dequeue consecutive requests of one session and run them
  // concurrently (an observe mutating the learner while a predict reads
  // it) — the per-session FIFO guarantee threaded mode gets from its
  // one-worker-per-shard structure. Held across whole drain passes
  // (dispatch included), ahead of every other serve-layer lock. Threaded
  // mode never takes it.
  util::Mutex det_dispatch_mu_ CHAM_ACQUIRED_BEFORE(sessions_mu_);

  mutable util::Mutex sessions_mu_;
  std::unordered_map<uint64_t, Session> sessions_ CHAM_GUARDED_BY(sessions_mu_);
  // Signalled when an eviction's snapshot reaches the write-behind pipeline
  // (Session::evicting cleared); acquire_session waits on it.
  util::CondVar evict_cv_;
  std::unordered_map<uint64_t, core::OpStats> session_op_stats_
      CHAM_GUARDED_BY(sessions_mu_);
  int64_t resident_ CHAM_GUARDED_BY(sessions_mu_) = 0;
  uint64_t tick_ CHAM_GUARDED_BY(sessions_mu_) = 0;

  // Leaf lock: may be taken under sessions_mu_ or a Shard::mu, never the
  // reverse (DESIGN.md "Lock hierarchy").
  mutable util::Mutex stats_mu_ CHAM_ACQUIRED_AFTER(sessions_mu_);
  ServeStats stats_ CHAM_GUARDED_BY(stats_mu_);

  // Shutdown flag. Relaxed ordering on both sides (memory-ordering policy
  // case 1, util/sync.h): every reader holds a Shard::mu while loading, and
  // the writer locks that same mutex (to notify) after the store, so the
  // mutex hand-off publishes the flag.
  std::atomic<bool> stop_{false};
  int prev_num_threads_ = 0;  // tensor pool size to restore (threaded mode)
};

}  // namespace cham::serve
