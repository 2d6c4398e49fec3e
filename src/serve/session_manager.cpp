#include "serve/session_manager.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <span>
#include <utility>

#include "tensor/rng.h"
#include "tensor/thread_pool.h"
#include "util/check.h"

namespace cham::serve {
namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

SessionManager::SessionManager(ServeConfig cfg, LearnerFactory factory)
    : cfg_(std::move(cfg)),
      factory_(std::move(factory)),
      planner_(BatchPlannerConfig{cfg_.max_batch, cfg_.max_wait_us}),
      store_(cfg_.store_dir) {
  CHAM_CHECK(cfg_.num_shards >= 1, "SessionManager: need at least one shard");
  CHAM_CHECK(cfg_.queue_capacity >= 1,
             "SessionManager: queue capacity must be positive");
  CHAM_CHECK(cfg_.max_batch >= 1,
             "SessionManager: max_batch must be positive");
  CHAM_CHECK(cfg_.max_resident >= cfg_.num_shards,
             "SessionManager: max_resident " +
                 std::to_string(cfg_.max_resident) + " below num_shards " +
                 std::to_string(cfg_.num_shards) +
                 " (each shard dispatcher may pin one session)");
  CHAM_CHECK(static_cast<bool>(factory_),
             "SessionManager: learner factory is empty");
  WriteBehindConfig wb;
  wb.enabled = cfg_.write_behind;
  wb.delta = cfg_.delta_checkpoints;
  wb.compact_ratio = cfg_.delta_compact_ratio;
  wb.compact_every = cfg_.delta_compact_every;
  wb.max_replay_ops = cfg_.max_replay_ops;
  wb.snapshot_cache_bytes = cfg_.snapshot_cache_bytes;
  write_behind_ = std::make_unique<WriteBehind>(store_, wb);
  shards_.reserve(static_cast<size_t>(cfg_.num_shards));
  for (int64_t i = 0; i < cfg_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  if (cfg_.mode == ServeMode::kThreaded) {
    // Shard-level parallelism replaces intra-op parallelism: with the pool
    // at 1 thread, parallel_for short-circuits to an inline call, which is
    // safe from any number of shard workers and bit-identical to every
    // other thread count.
    prev_num_threads_ = num_threads();
    set_num_threads(1);
    for (auto& shard : shards_) {
      shard->worker = std::thread([this, &shard] { worker_loop(*shard); });
    }
  }
}

SessionManager::~SessionManager() {
  flush();
  if (cfg_.mode == ServeMode::kThreaded) {
    // Relaxed store: every worker loads stop_ while holding its shard mutex,
    // which this thread locks (below) after the store — the mutex hand-off
    // publishes the flag (memory-ordering policy case 1, util/sync.h).
    stop_.store(true, std::memory_order_relaxed);
    for (auto& shard : shards_) {
      util::MutexLock lock(shard->mu);
      shard->cv.notify_all();
    }
    for (auto& shard : shards_) {
      if (shard->worker.joinable()) shard->worker.join();
    }
    set_num_threads(prev_num_threads_);
  }
}

int64_t SessionManager::shard_of(uint64_t session_id) const {
  // splitmix64 spreads adjacent ids across shards uniformly.
  return static_cast<int64_t>(splitmix64(session_id) %
                              static_cast<uint64_t>(cfg_.num_shards));
}

uint64_t SessionManager::session_seed(uint64_t session_id) const {
  return split_seed(cfg_.base_seed, session_id);
}

Admission SessionManager::enqueue(int64_t shard_idx, Request r) {
  Shard& shard = *shards_[static_cast<size_t>(shard_idx)];
  int64_t depth = 0;
  bool accepted = false;
  double hint_ms = 0;
  {
    util::MutexLock lock(shard.mu);
    depth = static_cast<int64_t>(shard.queue.size());
    if (depth < cfg_.queue_capacity) {
      shard.queue.push_back(std::move(r));
      ++depth;
      accepted = true;
    } else {
      // Backpressure hint scaled to the observed drain rate: roughly one
      // full queue-drain at this shard's EWMA per-request dispatch time,
      // floored at the configured hint and capped so a stalled shard never
      // tells callers to go away for minutes.
      hint_ms = std::clamp(static_cast<double>(depth) * shard.ewma_dispatch_ms,
                           static_cast<double>(cfg_.retry_hint_ms),
                           static_cast<double>(cfg_.retry_hint_max_ms));
    }
  }
  // Stats are recorded with shard.mu released: the rejection path used to
  // take stats_mu_ while still holding the queue mutex, stretching the
  // admission critical section over an unrelated lock. stats_mu_ is a leaf
  // that never needs to nest under a Shard::mu.
  {
    util::MutexLock slock(stats_mu_);
    ++stats_.submitted;
    if (accepted) {
      ++stats_.admissions;
      stats_.queue_depth_high_water =
          std::max(stats_.queue_depth_high_water, depth);
    } else {
      ++stats_.rejections;
      stats_.record_retry_hint_ms(hint_ms);
    }
  }
  if (!accepted) {
    return {false, static_cast<int64_t>(std::ceil(hint_ms)), depth};
  }
  if (cfg_.mode == ServeMode::kThreaded) shard.cv.notify_one();
  return {true, 0, depth};
}

Admission SessionManager::submit_observe(uint64_t session_id,
                                         const data::Batch& batch) {
  Request r;
  r.kind = Request::Kind::kObserve;
  r.session_id = session_id;
  r.batch = batch;
  return enqueue(shard_of(session_id), std::move(r));
}

Admission SessionManager::submit_predict(
    uint64_t session_id, const std::vector<data::ImageKey>& keys,
    std::future<std::vector<int64_t>>* result) {
  // The promise is shared with the queued request: if dispatch throws (or
  // the submitting frame unwinds), neither side holds a dangling pointer,
  // and an exception set by the dispatcher re-surfaces from result.get().
  auto reply = std::make_shared<std::promise<std::vector<int64_t>>>();
  std::future<std::vector<int64_t>> future = reply->get_future();
  Request r;
  r.kind = Request::Kind::kPredict;
  r.session_id = session_id;
  r.keys = keys;
  r.reply = std::move(reply);
  const Admission adm = enqueue(shard_of(session_id), std::move(r));
  if (adm.accepted && result) *result = std::move(future);
  return adm;
}

std::optional<std::vector<int64_t>> SessionManager::predict(
    uint64_t session_id, const std::vector<data::ImageKey>& keys,
    Admission* admission) {
  std::future<std::vector<int64_t>> result;
  const Admission adm = submit_predict(session_id, keys, &result);
  if (admission) *admission = adm;
  if (!adm.accepted) return std::nullopt;
  // FIFO ordering: the request must be dispatched before returning —
  // deterministically by draining the shard here, or by blocking on the
  // worker in threaded mode.
  if (cfg_.mode == ServeMode::kDeterministic) {
    drain_shard(shard_of(session_id));
  }
  return result.get();
}

void SessionManager::drain() {
  if (cfg_.mode == ServeMode::kDeterministic) {
    // Serialise caller-driven dispatch: concurrent drainers (a net pump
    // thread racing a FLUSH responder, say) must not interleave pops of
    // the same session's queue.
    util::MutexLock det(det_dispatch_mu_);
    bool any = true;
    while (any) {
      any = false;
      // Cross-shard steal pass: pool every shard's eligible predicts into
      // ONE global plan. Single-threaded dispatch makes cross-shard
      // coalescing safe (a session never spans shards, so per-session FIFO
      // is untouched), and the planner's session_id ordering makes the
      // plan independent of both shard count and arrival interleaving.
      std::vector<Request> eligible;
      for (auto& shard : shards_) {
        util::MutexLock lock(shard->mu);
        // cham-lint: begin(batch_plan)
        planner_.take_eligible(shard->queue, eligible);
        // cham-lint: end(batch_plan)
      }
      if (!eligible.empty()) {
        dispatch_plan(planner_.finalize(std::move(eligible)), nullptr);
        any = true;
      }
      // Round-robin one remaining request per shard per pass: a
      // deterministic interleaving that exercises cross-session switching
      // (and therefore eviction) harder than draining shard-by-shard would.
      for (auto& shard : shards_) {
        Request r;
        {
          util::MutexLock lock(shard->mu);
          // cham-lint: begin(dispatch)
          if (shard->queue.empty()) continue;
          r = std::move(shard->queue.front());
          shard->queue.pop_front();
          // cham-lint: end(dispatch)
        }
        dispatch_timed(*shard, r);
        any = true;
      }
    }
    return;
  }
  for (auto& shard : shards_) {
    util::MutexLock lock(shard->mu);
    // Stop-aware: a worker that exited on shutdown can no longer drain its
    // queue, so waiting for emptiness would hang forever.
    shard->cv_idle.wait(lock, [this, &shard]() CHAM_REQUIRES(shard->mu) {
      return stop_.load(std::memory_order_relaxed) ||
             (shard->queue.empty() && shard->in_flight == 0);
    });
  }
}

void SessionManager::drain_shard(int64_t shard_idx) {
  util::MutexLock det(det_dispatch_mu_);
  Shard& shard = *shards_[static_cast<size_t>(shard_idx)];
  for (;;) {
    std::vector<Request> eligible;
    Request r;
    bool have_single = false;
    {
      util::MutexLock lock(shard.mu);
      // cham-lint: begin(batch_plan)
      planner_.take_eligible(shard.queue, eligible);
      // cham-lint: end(batch_plan)
      if (eligible.empty()) {
        // cham-lint: begin(dispatch)
        if (shard.queue.empty()) return;
        r = std::move(shard.queue.front());
        shard.queue.pop_front();
        // cham-lint: end(dispatch)
        have_single = true;
      }
    }
    if (have_single) {
      dispatch_timed(shard, r);
    } else {
      dispatch_plan(planner_.finalize(std::move(eligible)), &shard);
    }
  }
}

void SessionManager::worker_loop(Shard& shard) {
  for (;;) {
    std::vector<Request> eligible;
    Request r;
    bool have_single = false;
    int64_t work_items = 0;
    {
      util::MutexLock lock(shard.mu);
      shard.cv.wait(lock, [this, &shard]() CHAM_REQUIRES(shard.mu) {
        return stop_.load(std::memory_order_relaxed) || !shard.queue.empty();
      });
      // cham-lint: begin(batch_plan)
      planner_.take_eligible(shard.queue, eligible);
      // cham-lint: end(batch_plan)
      if (!eligible.empty() &&
          static_cast<int64_t>(eligible.size()) < cfg_.max_batch &&
          cfg_.max_wait_us > 0) {
        // Bounded coalescing: hold the undersized plan open for at most
        // max_wait_us to admit straggler predicts. Purely a latency/
        // throughput trade — merged or not, results are bit-identical.
        const int64_t want = cfg_.max_batch -
                             static_cast<int64_t>(eligible.size());
        shard.cv.wait_for(
            lock, std::chrono::microseconds(cfg_.max_wait_us),
            [this, &shard, want]() CHAM_REQUIRES(shard.mu) {
              return stop_.load(std::memory_order_relaxed) ||
                     static_cast<int64_t>(shard.queue.size()) >= want;
            });
        // cham-lint: begin(batch_plan)
        planner_.take_eligible(shard.queue, eligible);
        // cham-lint: end(batch_plan)
      }
      if (eligible.empty()) {
        // cham-lint: begin(dispatch)
        if (shard.queue.empty()) {
          // stop_ set and no work left. Wake any drain() racing shutdown:
          // nobody will notify cv_idle after this thread exits.
          shard.cv_idle.notify_all();
          return;
        }
        r = std::move(shard.queue.front());
        shard.queue.pop_front();
        ++shard.in_flight;
        // cham-lint: end(dispatch)
        have_single = true;
        work_items = 1;
      } else {
        work_items = static_cast<int64_t>(eligible.size());
        shard.in_flight += work_items;
      }
    }
    if (have_single) {
      dispatch_timed(shard, r);
    } else {
      dispatch_plan(planner_.finalize(std::move(eligible)), &shard);
    }
    {
      util::MutexLock lock(shard.mu);
      shard.in_flight -= work_items;
      if (shard.queue.empty() && shard.in_flight == 0) {
        shard.cv_idle.notify_all();
      }
    }
  }
}

void SessionManager::note_dispatch_error() {
  util::MutexLock slock(stats_mu_);
  ++stats_.dispatch_errors;
}

void SessionManager::note_dispatch_ms(Shard& shard, double total_ms,
                                      int64_t items) {
  if (items <= 0) return;
  const double per_item = total_ms / static_cast<double>(items);
  util::MutexLock lock(shard.mu);
  shard.ewma_dispatch_ms = shard.ewma_dispatch_ms == 0
                               ? per_item
                               : 0.8 * shard.ewma_dispatch_ms + 0.2 * per_item;
}

void SessionManager::dispatch_timed(Shard& shard, Request& r) {
  const auto t0 = std::chrono::steady_clock::now();
  // May throw (deterministic-mode observe): that sample simply goes
  // unrecorded — the EWMA is a hint, not an invariant.
  dispatch(r);
  note_dispatch_ms(shard, ms_since(t0), 1);
}

void SessionManager::dispatch_plan(BatchPlan plan, Shard* timing_shard) {
  if (plan.items.empty()) return;
  const auto t0 = std::chrono::steady_clock::now();

  // Groups run strictly one at a time: acquire, evaluate, release. Lazy
  // acquisition means this dispatcher never holds more than one pin — the
  // budget the max_resident >= num_shards spare-victim invariant allots it
  // — so every acquire is free to evict (possibly a session a LATER group
  // of this very plan needs; the restore is bit-exact, so that only costs
  // a round-trip, never a result bit).
  int64_t served = 0, windows = 0, merged = 0, max_window = 0;
  for (const PlanGroup& g : plan.groups) {
    core::ChameleonLearner* learner = nullptr;
    try {
      learner = acquire_session(g.session_id);
    } catch (...) {
      // Nothing is pinned (acquire un-reserves on its way out). Fail just
      // this group; the rest of the plan still runs.
      for (size_t i = g.begin; i < g.end; ++i) {
        plan.items[i].reply->set_exception(std::current_exception());
        note_dispatch_error();
      }
      continue;
    }
    const size_t n_reqs = g.end - g.begin;
    // All results are computed before any finish_dispatch: finishing moves
    // a request's keys into the session op log.
    std::vector<std::vector<int64_t>> results(n_reqs);
    bool ok = true;
    try {
      // Merged evaluation in windows of <= max_batch requests. Splitting a
      // stacked eval is row-exact (eval-mode layers are row-independent),
      // so the window size never changes any request's result.
      for (size_t w0 = g.begin; w0 < g.end;) {
        const size_t w1 =
            std::min(g.end, w0 + static_cast<size_t>(cfg_.max_batch));
        if (w1 - w0 == 1) {
          results[w0 - g.begin] = learner->predict_batch(
              std::span<const data::ImageKey>(plan.items[w0].keys));
        } else {
          std::vector<data::ImageKey> keys;
          size_t rows = 0;
          for (size_t i = w0; i < w1; ++i) rows += plan.items[i].keys.size();
          keys.reserve(rows);
          for (size_t i = w0; i < w1; ++i) {
            keys.insert(keys.end(), plan.items[i].keys.begin(),
                        plan.items[i].keys.end());
          }
          const std::vector<int64_t> out = learner->predict_batch(
              std::span<const data::ImageKey>(keys));
          // Scatter: each request owns a contiguous run of rows.
          size_t off = 0;
          for (size_t i = w0; i < w1; ++i) {
            const size_t len = plan.items[i].keys.size();
            results[i - g.begin].assign(out.begin() + static_cast<ptrdiff_t>(off),
                                        out.begin() +
                                            static_cast<ptrdiff_t>(off + len));
            off += len;
          }
          ++windows;
          merged += static_cast<int64_t>(w1 - w0);
          max_window = std::max(max_window, static_cast<int64_t>(w1 - w0));
        }
        w0 = w1;
      }
    } catch (...) {
      ok = false;
      for (size_t i = g.begin; i < g.end; ++i) {
        finish_dispatch(plan.items[i], learner, /*ok=*/false,
                        /*release_pin=*/i + 1 == g.end);
        plan.items[i].reply->set_exception(std::current_exception());
        note_dispatch_error();
      }
    }
    if (!ok) continue;
    for (size_t i = g.begin; i < g.end; ++i) {
      // The pin drops only with the LAST request of the group; after that
      // another shard may evict and free the learner.
      finish_dispatch(plan.items[i], learner, /*ok=*/true,
                      /*release_pin=*/i + 1 == g.end);
      plan.items[i].reply->set_value(std::move(results[i - g.begin]));
      ++served;
    }
  }

  {
    util::MutexLock slock(stats_mu_);
    stats_.predicts += served;
    stats_.predict_batches += windows;
    stats_.batched_predicts += merged;
    stats_.batch_size_max = std::max(stats_.batch_size_max, max_window);
  }
  if (timing_shard != nullptr) {
    note_dispatch_ms(*timing_shard, ms_since(t0),
                     static_cast<int64_t>(plan.items.size()));
  }
}

void SessionManager::dispatch(Request& r) {
  core::ChameleonLearner* learner = nullptr;
  try {
    learner = acquire_session(r.session_id);
  } catch (...) {
    // acquire_session un-reserves on its way out; nothing is pinned here.
    note_dispatch_error();
    if (r.reply) {
      r.reply->set_exception(std::current_exception());
      return;  // the predict() caller rethrows from result.get()
    }
    if (cfg_.mode == ServeMode::kDeterministic) throw;
    return;  // threaded observe: counted; the worker must survive
  }
  // Execute unpinned from sessions_mu_: other shards keep admitting and
  // evicting while this session trains (it is protected by its in_use pin).
  std::vector<int64_t> out;
  try {
    if (r.kind == Request::Kind::kObserve) {
      learner->observe(r.batch);
    } else {
      out = learner->predict(r.keys);
    }
  } catch (...) {
    // Release the pin FIRST (a permanently pinned session deadlocks
    // eviction and flush), then surface the error: through the promise for
    // predicts, to the caller in deterministic mode, counted in threaded
    // mode (the worker thread must not die).
    finish_dispatch(r, learner, /*ok=*/false);
    note_dispatch_error();
    if (r.reply) {
      r.reply->set_exception(std::current_exception());
      return;
    }
    if (cfg_.mode == ServeMode::kDeterministic) throw;
    return;
  }
  finish_dispatch(r, learner, /*ok=*/true);
  if (r.reply) r.reply->set_value(std::move(out));
  util::MutexLock slock(stats_mu_);
  if (r.kind == Request::Kind::kObserve) {
    ++stats_.observes;
  } else {
    ++stats_.predicts;
  }
}

void SessionManager::finish_dispatch(Request& r,
                                     core::ChameleonLearner* learner,
                                     bool ok, bool release_pin) {
  util::MutexLock lock(sessions_mu_);
  // cham-lint: begin(sessions_mu)
  auto it = sessions_.find(r.session_id);
  CHAM_CHECK(it != sessions_.end(),
             "SessionManager: releasing unknown session");
  Session& session = it->second;
  session_op_stats_[r.session_id] = learner->stats();
  if (!ok) {
    // The op may have mutated state without completing; an op-log replay
    // would diverge. Force the next snapshot to a full blob.
    session.ops_valid = false;
    session.ops.clear();
  } else if (session.ops_valid) {
    if (static_cast<int64_t>(session.ops.size()) >= cfg_.max_replay_ops) {
      // Bounded log: past the replay cap an op-log delta would never be
      // encoded anyway; stop accumulating (the next flush writes full).
      session.ops_valid = false;
      session.ops.clear();
    } else {
      data::ServeOp op;
      op.predict = r.kind == Request::Kind::kPredict;
      if (op.predict) {
        op.keys = std::move(r.keys);
      } else {
        op.batch = std::move(r.batch);
      }
      session.ops.push_back(std::move(op));
    }
  }
  if (release_pin) session.in_use = false;
  // cham-lint: end(sessions_mu)
}

core::ChameleonLearner* SessionManager::acquire_session(uint64_t session_id) {
  util::MutexLock lock(sessions_mu_);
  // cham-lint: begin(sessions_mu)
  for (;;) {
    // Re-look-up every iteration: eviction releases the lock mid-loop and
    // the map may rehash under concurrent admissions.
    Session& session = sessions_[session_id];
    if (session.evicting) {
      // This session's learner was just unlinked by an eviction whose
      // snapshot has not reached the write-behind pipeline yet. Restoring
      // now would read the PREVIOUS flush's bytes — silently stale state.
      // Wait for snapshot_and_submit to publish, then re-look-up.
      evict_cv_.wait(lock, [this, session_id]() CHAM_REQUIRES(sessions_mu_) {
        auto it = sessions_.find(session_id);
        return it == sessions_.end() || !it->second.evicting;
      });
      continue;
    }
    if (session.learner) {
      CHAM_CHECK(!session.in_use,
                 "SessionManager: session " + std::to_string(session_id) +
                     " dispatched concurrently (shard routing broken)");
      session.in_use = true;
      session.last_used = ++tick_;
      return session.learner.get();
    }
    if (resident_ < cfg_.max_resident) break;
    // Evict before reserving: this dispatcher must hold no pin while
    // evicting, or the max_resident >= num_shards spare-victim invariant
    // breaks. Unlink under the lock (pointer moves only), serialise and
    // hand off with it released.
    EvictedVictim victim = unlink_victim();
    // cham-lint: end(sessions_mu)
    lock.unlock();
    snapshot_and_submit(std::move(victim), /*force_full=*/false);
    lock.lock();
    // cham-lint: begin(sessions_mu)
  }
  // Reserve the residency slot and pin it before dropping the lock: other
  // dispatchers must neither evict this slot (no learner yet -> eviction
  // scans skip it) nor overfill the pool while this one materialises.
  {
    Session& session = sessions_[session_id];
    session.in_use = true;
    session.last_used = ++tick_;
  }
  ++resident_;
  {
    util::MutexLock slock(stats_mu_);
    stats_.resident_high_water =
        std::max(stats_.resident_high_water, resident_);
  }
  // cham-lint: end(sessions_mu)
  lock.unlock();

  // Materialise with no locks held: factory construction, restore I/O and
  // op-log replay are the slow path.
  std::unique_ptr<core::ChameleonLearner> fresh;
  try {
    fresh = materialize_session(session_id);
  } catch (...) {
    // Un-reserve so the slot does not leak (the session stays evicted /
    // absent; a later request may retry).
    lock.lock();
    Session& session = sessions_[session_id];
    session.in_use = false;
    --resident_;
    throw;
  }

  lock.lock();
  // cham-lint: begin(sessions_mu)
  Session& session = sessions_[session_id];
  session.learner = std::move(fresh);
  session.ops.clear();
  session.ops_valid = true;
  session.last_used = ++tick_;
  return session.learner.get();
  // cham-lint: end(sessions_mu)
}

std::unique_ptr<core::ChameleonLearner> SessionManager::materialize_session(
    uint64_t session_id) {
  auto fresh = factory_(session_id, session_seed(session_id));
  CHAM_CHECK(fresh != nullptr, "SessionManager: factory returned null");

  // Restore priority: the write-behind pipeline's newest copy (pending,
  // mid-flush, or cached) is authoritative — a restore racing its own
  // flush must read the exact bytes eviction produced.
  bool pending = false;
  if (auto blob = write_behind_->newest_blob(session_id, &pending)) {
    const auto t0 = std::chrono::steady_clock::now();
    core::ByteBufReader is(blob->data(), blob->size());
    const bool ok = fresh->load_state(is);
    CHAM_CHECK(ok, "SessionManager: corrupt in-memory snapshot for id " +
                       std::to_string(session_id));
    util::MutexLock slock(stats_mu_);
    ++stats_.restores;
    ++(pending ? stats_.pending_restores : stats_.cache_restores);
    stats_.record_restore_ms(ms_since(t0));
    return fresh;
  }

  if (!store_.contains(session_id)) {
    util::MutexLock slock(stats_mu_);
    ++stats_.creates;
    return fresh;
  }

  const auto t0 = std::chrono::steady_clock::now();
  int64_t replayed = 0;
  core::ByteBuf delta;
  core::DeltaHeader h;
  const bool oplog_delta =
      store_.get_delta(session_id, delta) &&
      core::read_delta_header(delta.data(), delta.size(), h) &&
      h.kind == core::DeltaKind::kOpLog;
  if (!oplog_delta) {
    // Full blob alone, or with a stale delta the store skips. A live
    // delta of any other kind makes the load fail: never serve old state.
    const bool ok = store_.load(session_id, *fresh);
    CHAM_CHECK(ok, "SessionManager: corrupt session blob for id " +
                       std::to_string(session_id));
  } else {
    core::ByteBuf base;
    const bool have_base = store_.get_blob(session_id, base);
    CHAM_CHECK(have_base, "SessionManager: op-log delta without base blob "
                          "for id " +
                              std::to_string(session_id));
    const bool stale =
        h.base_len != base.size() ||
        h.base_hash != core::blob_hash(base.data(), base.size());
    core::ByteBufReader is(base.data(), base.size());
    const bool ok = fresh->load_state(is);
    CHAM_CHECK(ok, "SessionManager: corrupt session blob for id " +
                       std::to_string(session_id));
    if (!stale) {
      // Replay the logged requests on top of the base state. The repo-wide
      // determinism contract makes this reproduce the evicted state
      // byte-for-byte; the frame's hash of that state proves it.
      std::vector<data::ServeOp> ops;
      const bool parsed = core::read_op_log(delta.data(), delta.size(), ops);
      CHAM_CHECK(parsed, "SessionManager: malformed op-log delta for id " +
                             std::to_string(session_id));
      for (const auto& op : ops) {
        if (op.predict) {
          (void)fresh->predict(op.keys);
        } else {
          fresh->observe(op.batch);
        }
      }
      replayed = static_cast<int64_t>(ops.size());
      core::ByteBuf replayed_blob;
      {
        core::ByteBufWriter os(replayed_blob);
        const bool saved = fresh->save_state(os);
        CHAM_CHECK(saved, "SessionManager: reserialize after replay failed");
      }
      CHAM_CHECK(
          replayed_blob.size() == h.next_len &&
              core::blob_hash(replayed_blob.data(), replayed_blob.size()) ==
                  h.next_hash,
          "SessionManager: op-log replay hash mismatch for id " +
              std::to_string(session_id) +
              " (determinism contract violated or delta corrupt)");
    }
    // Stale op-log (crash between a full flush and the delta unlink): the
    // base IS the newest state; nothing to replay.
  }
  util::MutexLock slock(stats_mu_);
  ++stats_.restores;
  ++stats_.disk_restores;
  stats_.replayed_ops += replayed;
  stats_.record_restore_ms(ms_since(t0));
  return fresh;
}

SessionManager::EvictedVictim SessionManager::unlink_victim() {
  // Lock-held portion of an eviction: victim selection and unlink. Pointer
  // moves only; the <1ms bench gate watches lock_ms. The caller releases
  // sessions_mu_ before serialising the returned victim.
  const auto t_lock = std::chrono::steady_clock::now();
  uint64_t victim_id = 0;
  Session* victim = nullptr;
  for (auto& [id, session] : sessions_) {
    if (!session.learner || session.in_use) continue;
    if (!victim || session.last_used < victim->last_used) {
      victim = &session;
      victim_id = id;
    }
  }
  // max_resident >= num_shards guarantees a spare: at most num_shards - 1
  // other sessions are pinned while one dispatcher is admitting.
  CHAM_CHECK(victim != nullptr,
             "SessionManager: no evictable session (all pinned)");
  EvictedVictim out;
  out.session_id = victim_id;
  out.learner = std::move(victim->learner);
  out.ops = std::move(victim->ops);
  out.ops_valid = victim->ops_valid;
  victim->ops.clear();
  victim->ops_valid = true;
  victim->evicting = true;
  --resident_;
  out.lock_ms = ms_since(t_lock);
  return out;
}

void SessionManager::snapshot_and_submit(EvictedVictim victim,
                                         bool force_full) {
  // Unlocked portion of an eviction: serialise into a pool-backed snapshot
  // and hand it to the write-behind pipeline. Other shards admit/evict/
  // dispatch freely during this.
  const auto t0 = std::chrono::steady_clock::now();
  auto blob = std::make_shared<core::ByteBuf>();
  {
    core::ByteBufWriter os(*blob);
    const bool ok = victim.learner->save_state(os);
    CHAM_CHECK(ok, "SessionManager: failed to serialise session " +
                       std::to_string(victim.session_id));
  }
  victim.learner.reset();  // destroy outside the lock too
  const double save_ms = ms_since(t0);

  WriteBehind::Snapshot snap;
  snap.session_id = victim.session_id;
  snap.blob = std::move(blob);
  snap.ops = std::move(victim.ops);
  snap.ops_valid = victim.ops_valid;
  snap.force_full = force_full;
  write_behind_->submit(std::move(snap));

  // The pipeline now owns the newest bytes; unblock any dispatcher that
  // queued up to rematerialise this session.
  {
    util::MutexLock lock(sessions_mu_);
    sessions_[victim.session_id].evicting = false;
  }
  evict_cv_.notify_all();

  util::MutexLock slock(stats_mu_);
  ++stats_.evictions;
  stats_.record_save_ms(save_ms);
  stats_.record_evict_lock_ms(victim.lock_ms);
}

void SessionManager::flush() {
  drain();
  {
    util::MutexLock lock(sessions_mu_);
    // cham-lint: begin(sessions_mu)
    while (resident_ > 0) {
      EvictedVictim victim = unlink_victim();
      // cham-lint: end(sessions_mu)
      lock.unlock();
      snapshot_and_submit(std::move(victim), /*force_full=*/true);
      lock.lock();
      // cham-lint: begin(sessions_mu)
    }
    // cham-lint: end(sessions_mu)
  }
  // Settle the pipeline and compact any outstanding deltas so external
  // SessionStore readers see complete, current blobs.
  write_behind_->drain();
  write_behind_->compact_all();
}

ServeStats SessionManager::stats() const {
  ServeStats snapshot;
  {
    util::MutexLock lock(stats_mu_);
    snapshot = stats_;
  }
  const WriteBehindStats wb = write_behind_->stats();
  snapshot.wb_flushes = wb.flushes;
  snapshot.wb_flush_errors = wb.flush_errors;
  snapshot.wb_full_saves = wb.full_saves;
  snapshot.wb_oplog_saves = wb.oplog_saves;
  snapshot.wb_full_bytes = wb.full_bytes;
  snapshot.wb_delta_bytes = wb.delta_bytes;
  snapshot.wb_compactions = wb.compactions;
  snapshot.wb_queue_depth_high_water = wb.queue_depth_high_water;
  snapshot.wb_cache_bytes_high_water = wb.cache_bytes_high_water;
  snapshot.flush_ms_total = wb.flush_ms_total;
  snapshot.flush_ms_max = wb.flush_ms_max;
  return snapshot;
}

core::OpStats SessionManager::aggregate_op_stats() const {
  util::MutexLock lock(sessions_mu_);
  core::OpStats total;
  for (const auto& [id, ops] : session_op_stats_) {
    (void)id;
    total += ops;
  }
  return total;
}

int64_t SessionManager::resident_count() const {
  util::MutexLock lock(sessions_mu_);
  return resident_;
}

}  // namespace cham::serve
