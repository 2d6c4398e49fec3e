// perfbench driver: the deployed serving path measured from one process.
//
// NetClients send over a Unix-domain socket to a NetServer, which fronts a
// threaded SessionManager whose ChameleonLearners are evicted to a
// SessionStore. The driver sets that stack up, runs one workload against it
// (closed loop: blocking clients; open loop: a Poisson schedule per offered
// rate), then replays every session's accepted requests through an isolated
// ChameleonLearner and compares each wire prediction bit for bit.
//
// It writes raw measurements (per-request timings, server counters, oracle
// result and, when traced, per-layer profiles) to --out as JSON; run.py
// turns them into the benchmark's metrics. Tracing (--trace 1) records spans
// only around calls into the repository's public functions from this file:
// client request spans, learner spans from a ChameleonLearner subclass, and
// a separate per-layer profile of a head copy, the backbone and the GEMM.
//
// Modes:
//   --mode run       one measured run (the default)
//   --mode setup     set up, answer one request, print the ready line, exit
//   --mode prepare   build the pretrained-backbone cache, exit
//   --mode selftest  checks of the oracle comparison; exit 0 when they pass
#include <dirent.h>
#include <poll.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/chameleon.h"
#include "metrics/experiment.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "nn/layers.h"
#include "nn/mobilenet.h"
#include "nn/sgd.h"
#include "serve/session_manager.h"
#include "serve/session_store.h"
#include "tensor/gemm.h"
#include "tensor/rng.h"
#include "tensor/thread_pool.h"
#include "util/json.h"

namespace {

using namespace cham;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_t0 = Clock::now();

double now_us() {
  return std::chrono::duration<double, std::micro>(Clock::now() - g_t0)
      .count();
}

void sleep_until_us(double t_us) {
  std::this_thread::sleep_until(
      g_t0 + std::chrono::microseconds(static_cast<int64_t>(t_us)));
}

// ---------------------------------------------------------------- options

struct Options {
  std::string mode = "run";
  std::string workload = "evict_churn";
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work = ".bench_build/perfbench/work";
  std::string cache = ".bench_build/perfbench/pretrain";
  std::string out;
  std::string spans_out;
  int64_t sessions = 64;
  // Worker shards. A closed loop runs one client per shard, and warm-up
  // sends from one client per shard.
  int64_t shards = 2;
  int64_t queue_capacity = 32;
  double zipf = 1.1;
  double predict_frac = 0.15;
  int64_t page = 10;
  bool cold = false;
  // Open loop: offered requests/s of each phase, in order; each phase gets
  // an equal share of the run.
  std::vector<double> rates;

  bool open_loop() const { return !rates.empty(); }
};

// Fixed across workloads: at most 8 learners resident.
constexpr int64_t kMaxResident = 8;

std::vector<double> parse_list(const std::string& s) {
  std::vector<double> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(std::stod(item));
  }
  return out;
}

bool parse_options(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--mode") o.mode = v;
    else if (k == "--workload") o.workload = v;
    else if (k == "--seed") o.seed = std::stoull(v);
    else if (k == "--seconds") o.seconds = std::stod(v);
    else if (k == "--trace") o.trace = v == "1";
    else if (k == "--work") o.work = v;
    else if (k == "--cache") o.cache = v;
    else if (k == "--out") o.out = v;
    else if (k == "--spans-out") o.spans_out = v;
    else if (k == "--sessions") o.sessions = std::stoll(v);
    else if (k == "--shards") o.shards = std::stoll(v);
    else if (k == "--queue-capacity") o.queue_capacity = std::stoll(v);
    else if (k == "--zipf") o.zipf = std::stod(v);
    else if (k == "--predict-frac") o.predict_frac = std::stod(v);
    else if (k == "--page") o.page = std::stoll(v);
    else if (k == "--cold") o.cold = v == "1";
    else if (k == "--rates") o.rates = parse_list(v);
    else {
      std::fprintf(stderr, "perfbench_driver: unknown option %s\n",
                   k.c_str());
      return false;
    }
  }
  if (argc % 2 == 0) {
    std::fprintf(stderr, "perfbench_driver: option without a value\n");
    return false;
  }
  if (o.shards < 1 || o.sessions < o.shards || o.page < 1 ||
      o.seconds <= 0) {
    std::fprintf(stderr, "perfbench_driver: inconsistent workload options\n");
    return false;
  }
  return true;
}

// ------------------------------------------------------------ environment

// The CORe50-shaped pool the serving benches and tests use, with the
// pretrained-backbone cache kept inside the benchmark's build directory.
metrics::ExperimentConfig experiment_config(const Options& o) {
  metrics::ExperimentConfig cfg = metrics::core50_experiment();
  cfg.data.num_classes = 6;
  cfg.data.num_domains = 2;
  cfg.data.train_instances = 5;
  cfg.pretrain_num_classes = 12;
  cfg.pretrain_epochs = 4;
  cfg.learner_lr = 0.02f;
  cfg.cache_dir = o.cache;
  return cfg;
}

core::ChameleonConfig learner_config() {
  core::ChameleonConfig cc;
  cc.lt_capacity = 18;
  return cc;
}

constexpr uint64_t kBaseSeed = 97;

// Wire session ids, dealt so that session i lands on shard i % shards (the
// manager hashes ids to shards with splitmix64, under which ids 0..3 fill
// only three of four shards). Each id is the smallest unused one that hashes
// to its shard.
std::vector<uint64_t> wire_ids(int64_t n, int64_t shards) {
  std::vector<uint64_t> ids;
  std::vector<uint64_t> next(static_cast<size_t>(shards), 0);
  for (int64_t i = 0; i < n; ++i) {
    const auto shard = static_cast<uint64_t>(i % shards);
    uint64_t& id = next[shard];
    while (splitmix64(id) % static_cast<uint64_t>(shards) != shard) ++id;
    ids.push_back(id++);
  }
  return ids;
}

// One accepted request of a session, in execution order, with the wire
// result for predicts: the oracle's input.
struct Op {
  bool predict = false;
  data::Batch batch;
  std::vector<data::ImageKey> keys;
  std::vector<int64_t> wire;
};

// Request inputs, a pure function of (seed, session, per-session counter).
class Inputs {
 public:
  Inputs(const Options& o, metrics::Experiment& exp)
      : o_(o), data_(exp.config().data),
        test_keys_(data::all_test_keys(exp.config().data)) {
    if (o.cold) return;
    for (int64_t s = 0; s < o.sessions; ++s) {
      data::StreamConfig sc = exp.config().stream;
      sc.seed = split_seed(o.seed, static_cast<uint64_t>(s));
      data::DomainIncrementalStream stream(exp.config().data, sc);
      exp.warm_latents(stream);
      streams_.push_back(stream.batches());
    }
  }

  data::Batch observe(int64_t sid, int64_t k) const {
    if (!o_.cold) {
      const auto& pool = streams_[static_cast<size_t>(sid)];
      return pool[static_cast<size_t>(k) % pool.size()];
    }
    // Images no earlier request touched: every key misses the latent cache.
    Rng rng(split_seed(o_.seed ^ 0x0B5E, static_cast<uint64_t>(sid) << 32 |
                                             static_cast<uint64_t>(k)));
    data::Batch b;
    b.domain = (k / 20) % data_.num_domains;
    for (int64_t j = 0; j < 10; ++j) {
      const auto cls = static_cast<int32_t>(rng.uniform_int(data_.num_classes));
      b.keys.push_back({cls, static_cast<int32_t>(b.domain),
                        fresh_instance(sid, k * 10 + j), false});
      b.labels.push_back(cls);
    }
    return b;
  }

  std::vector<data::ImageKey> predict(int64_t sid, int64_t k) const {
    Rng rng(split_seed(o_.seed ^ 0x9ED1, static_cast<uint64_t>(sid) << 32 |
                                             static_cast<uint64_t>(k)));
    std::vector<data::ImageKey> keys;
    if (o_.cold) {
      for (int64_t j = 0; j < o_.page; ++j) {
        keys.push_back(
            {static_cast<int32_t>(rng.uniform_int(data_.num_classes)),
             static_cast<int32_t>((k / 4) % data_.num_domains),
             fresh_instance(sid, 500000 + k * o_.page + j), true});
      }
      return keys;
    }
    const auto n = static_cast<int64_t>(test_keys_.size());
    const int64_t off = rng.uniform_int(n);
    for (int64_t j = 0; j < o_.page; ++j) {
      keys.push_back(test_keys_[static_cast<size_t>((off + j) % n)]);
    }
    return keys;
  }

 private:
  // Instance ids stay below 2^23 so packed keys never collide.
  static int32_t fresh_instance(int64_t sid, int64_t n) {
    return static_cast<int32_t>(1000 + sid * 1000000 + n % 1000000);
  }

  const Options& o_;
  data::DatasetConfig data_;
  std::vector<data::ImageKey> test_keys_;
  std::vector<std::vector<data::Batch>> streams_;
};

// ------------------------------------------------------------------ trace

struct LearnerSpan {
  uint64_t sid = 0;
  bool predict = false;
  bool replay = false;  // op-log replay during a restore, not a request
  int64_t seq = -1;     // first request served (per-session accepted rank)
  int64_t nreq = 1;     // requests served (a merged predict window: > 1)
  double start = 0, end = 0;
};

// Learner-side span log. A call is live (serves a request) or a replay of
// an op logged before an eviction. Observes are told apart exactly by the
// learner's step counter. In the closed loop the client also registers each
// request before sending it, so a predict is live only when it is the
// session's next expected request; open-loop sessions are never evicted,
// and their live calls are simply counted.
class Tracer {
 public:
  explicit Tracer(int64_t page, bool closed_loop)
      : page_(page), closed_(closed_loop) {}

  // Closed loop: registers the session's next request, in accepted order.
  void expect(uint64_t sid, int64_t seq, bool predict,
              const std::vector<data::ImageKey>& keys) {
    std::lock_guard<std::mutex> lock(mu_);
    cursors_[sid].expected.push_back({seq, predict, keys});
  }
  // Closed loop: the registered request was never accepted.
  void retract(uint64_t sid) {
    std::lock_guard<std::mutex> lock(mu_);
    cursors_[sid].expected.pop_back();
  }

  void on_observe(uint64_t sid, int64_t step, double t0, double t1) {
    std::lock_guard<std::mutex> lock(mu_);
    Cursor& c = cursors_[sid];
    LearnerSpan sp{sid, false, step < c.live_obs, -1, 1, t0, t1};
    if (sp.replay) {
      ++replayed_observes_;
      sp.seq = c.expected.empty() ? -1 : c.expected.front().seq;
    } else {
      ++c.live_obs;
      sp.seq = take(c, 1);
    }
    spans_.push_back(sp);
  }

  void on_predict(uint64_t sid, int64_t step,
                  std::span<const data::ImageKey> keys, double t0,
                  double t1) {
    std::lock_guard<std::mutex> lock(mu_);
    Cursor& c = cursors_[sid];
    bool replay = step < c.live_obs;
    if (!replay && closed_) {
      replay = c.expected.empty() || !c.expected.front().predict ||
               !std::equal(keys.begin(), keys.end(),
                           c.expected.front().keys.begin(),
                           c.expected.front().keys.end());
    }
    LearnerSpan sp{sid, true, replay, -1,
                   static_cast<int64_t>(keys.size()) / page_, t0, t1};
    if (replay) {
      sp.seq = c.expected.empty() ? -1 : c.expected.front().seq;
    } else {
      sp.seq = take(c, sp.nreq);
    }
    spans_.push_back(sp);
  }

  void note_factory_ms(double ms) {
    std::lock_guard<std::mutex> lock(mu_);
    factory_ms_.push_back(ms);
  }

  std::vector<LearnerSpan> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }
  std::vector<double> factory_ms() const {
    std::lock_guard<std::mutex> lock(mu_);
    return factory_ms_;
  }
  int64_t replayed_observes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return replayed_observes_;
  }

 private:
  struct Expected {
    int64_t seq = -1;
    bool predict = false;
    std::vector<data::ImageKey> keys;
  };
  struct Cursor {
    int64_t live_obs = 0;
    int64_t next_seq = 0;               // open loop: live requests so far
    std::deque<Expected> expected;      // closed loop: not yet executed
  };

  // Sequence number of the first of `n` requests a live call serves.
  int64_t take(Cursor& c, int64_t n) {
    if (!closed_) {
      const int64_t seq = c.next_seq;
      c.next_seq += n;
      return seq;
    }
    if (c.expected.empty()) return -1;
    const int64_t seq = c.expected.front().seq;
    c.expected.pop_front();
    return seq;
  }

  int64_t page_;
  bool closed_;
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, Cursor> cursors_;
  std::vector<LearnerSpan> spans_;
  std::vector<double> factory_ms_;
  int64_t replayed_observes_ = 0;
};

// Used only in traced runs: times the two learner entry points the serving
// runtime calls, observe and predict_batch.
class TracingLearner : public core::ChameleonLearner {
 public:
  TracingLearner(const core::LearnerEnv& env, const core::ChameleonConfig& cfg,
                 uint64_t seed, uint64_t sid, Tracer& tracer)
      : ChameleonLearner(env, cfg, seed), sid_(sid), tracer_(tracer) {}

  void observe(const data::Batch& batch) override {
    const int64_t step = steps_observed();
    const double t0 = now_us();
    ChameleonLearner::observe(batch);
    tracer_.on_observe(sid_, step, t0, now_us());
  }

  std::vector<int64_t> predict_batch(
      std::span<const data::ImageKey> keys) override {
    const int64_t step = steps_observed();
    const double t0 = now_us();
    std::vector<int64_t> out = ChameleonLearner::predict_batch(keys);
    tracer_.on_predict(sid_, step, keys, t0, now_us());
    return out;
  }

 private:
  uint64_t sid_;
  Tracer& tracer_;
};

// -------------------------------------------------------------- requests

struct Request {
  uint64_t sid = 0;
  bool predict = false;
  int phase = 0;
  double t_sched = 0;  // open loop: when it was due; closed: first attempt
  double t_first = 0;  // first send attempt
  double t_last = 0;   // send of the attempt that was answered last
  double t_done = -1;  // final reply (ok or not)
  double send_us = 0;  // time inside NetClient::send_* (last attempt)
  bool ok = false;
  bool warm = false;  // sent while warming up, before the timed window
  int64_t seq = -1;       // rank among the session's accepted requests
};

struct RunState {
  std::vector<uint64_t> ids;  // wire session id of each session index
  std::vector<Request> reqs;
  std::vector<std::vector<Op>> ops;  // per session, accepted, in order
  // Per session: observes and predicts drawn so far (the next input's
  // index). A session is driven by one thread at a time.
  std::vector<int64_t> obs_count, pred_count;
  std::vector<double> phase_start;   // open loop: phase boundaries (us)
  std::vector<double> phase_end;
  std::vector<double> lag_ms;  // open loop: how late each send went out
  double t_start = 0, t_end = 0;
};

// Collects the first exception thrown on a worker thread, so a failed
// connection or learner ends the run with an error instead of
// std::terminate; the caller rethrows it after joining.
class ThreadErrors {
 public:
  template <class F>
  auto guard(F f) {
    return [this, f = std::move(f)]() mutable {
      try {
        f();
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu_);
        if (!first_) first_ = std::current_exception();
      }
    };
  }
  void rethrow() {
    std::lock_guard<std::mutex> lock(mu_);
    if (first_) std::rethrow_exception(first_);
  }

 private:
  std::mutex mu_;
  std::exception_ptr first_;
};

struct ThreadSampler {
  ThreadSampler() = default;
  ThreadSampler(const ThreadSampler&) = delete;
  ThreadSampler& operator=(const ThreadSampler&) = delete;
  ~ThreadSampler() { finish(); }

  std::atomic<bool> stop{false};
  std::atomic<int64_t> max_threads{0};
  std::thread th;

  static int64_t count() {
    int64_t n = 0;
    if (DIR* d = opendir("/proc/self/task")) {
      while (dirent* e = readdir(d)) {
        if (e->d_name[0] != '.') ++n;
      }
      closedir(d);
    }
    return n;
  }
  void start() {
    th = std::thread([this] {
      while (!stop.load()) {
        const int64_t n = count();
        if (n > max_threads.load()) max_threads.store(n);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });
  }
  void finish() {
    stop.store(true);
    if (th.joinable()) th.join();
  }
};

// Draws session `idx`'s next input of the given kind.
Op next_op(const Inputs& in, RunState& st, size_t idx, bool predict) {
  Op op;
  op.predict = predict;
  const auto sidx = static_cast<int64_t>(idx);
  if (predict) {
    op.keys = in.predict(sidx, st.pred_count[idx]++);
  } else {
    op.batch = in.observe(sidx, st.obs_count[idx]++);
  }
  return op;
}

// Sends `op` to session `idx` and waits for its reply, retrying after the
// server's hint while it answers with backpressure (after 20 s it gives up
// and the request counts as failed). An accepted op joins the session's log
// with its wire result. Returns the request's timings.
Request send_blocking(net::NetClient& client, Tracer* tracer, RunState& st,
                      size_t idx, Op op) {
  const uint64_t sid = st.ids[idx];
  auto& log = st.ops[idx];
  Request r;
  r.sid = sid;
  r.predict = op.predict;
  const auto seq = static_cast<int64_t>(log.size());
  if (tracer) tracer->expect(sid, seq, op.predict, op.keys);
  r.t_first = r.t_sched = now_us();
  net::Reply rep;
  for (;;) {
    r.t_last = now_us();
    const uint64_t id = op.predict ? client.send_predict(sid, op.keys)
                                   : client.send_observe(sid, op.batch);
    r.send_us = now_us() - r.t_last;
    rep = client.await_reply(id);
    if (!rep.backpressured()) break;
    if (now_us() - r.t_first > 20e6) break;  // give up: counts failed
    std::this_thread::sleep_for(
        std::chrono::milliseconds(rep.error.retry_after_ms));
  }
  r.t_done = now_us();
  r.ok = rep.ok();
  if (!r.ok && tracer) tracer->retract(sid);
  if (r.ok) {
    r.seq = seq;
    if (op.predict) op.wire = std::move(rep.preds);
    log.push_back(std::move(op));
  }
  return r;
}

// Observes each session gets before the timed window. Sessions start empty
// and their replay stores fill over the first observes, so a run that
// started cold would see per-event cost and checkpoint size grow with the
// number of events it got through, which depends on the host's speed.
constexpr int64_t kWarmObserves = 12;

// Brings every session to its steady state before timing starts: client c
// sends kWarmObserves observes to each of its sessions in turn, then one
// predict whose reply shows that they have all run. A session is loaded
// once here, so a workload whose sessions outnumber the resident slots
// evicts each at most once while warming up.
void warm_up(const Options& o, const Inputs& in, const std::string& sock,
             Tracer* tracer, RunState& st) {
  std::vector<std::vector<Request>> per_client(static_cast<size_t>(o.shards));
  ThreadErrors errors;
  std::vector<std::thread> threads;
  // Open-loop tracing numbers live calls itself (see Tracer).
  Tracer* expect = o.open_loop() ? nullptr : tracer;
  for (int64_t c = 0; c < o.shards; ++c) {
    threads.emplace_back(errors.guard([&, c] {
      net::NetClient client({net::Transport::kUnix, sock, 0});
      for (int64_t s = c; s < o.sessions; s += o.shards) {
        const auto idx = static_cast<size_t>(s);
        for (int64_t k = 0; k <= kWarmObserves; ++k) {
          Request r = send_blocking(client, expect, st, idx,
                                    next_op(in, st, idx, k == kWarmObserves));
          r.warm = true;
          per_client[static_cast<size_t>(c)].push_back(r);
        }
      }
    }));
  }
  for (auto& t : threads) t.join();
  errors.rethrow();
  for (auto& v : per_client) {
    for (auto& r : v) st.reqs.push_back(r);
  }
}

// Closed loop: each client sends one request, waits for its reply and
// retries on backpressure after the server's hint. A session belongs to one
// client, so per-session FIFO holds and the oracle can replay. Clients own
// the sessions of one shard each (see wire_ids): each client and its shard
// then form one closed loop, and no client's predicts queue behind another
// client's observes.
void run_closed(const Options& o, const Inputs& in, const std::string& sock,
                Tracer* tracer, RunState& st) {
  // Event order: the repository's multi-user arrival generator (Zipf over
  // sessions, uniform at exponent 0, i.i.d. observe/predict draws).
  data::MultiUserConfig mc;
  mc.num_sessions = o.sessions;
  mc.events = 400000;
  mc.zipf_s = o.zipf;
  mc.predict_fraction = o.predict_frac;
  mc.seed = o.seed;
  const std::vector<data::SessionEvent> schedule = data::make_zipf_schedule(mc);

  std::vector<std::vector<Request>> per_client(static_cast<size_t>(o.shards));
  const double deadline = st.t_start + o.seconds * 1e6;
  ThreadErrors errors;
  std::vector<std::thread> threads;
  for (int64_t c = 0; c < o.shards; ++c) {
    threads.emplace_back(errors.guard([&, c] {
      net::NetClient client({net::Transport::kUnix, sock, 0});
      auto& mine = per_client[static_cast<size_t>(c)];
      for (const auto& ev : schedule) {
        // Session i is on shard i % shards (see wire_ids).
        if (ev.session % o.shards != c) continue;
        if (now_us() >= deadline) break;
        const auto idx = static_cast<size_t>(ev.session);
        mine.push_back(send_blocking(client, tracer, st, idx,
                                     next_op(in, st, idx, ev.predict)));
      }
    }));
  }
  for (auto& t : threads) t.join();
  errors.rethrow();
  for (auto& v : per_client) {
    for (auto& r : v) st.reqs.push_back(r);
  }
}

// Open loop: independent devices (one session and one connection each)
// send on a Poisson schedule at each offered rate in turn, whether or not
// earlier replies have come back. One thread sends, one reads every reply.
void run_open(const Options& o, const Inputs& in, const std::string& sock,
              RunState& st) {
  const auto n_dev = static_cast<int>(o.sessions);
  struct Planned {
    double t = 0;
    int dev = 0;
    bool predict = false;
    int phase = 0;
  };
  // Poisson arrivals conditioned on their count: N uniform times in the
  // phase, sorted, each given a uniformly drawn device.
  Rng rng(split_seed(o.seed, 0x0BE7));
  std::vector<Planned> plan;
  const double phase_us =
      o.seconds * 1e6 / static_cast<double>(o.rates.size());
  const double lead_us = 20000;  // first send after the generator is ready
  double base = lead_us;
  for (size_t p = 0; p < o.rates.size(); ++p) {
    const auto n = static_cast<int64_t>(
        std::llround(o.rates[p] * phase_us / 1e6));
    std::vector<Planned> ph;
    for (int64_t i = 0; i < n; ++i) {
      ph.push_back({base + rng.uniform() * phase_us,
                    static_cast<int>(rng.uniform_int(n_dev)),
                    rng.uniform() < o.predict_frac, static_cast<int>(p)});
    }
    std::sort(ph.begin(), ph.end(),
              [](const Planned& a, const Planned& b) { return a.t < b.t; });
    plan.insert(plan.end(), ph.begin(), ph.end());
    st.phase_start.push_back(st.t_start + base);
    st.phase_end.push_back(st.t_start + base + phase_us);
    base += phase_us;
  }

  struct Conn {
    std::unique_ptr<net::NetClient> client;
    std::mutex mu;  // held across send + id registration
    std::unordered_map<uint64_t, size_t> by_id;
    std::vector<uint8_t> buf;
    std::vector<size_t> sent;  // request indices in send order
  };
  std::vector<std::unique_ptr<Conn>> conns;
  for (int d = 0; d < n_dev; ++d) {
    conns.push_back(std::make_unique<Conn>());
    conns.back()->client = std::make_unique<net::NetClient>(
        net::ClientOptions{net::Transport::kUnix, sock, 0});
    // Sized up front: no rehash or regrowth stalls the generator mid-run.
    conns.back()->by_id.reserve(plan.size());
    conns.back()->sent.reserve(plan.size());
  }
  st.lag_ms.reserve(plan.size());
  // Requests of the timed window follow the warm-up's in st.reqs.
  const size_t first = st.reqs.size();
  st.reqs.resize(first + plan.size());
  std::vector<std::vector<int64_t>> preds(plan.size());
  std::vector<Op> payload(plan.size());
  std::atomic<size_t> done{0};
  std::atomic<bool> abort{false};  // the generator failed: stop reading

  ThreadErrors errors;
  std::thread receiver(errors.guard([&] {
    std::vector<pollfd> fds(static_cast<size_t>(n_dev));
    std::vector<uint8_t> tmp(1 << 16);
    std::vector<int64_t> decoded;
    const double give_up = st.t_start + lead_us + o.seconds * 1e6 + 30e6;
    while (done.load() < plan.size() && now_us() < give_up &&
           !abort.load()) {
      for (int d = 0; d < n_dev; ++d) {
        fds[static_cast<size_t>(d)] = {conns[static_cast<size_t>(d)]->client->fd(),
                                       POLLIN, 0};
      }
      if (poll(fds.data(), fds.size(), 20) <= 0) continue;
      for (int d = 0; d < n_dev; ++d) {
        if (!(fds[static_cast<size_t>(d)].revents & (POLLIN | POLLHUP))) continue;
        Conn& cn = *conns[static_cast<size_t>(d)];
        const ssize_t got = read(cn.client->fd(), tmp.data(), tmp.size());
        if (got <= 0) continue;
        cn.buf.insert(cn.buf.end(), tmp.begin(), tmp.begin() + got);
        size_t off = 0;
        net::FrameHeader h;
        while (cn.buf.size() - off >= net::kHeaderBytes &&
               net::read_header(cn.buf.data() + off, cn.buf.size() - off, h) &&
               cn.buf.size() - off >= net::kHeaderBytes + h.payload_len) {
          const uint8_t* p = cn.buf.data() + off + net::kHeaderBytes;
          const double t = now_us();
          size_t idx = 0;
          {
            std::lock_guard<std::mutex> lock(cn.mu);
            auto it = cn.by_id.find(h.request_id);
            if (it == cn.by_id.end()) {
              off += net::kHeaderBytes + h.payload_len;
              continue;
            }
            idx = it->second;
          }
          Request& r = st.reqs[first + idx];
          r.t_done = t;
          if (h.type == net::MsgType::kPredictResult &&
              net::decode_predict_result(p, h.payload_len, decoded)) {
            r.ok = true;
            preds[idx] = decoded;
          } else if (h.type == net::MsgType::kObserveOk) {
            r.ok = true;
          }  // kError: refused or failed, stays !ok
          done.fetch_add(1);
          off += net::kHeaderBytes + h.payload_len;
        }
        cn.buf.erase(cn.buf.begin(), cn.buf.begin() + static_cast<ptrdiff_t>(off));
      }
    }
  }));

  try {
    for (size_t i = 0; i < plan.size(); ++i) {
      const Planned& pl = plan[i];
      const auto dev = static_cast<size_t>(pl.dev);
      const uint64_t sid = st.ids[dev];
      Op& op = payload[i];
      op = next_op(in, st, dev, pl.predict);
      Request& r = st.reqs[first + i];
      r.sid = sid;
      r.predict = pl.predict;
      r.phase = pl.phase;
      r.t_sched = st.t_start + pl.t;
      sleep_until_us(r.t_sched);
      Conn& cn = *conns[dev];
      std::lock_guard<std::mutex> lock(cn.mu);
      r.t_first = r.t_last = now_us();
      st.lag_ms.push_back((r.t_first - r.t_sched) / 1000.0);
      const uint64_t id = pl.predict ? cn.client->send_predict(sid, op.keys)
                                     : cn.client->send_observe(sid, op.batch);
      r.send_us = now_us() - r.t_last;
      cn.by_id[id] = i;
      cn.sent.push_back(i);
    }
  } catch (...) {
    abort.store(true);
    receiver.join();
    throw;
  }
  receiver.join();
  errors.rethrow();

  // Accepted order per session is send order: one connection per session,
  // and the server admits a connection's frames in arrival order.
  for (int d = 0; d < n_dev; ++d) {
    for (size_t idx : conns[static_cast<size_t>(d)]->sent) {
      Request& r = st.reqs[first + idx];
      if (!r.ok) continue;
      auto& log = st.ops[static_cast<size_t>(d)];
      r.seq = static_cast<int64_t>(log.size());
      Op op = std::move(payload[idx]);
      op.wire = std::move(preds[idx]);
      log.push_back(std::move(op));
    }
  }
}

// ----------------------------------------------------------------- oracle

struct OracleResult {
  int64_t checked = 0;
  int64_t matched = 0;
  int64_t replayed_ops = 0;
};

// Replays each session's accepted requests, in order, through an isolated
// learner seeded like the served one, and compares every wire prediction.
OracleResult run_oracle(const core::LearnerEnv& env,
                        const std::vector<std::vector<Op>>& ops,
                        const std::vector<uint64_t>& seeds, int threads) {
  std::atomic<size_t> next{0};
  std::atomic<int64_t> checked{0}, matched{0}, replayed{0};
  const int prev = num_threads();
  set_num_threads(1);
  ThreadErrors errors;
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back(errors.guard([&] {
      for (size_t s = next.fetch_add(1); s < ops.size(); s = next.fetch_add(1)) {
        if (ops[s].empty()) continue;
        core::ChameleonLearner iso(env, learner_config(), seeds[s]);
        for (const Op& op : ops[s]) {
          replayed.fetch_add(1);
          if (!op.predict) {
            iso.observe(op.batch);
            continue;
          }
          checked.fetch_add(1);
          if (iso.predict(op.keys) == op.wire) matched.fetch_add(1);
        }
      }
    }));
  }
  for (auto& t : pool) t.join();
  set_num_threads(prev);
  errors.rethrow();
  return {checked.load(), matched.load(), replayed.load()};
}

// ---------------------------------------------------------------- profile

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

template <class F>
double median_us(int reps, F&& f) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_us();
    f();
    t.push_back(now_us() - t0);
  }
  return median(t);
}

Tensor random_tensor(const Shape& s, Rng& rng) {
  Tensor t(s);
  for (int64_t i = 0; i < t.numel(); ++i) t.data()[i] = rng.normal_f(0, 1);
  return t;
}

struct Metric {
  std::string name;
  double value;
};

// Per-layer profile at the serving shapes, on copies: the head from the
// environment's head factory (the served heads cannot be wrapped: model_io
// dynamic_casts BatchNorm2d when saving), the shared frozen backbone in
// eval mode, and the GEMM kernel at the head's own shapes. One tensor-pool
// thread, like a serving shard worker.
std::vector<Metric> profile_layers(metrics::Experiment& exp,
                                   const core::LearnerEnv& env,
                                   const core::ChameleonConfig& cc,
                                   int64_t batch_size) {
  std::vector<Metric> out;
  const int prev = num_threads();
  set_num_threads(1);
  Rng rng(0x9A0F11E);
  constexpr int kReps = 15;
  // The observe step trains on the incoming batch and the full ST store,
  // plus LT replay rows while the burst staged every lt_period_h steps
  // lasts (at most lt_capacity rows, lt_replay_per_batch per step). The
  // profile uses the median row count over one period.
  std::vector<int64_t> rows;
  const int64_t burst = std::min(cc.lt_capacity,
                                 cc.lt_period_h * cc.lt_replay_per_batch);
  for (int64_t k = 0; k < cc.lt_period_h; ++k) {
    const int64_t lt_rows =
        std::clamp<int64_t>(burst - k * cc.lt_replay_per_batch, 0,
                            cc.lt_replay_per_batch);
    rows.push_back(batch_size + cc.st_capacity + lt_rows);
  }
  std::sort(rows.begin(), rows.end());
  const int64_t n_obs = rows[rows.size() / 2];

  auto head = env.head_factory();
  head->set_needs_input_grad(false);
  std::vector<int64_t> dims = {n_obs};
  for (int64_t d : env.latent_shape.dims()) dims.push_back(d);
  const Tensor x = random_tensor(Shape(dims), rng);
  const int64_t L = head->size();
  std::vector<std::vector<double>> fwd(static_cast<size_t>(L)),
      bwd(static_cast<size_t>(L));
  nn::Sgd opt(head->params(), 0.0f);  // lr 0: timing must not drift weights
  std::vector<double> sgd, whole_fwd, whole_bwd;
  for (int rep = 0; rep < kReps; ++rep) {
    opt.zero_grad();
    Tensor cur = x;
    double tf = 0;
    for (int64_t i = 0; i < L; ++i) {
      const double t0 = now_us();
      cur = head->layer(i).forward(cur, true);
      const double dt = now_us() - t0;
      fwd[static_cast<size_t>(i)].push_back(dt);
      tf += dt;
    }
    Tensor g = random_tensor(cur.shape(), rng);
    double tb = 0;
    for (int64_t i = L - 1; i >= 0; --i) {
      const double t0 = now_us();
      g = head->layer(i).backward(g);
      const double dt = now_us() - t0;
      bwd[static_cast<size_t>(i)].push_back(dt);
      tb += dt;
    }
    const double t0 = now_us();
    opt.step();
    sgd.push_back(now_us() - t0);
    whole_fwd.push_back(tf);
    whole_bwd.push_back(tb);
  }
  for (int64_t i = 0; i < L; ++i) {
    char base[96];
    std::snprintf(base, sizeof base, "nn.head.%02lld_%s",
                  static_cast<long long>(i), head->layer(i).name().c_str());
    out.push_back({std::string(base) + ".fwd_us", median(fwd[static_cast<size_t>(i)])});
    out.push_back({std::string(base) + ".bwd_us", median(bwd[static_cast<size_t>(i)])});
  }
  const double fwd_us = median(whole_fwd), bwd_us = median(whole_bwd);
  out.push_back({"nn.head.observe_fwd_us", fwd_us});
  out.push_back({"nn.head.observe_bwd_us", bwd_us});
  out.push_back({"nn.sgd_step_us", median(sgd)});
  out.push_back({"nn.head.fwd_gflops",
                 2.0 * static_cast<double>(head->macs_per_sample() * n_obs) /
                     (fwd_us * 1e3)});
  out.push_back({"nn.head.bwd_gflops",
                 2.0 * static_cast<double>(head->backward_macs_per_sample() *
                                           n_obs) /
                     (bwd_us * 1e3)});
  {
    std::vector<int64_t> pd = {1};  // a one-image predict
    for (int64_t d : env.latent_shape.dims()) pd.push_back(d);
    const Tensor xp = random_tensor(Shape(pd), rng);
    out.push_back({"nn.head.predict_fwd_us", median_us(kReps, [&] {
                     (void)head->forward(xp, false);
                   })});
  }

  // Backbone: per layer type at batch 1, whole network per image at 1 / 10.
  nn::Sequential& f = exp.backbone();
  std::map<std::string, double> by_type;
  {
    std::vector<data::ImageKey> keys = data::all_test_keys(exp.config().data);
    keys.resize(10);
    const Tensor x10 = data::synthesize_batch(exp.config().data, keys);
    const Tensor x1 = data::synthesize_batch(exp.config().data, {keys[0]});
    std::map<std::string, std::vector<double>> per_rep;
    for (int rep = 0; rep < kReps; ++rep) {
      std::map<std::string, double> acc;
      Tensor cur = x1;
      for (int64_t i = 0; i < f.size(); ++i) {
        const double t0 = now_us();
        cur = f.layer(i).forward(cur, false);
        acc[f.layer(i).name()] += now_us() - t0;
      }
      for (auto& [k, v] : acc) per_rep[k].push_back(v);
    }
    for (auto& [k, v] : per_rep) {
      out.push_back({"nn.backbone." + k + ".fwd_us", median(v)});
    }
    out.push_back({"nn.backbone.ms_per_image_b1",
                   median_us(kReps, [&] { (void)f.forward(x1, false); }) / 1e3});
    out.push_back({"nn.backbone.ms_per_image_b10",
                   median_us(kReps, [&] { (void)f.forward(x10, false); }) /
                       1e4});
  }

  // GEMM at the head's shapes: pointwise convolutions (out_c x batch*pixels
  // x in_c, the batched forward) and the classifier (batch x out x in).
  std::map<std::string, std::array<int64_t, 4>> shapes;  // m n k linear
  for (int64_t i = 0; i < L; ++i) {
    if (auto* c = dynamic_cast<nn::Conv2d*>(&head->layer(i))) {
      const auto& g = c->geometry();
      if (g.kernel != 1) continue;
      const int64_t m = c->out_channels(), n = n_obs * g.out_h() * g.out_w(),
                    k = g.in_c;
      shapes["tensor.gemm." + std::to_string(m) + "x" + std::to_string(n) +
             "x" + std::to_string(k) + ".gflops"] = {m, n, k, 0};
    } else if (auto* l = dynamic_cast<nn::Linear*>(&head->layer(i))) {
      shapes["tensor.gemm." + std::to_string(n_obs) + "x" +
             std::to_string(l->out_dim()) + "x" + std::to_string(l->in_dim()) +
             ".gflops"] = {n_obs, l->out_dim(), l->in_dim(), 1};
    }
  }
  for (const auto& [name, s] : shapes) {
    const auto [m, n, k, linear] = s;
    std::vector<float> a(static_cast<size_t>(m * k)), c(static_cast<size_t>(m * n));
    std::vector<float> b(static_cast<size_t>(k * n));
    for (auto& v : a) v = rng.uniform_f(-1, 1);
    for (auto& v : b) v = rng.uniform_f(-1, 1);
    const double us = median_us(kReps * 2, [&] {
      if (linear) {
        gemm_a_bt(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());
      } else {
        gemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());
      }
    });
    out.push_back({name, 2.0 * static_cast<double>(m * n * k) / (us * 1e3)});
  }
  set_num_threads(prev);
  return out;
}

// ------------------------------------------------------------------- json

// A JSON array of numbers at full precision (util::JsonWriter writes
// objects with four decimals, enough for everything but raw timings).
template <class T, class Get>
std::string json_array(const std::vector<T>& v, Get get) {
  std::string s = "[";
  char b[40];
  for (size_t i = 0; i < v.size(); ++i) {
    std::snprintf(b, sizeof b, "%s%.10g", i ? "," : "",
                  static_cast<double>(get(v[i])));
    s += b;
  }
  return s + "]";
}

std::string json_array(const std::vector<double>& v) {
  return json_array(v, [](double x) { return x; });
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ------------------------------------------------------------------ modes

int self_test(const Options& o) {
  metrics::Experiment exp(experiment_config(o));
  data::DomainIncrementalStream stream(exp.config().data, exp.config().stream);
  exp.warm_latents(stream);
  const auto test_keys = data::all_test_keys(exp.config().data);
  const std::vector<data::ImageKey> page(test_keys.begin(),
                                         test_keys.begin() + 8);
  // Two sessions whose wire results come from learners seeded like the
  // served ones: the oracle must agree with all of them.
  std::vector<std::vector<Op>> ops(2);
  std::vector<uint64_t> seeds;
  for (uint64_t s = 0; s < 2; ++s) {
    seeds.push_back(split_seed(kBaseSeed, s));
    core::ChameleonLearner served(exp.env(), learner_config(), seeds.back());
    for (int64_t i = 0; i < 6; ++i) {
      Op ob;
      ob.batch = stream.batch((i + static_cast<int64_t>(s)) %
                              stream.num_batches());
      served.observe(ob.batch);
      ops[s].push_back(ob);
      Op pr;
      pr.predict = true;
      pr.keys = page;
      pr.wire = served.predict(page);
      ops[s].push_back(pr);
    }
  }
  int failures = 0;
  auto expect = [&failures](bool ok, const char* what) {
    std::printf("selftest %-44s %s\n", what, ok ? "ok" : "FAILED");
    if (!ok) ++failures;
  };
  const OracleResult same = run_oracle(exp.env(), ops, seeds, 2);
  expect(same.checked == 12 && same.matched == 12, "faithful results all match");
  auto flipped = ops;
  flipped[1][3].wire[2] = (flipped[1][3].wire[2] + 1) % 6;
  const OracleResult one = run_oracle(exp.env(), flipped, seeds, 2);
  expect(one.checked == 12 && one.matched == 11, "one altered prediction is caught");
  auto swapped = seeds;
  std::swap(swapped[0], swapped[1]);
  const OracleResult wrong = run_oracle(exp.env(), ops, swapped, 2);
  expect(wrong.matched < wrong.checked, "wrong session seeds are caught");
  return failures == 0 ? 0 : 1;
}

int run(const Options& o) {
  namespace fs = std::filesystem;
  fs::create_directories(o.cache);
  metrics::Experiment exp(experiment_config(o));
  if (o.mode == "prepare") return 0;
  const std::string work = o.work + "/" + std::to_string(getpid());
  fs::remove_all(work);
  fs::create_directories(work);
  const std::string sock = work + "/net.sock";
  const double t_experiment = now_us();
  const Inputs in(o, exp);
  const double t_inputs = now_us();

  std::unique_ptr<Tracer> tracer;
  if (o.trace) {
    tracer = std::make_unique<Tracer>(o.page, !o.open_loop());
  }
  const core::LearnerEnv env = exp.env();
  Tracer* tr = tracer.get();
  serve::LearnerFactory factory =
      [&env, tr](uint64_t sid,
                 uint64_t seed) -> std::unique_ptr<core::ChameleonLearner> {
    if (!tr) {
      return std::make_unique<core::ChameleonLearner>(env, learner_config(),
                                                      seed);
    }
    const double t0 = now_us();
    auto l = std::make_unique<TracingLearner>(env, learner_config(), seed, sid,
                                              *tr);
    tr->note_factory_ms((now_us() - t0) / 1e3);
    return l;
  };

  serve::ServeConfig sc;
  sc.num_shards = o.shards;
  sc.max_resident = kMaxResident;
  sc.queue_capacity = o.queue_capacity;
  sc.mode = serve::ServeMode::kThreaded;
  sc.store_dir = work + "/store";
  sc.base_seed = kBaseSeed;
  auto mgr = std::make_unique<serve::SessionManager>(sc, factory);
  net::NetConfig nc;
  nc.unix_path = sock;
  auto server = std::make_unique<net::NetServer>(*mgr, nc);
  {
    net::NetClient probe({net::Transport::kUnix, sock, 0});
    if (!probe.stats_json().ok()) {
      std::fprintf(stderr, "perfbench_driver: server did not answer\n");
      return 1;
    }
  }
  const double t_ready = now_us();
  std::printf("PERFBENCH_READY %.6f\n", t_ready / 1e6);
  std::fflush(stdout);
  if (o.mode == "setup") {
    server->stop();
    server.reset();
    mgr.reset();
    fs::remove_all(work);
    return 0;
  }

  RunState st;
  st.ids = wire_ids(o.sessions, o.shards);
  st.ops.resize(static_cast<size_t>(o.sessions));
  st.obs_count.assign(static_cast<size_t>(o.sessions), 0);
  st.pred_count.assign(static_cast<size_t>(o.sessions), 0);
  auto keys_in_logs = [&st] {
    int64_t n = 0;
    for (const auto& log : st.ops) {
      for (const Op& op : log) {
        n += static_cast<int64_t>(op.predict ? op.keys.size()
                                             : op.batch.keys.size());
      }
    }
    return n;
  };
  const double t_warm = now_us();
  warm_up(o, in, sock, tr, st);
  // Counters that metrics divide by the timed window's events are taken as
  // differences from here; the others cover the server's whole life.
  const int64_t cache_before = exp.latents().size();
  const int64_t keys_before = keys_in_logs();
  const int64_t evictions_before = mgr->stats().evictions;
  const net::NetStats ns_before = server->stats();
  const core::OpStats agg_before = mgr->aggregate_op_stats();
  const int64_t store_before = mgr->store().bytes_written();
  ThreadSampler threads;
  if (o.trace) threads.start();
  const double cpu0 = cpu_seconds();
  st.t_start = now_us();
  if (o.open_loop()) {
    run_open(o, in, sock, st);
  } else {
    run_closed(o, in, sock, tr, st);
  }
  st.t_end = now_us();
  const double cpu1 = cpu_seconds();
  const double rss = peak_rss_mb();
  threads.finish();
  const int64_t cache_after = exp.latents().size();

  // The store's byte count also covers the end-of-run flush that persists
  // every resident session, as at a shutdown.
  const serve::ServeStats ss = mgr->stats();
  {
    net::NetClient ctl({net::Transport::kUnix, sock, 0});
    (void)ctl.flush();
  }
  const net::NetStats ns = server->stats();
  server->stop();
  const core::OpStats agg = mgr->aggregate_op_stats();
  const int64_t store_bytes = mgr->store().bytes_written();
  std::vector<uint64_t> seeds;
  for (int64_t s = 0; s < o.sessions; ++s) {
    seeds.push_back(mgr->session_seed(st.ids[static_cast<size_t>(s)]));
  }
  server.reset();
  mgr.reset();

  const double t_oracle0 = now_us();
  const OracleResult oracle = run_oracle(env, st.ops, seeds, 4);
  const double oracle_s = (now_us() - t_oracle0) / 1e6;

  const int64_t keys_touched = keys_in_logs() - keys_before;

  util::JsonWriter setup;
  setup.field("experiment_s", t_experiment / 1e6);
  setup.field("inputs_s", (t_inputs - t_experiment) / 1e6);
  setup.field("server_s", (t_ready - t_inputs) / 1e6);
  setup.field("ready_s", t_ready / 1e6);
  setup.field("warm_up_s", (st.t_start - t_warm) / 1e6);
  util::JsonWriter oracle_j;
  oracle_j.field("checked", oracle.checked);
  oracle_j.field("matched", oracle.matched);
  oracle_j.field("replayed_ops", oracle.replayed_ops);
  oracle_j.field("seconds", oracle_s);
  std::string phases = "[";
  for (size_t p = 0; p < st.phase_start.size(); ++p) {
    util::JsonWriter ph;
    ph.field("rate", o.rates[p]);
    ph.field("start_us", st.phase_start[p]);
    ph.field("end_us", st.phase_end[p]);
    if (p > 0) phases += ',';
    phases += ph.str();
  }
  phases += "]";
  // Per-request columns: kind (1 = predict), phase, ok, scheduled / first
  // send / done (us), send time (us), warm-up (1 = before the timed window).
  util::JsonWriter reqs;
  auto column = [&](const char* name, auto get) {
    reqs.raw(name, json_array(st.reqs, get));
  };
  column("predict", [](const Request& r) { return r.predict; });
  column("phase", [](const Request& r) { return r.phase; });
  column("ok", [](const Request& r) { return r.ok; });
  column("t_sched", [](const Request& r) { return r.t_sched; });
  column("t_first", [](const Request& r) { return r.t_first; });
  column("t_done", [](const Request& r) { return r.t_done; });
  column("send_us", [](const Request& r) { return r.send_us; });
  column("warm", [](const Request& r) { return r.warm; });
  util::JsonWriter ops_j;
  ops_j.field("g_fwd_macs", agg.g_fwd_macs - agg_before.g_fwd_macs);
  ops_j.field("g_bwd_macs", agg.g_bwd_macs - agg_before.g_bwd_macs);
  ops_j.field("f_fwd_macs", agg.f_fwd_macs - agg_before.f_fwd_macs);
  // Counts of the timed window alone (serve and net hold lifetime totals).
  util::JsonWriter timed;
  timed.field("evictions", ss.evictions - evictions_before);
  timed.field("net_bytes_in", ns.bytes_in - ns_before.bytes_in);
  timed.field("net_bytes_out", ns.bytes_out - ns_before.bytes_out);

  util::JsonWriter j;
  j.field("workload", o.workload);
  j.field("seed", static_cast<int64_t>(o.seed));
  j.field("seconds", o.seconds);
  j.field("trace", o.trace);
  j.raw("setup", setup.str());
  j.field("t_start_us", st.t_start);
  j.field("t_end_us", st.t_end);
  j.field("cpu_s", cpu1 - cpu0);
  j.field("peak_rss_mb", rss);
  j.field("store_bytes_written", store_bytes - store_before);
  j.field("cache_before", cache_before);
  j.field("cache_after", cache_after);
  j.field("keys_touched", keys_touched);
  j.raw("oracle", oracle_j.str());
  j.raw("phases", phases);
  j.raw("requests", reqs.str());
  j.raw("lag_ms", json_array(st.lag_ms));
  j.raw("serve", ss.to_json());
  j.raw("net", ns.to_json());
  j.raw("op_stats", ops_j.str());
  j.raw("timed", timed.str());

  if (tr) {
    // Link learner spans to request spans by (session, accepted rank).
    std::map<std::pair<uint64_t, int64_t>, size_t> by_seq;
    for (size_t i = 0; i < st.reqs.size(); ++i) {
      if (st.reqs[i].ok) by_seq[{st.reqs[i].sid, st.reqs[i].seq}] = i;
    }
    const std::vector<LearnerSpan> ls = tr->spans();
    std::vector<double> pre_dispatch, overhead, observe_ms, predict_ms;
    int64_t linked = 0, live_requests = 0;
    const size_t R = st.reqs.size();
    std::ofstream spans(o.spans_out.empty() ? o.work + "/spans.jsonl"
                                            : o.spans_out);
    spans << std::fixed << std::setprecision(1);
    // Spans: id, name, start_us, end_us, parent (-1 = root), plus the
    // session, its per-session sequence number and, for a merged predict
    // window, every request it served.
    for (size_t i = 0; i < R; ++i) {
      const Request& r = st.reqs[i];
      spans << "{\"id\":" << i << ",\"name\":\""
            << (r.predict ? "client.predict" : "client.observe")
            << "\",\"start_us\":" << r.t_first << ",\"end_us\":" << r.t_done
            << ",\"parent\":-1,\"sid\":" << r.sid << ",\"seq\":" << r.seq
            << ",\"ok\":" << (r.ok ? 1 : 0) << "}\n";
      spans << "{\"id\":" << R + i << ",\"name\":\"net.send\",\"start_us\":"
            << r.t_last << ",\"end_us\":" << r.t_last + r.send_us
            << ",\"parent\":" << i << "}\n";
    }
    for (size_t k = 0; k < ls.size(); ++k) {
      const LearnerSpan& sp = ls[k];
      std::vector<size_t> links;
      for (int64_t q = 0; q < sp.nreq; ++q) {
        auto it = by_seq.find({sp.sid, sp.seq + q});
        if (it != by_seq.end()) links.push_back(it->second);
      }
      const double dur_ms = (sp.end - sp.start) / 1e3;
      if (!sp.replay) {
        (sp.predict ? predict_ms : observe_ms).push_back(dur_ms);
        live_requests += sp.nreq;
        linked += static_cast<int64_t>(links.size());
        for (size_t idx : links) {
          const Request& r = st.reqs[idx];
          pre_dispatch.push_back((sp.start - r.t_last) / 1e3);
          // The reply path: learner done until the client holds the reply
          // (round trip minus pre-dispatch minus the learner span). Only
          // predicts have one; observes are acknowledged at admission.
          if (r.predict) overhead.push_back((r.t_done - sp.end) / 1e3);
        }
      }
      spans << "{\"id\":" << 2 * R + k << ",\"name\":\""
            << (sp.replay ? (sp.predict ? "core.replay_predict"
                                        : "core.replay_observe")
                          : (sp.predict ? "core.predict_batch"
                                        : "core.observe"))
            << "\",\"start_us\":" << sp.start << ",\"end_us\":" << sp.end
            << ",\"parent\":"
            << (links.empty() ? -1 : static_cast<int64_t>(links.front()))
            << ",\"sid\":" << sp.sid << ",\"seq\":" << sp.seq << ",\"links\":[";
      for (size_t q = 0; q < links.size(); ++q) {
        spans << (q ? "," : "") << links[q];
      }
      spans << "]}\n";
    }
    spans.close();
    const std::vector<Metric> prof =
        profile_layers(exp, env, learner_config(),
                       exp.config().stream.batch_size);
    util::JsonWriter prof_j;
    for (const Metric& m : prof) prof_j.field(m.name, m.value);
    util::JsonWriter tj;
    tj.field("spans", static_cast<int64_t>(2 * R + ls.size()));
    tj.field("linked_requests", linked);
    tj.field("live_learner_requests", live_requests);
    tj.field("replayed_observes", tr->replayed_observes());
    tj.field("threads_max", static_cast<int64_t>(threads.max_threads.load()));
    tj.raw("pre_dispatch_ms", json_array(pre_dispatch));
    tj.raw("net_overhead_ms", json_array(overhead));
    tj.raw("observe_ms", json_array(observe_ms));
    tj.raw("predict_batch_ms", json_array(predict_ms));
    tj.raw("factory_ms", json_array(tr->factory_ms()));
    tj.raw("profile", prof_j.str());
    j.raw("trace", tj.str());
  }
  bool wrote = true;
  if (!o.out.empty()) {
    std::ofstream f(o.out);
    f << j.str() << "\n";
    wrote = static_cast<bool>(f);
  }
  fs::remove_all(work);
  std::printf("PERFBENCH_DONE requests=%zu oracle=%lld/%lld\n", st.reqs.size(),
              static_cast<long long>(oracle.matched),
              static_cast<long long>(oracle.checked));
  return wrote ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse_options(argc, argv, o)) return 2;
  try {
    if (o.mode == "selftest") return self_test(o);
    if (o.mode == "run" || o.mode == "setup" || o.mode == "prepare") {
      return run(o);
    }
    std::fprintf(stderr, "perfbench_driver: unknown mode %s\n", o.mode.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
