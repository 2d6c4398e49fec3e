// Socket front-end (src/net/): wire codec, server robustness, and
// end-to-end fidelity.
//
// The load-bearing property mirrors the serving runtime's own contract one
// layer out: traffic submitted through NetServer over a socket must produce
// BIT-IDENTICAL predictions to the same schedule submitted in-process —
// framing, staging, cross-connection batching and the completion scatter
// may not perturb a single output. Around that sit the robustness tests:
// the server must survive malformed, truncated, oversized and mid-frame
// traffic, answer with typed errors, relay backpressure hints, and drain
// in-flight requests on graceful shutdown in both scheduler modes.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cctype>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/chameleon.h"
#include "metrics/experiment.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "serve/session_manager.h"
#include "serve/session_store.h"
#include "util/check.h"
#include "util/json.h"

namespace cham {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON reader for the round-trip checks: parses one object into
// key -> raw value text (nested objects kept verbatim), and unescapes
// string literals. Strict enough to catch broken emission; nothing more.

bool json_fields(const std::string& s,
                 std::map<std::string, std::string>& out) {
  out.clear();
  std::size_t i = 0;
  auto skip_ws = [&] {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  };
  auto parse_string = [&](std::string& raw) -> bool {
    if (i >= s.size() || s[i] != '"') return false;
    std::size_t start = i++;
    while (i < s.size()) {
      if (s[i] == '\\') {
        i += 2;
        continue;
      }
      if (s[i] == '"') {
        raw = s.substr(start, ++i - start);
        return true;
      }
      ++i;
    }
    return false;
  };
  skip_ws();
  if (i >= s.size() || s[i] != '{') return false;
  ++i;
  skip_ws();
  if (i < s.size() && s[i] == '}') return true;
  for (;;) {
    skip_ws();
    std::string key_raw;
    if (!parse_string(key_raw)) return false;
    std::string key = key_raw.substr(1, key_raw.size() - 2);
    skip_ws();
    if (i >= s.size() || s[i] != ':') return false;
    ++i;
    skip_ws();
    std::size_t vstart = i;
    if (s[i] == '"') {
      std::string v;
      if (!parse_string(v)) return false;
    } else if (s[i] == '{' || s[i] == '[') {
      const char open = s[i];
      const char close = open == '{' ? '}' : ']';
      int depth = 0;
      bool in_str = false;
      for (; i < s.size(); ++i) {
        if (in_str) {
          if (s[i] == '\\') {
            ++i;
          } else if (s[i] == '"') {
            in_str = false;
          }
          continue;
        }
        if (s[i] == '"') in_str = true;
        if (s[i] == open) ++depth;
        if (s[i] == close && --depth == 0) {
          ++i;
          break;
        }
      }
      if (depth != 0) return false;
    } else {
      while (i < s.size() && s[i] != ',' && s[i] != '}') ++i;
    }
    out[key] = s.substr(vstart, i - vstart);
    skip_ws();
    if (i >= s.size()) return false;
    if (s[i] == ',') {
      ++i;
      continue;
    }
    if (s[i] == '}') return true;
    return false;
  }
}

std::string json_unescape(const std::string& quoted) {
  std::string out;
  for (std::size_t i = 1; i + 1 < quoted.size(); ++i) {
    char c = quoted[i];
    if (c != '\\') {
      out += c;
      continue;
    }
    char e = quoted[++i];
    switch (e) {
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'r': out += '\r'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'u': {
        int v = std::stoi(quoted.substr(i + 1, 4), nullptr, 16);
        out += static_cast<char>(v);
        i += 4;
        break;
      }
      default: out += e;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Shared-JSON-helper round trips (no sockets involved).

TEST(NetJson, EscapeRoundTripsControlAndQuoteCharacters) {
  const std::string nasty = "a\"b\\c\nd\te\x01f/g";
  util::JsonWriter j;
  j.field("msg", nasty);
  std::map<std::string, std::string> fields;
  ASSERT_TRUE(json_fields(j.str(), fields)) << j.str();
  ASSERT_TRUE(fields.count("msg"));
  EXPECT_EQ(json_unescape(fields["msg"]), nasty);
}

TEST(NetJson, NetStatsRoundTripsEveryField) {
  net::NetStats st;
  // Distinct values so a swapped emission order cannot pass.
  int64_t v = 3;
  for (int64_t* f :
       {&st.connections_accepted, &st.connections_closed,
        &st.connections_high_water, &st.frames_in, &st.frames_out,
        &st.bytes_in, &st.bytes_out, &st.observes_in, &st.predicts_in,
        &st.predict_batches_in, &st.flushes_in, &st.stats_in,
        &st.shutdowns_in, &st.predict_replies, &st.observe_acks,
        &st.err_backpressure, &st.err_malformed, &st.err_bad_version,
        &st.err_bad_crc, &st.err_oversized, &st.err_dispatch,
        &st.err_shutting_down, &st.err_unknown_type, &st.write_stalls,
        &st.outbox_high_water_bytes}) {
    *f = v;
    v += 7;
  }
  std::map<std::string, std::string> fields;
  ASSERT_TRUE(json_fields(st.to_json(), fields)) << st.to_json();
  EXPECT_EQ(fields.size(), 25u);
  EXPECT_EQ(fields["connections_accepted"], "3");
  EXPECT_EQ(fields["frames_in"], std::to_string(st.frames_in));
  EXPECT_EQ(fields["err_shutting_down"], std::to_string(st.err_shutting_down));
  EXPECT_EQ(fields["outbox_high_water_bytes"],
            std::to_string(st.outbox_high_water_bytes));
}

TEST(NetJson, ServeStatsEmitsParseableObject) {
  serve::ServeStats st;
  st.submitted = 11;
  st.rejections = 2;
  st.retry_hint_ms_sum = 14.0;
  st.retry_hint_ms_max = 9.5;
  st.wb_flushes = 4;
  st.flush_ms_total = 10.0;
  std::map<std::string, std::string> fields;
  ASSERT_TRUE(json_fields(st.to_json(), fields)) << st.to_json();
  EXPECT_EQ(fields["submitted"], "11");
  EXPECT_EQ(fields["retry_hint_ms_avg"], "7.0000");
  EXPECT_EQ(fields["retry_hint_ms_max"], "9.5000");
  EXPECT_EQ(fields["wb_flush_ms_avg"], "2.5000");
  // Spot keys from each section of the emission.
  for (const char* key : {"admissions", "predict_batches", "evictions",
                          "wb_flushes", "flush_ms_max"}) {
    EXPECT_TRUE(fields.count(key)) << key;
  }
  // Retired frame kind: the key stays for existing readers, always 0.
  EXPECT_EQ(fields["wb_chunk_saves"], "0");
}

// ---------------------------------------------------------------------------
// Codec round trips.

data::ImageKey key_of(int c, int d, int inst, bool test) {
  data::ImageKey k;
  k.class_id = c;
  k.domain_id = d;
  k.instance_id = inst;
  k.test = test;
  return k;
}

TEST(NetProtocol, ObserveFrameRoundTrips) {
  data::Batch b;
  b.keys = {key_of(1, 0, 2, false), key_of(4, 1, 0, true)};
  b.labels = {1, 4};
  b.domain = 1;
  net::WireBuf buf;
  net::encode_observe(buf, 77, 123456789, b);
  ASSERT_GE(buf.size(), net::kHeaderBytes);

  net::FrameHeader h;
  ASSERT_TRUE(net::read_header(buf.data(), buf.size(), h));
  EXPECT_EQ(h.magic, net::kWireMagic);
  EXPECT_EQ(h.version, net::kWireVersion);
  EXPECT_EQ(h.type, net::MsgType::kObserve);
  EXPECT_EQ(h.session_id, 77u);
  EXPECT_EQ(h.request_id, 123456789u);
  ASSERT_EQ(buf.size(), net::kHeaderBytes + h.payload_len);
  const uint8_t* payload = buf.data() + net::kHeaderBytes;
  EXPECT_EQ(net::crc32(payload, h.payload_len), h.payload_crc);

  data::Batch out;
  ASSERT_TRUE(net::decode_observe(payload, h.payload_len, out));
  EXPECT_EQ(out.keys, b.keys);
  EXPECT_EQ(out.labels, b.labels);
  EXPECT_EQ(out.domain, b.domain);
}

TEST(NetProtocol, PredictAndResultFramesRoundTrip) {
  const std::vector<data::ImageKey> keys = {key_of(0, 0, 0, true),
                                            key_of(5, 1, 3, true)};
  net::WireBuf buf;
  net::encode_predict(buf, 9, 2, keys);
  net::FrameHeader h;
  ASSERT_TRUE(net::read_header(buf.data(), buf.size(), h));
  std::vector<data::ImageKey> out_keys;
  ASSERT_TRUE(net::decode_predict(buf.data() + net::kHeaderBytes,
                                  h.payload_len, out_keys));
  EXPECT_EQ(out_keys, keys);

  buf.clear();
  const std::vector<int64_t> preds = {3, 1, 4, 1, 5};
  net::encode_predict_result(buf, 9, 2, preds);
  ASSERT_TRUE(net::read_header(buf.data(), buf.size(), h));
  std::vector<int64_t> out_preds;
  ASSERT_TRUE(net::decode_predict_result(buf.data() + net::kHeaderBytes,
                                         h.payload_len, out_preds));
  EXPECT_EQ(out_preds, preds);
}

TEST(NetProtocol, PredictBatchFramesRoundTrip) {
  const std::vector<std::vector<data::ImageKey>> pages = {
      {key_of(0, 0, 0, true)},
      {key_of(1, 1, 1, true), key_of(2, 0, 2, true)},
  };
  net::WireBuf buf;
  net::encode_predict_batch(buf, 4, 8, pages);
  net::FrameHeader h;
  ASSERT_TRUE(net::read_header(buf.data(), buf.size(), h));
  std::vector<std::vector<data::ImageKey>> out;
  ASSERT_TRUE(net::decode_predict_batch(buf.data() + net::kHeaderBytes,
                                        h.payload_len, out));
  EXPECT_EQ(out, pages);

  buf.clear();
  const std::vector<std::vector<int64_t>> results = {{1}, {2, 3}};
  net::encode_predict_batch_result(buf, 4, 8, results);
  ASSERT_TRUE(net::read_header(buf.data(), buf.size(), h));
  std::vector<std::vector<int64_t>> out_res;
  ASSERT_TRUE(net::decode_predict_batch_result(buf.data() + net::kHeaderBytes,
                                               h.payload_len, out_res));
  EXPECT_EQ(out_res, results);
}

TEST(NetProtocol, ErrorFrameCarriesRetryHint) {
  net::WireBuf buf;
  net::encode_error(buf, 1, 2, net::ErrCode::kBackpressure, 250,
                    "queue full");
  net::FrameHeader h;
  ASSERT_TRUE(net::read_header(buf.data(), buf.size(), h));
  EXPECT_EQ(h.type, net::MsgType::kError);
  net::ErrorInfo info;
  ASSERT_TRUE(
      net::decode_error(buf.data() + net::kHeaderBytes, h.payload_len, info));
  EXPECT_EQ(info.code, net::ErrCode::kBackpressure);
  EXPECT_EQ(info.retry_after_ms, 250);
  EXPECT_EQ(info.message, "queue full");
}

TEST(NetProtocol, HeaderValidationClassifiesCorruption) {
  net::FrameHeader h;
  h.payload_len = 16;
  EXPECT_EQ(net::header_error(h, 1024), net::kHeaderOk);
  h.magic = 0xDEADBEEF;
  EXPECT_EQ(net::header_error(h, 1024), net::ErrCode::kMalformed);
  h.magic = net::kWireMagic;
  h.version = 99;
  EXPECT_EQ(net::header_error(h, 1024), net::ErrCode::kBadVersion);
  h.version = net::kWireVersion;
  h.payload_len = 4096;
  EXPECT_EQ(net::header_error(h, 1024), net::ErrCode::kOversized);
}

TEST(NetProtocol, TruncatedPayloadsFailToDecode) {
  data::Batch b;
  b.keys = {key_of(1, 0, 2, false)};
  b.labels = {1};
  b.domain = 0;
  net::WireBuf buf;
  net::encode_observe(buf, 1, 1, b);
  net::FrameHeader h;
  ASSERT_TRUE(net::read_header(buf.data(), buf.size(), h));
  const uint8_t* payload = buf.data() + net::kHeaderBytes;
  data::Batch out;
  for (std::size_t cut = 0; cut < h.payload_len; ++cut) {
    EXPECT_FALSE(net::decode_observe(payload, cut, out)) << "cut=" << cut;
  }
  // Hostile element count: claims more keys than bytes present.
  // Payload layout: domain i64, then key count u32. Inflate the count.
  std::vector<uint8_t> hostile(payload, payload + h.payload_len);
  hostile[8] = 0xFF;
  hostile[9] = 0xFF;
  hostile[10] = 0xFF;
  hostile[11] = 0x7F;
  EXPECT_FALSE(net::decode_observe(hostile.data(), hostile.size(), out));
}

// ---------------------------------------------------------------------------
// Server fixture: same cached experiment as the serve suite.

class NetSuite : public ::testing::Test {
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
  }
  static void TearDownTestSuite() {
    delete exp_;
    exp_ = nullptr;
  }

  static core::ChameleonConfig learner_config() {
    core::ChameleonConfig cc;
    cc.lt_capacity = 18;
    return cc;
  }

  static serve::LearnerFactory factory() {
    return [](uint64_t /*session_id*/, uint64_t seed) {
      return std::make_unique<core::ChameleonLearner>(exp_->env(),
                                                      learner_config(), seed);
    };
  }

  static serve::ServeConfig serve_config(const std::string& tag,
                                         serve::ServeMode mode) {
    serve::ServeConfig sc;
    sc.num_shards = 2;
    sc.max_resident = 4;
    sc.queue_capacity = 16;
    sc.mode = mode;
    sc.store_dir = "/tmp/cham_net_" + tag;
    sc.base_seed = 17;
    serve::SessionStore(sc.store_dir).clear();
    return sc;
  }

  static net::NetConfig net_config(const std::string& tag) {
    net::NetConfig nc;
    nc.transport = net::Transport::kUnix;
    nc.unix_path = "/tmp/cham_net_" + tag + ".sock";
    return nc;
  }

  static net::ClientOptions client_options(const net::NetConfig& nc) {
    net::ClientOptions co;
    co.transport = nc.transport;
    co.unix_path = nc.unix_path;
    co.tcp_port = nc.transport == net::Transport::kTcp ? 0 : 0;
    return co;
  }

  static std::vector<data::Batch> session_batches(int64_t session) {
    data::StreamConfig sc = exp_->config().stream;
    sc.seed = 1000 + static_cast<uint64_t>(session) * 7919;
    data::DomainIncrementalStream stream(exp_->config().data, sc);
    exp_->warm_latents(stream);
    return stream.batches();
  }

  static metrics::Experiment* exp_;
};

metrics::Experiment* NetSuite::exp_ = nullptr;

// Observe+predict traffic over the socket produces bit-identical
// predictions to the same schedule submitted in-process. Exercised with a
// Zipf multi-session schedule and forced evictions — the full serving
// machinery behind the wire.
TEST_F(NetSuite, UnixSocketMatchesInProcessSubmission) {
  data::MultiUserConfig mu;
  mu.num_sessions = 4;
  mu.events = 36;
  mu.predict_fraction = 0.4;
  mu.seed = 21;
  const auto schedule = data::make_zipf_schedule(mu);
  const auto test_keys = data::all_test_keys(exp_->config().data);
  std::vector<std::vector<data::Batch>> streams;
  for (int64_t s = 0; s < mu.num_sessions; ++s) {
    streams.push_back(session_batches(s));
  }

  // In-process reference: submit-retry-drain, futures collected in order.
  std::vector<std::vector<int64_t>> want;
  {
    serve::ServeConfig sc =
        serve_config("ref", serve::ServeMode::kDeterministic);
    sc.max_resident = 2;  // force evictions under 4 sessions
    serve::SessionManager mgr(sc, factory());
    std::vector<std::future<std::vector<int64_t>>> futures;
    for (const auto& ev : schedule) {
      const uint64_t sid = static_cast<uint64_t>(ev.session);
      if (ev.predict) {
        std::future<std::vector<int64_t>> f;
        while (!mgr.submit_predict(sid, test_keys, &f).accepted) mgr.drain();
        futures.push_back(std::move(f));
      } else {
        const auto& b =
            streams[static_cast<size_t>(ev.session)]
                   [static_cast<size_t>(ev.batch_index) %
                    streams[static_cast<size_t>(ev.session)].size()];
        while (!mgr.submit_observe(sid, b).accepted) mgr.drain();
      }
    }
    mgr.drain();
    for (auto& f : futures) want.push_back(f.get());
  }

  // Same schedule over the wire.
  std::vector<std::vector<int64_t>> got;
  serve::ServeConfig sc = serve_config("wire", serve::ServeMode::kDeterministic);
  sc.max_resident = 2;
  serve::SessionManager mgr(sc, factory());
  net::NetConfig nc = net_config("wire");
  net::NetServer server(mgr, nc);
  {
    net::NetClient client(client_options(nc));
    for (const auto& ev : schedule) {
      const uint64_t sid = static_cast<uint64_t>(ev.session);
      if (ev.predict) {
        net::Reply r = client.predict_admitted(sid, test_keys);
        ASSERT_TRUE(r.ok()) << net::err_code_name(r.error.code);
        got.push_back(std::move(r.preds));
      } else {
        const auto& b =
            streams[static_cast<size_t>(ev.session)]
                   [static_cast<size_t>(ev.batch_index) %
                    streams[static_cast<size_t>(ev.session)].size()];
        net::Reply r = client.observe_admitted(sid, b);
        ASSERT_TRUE(r.ok()) << net::err_code_name(r.error.code);
      }
    }
  }
  server.stop();

  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "predict " << i << " diverged over the wire";
  }
  const net::NetStats ns = server.stats();
  EXPECT_EQ(ns.connections_accepted, 1);
  EXPECT_GT(ns.frames_in, 0);
  EXPECT_EQ(ns.err_malformed, 0);
}

// PREDICT_BATCH pages submit as pipelined predicts (BatchPlanner fodder)
// and the paged reply matches per-page in-process results.
TEST_F(NetSuite, PredictBatchMatchesPerPageResults) {
  serve::ServeConfig sc = serve_config("pb", serve::ServeMode::kDeterministic);
  serve::SessionManager mgr(sc, factory());
  const auto batches = session_batches(0);
  const auto test_keys = data::all_test_keys(exp_->config().data);
  const std::vector<std::vector<data::ImageKey>> pages = {
      test_keys,
      {test_keys.begin(), test_keys.begin() + 3},
      {test_keys.begin() + 1, test_keys.begin() + 5},
  };

  net::NetConfig nc = net_config("pb");
  net::NetServer server(mgr, nc);
  net::NetClient client(client_options(nc));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.observe_admitted(5, batches[static_cast<size_t>(i)])
                    .ok());
  }
  net::Reply r = client.predict_batch_admitted(5, pages);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.pages.size(), pages.size());

  core::ChameleonLearner isolated(exp_->env(), learner_config(),
                                  mgr.session_seed(5));
  for (int i = 0; i < 3; ++i) {
    isolated.observe(batches[static_cast<size_t>(i)]);
  }
  for (std::size_t p = 0; p < pages.size(); ++p) {
    EXPECT_EQ(r.pages[p], isolated.predict(pages[p])) << "page " << p;
  }
}

// Admission rejections surface as typed BACKPRESSURE errors whose
// retry_after_ms carries the manager's EWMA hint, and the retry loop
// eventually lands every observe — final state identical to isolation.
TEST_F(NetSuite, BackpressurePropagatesRetryHintOverWire) {
  serve::ServeConfig sc = serve_config("bp", serve::ServeMode::kDeterministic);
  sc.queue_capacity = 1;  // rejects under any pipelining
  serve::SessionManager mgr(sc, factory());
  net::NetConfig nc = net_config("bp");
  net::NetServer server(mgr, nc);
  net::NetClient client(client_options(nc));

  const auto batches = session_batches(2);
  constexpr int kObserves = 12;
  // Pipeline the sends: the I/O thread submits far faster than the pump
  // dispatches, so with capacity 1 most of these reject.
  std::vector<uint64_t> ids;
  for (int i = 0; i < kObserves; ++i) {
    ids.push_back(
        client.send_observe(3, batches[static_cast<size_t>(i) %
                                       batches.size()]));
  }
  int rejected = 0;
  std::vector<int> retry;  // indices that must be resubmitted, in order
  for (int i = 0; i < kObserves; ++i) {
    net::Reply r = client.await_reply(ids[static_cast<size_t>(i)]);
    if (r.ok()) continue;
    ASSERT_TRUE(r.backpressured()) << net::err_code_name(r.error.code);
    EXPECT_GE(r.error.retry_after_ms, mgr.config().retry_hint_ms);
    ++rejected;
    retry.push_back(i);
  }
  EXPECT_GT(rejected, 0) << "queue_capacity=1 never rejected a pipelined burst";
  for (int i : retry) {
    ASSERT_TRUE(client
                    .observe_admitted(
                        3, batches[static_cast<size_t>(i) % batches.size()])
                    .ok());
  }
  net::Reply pr = client.predict_admitted(3, data::all_test_keys(
                                                 exp_->config().data));
  ASSERT_TRUE(pr.ok());

  const net::NetStats ns = server.stats();
  // The retry loop's resubmissions can reject again, so >=, not ==.
  EXPECT_GE(ns.err_backpressure, rejected);
  const serve::ServeStats ss = mgr.stats();
  EXPECT_GE(ss.rejections, rejected);
}

// A wrong-magic frame gets a typed MALFORMED reply, then the connection
// closes (the stream cannot be re-synchronised). The server survives and
// keeps serving new connections. The junk deliberately overflows one 64 KiB
// read chunk: the server used to keep reading after marking the connection
// for close, re-parse the same bad header per chunk, and emit a duplicate
// ERROR frame each time — exactly one reply and one err_malformed count
// must come out however much garbage follows.
TEST_F(NetSuite, BadMagicRepliesTypedErrorOnceThenCloses) {
  serve::ServeConfig sc = serve_config("mag", serve::ServeMode::kDeterministic);
  serve::SessionManager mgr(sc, factory());
  net::NetConfig nc = net_config("mag");
  net::NetServer server(mgr, nc);

  net::NetClient bad(client_options(nc));
  // > one chunk, but well under the default AF_UNIX buffers so the blocking
  // send completes even though the server stops reading after the header.
  std::vector<uint8_t> junk((96 << 10) + 8, 0xAB);
  bad.send_raw(junk.data(), junk.size());
  net::Reply r = bad.await_reply(0xABABABABABABABABull);  // echoed garbage id
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error.code, net::ErrCode::kMalformed);
  // Connection is closed after the reply: the next await must fail — on
  // EOF, not on a duplicate ERROR frame for the same garbage header.
  EXPECT_THROW(bad.await_reply(1), util::CheckError);

  net::NetClient good(client_options(nc));
  EXPECT_TRUE(good.observe_admitted(1, session_batches(1)[0]).ok());
  EXPECT_EQ(server.stats().err_malformed, 1);
  EXPECT_EQ(server.stats().frames_out, server.stats().observe_acks + 1);
}

TEST_F(NetSuite, BadVersionRepliesTypedError) {
  serve::ServeConfig sc = serve_config("ver", serve::ServeMode::kDeterministic);
  serve::SessionManager mgr(sc, factory());
  net::NetConfig nc = net_config("ver");
  net::NetServer server(mgr, nc);

  net::NetClient c(client_options(nc));
  net::WireBuf frame;
  net::encode_control(frame, net::MsgType::kStats, 0, 42);
  frame[4] = 0x63;  // version := 99
  c.send_raw(frame.data(), frame.size());
  net::Reply r = c.await_reply(42);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error.code, net::ErrCode::kBadVersion);
  EXPECT_EQ(server.stats().err_bad_version, 1);
}

// A well-framed request with a type the server does not speak gets a typed
// UNKNOWN_TYPE error (counted as err_unknown_type, NOT err_malformed — the
// wire code and the stats category must agree) and the connection survives.
TEST_F(NetSuite, UnknownRequestTypeRepliesTypedErrorAndSurvives) {
  serve::ServeConfig sc = serve_config("unk", serve::ServeMode::kDeterministic);
  serve::SessionManager mgr(sc, factory());
  net::NetConfig nc = net_config("unk");
  net::NetServer server(mgr, nc);

  net::NetClient c(client_options(nc));
  net::WireBuf frame;
  net::encode_control(frame, net::MsgType::kStats, 0, 11);
  frame[6] = 0x55;  // type := 0x0055, not a message the protocol defines
  frame[7] = 0x00;
  c.send_raw(frame.data(), frame.size());
  net::Reply r = c.await_reply(11);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error.code, net::ErrCode::kUnknownType);

  EXPECT_TRUE(c.observe_admitted(1, session_batches(1)[0]).ok());
  EXPECT_EQ(server.stats().err_unknown_type, 1);
  EXPECT_EQ(server.stats().err_malformed, 0);
}

// A corrupted payload CRC is rejected per-frame; framing stays intact and
// the SAME connection keeps working.
TEST_F(NetSuite, BadCrcRejectsFrameButConnectionSurvives) {
  serve::ServeConfig sc = serve_config("crc", serve::ServeMode::kDeterministic);
  serve::SessionManager mgr(sc, factory());
  net::NetConfig nc = net_config("crc");
  net::NetServer server(mgr, nc);

  net::NetClient c(client_options(nc));
  const auto test_keys = data::all_test_keys(exp_->config().data);
  net::WireBuf frame;
  net::encode_predict(frame, 1, 7, test_keys);
  frame[net::kHeaderBytes] ^= 0xFF;  // corrupt payload, CRC now mismatches
  c.send_raw(frame.data(), frame.size());
  net::Reply r = c.await_reply(7);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error.code, net::ErrCode::kBadCrc);

  EXPECT_TRUE(c.observe_admitted(1, session_batches(1)[0]).ok());
  EXPECT_TRUE(c.predict_admitted(1, test_keys).ok());
  EXPECT_EQ(server.stats().err_bad_crc, 1);
}

// Oversized payload_len: typed OVERSIZED reply, payload discarded from the
// stream without buffering, connection survives.
TEST_F(NetSuite, OversizedPayloadRejectedAndSkipped) {
  serve::ServeConfig sc = serve_config("big", serve::ServeMode::kDeterministic);
  serve::SessionManager mgr(sc, factory());
  net::NetConfig nc = net_config("big");
  nc.max_payload_bytes = 1024;
  net::NetServer server(mgr, nc);

  net::NetClient c(client_options(nc));
  // Hand-build a header announcing 4 KiB, then stream the junk payload.
  net::WireBuf frame;
  net::encode_control(frame, net::MsgType::kPredict, 1, 99);
  frame[24] = 0x00;
  frame[25] = 0x10;  // payload_len := 4096
  c.send_raw(frame.data(), frame.size());
  std::vector<uint8_t> junk(4096, 0x5A);
  c.send_raw(junk.data(), junk.size());
  net::Reply r = c.await_reply(99);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error.code, net::ErrCode::kOversized);

  // The junk was consumed as payload, not parsed as frames.
  EXPECT_TRUE(c.observe_admitted(1, session_batches(1)[0]).ok());
  EXPECT_EQ(server.stats().err_oversized, 1);
  EXPECT_EQ(server.stats().err_malformed, 0);
}

// The client applies the same payload bound in reverse: a reply header
// announcing a ~4 GiB payload_len (corrupt or hostile server) is a protocol
// violation, rejected BEFORE any buffer is sized to it.
TEST_F(NetSuite, ClientRejectsOversizedReplyHeaderBeforeAllocating) {
  const std::string path = "/tmp/cham_net_clientcap.sock";
  ::unlink(path.c_str());
  const int lfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(lfd, 1), 0);

  // Fake server: accept, send one well-formed header whose payload_len
  // field is maxed out, hang up.
  std::thread fake_server([lfd] {
    const int cfd = ::accept(lfd, nullptr, nullptr);
    if (cfd < 0) return;
    net::WireBuf frame;
    net::encode_control(frame, net::MsgType::kFlushOk, 0, 1);
    frame[24] = frame[25] = frame[26] = frame[27] = 0xFF;  // payload_len
    [[maybe_unused]] ssize_t n = ::write(cfd, frame.data(), net::kHeaderBytes);
    ::close(cfd);
  });

  net::ClientOptions co;
  co.unix_path = path;
  net::NetClient c(co);
  EXPECT_EQ(c.send_control(net::MsgType::kFlush), 1u);
  EXPECT_THROW(c.await_reply(1), util::CheckError);
  fake_server.join();
  ::close(lfd);
  ::unlink(path.c_str());
}

// Frames split at every possible byte boundary (worst-case short reads)
// still parse; a client that disconnects mid-frame doesn't hurt anyone.
TEST_F(NetSuite, SplitWritesAndTruncatedDisconnectSurvive) {
  serve::ServeConfig sc = serve_config("split",
                                       serve::ServeMode::kDeterministic);
  serve::SessionManager mgr(sc, factory());
  net::NetConfig nc = net_config("split");
  nc.sndbuf_bytes = 2048;  // force short server-side writes too
  net::NetServer server(mgr, nc);

  const auto test_keys = data::all_test_keys(exp_->config().data);
  net::NetClient c(client_options(nc));
  ASSERT_TRUE(c.observe_admitted(4, session_batches(4)[0]).ok());

  // Dribble a predict frame a few bytes at a time.
  net::WireBuf frame;
  net::encode_predict(frame, 4, 55, test_keys);
  for (std::size_t off = 0; off < frame.size(); off += 5) {
    c.send_raw(frame.data() + off, std::min<std::size_t>(5, frame.size() - off));
  }
  net::Reply r = c.await_reply(55);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.preds.size(), test_keys.size());

  // Large paged reply through the shrunken send buffer: partial-write
  // path. Page count stays below queue_capacity (a PREDICT_BATCH with more
  // pages than the shard queue holds can never fully admit); each page is
  // inflated instead so the reply dwarfs SO_SNDBUF.
  std::vector<data::ImageKey> fat_page;
  for (int rep = 0; rep < 60; ++rep) {
    fat_page.insert(fat_page.end(), test_keys.begin(), test_keys.end());
  }
  std::vector<std::vector<data::ImageKey>> pages(8, fat_page);
  net::Reply big = c.predict_batch_admitted(4, pages);
  ASSERT_TRUE(big.ok());
  ASSERT_EQ(big.pages.size(), pages.size());
  for (const auto& page : big.pages) EXPECT_EQ(page, big.pages[0]);

  // Truncated header then slam the connection shut.
  {
    net::NetClient t(client_options(nc));
    uint8_t half[7] = {0x43, 0x48, 0x41, 0x4D, 0, 0, 0};
    t.send_raw(half, sizeof(half));
  }
  // Server is unbothered.
  EXPECT_TRUE(c.predict_admitted(4, test_keys).ok());
}

// Disconnecting with predicts in flight: the responder consumes the
// orphaned futures and the server keeps serving.
TEST_F(NetSuite, ClientDisconnectWithRequestsInFlight) {
  serve::ServeConfig sc = serve_config("dis", serve::ServeMode::kDeterministic);
  serve::SessionManager mgr(sc, factory());
  net::NetConfig nc = net_config("dis");
  net::NetServer server(mgr, nc);
  const auto test_keys = data::all_test_keys(exp_->config().data);

  {
    net::NetClient c(client_options(nc));
    ASSERT_TRUE(c.observe_admitted(6, session_batches(6)[0]).ok());
    for (int i = 0; i < 8; ++i) c.send_predict(6, test_keys);
    // Destructor closes the socket with all eight replies outstanding.
  }

  net::NetClient c2(client_options(nc));
  net::Reply r = c2.predict_admitted(6, test_keys);
  ASSERT_TRUE(r.ok());
  // Both connections eventually retire.
  for (int spin = 0; spin < 200 && server.stats().connections_closed < 1;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(server.stats().connections_closed, 1);
}

// STATS over the wire: one JSON object embedding ServeStats and NetStats,
// both produced by the shared JsonWriter — parse it and cross-check
// counters against what this test actually did.
TEST_F(NetSuite, StatsFrameReturnsParseableCombinedJson) {
  serve::ServeConfig sc = serve_config("st", serve::ServeMode::kDeterministic);
  serve::SessionManager mgr(sc, factory());
  net::NetConfig nc = net_config("st");
  net::NetServer server(mgr, nc);
  net::NetClient c(client_options(nc));

  ASSERT_TRUE(c.observe_admitted(1, session_batches(1)[0]).ok());
  ASSERT_TRUE(c.observe_admitted(1, session_batches(1)[1]).ok());
  ASSERT_TRUE(
      c.predict_admitted(1, data::all_test_keys(exp_->config().data)).ok());
  // The predict's reply is set before its stats counter increments; wait
  // for the counter so the STATS snapshot below is deterministic.
  for (int spin = 0; spin < 1000 && mgr.stats().predicts < 1; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  net::Reply r = c.stats_json();
  ASSERT_EQ(r.type, net::MsgType::kStatsResult);

  std::map<std::string, std::string> top;
  ASSERT_TRUE(json_fields(r.json, top)) << r.json;
  ASSERT_TRUE(top.count("serve"));
  ASSERT_TRUE(top.count("net"));
  std::map<std::string, std::string> serve_f, net_f;
  ASSERT_TRUE(json_fields(top["serve"], serve_f));
  ASSERT_TRUE(json_fields(top["net"], net_f));
  EXPECT_EQ(serve_f["observes"], "2");
  EXPECT_EQ(serve_f["predicts"], "1");
  EXPECT_EQ(net_f["observes_in"], "2");
  EXPECT_EQ(net_f["predicts_in"], "1");
  EXPECT_EQ(net_f["connections_accepted"], "1");
}

// TCP behind the same abstraction: ephemeral port, same traffic, same
// results.
TEST_F(NetSuite, TcpTransportServesIdentically) {
  serve::ServeConfig sc = serve_config("tcp", serve::ServeMode::kDeterministic);
  serve::SessionManager mgr(sc, factory());
  net::NetConfig nc;
  nc.transport = net::Transport::kTcp;
  nc.tcp_port = 0;
  net::NetServer server(mgr, nc);
  ASSERT_GT(server.port(), 0);

  net::ClientOptions co;
  co.transport = net::Transport::kTcp;
  co.tcp_port = server.port();
  net::NetClient c(co);
  const auto batches = session_batches(7);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(c.observe_admitted(7, batches[static_cast<size_t>(i)]).ok());
  }
  const auto test_keys = data::all_test_keys(exp_->config().data);
  net::Reply r = c.predict_admitted(7, test_keys);
  ASSERT_TRUE(r.ok());

  core::ChameleonLearner isolated(exp_->env(), learner_config(),
                                  mgr.session_seed(7));
  for (int i = 0; i < 2; ++i) {
    isolated.observe(batches[static_cast<size_t>(i)]);
  }
  EXPECT_EQ(r.preds, isolated.predict(test_keys));
}

// Graceful shutdown drains in-flight requests before closing sockets:
// every pipelined predict sent BEFORE the SHUTDOWN frame still gets its
// real reply. Exercised in both scheduler modes.
class NetShutdownSuite : public NetSuite,
                         public ::testing::WithParamInterface<serve::ServeMode> {
};

TEST_P(NetShutdownSuite, GracefulShutdownDrainsInFlightRequests) {
  const serve::ServeMode mode = GetParam();
  const std::string tag =
      mode == serve::ServeMode::kDeterministic ? "gsd" : "gst";
  serve::ServeConfig sc = serve_config(tag, mode);
  serve::SessionManager mgr(sc, factory());
  net::NetConfig nc = net_config(tag);
  net::NetServer server(mgr, nc);
  const auto test_keys = data::all_test_keys(exp_->config().data);
  const auto batches = session_batches(8);

  net::NetClient c(client_options(nc));
  ASSERT_TRUE(c.observe_admitted(8, batches[0]).ok());
  std::vector<uint64_t> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(c.send_predict(8, test_keys));
  const uint64_t shutdown_id = c.send_control(net::MsgType::kShutdown);

  // The ack may overtake the predict replies; every pre-shutdown predict
  // must still complete with real results.
  net::Reply ack = c.await_reply(shutdown_id);
  EXPECT_EQ(ack.type, net::MsgType::kShutdownOk);
  std::vector<int64_t> first;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    net::Reply r = c.await_reply(ids[i]);
    ASSERT_TRUE(r.ok()) << "in-flight predict " << i
                        << " dropped during shutdown: "
                        << net::err_code_name(r.error.code);
    if (i == 0) {
      first = r.preds;
    } else {
      EXPECT_EQ(r.preds, first);
    }
  }

  // The server exits its I/O loop on its own (no stop() needed for the
  // remote-initiated path)...
  for (int spin = 0; spin < 1000 && server.running(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_FALSE(server.running());
  // ...and stop() remains a safe no-op afterwards.
  server.stop();
  EXPECT_EQ(server.stats().shutdowns_in, 1);
}

INSTANTIATE_TEST_SUITE_P(Modes, NetShutdownSuite,
                         ::testing::Values(serve::ServeMode::kDeterministic,
                                           serve::ServeMode::kThreaded));

}  // namespace
}  // namespace cham
