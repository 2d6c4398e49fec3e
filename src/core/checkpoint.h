// Full learner-state checkpointing for on-device deployment and serving.
//
// A power-cycled edge device must resume continual learning without losing
// what its replay stores protect, and the multi-session serving runtime
// (src/serve/) evicts cold sessions to disk and restores them on the next
// request. Both paths need the SAME property: a restored learner continues
// the stream bit-identically to one that was never interrupted. A checkpoint
// therefore carries everything that influences future behaviour: the head
// parameters (the backbone is a fixed artifact of the firmware image), the
// short-term and long-term store contents, the preference statistics
// including mid-window counters, the staged LT replay burst and its cursor,
// the RNG state, the step counter and the traffic ledger.
//
// Two wire formats live here:
//
//   CHS2 v4 (full blob)   The complete state, as ChameleonLearner::
//                         save_state / load_state. Latent payloads carry a
//                         precision tag that is always fp32 (the readers
//                         reject any other), so a blob round-trips
//                         bit-exactly.
//   CHS3 (op-log delta)   The observe/predict requests the session served
//                         since a previously flushed full blob. Restore
//                         replays them through the learner; the repo-wide
//                         bit-determinism contract makes the result
//                         byte-identical to the state that was evicted, and
//                         the frame's hash of that state verifies it. The
//                         frame also carries the hash of its base blob, so
//                         a mismatched or stale delta is detected, never
//                         silently applied.
//
// The serialisation itself lives on the learner (core/chameleon.h); the
// file helpers below wrap it for the single-device reboot use case. The
// serving runtime's SessionStore/WriteBehind use the in-memory forms.
#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "core/chameleon.h"
#include "data/stream.h"
#include "tensor/workspace.h"

namespace cham::core {

// Checkpoint bytes live in pool-backed buffers: eviction snapshots are the
// same size every cycle, so after warm-up the serving runtime's snapshot
// path never touches the heap (the pool freelist recycles the blob class).
using ByteBuf = std::vector<char, ws::PoolAllocator<char>>;

// std::ostream writing into a growing ByteBuf (for serialising a learner to
// memory instead of a file).
class ByteBufWriter : private std::streambuf, public std::ostream {
 public:
  explicit ByteBufWriter(ByteBuf& out) : std::ostream(this), out_(out) {}

 protected:
  std::streambuf::int_type overflow(std::streambuf::int_type ch) override {
    if (ch != std::streambuf::traits_type::eof()) {
      out_.push_back(static_cast<char>(ch));
    }
    return ch;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    out_.insert(out_.end(), s, s + n);
    return n;
  }

 private:
  ByteBuf& out_;
};

// std::istream reading a borrowed byte span (no copy; the span must outlive
// the reader).
class ByteBufReader : private std::streambuf, public std::istream {
 public:
  ByteBufReader(const char* data, std::size_t n) : std::istream(this) {
    // std::streambuf wants mutable pointers; we only ever read.
    char* p = const_cast<char*>(data);
    setg(p, p, p + n);
  }
};

// Saves the complete learner state to one file. Returns false on I/O error.
bool save_checkpoint(const ChameleonLearner& learner,
                     const std::string& path);

// Restores into a learner constructed with the SAME configuration and
// environment. Returns false on mismatch or I/O error (learner untouched
// on magic/version mismatch, best-effort on payload mismatch).
bool load_checkpoint(ChameleonLearner& learner, const std::string& path);

// --------------------------------------------------------- CHS3 deltas

enum class DeltaKind : uint8_t {
  // Retired frame kind (dirty-chunk diffs). Its header still parses, so a
  // stale one left on disk reads as stale; nothing applies its body.
  kRetired = 0,
  kOpLog = 1,  // serve requests to replay on top of base
};

struct DeltaHeader {
  DeltaKind kind = DeltaKind::kOpLog;
  uint64_t base_hash = 0;  // FNV-1a of the full base blob
  uint64_t base_len = 0;
  uint64_t next_hash = 0;  // FNV-1a of the full blob this delta reconstructs
  uint64_t next_len = 0;
};

// FNV-1a 64 over a byte range (the hash used by the delta frames).
uint64_t blob_hash(const char* data, std::size_t n);

// True if the bytes start with the CHS3 delta magic (vs a full CHS2 blob).
bool is_delta_blob(const char* data, std::size_t n);

// Reads the frame header; false on malformed input.
bool read_delta_header(const char* data, std::size_t n, DeltaHeader& out);

// kOpLog: frames the serve requests executed between the base blob and the
// state described by (next_hash, next_len). Replay + verification is the
// caller's job (the SessionManager owns learners; see read_op_log).
ByteBuf encode_op_log(const DeltaHeader& header,
                      const std::vector<data::ServeOp>& ops);

// Extracts the replay ops from a kOpLog frame. False on malformed input.
bool read_op_log(const char* delta, std::size_t delta_n,
                 std::vector<data::ServeOp>& out);

}  // namespace cham::core
