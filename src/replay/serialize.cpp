#include "replay/serialize.h"

#include <fstream>
#include <vector>

#include "quant/quantize.h"

namespace cham::replay {
namespace {

constexpr uint32_t kMagic = 0x43524250;  // "CRBP"
constexpr uint32_t kVersion = 1;
// Version 2 was a precision-tagged buffer framing (retired, never read).
// Slab-backed slot-store framing (save_slot_store_q / load_slot_store_q):
// one shared row shape, keys/labels table, a precision tag, then the fp32
// latent payload as a single range.
constexpr uint32_t kVersionSlab = 3;
// Latent payloads inside learner blobs are always fp32; the tag byte is
// kept so existing blobs (and the op-log hashes over them) are unchanged.
constexpr auto kFp32Tag = static_cast<uint8_t>(quant::Precision::kFp32);

template <typename T>
void write_pod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
bool read_pod(std::istream& is, T& v) {
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  return is.good();
}

// Tagged framing (the *_q functions, used inside learner blobs) prefixes
// every tensor payload with the precision byte; otherwise the framing is
// the same.
void write_tensor(std::ostream& os, const Tensor& t, bool tagged) {
  if (tagged) write_pod(os, kFp32Tag);
  const uint32_t rank = static_cast<uint32_t>(t.rank());
  write_pod(os, rank);
  for (int64_t d = 0; d < t.rank(); ++d) {
    write_pod(os, static_cast<int64_t>(t.dim(d)));
  }
  os.write(reinterpret_cast<const char*>(t.data()),
           static_cast<std::streamsize>(t.numel() * sizeof(float)));
}

bool read_tensor(std::istream& is, Tensor& t, bool tagged) {
  uint8_t precision = kFp32Tag;
  if (tagged && (!read_pod(is, precision) || precision != kFp32Tag)) {
    return false;
  }
  uint32_t rank = 0;
  if (!read_pod(is, rank) || rank > 8) return false;
  std::vector<int64_t> dims(rank);
  int64_t numel = 1;
  for (auto& d : dims) {
    if (!read_pod(is, d) || d < 0 || d > (int64_t{1} << 32)) return false;
    numel *= d;
  }
  if (numel < 0 || numel > (int64_t{1} << 32)) return false;
  t = Tensor(Shape(std::move(dims)));
  is.read(reinterpret_cast<char*>(t.data()),
          static_cast<std::streamsize>(numel * sizeof(float)));
  return is.good();
}

bool write_sample(const ReplaySample& sample, std::ostream& os, bool tagged) {
  write_pod(os, sample.key.class_id);
  write_pod(os, sample.key.domain_id);
  write_pod(os, sample.key.instance_id);
  write_pod(os, static_cast<uint8_t>(sample.key.test));
  write_pod(os, sample.label);
  // Note: a default Tensor has rank-0 shape with numel() == 1 (empty
  // product) but no storage — empty() is the authoritative check.
  const uint8_t has_latent = !sample.latent.empty();
  const uint8_t has_logits = !sample.logits.empty();
  write_pod(os, has_latent);
  write_pod(os, has_logits);
  if (has_latent) write_tensor(os, sample.latent, tagged);
  if (has_logits) write_tensor(os, sample.logits, tagged);
  return os.good();
}

bool read_sample(ReplaySample& sample, std::istream& is, bool tagged) {
  uint8_t test = 0, has_latent = 0, has_logits = 0;
  if (!read_pod(is, sample.key.class_id)) return false;
  if (!read_pod(is, sample.key.domain_id)) return false;
  if (!read_pod(is, sample.key.instance_id)) return false;
  if (!read_pod(is, test)) return false;
  sample.key.test = test != 0;
  if (!read_pod(is, sample.label)) return false;
  if (!read_pod(is, has_latent)) return false;
  if (!read_pod(is, has_logits)) return false;
  if (has_latent && !read_tensor(is, sample.latent, tagged)) return false;
  if (has_logits && !read_tensor(is, sample.logits, tagged)) return false;
  return true;
}

bool write_samples(const std::vector<ReplaySample>& samples,
                   std::ostream& os, bool tagged) {
  write_pod(os, static_cast<int64_t>(samples.size()));
  for (const auto& s : samples) {
    if (!write_sample(s, os, tagged)) return false;
  }
  return os.good();
}

bool read_samples(std::vector<ReplaySample>& samples, std::istream& is,
                  bool tagged) {
  int64_t count = 0;
  if (!read_pod(is, count) || count < 0 || count > (int64_t{1} << 32)) {
    return false;
  }
  samples.clear();
  samples.resize(static_cast<size_t>(count));
  for (auto& s : samples) {
    if (!read_sample(s, is, tagged)) return false;
  }
  return true;
}

}  // namespace

bool save_sample(const ReplaySample& sample, std::ostream& os) {
  return write_sample(sample, os, /*tagged=*/false);
}

bool load_sample(ReplaySample& sample, std::istream& is) {
  return read_sample(sample, is, /*tagged=*/false);
}

bool save_samples(const std::vector<ReplaySample>& samples, std::ostream& os) {
  return write_samples(samples, os, /*tagged=*/false);
}

bool load_samples(std::vector<ReplaySample>& samples, std::istream& is) {
  return read_samples(samples, is, /*tagged=*/false);
}

bool save_samples_q(const std::vector<ReplaySample>& samples,
                    std::ostream& os) {
  return write_samples(samples, os, /*tagged=*/true);
}

bool load_samples_q(std::vector<ReplaySample>& samples, std::istream& is) {
  return read_samples(samples, is, /*tagged=*/true);
}

bool save_buffer(const ReplayBuffer& buffer, std::ostream& os) {
  write_pod(os, kMagic);
  write_pod(os, kVersion);
  write_pod(os, static_cast<int64_t>(buffer.capacity()));
  write_pod(os, static_cast<int64_t>(buffer.seen()));
  write_pod(os, static_cast<int64_t>(buffer.size()));
  for (int64_t i = 0; i < buffer.size(); ++i) {
    if (!save_sample(buffer.item(i), os)) return false;
  }
  return os.good();
}

bool load_buffer(ReplayBuffer& buffer, std::istream& is) {
  uint32_t magic = 0, version = 0;
  int64_t capacity = 0, seen = 0, count = 0;
  if (!read_pod(is, magic) || magic != kMagic) return false;
  if (!read_pod(is, version) || version != kVersion) return false;
  if (!read_pod(is, capacity) || capacity <= 0) return false;
  if (!read_pod(is, seen) || seen < 0) return false;
  if (!read_pod(is, count) || count < 0 || count > capacity) return false;

  ReplayBuffer loaded(capacity);
  Rng fill_rng(0);  // buffer below capacity: appends, rng unused
  for (int64_t i = 0; i < count; ++i) {
    ReplaySample s;
    if (!load_sample(s, is)) return false;
    loaded.random_replace_add(std::move(s), fill_rng);
  }
  // Restore the reservoir counter so future insertion probabilities are
  // correct: replay the seen count.
  buffer = std::move(loaded);
  buffer.set_seen(seen);
  return true;
}

bool save_slot_store_q(const SlotStore& store, std::ostream& os) {
  write_pod(os, kMagic);
  write_pod(os, kVersionSlab);
  write_pod(os, static_cast<int64_t>(store.capacity()));
  write_pod(os, static_cast<int64_t>(store.seen()));
  write_pod(os, static_cast<int64_t>(store.size()));
  const uint32_t rank =
      store.configured() ? static_cast<uint32_t>(store.row_shape().rank()) : 0;
  write_pod(os, rank);
  for (uint32_t d = 0; d < rank; ++d) {
    write_pod(os, static_cast<int64_t>(store.row_shape()[d]));
  }
  for (int64_t i = 0; i < store.size(); ++i) {
    const auto& k = store.key(i);
    write_pod(os, k.class_id);
    write_pod(os, k.domain_id);
    write_pod(os, k.instance_id);
    write_pod(os, static_cast<uint8_t>(k.test));
    write_pod(os, static_cast<int64_t>(store.label(i)));
  }
  write_pod(os, kFp32Tag);
  if (store.size() == 0) return os.good();
  // The whole occupied range in one write — the slab is contiguous.
  os.write(reinterpret_cast<const char*>(store.rows()),
           static_cast<std::streamsize>(store.size() * store.row_numel() *
                                        sizeof(float)));
  return os.good();
}

bool load_slot_store_q(SlotStore& store, std::istream& is) {
  uint32_t magic = 0, version = 0, rank = 0;
  int64_t capacity = 0, seen = 0, count = 0;
  if (!read_pod(is, magic) || magic != kMagic) return false;
  if (!read_pod(is, version) || version != kVersionSlab) return false;
  if (!read_pod(is, capacity) || capacity <= 0) return false;
  if (!read_pod(is, seen) || seen < 0) return false;
  if (!read_pod(is, count) || count < 0 || count > capacity) return false;
  if (!read_pod(is, rank) || rank > 8) return false;
  if (count > 0 && rank == 0) return false;
  std::vector<int64_t> dims(rank);
  int64_t row_numel = 1;
  for (auto& d : dims) {
    if (!read_pod(is, d) || d <= 0 || d > (int64_t{1} << 32)) return false;
    row_numel *= d;
  }
  if (row_numel > (int64_t{1} << 32)) return false;

  SlotStore loaded(capacity);
  struct KeyRow {
    data::ImageKey key;
    int64_t label;
  };
  std::vector<KeyRow> table(static_cast<size_t>(count));
  for (auto& r : table) {
    uint8_t test = 0;
    if (!read_pod(is, r.key.class_id)) return false;
    if (!read_pod(is, r.key.domain_id)) return false;
    if (!read_pod(is, r.key.instance_id)) return false;
    if (!read_pod(is, test)) return false;
    r.key.test = test != 0;
    if (!read_pod(is, r.label) || r.label < 0) return false;
  }
  uint8_t precision = 0;
  if (!read_pod(is, precision) || precision != kFp32Tag) return false;
  if (count > 0) {
    Tensor row_scratch(Shape{std::span<const int64_t>(dims)});
    Rng fill_rng(0);  // store below capacity: appends, rng unused
    for (int64_t i = 0; i < count; ++i) {
      is.read(reinterpret_cast<char*>(row_scratch.data()),
              static_cast<std::streamsize>(row_numel * sizeof(float)));
      if (!is.good()) return false;
      const auto& r = table[static_cast<size_t>(i)];
      loaded.random_replace_add(r.key, r.label, row_scratch, fill_rng);
    }
  }
  store = std::move(loaded);
  store.set_seen(seen);
  return true;
}

bool save_buffer_file(const ReplayBuffer& buffer, const std::string& path) {
  std::ofstream f(path, std::ios::binary);
  return f && save_buffer(buffer, f);
}

bool load_buffer_file(ReplayBuffer& buffer, const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return f && load_buffer(buffer, f);
}

}  // namespace cham::replay
