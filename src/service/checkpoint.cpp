#include "service/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "rl/replay.hpp"
#include "rl/replay_rdper.hpp"

namespace deepcat::service {

namespace {

constexpr char kMagic[4] = {'D', 'C', 'K', 'P'};

// FourCC tags, encoded as the little-endian u32 of the ASCII bytes.
constexpr std::uint32_t fourcc(const char (&tag)[5]) noexcept {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(tag[0])) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(tag[1])) << 8) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(tag[2]))
          << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(tag[3]))
          << 24);
}

constexpr std::uint32_t kTagMeta = fourcc("META");
constexpr std::uint32_t kTagNets = fourcc("NETS");
constexpr std::uint32_t kTagAdam = fourcc("ADAM");
constexpr std::uint32_t kTagReplay = fourcc("RPLY");
constexpr std::uint32_t kTagRng = fourcc("RNGS");
constexpr std::uint32_t kTagRetrievalIndex = fourcc("RIDX");
constexpr std::uint32_t kTagEnd = fourcc("END ");

std::string tag_name(std::uint32_t tag) {
  std::string s(4, ' ');
  for (int i = 0; i < 4; ++i) {
    const auto c = static_cast<unsigned char>((tag >> (8 * i)) & 0xFFu);
    // A corrupt tag can hold arbitrary bytes; keep error messages printable.
    s[static_cast<std::size_t>(i)] =
        (c >= 0x20 && c < 0x7F) ? static_cast<char>(c) : '?';
  }
  while (!s.empty() && s.back() == ' ') s.pop_back();
  return s;
}

/// Reads exactly `len` payload bytes in bounded chunks. A corrupt section
/// length can claim an absurd payload size, so the allocation grows with
/// the bytes actually present in the stream instead of trusting the header
/// — a truncated or hostile stream dies with a typed error, never an
/// attacker-sized allocation.
std::string read_payload(std::istream& is, std::uint64_t len,
                         std::uint32_t tag) {
  constexpr std::uint64_t kChunk = 64 * 1024;
  std::string payload;
  while (payload.size() < len) {
    const auto want = static_cast<std::size_t>(
        std::min(kChunk, len - payload.size()));
    const std::size_t old = payload.size();
    payload.resize(old + want);
    is.read(payload.data() + old, static_cast<std::streamsize>(want));
    if (static_cast<std::size_t>(is.gcount()) != want) {
      throw CheckpointError("truncated checkpoint while reading section '" +
                            tag_name(tag) + "'");
    }
  }
  return payload;
}

// Replay kinds stored in META/RPLY.
constexpr std::uint8_t kReplayUniform = 0;
constexpr std::uint8_t kReplayRdper = 1;

/// Slicing-by-8 tables for the reflected CRC-32 (polynomial 0xEDB88320):
/// t[0] is the classic bytewise table, and t[k][i] is the CRC of byte i
/// followed by k zero bytes, so eight table lookups fold eight input bytes.
struct Crc32Tables {
  std::uint32_t t[8][256];
  constexpr Crc32Tables() : t{} {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
      }
    }
  }
};

constexpr Crc32Tables kCrcTables{};

std::uint32_t load_le32(const unsigned char* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

/// The running CRC-32 register `crc` (not yet inverted) after `data`.
std::uint32_t crc32_extend(std::uint32_t crc, const unsigned char* data,
                           std::size_t size) noexcept {
  const auto& t = kCrcTables.t;
  for (; size >= 8; data += 8, size -= 8) {
    const std::uint32_t lo = load_le32(data) ^ crc;
    const std::uint32_t hi = load_le32(data + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++data, --size) {
    crc = t[0][(crc ^ *data) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

/// Writes the low `bytes` bytes of `v`, little-endian.
void write_le(std::ostream& os, std::uint64_t v, int bytes) {
  char b[8];
  for (int i = 0; i < bytes; ++i) {
    b[i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
  }
  os.write(b, bytes);
}

// ---- byte-level codec ---------------------------------------------------

/// Collects one section's payload. A writer built on a stream instead sends
/// the section straight to it, holding about one tensor at a time: the
/// header (`tag`, `len`) at once, the payload as floats() fills it, and the
/// CRC at finish(), which checks that exactly `len` bytes came.
class ByteWriter {
 public:
  ByteWriter() = default;
  ByteWriter(std::ostream& os, std::uint32_t tag, std::uint64_t len)
      : os_(&os), len_(len) {
    write_le(os, tag, 4);
    write_le(os, len, 8);
  }

  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
    }
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
    }
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void f32(float v) { u32(std::bit_cast<std::uint32_t>(v)); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.append(s);
  }
  void doubles(const double* data, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) f64(data[i]);
  }
  void floats(const float* data, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) f32(data[i]);
    if (os_ != nullptr) flush();
  }
  void double_vec(const std::vector<double>& v) {
    u32(static_cast<std::uint32_t>(v.size()));
    doubles(v.data(), v.size());
  }

  [[nodiscard]] const std::string& bytes() const noexcept { return buf_; }

  void finish() {
    flush();
    if (sent_ != len_) throw std::logic_error("checkpoint: section size");
    write_le(*os_, crc_ ^ 0xFFFFFFFFu, 4);
  }

 private:
  void flush() {
    crc_ = crc32_extend(
        crc_, reinterpret_cast<const unsigned char*>(buf_.data()), buf_.size());
    os_->write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
    sent_ += buf_.size();
    buf_.clear();
  }

  std::string buf_;
  std::ostream* os_ = nullptr;
  std::uint64_t len_ = 0, sent_ = 0;
  std::uint32_t crc_ = 0xFFFFFFFFu;
};

/// Bounds-checked reader over one section payload. Every overrun throws a
/// CheckpointError naming the section, so a truncated or corrupt payload
/// can never walk off the buffer.
class ByteReader {
 public:
  ByteReader(const std::string& payload, std::string section)
      : data_(payload), section_(std::move(section)) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(byte()); }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(byte()) << (8 * i);
    }
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(byte()) << (8 * i);
    }
    return v;
  }
  double f64() { return std::bit_cast<double>(u64()); }
  float f32() { return std::bit_cast<float>(u32()); }
  std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s = data_.substr(off_, n);
    off_ += n;
    return s;
  }
  void doubles(double* out, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) out[i] = f64();
  }
  void floats(float* out, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) out[i] = f32();
  }
  std::vector<double> double_vec() {
    const std::uint32_t n = u32();
    need(static_cast<std::size_t>(n) * 8);
    std::vector<double> v(n);
    doubles(v.data(), v.size());
    return v;
  }
  /// A rows x cols float tensor. Its shape is untrusted: nothing is
  /// allocated unless the rest of the payload holds rows * cols floats.
  nn::Tensor tensor(std::uint32_t rows, std::uint32_t cols) {
    const std::uint64_t n = std::uint64_t{rows} * cols;
    if (n > (data_.size() - off_) / sizeof(float)) truncated();
    nn::Tensor t(rows, cols);
    floats(t.data(), t.size());
    return t;
  }
  /// Throws unless `got`, read from the payload, is `want`: the `what` (a
  /// name or a count) that the format puts here.
  void expect(const std::string& got, const std::string& want,
              const char* what) const {
    if (got != want) {
      throw CheckpointError("section '" + section_ + "': " + what + " '" +
                            got + "' where the format has '" + want + "'");
    }
  }

  void expect_exhausted() const {
    if (off_ != data_.size()) {
      throw CheckpointError("trailing bytes in checkpoint section '" +
                            section_ + "'");
    }
  }

 private:
  unsigned char byte() {
    need(1);
    return static_cast<unsigned char>(data_[off_++]);
  }
  void need(std::size_t n) const {
    if (off_ + n > data_.size()) truncated();
  }
  [[noreturn]] void truncated() const {
    throw CheckpointError("truncated payload in checkpoint section '" +
                          section_ + "'");
  }

  const std::string& data_;
  std::string section_;
  std::size_t off_ = 0;
};

// ---- section encoders ---------------------------------------------------

void write_section(std::ostream& os, std::uint32_t tag,
                   const std::string& payload) {
  write_le(os, tag, 4);
  write_le(os, payload.size(), 8);
  os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  write_le(os,
           crc32(reinterpret_cast<const unsigned char*>(payload.data()),
                 payload.size()),
           4);
}

void write_transition(ByteWriter& w, const rl::Transition& t) {
  w.double_vec(t.state);
  w.double_vec(t.action);
  w.f64(t.reward);
  w.double_vec(t.next_state);
  w.u8(t.done ? 1 : 0);
}

rl::Transition read_transition(ByteReader& r) {
  rl::Transition t;
  t.state = r.double_vec();
  t.action = r.double_vec();
  t.reward = r.f64();
  t.next_state = r.double_vec();
  t.done = r.u8() != 0;
  return t;
}

std::string encode_meta(core::DeepCat& model) {
  ByteWriter w;
  const rl::Td3Config& td3 = model.tuner().agent().config();
  w.u32(static_cast<std::uint32_t>(td3.state_dim));
  w.u32(static_cast<std::uint32_t>(td3.action_dim));
  w.u8(model.tuner().options().use_rdper ? kReplayRdper : kReplayUniform);
  w.u64(model.next_env_seed());
  return w.bytes();
}

/// The bytes a count and then, per tensor, its shape and `per_float` bytes
/// per element take: NETS writes 4 per parameter, ADAM 8 per moment pair.
/// The streamed sections' lengths come from here, before their bytes.
std::size_t tensors_bytes(const std::vector<nn::Tensor>& tensors,
                          std::size_t per_float) {
  std::size_t n = 4;
  for (const nn::Tensor& t : tensors) n += 8 + per_float * t.size();
  return n;
}

void write_nets(std::ostream& os, const rl::AgentSnapshot& s,
                const rl::AgentLayout& layout) {
  std::size_t len = 4;
  for (std::size_t i = 0; i < s.networks.size(); ++i) {
    len += 4 + std::strlen(layout.networks[i].name) +
           tensors_bytes(s.networks[i], 4);
  }
  ByteWriter w(os, kTagNets, len);
  w.u32(static_cast<std::uint32_t>(s.networks.size()));
  for (std::size_t i = 0; i < s.networks.size(); ++i) {
    w.str(layout.networks[i].name);
    w.u32(static_cast<std::uint32_t>(s.networks[i].size()));
    for (const nn::Tensor& t : s.networks[i]) {
      w.u32(static_cast<std::uint32_t>(t.rows()));
      w.u32(static_cast<std::uint32_t>(t.cols()));
      w.floats(t.data(), t.size());
    }
  }
  w.finish();
}

void write_adam(std::ostream& os, const rl::AgentSnapshot& s,
                const rl::AgentLayout& layout) {
  std::size_t len = 4 + 8;
  for (std::size_t i = 0; i < s.optimizers.size(); ++i) {
    len += 4 + std::strlen(layout.optimizers[i].name) + 8 +
           tensors_bytes(s.optimizers[i].first_moments, 8);
  }
  ByteWriter w(os, kTagAdam, len);
  w.u32(static_cast<std::uint32_t>(s.optimizers.size()));
  for (std::size_t i = 0; i < s.optimizers.size(); ++i) {
    const rl::AgentSnapshot::OptimizerState& opt = s.optimizers[i];
    w.str(layout.optimizers[i].name);
    w.u64(static_cast<std::uint64_t>(opt.step_count));
    const auto& m = opt.first_moments;
    const auto& v = opt.second_moments;
    w.u32(static_cast<std::uint32_t>(m.size()));
    for (std::size_t k = 0; k < m.size(); ++k) {
      w.u32(static_cast<std::uint32_t>(m[k].rows()));
      w.u32(static_cast<std::uint32_t>(m[k].cols()));
      w.floats(m[k].data(), m[k].size());
      w.floats(v[k].data(), v[k].size());
    }
  }
  w.u64(static_cast<std::uint64_t>(s.train_steps));
  w.finish();
}

/// Reads NETS and ADAM into one snapshot of an agent with `layout`. The
/// names and counts are the format's; every tensor's shape comes from the
/// file, and only layout.check, last, compares them with the agent's.
rl::AgentSnapshot decode_agent(const std::string& nets,
                               const std::string& adam,
                               const rl::AgentLayout& layout) {
  rl::AgentSnapshot s;
  s.state_dim = layout.state_dim;
  s.action_dim = layout.action_dim;
  ByteReader r(nets, "NETS");
  r.expect(std::to_string(r.u32()), std::to_string(layout.networks.size()),
           "network count");
  for (const rl::AgentLayout::Network& net : layout.networks) {
    r.expect(r.str(), net.name, "network");
    std::vector<nn::Tensor>& tensors = s.networks.emplace_back();
    const std::uint32_t count = r.u32();
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint32_t rows = r.u32();
      tensors.push_back(r.tensor(rows, r.u32()));
    }
  }
  r.expect_exhausted();

  ByteReader a(adam, "ADAM");
  a.expect(std::to_string(a.u32()), std::to_string(layout.optimizers.size()),
           "optimizer count");
  for (const rl::AgentLayout::Optimizer& opt : layout.optimizers) {
    a.expect(a.str(), opt.name, "optimizer");
    rl::AgentSnapshot::OptimizerState& state = s.optimizers.emplace_back();
    state.step_count = static_cast<std::size_t>(a.u64());
    const std::uint32_t count = a.u32();
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint32_t rows = a.u32();
      const std::uint32_t cols = a.u32();
      state.first_moments.push_back(a.tensor(rows, cols));
      state.second_moments.push_back(a.tensor(rows, cols));
    }
  }
  s.train_steps = static_cast<std::size_t>(a.u64());
  a.expect_exhausted();

  try {
    layout.check(s);
  } catch (const rl::AgentLayoutError& e) {
    throw CheckpointError(std::string("sections 'NETS' and 'ADAM': ") +
                          e.what());
  }
  return s;
}

std::string encode_replay(core::DeepCat& model) {
  ByteWriter w;
  rl::ReplayBuffer* replay = model.tuner().replay();
  if (auto* rdper = dynamic_cast<rl::RdperReplay*>(replay)) {
    w.u8(kReplayRdper);
    w.f64(rdper->config().reward_threshold);
    w.f64(rdper->config().beta);
    w.u64(static_cast<std::uint64_t>(rdper->capacity() / 2));
    const auto pools = {std::pair{rdper->high_pool(), rdper->high_cursor()},
                        std::pair{rdper->low_pool(), rdper->low_cursor()}};
    for (const auto& [pool, cursor] : pools) {
      w.u64(static_cast<std::uint64_t>(cursor));
      w.u64(static_cast<std::uint64_t>(pool.size()));
      for (const auto& t : pool) write_transition(w, t);
    }
  } else if (auto* uniform = dynamic_cast<rl::UniformReplay*>(replay)) {
    w.u8(kReplayUniform);
    w.u64(static_cast<std::uint64_t>(uniform->capacity()));
    w.u64(static_cast<std::uint64_t>(uniform->cursor()));
    w.u64(static_cast<std::uint64_t>(uniform->storage().size()));
    for (const auto& t : uniform->storage()) write_transition(w, t);
  } else {
    throw CheckpointError("section 'RPLY': unsupported replay buffer type");
  }
  return w.bytes();
}

/// The replay buffer an RPLY section must fit: the model's own, or the one
/// materialize() will build from its options when it has none yet.
struct ReplayFit {
  std::uint8_t kind = kReplayUniform;
  rl::RdperConfig rdper;     ///< RDPER only
  std::size_t capacity = 0;  ///< per pool (RDPER) or of the one ring
};

ReplayFit replay_fit(tuners::DeepCatTuner& tuner) {
  const tuners::DeepCatOptions& o = tuner.options();
  if (!tuner.has_agent()) {
    return o.use_rdper
               ? ReplayFit{kReplayRdper, o.rdper, o.replay_capacity_per_pool}
               : ReplayFit{kReplayUniform, {}, 2 * o.replay_capacity_per_pool};
  }
  if (auto* rdper = dynamic_cast<rl::RdperReplay*>(tuner.replay())) {
    return {kReplayRdper, rdper->config(), rdper->capacity() / 2};
  }
  if (auto* uniform = dynamic_cast<rl::UniformReplay*>(tuner.replay())) {
    return {kReplayUniform, {}, uniform->capacity()};
  }
  throw CheckpointError("section 'RPLY': unsupported replay buffer type");
}

/// A decoded RPLY section: the RDPER pools (high, low) or the uniform ring
/// (rings[0]), each with its cursor, checked to fit the replay buffer.
struct ReplayContents {
  std::uint8_t kind = kReplayUniform;
  std::vector<rl::Transition> rings[2];
  std::size_t cursors[2] = {0, 0};
};

/// Reads one ring: its cursor and transitions, refused unless both fit
/// `capacity`.
void read_ring(ByteReader& r, std::size_t payload_size, std::size_t capacity,
               std::vector<rl::Transition>& ring, std::size_t& cursor) {
  const std::uint64_t at = r.u64();
  const std::uint64_t n = r.u64();
  if (at >= capacity || n > capacity) {
    throw CheckpointError("section 'RPLY': cursor " + std::to_string(at) +
                          " or size " + std::to_string(n) +
                          " does not fit a ring of " +
                          std::to_string(capacity));
  }
  cursor = static_cast<std::size_t>(at);
  // A spliced stream can pair this decoder with another section's CRC-valid
  // payload, so `n` is untrusted: cap the reservation by the payload size
  // (each transition needs > 1 byte) and let the bounds-checked reads raise
  // the typed error.
  ring.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(n, payload_size)));
  for (std::uint64_t i = 0; i < n; ++i) ring.push_back(read_transition(r));
}

ReplayContents decode_replay(const std::string& payload, const ReplayFit& fit) {
  ByteReader r(payload, "RPLY");
  ReplayContents out;
  out.kind = r.u8();
  if (out.kind != fit.kind) {
    throw CheckpointError("section 'RPLY': replay kind " +
                          std::to_string(out.kind) +
                          " does not fit the model's buffer (kind " +
                          std::to_string(fit.kind) + ")");
  }
  // RDPER: R_th, beta, the per-pool capacity, then the high and low pools.
  // Uniform: the capacity, then its one ring.
  const bool rdper = out.kind == kReplayRdper;
  if (rdper && (r.f64() != fit.rdper.reward_threshold ||
                r.f64() != fit.rdper.beta)) {
    throw CheckpointError("section 'RPLY': RDPER config mismatch");
  }
  if (r.u64() != static_cast<std::uint64_t>(fit.capacity)) {
    throw CheckpointError("section 'RPLY': capacity mismatch");
  }
  for (std::size_t ring = 0; ring < (rdper ? 2u : 1u); ++ring) {
    read_ring(r, payload.size(), fit.capacity, out.rings[ring],
              out.cursors[ring]);
  }
  r.expect_exhausted();
  return out;
}

std::string encode_rng(core::DeepCat& model) {
  ByteWriter w;
  const common::RngState st = model.tuner().rng().state();
  for (const std::uint64_t lane : st.s) w.u64(lane);
  w.f64(st.spare);
  w.u8(st.has_spare ? 1 : 0);
  return w.bytes();
}

common::RngState decode_rng(const std::string& payload) {
  ByteReader r(payload, "RNGS");
  common::RngState st;
  for (std::uint64_t& lane : st.s) lane = r.u64();
  st.spare = r.f64();
  st.has_spare = r.u8() != 0;
  r.expect_exhausted();
  return st;
}

std::string encode_retrieval_index(const retrieval::ExperienceIndex& index) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(retrieval::kEmbeddingDim));
  w.u32(static_cast<std::uint32_t>(sparksim::kNumKnobs));
  w.u64(static_cast<std::uint64_t>(index.size()));
  for (const auto& e : index.entries()) {
    w.str(e.workload);
    w.u64(e.seed);
    w.f64(e.best_cost);
    w.f64(e.default_cost);
    w.doubles(e.best_action.data(), e.best_action.size());
    w.doubles(e.embedding.data(), e.embedding.size());
  }
  return w.bytes();
}

retrieval::ExperienceIndex decode_retrieval_index(const std::string& payload) {
  ByteReader r(payload, "RIDX");
  const std::uint32_t dim = r.u32();
  const std::uint32_t knobs = r.u32();
  if (dim != retrieval::kEmbeddingDim || knobs != sparksim::kNumKnobs) {
    throw CheckpointError(
        "section 'RIDX': embedding layout mismatch (stored " +
        std::to_string(dim) + "/" + std::to_string(knobs) +
        ", this build expects " + std::to_string(retrieval::kEmbeddingDim) +
        "/" + std::to_string(sparksim::kNumKnobs) + ")");
  }
  const std::uint64_t n = r.u64();
  retrieval::ExperienceIndex index;
  // `n` is untrusted (spliced streams can pair this decoder with another
  // section's CRC-valid payload); the bounds-checked reads throw before any
  // attacker-sized allocation can happen.
  for (std::uint64_t i = 0; i < n; ++i) {
    retrieval::ExperienceEntry e;
    e.workload = r.str();
    e.seed = r.u64();
    e.best_cost = r.f64();
    e.default_cost = r.f64();
    r.doubles(e.best_action.data(), e.best_action.size());
    r.doubles(e.embedding.data(), e.embedding.size());
    index.add(std::move(e));
  }
  r.expect_exhausted();
  return index;
}

// ---- container walk -----------------------------------------------------

struct Section {
  std::uint32_t tag = 0;
  std::string payload;
};

struct Container {
  std::uint32_t version = 0;
  std::vector<Section> sections;
};

Container read_sections(std::istream& is) {
  char magic[4];
  is.read(magic, sizeof magic);
  if (!is || std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    throw CheckpointError("not a DeepCAT checkpoint (bad magic)");
  }
  char vbuf[4];
  is.read(vbuf, sizeof vbuf);
  if (!is) throw CheckpointError("truncated checkpoint header");
  std::uint32_t version = 0;
  for (int i = 0; i < 4; ++i) {
    version |= static_cast<std::uint32_t>(static_cast<unsigned char>(vbuf[i]))
               << (8 * i);
  }
  if (version > kCheckpointVersion) {
    throw CheckpointError("checkpoint format version " +
                          std::to_string(version) +
                          " is newer than the supported version " +
                          std::to_string(kCheckpointVersion));
  }

  Container container{version, {}};
  std::vector<Section>& sections = container.sections;
  for (;;) {
    char head[12];
    is.read(head, sizeof head);
    if (!is) {
      throw CheckpointError(
          "truncated checkpoint: end-of-file before 'END ' marker");
    }
    std::uint32_t tag = 0;
    for (int i = 0; i < 4; ++i) {
      tag |= static_cast<std::uint32_t>(static_cast<unsigned char>(head[i]))
             << (8 * i);
    }
    std::uint64_t len = 0;
    for (int i = 0; i < 8; ++i) {
      len |=
          static_cast<std::uint64_t>(static_cast<unsigned char>(head[4 + i]))
          << (8 * i);
    }
    std::string payload = read_payload(is, len, tag);
    char cbuf[4];
    is.read(cbuf, sizeof cbuf);
    if (!is) {
      throw CheckpointError("truncated checkpoint while reading section '" +
                            tag_name(tag) + "'");
    }
    std::uint32_t stored_crc = 0;
    for (int i = 0; i < 4; ++i) {
      stored_crc |=
          static_cast<std::uint32_t>(static_cast<unsigned char>(cbuf[i]))
          << (8 * i);
    }
    const std::uint32_t actual =
        crc32(reinterpret_cast<const unsigned char*>(payload.data()),
              payload.size());
    if (stored_crc != actual) {
      throw CheckpointError("checksum mismatch in checkpoint section '" +
                            tag_name(tag) + "'");
    }
    if (tag == kTagEnd) break;
    sections.push_back({tag, std::move(payload)});
  }
  return container;
}

const std::string& require_section(const std::vector<Section>& sections,
                                   std::uint32_t tag) {
  for (const auto& s : sections) {
    if (s.tag == tag) return s.payload;
  }
  throw CheckpointError("checkpoint missing required section '" +
                        tag_name(tag) +
                        "' (written by an incompatible or older version?)");
}

}  // namespace

std::uint32_t crc32(const unsigned char* data, std::size_t size) noexcept {
  return crc32_extend(0xFFFFFFFFu, data, size) ^ 0xFFFFFFFFu;
}

namespace {

/// Publishes `bytes` at `path` so that a crash cannot leave it empty or
/// torn: writes `<path>.tmp`, fsyncs it, renames it over `path`, then
/// fsyncs the directory so the rename itself is on disk. On any failure the
/// tmp file is removed and a CheckpointError names the step, the path and
/// the OS error.
void write_file_durably(const std::string& path, const std::string& bytes,
                        const char* who) {
  const std::string tmp = path + ".tmp";
  int fd = -1;
  const auto fail = [&](const char* step) {
    const int err = errno;
    if (fd >= 0) ::close(fd);
    ::unlink(tmp.c_str());
    throw CheckpointError(std::string(who) + ": " + step + " failed for '" +
                          path + "': " + std::strerror(err));
  };
  fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) fail("open");
  for (std::size_t done = 0; done < bytes.size();) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) fail("write");
    done += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) fail("fsync");
  const int closed = ::close(fd);
  fd = -1;
  if (closed != 0) fail("close");
  if (::rename(tmp.c_str(), path.c_str()) != 0) fail("rename");
  const std::string dir = std::filesystem::path(path).parent_path().string();
  fd = ::open(dir.empty() ? "." : dir.c_str(),
              O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0 || ::fsync(fd) != 0) fail("directory fsync");
  ::close(fd);
}

void write_container_header(std::ostream& os) {
  os.write(kMagic, sizeof kMagic);
  write_le(os, kCheckpointVersion, 4);
}

}  // namespace

void save_checkpoint(std::ostream& os, core::DeepCat& model) {
  if (!model.tuner().has_agent()) {
    throw CheckpointError(
        "save_checkpoint: model has no trained agent (call train_offline or "
        "materialize first)");
  }
  write_container_header(os);

  write_section(os, kTagMeta, encode_meta(model));
  {
    const rl::Td3Agent& agent = model.tuner().agent();
    const rl::AgentSnapshot state = agent.snapshot();
    const rl::AgentLayout layout = rl::Td3Agent::layout(agent.config());
    write_nets(os, state, layout);
    write_adam(os, state, layout);
  }
  write_section(os, kTagReplay, encode_replay(model));
  write_section(os, kTagRng, encode_rng(model));
  write_section(os, kTagEnd, "");
  if (!os) throw CheckpointError("save_checkpoint: stream write failed");
}

void load_checkpoint(std::istream& is, core::DeepCat& model) {
  const Container container = read_sections(is);
  const std::vector<Section>& sections = container.sections;
  tuners::DeepCatTuner& tuner = model.tuner();

  // Every section is decoded and checked before anything touches the model,
  // so a refused file changes nothing.
  ByteReader meta(require_section(sections, kTagMeta), "META");
  const auto state_dim = static_cast<std::size_t>(meta.u32());
  const auto action_dim = static_cast<std::size_t>(meta.u32());
  const std::uint8_t replay_kind = meta.u8();
  const std::uint64_t next_seed = meta.u64();
  meta.expect_exhausted();
  const bool want_rdper = tuner.options().use_rdper;
  if ((replay_kind == kReplayRdper) != want_rdper) {
    throw CheckpointError(
        "section 'META': replay kind mismatch (checkpoint " +
        std::string(replay_kind == kReplayRdper ? "RDPER" : "uniform") +
        ", model configured for " +
        std::string(want_rdper ? "RDPER" : "uniform") + ")");
  }
  rl::Td3Config config = tuner.options().td3;
  if (tuner.has_agent() && (config.state_dim != state_dim ||
                            config.action_dim != action_dim)) {
    throw CheckpointError("section 'META': dims " + std::to_string(state_dim) +
                          "x" + std::to_string(action_dim) +
                          " differ from the model's agent");
  }
  config.state_dim = state_dim;
  config.action_dim = action_dim;
  // NETS and ADAM hold f32 tensors from version 3 on. An older file's f64
  // tensors are refused, not narrowed: its master trained in double.
  if (container.version < 3) {
    throw CheckpointError(
        "sections 'NETS' and 'ADAM': checkpoint format version " +
        std::to_string(container.version) +
        " stores f64 network tensors; this build reads the f32 tensors of "
        "version 3 and later (republish the model with this build)");
  }
  rl::AgentSnapshot agent = decode_agent(require_section(sections, kTagNets),
                                         require_section(sections, kTagAdam),
                                         rl::Td3Agent::layout(config));
  ReplayContents replay = decode_replay(require_section(sections, kTagReplay),
                                        replay_fit(tuner));
  const common::RngState rng = decode_rng(require_section(sections, kTagRng));

  // Apply. A model without an agent builds it from the snapshot.
  if (tuner.has_agent()) {
    tuner.agent().restore(std::move(agent));
  } else {
    tuner.materialize(std::move(agent));
  }
  model.set_next_env_seed(next_seed);
  if (replay.kind == kReplayRdper) {
    dynamic_cast<rl::RdperReplay&>(*tuner.replay())
        .restore_pools(std::move(replay.rings[0]), replay.cursors[0],
                       std::move(replay.rings[1]), replay.cursors[1]);
  } else {
    dynamic_cast<rl::UniformReplay&>(*tuner.replay())
        .restore_storage(std::move(replay.rings[0]), replay.cursors[0]);
  }
  tuner.rng().restore(rng);
}

std::string checkpoint_to_string(core::DeepCat& model) {
  std::ostringstream os(std::ios::binary);
  save_checkpoint(os, model);
  return std::move(os).str();
}

void checkpoint_from_string(const std::string& blob, core::DeepCat& model) {
  std::istringstream is(blob, std::ios::binary);
  load_checkpoint(is, model);
}

void save_index(std::ostream& os, const retrieval::ExperienceIndex& index) {
  write_container_header(os);
  write_section(os, kTagRetrievalIndex, encode_retrieval_index(index));
  write_section(os, kTagEnd, "");
  if (!os) throw CheckpointError("save_index: stream write failed");
}

retrieval::ExperienceIndex load_index(std::istream& is) {
  return decode_retrieval_index(
      require_section(read_sections(is).sections, kTagRetrievalIndex));
}

void save_index_file(const std::string& path,
                     const retrieval::ExperienceIndex& index) {
  std::ostringstream os(std::ios::binary);
  save_index(os, index);
  write_file_durably(path, std::move(os).str(), "save_index_file");
}

retrieval::ExperienceIndex load_index_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw CheckpointError("load_index_file: cannot open '" + path + "'");
  }
  return load_index(is);
}

void save_checkpoint_file(const std::string& path, core::DeepCat& model) {
  std::ostringstream os(std::ios::binary);
  save_checkpoint(os, model);
  write_file_durably(path, std::move(os).str(), "save_checkpoint_file");
}

void load_checkpoint_file(const std::string& path, core::DeepCat& model) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw CheckpointError("load_checkpoint_file: cannot open '" + path + "'");
  }
  load_checkpoint(is, model);
}

// ---- ModelRegistry ------------------------------------------------------

ModelRegistry::ModelRegistry(std::string directory)
    : dir_(std::move(directory)) {
  std::filesystem::create_directories(dir_);
}

std::string ModelRegistry::path_for(const std::string& name,
                                    std::uint32_t version) const {
  return dir_ + "/" + name + ".v" + std::to_string(version) + ".dckp";
}

std::optional<std::uint32_t> ModelRegistry::latest_version(
    const std::string& name) const {
  const std::string prefix = name + ".v";
  const std::string suffix = ".dckp";
  std::optional<std::uint32_t> latest;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    const std::string file = entry.path().filename().string();
    if (file.size() <= prefix.size() + suffix.size() ||
        file.compare(0, prefix.size(), prefix) != 0 ||
        file.compare(file.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      continue;
    }
    const std::string mid =
        file.substr(prefix.size(), file.size() - prefix.size() - suffix.size());
    std::uint32_t v = 0;
    const auto [ptr, parse_ec] =
        std::from_chars(mid.data(), mid.data() + mid.size(), v);
    if (parse_ec != std::errc{} || ptr != mid.data() + mid.size()) continue;
    if (!latest || v > *latest) latest = v;
  }
  return latest;
}

std::uint32_t ModelRegistry::publish(const std::string& name,
                                     core::DeepCat& model) {
  return publish(name, checkpoint_to_string(model));
}

std::uint32_t ModelRegistry::publish(const std::string& name,
                                     const std::string& checkpoint) {
  const std::uint32_t version = latest_version(name).value_or(0) + 1;
  write_file_durably(path_for(name, version), checkpoint,
                     "ModelRegistry::publish");
  return version;
}

void ModelRegistry::load_into(const std::string& name, std::uint32_t version,
                              core::DeepCat& model) const {
  load_checkpoint_file(path_for(name, version), model);
}

}  // namespace deepcat::service
