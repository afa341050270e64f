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
#include <ostream>
#include <sstream>
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
constexpr std::uint32_t kTagWorkloadRepo = fourcc("WREP");
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

// ---- byte-level codec ---------------------------------------------------

class ByteWriter {
 public:
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
  }
  void double_vec(const std::vector<double>& v) {
    u32(static_cast<std::uint32_t>(v.size()));
    doubles(v.data(), v.size());
  }

  [[nodiscard]] const std::string& bytes() const noexcept { return buf_; }

 private:
  std::string buf_;
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
    if (off_ + n > data_.size()) {
      throw CheckpointError("truncated payload in checkpoint section '" +
                            section_ + "'");
    }
  }

  const std::string& data_;
  std::string section_;
  std::size_t off_ = 0;
};

// ---- section encoders ---------------------------------------------------

void write_section(std::ostream& os, std::uint32_t tag,
                   const std::string& payload) {
  char head[12];
  for (int i = 0; i < 4; ++i) {
    head[i] = static_cast<char>((tag >> (8 * i)) & 0xFFu);
  }
  const auto len = static_cast<std::uint64_t>(payload.size());
  for (int i = 0; i < 8; ++i) {
    head[4 + i] = static_cast<char>((len >> (8 * i)) & 0xFFu);
  }
  os.write(head, sizeof head);
  os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  const std::uint32_t crc =
      crc32(reinterpret_cast<const unsigned char*>(payload.data()),
            payload.size());
  char cbuf[4];
  for (int i = 0; i < 4; ++i) {
    cbuf[i] = static_cast<char>((crc >> (8 * i)) & 0xFFu);
  }
  os.write(cbuf, sizeof cbuf);
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

std::string encode_nets(core::DeepCat& model) {
  ByteWriter w;
  auto nets = model.tuner().agent().networks();
  w.u32(static_cast<std::uint32_t>(nets.size()));
  for (auto& [name, net] : nets) {
    w.str(name);
    auto params = net->params();
    w.u32(static_cast<std::uint32_t>(params.size()));
    for (const auto& p : params) {
      w.u32(static_cast<std::uint32_t>(p.value->rows()));
      w.u32(static_cast<std::uint32_t>(p.value->cols()));
      w.floats(p.value->data(), p.value->size());
    }
  }
  return w.bytes();
}

void decode_nets(const std::string& payload, core::DeepCat& model) {
  ByteReader r(payload, "NETS");
  auto nets = model.tuner().agent().networks();
  const std::uint32_t count = r.u32();
  if (count != nets.size()) {
    throw CheckpointError("section 'NETS': network count mismatch");
  }
  for (auto& [name, net] : nets) {
    const std::string stored = r.str();
    if (stored != name) {
      throw CheckpointError("section 'NETS': expected network '" +
                            std::string(name) + "', found '" + stored + "'");
    }
    auto params = net->params();
    const std::uint32_t tensors = r.u32();
    if (tensors != params.size()) {
      throw CheckpointError("section 'NETS': tensor count mismatch in '" +
                            std::string(name) + "'");
    }
    for (auto& p : params) {
      const std::uint32_t rows = r.u32();
      const std::uint32_t cols = r.u32();
      if (rows != p.value->rows() || cols != p.value->cols()) {
        throw CheckpointError("section 'NETS': shape mismatch in '" +
                              std::string(name) + "'");
      }
      r.floats(p.value->data(), p.value->size());
    }
  }
  r.expect_exhausted();
}

std::string encode_adam(core::DeepCat& model) {
  ByteWriter w;
  rl::Td3Agent& agent = model.tuner().agent();
  auto opts = agent.optimizers();
  w.u32(static_cast<std::uint32_t>(opts.size()));
  for (auto& [name, opt] : opts) {
    w.str(name);
    w.u64(static_cast<std::uint64_t>(opt->step_count()));
    const auto& m = opt->first_moments();
    const auto& v = opt->second_moments();
    w.u32(static_cast<std::uint32_t>(m.size()));
    for (std::size_t i = 0; i < m.size(); ++i) {
      w.u32(static_cast<std::uint32_t>(m[i].rows()));
      w.u32(static_cast<std::uint32_t>(m[i].cols()));
      w.floats(m[i].data(), m[i].size());
      w.floats(v[i].data(), v[i].size());
    }
  }
  w.u64(static_cast<std::uint64_t>(agent.train_steps()));
  return w.bytes();
}

void decode_adam(const std::string& payload, core::DeepCat& model) {
  ByteReader r(payload, "ADAM");
  rl::Td3Agent& agent = model.tuner().agent();
  auto opts = agent.optimizers();
  const std::uint32_t count = r.u32();
  if (count != opts.size()) {
    throw CheckpointError("section 'ADAM': optimizer count mismatch");
  }
  for (auto& [name, opt] : opts) {
    const std::string stored = r.str();
    if (stored != name) {
      throw CheckpointError("section 'ADAM': expected optimizer '" +
                            std::string(name) + "', found '" + stored + "'");
    }
    const std::uint64_t steps = r.u64();
    const auto& cur_m = opt->first_moments();
    const std::uint32_t tensors = r.u32();
    if (tensors != cur_m.size()) {
      throw CheckpointError("section 'ADAM': tensor count mismatch in '" +
                            std::string(name) + "'");
    }
    std::vector<nn::Tensor> m, v;
    m.reserve(tensors);
    v.reserve(tensors);
    for (std::uint32_t i = 0; i < tensors; ++i) {
      const std::uint32_t rows = r.u32();
      const std::uint32_t cols = r.u32();
      if (rows != cur_m[i].rows() || cols != cur_m[i].cols()) {
        throw CheckpointError("section 'ADAM': shape mismatch in '" +
                              std::string(name) + "'");
      }
      nn::Tensor mi(rows, cols), vi(rows, cols);
      r.floats(mi.data(), mi.size());
      r.floats(vi.data(), vi.size());
      m.push_back(std::move(mi));
      v.push_back(std::move(vi));
    }
    opt->restore_state(m, v, static_cast<std::size_t>(steps));
  }
  agent.set_train_steps(static_cast<std::size_t>(r.u64()));
  r.expect_exhausted();
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

void decode_replay(const std::string& payload, core::DeepCat& model) {
  ByteReader r(payload, "RPLY");
  rl::ReplayBuffer* replay = model.tuner().replay();
  const std::uint8_t kind = r.u8();
  if (kind == kReplayRdper) {
    auto* rdper = dynamic_cast<rl::RdperReplay*>(replay);
    if (rdper == nullptr) {
      throw CheckpointError(
          "section 'RPLY': checkpoint holds RDPER pools but the model was "
          "configured with use_rdper = false");
    }
    const double r_th = r.f64();
    const double beta = r.f64();
    const std::uint64_t cap = r.u64();
    if (r_th != rdper->config().reward_threshold ||
        beta != rdper->config().beta ||
        cap != static_cast<std::uint64_t>(rdper->capacity() / 2)) {
      throw CheckpointError("section 'RPLY': RDPER config mismatch");
    }
    std::vector<std::vector<rl::Transition>> pools(2);
    std::size_t cursors[2] = {0, 0};
    for (std::size_t pi = 0; pi < 2; ++pi) {
      cursors[pi] = static_cast<std::size_t>(r.u64());
      const std::uint64_t n = r.u64();
      // A spliced stream can pair this decoder with another section's
      // CRC-valid payload, so `n` is untrusted: cap the reservation by the
      // payload size (each transition needs > 1 byte) and let the bounds-
      // checked reads raise the typed error.
      pools[pi].reserve(static_cast<std::size_t>(
          std::min<std::uint64_t>(n, payload.size())));
      for (std::uint64_t i = 0; i < n; ++i) {
        pools[pi].push_back(read_transition(r));
      }
    }
    rdper->restore_pools(std::move(pools[0]), cursors[0], std::move(pools[1]),
                         cursors[1]);
  } else if (kind == kReplayUniform) {
    auto* uniform = dynamic_cast<rl::UniformReplay*>(replay);
    if (uniform == nullptr) {
      throw CheckpointError(
          "section 'RPLY': checkpoint holds a uniform buffer but the model "
          "was configured with use_rdper = true");
    }
    const std::uint64_t cap = r.u64();
    if (cap != static_cast<std::uint64_t>(uniform->capacity())) {
      throw CheckpointError("section 'RPLY': capacity mismatch");
    }
    const auto cursor = static_cast<std::size_t>(r.u64());
    const std::uint64_t n = r.u64();
    std::vector<rl::Transition> storage;
    storage.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(n, payload.size())));
    for (std::uint64_t i = 0; i < n; ++i) {
      storage.push_back(read_transition(r));
    }
    uniform->restore_storage(std::move(storage), cursor);
  } else {
    throw CheckpointError("section 'RPLY': unknown replay kind");
  }
  r.expect_exhausted();
}

std::string encode_rng(core::DeepCat& model) {
  ByteWriter w;
  const common::RngState st = model.tuner().rng().state();
  for (const std::uint64_t lane : st.s) w.u64(lane);
  w.f64(st.spare);
  w.u8(st.has_spare ? 1 : 0);
  return w.bytes();
}

void decode_rng(const std::string& payload, core::DeepCat& model) {
  ByteReader r(payload, "RNGS");
  common::RngState st;
  for (std::uint64_t& lane : st.s) lane = r.u64();
  st.spare = r.f64();
  st.has_spare = r.u8() != 0;
  r.expect_exhausted();
  model.tuner().rng().restore(st);
}

std::string encode_workload_repo(const gp::WorkloadRepository& repo) {
  ByteWriter w;
  const auto& ids = repo.workload_ids();
  w.u32(static_cast<std::uint32_t>(ids.size()));
  for (const auto& id : ids) {
    w.str(id);
    const auto& obs = repo.observations(id);
    w.u64(static_cast<std::uint64_t>(obs.size()));
    for (const auto& o : obs) {
      w.double_vec(o.config);
      w.double_vec(o.metrics);
      w.f64(o.performance);
    }
  }
  return w.bytes();
}

void decode_workload_repo(const std::string& payload,
                          gp::WorkloadRepository& repo) {
  ByteReader r(payload, "WREP");
  const std::uint32_t workloads = r.u32();
  for (std::uint32_t wi = 0; wi < workloads; ++wi) {
    const std::string id = r.str();
    const std::uint64_t n = r.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
      gp::Observation o;
      o.config = r.double_vec();
      o.metrics = r.double_vec();
      o.performance = r.f64();
      repo.add(id, std::move(o));
    }
  }
  r.expect_exhausted();
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

const std::string* find_section(const std::vector<Section>& sections,
                                std::uint32_t tag) {
  for (const auto& s : sections) {
    if (s.tag == tag) return &s.payload;
  }
  return nullptr;
}

}  // namespace

std::uint32_t crc32(const unsigned char* data, std::size_t size) noexcept {
  const auto& t = kCrcTables.t;
  std::uint32_t crc = 0xFFFFFFFFu;
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
  return crc ^ 0xFFFFFFFFu;
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
  char vbuf[4];
  for (int i = 0; i < 4; ++i) {
    vbuf[i] = static_cast<char>((kCheckpointVersion >> (8 * i)) & 0xFFu);
  }
  os.write(vbuf, sizeof vbuf);
}

}  // namespace

void save_checkpoint(std::ostream& os, core::DeepCat& model,
                     const gp::WorkloadRepository* repository,
                     const retrieval::ExperienceIndex* index) {
  if (!model.tuner().has_agent()) {
    throw CheckpointError(
        "save_checkpoint: model has no trained agent (call train_offline or "
        "materialize first)");
  }
  write_container_header(os);

  write_section(os, kTagMeta, encode_meta(model));
  write_section(os, kTagNets, encode_nets(model));
  write_section(os, kTagAdam, encode_adam(model));
  write_section(os, kTagReplay, encode_replay(model));
  write_section(os, kTagRng, encode_rng(model));
  if (repository != nullptr && !repository->empty()) {
    write_section(os, kTagWorkloadRepo, encode_workload_repo(*repository));
  }
  if (index != nullptr && !index->empty()) {
    write_section(os, kTagRetrievalIndex, encode_retrieval_index(*index));
  }
  write_section(os, kTagEnd, "");
  if (!os) throw CheckpointError("save_checkpoint: stream write failed");
}

void load_checkpoint(std::istream& is, core::DeepCat& model,
                     gp::WorkloadRepository* repository,
                     retrieval::ExperienceIndex* index) {
  const Container container = read_sections(is);
  const std::vector<Section>& sections = container.sections;

  ByteReader meta(require_section(sections, kTagMeta), "META");
  const auto state_dim = static_cast<std::size_t>(meta.u32());
  const auto action_dim = static_cast<std::size_t>(meta.u32());
  const std::uint8_t replay_kind = meta.u8();
  const std::uint64_t next_seed = meta.u64();
  meta.expect_exhausted();
  const bool want_rdper = model.tuner().options().use_rdper;
  if ((replay_kind == kReplayRdper) != want_rdper) {
    throw CheckpointError(
        "section 'META': replay kind mismatch (checkpoint " +
        std::string(replay_kind == kReplayRdper ? "RDPER" : "uniform") +
        ", model configured for " +
        std::string(want_rdper ? "RDPER" : "uniform") + ")");
  }
  // NETS and ADAM hold f32 tensors from version 3 on. An older file's f64
  // tensors are refused, not narrowed: its master trained in double. Both
  // checks run before anything touches the model, so a refused file
  // changes nothing.
  if (container.version < 3) {
    throw CheckpointError(
        "sections 'NETS' and 'ADAM': checkpoint format version " +
        std::to_string(container.version) +
        " stores f64 network tensors; this build reads the f32 tensors of "
        "version 3 and later (republish the model with this build)");
  }
  model.tuner().materialize(state_dim, action_dim);
  model.set_next_env_seed(next_seed);
  decode_nets(require_section(sections, kTagNets), model);
  decode_adam(require_section(sections, kTagAdam), model);
  decode_replay(require_section(sections, kTagReplay), model);
  decode_rng(require_section(sections, kTagRng), model);
  if (repository != nullptr) {
    if (const std::string* payload =
            find_section(sections, kTagWorkloadRepo)) {
      decode_workload_repo(*payload, *repository);
    }
  }
  if (index != nullptr) {
    if (const std::string* payload =
            find_section(sections, kTagRetrievalIndex)) {
      *index = decode_retrieval_index(*payload);
    }
  }
}

std::string checkpoint_to_string(core::DeepCat& model,
                                 const gp::WorkloadRepository* repository,
                                 const retrieval::ExperienceIndex* index) {
  std::ostringstream os(std::ios::binary);
  save_checkpoint(os, model, repository, index);
  return std::move(os).str();
}

void checkpoint_from_string(const std::string& blob, core::DeepCat& model,
                            gp::WorkloadRepository* repository,
                            retrieval::ExperienceIndex* index) {
  std::istringstream is(blob, std::ios::binary);
  load_checkpoint(is, model, repository, index);
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

void save_checkpoint_file(const std::string& path, core::DeepCat& model,
                          const gp::WorkloadRepository* repository) {
  std::ostringstream os(std::ios::binary);
  save_checkpoint(os, model, repository);
  write_file_durably(path, std::move(os).str(), "save_checkpoint_file");
}

void load_checkpoint_file(const std::string& path, core::DeepCat& model,
                          gp::WorkloadRepository* repository) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw CheckpointError("load_checkpoint_file: cannot open '" + path + "'");
  }
  load_checkpoint(is, model, repository);
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
  const std::uint32_t version = latest_version(name).value_or(0) + 1;
  save_checkpoint_file(path_for(name, version), model);
  return version;
}

void ModelRegistry::load_into(const std::string& name, std::uint32_t version,
                              core::DeepCat& model) const {
  load_checkpoint_file(path_for(name, version), model);
}

}  // namespace deepcat::service
