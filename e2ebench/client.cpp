// e2e_client: the closed-loop load client of the real-session benchmark.
//
// It speaks the DCWP wire format itself (header "DCWP" + u32 version; frames
// u32 type | u64 length | payload | u32 CRC32 over type, length and payload)
// and links no repository code, so refactors behind the wire cannot break
// it. It reads only REP, ERR, TELE and END frames and skips any other type.
//
//   e2e_client --port P --plan requests.jsonl --conns C --mode MODE
//
// MODE is one of
//   queue   C connections, one thread each; every thread takes the next
//           unsent REQ of the plan and waits for its reply before it takes
//           another (a closed loop of C callers);
//   rounds  lock-step rounds: each connection sends one REQ; once all of the
//           round's replies are in, connection 0 sends FLSH and waits for its
//           TELE, so every server epoch holds exactly one round;
//   stat    one connection sends STAT and prints the TELE it gets back.
// Every connection ends with END and waits for the server's END.
//
// Output, one tab-separated record per operation, printed after the run:
//   REQ  <plan index> <conn> <t_send_ns> <t_recv_ns> <REP|ERR|EOF> <payload>
//   FLSH <round>      <conn> <t_send_ns> <t_recv_ns> <TELE|ERR|EOF> <payload>
//   STAT 0            <conn> <t_send_ns> <t_recv_ns> <TELE|ERR|EOF> <payload>
//   END  0            <conn> <t_send_ns> <t_recv_ns> <END|ERR|EOF> -
// Times are CLOCK_MONOTONIC nanoseconds. Newlines inside a payload (TELE is
// multi-line) are printed as the ASCII record separator 0x1E.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <barrier>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace {

constexpr std::uint32_t tag(const char (&s)[5]) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(s[0])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[2])) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[3])) << 24;
}

constexpr std::uint32_t kReq = tag("REQ ");
constexpr std::uint32_t kRep = tag("REP ");
constexpr std::uint32_t kErr = tag("ERR ");
constexpr std::uint32_t kTele = tag("TELE");
constexpr std::uint32_t kStat = tag("STAT");
constexpr std::uint32_t kFlush = tag("FLSH");
constexpr std::uint32_t kEnd = tag("END ");
constexpr std::uint32_t kWireVersion = 3;
constexpr std::uint64_t kMaxPayload = 16ull << 20;

std::uint32_t crc32(std::string_view bytes) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = 0xFFFFFFFFu;
  for (const char ch : bytes) {
    c = table[(c ^ static_cast<unsigned char>(ch)) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void put_le(std::string& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

std::uint64_t get_le(const char* p, int bytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

std::string encode_frame(std::uint32_t type, std::string_view payload) {
  std::string out;
  out.reserve(16 + payload.size());
  put_le(out, type, 4);
  put_le(out, payload.size(), 8);
  out.append(payload);
  put_le(out, crc32(out), 4);
  return out;
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Frame {
  std::uint32_t type = 0;
  std::string payload;
};

/// One blocking DCWP connection over TCP loopback.
class Conn {
 public:
  explicit Conn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket(): " + error());
    const int one = 1;
    (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
      const std::string what = error();
      ::close(fd_);
      throw std::runtime_error("connect(): " + what);
    }
    std::string header = "DCWP";
    put_le(header, kWireVersion, 4);
    send_all(header);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn() { ::close(fd_); }

  void send(std::uint32_t type, std::string_view payload) {
    send_all(encode_frame(type, payload));
  }

  /// Next REP/ERR/TELE/END frame; other frame types are skipped. nullopt on
  /// EOF, a socket error, or corrupt framing.
  std::optional<Frame> next() {
    for (;;) {
      std::optional<Frame> f = decode();
      if (!f) {
        if (broken_ || !fill()) return std::nullopt;
        continue;
      }
      if (f->type == kRep || f->type == kErr || f->type == kTele ||
          f->type == kEnd) {
        return f;
      }
    }
  }

 private:
  static std::string error() { return std::strerror(errno); }

  void send_all(std::string_view bytes) {
    while (!bytes.empty()) {
      const ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      if (n > 0) {
        bytes.remove_prefix(static_cast<std::size_t>(n));
      } else if (errno != EINTR) {
        throw std::runtime_error("send(): " + error());
      }
    }
  }

  bool fill() {
    char buf[64 * 1024];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n > 0) {
        in_.append(buf, static_cast<std::size_t>(n));
        return true;
      }
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
  }

  std::optional<Frame> decode() {
    if (!header_seen_) {
      if (in_.size() < 8) return std::nullopt;
      if (in_.compare(0, 4, "DCWP") != 0) {
        broken_ = true;
        return std::nullopt;
      }
      in_.erase(0, 8);
      header_seen_ = true;
    }
    if (in_.size() < 12) return std::nullopt;
    const std::uint64_t len = get_le(in_.data() + 4, 8);
    if (len > kMaxPayload) {
      broken_ = true;
      return std::nullopt;
    }
    const std::size_t total = 12 + static_cast<std::size_t>(len) + 4;
    if (in_.size() < total) return std::nullopt;
    const std::string_view body(in_.data(), 12 + static_cast<std::size_t>(len));
    if (crc32(body) != get_le(in_.data() + total - 4, 4)) {
      broken_ = true;
      return std::nullopt;
    }
    Frame f;
    f.type = static_cast<std::uint32_t>(get_le(in_.data(), 4));
    f.payload.assign(in_, 12, static_cast<std::size_t>(len));
    in_.erase(0, total);
    return f;
  }

  int fd_ = -1;
  std::string in_;
  bool header_seen_ = false;
  bool broken_ = false;
};

struct Record {
  std::string op;
  std::size_t index = 0;
  std::size_t conn = 0;
  std::uint64_t t0 = 0;
  std::uint64_t t1 = 0;
  std::string frame;
  std::string payload;
};

std::string frame_name(const std::optional<Frame>& f) {
  if (!f) return "EOF";
  if (f->type == kRep) return "REP";
  if (f->type == kErr) return "ERR";
  if (f->type == kTele) return "TELE";
  return "END";
}

/// Per-connection worker state. `alive` drops on the first lost reply: the
/// stream has no resync point, so that connection sends nothing more.
struct Worker {
  std::size_t id = 0;
  std::optional<Conn> conn;
  bool alive = true;
  std::vector<Record> records;

  /// Sends one frame and waits for the reply frame `want` (REP for REQ,
  /// TELE for FLSH and STAT); an ERR answers too.
  void call(const std::string& op, std::size_t index, std::uint32_t type,
            const std::string& payload, std::uint32_t want) {
    Record r{op, index, id, now_ns(), 0, {}, {}};
    std::optional<Frame> f;
    try {
      conn->send(type, payload);
      do {
        f = conn->next();
      } while (f && f->type != want && f->type != kErr);
    } catch (const std::exception&) {
      f.reset();
    }
    r.t1 = now_ns();
    r.frame = frame_name(f);
    if (f) r.payload = std::move(f->payload);
    if (!f || f->type != want) alive = false;
    records.push_back(std::move(r));
  }

  void finish() {
    Record r{"END", 0, id, now_ns(), 0, {}, "-"};
    std::optional<Frame> f;
    if (alive) {
      try {
        conn->send(kEnd, "");
        do {
          f = conn->next();
        } while (f && f->type != kEnd);
      } catch (const std::exception&) {
        f.reset();
      }
    }
    r.t1 = now_ns();
    r.frame = frame_name(f);
    records.push_back(std::move(r));
  }
};

std::string arg(int argc, char** argv, const std::string& name) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (argv[i] == "--" + name) return argv[i + 1];
  }
  throw std::invalid_argument("missing --" + name);
}

int run(int argc, char** argv) {
  const auto port = static_cast<std::uint16_t>(std::stoul(arg(argc, argv, "port")));
  const std::string mode = arg(argc, argv, "mode");
  if (mode != "queue" && mode != "rounds" && mode != "stat") {
    throw std::invalid_argument("unknown --mode " + mode);
  }
  const std::size_t conns = std::stoul(arg(argc, argv, "conns"));
  if (conns == 0) throw std::invalid_argument("--conns must be >= 1");
  std::vector<std::string> plan;
  if (mode != "stat") {
    std::ifstream in(arg(argc, argv, "plan"));
    if (!in) throw std::invalid_argument("cannot open the plan file");
    for (std::string line; std::getline(in, line);) {
      if (!line.empty()) plan.push_back(line);
    }
  }
  if (mode == "rounds" && plan.size() % conns != 0) {
    throw std::invalid_argument("rounds mode needs a plan of whole rounds");
  }

  std::vector<Worker> workers(mode == "stat" ? 1 : conns);
  for (std::size_t i = 0; i < workers.size(); ++i) {
    workers[i].id = i;
    workers[i].conn.emplace(port);
  }

  std::atomic<std::size_t> next{0};
  std::barrier sync(static_cast<std::ptrdiff_t>(workers.size()));
  const std::size_t rounds = plan.size() / conns;
  auto body = [&](Worker& w) {
    if (mode == "queue") {
      for (std::size_t i = next++; i < plan.size() && w.alive; i = next++) {
        w.call("REQ", i, kReq, plan[i], kRep);
      }
    } else if (mode == "rounds") {
      for (std::size_t r = 0; r < rounds; ++r) {
        const std::size_t i = r * conns + w.id;
        if (w.alive) w.call("REQ", i, kReq, plan[i], kRep);
        sync.arrive_and_wait();
        if (w.id == 0 && w.alive) w.call("FLSH", r, kFlush, "", kTele);
        sync.arrive_and_wait();
      }
    } else {
      w.call("STAT", 0, kStat, "", kTele);
    }
    w.finish();
  };

  {
    std::vector<std::jthread> threads;
    for (auto& w : workers) threads.emplace_back(body, std::ref(w));
  }

  std::string out;
  for (const auto& w : workers) {
    for (const auto& r : w.records) {
      std::string payload = r.payload;
      for (char& c : payload) {
        if (c == '\n') c = '\x1e';
        if (c == '\t') c = ' ';
      }
      out += r.op + '\t' + std::to_string(r.index) + '\t' +
             std::to_string(r.conn) + '\t' + std::to_string(r.t0) + '\t' +
             std::to_string(r.t1) + '\t' + r.frame + '\t' + payload + '\n';
    }
  }
  std::fwrite(out.data(), 1, out.size(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "e2e_client: " << e.what() << '\n';
    return 2;
  }
}
