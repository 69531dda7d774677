// svc_deep: phd over TCP, treated as a black box.
//
// One phd process per setup, one connection per phd (the benchmark never
// reconnects: a dropped connection fails every request still outstanding on
// it). A sender thread paces schedules and polls by the clock (open loop); a
// receiver thread drains replies and keeps the ledger. After the timed
// phase the client polls until every acked job has resolved, audits the
// ledger against phd's Stats, drains phd, and restarts it on the same WAL
// directory to time recovery and audit the replayed ledger.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <thread>

#include "common.hpp"
#include "dist/frame.hpp"
#include "svc/proto.hpp"
#include "svc_replay.hpp"
#include "svc_stream.hpp"
#include "util/mini_json.hpp"

namespace pb {
namespace {

namespace fs = std::filesystem;
using ph::svc::Job;
using ph::svc::SvcMsg;
using ph::svc::SvcType;
using ph::svc::TenantStatRow;

// ------------------------------------------------------------ phd process

class Phd {
 public:
  Phd() = default;
  ~Phd() { kill_now(); }
  Phd(const Phd&) = delete;
  Phd& operator=(const Phd&) = delete;

  /// Forks and execs phd on `dir` with its default config and an ephemeral
  /// port; returns once phd has printed its port (after WAL recovery).
  bool start(const std::string& bin, const std::string& dir, bool metrics,
             const std::string& log, std::string* why) {
    int p[2];
    if (::pipe2(p, O_CLOEXEC) != 0) return fail(why, "pipe failed");
    std::vector<std::string> args = {bin, "--dir", dir, "--port", "0"};
    if (metrics) {
      args.push_back("--metrics-port");
      args.push_back("0");
    }
    pid_ = ::fork();
    if (pid_ < 0) return fail(why, "fork failed");
    if (pid_ == 0) {
      // phd must not outlive the benchmark, however the benchmark ends.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(p[1], 1);
      const int lf = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (lf >= 0) ::dup2(lf, 2);
      std::vector<char*> av;
      for (auto& a : args) av.push_back(a.data());
      av.push_back(nullptr);
      ::execv(bin.c_str(), av.data());
      ::_exit(127);
    }
    ::close(p[1]);
    out_fd_ = p[0];
    const std::uint64_t deadline = mono_ns() + 60ull * 1000000000ull;
    while (port_ == 0 || (metrics && metrics_port_ < 0)) {
      std::string line;
      if (!read_line(deadline, line)) return fail(why, "phd exited or stayed silent before listening");
      const auto lp = line.find("listening on 127.0.0.1:");
      if (lp != std::string::npos) {
        port_ = static_cast<std::uint16_t>(std::strtoul(line.c_str() + lp + 23, nullptr, 10));
      }
      const auto mp = line.find("metrics on http://127.0.0.1:");
      if (mp != std::string::npos) {
        metrics_port_ = static_cast<int>(std::strtol(line.c_str() + mp + 28, nullptr, 10));
      }
    }
    return true;
  }

  std::uint16_t port() const noexcept { return port_; }
  int metrics_port() const noexcept { return metrics_port_; }

  /// CPU seconds of all phd threads so far, at nanosecond resolution
  /// (first field of each task's schedstat: time spent on a CPU; wait4's
  /// user+sys adds up to the same total).
  double task_cpu_s() const {
    double ns = 0;
    std::error_code ec;
    for (const auto& t : fs::directory_iterator("/proc/" + std::to_string(pid_) + "/task", ec)) {
      std::ifstream f(t.path() / "schedstat");
      double v = 0;
      if (f >> v) ns += v;
    }
    return ns / 1e9;
  }

  /// Waits for phd to exit on its own; SIGKILLs it after `timeout_s`.
  /// Returns true for a clean exit 0.
  bool wait(double timeout_s, ::rusage* ru) {
    if (pid_ <= 0) return false;
    const std::uint64_t deadline = mono_ns() + static_cast<std::uint64_t>(timeout_s * 1e9);
    int status = 0;
    while (true) {
      const pid_t r = ::wait4(pid_, &status, WNOHANG, ru);
      if (r == pid_) break;
      if (r < 0 && errno != EINTR) {
        pid_ = -1;
        return false;
      }
      if (mono_ns() >= deadline) {
        ::kill(pid_, SIGKILL);
        ::wait4(pid_, &status, 0, ru);
        pid_ = -1;
        close_out();
        return false;
      }
      ::usleep(2000);
    }
    pid_ = -1;
    close_out();
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

  void kill_now() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
    }
    close_out();
  }

 private:
  static bool fail(std::string* why, const char* w) {
    if (why != nullptr) *why = w;
    return false;
  }
  void close_out() {
    if (out_fd_ >= 0) ::close(out_fd_);
    out_fd_ = -1;
  }
  bool read_line(std::uint64_t deadline, std::string& line) {
    while (true) {
      const auto nl = buf_.find('\n');
      if (nl != std::string::npos) {
        line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      const std::uint64_t now = mono_ns();
      if (now >= deadline) return false;
      ::pollfd pf{out_fd_, POLLIN, 0};
      const int pr = ::poll(&pf, 1, static_cast<int>((deadline - now) / 1000000 + 1));
      if (pr < 0 && errno == EINTR) continue;
      if (pr <= 0) return false;
      char tmp[512];
      const ::ssize_t r = ::read(out_fd_, tmp, sizeof tmp);
      if (r <= 0) return false;
      buf_.append(tmp, static_cast<std::size_t>(r));
    }
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string buf_;
  std::uint16_t port_ = 0;
  int metrics_port_ = -1;
};

int connect_local(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  ::sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<::sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

/// GET /metrics.json from phd's metrics endpoint; empty on failure.
std::string scrape(int port) {
  if (port < 0) return {};
  const int fd = connect_local(static_cast<std::uint16_t>(port));
  if (fd < 0) return {};
  const std::string req = "GET /metrics.json HTTP/1.0\r\n\r\n";
  std::string body;
  if (::send(fd, req.data(), req.size(), MSG_NOSIGNAL) == static_cast<::ssize_t>(req.size())) {
    char tmp[65536];
    ::ssize_t r;
    while ((r = ::recv(fd, tmp, sizeof tmp, 0)) > 0) body.append(tmp, static_cast<std::size_t>(r));
  }
  ::close(fd);
  const auto h = body.find("\r\n\r\n");
  return h == std::string::npos ? std::string{} : body.substr(h + 4);
}

/// Delta of phd's telemetry between two /metrics.json snapshots, as counts
/// and per-phase (count, total ns).
struct TelemetryDelta {
  std::map<std::string, double> counters;
  std::map<std::string, double> phase_count, phase_ns;

  double counter(const std::string& n) const {
    auto it = counters.find(n);
    return it == counters.end() ? 0.0 : it->second;
  }
  /// Mean span duration in microseconds (0 when the phase never ran).
  double mean_us(const std::string& phase) const {
    auto c = phase_count.find(phase);
    auto t = phase_ns.find(phase);
    if (c == phase_count.end() || t == phase_ns.end() || c->second <= 0) return 0.0;
    return t->second / c->second / 1e3;
  }
  double count(const std::string& phase) const {
    auto c = phase_count.find(phase);
    return c == phase_count.end() ? 0.0 : c->second;
  }
};

/// Counter and phase deltas between two /metrics.json documents.
bool metrics_delta(const std::string& a, const std::string& b, TelemetryDelta& d) {
  try {
    const auto ja = ph::minijson::Parser(a).parse().at("telemetry");
    const auto jb = ph::minijson::Parser(b).parse().at("telemetry");
    for (const auto& [k, v] : jb.at("counters").object()) {
      d.counters[k] = v.number() - ja.at("counters").at(k).number();
    }
    for (const auto& [k, v] : jb.at("phases").object()) {
      const auto& pa = ja.at("phases").at(k);
      const double cb = v.at("count").number(), ca = pa.at("count").number();
      d.phase_count[k] = cb - ca;
      d.phase_ns[k] = v.at("mean_ns").number() * cb - pa.at("mean_ns").number() * ca;
    }
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

double phase_max_s(const std::string& doc, const char* phase) {
  try {
    return ph::minijson::Parser(doc).parse().at("telemetry").at("phases").at(phase)
               .at("max_ns").number() / 1e9;
  } catch (const std::exception&) {
    return 0.0;
  }
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t n = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) n += e.file_size(ec);
  }
  return n;
}

// ---------------------------------------------------------------- client

constexpr std::uint64_t kWindowNs = 1000000000;

struct TenantLedger {
  std::uint64_t acked = 0, cancel_acked = 0, delivered = 0, shed = 0;
};

class Client {
 public:
  Client(const SvcShape& sh, const SvcStream& st)
      : sh_(sh), st_(st), n_(st.size()),
        state_(n_, 0), cancel_state_(n_, 0), deliv_(n_, 0),
        ack_mono_(n_, 0), tenants_(sh.tenants) {
    burst_period_ns_ = static_cast<std::uint64_t>(static_cast<double>(sh.burst) / sh.rate * 1e9);
    ack_ns_.reserve(n_);
    late_client_ns_.reserve(n_);
    late_server_ns_.reserve(n_);
    poll_due_ = std::make_unique<std::atomic<std::uint64_t>[]>(kMaxPolls);
    poll_reply_.assign(kMaxPolls, 0);
  }
  ~Client() { close_now(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool connect_to(std::uint16_t port) {
    fd_ = connect_local(port);
    if (fd_ < 0) return false;
    rx_ = std::thread([this] { receive_loop(); });
    return true;
  }

  /// Closes the socket and joins the receiver (idempotent).
  void close_now() {
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
    if (rx_.joinable()) rx_.join();
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  bool dropped() const noexcept { return dropped_.load(std::memory_order_acquire); }
  std::uint64_t sent() const noexcept { return sent_.load(std::memory_order_relaxed); }
  std::uint64_t replies() const noexcept { return replies_.load(std::memory_order_acquire); }
  std::uint64_t outstanding() const noexcept { return sent() - replies(); }

  /// Setup: paced far-future schedules, windowed well below phd's parked-ack cap.
  bool preload(std::string* why) {
    const std::size_t kBurst = 256;
    const std::uint64_t period =
        static_cast<std::uint64_t>(static_cast<double>(kBurst) / sh_.preload_rate * 1e9);
    const std::uint64_t t0 = mono_ns();
    std::uint64_t b = 0;
    for (std::uint64_t id = 1; id < st_.first_timed; id += kBurst, ++b) {
      sleep_until_mono(t0 + b * period);
      const std::uint64_t until = mono_ns() + 30ull * 1000000000ull;
      while (outstanding() > 2048) {
        if (dropped() || mono_ns() > until) return fail(why, "preload stalled");
        ::usleep(50);
      }
      wire_.clear();
      const std::uint64_t end = std::min<std::uint64_t>(id + kBurst, st_.first_timed);
      for (std::uint64_t j = id; j < end; ++j) put_schedule(j);
      if (!flush(end - id)) return fail(why, "connection dropped during preload");
    }
    return wait_quiet(30.0, why);
  }

  /// The open-loop timed phase: bursts of schedules at the target rate,
  /// cancels for acked jobs picked by the stream, and a PollDue every period.
  void timed(double seconds) {
    const std::uint64_t t0 = mono_ns() + 2000000;
    const std::uint64_t t_end = t0 + static_cast<std::uint64_t>(seconds * 1e9);
    t0_.store(t0, std::memory_order_release);
    gen_late_ns_.reserve(static_cast<std::size_t>(seconds * sh_.rate / sh_.burst) + 1024);
    std::uint64_t nb = 0, np = 0;
    while (!dropped()) {
      const std::uint64_t due_b = t0 + nb * burst_period_ns_;
      const std::uint64_t due_p = t0 + np * sh_.poll_period_ns;
      if (due_b >= t_end && due_p >= t_end) break;
      const std::uint64_t due = std::min(due_b, due_p);
      sleep_until_mono(due);
      const double late = static_cast<double>(mono_ns() - due);
      gen_late_ns_.add(late);
      wire_.clear();
      std::uint64_t reqs = 0;
      if (due_b == due) {
        const std::uint64_t first = st_.first_timed + nb * sh_.burst;
        for (std::uint64_t j = first; j < first + sh_.burst && j < n_; ++j) {
          put_schedule(j);
          ++reqs;
        }
        ++nb;
        reqs += put_cancels();
      }
      if (due_p == due) {
        put_poll(due);
        ++reqs;
        ++np;
      }
      if (!flush(reqs)) break;
    }
    last_timed_id_ = std::min(st_.first_timed + nb * sh_.burst, n_);
  }

  /// Polls until every acked, uncancelled job was delivered and the backlog
  /// is back to `expect_backlog` (the preloaded far-future jobs).
  bool drain(std::uint64_t expect_backlog, double timeout_s, std::string* why) {
    const std::uint64_t until = mono_ns() + static_cast<std::uint64_t>(timeout_s * 1e9);
    while (!dropped() && mono_ns() < until) {
      const std::uint64_t due = mono_ns();
      wire_.clear();
      std::uint64_t reqs = put_cancels();
      const std::uint64_t k = polls_sent_;
      put_poll(due);
      if (!flush(reqs + 1)) break;
      while (poll_replies_.load(std::memory_order_acquire) <= k && !dropped() &&
             mono_ns() < until) {
        ::usleep(200);
      }
      const bool cancels_done = [&] {
        std::lock_guard lk(cancel_mu_);
        return cancel_q_.empty();
      }();
      if (cancels_done && outstanding() == 0 &&
          pending_.load(std::memory_order_acquire) == 0 &&
          last_backlog_.load(std::memory_order_acquire) == expect_backlog) {
        return true;
      }
      sleep_until_mono(due + sh_.poll_period_ns);
    }
    return fail(why, dropped() ? "connection dropped during drain" : "drain timed out");
  }

  /// kStats round trip; fills rows and the backlog.
  bool stats(std::vector<TenantStatRow>& rows, std::uint64_t& backlog, std::string* why) {
    {
      std::lock_guard lk(stats_mu_);
      have_stats_ = false;
    }
    SvcMsg m;
    m.type = SvcType::kStats;
    wire_.clear();
    put(m);
    if (!flush(1)) return fail(why, "connection dropped before stats");
    std::unique_lock lk(stats_mu_);
    if (!stats_cv_.wait_for(lk, std::chrono::seconds(10),
                            [&] { return have_stats_ || dropped(); }) || !have_stats_) {
      return fail(why, "no stats reply");
    }
    rows = stats_rows_;
    backlog = stats_backlog_;
    return true;
  }

  /// kShutdown: phd drains, acks, exits; the receiver then sees EOF.
  bool shutdown(std::string* why) {
    shutdown_sent_.store(true, std::memory_order_release);
    SvcMsg m;
    m.type = SvcType::kShutdown;
    wire_.clear();
    put(m);
    if (!flush(1)) return fail(why, "connection dropped before shutdown");
    const std::uint64_t until = mono_ns() + 10ull * 1000000000ull;
    while (!shutdown_acked_.load(std::memory_order_acquire)) {
      if (mono_ns() > until || dropped()) return fail(why, "no shutdown ack");
      ::usleep(500);
    }
    return true;
  }

  // ----------------------------------------------------------- results
  // Read only after close_now() (the receiver is joined).

  const std::vector<std::uint8_t>& state() const { return state_; }
  const std::vector<std::uint8_t>& cancel_state() const { return cancel_state_; }
  const std::vector<std::uint8_t>& deliveries() const { return deliv_; }
  const std::vector<TenantLedger>& ledger() const { return tenants_; }
  const std::vector<std::uint64_t>& ack_mono() const { return ack_mono_; }
  const std::vector<std::uint64_t>& window_deliveries() const { return windows_; }
  Samples& ack_ns() { return ack_ns_; }
  Samples& late_client_ns() { return late_client_ns_; }
  Samples& late_server_ns() { return late_server_ns_; }
  Samples& gen_late_ns() { return gen_late_ns_; }
  const std::map<std::string, std::uint64_t>& anomaly_map() const { return anomalies_; }
  std::uint64_t delivered_total() const {
    return delivered_total_.load(std::memory_order_relaxed);
  }
  std::uint64_t polls_sent() const { return polls_sent_; }
  std::uint64_t t0() const { return t0_.load(); }
  std::uint64_t due_of(std::uint64_t id) const {
    return t0() + (id - st_.first_timed) / sh_.burst * burst_period_ns_;
  }
  std::uint64_t poll_due(std::uint64_t k) const { return poll_due_[k].load(); }
  std::uint64_t poll_reply(std::uint64_t k) const { return poll_reply_[k]; }
  std::uint64_t last_timed_id() const { return last_timed_id_; }

 private:
  static bool fail(std::string* why, const char* w) {
    if (why != nullptr) *why = w;
    return false;
  }

  void put(const SvcMsg& m) {
    ph::svc::encode_svc(m, enc_);
    ph::persist::append_frame(wire_, std::span<const std::uint8_t>(enc_));
  }
  void put_schedule(std::uint64_t id) {
    SvcMsg m;
    m.type = SvcType::kSchedule;
    m.tenant = st_.tenant[id];
    m.a = st_.delay_ns[id];
    m.b = id;
    m.c = st_.payload(id);
    put(m);
  }
  void put_poll(std::uint64_t due) {
    if (polls_sent_ >= kMaxPolls) return;
    poll_due_[polls_sent_].store(due, std::memory_order_release);
    ++polls_sent_;
    SvcMsg m;
    m.type = SvcType::kPollDue;
    m.a = sh_.poll_max;
    put(m);
  }
  std::uint64_t put_cancels() {
    std::vector<Job> q;
    {
      std::lock_guard lk(cancel_mu_);
      q.swap(cancel_q_);
    }
    for (const Job& j : q) {
      SvcMsg m;
      m.type = SvcType::kCancel;
      m.tenant = j.tenant;
      m.a = j.deadline_ns;
      m.b = j.id;
      put(m);
    }
    return q.size();
  }
  bool flush(std::uint64_t nreq) {
    sent_.fetch_add(nreq, std::memory_order_relaxed);
    const std::uint8_t* p = wire_.data();
    std::size_t left = wire_.size();
    while (left > 0) {
      const ::ssize_t w = ::send(fd_, p, left, MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EINTR) continue;
        dropped_.store(true, std::memory_order_release);
        return false;
      }
      p += w;
      left -= static_cast<std::size_t>(w);
    }
    return true;
  }
  bool wait_quiet(double timeout_s, std::string* why) {
    const std::uint64_t until = mono_ns() + static_cast<std::uint64_t>(timeout_s * 1e9);
    while (outstanding() != 0) {
      if (dropped() || mono_ns() > until) return fail(why, "requests left unanswered");
      ::usleep(200);
    }
    return true;
  }

  void anomaly(const char* k) { ++anomalies_[k]; }

  void receive_loop() {
    std::vector<std::uint8_t> buf(1 << 16), payload;
    ph::dist::FrameParser parser;
    SvcMsg m;
    while (true) {
      const ::ssize_t r = ::recv(fd_, buf.data(), buf.size(), 0);
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) break;
      parser.feed(std::span<const std::uint8_t>(buf.data(), static_cast<std::size_t>(r)));
      while (true) {
        const auto fsr = parser.next(payload);
        if (fsr == ph::dist::FrameStatus::kNeedMore) break;
        if (fsr == ph::dist::FrameStatus::kBad || !ph::svc::decode_svc(payload, m)) {
          anomaly("bad_frame");
          dropped_.store(true, std::memory_order_release);
          return;
        }
        on_msg(m);
      }
    }
    if (!shutdown_acked_.load(std::memory_order_acquire)) {
      dropped_.store(true, std::memory_order_release);
    }
    std::lock_guard lk(stats_mu_);
    stats_cv_.notify_all();
  }

  void on_msg(const SvcMsg& m) {
    const std::uint64_t now_mono = mono_ns();
    switch (m.type) {
      case SvcType::kAck: {
        if (m.b == 0 && shutdown_sent_.load(std::memory_order_acquire)) {
          shutdown_acked_.store(true, std::memory_order_release);
          break;
        }
        const std::uint64_t id = m.b;
        if (id == 0 || id >= n_) {
          anomaly("reply_for_unknown_id");
          break;
        }
        if (state_[id] == 0) {
          state_[id] = 1;
          ack_mono_[id] = now_mono;
          ++tenants_[st_.tenant[id]].acked;
          if (id >= st_.first_timed) {
            const std::uint64_t due = due_of(id);
            ack_ns_.add(static_cast<double>(now_mono - due));
            if (st_.cancel[id] != 0) {
              Job j;
              j.deadline_ns = m.a;
              j.id = id;
              j.tenant = st_.tenant[id];
              std::lock_guard lk(cancel_mu_);
              cancel_q_.push_back(j);
            } else {
              pending_.fetch_add(1, std::memory_order_release);
            }
          }
        } else if (state_[id] == 1 && cancel_state_[id] == 0) {
          cancel_state_[id] = 1;
          ++tenants_[st_.tenant[id]].cancel_acked;
        } else {
          anomaly("extra_ack");
        }
        break;
      }
      case SvcType::kOverloaded:
      case SvcType::kError: {
        const std::uint64_t id = m.b;
        const bool shed = m.type == SvcType::kOverloaded;
        if (id == 0 || id >= n_) {
          anomaly(shed ? "shed" : "error");
          break;
        }
        if (state_[id] == 0) {
          state_[id] = shed ? 2 : 3;
        } else {
          cancel_state_[id] = shed ? 2 : 3;
        }
        if (shed) ++tenants_[st_.tenant[id]].shed;
        anomaly(shed ? "shed" : "error");
        break;
      }
      case SvcType::kDueReply: {
        const std::uint64_t k = poll_replies_.load(std::memory_order_relaxed);
        if (k < poll_reply_.size()) poll_reply_[k] = now_mono;
        const std::uint64_t now_real = real_ns();
        const std::uint64_t t0 = t0_.load(std::memory_order_acquire);
        for (const Job& j : m.jobs) {
          const std::uint64_t id = j.id;
          if (id == 0 || id >= n_ || j.tenant != st_.tenant[id] ||
              j.payload0 != st_.payload(id)) {
            anomaly("delivered_never_sent");
            continue;
          }
          if (state_[id] != 1) anomaly("delivered_before_ack");
          if (id < st_.first_timed) anomaly("far_future_job_delivered");
          if (deliv_[id] < 255) ++deliv_[id];
          if (deliv_[id] > 1) {
            anomaly("delivered_twice");
            continue;
          }
          ++tenants_[j.tenant].delivered;
          delivered_total_.fetch_add(1, std::memory_order_relaxed);
          if (st_.cancel[id] == 0 && id >= st_.first_timed) {
            pending_.fetch_sub(1, std::memory_order_release);
          }
          late_client_ns_.add(static_cast<double>(now_real) - static_cast<double>(j.deadline_ns));
          late_server_ns_.add(static_cast<double>(m.a) - static_cast<double>(j.deadline_ns));
          if (t0 != 0 && now_mono >= t0) {
            const std::size_t w = static_cast<std::size_t>((now_mono - t0) / kWindowNs);
            if (w >= windows_.size()) windows_.resize(w + 1, 0);
            ++windows_[w];
          }
        }
        last_backlog_.store(m.b, std::memory_order_release);
        poll_replies_.fetch_add(1, std::memory_order_release);
        break;
      }
      case SvcType::kStatsReply: {
        std::lock_guard lk(stats_mu_);
        stats_rows_ = m.stats;
        stats_backlog_ = m.b;
        have_stats_ = true;
        stats_cv_.notify_all();
        break;
      }
      default:
        anomaly("unexpected_reply");
        break;
    }
    replies_.fetch_add(1, std::memory_order_release);
  }

  static constexpr std::uint64_t kMaxPolls = 1u << 16;

  const SvcShape& sh_;
  const SvcStream& st_;
  const std::uint64_t n_;
  int fd_ = -1;
  std::thread rx_;
  std::uint64_t burst_period_ns_ = 0;

  // Sender-owned.
  std::vector<std::uint8_t> wire_, enc_;
  std::uint64_t polls_sent_ = 0;
  std::uint64_t last_timed_id_ = 0;
  Samples gen_late_ns_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> poll_due_;

  // Shared.
  std::atomic<std::uint64_t> t0_{0};
  std::atomic<std::uint64_t> sent_{0}, replies_{0}, poll_replies_{0};
  std::atomic<std::int64_t> pending_{0};
  std::atomic<std::uint64_t> last_backlog_{~0ull};
  std::atomic<bool> dropped_{false}, shutdown_sent_{false}, shutdown_acked_{false};
  std::mutex cancel_mu_;
  std::vector<Job> cancel_q_;
  std::mutex stats_mu_;
  std::condition_variable stats_cv_;
  bool have_stats_ = false;
  std::vector<TenantStatRow> stats_rows_;
  std::uint64_t stats_backlog_ = 0;

  // Receiver-owned.
  std::vector<std::uint8_t> state_;         ///< 0 unanswered, 1 acked, 2 shed, 3 error
  std::vector<std::uint8_t> cancel_state_;  ///< same codes for the job's cancel
  std::vector<std::uint8_t> deliv_;
  std::vector<std::uint64_t> ack_mono_;
  std::vector<TenantLedger> tenants_;
  std::vector<std::uint64_t> poll_reply_;
  std::vector<std::uint64_t> windows_;
  Samples ack_ns_, late_client_ns_, late_server_ns_;
  std::map<std::string, std::uint64_t> anomalies_;
  std::atomic<std::uint64_t> delivered_total_{0};
};

/// The ledger audit after the final drain; every mismatch is recorded as a
/// failure in `res`.
void audit(const SvcStream& st, Client& c, const std::vector<TenantStatRow>& rows,
           std::uint64_t backlog, std::uint64_t expect_backlog, Result& res) {
  std::uint64_t unanswered = 0, undelivered = 0;
  std::vector<std::uint64_t> cancelled(c.ledger().size(), 0);
  for (std::uint64_t id = 1; id < c.last_timed_id(); ++id) {
    const std::uint8_t s = c.state()[id];
    if (s == 0) ++unanswered;
    if (s != 1 || id < st.first_timed) continue;
    const bool cancel_landed = c.cancel_state()[id] == 1;
    if (st.cancel[id] != 0 && c.cancel_state()[id] == 0) ++unanswered;
    if (!cancel_landed && c.deliveries()[id] == 0) ++undelivered;
    if (cancel_landed && c.deliveries()[id] == 0) ++cancelled[st.tenant[id]];
  }
  res.fail("unanswered_request", unanswered);
  res.fail("acked_job_undelivered", undelivered);
  for (const auto& [k, v] : c.anomaly_map()) res.fail(k, v);

  std::uint64_t mismatched = 0;
  std::vector<bool> seen(c.ledger().size(), false);
  for (const TenantStatRow& r : rows) {
    if (r.tenant >= c.ledger().size()) {
      ++mismatched;
      continue;
    }
    seen[r.tenant] = true;
    const TenantLedger& l = c.ledger()[r.tenant];
    mismatched += (r.acked != l.acked) + (r.cancel_reqs != l.cancel_acked) +
                  (r.delivered != l.delivered) + (r.cancelled != cancelled[r.tenant]) +
                  (r.shed != l.shed);
  }
  for (std::size_t t = 0; t < seen.size(); ++t) {
    if (!seen[t] && c.ledger()[t].acked != 0) ++mismatched;
  }
  res.fail("stats_ledger_mismatch", mismatched);
  if (backlog != expect_backlog) res.fail("backlog_mismatch");
}

Result run_svc_impl(const Args& a, const SvcShape& sh) {
  Result res;
  const SvcStream st = make_stream(sh, a.seed, a.seconds);
  const std::string log = a.work_dir + "/phd.log";
  fs::remove(log);
  std::string why;

  // ---- setup: start phd on a fresh WAL dir and preload it, three times, and
  // take phd's own CPU time until it has answered Stats; the last instance
  // carries the run.
  constexpr int kSetups = 3;
  std::vector<double> setup_s, setup_wall_s;
  std::unique_ptr<Phd> phd;
  std::unique_ptr<Client> cli;
  std::string dir;
  for (int i = 0; i < kSetups; ++i) {
    if (cli) {
      cli->shutdown(nullptr);
      cli->close_now();
      phd->wait(10.0, nullptr);
      fs::remove_all(dir);
    }
    dir = a.work_dir + "/wal";
    fs::remove_all(dir);
    // The client's ledger is the benchmark's own memory: allocate it first.
    cli = std::make_unique<Client>(sh, st);
    const std::uint64_t t0 = mono_ns();
    phd = std::make_unique<Phd>();
    std::vector<TenantStatRow> rows;
    std::uint64_t backlog = 0;
    if (!phd->start(a.phd, dir, a.trace, log, &why) || !cli->connect_to(phd->port()) ||
        !cli->preload(&why) || !cli->stats(rows, backlog, &why)) {
      res.fail("setup: " + (why.empty() ? std::string("cannot connect to phd") : why));
      res.attempted = std::max<std::uint64_t>(1, cli->sent());
      return res;
    }
    setup_s.push_back(phd->task_cpu_s());
    setup_wall_s.push_back(static_cast<double>(mono_ns() - t0) / 1e9);
    if (backlog != sh.preload) res.fail("setup: preload backlog mismatch");
  }

  // ---- timed phase + drain + audit.
  std::vector<TenantStatRow> before_rows, rows;
  std::uint64_t backlog = 0;
  cli->stats(before_rows, backlog, nullptr);
  const std::string m0 = a.trace ? scrape(phd->metrics_port()) : std::string{};
  const double alu_pre = alu_ns_per_step();
  const double cpu0 = phd->task_cpu_s();
  // Per 1 s window: phd CPU per delivered job, sampled beside the sender.
  std::vector<double> cpu_win;
  std::thread sampler([&] {
    while (cli->t0() == 0) ::usleep(100);
    const std::uint64_t t0 = cli->t0();
    sleep_until_mono(t0);
    double c0 = phd->task_cpu_s();
    std::uint64_t d0 = cli->delivered_total();
    for (std::uint64_t k = 1; static_cast<double>(k) <= a.seconds; ++k) {
      sleep_until_mono(t0 + k * kWindowNs);
      const double c1 = phd->task_cpu_s();
      const std::uint64_t d1 = cli->delivered_total();
      if (d1 > d0) cpu_win.push_back((c1 - c0) * 1e6 / static_cast<double>(d1 - d0));
      c0 = c1;
      d0 = d1;
    }
  });
  StealMeter steal;
  cli->timed(a.seconds);
  const double steal_frac = steal.lap();
  sampler.join();
  if (!cli->drain(sh.preload, 10.0, &why)) res.fail(why);
  const std::string m1 = a.trace ? scrape(phd->metrics_port()) : std::string{};
  const double alu_post = alu_ns_per_step();
  const bool got_stats = cli->stats(rows, backlog, &why);
  if (!got_stats) res.fail(why);
  ::rusage ru{};
  const bool shut = cli->shutdown(&why);
  if (!shut) res.fail(why);
  const bool clean = phd->wait(shut ? 15.0 : 0.5, &ru);
  if (shut && !clean) res.fail("phd did not exit cleanly after drain");
  const std::uint64_t outstanding = cli->outstanding();
  cli->close_now();
  if (cli->dropped() && !shut) res.fail("outstanding_on_dropped_connection", outstanding);
  if (got_stats) audit(st, *cli, rows, backlog, sh.preload, res);
  res.attempted = cli->sent();
  const std::uint64_t wal_bytes = dir_bytes(dir);

  // ---- restart: exec phd on the run's WAL dir until it answers Stats (a
  // full-WAL replay), four times; the fastest restart counts.
  constexpr int kRestarts = 4;
  std::vector<double> restart_s;
  std::string m_restart;
  for (int i = 0; i < kRestarts; ++i) {
    Phd again;
    Client probe(sh, st);
    std::vector<TenantStatRow> rrows;
    std::uint64_t rbacklog = 0;
    const std::uint64_t t0 = mono_ns();
    const bool up = again.start(a.phd, dir, a.trace, log, &why) &&
                    probe.connect_to(again.port()) && probe.stats(rrows, rbacklog, &why);
    const double took = static_cast<double>(mono_ns() - t0) / 1e9;
    if (up) {
      restart_s.push_back(took);
      if (a.trace && i == 0) m_restart = scrape(again.metrics_port());
      if (rbacklog != sh.preload) res.fail("restart_backlog_mismatch");
      std::uint64_t diff = rrows.size() != rows.size();
      for (std::size_t j = 0; j < std::min(rrows.size(), rows.size()); ++j) {
        const TenantStatRow &x = rrows[j], &y = rows[j];
        diff += x.tenant != y.tenant || x.acked != y.acked || x.cancel_reqs != y.cancel_reqs ||
                x.delivered != y.delivered || x.cancelled != y.cancelled ||
                x.requeued != y.requeued;
      }
      res.fail("restart_ledger_mismatch", diff);
      if (!probe.shutdown(&why)) res.fail("restart: " + why);
      if (!again.wait(15.0, nullptr)) res.fail("restarted phd did not exit cleanly");
    } else {
      res.fail("restart: " + (why.empty() ? std::string("cannot connect") : why));
    }
    probe.close_now();
    res.attempted += probe.sent();
    if (!up) break;
  }

  // ---- metrics.
  std::uint64_t history = 0;  ///< jobs phd acked over the run, preload included
  for (std::uint64_t id = 1; id < cli->last_timed_id(); ++id) history += cli->state()[id] == 1;
  const double replay_s =
      restart_s.empty() ? 0.0 : *std::min_element(restart_s.begin(), restart_s.end());
  const double delivered = static_cast<double>(cli->delivered_total());
  const double cpu_s = pb::cpu_seconds(ru) - cpu0;
  std::vector<double> win;
  const auto& w = cli->window_deliveries();
  for (std::size_t i = 0; i < w.size() && static_cast<double>(i + 1) <= a.seconds; ++i) {
    win.push_back(static_cast<double>(w[i]));
  }
  Samples& ack = cli->ack_ns();
  Samples& late = cli->late_client_ns();
  res.e2e["throughput_per_s"] = replay_s > 0 ? static_cast<double>(history) / replay_s : 0.0;
  res.e2e["cpu_us_per_item"] = quantile(cpu_win, kCostQ);
  res.e2e["rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;
  res.e2e["setup_s"] = median(setup_s);

  res.report["ack_p50_us"] = ack.pct(50) / 1e3;
  res.report["ack_p90_us"] = ack.pct(90) / 1e3;
  res.report["ack_p99_us"] = ack.pct(99) / 1e3;
  res.report["ack_p999_us"] = ack.pct(99.9) / 1e3;
  res.report["ack_samples"] = static_cast<double>(ack.size());
  res.report["lateness_p50_ms"] = late.pct(50) / 1e6;
  res.report["lateness_p99_ms"] = late.pct(99) / 1e6;
  res.report["lateness_samples"] = static_cast<double>(late.size());
  res.report["delivered_per_s"] = median(win);
  res.report["windows"] = static_cast<double>(cpu_win.size());
  res.report["server_cpu_us_per_job"] = delivered > 0 ? cpu_s * 1e6 / delivered : 0.0;
  res.report["restart_s"] = replay_s;
  res.report["history_jobs"] = static_cast<double>(history);
  res.report["setup_wall_s"] = median(setup_wall_s);
  res.report["gen_late_p99_us"] = cli->gen_late_ns().pct(99) / 1e3;
  res.report["gen_late_max_us"] = cli->gen_late_ns().max() / 1e3;
  res.report["wal_mb"] = static_cast<double>(wal_bytes) / 1048576.0;
  res.report["host_steal_frac"] = steal_frac;
  res.report["alu_ns_per_step"] = std::max(alu_pre, alu_post);

  if (a.trace) {
    auto& pl = res.per_layer;
    Samples& late_srv = cli->late_server_ns();
    pl["edge.reply_overhead_us"] = (late.pct(50) - late_srv.pct(50)) / 1e3;
    pl["edge.gen_late_p99_us"] = res.report["gen_late_p99_us"];
    pl["edge.gen_late_max_us"] = res.report["gen_late_max_us"];
    pl["e2e.ack_p50_us"] = res.report["ack_p50_us"];
    pl["e2e.ack_p90_us"] = res.report["ack_p90_us"];
    pl["e2e.ack_p99_us"] = res.report["ack_p99_us"];
    pl["e2e.ack_p999_us"] = res.report["ack_p999_us"];
    pl["e2e.ack_samples"] = res.report["ack_samples"];
    pl["e2e.lateness_p50_ms"] = res.report["lateness_p50_ms"];
    pl["e2e.lateness_p99_ms"] = res.report["lateness_p99_ms"];
    pl["e2e.restart_s"] = replay_s;
    pl["recover.replay_s"] = phase_max_s(m_restart, "recover_replay");

    // Server ledger deltas over the timed phase + drain (exact, WAL-derived).
    double d_req = 0, d_del = 0, d_can = 0, d_creq = 0, d_acked = 0;
    for (const auto& r : rows) {
      d_req += static_cast<double>(r.requeued);
      d_del += static_cast<double>(r.delivered);
      d_can += static_cast<double>(r.cancelled);
      d_creq += static_cast<double>(r.cancel_reqs);
      d_acked += static_cast<double>(r.acked);
    }
    for (const auto& r : before_rows) {
      d_req -= static_cast<double>(r.requeued);
      d_del -= static_cast<double>(r.delivered);
      d_can -= static_cast<double>(r.cancelled);
      d_creq -= static_cast<double>(r.cancel_reqs);
      d_acked -= static_cast<double>(r.acked);
    }
    const double pops = d_del + d_req + d_can + d_creq;
    pl["svc.deliveries_per_pop"] = pops > 0 ? d_del / pops : 0.0;
    pl["svc.requeued_per_delivery"] = d_del > 0 ? d_req / d_del : 0.0;

    // phd's own telemetry over the same window (/metrics.json deltas).
    TelemetryDelta d;
    if (!m0.empty() && !m1.empty() && metrics_delta(m0, m1, d)) {
      const double commits = d.count("svc_commit");
      const double wall = static_cast<double>(mono_ns() - cli->t0()) / 1e9;
      pl["ingest.flush_us"] = d.mean_us("ingest_flush");
      pl["ingest.runs_per_commit"] = commits > 0 ? d.counter("ingest_runs") / commits : 0.0;
      pl["ingest.staged_per_commit"] = commits > 0 ? d.counter("ingest_staged") / commits : 0.0;
      pl["wal.bytes_per_job"] = d_acked > 0 ? d.counter("wal_bytes") / d_acked : 0.0;
      pl["wal.appends_per_s"] = wall > 0 ? d.counter("wal_appends") / wall : 0.0;
      pl["shard.route_us"] = d.mean_us("shard_route");
      pl["shard.pull_us"] = d.mean_us("shard_pull");
      pl["shard.merge_us"] = d.mean_us("shard_merge");
      pl["shard.putback_us"] = d.mean_us("shard_putback");
      pl["shard.putbacks_per_pop"] = pops > 0 ? d.counter("shard_putbacks") / pops : 0.0;
      const double inner_cycles = d.counter("cycles");
      pl["shard.hint_skip_frac"] =
          inner_cycles > 0 ? d.counter("shard_hint_skips") / inner_cycles : 0.0;
      const double sharded_cycles = d.count("shard_route");
      pl["shard.merge_width_avg"] =
          sharded_cycles > 0 ? d.counter("shard_merge_width") / sharded_cycles : 0.0;
      pl["heap.root_us"] = d.mean_us("root_work");
      pl["heap.odd_half_us"] = d.mean_us("odd_half_step");
      pl["heap.even_half_us"] = d.mean_us("even_half_step");
      pl["heap.items_per_cycle"] =
          inner_cycles > 0 ? d.counter("items_deleted") / inner_cycles : 0.0;
      pl["heap.steals_per_cycle"] = inner_cycles > 0 ? d.counter("steals") / inner_cycles : 0.0;
    } else {
      res.fail("trace: phd metrics endpoint unreadable");
    }

    // Client spans: schedule->ack and poll->reply, keyed by request id.
    SpanLog spans;
    const std::uint32_t s_ack = spans.intern("client.schedule_to_ack");
    const std::uint32_t s_poll = spans.intern("client.poll_to_reply");
    spans.reserve(st.size() + cli->polls_sent());
    for (std::uint64_t id = st.first_timed; id < cli->last_timed_id(); ++id) {
      if (cli->ack_mono()[id] != 0) spans.add(s_ack, id, cli->due_of(id), cli->ack_mono()[id]);
    }
    for (std::uint64_t k = 0; k < cli->polls_sent(); ++k) {
      if (cli->poll_reply(k) != 0) spans.add(s_poll, k, cli->poll_due(k), cli->poll_reply(k));
    }

    // In-process replay of the same stream against SchedulerCore.
    fs::remove_all(dir);
    ReplayOut rp = run_replay(sh, st, a.seconds, a.work_dir + "/replay-wal");
    fs::remove_all(a.work_dir + "/replay-wal");
    for (const auto& [k, v] : rp.failures) res.fail("replay: " + k, v);
    pl["edge.ack_overhead_us"] = (ack.pct(50) - rp.ack_ns.pct(50)) / 1e3;
    pl["svc.poll_due_p50_us"] = rp.poll_ns.pct(50) / 1e3;
    pl["svc.poll_due_p99_us"] = rp.poll_ns.pct(99) / 1e3;
    pl["svc.poll_due_count"] = static_cast<double>(rp.poll_ns.size());
    pl["svc.commit_p50_us"] = rp.commit_ns.pct(50) / 1e3;
    pl["svc.commit_p99_us"] = rp.commit_ns.pct(99) / 1e3;
    pl["svc.commit_count"] = static_cast<double>(rp.commit_ns.size());
    pl["svc.busy_frac"] = rp.busy_frac;
    pl["wal.append_p50_us"] = rp.wal_append_p50_us;
    pl["wal.append_p99_us"] = rp.wal_append_p99_us;
    pl["trace.overhead_frac"] = rp.overhead_frac;
    spans.append(rp.spans, 1);
    double top_s = 0;
    res.layers = rp.spans.layers(0, &top_s);
    res.unattributed_s = rp.wall_s - top_s;
    pl["trace.unattributed_s"] = res.unattributed_s;
    pl["trace.unattributed_frac"] = rp.wall_s > 0 ? res.unattributed_s / rp.wall_s : 0.0;
    for (const auto& [name, l] : res.layers) pl["span." + name + ".self_s"] = l.self_s;
    res.trace_file = a.work_dir + "/" + a.workload + ".spans.csv";
    if (!spans.write_csv(res.trace_file)) res.fail("trace: cannot write span file");
  }
  fs::remove_all(dir);
  res.report["failed_frac"] =
      res.attempted > 0 ? static_cast<double>(res.failed) / static_cast<double>(res.attempted) : 1.0;
  return res;
}

}  // namespace

Result run_svc(const Args& a) {
  SvcShape sh;
  svc_shape(a.workload, sh);
  return run_svc_impl(a, sh);
}

}  // namespace pb
