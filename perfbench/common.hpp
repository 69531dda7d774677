// Shared pieces of the pbench driver: clocks, exact-sample percentiles, the
// benchmark's own span log (with self time and an unattributed residue), and
// the result document every workload fills in.
#pragma once

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "telemetry/json.hpp"

namespace pb {

inline std::uint64_t clock_ns(clockid_t id) {
  ::timespec ts{};
  ::clock_gettime(id, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}
inline std::uint64_t mono_ns() { return clock_ns(CLOCK_MONOTONIC); }
/// Wall clock: phd stamps deadlines with CLOCK_REALTIME, so lateness is
/// measured against the same clock on the same host.
inline std::uint64_t real_ns() { return clock_ns(CLOCK_REALTIME); }

inline void sleep_until_mono(std::uint64_t t_ns) {
  ::timespec ts{};
  ts.tv_sec = static_cast<time_t>(t_ns / 1000000000ull);
  ts.tv_nsec = static_cast<long>(t_ns % 1000000000ull);
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

/// Host CPU time stolen by the hypervisor, as a share of all CPU time,
/// between two calls (the constructor primes). A window with a high share
/// measured the neighbours as much as the program.
class StealMeter {
 public:
  StealMeter() { read(total0_, steal0_); }
  /// Share since construction or the previous lap(); starts a new lap.
  double lap() {
    double total = total0_, steal = steal0_;
    read(total, steal);
    const double s = total > total0_ ? (steal - steal0_) / (total - total0_) : 0.0;
    total0_ = total;
    steal0_ = steal;
    return s;
  }

 private:
  static void read(double& total, double& steal) {
    std::FILE* f = std::fopen("/proc/stat", "r");
    if (f == nullptr) return;
    unsigned long long v[8] = {};
    if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2],
                    &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
      total = 0;
      for (unsigned long long x : v) total += static_cast<double>(x);
      steal = static_cast<double>(v[7]);
    }
    std::fclose(f);
  }
  double total0_ = 0, steal0_ = 0;
};

/// Keeps the chain below observable, so the optimizer cannot drop it.
inline volatile std::uint64_t g_alu_sink = 0;

/// Nanoseconds per step of a dependent multiply-add chain, in this thread's
/// CPU time. Read while the program under test is idle, it tracks how fast a
/// core of the host runs for the benchmark: it slows when another guest
/// shares the physical core or the host lowers the clock, and the hypervisor
/// counts neither as steal.
inline double alu_ns_per_step() {
  constexpr std::uint64_t kSteps = 4000000;
  ::timespec t0{}, t1{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t0);
  std::uint64_t x = 1;
  for (std::uint64_t i = 0; i < kSteps; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
  }
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t1);
  g_alu_sink = x;
  const double ns = static_cast<double>(t1.tv_sec - t0.tv_sec) * 1e9 +
                    static_cast<double>(t1.tv_nsec - t0.tv_nsec);
  return ns / static_cast<double>(kSteps);
}

/// user+sys CPU seconds of a finished child (wait4) or of this process.
inline double cpu_seconds(const ::rusage& ru) {
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/// Every sample kept; percentiles are exact order statistics (nearest rank).
class Samples {
 public:
  void reserve(std::size_t n) { v_.reserve(n); }
  void add(double x) { v_.push_back(x); sorted_ = false; }
  void merge(const Samples& o) {
    v_.insert(v_.end(), o.v_.begin(), o.v_.end());
    sorted_ = false;
  }
  std::size_t size() const noexcept { return v_.size(); }
  bool empty() const noexcept { return v_.empty(); }
  double pct(double p) {
    if (v_.empty()) return 0.0;
    if (!sorted_) {
      std::sort(v_.begin(), v_.end());
      sorted_ = true;
    }
    const double rank = p / 100.0 * static_cast<double>(v_.size());
    std::size_t i = rank <= 1.0 ? 0 : static_cast<std::size_t>(rank + 0.999999) - 1;
    return v_[std::min(i, v_.size() - 1)];
  }
  double max() { return pct(100.0); }

 private:
  std::vector<double> v_;
  bool sorted_ = true;
};

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated q-quantile (q in [0, 1]); 0 for no values.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t i = static_cast<std::size_t>(pos);
  if (i + 1 >= v.size()) return v.back();
  return v[i] + (pos - static_cast<double>(i)) * (v[i + 1] - v[i]);
}

/// The gated rates and costs are measured per window (a 1 s slice of a
/// service run, one simulation run of des_torus) and summarised over the
/// windows by a quartile: the lower quartile for CPU per item, the upper one
/// for throughput. Interference from other guests of a shared host (steal,
/// a neighbour on the same physical core, a lowered clock) only ever adds
/// time, so the quieter windows estimate the program's own cost with less
/// run-to-run spread than the median, as long as a quarter of a run's
/// windows are quiet; a regression that slows every window still moves the
/// quartile in full. The noise itself is reported beside the figures
/// (host_steal_frac, gen_late_*, alu_ns_per_step), not acted on.
inline constexpr double kCostQ = 0.25;
inline constexpr double kRateQ = 0.75;

/// The benchmark's own spans, kept in memory and written out at the end.
/// A span's parent is another span on the same thread that encloses it, so
/// self time = duration minus the children's durations.
class SpanLog {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  struct Span {
    std::uint32_t name = 0;
    std::uint32_t thread = 0;
    std::uint32_t parent = kNoParent;  ///< index into spans()
    std::uint64_t id = 0;              ///< request / cycle id shared by related spans
    std::uint64_t t0 = 0, t1 = 0;      ///< CLOCK_MONOTONIC ns
  };

  std::uint32_t intern(const std::string& name) {
    auto it = ids_.find(name);
    if (it != ids_.end()) return it->second;
    names_.push_back(name);
    return ids_[name] = static_cast<std::uint32_t>(names_.size() - 1);
  }
  void reserve(std::size_t n) { spans_.reserve(n); }
  std::uint32_t add(std::uint32_t name, std::uint64_t id, std::uint64_t t0, std::uint64_t t1,
                    std::uint32_t parent = kNoParent, std::uint32_t thread = 0) {
    spans_.push_back(Span{name, thread, parent, id, t0, t1});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }
  /// Opens a span whose end is filled in by close() (for parents).
  std::uint32_t open(std::uint32_t name, std::uint64_t id, std::uint64_t t0,
                     std::uint32_t parent = kNoParent, std::uint32_t thread = 0) {
    return add(name, id, t0, t0, parent, thread);
  }
  void close(std::uint32_t idx, std::uint64_t t1) { spans_[idx].t1 = t1; }
  void append(const SpanLog& other, std::uint32_t thread) {
    const std::uint32_t base = static_cast<std::uint32_t>(spans_.size());
    for (Span s : other.spans_) {
      s.name = intern(other.names_[s.name]);
      s.thread = thread;
      if (s.parent != kNoParent) s.parent += base;
      spans_.push_back(s);
    }
  }

  struct Layer {
    std::uint64_t count = 0;
    double total_s = 0, self_s = 0;
  };
  /// Per span name: count, inclusive and self seconds. `top_s` receives the
  /// summed duration of parentless spans on `thread` (for the residue).
  std::map<std::string, Layer> layers(std::uint32_t thread, double* top_s) const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent != kNoParent) child[s.parent] += static_cast<double>(s.t1 - s.t0) / 1e9;
    }
    std::map<std::string, Layer> out;
    double top = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double d = static_cast<double>(s.t1 - s.t0) / 1e9;
      Layer& l = out[names_[s.name]];
      ++l.count;
      l.total_s += d;
      l.self_s += d - child[i];
      if (s.parent == kNoParent && s.thread == thread) top += d;
    }
    if (top_s != nullptr) *top_s = top;
    return out;
  }

  /// One line per span: name,id,parent,thread,t0_ns,t1_ns.
  bool write_csv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("name,id,parent,thread,t0_ns,t1_ns\n", f);
    for (const Span& s : spans_) {
      std::fprintf(f, "%s,%llu,%lld,%u,%llu,%llu\n", names_[s.name].c_str(),
                   static_cast<unsigned long long>(s.id),
                   s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent),
                   s.thread, static_cast<unsigned long long>(s.t0),
                   static_cast<unsigned long long>(s.t1));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> ids_;
  std::vector<Span> spans_;
};

/// What one workload run produced. perfbench/run.py turns it into the
/// one-line result and the readable report.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::uint64_t> failures;  ///< reason -> count
  std::map<std::string, double> e2e;              ///< gated metrics
  std::map<std::string, double> report;           ///< named, reported, not gated
  std::map<std::string, double> per_layer;
  std::map<std::string, SpanLog::Layer> layers;   ///< benchmark spans (traced)
  double unattributed_s = 0;
  std::string trace_file;

  void fail(const std::string& why, std::uint64_t n = 1) {
    if (n == 0) return;
    failures[why] += n;
    failed += n;
    correct = false;
  }
  void write_json(std::ostream& os) const;
};

inline void Result::write_json(std::ostream& os) const {
  ph::telemetry::JsonWriter w(os);
  auto map_obj = [&w](const char* key, const std::map<std::string, double>& m) {
    w.key(key).begin_object();
    for (const auto& [k, v] : m) w.kv(k, v);
    w.end_object();
  };
  w.begin_object();
  w.kv("correct", correct).kv("attempted", attempted).kv("failed", failed);
  w.key("failures").begin_object();
  for (const auto& [k, v] : failures) w.kv(k, v);
  w.end_object();
  map_obj("e2e", e2e);
  map_obj("report", report);
  map_obj("per_layer", per_layer);
  w.key("layers").begin_object();
  for (const auto& [k, l] : layers) {
    w.key(k).begin_object();
    w.kv("count", l.count).kv("total_s", l.total_s).kv("self_s", l.self_s);
    w.end_object();
  }
  w.end_object();
  w.kv("unattributed_s", unattributed_s).kv("trace_file", trace_file);
  w.end_object();
  os << "\n";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string phd;       ///< path to the phd binary (svc workloads)
  std::string work_dir;  ///< scratch: WAL dirs, logs, trace files
};

Result run_svc(const Args& a);
Result run_des(const Args& a);

}  // namespace pb
