// The service workloads' traffic: the shape of each workload and the seeded
// request stream, generated in full before any request is sent, so the TCP
// run and the in-process replay see the same jobs and phd sees only them.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace pb {

struct SvcShape {
  // Preload (setup): far-future jobs, round-robin over tenants, paced below
  // phd's default admission rate (250k jobs/s shared) so none is shed.
  std::uint64_t preload = 0;
  double preload_rate = 200000.0;
  std::uint64_t preload_delay_min_ns = 3600ull * 1000000000ull;
  std::uint64_t preload_delay_max_ns = 7200ull * 1000000000ull;
  // Timed phase: open loop on one connection. The defaults are the shallow
  // 50k/s Zipf shape first sized for the service; svc_deep overrides them.
  double rate = 50000.0;             ///< schedules per second
  std::size_t burst = 32;            ///< schedules per send
  std::uint32_t tenants = 64;
  double zipf_s = 1.0;               ///< 0 = uniform tenants
  std::uint64_t delay_max_ns = 50000000;  ///< job delay U(0, 50 ms)
  double cancel_frac = 0.0;          ///< share of acked timed jobs cancelled
  std::uint64_t poll_max = 1024;
  std::uint64_t poll_period_ns = 10000000;  ///< one PollDue per 10 ms
};

inline bool svc_shape(const std::string& workload, SvcShape& s) {
  if (workload == "svc_deep") {
    s = SvcShape{};
    s.preload = 262144;
    s.rate = 20000.0;
    s.zipf_s = 0.0;
    s.cancel_frac = 0.10;
    s.poll_max = 512;
    return true;
  }
  return false;
}

/// Job ids are 1-based (0 is never a job, so an ack with id 0 is the
/// shutdown ack). Preload ids are [1, preload], timed ids follow.
struct SvcStream {
  std::uint64_t first_timed = 1;
  std::vector<std::uint32_t> tenant;   ///< by id
  std::vector<std::uint64_t> delay_ns; ///< by id
  std::vector<std::uint8_t> cancel;    ///< by id: cancel once acked
  std::uint64_t seed = 0;

  std::uint64_t size() const noexcept { return tenant.size(); }
  std::uint64_t payload(std::uint64_t id) const noexcept {
    return ph::SplitMix64(seed ^ (id * 0x9e3779b97f4a7c15ull)).next();
  }
};

inline SvcStream make_stream(const SvcShape& s, std::uint64_t seed, double seconds) {
  SvcStream st;
  st.seed = seed;
  const std::uint64_t timed =
      static_cast<std::uint64_t>(std::ceil(s.rate * seconds / static_cast<double>(s.burst))) *
          s.burst + s.burst;
  const std::uint64_t n = 1 + s.preload + timed;
  st.first_timed = 1 + s.preload;
  st.tenant.assign(n, 0);
  st.delay_ns.assign(n, 0);
  st.cancel.assign(n, 0);
  ph::Xoshiro256 rng(seed * 0x2545f4914f6cdd1dull + 17);
  for (std::uint64_t id = 1; id < st.first_timed; ++id) {
    st.tenant[id] = static_cast<std::uint32_t>((id - 1) % s.tenants);
    st.delay_ns[id] = s.preload_delay_min_ns +
                      rng.next_below(s.preload_delay_max_ns - s.preload_delay_min_ns);
  }
  std::vector<double> cdf(s.tenants);
  double sum = 0;
  for (std::uint32_t t = 0; t < s.tenants; ++t) {
    sum += s.zipf_s == 0.0 ? 1.0 : 1.0 / std::pow(static_cast<double>(t + 1), s.zipf_s);
    cdf[t] = sum;
  }
  for (double& c : cdf) c /= sum;
  for (std::uint64_t id = st.first_timed; id < n; ++id) {
    const double u = rng.next_double();
    std::uint32_t t = 0;
    while (t + 1 < s.tenants && cdf[t] < u) ++t;
    st.tenant[id] = t;
    st.delay_ns[id] = rng.next_below(s.delay_max_ns);
    st.cancel[id] = rng.next_double() < s.cancel_frac ? 1 : 0;
  }
  return st;
}

}  // namespace pb
