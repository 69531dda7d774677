// In-process replay of a service workload's seeded stream against
// SchedulerCore, at the TCP run's pace, with the benchmark's spans around
// each schedule(), cancel(), commit() and poll_due(). It gives the service
// core's cost without the phd edge (traced runs only).
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common.hpp"
#include "svc_stream.hpp"

namespace pb {

struct ReplayOut {
  Samples ack_ns;     ///< due time of a schedule -> end of the commit that made it durable
  Samples poll_ns;    ///< poll_due() durations
  Samples commit_ns;  ///< commit() durations (commits that admitted something)
  double busy_frac = 0;       ///< share of traced wall time inside the core's calls
  double overhead_frac = 0;   ///< CPU per op, traced windows over untraced ones, minus 1
  double wal_append_p50_us = 0, wal_append_p99_us = 0;
  double wall_s = 0;          ///< traced wall time (the residue's base)
  SpanLog spans;
  std::map<std::string, std::uint64_t> failures;
};

ReplayOut run_replay(const SvcShape& sh, const SvcStream& st, double seconds,
                     const std::string& dir);

}  // namespace pb
