#include "svc_replay.hpp"

#include <filesystem>
#include <vector>

#include "svc/core.hpp"
#include "telemetry/telemetry.hpp"

namespace pb {

namespace {
std::uint64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }
}  // namespace

ReplayOut run_replay(const SvcShape& sh, const SvcStream& st, double seconds,
                     const std::string& dir) {
  using ph::svc::Admit;
  using ph::svc::Job;
  ReplayOut out;
  std::filesystem::remove_all(dir);
  ph::svc::SvcConfig cfg;  // phd's defaults
  cfg.dir = dir;
  ph::svc::SchedulerCore core(cfg);
  auto fail = [&](const char* why, std::uint64_t n = 1) {
    if (n != 0) out.failures[why] += n;
  };

  // Preload, paced like the TCP setup.
  {
    const std::uint64_t kBurst = 256;
    const std::uint64_t period =
        static_cast<std::uint64_t>(static_cast<double>(kBurst) / sh.preload_rate * 1e9);
    const std::uint64_t t0 = mono_ns();
    std::uint64_t b = 0;
    for (std::uint64_t id = 1; id < st.first_timed; id += kBurst, ++b) {
      sleep_until_mono(t0 + b * period);
      const std::uint64_t end = std::min<std::uint64_t>(id + kBurst, st.first_timed);
      for (std::uint64_t j = id; j < end; ++j) {
        if (core.schedule(st.tenant[j], st.delay_ns[j], j, st.payload(j), 0) != Admit::kOk) {
          fail("preload_shed");
        }
      }
      core.commit();
    }
  }

  ph::telemetry::Registry::instance().reset();
  const std::uint32_t s_tick = out.spans.intern("svc.tick");
  const std::uint32_t s_sched = out.spans.intern("svc.schedule");
  const std::uint32_t s_cancel = out.spans.intern("svc.cancel");
  const std::uint32_t s_commit = out.spans.intern("svc.commit");
  const std::uint32_t s_poll = out.spans.intern("svc.poll_due");
  out.spans.reserve(st.size() + st.size() / 8);

  // Spans are recorded in alternate 250 ms windows; the untraced windows
  // give the CPU-per-op baseline for the tracing overhead.
  constexpr std::uint64_t kWindow = 250000000;
  const std::uint64_t burst_period =
      static_cast<std::uint64_t>(static_cast<double>(sh.burst) / sh.rate * 1e9);
  const std::uint64_t t0 = mono_ns() + 2000000;
  const std::uint64_t t_end = t0 + static_cast<std::uint64_t>(seconds * 1e9);
  std::vector<std::uint8_t> deliv(st.size(), 0);
  std::vector<Job> cancel_now, cancel_next, due;
  std::int64_t pending = 0;
  std::uint64_t nb = 0, np = 0, last_id = st.first_timed;
  std::uint64_t win = ~0ull, win_cpu0 = 0, win_t0 = 0, win_ops = 0;
  double cpu_traced = 0, cpu_untraced = 0, ops_traced = 0, ops_untraced = 0;
  bool traced = false;
  auto close_window = [&](std::uint64_t now) {
    if (win == ~0ull) return;
    const double cpu = static_cast<double>(thread_cpu_ns() - win_cpu0);
    (traced ? cpu_traced : cpu_untraced) += cpu;
    (traced ? ops_traced : ops_untraced) += static_cast<double>(win_ops);
    if (traced) out.wall_s += static_cast<double>(now - win_t0) / 1e9;
  };
  auto deliver = [&](const std::vector<Job>& jobs) {
    for (const Job& j : jobs) {
      if (j.id == 0 || j.id >= st.size() || j.tenant != st.tenant[j.id] ||
          j.payload0 != st.payload(j.id)) {
        fail("delivered_never_sent");
        continue;
      }
      if (++deliv[j.id] > 1) fail("delivered_twice");
      if (j.id < st.first_timed) fail("far_future_job_delivered");
      if (st.cancel[j.id] == 0) --pending;
    }
  };

  while (true) {
    const std::uint64_t due_b = t0 + nb * burst_period;
    const std::uint64_t due_p = t0 + np * sh.poll_period_ns;
    if (due_b >= t_end && due_p >= t_end) break;
    const std::uint64_t at = std::min(due_b, due_p);
    sleep_until_mono(at);
    const std::uint64_t w = (at - t0) / kWindow;
    if (w != win) {
      const std::uint64_t now = mono_ns();
      close_window(now);
      win = w;
      traced = (w % 2) == 0;
      win_cpu0 = thread_cpu_ns();
      win_t0 = now;
      win_ops = 0;
    }
    if (due_b == at) {
      const std::uint64_t first = st.first_timed + nb * sh.burst;
      const std::uint64_t end = std::min<std::uint64_t>(first + sh.burst, st.size());
      const std::uint64_t tt0 = mono_ns();
      const std::uint32_t tick = traced ? out.spans.open(s_tick, nb, tt0) : 0;
      for (std::uint64_t id = first; id < end; ++id) {
        std::uint64_t deadline = 0;
        const std::uint64_t a = traced ? mono_ns() : 0;
        const Admit r = core.schedule(st.tenant[id], st.delay_ns[id], id, st.payload(id), 0,
                                      &deadline);
        if (traced) out.spans.add(s_sched, id, a, mono_ns(), tick);
        if (r != Admit::kOk) {
          fail("shed_or_error");
          continue;
        }
        if (st.cancel[id] != 0) {
          Job j;
          j.deadline_ns = deadline;
          j.id = id;
          j.tenant = st.tenant[id];
          cancel_next.push_back(j);
        } else {
          ++pending;
        }
      }
      for (const Job& j : cancel_now) {
        const std::uint64_t a = traced ? mono_ns() : 0;
        const Admit r = core.cancel(j.tenant, j.deadline_ns, j.id);
        if (traced) out.spans.add(s_cancel, j.id, a, mono_ns(), tick);
        if (r != Admit::kOk) fail("shed_or_error");
      }
      win_ops += (end - first) + cancel_now.size() + 1;
      // Cancels go out with the next burst, after the ack, as over TCP.
      cancel_now.swap(cancel_next);
      cancel_next.clear();
      const std::uint64_t c0 = mono_ns();
      const std::size_t admitted = core.commit();
      const std::uint64_t c1 = mono_ns();
      if (admitted > 0) out.commit_ns.add(static_cast<double>(c1 - c0));
      if (traced) {
        out.spans.add(s_commit, nb, c0, c1, tick);
        out.spans.close(tick, c1);
      }
      for (std::uint64_t id = first; id < end; ++id) {
        out.ack_ns.add(static_cast<double>(c1 - due_b));
      }
      last_id = end;
      ++nb;
    }
    if (due_p == at) {
      due.clear();
      const std::uint64_t p0 = mono_ns();
      core.poll_due(sh.poll_max, due);
      const std::uint64_t p1 = mono_ns();
      out.poll_ns.add(static_cast<double>(p1 - p0));
      if (traced) out.spans.add(s_poll, np, p0, p1);
      ++win_ops;
      deliver(due);
      ++np;
    }
  }
  close_window(mono_ns());
  double top = 0;
  out.spans.layers(0, &top);
  out.busy_frac = out.wall_s > 0 ? top / out.wall_s : 0.0;
  if (ops_traced > 0 && ops_untraced > 0 && cpu_untraced > 0) {
    out.overhead_frac = (cpu_traced / ops_traced) / (cpu_untraced / ops_untraced) - 1.0;
  }
  const ph::telemetry::MetricsSnapshot snap = ph::telemetry::Registry::instance().collect();
  const auto& wal = snap.phase(ph::telemetry::Phase::kWalAppend);
  out.wal_append_p50_us = static_cast<double>(wal.percentile(50)) / 1e3;
  out.wal_append_p99_us = static_cast<double>(wal.percentile(99)) / 1e3;

  // Drain: every acked, uncancelled job delivered; only the preload left.
  for (const Job& j : cancel_now) {
    if (core.cancel(j.tenant, j.deadline_ns, j.id) != Admit::kOk) fail("shed_or_error");
  }
  const std::uint64_t until = mono_ns() + 10ull * 1000000000ull;
  while (mono_ns() < until) {
    due.clear();
    core.poll_due(sh.poll_max, due);
    deliver(due);
    if (pending == 0 && core.backlog() == sh.preload) break;
    sleep_until_mono(mono_ns() + sh.poll_period_ns);
  }
  std::uint64_t undelivered = 0;
  for (std::uint64_t id = st.first_timed; id < last_id; ++id) {
    if (st.cancel[id] == 0 && deliv[id] == 0) ++undelivered;
  }
  fail("acked_job_undelivered", undelivered);
  if (core.backlog() != sh.preload) fail("backlog_mismatch");
  std::string why;
  if (!core.check_invariants(&why)) fail("ledger_invariant");
  return out;
}

}  // namespace pb
