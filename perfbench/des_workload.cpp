// des_torus: the paper's own application, in process. The 256x256 torus
// queueing model (65,536 LPs, grain 128) runs to a fixed horizon through
// ParallelHeapEngine (r = 512, 3 think lanes + the driver = 4 threads), over
// and over for the measured time. Every run's processed count and
// fingerprint must equal the serial binary-heap reference computed in setup.
#include <sys/resource.h>

#include <algorithm>
#include <vector>

#include "common.hpp"
#include "core/engine.hpp"
#include "sim/event.hpp"
#include "sim/model.hpp"
#include "sim/network.hpp"
#include "sim/serial_sim.hpp"
#include "telemetry/telemetry.hpp"
#include "util/cacheline.hpp"
#include "workloads/grain.hpp"

namespace pb {

namespace {

using ph::sim::Event;

constexpr double kHorizon = 32.0;        ///< ~0.78M events per run
constexpr std::size_t kNodeCapacity = 512;
constexpr unsigned kThinkLanes = 3;
constexpr std::uint64_t kGrain = 128;
/// Every simulation run starts a new engine and its think threads, and the
/// process's peak RSS grows by ~0.55 MB per run, so rss_mb is read after a
/// fixed number of runs rather than at the end, where it would count how
/// fast the host ran.
constexpr std::uint64_t kRssRuns = 8;

/// Keeps the grain spin observable, so the optimizer cannot drop it.
volatile std::uint64_t g_sink = 0;

struct Lane {
  std::uint64_t processed = 0, fingerprint = 0, deferred = 0, sink = 0;
  std::uint64_t cycle = 0, last_start = 0;
  Samples cycle_ns;  ///< lane 0 only: start-to-start period of its think calls
  std::vector<SpanLog::Span> spans;
};

struct SimRun {
  std::uint64_t processed = 0, fingerprint = 0, deferred = 0;
  double cpu_s = 0;
  Samples cycle_ns;  ///< engine cycle period (lane 0's think start to start)
  ph::EngineReport rep;
};

double self_cpu_s() {
  ::rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return cpu_seconds(ru);
}

/// One run of the model to the horizon. The think callback is the engine
/// simulator's (sim/engine_sim.hpp): conservative window from the batch's
/// GVT, children beyond the horizon dropped, unsafe events deferred.
SimRun run_once(const ph::sim::Model& model, bool traced, SpanLog& spans,
                std::uint64_t run_id) {
  ph::EngineConfig cfg;
  cfg.node_capacity = kNodeCapacity;
  cfg.think_threads = kThinkLanes;
  ph::ParallelHeapEngine<Event, ph::sim::EventOrder> engine(cfg);
  {
    std::vector<Event> init;
    for (const Event& e : model.initial_events()) {
      if (e.ts < kHorizon) init.push_back(e);
    }
    engine.seed(init);
  }
  std::vector<ph::Padded<Lane>> lanes(kThinkLanes);
  const double lookahead = model.lookahead();
  const std::uint64_t grain = model.config().grain;

  const double cpu0 = self_cpu_s();
  const std::uint64_t r0 = mono_ns();
  SimRun out;
  out.rep = engine.run([&](unsigned tid, std::span<const Event> mine,
                           std::span<const Event> batch, std::vector<Event>& produced) {
    Lane& ln = *lanes[tid];
    const std::uint64_t a = mono_ns();
    if (tid == 0) {
      if (ln.last_start != 0) ln.cycle_ns.add(static_cast<double>(a - ln.last_start));
      ln.last_start = a;
    }
    const double window = batch.front().ts + lookahead;
    for (const Event& e : mine) {
      if (e.ts < window) {
        ++ln.processed;
        ln.fingerprint += ph::sim::event_fingerprint(e);
        if (grain != 0) ln.sink ^= ph::spin_work(grain, e.tag);
        const Event child = model.handle(e);
        if (child.ts < kHorizon) produced.push_back(child);
      } else {
        ++ln.deferred;
        produced.push_back(e);
      }
    }
    if (traced) ln.spans.push_back(SpanLog::Span{0, tid, SpanLog::kNoParent, ln.cycle, a, mono_ns()});
    ++ln.cycle;
  });
  const std::uint64_t r1 = mono_ns();
  out.cpu_s = self_cpu_s() - cpu0;

  if (traced) {
    const std::uint32_t s_run = spans.intern("engine.run");
    const std::uint32_t s_think = spans.intern("engine.think_lane");
    spans.add(s_run, run_id, r0, r1, SpanLog::kNoParent, 0);
    for (auto& ln : lanes) {
      for (const SpanLog::Span& s : ln->spans) spans.add(s_think, run_id, s.t0, s.t1, SpanLog::kNoParent, 1 + s.thread);
    }
  }
  for (auto& ln : lanes) {
    out.processed += ln->processed;
    out.fingerprint += ln->fingerprint;
    out.deferred += ln->deferred;
  }
  out.cycle_ns = std::move(lanes[0]->cycle_ns);
  for (auto& ln : lanes) g_sink = g_sink ^ ln->sink;
  return out;
}

}  // namespace

Result run_des(const Args& a) {
  Result res;

  // Setup: build the model and its serial reference, five times.
  std::vector<double> setup_s;
  std::unique_ptr<ph::sim::Model> model;
  ph::sim::SimResult ref;
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t t0 = mono_ns();
    ph::sim::ModelConfig mc;
    mc.seed = a.seed;
    mc.grain = kGrain;
    model = std::make_unique<ph::sim::Model>(ph::sim::make_torus(256, 256), mc);
    ref = ph::sim::run_serial_sim(*model, kHorizon);
    setup_s.push_back(static_cast<double>(mono_ns() - t0) / 1e9);
  }

  ph::telemetry::Registry::instance().reset();
  Samples cycle_ns;
  SpanLog spans;
  struct Window {
    double cpu_us_per_event = 0, rate = 0;
    bool traced = false;
  };
  std::vector<Window> wins;  ///< one per simulation run
  double events = 0, cpu = 0, run_s = 0, maint = 0, root = 0, stall = 0, cycles = 0;
  double traced_run_s = 0, traced_events = 0, deferred = 0, handled = 0;
  StealMeter steal;
  const std::uint64_t t_start = mono_ns();
  const std::uint64_t t_end = t_start + static_cast<std::uint64_t>(a.seconds * 1e9);
  std::uint64_t runs = 0;
  ::rusage ru{};
  while (runs < kRssRuns || mono_ns() < t_end) {
    const bool traced = a.trace && runs % 2 == 0;
    SimRun r = run_once(*model, traced, spans, runs);
    wins.push_back({r.cpu_s * 1e6 / static_cast<double>(r.processed),
                    static_cast<double>(r.processed) / r.rep.seconds, traced});
    cycle_ns.merge(r.cycle_ns);
    ++runs;
    if (runs == kRssRuns) ::getrusage(RUSAGE_SELF, &ru);
    if (r.processed != ref.processed || r.fingerprint != ref.fingerprint) {
      res.fail("fingerprint_mismatch_vs_serial");
    }
    events += static_cast<double>(r.processed);
    cpu += r.cpu_s;
    run_s += r.rep.seconds;
    maint += r.rep.maint_seconds;
    root += r.rep.root_seconds;
    stall += r.rep.think_stall_seconds;
    cycles += static_cast<double>(r.rep.cycles);
    deferred += static_cast<double>(r.deferred);
    handled += static_cast<double>(r.processed + r.deferred);
    if (traced) {
      traced_run_s += r.rep.seconds;
      traced_events += static_cast<double>(r.processed);
    }
  }
  const double wall_s = static_cast<double>(mono_ns() - t_start) / 1e9;
  res.attempted = runs;

  std::vector<double> cpu_win, rates, rate_traced, rate_untraced;
  for (const Window& w : wins) {
    cpu_win.push_back(w.cpu_us_per_event);
    rates.push_back(w.rate);
    (w.traced ? rate_traced : rate_untraced).push_back(w.rate);
  }

  res.e2e["throughput_per_s"] = quantile(rates, kRateQ);
  res.e2e["cpu_us_per_item"] = quantile(cpu_win, kCostQ);
  res.e2e["rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;
  res.e2e["setup_s"] = median(setup_s);

  res.report["events_per_s"] = median(rates);
  res.report["events_per_run"] = static_cast<double>(ref.processed);
  res.report["serial_events_per_s"] = static_cast<double>(ref.processed) / ref.seconds;
  res.report["cycle_p50_us"] = cycle_ns.pct(50) / 1e3;
  res.report["cycle_p90_us"] = cycle_ns.pct(90) / 1e3;
  res.report["cycle_p99_us"] = cycle_ns.pct(99) / 1e3;
  res.report["cycle_samples"] = static_cast<double>(cycle_ns.size());
  res.report["cpu_us_per_event"] = events > 0 ? cpu * 1e6 / events : 0.0;
  res.report["sim_runs"] = static_cast<double>(runs);
  res.report["host_steal_frac"] = steal.lap();
  res.report["alu_ns_per_step"] = alu_ns_per_step();
  res.report["failed_frac"] = static_cast<double>(res.failed) / static_cast<double>(runs);

  if (a.trace) {
    auto& pl = res.per_layer;
    const double n = static_cast<double>(runs);
    pl["e2e.cycle_p50_us"] = res.report["cycle_p50_us"];
    pl["e2e.cycle_p90_us"] = res.report["cycle_p90_us"];
    pl["engine.maint_s"] = maint / n;
    pl["engine.root_s"] = root / n;
    pl["engine.think_stall_s"] = stall / n;
    pl["engine.cycles"] = cycles / n;
    pl["sim.deferred_frac"] = handled > 0 ? deferred / handled : 0.0;

    double top = 0;
    res.layers = spans.layers(0, &top);
    const double think_s = res.layers["engine.think_lane"].total_s;
    pl["engine.think_busy_frac"] =
        traced_run_s > 0 ? think_s / (kThinkLanes * traced_run_s) : 0.0;
    pl["sim.think_ns_per_event"] = traced_events > 0 ? think_s * 1e9 / traced_events : 0.0;
    // The driver's run() span nests the engine's root, maintenance and
    // think-stall phases (EngineReport); its self time is the rest.
    auto& run = res.layers["engine.run"];
    const double share = run_s > 0 ? traced_run_s / run_s : 0.0;
    res.layers["engine.root"] = {run.count, root * share, root * share};
    res.layers["engine.maint"] = {run.count, maint * share, maint * share};
    res.layers["engine.think_stall"] = {run.count, stall * share, stall * share};
    run.self_s = run.total_s - (root + maint + stall) * share;
    res.unattributed_s = wall_s - run_s;
    pl["trace.unattributed_s"] = res.unattributed_s;
    pl["trace.unattributed_frac"] = wall_s > 0 ? res.unattributed_s / wall_s : 0.0;
    for (const auto& [name, l] : res.layers) pl["span." + name + ".self_s"] = l.self_s;
    pl["trace.overhead_frac"] =
        rate_traced.empty() || rate_untraced.empty()
            ? 0.0
            : median(rate_untraced) / median(rate_traced) - 1.0;

    const ph::telemetry::MetricsSnapshot snap = ph::telemetry::Registry::instance().collect();
    using ph::telemetry::Counter;
    using ph::telemetry::Phase;
    auto mean_us = [&](Phase p) { return snap.phase(p).mean() / 1e3; };
    const double hc = static_cast<double>(snap.get(Counter::kCycles));
    pl["heap.root_us"] = mean_us(Phase::kRootWork);
    pl["heap.odd_half_us"] = mean_us(Phase::kOddHalfStep);
    pl["heap.even_half_us"] = mean_us(Phase::kEvenHalfStep);
    pl["heap.items_per_cycle"] =
        hc > 0 ? static_cast<double>(snap.get(Counter::kItemsDeleted)) / hc : 0.0;
    pl["heap.steals_per_cycle"] =
        hc > 0 ? static_cast<double>(snap.get(Counter::kSteals)) / hc : 0.0;
    res.trace_file = a.work_dir + "/" + a.workload + ".spans.csv";
    if (!spans.write_csv(res.trace_file)) res.fail("trace: cannot write span file");
  }
  return res;
}

}  // namespace pb
