// Scheduler-service tests (src/svc/): the wire protocol codec, SchedulerCore
// exactness against a client-side oracle under a fake clock, durable cancel
// annihilation, DRR fair-share dispatch, backpressure, WAL-replay ledger
// recovery (including a synthesized kill between a poll's POP and CLOSE
// records — the unterminated-transaction path), and one end-to-end pass
// through the TCP server. Everything seeded and deterministic; the clock is
// a fn-pointer fake, never the wall.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <map>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "dist/frame.hpp"
#include "persist/recovery.hpp"
#include "robustness/fault_matrix.hpp"
#include "svc/core.hpp"
#include "svc/proto.hpp"
#include "svc/server.hpp"

namespace ph {
namespace {

using svc::Admit;
using svc::Job;
using svc::SchedulerCore;
using svc::SvcConfig;
using svc::SvcMsg;
using svc::SvcType;

std::atomic<std::uint64_t>& fake_now() {
  static std::atomic<std::uint64_t> now{1'000'000'000ull};
  return now;
}
std::uint64_t fake_clock() { return fake_now().load(std::memory_order_relaxed); }
void advance_ms(std::uint64_t ms) {
  fake_now().fetch_add(ms * 1'000'000ull, std::memory_order_relaxed);
}

SvcConfig small_cfg(const std::string& dir) {
  SvcConfig cfg;
  cfg.dir = dir;
  cfg.shards = 2;
  cfg.node_capacity = 8;
  cfg.producers = 2;
  cfg.clock = &fake_clock;
  return cfg;
}

struct Dir {
  std::string path;
  explicit Dir(const char* prefix)
      : path(persist::make_temp_dir(prefix)) {}
  ~Dir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

// ------------------------------------------------------------------ protocol

TEST(SvcProto, RoundTripsEveryType) {
  std::vector<std::uint8_t> wire;
  for (const SvcType t :
       {SvcType::kSchedule, SvcType::kCancel, SvcType::kPollDue, SvcType::kStats,
        SvcType::kShutdown, SvcType::kAck, SvcType::kOverloaded, SvcType::kError}) {
    SvcMsg m;
    m.type = t;
    m.tenant = 42;
    m.a = 1, m.b = 2, m.c = 3, m.d = 4;
    svc::encode_svc(m, wire);
    SvcMsg got;
    ASSERT_TRUE(svc::decode_svc(std::span<const std::uint8_t>(wire), got))
        << svc::svc_type_name(t);
    EXPECT_EQ(got.type, t);
    EXPECT_EQ(got.tenant, 42u);
    EXPECT_EQ(got.a, 1u);
    EXPECT_EQ(got.d, 4u);
  }
}

TEST(SvcProto, RoundTripsJobAndStatItems) {
  SvcMsg m;
  m.type = SvcType::kDueReply;
  m.a = 99;
  for (int i = 0; i < 5; ++i) {
    Job j;
    j.deadline_ns = 1000u + static_cast<std::uint64_t>(i);
    j.id = static_cast<std::uint64_t>(i) * 7 + 1;
    j.tenant = static_cast<std::uint32_t>(i % 3);
    j.payload0 = 0xdeadbeef;
    m.jobs.push_back(j);
  }
  std::vector<std::uint8_t> wire;
  svc::encode_svc(m, wire);
  SvcMsg got;
  ASSERT_TRUE(svc::decode_svc(std::span<const std::uint8_t>(wire), got));
  ASSERT_EQ(got.jobs.size(), 5u);
  EXPECT_EQ(got.jobs[4].id, 29u);
  EXPECT_EQ(got.jobs[0].payload0, 0xdeadbeefu);

  SvcMsg s;
  s.type = SvcType::kStatsReply;
  svc::TenantStatRow r;
  r.tenant = 7;
  r.acked = 100;
  r.delivered = 60;
  s.stats.push_back(r);
  svc::encode_svc(s, wire);
  ASSERT_TRUE(svc::decode_svc(std::span<const std::uint8_t>(wire), got));
  ASSERT_EQ(got.stats.size(), 1u);
  EXPECT_EQ(got.stats[0].acked, 100u);
}

TEST(SvcProto, StrictDecodeRejectsSkew) {
  SvcMsg m;
  m.type = SvcType::kSchedule;
  std::vector<std::uint8_t> wire;
  svc::encode_svc(m, wire);
  SvcMsg got;
  // Trailing byte.
  auto longer = wire;
  longer.push_back(0);
  EXPECT_FALSE(svc::decode_svc(std::span<const std::uint8_t>(longer), got));
  // Truncation.
  auto shorter = wire;
  shorter.pop_back();
  EXPECT_FALSE(svc::decode_svc(std::span<const std::uint8_t>(shorter), got));
  // Unknown type.
  auto bad = wire;
  bad[0] = 0xEE;
  EXPECT_FALSE(svc::decode_svc(std::span<const std::uint8_t>(bad), got));
  // Items on a type that carries none.
  auto items = wire;
  items[1 + 4 + 32] = 8;  // item_size field
  EXPECT_FALSE(svc::decode_svc(std::span<const std::uint8_t>(items), got));
  // Item-size drift on a carrying type (peer with a different Job layout).
  SvcMsg due;
  due.type = SvcType::kDueReply;
  due.jobs.emplace_back();
  svc::encode_svc(due, wire);
  wire[1 + 4 + 32] = sizeof(Job) - 8;
  EXPECT_FALSE(svc::decode_svc(std::span<const std::uint8_t>(wire), got));
  EXPECT_TRUE(svc::decode_svc(
      [&] {
        svc::encode_svc(due, wire);
        return std::span<const std::uint8_t>(wire);
      }(),
      got));
}

TEST(SvcProto, RejectsWrappingItemCountWithoutThrowing) {
  // A crafted kDueReply whose nitems makes the u64 product `nitems *
  // sizeof(Job)` wrap to exactly the bytes present: nitems = 2^61 + 1 gives
  // 40 * nitems == 5 * 2^64 + 40 == 40 (mod 2^64). A multiply-based length
  // check passes it and the follow-up resize(2^61 + 1) throws through the
  // server loop — decode must simply return false instead.
  SvcMsg due;
  due.type = SvcType::kDueReply;
  due.jobs.emplace_back();
  std::vector<std::uint8_t> wire;
  svc::encode_svc(due, wire);
  const std::size_t nitems_off = 1 + 4 + 4 * 8 + 4;  // type, tenant, a..d, item_size
  const std::uint64_t wrap = (1ull << 61) + 1;
  for (int i = 0; i < 8; ++i) {
    wire[nitems_off + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(wrap >> (8 * i));
  }
  SvcMsg got;
  EXPECT_FALSE(svc::decode_svc(std::span<const std::uint8_t>(wire), got));
}

// ---------------------------------------------------------------------- core

TEST(SchedulerCore, SchedulesCommitAndDeliverInDeadlineOrder) {
  Dir dir("ph-svc-basic");
  SchedulerCore core(small_cfg(dir.path));
  std::uint64_t deadline = 0;
  EXPECT_EQ(core.schedule(1, 30'000'000, 103, 0, 0, &deadline), Admit::kOk);
  EXPECT_EQ(core.schedule(1, 10'000'000, 101, 7, 9, &deadline), Admit::kOk);
  EXPECT_EQ(core.schedule(2, 20'000'000, 102, 0, 0, &deadline), Admit::kOk);
  EXPECT_GT(core.commit(), 0u);
  EXPECT_TRUE(core.staged_fully_admitted());
  EXPECT_EQ(core.backlog(), 3u);

  std::vector<Job> due;
  // Nothing due yet.
  EXPECT_EQ(core.poll_due(10, due), svc::PollStatus::kOk);
  EXPECT_TRUE(due.empty());
  // 25ms later two are due, in deadline order, with payload intact.
  advance_ms(25);
  EXPECT_EQ(core.poll_due(10, due), svc::PollStatus::kOk);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(due[0].id, 101u);
  EXPECT_EQ(due[0].payload0, 7u);
  EXPECT_EQ(due[1].id, 102u);
  EXPECT_EQ(core.backlog(), 1u);
  advance_ms(25);
  due.clear();
  EXPECT_EQ(core.poll_due(10, due), svc::PollStatus::kOk);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].id, 103u);
  EXPECT_EQ(core.backlog(), 0u);

  const svc::SvcStats st = core.stats();
  EXPECT_EQ(st.acked, 3u);
  EXPECT_EQ(st.delivered, 3u);
  std::string why;
  EXPECT_TRUE(core.check_invariants(&why)) << why;
}

TEST(SchedulerCore, SaturatesHugeDelaysInsteadOfWrapping) {
  Dir dir("ph-svc-sat");
  SchedulerCore core(small_cfg(dir.path));
  std::uint64_t deadline = 0;
  // A client-controlled delay near UINT64_MAX must clamp to the far future,
  // not wrap past `now` and deliver immediately.
  EXPECT_EQ(core.schedule(1, std::numeric_limits<std::uint64_t>::max() - 5, 1,
                          0, 0, &deadline),
            Admit::kOk);
  EXPECT_EQ(deadline, std::numeric_limits<std::uint64_t>::max());
  advance_ms(10);
  std::vector<Job> due;
  EXPECT_EQ(core.poll_due(10, due), svc::PollStatus::kOk);
  EXPECT_TRUE(due.empty());
  EXPECT_EQ(core.backlog(), 1u);
  std::string why;
  EXPECT_TRUE(core.check_invariants(&why)) << why;
}

TEST(SchedulerCore, CancelAnnihilatesBeforeDelivery) {
  Dir dir("ph-svc-cancel");
  SchedulerCore core(small_cfg(dir.path));
  std::uint64_t d1 = 0, d2 = 0;
  ASSERT_EQ(core.schedule(5, 1'000'000, 1, 0, 0, &d1), Admit::kOk);
  ASSERT_EQ(core.schedule(5, 2'000'000, 2, 0, 0, &d2), Admit::kOk);
  ASSERT_EQ(core.cancel(5, d1, 1), Admit::kOk);
  advance_ms(10);
  std::vector<Job> due;
  EXPECT_EQ(core.poll_due(10, due), svc::PollStatus::kOk);
  ASSERT_EQ(due.size(), 1u);  // job 1 annihilated, job 2 delivered
  EXPECT_EQ(due[0].id, 2u);
  EXPECT_EQ(core.backlog(), 0u);
  const svc::SvcStats st = core.stats();
  EXPECT_EQ(st.acked, 2u);
  EXPECT_EQ(st.cancel_reqs, 1u);
  EXPECT_EQ(st.cancelled, 1u);
  EXPECT_EQ(st.delivered, 1u);
  std::string why;
  EXPECT_TRUE(core.check_invariants(&why)) << why;
}

TEST(SchedulerCore, CancelAfterDeliveryLeavesTombstoneNotCorruption) {
  Dir dir("ph-svc-late-cancel");
  SchedulerCore core(small_cfg(dir.path));
  std::uint64_t d1 = 0;
  ASSERT_EQ(core.schedule(3, 1'000'000, 9, 0, 0, &d1), Admit::kOk);
  advance_ms(5);
  std::vector<Job> due;
  core.poll_due(10, due);
  ASSERT_EQ(due.size(), 1u);
  // Too late: the job is gone. The marker must pop harmlessly.
  ASSERT_EQ(core.cancel(3, d1, 9), Admit::kOk);
  advance_ms(5);
  due.clear();
  core.poll_due(10, due);
  EXPECT_TRUE(due.empty());
  EXPECT_EQ(core.backlog(), 0u);
  const svc::SvcStats st = core.stats();
  EXPECT_EQ(st.delivered, 1u);
  EXPECT_EQ(st.cancelled, 0u);  // nothing annihilated; tombstone parked
  std::string why;
  EXPECT_TRUE(core.check_invariants(&why)) << why;
}

TEST(SchedulerCore, BackpressureShedsAtWallAndWatermark) {
  Dir dir("ph-svc-shed");
  SvcConfig cfg = small_cfg(dir.path);
  cfg.max_backlog = 64;
  cfg.overload_watermark = 16;
  cfg.admit_rate = 1.0;  // one token/sec: the gate bites immediately above
  cfg.burst = 4.0;       // the watermark once each tenant's burst is spent
  SchedulerCore core(cfg);
  std::uint64_t shed_at_watermark = 0, shed_at_wall = 0, ok = 0;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const Admit a = core.schedule(i % 2, 60'000'000'000ull, i + 1, 0, 0);
    if (a == Admit::kOk) {
      ++ok;
    } else if (core.backlog() >= cfg.max_backlog) {
      ++shed_at_wall;
    } else {
      ++shed_at_watermark;
    }
    core.commit();
  }
  EXPECT_GT(shed_at_watermark, 0u);  // token gate engaged above the watermark
  EXPECT_LE(core.backlog(), cfg.max_backlog);
  EXPECT_EQ(core.stats().shed, shed_at_watermark + shed_at_wall);
  EXPECT_EQ(core.stats().acked, ok);
  // Watermark + per-tenant bursts bound admissions: 16 free + 2 tenants * 4.
  EXPECT_LE(ok, 16u + 2u * 4u + 1u);
  std::string why;
  EXPECT_TRUE(core.check_invariants(&why)) << why;
}

TEST(SchedulerCore, DrrDeliversWeightedFairShares) {
  Dir dir("ph-svc-drr");
  SvcConfig cfg = small_cfg(dir.path);
  cfg.weight = [](std::uint32_t t) {
    return t == 3 ? 4.0 : (t == 2 ? 2.0 : 1.0);  // weights 1,1,2,4 (sum 8)
  };
  // The popped window must keep every tenant's frontier in play for all 16
  // polls: the heavy tenant's frontier advances 4x faster than the light
  // ones', so a narrow window would run past it and starve it mid-test.
  cfg.poll_over_pull = 40;
  SchedulerCore core(cfg);
  const std::size_t kTenants = 4, kJobs = 800;
  const std::uint64_t base = fake_clock();
  // Interleaved identical deadlines per rank, so the popped frontier always
  // holds all four tenants and fairness is genuinely DRR's doing.
  for (std::size_t j = 0; j < kJobs; ++j) {
    for (std::uint32_t t = 0; t < kTenants; ++t) {
      ASSERT_EQ(core.schedule(t, j * 1000, t * 1'000'000 + j, 0, 0), Admit::kOk);
    }
  }
  core.commit();
  advance_ms(3'600'000);  // everything due
  (void)base;

  std::map<std::uint32_t, std::size_t> delivered;
  std::vector<Job> due;
  const std::size_t kPolls = 16, kMax = 50;
  for (std::size_t p = 0; p < kPolls; ++p) {
    due.clear();
    ASSERT_EQ(core.poll_due(kMax, due), svc::PollStatus::kOk);
    for (const Job& j : due) ++delivered[j.tenant];
  }
  const double total = static_cast<double>(kPolls * kMax);
  const double weights[] = {1.0, 1.0, 2.0, 4.0};
  for (std::uint32_t t = 0; t < kTenants; ++t) {
    const double expect = total * weights[t] / 8.0;
    const double got = static_cast<double>(delivered[t]);
    EXPECT_NEAR(got, expect, expect * 0.10)
        << "tenant " << t << " delivered " << got << " expected " << expect;
  }
  std::string why;
  EXPECT_TRUE(core.check_invariants(&why)) << why;
}

/// Randomized differential: schedule/cancel/poll against a client-side
/// oracle. Every acked uncancelled job is delivered exactly once; cancelled
/// jobs at most once; conservation holds at every checkpointed step.
TEST(SchedulerCore, RandomizedExactnessVsOracle) {
  Dir dir("ph-svc-oracle");
  SchedulerCore core(small_cfg(dir.path));
  std::uint64_t rng = 0xABCDEF12345ull;
  auto rnd = [&rng]() {
    std::uint64_t z = (rng += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  std::map<std::pair<std::uint32_t, std::uint64_t>, int> seen;  // -> deliveries
  std::set<std::pair<std::uint32_t, std::uint64_t>> cancelled;
  std::vector<Job> due;
  std::string why;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    const std::uint32_t tenant = static_cast<std::uint32_t>(rnd() % 16);
    std::uint64_t deadline = 0;
    ASSERT_EQ(core.schedule(tenant, rnd() % 40'000'000, i + 1, rnd(), 0, &deadline),
              Admit::kOk);
    seen[{tenant, i + 1}] = 0;
    if (rnd() % 5 == 0) {
      ASSERT_EQ(core.cancel(tenant, deadline, i + 1), Admit::kOk);
      cancelled.insert({tenant, i + 1});
    }
    if (i % 16 == 15) {
      advance_ms(rnd() % 20);
      due.clear();
      core.poll_due(1 + rnd() % 32, due);
      for (const Job& j : due) {
        auto it = seen.find({j.tenant, j.id});
        ASSERT_NE(it, seen.end()) << "delivered a job never scheduled";
        ASSERT_EQ(++it->second, 1) << "job delivered twice";
        ASSERT_EQ(cancelled.count({j.tenant, j.id}), 0u)
            << "pre-delivery cancel failed to annihilate";
      }
      if (i % 256 == 255) {
        ASSERT_TRUE(core.check_invariants(&why)) << why;
      }
    }
  }
  advance_ms(3'600'000);
  for (int iter = 0; iter < 1000 && core.backlog() > 0; ++iter) {
    due.clear();
    core.poll_due(64, due);
    for (const Job& j : due) {
      auto it = seen.find({j.tenant, j.id});
      ASSERT_NE(it, seen.end());
      ASSERT_EQ(++it->second, 1);
      ASSERT_EQ(cancelled.count({j.tenant, j.id}), 0u);
    }
  }
  EXPECT_EQ(core.backlog(), 0u);
  for (const auto& [key, times] : seen) {
    if (cancelled.count(key) == 0) {
      ASSERT_EQ(times, 1) << "job lost: tenant " << key.first << " id "
                          << key.second;
    } else {
      ASSERT_EQ(times, 0);
    }
  }
  const svc::SvcStats st = core.stats();
  EXPECT_EQ(st.acked, 2000u);
  EXPECT_EQ(st.acked, st.delivered + st.cancelled);
  ASSERT_TRUE(core.check_invariants(&why)) << why;
}

// ------------------------------------------------------------------ recovery

TEST(SchedulerCore, RecoveryReplaysLedgerBitExactly) {
  Dir dir("ph-svc-recover");
  std::vector<svc::TenantStatRow> before;
  std::size_t backlog_before = 0;
  std::uint64_t seq_before = 0;
  {
    SchedulerCore core(small_cfg(dir.path));
    std::uint64_t rng = 77;
    auto rnd = [&rng]() { return rng = rng * 6364136223846793005ull + 1442695040888963407ull; };
    std::vector<Job> due;
    for (std::uint64_t i = 0; i < 600; ++i) {
      const std::uint32_t t = static_cast<std::uint32_t>(rnd() % 8);
      std::uint64_t deadline = 0;
      ASSERT_EQ(core.schedule(t, rnd() % 30'000'000, i + 1, 0, 0, &deadline),
                Admit::kOk);
      if (rnd() % 6 == 0) ASSERT_EQ(core.cancel(t, deadline, i + 1), Admit::kOk);
      if (i % 32 == 31) {
        advance_ms(10);
        core.poll_due(16, due);
        due.clear();
      }
    }
    core.commit();
    before = core.stat_rows();
    backlog_before = core.backlog();
    seq_before = core.durable().op_seq();
  }  // no checkpoint, no graceful anything: destruction == the process dying

  SchedulerCore core(small_cfg(dir.path));
  EXPECT_EQ(core.durable().op_seq(), seq_before);
  EXPECT_EQ(core.backlog(), backlog_before);
  const auto after = core.stat_rows();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].tenant, before[i].tenant);
    EXPECT_EQ(after[i].acked, before[i].acked) << "tenant " << before[i].tenant;
    EXPECT_EQ(after[i].cancel_reqs, before[i].cancel_reqs);
    EXPECT_EQ(after[i].delivered, before[i].delivered);
    EXPECT_EQ(after[i].cancelled, before[i].cancelled);
    EXPECT_EQ(after[i].requeued, before[i].requeued);
  }
  std::string why;
  EXPECT_TRUE(core.check_invariants(&why)) << why;
}

TEST(SchedulerCore, KillBetweenPopAndCloseRequeuesInFlight) {
  Dir dir("ph-svc-torn-txn");
  std::size_t backlog_before = 0;
  std::uint64_t acked_before = 0;
  {
    SchedulerCore core(small_cfg(dir.path));
    for (std::uint64_t i = 0; i < 40; ++i) {
      ASSERT_EQ(core.schedule(i % 4, 1'000'000, i + 1, 0, 0), Admit::kOk);
    }
    core.commit();
    backlog_before = core.backlog();
    acked_before = core.stats().acked;
  }
  // Synthesize the torn transaction: append POP records (cycle k>0) through
  // a RAW DurableHeap on the same directory — and "die" before any CLOSE.
  // Two records, because a real wide poll window is a *run* of POP records
  // (one per node_capacity) stacked under a single CLOSE.
  {
    persist::DurableOptions opt;
    opt.dir = dir.path;
    opt.checkpoint_interval = 0;
    opt.checkpoint_on_open = false;
    ShardedHeap<Job, svc::JobLess>::Config sc;
    sc.shards = 2;
    persist::DurableHeap<ShardedHeap<Job, svc::JobLess>> raw(
        ShardedHeap<Job, svc::JobLess>(8, sc, svc::JobLess{}),
        std::move(opt));
    std::vector<Job> popped;
    ASSERT_EQ(raw.cycle({}, 8, popped), 8u);
    popped.clear();
    ASSERT_EQ(raw.cycle({}, 8, popped), 8u);
  }
  // Recovery: the 16 popped jobs are an unterminated transaction — no
  // client saw them, so they must be requeued, not lost.
  SchedulerCore core(small_cfg(dir.path));
  EXPECT_EQ(core.stats().recovered_inflight, 16u);
  EXPECT_EQ(core.backlog(), backlog_before);  // all 40 still queued
  EXPECT_EQ(core.stats().acked, acked_before);
  advance_ms(10);
  std::vector<Job> due;
  std::set<std::uint64_t> ids;
  for (int iter = 0; iter < 100 && core.backlog() > 0; ++iter) {
    due.clear();
    core.poll_due(16, due);
    for (const Job& j : due) {
      EXPECT_TRUE(ids.insert(j.id).second) << "job " << j.id << " delivered twice";
    }
  }
  EXPECT_EQ(ids.size(), 40u);  // exactly once each, despite the torn poll
  std::string why;
  EXPECT_TRUE(core.check_invariants(&why)) << why;
}

TEST(SchedulerCore, RefusesDirectoryWithForeignCheckpoint) {
  Dir dir("ph-svc-foreign");
  {
    // Someone else's DurableHeap, WITH checkpoints: poison for the ledger.
    persist::DurableOptions opt;
    opt.dir = dir.path;
    opt.checkpoint_interval = 1;
    ShardedHeap<Job, svc::JobLess>::Config sc;
    sc.shards = 2;
    persist::DurableHeap<ShardedHeap<Job, svc::JobLess>> raw(
        ShardedHeap<Job, svc::JobLess>(8, sc, svc::JobLess{}),
        std::move(opt));
    std::vector<Job> fresh(3);
    std::vector<Job> out;
    raw.cycle(std::span<const Job>(fresh), 0, out);
  }
  EXPECT_THROW(
      {
        SchedulerCore c(small_cfg(dir.path));
        (void)c;
      },
      persist::CorruptStateError);
}

// ---------------------------------------------------------------- tcp server

svc::ServerConfig tcp_cfg(const Dir& dir) {
  svc::ServerConfig cfg;
  cfg.core = small_cfg(dir.path);
  cfg.core.clock = nullptr;  // the server runs on the wall clock
  cfg.port = 0;
  cfg.watchdog = false;
  return cfg;
}

/// Runs a server's loop on its own thread; stops and joins it on scope exit,
/// so a failed ASSERT never leaves a joinable thread behind.
struct LoopThread {
  explicit LoopThread(svc::Server& s) : server(s), loop([&s] { s.run(); }) {}
  ~LoopThread() {
    server.stop();
    loop.join();
  }
  svc::Server& server;
  std::thread loop;
};

/// Connects to the server on loopback; reads time out after 5 s so a
/// connection the server never answers fails the test instead of hanging it.
int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  ::sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<::sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const ::timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return fd;
}

bool send_svc(int fd, const SvcMsg& m) {
  std::vector<std::uint8_t> enc, wire;
  svc::encode_svc(m, enc);
  return dist::send_frame_fd(fd, std::span<const std::uint8_t>(enc), wire);
}

/// Reads one reply; false on EOF, timeout, or an undecodable frame.
bool recv_svc(int fd, dist::FrameParser& parser, SvcMsg& m) {
  std::vector<std::uint8_t> payload;
  while (parser.next(payload) != dist::FrameStatus::kFrame) {
    std::uint8_t chunk[4096];
    const ::ssize_t r = ::recv(fd, chunk, sizeof(chunk), 0);
    if (r <= 0) return false;
    parser.feed(std::span<const std::uint8_t>(chunk, static_cast<std::size_t>(r)));
  }
  return svc::decode_svc(std::span<const std::uint8_t>(payload), m);
}

/// One Stats round trip on a fresh parser.
bool stats_round_trip(int fd) {
  SvcMsg q;
  q.type = SvcType::kStats;
  dist::FrameParser parser;
  SvcMsg rep;
  return send_svc(fd, q) && recv_svc(fd, parser, rep) &&
         rep.type == SvcType::kStatsReply;
}

TEST(SvcServer, EndToEndScheduleAckPollShutdown) {
  Dir dir("ph-svc-server");
  svc::Server server(tcp_cfg(dir));
  std::thread loop([&server] { server.run(); });

  const int fd = connect_loopback(server.port());
  ASSERT_GE(fd, 0);

  dist::FrameParser parser;
  auto send_msg = [&](const SvcMsg& m) { ASSERT_TRUE(send_svc(fd, m)); };
  auto recv_msg = [&](SvcMsg& m) { ASSERT_TRUE(recv_svc(fd, parser, m)); };

  // Schedule 3 immediate jobs; acks arrive after the group commit.
  for (std::uint64_t id = 1; id <= 3; ++id) {
    SvcMsg m;
    m.type = SvcType::kSchedule;
    m.tenant = 9;
    m.a = 0;  // due immediately
    m.b = id;
    m.c = id * 100;
    send_msg(m);
  }
  for (int i = 0; i < 3; ++i) {
    SvcMsg ack;
    recv_msg(ack);
    ASSERT_EQ(ack.type, SvcType::kAck);
    EXPECT_GE(ack.b, 1u);
    EXPECT_LE(ack.b, 3u);
  }
  // Poll them back.
  std::set<std::uint64_t> got;
  for (int tries = 0; tries < 50 && got.size() < 3; ++tries) {
    SvcMsg p;
    p.type = SvcType::kPollDue;
    p.a = 8;
    send_msg(p);
    SvcMsg rep;
    recv_msg(rep);
    ASSERT_EQ(rep.type, SvcType::kDueReply);
    for (const Job& j : rep.jobs) {
      EXPECT_EQ(j.tenant, 9u);
      EXPECT_TRUE(got.insert(j.id).second) << "duplicate delivery";
    }
  }
  EXPECT_EQ(got.size(), 3u);
  // Stats reflect the ledger.
  SvcMsg q;
  q.type = SvcType::kStats;
  send_msg(q);
  SvcMsg stats;
  recv_msg(stats);
  ASSERT_EQ(stats.type, SvcType::kStatsReply);
  ASSERT_EQ(stats.stats.size(), 1u);
  EXPECT_EQ(stats.stats[0].acked, 3u);
  EXPECT_EQ(stats.stats[0].delivered, 3u);
  // Drain: the shutdown ack is the last frame out.
  SvcMsg bye;
  bye.type = SvcType::kShutdown;
  bye.a = 1;
  send_msg(bye);
  SvcMsg ack;
  recv_msg(ack);
  EXPECT_EQ(ack.type, SvcType::kAck);
  loop.join();
  ::close(fd);
}

TEST(SvcServer, MalformedFrameGetsErrorThenClose) {
  Dir dir("ph-svc-badframe");
  svc::Server server(tcp_cfg(dir));
  std::thread loop([&server] { server.run(); });

  const int fd = connect_loopback(server.port());
  ASSERT_GE(fd, 0);
  // A well-framed but undecodable payload: kError, then the server hangs up.
  const std::vector<std::uint8_t> junk = {0x00, 0x01, 0x02};
  std::vector<std::uint8_t> wire;
  ASSERT_TRUE(dist::send_frame_fd(fd, std::span<const std::uint8_t>(junk), wire));
  dist::FrameParser parser;
  SvcMsg rep;
  bool got_error = false, closed = false;
  std::vector<std::uint8_t> payload;
  for (int i = 0; i < 100 && !closed; ++i) {
    std::uint8_t chunk[4096];
    const ::ssize_t r = ::recv(fd, chunk, sizeof(chunk), 0);
    if (r <= 0) {
      closed = true;
      break;
    }
    parser.feed(std::span<const std::uint8_t>(chunk, static_cast<std::size_t>(r)));
    while (parser.next(payload) == dist::FrameStatus::kFrame) {
      ASSERT_TRUE(svc::decode_svc(std::span<const std::uint8_t>(payload), rep));
      if (rep.type == SvcType::kError) got_error = true;
    }
  }
  EXPECT_TRUE(got_error);
  EXPECT_TRUE(closed);
  ::close(fd);
  server.stop();
  loop.join();
}

TEST(SvcServer, BurstOfNewConnectionsWhileOneIsActiveIsServed) {
  Dir dir("ph-svc-burst");
  svc::Server server(tcp_cfg(dir));
  const std::uint16_t port = server.port();
  LoopThread loop(server);

  // Peers that reset their connections leave POLLERR|POLLHUP revents in the
  // loop's pollfd slots past the live set — what a connection accepted in
  // the same round must never read as its own.
  for (int round = 0; round < 3; ++round) {
    std::vector<int> doomed;
    for (int i = 0; i < 8; ++i) {
      const int fd = connect_loopback(port);
      ASSERT_GE(fd, 0);
      ASSERT_TRUE(stats_round_trip(fd));
      doomed.push_back(fd);
    }
    const ::linger reset{1, 0};
    for (const int fd : doomed) {
      ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &reset, sizeof(reset));
      ::close(fd);
    }
  }

  // One connection keeps the loop busy while a burst connects.
  const int active = connect_loopback(port);
  ASSERT_GE(active, 0);
  std::atomic<bool> done{false};
  std::atomic<bool> active_ok{true};
  std::thread pinger([&] {
    while (!done.load() && active_ok.load()) {
      if (!stats_round_trip(active)) active_ok = false;
    }
  });
  constexpr int kBurst = 16;
  std::vector<int> burst;
  for (int i = 0; i < kBurst; ++i) {
    const int fd = connect_loopback(port);
    if (fd >= 0) burst.push_back(fd);
  }
  ASSERT_EQ(burst.size(), static_cast<std::size_t>(kBurst));
  for (std::size_t i = 0; i < burst.size(); ++i) {
    EXPECT_TRUE(stats_round_trip(burst[i])) << "burst connection " << i
                                            << " was never served";
  }
  done = true;
  pinger.join();
  EXPECT_TRUE(active_ok.load());
  for (const int fd : burst) ::close(fd);
  ::close(active);
}

TEST(SvcServer, IdleConnectionClosesAtEof) {
  Dir dir("ph-svc-eof");
  svc::Server server(tcp_cfg(dir));
  LoopThread loop(server);

  const int fd = connect_loopback(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(stats_round_trip(fd));
  // Half-close with nothing in flight: the server must hang up (EOF here)
  // instead of leaving the socket in CLOSE_WAIT; the 5 s read timeout
  // bounds the wait.
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
  std::uint8_t byte = 0;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0) << "no EOF from the server";
  ::close(fd);
}

}  // namespace
}  // namespace ph
