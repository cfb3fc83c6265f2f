// Fault-injection subsystem tests: plan parsing, crash durability under
// the four consistency models (Section 3), transient-error retry
// absorption, degraded-mode accounting, and bit-exact determinism of
// (plan, seed) replays.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "pfsem/apps/registry.hpp"
#include "pfsem/core/conflict.hpp"
#include "pfsem/core/offset_tracker.hpp"
#include "pfsem/core/pattern.hpp"
#include "pfsem/fault/injector.hpp"
#include "pfsem/fault/plan.hpp"
#include "pfsem/iolib/posix_io.hpp"
#include "pfsem/trace/serialize.hpp"
#include "pfsem/util/error.hpp"

namespace pfsem {
namespace {

using fault::FaultPlan;
using fault::OpClass;

// --- plan parsing ----------------------------------------------------------

TEST(FaultPlan, ParsesEveryClauseKind) {
  const auto plan = FaultPlan::parse(
      "eio:p=0.01,ops=write; enospc:p=0.001;"
      "slow:factor=10,from=1ms,to=3ms,ost=2; vis:extra=20ms,from=0,to=5ms;"
      "drop:p=0.05,timeout=1ms; crash:rank=3,t=2ms; crash:node=1,t=4ms");
  ASSERT_EQ(plan.transients.size(), 2u);
  EXPECT_EQ(plan.transients[0].err, fault::kEio);
  EXPECT_DOUBLE_EQ(plan.transients[0].probability, 0.01);
  EXPECT_TRUE(plan.transients[0].applies(OpClass::Write));
  EXPECT_FALSE(plan.transients[0].applies(OpClass::Read));
  // ops= defaults to data (reads + writes) when omitted.
  EXPECT_EQ(plan.transients[1].err, fault::kEnospc);
  EXPECT_TRUE(plan.transients[1].applies(OpClass::Read));
  EXPECT_TRUE(plan.transients[1].applies(OpClass::Write));
  EXPECT_FALSE(plan.transients[1].applies(OpClass::Meta));

  ASSERT_EQ(plan.slowdowns.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.slowdowns[0].factor, 10.0);
  EXPECT_EQ(plan.slowdowns[0].from, 1'000'000);
  EXPECT_EQ(plan.slowdowns[0].to, 3'000'000);
  EXPECT_EQ(plan.slowdowns[0].ost, 2);

  ASSERT_EQ(plan.spikes.size(), 1u);
  EXPECT_EQ(plan.spikes[0].extra, 20'000'000);

  ASSERT_EQ(plan.drops.size(), 1u);
  EXPECT_EQ(plan.drops[0].retransmit, 1'000'000);

  ASSERT_EQ(plan.crashes.size(), 2u);
  EXPECT_EQ(plan.crashes[0].rank, 3);
  EXPECT_EQ(plan.crashes[0].t, 2'000'000);
  EXPECT_EQ(plan.crashes[1].node, 1);
}

TEST(FaultPlan, ParsesServerAndPartitionClauses) {
  const auto plan = FaultPlan::parse(
      "crash_mds:id=1,t=2ms; crash_ost:id=0,t=3ms;"
      "restart_server:mds=1,t=8ms; restart_server:ost=0,t=9ms;"
      "partition:ranks=0-3,from=1ms,to=6ms");
  ASSERT_EQ(plan.server_events.size(), 4u);
  EXPECT_EQ(plan.server_events[0].kind, fault::ServerKind::Mds);
  EXPECT_EQ(plan.server_events[0].id, 1);
  EXPECT_EQ(plan.server_events[0].t, 2'000'000);
  EXPECT_FALSE(plan.server_events[0].restart);
  EXPECT_EQ(plan.server_events[1].kind, fault::ServerKind::Ost);
  EXPECT_TRUE(plan.server_events[2].restart);
  EXPECT_EQ(plan.server_events[3].kind, fault::ServerKind::Ost);
  ASSERT_EQ(plan.partitions.size(), 1u);
  EXPECT_EQ(plan.partitions[0].lo, 0);
  EXPECT_EQ(plan.partitions[0].hi, 3);
  EXPECT_EQ(plan.partitions[0].from, 1'000'000);
  EXPECT_EQ(plan.partitions[0].to, 6'000'000);
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlan, HardenedParsingRejectsNonsense) {
  // Negative ranks / server ids.
  EXPECT_THROW((void)FaultPlan::parse("crash:rank=-1,t=1ms"), Error);
  EXPECT_THROW((void)FaultPlan::parse("crash:node=-2,t=1ms"), Error);
  EXPECT_THROW((void)FaultPlan::parse("crash_mds:id=-1,t=1ms"), Error);
  EXPECT_THROW((void)FaultPlan::parse("crash_ost:id=-3,t=0"), Error);
  EXPECT_THROW((void)FaultPlan::parse("slow:factor=2,ost=-1,from=0,to=1ms"),
               Error);
  // Zero- or negative-duration windows.
  EXPECT_THROW((void)FaultPlan::parse("slow:factor=2,from=1ms,to=1ms"), Error);
  EXPECT_THROW((void)FaultPlan::parse("slow:factor=2,from=2ms,to=1ms"), Error);
  EXPECT_THROW((void)FaultPlan::parse("vis:extra=1ms,from=5ms,to=5ms"), Error);
  EXPECT_THROW((void)FaultPlan::parse("partition:ranks=0-1,from=3ms,to=3ms"),
               Error);
  // Malformed server/partition clauses.
  EXPECT_THROW((void)FaultPlan::parse("crash_mds:t=1ms"), Error);
  EXPECT_THROW((void)FaultPlan::parse("restart_server:t=1ms"), Error);
  EXPECT_THROW((void)FaultPlan::parse("restart_server:mds=0,ost=0,t=1ms"),
               Error);
  EXPECT_THROW((void)FaultPlan::parse("partition:from=0,to=1ms"), Error);
  EXPECT_THROW((void)FaultPlan::parse("partition:ranks=3-1,from=0,to=1ms"),
               Error);
}

TEST(FaultPlan, TopologyValidationNamesTheProblem) {
  const auto plan = FaultPlan::parse("crash_mds:id=2,t=1ms");
  try {
    plan.validate_topology(/*mds_count=*/0, /*ost_count=*/0);
    FAIL() << "server events need a cluster backend";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("--mds/--ost"), std::string::npos)
        << e.what();
  }
  try {
    plan.validate_topology(/*mds_count=*/2, /*ost_count=*/4);
    FAIL() << "id 2 is out of range for 2 metadata servers";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos)
        << e.what();
  }
  // In range: no throw.
  plan.validate_topology(/*mds_count=*/3, /*ost_count=*/1);
}

TEST(FaultPlan, EmptySpecIsEmptyPlan) {
  EXPECT_TRUE(FaultPlan::parse("").empty());
  EXPECT_TRUE(FaultPlan::parse(";;").empty());
}

TEST(FaultPlan, MalformedSpecsThrow) {
  EXPECT_THROW((void)FaultPlan::parse("bogus:p=1"), Error);
  EXPECT_THROW((void)FaultPlan::parse("eio:p=oops"), Error);
  EXPECT_THROW((void)FaultPlan::parse("eio:p=2"), Error);
  EXPECT_THROW((void)FaultPlan::parse("eio:frequency=0.5"), Error);
  EXPECT_THROW((void)FaultPlan::parse("eio:p"), Error);
  EXPECT_THROW((void)FaultPlan::parse("eio:p=0.1,ops=scribble"), Error);
  EXPECT_THROW((void)FaultPlan::parse("slow:factor=0.5"), Error);
  EXPECT_THROW((void)FaultPlan::parse("crash:t=1ms"), Error);
  EXPECT_THROW((void)FaultPlan::parse("crash:rank=1,node=0,t=1ms"), Error);
}

TEST(FaultInjector, CrashScheduleExpandsNodesAndClipsRanks) {
  const auto plan =
      FaultPlan::parse("crash:node=1,t=2ms; crash:rank=0,t=1ms; "
                       "crash:rank=99,t=1ms");
  fault::Injector inj(plan, /*seed=*/1, /*ranks_per_node=*/2);
  const auto sched = inj.crash_schedule(/*nranks=*/4);
  // rank 99 dropped; node 1 = ranks {2, 3}; sorted by (time, rank).
  ASSERT_EQ(sched.size(), 3u);
  EXPECT_EQ(sched[0], (std::pair<Rank, SimTime>{0, 1'000'000}));
  EXPECT_EQ(sched[1], (std::pair<Rank, SimTime>{2, 2'000'000}));
  EXPECT_EQ(sched[2], (std::pair<Rank, SimTime>{3, 2'000'000}));
}

// --- crash durability across the four models -------------------------------
//
// Producer/consumer on two ranks. Rank 0 writes v1, fsyncs it, then writes
// v2 and lingers without closing; a fail-stop crash at t=5ms interrupts it.
// The consistency model decides what the crash may discard:
//
//   strong    both writes durable          -> nothing lost
//   commit    v1 fsynced before the crash  -> v2 lost
//   session   the file was never closed    -> v1 and v2 lost
//   eventual  v1 propagated (2ms), v2 not  -> v2 lost

struct DurabilityRun {
  std::vector<vfs::ReadExtent> view;  // strong_view of "data" after the run
  fault::FaultStats stats;
};

vfs::VersionTag tag_at(const std::vector<vfs::ReadExtent>& extents,
                       Offset at) {
  for (const auto& e : extents) {
    if (e.ext.contains(at)) return e.version;
  }
  return 0;
}

constexpr std::uint64_t kChunk = 64 * 1024;

DurabilityRun run_producer_consumer(vfs::ConsistencyModel model,
                                    const std::string& fault_spec,
                                    int max_attempts = 1) {
  apps::AppConfig cfg;
  cfg.nranks = 2;
  cfg.ranks_per_node = 2;
  vfs::PfsConfig pc;
  pc.model = model;
  pc.eventual_propagation = 2'000'000;  // 2 ms
  apps::Harness h(cfg, pc);
  h.set_faults(FaultPlan::parse(fault_spec), /*fault_seed=*/7);
  iolib::RetryPolicy retry;
  retry.max_attempts = max_attempts;
  h.set_retry_policy(retry);
  iolib::PosixIo posix(h.ctx());

  h.run([&](Rank r) -> sim::Task<void> {
    if (r == 0) {
      const int fd =
          co_await posix.open(0, "data", trace::kCreate | trace::kRdWr);
      co_await posix.pwrite(0, fd, 0, kChunk);        // v1
      co_await posix.fsync(0, fd);                    // commit v1
      co_await h.engine().delay(4'000'000);           // t ~= 4 ms
      co_await posix.pwrite(0, fd, kChunk, kChunk);   // v2, never committed
      co_await h.engine().delay(10'000'000);          // crash lands here
      co_await posix.close(0, fd);                    // never reached
    } else {
      co_await h.engine().delay(20'000'000);          // after any crash
      const int fd = co_await posix.open(1, "data", trace::kRdOnly);
      if (fd >= 0) {
        co_await posix.pread(1, fd, 0, 2 * kChunk);
        co_await posix.close(1, fd);
      }
    }
  });
  return {h.pfs().strong_view("data", 0, 2 * kChunk), h.injector()->stats()};
}

// Writes allocate version tags in issue order, so rank 0's two writes are
// tags 1 and 2 in every configuration of this workload.
constexpr vfs::VersionTag kV1 = 1, kV2 = 2;

TEST(CrashDurability, StrongLosesNothing) {
  const auto r = run_producer_consumer(vfs::ConsistencyModel::Strong,
                                       "crash:rank=0,t=5ms");
  EXPECT_EQ(tag_at(r.view, 0), kV1);
  EXPECT_EQ(tag_at(r.view, kChunk), kV2);
  EXPECT_TRUE(r.stats.lost_versions.empty());
  EXPECT_EQ(r.stats.writes_lost, 0u);
  EXPECT_EQ(r.stats.crashed_ranks, std::vector<Rank>{0});
}

TEST(CrashDurability, CommitLosesUncommittedWrite) {
  const auto r = run_producer_consumer(vfs::ConsistencyModel::Commit,
                                       "crash:rank=0,t=5ms");
  EXPECT_EQ(tag_at(r.view, 0), kV1) << "fsynced write survives";
  EXPECT_EQ(tag_at(r.view, kChunk), 0u) << "un-fsynced write is discarded";
  EXPECT_EQ(r.stats.lost_versions, std::vector<std::uint64_t>{kV2});
}

TEST(CrashDurability, SessionLosesUnclosedSession) {
  const auto r = run_producer_consumer(vfs::ConsistencyModel::Session,
                                       "crash:rank=0,t=5ms");
  EXPECT_EQ(tag_at(r.view, 0), 0u);
  EXPECT_EQ(tag_at(r.view, kChunk), 0u);
  EXPECT_EQ(r.stats.lost_versions, (std::vector<std::uint64_t>{kV1, kV2}));
  EXPECT_EQ(r.stats.writes_lost, 2u);
}

TEST(CrashDurability, EventualLosesUnpropagatedWrite) {
  const auto r = run_producer_consumer(vfs::ConsistencyModel::Eventual,
                                       "crash:rank=0,t=5ms");
  EXPECT_EQ(tag_at(r.view, 0), kV1) << "v1 propagated before the crash";
  EXPECT_EQ(tag_at(r.view, kChunk), 0u) << "v2 still in the writer's cache";
  EXPECT_EQ(r.stats.lost_versions, std::vector<std::uint64_t>{kV2});
}

TEST(CrashDurability, NoFaultsBaseline) {
  const auto r = run_producer_consumer(vfs::ConsistencyModel::Commit, "");
  EXPECT_EQ(tag_at(r.view, 0), kV1);
  EXPECT_EQ(tag_at(r.view, kChunk), kV2);
  EXPECT_EQ(r.stats, fault::FaultStats{});
}

// --- transient errors and retries ------------------------------------------

TEST(Retry, TransientEioIsAbsorbedWithoutChangingVersions) {
  const auto r = run_producer_consumer(vfs::ConsistencyModel::Strong,
                                       "eio:p=0.4,ops=write",
                                       /*max_attempts=*/10);
  // Failed attempts consume no version tags: the surviving file is
  // bit-identical to the fault-free run.
  EXPECT_EQ(tag_at(r.view, 0), kV1);
  EXPECT_EQ(tag_at(r.view, kChunk), kV2);
  EXPECT_GT(r.stats.transient_faults, 0u) << "plan must actually fire";
  EXPECT_EQ(r.stats.giveups, 0u);
  EXPECT_EQ(r.stats.retries, r.stats.transient_faults)
      << "every injected fault was retried";
}

TEST(Retry, ExhaustedBudgetFailsLoudly) {
  try {
    (void)run_producer_consumer(vfs::ConsistencyModel::Strong,
                                "eio:p=1,ops=write", /*max_attempts=*/2);
    FAIL() << "permanent I/O failure must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("failed permanently"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("EIO"), std::string::npos)
        << e.what();
  }
}

TEST(Retry, LaminatedWriteIsPermanentEvenWithRetries) {
  apps::AppConfig cfg;
  cfg.nranks = 1;
  cfg.ranks_per_node = 1;
  vfs::PfsConfig pc;
  pc.model = vfs::ConsistencyModel::Commit;
  apps::Harness h(cfg, pc);
  iolib::RetryPolicy retry;
  retry.max_attempts = 5;
  h.set_retry_policy(retry);
  iolib::PosixIo posix(h.ctx());
  try {
    h.run([&](Rank) -> sim::Task<void> {
      const int fd =
          co_await posix.open(0, "f", trace::kCreate | trace::kRdWr);
      co_await posix.pwrite(0, fd, 0, 4096);
      (void)h.pfs().laminate("f", h.engine().now());
      co_await posix.pwrite(0, fd, 4096, 4096);  // EROFS: not retryable
    });
    FAIL() << "writing a laminated file must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("EROFS"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("after 1 attempt"),
              std::string::npos)
        << "EROFS must not burn the retry budget: " << e.what();
  }
}

// --- degraded-mode reporting -----------------------------------------------

TEST(Degraded, SummaryMirrorsStatsAndFlagsCrashes) {
  const auto r = run_producer_consumer(vfs::ConsistencyModel::Session,
                                       "crash:rank=0,t=5ms");
  const auto d = apps::degraded_summary(r.stats);
  EXPECT_EQ(d.writes_lost, r.stats.writes_lost);
  EXPECT_EQ(d.crashed_ranks, std::vector<int>{0});
  EXPECT_TRUE(d.analysis_truncated());

  const auto clean = apps::degraded_summary(fault::FaultStats{});
  EXPECT_FALSE(clean.analysis_truncated());
}

// --- crashes strand collectives with a diagnosable deadlock ----------------

TEST(Crash, StrandedBarrierReportsBlockedRanks) {
  apps::AppConfig cfg;
  cfg.nranks = 2;
  cfg.ranks_per_node = 2;
  apps::Harness h(cfg);
  h.set_faults(FaultPlan::parse("crash:rank=0,t=1ms"), /*fault_seed=*/1);
  try {
    h.run([&](Rank r) -> sim::Task<void> {
      if (r == 0) co_await h.engine().delay(2'000'000);  // dies at 1 ms
      co_await h.world().barrier(r);  // rank 1 waits forever
    });
    FAIL() << "stranded barrier must deadlock";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("deadlock"), std::string::npos) << msg;
    EXPECT_NE(msg.find("blocked ranks: 1"), std::string::npos) << msg;
  }
}

// --- determinism and analysis equivalence on real workloads ----------------

apps::AppConfig small_cfg() {
  apps::AppConfig cfg;
  cfg.nranks = 8;
  cfg.ranks_per_node = 4;
  cfg.bytes_per_rank = 32 * 1024;
  return cfg;
}

TEST(Determinism, SamePlanAndSeedReproduceBitIdenticalRuns) {
  const auto* info = apps::find_app("MACSio");
  ASSERT_NE(info, nullptr);
  apps::FaultSetup setup;
  setup.plan = FaultPlan::parse(
      "eio:p=0.02,ops=data; slow:factor=8,from=0,to=2ms;"
      "vis:extra=5ms,from=0,to=10ms; drop:p=0.1,timeout=500us");
  setup.seed = 1234;
  setup.retry.max_attempts = 4;

  auto once = [&] {
    fault::FaultStats stats;
    const auto bundle = run_app(*info, small_cfg(), {}, {}, &setup, &stats);
    std::ostringstream os;
    trace::write_compact(bundle, os);
    return std::pair{os.str(), stats};
  };
  const auto [trace_a, stats_a] = once();
  const auto [trace_b, stats_b] = once();
  EXPECT_GT(stats_a.transient_faults + stats_a.mpi_drops, 0u)
      << "plan must actually fire for this to be a meaningful check";
  EXPECT_EQ(trace_a, trace_b) << "replay must be bit-identical";
  EXPECT_EQ(stats_a, stats_b);

  // A different fault seed is a different run.
  setup.seed = 4321;
  const auto [trace_c, stats_c] = once();
  EXPECT_NE(trace_a, trace_c);
  (void)stats_c;
}

struct Signature {
  bool waw_s, waw_d, raw_s, raw_d;
  std::string xy, layout;
  bool operator==(const Signature&) const = default;
};

Signature signature_of(const trace::TraceBundle& bundle, int nranks) {
  const auto log = core::reconstruct_accesses(bundle);
  const auto rep = core::detect_conflicts(log);
  const auto pat = core::classify_high_level(log, nranks);
  return {rep.session.waw_s, rep.session.waw_d, rep.session.raw_s,
          rep.session.raw_d, pat.xy,
          std::string(core::to_string(pat.layout))};
}

TEST(Determinism, ParallelAnalysisOfFaultyRunsMatchesSequential) {
  // The parallel pipeline's byte-identical guarantee must hold on
  // fault-injected traces too (retried faults and visibility spikes shift
  // timestamps, which stresses uneven per-file shard sizes).
  const auto* info = apps::find_app("MACSio");
  ASSERT_NE(info, nullptr);
  apps::FaultSetup setup;
  setup.plan = FaultPlan::parse(
      "eio:p=0.03,ops=data; vis:extra=2ms,from=0,to=8ms;"
      "slow:factor=6,from=0,to=4ms");
  setup.seed = 7;
  setup.retry.max_attempts = 4;
  fault::FaultStats stats;
  const auto bundle = run_app(*info, small_cfg(), {}, {}, &setup, &stats);
  const auto log = core::reconstruct_accesses(bundle);

  auto fingerprint = [&](int threads) {
    const auto pairs = core::detect_file_overlaps(log, {}, threads);
    const auto rep = core::detect_conflicts(log, pairs, {.threads = threads});
    std::ostringstream os;
    os << rep.potential_pairs << '|' << rep.session.count << '|'
       << rep.commit.count << '\n';
    for (const auto& c : rep.conflicts) {
      os << log.path(c.file) << ' ' << c.first.rank << ' ' << c.first.t << ' '
         << c.second.rank << ' ' << c.second.t << ' '
         << c.under_commit << c.under_session << '\n';
    }
    return os.str();
  };
  const auto seq = fingerprint(1);
  EXPECT_EQ(fingerprint(2), seq);
  EXPECT_EQ(fingerprint(4), seq);
}

TEST(Determinism, ClusterMdsFailoverReproducesBitIdenticallyAcrossThreads) {
  // MDS crash + standby failover on the multi-server backend: the same
  // plan and seed must reproduce bit-identical bundles, and the analysis
  // must be thread-count-invariant on the degraded trace.
  const auto* info = apps::find_app("FLASH-fbs");
  ASSERT_NE(info, nullptr);
  apps::FaultSetup setup;
  setup.plan = FaultPlan::parse("crash_mds:id=0,t=1ms");
  setup.seed = 7;
  vfs::ClusterConfig ccfg;
  ccfg.mds_count = 2;
  ccfg.ost_count = 4;

  auto once = [&] {
    fault::FaultStats stats;
    const auto bundle =
        apps::run_app(*info, small_cfg(), ccfg, {}, &setup, &stats);
    std::ostringstream os;
    trace::write_compact(bundle, os);
    return std::tuple{os.str(), stats, signature_of(bundle, 8)};
  };
  const auto [trace_a, stats_a, sig_a] = once();
  const auto [trace_b, stats_b, sig_b] = once();
  ASSERT_EQ(stats_a.mds_failovers, 1u) << "the failover must actually happen";
  EXPECT_EQ(trace_a, trace_b) << "failover replay must be bit-identical";
  EXPECT_EQ(stats_a, stats_b);
  EXPECT_EQ(sig_a, sig_b);

  fault::FaultStats stats;
  const auto bundle =
      apps::run_app(*info, small_cfg(), ccfg, {}, &setup, &stats);
  const auto log = core::reconstruct_accesses(bundle);
  auto fingerprint = [&](int threads) {
    const auto pairs = core::detect_file_overlaps(log, {}, threads);
    const auto rep = core::detect_conflicts(log, pairs, {.threads = threads});
    return std::tuple{rep.potential_pairs, rep.session.count,
                      rep.commit.count};
  };
  const auto seq = fingerprint(1);
  EXPECT_EQ(fingerprint(2), seq);
  EXPECT_EQ(fingerprint(4), seq);
}

TEST(Determinism, RetriedTransientFaultsDoNotChangeTheAnalysis) {
  const auto* info = apps::find_app("NWChem");
  ASSERT_NE(info, nullptr);
  const auto cfg = small_cfg();
  const auto clean = signature_of(run_app(*info, cfg), cfg.nranks);

  apps::FaultSetup setup;
  setup.plan = FaultPlan::parse("eio:p=0.05,ops=data");
  setup.seed = 99;
  setup.retry.max_attempts = 8;
  fault::FaultStats stats;
  const auto faulty =
      signature_of(run_app(*info, cfg, {}, {}, &setup, &stats), cfg.nranks);

  ASSERT_GT(stats.transient_faults, 0u);
  ASSERT_EQ(stats.giveups, 0u) << "retry budget must absorb every fault";
  EXPECT_EQ(faulty, clean)
      << "absorbed transient faults must not change conflict verdicts";
}

}  // namespace
}  // namespace pfsem
