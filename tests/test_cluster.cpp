// Multi-server PfsCluster: the topology oracle (fault-free runs are
// byte-identical to the (1, 1) preset for any topology), server fault
// domains (MDS crash + standby failover, OST crash hole-punching +
// restart, no-replica loud failure), split-brain visibility under
// network partitions, and topology validation.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "pfsem/apps/registry.hpp"
#include "pfsem/core/conflict.hpp"
#include "pfsem/core/offset_tracker.hpp"
#include "pfsem/core/report.hpp"
#include "pfsem/fault/injector.hpp"
#include "pfsem/fault/plan.hpp"
#include "pfsem/iolib/posix_io.hpp"
#include "pfsem/trace/serialize.hpp"
#include "pfsem/util/error.hpp"
#include "pfsem/vfs/cluster.hpp"
#include "pfsem/vfs/pfs.hpp"

namespace pfsem {
namespace {

using fault::FaultPlan;
using trace::kCreate;
using trace::kRdOnly;
using trace::kRdWr;
using vfs::ClusterConfig;
using vfs::PfsCluster;

apps::AppConfig small_cfg(int ranks = 8) {
  apps::AppConfig cfg;
  cfg.nranks = ranks;
  cfg.ranks_per_node = std::max(1, ranks / 8);
  return cfg;
}

ClusterConfig topo(int mds, int ost, Offset stripe) {
  ClusterConfig c;
  c.mds_count = mds;
  c.ost_count = ost;
  c.stripe = stripe;
  return c;
}

std::string compact_bytes(const trace::TraceBundle& bundle) {
  std::ostringstream os;
  trace::write_compact(bundle, os);
  return os.str();
}

std::string report_text(const trace::TraceBundle& bundle, int threads = 1) {
  const auto log = core::reconstruct_accesses(bundle);
  const auto pairs = core::detect_file_overlaps(log, {}, threads);
  const auto conflicts = core::detect_conflicts(log, pairs, {.threads = threads});
  const auto rep = core::build_report(bundle, log, conflicts, threads);
  std::ostringstream os;
  core::print_report(rep, os);
  return os.str();
}

vfs::VersionTag tag_at(const std::vector<vfs::ReadExtent>& extents,
                       Offset at) {
  for (const auto& e : extents) {
    if (e.ext.contains(at)) return e.version;
  }
  return 0;
}

// --- the topology oracle ----------------------------------------------------
//
// With no faults, topology is invisible: under every consistency model,
// every registered application's trace bundle AND analysis report must be
// byte-identical between the (1, 1) topology and any other (mds, ost,
// stripe). Bundle identity makes every downstream analysis (advise, tune,
// remedy) identical by construction; the report text check catches any
// drift in the report path itself.

TEST(ClusterOracle, EveryAppByteIdenticalAcrossTopologies) {
  const vfs::ConsistencyModel models[] = {
      vfs::ConsistencyModel::Strong, vfs::ConsistencyModel::Commit,
      vfs::ConsistencyModel::Session, vfs::ConsistencyModel::Eventual};
  for (const auto model : models) {
    ClusterConfig reference = topo(1, 1, 64u << 10);
    ClusterConfig topologies[] = {topo(2, 4, 64u << 10), topo(4, 8, 1u << 20)};
    reference.base.model = model;
    for (auto& c : topologies) c.base.model = model;
    for (const auto& info : apps::registry()) {
      const auto base = apps::run_app(info, small_cfg(), reference);
      const std::string base_bytes = compact_bytes(base);
      const std::string base_report = report_text(base);
      for (const auto& c : topologies) {
        const auto bundle = apps::run_app(info, small_cfg(), c);
        ASSERT_EQ(compact_bytes(bundle), base_bytes)
            << info.name << " model=" << vfs::to_string(model)
            << " mds=" << c.mds_count << " ost=" << c.ost_count
            << " stripe=" << c.stripe;
        ASSERT_EQ(report_text(bundle), base_report)
            << info.name << " model=" << vfs::to_string(model)
            << " mds=" << c.mds_count << " ost=" << c.ost_count;
      }
    }
  }
}

// --- MDS crash + standby failover ------------------------------------------

TEST(ClusterFailover, MdsCrashPromotesStandbyAndRunCompletes) {
  apps::FaultSetup setup;
  setup.plan = FaultPlan::parse("crash_mds:id=0,t=1ms");
  setup.seed = 7;
  fault::FaultStats stats;
  const auto* info = apps::find_app("FLASH-fbs");
  ASSERT_NE(info, nullptr);
  const auto bundle = apps::run_app(*info, small_cfg(),
                                            topo(2, 4, 64u << 10), {}, &setup,
                                            &stats);
  EXPECT_GT(bundle.records.size(), 0u) << "the run must complete degraded";
  EXPECT_EQ(stats.server_crashes, 1u);
  EXPECT_EQ(stats.crashed_servers, std::vector<std::string>{"mds0"});
  EXPECT_EQ(stats.mds_failovers, 1u) << "exactly one standby promotion";
  EXPECT_GE(stats.failover_redirects, 1u)
      << "the first op on the dead primary must redirect";
  EXPECT_EQ(stats.giveups, 0u) << "with a standby nothing fails permanently";

  // The degraded report names the dead server and the surviving semantics.
  std::ostringstream os;
  core::print_degraded(apps::degraded_summary(stats), os);
  EXPECT_NE(os.str().find("mds0"), std::string::npos) << os.str();
  EXPECT_NE(os.str().find("surviving semantics"), std::string::npos)
      << os.str();
}

TEST(ClusterFailover, NoReplicaRemainingFailsLoudly) {
  apps::AppConfig cfg;
  cfg.nranks = 1;
  cfg.ranks_per_node = 1;
  ClusterConfig ccfg = topo(1, 1, 64u << 10);
  ccfg.mds_replicas = 1;  // no standby: a crash leaves the shard headless
  apps::Harness h(cfg, ccfg);
  h.set_faults(FaultPlan::parse("crash_mds:id=0,t=1ms"), /*fault_seed=*/7);
  iolib::PosixIo posix(h.ctx());
  try {
    h.run([&](Rank) -> sim::Task<void> {
      co_await h.engine().delay(2'000'000);  // past the crash
      co_await posix.open(0, "f", kCreate | kRdWr);
    });
    FAIL() << "metadata op on a headless shard must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("no server replica remains"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("EHOSTDOWN"), std::string::npos)
        << e.what();
  }
}

// --- OST crash: degraded reads punch holes, restart heals -------------------

TEST(ClusterDegraded, OstCrashPunchesHolesAndRestartHeals) {
  constexpr Offset kStripe = 64u << 10;
  PfsCluster fs(topo(1, 2, kStripe));
  const int w = fs.open(0, "f", kCreate | kRdWr, 0).fd;
  const auto wr = fs.pwrite(0, w, 0, 4 * kStripe, 10);  // blocks 0..3
  (void)fs.close(0, w, 20);

  // OST 1 dies: blocks 1 and 3 (odd blocks) become unreadable.
  fs.apply_server_event({fault::ServerKind::Ost, 1, 0, /*restart=*/false}, 30);
  const int rd = fs.open(1, "f", kRdOnly, 40).fd;
  const auto degraded = fs.pread(1, rd, 0, 4 * kStripe, 50);
  EXPECT_EQ(tag_at(degraded.extents, 0), wr.version);
  EXPECT_EQ(tag_at(degraded.extents, kStripe), 0u) << "hole over dead OST";
  EXPECT_EQ(tag_at(degraded.extents, 2 * kStripe), wr.version);
  EXPECT_EQ(tag_at(degraded.extents, 3 * kStripe), 0u);

  // Writes keep working while the OST is down (client write-behind).
  const int w2 = fs.open(0, "f", kRdWr, 60).fd;
  const auto wr2 = fs.pwrite(0, w2, 4 * kStripe, kStripe, 70);
  EXPECT_EQ(wr2.err, 0);
  (void)fs.close(0, w2, 80);

  // Restart: everything is readable again, including the degraded-window
  // write that replayed onto the returned server.
  fs.apply_server_event({fault::ServerKind::Ost, 1, 0, /*restart=*/true}, 90);
  const auto healed = fs.pread(1, rd, 0, 5 * kStripe, 100);
  EXPECT_EQ(tag_at(healed.extents, kStripe), wr.version);
  EXPECT_EQ(tag_at(healed.extents, 3 * kStripe), wr.version);
  EXPECT_EQ(tag_at(healed.extents, 4 * kStripe), wr2.version);
}

// --- network partitions: deterministic split-brain --------------------------
//
// A cross-partition write is invisible until the partition heals — on the
// single-server preset and on a 2-MDS/4-OST topology alike, because the
// deferral lives in the shared resolve core.

TEST(ClusterPartition, CrossPartitionWriteDeferredUntilHealOnBothBackends) {
  const auto plan = FaultPlan::parse("partition:ranks=0-0,from=0,to=10ms");
  auto script = [&](vfs::FileSystem& fs) {
    fault::Injector inj(plan, /*seed=*/1, /*ranks_per_node=*/1);
    fs.set_fault_injector(&inj);
    const int w = fs.open(0, "f", kCreate | kRdWr, 0).fd;
    const auto wr = fs.pwrite(0, w, 0, 100, 1'000'000);
    const int rd = fs.open(1, "f", kRdOnly, 2'000'000).fd;
    // Before the heal the reader is on the other side: stale view.
    const auto before = fs.pread(1, rd, 0, 100, 5'000'000);
    EXPECT_EQ(tag_at(before.extents, 0), 0u) << "split-brain staleness";
    // After the heal the write becomes visible.
    const auto after = fs.pread(1, rd, 0, 100, 12'000'000);
    EXPECT_EQ(tag_at(after.extents, 0), wr.version);
    // The writer always sees its own write (same side of every cut).
    const auto own = fs.pread(0, w, 0, 100, 5'000'000);
    EXPECT_EQ(tag_at(own.extents, 0), wr.version);
  };
  vfs::Pfs single;
  script(single);
  PfsCluster cluster(topo(2, 4, 64u << 10));
  script(cluster);
}

// --- routing and accounting --------------------------------------------------

TEST(ClusterRouting, ShardsAreDeterministicAndAccountingIsConserved) {
  PfsCluster fs(topo(4, 4, 64u << 10));
  const PfsCluster other(topo(4, 4, 64u << 10));
  std::uint64_t written = 0;
  for (int i = 0; i < 32; ++i) {
    const std::string path = "file" + std::to_string(i);
    const int shard = fs.shard_of(path);
    ASSERT_GE(shard, 0);
    ASSERT_LT(shard, 4);
    EXPECT_EQ(shard, other.shard_of(path)) << "hash must be instance-free";
    const int fd = fs.open(0, path, kCreate | kRdWr, i * 100).fd;
    (void)fs.pwrite(0, fd, 0, 8192, i * 100 + 10);
    written += 8192;
    (void)fs.close(0, fd, i * 100 + 20);
  }
  std::uint64_t shard_ops = 0;
  for (const auto& m : fs.mds_states()) shard_ops += m.meta_ops;
  EXPECT_EQ(shard_ops, fs.lock_stats().meta_ops)
      << "per-shard routing must conserve the aggregate meta-op count";
  std::uint64_t ost_bytes = 0;
  for (const std::uint64_t b : fs.ost_stats().bytes) ost_bytes += b;
  EXPECT_EQ(ost_bytes, written) << "striping must conserve transferred bytes";
}

// --- lock release and descriptor checks ------------------------------------
//
// Counterparts of the single-server Locks.* and Mechanics.* tests in
// test_vfs.cpp, on a 2-MDS/4-OST topology.

ClusterConfig strong_small_locks() {
  ClusterConfig c = topo(2, 4, 64u << 10);
  c.base.model = vfs::ConsistencyModel::Strong;
  c.base.lock_block = 1024;
  return c;
}

TEST(ClusterLocks, CloseReleasesHoldsTakenThroughAnotherFd) {
  PfsCluster fs(strong_small_locks());
  const int a = fs.open(0, "f", kCreate | kRdWr, 0).fd;
  const int b = fs.open(0, "f", kRdWr, 0).fd;
  const int c = fs.open(1, "f", kRdWr, 0).fd;
  (void)fs.pwrite(0, b, 0, 2048, 10);  // rank 0 holds blocks 0-1 via b
  (void)fs.close(0, a, 20);
  const vfs::LockStats before = fs.lock_stats();
  (void)fs.pwrite(1, c, 0, 2048, 30);
  EXPECT_EQ(fs.lock_stats().revocations, before.revocations);
  EXPECT_EQ(fs.lock_stats().requests, before.requests + 2);
  (void)fs.pwrite(0, b, 0, 1024, 40);  // re-acquire block 0, revoking rank 1
  const vfs::LockStats reacquired = fs.lock_stats();
  EXPECT_EQ(reacquired.revocations, before.revocations + 1);
  (void)fs.close(0, b, 50);
  (void)fs.pwrite(1, c, 0, 2048, 60);
  EXPECT_EQ(fs.lock_stats().revocations, reacquired.revocations);
  EXPECT_EQ(fs.lock_stats().requests, reacquired.requests + 1);
}

TEST(ClusterLocks, CloseLeavesOtherRanksHolds) {
  PfsCluster fs(strong_small_locks());
  const int a = fs.open(0, "f", kCreate | kRdWr, 0).fd;
  const int c = fs.open(1, "f", kRdWr, 0).fd;
  (void)fs.pwrite(1, c, 0, 2048, 10);     // rank 1: blocks 0-1 exclusive
  (void)fs.pwrite(0, a, 2048, 1024, 20);  // rank 0: block 2 exclusive
  (void)fs.pread(1, c, 2048, 1024, 30);   // block 2 shared by rank 1 ...
  (void)fs.pread(0, a, 2048, 1024, 40);   // ... and rank 0
  (void)fs.close(0, a, 50);
  const vfs::LockStats before = fs.lock_stats();
  (void)fs.pwrite(1, c, 0, 2048, 60);
  (void)fs.pread(1, c, 2048, 1024, 70);
  EXPECT_EQ(fs.lock_stats().requests, before.requests);
  EXPECT_EQ(fs.lock_stats().revocations, before.revocations);
}

void expect_bad_fd(PfsCluster& fs, Rank r, int fd) {
  SCOPED_TRACE("rank " + std::to_string(r) + " fd " + std::to_string(fd));
  EXPECT_THROW(fs.write(r, fd, 10, 100), Error);
  EXPECT_THROW(fs.pwrite(r, fd, 0, 10, 100), Error);
  EXPECT_THROW(fs.read(r, fd, 10, 100), Error);
  EXPECT_THROW(fs.pread(r, fd, 0, 10, 100), Error);
  EXPECT_THROW(fs.lseek(r, fd, 0, trace::kSeekSet, 100), Error);
  EXPECT_THROW(fs.fsync(r, fd, 100), Error);
  EXPECT_THROW(fs.ftruncate(r, fd, 0, 100), Error);
  EXPECT_THROW(fs.close(r, fd, 100), Error);
}

TEST(ClusterMechanics, EveryKindOfBadFdThrows) {
  PfsCluster fs(topo(2, 4, 64u << 10));
  const int first = fs.open(0, "f", kCreate | kRdWr, 0).fd;
  const int closed = fs.open(0, "f", kRdWr, 0).fd;
  const int last = fs.open(0, "f", kRdWr, 0).fd;
  (void)fs.close(0, closed, 1);
  expect_bad_fd(fs, 0, 0);         // never opened (a standard stream)
  expect_bad_fd(fs, 0, closed);    // closed
  expect_bad_fd(fs, 0, -1);        // negative
  expect_bad_fd(fs, 0, last + 1);  // above any allocated fd
  expect_bad_fd(fs, 0, 1 << 30);
  expect_bad_fd(fs, 1, first);     // another rank's fd
  expect_bad_fd(fs, 5000, first);  // a rank that never opened anything
  EXPECT_EQ(fs.pwrite(0, first, 0, 10, 2).err, 0);
  EXPECT_EQ(fs.close(0, last, 3).ret, 0);
  EXPECT_EQ(fs.close(0, first, 4).ret, 0);
  expect_bad_fd(fs, 0, first);
}

// --- topology validation -----------------------------------------------------

TEST(ClusterConfigValidation, RejectsBadTopology) {
  EXPECT_THROW(PfsCluster(topo(0, 1, 64u << 10)), Error);
  EXPECT_THROW(PfsCluster(topo(1, 0, 64u << 10)), Error);
  EXPECT_THROW(PfsCluster(topo(1, 1, 0)), Error);
  EXPECT_THROW(PfsCluster(topo(1, 1, 3000)), Error);  // not a power of two
  ClusterConfig c = topo(1, 1, 64u << 10);
  c.mds_replicas = 0;
  EXPECT_THROW(PfsCluster{c}, Error);
}

TEST(ClusterConfigValidation, HarnessRejectsServerEventsOutOfRange) {
  apps::Harness h(small_cfg(1), topo(2, 2, 64u << 10));
  EXPECT_THROW(h.set_faults(FaultPlan::parse("crash_mds:id=5,t=1ms"), 1),
               Error);
  EXPECT_THROW(h.set_faults(FaultPlan::parse("crash_ost:id=2,t=1ms"), 1),
               Error);

  apps::Harness single(small_cfg(1), vfs::PfsConfig{});
  EXPECT_THROW(single.set_faults(FaultPlan::parse("crash_mds:id=0,t=1ms"), 1),
               Error);
}

}  // namespace
}  // namespace pfsem
