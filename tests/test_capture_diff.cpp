// Differential tests extending the determinism contract to capture:
// every registered application, simulated on the production bucketed
// scheduler and on the heap-scheduler oracle, must produce byte-identical
// trace bundles (compact v2 serialization) and byte-identical report
// text — at 8 and 64 ranks, with and without injected clock skew, and
// under fail-stop crash faults (TaskKilled unwinding through the real
// I/O stack).

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "pfsem/apps/harness.hpp"
#include "pfsem/apps/registry.hpp"
#include "pfsem/core/conflict.hpp"
#include "pfsem/core/offset_tracker.hpp"
#include "pfsem/core/report.hpp"
#include "pfsem/fault/plan.hpp"
#include "pfsem/iolib/posix_io.hpp"
#include "pfsem/trace/serialize.hpp"

namespace pfsem {
namespace {

apps::AppConfig bucketed_cfg(int ranks) {
  apps::AppConfig cfg;
  cfg.nranks = ranks;
  cfg.ranks_per_node = std::max(1, ranks / 8);
  return cfg;
}

apps::AppConfig heap_cfg(int ranks) {
  apps::AppConfig cfg = bucketed_cfg(ranks);
  cfg.scheduler = sim::SchedulerKind::Heap;
  return cfg;
}

/// The column hints must cover the whole path table and tally exactly the
/// file-carrying records.
void expect_column_hints(const trace::TraceBundle& b, const std::string& what) {
  ASSERT_EQ(b.file_op_counts.size(), b.paths.size()) << what;
  std::size_t tallied = 0, with_file = 0;
  for (const auto c : b.file_op_counts) tallied += c;
  for (const auto& r : b.records) with_file += r.file != kNoFile;
  ASSERT_EQ(tallied, with_file) << what;
}

std::string compact_bytes(const trace::TraceBundle& bundle) {
  std::ostringstream os;
  trace::write_compact(bundle, os);
  return os.str();
}

std::string report_text(const trace::TraceBundle& bundle) {
  const auto log = core::reconstruct_accesses(bundle);
  const auto pairs = core::detect_file_overlaps(log);
  const auto conflicts = core::detect_conflicts(log, pairs, {});
  const auto rep = core::build_report(bundle, log, conflicts);
  std::ostringstream os;
  core::print_report(rep, os);
  return os.str();
}

TEST(CaptureDiff, EveryAppBundleByteIdenticalAcrossSchedulers) {
  for (const int ranks : {8, 64}) {
    for (const auto& info : apps::registry()) {
      const auto bucketed = apps::run_app(info, bucketed_cfg(ranks));
      const auto heap = apps::run_app(info, heap_cfg(ranks));
      const std::string what =
          std::string(info.name) + " ranks=" + std::to_string(ranks);
      ASSERT_EQ(compact_bytes(bucketed), compact_bytes(heap)) << what;
      expect_column_hints(bucketed, what + " bucketed");
      expect_column_hints(heap, what + " heap");
    }
  }
}

TEST(CaptureDiff, EveryAppReportTextIdenticalAcrossSchedulers) {
  for (const auto& info : apps::registry()) {
    const auto bucketed = apps::run_app(info, bucketed_cfg(8));
    const auto heap = apps::run_app(info, heap_cfg(8));
    ASSERT_EQ(report_text(bucketed), report_text(heap)) << info.name;
  }
}

TEST(CaptureDiff, SkewedClocksConvertIdenticallyAcrossSchedulers) {
  // Clock conversion happens at emit time; under per-rank skew/drift both
  // schedulers must store the same local timestamps.
  const auto& info = *apps::find_app("FLASH-fbs");
  for (const int ranks : {8, 64}) {
    const auto clocks = sim::make_skewed_clocks(ranks, 20'000, 100.0, 7);
    const auto bucketed = apps::run_app(info, bucketed_cfg(ranks), {}, clocks);
    const auto heap = apps::run_app(info, heap_cfg(ranks), {}, clocks);
    ASSERT_EQ(compact_bytes(bucketed), compact_bytes(heap))
        << "ranks=" << ranks;
  }
}

TEST(CaptureDiff, TransientFaultsReplayIdenticallyAcrossSchedulers) {
  // Retried EIO faults, slowdowns, and MPI drops perturb timing and event
  // interleaving; with the same plan and seed, the bucketed scheduler must
  // emit the exact bytes the heap oracle does.
  const auto& info = *apps::find_app("MACSio");
  apps::FaultSetup setup;
  setup.plan = fault::FaultPlan::parse(
      "eio:p=0.03,ops=data; slow:factor=6,from=0,to=4ms;"
      "drop:p=0.1,timeout=500us");
  setup.seed = 11;
  setup.retry.max_attempts = 4;
  const auto bucketed = apps::run_app(info, bucketed_cfg(8), {}, {}, &setup);
  const auto heap = apps::run_app(info, heap_cfg(8), {}, {}, &setup);
  ASSERT_EQ(compact_bytes(bucketed), compact_bytes(heap));
  ASSERT_EQ(report_text(bucketed), report_text(heap));
}

TEST(CaptureDiff, ClusterMdsFailoverReplaysIdenticallyAcrossSchedulers) {
  // Server fault domains on the multi-server backend: an MDS crash plus
  // standby failover (with its EHOSTDOWN redirect and backoff) must
  // replay byte-identically on both schedulers, for every registered
  // application.
  apps::FaultSetup setup;
  setup.plan = fault::FaultPlan::parse("crash_mds:id=0,t=1ms");
  setup.seed = 7;
  vfs::ClusterConfig ccfg;
  ccfg.mds_count = 2;
  ccfg.ost_count = 4;
  for (const auto& info : apps::registry()) {
    fault::FaultStats stats;
    const auto bucketed =
        apps::run_app(info, bucketed_cfg(8), ccfg, {}, &setup, &stats);
    const auto heap = apps::run_app(info, heap_cfg(8), ccfg, {}, &setup);
    ASSERT_EQ(compact_bytes(bucketed), compact_bytes(heap)) << info.name;
    ASSERT_EQ(report_text(bucketed), report_text(heap)) << info.name;
    ASSERT_EQ(stats.server_crashes, 1u) << info.name;
  }
}

TEST(CaptureDiff, CrashMidBucketLeavesIdenticalSurvivingTrace) {
  // A fail-stop crash kills rank 3 mid-run (TaskKilled propagates out of a
  // delay(0) cohort inside the write loop). The workload has no
  // collectives, so the survivors finish; the surviving trace must be
  // byte-identical across schedulers.
  auto run_crash = [](apps::AppConfig cfg) {
    apps::Harness h(cfg);
    h.set_faults(fault::FaultPlan::parse("crash:rank=3,t=2ms"),
                 /*fault_seed=*/11);
    iolib::PosixIo posix(h.ctx());
    h.run([&](Rank r) -> sim::Task<void> {
      const int fd = co_await posix.open(
          r, "out." + std::to_string(r), trace::kCreate | trace::kWrOnly);
      for (int i = 0; i < 64; ++i) {
        co_await posix.pwrite(r, fd, static_cast<Offset>(i) * 4096, 4096);
        co_await h.engine().delay(i % 4 == 0 ? 100'000 : 0);
      }
      co_await posix.close(r, fd);
    });
    return h.collector().take();
  };
  const auto bucketed = run_crash(bucketed_cfg(8));
  const auto heap = run_crash(heap_cfg(8));
  ASSERT_EQ(compact_bytes(bucketed), compact_bytes(heap));
  ASSERT_LT(bucketed.records.size(), 8u * 66u)
      << "the crash must cut rank 3 short";
}

}  // namespace
}  // namespace pfsem
