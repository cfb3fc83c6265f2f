// Differential tests for the windowed streaming analysis: every
// registered application, run once through the windowed pipeline
// (StreamAnalyzer::enable_window → per-file retirement at the stream
// frontier → assemble_windowed_report) and once through the materialized
// build-a-bundle path, must produce byte-identical report text and
// structurally identical tuning reports — across both schedulers, both
// PFS backends, and fault plans. The materialized path is
// the oracle; retiring files mid-stream must never be observable in the
// output, only in the memory profile.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "pfsem/apps/driver.hpp"
#include "pfsem/apps/harness.hpp"
#include "pfsem/apps/registry.hpp"
#include "pfsem/core/conflict.hpp"
#include "pfsem/core/offset_tracker.hpp"
#include "pfsem/core/report.hpp"
#include "pfsem/core/stream_analyze.hpp"
#include "pfsem/core/tuning.hpp"
#include "pfsem/fault/plan.hpp"
#include "pfsem/iolib/posix_io.hpp"
#include "pfsem/trace/spill.hpp"

namespace pfsem {
namespace {

apps::AppConfig base_cfg(int ranks) {
  apps::AppConfig cfg;
  cfg.nranks = ranks;
  cfg.ranks_per_node = std::max(1, ranks / 8);
  return cfg;
}

std::string report_text(const trace::TraceBundle& bundle) {
  const auto log = core::reconstruct_accesses(bundle);
  const auto rep =
      core::build_report(bundle, log, core::detect_conflicts(log));
  std::ostringstream os;
  core::print_report(rep, os);
  return os.str();
}

core::TuningReport materialized_tuning(const trace::TraceBundle& bundle) {
  const auto log = core::reconstruct_accesses(bundle);
  return core::per_file_tuning(log);
}

struct WindowRun {
  std::string report;            ///< report text from rolling summaries
  core::TuningReport tuning;     ///< from assemble_windowed_tuning
  std::size_t peak_live_files = 0;
  std::size_t active_files = 0;  ///< summaries with file != kNoFile
  std::uint64_t retired_accesses = 0;
};

/// Drain a spilled capture through the driver's windowed analysis. With
/// `unknown_file_budgets` the records replay instead into an analyzer
/// given the run's rank budgets but no per-file ones: the driver always
/// reads the exact budgets from the spill's trailer.
WindowRun windowed_drain(apps::SpilledRun& run,
                         bool unknown_file_budgets = false) {
  core::StreamAnalyzer::WindowedResult res;
  if (unknown_file_budgets) {
    const auto in = run.store->open_read();
    trace::ChunkReader reader(*in);
    core::StreamAnalyzer an(run.meta.nranks, run.meta.paths,
                            run.meta.rank_posix_counts);
    an.enable_window({}, {});
    trace::Record rec;
    while (reader.next(rec)) an.feed(rec);
    reader.read_trailer();
    res = an.finish_windowed();
  } else {
    res = apps::drain_spill(run);
  }
  WindowRun out;
  out.peak_live_files = res.peak_live_files;
  out.retired_accesses = res.retired_accesses;
  for (const auto& s : res.summaries) {
    out.active_files += s.file != kNoFile ? 1 : 0;
  }
  out.tuning = core::assemble_windowed_tuning(res.summaries);
  const auto rep = core::assemble_windowed_report(
      std::move(res.stats), res.records, res.nranks, res.summaries);
  std::ostringstream os;
  core::print_report(rep, os);
  out.report = os.str();
  return out;
}

WindowRun windowed_run(const apps::AppInfo& info, apps::AppConfig cfg,
                       std::vector<sim::ClockModel> clocks = {},
                       const apps::FaultSetup* faults = nullptr,
                       apps::Backend backend = {}) {
  cfg.stream_chunk_records = 64;
  auto run = apps::spill_app(info, cfg, 16u << 10, std::move(backend),
                             std::move(clocks), faults);
  return windowed_drain(run);
}

void expect_tuning_eq(const core::TuningReport& got,
                      const core::TuningReport& want) {
  EXPECT_EQ(got.total_bytes, want.total_bytes);
  EXPECT_EQ(got.relaxed_bytes, want.relaxed_bytes);
  EXPECT_EQ(got.eventual_bytes, want.eventual_bytes);
  ASSERT_EQ(got.files.size(), want.files.size());
  for (std::size_t i = 0; i < got.files.size(); ++i) {
    EXPECT_EQ(got.files[i].path, want.files[i].path);
    EXPECT_EQ(got.files[i].weakest, want.files[i].weakest) << got.files[i].path;
    EXPECT_EQ(got.files[i].bytes, want.files[i].bytes) << got.files[i].path;
    EXPECT_EQ(got.files[i].session_pairs, want.files[i].session_pairs)
        << got.files[i].path;
    EXPECT_EQ(got.files[i].commit_pairs, want.files[i].commit_pairs)
        << got.files[i].path;
  }
}

TEST(WindowDiff, EveryAppWindowedMatchesMaterialized) {
  int bounded = 0;
  for (const auto& info : apps::registry()) {
    const auto cfg = base_cfg(8);
    const auto bundle = apps::run_app(info, cfg);
    const auto win = windowed_run(info, cfg);
    ASSERT_EQ(win.report, report_text(bundle)) << info.name;
    expect_tuning_eq(win.tuning, materialized_tuning(bundle));
    bounded += win.peak_live_files < win.active_files ? 1 : 0;
  }
  EXPECT_GT(bounded, 0) << "no app retired a file before its last file "
                           "went live; the window never closed over "
                           "anything";
}

TEST(WindowDiff, FlashAt64RanksMatchesMaterialized) {
  // Eight times the ranks of the per-app sweep, so more files overlap in
  // the window.
  const auto& info = *apps::find_app("FLASH-fbs");
  const auto cfg = base_cfg(64);
  const auto win = windowed_run(info, cfg);
  ASSERT_EQ(win.report, report_text(apps::run_app(info, cfg)));
}

TEST(WindowDiff, HeapSchedulerMatchesMaterialized) {
  const auto& info = *apps::find_app("HACC-IO POSIX");
  auto cfg = base_cfg(8);
  cfg.scheduler = sim::SchedulerKind::Heap;
  const auto bundle = apps::run_app(info, cfg);
  const auto win = windowed_run(info, cfg);
  ASSERT_EQ(win.report, report_text(bundle));
}

TEST(WindowDiff, ClusterMdsFailoverMatchesMaterialized) {
  const auto& info = *apps::find_app("GTC");
  apps::FaultSetup setup;
  setup.plan = fault::FaultPlan::parse("crash_mds:id=0,t=1ms");
  setup.seed = 7;
  vfs::ClusterConfig ccfg;
  ccfg.mds_count = 2;
  ccfg.ost_count = 4;
  const auto cfg = base_cfg(8);
  const auto bundle = apps::run_app(info, cfg, ccfg, {}, &setup);
  const auto win = windowed_run(info, cfg, {}, &setup, ccfg);
  ASSERT_EQ(win.report, report_text(bundle));
  expect_tuning_eq(win.tuning, materialized_tuning(bundle));
}

TEST(WindowDiff, SkewedClocksMatchMaterialized) {
  const auto& info = *apps::find_app("MACSio");
  const auto cfg = base_cfg(8);
  const auto clocks = sim::make_skewed_clocks(8, 20'000, 100.0, 7);
  const auto bundle = apps::run_app(info, cfg, {}, clocks);
  const auto win = windowed_run(info, cfg, clocks);
  ASSERT_EQ(win.report, report_text(bundle));
}

/// Collective-free phased workload: each rank writes four files strictly
/// one after another, so at any instant only the current phase's files
/// can be live. Shared by the retirement-bound and crash tests.
template <typename Capture>
auto run_phased(apps::AppConfig cfg, const apps::FaultSetup* faults,
                Capture&& capture) {
  apps::Harness h(cfg);
  if (faults != nullptr) h.set_faults(faults->plan, faults->seed);
  iolib::PosixIo posix(h.ctx());
  h.run([&](Rank r) -> sim::Task<void> {
    for (int phase = 0; phase < 4; ++phase) {
      const int fd = co_await posix.open(
          r, "phase" + std::to_string(phase) + "." + std::to_string(r),
          trace::kCreate | trace::kWrOnly);
      for (int i = 0; i < 16; ++i) {
        co_await posix.pwrite(r, fd, static_cast<Offset>(i) * 4096, 4096);
        co_await h.engine().delay(i % 4 == 0 ? 100'000 : 0);
      }
      co_await posix.close(r, fd);
    }
  });
  return capture(h);
}

/// Spill the phased workload the way the driver spills a registered app
/// (the workload is not one, so the harness is driven here).
apps::SpilledRun spill_phased(apps::AppConfig cfg,
                              const apps::FaultSetup* faults) {
  apps::SpilledRun run;
  run.store = std::make_unique<trace::SpillStore>(1u << 20);
  trace::ChunkWriter writer(*run.store, cfg.nranks);
  cfg.stream_sink = &writer;
  cfg.stream_chunk_records = 64;
  run.meta = run_phased(cfg, faults,
                        [](apps::Harness& h) { return h.finish_stream(); });
  writer.finish(run.meta);
  return run;
}

TEST(WindowDiff, PhasedWorkloadBoundsLiveWindow) {
  // The phased workload touches 32 files but never more than one phase
  // at a time; the live window must stay well below the file count, so
  // files retire mid-stream, not at finish.
  auto cfg = base_cfg(8);
  auto run = spill_phased(cfg, nullptr);
  const auto win = windowed_drain(run);
  EXPECT_EQ(win.active_files, 32u);
  EXPECT_LT(win.peak_live_files, win.active_files);
  // And the oracle: the same workload materialized.
  const auto bundle = run_phased(
      cfg, nullptr, [](apps::Harness& h) { return h.collector().take(); });
  ASSERT_EQ(win.report, report_text(bundle));
}

TEST(WindowDiff, CrashedRankOpenFdsDeferToFinalSweep) {
  // Rank 3 dies mid-phase (no collectives, so the survivors finish) and
  // never closes its file: the open-fd guard must keep that file in the
  // window until the final sweep, and the output must still match the
  // materialized analysis of the surviving trace byte for byte.
  apps::FaultSetup setup;
  setup.plan = fault::FaultPlan::parse("crash:rank=3,t=2ms");
  setup.seed = 11;
  auto cfg = base_cfg(8);
  auto run = spill_phased(cfg, &setup);
  const auto win = windowed_drain(run);
  const auto bundle = run_phased(
      cfg, &setup, [](apps::Harness& h) { return h.collector().take(); });
  ASSERT_LT(bundle.records.size(), 8u * 4u * 18u)
      << "the crash must cut rank 3 short";
  ASSERT_EQ(win.report, report_text(bundle));
  expect_tuning_eq(win.tuning, materialized_tuning(bundle));
  // Surviving ranks' files still retire mid-stream around the crash.
  EXPECT_LT(win.peak_live_files, win.active_files);
}

TEST(WindowDiff, UnknownFileBudgetsFallBackSafely) {
  // Empty per-file counts = unknown: nothing may retire mid-stream, and
  // the final sweep must still produce the identical report.
  const auto& info = *apps::find_app("FLASH-fbs");
  auto cfg = base_cfg(8);
  cfg.stream_chunk_records = 64;
  auto run = apps::spill_app(info, cfg, 1u << 20);
  const auto win = windowed_drain(run, /*unknown_file_budgets=*/true);
  EXPECT_EQ(win.peak_live_files, win.active_files);
  EXPECT_EQ(win.retired_accesses, 0u);
  ASSERT_EQ(win.report, report_text(apps::run_app(info, base_cfg(8))));
}

TEST(WindowDiff, RetiredAccessesCountOnlyMidStreamRetirements) {
  // The final sweep frees every file still in the window, but only
  // retirements the budgets drive count: none without per-file budgets,
  // the early phases' accesses with the exact ones.
  const auto cfg = base_cfg(8);
  auto unknown = spill_phased(cfg, nullptr);
  EXPECT_EQ(windowed_drain(unknown, /*unknown_file_budgets=*/true)
                .retired_accesses,
            0u);
  auto exact = spill_phased(cfg, nullptr);
  EXPECT_GT(windowed_drain(exact).retired_accesses, 0u);
}

}  // namespace
}  // namespace pfsem
