// Differential tests for the chunked streaming pipeline: every
// registered application, run once through the spill → merge → stream
// analysis path and once through the materialized build-a-bundle path,
// must produce byte-identical compact-v2 serializations and
// byte-identical report text — across thread counts, capture modes,
// both PFS backends, fault plans, and skewed clocks. The materialized
// path is the oracle; the streaming path must never be observable in
// the output.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "pfsem/apps/harness.hpp"
#include "pfsem/apps/registry.hpp"
#include "pfsem/core/conflict.hpp"
#include "pfsem/core/offset_tracker.hpp"
#include "pfsem/core/report.hpp"
#include "pfsem/core/stream_analyze.hpp"
#include "pfsem/fault/plan.hpp"
#include "pfsem/trace/serialize.hpp"
#include "pfsem/trace/spill.hpp"
#include "pfsem/util/error.hpp"

namespace pfsem {
namespace {

apps::AppConfig base_cfg(int ranks) {
  apps::AppConfig cfg;
  cfg.nranks = ranks;
  cfg.ranks_per_node = std::max(1, ranks / 8);
  return cfg;
}

std::string compact_bytes(const trace::TraceBundle& bundle) {
  std::ostringstream os(std::ios::binary);
  trace::write_compact(bundle, os);
  return os.str();
}

std::string report_text(const trace::TraceBundle& bundle, int threads = 1) {
  const auto log = core::reconstruct_accesses(bundle);
  const auto pairs = core::detect_file_overlaps(log, {}, threads);
  const auto conflicts =
      core::detect_conflicts(log, pairs, {.threads = threads});
  const auto rep = core::build_report(bundle, log, conflicts, threads);
  std::ostringstream os;
  core::print_report(rep, os);
  return os.str();
}

struct StreamResult {
  std::string compact;  ///< compact-v2 bytes, re-encoded from the chunks
  std::string report;   ///< full report text from the streaming analysis
  std::uint64_t records = 0;
  bool spilled = false;
};

/// The whole streaming pipeline end to end: capture spills chunks into a
/// bounded store, the harness dies, then one replay pass feeds both the
/// compact re-encoder and the incremental analyzer.
StreamResult stream_run(const apps::AppInfo& info, apps::AppConfig cfg,
                        std::size_t chunk, std::size_t ceiling,
                        int threads = 1,
                        std::vector<sim::ClockModel> clocks = {},
                        const apps::FaultSetup* faults = nullptr,
                        const vfs::ClusterConfig* ccfg = nullptr) {
  trace::SpillStore store(ceiling);
  cfg.stream_chunk_records = chunk;
  trace::StreamMeta meta;
  {
    trace::ChunkWriter writer(store, cfg.nranks);
    meta = ccfg != nullptr
               ? apps::run_app_cluster_stream(info, writer, cfg, *ccfg,
                                              std::move(clocks), faults)
               : apps::run_app_stream(info, writer, cfg, {},
                                      std::move(clocks), faults);
    writer.finish(meta);
  }
  StreamResult out;
  out.records = meta.records;
  out.spilled = store.spilled();
  core::StreamAnalyzer analyzer(meta.nranks, meta.paths,
                                meta.rank_posix_counts, meta.file_op_counts);
  std::ostringstream cb(std::ios::binary);
  trace::write_compact_streamed(
      meta.nranks, meta.paths, meta.comm, meta.records,
      [&](const trace::RecordEmit& emit) {
        const auto in = store.open_read();
        trace::ChunkReader reader(*in);
        trace::Record rec;
        while (reader.next(rec)) {
          analyzer.feed(rec);
          emit(rec);
        }
        (void)reader.read_trailer();
      },
      cb);
  out.compact = cb.str();
  auto res = analyzer.finish();
  const auto pairs = core::detect_file_overlaps(res.log, {}, threads);
  const auto conflicts =
      core::detect_conflicts(res.log, pairs, {.threads = threads});
  const auto rep = core::assemble_report(std::move(res.stats), res.records,
                                         res.log.nranks, res.log, conflicts,
                                         threads);
  std::ostringstream ro;
  core::print_report(rep, ro);
  out.report = ro.str();
  return out;
}

TEST(StreamDiff, EveryAppStreamingMatchesMaterialized) {
  // Tiny chunks and a tiny spill ceiling so chunk boundaries fall inside
  // every run and the bigger runs actually hit the on-disk spill path.
  bool any_spilled = false;
  for (const auto& info : apps::registry()) {
    const auto cfg = base_cfg(8);
    const auto bundle = apps::run_app(info, cfg);
    const auto stream = stream_run(info, cfg, /*chunk=*/64,
                                   /*ceiling=*/16u << 10);
    ASSERT_EQ(stream.compact, compact_bytes(bundle)) << info.name;
    ASSERT_EQ(stream.report, report_text(bundle)) << info.name;
    ASSERT_EQ(stream.records, bundle.records.size()) << info.name;
    any_spilled = any_spilled || stream.spilled;
  }
  ASSERT_TRUE(any_spilled) << "no run exceeded the 16 KiB spill ceiling; "
                              "the on-disk path went untested";
}

TEST(StreamDiff, ReferenceAndAutoCaptureMatchMaterialized) {
  const auto& info = *apps::find_app("FLASH-fbs");
  // Reference capture pair.
  auto ref = base_cfg(8);
  ref.scheduler = sim::SchedulerKind::Heap;
  ref.capture = trace::CaptureMode::Reference;
  const auto ref_bundle = apps::run_app(info, ref);
  const auto ref_stream = stream_run(info, ref, 64, 16u << 10);
  ASSERT_EQ(ref_stream.compact, compact_bytes(ref_bundle));
  ASSERT_EQ(ref_stream.report, report_text(ref_bundle));
  // Auto capture (resolves to the reference pair at this rank count; the
  // fast pair's stream-vs-materialized identity is covered by the other
  // tests in this file, which all run the default Fast mode).
  auto cfg = base_cfg(8);
  cfg.capture = trace::CaptureMode::Auto;
  const auto bundle = apps::run_app(info, cfg);
  const auto stream = stream_run(info, cfg, 256, 64u << 10);
  ASSERT_EQ(stream.compact, compact_bytes(bundle));
  ASSERT_EQ(stream.report, report_text(bundle));
}

TEST(StreamDiff, AutoCaptureResolvesByRankCount) {
  const auto& info = *apps::find_app("GTC");
  auto cfg = base_cfg(8);
  cfg.capture = trace::CaptureMode::Auto;
  // Below the threshold Auto must be the reference pair bit-for-bit;
  // above it, the fast pair. Both are byte-identical anyway (the capture
  // differential), so Auto can never change output — only speed.
  auto ref = base_cfg(8);
  ref.scheduler = sim::SchedulerKind::Heap;
  ref.capture = trace::CaptureMode::Reference;
  ASSERT_EQ(compact_bytes(apps::run_app(info, cfg)),
            compact_bytes(apps::run_app(info, ref)));
  ASSERT_LT(8, apps::kAutoCaptureRankThreshold);
  // The resolution policy itself, on both sides of the threshold — pure,
  // so pinning the fast side needs no threshold-sized simulation.
  using trace::CaptureMode;
  static_assert(apps::resolved_capture_mode(
                    CaptureMode::Auto, apps::kAutoCaptureRankThreshold - 1) ==
                CaptureMode::Reference);
  static_assert(apps::resolved_capture_mode(
                    CaptureMode::Auto, apps::kAutoCaptureRankThreshold) ==
                CaptureMode::Fast);
  static_assert(apps::resolved_capture_mode(CaptureMode::Fast, 8) ==
                CaptureMode::Fast);
  static_assert(apps::resolved_capture_mode(CaptureMode::Reference, 1 << 20) ==
                CaptureMode::Reference);
}

TEST(StreamDiff, ThreadCountsAllByteIdentical) {
  const auto& info = *apps::find_app("FLASH-fbs");
  const auto cfg = base_cfg(64);
  const auto bundle = apps::run_app(info, cfg);
  for (const int threads : {1, 2, 4}) {
    const auto stream = stream_run(info, cfg, 256, 32u << 10, threads);
    ASSERT_EQ(stream.compact, compact_bytes(bundle)) << "threads=" << threads;
    ASSERT_EQ(stream.report, report_text(bundle, threads))
        << "threads=" << threads;
  }
}

TEST(StreamDiff, SkewedClocksMatchMaterialized) {
  const auto& info = *apps::find_app("FLASH-fbs");
  const auto cfg = base_cfg(64);
  const auto clocks = sim::make_skewed_clocks(64, 20'000, 100.0, 7);
  const auto bundle = apps::run_app(info, cfg, {}, clocks);
  const auto stream = stream_run(info, cfg, 256, 32u << 10, 1, clocks);
  ASSERT_EQ(stream.compact, compact_bytes(bundle));
  ASSERT_EQ(stream.report, report_text(bundle));
}

TEST(StreamDiff, TransientFaultsMatchMaterialized) {
  const auto& info = *apps::find_app("MACSio");
  apps::FaultSetup setup;
  setup.plan = fault::FaultPlan::parse(
      "eio:p=0.03,ops=data; slow:factor=6,from=0,to=4ms;"
      "drop:p=0.1,timeout=500us");
  setup.seed = 11;
  setup.retry.max_attempts = 4;
  const auto cfg = base_cfg(8);
  const auto bundle = apps::run_app(info, cfg, {}, {}, &setup);
  const auto stream = stream_run(info, cfg, 64, 16u << 10, 1, {}, &setup);
  ASSERT_EQ(stream.compact, compact_bytes(bundle));
  ASSERT_EQ(stream.report, report_text(bundle));
}

TEST(StreamDiff, ClusterMdsFailoverMatchesMaterialized) {
  const auto& info = *apps::find_app("GTC");
  apps::FaultSetup setup;
  setup.plan = fault::FaultPlan::parse("crash_mds:id=0,t=1ms");
  setup.seed = 7;
  vfs::ClusterConfig ccfg;
  ccfg.mds_count = 2;
  ccfg.ost_count = 4;
  const auto cfg = base_cfg(8);
  const auto bundle = apps::run_app_cluster(info, cfg, ccfg, {}, &setup);
  const auto stream =
      stream_run(info, cfg, 64, 16u << 10, 1, {}, &setup, &ccfg);
  ASSERT_EQ(stream.compact, compact_bytes(bundle));
  ASSERT_EQ(stream.report, report_text(bundle));
}

TEST(StreamDiff, CollectorPendingBoundedByChunkSize) {
  // The collector may never hold more than one chunk of records while
  // streaming — that bound is what makes capture memory flat in rank
  // count (the spill store and the vfs hold the rest).
  trace::SpillStore store(1u << 20);
  trace::ChunkWriter writer(store, 64);
  auto cfg = base_cfg(64);
  cfg.stream_sink = &writer;
  cfg.stream_chunk_records = 128;
  apps::Harness h(cfg);
  apps::find_app("FLASH-fbs")->run(h);
  EXPECT_LE(h.collector().stream_peak_pending(), 128u);
  const auto meta = h.finish_stream();
  writer.finish(meta);
  EXPECT_GT(meta.records, 128u) << "run too small to exercise the bound";
}

TEST(StreamDiff, RankBudgetsShrinkReorderBuffer) {
  // Per-rank POSIX budgets let the analyzer retire finished ranks from
  // the release frontier. Without them (empty budgets) the analysis is
  // still correct — just buffered more conservatively.
  const auto& info = *apps::find_app("FLASH-fbs");
  const auto cfg = base_cfg(64);
  trace::SpillStore store(1u << 20);
  trace::StreamMeta meta;
  {
    trace::ChunkWriter writer(store, cfg.nranks);
    auto streamed = cfg;
    streamed.stream_chunk_records = 256;
    meta = apps::run_app_stream(info, writer, streamed);
    writer.finish(meta);
  }
  auto drain = [&](core::StreamAnalyzer& an) {
    const auto in = store.open_read();
    trace::ChunkReader reader(*in);
    trace::Record rec;
    while (reader.next(rec)) an.feed(rec);
    (void)reader.read_trailer();
    return an.finish();
  };
  core::StreamAnalyzer with(meta.nranks, meta.paths, meta.rank_posix_counts,
                            meta.file_op_counts);
  core::StreamAnalyzer without(meta.nranks, meta.paths, {},
                               meta.file_op_counts);
  const auto res_with = drain(with);
  const auto res_without = drain(without);
  // Identical analysis either way...
  const auto text = [](const core::StreamAnalyzer::Result& r, int nranks) {
    const auto pairs = core::detect_file_overlaps(r.log);
    const auto conflicts = core::detect_conflicts(r.log, pairs, {});
    const auto rep = core::assemble_report(r.stats, r.records, nranks, r.log,
                                           conflicts);
    std::ostringstream os;
    core::print_report(rep, os);
    return os.str();
  };
  ASSERT_EQ(text(res_with, meta.nranks), text(res_without, meta.nranks));
  ASSERT_EQ(text(res_with, meta.nranks),
            report_text(apps::run_app(info, cfg)));
  // ...but budgets must never buffer more than the budget-free analyzer.
  EXPECT_LE(with.peak_buffered(), without.peak_buffered());
  EXPECT_GT(without.peak_buffered(), 0u);
}

TEST(StreamDiff, UnknownBudgetsStayByteIdenticalWindowedOrNot) {
  // Both budget vectors empty at once — the analyzer knows nothing about
  // per-rank or per-file totals. The reorder buffer degrades to
  // finish-time draining and the window to a finish-time sweep, but the
  // report must still match the materialized oracle byte for byte.
  const auto& info = *apps::find_app("GTC");
  const auto cfg = base_cfg(8);
  trace::SpillStore store(1u << 20);
  trace::StreamMeta meta;
  {
    trace::ChunkWriter writer(store, cfg.nranks);
    auto streamed = cfg;
    streamed.stream_chunk_records = 64;
    meta = apps::run_app_stream(info, writer, streamed);
    writer.finish(meta);
  }
  const auto oracle = report_text(apps::run_app(info, cfg));
  auto feed_all = [&](core::StreamAnalyzer& an) {
    const auto in = store.open_read();
    trace::ChunkReader reader(*in);
    trace::Record rec;
    while (reader.next(rec)) an.feed(rec);
    (void)reader.read_trailer();
  };
  {
    core::StreamAnalyzer an(meta.nranks, meta.paths, {}, meta.file_op_counts);
    feed_all(an);
    const auto res = an.finish();
    const auto pairs = core::detect_file_overlaps(res.log);
    const auto conflicts = core::detect_conflicts(res.log, pairs, {});
    const auto rep = core::assemble_report(res.stats, res.records,
                                           res.log.nranks, res.log, conflicts);
    std::ostringstream os;
    core::print_report(rep, os);
    ASSERT_EQ(os.str(), oracle);
  }
  {
    core::StreamAnalyzer an(meta.nranks, meta.paths, {}, meta.file_op_counts);
    an.enable_window({}, {});
    feed_all(an);
    EXPECT_EQ(an.retired_accesses(), 0u)
        << "unknown budgets must never retire a file mid-stream";
    auto res = an.finish_windowed();
    const auto rep = core::assemble_windowed_report(
        std::move(res.stats), res.records, res.nranks, res.summaries);
    std::ostringstream os;
    core::print_report(rep, os);
    ASSERT_EQ(os.str(), oracle);
  }
}

TEST(StreamDiff, SpillStoreSpillsAndRoundTrips) {
  trace::SpillStore store(/*memory_ceiling=*/16);
  store.append("0123456789");
  EXPECT_FALSE(store.spilled());
  store.append("abcdefghij");  // crosses the ceiling: spills to disk
  EXPECT_TRUE(store.spilled());
  store.append("KLMNO");
  EXPECT_EQ(store.bytes(), 25u);
  EXPECT_LE(store.peak_memory(), 16u);
  const auto in = store.open_read();
  std::string all(std::istreambuf_iterator<char>(*in), {});
  EXPECT_EQ(all, "0123456789abcdefghijKLMNO");
  // A spilled store is read-only once opened for reading.
  EXPECT_THROW(store.append("more"), Error);
}

TEST(StreamDiff, UnspilledStoreIsRereadable) {
  trace::SpillStore store(1u << 10);
  store.append("abc");
  store.append("def");
  EXPECT_FALSE(store.spilled());
  for (int i = 0; i < 2; ++i) {
    const auto in = store.open_read();
    std::string all(std::istreambuf_iterator<char>(*in), {});
    EXPECT_EQ(all, "abcdef");
  }
}

TEST(StreamDiff, UnspilledStoreViewsAreReadOnly) {
  // open_read() on an unspilled store hands out views of its buffer, not
  // copies: the store freezes, and concurrent views read the same bytes.
  trace::SpillStore store(1u << 10);
  store.append("abcdef");
  const auto a = store.open_read();
  const auto b = store.open_read();
  EXPECT_THROW(store.append("more"), Error);
  EXPECT_FALSE(store.spilled());
  char head[3];
  ASSERT_TRUE(a->read(head, sizeof head));
  const std::string all_b(std::istreambuf_iterator<char>(*b), {});
  const std::string rest_a(std::istreambuf_iterator<char>(*a), {});
  EXPECT_EQ(std::string(head, sizeof head) + rest_a, "abcdef");
  EXPECT_EQ(all_b, "abcdef");
  a->clear();
  a->seekg(2);
  EXPECT_EQ(std::string(std::istreambuf_iterator<char>(*a), {}), "cdef");
}

}  // namespace
}  // namespace pfsem
