// Differential tests for the chunked streaming pipeline: every
// registered application, run once through the spill → merge → stream
// analysis path and once through the materialized build-a-bundle path,
// must produce byte-identical trace files (the spill's bytes against
// write_compact of the bundle) and byte-identical report text — across thread counts, both schedulers,
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

#include "pfsem/apps/driver.hpp"
#include "pfsem/apps/harness.hpp"
#include "pfsem/apps/registry.hpp"
#include "pfsem/core/conflict.hpp"
#include "pfsem/core/offset_tracker.hpp"
#include "pfsem/core/report.hpp"
#include "pfsem/core/stream_analyze.hpp"
#include "pfsem/fault/plan.hpp"
#include "pfsem/trace/collector.hpp"
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

std::string windowed_text(core::StreamAnalyzer::WindowedResult res) {
  const auto rep = core::assemble_windowed_report(
      std::move(res.stats), res.records, res.nranks, res.summaries);
  std::ostringstream os;
  core::print_report(rep, os);
  return os.str();
}

struct StreamResult {
  std::string compact;  ///< the spill's bytes: the saved trace
  std::string report;   ///< full report text from the streaming analysis
  std::uint64_t records = 0;
  bool spilled = false;
};

/// The whole streaming pipeline end to end through the driver: capture
/// spills chunks into a bounded store, the harness dies, the spill's bytes
/// are kept (what `pfsem trace --stream` saves), and the spill drains
/// through the windowed analysis (as `pfsem report --stream`). The
/// trailer's budgets must be the ones the collector tallied.
StreamResult stream_run(const apps::AppInfo& info, apps::AppConfig cfg,
                        std::size_t chunk, std::size_t ceiling,
                        std::vector<sim::ClockModel> clocks = {},
                        const apps::FaultSetup* faults = nullptr,
                        apps::Backend backend = {}) {
  cfg.stream_chunk_records = chunk;
  auto run = apps::spill_app(info, cfg, ceiling, std::move(backend),
                             std::move(clocks), faults);
  StreamResult out;
  out.records = run.meta.records;
  out.spilled = run.store->spilled();
  {
    const auto in = run.store->open_read();
    out.compact.assign(std::istreambuf_iterator<char>(*in), {});
    in->clear();
    in->seekg(0);
    const auto index = trace::read_index(*in);
    EXPECT_EQ(index.rank_posix_counts, run.meta.rank_posix_counts);
    EXPECT_EQ(index.file_posix_counts, run.meta.file_posix_counts);
    EXPECT_EQ(index.paths.size(), run.meta.paths.size());
  }
  out.report = windowed_text(apps::drain_spill(run));
  return out;
}

/// Replay a spilled run's records into a hand-configured analyzer, for
/// the tests that look inside the analyzer itself.
void feed_all(const apps::SpilledRun& run, core::StreamAnalyzer& an) {
  const auto in = run.store->open_read();
  trace::ChunkReader reader(*in);
  trace::Record rec;
  while (reader.next(rec)) an.feed(rec);
  reader.read_trailer();
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

TEST(StreamDiff, HeapSchedulerMatchesMaterialized) {
  // The heap-scheduler oracle streams the same bytes it materializes (the
  // production scheduler's stream-vs-materialized identity is covered by
  // the other tests in this file).
  const auto& info = *apps::find_app("FLASH-fbs");
  auto cfg = base_cfg(8);
  cfg.scheduler = sim::SchedulerKind::Heap;
  const auto bundle = apps::run_app(info, cfg);
  const auto stream = stream_run(info, cfg, 64, 16u << 10);
  ASSERT_EQ(stream.compact, compact_bytes(bundle));
  ASSERT_EQ(stream.report, report_text(bundle));
}

TEST(StreamDiff, ThreadCountsAllByteIdentical) {
  // The streaming analysis is single-pass; the materialized oracle must
  // agree with it at every thread count.
  const auto& info = *apps::find_app("FLASH-fbs");
  const auto cfg = base_cfg(64);
  const auto bundle = apps::run_app(info, cfg);
  const auto stream = stream_run(info, cfg, 256, 32u << 10);
  ASSERT_EQ(stream.compact, compact_bytes(bundle));
  for (const int threads : {1, 2, 4}) {
    ASSERT_EQ(stream.report, report_text(bundle, threads))
        << "threads=" << threads;
  }
}

TEST(StreamDiff, SkewedClocksMatchMaterialized) {
  const auto& info = *apps::find_app("FLASH-fbs");
  const auto cfg = base_cfg(64);
  const auto clocks = sim::make_skewed_clocks(64, 20'000, 100.0, 7);
  const auto bundle = apps::run_app(info, cfg, {}, clocks);
  const auto stream = stream_run(info, cfg, 256, 32u << 10, clocks);
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
  const auto stream = stream_run(info, cfg, 64, 16u << 10, {}, &setup);
  ASSERT_EQ(stream.compact, compact_bytes(bundle));
  ASSERT_EQ(stream.report, report_text(bundle));
}

TEST(StreamDiff, EveryAppStreamsTheMaterializedCommLogBytes) {
  // Both captures keep the comm log in one encoding; a streamed run must
  // hand over exactly the bytes a materialized run keeps, including the
  // clock conversion and events that faults reshape, at a small and a
  // larger rank count.
  apps::FaultSetup setup;
  setup.plan = fault::FaultPlan::parse(
      "eio:p=0.03,ops=data; slow:factor=6,from=0,to=4ms;"
      "drop:p=0.1,timeout=500us");
  setup.seed = 11;
  setup.retry.max_attempts = 4;
  std::uint64_t collectives = 0;
  for (const int nranks : {8, 64}) {
    const auto cfg = base_cfg(nranks);
    const auto clocks = sim::make_skewed_clocks(nranks, 20'000, 100.0, 7);
    for (const auto& info : apps::registry()) {
      const auto bundle = apps::run_app(info, cfg, {}, clocks, &setup);
      auto scfg = cfg;
      scfg.stream_chunk_records = 64;
      const auto run = apps::spill_app(info, scfg,
                                       trace::SpillStore::kDefaultCeiling,
                                       {}, clocks, &setup);
      EXPECT_EQ(run.meta.comm, bundle.comm) << info.name << " @" << nranks;
      collectives += run.meta.comm.collective_count;
    }
  }
  EXPECT_GT(collectives, 0u);
}

TEST(StreamDiff, StreamingCollectorEncodesCommEventsAsMaterialized) {
  // No registered app sends point-to-point messages, so drive both event
  // kinds through a streaming and a materializing collector directly.
  const auto clocks = sim::make_skewed_clocks(4, 20'000, 100.0, 3);
  trace::Collector mat(4, clocks);
  trace::Collector str(4, clocks);
  trace::SpillStore store;
  trace::ChunkWriter writer(store, 4);
  str.enable_streaming(&writer, 16);
  trace::CommLog sent;
  sent.p2p = {{0, 3, -7, 4096, 1'000, 1'500, 1'200, 2'000},
              {3, 1, 1 << 30, 0, 4'000, 4'010, 3'990, 4'500}};
  sent.collectives = {
      {trace::CollectiveKind::Bcast, 2,
       {{0, 3'000, 3'400}, {2, 2'900, 3'100}, {1, 3'050, 3'600}}},
      {trace::CollectiveKind::Allreduce, kNoRank,
       {{0, 5'000, 5'300}, {1, 5'000, 5'300}, {2, 5'010, 5'300},
        {3, 5'020, 5'300}}}};
  for (trace::Collector* c : {&mat, &str}) {
    for (std::size_t i = 0; i < 2; ++i) {
      c->emit_p2p(sent.p2p[i]);
      c->emit_collective(sent.collectives[i]);
    }
  }
  const auto kept = mat.take().comm;
  const auto meta = str.take_stream();
  EXPECT_EQ(meta.comm.p2p_count, 2u);
  EXPECT_EQ(meta.comm.collective_count, 2u);
  EXPECT_EQ(meta.comm, kept);
  // What was kept is each event on its ranks' local clocks.
  const auto got = trace::decode_comm(kept, 4);
  ASSERT_EQ(got.p2p.size(), 2u);
  ASSERT_EQ(got.collectives.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const auto& e = sent.p2p[i];
    EXPECT_EQ(got.p2p[i].t_send_start,
              clocks[static_cast<std::size_t>(e.src)].local_time(
                  e.t_send_start));
    EXPECT_EQ(got.p2p[i].t_recv_end,
              clocks[static_cast<std::size_t>(e.dst)].local_time(
                  e.t_recv_end));
    const auto& arrivals = sent.collectives[i].arrivals;
    ASSERT_EQ(got.collectives[i].arrivals.size(), arrivals.size());
    for (std::size_t j = 0; j < arrivals.size(); ++j) {
      const auto& clock = clocks[static_cast<std::size_t>(arrivals[j].rank)];
      EXPECT_EQ(got.collectives[i].arrivals[j].t_exit,
                clock.local_time(arrivals[j].t_exit));
    }
  }
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
  const auto bundle = apps::run_app(info, cfg, ccfg, {}, &setup);
  const auto stream = stream_run(info, cfg, 64, 16u << 10, {}, &setup, ccfg);
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
  auto streamed = cfg;
  streamed.stream_chunk_records = 256;
  const auto run = apps::spill_app(info, streamed, 1u << 20);
  const auto& meta = run.meta;
  core::StreamAnalyzer with(meta.nranks, meta.paths, meta.rank_posix_counts,
                            meta.file_op_counts);
  core::StreamAnalyzer without(meta.nranks, meta.paths, {},
                               meta.file_op_counts);
  feed_all(run, with);
  feed_all(run, without);
  // Identical analysis either way...
  const auto text_with = windowed_text(with.finish_windowed());
  ASSERT_EQ(text_with, windowed_text(without.finish_windowed()));
  ASSERT_EQ(text_with, report_text(apps::run_app(info, cfg)));
  // ...but budgets must never buffer more than the budget-free analyzer.
  EXPECT_LE(with.peak_buffered(), without.peak_buffered());
  EXPECT_GT(without.peak_buffered(), 0u);
}

TEST(StreamDiff, UnknownBudgetsStayByteIdentical) {
  // Both budget vectors empty at once — the analyzer knows nothing about
  // per-rank or per-file totals. The reorder buffer degrades to
  // finish-time draining and the window to a finish-time sweep, but the
  // report must still match the materialized oracle byte for byte.
  const auto& info = *apps::find_app("GTC");
  const auto cfg = base_cfg(8);
  auto streamed = cfg;
  streamed.stream_chunk_records = 64;
  const auto run = apps::spill_app(info, streamed, 1u << 20);
  core::StreamAnalyzer an(run.meta.nranks, run.meta.paths, {},
                          run.meta.file_op_counts);
  an.enable_window({}, {});
  feed_all(run, an);
  EXPECT_EQ(an.retired_accesses(), 0u)
      << "unknown budgets must never retire a file mid-stream";
  ASSERT_EQ(windowed_text(an.finish_windowed()),
            report_text(apps::run_app(info, cfg)));
}

TEST(StreamDiff, DriverSpillsToDiskAndReleasesCommLog) {
  // A ceiling far below the run's spill forces the temp-file path; the
  // report must still match the oracle, and the drain must free the
  // encoded comm log (already copied into the trailer) for real, not
  // just empty it and keep its capacity.
  const auto& info = *apps::find_app("FLASH-fbs");
  auto cfg = base_cfg(8);
  cfg.stream_chunk_records = 64;
  auto run = apps::spill_app(info, cfg, /*spill_ceiling=*/4u << 10);
  ASSERT_TRUE(run.store->spilled());
  ASSERT_GT(run.meta.comm.collective_count, 0u);
  const auto report = windowed_text(apps::drain_spill(run));
  EXPECT_EQ(report, report_text(apps::run_app(info, base_cfg(8))));
  const std::size_t empty_capacity = std::string().capacity();
  EXPECT_EQ(run.meta.comm.collective_count, 0u);
  EXPECT_EQ(run.meta.comm.p2p_count, 0u);
  EXPECT_TRUE(run.meta.comm.collectives.empty());
  EXPECT_TRUE(run.meta.comm.p2p.empty());
  EXPECT_EQ(run.meta.comm.collectives.capacity(), empty_capacity);
  EXPECT_EQ(run.meta.comm.p2p.capacity(), empty_capacity);
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
