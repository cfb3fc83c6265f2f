#include "pipeline.hpp"

#include <algorithm>
#include <iterator>
#include <memory>
#include <sstream>

#include "pfsem/apps/registry.hpp"
#include "pfsem/core/conflict.hpp"
#include "pfsem/core/offset_tracker.hpp"
#include "pfsem/core/overlap.hpp"
#include "pfsem/core/pattern.hpp"
#include "pfsem/core/report.hpp"
#include "pfsem/core/stream_analyze.hpp"
#include "pfsem/core/window.hpp"
#include "pfsem/trace/serialize.hpp"
#include "pfsem/trace/spill.hpp"
#include "pfsem/util/error.hpp"
#include "pfsem/vfs/cluster.hpp"
#include "pfsem/vfs/pfs.hpp"

namespace pfsem_e2e {

using namespace pfsem;

namespace {

/// Records per decode-then-feed batch in a traced stream rep: long enough
/// that two clock reads per batch cost nothing, short enough that the
/// batch stays in cache between decode and feed.
constexpr std::size_t kFeedBatch = 4096;

/// The plain backend for untraced reps (the CLI's constructors); the
/// same backend inside a TimedFs, through Harness's custom-backend
/// constructor, for traced ones.
std::unique_ptr<apps::Harness> make_harness(const apps::AppConfig& cfg,
                                            Backend backend,
                                            TimedFs** timed) {
  vfs::ClusterConfig cluster;
  cluster.mds_count = 2;
  cluster.ost_count = 4;
  if (timed == nullptr) {
    if (backend == Backend::Pfs) {
      return std::make_unique<apps::Harness>(cfg, vfs::PfsConfig{});
    }
    return std::make_unique<apps::Harness>(cfg, cluster);
  }
  std::unique_ptr<vfs::FileSystem> inner;
  if (backend == Backend::Pfs) {
    inner = std::make_unique<vfs::Pfs>();
  } else {
    inner = std::make_unique<vfs::PfsCluster>(cluster);
  }
  auto fs = std::make_unique<TimedFs>(std::move(inner));
  *timed = fs.get();
  return std::make_unique<apps::Harness>(cfg, std::move(fs));
}

/// The vfs tallies of a finished capture, as aggregate children of it.
Clock::time_point note_vfs(SpanLog& log, const Phase& capture,
                           const TimedFs& fs) {
  const auto at = log.aggregate(capture.id(), "vfs.meta", fs.meta(),
                                capture.start());
  return log.aggregate(capture.id(), "vfs.data", fs.data(), at);
}

/// The registry's ground truth (paper Tables 3-4, Section 6.3), checked
/// against a report the way tests/test_apps.cpp checks the raw analysis.
std::string expectation_error(const apps::Expectation& e,
                              const core::RunReport& rep) {
  if (!e.xy.empty()) {
    if (rep.pattern.xy != e.xy) {
      return "pattern " + rep.pattern.xy + ", expected " + e.xy;
    }
    const std::string layout = core::to_string(rep.pattern.layout);
    if (layout != e.layout) return "layout " + layout + ", expected " + e.layout;
  }
  std::uint64_t session = 0, commit = 0;
  for (const auto& [path, f] : rep.files) {
    session += f.session_conflicts;
    commit += f.commit_conflicts;
  }
  if ((session > 0) != e.any_conflict()) {
    return std::to_string(session) + " session conflicts, expected " +
           (e.any_conflict() ? "some" : "none");
  }
  if (e.commit_clears && commit != 0) {
    return std::to_string(commit) + " commit conflicts, expected none";
  }
  return {};
}

void print_and_check(SpanLog* log, const apps::AppInfo& info,
                     const core::RunReport& report, RepResult& r) {
  {
    Phase p(log, "core.print_report");
    std::ostringstream os;
    core::print_report(report, os);
    r.report = os.str();
  }
  r.files = report.files.size();
  r.expectation_error = expectation_error(info.expect, report);
}

RepResult materialized(const apps::AppInfo& info, const apps::AppConfig& cfg,
                       const RunSpec& spec) {
  RepResult r;
  SpanLog* const log = spec.log;
  Phase rep(log, "rep");
  Phase setup(log, "setup");
  TimedFs* timed = nullptr;
  std::unique_ptr<apps::Harness> h;
  {
    Phase ctor(log, "apps.harness_ctor");
    h = make_harness(cfg, spec.backend, log != nullptr ? &timed : nullptr);
  }
  r.setup_s = setup.stop();
  {
    Phase cap(log, "apps.capture");
    info.run(*h);
    cap.stop();
    if (timed != nullptr) (void)note_vfs(*log, cap, *timed);
  }
  trace::TraceBundle bundle;
  {
    Phase p(log, "trace.handoff");
    bundle = h->finish();
  }
  if (timed != nullptr) r.vfs_call_ns = timed->take_call_ns();
  {
    Phase p(log, "apps.harness_teardown");
    h.reset();
  }
  core::AccessLog acc;
  {
    Phase p(log, "core.ingest");
    acc = core::reconstruct_accesses(bundle);
  }
  core::RunReport report;
  {
    Phase an(log, "core.analysis");
    core::FileOverlaps pairs;
    {
      Phase p(log, "core.overlap");
      pairs = core::detect_file_overlaps(acc, {}, kAnalysisThreads);
    }
    core::ConflictReport conflicts;
    {
      Phase p(log, "core.conflict");
      conflicts =
          core::detect_conflicts(acc, pairs, {.threads = kAnalysisThreads});
    }
    Phase p(log, "core.build_report");
    report = core::build_report(bundle, acc, conflicts, kAnalysisThreads);
  }
  print_and_check(log, info, report, r);
  r.run_to_report_s = rep.stop();

  r.records = bundle.records.size();
  r.live_peak_files = acc.file_count();
  const auto posix = report.layer_counts.find(trace::Layer::Posix);
  r.reorder_peak_records =
      posix != report.layer_counts.end() ? posix->second : 0;
  r.bytes_per_record = sizeof(trace::Record);
  if (spec.keep_capture) {
    std::ostringstream os;
    trace::write_compact(bundle, os);
    r.capture = os.str();
  }
  return r;
}

/// Decode a batch, then feed it: the two layers of a stream replay timed
/// apart with two clock reads per batch instead of two per record.
void feed_in_batches(SpanLog& log, int parent, trace::ChunkReader& reader,
                     core::StreamAnalyzer& analyzer) {
  std::vector<trace::Record> batch(kFeedBatch);
  Tally decode, feed;
  const auto begin = Clock::now();
  for (bool more = true; more;) {
    const auto t0 = Clock::now();
    std::size_t n = 0;
    while (n < kFeedBatch && (more = reader.next(batch[n]))) ++n;
    const auto t1 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) analyzer.feed(batch[i]);
    const auto t2 = Clock::now();
    decode.calls += n;
    decode.total += t1 - t0;
    feed.calls += n;
    feed.total += t2 - t1;
  }
  const auto at = log.aggregate(parent, "trace.chunk_decode", decode, begin);
  (void)log.aggregate(parent, "core.stream_feed", feed, at);
}

RepResult stream(const apps::AppInfo& info, apps::AppConfig cfg,
                 const RunSpec& spec) {
  RepResult r;
  SpanLog* const log = spec.log;
  Phase rep(log, "rep");
  Phase setup(log, "setup");
  // The CLI's default --spill-mem: the spill stays in memory below it.
  trace::SpillStore store(trace::SpillStore::kDefaultCeiling);
  trace::ChunkWriter writer(store, cfg.nranks);
  TimedSink timed_sink(writer);
  cfg.stream_sink = log != nullptr ? static_cast<trace::StreamSink*>(&timed_sink)
                                   : &writer;
  TimedFs* timed = nullptr;
  std::unique_ptr<apps::Harness> h;
  {
    Phase ctor(log, "apps.harness_ctor");
    h = make_harness(cfg, spec.backend, log != nullptr ? &timed : nullptr);
  }
  r.setup_s = setup.stop();
  {
    Phase cap(log, "apps.capture");
    info.run(*h);
    cap.stop();
    if (timed != nullptr) {
      const auto at = note_vfs(*log, cap, *timed);
      (void)log->aggregate(cap.id(), "trace.sink", timed_sink.take(), at);
    }
  }
  trace::StreamMeta meta;
  {
    Phase ho(log, "trace.handoff");
    meta = h->finish_stream();  // flushes the tail chunk through the sink
    if (log != nullptr) {
      (void)log->aggregate(ho.id(), "trace.sink_flush", timed_sink.take(),
                           ho.start());
    }
    Phase p(log, "trace.trailer_encode");
    writer.finish(meta);
  }
  if (timed != nullptr) r.vfs_call_ns = timed->take_call_ns();
  {
    Phase p(log, "apps.harness_teardown");
    h.reset();
  }
  core::StreamAnalyzer::WindowedResult res;
  {
    Phase in(log, "core.ingest");
    std::unique_ptr<std::istream> is;
    {
      Phase p(log, "trace.spill_open");
      is = store.open_read();
    }
    trace::ChunkReader reader(*is);
    core::StreamAnalyzer analyzer(meta.nranks, std::move(meta.paths),
                                  std::move(meta.rank_posix_counts),
                                  meta.file_op_counts);
    analyzer.enable_window({}, std::move(meta.file_posix_counts));
    if (log == nullptr) {
      trace::Record rec;
      while (reader.next(rec)) analyzer.feed(rec);
    } else {
      feed_in_batches(*log, in.id(), reader, analyzer);
    }
    {
      Phase p(log, "trace.trailer_decode");
      (void)reader.read_trailer();  // validates the framing end to end
    }
    {
      Phase p(log, "core.finish");
      res = analyzer.finish_windowed();
    }
    r.reorder_peak_records = analyzer.peak_buffered();
  }
  core::RunReport report;
  {
    Phase p(log, "core.analysis");
    report = core::assemble_windowed_report(std::move(res.stats), res.records,
                                            res.nranks, res.summaries);
  }
  print_and_check(log, info, report, r);
  r.run_to_report_s = rep.stop();

  r.records = res.records;
  r.live_peak_files = res.peak_live_files;
  r.bytes_per_record = res.records == 0
                           ? 0.0
                           : static_cast<double>(store.bytes()) /
                                 static_cast<double>(res.records);
  if (spec.keep_capture) {
    const auto in = store.open_read();
    r.capture.assign(std::istreambuf_iterator<char>(*in),
                     std::istreambuf_iterator<char>());
  }
  return r;
}

}  // namespace

RepResult run_to_report(const RunSpec& spec) {
  const apps::AppInfo* info = apps::find_app(spec.app);
  require(info != nullptr, "unknown application '" + spec.app + "'");
  apps::AppConfig cfg;
  cfg.nranks = spec.ranks;
  cfg.ranks_per_node = std::max(1, spec.ranks / 8);
  cfg.seed = spec.seed;
  return spec.pipeline == Pipeline::Materialized
             ? materialized(*info, cfg, spec)
             : stream(*info, cfg, spec);
}

}  // namespace pfsem_e2e
