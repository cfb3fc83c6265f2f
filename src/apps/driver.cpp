#include "pfsem/apps/driver.hpp"

#include <optional>
#include <utility>

#include "pfsem/trace/serialize.hpp"

namespace pfsem::apps {

namespace {

/// StreamSink shim for traced runs: forwards each batch to the chunk
/// writer, then samples the spill store's occupancy as a Perfetto
/// counter track (time axis = the batch's last record, sim time).
class SpillCounterSink final : public trace::StreamSink {
 public:
  SpillCounterSink(trace::StreamSink& inner, const trace::SpillStore& store,
                   obs::Run& run)
      : inner_(inner), store_(store), run_(run) {}

  void on_records(std::uint64_t base_seq,
                  std::span<const trace::Record> records) override {
    inner_.on_records(base_seq, records);
    if (!records.empty()) {
      run_.tracer.counter({obs::kPidStream, 0}, "spill.bytes",
                          records.back().tstart,
                          static_cast<std::int64_t>(store_.bytes()));
    }
  }

 private:
  trace::StreamSink& inner_;
  const trace::SpillStore& store_;
  obs::Run& run_;
};

/// Window-retirement observers: condense the ledger's per-rank rows the
/// moment a file leaves the live window (so ledger memory is bounded by
/// the window, like everything else), and sample the live-file count as
/// a Perfetto counter track. Both reductions are order-independent, so
/// retire-time condensation is byte-identical to export-time.
core::WindowAnalysisOptions window_opts_for(obs::Run* run) {
  core::WindowAnalysisOptions wopts;
  if (run == nullptr) return wopts;
  const bool ledger = run->ledger_on();
  const bool tracing = run->tracing();
  if (!ledger && !tracing) return wopts;
  wopts.on_retire = [run, ledger, tracing](FileId f, std::size_t live,
                                           SimTime t) {
    if (ledger) run->ledger.condense(f);
    if (tracing) {
      run->tracer.counter({obs::kPidStream, 0}, "window.live_files", t,
                          static_cast<std::int64_t>(live));
    }
  };
  return wopts;
}

void validate_tail(trace::ChunkReader& reader) { reader.read_trailer(); }
void validate_tail(trace::CompactReader& reader) { reader.read_comm(); }

/// The step both drains share: feed every record `reader` yields into a
/// window-enabled analyzer, validate the stream's tail, finalize, and
/// publish the live-window gauges. Those are volatile by registration:
/// the materialized oracle never sets them, so the stable dump must not
/// carry them.
template <typename Reader>
core::StreamAnalyzer::WindowedResult analyze(
    Reader& reader, trace::PathTable paths,
    std::vector<std::uint64_t> rank_posix_counts,
    const std::vector<std::uint32_t>& hints,
    std::vector<std::uint64_t> file_posix_counts, obs::Run* run) {
  core::StreamAnalyzer analyzer(reader.nranks(), std::move(paths),
                                std::move(rank_posix_counts), hints);
  analyzer.enable_window(window_opts_for(run), std::move(file_posix_counts));
  trace::Record rec;
  while (reader.next(rec)) analyzer.feed(rec);
  validate_tail(reader);
  auto res = analyzer.finish_windowed();
  if (run != nullptr) {
    run->metrics.set(run->window_live_files,
                     static_cast<std::int64_t>(res.peak_live_files));
    run->metrics.set(run->window_retired_accesses,
                     static_cast<std::int64_t>(res.retired_accesses));
  }
  return res;
}

/// Free the log's bytes for real: move-assigning an empty string keeps
/// the old capacity, swapping hands it to a temporary that dies here.
void release(trace::EncodedCommLog& comm) {
  trace::EncodedCommLog gone;
  std::swap(comm, gone);
}

}  // namespace

SpilledRun spill_app(const AppInfo& info, AppConfig cfg,
                     std::size_t spill_ceiling,
                     const vfs::ClusterConfig* cluster,
                     std::vector<sim::ClockModel> clocks,
                     const FaultSetup* faults, fault::FaultStats* stats_out) {
  SpilledRun run;
  run.store = std::make_unique<trace::SpillStore>(spill_ceiling);
  run.obs = cfg.obs;
  trace::ChunkWriter writer(*run.store, cfg.nranks);
  std::optional<SpillCounterSink> counting;
  trace::StreamSink* sink = &writer;
  if (cfg.obs != nullptr && cfg.obs->tracing()) {
    sink = &counting.emplace(writer, *run.store, *cfg.obs);
  }
  run.meta = cluster != nullptr
                 ? run_app_cluster_stream(info, *sink, cfg, *cluster,
                                          std::move(clocks), faults, stats_out)
                 : run_app_stream(info, *sink, cfg, {}, std::move(clocks),
                                  faults, stats_out);
  writer.finish(run.meta);
  return run;
}

core::StreamAnalyzer::WindowedResult drain_spill(SpilledRun& run) {
  release(run.meta.comm);
  const auto in = run.store->open_read();
  trace::ChunkReader reader(*in);
  return analyze(reader, std::move(run.meta.paths),
                 std::move(run.meta.rank_posix_counts),
                 run.meta.file_op_counts,
                 std::move(run.meta.file_posix_counts), run.obs);
}

core::StreamAnalyzer::WindowedResult drain_compact(std::istream& is,
                                                   obs::Run* obs) {
  const std::streampos start = is.tellg();
  std::vector<std::uint64_t> rank_counts;
  std::vector<std::uint64_t> file_counts;
  {
    trace::CompactReader pass1(is);
    rank_counts.assign(static_cast<std::size_t>(pass1.nranks()), 0);
    trace::Record rec;
    while (pass1.next(rec)) {
      if (rec.layer != trace::Layer::Posix) continue;
      ++rank_counts[static_cast<std::size_t>(rec.rank)];
      if (rec.file != kNoFile) {
        if (rec.file >= file_counts.size()) file_counts.resize(rec.file + 1);
        ++file_counts[rec.file];
      }
    }
  }
  is.clear();
  is.seekg(start);
  trace::CompactReader reader(is);
  return analyze(reader, reader.paths(), std::move(rank_counts), {},
                 std::move(file_counts), obs);
}

void write_compact(const SpilledRun& run, std::ostream& os) {
  const trace::StreamMeta& meta = run.meta;
  trace::write_compact_streamed(
      meta.nranks, meta.paths, meta.comm, meta.records,
      [&](const trace::RecordEmit& emit) {
        const auto in = run.store->open_read();
        trace::ChunkReader reader(*in);
        trace::Record rec;
        while (reader.next(rec)) emit(rec);
        reader.read_trailer();
      },
      os);
}

}  // namespace pfsem::apps
