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

}  // namespace

SpilledRun spill_app(const AppInfo& info, AppConfig cfg,
                     std::size_t spill_ceiling, Backend backend,
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
  run.meta = run_app_stream(info, *sink, cfg, std::move(backend),
                            std::move(clocks), faults, stats_out);
  writer.finish(run.meta);
  return run;
}

core::StreamAnalyzer::WindowedResult drain_spill(SpilledRun& run) {
  // The spill's trailer carries everything the drain needs; free the
  // capture's copy (paths, budgets, the encoded comm log) for real
  // before the first record replays.
  { trace::StreamMeta gone = std::exchange(run.meta, {}); }
  const auto in = run.store->open_read();
  return drain(*in, run.obs);
}

core::StreamAnalyzer::WindowedResult drain(std::istream& is, obs::Run* run) {
  trace::TraceIndex index = trace::read_index(is);
  trace::ChunkReader reader(is);
  reader.follow(index);
  core::StreamAnalyzer analyzer(reader.nranks(), std::move(index.paths),
                                std::move(index.rank_posix_counts));
  analyzer.enable_window(window_opts_for(run),
                         std::move(index.file_posix_counts));
  trace::Record rec;
  while (reader.next(rec)) analyzer.feed(rec);
  auto res = analyzer.finish_windowed();
  // The live-window gauges are volatile by registration: the
  // materialized oracle never sets them, so the stable dump must not
  // carry them.
  if (run != nullptr) {
    run->metrics.set(run->window_live_files,
                     static_cast<std::int64_t>(res.peak_live_files));
    run->metrics.set(run->window_retired_accesses,
                     static_cast<std::int64_t>(res.retired_accesses));
  }
  return res;
}

}  // namespace pfsem::apps
