#pragma once
// The streaming pipeline driver: capture → spill → windowed analysis in
// two calls, shared by `pfsem report|tune|trace --stream`, the scaling
// bench and the stream tests.
//
//   auto run = apps::spill_app(info, cfg, ceiling);  // harness gone after
//   auto res = apps::drain_spill(run);               // WindowedResult
//
// Splitting at the spill keeps capture memory (simulator, file system)
// and analysis memory from ever coexisting, and lets a caller time or
// transcode the spill between the halves. Observability follows
// AppConfig::obs: the spill-store occupancy counter, retire-time ledger
// condensation and the live-window gauges are wired whenever the capture
// had a run context, so no caller installs a hook of its own.

#include <cstddef>
#include <istream>
#include <memory>
#include <ostream>
#include <vector>

#include "pfsem/apps/registry.hpp"
#include "pfsem/core/stream_analyze.hpp"
#include "pfsem/trace/spill.hpp"

namespace pfsem::apps {

/// A finished streaming capture parked in its spill store: the chunk
/// stream plus trailer, and the collector's StreamMeta.
struct SpilledRun {
  std::unique_ptr<trace::SpillStore> store;
  trace::StreamMeta meta;
  obs::Run* obs = nullptr;  ///< the capture's AppConfig::obs
};

/// Spill half: simulate `info` on `backend`, streaming its records in
/// chunks of cfg.stream_chunk_records through a ChunkWriter into a
/// SpillStore whose in-memory ceiling is `spill_ceiling` bytes (past it
/// the store moves to a temp file). The trailer is written and the harness destroyed before
/// this returns. `clocks`, `faults` and `stats_out` as for run_app.
[[nodiscard]] SpilledRun spill_app(const AppInfo& info, AppConfig cfg,
                                   std::size_t spill_ceiling,
                                   Backend backend = {},
                                   std::vector<sim::ClockModel> clocks = {},
                                   const FaultSetup* faults = nullptr,
                                   fault::FaultStats* stats_out = nullptr);

/// Drain half: replay the store through a window-enabled StreamAnalyzer
/// with the run's exact budgets, validate the trailer, and hand over the
/// rolling summaries. Consumes `run.meta`; its encoded comm log (already
/// copied into the trailer) is released before the first record replays.
[[nodiscard]] core::StreamAnalyzer::WindowedResult drain_spill(
    SpilledRun& run);

/// Windowed analysis of a compact-v2 trace (`is` seekable, positioned at
/// its magic): a first pass counts the exact per-rank and per-file Posix
/// budgets, then the stream rewinds and the second pass feeds the
/// analyzer and validates the comm log.
/// `obs` (nullable) gets the same wiring as a spilled run's.
[[nodiscard]] core::StreamAnalyzer::WindowedResult drain_compact(
    std::istream& is, obs::Run* obs);

/// Transcode a spilled run into compact v2, byte-identical to
/// write_compact of the materialized bundle. Reads `run.meta`, so call it
/// before drain_spill.
void write_compact(const SpilledRun& run, std::ostream& os);

}  // namespace pfsem::apps
