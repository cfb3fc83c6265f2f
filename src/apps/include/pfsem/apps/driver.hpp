#pragma once
// The streaming pipeline driver: capture → spill → windowed analysis in
// two calls, shared by `pfsem trace` and `pfsem report|tune --stream`,
// the scaling bench and the stream tests.
//
//   auto run = apps::spill_app(info, cfg, ceiling);  // harness gone after
//   auto res = apps::drain_spill(run);               // WindowedResult
//
// Splitting at the spill keeps capture memory (simulator, file system)
// and analysis memory from ever coexisting, and lets a caller time or
// save the spill between the halves: its bytes are a saved trace, and
// drain() analyses a saved trace the way drain_spill() analyses a spill.
// Observability follows AppConfig::obs: the spill-store occupancy
// counter, retire-time ledger condensation and the live-window gauges
// are wired whenever the capture had a run context, so no caller
// installs a hook of its own.

#include <cstddef>
#include <istream>
#include <memory>
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

/// Drain half: replay the store through drain(). Reads nothing from
/// `run.meta` and releases it (its encoded comm log included) before the
/// first record replays.
[[nodiscard]] core::StreamAnalyzer::WindowedResult drain_spill(
    SpilledRun& run);

/// Windowed analysis of a chunk stream in one pass (a spill or a saved
/// trace; `is` seekable, positioned at its magic): read_index() seeks to
/// the tail and reads the path table and the exact per-rank and per-file
/// budgets, then every record replays through a window-enabled
/// StreamAnalyzer. Throws pfsem::Error on malformed input, and on a
/// trace of an older format as read_chunks() does. `obs` (nullable) gets
/// the wiring spill_app describes.
[[nodiscard]] core::StreamAnalyzer::WindowedResult drain(std::istream& is,
                                                         obs::Run* obs);

}  // namespace pfsem::apps
