#pragma once
// The bench's one copy of the run-to-report pipeline: capture a
// registered application, hand its records to the analysis, print the
// report. Two pipelines, the same library calls as `pfsem report`:
//
//   materialized  Harness + AppInfo::run -> Collector take ->
//                 reconstruct_accesses -> detect_file_overlaps ->
//                 detect_conflicts -> build_report -> print_report
//   stream        Harness + AppInfo::run -> ChunkWriter on a SpillStore ->
//                 ChunkReader -> windowed StreamAnalyzer ->
//                 assemble_windowed_report -> print_report
//                 (`pfsem report --stream`, windowed by default)
//
// Every rep times setup and the whole run. A traced rep (spec.log set)
// additionally wraps the file system in TimedFs and the chunk writer in
// TimedSink, and records one span per phase and layer.

#include <cstdint>
#include <string>
#include <vector>

#include "probes.hpp"

namespace pfsem_e2e {

enum class Pipeline { Materialized, Stream };
enum class Backend { Pfs, Cluster };  ///< Cluster: PfsCluster, 2 MDS / 4 OST

/// Analysis threads, as `--threads 2`: a closed loop of one run at a time
/// that stays within a 4-core host.
inline constexpr int kAnalysisThreads = 2;

struct RunSpec {
  std::string app;  ///< registry configuration name
  int ranks = 0;
  std::uint64_t seed = 42;  ///< AppConfig::seed
  Pipeline pipeline = Pipeline::Materialized;
  Backend backend = Backend::Pfs;
  SpanLog* log = nullptr;     ///< non-null: traced rep
  bool keep_capture = false;  ///< keep the captured bytes (see RepResult)
};

struct RepResult {
  std::string report;  ///< the printed report text
  /// Empty when the report meets the registry's Expectation for the app.
  std::string expectation_error;
  std::uint64_t records = 0;
  std::uint64_t files = 0;
  double setup_s = 0;  ///< Harness construction (+ SpillStore, ChunkWriter)
  double run_to_report_s = 0;
  /// Files whose access state was held at once: every file for the
  /// materialized log, the live-window high-water mark when streaming.
  std::uint64_t live_peak_files = 0;
  /// Records held for reordering by tstart: every Posix record for the
  /// materialized sort, the reorder-buffer high-water mark when streaming.
  std::uint64_t reorder_peak_records = 0;
  /// Bytes per record between capture and analysis: the in-memory Record
  /// for the materialized bundle, the encoded spill when streaming.
  double bytes_per_record = 0;
  std::vector<std::uint32_t> vfs_call_ns;  ///< traced reps: per-call ns
  /// keep_capture: the compact-v2 bundle bytes (materialized) or the
  /// PFSEMCK1 spill bytes (stream).
  std::string capture;
};

/// Run one rep in this process. Throws pfsem::Error on any pipeline error.
[[nodiscard]] RepResult run_to_report(const RunSpec& spec);

}  // namespace pfsem_e2e
