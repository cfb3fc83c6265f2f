#pragma once
// Windowed analysis: per-file rolling summaries for the streaming
// pipeline (the "active window" half of the memory-bounds work).
//
// The materialized pipeline builds a full AccessLog, then runs overlap /
// conflict / pattern / tuning over every file at once. The windowed
// pipeline runs the *same per-file code* (detail::annotate_file,
// detail::evaluate_file, classify_file_layout, local_/global_transitions,
// file_family_stats, detail::classify_pairs) the moment the stream
// frontier proves a file can never be touched again, condenses the
// results into one FileWindowSummary, and frees the file's accesses.
// finish then assembles the report from summaries instead of the log:
//
//   * every per-file quantity (FileReport counters, layout, conflict
//     example counts, transition mixes, tuning flags) is computed by the
//     function the materialized path uses, on the identical per-file
//     input (annotate_file sorts exactly like annotate_accesses does);
//   * every cross-file quantity is an order-invariant reduction (integer
//     sums for transition mixes) or is re-run in the materialized path's
//     deterministic order (family aggregation in path order, tuning rows
//     in path order) — so the assembled RunReport and TuningReport are
//     byte-identical to the oracle by construction.
//
// Peak memory is then bounded by the *live window* — files with records
// still outstanding — not by trace length. See docs/performance.md
// ("memory bounds") and docs/architecture.md (retirement safety).

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "pfsem/core/conflict.hpp"
#include "pfsem/core/pattern.hpp"
#include "pfsem/core/report.hpp"
#include "pfsem/core/tuning.hpp"

namespace pfsem::core {

/// Everything the final report needs from one finished file — a few
/// hundred bytes, independent of the file's access count.
struct FileWindowSummary {
  FileId file = kNoFile;  ///< kNoFile: slot never became active
  /// Per-file report row: path, op/byte counters, layout, and the
  /// conflict counts derived from this file's capped example list.
  FileReport report;
  TransitionMix local;   ///< contribution to the Figure-1b local mix
  TransitionMix global;  ///< contribution to the Figure-1a global mix
  FileFamilyStats family;       ///< Table-3 family aggregation inputs
  detail::TuningFlags tuning;   ///< weakest-safe-model flags
  std::uint64_t total_bytes = 0;  ///< read+write bytes (tuning row)
};

struct WindowAnalysisOptions {
  ConflictOptions conflict;  ///< example cap
  PatternOptions pattern;
  /// Invoked after each file retires (summary shipped, per-file state
  /// freed): (file, live files still open, frontier sim time of the last
  /// released record). Keeps the core obs-free — the streaming driver
  /// (apps/driver.hpp) hangs ledger condensation and the
  /// window.live_files counter track off it.
  std::function<void(FileId, std::size_t, SimTime)> on_retire;
};

/// The per-file half both report paths share: the report row's op/byte
/// counters and layout, the transition mixes and the family stats of one
/// annotated FileLog. summarize_file adds the conflict counts and tuning
/// flags; build_report adds the conflict counts of its whole-log pass.
[[nodiscard]] FileWindowSummary summarize_file_pattern(
    FileId id, std::string_view path, const FileLog& fl,
    const PatternOptions& p);

/// Run the complete per-file analysis pipeline over one *annotated*
/// FileLog (overlap sweep, conflict semantics, layout, transition mixes,
/// family stats, tuning flags) and condense the results. The caller
/// frees the FileLog afterwards.
[[nodiscard]] FileWindowSummary summarize_file(FileId id,
                                               std::string_view path,
                                               const FileLog& fl,
                                               const WindowAnalysisOptions& w);

/// Assemble the run report from per-file summaries: files and family
/// inputs in path order, transition-mix sums, the family classification
/// and the dominant file's layout as its summary holds it. build_report
/// ends here too, so both paths share one cross-file policy. `summaries`
/// is indexed by FileId; inactive slots carry file == kNoFile.
[[nodiscard]] RunReport assemble_windowed_report(
    RecordStats stats, std::uint64_t records, int nranks,
    const std::vector<FileWindowSummary>& summaries);

/// Assemble the per-file tuning report from rolling summaries — the
/// windowed equivalent of per_file_tuning.
[[nodiscard]] TuningReport assemble_windowed_tuning(
    const std::vector<FileWindowSummary>& summaries);

}  // namespace pfsem::core
