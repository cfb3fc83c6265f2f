#pragma once
// A TraceBundle is everything one application run produces for analysis:
// the per-call records from every layer, the matched communication events,
// and the job geometry. It is the single input format of pfsem::core, the
// way Recorder trace directories are the input of the paper's analysis.

#include <string_view>
#include <vector>

#include "pfsem/trace/comm_log.hpp"
#include "pfsem/trace/path_table.hpp"
#include "pfsem/trace/record.hpp"

namespace pfsem::trace {

struct TraceBundle {
  int nranks = 0;
  /// Interned file paths; Record::file indexes into this table. Ids are
  /// assigned in first-intern (first-open) order — deterministic per run.
  PathTable paths;
  /// All records, in emission order (monotone in global simulated time).
  std::vector<Record> records;
  /// The matched communication events in their trailer encoding (see
  /// EncodedCommLog); decode_comm() builds the CommLog HappensBefore reads.
  EncodedCommLog comm;
  /// Per-FileId record counts tallied during capture (column hints for
  /// TraceStore construction). Purely a capacity hint, NOT part of the
  /// serialized formats: empty for deserialized or hand-built bundles,
  /// sized to paths.size() when trace::Collector produced the bundle.
  std::vector<std::uint32_t> file_op_counts;

  /// Intern a path for use in a Record's `file` field.
  FileId intern(std::string_view path) { return paths.intern(path); }

  /// Path of `rec` resolved against this bundle's table ("" if none).
  [[nodiscard]] std::string_view path_of(const Record& rec) const {
    return rec.path_view(paths);
  }

  /// Records of one rank, preserving order.
  [[nodiscard]] std::vector<Record> rank_records(Rank r) const {
    std::vector<Record> out;
    for (const auto& rec : records) {
      if (rec.rank == r) out.push_back(rec);
    }
    return out;
  }
};

}  // namespace pfsem::trace
