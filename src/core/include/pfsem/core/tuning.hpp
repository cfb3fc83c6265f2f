#pragma once
// EXTENSION (paper Section 2.3): tunable, per-file consistency.
//
// Several systems (Kuhn et al.; Vilayannur et al.) let applications pick
// consistency semantics per file or per open via hints. The paper's
// whole-application verdict is conservative: one conflicting metadata
// file forces a model on every file. This module computes the weakest
// safe model *per file*, plus an aggregate showing how much of the
// application's I/O could run relaxed if the PFS supported per-file
// tuning — e.g. LAMMPS-ADIOS needs commit/strong semantics only for the
// tiny md.idx index while the bulk data subfiles tolerate eventual
// consistency.

#include <string>
#include <vector>

#include "pfsem/core/conflict.hpp"
#include "pfsem/core/overlap.hpp"
#include "pfsem/vfs/pfs_types.hpp"

namespace pfsem::core {

struct FileTuning {
  std::string path;
  /// Weakest safe model for this file (same-process ordering assumed).
  vfs::ConsistencyModel weakest = vfs::ConsistencyModel::Eventual;
  std::uint64_t bytes = 0;  ///< data bytes accessed in this file
  std::uint64_t session_pairs = 0;
  std::uint64_t commit_pairs = 0;
};

struct TuningReport {
  std::vector<FileTuning> files;  ///< sorted by path
  std::uint64_t total_bytes = 0;
  std::uint64_t relaxed_bytes = 0;  ///< bytes on files weaker than strong
  std::uint64_t eventual_bytes = 0; ///< bytes on conflict-free files

  [[nodiscard]] double relaxed_fraction() const {
    return total_bytes == 0
               ? 1.0
               : static_cast<double>(relaxed_bytes) / static_cast<double>(total_bytes);
  }
  [[nodiscard]] double eventual_fraction() const {
    return total_bytes == 0
               ? 1.0
               : static_cast<double>(eventual_bytes) / static_cast<double>(total_bytes);
  }
};

/// Per-file weakest-model assignment from the access log.
[[nodiscard]] TuningReport per_file_tuning(const AccessLog& log);

/// Same, reusing precomputed per-file overlap pairs (as returned by
/// detect_file_overlaps) so callers that already ran conflict detection
/// don't sweep every file a second time. Files absent from `pairs` are
/// treated as overlap-free.
[[nodiscard]] TuningReport per_file_tuning(const AccessLog& log,
                                           const FileOverlaps& pairs);

namespace detail {

/// Per-file conflict class flags. The capped example list may omit
/// pairs, so presence flags are computed from the full pair set of each
/// file, not from ConflictReport examples.
struct TuningFlags {
  bool session_d = false, commit_d = false;
  bool any_pair = false;
  std::uint64_t session_pairs = 0, commit_pairs = 0;
};

/// Classify one file's overlap pairs into TuningFlags — the per-file
/// core of per_file_tuning, exposed so the windowed analyzer can run it
/// when the file retires from the stream window.
[[nodiscard]] TuningFlags classify_pairs(const FileLog& fl,
                                         std::span<const OverlapPair> pairs);

/// Append one file's FileTuning row (weakest-model resolution + byte
/// aggregates) to `out`. Call in path order; shared by the materialized
/// and windowed assemblers so both emit identical reports.
void append_tuning(TuningReport& out, std::string path, std::uint64_t bytes,
                   const TuningFlags& f);

}  // namespace detail

}  // namespace pfsem::core
