#pragma once
// Access-pattern classification (Section 4, Section 6.2).
//
// Two granularities, as in the paper:
//
//  * Byte-level transition mix (Figure 1): with o_i/n_i the offset/length
//    of the i-th access in a sequence, the transition to access i+1 is
//    "consecutive" when o_{i+1} = o_i + n_i, "monotonic"² when
//    o_{i+1} > o_i + n_i, and "random" otherwise. The *local* mix
//    classifies each (rank, file) sequence; the *global* mix classifies
//    each file's time-ordered merge across ranks.
//
//  * High-level X-Y class + file layout (Table 3): X = how many processes
//    perform I/O (N = all, M = a proper subset, 1 = one), Y = how files
//    are shared (matching per-process files, one shared file, or M group
//    files), and the layout of the dominant shared file — Consecutive,
//    Strided (process i accesses offset a*i+b per phase), StridedCyclic
//    (the strided pattern repeats over multiple rounds), or Random.

#include <span>
#include <string>
#include <string_view>

#include "pfsem/core/access.hpp"

namespace pfsem::core {

/// Figure-1 transition counts.
struct TransitionMix {
  std::uint64_t consecutive = 0;
  std::uint64_t monotonic = 0;
  std::uint64_t random = 0;

  [[nodiscard]] std::uint64_t total() const {
    return consecutive + monotonic + random;
  }
  [[nodiscard]] double frac_consecutive() const {
    return total() ? static_cast<double>(consecutive) / static_cast<double>(total()) : 0;
  }
  [[nodiscard]] double frac_monotonic() const {
    return total() ? static_cast<double>(monotonic) / static_cast<double>(total()) : 0;
  }
  [[nodiscard]] double frac_random() const {
    return total() ? static_cast<double>(random) / static_cast<double>(total()) : 0;
  }
  TransitionMix& operator+=(const TransitionMix& o) {
    consecutive += o.consecutive;
    monotonic += o.monotonic;
    random += o.random;
    return *this;
  }
};

/// Per-(rank,file) sequences, aggregated (Figure 1b).
[[nodiscard]] TransitionMix local_pattern(const AccessLog& log);
/// Per-file time-ordered global sequences, aggregated (Figure 1a).
[[nodiscard]] TransitionMix global_pattern(const AccessLog& log);

/// One file's contribution to local_pattern / global_pattern. The
/// windowed analyzer computes these when a file retires from the stream
/// window; summing per-file mixes in any order reproduces the aggregate
/// exactly (integer sums).
[[nodiscard]] TransitionMix local_transitions(const FileLog& file);
[[nodiscard]] TransitionMix global_transitions(const FileLog& file);

enum class FileLayout : std::uint8_t { Consecutive, Strided, StridedCyclic, Random };

[[nodiscard]] const char* to_string(FileLayout l);

/// Table-3 classification result for one run.
struct HighLevelPattern {
  std::string xy;  ///< "N-N", "N-M", "N-1", "M-M", "M-1", "1-1"
  FileLayout layout = FileLayout::Consecutive;
  int io_ranks = 0;        ///< processes that touched the dominant family
  int family_files = 0;    ///< files in the dominant family
  std::string dominant_file;
};

struct PatternOptions {
  /// Accesses smaller than this are library metadata, excluded from the
  /// Table-3 layout classification (HDF5 superblock writes etc.).
  std::uint64_t min_data_bytes = 4096;
  /// Gaps up to this many bytes between successive accesses still count
  /// as "consecutive" for Table-3 classification: interspersed library
  /// metadata (HDF5 object headers) fills them, so the paper's tables
  /// treat such streams as consecutive.
  std::uint64_t consecutive_gap_tolerance = 1024;
};

/// Classify the run's dominant (most-bytes) output pattern.
[[nodiscard]] HighLevelPattern classify_high_level(const AccessLog& log,
                                                   int nranks,
                                                   PatternOptions opts = {});

/// Classify the layout of a single file's data accesses.
[[nodiscard]] FileLayout classify_file_layout(const FileLog& file,
                                              PatternOptions opts = {});

/// One file's inputs to the Table-3 family aggregation, computable the
/// moment the file's accesses are final (and droppable with them).
struct FileFamilyStats {
  std::uint64_t bytes = 0;     ///< data-access bytes (post size filter)
  std::vector<Rank> io_ranks;  ///< distinct ranks, ascending
  std::size_t writers = 0;     ///< distinct writing ranks
};

/// Compute one file's family stats (the per-file loop body of
/// classify_high_level, extracted so the windowed analyzer can run it
/// at retirement time).
[[nodiscard]] FileFamilyStats file_family_stats(const FileLog& file,
                                                const PatternOptions& opts);

/// One entry of the family aggregation input: an active file, listed in
/// path order (dominant-file ties resolve by first-in-path-order).
struct FamilyFileInput {
  FileId id = kNoFile;
  std::string_view path;
  const FileFamilyStats* stats = nullptr;
};

/// The family-grouping half of classify_high_level, shared by the
/// materialized path (stats computed on the spot from the AccessLog) and
/// the windowed path (stats carried in per-file summaries). Fills
/// everything except `layout`; `*dominant` receives the dominant file's
/// id (kNoFile when no family has data bytes) so the caller can resolve
/// the layout from whatever per-file state it holds.
[[nodiscard]] HighLevelPattern classify_families(
    std::span<const FamilyFileInput> files_by_path, int nranks,
    FileId* dominant);

}  // namespace pfsem::core
