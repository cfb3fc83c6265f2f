#pragma once
// Conflict detection under commit and session semantics (Section 5.2).
//
// Two accesses (t1,r1,os1,oe1,type1) and (t2,r2,os2,oe2,type2), t1 < t2,
// form a *potential conflict* when they overlap and the first is a write
// (RAW/WAW x same-process/different-process, Section 4.1). Whether the
// potential conflict is real depends on the PFS model:
//
//   commit semantics : conflict unless r1 executes a commit operation in
//                      (t1, t2) on the file (first-succeeding-commit
//                      tc1 <= t2 clears it);
//   session semantics: conflict unless r1 closes the file and r2 then
//                      (re)opens it, i.e. t1 < tclose1 < topen2 < t2.
//
// A write-after-read pair can never conflict (the read completes before
// the write starts in a race-free program), so it is not reported.

#include <vector>

#include "pfsem/core/access.hpp"
#include "pfsem/core/overlap.hpp"

namespace pfsem::core {

enum class ConflictKind : std::uint8_t { WAW, RAW };

[[nodiscard]] constexpr const char* to_string(ConflictKind k) {
  return k == ConflictKind::WAW ? "WAW" : "RAW";
}

/// One potential-conflict pair and its status under each semantics.
/// The file is carried as its interned id; resolve against the store's
/// (or bundle's) PathTable for display.
struct Conflict {
  FileId file = kNoFile;
  Access first;   ///< the earlier access (always a write)
  Access second;  ///< the later access
  ConflictKind kind = ConflictKind::WAW;
  bool same_process = false;
  bool under_commit = false;   ///< violates commit semantics
  bool under_session = false;  ///< violates session semantics
};

/// Table-4-style summary: which conflict classes appear at all.
struct ConflictMatrix {
  bool waw_s = false, waw_d = false, raw_s = false, raw_d = false;
  std::uint64_t count = 0;

  [[nodiscard]] bool any() const { return waw_s || waw_d || raw_s || raw_d; }
  /// True if every conflict involves only a single process — the case the
  /// paper notes nearly all PFSs handle correctly anyway (Section 6.3).
  [[nodiscard]] bool same_process_only() const {
    return any() && !waw_d && !raw_d;
  }
};

struct ConflictReport {
  /// Every potential-conflict pair that is real under at least one of the
  /// two semantics (capped per file; counts are exact).
  std::vector<Conflict> conflicts;
  ConflictMatrix session;
  ConflictMatrix commit;
  /// Overlapping write-involved pairs regardless of semantics (if zero,
  /// even eventual consistency is trivially safe for this run).
  std::uint64_t potential_pairs = 0;
};

struct ConflictOptions {
  /// Max example Conflict entries retained per file (counts stay exact).
  std::size_t max_examples_per_file = 64;
  /// Ignored: bench_e2e/pipeline.cpp still sets it, and the field goes
  /// away with ROADMAP item 8.
  int threads = 1;
};

/// Run overlap detection + the semantics conditions over every file.
[[nodiscard]] ConflictReport detect_conflicts(const AccessLog& log,
                                              ConflictOptions opts = {});

/// Same, but consuming precomputed per-file overlap pairs (from
/// detect_file_overlaps with default options) instead of redoing the
/// sweep — the path report/advise use to share one pair computation.
[[nodiscard]] ConflictReport detect_conflicts(const AccessLog& log,
                                              const FileOverlaps& pairs,
                                              ConflictOptions opts = {});

namespace detail {

/// One file's contribution to the report: the semantics conditions over
/// that file's (canonical-order) overlap pairs. detect_conflicts runs it
/// per file; the windowed analyzer runs it the moment a file retires
/// from the stream window. Both merge per-file parts in FileId order, so
/// the outputs are identical by construction.
[[nodiscard]] ConflictReport evaluate_file(FileId file,
                                           std::span<const Access> accesses,
                                           std::span<const OverlapPair> pairs,
                                           const ConflictOptions& opts);

}  // namespace detail

}  // namespace pfsem::core
