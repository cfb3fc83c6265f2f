#pragma once
// Overlap detection — Algorithm 1 of the paper.
//
// Three interchangeable engines, all returning the same canonical pair
// list (asserted against each other by tests/test_overlap_diff.cpp):
//
//   detect_overlaps       sweep-line over an active set (the default).
//                         Accesses are begin-sorted; each incoming access
//                         pairs with every still-live earlier interval,
//                         and — key difference from the scan — with
//                         writes_only set, read-read candidate pairs are
//                         never even visited, because reads and writes
//                         live in separate active lists. Long-lived
//                         intervals (header regions rewritten every
//                         checkpoint) therefore cost O(n log n + output)
//                         instead of the scan's O(n^2) visit storm.
//   detect_overlaps_scan  the paper's Algorithm 1 verbatim (sorted
//                         starts, scan forward, early break). Kept as the
//                         differential-test oracle and bench baseline.
//   detect_overlaps_naive the O(n^2) brute-force oracle.
//
// Empty extents are dropped before any engine runs (they overlap
// nothing by definition, and pre-filtering keeps them from perturbing
// the sorted order or the early-break condition of the scan).

#include <cstddef>
#include <span>
#include <vector>

#include "pfsem/core/access.hpp"

namespace pfsem::core {

/// Indices (into the input span) of two overlapping accesses.
struct OverlapPair {
  std::size_t first = 0;
  std::size_t second = 0;

  friend constexpr bool operator==(const OverlapPair&, const OverlapPair&) = default;
};

struct OverlapOptions {
  /// Skip pairs where neither side is a write (a read-read overlap can
  /// never conflict; Section 4.1). Keeps read-heavy workloads like LBANN
  /// from generating millions of irrelevant pairs.
  bool writes_only = true;
};

/// Algorithm 1: all overlapping pairs among `accesses` (sweep-line).
[[nodiscard]] std::vector<OverlapPair> detect_overlaps(
    std::span<const Access> accesses, OverlapOptions opts = {});

/// The paper's Algorithm 1 as literally written: sorted starts, forward
/// scan, early break. Oracle/baseline for the sweep-line.
[[nodiscard]] std::vector<OverlapPair> detect_overlaps_scan(
    std::span<const Access> accesses, OverlapOptions opts = {});

/// Naive O(n^2) reference used as the property-test oracle and the
/// baseline in the performance benches.
[[nodiscard]] std::vector<OverlapPair> detect_overlaps_naive(
    std::span<const Access> accesses, OverlapOptions opts = {});

/// Per-file overlap pairs for a whole log, computed once so downstream
/// consumers (conflict detection, tuning, the rank table) stop redoing
/// the sweep per call site. Indexed by FileId (== store slot index);
/// inactive slots hold empty vectors. `threads` is ignored:
/// bench_e2e/pipeline.cpp still passes one, and the parameter goes away
/// with ROADMAP item 8.
using FileOverlaps = std::vector<std::vector<OverlapPair>>;
[[nodiscard]] FileOverlaps detect_file_overlaps(const AccessLog& log,
                                                OverlapOptions opts = {},
                                                int threads = 1);

/// The paper's process-pair overlap table P[ri][rj] (Algorithm 1 output).
/// This overload runs its own sweep, after coalescing each rank's
/// contiguous extents (merging [a,b)+[b,c) of one rank changes no
/// rank-pair bit but collapses long per-rank streams to a handful of
/// segments).
[[nodiscard]] std::vector<std::vector<bool>> overlap_rank_table(
    std::span<const Access> accesses, int nranks);

/// Rank table from precomputed pairs (e.g. one file's entry of
/// detect_file_overlaps, computed with writes_only = false) — avoids
/// rerunning the sweep when the pairs already exist.
[[nodiscard]] std::vector<std::vector<bool>> overlap_rank_table(
    std::span<const Access> accesses, std::span<const OverlapPair> pairs,
    int nranks);

}  // namespace pfsem::core
