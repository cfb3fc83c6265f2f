#pragma once
// pfsem::obs cost-attribution ledger: per-(FileId × rank × op-class)
// semantic-cost rows built from the same hook sites that feed the scalar
// metrics (iolib facades delta-snapshot the vfs traffic counters around
// each call). Every quantity derives from simulated time and deterministic
// event counts, so the exported rows are Stable in the obs sense: byte-
// identical across --threads, both schedulers, and
// --stream/materialized.
//
// Memory shape: per-file aggregates are a fixed array of op-class cells
// (order-independent sums), plus one per-(file, rank) stall accumulator —
// the only rank-dimensioned state — kept so the condensed row can report
// how many ranks touched the file and which rank stalled longest. Under
// windowed streaming analysis the CLI wires window retirement to
// condense(file), which folds the rank cells into that summary and frees
// them, so ledger memory tracks the live window, not the trace. Because
// every reduction is order-independent (sums; max with lowest-rank
// tie-break), early (retirement-time) and late (export-time) condensation
// produce byte-identical exports.
//
// The ledger is a pure observer: record() never interns paths (FileIds
// come from the collector's existing emit-path interning) and never
// touches simulation state.

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "pfsem/util/types.hpp"

namespace pfsem::obs {

/// Coarse operation classes a ledger row is keyed by.
enum class OpClass : std::uint8_t { Open, Close, Read, Write, Sync, Meta };
inline constexpr std::size_t kOpClasses = 6;

[[nodiscard]] const char* to_string(OpClass c);

/// One attributed operation, as observed at an iolib hook site.
struct LedgerOp {
  OpClass cls = OpClass::Meta;
  FileId file = kNoFile;  ///< kNoFile ops (getcwd/umask) are not attributed
  Rank rank = kNoRank;
  /// Simulated wall of the whole call, retry backoffs included.
  SimDuration stall_ns = 0;
  std::uint64_t bytes = 0;  ///< payload bytes moved (reads/writes)
  // vfs traffic attributable to this call (delta of vfs::CostSnapshot).
  std::uint64_t lock_requests = 0;
  std::uint64_t lock_revocations = 0;
  std::uint64_t meta_rpcs = 0;
  std::uint64_t ost_bytes = 0;
  // iolib retry-loop events consumed by this call.
  std::uint32_t retries = 0;
  std::uint32_t failovers = 0;
};

class Ledger {
 public:
  /// Per-(file, op-class) aggregate; every field an order-independent sum.
  struct Cell {
    std::uint64_t ops = 0;
    std::uint64_t stall_ns = 0;
    std::uint64_t bytes = 0;
    std::uint64_t lock_requests = 0;
    std::uint64_t lock_revocations = 0;
    std::uint64_t meta_rpcs = 0;
    std::uint64_t ost_bytes = 0;
    std::uint64_t retries = 0;
    std::uint64_t failovers = 0;
    [[nodiscard]] bool any() const { return ops != 0; }
  };

  /// Per-file state. `rank_stall` is the live (pre-condensation) rank
  /// dimension; condense() folds it into hottest_* and frees it.
  struct Entry {
    std::array<Cell, kOpClasses> cells{};
    /// Per-rank stall sums: an open-addressing table keyed by rank
    /// (linear probing, power-of-two size, at most half full; empty slots
    /// hold kNoRank). A shared file gathers every rank, and a sorted
    /// vector's binary search was most of record()'s cost there.
    std::vector<std::pair<Rank, std::uint64_t>> rank_stall;
    std::string path;  ///< filled post-run via note_path ("" until then)
    std::uint32_t ranks_touched = 0;  ///< distinct ranks recorded
    Rank hottest_rank = kNoRank;
    std::uint64_t hottest_rank_stall_ns = 0;
    bool touched = false;
    bool condensed = false;

    [[nodiscard]] std::uint64_t total_stall_ns() const {
      std::uint64_t s = 0;
      for (const Cell& c : cells) s += c.stall_ns;
      return s;
    }
    [[nodiscard]] std::uint64_t total_ops() const {
      std::uint64_t s = 0;
      for (const Cell& c : cells) s += c.ops;
      return s;
    }
  };

  /// Hot path: fold one observed op into its (file, class, rank) cells.
  /// Ops without a file identity are dropped (nothing to attribute to).
  void record(const LedgerOp& op);

  /// Retire file `f`: fold its rank cells into the condensed summary and
  /// free them. Idempotent; safe for ids the run never touched. Wired to
  /// window retirement by the CLI so ledger memory tracks the live window.
  void condense(FileId f);

  /// Condense every remaining file (export-time, materialized runs).
  void condense_all();

  /// Attach the display path for `f` (the harness copies the collector's
  /// intern table after the run; analysis-only runs leave paths empty and
  /// exports fall back to "file#N").
  void note_path(FileId f, std::string_view path);

  [[nodiscard]] bool empty() const { return touched_files_ == 0; }
  [[nodiscard]] std::size_t touched_files() const { return touched_files_; }

  /// Live per-(file, rank) accumulators not yet condensed — the test hook
  /// proving retirement actually frees the rank dimension.
  [[nodiscard]] std::size_t live_rank_cells() const;

  /// Deterministic iteration for export/summary: `fn(FileId, const
  /// Entry&)` over touched files in ascending FileId order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (FileId f = 0; f < files_.size(); ++f) {
      if (files_[f].touched) fn(f, files_[f]);
    }
  }

  /// Display name for a file: its noted path, else "file#N".
  [[nodiscard]] static std::string display_name(FileId f, const Entry& e) {
    return e.path.empty() ? "file#" + std::to_string(f) : e.path;
  }

 private:
  std::vector<Entry> files_;
  std::size_t touched_files_ = 0;
};

}  // namespace pfsem::obs
