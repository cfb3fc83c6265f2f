#pragma once
// Streaming reconstruction: consume a run's records in global emission
// (seq) order — replayed from a collector spill (trace/spill.hpp) or a
// saved trace file — and build the same AccessLog and record
// counters the materialized pipeline derives from a full TraceBundle,
// without the bundle ever existing.
//
// The materialized pipeline stable-sorts Posix records by tstart before
// replaying them (offset_tracker.cpp); emission order is completion
// order, so a record can arrive after one with a later tstart. A reorder
// buffer restores the exact (tstart, emission-index) processing order:
// within one rank, Posix operations are sequential and non-overlapping,
// so each rank's Posix tstarts arrive monotonically. Once every rank
// still owing Posix records has advanced past time F (the release
// frontier), no future Posix record can start before F and everything
// buffered up to F replays through the shared OffsetStepper. Ranks whose
// remaining-record budget (StreamMeta::rank_posix_counts) hits zero stop
// pinning the frontier, so compute-only ranks and M:1 writer sets cost
// nothing; without budgets (unknown counts) the buffer degrades
// gracefully — it grows toward the Posix record count, never past it —
// and drains at finish_windowed().

#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "pfsem/core/access.hpp"
#include "pfsem/core/offset_tracker.hpp"
#include "pfsem/core/report.hpp"
#include "pfsem/core/window.hpp"
#include "pfsem/trace/path_table.hpp"
#include "pfsem/trace/record.hpp"

namespace pfsem::core {

namespace detail {
class OffsetStepper;
class Annotator;
}

class StreamAnalyzer {
 public:
  /// What finish_windowed() hands over instead of an AccessLog: record
  /// counters plus one condensed FileWindowSummary per path slot. Peak
  /// memory during the run was bounded by the live window (files with
  /// records still outstanding), not by trace length.
  struct WindowedResult {
    RecordStats stats;
    std::uint64_t records = 0;  ///< all layers, not just Posix
    int nranks = 0;
    trace::PathTable paths;
    /// Indexed by FileId; slots the run never made active carry
    /// file == kNoFile and contribute nothing to the report.
    std::vector<FileWindowSummary> summaries;
    std::size_t peak_live_files = 0;     ///< live-window high-water mark
    /// Accesses freed as files retired mid-stream; the final sweep of
    /// finish_windowed() is not counted.
    std::uint64_t retired_accesses = 0;
    std::size_t peak_buffered = 0;       ///< see peak_buffered()
  };

  /// `paths` is the run's final intern table (streaming analysis is the
  /// post-capture phase of a spilled run, so the table is complete);
  /// `rank_posix_counts` the per-rank Posix record totals (empty =
  /// unknown, see file comment); `hints` the optional per-FileId op
  /// counts used to pre-size access columns.
  StreamAnalyzer(int nranks, trace::PathTable paths,
                 std::vector<std::uint64_t> rank_posix_counts = {},
                 const std::vector<std::uint32_t>& hints = {},
                 OffsetTrackerOptions opts = {});
  ~StreamAnalyzer();
  StreamAnalyzer(const StreamAnalyzer&) = delete;
  StreamAnalyzer& operator=(const StreamAnalyzer&) = delete;

  /// Feed the next record in emission order (its seq is implicit: the
  /// number of records fed before it).
  void feed(const trace::Record& rec);

  /// Give the window its per-file budgets (call before the first feed).
  /// As the release frontier retires a file's last record, the analyzer
  /// runs the full per-file analysis (annotate, overlap, conflict,
  /// layout, transition mixes, family stats, tuning flags), condenses it
  /// into a FileWindowSummary, and frees the file's accesses — so memory
  /// is bounded by the live window, not the trace. `file_posix_counts` is
  /// the exact per-FileId count of Posix records tagged with that file
  /// (StreamMeta::file_posix_counts); a record is retired-counted after
  /// it steps, and a file finalizes when its count hits zero AND no fd
  /// still holds it (the open-fd guard makes retirement sound even for
  /// hand-built traces whose data records carry no file tag — any path
  /// into a FileLog goes through rec.file or an fd, and fds only exist
  /// via counted open records). Empty counts = unknown: nothing retires
  /// mid-stream and everything finalizes at finish_windowed() — the
  /// safe fallback, same results, full-log memory. An analyzer never
  /// given budgets behaves exactly like one given empty counts.
  void enable_window(WindowAnalysisOptions opts,
                     std::vector<std::uint64_t> file_posix_counts);

  /// Drain the buffer, finalize every remaining file (crashed ranks'
  /// still-open files, unknown-budget runs), and hand over the rolling
  /// summaries. The analyzer is spent afterwards.
  [[nodiscard]] WindowedResult finish_windowed();

  /// Live-window instrumentation.
  [[nodiscard]] std::size_t live_files() const { return live_files_; }
  [[nodiscard]] std::size_t peak_live_files() const {
    return peak_live_files_;
  }
  /// Accesses freed by mid-stream retirements so far.
  [[nodiscard]] std::uint64_t retired_accesses() const {
    return retired_accesses_;
  }

  /// Reorder-buffer high-water mark (records buffered at once) — the
  /// streaming analyzer's only run-length-dependent memory besides the
  /// live window; tests assert it stays small when budgets are known.
  [[nodiscard]] std::size_t peak_buffered() const { return peak_buffered_; }

 private:
  /// Reorder-heap key: the record itself waits in `slab_[slot]`, so
  /// heap moves shuffle 24 bytes, not whole records.
  struct Pending {
    SimTime tstart = 0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
  };
  struct Later {
    bool operator()(const Pending& a, const Pending& b) const {
      return a.tstart != b.tstart ? a.tstart > b.tstart : a.seq > b.seq;
    }
  };
  struct FrontierEntry {
    SimTime t = 0;
    Rank rank = kNoRank;
    bool operator>(const FrontierEntry& o) const { return t > o.t; }
  };

  void release_ready();
  /// Step the buffer's earliest record and free its slab slot.
  void step_top();
  void note_stepped(const trace::Record& rec);
  /// Analyze and retire `f`; returns the accesses it freed.
  std::size_t finalize_file(FileId f);

  AccessLog log_;
  RecordStats stats_;
  std::unique_ptr<detail::OffsetStepper> stepper_;
  std::unique_ptr<detail::Annotator> annotator_;
  std::priority_queue<Pending, std::vector<Pending>, Later> buffer_;
  /// Buffered records, addressed by Pending::slot; freed slots are
  /// reused, so the slab never outgrows the buffer's high-water mark.
  std::vector<trace::Record> slab_;
  std::vector<std::uint32_t> free_slots_;
  /// Lazy-deletion min-heap over (last Posix tstart, rank): the top
  /// non-stale, non-retired entry is the release frontier.
  std::priority_queue<FrontierEntry, std::vector<FrontierEntry>,
                      std::greater<>>
      frontier_;
  std::vector<SimTime> last_tstart_;
  std::vector<std::uint64_t> remaining_;  ///< Posix records still owed
  std::vector<char> seen_;
  /// Ranks owing Posix records that have not emitted one yet — their
  /// bound is unknown, so no release while any remain.
  int unseen_active_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t peak_buffered_ = 0;
  /// Per-FileId op-count hints, consumed (zeroed) at a file's first
  /// stepped record so reservation tracks the live window, not the
  /// whole intern table (see ctor comment).
  std::vector<std::uint32_t> hints_;

  // Live window (budgets from enable_window; unknown until then).
  WindowAnalysisOptions window_opts_;
  /// Posix records still owed per FileId (empty = unknown budgets).
  std::vector<std::uint64_t> file_remaining_;
  std::vector<char> file_finalized_;
  std::vector<char> file_live_;
  std::vector<FileWindowSummary> summaries_;
  std::size_t live_files_ = 0;
  std::size_t peak_live_files_ = 0;
  std::uint64_t retired_accesses_ = 0;
  /// tstart of the last record released past the frontier; the retire
  /// callback's time axis (sim time, monotone over released records).
  SimTime last_release_t_ = 0;
};

}  // namespace pfsem::core
