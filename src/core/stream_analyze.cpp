#include "pfsem/core/stream_analyze.hpp"

#include <algorithm>

#include "offset_stepper.hpp"

namespace pfsem::core {

namespace {

// Sentinel budget for ranks whose Posix totals are unknown: never
// retires, so the frontier stays conservative.
constexpr std::uint64_t kUnknownBudget = ~std::uint64_t{0};

}  // namespace

StreamAnalyzer::StreamAnalyzer(int nranks, trace::PathTable paths,
                               std::vector<std::uint64_t> rank_posix_counts,
                               const std::vector<std::uint32_t>& hints,
                               OffsetTrackerOptions opts) {
  require(nranks > 0, "need at least one rank");
  require(rank_posix_counts.empty() ||
              std::ssize(rank_posix_counts) == nranks,
          "rank posix counts must match rank count");
  log_.nranks = nranks;
  log_.paths = std::move(paths);
  const std::size_t nfiles = log_.paths.size();
  log_.files.resize(nfiles);
  // Column pre-size hints are applied lazily, at a file's first stepped
  // record, not here: reserving every column up front would cost
  // O(trace) before a single record streams, which is exactly the bound
  // the live window exists to avoid. Deferring is purely an allocation-
  // timing change — the logs are identical with or without the hints.
  hints_.assign(hints.begin(),
                hints.begin() + static_cast<std::ptrdiff_t>(
                                    std::min(hints.size(), nfiles)));
  stepper_ = std::make_unique<detail::OffsetStepper>(log_, opts);
  annotator_ = std::make_unique<detail::Annotator>();

  const auto n = static_cast<std::size_t>(nranks);
  last_tstart_.assign(n, 0);
  seen_.assign(n, 0);
  if (rank_posix_counts.empty()) {
    remaining_.assign(n, kUnknownBudget);
    unseen_active_ = nranks;
  } else {
    remaining_ = std::move(rank_posix_counts);
    unseen_active_ = 0;
    for (const auto c : remaining_) unseen_active_ += c > 0 ? 1 : 0;
  }
  // Per-file budgets stay unknown (file_remaining_ empty) unless
  // enable_window() supplies them.
  file_finalized_.assign(nfiles, 0);
  file_live_.assign(nfiles, 0);
  summaries_.assign(nfiles, {});
}

StreamAnalyzer::~StreamAnalyzer() = default;

void StreamAnalyzer::feed(const trace::Record& rec) {
  stats_.feed(rec);
  const std::uint64_t seq = next_seq_++;
  if (rec.layer != trace::Layer::Posix) return;
  require(rec.rank >= 0 && rec.rank < log_.nranks,
          "record rank out of range in stream");
  const auto r = static_cast<std::size_t>(rec.rank);
  require(remaining_[r] > 0, "rank posix count mismatch in stream");
  if (!seen_[r]) {
    seen_[r] = 1;
    --unseen_active_;
  }
  last_tstart_[r] = rec.tstart;
  if (remaining_[r] != kUnknownBudget) --remaining_[r];
  if (remaining_[r] > 0) frontier_.push({rec.tstart, rec.rank});
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.push_back(rec);
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slab_[slot] = rec;
  }
  buffer_.push({rec.tstart, seq, slot});
  peak_buffered_ = std::max(peak_buffered_, buffer_.size());
  release_ready();
}

void StreamAnalyzer::enable_window(WindowAnalysisOptions opts,
                                   std::vector<std::uint64_t> file_posix_counts) {
  require(next_seq_ == 0, "enable_window after records were fed");
  window_opts_ = std::move(opts);
  if (file_posix_counts.empty()) return;
  file_posix_counts.resize(file_live_.size(), 0);
  file_remaining_ = std::move(file_posix_counts);
}

void StreamAnalyzer::step_top() {
  const Pending p = buffer_.top();
  buffer_.pop();
  const trace::Record& rec = slab_[p.slot];
  // First touch of a file carries rec.file (fds only exist via open
  // records, which require it), so reserving here pre-sizes the column
  // before any access lands in it — but only for files that actually
  // go live, keeping allocation bounded by the window.
  const FileId f = rec.file;
  if (f != kNoFile && f < hints_.size() && hints_[f] > 0) {
    log_.files[f].accesses.reserve(hints_[f]);
    hints_[f] = 0;
  }
  stepper_->step(rec, static_cast<std::size_t>(p.seq));
  last_release_t_ = rec.tstart;
  note_stepped(rec);
  free_slots_.push_back(p.slot);
}

void StreamAnalyzer::note_stepped(const trace::Record& rec) {
  const FileId f = rec.file;
  if (f == kNoFile) return;
  require(f < file_live_.size(), "record file out of range in stream");
  // A record reaching a finalized file means the advertised per-file
  // counts were wrong and a summary already shipped without it.
  require(!file_finalized_[f], "file posix count mismatch in stream");
  if (!file_live_[f]) {
    file_live_[f] = 1;
    ++live_files_;
    peak_live_files_ = std::max(peak_live_files_, live_files_);
  }
  if (file_remaining_.empty()) return;  // unknown: the final sweep finalizes
  require(file_remaining_[f] > 0, "file posix count mismatch in stream");
  if (--file_remaining_[f] == 0 && stepper_->open_fds(f) == 0) {
    retired_accesses_ += finalize_file(f);
  }
}

std::size_t StreamAnalyzer::finalize_file(FileId f) {
  file_finalized_[f] = 1;
  if (file_live_[f]) {
    file_live_[f] = 0;
    --live_files_;
  }
  FileLog& fl = log_.files[f];
  std::size_t freed = 0;
  // Slots the replay never activated (e.g. a path only stat-ed) have no
  // per-file state to analyze; their summary slot stays file == kNoFile.
  // They still retire through the callback: observers (ledger
  // condensation) hold per-file state for meta-only paths too.
  if (fl.active()) {
    annotator_->annotate_file(fl);
    summaries_[f] = summarize_file(f, log_.paths.view(f), fl, window_opts_);
    freed = fl.accesses.size();
    FileLog fresh;
    fresh.file = fl.file;
    fl = std::move(fresh);
  }
  if (window_opts_.on_retire) {
    window_opts_.on_retire(f, live_files_, last_release_t_);
  }
  return freed;
}

void StreamAnalyzer::release_ready() {
  while (!buffer_.empty()) {
    // Current frontier: smallest last-seen Posix tstart over ranks still
    // owing records (stale and retired entries are skipped lazily).
    while (!frontier_.empty()) {
      const FrontierEntry& top = frontier_.top();
      const auto r = static_cast<std::size_t>(top.rank);
      if (remaining_[r] == 0 || top.t != last_tstart_[r]) {
        frontier_.pop();
        continue;
      }
      break;
    }
    if (unseen_active_ > 0) return;  // some owing rank has no bound yet
    if (!frontier_.empty() && buffer_.top().tstart > frontier_.top().t) {
      return;
    }
    // Releasing at tstart == frontier is safe on ties: any future record
    // with the same tstart carries a larger seq, and the stable sort the
    // materialized path runs orders equal tstarts by seq.
    step_top();
  }
}

StreamAnalyzer::WindowedResult StreamAnalyzer::finish_windowed() {
  while (!buffer_.empty()) step_top();
  // Final sweep: whatever the frontier could not retire mid-stream —
  // unknown budgets, files a crashed rank left open, zero-count slots.
  for (FileId f = 0; f < log_.files.size(); ++f) {
    if (!file_finalized_[f]) (void)finalize_file(f);
  }
  WindowedResult res;
  res.stats = std::move(stats_);
  res.records = next_seq_;
  res.nranks = log_.nranks;
  res.paths = std::move(log_.paths);
  res.summaries = std::move(summaries_);
  res.peak_live_files = peak_live_files_;
  res.retired_accesses = retired_accesses_;
  res.peak_buffered = peak_buffered_;
  return res;
}

}  // namespace pfsem::core
