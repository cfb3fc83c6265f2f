#pragma once
// Incremental core of offset reconstruction (private to pfsem_core).
//
// OffsetStepper replays Posix records one at a time — in (tstart,
// emission-index) order — against the per-fd / per-file state machine of
// Section 5.1; annotate_accesses is the (t_open, t_commit, t_close) pass
// of Section 5.2. Extracted from reconstruct_accesses so the one-shot
// bundle path (offset_tracker.cpp) and the streaming analyzer
// (stream_analyze.cpp) run the *same* transition code on the same order —
// identical AccessLogs by construction, which is what the streaming
// differential tests pin down.

#include <algorithm>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "pfsem/core/access.hpp"
#include "pfsem/core/offset_tracker.hpp"
#include "pfsem/trace/record.hpp"
#include "pfsem/util/error.hpp"

namespace pfsem::core::detail {

class OffsetStepper {
 public:
  /// `log` must already carry its final path table (files sized to it)
  /// and its rank count; the stepper appends accesses/opens/commits/
  /// closes as records arrive.
  OffsetStepper(AccessLog& log, OffsetTrackerOptions opts)
      : log_(log),
        opts_(opts),
        fds_(static_cast<std::size_t>(std::max(log.nranks, 0))),
        sizes_(log.paths.size(), 0),
        open_fds_(log.paths.size(), 0) {}

  /// Replay one Posix record; `index` is its global emission index (the
  /// tie-break key of the processing order, recorded on each Access).
  void step(const trace::Record& rec, std::size_t index) {
    using trace::Func;
    require(rec.rank >= 0 && rec.rank < log_.nranks,
            "record rank out of range in trace");
    RankFds& fds = fds_[static_cast<std::size_t>(rec.rank)];
    switch (rec.func) {
      case Func::open: {
        require(rec.ret >= 0, "trace contains failed open");
        require(rec.file != kNoFile, "open record without a path");
        FdState st;
        st.file = rec.file;
        st.flags = rec.flags;
        if (rec.flags & trace::kTrunc) sizes_[st.file] = 0;
        st.offset = 0;
        // Replacing a still-open fd (trace reuse) releases its hold on
        // the old file before the new one takes the slot.
        const auto [slot, fresh] =
            fds.try_emplace(static_cast<int>(rec.ret), st);
        if (!fresh) {
          --open_fds_[slot->second.file];
          slot->second = st;
        }
        ++open_fds_[st.file];
        log_.file(rec.file).opens[rec.rank].push_back(rec.tstart);
        break;
      }
      case Func::close: {
        const auto it = fds.find(rec.fd);
        if (it != fds.end()) {
          auto& fl = log_.file(it->second.file);
          fl.closes[rec.rank].push_back(rec.tstart);
          fl.commits[rec.rank].push_back(rec.tstart);
          --open_fds_[it->second.file];
          fds.erase(it);
        }
        break;
      }
      case Func::read:
      case Func::write: {
        FdState* st = find(fds, rec.fd);
        require(st != nullptr, "read/write on unknown fd in trace");
        const bool is_write = rec.func == Func::write;
        Offset off = st->offset;
        if (is_write && (st->flags & trace::kAppend)) off = sizes_[st->file];
        const auto len = static_cast<std::uint64_t>(rec.ret);
        add_access(rec, index, st->file, off, len,
                   is_write ? AccessType::Write : AccessType::Read);
        st->offset = off + len;
        break;
      }
      case Func::pread:
      case Func::pwrite: {
        const FdState* st = find(fds, rec.fd);
        require(st != nullptr, "pread/pwrite on unknown fd in trace");
        add_access(rec, index, st->file, rec.offset,
                   static_cast<std::uint64_t>(rec.ret),
                   rec.func == Func::pwrite ? AccessType::Write
                                            : AccessType::Read);
        break;
      }
      case Func::lseek: {
        FdState* st = find(fds, rec.fd);
        require(st != nullptr, "lseek on unknown fd in trace");
        const auto delta = static_cast<std::int64_t>(rec.offset);
        std::int64_t base = 0;
        switch (rec.flags) {
          case trace::kSeekSet: base = 0; break;
          case trace::kSeekCur:
            base = static_cast<std::int64_t>(st->offset);
            break;
          case trace::kSeekEnd:
            base = static_cast<std::int64_t>(sizes_[st->file]);
            break;
          default: require(false, "bad whence in trace");
        }
        st->offset = static_cast<Offset>(base + delta);
        break;
      }
      case Func::fsync:
      case Func::fdatasync: {
        const FdState* st = find(fds, rec.fd);
        require(st != nullptr, "fsync on unknown fd in trace");
        log_.file(st->file).commits[rec.rank].push_back(rec.tstart);
        break;
      }
      case Func::ftruncate: {
        if (const FdState* st = find(fds, rec.fd)) {
          sizes_[st->file] = rec.offset;
        }
        break;
      }
      default:
        break;  // metadata/utility ops don't contribute byte accesses
    }
  }

  /// Descriptors currently open on `f` — the windowed analyzer's
  /// retirement guard: while any fd holds the file, a future record
  /// could still reach its FileLog through per-fd state, so the file
  /// must stay in the window.
  [[nodiscard]] std::uint32_t open_fds(FileId f) const {
    return f < open_fds_.size() ? open_fds_[f] : 0;
  }

 private:
  struct FdState {
    FileId file = kNoFile;
    Offset offset = 0;
    int flags = 0;
  };
  /// One rank's open descriptors, hashed by fd number: fd numbers come
  /// straight from the trace (unbounded, reused, replaced while open), so
  /// they index nothing, and a loaded trace may keep any number open.
  using RankFds = std::unordered_map<int, FdState>;

  [[nodiscard]] static FdState* find(RankFds& fds, int fd) {
    const auto it = fds.find(fd);
    return it == fds.end() ? nullptr : &it->second;
  }

  void add_access(const trace::Record& rec, std::size_t index, FileId f,
                  Offset off, std::uint64_t len, AccessType type) {
    using trace::Func;
    if (len == 0) return;
    Access a;
    a.t = rec.tstart;
    a.rank = rec.rank;
    a.ext = {off, off + len};
    a.type = type;
    a.record_index = index;
    log_.file(f).accesses.push_back(a);
    if (type == AccessType::Write) {
      Offset& size = sizes_[f];
      size = std::max(size, a.ext.end);
    }
    if (opts_.validate_against_ground_truth &&
        (rec.func == Func::read || rec.func == Func::write ||
         rec.func == Func::pread || rec.func == Func::pwrite)) {
      require(off == rec.offset,
              "offset reconstruction mismatch on " +
                  std::string(log_.paths.view(f)) + ": got " +
                  std::to_string(off) + ", truth " +
                  std::to_string(rec.offset));
    }
  }

  AccessLog& log_;
  OffsetTrackerOptions opts_;
  std::vector<RankFds> fds_;  // indexed by rank
  std::vector<Offset> sizes_;  // up-to-date size per file
  std::vector<std::uint32_t> open_fds_;  // open descriptors per file
};

/// The (t_open, t_commit, t_close) pass of Section 5.2, one file at a
/// time. The windowed analyzer runs it the moment a file retires from
/// the stream window; the materialized path runs it over every file at
/// once — same code, identical per-file results. Keeps a rank-indexed
/// table across files, so each access finds its rank's event lists by
/// index instead of a tree lookup. Defined in offset_tracker.cpp.
class Annotator {
 public:
  /// Sort the event tables and (unless already in order, as the stepper
  /// leaves them) stable-sort the accesses by time, then resolve each
  /// access's annotations.
  void annotate_file(FileLog& fl);

 private:
  /// One rank's event list on the current file, walked forward as that
  /// rank's accesses advance in time: `pos` counts events at or before
  /// the current access.
  struct Events {
    std::span<const SimTime> times;
    std::size_t pos = 0;

    void skip_through(SimTime t) {
      while (pos < times.size() && times[pos] <= t) ++pos;
    }
    /// Last event at or before the current access, or 0.
    [[nodiscard]] SimTime last() const { return pos == 0 ? 0 : times[pos - 1]; }
    /// First event after the current access, or kTimeNever.
    [[nodiscard]] SimTime next() const {
      return pos < times.size() ? times[pos] : kTimeNever;
    }
  };
  struct RankEvents {
    Events opens, commits, closes;
  };

  /// Indexed by rank; every slot is empty between calls.
  std::vector<RankEvents> by_rank_;
};

/// Annotate every access of every file with (t_open, t_commit, t_close).
void annotate_accesses(AccessLog& log);

}  // namespace pfsem::core::detail
