#pragma once
// Byte-level access model — the output of offset reconstruction and the
// input of every analysis. Follows the paper's expanded record format
// (Section 5.2): each I/O operation becomes a tuple
//   (t, r, os, oe, type, to, tc)
// where `to` is the last preceding open and `tc` the first succeeding
// commit by the same process on the same file. We carry the first
// succeeding *close* separately because the session-semantics condition
// needs a close specifically, while the commit condition accepts any of
// fsync/fdatasync/fflush/close/fclose (paper footnote 2).
//
// Files are identified by interned FileId throughout: the store is
// columnar, one FileLog slot per table id in a dense vector, so analyses
// index a file in O(1) instead of walking a string-keyed map.

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "pfsem/trace/path_table.hpp"
#include "pfsem/util/extent.hpp"
#include "pfsem/util/types.hpp"

namespace pfsem::core {

enum class AccessType : std::uint8_t { Read, Write };

[[nodiscard]] constexpr const char* to_string(AccessType t) {
  return t == AccessType::Read ? "read" : "write";
}

struct Access {
  SimTime t = 0;  ///< entry timestamp (local rank clock)
  Rank rank = kNoRank;
  AccessType type = AccessType::Read;  ///< packs into rank's padding
  Extent ext;     ///< [os, oe) byte range
  /// Last open of this file by `rank` at or before `t`.
  SimTime t_open = 0;
  /// First commit op (fsync/fdatasync/fflush/close/fclose) by `rank` on
  /// this file after `t`; kTimeNever if none.
  SimTime t_commit = kTimeNever;
  /// First close by `rank` on this file after `t`; kTimeNever if none.
  SimTime t_close = kTimeNever;
  /// Index into TraceBundle::records this access was derived from.
  std::size_t record_index = 0;
};
static_assert(sizeof(Access) == 64, "Access is one cache line");

/// All reconstructed activity on one file. A slot is *active* once the
/// run touched the file (open/data/commit op); interned-but-untouched
/// paths keep an inactive placeholder slot so the vector stays dense.
struct FileLog {
  FileId file = kNoFile;  ///< own id; kNoFile while the slot is inactive
  /// Accesses in timestamp order.
  std::vector<Access> accesses;
  /// Per-rank sorted open/close/commit timestamps (for condition checks).
  std::map<Rank, std::vector<SimTime>> opens;
  std::map<Rank, std::vector<SimTime>> closes;
  std::map<Rank, std::vector<SimTime>> commits;

  [[nodiscard]] bool active() const { return file != kNoFile; }

  [[nodiscard]] std::uint64_t write_bytes() const {
    std::uint64_t n = 0;
    for (const auto& a : accesses) {
      if (a.type == AccessType::Write) n += a.ext.size();
    }
    return n;
  }
  [[nodiscard]] std::uint64_t read_bytes() const {
    std::uint64_t n = 0;
    for (const auto& a : accesses) {
      if (a.type == AccessType::Read) n += a.ext.size();
    }
    return n;
  }
};

/// Reconstructed byte-level activity of a whole run: a PathTable plus a
/// dense FileLog column indexed by FileId.
struct TraceStore {
  int nranks = 0;
  /// Interned paths; FileLog slot i describes paths.view(i).
  trace::PathTable paths;
  /// Dense per-file logs; files[id] may be inactive (see FileLog::active).
  std::vector<FileLog> files;

  /// Slot for `id`, growing the column and marking the slot active.
  FileLog& file(FileId id) {
    require(id != kNoFile && id < paths.size(),
            "FileId not interned in this store");
    if (files.size() < paths.size()) files.resize(paths.size());
    FileLog& fl = files[id];
    fl.file = id;
    return fl;
  }

  /// Slot for `path`, interning it if new (test/bench convenience that
  /// mirrors the old map's operator[]).
  FileLog& file(std::string_view path) { return file(paths.intern(path)); }

  /// Insert or replace the whole log for `path` (test/bench convenience
  /// that mirrors the old map's insert; keeps the slot's id consistent).
  FileLog& put(std::string_view path, FileLog fl) {
    const FileId id = paths.intern(path);
    if (files.size() < paths.size()) files.resize(paths.size());
    fl.file = id;
    files[id] = std::move(fl);
    return files[id];
  }

  /// Active slot for `path`; throws if absent (mirrors the old map's
  /// at()). Tests and tools use this; analyses index by FileId.
  [[nodiscard]] const FileLog& at(std::string_view path) const {
    const FileLog* fl = find(path);
    require(fl != nullptr, "no such file in store: " + std::string(path));
    return *fl;
  }

  /// Active slot for `path`, or nullptr if the path was never touched.
  [[nodiscard]] const FileLog* find(std::string_view path) const {
    const FileId id = paths.find(path);
    if (id == kNoFile || id >= files.size() || !files[id].active()) {
      return nullptr;
    }
    return &files[id];
  }

  [[nodiscard]] std::string_view path(FileId id) const {
    return paths.view(id);
  }

  /// Number of active files (what the old string-keyed map counted).
  [[nodiscard]] std::size_t file_count() const {
    std::size_t n = 0;
    for (const auto& fl : files) n += fl.active();
    return n;
  }

  /// Active ids in first-open (id) order.
  [[nodiscard]] std::vector<FileId> active_ids() const {
    std::vector<FileId> ids;
    ids.reserve(files.size());
    for (const auto& fl : files) {
      if (fl.active()) ids.push_back(fl.file);
    }
    return ids;
  }

  /// Active ids sorted by path — the iteration order of the retired
  /// std::map, for user-facing output that promises path order.
  [[nodiscard]] std::vector<FileId> ids_by_path() const {
    std::vector<FileId> ids = active_ids();
    std::sort(ids.begin(), ids.end(), [&](FileId a, FileId b) {
      return paths.view(a) < paths.view(b);
    });
    return ids;
  }
};

/// Historical name: analyses consume the reconstructed store.
using AccessLog = TraceStore;

}  // namespace pfsem::core
