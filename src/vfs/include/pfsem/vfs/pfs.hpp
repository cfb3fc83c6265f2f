#pragma once
// In-memory parallel file system simulator with pluggable consistency
// semantics, implementing the four models of Section 3 of the paper:
//
//   Strong   — POSIX sequential consistency: a write is visible to every
//              process the moment it returns (Lustre/GPFS/BeeGFS class).
//   Commit   — writes become globally visible when the writer executes a
//              commit (fsync/close) (UnifyFS/BurstFS/SymphonyFS class).
//   Session  — writes become visible to a reader only if the writer closed
//              the file before the reader opened it (NFS/Gfarm-BB class).
//   Eventual — writes propagate after a configurable delay with no
//              synchronization at all (PLFS/echofs class).
//
// Data buffers are never stored: each write gets a unique VersionTag and
// reads return the tags visible to the reading process, so tests can tell
// exactly *which* write a read observed and detect stale data. A read that
// would return different bytes than POSIX-strong semantics is observable
// staleness — the ground truth the conflict detector predicts.
//
// The Pfs is not coroutine-aware: operations take the current simulated
// time and return a simulated cost which the caller (pfsem::iolib) awaits.
// Under the strong model a distributed-lock cost model charges lock
// acquisition/revocation traffic, the overhead the paper identifies as the
// price of POSIX semantics (Section 3.1); data transfers are striped
// round-robin across OSTs (PfsConfig::stripe_count).

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "pfsem/trace/path_table.hpp"
#include "pfsem/vfs/file_core.hpp"
#include "pfsem/vfs/filesystem.hpp"
#include "pfsem/vfs/pfs_types.hpp"

namespace pfsem::obs {
struct Run;
}  // namespace pfsem::obs

namespace pfsem::vfs {

class Pfs final : public FileSystem {
 public:
  explicit Pfs(PfsConfig cfg = {});
  ~Pfs() override;
  Pfs(const Pfs&) = delete;
  Pfs& operator=(const Pfs&) = delete;

  [[nodiscard]] const PfsConfig& config() const { return cfg_; }
  [[nodiscard]] const LockStats& lock_stats() const { return locks_; }
  [[nodiscard]] const OstStats& ost_stats() const { return osts_; }
  [[nodiscard]] const CompactionStats& compaction_stats() const {
    return compaction_;
  }
  [[nodiscard]] SimDuration meta_latency() const override {
    return cfg_.meta_latency;
  }
  [[nodiscard]] CostSnapshot cost_snapshot() const override {
    return {locks_.requests, locks_.revocations, locks_.meta_ops,
            osts_.total_bytes};
  }

  /// Attach an observability context (nullptr = off, the default). Used
  /// only for counter-track samples (vfs.compacted_writes over sim time);
  /// scalar gauges stay harness-published, so this is one extra branch on
  /// the compaction path and nothing on the data path.
  void set_observer(obs::Run* run) { orun_ = run; }

  // --- file data operations (see FileSystem) ----------------------------
  OpenResult open(Rank r, const std::string& path, int flags,
                  SimTime now) override;
  MetaResult close(Rank r, int fd, SimTime now) override;
  WriteResult write(Rank r, int fd, std::uint64_t count, SimTime now) override;
  WriteResult pwrite(Rank r, int fd, Offset off, std::uint64_t count,
                     SimTime now) override;
  ReadResult read(Rank r, int fd, std::uint64_t count, SimTime now) override;
  ReadResult pread(Rank r, int fd, Offset off, std::uint64_t count,
                   SimTime now) override;
  MetaResult lseek(Rank r, int fd, std::int64_t delta, int whence,
                   SimTime now) override;
  MetaResult fsync(Rank r, int fd, SimTime now) override;
  MetaResult ftruncate(Rank r, int fd, Offset length, SimTime now) override;

  /// UnifyFS-style lamination (Section 3.2): make every write to `path`
  /// globally visible and the file permanently read-only. Subsequent
  /// writes fail with ret -1 regardless of model.
  MetaResult laminate(const std::string& path, SimTime now);

  // --- namespace / metadata operations ----------------------------------
  MetaResult stat(const std::string& path, SimTime now) override;
  MetaResult access(const std::string& path, SimTime now) override;
  MetaResult unlink(const std::string& path, SimTime now) override;
  MetaResult mkdir(const std::string& path, SimTime now) override;
  MetaResult rename(const std::string& from, const std::string& to,
                    SimTime now) override;

  /// Create `path` with `size` bytes of pre-existing ("genesis") content,
  /// visible to every process under every consistency model — input files
  /// staged before the traced job starts (datasets, configuration decks).
  /// Emits no trace records and no conflicts.
  void preload(const std::string& path, Offset size) override;

  // --- fault injection (pfsem::fault) ------------------------------------
  void set_fault_injector(fault::Injector* injector) override;
  std::vector<VersionTag> crash_rank(Rank r, SimTime now) override;

  // --- introspection (tests & benches) ----------------------------------
  [[nodiscard]] bool exists(const std::string& path) const;
  [[nodiscard]] Offset file_size(const std::string& path) const;
  [[nodiscard]] std::vector<std::string> list_files() const;

  /// What a POSIX-strong PFS would return for this range right now — the
  /// oracle tests compare weaker-model reads against to detect staleness.
  [[nodiscard]] std::vector<ReadExtent> strong_view(const std::string& path,
                                                    Offset off,
                                                    std::uint64_t count) const;

 private:
  /// Per-file semantics live in the shared core (file_core.hpp) so the
  /// multi-server PfsCluster resolves reads with identical code.
  using File = detail::FileCore;
  using OpenFile = detail::OpenFile;

  std::shared_ptr<File> lookup(const std::string& path) const;
  /// Slot for `path` in the id-indexed file vector, interning on demand.
  /// A null slot means the name is known but no file currently exists
  /// (never created, unlinked, or renamed away).
  std::shared_ptr<File>& slot(const std::string& path);
  SimDuration charge_locks(OpenFile& of, Rank r, Extent ext, bool exclusive);
  /// Amortized extent-compaction trigger (cfg_.compaction); called at
  /// commit points and after writes.
  void maybe_compact(File& f, SimTime now);
  /// Transfer cost of `ext` across the striped OSTs (updates ost_stats).
  /// An active OST slowdown (fault injection) stretches the affected
  /// per-OST transfer times.
  SimDuration charge_transfer(Extent ext, SimTime now);
  /// Injected errno for one operation (0 when no injector / no fault).
  int inject(int op_class, Rank r, SimTime now);
  std::vector<ReadExtent> resolve(const File& f, Rank r, SimTime now,
                                  SimTime session_open, Offset off,
                                  std::uint64_t count) const;

  PfsConfig cfg_;
  /// Namespace: every path ever seen is interned once; live files occupy
  /// the matching slot of the dense id-indexed vector and directories are
  /// a set of interned ids. No string-keyed map on the simulation path.
  trace::PathTable names_;
  std::vector<std::shared_ptr<File>> files_;
  std::set<FileId> dirs_;
  detail::FdTable open_files_;
  VersionTag next_version_ = 1;
  LockStats locks_;
  OstStats osts_;
  CompactionStats compaction_;
  fault::Injector* injector_ = nullptr;  ///< not owned; nullptr = no faults
  obs::Run* orun_ = nullptr;             ///< not owned; nullptr = obs off
};

}  // namespace pfsem::vfs
