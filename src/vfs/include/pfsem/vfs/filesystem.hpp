#pragma once
// Abstract file-system interface the simulated I/O stack runs against.
// Implemented by vfs::PfsCluster (the consistency-model-parameterized
// parallel file system; vfs::Pfs is its single-server preset) and
// vfs::BurstBufferPfs (a node-local burst-buffer tier
// with commit semantics, UnifyFS/BurstFS style). Every operation takes
// the current simulated time and returns a simulated cost the caller
// advances the clock by.

#include <string>
#include <vector>

#include "pfsem/vfs/pfs_types.hpp"

namespace pfsem::fault {
class Injector;
}  // namespace pfsem::fault

namespace pfsem::vfs {

class FileSystem {
 public:
  virtual ~FileSystem() = default;

  virtual OpenResult open(Rank r, const std::string& path, int flags,
                          SimTime now) = 0;
  virtual MetaResult close(Rank r, int fd, SimTime now) = 0;
  virtual WriteResult write(Rank r, int fd, std::uint64_t count, SimTime now) = 0;
  virtual WriteResult pwrite(Rank r, int fd, Offset off, std::uint64_t count,
                             SimTime now) = 0;
  virtual ReadResult read(Rank r, int fd, std::uint64_t count, SimTime now) = 0;
  virtual ReadResult pread(Rank r, int fd, Offset off, std::uint64_t count,
                           SimTime now) = 0;
  virtual MetaResult lseek(Rank r, int fd, std::int64_t delta, int whence,
                           SimTime now) = 0;
  virtual MetaResult fsync(Rank r, int fd, SimTime now) = 0;
  virtual MetaResult ftruncate(Rank r, int fd, Offset length, SimTime now) = 0;

  virtual MetaResult stat(const std::string& path, SimTime now) = 0;
  virtual MetaResult access(const std::string& path, SimTime now) = 0;
  virtual MetaResult unlink(const std::string& path, SimTime now) = 0;
  virtual MetaResult mkdir(const std::string& path, SimTime now) = 0;
  virtual MetaResult rename(const std::string& from, const std::string& to,
                            SimTime now) = 0;

  /// Stage pre-existing ("genesis") input data, visible to every process
  /// under every model, with no trace records and no conflicts.
  virtual void preload(const std::string& path, Offset size) = 0;

  /// Attach a fault injector (nullptr detaches). The injector may fail or
  /// delay any subsequent operation; the file system does not own it.
  virtual void set_fault_injector(fault::Injector* injector) = 0;

  /// Fail-stop crash of rank `r` at time `now`: discard every write by `r`
  /// that is not yet durable under the active consistency model (laminated
  /// files always survive), drop its open descriptors *without* the
  /// close-time commit/publish, and release its locks. Returns the version
  /// tags of the writes that were lost.
  virtual std::vector<VersionTag> crash_rank(Rank r, SimTime now) = 0;

  /// Metadata round-trip latency (used by the POSIX facade for utility
  /// calls with no data movement).
  [[nodiscard]] virtual SimDuration meta_latency() const = 0;

  /// Cumulative semantic-cost counters (see CostSnapshot). The default
  /// suits backends without a lock/striping cost model: all zeros, so
  /// ledger deltas attribute nothing rather than something wrong.
  [[nodiscard]] virtual CostSnapshot cost_snapshot() const { return {}; }
};

}  // namespace pfsem::vfs
