#pragma once
// Traced POSIX I/O façade.
//
// Every method performs the operation against the simulated PFS, advances
// simulated time by the operation's cost, and emits one trace record —
// the equivalent of Recorder's LD_PRELOAD interposition on the POSIX API.
// The `origin` passed at construction tags records with the layer whose
// code issued the call (application, MPI-IO, HDF5, ...), which is what
// lets the metadata census (Figure 3) attribute operations per layer.
//
// Note on record contents: like a real tracer, records carry only call
// arguments and return values. For write/read the file offset is *not* an
// argument — the analysis must reconstruct it (Section 5.1). We do stash
// the true landing offset in Record::offset as ground truth so tests can
// validate the reconstruction, but core::OffsetTracker never reads it for
// offset-implicit calls.

#include <optional>
#include <string>

#include "pfsem/iolib/context.hpp"
#include "pfsem/sim/task.hpp"
#include "pfsem/trace/record.hpp"
#include "pfsem/util/fd_table.hpp"

namespace pfsem::iolib {

class PosixIo {
 public:
  PosixIo(IoContext ctx, trace::Layer origin = trace::Layer::App);

  // Fault behaviour: when the context carries a fault::Injector, every
  // operation checks the caller for a fail-stop crash at entry (throwing
  // sim::TaskKilled) and re-issues attempts that fail with a retryable
  // simulated errno per ctx.retry, backing off in simulated time. An
  // exhausted budget or a non-retryable errno (e.g. EROFS from writing a
  // laminated file) throws pfsem::Error.

  /// Returns the new fd. Throws on simulated failure (missing file).
  sim::Task<int> open(Rank r, std::string path, int flags);
  sim::Task<void> close(Rank r, int fd);

  /// write/read at the descriptor's current offset; return byte count.
  sim::Task<std::uint64_t> write(Rank r, int fd, std::uint64_t count);
  sim::Task<std::uint64_t> read(Rank r, int fd, std::uint64_t count);
  /// Positioned variants (offset is an explicit argument, as in POSIX).
  sim::Task<std::uint64_t> pwrite(Rank r, int fd, Offset off, std::uint64_t count);
  sim::Task<std::uint64_t> pread(Rank r, int fd, Offset off, std::uint64_t count);
  /// Returns the resulting absolute offset.
  sim::Task<std::int64_t> lseek(Rank r, int fd, std::int64_t offset, int whence);

  sim::Task<void> fsync(Rank r, int fd);
  sim::Task<void> fdatasync(Rank r, int fd);
  sim::Task<void> ftruncate(Rank r, int fd, Offset length);

  /// Metadata & utility calls (monitored set of Section 6.4 / Figure 3).
  sim::Task<std::int64_t> stat(Rank r, std::string path);
  sim::Task<std::int64_t> lstat(Rank r, std::string path);
  sim::Task<std::int64_t> fstat(Rank r, int fd);
  sim::Task<std::int64_t> access(Rank r, std::string path);
  /// Namespace edits return the simulated 0/-1 result so callers can react
  /// (a missing target is information, not noise — see apps/).
  sim::Task<std::int64_t> unlink(Rank r, std::string path);
  sim::Task<std::int64_t> mkdir(Rank r, std::string path);
  sim::Task<std::int64_t> rename(Rank r, std::string from, std::string to);
  sim::Task<void> getcwd(Rank r);
  sim::Task<void> umask(Rank r);
  sim::Task<void> fcntl(Rank r, int fd);
  sim::Task<void> dup(Rank r, int fd);
  sim::Task<void> readdir(Rank r, std::string path);

  /// Last read's resolved version extents (for staleness checks in tests).
  [[nodiscard]] const std::vector<vfs::ReadExtent>& last_read_extents() const {
    return last_read_;
  }

  /// Interned path id associated with an fd this façade opened (for fstat
  /// records). Resolve to text via the collector's path table.
  [[nodiscard]] FileId file_of(Rank r, int fd) const;

 private:
  sim::Task<void> meta_call(Rank r, trace::Func f, FileId file,
                            SimDuration cost, std::int64_t ret);
  /// Fail-stop boundary check: throws sim::TaskKilled for a crashed rank.
  void check_alive(Rank r) const;
  void emit(Rank r, trace::Func f, SimTime t0, SimTime t1, int fd,
            std::int64_t ret, Offset off, std::uint64_t count, int flags,
            FileId file);

  IoContext ctx_;
  trace::Layer origin_;
  FdTable<std::optional<FileId>> fd_files_;
  std::vector<vfs::ReadExtent> last_read_;
};

}  // namespace pfsem::iolib
