#include "pfsem/iolib/mpi_io.hpp"

#include <algorithm>
#include <limits>

#include "pfsem/util/error.hpp"
#include "pfsem/util/extent.hpp"

namespace pfsem::iolib {

/// Shared state of one collectively-opened file. Per-rank state is
/// indexed by group position (mpi::group_pos) and sized by the group, not
/// the world: a one-member file per rank stays O(1) each.
struct MpiFile {
  std::string path;       ///< display/open path; `file` is its interned id
  FileId file = kNoFile;
  mpi::Group group;
  std::vector<Rank> aggregators;
  std::vector<int> fds;   ///< by group position; -1 until that rank opens
  int open_count = 0;

  [[nodiscard]] int fd(Rank r) const { return fds[mpi::group_pos(group, r)]; }

  /// Staging for collective transfers: one generation per *per-rank* call
  /// index, so ranks at different speeds never mix up epochs. Only the
  /// hull of the contributions matters downstream, so it is folded in as
  /// ranks arrive — a per-rank rescan of all contributions would make
  /// every collective write O(group^2).
  struct Pending {
    Offset lo = std::numeric_limits<Offset>::max();
    Offset hi = 0;
    std::size_t done = 0;
  };
  std::map<std::uint64_t, Pending> pending;
  std::vector<std::uint64_t> generation;  ///< by group position
};

MpiIo::MpiIo(IoContext ctx, MpiIoOptions opt)
    : ctx_(ctx), opt_(opt), posix_(ctx, trace::Layer::MpiIo) {
  require(ctx_.valid(), "MpiIo needs a fully-wired IoContext");
  require(opt_.aggregators > 0, "need at least one aggregator");
}

MpiIo::~MpiIo() = default;

void MpiIo::emit(Rank r, trace::Func f, SimTime t0, Offset off,
                 std::uint64_t count, FileId file) {
  trace::Record rec;
  rec.tstart = t0;
  rec.tend = ctx_.engine->now();
  rec.rank = r;
  rec.layer = trace::Layer::MpiIo;
  rec.origin = opt_.origin;
  rec.func = f;
  rec.offset = off;
  rec.count = count;
  rec.file = file;
  ctx_.collector->emit(rec);
}

sim::Task<MpiFile*> MpiIo::open(Rank r, const std::string& path, int flags,
                                const mpi::Group& group) {
  const SimTime t0 = ctx_.engine->now();
  const FileId file = ctx_.collector->intern(path);
  auto& slot = handles_[file];
  if (!slot) {
    slot = std::make_unique<MpiFile>();
    slot->path = path;
    slot->file = file;
    slot->group = group;
    slot->fds.assign(group.size(), -1);
    slot->generation.assign(group.size(), 0);
    // Evenly-spaced aggregator ranks within the group (ROMIO default-ish).
    const int naggr = std::min<int>(opt_.aggregators,
                                    static_cast<int>(group.size()));
    for (int i = 0; i < naggr; ++i) {
      slot->aggregators.push_back(
          group[static_cast<std::size_t>(i) * group.size() / naggr]);
    }
  }
  MpiFile* fh = slot.get();
  // O(1) endpoint check: a full vector compare per joining rank would be
  // O(group^2) per open (groups are sorted, so ends pin the extremes).
  require(fh->group.size() == group.size() &&
              fh->group.front() == group.front() &&
              fh->group.back() == group.back(),
          "MPI_File_open group mismatch across ranks");
  ++fh->open_count;
  // ROMIO stats the file then every rank opens it.
  co_await posix_.stat(r, path);
  fh->fds[mpi::group_pos(fh->group, r)] = co_await posix_.open(r, path, flags);
  co_await ctx_.world->barrier(r, group);
  emit(r, trace::Func::mpi_file_open, t0, 0, 0, file);
  co_return fh;
}

sim::Task<void> MpiIo::close(Rank r, MpiFile* fh) {
  const SimTime t0 = ctx_.engine->now();
  co_await ctx_.world->barrier(r, fh->group);
  co_await posix_.close(r, fh->fd(r));
  const FileId file = fh->file;
  emit(r, trace::Func::mpi_file_close, t0, 0, 0, file);
  if (--fh->open_count == 0) handles_.erase(file);
}

sim::Task<void> MpiIo::write_at(Rank r, MpiFile* fh, Offset off,
                                std::uint64_t count) {
  const SimTime t0 = ctx_.engine->now();
  co_await posix_.pwrite(r, fh->fd(r), off, count);
  emit(r, trace::Func::mpi_file_write_at, t0, off, count, fh->file);
}

sim::Task<void> MpiIo::read_at(Rank r, MpiFile* fh, Offset off,
                               std::uint64_t count) {
  const SimTime t0 = ctx_.engine->now();
  co_await posix_.pread(r, fh->fd(r), off, count);
  emit(r, trace::Func::mpi_file_read_at, t0, off, count, fh->file);
}

sim::Task<void> MpiIo::collective_transfer(Rank r, MpiFile* fh, Offset off,
                                           std::uint64_t count, bool is_write) {
  // Phase 1: exchange access ranges (modelled by the barrier's all-to-all
  // synchronization; contribution hulls are staged in the shared handle).
  const std::uint64_t gen = fh->generation[mpi::group_pos(fh->group, r)]++;
  {
    auto& stage = fh->pending[gen];
    const Extent ext{off, off + count};
    if (!ext.empty()) {
      stage.lo = std::min(stage.lo, ext.begin);
      stage.hi = std::max(stage.hi, ext.end);
    }
  }
  co_await ctx_.world->barrier(r, fh->group);

  // Phase 2: aggregators access their contiguous file domain.
  auto& p = fh->pending.at(gen);
  const Offset lo = p.lo;
  const Offset hi = p.hi;
  const auto it = std::find(fh->aggregators.begin(), fh->aggregators.end(), r);
  if (it != fh->aggregators.end() && hi > lo) {
    const auto naggr = static_cast<Offset>(fh->aggregators.size());
    const auto idx = static_cast<Offset>(it - fh->aggregators.begin());
    const Offset span = hi - lo;
    const Offset chunk = (span + naggr - 1) / naggr;
    const Extent domain{lo + idx * chunk, std::min(hi, lo + (idx + 1) * chunk)};
    if (!domain.empty()) {
      // Shuffle: the aggregator collects (or distributes) its domain's data
      // from/to the group; charged as a network transfer delay. (A real
      // ROMIO uses point-to-point exchanges; the barriers above/below
      // already provide the happens-before structure they would add.)
      co_await ctx_.engine->delay(static_cast<SimDuration>(
          static_cast<double>(domain.size()) /
          ctx_.world->config().net_bytes_per_ns));
      if (is_write) {
        co_await posix_.pwrite(r, fh->fd(r), domain.begin, domain.size());
      } else {
        co_await posix_.pread(r, fh->fd(r), domain.begin, domain.size());
      }
    }
  }
  co_await ctx_.world->barrier(r, fh->group);
  if (++fh->pending.at(gen).done == fh->group.size()) fh->pending.erase(gen);
}

sim::Task<void> MpiIo::write_at_all(Rank r, MpiFile* fh, Offset off,
                                    std::uint64_t count) {
  const SimTime t0 = ctx_.engine->now();
  co_await collective_transfer(r, fh, off, count, /*is_write=*/true);
  emit(r, trace::Func::mpi_file_write_at_all, t0, off, count, fh->file);
}

sim::Task<void> MpiIo::read_at_all(Rank r, MpiFile* fh, Offset off,
                                   std::uint64_t count) {
  const SimTime t0 = ctx_.engine->now();
  co_await collective_transfer(r, fh, off, count, /*is_write=*/false);
  emit(r, trace::Func::mpi_file_read_at_all, t0, off, count, fh->file);
}

sim::Task<void> MpiIo::sync(Rank r, MpiFile* fh) {
  const SimTime t0 = ctx_.engine->now();
  co_await posix_.fsync(r, fh->fd(r));
  emit(r, trace::Func::mpi_file_sync, t0, 0, 0, fh->file);
}

sim::Task<void> MpiIo::set_size(Rank r, MpiFile* fh, Offset size) {
  const SimTime t0 = ctx_.engine->now();
  co_await posix_.ftruncate(r, fh->fd(r), size);
  emit(r, trace::Func::mpi_file_set_size, t0, 0, size, fh->file);
}

}  // namespace pfsem::iolib
