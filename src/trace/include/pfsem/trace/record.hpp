#pragma once
// Trace record schema, modelled on Recorder 2.0 (Wang et al., IPDPSW'20),
// the tracer the paper uses: one record per intercepted call, carrying the
// API layer, entry/exit timestamps (from the *local*, possibly skewed rank
// clock), the calling rank, and the arguments needed to reconstruct byte
// ranges (fd/path/offset/count/whence/flags) — everything except buffer
// contents, exactly like the paper (Section 5).

#include <cstdint>
#include <string_view>

#include "pfsem/trace/path_table.hpp"
#include "pfsem/util/types.hpp"

namespace pfsem::trace {

/// API layer a function belongs to. `origin` on a Record additionally says
/// which layer *issued* the call, so e.g. a POSIX write issued from inside
/// HDF5 is {layer=Posix, origin=Hdf5} — this is how Figure 3 attributes
/// metadata operations to MPI / HDF5 / application.
enum class Layer : std::uint8_t { Posix, MpiIo, Hdf5, NetCdf, Adios, Silo, App };
inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::App) + 1;

[[nodiscard]] std::string_view to_string(Layer layer);

// X-macro master list of traced functions. Groups:
//  - POSIX data ops (drive the byte-level conflict analysis, Section 5.1)
//  - POSIX metadata/utility ops (the Section 6.4 footnote-3 monitored set)
//  - MPI-IO / HDF5 / NetCDF / ADIOS / Silo library entry points
#define PFSEM_FUNC_LIST(X)                                                    \
  /* --- POSIX data --- */                                                    \
  X(open) X(creat) X(close) X(read) X(write) X(pread) X(pwrite) X(lseek)      \
  X(fsync) X(fdatasync)                                                       \
  X(fopen) X(fclose) X(fread) X(fwrite) X(fseek) X(fflush)                    \
  /* --- POSIX metadata & utility (paper footnote 3) --- */                   \
  X(mmap) X(msync) X(stat) X(lstat) X(fstat) X(getcwd) X(mkdir) X(rmdir)      \
  X(chdir) X(link) X(unlink) X(symlink) X(readlink) X(rename) X(chmod)        \
  X(chown) X(utime) X(opendir) X(readdir) X(closedir) X(rewinddir) X(mknod)   \
  X(fcntl) X(dup) X(dup2) X(pipe) X(mkfifo) X(umask) X(fileno) X(access)      \
  X(tmpfile) X(remove) X(truncate) X(ftruncate)                               \
  /* --- MPI-IO --- */                                                        \
  X(mpi_file_open) X(mpi_file_close) X(mpi_file_read_at)                      \
  X(mpi_file_write_at) X(mpi_file_read_at_all) X(mpi_file_write_at_all)       \
  X(mpi_file_seek) X(mpi_file_sync) X(mpi_file_set_view)                      \
  X(mpi_file_set_size) X(mpi_file_get_size)                                   \
  /* --- HDF5 --- */                                                          \
  X(h5fcreate) X(h5fopen) X(h5fclose) X(h5fflush) X(h5dcreate) X(h5dopen)     \
  X(h5dwrite) X(h5dread) X(h5dclose) X(h5gcreate) X(h5acreate) X(h5awrite)    \
  /* --- NetCDF --- */                                                        \
  X(nc_create) X(nc_open) X(nc_close) X(nc_def_dim) X(nc_def_var)             \
  X(nc_enddef) X(nc_put_vara) X(nc_get_vara) X(nc_sync)                       \
  /* --- ADIOS --- */                                                         \
  X(adios_open) X(adios_close) X(adios_put) X(adios_get) X(adios_end_step)    \
  /* --- Silo --- */                                                          \
  X(db_create) X(db_open) X(db_close) X(db_put_quadmesh) X(db_put_quadvar)    \
  X(db_mkdir) X(db_set_dir)

enum class Func : std::uint16_t {
#define PFSEM_ENUM(name) name,
  PFSEM_FUNC_LIST(PFSEM_ENUM)
#undef PFSEM_ENUM
      count_
};

inline constexpr std::size_t kFuncCount = static_cast<std::size_t>(Func::count_);

[[nodiscard]] std::string_view to_string(Func f);

/// True for the POSIX calls the conflict detector treats as a *commit*
/// operation (paper Section 6.3, footnote 2: fsync, fdatasync, fflush,
/// fclose, close).
[[nodiscard]] constexpr bool is_commit_func(Func f) {
  return f == Func::fsync || f == Func::fdatasync || f == Func::fflush ||
         f == Func::fclose || f == Func::close;
}

/// True for POSIX metadata/utility operations monitored for Figure 3.
[[nodiscard]] bool is_metadata_func(Func f);

/// One traced call.
struct Record {
  SimTime tstart = 0;      ///< entry timestamp, local rank clock
  SimTime tend = 0;        ///< exit timestamp, local rank clock
  Rank rank = kNoRank;
  Layer layer = Layer::Posix;   ///< API layer of the function itself
  Layer origin = Layer::App;    ///< layer whose code issued the call
  Func func = Func::open;
  std::int32_t fd = -1;         ///< file descriptor (POSIX data ops)
  std::int64_t ret = 0;         ///< return value (fd for open, bytes for r/w)
  Offset offset = 0;            ///< explicit offset (pread/pwrite/lseek/...)
  std::uint64_t count = 0;      ///< byte count / size argument
  std::int32_t flags = 0;       ///< open flags or seek whence
  FileId file = kNoFile;        ///< interned file path where applicable

  /// Path of this record resolved against the bundle's PathTable
  /// (empty view when the call has no associated path).
  [[nodiscard]] std::string_view path_view(const PathTable& paths) const {
    return paths.view_or_empty(file);
  }

  [[nodiscard]] bool has_path() const { return file != kNoFile; }

  friend bool operator==(const Record&, const Record&) = default;
};

/// open(2)-style flag bits used by the simulated stack (subset of POSIX).
enum OpenFlags : std::int32_t {
  kRdOnly = 0x0,
  kWrOnly = 0x1,
  kRdWr = 0x2,
  kCreate = 0x40,
  kTrunc = 0x200,
  kAppend = 0x400,
};

/// lseek whence values.
enum Whence : std::int32_t { kSeekSet = 0, kSeekCur = 1, kSeekEnd = 2 };

}  // namespace pfsem::trace
