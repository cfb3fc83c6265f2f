#include "pfsem/vfs/pfs.hpp"

#include <algorithm>

#include "pfsem/fault/injector.hpp"
#include "pfsem/obs/obs.hpp"
#include "pfsem/trace/record.hpp"
#include "pfsem/util/error.hpp"

namespace pfsem::vfs {

const char* to_string(ConsistencyModel m) {
  switch (m) {
    case ConsistencyModel::Strong: return "strong";
    case ConsistencyModel::Commit: return "commit";
    case ConsistencyModel::Session: return "session";
    case ConsistencyModel::Eventual: return "eventual";
  }
  return "?";
}

using detail::WriteRecord;

Pfs::Pfs(PfsConfig cfg) : cfg_(cfg) {
  require(cfg_.stripe_count >= 1, "stripe_count must be >= 1");
  require(cfg_.stripe_size > 0, "stripe_size must be positive");
  dirs_.insert(names_.intern("/"));
  osts_.requests.assign(static_cast<std::size_t>(cfg_.stripe_count), 0);
  osts_.bytes.assign(static_cast<std::size_t>(cfg_.stripe_count), 0);
}
Pfs::~Pfs() = default;

std::shared_ptr<Pfs::File> Pfs::lookup(const std::string& path) const {
  const FileId id = names_.find(path);
  return id == kNoFile || id >= files_.size() ? nullptr : files_[id];
}

std::shared_ptr<Pfs::File>& Pfs::slot(const std::string& path) {
  const FileId id = names_.intern(path);
  if (id >= files_.size()) files_.resize(id + 1);
  return files_[id];
}

// ----------------------------------------------------------------------
// lock cost model (strong semantics only)

SimDuration Pfs::charge_locks(OpenFile& of, Rank r, Extent ext,
                              bool exclusive) {
  return detail::charge_locks(
      *of.file, r, ext, exclusive,
      {cfg_.model, cfg_.lock_latency, cfg_.lock_block}, locks_, of.locked);
}

SimDuration Pfs::charge_transfer(Extent ext, SimTime now) {
  if (ext.empty()) return 0;
  const auto n = static_cast<std::size_t>(cfg_.stripe_count);
  bool slowed = false;
  // Per-OST transfer time, stretched by any active slowdown window.
  auto ost_time = [&](std::size_t ost, Offset bytes) {
    double t = static_cast<double>(bytes) / cfg_.bytes_per_ns;
    if (injector_ != nullptr) {
      const double factor = injector_->transfer_factor(static_cast<int>(ost), now);
      if (factor > 1.0) {
        t *= factor;
        slowed = true;
      }
    }
    return static_cast<SimDuration>(t);
  };
  SimDuration cost = 0;
  if (n == 1) {
    ++osts_.requests[0];
    osts_.bytes[0] += ext.size();
    osts_.total_bytes += ext.size();
    cost = ost_time(0, ext.size());
  } else {
    // Distribute the extent over the round-robin stripe layout.
    std::vector<Offset> per_ost(n, 0);
    Offset pos = ext.begin;
    while (pos < ext.end) {
      const Offset stripe_idx = pos / cfg_.stripe_size;
      const Offset stripe_end = (stripe_idx + 1) * cfg_.stripe_size;
      const Offset chunk = std::min(ext.end, stripe_end) - pos;
      per_ost[static_cast<std::size_t>(stripe_idx % n)] += chunk;
      pos += chunk;
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (per_ost[i] == 0) continue;
      ++osts_.requests[i];
      osts_.bytes[i] += per_ost[i];
      osts_.total_bytes += per_ost[i];
      cost = std::max(cost, ost_time(i, per_ost[i]));
    }
  }
  if (slowed) injector_->note_slowed_transfer();
  return cost;
}

void Pfs::maybe_compact(File& f, SimTime now) {
  if (!cfg_.compaction || !detail::should_compact(f)) return;
  SimTime floor = kTimeNever;
  if (cfg_.model == ConsistencyModel::Session) {
    open_files_.for_all([&](const OpenFile& of) {
      if (of.file.get() == &f) floor = std::min(floor, of.t_open);
    });
  }
  const std::size_t folded = detail::compact_file(
      f, {cfg_.model, cfg_.eventual_propagation, injector_}, now, floor);
  if (folded > 0) {
    compaction_.folded_writes += folded;
    ++compaction_.passes;
    if (orun_ != nullptr && orun_->tracing()) {
      orun_->tracer.counter(
          {obs::kPidVfs, 0}, "vfs.compacted_writes", now,
          static_cast<std::int64_t>(compaction_.folded_writes));
    }
  }
}

int Pfs::inject(int op_class, Rank r, SimTime now) {
  if (injector_ == nullptr) return 0;
  return injector_->on_op(static_cast<fault::OpClass>(op_class), r, now);
}

void Pfs::set_fault_injector(fault::Injector* injector) { injector_ = injector; }

// ----------------------------------------------------------------------
// open / close

OpenResult Pfs::open(Rank r, const std::string& path, int flags, SimTime now) {
  if (const int e = inject(static_cast<int>(fault::OpClass::Meta), r, now)) {
    return {-1, cfg_.meta_latency, e};
  }
  ++locks_.meta_ops;
  auto f = lookup(path);
  if (!f) {
    if (!(flags & trace::kCreate)) return {-1, cfg_.meta_latency};
    f = std::make_shared<File>();
    f->path = path;
    slot(path) = f;
  }
  if (flags & trace::kTrunc) {
    f->writes.clear();
    f->write_index.clear();
    f->base.clear();
    f->base_max_end = 0;
    f->compact_watermark = 0;
    f->size = 0;
  }
  auto of = std::make_unique<OpenFile>();
  of->file = f;
  of->flags = flags;
  of->offset = 0;
  of->t_open = now;
  return {open_files_.add(r, std::move(of)), cfg_.meta_latency};
}

MetaResult Pfs::close(Rank r, int fd, SimTime now) {
  // Pin the file: if it was unlinked while open, this fd holds the last
  // reference and remove() below would free it.
  std::shared_ptr<File> pin = open_files_.at(r, fd, "close").file;
  File& f = *pin;
  // close is both a commit (paper footnote 2) and the session publish point.
  for (auto& w : f.writes) {
    if (w.writer != r) continue;
    if (w.t_commit == kTimeNever) w.t_commit = now;
    if (w.t_publish == kTimeNever) w.t_publish = now;
  }
  // Release this rank's locks on the file, whichever fd took them.
  detail::release_locks(f, open_files_, r);
  open_files_.remove(r, fd);
  maybe_compact(f, now);
  ++locks_.meta_ops;
  return {0, cfg_.meta_latency};
}

// ----------------------------------------------------------------------
// data ops

WriteResult Pfs::write(Rank r, int fd, std::uint64_t count, SimTime now) {
  OpenFile& of = open_files_.at(r, fd, "write");
  const Offset off = (of.flags & trace::kAppend) ? of.file->size : of.offset;
  WriteResult res = pwrite(r, fd, off, count, now);
  if (res.err == 0) of.offset = off + count;  // a failed attempt wrote nothing
  return res;
}

WriteResult Pfs::pwrite(Rank r, int fd, Offset off, std::uint64_t count,
                        SimTime now) {
  OpenFile& of = open_files_.at(r, fd, "pwrite");
  File& f = *of.file;
  if (f.laminated) {
    // Read-only forever; EROFS is permanent, so retries never absorb it.
    return {0, off, cfg_.data_latency, fault::kErofs};
  }
  // Inject before allocating the version tag: a failed attempt writes
  // nothing, so a retried run consumes the exact same tags as a fault-free
  // one (the retry-absorption property the tests assert).
  if (const int e = inject(static_cast<int>(fault::OpClass::Write), r, now)) {
    return {0, off, cfg_.data_latency, e};
  }
  WriteRecord w;
  w.id = next_version_++;
  w.writer = r;
  w.ext = {off, off + count};
  w.t_write = now;
  if (cfg_.model == ConsistencyModel::Strong) {
    w.t_commit = now;
    w.t_publish = now;
  }
  f.writes.push_back(w);
  f.index_write(static_cast<std::uint32_t>(f.writes.size() - 1));
  f.size = std::max(f.size, w.ext.end);
  maybe_compact(f, now);
  if (cfg_.model == ConsistencyModel::Eventual && injector_ != nullptr &&
      injector_->visibility_extra(now) > 0) {
    injector_->note_delayed_write();
  }
  SimDuration cost = cfg_.data_latency + charge_transfer(w.ext, now);
  cost += charge_locks(of, r, w.ext, /*exclusive=*/true);
  return {w.id, off, cost};
}

ReadResult Pfs::read(Rank r, int fd, std::uint64_t count, SimTime now) {
  OpenFile& of = open_files_.at(r, fd, "read");
  ReadResult res = pread(r, fd, of.offset, count, now);
  of.offset += res.bytes;
  return res;
}

ReadResult Pfs::pread(Rank r, int fd, Offset off, std::uint64_t count,
                      SimTime now) {
  OpenFile& of = open_files_.at(r, fd, "pread");
  File& f = *of.file;
  ReadResult res;
  res.offset = off;
  if (const int e = inject(static_cast<int>(fault::OpClass::Read), r, now)) {
    res.err = e;
    res.cost = cfg_.data_latency;
    return res;
  }
  res.bytes = off >= f.size ? 0 : std::min<std::uint64_t>(count, f.size - off);
  if (res.bytes > 0) {
    res.extents = resolve(f, r, now, of.t_open, off, res.bytes);
  }
  res.cost = cfg_.data_latency + charge_transfer({off, off + res.bytes}, now);
  res.cost += charge_locks(of, r, {off, off + res.bytes}, /*exclusive=*/false);
  return res;
}

MetaResult Pfs::lseek(Rank r, int fd, std::int64_t delta, int whence,
                      SimTime now) {
  (void)now;
  OpenFile& of = open_files_.at(r, fd, "lseek");
  std::int64_t base = 0;
  switch (whence) {
    case trace::kSeekSet: base = 0; break;
    case trace::kSeekCur: base = static_cast<std::int64_t>(of.offset); break;
    case trace::kSeekEnd: base = static_cast<std::int64_t>(of.file->size); break;
    default: require(false, "lseek: bad whence");
  }
  const std::int64_t pos = base + delta;
  if (pos < 0) return {-1, 0};
  of.offset = static_cast<Offset>(pos);
  return {pos, 0};
}

MetaResult Pfs::fsync(Rank r, int fd, SimTime now) {
  File& f = *open_files_.at(r, fd, "fsync").file;
  if (const int e = inject(static_cast<int>(fault::OpClass::Sync), r, now)) {
    return {-1, cfg_.meta_latency, e};  // nothing committed this attempt
  }
  for (auto& w : f.writes) {
    if (w.writer == r && w.t_commit == kTimeNever) w.t_commit = now;
  }
  maybe_compact(f, now);
  ++locks_.meta_ops;
  return {0, cfg_.meta_latency};
}

MetaResult Pfs::laminate(const std::string& path, SimTime now) {
  auto f = lookup(path);
  if (!f) return {-1, cfg_.meta_latency};
  for (auto& w : f->writes) {
    if (w.t_commit == kTimeNever) w.t_commit = now;
    if (w.t_publish == kTimeNever) w.t_publish = now;
  }
  f->laminated = true;
  maybe_compact(*f, now);
  ++locks_.meta_ops;
  return {0, cfg_.meta_latency};
}

MetaResult Pfs::ftruncate(Rank r, int fd, Offset length, SimTime now) {
  File& f = *open_files_.at(r, fd, "ftruncate").file;
  if (const int e = inject(static_cast<int>(fault::OpClass::Meta), r, now)) {
    return {-1, cfg_.meta_latency, e};
  }
  if (length < f.size) {
    // Clip recorded writes so re-grown regions read as holes, like a real
    // zero-filling truncate.
    std::erase_if(f.writes, [&](const WriteRecord& w) { return w.ext.begin >= length; });
    for (auto& w : f.writes) w.ext.end = std::min(w.ext.end, length);
    f.rebuild_index();
    detail::truncate_base(f, length);
  }
  f.size = length;
  ++locks_.meta_ops;
  return {0, cfg_.meta_latency};
}

// ----------------------------------------------------------------------
// namespace ops

// Path-based metadata ops carry no rank; injected faults target kNoRank
// (transient faults apply to every rank anyway — only crash filtering is
// per-rank, and that happens in the facade, which knows the caller).

MetaResult Pfs::stat(const std::string& path, SimTime now) {
  if (const int e = inject(static_cast<int>(fault::OpClass::Meta), kNoRank, now)) {
    return {-1, cfg_.meta_latency, e};
  }
  ++locks_.meta_ops;
  auto f = lookup(path);
  if (f) return {static_cast<std::int64_t>(f->size), cfg_.meta_latency};
  if (dirs_.contains(names_.find(path))) return {0, cfg_.meta_latency};
  return {-1, cfg_.meta_latency};
}

MetaResult Pfs::access(const std::string& path, SimTime now) {
  if (const int e = inject(static_cast<int>(fault::OpClass::Meta), kNoRank, now)) {
    return {-1, cfg_.meta_latency, e};
  }
  ++locks_.meta_ops;
  return {lookup(path) || dirs_.contains(names_.find(path)) ? 0 : -1,
          cfg_.meta_latency};
}

MetaResult Pfs::unlink(const std::string& path, SimTime now) {
  if (const int e = inject(static_cast<int>(fault::OpClass::Meta), kNoRank, now)) {
    return {-1, cfg_.meta_latency, e};
  }
  ++locks_.meta_ops;
  auto f = lookup(path);
  if (!f) return {-1, cfg_.meta_latency};
  slot(path).reset();
  return {0, cfg_.meta_latency};
}

MetaResult Pfs::mkdir(const std::string& path, SimTime now) {
  if (const int e = inject(static_cast<int>(fault::OpClass::Meta), kNoRank, now)) {
    return {-1, cfg_.meta_latency, e};
  }
  ++locks_.meta_ops;
  return {dirs_.insert(names_.intern(path)).second ? 0 : -1,
          cfg_.meta_latency};
}

MetaResult Pfs::rename(const std::string& from, const std::string& to,
                       SimTime now) {
  if (const int e = inject(static_cast<int>(fault::OpClass::Meta), kNoRank, now)) {
    return {-1, cfg_.meta_latency, e};
  }
  ++locks_.meta_ops;
  auto f = lookup(from);
  if (!f) return {-1, cfg_.meta_latency};
  slot(from).reset();
  f->path = to;
  slot(to) = f;
  return {0, cfg_.meta_latency};
}

// ----------------------------------------------------------------------
// visibility resolution

std::vector<ReadExtent> Pfs::resolve(const File& f, Rank r, SimTime now,
                                     SimTime session_open, Offset off,
                                     std::uint64_t count) const {
  return detail::resolve_view(f,
                              {cfg_.model, cfg_.eventual_propagation, injector_},
                              r, now, session_open, off, count);
}

std::vector<ReadExtent> Pfs::strong_view(const std::string& path, Offset off,
                                         std::uint64_t count) const {
  auto f = lookup(path);
  require(f != nullptr, "strong_view: no such file");
  return detail::strong_view_of(*f, off, count);
}

std::vector<VersionTag> Pfs::crash_rank(Rank r, SimTime now) {
  std::vector<VersionTag> lost = detail::apply_rank_crash(
      files_, r, now, {cfg_.model, cfg_.eventual_propagation, injector_});
  // Drop the rank's descriptors *without* the close-time commit/publish —
  // a crashed process never reaches close().
  open_files_.drop_rank(r);
  return lost;
}

void Pfs::preload(const std::string& path, Offset size) {
  require(!exists(path), "preload: file already exists: " + path);
  auto f = std::make_shared<File>();
  f->path = path;
  WriteRecord w;
  w.id = next_version_++;
  w.writer = kNoRank;
  w.ext = {0, size};
  w.t_write = -1;
  w.t_commit = -1;
  w.t_publish = -1;
  f->writes.push_back(w);
  f->index_write(0);
  f->size = size;
  slot(path) = std::move(f);
}

bool Pfs::exists(const std::string& path) const { return lookup(path) != nullptr; }

Offset Pfs::file_size(const std::string& path) const {
  auto f = lookup(path);
  return f ? f->size : 0;
}

std::vector<std::string> Pfs::list_files() const {
  std::vector<std::string> out;
  for (const auto& f : files_) {
    if (f) out.push_back(f->path);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace pfsem::vfs
