#include "pfsem/vfs/cluster.hpp"

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

PfsCluster::PfsCluster(ClusterConfig cfg) : cfg_(cfg) {
  require(cfg_.mds_count >= 1, "PfsCluster: mds_count must be >= 1");
  require(cfg_.ost_count >= 1, "PfsCluster: ost_count must be >= 1");
  require(cfg_.stripe > 0 && (cfg_.stripe & (cfg_.stripe - 1)) == 0,
          "PfsCluster: stripe must be a positive power of two");
  require(cfg_.mds_replicas >= 1, "PfsCluster: mds_replicas must be >= 1");
  dirs_.insert(names_.intern("/"));
  mds_.assign(static_cast<std::size_t>(cfg_.mds_count), MdsState{});
  for (auto& s : mds_) s.standbys = cfg_.mds_replicas - 1;
  ost_.assign(static_cast<std::size_t>(cfg_.ost_count), OstState{});
  osts_.requests.assign(static_cast<std::size_t>(cfg_.ost_count), 0);
  osts_.bytes.assign(static_cast<std::size_t>(cfg_.ost_count), 0);
}
PfsCluster::~PfsCluster() = default;

int PfsCluster::shard_of(std::string_view path) const {
  if (cfg_.mds_count == 1) return 0;  // one shard: skip the hash
  // FNV-1a, fixed here (not std::hash) so the shard layout — and with it
  // every per-server counter — is identical on every platform.
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : path) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return static_cast<int>(h % static_cast<std::uint64_t>(cfg_.mds_count));
}

std::shared_ptr<PfsCluster::File> PfsCluster::lookup(
    const std::string& path) const {
  const FileId id = names_.find(path);
  return id == kNoFile || id >= files_.size() ? nullptr : files_[id];
}

std::shared_ptr<PfsCluster::File>& PfsCluster::slot(const std::string& path) {
  const FileId id = names_.intern(path);
  if (id >= files_.size()) files_.resize(id + 1);
  return files_[id];
}

int PfsCluster::mds_route(int shard, SimTime now, bool can_fail) {
  MdsState& s = mds_[static_cast<std::size_t>(shard)];
  if (!s.up) {
    if (s.standbys <= 0) return fault::kEhostdown;  // no replica remains
    // Detection happens on the first client op against the dead primary:
    // promote a standby. A failable op still reports EHOSTDOWN for this
    // attempt — the client's failover retry redirects and succeeds.
    --s.standbys;
    s.up = true;
    ++s.failovers;
    if (injector_ != nullptr) injector_->note_mds_failover(shard, now);
    if (can_fail) return fault::kEhostdown;
  }
  ++s.meta_ops;
  return 0;
}

SimDuration PfsCluster::charge_locks(OpenFile& of, Rank r, Extent ext,
                                     bool exclusive) {
  return detail::charge_locks(
      *of.file, r, ext, exclusive,
      {cfg_.base.model, cfg_.base.lock_latency, cfg_.base.lock_block}, locks_,
      of.locked);
}

SimDuration PfsCluster::charge_transfer(Extent ext, SimTime now) {
  if (ext.empty()) return 0;
  // Per-OST accounting and fault routing follow the round-robin stripe
  // layout. The transfer *time* is client-link bound (bytes_per_ns is the
  // aggregate bandwidth), so topology never changes fault-free costs —
  // the topology invariant.
  double factor = 1.0;
  auto charge = [&](std::size_t ost, Offset bytes) {
    ++osts_.requests[ost];
    osts_.bytes[ost] += bytes;
    if (injector_ != nullptr) {
      factor = std::max(factor,
                        injector_->transfer_factor(static_cast<int>(ost), now));
    }
  };
  osts_.total_bytes += ext.size();
  const auto n = static_cast<Offset>(cfg_.ost_count);
  if (n == 1) {
    charge(0, ext.size());
  } else {
    // Blocks first..last hold the extent; the k-th of them starts the
    // run of blocks k, k + n, k + 2n, ... on one OST, of which all but a
    // partial first and last block are whole stripes.
    const Offset stripe = cfg_.stripe;
    const Offset first = ext.begin / stripe;
    const Offset span = (ext.end - 1) / stripe - first;  // blocks - 1
    const Offset head = ext.begin - first * stripe;
    const Offset tail = (first + span + 1) * stripe - ext.end;
    for (Offset k = 0; k <= std::min(span, n - 1); ++k) {
      Offset bytes = ((span - k) / n + 1) * stripe;
      if (k == 0) bytes -= head;
      if (k == span % n) bytes -= tail;
      charge(static_cast<std::size_t>((first + k) % n), bytes);
    }
  }
  if (factor > 1.0) injector_->note_slowed_transfer();
  return static_cast<SimDuration>(
      static_cast<double>(ext.size()) / cfg_.base.bytes_per_ns * factor);
}

bool PfsCluster::punch_dead_stripes(std::vector<ReadExtent>& extents,
                                    Extent range) {
  if (!any_ost_down_ || range.empty()) return false;
  const auto n = static_cast<std::uint64_t>(cfg_.ost_count);
  std::map<Offset, detail::Seg> m;
  for (const auto& re : extents) {
    m.emplace(re.ext.begin, detail::Seg{re.ext.end, re.version, re.writer});
  }
  bool punched = false;
  Offset pos = range.begin;
  while (pos < range.end) {
    const Offset block = pos / cfg_.stripe;
    const Offset block_end = (block + 1) * cfg_.stripe;
    const Offset end = std::min(range.end, block_end);
    if (!ost_[static_cast<std::size_t>(block % n)].up) {
      detail::assign(m, {pos, end}, 0, kNoRank);
      punched = true;
    }
    pos = end;
  }
  if (punched) extents = detail::emit_extents(m);
  return punched;
}

int PfsCluster::inject(fault::OpClass c, Rank r, SimTime now) {
  if (injector_ == nullptr) return 0;
  return injector_->on_op(c, r, now);
}

void PfsCluster::set_fault_injector(fault::Injector* injector) {
  injector_ = injector;
}

// ----------------------------------------------------------------------
// open / close

OpenResult PfsCluster::open(Rank r, const std::string& path, int flags,
                            SimTime now) {
  if (const int e = inject(fault::OpClass::Meta, r, now)) {
    return {-1, cfg_.base.meta_latency, e};
  }
  if (const int e = mds_route(shard_of(path), now)) {
    return {-1, cfg_.base.meta_latency, e};
  }
  ++locks_.meta_ops;
  auto f = lookup(path);
  if (!f) {
    if (!(flags & trace::kCreate)) return {-1, cfg_.base.meta_latency};
    f = std::make_shared<File>();
    f->path = path;
    slot(path) = f;
  }
  if (flags & trace::kTrunc) {
    f->writes.clear();
    f->cold.reset();
    f->size = 0;
  }
  auto of = std::make_unique<OpenFile>();
  of->file = f;
  of->flags = flags;
  of->offset = 0;
  of->t_open = now;
  return {open_files_.add(r, std::move(of)), cfg_.base.meta_latency};
}

MetaResult PfsCluster::close(Rank r, int fd, SimTime now) {
  // Pin the file: if it was unlinked while open, this fd holds the last
  // reference and remove() below would free it.
  std::shared_ptr<File> pin = open_files_.at(r, fd, "close").file;
  File& f = *pin;
  // close is both a commit (paper footnote 2) and the session publish
  // point; it cannot surface an errno (the facade ignores it), so a dead
  // shard with a standby promotes silently. With no replica left the
  // commit/publish metadata update is *lost* — the fd still closes.
  const int err = mds_route(shard_of(f.path), now, /*can_fail=*/false);
  if (err == 0) {
    for (auto& w : f.writes) {
      if (w.writer != r) continue;
      if (w.t_commit == kTimeNever) w.t_commit = now;
      if (w.t_publish == kTimeNever) w.t_publish = now;
    }
  }
  // Release this rank's locks on the file, whichever fd took them.
  detail::release_locks(f, open_files_, r);
  open_files_.remove(r, fd);
  maybe_compact(f, now);
  ++locks_.meta_ops;
  return {0, cfg_.base.meta_latency, err};
}

// ----------------------------------------------------------------------
// data ops

WriteResult PfsCluster::write(Rank r, int fd, std::uint64_t count,
                              SimTime now) {
  OpenFile& of = open_files_.at(r, fd, "write");
  const Offset off = (of.flags & trace::kAppend) ? of.file->size : of.offset;
  WriteResult res = pwrite(r, fd, off, count, now);
  if (res.err == 0) of.offset = off + count;  // a failed attempt wrote nothing
  return res;
}

WriteResult PfsCluster::pwrite(Rank r, int fd, Offset off, std::uint64_t count,
                               SimTime now) {
  OpenFile& of = open_files_.at(r, fd, "pwrite");
  File& f = *of.file;
  if (f.laminated) {
    // Read-only forever; EROFS is permanent, so retries never absorb it.
    return {0, off, cfg_.base.data_latency, fault::kErofs};
  }
  // Inject before allocating the version tag: a failed attempt writes
  // nothing, so a retried run consumes the exact same tags as a fault-free
  // one (the retry-absorption property the tests assert). Writes go
  // straight to the OSTs with the open handle — no MDS availability check
  // — and succeed even onto a down OST (client write-behind; the data
  // replays at restart, until which reads of those stripes return holes).
  if (const int e = inject(fault::OpClass::Write, r, now)) {
    return {0, off, cfg_.base.data_latency, e};
  }
  WriteRecord w;
  w.id = detail::write_seq(next_version_++);
  w.writer = r;
  w.ext = {off, off + count};
  w.t_write = now;
  if (cfg_.base.model == ConsistencyModel::Strong) {
    w.t_commit = now;
    w.t_publish = now;
  }
  f.append(w);
  f.size = std::max(f.size, w.ext.end);
  maybe_compact(f, now);
  if (cfg_.base.model == ConsistencyModel::Eventual && injector_ != nullptr &&
      injector_->visibility_extra(now) > 0) {
    injector_->note_delayed_write();
  }
  SimDuration cost = cfg_.base.data_latency + charge_transfer(w.ext, now);
  cost += charge_locks(of, r, w.ext, /*exclusive=*/true);
  return {w.id, off, cost};
}

ReadResult PfsCluster::read(Rank r, int fd, std::uint64_t count, SimTime now) {
  OpenFile& of = open_files_.at(r, fd, "read");
  ReadResult res = pread(r, fd, of.offset, count, now);
  of.offset += res.bytes;
  return res;
}

ReadResult PfsCluster::pread(Rank r, int fd, Offset off, std::uint64_t count,
                             SimTime now) {
  OpenFile& of = open_files_.at(r, fd, "pread");
  File& f = *of.file;
  ReadResult res;
  res.offset = off;
  if (const int e = inject(fault::OpClass::Read, r, now)) {
    res.err = e;
    res.cost = cfg_.base.data_latency;
    return res;
  }
  res.bytes = off >= f.size ? 0 : std::min<std::uint64_t>(count, f.size - off);
  if (res.bytes > 0) {
    res.extents =
        detail::resolve_view(f, env(), r, now, of.t_open, off, res.bytes);
    // Degraded mode: stripe blocks on a down OST read as holes (the cost
    // is still charged in full — the client waits out the request either
    // way).
    if (punch_dead_stripes(res.extents, {off, off + res.bytes}) &&
        injector_ != nullptr) {
      injector_->note_degraded_read();
    }
  }
  res.cost = cfg_.base.data_latency + charge_transfer({off, off + res.bytes}, now);
  res.cost += charge_locks(of, r, {off, off + res.bytes}, /*exclusive=*/false);
  return res;
}

MetaResult PfsCluster::lseek(Rank r, int fd, std::int64_t delta, int whence,
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

void PfsCluster::maybe_compact(File& f, SimTime now) {
  if (!cfg_.base.compaction || !detail::should_compact(f)) return;
  SimTime floor = kTimeNever;
  if (cfg_.base.model == ConsistencyModel::Session) {
    open_files_.for_all([&](const OpenFile& of) {
      if (of.file.get() == &f) floor = std::min(floor, of.t_open);
    });
  }
  const std::size_t folded = detail::compact_file(f, env(), now, floor);
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

MetaResult PfsCluster::fsync(Rank r, int fd, SimTime now) {
  File& f = *open_files_.at(r, fd, "fsync").file;
  if (const int e = inject(fault::OpClass::Sync, r, now)) {
    return {-1, cfg_.base.meta_latency, e};  // nothing committed this attempt
  }
  if (const int e = mds_route(shard_of(f.path), now)) {
    return {-1, cfg_.base.meta_latency, e};
  }
  for (auto& w : f.writes) {
    if (w.writer == r && w.t_commit == kTimeNever) w.t_commit = now;
  }
  maybe_compact(f, now);
  ++locks_.meta_ops;
  return {0, cfg_.base.meta_latency};
}

MetaResult PfsCluster::laminate(const std::string& path, SimTime now) {
  auto f = lookup(path);
  if (!f) return {-1, cfg_.base.meta_latency};
  const int err = mds_route(shard_of(path), now, /*can_fail=*/false);
  if (err == 0) {
    for (auto& w : f->writes) {
      if (w.t_commit == kTimeNever) w.t_commit = now;
      if (w.t_publish == kTimeNever) w.t_publish = now;
    }
    f->laminated = true;
    maybe_compact(*f, now);
  }
  ++locks_.meta_ops;
  return {err == 0 ? 0 : -1, cfg_.base.meta_latency, err};
}

MetaResult PfsCluster::ftruncate(Rank r, int fd, Offset length, SimTime now) {
  File& f = *open_files_.at(r, fd, "ftruncate").file;
  if (const int e = inject(fault::OpClass::Meta, r, now)) {
    return {-1, cfg_.base.meta_latency, e};
  }
  if (const int e = mds_route(shard_of(f.path), now)) {
    return {-1, cfg_.base.meta_latency, e};
  }
  if (length < f.size) {
    // Clip recorded writes so re-grown regions read as holes, like a real
    // zero-filling truncate.
    std::erase_if(f.writes,
                  [&](const WriteRecord& w) { return w.ext.begin >= length; });
    for (auto& w : f.writes) w.ext.end = std::min(w.ext.end, length);
    f.rebuild_index();
    detail::truncate_base(f, length);
  }
  f.size = length;
  ++locks_.meta_ops;
  return {0, cfg_.base.meta_latency};
}

// ----------------------------------------------------------------------
// namespace ops

MetaResult PfsCluster::stat(const std::string& path, SimTime now) {
  if (const int e = inject(fault::OpClass::Meta, kNoRank, now)) {
    return {-1, cfg_.base.meta_latency, e};
  }
  if (const int e = mds_route(shard_of(path), now)) {
    return {-1, cfg_.base.meta_latency, e};
  }
  ++locks_.meta_ops;
  auto f = lookup(path);
  if (f) return {static_cast<std::int64_t>(f->size), cfg_.base.meta_latency};
  if (dirs_.contains(names_.find(path))) return {0, cfg_.base.meta_latency};
  return {-1, cfg_.base.meta_latency};
}

MetaResult PfsCluster::access(const std::string& path, SimTime now) {
  if (const int e = inject(fault::OpClass::Meta, kNoRank, now)) {
    return {-1, cfg_.base.meta_latency, e};
  }
  if (const int e = mds_route(shard_of(path), now)) {
    return {-1, cfg_.base.meta_latency, e};
  }
  ++locks_.meta_ops;
  return {lookup(path) || dirs_.contains(names_.find(path)) ? 0 : -1,
          cfg_.base.meta_latency};
}

MetaResult PfsCluster::unlink(const std::string& path, SimTime now) {
  if (const int e = inject(fault::OpClass::Meta, kNoRank, now)) {
    return {-1, cfg_.base.meta_latency, e};
  }
  if (const int e = mds_route(shard_of(path), now)) {
    return {-1, cfg_.base.meta_latency, e};
  }
  ++locks_.meta_ops;
  auto f = lookup(path);
  if (!f) return {-1, cfg_.base.meta_latency};
  slot(path).reset();
  return {0, cfg_.base.meta_latency};
}

MetaResult PfsCluster::mkdir(const std::string& path, SimTime now) {
  if (const int e = inject(fault::OpClass::Meta, kNoRank, now)) {
    return {-1, cfg_.base.meta_latency, e};
  }
  if (const int e = mds_route(shard_of(path), now)) {
    return {-1, cfg_.base.meta_latency, e};
  }
  ++locks_.meta_ops;
  return {dirs_.insert(names_.intern(path)).second ? 0 : -1,
          cfg_.base.meta_latency};
}

MetaResult PfsCluster::rename(const std::string& from, const std::string& to,
                              SimTime now) {
  if (const int e = inject(fault::OpClass::Meta, kNoRank, now)) {
    return {-1, cfg_.base.meta_latency, e};
  }
  // A rename spans two shards (source and destination directory entries);
  // both must be reachable. One aggregate meta op either way, so the
  // fault-free cost and counters match the single-server preset.
  if (const int e = mds_route(shard_of(from), now)) {
    return {-1, cfg_.base.meta_latency, e};
  }
  if (shard_of(to) != shard_of(from)) {
    if (const int e = mds_route(shard_of(to), now)) {
      return {-1, cfg_.base.meta_latency, e};
    }
  }
  ++locks_.meta_ops;
  auto f = lookup(from);
  if (!f) return {-1, cfg_.base.meta_latency};
  slot(from).reset();
  f->path = to;
  slot(to) = f;
  return {0, cfg_.base.meta_latency};
}

// ----------------------------------------------------------------------
// faults & server lifecycle

std::vector<VersionTag> PfsCluster::crash_rank(Rank r, SimTime now) {
  std::vector<VersionTag> lost = detail::apply_rank_crash(files_, r, now, env());
  // Drop the rank's descriptors *without* the close-time commit/publish —
  // a crashed process never reaches close().
  open_files_.drop_rank(r);
  return lost;
}

void PfsCluster::apply_server_event(const fault::ServerEvent& ev, SimTime now) {
  if (ev.kind == fault::ServerKind::Mds) {
    require(ev.id >= 0 && ev.id < cfg_.mds_count,
            "apply_server_event: mds id out of range");
    MdsState& s = mds_[static_cast<std::size_t>(ev.id)];
    if (!ev.restart) {
      // A crash while the primary is already down takes out a standby.
      if (s.up) s.up = false;
      else if (s.standbys > 0) --s.standbys;
      if (injector_ != nullptr) {
        injector_->note_server_crash(fault::ServerKind::Mds, ev.id, now);
      }
    } else {
      // Rejoin: as primary if the shard is headless, else as a standby.
      if (!s.up) s.up = true;
      else ++s.standbys;
      if (injector_ != nullptr) {
        injector_->note_server_restart(fault::ServerKind::Mds, ev.id, now);
      }
    }
  } else {
    require(ev.id >= 0 && ev.id < cfg_.ost_count,
            "apply_server_event: ost id out of range");
    ost_[static_cast<std::size_t>(ev.id)].up = !ev.restart ? false : true;
    if (injector_ != nullptr) {
      if (!ev.restart) {
        injector_->note_server_crash(fault::ServerKind::Ost, ev.id, now);
      } else {
        injector_->note_server_restart(fault::ServerKind::Ost, ev.id, now);
      }
    }
  }
  any_ost_down_ = false;
  for (const auto& o : ost_) any_ost_down_ |= !o.up;
}

// ----------------------------------------------------------------------
// preload & introspection

void PfsCluster::preload(const std::string& path, Offset size) {
  require(!exists(path), "preload: file already exists: " + path);
  auto f = std::make_shared<File>();
  f->path = path;
  WriteRecord w;
  w.id = detail::write_seq(next_version_++);
  w.writer = kNoRank;
  w.ext = {0, size};
  w.t_write = -1;
  w.t_commit = -1;
  w.t_publish = -1;
  f->append(w);
  f->size = size;
  slot(path) = std::move(f);
}

bool PfsCluster::exists(const std::string& path) const {
  return lookup(path) != nullptr;
}

Offset PfsCluster::file_size(const std::string& path) const {
  auto f = lookup(path);
  return f ? f->size : 0;
}

std::vector<std::string> PfsCluster::list_files() const {
  std::vector<std::string> out;
  for (const auto& f : files_) {
    if (f) out.push_back(f->path);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<ReadExtent> PfsCluster::strong_view(const std::string& path,
                                                Offset off,
                                                std::uint64_t count) const {
  auto f = lookup(path);
  require(f != nullptr, "strong_view: no such file");
  return detail::strong_view_of(*f, off, count);
}

}  // namespace pfsem::vfs
