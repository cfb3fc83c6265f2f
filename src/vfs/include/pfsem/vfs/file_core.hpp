#pragma once
// Semantic core of the simulated parallel file system: the per-file write
// history, the distributed-lock cost model, and the visibility/durability
// rules of the four consistency models. PfsCluster (cluster.hpp) resolves
// reads, charges locks and decides crash durability here, and nothing in
// it depends on topology — so the topology oracle ("fault-free output is
// byte-identical across topologies", tests/test_cluster.cpp) holds by
// construction.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "pfsem/util/extent.hpp"
#include "pfsem/util/fd_table.hpp"
#include "pfsem/util/types.hpp"
#include "pfsem/vfs/pfs_types.hpp"

namespace pfsem::fault {
class Injector;
}

namespace pfsem::vfs::detail {

/// One recorded write. t_commit/t_publish start at kTimeNever and are set
/// by fsync (commit) and close (commit + publish) respectively. `id` is
/// the write's VersionTag stored as the 32-bit per-run write sequence
/// (write_seq narrows it), which keeps a record at 48 bytes; it widens
/// back to a VersionTag wherever it leaves the history.
struct WriteRecord {
  std::uint32_t id = 0;
  Rank writer = kNoRank;
  Extent ext;
  SimTime t_write = 0;
  SimTime t_commit = kTimeNever;
  SimTime t_publish = kTimeNever;
};
static_assert(sizeof(WriteRecord) == 48);

/// `v` as a WriteRecord id. Throws pfsem::Error once `v` needs more than
/// 32 bits, rather than wrapping: a wrapped id would reorder overlapping
/// writes in every read.
[[nodiscard]] std::uint32_t write_seq(VersionTag v);

/// The ranks holding one lock block, with no heap node per holder. One
/// holder sits inline; up to kListMax sit in a sorted vector; past that
/// the set becomes a bitmap indexed by rank. So insert, contains and
/// erase cost O(kListMax) at worst and O(1) amortized in bitmap form,
/// even for 131072 holders arriving in shuffled order.
class LockHolders {
 public:
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool contains(Rank r) const;
  /// Add `r` (no-op if present).
  void insert(Rank r);
  /// Remove `r` (no-op if absent).
  void erase(Rank r);
  /// Drop every holder and give back any heap storage.
  void clear();

  /// Largest sorted-vector form; one more holder switches to the bitmap.
  static constexpr std::size_t kListMax = 64;

 private:
  static constexpr unsigned kWordBits = 32;
  /// Ranks held (list form) or bit words (bitmap form).
  std::vector<std::uint32_t> data_;
  std::uint32_t size_ = 0;
  /// The holder while size_ == 1 in list form (data_ is then empty).
  Rank solo_ = kNoRank;
  bool bitmap_ = false;
};

/// One block of a file's lock table: the block index, whether the hold
/// is exclusive, and its holders.
struct LockBlock {
  Offset block = 0;
  bool exclusive = false;
  LockHolders holders{};
};

/// A file's distributed-lock table: its lock blocks in one vector sorted
/// by block index. Blocks are created on first touch and never removed;
/// a file's blocks are usually touched in ascending order, which appends.
class LockTable {
 public:
  /// The entry for `block`, created with no holders if absent.
  LockBlock& at(Offset block);
  /// The entry for `block`, or nullptr.
  [[nodiscard]] LockBlock* find(Offset block);
  [[nodiscard]] std::size_t size() const { return blocks_.size(); }
  [[nodiscard]] auto begin() { return blocks_.begin(); }
  [[nodiscard]] auto end() { return blocks_.end(); }

 private:
  std::vector<LockBlock> blocks_;
};

/// Piece of a resolved read range: [begin, end) carries version v by w.
struct Seg {
  Offset end = 0;
  VersionTag v = 0;
  Rank w = kNoRank;
};

/// Overwrite [e.begin, e.end) in the segment map with (v, w).
void assign(std::map<Offset, Seg>& m, Extent e, VersionTag v, Rank w);

/// Flatten the segment map into ReadExtents, merging adjacent segments
/// that carry the same version.
[[nodiscard]] std::vector<ReadExtent> emit_extents(
    const std::map<Offset, Seg>& m);

/// A history shorter than this is neither indexed nor compacted: a read
/// takes every write as a candidate, which costs O(1) per read at this
/// length, and a file-per-process output never allocates ColdState.
inline constexpr std::size_t kCompactMinWrites = 64;

/// The per-file state only a long history needs, allocated the first time
/// a history reaches kCompactMinWrites writes or a compaction pass runs.
struct ColdState {
  /// Block index over FileCore::writes (4 MiB buckets): resolve_view()
  /// only scans writes overlapping the read's blocks instead of the whole
  /// history. Empty while the history is shorter than kCompactMinWrites.
  std::map<Offset, std::vector<std::uint32_t>> write_index;
  /// Writes covering more than kWideBlocks index blocks (a preload, one
  /// huge pwrite) skip the block index and sit in this list, which
  /// resolve_view() scans whole: indexing costs O(1) per write whatever
  /// its size, and the list stays short because few writes are wide.
  std::vector<std::uint32_t> wide_writes;
  /// Compacted prefix of the write history (compact_file): a flat,
  /// reader-independent overlay of writes whose visibility has settled
  /// under the consistency model. Applied by resolve_view/strong_view_of
  /// after the hole seed and before any live candidate, so overwrite-heavy
  /// files keep O(live extents) state instead of O(total writes).
  std::map<Offset, Seg> base;
  /// max ext.end over folded writes (crash-time size recomputation).
  Offset base_max_end = 0;
  /// writes.size() right after the last compaction attempt; the trigger
  /// waits for the history to double past it (amortized O(1) per write).
  std::size_t compact_watermark = 0;
};

/// The per-file state every backend keeps: the write history, the
/// distributed-lock table, the lamination flag, and the out-of-line
/// ColdState of a long history.
struct FileCore {
  std::string path;
  std::vector<WriteRecord> writes;
  Offset size = 0;
  bool laminated = false;
  LockTable locks;
  /// Null until the history first needs it (see ColdState).
  std::unique_ptr<ColdState> cold;

  static constexpr Offset kIndexBlock = 4u << 20;
  static constexpr Offset kWideBlocks = 4;

  /// Does the block index cover `writes`? Exactly when the history has
  /// kCompactMinWrites writes or more.
  [[nodiscard]] bool indexed() const {
    return writes.size() >= kCompactMinWrites;
  }
  /// The cold state, allocated on first use.
  ColdState& cold_state() {
    if (!cold) cold = std::make_unique<ColdState>();
    return *cold;
  }
  /// Append `w` to the history. The write that reaches kCompactMinWrites
  /// indexes the whole history once; every later one indexes itself.
  void append(const WriteRecord& w) {
    writes.push_back(w);
    if (writes.size() == kCompactMinWrites) {
      rebuild_index();
    } else if (indexed()) {
      index_write(static_cast<std::uint32_t>(writes.size() - 1));
    }
  }
  /// Re-derive the block index after the history changed in place
  /// (truncate, crash, compaction): none below kCompactMinWrites writes.
  void rebuild_index() {
    if (cold) {
      cold->write_index.clear();
      cold->wide_writes.clear();
    }
    if (!indexed()) return;
    for (std::uint32_t i = 0; i < writes.size(); ++i) index_write(i);
  }

 private:
  void index_write(std::uint32_t idx) {
    const Extent& e = writes[idx].ext;
    if (e.empty()) return;
    ColdState& c = cold_state();
    const Offset first = e.begin / kIndexBlock;
    const Offset last = (e.end - 1) / kIndexBlock;
    if (last - first >= kWideBlocks) {
      c.wide_writes.push_back(idx);
      return;
    }
    for (Offset b = first; b <= last; ++b) c.write_index[b].push_back(idx);
  }
};

/// One open descriptor of a backend.
struct OpenFile {
  std::shared_ptr<FileCore> file;
  int flags = 0;
  Offset offset = 0;
  SimTime t_open = 0;
  /// Lock blocks the owning rank newly joined through this handle (strong
  /// model; charge_locks appends). close() releases the rank's holds on
  /// the file from these lists, so it never scans the file's lock table.
  std::vector<Offset> locked;
};

/// A backend's descriptor table: rank, then fd, to the open handle.
using FdTable = pfsem::FdTable<std::unique_ptr<OpenFile>>;

/// Release rank `r`'s lock holds on `f`: the blocks recorded on each of
/// the rank's handles to `f`, whose lists are then cleared. A close drops
/// all of the rank's holds on the file, whichever fd acquired them.
void release_locks(FileCore& f, FdTable& fds, Rank r);

/// Consistency environment shared by visibility resolution and crash
/// durability: the model, its propagation knob, and the (optional) fault
/// injector whose visibility spikes and network partitions stretch keys.
struct ResolveEnv {
  ConsistencyModel model = ConsistencyModel::Strong;
  SimDuration eventual_propagation = 0;
  const fault::Injector* injector = nullptr;
};

/// What rank `r` reading [off, off+count) of `f` at `now` observes under
/// `env` (session semantics key off `session_open`, the reader's open
/// time). Cross-partition writes (fault plan `partition:` clauses) have
/// their visibility key clamped to the partition heal time.
[[nodiscard]] std::vector<ReadExtent> resolve_view(
    const FileCore& f, const ResolveEnv& env, Rank r, SimTime now,
    SimTime session_open, Offset off, std::uint64_t count);

/// What a POSIX-strong PFS would return for this range right now — the
/// oracle tests compare weaker-model reads against to detect staleness.
[[nodiscard]] std::vector<ReadExtent> strong_view_of(const FileCore& f,
                                                     Offset off,
                                                     std::uint64_t count);

/// Would `w` survive a crash of its writer at `now`? Mirrors the
/// visibility rules of resolve_view(): strong writes hit stable storage
/// synchronously; commit writes survive iff fsync'd/closed; session
/// writes iff published by a close; eventual writes iff their propagation
/// (plus any spike) has elapsed.
[[nodiscard]] bool write_durable(const WriteRecord& w, const ResolveEnv& env,
                                 SimTime now);

/// Distributed-lock cost knobs (strong model only; zero cost otherwise).
struct LockParams {
  ConsistencyModel model = ConsistencyModel::Strong;
  SimDuration lock_latency = 0;
  Offset lock_block = 1u << 20;
};

/// Acquire (or upgrade) `r`'s locks covering `ext`, charging one
/// lock_latency per request and per conflicting-holder revocation. Blocks
/// whose holder set `r` newly joins are appended to `locked` (the
/// charging handle's OpenFile::locked).
[[nodiscard]] SimDuration charge_locks(FileCore& f, Rank r, Extent ext,
                                       bool exclusive, const LockParams& p,
                                       LockStats& stats,
                                       std::vector<Offset>& locked);

/// Fail-stop crash of rank `r` against every live file: erase its
/// non-durable writes (laminated files are globally published and always
/// survive), rebuild indexes and sizes, release its locks. Returns the
/// discarded version tags, sorted. Compacted base extents are untouched:
/// compact_file only folds settled writes, and settled implies durable
/// under every model.
std::vector<VersionTag> apply_rank_crash(
    std::vector<std::shared_ptr<FileCore>>& files, Rank r, SimTime now,
    const ResolveEnv& env);

/// Fold the maximal safe prefix of `f.writes` into the base, preserving
/// resolve_view()/strong_view_of() bit-exactly for every reader at every
/// time >= now. A write folds only when it is *settled* — its worst-case
/// visibility key (model key, stretched by visibility spikes and clamped
/// to the heal time of any partition clause that could defer it) is
/// <= now, and under the session model also <= `session_floor` (the
/// minimum t_open over currently open handles; kTimeNever = none open) —
/// and when every reader provably overlays it in the same relative order
/// against every other write it overlaps (docs/architecture.md documents
/// the per-model argument). Conflicting overlaps that readers genuinely
/// disagree on stay live forever, by design. Returns the writes folded.
std::size_t compact_file(FileCore& f, const ResolveEnv& env, SimTime now,
                         SimTime session_floor);

/// Amortized trigger: attempt a pass only once the history has doubled
/// past the last attempt's watermark (and is at least kCompactMinWrites).
[[nodiscard]] inline bool should_compact(const FileCore& f) {
  return f.writes.size() >= kCompactMinWrites &&
         (!f.cold || f.writes.size() >= 2 * f.cold->compact_watermark);
}

/// Clip the compacted base at `length` (backend ftruncate helper):
/// erase folded extents at/after the cut and clip those spanning it.
void truncate_base(FileCore& f, Offset length);

}  // namespace pfsem::vfs::detail
