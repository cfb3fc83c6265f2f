#include "pfsem/vfs/file_core.hpp"

#include <algorithm>

#include "pfsem/fault/injector.hpp"
#include "pfsem/util/error.hpp"

namespace pfsem::vfs::detail {

std::uint32_t write_seq(VersionTag v) {
  require(v <= UINT32_MAX,
          "PfsCluster: write count exceeds the 32-bit version sequence");
  return static_cast<std::uint32_t>(v);
}

void assign(std::map<Offset, Seg>& m, Extent e, VersionTag v, Rank w) {
  auto split = [&m](Offset x) {
    auto it = m.upper_bound(x);
    if (it == m.begin()) return;
    --it;
    if (it->first < x && x < it->second.end) {
      Seg right = it->second;
      it->second.end = x;
      m.emplace(x, right);
    }
  };
  split(e.begin);
  split(e.end);
  auto it = m.lower_bound(e.begin);
  while (it != m.end() && it->first < e.end) it = m.erase(it);
  m.emplace(e.begin, Seg{e.end, v, w});
}

std::vector<ReadExtent> emit_extents(const std::map<Offset, Seg>& m) {
  std::vector<ReadExtent> out;
  for (const auto& [begin, seg] : m) {
    if (!out.empty() && out.back().version == seg.v &&
        out.back().writer == seg.w && out.back().ext.end == begin) {
      out.back().ext.end = seg.end;
    } else {
      out.push_back({{begin, seg.end}, seg.v, seg.w});
    }
  }
  return out;
}

namespace {

/// Overlay the compacted base onto the hole-seeded segment map. Folded
/// writes are visible to every reader (compact_file's settled condition)
/// and overlay before every live candidate for every reader (its order
/// conditions), so applying them right after the seed is exact. Base
/// segments are disjoint, so their relative order is irrelevant.
void overlay_base(std::map<Offset, Seg>& m, const FileCore& f, Extent range) {
  if (!f.cold || f.cold->base.empty()) return;
  const std::map<Offset, Seg>& base = f.cold->base;
  auto it = base.upper_bound(range.begin);
  if (it != base.begin()) --it;
  for (; it != base.end() && it->first < range.end; ++it) {
    const Extent e{it->first, it->second.end};
    if (e.overlaps(range)) {
      assign(m, e.intersect(range), it->second.v, it->second.w);
    }
  }
}

}  // namespace

std::vector<ReadExtent> resolve_view(const FileCore& f, const ResolveEnv& env,
                                     Rank r, SimTime now, SimTime session_open,
                                     Offset off, std::uint64_t count) {
  const Extent range{off, off + count};
  // Collect visible writes with their effective-visibility key.
  struct Cand {
    SimTime key;
    const WriteRecord* w;
  };
  std::vector<Cand> cands;
  const auto consider = [&](const WriteRecord& w) {
    if (!w.ext.overlaps(range)) return;
    SimTime key = kTimeNever;
    SimTime threshold = now;
    if (w.writer == r || w.writer == kNoRank || f.laminated) {
      // Own writes are always visible in order; genesis (preloaded) data
      // predates the run and laminated files are globally visible under
      // every model.
      key = w.t_write;
    } else {
      switch (env.model) {
        case ConsistencyModel::Strong:
          key = w.t_write;
          break;
        case ConsistencyModel::Commit:
          key = w.t_commit;
          if (key == kTimeNever) return;
          break;
        case ConsistencyModel::Session:
          key = w.t_publish;
          if (key == kTimeNever) return;
          threshold = session_open;
          break;
        case ConsistencyModel::Eventual:
          key = w.t_write + env.eventual_propagation;
          // A visibility spike active when the write was issued stretches
          // its propagation further.
          if (env.injector != nullptr) {
            key += env.injector->visibility_extra(w.t_write);
          }
          break;
      }
      // Split brain: a write from the other side of an active network
      // partition stays invisible until the partition heals, whatever the
      // model says — observable staleness even under strong semantics.
      if (env.injector != nullptr) {
        key = env.injector->partition_defer(w.writer, r, key);
      }
    }
    if (key > threshold) return;
    cands.push_back({key, &w});
  };
  if (!f.indexed()) {
    // A short history is its own candidate list.
    for (const WriteRecord& w : f.writes) consider(w);
  } else {
    // Gather candidate writes from the block index (deduplicated: a write
    // spanning several blocks appears once per block) and the wide writes.
    std::vector<std::uint32_t> candidates(f.cold->wide_writes);
    const Offset first = range.begin / FileCore::kIndexBlock;
    const Offset last =
        range.end == 0 ? 0 : (range.end - 1) / FileCore::kIndexBlock;
    for (auto it = f.cold->write_index.lower_bound(first);
         it != f.cold->write_index.end() && it->first <= last; ++it) {
      candidates.insert(candidates.end(), it->second.begin(), it->second.end());
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    for (const std::uint32_t ci : candidates) consider(f.writes[ci]);
  }
  std::sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
    return a.key != b.key ? a.key < b.key : a.w->id < b.w->id;
  });
  std::map<Offset, Seg> m;
  m.emplace(range.begin, Seg{range.end, 0, kNoRank});
  overlay_base(m, f, range);
  for (const auto& c : cands) {
    assign(m, c.w->ext.intersect(range), c.w->id, c.w->writer);
  }
  return emit_extents(m);
}

std::vector<ReadExtent> strong_view_of(const FileCore& f, Offset off,
                                       std::uint64_t count) {
  const Extent range{off, off + count};
  std::map<Offset, Seg> m;
  m.emplace(range.begin, Seg{range.end, 0, kNoRank});
  // The base is the folded write-order prefix; live writes are stored in
  // write order; later writes overwrite earlier ones.
  overlay_base(m, f, range);
  for (const auto& w : f.writes) {
    if (w.ext.overlaps(range)) assign(m, w.ext.intersect(range), w.id, w.writer);
  }
  return emit_extents(m);
}

bool write_durable(const WriteRecord& w, const ResolveEnv& env, SimTime now) {
  switch (env.model) {
    case ConsistencyModel::Strong: return true;
    case ConsistencyModel::Commit:
      return w.t_commit != kTimeNever && w.t_commit <= now;
    case ConsistencyModel::Session:
      return w.t_publish != kTimeNever && w.t_publish <= now;
    case ConsistencyModel::Eventual: {
      SimTime key = w.t_write + env.eventual_propagation;
      if (env.injector != nullptr) {
        key += env.injector->visibility_extra(w.t_write);
      }
      return key <= now;
    }
  }
  return true;
}

bool LockHolders::contains(Rank r) const {
  if (bitmap_) {
    const auto u = static_cast<std::uint32_t>(r);
    const std::size_t w = u / kWordBits;
    return w < data_.size() && ((data_[w] >> (u % kWordBits)) & 1u) != 0;
  }
  if (size_ == 1) return solo_ == r;
  return std::binary_search(data_.begin(), data_.end(),
                            static_cast<std::uint32_t>(r));
}

void LockHolders::insert(Rank r) {
  const auto u = static_cast<std::uint32_t>(r);
  if (!bitmap_) {
    if (size_ == 0) {
      solo_ = r;
      size_ = 1;
      return;
    }
    if (size_ == 1) {
      if (solo_ == r) return;
      const auto s = static_cast<std::uint32_t>(solo_);
      data_ = {std::min(s, u), std::max(s, u)};
      size_ = 2;
      return;
    }
    const auto it = std::lower_bound(data_.begin(), data_.end(), u);
    if (it != data_.end() && *it == u) return;
    if (size_ < kListMax) {
      data_.insert(it, u);
      ++size_;
      return;
    }
    // Past kListMax: rewrite the sorted ranks as a bitmap.
    std::vector<std::uint32_t> bits(std::max(data_.back(), u) / kWordBits + 1);
    for (const std::uint32_t x : data_) {
      bits[x / kWordBits] |= 1u << (x % kWordBits);
    }
    data_ = std::move(bits);
    bitmap_ = true;
  }
  const std::size_t w = u / kWordBits;
  if (w >= data_.size()) data_.resize(w + 1);
  const std::uint32_t bit = 1u << (u % kWordBits);
  if ((data_[w] & bit) != 0) return;
  data_[w] |= bit;
  ++size_;
}

void LockHolders::erase(Rank r) {
  if (!contains(r)) return;
  --size_;
  const auto u = static_cast<std::uint32_t>(r);
  if (bitmap_) {
    data_[u / kWordBits] &= ~(1u << (u % kWordBits));
  } else if (size_ == 0) {
    solo_ = kNoRank;
  } else {
    data_.erase(std::lower_bound(data_.begin(), data_.end(), u));
    if (size_ == 1) {
      solo_ = static_cast<Rank>(data_.front());
      data_ = {};
    }
  }
}

void LockHolders::clear() {
  data_ = {};
  size_ = 0;
  solo_ = kNoRank;
  bitmap_ = false;
}

LockBlock& LockTable::at(Offset block) {
  if (blocks_.empty() || blocks_.back().block < block) {
    return blocks_.emplace_back(LockBlock{.block = block});
  }
  const auto it = std::lower_bound(
      blocks_.begin(), blocks_.end(), block,
      [](const LockBlock& b, Offset key) { return b.block < key; });
  if (it->block == block) return *it;
  return *blocks_.insert(it, LockBlock{.block = block});
}

LockBlock* LockTable::find(Offset block) {
  const auto it = std::lower_bound(
      blocks_.begin(), blocks_.end(), block,
      [](const LockBlock& b, Offset key) { return b.block < key; });
  return it != blocks_.end() && it->block == block ? &*it : nullptr;
}

SimDuration charge_locks(FileCore& f, Rank r, Extent ext, bool exclusive,
                         const LockParams& p, LockStats& stats,
                         std::vector<Offset>& locked) {
  if (p.model != ConsistencyModel::Strong || ext.empty()) return 0;
  SimDuration cost = 0;
  const Offset first = ext.begin / p.lock_block;
  const Offset last = (ext.end - 1) / p.lock_block;
  for (Offset b = first; b <= last; ++b) {
    LockBlock& blk = f.locks.at(b);
    // An exclusive request is satisfied only by a sole exclusive hold; a
    // shared request is satisfied by any existing hold of ours (a sole
    // exclusive hold also permits reading).
    const bool held_ok =
        exclusive ? (blk.exclusive && blk.holders.size() == 1 &&
                     blk.holders.contains(r))
                  : blk.holders.contains(r);
    if (held_ok) continue;
    ++stats.requests;
    cost += p.lock_latency;
    // Call back conflicting holders.
    std::size_t conflicting = 0;
    if (exclusive) {
      conflicting = blk.holders.size() - (blk.holders.contains(r) ? 1 : 0);
    } else if (blk.exclusive && !blk.holders.contains(r)) {
      conflicting = blk.holders.size();
    }
    if (conflicting > 0) {
      stats.revocations += conflicting;
      cost += p.lock_latency * static_cast<SimDuration>(conflicting);
    }
    if (!blk.holders.contains(r)) locked.push_back(b);
    if (exclusive) {
      blk.holders.clear();
      blk.holders.insert(r);
      blk.exclusive = true;
    } else {
      if (blk.exclusive) blk.holders.clear();
      blk.exclusive = false;
      blk.holders.insert(r);
    }
  }
  return cost;
}

void release_locks(FileCore& f, FdTable& fds, Rank r) {
  fds.for_rank(r, [&](OpenFile& of) {
    if (of.file.get() != &f) return;
    for (const Offset b : of.locked) {
      if (LockBlock* blk = f.locks.find(b)) blk->holders.erase(r);
    }
    of.locked.clear();
  });
}

std::vector<VersionTag> apply_rank_crash(
    std::vector<std::shared_ptr<FileCore>>& files, Rank r, SimTime now,
    const ResolveEnv& env) {
  std::vector<VersionTag> lost;
  for (auto& f : files) {
    if (!f) continue;
    if (!f->laminated) {
      const std::size_t before = f->writes.size();
      std::erase_if(f->writes, [&](const WriteRecord& w) {
        if (w.writer != r || write_durable(w, env, now)) return false;
        lost.push_back(w.id);
        return true;
      });
      if (f->writes.size() != before) {
        f->rebuild_index();
        // Folded writes are durable.
        Offset size = f->cold ? f->cold->base_max_end : 0;
        for (const auto& w : f->writes) size = std::max(size, w.ext.end);
        f->size = size;
      }
    }
    for (LockBlock& blk : f->locks) blk.holders.erase(r);
  }
  std::sort(lost.begin(), lost.end());
  return lost;
}

// ----------------------------------------------------------------------
// extent compaction
//
// A folded write must be (a) visible to every current and future reader
// and (b) overlay in the same relative order as in the uncompacted
// history, for every reader, against every write it overlaps. (a) is the
// settled condition below. For (b), a reader r orders candidates by
// (key_r, id) where key_r is t_write for the writer itself and the
// (possibly partition-deferred) model key for everyone else — so a
// write's possible positions span the interval [(t_write, id),
// (worst_key, id)]. Two overlapping writes keep one order for every
// reader iff those intervals don't interleave, except that same-writer
// pairs are always ordered when their model keys are monotone in write
// order (every reader then uses the same key family for both; commit and
// publish times are batch-set by fsync/close, so monotonicity holds by
// construction for strong/commit/session, and partition deferral is
// monotone in the key for a fixed writer/reader pair — only the eventual
// model's visibility spikes can invert same-writer keys, which the
// explicit key comparison catches). docs/architecture.md carries the
// full argument.

namespace {

/// Total order on a write's possible overlay position: (time, version).
struct Pos {
  SimTime t = 0;
  VersionTag id = 0;
  bool operator<(const Pos& o) const {
    return t != o.t ? t < o.t : id < o.id;
  }
  bool operator<=(const Pos& o) const { return !(o < *this); }
};

/// Running cover of the writes accepted into this fold pass: for each
/// byte range, the max worst-case position, the max (undeferred) model
/// key, and the writer (kNoRank + mixed=false never matches a real rank;
/// mixed=true poisons the same-writer fast path).
struct CoverSeg {
  Offset end = 0;
  Pos hi;
  SimTime key_max = 0;
  Rank writer = kNoRank;
  bool mixed = false;
};

/// The write's visibility key for a non-owner reader, before partition
/// deferral; kTimeNever = not visible to non-owners yet (and never
/// foldable now).
SimTime model_key(const FileCore& f, const ResolveEnv& env,
                  const WriteRecord& w) {
  if (f.laminated || w.writer == kNoRank) return w.t_write;
  switch (env.model) {
    case ConsistencyModel::Strong: return w.t_write;
    case ConsistencyModel::Commit: return w.t_commit;
    case ConsistencyModel::Session: return w.t_publish;
    case ConsistencyModel::Eventual: {
      SimTime key = w.t_write + env.eventual_propagation;
      if (env.injector != nullptr) {
        key += env.injector->visibility_extra(w.t_write);
      }
      return key;
    }
  }
  return kTimeNever;
}

/// Worst case of partition_defer over every possible reader: any clause
/// whose window contains the key could defer it to the clause's heal
/// time for readers across the cut (laminated/genesis keys never defer —
/// resolve_view takes the own-branch for every reader there).
SimTime worst_defer(const FileCore& f, const ResolveEnv& env,
                    const WriteRecord& w, SimTime key) {
  if (env.injector == nullptr || f.laminated || w.writer == kNoRank) {
    return key;
  }
  SimTime worst = key;
  for (const auto& p : env.injector->plan().partitions) {
    if (key >= p.from && key < p.to) worst = std::max(worst, p.to);
  }
  return worst;
}

/// Is `w` (with model key `key`, either a fold candidate or a live write
/// checked against an already-accepted cover) ordered after every folded
/// write it overlaps, for every reader? `key == kTimeNever` means the
/// write is not yet visible to non-owners; any future commit/publish
/// lands at >= now >= every folded key, so the same-writer key check
/// passes vacuously.
bool ordered_after_cover(const std::map<Offset, CoverSeg>& cover,
                         const WriteRecord& w, SimTime key) {
  if (cover.empty() || w.ext.empty()) return true;
  const Pos lo{w.t_write, w.id};
  auto it = cover.upper_bound(w.ext.begin);
  if (it != cover.begin()) --it;
  for (; it != cover.end() && it->first < w.ext.end; ++it) {
    const CoverSeg& s = it->second;
    if (s.end <= w.ext.begin) continue;
    if (s.hi < lo) continue;  // fully separated for every reader
    if (!s.mixed && s.writer == w.writer &&
        (key == kTimeNever || s.key_max <= key)) {
      continue;  // same-writer monotone keys: one order for every reader
    }
    return false;
  }
  return true;
}

/// Overlay an accepted fold candidate onto the cover (same split/merge
/// scheme as assign(), but combining instead of overwriting).
void overlay_cover(std::map<Offset, CoverSeg>& cover, const WriteRecord& w,
                   const Pos& hi, SimTime key) {
  if (w.ext.empty()) return;
  auto split = [&cover](Offset x) {
    auto it = cover.upper_bound(x);
    if (it == cover.begin()) return;
    --it;
    if (it->first < x && x < it->second.end) {
      CoverSeg right = it->second;
      it->second.end = x;
      cover.emplace(x, right);
    }
  };
  split(w.ext.begin);
  split(w.ext.end);
  Offset pos = w.ext.begin;
  auto it = cover.lower_bound(w.ext.begin);
  while (pos < w.ext.end) {
    if (it == cover.end() || it->first > pos) {
      const Offset gap_end =
          it == cover.end() ? w.ext.end : std::min(it->first, w.ext.end);
      it = cover.emplace_hint(it, pos,
                              CoverSeg{gap_end, hi, key, w.writer, false});
    } else {
      CoverSeg& s = it->second;
      if (s.hi < hi) s.hi = hi;
      s.key_max = std::max(s.key_max, key);
      if (s.writer != w.writer) s.mixed = true;
      s.writer = w.writer;
    }
    pos = it->second.end;
    ++it;
  }
}

}  // namespace

std::size_t compact_file(FileCore& f, const ResolveEnv& env, SimTime now,
                         SimTime session_floor) {
  ColdState& cold = f.cold_state();
  const std::size_t n = f.writes.size();
  if (n == 0) {
    cold.compact_watermark = 0;
    return 0;
  }
  // Every reader's visibility threshold is >= `limit`: future readers
  // read (session: open) at >= now, current session handles at
  // >= session_floor.
  const SimTime limit = env.model == ConsistencyModel::Session
                            ? std::min(now, session_floor)
                            : now;
  std::map<Offset, CoverSeg> cover;
  std::size_t k = 0;
  while (k < n) {
    const WriteRecord& w = f.writes[k];
    const SimTime key = model_key(f, env, w);
    if (key == kTimeNever) break;  // not visible to non-owners yet
    const SimTime worst = worst_defer(f, env, w, key);
    if (worst == kTimeNever || worst > limit) break;  // not settled
    if (!ordered_after_cover(cover, w, key)) break;
    overlay_cover(cover, w, Pos{worst, w.id}, key);
    ++k;
  }
  // Every live write must also overlay after the whole fold, for every
  // reader; if one interleaves, readers can disagree about the overlap
  // region and no reader-independent base exists — skip this pass and
  // retry once more history settles.
  if (k > 0 && k < n) {
    for (std::size_t j = k; j < n; ++j) {
      if (!ordered_after_cover(cover, f.writes[j],
                               model_key(f, env, f.writes[j]))) {
        k = 0;
        break;
      }
    }
  }
  if (k > 0) {
    for (std::size_t i = 0; i < k; ++i) {
      const WriteRecord& w = f.writes[i];
      if (!w.ext.empty()) {
        assign(cold.base, w.ext, w.id, w.writer);
        cold.base_max_end = std::max(cold.base_max_end, w.ext.end);
      }
    }
    f.writes.erase(f.writes.begin(),
                   f.writes.begin() + static_cast<std::ptrdiff_t>(k));
    f.rebuild_index();
  }
  cold.compact_watermark = f.writes.size();
  return k;
}

void truncate_base(FileCore& f, Offset length) {
  if (!f.cold) return;
  std::map<Offset, Seg>& base = f.cold->base;
  auto it = base.lower_bound(length);
  if (it != base.begin()) {
    auto prev = std::prev(it);
    if (prev->second.end > length) prev->second.end = length;
  }
  base.erase(it, base.end());
  f.cold->base_max_end = std::min(f.cold->base_max_end, length);
}

}  // namespace pfsem::vfs::detail
