// Differential test of the strong-model lock table (vfs/file_core.hpp)
// against the tree-based table it replaced: a std::map of blocks, each
// with a std::set of holders, kept here as the oracle. Randomized shared
// and exclusive acquires, closes (release_locks) and crashes
// (apply_rank_crash) run on both over fixed seeds, and every step must
// agree on the charged cost, the LockStats and each handle's list of
// newly joined blocks. One block also takes 131072 holders in shuffled
// order, which the flat table must absorb without a per-insert cost that
// grows with the holder count.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <set>
#include <vector>

#include "pfsem/vfs/file_core.hpp"

namespace pfsem::vfs::detail {
namespace {

/// The pre-flat lock table, verbatim in behaviour.
struct OracleBlock {
  bool exclusive = false;
  std::set<Rank> holders;
};
using OracleTable = std::map<Offset, OracleBlock>;

SimDuration oracle_charge(OracleTable& locks, Rank r, Extent ext,
                          bool exclusive, const LockParams& p,
                          LockStats& stats, std::vector<Offset>& locked) {
  if (p.model != ConsistencyModel::Strong || ext.empty()) return 0;
  SimDuration cost = 0;
  const Offset first = ext.begin / p.lock_block;
  const Offset last = (ext.end - 1) / p.lock_block;
  for (Offset b = first; b <= last; ++b) {
    OracleBlock& blk = locks[b];
    const bool held_ok =
        exclusive ? (blk.exclusive && blk.holders.size() == 1 &&
                     blk.holders.contains(r))
                  : blk.holders.contains(r);
    if (held_ok) continue;
    ++stats.requests;
    cost += p.lock_latency;
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
      blk.holders = {r};
      blk.exclusive = true;
    } else {
      if (blk.exclusive) blk.holders.clear();
      blk.exclusive = false;
      blk.holders.insert(r);
    }
  }
  return cost;
}

/// One open handle on both sides: the flat side's OpenFile lives in the
/// FdTable, the oracle's locked list beside it.
struct Handle {
  Rank rank = 0;
  int fd = 0;
  std::size_t file = 0;
  std::vector<Offset> oracle_locked;
};

class Rig {
 public:
  Rig(int nfiles, LockParams params) : params_(params) {
    for (int i = 0; i < nfiles; ++i) {
      files_.push_back(std::make_shared<FileCore>());
      oracle_.emplace_back();
    }
  }

  /// Open a handle for `r` on file `f`; returns its index.
  std::size_t open(Rank r, std::size_t f) {
    auto of = std::make_unique<OpenFile>();
    of->file = files_[f];
    const int fd = fds_.add(r, std::move(of));
    handles_.push_back({.rank = r, .fd = fd, .file = f, .oracle_locked = {}});
    const auto slot = static_cast<std::size_t>(r);
    if (by_rank_.size() <= slot) by_rank_.resize(slot + 1);
    by_rank_[slot].push_back(handles_.size() - 1);
    return handles_.size() - 1;
  }

  void acquire(std::size_t h, Extent ext, bool exclusive) {
    Handle& hd = handles_[h];
    OpenFile& of = fds_.at(hd.rank, hd.fd, "acquire");
    const SimDuration got = charge_locks(*files_[hd.file], hd.rank, ext,
                                         exclusive, params_, stats_, of.locked);
    const SimDuration want =
        oracle_charge(oracle_[hd.file], hd.rank, ext, exclusive, params_,
                      oracle_stats_, hd.oracle_locked);
    ASSERT_EQ(got, want) << "cost, rank " << hd.rank;
    expect_same_stats();
    ASSERT_EQ(of.locked, hd.oracle_locked) << "rank " << hd.rank;
  }

  /// close(): drop every hold of `r` on file `f`.
  void release(Rank r, std::size_t f) {
    release_locks(*files_[f], fds_, r);
    for (const std::size_t h : by_rank_[static_cast<std::size_t>(r)]) {
      Handle& hd = handles_[h];
      if (hd.file != f) continue;
      for (const Offset b : hd.oracle_locked) {
        if (auto it = oracle_[f].find(b); it != oracle_[f].end()) {
          it->second.holders.erase(r);
        }
      }
      hd.oracle_locked.clear();
      ASSERT_TRUE(fds_.at(r, hd.fd, "release").locked.empty());
    }
  }

  void crash(Rank r) {
    (void)apply_rank_crash(files_, r, /*now=*/0, ResolveEnv{});
    for (OracleTable& t : oracle_) {
      for (auto& [b, blk] : t) blk.holders.erase(r);
    }
  }

  void expect_same_stats() const {
    ASSERT_EQ(stats_.requests, oracle_stats_.requests);
    ASSERT_EQ(stats_.revocations, oracle_stats_.revocations);
  }

  /// Stats, every handle's list, and every block's flag and holder set
  /// (ranks < nranks) agree.
  void expect_same_tables(Rank nranks) {
    expect_same_stats();
    for (const Handle& hd : handles_) {
      ASSERT_EQ(fds_.at(hd.rank, hd.fd, "check").locked, hd.oracle_locked)
          << "rank " << hd.rank << " fd " << hd.fd;
    }
    for (std::size_t f = 0; f < files_.size(); ++f) {
      ASSERT_EQ(files_[f]->locks.size(), oracle_[f].size()) << "file " << f;
      for (const auto& [b, want] : oracle_[f]) {
        const LockBlock* got = files_[f]->locks.find(b);
        ASSERT_NE(got, nullptr) << "block " << b;
        ASSERT_EQ(got->exclusive, want.exclusive) << "block " << b;
        ASSERT_EQ(got->holders.size(), want.holders.size()) << "block " << b;
        peak_holders_ = std::max(peak_holders_, want.holders.size());
        for (Rank r = 0; r < nranks; ++r) {
          ASSERT_EQ(got->holders.contains(r), want.holders.contains(r))
              << "block " << b << " rank " << r;
        }
      }
    }
  }

  [[nodiscard]] const LockStats& stats() const { return stats_; }
  /// Largest holder set seen by expect_same_tables.
  [[nodiscard]] std::size_t peak_holders() const { return peak_holders_; }
  [[nodiscard]] std::size_t handles() const { return handles_.size(); }
  [[nodiscard]] const Handle& handle(std::size_t h) const {
    return handles_[h];
  }

 private:
  LockParams params_;
  std::vector<std::shared_ptr<FileCore>> files_;
  std::vector<OracleTable> oracle_;
  FdTable fds_;
  std::vector<Handle> handles_;
  /// Handle indices per rank.
  std::vector<std::vector<std::size_t>> by_rank_;
  LockStats stats_;
  LockStats oracle_stats_;
  std::size_t peak_holders_ = 0;
};

TEST(LockTableDiff, RandomAcquiresClosesAndCrashesMatchTheTreeTable) {
  constexpr int kRanks = 160;
  constexpr std::size_t kFiles = 2;
  constexpr Offset kBlock = 16;
  const LockParams params{.model = ConsistencyModel::Strong,
                          .lock_latency = 7,
                          .lock_block = kBlock};
  // Per mille of steps: exclusive acquires and closes (5 more are
  // crashes, the rest shared acquires). Rare exclusives and closes let
  // holder sets grow past the sorted-vector form; frequent ones churn.
  struct Mix {
    std::uint32_t seed;
    int exclusive;
    int close;
  };
  std::size_t peak_holders = 0;
  for (const Mix mix : {Mix{1, 150, 90}, Mix{2, 5, 10}, Mix{3, 40, 60},
                        Mix{17, 2, 3}, Mix{2024, 150, 10}}) {
    SCOPED_TRACE(mix.seed);
    std::mt19937 rng(mix.seed);
    Rig rig(kFiles, params);
    // Two handles per (rank, file): a close drops holds taken through
    // either of them.
    for (Rank r = 0; r < kRanks; ++r) {
      for (std::size_t f = 0; f < kFiles; ++f) {
        (void)rig.open(r, f);
        (void)rig.open(r, f);
      }
    }
    std::uniform_int_distribution<std::size_t> pick_handle(
        0, rig.handles() - 1);
    std::uniform_int_distribution<int> pick_op(0, 999);
    // Offsets in a few hot blocks, so holders pile up and revoke.
    std::uniform_int_distribution<Offset> pick_off(0, 12 * kBlock);
    std::uniform_int_distribution<Offset> pick_len(0, 3 * kBlock);
    for (int step = 0; step < 8000; ++step) {
      const int op = pick_op(rng);
      const std::size_t h = pick_handle(rng);
      const Handle& hd = rig.handle(h);
      if (op < 5) {
        ASSERT_NO_FATAL_FAILURE(rig.crash(hd.rank));
      } else if (op < 5 + mix.close) {
        ASSERT_NO_FATAL_FAILURE(rig.release(hd.rank, hd.file));
      } else {
        const Offset off = pick_off(rng);
        const Extent ext{off, off + pick_len(rng)};
        const bool exclusive = op < 5 + mix.close + mix.exclusive;
        ASSERT_NO_FATAL_FAILURE(rig.acquire(h, ext, exclusive));
      }
      if (step % 500 == 0) {
        ASSERT_NO_FATAL_FAILURE(rig.expect_same_tables(kRanks));
      }
    }
    ASSERT_NO_FATAL_FAILURE(rig.expect_same_tables(kRanks));
    EXPECT_GT(rig.stats().revocations, 0u) << "the mix must revoke";
    peak_holders = std::max(peak_holders, rig.peak_holders());
  }
  EXPECT_GT(peak_holders, LockHolders::kListMax)
      << "some block must reach the bitmap form";
}

TEST(LockTableDiff, ShuffledHoldersAt131072Ranks) {
  constexpr Rank kRanks = 131072;
  const LockParams params{.model = ConsistencyModel::Strong,
                          .lock_latency = 3,
                          .lock_block = 1u << 20};
  Rig rig(1, params);
  std::vector<Rank> order(kRanks);
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), std::mt19937(131072));
  std::vector<std::size_t> handle_of(kRanks);
  for (const Rank r : order) {
    handle_of[static_cast<std::size_t>(r)] = rig.open(r, 0);
  }
  const Extent block0{0, 4096};
  for (const Rank r : order) {
    ASSERT_NO_FATAL_FAILURE(
        rig.acquire(handle_of[static_cast<std::size_t>(r)], block0, false));
  }
  EXPECT_EQ(rig.stats().requests, static_cast<std::uint64_t>(kRanks));
  // Re-reads by holders are free; half the holders close, in shuffled
  // order; an exclusive request then revokes exactly the rest.
  ASSERT_NO_FATAL_FAILURE(rig.acquire(handle_of[77], block0, false));
  for (std::size_t i = 0; i < order.size() / 2; ++i) {
    ASSERT_NO_FATAL_FAILURE(rig.release(order[i], 0));
  }
  ASSERT_NO_FATAL_FAILURE(rig.expect_same_tables(kRanks));
  const Rank writer = order.back();
  ASSERT_NO_FATAL_FAILURE(
      rig.acquire(handle_of[static_cast<std::size_t>(writer)], block0, true));
  EXPECT_EQ(rig.stats().revocations,
            static_cast<std::uint64_t>(kRanks / 2 - 1));
  // The closed half re-joins shared, shuffled again, after the exclusive.
  for (std::size_t i = 0; i < order.size() / 2; ++i) {
    const Rank r = order[order.size() / 2 - 1 - i];
    ASSERT_NO_FATAL_FAILURE(
        rig.acquire(handle_of[static_cast<std::size_t>(r)], block0, false));
  }
  ASSERT_NO_FATAL_FAILURE(rig.crash(writer));
  ASSERT_NO_FATAL_FAILURE(rig.expect_same_tables(kRanks));
}

}  // namespace
}  // namespace pfsem::vfs::detail
