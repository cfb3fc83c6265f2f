// Differential tests for extent compaction (detail::compact_file): with
// compaction on, every read under every consistency model — including
// mid-run rank crashes and network partitions — must observe bit-exactly
// the same extents, versions, and writers as the uncompacted history.
// Compaction may only change how much state the backend keeps, never
// what any reader sees.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "pfsem/fault/injector.hpp"
#include "pfsem/fault/plan.hpp"
#include "pfsem/trace/record.hpp"
#include "pfsem/util/error.hpp"
#include "pfsem/vfs/file_core.hpp"
#include "pfsem/vfs/pfs.hpp"

namespace pfsem::vfs {
namespace {

using detail::FileCore;
using detail::ResolveEnv;
using detail::WriteRecord;

constexpr ConsistencyModel kModels[] = {
    ConsistencyModel::Strong, ConsistencyModel::Commit,
    ConsistencyModel::Session, ConsistencyModel::Eventual};

std::string extents_str(const std::vector<ReadExtent>& v) {
  std::ostringstream os;
  for (const auto& e : v) {
    os << '[' << e.ext.begin << ',' << e.ext.end << ")v" << e.version << 'w'
       << e.writer << ' ';
  }
  return os.str();
}

// --- FileCore level ---------------------------------------------------

/// A write history with every settlement class: committed+published
/// overwrites, an uncommitted tail, an unpublished session write, and a
/// hole between extents.
FileCore scripted_history() {
  FileCore f;
  f.path = "f";
  auto add = [&](VersionTag id, Rank w, Offset b, Offset e, SimTime tw,
                 SimTime tc, SimTime tp) {
    WriteRecord r;
    r.id = id;
    r.writer = w;
    r.ext = {b, e};
    r.t_write = tw;
    r.t_commit = tc;
    r.t_publish = tp;
    f.writes.push_back(r);
  };
  // Overwrite chain on [0,4096): all closed long ago.
  add(1, 0, 0, 4096, 100, 200, 200);
  add(2, 1, 1024, 2048, 300, 400, 400);
  add(3, 0, 0, 512, 500, 600, 600);
  // Disjoint extent, fsync'd but never closed (committed, unpublished).
  add(4, 2, 8192, 12288, 700, 800, kTimeNever);
  // Uncommitted tail write overlapping the chain.
  add(5, 3, 2048, 6144, 900, kTimeNever, kTimeNever);
  f.size = 12288;
  f.rebuild_index();
  return f;
}

TEST(Compaction, FileCoreFoldPreservesEveryReaderEveryModel) {
  for (const auto model : kModels) {
    ResolveEnv env;
    env.model = model;
    env.eventual_propagation = 250;
    const FileCore plain = scripted_history();
    for (const SimTime now : {SimTime{650}, SimTime{1000}, SimTime{5000}}) {
      // The floor must be <= now (it is the min t_open over handles open
      // at compaction time), and no queried session can open below it —
      // a reader with an earlier open would have lowered the floor.
      for (const SimTime floor : {kTimeNever, SimTime{450}, SimTime{200}}) {
        FileCore folded = scripted_history();
        (void)detail::compact_file(folded, env, now, floor);
        const SimTime min_open = floor == kTimeNever ? now : floor;
        // Every reader, at compaction time and later, over ranges that
        // split extents, cross holes, and run past EOF.
        for (const Rank r : {0, 1, 2, 3, 7}) {
          for (const SimTime t : {now, now + 500, now + 10'000}) {
            for (const SimTime open : {min_open, min_open + 500, t}) {
              for (const Offset off : {Offset{0}, Offset{256}, Offset{1500},
                                       Offset{4000}, Offset{9000}}) {
                ASSERT_EQ(
                    extents_str(resolve_view(folded, env, r, t, open, off,
                                             8192)),
                    extents_str(resolve_view(plain, env, r, t, open, off,
                                             8192)))
                    << "model=" << to_string(model) << " now=" << now
                    << " floor=" << floor << " r=" << r << " t=" << t
                    << " open=" << open << " off=" << off;
              }
            }
          }
        }
        ASSERT_EQ(extents_str(strong_view_of(folded, 0, 16384)),
                  extents_str(strong_view_of(plain, 0, 16384)))
            << "model=" << to_string(model) << " now=" << now;
      }
    }
    // At t=5000 everything but the uncommitted/unpublished tail is
    // settled; under strong the fold must actually bite.
    if (model == ConsistencyModel::Strong) {
      FileCore folded = scripted_history();
      EXPECT_GT(detail::compact_file(folded, env, 5000, kTimeNever), 0u);
      EXPECT_LT(folded.writes.size(), scripted_history().writes.size());
    }
  }
}

// --- Pfs level --------------------------------------------------------

PfsConfig pfs_cfg(ConsistencyModel m, bool compaction) {
  PfsConfig cfg;
  cfg.model = m;
  cfg.compaction = compaction;
  cfg.eventual_propagation = 200'000;  // 200 us: spans the script's clock
  return cfg;
}

/// Deterministic mixed workload: 4 ranks hammer 3 files with overwrites,
/// fsyncs, close/reopen cycles, truncates, reads, a mid-run rank crash,
/// and a final lamination. Every observable (rets, versions, extents,
/// sizes, crash-discarded tags, strong views) is folded into one string.
std::string drive(Pfs& fs, bool crash) {
  std::ostringstream os;
  std::uint64_t lcg = 42;
  auto rnd = [&] { return lcg = lcg * 6364136223846793005ull + 1442695040888963407ull; };
  const char* names[] = {"a", "b", "c"};
  int fds[4][3];
  SimTime t = 0;
  for (Rank r = 0; r < 4; ++r) {
    for (int fi = 0; fi < 3; ++fi) {
      fds[r][fi] = fs.open(r, names[fi], trace::kCreate | trace::kRdWr, t).fd;
      t += 1000;
    }
  }
  // Everything closed and published, then a pause longer than any
  // propagation delay: the history before a quiesce is fully settled, so
  // the next compaction trigger has a non-empty safe prefix even in this
  // adversarial interleaving.
  auto quiesce = [&] {
    for (Rank r = 0; r < 4; ++r) {
      for (int fi = 0; fi < 3; ++fi) {
        (void)fs.fsync(r, fds[r][fi], t);
        (void)fs.close(r, fds[r][fi], t + 1000);
      }
    }
    t += 2'000'000;
    for (Rank r = 0; r < 4; ++r) {
      for (int fi = 0; fi < 3; ++fi) {
        fds[r][fi] = fs.open(r, names[fi], trace::kRdWr, t).fd;
      }
    }
  };
  for (int i = 0; i < 900; ++i) {
    if (i % 300 == 299) quiesce();
    const auto r = static_cast<Rank>(rnd() % 4);
    const int fi = static_cast<int>(rnd() % 3);
    // Files a/b: heavy overwrites inside a rank-private window —
    // same-writer monotone keys, so settled prefixes fold under every
    // model. File c: all ranks overwrite the same region, so readers can
    // genuinely disagree about overlay order and those writes stay live
    // under the weak models — the fold must never touch them.
    Offset off;
    std::uint64_t len;
    if (fi == 2) {
      off = (rnd() % 64) * 1024;
      len = 512 + rnd() % 8192;
    } else {
      off = (static_cast<Offset>(r) * 32 + rnd() % 28) * 1024;
      len = 256 + rnd() % 4096;
    }
    t += 20'000;
    const auto wr = fs.pwrite(r, fds[r][fi], off, len, t);
    os << 'w' << wr.version << '@' << wr.offset << ';';
    if (i % 5 == 0) os << 'f' << fs.fsync(r, fds[r][fi], t + 1000).ret << ';';
    if (i % 17 == 0) {
      os << 'c' << fs.close(r, fds[r][fi], t + 2000).ret << ';';
      fds[r][fi] = fs.open(r, names[fi], trace::kRdWr, t + 3000).fd;
    }
    if (i % 23 == 0) {
      os << 't' << fs.ftruncate(r, fds[r][2], (rnd() % 48) * 1024, t + 4000).ret
         << ';';
    }
    if (i % 3 == 0) {
      const auto rr = static_cast<Rank>(rnd() % 4);
      const auto rd =
          fs.pread(rr, fds[rr][fi], (rnd() % 64) * 1024, 16384, t + 5000);
      os << 'r' << rd.bytes << ':' << extents_str(rd.extents) << ';';
    }
    if (crash && i == 600) {
      const auto lost = fs.crash_rank(2, t + 6000);
      os << "crash:";
      for (const auto v : lost) os << v << ',';
      os << ';';
      fds[2][0] = fs.open(2, names[0], trace::kRdWr, t + 7000).fd;
      fds[2][1] = fs.open(2, names[1], trace::kRdWr, t + 7000).fd;
      fds[2][2] = fs.open(2, names[2], trace::kRdWr, t + 7000).fd;
    }
  }
  os << 'l' << fs.laminate("a", t + 10'000).ret << ';';
  t += 20'000;
  for (int fi = 0; fi < 3; ++fi) {
    os << 's' << fs.file_size(names[fi]) << ':'
       << extents_str(fs.strong_view(names[fi], 0, 96 * 1024)) << ';';
    const auto rd = fs.pread(1, fds[1][fi], 0, 96 * 1024, t);
    os << 'R' << extents_str(rd.extents) << ';';
  }
  return os.str();
}

TEST(Compaction, HugeWritesIndexInConstantEntries) {
  // A 1 TiB preload, then seeded writes from 1 byte to 64 GiB and reads
  // anywhere in the file: every strong-model read resolves exactly what
  // the strong oracle returns, before and after a compaction pass, while
  // the write index holds O(writes) entries — no write, however wide,
  // costs more than a few index entries.
  constexpr Offset kTiB = Offset{1} << 40;
  FileCore f;
  f.path = "huge";
  WriteRecord genesis;
  genesis.id = 1;
  genesis.writer = kNoRank;
  genesis.ext = {0, kTiB};
  genesis.t_write = genesis.t_commit = genesis.t_publish = -1;
  f.append(genesis);
  f.size = kTiB;
  const auto index_entries = [&f] {
    if (!f.cold) return std::size_t{0};
    std::size_t n = f.cold->wide_writes.size();
    for (const auto& [block, ids] : f.cold->write_index) n += ids.size();
    return n;
  };
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  const auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  const ResolveEnv env;  // strong
  SimTime t = 0;
  for (int i = 0; i < 400; ++i) {
    const Offset len = Offset{1} << (next() % 37);  // 1 B .. 64 GiB
    const Offset begin = next() % (kTiB - len);
    WriteRecord w;
    w.id = static_cast<VersionTag>(f.writes.size() + 1);
    w.writer = static_cast<Rank>(next() % 4);
    w.ext = {begin, begin + len};
    w.t_write = w.t_commit = w.t_publish = ++t;
    f.append(w);
    if (i == 200) (void)detail::compact_file(f, env, ++t, kTimeNever);
    ASSERT_LE(index_entries(), FileCore::kWideBlocks * f.writes.size());
    for (int q = 0; q < 3; ++q) {
      const Offset rlen = Offset{1} << (next() % 38);
      const Offset off = next() % (kTiB - rlen);
      const Rank reader = static_cast<Rank>(next() % 5);
      const SimTime now = ++t;
      ASSERT_EQ(extents_str(detail::resolve_view(f, env, reader, now, now, off,
                                                 rlen)),
                extents_str(detail::strong_view_of(f, off, rlen)))
          << "write " << i << " read [" << off << ", +" << rlen << ")";
    }
  }
  ASSERT_TRUE(f.indexed());
  EXPECT_FALSE(f.cold->wide_writes.empty());
  EXPECT_LE(index_entries(), FileCore::kWideBlocks * f.writes.size());
}

TEST(Compaction, PfsDifferentialEveryModel) {
  for (const auto model : kModels) {
    for (const bool crash : {false, true}) {
      Pfs on(pfs_cfg(model, true));
      Pfs off(pfs_cfg(model, false));
      ASSERT_EQ(drive(on, crash), drive(off, crash))
          << "model=" << to_string(model) << " crash=" << crash;
      EXPECT_GT(on.compaction_stats().folded_writes, 0u)
          << "model=" << to_string(model)
          << ": the workload never triggered a fold — the differential "
             "compared two uncompacted histories";
      EXPECT_EQ(off.compaction_stats().folded_writes, 0u);
    }
  }
}

TEST(Compaction, PfsDifferentialUnderPartitionPlan) {
  // A healed partition stretches visibility keys (fault::Injector);
  // compact_file must clamp settlement to the heal time, so folded state
  // stays invisible exactly as long as the live history would be.
  const auto plan =
      fault::FaultPlan::parse("partition:ranks=0-1,from=1ms,to=8ms");
  for (const auto model : kModels) {
    fault::Injector inj_on(plan, /*seed=*/3, /*ranks_per_node=*/4);
    fault::Injector inj_off(plan, /*seed=*/3, /*ranks_per_node=*/4);
    Pfs on(pfs_cfg(model, true));
    Pfs off(pfs_cfg(model, false));
    on.set_fault_injector(&inj_on);
    off.set_fault_injector(&inj_off);
    ASSERT_EQ(drive(on, false), drive(off, false))
        << "model=" << to_string(model);
    EXPECT_GT(on.compaction_stats().folded_writes, 0u)
        << "model=" << to_string(model);
  }
}


// --- Short histories --------------------------------------------------

TEST(ShortHistory, IndexAndColdStateStartAtTheThreshold) {
  FileCore f;
  const auto index_entries = [&f] {
    if (!f.cold) return std::size_t{0};
    std::size_t n = f.cold->wide_writes.size();
    for (const auto& [block, ids] : f.cold->write_index) n += ids.size();
    return n;
  };
  for (std::size_t i = 0; i < detail::kCompactMinWrites; ++i) {
    ASSERT_FALSE(f.indexed());
    ASSERT_EQ(f.cold, nullptr) << "cold state allocated at " << i << " writes";
    WriteRecord w;
    w.id = static_cast<std::uint32_t>(i + 1);
    w.writer = 0;
    w.ext = {i * 4096, i * 4096 + 4096};
    f.append(w);
  }
  // The write that reaches the threshold indexes the whole history.
  ASSERT_TRUE(f.indexed());
  ASSERT_NE(f.cold, nullptr);
  EXPECT_EQ(index_entries(), detail::kCompactMinWrites);
  // Back below it, the history is unindexed again; the cold state stays.
  f.writes.pop_back();
  f.rebuild_index();
  EXPECT_FALSE(f.indexed());
  EXPECT_EQ(index_entries(), 0u);
}

TEST(ShortHistory, WriteIdsPastThirtyTwoBitsThrow) {
  EXPECT_EQ(detail::write_seq(1), 1u);
  EXPECT_EQ(detail::write_seq(VersionTag{UINT32_MAX}), UINT32_MAX);
  EXPECT_THROW((void)detail::write_seq(VersionTag{UINT32_MAX} + 1), Error);
  EXPECT_THROW((void)detail::write_seq(~VersionTag{0}), Error);
}

/// What the brute-force oracle keeps of one write.
struct Shadow {
  VersionTag id = 0;
  Rank writer = kNoRank;
  Extent ext;
  SimTime t_write = 0;
  SimTime t_commit = kTimeNever;
  SimTime t_publish = kTimeNever;
};

/// The read by brute force: cut the range at every visible write's ends,
/// and give each piece the covering write that overlays last, i.e. the
/// one with the largest (visibility key, id). Adjacent pieces with the
/// same write merge; uncovered pieces are holes.
std::vector<ReadExtent> brute_view(const std::vector<Shadow>& hist,
                                   ConsistencyModel model, SimDuration prop,
                                   Rank r, SimTime now, SimTime open,
                                   Extent range) {
  struct Vis {
    SimTime key;
    const Shadow* w;
  };
  std::vector<Vis> vis;
  for (const Shadow& w : hist) {
    if (!w.ext.overlaps(range)) continue;
    SimTime key = w.t_write;
    SimTime threshold = now;
    if (w.writer != r) {
      switch (model) {
        case ConsistencyModel::Strong: break;
        case ConsistencyModel::Commit: key = w.t_commit; break;
        case ConsistencyModel::Session:
          key = w.t_publish;
          threshold = open;
          break;
        case ConsistencyModel::Eventual: key = w.t_write + prop; break;
      }
    }
    if (key == kTimeNever || key > threshold) continue;
    vis.push_back({key, &w});
  }
  std::sort(vis.begin(), vis.end(), [](const Vis& a, const Vis& b) {
    return a.key != b.key ? a.key < b.key : a.w->id < b.w->id;
  });
  std::vector<Offset> cuts{range.begin, range.end};
  for (const Vis& v : vis) {
    cuts.push_back(std::max(v.w->ext.begin, range.begin));
    cuts.push_back(std::min(v.w->ext.end, range.end));
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  std::vector<const Shadow*> top(cuts.size() - 1, nullptr);
  for (const Vis& v : vis) {
    auto i = static_cast<std::size_t>(
        std::lower_bound(cuts.begin(), cuts.end(),
                         std::max(v.w->ext.begin, range.begin)) -
        cuts.begin());
    for (; i + 1 < cuts.size() && cuts[i + 1] <= v.w->ext.end; ++i) {
      top[i] = v.w;
    }
  }
  std::vector<ReadExtent> out;
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    const VersionTag ver = top[i] != nullptr ? top[i]->id : 0;
    const Rank wr = top[i] != nullptr ? top[i]->writer : kNoRank;
    if (!out.empty() && out.back().version == ver && out.back().writer == wr) {
      out.back().ext.end = cuts[i + 1];
    } else {
      out.push_back({{cuts[i], cuts[i + 1]}, ver, wr});
    }
  }
  return out;
}

/// One seeded run on one file: 1-200 writes by four ranks, spread over
/// four index blocks with some wide writes, fsyncs and close/reopen
/// cycles, one truncate and one rank crash. Every write is followed by a
/// read of a random range and of the whole file, and each is checked
/// against brute_view over the test's own copy of the history, so reads
/// land on both sides of kCompactMinWrites, and on a history a truncate
/// or a crash (or, with compaction on, a fold) took back below it.
void short_history_case(ConsistencyModel model, bool compaction,
                        std::uint64_t seed) {
  constexpr SimDuration kProp = 300'000;
  constexpr Rank kRanks = 4;
  constexpr Offset kMiB = Offset{1} << 20;
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ull + 1;
  const auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  PfsConfig cfg;
  cfg.model = model;
  cfg.compaction = compaction;
  cfg.eventual_propagation = kProp;
  Pfs fs(cfg);
  const bool strong = model == ConsistencyModel::Strong;
  std::vector<Shadow> hist;
  Offset size = 0;
  int fd[kRanks];
  SimTime opened[kRanks];
  SimTime t = 0;
  for (Rank r = 0; r < kRanks; ++r) {
    fd[r] = fs.open(r, "f", trace::kCreate | trace::kRdWr, t).fd;
    opened[r] = t;
  }
  const int n = 1 + static_cast<int>(next() % 200);
  // The truncate comes after the history has passed the threshold when
  // there are enough writes; short runs truncate and crash anywhere.
  const int truncate_at =
      n > 80 ? 70 + static_cast<int>(next() % (n - 75))
             : static_cast<int>(next() % n);
  const int crash_at = static_cast<int>(next() % n);
  const auto check_read = [&](Rank q, Offset off, std::uint64_t count,
                              SimTime when) {
    const ReadResult rd = fs.pread(q, fd[q], off, count, when);
    const std::uint64_t bytes =
        off >= size ? 0 : std::min<std::uint64_t>(count, size - off);
    ASSERT_EQ(rd.bytes, bytes);
    if (bytes == 0) return;
    ASSERT_EQ(extents_str(rd.extents),
              extents_str(brute_view(hist, model, kProp, q, when, opened[q],
                                     {off, off + bytes})))
        << "reader " << q << " [" << off << ", +" << bytes << ") at " << when
        << " with " << hist.size() << " writes";
  };
  for (int i = 0; i < n; ++i) {
    t += 10'000;
    const auto r = static_cast<Rank>(next() % kRanks);
    const std::uint64_t kind = next() % 20;
    const Offset off = (next() % (16 * kMiB)) & ~Offset{4095};
    const std::uint64_t len = kind == 0   ? 17 * kMiB + next() % (8 * kMiB)
                              : kind < 4 ? kMiB + next() % (5 * kMiB)
                                         : 1 + next() % (256 * 1024);
    const WriteResult wr = fs.pwrite(r, fd[r], off, len, t);
    ASSERT_EQ(wr.err, 0);
    hist.push_back({wr.version, r, {off, off + len}, t,
                    strong ? t : kTimeNever, strong ? t : kTimeNever});
    size = std::max(size, off + len);
    if (next() % 7 == 0) {
      ASSERT_EQ(fs.fsync(r, fd[r], t + 1).ret, 0);
      for (Shadow& w : hist) {
        if (w.writer == r && w.t_commit == kTimeNever) w.t_commit = t + 1;
      }
    }
    if (next() % 11 == 0) {
      ASSERT_EQ(fs.close(r, fd[r], t + 2).ret, 0);
      for (Shadow& w : hist) {
        if (w.writer != r) continue;
        if (w.t_commit == kTimeNever) w.t_commit = t + 2;
        if (w.t_publish == kTimeNever) w.t_publish = t + 2;
      }
      fd[r] = fs.open(r, "f", trace::kRdWr, t + 3).fd;
      opened[r] = t + 3;
    }
    if (i == truncate_at) {
      const Offset length = next() % kMiB;
      ASSERT_EQ(fs.ftruncate(r, fd[r], length, t + 4).ret, 0);
      if (length < size) {
        std::erase_if(hist,
                      [&](const Shadow& w) { return w.ext.begin >= length; });
        for (Shadow& w : hist) w.ext.end = std::min(w.ext.end, length);
      }
      size = length;
    }
    if (i == crash_at) {
      const auto victim = static_cast<Rank>(next() % kRanks);
      const SimTime when = t + 5;
      std::vector<VersionTag> expect_lost;
      std::erase_if(hist, [&](const Shadow& w) {
        if (w.writer != victim) return false;
        bool durable = true;
        switch (model) {
          case ConsistencyModel::Strong: break;
          case ConsistencyModel::Commit: durable = w.t_commit <= when; break;
          case ConsistencyModel::Session: durable = w.t_publish <= when; break;
          case ConsistencyModel::Eventual:
            durable = w.t_write + kProp <= when;
            break;
        }
        if (!durable) expect_lost.push_back(w.id);
        return !durable;
      });
      std::sort(expect_lost.begin(), expect_lost.end());
      ASSERT_EQ(fs.crash_rank(victim, when), expect_lost);
      if (!expect_lost.empty()) {
        size = 0;
        for (const Shadow& w : hist) size = std::max(size, w.ext.end);
      }
      fd[victim] = fs.open(victim, "f", trace::kRdWr, t + 6).fd;
      opened[victim] = t + 6;
    }
    ASSERT_EQ(fs.file_size("f"), size);
    const auto q = static_cast<Rank>(next() % kRanks);
    const Offset roff = next() % (size + 1);
    check_read(q, roff, 1 + next() % (6 * kMiB), t + 7);
    check_read(static_cast<Rank>((q + 1) % kRanks), 0, size, t + 8);
  }
}

TEST(ShortHistory, ReadsMatchBruteForceOverlayAcrossTheThreshold) {
  for (const auto model : kModels) {
    for (const bool compaction : {false, true}) {
      for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        SCOPED_TRACE(std::string("model=") + to_string(model) +
                     " compaction=" + (compaction ? "on" : "off") +
                     " seed=" + std::to_string(seed));
        short_history_case(model, compaction, seed);
        if (HasFatalFailure()) return;
      }
    }
  }
}

}  // namespace
}  // namespace pfsem::vfs
