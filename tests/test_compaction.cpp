// Differential tests for extent compaction (detail::compact_file): with
// compaction on, every read under every consistency model — including
// mid-run rank crashes and network partitions — must observe bit-exactly
// the same extents, versions, and writers as the uncompacted history.
// Compaction may only change how much state the backend keeps, never
// what any reader sees.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "pfsem/fault/injector.hpp"
#include "pfsem/fault/plan.hpp"
#include "pfsem/trace/record.hpp"
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
  f.writes.push_back(genesis);
  f.index_write(0);
  f.size = kTiB;
  const auto index_entries = [&f] {
    std::size_t n = f.wide_writes.size();
    for (const auto& [block, ids] : f.write_index) n += ids.size();
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
    f.writes.push_back(w);
    f.index_write(static_cast<std::uint32_t>(f.writes.size() - 1));
    if (i == 200) (void)detail::compact_file(f, env, ++t, kTimeNever);
    ASSERT_LE(index_entries(), FileCore::kWideBlocks * f.writes.size());
    for (int q = 0; q < 3; ++q) {
      const Offset rlen = Offset{1} << (next() % 38);
      const Offset off = next() % (kTiB - rlen);
      const Rank reader = static_cast<Rank>(next() % 5);
      ASSERT_EQ(extents_str(detail::resolve_view(f, env, reader, ++t, t, off,
                                                 rlen)),
                extents_str(detail::strong_view_of(f, off, rlen)))
          << "write " << i << " read [" << off << ", +" << rlen << ")";
    }
  }
  EXPECT_FALSE(f.wide_writes.empty());
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

}  // namespace
}  // namespace pfsem::vfs
