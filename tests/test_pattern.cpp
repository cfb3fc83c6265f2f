// Unit tests for the pattern classifiers: Figure-1 transition mixes and
// Table-3 high-level / layout classification.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <set>

#include "pfsem/core/pattern.hpp"
#include "pfsem/util/rng.hpp"

namespace pfsem::core {
namespace {

Access acc(SimTime t, Rank r, Offset begin, Offset len,
           AccessType type = AccessType::Write) {
  Access a;
  a.t = t;
  a.rank = r;
  a.ext = {begin, begin + len};
  a.type = type;
  return a;
}

AccessLog make_log(std::vector<Access> accesses, int nranks) {
  std::sort(accesses.begin(), accesses.end(),
            [](const Access& a, const Access& b) { return a.t < b.t; });
  AccessLog log;
  log.nranks = nranks;
  FileLog fl;
  fl.accesses = std::move(accesses);
  log.put("f", std::move(fl));
  return log;
}

// --- transition mixes (Figure 1) ------------------------------------------

TEST(Transitions, LocalAllConsecutive) {
  auto log = make_log({acc(0, 0, 0, 100), acc(10, 0, 100, 100),
                       acc(20, 0, 200, 100)},
                      1);
  const auto mix = local_pattern(log);
  EXPECT_EQ(mix.consecutive, 2u);
  EXPECT_EQ(mix.monotonic, 0u);
  EXPECT_EQ(mix.random, 0u);
  EXPECT_DOUBLE_EQ(mix.frac_consecutive(), 1.0);
}

TEST(Transitions, MonotonicGapsCounted) {
  auto log = make_log({acc(0, 0, 0, 10), acc(10, 0, 50, 10),
                       acc(20, 0, 100, 10)},
                      1);
  const auto mix = local_pattern(log);
  EXPECT_EQ(mix.monotonic, 2u);
}

TEST(Transitions, BackwardJumpIsRandom) {
  auto log = make_log({acc(0, 0, 100, 10), acc(10, 0, 0, 10)}, 1);
  EXPECT_EQ(local_pattern(log).random, 1u);
}

TEST(Transitions, GlobalInterleavingLooksRandomLocalDoesNot) {
  // Two ranks each reading their half consecutively, interleaved in time:
  // locally consecutive, globally ping-ponging (the LBANN effect).
  std::vector<Access> v;
  for (int i = 0; i < 10; ++i) {
    v.push_back(acc(i * 20, 0, static_cast<Offset>(i) * 100, 100,
                    AccessType::Read));
    v.push_back(acc(i * 20 + 10, 1, 5000 + static_cast<Offset>(i) * 100, 100,
                    AccessType::Read));
  }
  auto log = make_log(std::move(v), 2);
  const auto local = local_pattern(log);
  const auto global = global_pattern(log);
  EXPECT_DOUBLE_EQ(local.frac_consecutive(), 1.0);
  EXPECT_GT(global.frac_random(), 0.4);
}

TEST(Transitions, MixAccumulates) {
  TransitionMix a{.consecutive = 1, .monotonic = 2, .random = 3};
  TransitionMix b{.consecutive = 10, .monotonic = 20, .random = 30};
  a += b;
  EXPECT_EQ(a.total(), 66u);
  EXPECT_EQ(a.consecutive, 11u);
}

TEST(Transitions, EmptyMixSafeFractions) {
  TransitionMix m;
  EXPECT_DOUBLE_EQ(m.frac_consecutive(), 0.0);
  EXPECT_DOUBLE_EQ(m.frac_random(), 0.0);
}

// --- file layout (Table 3) -------------------------------------------------

TEST(Layout, SingleWriterConsecutive) {
  auto log = make_log({acc(0, 0, 0, 8192), acc(10, 0, 8192, 8192)}, 4);
  EXPECT_EQ(classify_file_layout(log.at("f")), FileLayout::Consecutive);
}

TEST(Layout, SmallGapsToleratedAsConsecutive) {
  // 512-byte object-header gaps between 8K writes (the ENZO shape).
  auto log = make_log({acc(0, 0, 0, 8192), acc(10, 0, 8704, 8192),
                       acc(20, 0, 17408, 8192)},
                      1);
  EXPECT_EQ(classify_file_layout(log.at("f")), FileLayout::Consecutive);
}

TEST(Layout, IdenticalFullReadsConsecutive) {
  // Every rank reads the whole file (LBANN/VASP).
  std::vector<Access> v;
  for (Rank r = 0; r < 4; ++r) {
    for (int i = 0; i < 4; ++i) {
      v.push_back(acc(r * 5 + i * 40, r, static_cast<Offset>(i) * 8192, 8192,
                      AccessType::Read));
    }
  }
  EXPECT_EQ(classify_file_layout(make_log(std::move(v), 4).at("f")),
            FileLayout::Consecutive);
}

TEST(Layout, RankSegmentsAreStrided) {
  // One tiled segment per rank (MILC-parallel shape).
  std::vector<Access> v;
  for (Rank r = 0; r < 8; ++r) {
    v.push_back(acc(r * 10, r, static_cast<Offset>(r) * 65536, 65536));
  }
  EXPECT_EQ(classify_file_layout(make_log(std::move(v), 8).at("f")),
            FileLayout::Strided);
}

TEST(Layout, RepeatedAffineRoundsAreStridedCyclic) {
  // Collective rounds: each round the ranks tile one region (FLASH-fbs).
  std::vector<Access> v;
  SimTime t = 0;
  for (int round = 0; round < 4; ++round) {
    const Offset base = static_cast<Offset>(round) * 1'000'000;
    for (Rank r = 0; r < 6; ++r) {
      v.push_back(acc(t += 10, r, base + static_cast<Offset>(r) * 65536, 65536));
    }
  }
  EXPECT_EQ(classify_file_layout(make_log(std::move(v), 6).at("f")),
            FileLayout::StridedCyclic);
}

TEST(Layout, MonotonicIrregularIsStrided) {
  // Irregular forward-only per-rank progress (FLASH-nofbs shape).
  std::vector<Access> v;
  SimTime t = 0;
  Offset off = 0;
  for (int i = 0; i < 12; ++i) {
    const Rank r = i % 3;
    const Offset len = 4096 + static_cast<Offset>((i * 37) % 5000);
    v.push_back(acc(t += 10, r, off, len));
    off += len + 10'000;
  }
  EXPECT_EQ(classify_file_layout(make_log(std::move(v), 3).at("f")),
            FileLayout::Strided);
}

TEST(Layout, InterleavedOverwritesAreRandom) {
  std::vector<Access> v;
  SimTime t = 0;
  const Offset offs[] = {0, 90000, 4096, 70000, 8192, 10000};
  for (int i = 0; i < 6; ++i) {
    v.push_back(acc(t += 10, i % 2, offs[i], 8192));
  }
  EXPECT_EQ(classify_file_layout(make_log(std::move(v), 2).at("f")),
            FileLayout::Random);
}

TEST(Layout, MetadataFilteredOut) {
  // Big consecutive data writes plus tiny header rewrites at offset 0:
  // the headers must not drag the classification to random.
  std::vector<Access> v;
  SimTime t = 0;
  for (int i = 0; i < 5; ++i) {
    v.push_back(acc(t += 10, 0, 8192 + static_cast<Offset>(i) * 65536, 65536));
    v.push_back(acc(t += 10, 0, 0, 8));
  }
  EXPECT_EQ(classify_file_layout(make_log(std::move(v), 1).at("f")),
            FileLayout::Consecutive);
}

TEST(Layout, DominantTypeWinsOverReadback) {
  // A write-streamed file with one trailer read-back (pF3D) stays
  // consecutive.
  auto log = make_log({acc(0, 0, 0, 65536), acc(10, 0, 65536, 65536),
                       acc(20, 0, 126976, 4096, AccessType::Read)},
                      1);
  EXPECT_EQ(classify_file_layout(log.at("f")), FileLayout::Consecutive);
}

// --- high-level X-Y classification -----------------------------------------

AccessLog multi_file_log(
    const std::vector<std::pair<std::string, std::vector<Access>>>& files,
    int nranks) {
  AccessLog log;
  log.nranks = nranks;
  for (auto [path, accesses] : files) {
    std::sort(accesses.begin(), accesses.end(),
              [](const Access& a, const Access& b) { return a.t < b.t; });
    FileLog fl;
    fl.accesses = std::move(accesses);
    log.put(path, std::move(fl));
  }
  return log;
}

TEST(HighLevel, FilePerProcessIsNN) {
  std::vector<std::pair<std::string, std::vector<Access>>> files;
  for (Rank r = 0; r < 4; ++r) {
    files.push_back({"out." + std::to_string(r),
                     {acc(r * 10, r, 0, 65536), acc(r * 10 + 5, r, 65536, 65536)}});
  }
  const auto hl = classify_high_level(multi_file_log(files, 4), 4);
  EXPECT_EQ(hl.xy, "N-N");
  EXPECT_EQ(hl.layout, FileLayout::Consecutive);
  EXPECT_EQ(hl.io_ranks, 4);
}

TEST(HighLevel, SharedFileAllRanksIsN1) {
  std::vector<Access> v;
  for (Rank r = 0; r < 4; ++r) {
    v.push_back(acc(r * 10, r, static_cast<Offset>(r) * 100000, 65536));
  }
  const auto hl = classify_high_level(make_log(std::move(v), 4), 4);
  EXPECT_EQ(hl.xy, "N-1");
  EXPECT_EQ(hl.layout, FileLayout::Strided);
}

TEST(HighLevel, SubsetWritersSharedFileIsM1) {
  std::vector<Access> v;
  for (Rank r = 0; r < 3; ++r) {  // 3 of 8 ranks
    v.push_back(acc(r * 10, r * 2, static_cast<Offset>(r) * 100000, 65536));
  }
  EXPECT_EQ(classify_high_level(make_log(std::move(v), 8), 8).xy, "M-1");
}

TEST(HighLevel, SingleRankIs11) {
  auto log = make_log({acc(0, 3, 0, 65536), acc(10, 3, 65536, 65536)}, 8);
  EXPECT_EQ(classify_high_level(log, 8).xy, "1-1");
}

TEST(HighLevel, GroupFilesAreNM) {
  // 8 ranks, 2 group files of 4 writers each.
  std::vector<std::pair<std::string, std::vector<Access>>> files(2);
  for (int g = 0; g < 2; ++g) {
    files[static_cast<std::size_t>(g)].first = "group." + std::to_string(g);
    for (int i = 0; i < 4; ++i) {
      const Rank r = g * 4 + i;
      files[static_cast<std::size_t>(g)].second.push_back(
          acc(r * 10, r, static_cast<Offset>(i) * 100000, 65536));
    }
  }
  EXPECT_EQ(classify_high_level(multi_file_log(files, 8), 8).xy, "N-M");
}

TEST(HighLevel, SubsetFilePerWriterIsMM) {
  std::vector<std::pair<std::string, std::vector<Access>>> files;
  for (int w = 0; w < 3; ++w) {  // 3 of 16 ranks, one file each
    files.push_back({"dict." + std::to_string(w * 5),
                     {acc(w * 10, w * 5, 0, 65536)}});
  }
  EXPECT_EQ(classify_high_level(multi_file_log(files, 16), 16).xy, "M-M");
}

TEST(HighLevel, DominantFamilyWinsByBytes) {
  // Big N-1 read family + tiny 1-1 write family: the read family decides.
  std::vector<std::pair<std::string, std::vector<Access>>> files(2);
  files[0].first = "dataset.bin";
  for (Rank r = 0; r < 4; ++r) {
    for (int i = 0; i < 8; ++i) {
      files[0].second.push_back(acc(r * 100 + i, r,
                                    static_cast<Offset>(i) * 65536, 65536,
                                    AccessType::Read));
    }
  }
  files[1].first = "log.txt";
  files[1].second.push_back(acc(5000, 0, 0, 8192));
  const auto hl = classify_high_level(multi_file_log(files, 4), 4);
  EXPECT_EQ(hl.xy, "N-1");
  EXPECT_EQ(hl.layout, FileLayout::Consecutive);
  EXPECT_EQ(hl.dominant_file, "dataset.bin");
}

TEST(HighLevel, NumberedFilesGroupIntoOneFamily) {
  // Per-checkpoint numbered files must land in one family so the family
  // file count reflects the series.
  std::vector<std::pair<std::string, std::vector<Access>>> files;
  for (int c = 0; c < 3; ++c) {
    std::vector<Access> v;
    for (Rank r = 0; r < 4; ++r) {
      v.push_back(acc(c * 1000 + r * 10, r, static_cast<Offset>(r) * 100000,
                      65536));
    }
    files.push_back({"chk_" + std::to_string(c), std::move(v)});
  }
  const auto hl = classify_high_level(multi_file_log(files, 4), 4);
  EXPECT_EQ(hl.xy, "N-1");
  EXPECT_EQ(hl.family_files, 3);
}

TEST(HighLevel, EmptyLogSafe) {
  AccessLog log;
  log.nranks = 4;
  EXPECT_EQ(classify_high_level(log, 4).xy, "0-0");
}

// --- differential against the tree-grouped classifiers --------------------

// The rank-keyed std::map / std::set versions of classify_file_layout,
// local_transitions and file_family_stats that the rank-grouped ones
// replaced, kept verbatim as the oracle.
namespace oracle {

using Seq = std::vector<const Access*>;

void count_transitions(TransitionMix& mix, const Seq& seq) {
  for (std::size_t i = 1; i < seq.size(); ++i) {
    const Offset prev_end = seq[i - 1]->ext.end;
    const Offset begin = seq[i]->ext.begin;
    if (begin == prev_end) {
      ++mix.consecutive;
    } else if (begin > prev_end) {
      ++mix.monotonic;
    } else {
      ++mix.random;
    }
  }
}

Seq data_accesses(const FileLog& file, const PatternOptions& opts) {
  std::uint64_t wbytes = 0, rbytes = 0;
  for (const auto& a : file.accesses) {
    if (a.ext.size() < opts.min_data_bytes) continue;
    (a.type == AccessType::Write ? wbytes : rbytes) += a.ext.size();
  }
  const AccessType dominant =
      wbytes >= rbytes ? AccessType::Write : AccessType::Read;
  Seq out;
  for (const auto& a : file.accesses) {
    if (a.ext.size() >= opts.min_data_bytes && a.type == dominant) {
      out.push_back(&a);
    }
  }
  if (out.empty()) {
    for (const auto& a : file.accesses) out.push_back(&a);
  }
  return out;
}

bool is_consecutive(const Seq& seq, Offset gap = 0) {
  for (std::size_t i = 1; i < seq.size(); ++i) {
    const Offset begin = seq[i]->ext.begin;
    const Offset prev_end = seq[i - 1]->ext.end;
    if (begin < prev_end || begin > prev_end + gap) return false;
  }
  return true;
}

bool is_monotonic(const Seq& seq) {
  for (std::size_t i = 1; i < seq.size(); ++i) {
    if (seq[i]->ext.begin < seq[i - 1]->ext.end) return false;
  }
  return true;
}

bool is_arithmetic(const Seq& seq) {
  if (seq.size() < 2) return false;
  const auto stride = static_cast<std::int64_t>(seq[1]->ext.begin) -
                      static_cast<std::int64_t>(seq[0]->ext.begin);
  if (stride <= 0) return false;
  for (std::size_t i = 1; i < seq.size(); ++i) {
    const auto d = static_cast<std::int64_t>(seq[i]->ext.begin) -
                   static_cast<std::int64_t>(seq[i - 1]->ext.begin);
    if (d != stride) return false;
  }
  return true;
}

std::int64_t round_stride(std::vector<std::pair<Rank, Offset>> round) {
  if (round.size() < 2) return 0;
  std::sort(round.begin(), round.end());
  const auto stride = static_cast<std::int64_t>(round[1].second) -
                      static_cast<std::int64_t>(round[0].second);
  if (stride <= 0) return 0;
  for (std::size_t i = 1; i < round.size(); ++i) {
    const auto d = static_cast<std::int64_t>(round[i].second) -
                   static_cast<std::int64_t>(round[i - 1].second);
    if (d != stride) return 0;
  }
  return stride;
}

TransitionMix local_transitions(const FileLog& file) {
  TransitionMix mix;
  std::map<Rank, Seq> per_rank;
  for (const auto& a : file.accesses) per_rank[a.rank].push_back(&a);
  for (const auto& [rank, seq] : per_rank) count_transitions(mix, seq);
  return mix;
}

FileLayout classify_file_layout(const FileLog& file, PatternOptions opts) {
  const auto data = data_accesses(file, opts);
  if (data.size() < 2) return FileLayout::Consecutive;

  std::map<Rank, Seq> per_rank;
  for (const auto* a : data) per_rank[a->rank].push_back(a);

  const Offset gap_tol = opts.consecutive_gap_tolerance;
  const bool all_rank_consecutive = std::all_of(
      per_rank.begin(), per_rank.end(),
      [gap_tol](const auto& kv) { return is_consecutive(kv.second, gap_tol); });
  if (all_rank_consecutive) {
    if (per_rank.size() == 1) return FileLayout::Consecutive;
    std::vector<Extent> segs;
    for (const auto& [rank, seq] : per_rank) {
      segs.push_back({seq.front()->ext.begin, seq.back()->ext.end});
    }
    std::sort(segs.begin(), segs.end(),
              [](const Extent& a, const Extent& b) { return a.begin < b.begin; });
    const bool identical = std::all_of(
        segs.begin(), segs.end(), [&](const Extent& e) { return e == segs[0]; });
    if (identical) return FileLayout::Consecutive;
    bool disjoint = true;
    for (std::size_t i = 1; i < segs.size(); ++i) {
      if (segs[i].begin < segs[i - 1].end) {
        disjoint = false;
        break;
      }
    }
    if (disjoint) return FileLayout::Strided;
  }

  {
    std::vector<std::vector<std::pair<Rank, Offset>>> rounds;
    std::set<Rank> seen;
    rounds.emplace_back();
    for (const auto* a : data) {
      if (seen.contains(a->rank)) {
        rounds.emplace_back();
        seen.clear();
      }
      seen.insert(a->rank);
      rounds.back().emplace_back(a->rank, a->ext.begin);
    }
    std::size_t multi = 0, affine = 0;
    std::int64_t common_stride = 0;
    bool strides_agree = true;
    for (auto& r : rounds) {
      if (r.size() < 2) continue;
      ++multi;
      const std::int64_t stride = round_stride(r);
      if (stride > 0) {
        ++affine;
        if (common_stride == 0) {
          common_stride = stride;
        } else if (stride != common_stride) {
          strides_agree = false;
        }
      }
    }
    if (multi >= 2 && strides_agree && affine * 5 >= multi * 4) {
      return FileLayout::StridedCyclic;
    }
    if (multi == 1 && affine == 1 && rounds.size() <= 2) return FileLayout::Strided;
  }

  if (std::all_of(per_rank.begin(), per_rank.end(), [](const auto& kv) {
        return kv.second.size() < 2 || is_arithmetic(kv.second) ||
               is_consecutive(kv.second);
      })) {
    return FileLayout::Strided;
  }

  if (std::all_of(per_rank.begin(), per_rank.end(),
                  [](const auto& kv) { return is_monotonic(kv.second); })) {
    return FileLayout::Strided;
  }

  return FileLayout::Random;
}

FileFamilyStats file_family_stats(const FileLog& file,
                                  const PatternOptions& opts) {
  const auto data = data_accesses(file, opts);
  FileFamilyStats s;
  std::set<Rank> writers, io_ranks;
  for (const auto* a : data) {
    s.bytes += a->ext.size();
    io_ranks.insert(a->rank);
    if (a->type == AccessType::Write) writers.insert(a->rank);
  }
  s.io_ranks.assign(io_ranks.begin(), io_ranks.end());
  s.writers = writers.size();
  return s;
}

}  // namespace oracle

/// A random single-file log in time order (ties kept in generation
/// order): a shape (affine rounds, per-rank segments, one rank, or
/// scattered) over a dense or sparse subset of 1-4096 ranks, with coarse
/// timestamps so many accesses share one, small metadata-sized accesses,
/// read-backs and small gaps mixed in.
FileLog random_file(Rng& rng) {
  static constexpr std::array<std::uint64_t, 4> kRankCaps = {1, 8, 256, 4096};
  const auto nranks =
      static_cast<Rank>(1 + rng.below(kRankCaps[rng.below(kRankCaps.size())]));
  std::vector<Rank> ranks;
  const auto want = 1 + rng.below(std::min<std::uint64_t>(nranks, 48));
  const bool dense = rng.chance(0.5);
  const auto first = static_cast<Rank>(rng.below(static_cast<std::uint64_t>(nranks)));
  for (std::uint64_t k = 0; k < want; ++k) {
    ranks.push_back(dense ? static_cast<Rank>((first + static_cast<Rank>(k)) % nranks)
                          : static_cast<Rank>(rng.below(static_cast<std::uint64_t>(nranks))));
  }
  std::sort(ranks.begin(), ranks.end());
  ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
  const Offset block = rng.chance(0.7) ? 65536 : 1 + rng.below(8192);
  const SimTime tick = 1 + static_cast<SimTime>(rng.below(3));
  const std::uint64_t steps = rng.chance(0.1) ? 0 : 1 + rng.below(12);
  const auto shape = rng.below(4);
  std::vector<Access> v;
  const auto push = [&](SimTime t, Rank r, Offset begin, Offset len) {
    Access a;
    a.t = t;
    a.rank = r;
    a.ext = {begin, begin + len};
    a.type = rng.chance(0.1) ? AccessType::Read : AccessType::Write;
    v.push_back(a);
    if (rng.chance(0.05)) {  // interspersed metadata
      Access m = a;
      m.ext = {begin + len, begin + len + 1 + rng.below(512)};
      v.push_back(m);
    }
  };
  for (std::uint64_t k = 0; k < steps; ++k) {
    const SimTime t = static_cast<SimTime>(k / tick) * 10;
    for (std::size_t i = 0; i < ranks.size(); ++i) {
      const Rank r = ranks[i];
      const Offset gap = rng.chance(0.1) ? rng.below(2048) : 0;
      switch (shape) {
        case 0:  // affine rounds: rank slot i of round k
          push(t, r, (k * ranks.size() + i) * block + gap, block);
          break;
        case 1:  // per-rank segments
          push(t, r, static_cast<Offset>(i) * steps * block + k * block + gap,
               block);
          break;
        case 2:  // one rank streams
          if (i == 0) push(t, r, k * block + gap, block);
          break;
        default:  // scattered
          push(t + static_cast<SimTime>(rng.below(3)), r,
               rng.below(64) * block, block);
          break;
      }
    }
  }
  std::stable_sort(v.begin(), v.end(),
                   [](const Access& a, const Access& b) { return a.t < b.t; });
  FileLog fl;
  fl.accesses = std::move(v);
  return fl;
}

/// Compare the three rank-grouping classifiers with the oracle on one
/// file under two option sets; returns each set's layout.
std::array<FileLayout, 2> expect_matches_oracle(const FileLog& fl,
                                                std::uint64_t seed) {
  const std::array<PatternOptions, 2> options = {
      PatternOptions{},
      PatternOptions{.min_data_bytes = 0, .consecutive_gap_tolerance = 0}};
  std::array<FileLayout, 2> layouts{};
  for (std::size_t o = 0; o < options.size(); ++o) {
    const PatternOptions& opts = options[o];
    layouts[o] = classify_file_layout(fl, opts);
    EXPECT_EQ(layouts[o], oracle::classify_file_layout(fl, opts))
        << "seed " << seed;
    const FileFamilyStats fam = file_family_stats(fl, opts);
    const FileFamilyStats want = oracle::file_family_stats(fl, opts);
    EXPECT_EQ(fam.bytes, want.bytes) << "seed " << seed;
    EXPECT_EQ(fam.io_ranks, want.io_ranks) << "seed " << seed;
    EXPECT_EQ(fam.writers, want.writers) << "seed " << seed;
  }
  const TransitionMix mix = local_transitions(fl);
  const TransitionMix want = oracle::local_transitions(fl);
  EXPECT_EQ(mix.consecutive, want.consecutive) << "seed " << seed;
  EXPECT_EQ(mix.monotonic, want.monotonic) << "seed " << seed;
  EXPECT_EQ(mix.random, want.random) << "seed " << seed;
  return layouts;
}

TEST(PatternDifferential, RankGroupingMatchesTreeOracle) {
  std::array<int, 4> layouts{};
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    for (const FileLayout l : expect_matches_oracle(random_file(rng), seed)) {
      ++layouts[static_cast<std::size_t>(l)];
    }
  }
  // The generator reaches every layout class, so each rule was compared.
  for (std::size_t l = 0; l < layouts.size(); ++l) {
    EXPECT_GT(layouts[l], 0) << to_string(static_cast<FileLayout>(l));
  }
}

TEST(PatternDifferential, RanksSpreadOverTheWholeIntRangeMatchTreeOracle) {
  // Hand-built logs may carry any int rank. An odd multiplier maps the
  // generator's ranks one-to-one onto values across the whole int range,
  // negative ones included, so the grouping needs several radix passes.
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    Rng rng(seed);
    FileLog fl = random_file(rng);
    for (Access& a : fl.accesses) {
      a.rank = static_cast<Rank>(static_cast<std::uint32_t>(a.rank) *
                                 2654435761u);
    }
    (void)expect_matches_oracle(fl, seed);
  }
}

}  // namespace
}  // namespace pfsem::core
