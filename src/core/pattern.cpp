#include "pfsem/core/pattern.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <set>

namespace pfsem::core {

const char* to_string(FileLayout l) {
  switch (l) {
    case FileLayout::Consecutive: return "consecutive";
    case FileLayout::Strided: return "strided";
    case FileLayout::StridedCyclic: return "strided-cyclic";
    case FileLayout::Random: return "random";
  }
  return "?";
}

namespace {

using AccessSeq = std::span<const Access* const>;

// The sequence predicates below take an AccessSeq or a RankSeq: anything
// with size() and operator[] yielding `const Access*`.

template <class Seq>
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

/// Data accesses of the file: metadata-sized ops filtered out, and only
/// the dominant access type kept (a verification read-back must not make
/// a write-streamed file look random, and vice versa). Falls back to the
/// unfiltered list if the filter removes everything.
std::vector<const Access*> data_accesses(const FileLog& file,
                                         const PatternOptions& opts) {
  std::uint64_t wbytes = 0, rbytes = 0;
  for (const auto& a : file.accesses) {
    if (a.ext.size() < opts.min_data_bytes) continue;
    (a.type == AccessType::Write ? wbytes : rbytes) += a.ext.size();
  }
  const AccessType dominant =
      wbytes >= rbytes ? AccessType::Write : AccessType::Read;
  std::vector<const Access*> out;
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

/// True if every adjacent transition moves forward by at most `gap` bytes
/// (interspersed metadata is allowed to fill small gaps).
template <class Seq>
bool is_consecutive(const Seq& seq, Offset gap = 0) {
  for (std::size_t i = 1; i < seq.size(); ++i) {
    const Offset begin = seq[i]->ext.begin;
    const Offset prev_end = seq[i - 1]->ext.end;
    if (begin < prev_end || begin > prev_end + gap) return false;
  }
  return true;
}

template <class Seq>
bool is_monotonic(const Seq& seq) {
  for (std::size_t i = 1; i < seq.size(); ++i) {
    if (seq[i]->ext.begin < seq[i - 1]->ext.end) return false;
  }
  return true;
}

/// All gaps between successive accesses equal (arithmetic progression of
/// starts with constant stride >= access size).
template <class Seq>
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

/// One rank's accesses in time order: seq[idx[0]], seq[idx[1]], ...
struct RankSeq {
  AccessSeq seq;
  std::span<const std::uint32_t> idx;

  [[nodiscard]] std::size_t size() const { return idx.size(); }
  [[nodiscard]] const Access* operator[](std::size_t k) const {
    return seq[idx[k]];
  }
};

/// A time-ordered access sequence grouped by rank: `order` indexes the
/// input, ranks ascending and time order kept within each rank; run r
/// (one rank) is order[starts[r], starts[r+1]).
struct RankRuns {
  std::vector<std::uint32_t> order;
  std::vector<std::size_t> starts;

  [[nodiscard]] std::size_t runs() const { return starts.size() - 1; }
  /// Run `r` over the sequence that was grouped.
  [[nodiscard]] RankSeq run(AccessSeq seq, std::size_t r) const {
    return {seq,
            std::span(order).subspan(starts[r], starts[r + 1] - starts[r])};
  }
};

/// Stable grouping by rank: an LSD radix sort on rank minus the file's
/// lowest rank. Each pass is a counting sort on a digit no wider than
/// the access count, so a pass costs O(n) however sparse the file's
/// ranks are; a dense file (rank range within the access count, up to
/// 2^16 ranks) takes one pass.
RankRuns group_by_rank(AccessSeq seq) {
  RankRuns g;
  const std::size_t n = seq.size();
  g.order.resize(n);
  std::iota(g.order.begin(), g.order.end(), 0u);
  g.starts.push_back(0);
  if (n == 0) return g;
  const auto [lo, hi] = std::minmax_element(
      seq.begin(), seq.end(),
      [](const Access* a, const Access* b) { return a->rank < b->rank; });
  const Rank base = (*lo)->rank;
  const auto key = [&](std::uint32_t i) {
    return static_cast<std::uint32_t>(static_cast<std::int64_t>(seq[i]->rank) -
                                      base);
  };
  const int key_bits = std::bit_width(static_cast<std::uint32_t>(
      static_cast<std::int64_t>((*hi)->rank) - base));
  const int digit_bits =
      std::min(key_bits, std::clamp<int>(std::bit_width(n), 8, 16));
  // Each pass reads the previous pass's order (the identity before the
  // first) and scatters into g.order.
  std::vector<std::uint32_t> from, at;
  for (int shift = 0; shift < key_bits; shift += digit_bits) {
    const std::uint32_t mask = (1u << digit_bits) - 1;
    const auto src = [&](std::size_t k) {
      return from.empty() ? static_cast<std::uint32_t>(k) : from[k];
    };
    const auto digit = [&](std::uint32_t i) {
      return (key(i) >> shift) & mask;
    };
    at.assign(std::size_t{mask} + 2, 0);
    for (std::size_t k = 0; k < n; ++k) ++at[digit(src(k)) + 1];
    std::partial_sum(at.begin(), at.end(), at.begin());
    for (std::size_t k = 0; k < n; ++k) g.order[at[digit(src(k))]++] = src(k);
    if (shift + digit_bits < key_bits) from = g.order;
  }
  for (std::size_t k = 1; k < n; ++k) {
    if (seq[g.order[k]]->rank != seq[g.order[k - 1]]->rank) {
      g.starts.push_back(k);
    }
  }
  g.starts.push_back(n);
  return g;
}

/// Pointers to every access of `file`, in time order.
std::vector<const Access*> all_accesses(const FileLog& file) {
  std::vector<const Access*> seq;
  seq.reserve(file.accesses.size());
  for (const auto& a : file.accesses) seq.push_back(&a);
  return seq;
}

/// Offsets of one "round" (one access per rank), sorted by rank, equally
/// spaced — the paper's "process i accesses offset a*i+b" phase shape.
/// Returns the stride a, or 0 when the round is not affine.
std::int64_t round_stride(AccessSeq accesses) {
  if (accesses.size() < 2) return 0;
  std::vector<std::pair<Rank, Offset>> round;
  round.reserve(accesses.size());
  for (const Access* a : accesses) round.emplace_back(a->rank, a->ext.begin);
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

}  // namespace

TransitionMix local_transitions(const FileLog& file) {
  TransitionMix mix;
  const auto seq = all_accesses(file);
  const RankRuns g = group_by_rank(seq);
  for (std::size_t r = 0; r < g.runs(); ++r) {
    count_transitions(mix, g.run(seq, r));
  }
  return mix;
}

TransitionMix global_transitions(const FileLog& file) {
  TransitionMix mix;
  count_transitions(mix, all_accesses(file));  // time order
  return mix;
}

TransitionMix local_pattern(const AccessLog& log) {
  TransitionMix mix;
  for (const auto& fl : log.files) mix += local_transitions(fl);
  return mix;
}

TransitionMix global_pattern(const AccessLog& log) {
  TransitionMix mix;
  for (const auto& fl : log.files) mix += global_transitions(fl);
  return mix;
}

FileLayout classify_file_layout(const FileLog& file, PatternOptions opts) {
  const auto data = data_accesses(file, opts);
  if (data.size() < 2) return FileLayout::Consecutive;

  const RankRuns g = group_by_rank(data);
  const auto each_rank = [&](auto&& pred) {
    for (std::size_t r = 0; r < g.runs(); ++r) {
      if (!pred(g.run(data, r))) return false;
    }
    return true;
  };

  // Rule 1: every rank's own stream is consecutive (small metadata-fill
  // gaps tolerated). A single writer, or every rank covering the same
  // range, is the paper's "consecutive" class; per-process segments at
  // offset a*i+b (tiled or gapped) are its "strided" class.
  const Offset gap_tol = opts.consecutive_gap_tolerance;
  if (each_rank([gap_tol](const RankSeq& seq) {
        return is_consecutive(seq, gap_tol);
      })) {
    if (g.runs() == 1) return FileLayout::Consecutive;
    // Per-rank overall segments.
    std::vector<Extent> segs;
    for (std::size_t r = 0; r < g.runs(); ++r) {
      const RankSeq seq = g.run(data, r);
      segs.push_back({seq[0]->ext.begin, seq[seq.size() - 1]->ext.end});
    }
    std::sort(segs.begin(), segs.end(),
              [](const Extent& a, const Extent& b) { return a.begin < b.begin; });
    const bool identical = std::all_of(
        segs.begin(), segs.end(), [&](const Extent& e) { return e == segs[0]; });
    if (identical) return FileLayout::Consecutive;  // e.g. everyone reads all
    bool disjoint = true;
    for (std::size_t i = 1; i < segs.size(); ++i) {
      if (segs[i].begin < segs[i - 1].end) {
        disjoint = false;
        break;
      }
    }
    if (disjoint) return FileLayout::Strided;  // one segment per process
  }

  // Rule 2: round structure — split the time-ordered stream each time a
  // rank repeats; affine rounds repeated over >= 2 rounds are the
  // collective-I/O "strided cyclic" shape, a single affine round is
  // "strided".
  {
    // Rank run of each access (time order), and the last round each run
    // joined: a repeat within the current round opens the next one, so
    // rounds are contiguous stretches of the time-ordered stream.
    std::vector<std::uint32_t> run_of(data.size());
    for (std::size_t r = 0; r < g.runs(); ++r) {
      for (std::size_t k = g.starts[r]; k < g.starts[r + 1]; ++k) {
        run_of[g.order[k]] = static_cast<std::uint32_t>(r);
      }
    }
    // Round k is data[round_starts[k], round_starts[k+1]).
    constexpr std::size_t kNone = ~std::size_t{0};
    std::vector<std::size_t> last_round(g.runs(), kNone);
    std::vector<std::size_t> round_starts{0};
    for (std::size_t i = 0; i < data.size(); ++i) {
      std::size_t& last = last_round[run_of[i]];
      if (last == round_starts.size() - 1) round_starts.push_back(i);
      last = round_starts.size() - 1;
    }
    round_starts.push_back(data.size());
    const std::size_t nrounds = round_starts.size() - 1;
    std::size_t multi = 0, affine = 0;
    std::int64_t common_stride = 0;
    bool strides_agree = true;
    for (std::size_t k = 0; k < nrounds; ++k) {
      const AccessSeq round = AccessSeq(data).subspan(
          round_starts[k], round_starts[k + 1] - round_starts[k]);
      if (round.size() < 2) continue;
      ++multi;
      const std::int64_t stride = round_stride(round);
      if (stride > 0) {
        ++affine;
        if (common_stride == 0) {
          common_stride = stride;
        } else if (stride != common_stride) {
          strides_agree = false;  // incidental affinity, not a cyclic phase
        }
      }
    }
    if (multi >= 2 && strides_agree && affine * 5 >= multi * 4) {
      return FileLayout::StridedCyclic;
    }
    if (multi == 1 && affine == 1 && nrounds <= 2) return FileLayout::Strided;
  }

  // Rule 3: per-rank arithmetic progressions (array-of-structs striding).
  if (each_rank([](const RankSeq& seq) {
        return seq.size() < 2 || is_arithmetic(seq) || is_consecutive(seq);
      })) {
    return FileLayout::Strided;
  }

  // Rule 4: per-rank monotonic forward progress with irregular gaps
  // (independent-I/O FLASH), still "strided" in the paper's loose sense.
  if (each_rank([](const RankSeq& seq) { return is_monotonic(seq); })) {
    return FileLayout::Strided;
  }

  return FileLayout::Random;
}

FileFamilyStats file_family_stats(const FileLog& file,
                                  const PatternOptions& opts) {
  const auto data = data_accesses(file, opts);
  FileFamilyStats s;
  for (const auto* a : data) s.bytes += a->ext.size();
  const RankRuns g = group_by_rank(data);
  for (std::size_t r = 0; r < g.runs(); ++r) {
    const auto first =
        g.order.begin() + static_cast<std::ptrdiff_t>(g.starts[r]);
    const auto last =
        g.order.begin() + static_cast<std::ptrdiff_t>(g.starts[r + 1]);
    s.io_ranks.push_back(data[*first]->rank);
    s.writers += std::any_of(first, last, [&](std::uint32_t i) {
      return data[i]->type == AccessType::Write;
    });
  }
  return s;
}

HighLevelPattern classify_families(
    std::span<const FamilyFileInput> files_by_path, int nranks,
    FileId* dominant) {
  *dominant = kNoFile;
  // Group files into families: digit runs in the path are wildcards, so
  // "chk_0001" and "chk_0002" (or per-rank "out.17") are one family.
  auto family_key = [](std::string_view path) {
    std::string key;
    bool in_digits = false;
    for (char ch : path) {
      if (ch >= '0' && ch <= '9') {
        if (!in_digits) key += '#';
        in_digits = true;
      } else {
        key += ch;
        in_digits = false;
      }
    }
    return key;
  };

  struct Family {
    std::uint64_t bytes = 0;
    std::set<Rank> ranks;
    std::size_t max_writers_per_file = 0;
    std::size_t max_io_ranks_per_file = 0;
    int files = 0;
    FileId dominant = kNoFile;
    std::string_view dominant_path;
    std::uint64_t dominant_bytes = 0;
  };
  // Families interned like paths: dense ids, Family slots in a vector.
  // Files are visited in path order (the retired map's iteration order),
  // so dominant-file ties resolve exactly as before.
  trace::PathTable family_keys;
  std::vector<Family> families;
  for (const FamilyFileInput& in : files_by_path) {
    const FileFamilyStats& st = *in.stats;
    if (st.bytes == 0) continue;
    const FileId fam_id = family_keys.intern(family_key(in.path));
    if (fam_id >= families.size()) families.resize(fam_id + 1);
    Family& fam = families[fam_id];
    fam.bytes += st.bytes;
    fam.ranks.insert(st.io_ranks.begin(), st.io_ranks.end());
    fam.max_writers_per_file = std::max(fam.max_writers_per_file, st.writers);
    fam.max_io_ranks_per_file =
        std::max(fam.max_io_ranks_per_file, st.io_ranks.size());
    ++fam.files;
    if (st.bytes > fam.dominant_bytes) {
      fam.dominant_bytes = st.bytes;
      fam.dominant = in.id;
      fam.dominant_path = in.path;
    }
  }

  HighLevelPattern out;
  // Scan families in sorted-key order so byte-count ties pick the same
  // family the string-keyed map did.
  std::vector<FileId> fam_order(families.size());
  for (FileId i = 0; i < families.size(); ++i) fam_order[i] = i;
  std::sort(fam_order.begin(), fam_order.end(), [&](FileId a, FileId b) {
    return family_keys.view(a) < family_keys.view(b);
  });
  const Family* best = nullptr;
  for (const FileId i : fam_order) {
    if (!best || families[i].bytes > best->bytes) best = &families[i];
  }
  if (!best || best->dominant == kNoFile) {
    out.xy = "0-0";
    return out;
  }

  const auto w = static_cast<int>(best->ranks.size());
  const char x = w == nranks ? 'N' : (w == 1 ? '1' : 'M');
  // Sharing shape: per-process files vs one shared file vs group files.
  const std::size_t per_file =
      std::max<std::size_t>(best->max_writers_per_file, 1);
  char y;
  if (per_file <= 1 && best->max_io_ranks_per_file <= 1) {
    y = x;  // matching per-process files: N-N / M-M / 1-1
  } else if (best->max_io_ranks_per_file >= best->ranks.size()) {
    y = '1';  // every participating rank shares each file
  } else {
    y = 'M';  // group files
  }
  out.xy = std::string(1, x) + "-" + std::string(1, y);
  out.io_ranks = w;
  out.family_files = best->files;
  out.dominant_file = std::string(best->dominant_path);
  *dominant = best->dominant;
  return out;
}

HighLevelPattern classify_high_level(const AccessLog& log, int nranks,
                                     PatternOptions opts) {
  const std::vector<FileId> ids = log.ids_by_path();
  std::vector<FileFamilyStats> stats(ids.size());
  std::vector<FamilyFileInput> inputs(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    stats[i] = file_family_stats(log.files[ids[i]], opts);
    inputs[i] = {ids[i], log.path(ids[i]), &stats[i]};
  }
  FileId dominant = kNoFile;
  HighLevelPattern out = classify_families(inputs, nranks, &dominant);
  // Layout resolved here (not inside the aggregation) so the windowed
  // path can substitute the layout it already computed per file.
  if (dominant != kNoFile) {
    out.layout = classify_file_layout(log.files[dominant], opts);
  }
  return out;
}

}  // namespace pfsem::core
