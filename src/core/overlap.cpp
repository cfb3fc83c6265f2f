#include "pfsem/core/overlap.hpp"

#include <algorithm>

namespace pfsem::core {

namespace {

/// Canonicalize so pair ordering is deterministic regardless of algorithm.
void canonicalize(std::vector<OverlapPair>& pairs) {
  for (auto& p : pairs) {
    if (p.first > p.second) std::swap(p.first, p.second);
  }
  std::sort(pairs.begin(), pairs.end(), [](const OverlapPair& a, const OverlapPair& b) {
    return a.first != b.first ? a.first < b.first : a.second < b.second;
  });
}

bool relevant(const Access& a, const Access& b, const OverlapOptions& opts) {
  return !opts.writes_only || a.type == AccessType::Write ||
         b.type == AccessType::Write;
}

/// Indices of the non-empty extents, sorted by (begin, index). Empty
/// extents overlap nothing and are dropped here, before any engine runs.
std::vector<std::uint32_t> begin_order(std::span<const Access> accesses) {
  std::vector<std::uint32_t> order;
  order.reserve(accesses.size());
  for (std::uint32_t i = 0; i < accesses.size(); ++i) {
    if (!accesses[i].ext.empty()) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return accesses[a].ext.begin != accesses[b].ext.begin
               ? accesses[a].ext.begin < accesses[b].ext.begin
               : a < b;
  });
  return order;
}

/// Scan one active list against an incoming access: entries that ended
/// at or before `begin` are expired and compacted away; every survivor
/// overlaps the incoming access (its begin is <= ours, its end is past
/// ours) and emits a pair.
void scan_actives(std::span<const Access> accesses,
                  std::vector<std::uint32_t>& act, Offset begin,
                  std::uint32_t incoming, std::vector<OverlapPair>& out) {
  std::size_t keep = 0;
  for (const std::uint32_t j : act) {
    if (accesses[j].ext.end <= begin) continue;
    act[keep++] = j;
    out.push_back({j, incoming});
  }
  act.resize(keep);
}

}  // namespace

std::vector<OverlapPair> detect_overlaps(std::span<const Access> accesses,
                                         OverlapOptions opts) {
  // Sweep the begin-sorted order once. Reads and writes live in separate
  // active lists: an incoming write pairs with both, an incoming read
  // only with the writes (when writes_only is set), so read-read
  // candidates are never visited.
  std::vector<OverlapPair> pairs;
  std::vector<std::uint32_t> active_w, active_r;
  for (const std::uint32_t idx : begin_order(accesses)) {
    const Access& a = accesses[idx];
    const bool is_write = a.type == AccessType::Write;
    scan_actives(accesses, active_w, a.ext.begin, idx, pairs);
    if (is_write || !opts.writes_only) {
      scan_actives(accesses, active_r, a.ext.begin, idx, pairs);
    }
    (is_write ? active_w : active_r).push_back(idx);
  }
  canonicalize(pairs);
  return pairs;
}

std::vector<OverlapPair> detect_overlaps_scan(std::span<const Access> accesses,
                                              OverlapOptions opts) {
  const auto order = begin_order(accesses);
  std::vector<OverlapPair> pairs;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const Access& ai = accesses[order[i]];
    for (std::size_t j = i + 1; j < order.size(); ++j) {
      const Access& aj = accesses[order[j]];
      if (aj.ext.begin >= ai.ext.end) break;  // sorted starts: no more overlaps
      if (!relevant(ai, aj, opts)) continue;
      pairs.push_back({order[i], order[j]});
    }
  }
  canonicalize(pairs);
  return pairs;
}

std::vector<OverlapPair> detect_overlaps_naive(std::span<const Access> accesses,
                                               OverlapOptions opts) {
  std::vector<OverlapPair> pairs;
  for (std::size_t i = 0; i < accesses.size(); ++i) {
    for (std::size_t j = i + 1; j < accesses.size(); ++j) {
      if (!accesses[i].ext.overlaps(accesses[j].ext)) continue;
      if (!relevant(accesses[i], accesses[j], opts)) continue;
      pairs.push_back({i, j});
    }
  }
  canonicalize(pairs);
  return pairs;
}

FileOverlaps detect_file_overlaps(const AccessLog& log, OverlapOptions opts,
                                  int /*threads*/) {
  // One sweep per store slot, so the result is indexed by FileId.
  FileOverlaps out(log.files.size());
  for (std::size_t id = 0; id < log.files.size(); ++id) {
    out[id] = detect_overlaps(log.files[id].accesses, opts);
  }
  return out;
}

namespace {

/// Coalesce each rank's extents: sort by begin and merge runs of
/// exactly-contiguous (end == next begin) extents. A merged run tiles
/// its range with no gaps, so "overlaps the merged extent" is exactly
/// "overlaps some constituent" — no rank-pair bit changes — while long
/// per-rank consecutive streams collapse to a handful of segments.
/// Overlapping same-rank extents are deliberately NOT merged: their
/// mutual pair is what sets the diagonal table[r][r] bit.
std::vector<Access> coalesce_per_rank(std::span<const Access> accesses) {
  std::vector<Access> reduced(accesses.begin(), accesses.end());
  std::erase_if(reduced, [](const Access& a) { return a.ext.empty(); });
  std::sort(reduced.begin(), reduced.end(), [](const Access& a, const Access& b) {
    return a.rank != b.rank ? a.rank < b.rank : a.ext.begin < b.ext.begin;
  });
  std::size_t out = 0;
  for (std::size_t i = 0; i < reduced.size(); ++i) {
    if (out > 0 && reduced[out - 1].rank == reduced[i].rank &&
        reduced[out - 1].ext.end == reduced[i].ext.begin) {
      reduced[out - 1].ext.end = reduced[i].ext.end;
    } else {
      reduced[out++] = reduced[i];
    }
  }
  reduced.resize(out);
  return reduced;
}

void fill_rank_table(std::span<const Access> accesses,
                     std::span<const OverlapPair> pairs,
                     std::vector<std::vector<bool>>& table) {
  for (const auto& p : pairs) {
    const auto ri = static_cast<std::size_t>(accesses[p.first].rank);
    const auto rj = static_cast<std::size_t>(accesses[p.second].rank);
    table[ri][rj] = true;
    table[rj][ri] = true;
  }
}

}  // namespace

std::vector<std::vector<bool>> overlap_rank_table(std::span<const Access> accesses,
                                                  int nranks) {
  std::vector table(static_cast<std::size_t>(nranks),
                    std::vector<bool>(static_cast<std::size_t>(nranks), false));
  const auto reduced = coalesce_per_rank(accesses);
  fill_rank_table(reduced, detect_overlaps(reduced, {.writes_only = false}),
                  table);
  return table;
}

std::vector<std::vector<bool>> overlap_rank_table(std::span<const Access> accesses,
                                                  std::span<const OverlapPair> pairs,
                                                  int nranks) {
  std::vector table(static_cast<std::size_t>(nranks),
                    std::vector<bool>(static_cast<std::size_t>(nranks), false));
  fill_rank_table(accesses, pairs, table);
  return table;
}

}  // namespace pfsem::core
