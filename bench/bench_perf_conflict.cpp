// Performance bench for conflict detection: end-to-end trace analysis
// throughput (reconstruction + detection on a real FLASH trace) and the
// Section 5.2 ablation — annotating each record with its next commit /
// close by a single traversal versus per-pair binary searches over the
// commit tables (the two implementation strategies the paper discusses).

#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench_common.hpp"
#include "pfsem/core/conflict.hpp"
#include "pfsem/core/offset_tracker.hpp"
#include "pfsem/core/overlap.hpp"

namespace {

using namespace pfsem;

const trace::TraceBundle& flash_bundle() {
  static const trace::TraceBundle bundle = [] {
    return apps::run_app(*apps::find_app("FLASH-fbs"), bench::paper_scale());
  }();
  return bundle;
}

void BM_OffsetReconstruction_Flash(benchmark::State& state) {
  const auto& bundle = flash_bundle();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::reconstruct_accesses(bundle));
  }
  state.counters["records"] = static_cast<double>(bundle.records.size());
}
BENCHMARK(BM_OffsetReconstruction_Flash);

void BM_ConflictDetection_Flash(benchmark::State& state) {
  const auto log = core::reconstruct_accesses(flash_bundle());
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::detect_conflicts(log));
  }
}
BENCHMARK(BM_ConflictDetection_Flash);

void BM_EndToEnd_Flash(benchmark::State& state) {
  const auto& bundle = flash_bundle();
  for (auto _ : state) {
    const auto log = core::reconstruct_accesses(bundle);
    benchmark::DoNotOptimize(core::detect_conflicts(log));
  }
}
BENCHMARK(BM_EndToEnd_Flash);

// --- ablation: traversal annotation vs per-pair binary search -----------

struct SyntheticFile {
  core::FileLog fl;
  std::vector<core::OverlapPair> pairs;
};

SyntheticFile synthetic_file(std::size_t accesses, std::size_t commits) {
  SyntheticFile sf;
  Rng rng(99);
  for (std::size_t i = 0; i < accesses; ++i) {
    core::Access a;
    a.t = static_cast<SimTime>(i * 100);
    a.rank = static_cast<Rank>(rng.below(64));
    a.type = core::AccessType::Write;
    a.ext = {0, 96};  // everything overlaps: max pair pressure
    a.t_commit = kTimeNever;
    sf.fl.accesses.push_back(a);
  }
  for (Rank r = 0; r < 64; ++r) {
    auto& v = sf.fl.commits[r];
    for (std::size_t c = 0; c < commits; ++c) {
      v.push_back(static_cast<SimTime>(rng.below(accesses * 100)));
    }
    std::sort(v.begin(), v.end());
  }
  sf.pairs = core::detect_overlaps(sf.fl.accesses);
  return sf;
}

/// Strategy A (ours): one pass per rank to annotate t_commit, then O(1)
/// per pair.
void BM_CommitCondition_Annotated(benchmark::State& state) {
  auto sf = synthetic_file(2000, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    // annotate
    for (auto& a : sf.fl.accesses) {
      const auto& v = sf.fl.commits[a.rank];
      auto ub = std::upper_bound(v.begin(), v.end(), a.t);
      a.t_commit = ub == v.end() ? kTimeNever : *ub;
    }
    // evaluate pairs
    std::uint64_t conflicts = 0;
    for (const auto& p : sf.pairs) {
      const auto& a = sf.fl.accesses[p.first];
      const auto& b = sf.fl.accesses[p.second];
      const auto& first = a.t <= b.t ? a : b;
      const auto& second = a.t <= b.t ? b : a;
      conflicts += first.t_commit > second.t ? 1 : 0;
    }
    benchmark::DoNotOptimize(conflicts);
  }
  state.counters["pairs"] = static_cast<double>(sf.pairs.size());
}
BENCHMARK(BM_CommitCondition_Annotated)->Arg(4)->Arg(64)->Arg(1024);

/// Strategy B (paper's alternative): binary search the commit table per
/// pair.
void BM_CommitCondition_BinarySearchPerPair(benchmark::State& state) {
  auto sf = synthetic_file(2000, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    std::uint64_t conflicts = 0;
    for (const auto& p : sf.pairs) {
      const auto& a = sf.fl.accesses[p.first];
      const auto& b = sf.fl.accesses[p.second];
      const auto& first = a.t <= b.t ? a : b;
      const auto& second = a.t <= b.t ? b : a;
      const auto& v = sf.fl.commits[first.rank];
      auto ub = std::upper_bound(v.begin(), v.end(), first.t);
      const SimTime tc = ub == v.end() ? kTimeNever : *ub;
      conflicts += tc > second.t ? 1 : 0;
    }
    benchmark::DoNotOptimize(conflicts);
  }
}
BENCHMARK(BM_CommitCondition_BinarySearchPerPair)->Arg(4)->Arg(64)->Arg(1024);

// --- happens-before reconstruction (Section 5.2 validation) --------------

void BM_HappensBeforeBuild_Flash(benchmark::State& state) {
  const auto& bundle = flash_bundle();
  const auto comm = trace::decode_comm(bundle.comm, bundle.nranks);
  for (auto _ : state) {
    const core::HappensBefore hb(comm, bundle.nranks);
    benchmark::DoNotOptimize(&hb);
  }
  state.counters["collectives"] =
      static_cast<double>(bundle.comm.collective_count);
}
BENCHMARK(BM_HappensBeforeBuild_Flash);

void BM_HappensBeforeQuery_Flash(benchmark::State& state) {
  const auto& bundle = flash_bundle();
  const core::HappensBefore hb(trace::decode_comm(bundle.comm, bundle.nranks),
                               bundle.nranks);
  const auto log = core::reconstruct_accesses(bundle);
  const auto report = core::detect_conflicts(log);
  for (auto _ : state) {
    std::uint64_t ordered = 0;
    for (const auto& c : report.conflicts) {
      ordered += hb.ordered(c.first.rank, c.first.t, c.second.rank, c.second.t);
    }
    benchmark::DoNotOptimize(ordered);
  }
  state.counters["pairs"] = static_cast<double>(report.conflicts.size());
}
BENCHMARK(BM_HappensBeforeQuery_Flash);

// --- ablation: sort-based merge (Section 5.1 remark) ---------------------

void BM_SortRecords(benchmark::State& state) {
  const auto& bundle = flash_bundle();
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < bundle.records.size(); ++i) order.push_back(i);
  for (auto _ : state) {
    auto copy = order;
    std::stable_sort(copy.begin(), copy.end(), [&](std::size_t x, std::size_t y) {
      return bundle.records[x].tstart < bundle.records[y].tstart;
    });
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_SortRecords);

/// The paper notes per-rank records are already sorted, so a k-way merge
/// could replace the sort.
void BM_KWayMergeRecords(benchmark::State& state) {
  const auto& bundle = flash_bundle();
  std::vector<std::vector<std::size_t>> per_rank(64);
  for (std::size_t i = 0; i < bundle.records.size(); ++i) {
    per_rank[static_cast<std::size_t>(bundle.records[i].rank)].push_back(i);
  }
  for (auto _ : state) {
    using Head = std::pair<SimTime, std::size_t>;  // (time, rank)
    std::vector<std::size_t> cursor(64, 0);
    std::priority_queue<Head, std::vector<Head>, std::greater<>> heap;
    for (std::size_t r = 0; r < 64; ++r) {
      if (!per_rank[r].empty()) {
        heap.emplace(bundle.records[per_rank[r][0]].tstart, r);
      }
    }
    std::vector<std::size_t> merged;
    merged.reserve(bundle.records.size());
    while (!heap.empty()) {
      const auto [t, r] = heap.top();
      heap.pop();
      merged.push_back(per_rank[r][cursor[r]]);
      if (++cursor[r] < per_rank[r].size()) {
        heap.emplace(bundle.records[per_rank[r][cursor[r]]].tstart, r);
      }
    }
    benchmark::DoNotOptimize(merged);
  }
}
BENCHMARK(BM_KWayMergeRecords);

}  // namespace
