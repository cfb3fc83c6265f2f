#include "pfsem/core/offset_tracker.hpp"

#include <algorithm>

#include "offset_stepper.hpp"

namespace pfsem::core {

namespace detail {

void annotate_file(FileLog& fl) {
  for (auto& [rank, v] : fl.opens) std::sort(v.begin(), v.end());
  for (auto& [rank, v] : fl.closes) std::sort(v.begin(), v.end());
  for (auto& [rank, v] : fl.commits) std::sort(v.begin(), v.end());
  std::stable_sort(fl.accesses.begin(), fl.accesses.end(),
                   [](const Access& a, const Access& b) { return a.t < b.t; });
  for (auto& a : fl.accesses) {
    if (auto it = fl.opens.find(a.rank); it != fl.opens.end()) {
      auto ub = std::upper_bound(it->second.begin(), it->second.end(), a.t);
      a.t_open = ub == it->second.begin() ? 0 : *std::prev(ub);
    }
    auto first_after = [&](const std::map<Rank, std::vector<SimTime>>& m) {
      auto it = m.find(a.rank);
      if (it == m.end()) return kTimeNever;
      auto ub = std::upper_bound(it->second.begin(), it->second.end(), a.t);
      return ub == it->second.end() ? kTimeNever : *ub;
    };
    a.t_commit = first_after(fl.commits);
    a.t_close = first_after(fl.closes);
  }
}

void annotate_accesses(AccessLog& log) {
  for (auto& fl : log.files) annotate_file(fl);
}

}  // namespace detail

AccessLog reconstruct_accesses(const trace::TraceBundle& bundle,
                               OffsetTrackerOptions opts) {
  // Sort POSIX records by (local) timestamp, the order the paper uses.
  std::vector<std::size_t> order;
  order.reserve(bundle.records.size());
  for (std::size_t i = 0; i < bundle.records.size(); ++i) {
    if (bundle.records[i].layer == trace::Layer::Posix) order.push_back(i);
  }
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return bundle.records[a].tstart < bundle.records[b].tstart;
  });

  AccessLog log;
  log.nranks = bundle.nranks;
  // Adopt the bundle's intern table: record FileIds are store FileIds.
  log.paths = bundle.paths;
  log.files.resize(log.paths.size());
  // Column hints from the collector: pre-size each file's access
  // column so the grouping below appends without regrowth. The hints
  // count every record touching the file (opens/commits included), so
  // they are a slight overestimate of the data-op count — fine for
  // reserve.
  if (!bundle.file_op_counts.empty()) {
    const std::size_t n =
        std::min(bundle.file_op_counts.size(), log.files.size());
    for (std::size_t id = 0; id < n; ++id) {
      if (bundle.file_op_counts[id] > 0) {
        log.files[id].accesses.reserve(bundle.file_op_counts[id]);
      }
    }
  }

  detail::OffsetStepper stepper(log, opts);
  for (std::size_t index : order) stepper.step(bundle.records[index], index);
  detail::annotate_accesses(log);
  return log;
}

}  // namespace pfsem::core
