#include "pfsem/core/offset_tracker.hpp"

#include <algorithm>
#include <map>

#include "offset_stepper.hpp"

namespace pfsem::core {

namespace detail {

namespace {

using EventTable = std::map<Rank, std::vector<SimTime>>;

void sort_events(EventTable& table) {
  for (auto& [rank, v] : table) {
    if (!std::is_sorted(v.begin(), v.end())) std::sort(v.begin(), v.end());
  }
}

}  // namespace

void Annotator::annotate_file(FileLog& fl) {
  sort_events(fl.opens);
  sort_events(fl.closes);
  sort_events(fl.commits);
  const auto by_time = [](const Access& a, const Access& b) { return a.t < b.t; };
  if (!std::is_sorted(fl.accesses.begin(), fl.accesses.end(), by_time)) {
    std::stable_sort(fl.accesses.begin(), fl.accesses.end(), by_time);
  }

  Rank max_rank = -1;
  for (const auto& a : fl.accesses) {
    require(a.rank >= 0, "access without a rank");
    max_rank = std::max(max_rank, a.rank);
  }
  if (by_rank_.size() < static_cast<std::size_t>(max_rank) + 1) {
    by_rank_.resize(static_cast<std::size_t>(max_rank) + 1);
  }
  // Ranks past the last accessing rank have nothing to annotate.
  const auto slot = [&](Rank r) {
    return r >= 0 && r <= max_rank ? &by_rank_[static_cast<std::size_t>(r)]
                                   : nullptr;
  };
  for (const auto& [r, v] : fl.opens) {
    if (RankEvents* s = slot(r)) s->opens = {v};
  }
  for (const auto& [r, v] : fl.commits) {
    if (RankEvents* s = slot(r)) s->commits = {v};
  }
  for (const auto& [r, v] : fl.closes) {
    if (RankEvents* s = slot(r)) s->closes = {v};
  }

  // Accesses are in time order, so each rank's cursors only move forward.
  for (auto& a : fl.accesses) {
    RankEvents& ev = by_rank_[static_cast<std::size_t>(a.rank)];
    ev.opens.skip_through(a.t);
    ev.commits.skip_through(a.t);
    ev.closes.skip_through(a.t);
    a.t_open = ev.opens.last();
    a.t_commit = ev.commits.next();
    a.t_close = ev.closes.next();
  }

  // Leave the table empty for the next file.
  for (const EventTable* table : {&fl.opens, &fl.commits, &fl.closes}) {
    for (const auto& [r, v] : *table) {
      if (RankEvents* s = slot(r)) *s = {};
    }
  }
}

void annotate_accesses(AccessLog& log) {
  Annotator annotator;
  for (auto& fl : log.files) annotator.annotate_file(fl);
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
