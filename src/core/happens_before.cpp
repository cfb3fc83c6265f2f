#include "pfsem/core/happens_before.hpp"

#include <algorithm>

#include "pfsem/util/error.hpp"

namespace pfsem::core {

namespace {

/// Merge key: the global position of an event is approximated by its
/// latest participant exit; the simulator emits events in completion
/// order, so this reconstructs a causally consistent processing order
/// (clock skew is orders of magnitude below event spacing, Section 5.2).
struct MergedEvent {
  SimTime completion;
  bool is_p2p;
  std::size_t index;
};

}  // namespace

HappensBefore::HappensBefore(const trace::CommLog& comm, int nranks)
    : timeline_(static_cast<std::size_t>(nranks)), nranks_(nranks) {
  std::vector<MergedEvent> events;
  events.reserve(comm.p2p.size() + comm.collectives.size());
  for (std::size_t i = 0; i < comm.p2p.size(); ++i) {
    events.push_back({comm.p2p[i].t_recv_end, true, i});
  }
  for (std::size_t i = 0; i < comm.collectives.size(); ++i) {
    SimTime done = 0;
    for (const auto& a : comm.collectives[i].arrivals) {
      done = std::max(done, a.t_exit);
    }
    events.push_back({done, false, i});
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const MergedEvent& a, const MergedEvent& b) {
                     return a.completion < b.completion;
                   });

  std::vector<Clock> cur(static_cast<std::size_t>(nranks),
                         Clock(static_cast<std::size_t>(nranks), 0));
  std::vector<std::uint32_t> seq(static_cast<std::size_t>(nranks), 0);

  auto push_node = [&](Rank r, SimTime t_enter, SimTime t_exit) {
    auto& s = seq[static_cast<std::size_t>(r)];
    ++s;
    auto& c = cur[static_cast<std::size_t>(r)];
    c[static_cast<std::size_t>(r)] = s;
    timeline_[static_cast<std::size_t>(r)].push_back(
        Node{r, t_enter, t_exit, s, c});
  };
  auto join = [&](Rank into, const Clock& from) {
    auto& c = cur[static_cast<std::size_t>(into)];
    for (std::size_t k = 0; k < c.size(); ++k) c[k] = std::max(c[k], from[k]);
  };

  for (const auto& ev : events) {
    if (ev.is_p2p) {
      const auto& p = comm.p2p[ev.index];
      trace::check_p2p(p, nranks);
      push_node(p.src, p.t_send_start, p.t_send_end);
      join(p.dst, cur[static_cast<std::size_t>(p.src)]);
      push_node(p.dst, p.t_recv_start, p.t_recv_end);
    } else {
      const auto& c = comm.collectives[ev.index];
      trace::check_collective(c, nranks);
      using K = trace::CollectiveKind;
      const bool root_releases = c.kind == K::Bcast || c.kind == K::Scatter;
      const bool root_acquires = c.kind == K::Reduce || c.kind == K::Gather;
      // The participation node of a releasing rank must itself be visible
      // to acquirers (its seq is what ordered() compares against), so
      // releasers' nodes are pushed before acquirers join.
      if (root_releases) {
        for (const auto& a : c.arrivals) {
          if (a.rank == c.root) push_node(a.rank, a.t_enter, a.t_exit);
        }
        const Clock root_clock = cur[static_cast<std::size_t>(c.root)];
        for (const auto& a : c.arrivals) {
          if (a.rank == c.root) continue;
          join(a.rank, root_clock);
          push_node(a.rank, a.t_enter, a.t_exit);
        }
      } else if (root_acquires) {
        for (const auto& a : c.arrivals) {
          if (a.rank != c.root) push_node(a.rank, a.t_enter, a.t_exit);
        }
        Clock merged = cur[static_cast<std::size_t>(c.root)];
        for (const auto& a : c.arrivals) {
          const auto& rc = cur[static_cast<std::size_t>(a.rank)];
          for (std::size_t k = 0; k < merged.size(); ++k) {
            merged[k] = std::max(merged[k], rc[k]);
          }
        }
        join(c.root, merged);
        for (const auto& a : c.arrivals) {
          if (a.rank == c.root) push_node(a.rank, a.t_enter, a.t_exit);
        }
      } else {
        // Rootless: everyone releases and acquires. Assign every
        // participant its event seq first, merge, then store the merged
        // clock on every node.
        for (const auto& a : c.arrivals) {
          auto& s = seq[static_cast<std::size_t>(a.rank)];
          ++s;
          cur[static_cast<std::size_t>(a.rank)][static_cast<std::size_t>(a.rank)] = s;
        }
        Clock merged(static_cast<std::size_t>(nranks), 0);
        for (const auto& a : c.arrivals) {
          const auto& rc = cur[static_cast<std::size_t>(a.rank)];
          for (std::size_t k = 0; k < merged.size(); ++k) {
            merged[k] = std::max(merged[k], rc[k]);
          }
        }
        for (const auto& a : c.arrivals) {
          cur[static_cast<std::size_t>(a.rank)] = merged;
          timeline_[static_cast<std::size_t>(a.rank)].push_back(
              Node{a.rank, a.t_enter, a.t_exit,
                   seq[static_cast<std::size_t>(a.rank)], merged});
        }
      }
    }
  }
}

bool HappensBefore::ordered(Rank r1, SimTime t1, Rank r2, SimTime t2) const {
  if (r1 == r2) return t1 <= t2;
  require(r1 >= 0 && r1 < nranks_ && r2 >= 0 && r2 < nranks_,
          "ordered(): rank out of range");
  const auto& tl1 = timeline_[static_cast<std::size_t>(r1)];
  const auto& tl2 = timeline_[static_cast<std::size_t>(r2)];
  // First release on r1 entering at/after t1.
  auto rel = std::lower_bound(
      tl1.begin(), tl1.end(), t1,
      [](const Node& n, SimTime t) { return n.t_enter < t; });
  if (rel == tl1.end()) return false;
  // Last acquire on r2 exiting at/before t2.
  auto acq = std::upper_bound(
      tl2.begin(), tl2.end(), t2,
      [](SimTime t, const Node& n) { return t < n.t_exit; });
  if (acq == tl2.begin()) return false;
  --acq;
  return acq->clock[static_cast<std::size_t>(r1)] >= rel->seq;
}

RaceCheck validate_synchronization(const ConflictReport& report,
                                   const HappensBefore& hb) {
  RaceCheck rc;
  for (const auto& c : report.conflicts) {
    ++rc.checked;
    if (hb.ordered(c.first.rank, c.first.t, c.second.rank, c.second.t)) {
      ++rc.synchronized;
    } else {
      ++rc.racy;
    }
  }
  return rc;
}

}  // namespace pfsem::core
