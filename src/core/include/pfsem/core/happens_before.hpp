#pragma once
// Happens-before reconstruction from communication events (Section 5.2).
//
// The paper validates its timestamp-based ordering by matching sends to
// receives and collective invocations and checking that conflicting I/O
// operations are ordered by the program's synchronization. We rebuild the
// same partial order with vector clocks over the matched CommLog events
// (trace::decode_comm of a bundle's encoded comm log):
//
//   * program order within a rank;
//   * P2P: send start -> receive completion;
//   * Barrier/Allreduce/Allgather/Alltoall: every enter -> every exit;
//   * Bcast/Scatter: root enter -> every exit;
//   * Reduce/Gather: every enter -> root exit.
//
// ordered(r1,t1,r2,t2) asks whether an operation at local time t1 on r1
// must precede an operation at t2 on r2: there must be a release event on
// r1 at/after t1 whose knowledge reaches r2 by an acquire completing
// at/before t2.

#include <vector>

#include "pfsem/core/conflict.hpp"
#include "pfsem/trace/comm_log.hpp"

namespace pfsem::core {

class HappensBefore {
 public:
  HappensBefore(const trace::CommLog& comm, int nranks);

  /// True if (r1, t1) happens-before (r2, t2) under the reconstructed
  /// synchronization order. Same-rank queries reduce to t1 <= t2.
  [[nodiscard]] bool ordered(Rank r1, SimTime t1, Rank r2, SimTime t2) const;

  [[nodiscard]] int nranks() const { return nranks_; }

 private:
  using Clock = std::vector<std::uint32_t>;

  struct Node {
    Rank rank;
    SimTime t_enter;  ///< release point (knowledge leaves at/after this)
    SimTime t_exit;   ///< acquire point (knowledge arrives by this)
    std::uint32_t seq;  ///< index of this node within its rank's timeline
    Clock clock;        ///< knowledge after this node completes
  };

  /// Per-rank timelines of nodes, each sorted by time.
  std::vector<std::vector<Node>> timeline_;
  int nranks_;
};

/// Validation result for one run (the Section 5.2 experiment).
struct RaceCheck {
  std::uint64_t checked = 0;
  std::uint64_t synchronized = 0;  ///< pairs ordered by happens-before
  std::uint64_t racy = 0;          ///< pairs with no ordering: data races
};

/// Check that every potential-conflict pair in `report` is ordered by the
/// communication structure (timestamp order matches execution order).
[[nodiscard]] RaceCheck validate_synchronization(const ConflictReport& report,
                                                 const HappensBefore& hb);

}  // namespace pfsem::core
