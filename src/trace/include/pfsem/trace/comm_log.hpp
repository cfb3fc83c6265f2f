#pragma once
// Communication event log.
//
// Recorder also captures MPI communication calls; the paper uses them
// (Section 5.2) to validate that the timestamp order of conflicting I/O
// operations is enforced by the program's synchronization. We store matched
// events: point-to-point sends/receives and collectives with per-rank
// enter/exit times. The happens-before checker in pfsem::core rebuilds
// vector clocks from exactly this information.

#include <cstdint>
#include <vector>

#include "pfsem/util/error.hpp"
#include "pfsem/util/types.hpp"

namespace pfsem::trace {

enum class CollectiveKind : std::uint8_t {
  Barrier,
  Bcast,
  Reduce,
  Allreduce,
  Gather,
  Allgather,
  Scatter,
  Alltoall,
};

inline constexpr std::uint64_t kCollectiveKindCount =
    static_cast<std::uint64_t>(CollectiveKind::Alltoall) + 1;

/// Kinds whose happens-before edges run through a root rank.
[[nodiscard]] constexpr bool is_rooted(CollectiveKind k) {
  return k == CollectiveKind::Bcast || k == CollectiveKind::Scatter ||
         k == CollectiveKind::Reduce || k == CollectiveKind::Gather;
}

[[nodiscard]] inline const char* to_string(CollectiveKind k) {
  switch (k) {
    case CollectiveKind::Barrier: return "barrier";
    case CollectiveKind::Bcast: return "bcast";
    case CollectiveKind::Reduce: return "reduce";
    case CollectiveKind::Allreduce: return "allreduce";
    case CollectiveKind::Gather: return "gather";
    case CollectiveKind::Allgather: return "allgather";
    case CollectiveKind::Scatter: return "scatter";
    case CollectiveKind::Alltoall: return "alltoall";
  }
  return "?";
}

/// A matched point-to-point message. Happens-before edge: the send start
/// precedes the receive completion (the only edge MPI guarantees).
struct P2PEvent {
  Rank src = kNoRank;
  Rank dst = kNoRank;
  std::int32_t tag = 0;
  std::uint64_t bytes = 0;
  SimTime t_send_start = 0;  ///< global (skew-free) time
  SimTime t_send_end = 0;
  SimTime t_recv_start = 0;
  SimTime t_recv_end = 0;
};

/// One rank's participation interval in a collective.
struct CollectiveArrival {
  Rank rank = kNoRank;
  SimTime t_enter = 0;
  SimTime t_exit = 0;
};

/// A matched collective operation over an explicit participant group.
/// Happens-before edges by kind:
///   Barrier/Allreduce/Allgather/Alltoall : every enter -> every exit
///   Bcast/Scatter                        : root enter  -> every exit
///   Reduce/Gather                        : every enter -> root exit
struct CollectiveEvent {
  CollectiveKind kind = CollectiveKind::Barrier;
  Rank root = kNoRank;  ///< kNoRank for rootless collectives
  std::vector<CollectiveArrival> arrivals;
};

/// Throw pfsem::Error unless `c` is a known kind whose arrivals (and
/// root, for rooted kinds) are ranks in [0, nranks). Decoders run this
/// on every collective they read, and HappensBefore on every one it
/// replays, since both index per-rank tables by these ranks.
inline void check_collective(const CollectiveEvent& c, int nranks) {
  const auto in_range = [nranks](Rank r) { return r >= 0 && r < nranks; };
  require(static_cast<std::uint64_t>(c.kind) < kCollectiveKindCount,
          "unknown collective kind");
  require(!is_rooted(c.kind) || in_range(c.root),
          "collective root out of range");
  for (const auto& a : c.arrivals) {
    require(in_range(a.rank), "collective arrival rank out of range");
  }
}

struct CommLog {
  std::vector<P2PEvent> p2p;
  std::vector<CollectiveEvent> collectives;

  void clear() {
    p2p.clear();
    collectives.clear();
  }
};

}  // namespace pfsem::trace
