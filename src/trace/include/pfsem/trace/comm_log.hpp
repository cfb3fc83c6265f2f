#pragma once
// Communication event log.
//
// Recorder also captures MPI communication calls; the paper uses them
// (Section 5.2) to validate that the timestamp order of conflicting I/O
// operations is enforced by the program's synchronization. We store matched
// events: point-to-point sends/receives and collectives with per-rank
// enter/exit times. The happens-before checker in pfsem::core rebuilds
// vector clocks from exactly this information. Captured logs travel as
// bytes (EncodedCommLog); decode_comm() turns them into the structs below
// for that checker.

#include <cstdint>
#include <string>
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

/// Throw pfsem::Error unless both ends of `e` are ranks in [0, nranks).
/// Decoders run this on every message they read, and HappensBefore on
/// every one it replays, since both index per-rank tables by these ranks.
inline void check_p2p(const P2PEvent& e, int nranks) {
  require(e.src >= 0 && e.src < nranks && e.dst >= 0 && e.dst < nranks,
          "p2p event rank out of range");
}

/// Throw pfsem::Error unless `c` is a known kind whose arrivals (and
/// root, for rooted kinds) are ranks in [0, nranks). Checked at the same
/// places as check_p2p, for the same reason.
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

/// A decoded comm log: the input of core::HappensBefore.
struct CommLog {
  std::vector<P2PEvent> p2p;
  std::vector<CollectiveEvent> collectives;
};

/// A comm log in its serialized form: each section's event count and the
/// concatenated bytes of its events, as detail::put_p2p/put_collective
/// (serialize.hpp) encode them. This is the one form a comm log takes from
/// capture to disk: the collector appends each event's bytes as it
/// completes, TraceBundle and StreamMeta carry them, and the compact v2
/// and chunk trailers are varint(p2p_count) p2p varint(collective_count)
/// collectives (v1 converts at its edge). Only decode_comm() turns it
/// back into a CommLog.
struct EncodedCommLog {
  std::uint64_t p2p_count = 0;
  std::uint64_t collective_count = 0;
  std::string p2p;
  std::string collectives;

  bool operator==(const EncodedCommLog&) const = default;
};

/// Encode every event of `comm`, in order.
[[nodiscard]] EncodedCommLog write_comm(const CommLog& comm);

/// Decode `comm` into events, validating each one against `nranks` (the
/// checks of the trace decoders). Throws pfsem::Error on malformed bytes,
/// a count that does not match its section, or trailing bytes. The input
/// of core::HappensBefore is the one place a CommLog is needed.
[[nodiscard]] CommLog decode_comm(const EncodedCommLog& comm, int nranks);

}  // namespace pfsem::trace
