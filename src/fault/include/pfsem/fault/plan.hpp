#pragma once
// Deterministic fault plans.
//
// A FaultPlan is a declarative, seed-driven schedule of environment faults
// for one simulated run: transient I/O errors (EIO/ENOSPC) with a
// configurable probability per operation class, OST slowdown windows
// (stragglers), delayed-visibility spikes for the eventual model, dropped-
// then-retransmitted MPI messages, and fail-stop rank/node crashes at a
// fixed simulated time. Plans are pure data; the fault::Injector turns a
// (plan, seed) pair into concrete per-operation decisions. Because the DES
// engine dispatches events in a deterministic order, the same plan + seed
// always produces bit-identical traces and identical degraded-mode stats.
//
// The spec grammar (parsed by FaultPlan::parse, documented in
// docs/faults.md) is a semicolon-separated clause list:
//
//   eio:p=0.01,ops=write        transient EIO on 1% of writes
//   enospc:p=0.001,ops=data     transient ENOSPC on reads+writes
//   slow:factor=10,from=1ms,to=3ms[,ost=2]   OST slowdown window
//   vis:extra=20ms,from=0,to=5ms             visibility spike (eventual)
//   drop:p=0.05,timeout=1ms     MPI message drop + retransmit delay
//   crash:rank=3,t=2ms          fail-stop crash of rank 3 at t=2ms
//   crash:node=1,t=2ms          crash every rank on node 1
//
// Server fault domains (multi-server PfsCluster backend, docs/topology.md):
//
//   crash_mds:id=1,t=2ms        fail-stop crash of metadata server 1
//   crash_ost:id=0,t=2ms        fail-stop crash of data server (OST) 0
//   restart_server:mds=1,t=8ms  metadata server 1 rejoins the cluster
//   restart_server:ost=0,t=8ms  OST 0 rejoins (its stripes readable again)
//   partition:ranks=0-3,from=1ms,to=4ms   network partition: ranks 0..3
//                               are split from the rest; cross-partition
//                               write visibility defers to the heal time

#include <string>
#include <vector>

#include "pfsem/util/types.hpp"

namespace pfsem::fault {

/// Operation classes transient faults can target.
enum class OpClass : std::uint8_t { Read = 0, Write = 1, Meta = 2, Sync = 3 };
inline constexpr int kOpClasses = 4;

[[nodiscard]] const char* to_string(OpClass c);

// Simulated errno values (numerically equal to Linux's, but self-contained
// so the simulation does not depend on the host's <cerrno>).
inline constexpr int kEio = 5;     ///< I/O error (transient, retryable)
inline constexpr int kEnospc = 28; ///< no space left (transient, retryable)
inline constexpr int kErofs = 30;  ///< read-only file (laminated; permanent)
inline constexpr int kEhostdown = 112;  ///< server dead (failover, not retry)

/// Human name for a simulated errno ("EIO", "ENOSPC", ...).
[[nodiscard]] const char* errno_name(int err);

/// Inject `err` on each matching operation with probability `probability`.
struct TransientFault {
  int err = kEio;
  double probability = 0.0;
  bool ops[kOpClasses] = {false, false, false, false};

  [[nodiscard]] bool applies(OpClass c) const {
    return ops[static_cast<int>(c)];
  }
};

/// Multiply per-OST transfer time by `factor` during [from, to).
struct OstSlowdown {
  double factor = 1.0;
  SimTime from = 0;
  SimTime to = kTimeNever;
  int ost = -1;  ///< -1 = every OST (whole-PFS congestion)
};

/// Writes issued during [from, to) take `extra` additional propagation
/// time before becoming visible under the eventual model.
struct VisibilitySpike {
  SimDuration extra = 0;
  SimTime from = 0;
  SimTime to = kTimeNever;
};

/// Drop each MPI message with probability `probability`; the sender
/// retransmits after `retransmit` (so the message is delayed, not lost).
struct MpiDrop {
  double probability = 0.0;
  SimDuration retransmit = 1'000'000;  // 1 ms
};

/// Fail-stop crash: exactly one of `rank` / `node` is set.
struct CrashEvent {
  Rank rank = kNoRank;
  int node = -1;
  SimTime t = 0;
};

/// Which server class a server-level fault event targets.
enum class ServerKind : std::uint8_t { Mds = 0, Ost = 1 };

[[nodiscard]] const char* to_string(ServerKind k);

/// Human name of server `id` of `kind` ("mds1", "ost0", ...).
[[nodiscard]] std::string server_name(ServerKind kind, int id);

/// Fail-stop crash (`restart == false`) or rejoin (`restart == true`) of
/// one PfsCluster server at simulated time `t`.
struct ServerEvent {
  ServerKind kind = ServerKind::Mds;
  int id = 0;
  SimTime t = 0;
  bool restart = false;
};

/// Network partition: ranks [lo, hi] are cut off from every other rank
/// during [from, to). Both sides keep running on their own view; a write
/// issued by one side becomes visible to the other only once the
/// partition heals (visibility key clamped to `to`) — the split-brain
/// divergence is observable even under the strong model.
struct Partition {
  Rank lo = 0;
  Rank hi = 0;
  SimTime from = 0;
  SimTime to = kTimeNever;  ///< heal time; kTimeNever = never heals

  [[nodiscard]] bool inside(Rank r) const { return r >= lo && r <= hi; }
};

struct FaultPlan {
  std::vector<TransientFault> transients;
  std::vector<OstSlowdown> slowdowns;
  std::vector<VisibilitySpike> spikes;
  std::vector<MpiDrop> drops;
  std::vector<CrashEvent> crashes;
  std::vector<ServerEvent> server_events;
  std::vector<Partition> partitions;

  [[nodiscard]] bool empty() const {
    return transients.empty() && slowdowns.empty() && spikes.empty() &&
           drops.empty() && crashes.empty() && server_events.empty() &&
           partitions.empty();
  }

  /// Parse the spec grammar above; throws pfsem::Error on malformed input.
  [[nodiscard]] static FaultPlan parse(const std::string& spec);

  /// Check every server event against a concrete cluster topology;
  /// throws pfsem::Error on a server id >= the configured server count.
  /// A single-server preset passes (0, 0): any server event is an error
  /// there (the plan needs a named topology, i.e. --mds/--ost).
  void validate_topology(int mds_count, int ost_count) const;
};

}  // namespace pfsem::fault
